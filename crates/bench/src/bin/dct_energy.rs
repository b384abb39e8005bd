//! E9 — extends §3.6's remark ("the implementations can have different
//! power consumption due to the different area usage and different signal
//! activities"): per-implementation energy from measured toggle counts
//! under the technology model, forming the area/energy/precision Pareto.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin dct_energy
//! ```

use dsra_bench::{banner, metric, outln, write_json_summary, Args, JsonValue};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::place::place;
use dsra_core::route::route;
use dsra_dct::{all_impls, measure_accuracy, DaParams};
use dsra_platform::profiling_activity;
use dsra_power::energy_per_block;
use dsra_tech::{dsra_cost, TechModel};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner(
        "E9",
        "§3.6: area/activity/power differences across the mappings",
    );
    let fabric = Fabric::da_array(20, 14, MeshSpec::mixed());
    let model = TechModel::default();
    outln(format!(
        "{:<10} {:>9} {:>10} {:>12} {:>10} {:>13} {:>11}",
        "impl", "clusters", "area", "E-dyn/cyc", "P-leak", "E/block", "max |err|"
    ));
    let mut rows = Vec::new();
    for imp in all_impls(DaParams::precise()).unwrap() {
        let nl = imp.netlist();
        let placement = place(nl, &fabric).unwrap();
        let routing = route(nl, &fabric, &placement).unwrap();
        // Static + dynamic through the power subsystem's single
        // energy-per-block producer, fed the same profiling stimulus
        // `profile_impl` measures under — formula *and* activity input
        // are shared, so this table and the numbers the run-time
        // policies (and E12's energy accounts) select on cannot drift.
        let act = profiling_activity(nl).unwrap();
        let cost = dsra_cost(nl, &routing.stats, &act, &model);
        let acc = measure_accuracy(imp.as_ref(), 8, 2047, 0xE9).unwrap();
        let split = cost.energy_split();
        let e_block = energy_per_block(&split, imp.cycles_per_block());
        outln(format!(
            "{:<10} {:>9} {:>10.1} {:>12.1} {:>10.1} {:>13.1} {:>11.3}",
            imp.name(),
            nl.resource_report().total_clusters(),
            cost.area,
            split.dyn_energy_per_cycle,
            split.leak_power,
            e_block,
            acc.max_abs_err
        ));
        rows.push((imp.name().to_owned(), cost.area, e_block, acc.max_abs_err));
    }
    // Pareto front over (area, energy/block, error).
    outln("\nPareto-optimal mappings (no other beats them on area, energy and error at once):");
    for (i, a) in rows.iter().enumerate() {
        let dominated = rows.iter().enumerate().any(|(j, b)| {
            j != i
                && b.1 <= a.1
                && b.2 <= a.2
                && b.3 <= a.3
                && (b.1 < a.1 || b.2 < a.2 || b.3 < a.3)
        });
        if !dominated {
            outln(format!("  {}", a.0));
        }
    }
    outln(
        "\nThis is the table the run-time policies (dsra-platform) select\n\
         from when conditions change — §5's low-battery argument.",
    );
    if json {
        let mut metrics: Vec<(String, JsonValue)> = Vec::new();
        for (name, area, e_block, max_err) in &rows {
            let key = name.to_lowercase().replace([' ', '/'], "_");
            metrics.push(metric(format!("{key}_area"), *area));
            metrics.push(metric(format!("{key}_energy_per_block"), *e_block));
            metrics.push(metric(format!("{key}_max_abs_err"), *max_err));
        }
        write_json_summary("dct_energy", "E9", &metrics);
    }
}
