//! E4/E5 — the generic-FPGA comparison claims of §1 (from refs \[1\], \[2\]):
//! ME array −75 % power / −45 % area / +23 % timing; DA array −38 % / −14 %
//! / −54 %.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin fpga_compare
//! ```

use dsra_bench::{banner, da_activity, me_activity, metric, outln, write_json_summary, Args};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_dct::{BasicDa, DaParams, DctImpl};
use dsra_me::{MeEngine, Systolic2d};
use dsra_tech::{evaluate_against_fpga, TechModel};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner(
        "E4/E5",
        "FPGA comparison claims (refs [1], [2] of the paper)",
    );
    let model = TechModel::default();

    let eng = Systolic2d::new(8).unwrap();
    let act = me_activity(eng.netlist(), 256);
    let fabric = Fabric::me_array(26, 20, MeshSpec::mixed());
    let me = evaluate_against_fpga(eng.netlist(), &fabric, &act, &model).unwrap();

    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let act = da_activity(imp.netlist(), 256);
    let fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    let da = evaluate_against_fpga(imp.netlist(), &fabric, &act, &model).unwrap();

    outln(format!(
        "\n{:<28} {:>10} {:>10} {:>10}",
        "", "power", "area", "timing"
    ));
    outln(format!(
        "{:<28} {:>9.1}% {:>9.1}% {:>9.1}%",
        "ME array vs FPGA (measured)",
        me.comparison.power_reduction_pct,
        me.comparison.area_reduction_pct,
        me.comparison.timing_improvement_pct
    ));
    outln(format!(
        "{:<28} {:>10} {:>10} {:>10}",
        "ME array vs FPGA (paper)", "75%", "45%", "23%"
    ));
    outln(format!(
        "{:<28} {:>9.1}% {:>9.1}% {:>9.1}%",
        "DA array vs FPGA (measured)",
        da.comparison.power_reduction_pct,
        da.comparison.area_reduction_pct,
        da.comparison.timing_improvement_pct
    ));
    outln(format!(
        "{:<28} {:>10} {:>10} {:>10}",
        "DA array vs FPGA (paper)", "38%", "14%", "54%"
    ));

    outln("\nunderlying costs (arbitrary calibrated units):");
    outln(format!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "", "area", "delay", "dyn E/cyc", "cfg bits"
    ));
    for (name, c) in [
        ("ME on DSRA", &me.dsra),
        ("ME on FPGA", &me.fpga),
        ("DA on DSRA", &da.dsra),
        ("DA on FPGA", &da.fpga),
    ] {
        outln(format!(
            "{:<14} {:>12.1} {:>12.2} {:>12.1} {:>12}",
            name, c.area, c.delay, c.dyn_energy_per_cycle, c.config_bits
        ));
    }
    outln(
        "\nCalibration note: one constant set (dsra-tech) fits both cases;\n\
         the ME/DA asymmetry emerges structurally — the DA array's\n\
         configurable memories cost nearly as much as FPGA LUT-ROMs, while\n\
         ME datapath clusters crush LUT+bit-routing implementations.",
    );
    if json {
        write_json_summary(
            "fpga_compare",
            "E4/E5",
            &[
                metric("me_power_reduction_pct", me.comparison.power_reduction_pct),
                metric("me_area_reduction_pct", me.comparison.area_reduction_pct),
                metric(
                    "me_timing_improvement_pct",
                    me.comparison.timing_improvement_pct,
                ),
                metric("da_power_reduction_pct", da.comparison.power_reduction_pct),
                metric("da_area_reduction_pct", da.comparison.area_reduction_pct),
                metric(
                    "da_timing_improvement_pct",
                    da.comparison.timing_improvement_pct,
                ),
            ],
        );
    }
}
