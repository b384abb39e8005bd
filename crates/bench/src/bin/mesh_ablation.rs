//! E6 — interconnect ablation (§2): the mixed 8-bit/1-bit mesh vs an
//! equal-capacity fine-grain 1-bit mesh, across all DCT mappings and the ME
//! array: switches and configuration bits.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin mesh_ablation
//! ```

use dsra_bench::{banner, metric, outln, write_json_summary, Args, JsonValue};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_dct::{all_impls, DaParams};
use dsra_me::{MeEngine, Systolic2d};
use dsra_tech::mesh_ablation;

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner(
        "E6",
        "§2 claim: mixed 8b/1b mesh needs fewer switches + config bits",
    );
    outln(format!(
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "design", "sw mixed", "sw fine", "ratio", "cfg mixed", "cfg fine", "ratio"
    ));
    let da_fabric = Fabric::da_array(20, 14, MeshSpec::mixed());
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for imp in all_impls(DaParams::precise()).unwrap() {
        let (m, f) = mesh_ablation(imp.netlist(), &da_fabric).unwrap();
        outln(format!(
            "{:<12} {:>10} {:>10} {:>7.2}x {:>10} {:>10} {:>7.2}x",
            imp.name(),
            m.switch_points,
            f.switch_points,
            f.switch_points as f64 / m.switch_points as f64,
            m.config_bits,
            f.config_bits,
            f.config_bits as f64 / m.config_bits as f64
        ));
        let key = imp.name().to_lowercase().replace([' ', '/'], "_");
        metrics.push(metric(
            format!("{key}_switch_ratio"),
            f.switch_points as f64 / m.switch_points as f64,
        ));
        metrics.push(metric(
            format!("{key}_cfg_bit_ratio"),
            f.config_bits as f64 / m.config_bits as f64,
        ));
    }
    let eng = Systolic2d::new(8).unwrap();
    let me_fabric = Fabric::me_array(26, 20, MeshSpec::mixed());
    let (m, f) = mesh_ablation(eng.netlist(), &me_fabric).unwrap();
    outln(format!(
        "{:<12} {:>10} {:>10} {:>7.2}x {:>10} {:>10} {:>7.2}x",
        "ME 4x8",
        m.switch_points,
        f.switch_points,
        f.switch_points as f64 / m.switch_points as f64,
        m.config_bits,
        f.config_bits,
        f.config_bits as f64 / m.config_bits as f64
    ));
    outln(
        "\nEvery multi-bit net on the mixed mesh rides a bus track: one\n\
         switch + one configuration bit steer eight wires at once.",
    );
    if json {
        metrics.push(metric(
            "me_switch_ratio",
            f.switch_points as f64 / m.switch_points as f64,
        ));
        metrics.push(metric(
            "me_cfg_bit_ratio",
            f.config_bits as f64 / m.config_bits as f64,
        ));
        write_json_summary("mesh_ablation", "E6", &metrics);
    }
}
