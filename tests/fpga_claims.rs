//! E4/E5 — the headline comparisons against a generic FPGA, from the
//! paper's introduction (results of refs [1] and [2]):
//!
//! * ME array: ~75 % lower power, ~45 % smaller area, ~23 % better timing;
//! * DA array: ~38 % lower power, ~14 % smaller area, ~54 % better delay.
//!
//! The technology model is calibrated once (dsra-tech); these tests pin the
//! measured ratios to bands around the paper's numbers so regressions in
//! the structural model (LUT mapping, routing, activity) are caught.

use dsra::core::{Fabric, MeshSpec};
use dsra::dct::{BasicDa, DaParams, DctImpl};
use dsra::me::{MeEngine, Systolic2d};
use dsra::sim::Simulator;
use dsra::tech::{evaluate_against_fpga, TechModel};

fn me_activity(nl: &dsra::core::Netlist) -> dsra::sim::Activity {
    let mut sim = Simulator::recording(nl).unwrap();
    for c in 0..256u64 {
        for j in 0..8 {
            sim.set(&format!("cur{j}"), (c * 31 + j * 7) % 256).unwrap();
            sim.set(&format!("ref{j}"), (c * 17 + j * 13) % 256)
                .unwrap();
        }
        for m in 0..4 {
            sim.set(&format!("men{m}"), 1).unwrap();
        }
        sim.step();
    }
    sim.activity().clone()
}

fn da_activity(nl: &dsra::core::Netlist) -> dsra::sim::Activity {
    let mut sim = Simulator::recording(nl).unwrap();
    for c in 0..256u64 {
        for i in 0..8 {
            sim.set(&format!("x{i}"), (c * 97 + i * 55) % 4096).unwrap();
        }
        sim.set("ctl_load", u64::from(c % 14 == 0)).unwrap();
        sim.set("ctl_sren", 1).unwrap();
        sim.set("ctl_accen", 1).unwrap();
        sim.step();
    }
    sim.activity().clone()
}

#[test]
fn me_array_beats_fpga_in_the_papers_bands() {
    let eng = Systolic2d::new(8).unwrap();
    let act = me_activity(eng.netlist());
    let fabric = Fabric::me_array(26, 20, MeshSpec::mixed());
    let ev = evaluate_against_fpga(eng.netlist(), &fabric, &act, &TechModel::default()).unwrap();
    let c = ev.comparison;
    assert!(
        (65.0..=85.0).contains(&c.power_reduction_pct),
        "ME power reduction {:.1}% (paper: 75%)",
        c.power_reduction_pct
    );
    assert!(
        (37.0..=53.0).contains(&c.area_reduction_pct),
        "ME area reduction {:.1}% (paper: 45%)",
        c.area_reduction_pct
    );
    assert!(
        (13.0..=33.0).contains(&c.timing_improvement_pct),
        "ME timing improvement {:.1}% (paper: 23%)",
        c.timing_improvement_pct
    );
}

#[test]
fn da_array_beats_fpga_in_the_papers_bands() {
    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let act = da_activity(imp.netlist());
    let fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    let ev = evaluate_against_fpga(imp.netlist(), &fabric, &act, &TechModel::default()).unwrap();
    let c = ev.comparison;
    assert!(
        (28.0..=48.0).contains(&c.power_reduction_pct),
        "DA power reduction {:.1}% (paper: 38%)",
        c.power_reduction_pct
    );
    assert!(
        (6.0..=24.0).contains(&c.area_reduction_pct),
        "DA area reduction {:.1}% (paper: 14%)",
        c.area_reduction_pct
    );
    assert!(
        (44.0..=64.0).contains(&c.timing_improvement_pct),
        "DA delay improvement {:.1}% (paper: 54%)",
        c.timing_improvement_pct
    );
}

#[test]
fn me_gap_exceeds_da_gap_as_in_the_paper() {
    // The paper's qualitative shape: the ME array gains more power/area
    // than the DA array (75 > 38, 45 > 14), while the DA array gains more
    // timing (54 > 23).
    let eng = Systolic2d::new(8).unwrap();
    let me_act = me_activity(eng.netlist());
    let me_fabric = Fabric::me_array(26, 20, MeshSpec::mixed());
    let me =
        evaluate_against_fpga(eng.netlist(), &me_fabric, &me_act, &TechModel::default()).unwrap();

    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let da_act = da_activity(imp.netlist());
    let da_fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    let da =
        evaluate_against_fpga(imp.netlist(), &da_fabric, &da_act, &TechModel::default()).unwrap();

    assert!(me.comparison.power_reduction_pct > da.comparison.power_reduction_pct);
    assert!(me.comparison.area_reduction_pct > da.comparison.area_reduction_pct);
    assert!(da.comparison.timing_improvement_pct > me.comparison.timing_improvement_pct);
}

#[test]
fn mesh_ablation_reproduces_switch_savings() {
    // E6 — §2: the 8-bit+1-bit mesh needs fewer switches and configuration
    // bits than an equal-capacity fine-grain mesh, on a real DCT netlist.
    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    let (mixed, fine) = dsra::tech::mesh_ablation(imp.netlist(), &fabric).unwrap();
    assert!(
        fine.config_bits >= 3 * mixed.config_bits,
        "config bits: fine {} vs mixed {}",
        fine.config_bits,
        mixed.config_bits
    );
    assert!(fine.switch_points >= 3 * mixed.switch_points);
    // The saving mechanism: a bus switch gangs 8 pass transistors behind
    // one configuration bit, so config bits shrink much faster than raw
    // transistor count (which may even grow when widths don't fill a bus).
    let cfg_ratio = fine.config_bits as f64 / mixed.config_bits as f64;
    let tx_ratio = fine.transistor_equiv as f64 / mixed.transistor_equiv as f64;
    assert!(
        cfg_ratio > tx_ratio,
        "config sharing should dominate: cfg {cfg_ratio:.2} vs tx {tx_ratio:.2}"
    );
}
