//! Waveform capture tests.

use dsra_core::prelude::*;
use dsra_sim::Simulator;

fn sad_cell() -> Netlist {
    let mut nl = Netlist::new("sad");
    let a = nl.input("a", 8).unwrap();
    let b = nl.input("b", 8).unwrap();
    let ad = nl
        .cluster(
            "ad",
            ClusterCfg::AbsDiff {
                width: 8,
                mode: AbsDiffMode::AbsDiff,
            },
        )
        .unwrap();
    let acc = nl
        .cluster(
            "acc",
            ClusterCfg::AddAcc {
                width: 16,
                op: AddOp::Add,
                accumulate: true,
            },
        )
        .unwrap();
    let zero = nl.constant("z8", 0, 8).unwrap();
    let wide = nl.concat("w", &[(ad, "y"), (zero, "out")]).unwrap();
    let y = nl.output("y", 16).unwrap();
    nl.connect((a, "out"), (ad, "a")).unwrap();
    nl.connect((b, "out"), (ad, "b")).unwrap();
    nl.connect((wide, "out"), (acc, "a")).unwrap();
    nl.connect((acc, "y"), (y, "in")).unwrap();
    nl
}

#[test]
fn waveform_records_every_cycle() {
    let nl = sad_cell();
    let mut sim = Simulator::new(&nl).unwrap();
    sim.record_waveform();
    for i in 0..5u64 {
        sim.set("a", 10 + i).unwrap();
        sim.set("b", 3).unwrap();
        sim.step();
    }
    let w = sim.waveform().unwrap();
    assert_eq!(w.cycles(), 5);
}

#[test]
fn vcd_export_is_wellformed() {
    let nl = sad_cell();
    let mut sim = Simulator::new(&nl).unwrap();
    sim.record_waveform();
    sim.set("a", 100).unwrap();
    sim.set("b", 55).unwrap();
    sim.run(3);
    let vcd = sim.waveform().unwrap().to_vcd("sad_cell");
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(vcd.contains("$var wire 8"));
    assert!(vcd.contains("$var wire 16"));
    assert!(vcd.contains("#0"));
    // Constant nets emit exactly one change.
    let changes = vcd.lines().filter(|l| l.starts_with('b')).count();
    assert!(changes > 0);
}
