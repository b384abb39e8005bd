//! The op-level profiler's two contracts: a live [`CountingProf`] agrees
//! exactly with the plan's static [`OpMix`] (`counters == mix × cycles`),
//! and profiling is a pure observer — outputs, activity and state are
//! byte-identical with the sink on or off.

use dsra_core::prelude::*;
use dsra_sim::{CountingProf, ExecPlan, NoopProf, OpClass, RecordActivity, Simulator};

/// A small design exercising combinational, sequential and memory ops:
/// |a - b| accumulated over time, plus a ROM lookup.
fn mixed_netlist() -> Netlist {
    let mut nl = Netlist::new("mix");
    let a = nl.input("a", 8).unwrap();
    let b = nl.input("b", 8).unwrap();
    let en = nl.input("en", 1).unwrap();
    let addr = nl.input("addr", 4).unwrap();
    let y = nl.output("y", 16).unwrap();
    let r = nl.output("rom_q", 8).unwrap();
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
    let rom = nl
        .cluster(
            "rom",
            ClusterCfg::Memory {
                words: 16,
                width: 8,
                contents: (0..16).map(|i| i * 3).collect(),
            },
        )
        .unwrap();
    nl.connect((a, "out"), (ad, "a")).unwrap();
    nl.connect((b, "out"), (ad, "b")).unwrap();
    let ext = nl.sign_extend("ext", (ad, "y"), 16).unwrap();
    nl.connect((ext, "out"), (acc, "a")).unwrap();
    nl.connect((en, "out"), (acc, "en")).unwrap();
    nl.connect((acc, "y"), (y, "in")).unwrap();
    nl.connect((addr, "out"), (rom, "addr")).unwrap();
    nl.connect((rom, "dout"), (r, "in")).unwrap();
    nl
}

fn drive_pattern(sim: &mut Simulator<impl dsra_sim::ProfSink>, c: u64) {
    sim.set("a", (c * 13) % 256).unwrap();
    sim.set("b", (c * 7 + 3) % 256).unwrap();
    sim.set("en", u64::from(!c.is_multiple_of(3))).unwrap();
    sim.set("addr", c % 16).unwrap();
}

#[test]
fn counting_prof_matches_static_op_mix() {
    let nl = mixed_netlist();
    let plan = ExecPlan::compile(&nl).unwrap();
    let mix = plan.op_mix();
    // The design has 4 inputs, one AbsDiff, one Acc (publish + tick) and
    // one ROM executing each cycle.
    assert_eq!(mix.count(OpClass::Input), 4);
    assert_eq!(mix.count(OpClass::SignExtend), 1);
    assert_eq!(mix.count(OpClass::AbsDiff), 1);
    assert_eq!(mix.count(OpClass::Acc), 2);
    assert_eq!(mix.count(OpClass::Memory), 1);
    assert_eq!(mix.count(OpClass::Mux), 0);

    let mut sim = Simulator::with_plan_profiled(&nl, &plan, CountingProf::new());
    let cycles = 137u64;
    for c in 0..cycles {
        drive_pattern(&mut sim, c);
        sim.step();
    }
    let prof = sim.prof();
    assert_eq!(prof.cycles(), cycles);
    for class in OpClass::ALL {
        assert_eq!(
            prof.class_count(class),
            mix.count(class) * cycles,
            "live {} count must equal mix × cycles",
            class.tag()
        );
    }
    assert_eq!(prof.total_ops(), mix.ops_per_cycle() * cycles);
    assert_eq!(prof.implied_mix().as_ref(), Some(&mix));
}

#[test]
fn profiling_is_a_pure_observer() {
    let nl = mixed_netlist();
    let plan = ExecPlan::compile(&nl).unwrap();
    let mut plain = Simulator::with_plan_profiled(&nl, &plan, RecordActivity(NoopProf));
    let mut profiled =
        Simulator::with_plan_profiled(&nl, &plan, RecordActivity(CountingProf::new()));
    for c in 0..200u64 {
        drive_pattern(&mut plain, c);
        drive_pattern(&mut profiled, c);
        plain.step();
        profiled.step();
        assert_eq!(plain.get("y").unwrap(), profiled.get("y").unwrap());
        assert_eq!(plain.get("rom_q").unwrap(), profiled.get("rom_q").unwrap());
    }
    assert_eq!(plain.cycle(), profiled.cycle());
    assert_eq!(
        plain.activity().total_net_toggles(),
        profiled.activity().total_net_toggles(),
        "switching activity must not see the profiler"
    );
    assert_eq!(
        plain.activity().total_node_toggles(),
        profiled.activity().total_node_toggles()
    );
}
