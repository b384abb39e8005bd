//! Fault-injection regression tests through the precompiled `ExecPlan`
//! path.
//!
//! The simulator's write path has a fast path that skips fault masking
//! entirely when no faults are injected. These tests pin the contract that
//! fast path must preserve: a fault-free run is byte-identical whether the
//! fault machinery was ever armed or not, and an injected fault is
//! *observable* — the masked output really differs from the clean run.

use dsra_core::prelude::*;
use dsra_sim::{ExecPlan, Simulator, StuckFault};
use proptest::prelude::*;

/// A two-stage datapath: |a - b| into a registered accumulator — small
/// enough to reason about exactly, deep enough that a fault on an internal
/// net has to propagate through a downstream cluster to be seen.
fn sad_cell() -> Netlist {
    let mut nl = Netlist::new("sad_fault");
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

/// The internal net a fault lands on: the abs-diff output.
fn ad_output_net(nl: &Netlist) -> dsra_core::netlist::NetId {
    let ad = nl.node_by_name("ad").unwrap();
    nl.net_of(dsra_core::netlist::PortRef { node: ad, port: 2 })
        .expect("ad.y is routed")
}

/// Drives the same stimulus through a plan-backed simulator and returns the
/// accumulated output.
fn run_plan(nl: &Netlist, plan: &ExecPlan, fault: Option<StuckFault>) -> u64 {
    let mut sim = Simulator::with_plan(nl, plan);
    if let Some(f) = fault {
        sim.inject_fault(f).unwrap();
    }
    sim.set("a", 0x40).unwrap();
    sim.set("b", 0x41).unwrap(); // |diff| = 1: only the LSB carries signal
    sim.run(4);
    sim.get("y").unwrap()
}

#[test]
fn stuck_at_fault_through_exec_plan_is_observable() {
    let nl = sad_cell();
    let plan = ExecPlan::compile(&nl).unwrap();
    let fault = StuckFault {
        net: ad_output_net(&nl),
        bit: 0,
        stuck_high: false,
    };

    // One shared plan, two simulators: the plan is pure compiled structure,
    // so fault state must live entirely in the simulator instance.
    let clean = run_plan(&nl, &plan, None);
    let faulted = run_plan(&nl, &plan, Some(fault));
    assert_eq!(clean, 3, "three visible accumulation edges of |0x40-0x41|");
    assert_ne!(
        faulted, clean,
        "a stuck-at-0 LSB on the abs-diff output must change the masked \
         output — if these agree, the no-fault fast path is being taken \
         with a fault armed"
    );
    assert_eq!(faulted, 0, "LSB stuck low kills the unit difference");
}

#[test]
fn clearing_faults_restores_the_clean_output() {
    let nl = sad_cell();
    let plan = ExecPlan::compile(&nl).unwrap();
    let fault = StuckFault {
        net: ad_output_net(&nl),
        bit: 0,
        stuck_high: false,
    };
    let clean = run_plan(&nl, &plan, None);

    // Same simulator instance: inject, clear, then run the stimulus. After
    // clear_faults() the write path is back on the fast path and the run
    // must be byte-identical to one that never saw a fault.
    let mut sim = Simulator::with_plan(&nl, &plan);
    sim.inject_fault(fault).unwrap();
    sim.clear_faults();
    sim.set("a", 0x40).unwrap();
    sim.set("b", 0x41).unwrap();
    sim.run(4);
    assert_eq!(
        sim.get("y").unwrap(),
        clean,
        "clear_faults() must fully restore fault-free behaviour"
    );
}

/// A one-stage pipeline whose faulted net is directly observable: the
/// abs-diff output drives the top-level `y`, so the masked word can be
/// compared bit-for-bit against the clean word without the accumulator
/// smearing the difference across the bus.
fn observable_cell() -> Netlist {
    let mut nl = Netlist::new("observable_fault");
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
    let y = nl.output("y", 8).unwrap();
    nl.connect((a, "out"), (ad, "a")).unwrap();
    nl.connect((b, "out"), (ad, "b")).unwrap();
    nl.connect((ad, "y"), (y, "in")).unwrap();
    nl
}

proptest! {
    /// Pins the indexed-mask fault path against first principles: for any
    /// stimulus and any sequence of stuck-at faults on one net, the faulted
    /// output must equal the clean output with the fault list replayed in
    /// injection order — later faults on the same bit win — and the two
    /// words may differ **only** on faulted bit positions.
    #[test]
    fn faulted_output_differs_from_clean_only_on_masked_bits(
        a in 0u64..256,
        b in 0u64..256,
        fspec: u64,
    ) {
        let nl = observable_cell();
        let plan = ExecPlan::compile(&nl).unwrap();
        let net = ad_output_net(&nl);

        // Decode 1..=4 faults from the raw sample: 4 bits of position and
        // one stuck-value bit per fault, replayed in injection order.
        let count = (fspec & 3) as usize + 1;
        let faults: Vec<StuckFault> = (0..count)
            .map(|i| {
                let chunk = fspec >> (2 + 4 * i);
                StuckFault {
                    net,
                    bit: (chunk & 7) as u8, // 8-bit bus
                    stuck_high: chunk & 8 != 0,
                }
            })
            .collect();

        let settled = |fs: &[StuckFault]| -> u64 {
            let mut sim = Simulator::with_plan(&nl, &plan);
            for f in fs {
                sim.inject_fault(*f).unwrap();
            }
            sim.set("a", a).unwrap();
            sim.set("b", b).unwrap();
            sim.step();
            sim.get("y").unwrap()
        };
        let clean = settled(&[]);
        let faulted = settled(&faults);

        // Reference semantics: replay the list in order.
        let mut expected = clean;
        let mut masked_bits = 0u64;
        for f in &faults {
            let bit = 1u64 << f.bit;
            masked_bits |= bit;
            if f.stuck_high {
                expected |= bit;
            } else {
                expected &= !bit;
            }
        }
        prop_assert_eq!(faulted, expected);
        prop_assert_eq!(
            (faulted ^ clean) & !masked_bits,
            0,
            "faulted and clean outputs may differ only on masked bits"
        );
    }
}
