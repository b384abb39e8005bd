//! Lane equivalence: a `W`-lane simulator is `W` independent single-lane
//! simulators evaluated in one sweep. Every output of every lane, every
//! cycle, must equal the single-lane run fed that lane's stimulus; the
//! lane-batched [`dsra_sim::Activity`] must equal the field-wise sum of the
//! single-lane records; and an injected stuck-at fault must hit every lane
//! exactly as it hits the faulted single-lane run.

use dsra_core::netlist::{NetId, NodeId, NodeKind, PortDir};
use dsra_core::prelude::*;
use dsra_core::rng::SplitMix64;
use dsra_dct::{BasicDa, Cordic1, Cordic2, DaParams, DctImpl, MixedRom};
use dsra_sim::{ExecPlan, InputPort, OutputPort, Simulator, StuckFault};

const W: usize = 8;

/// One cluster with every input port fed from a top-level input and every
/// output port observed.
fn single_cluster(cfg: ClusterCfg) -> Netlist {
    let mut nl = Netlist::new("lane");
    let c = nl.cluster("c", cfg).unwrap();
    for port in nl.node(c).ports.clone() {
        match port.dir {
            PortDir::In => {
                let i = nl.input(format!("i_{}", port.name), port.width).unwrap();
                nl.connect((i, "out"), (c, &port.name)).unwrap();
            }
            PortDir::Out => {
                let o = nl.output(format!("o_{}", port.name), port.width).unwrap();
                nl.connect((c, &port.name), (o, "in")).unwrap();
            }
        }
    }
    nl
}

/// Every cluster configuration the interpreter lowers, one netlist each.
fn cluster_zoo() -> Vec<Netlist> {
    let serial = |cfg| ClusterCfg::AddShift(cfg);
    let mut cfgs = vec![
        ClusterCfg::RegMux {
            width: 8,
            registered: false,
        },
        ClusterCfg::RegMux {
            width: 8,
            registered: true,
        },
        ClusterCfg::Memory {
            words: 16,
            width: 8,
            contents: (0..16).map(|i| i * 37 + 5).collect(),
        },
        serial(AddShiftCfg::Add {
            width: 12,
            serial: false,
        }),
        serial(AddShiftCfg::Sub {
            width: 12,
            serial: false,
        }),
        serial(AddShiftCfg::Add {
            width: 1,
            serial: true,
        }),
        serial(AddShiftCfg::Sub {
            width: 1,
            serial: true,
        }),
        serial(AddShiftCfg::SerialReg { width: 12 }),
        serial(AddShiftCfg::ShiftAcc {
            acc_width: 24,
            data_width: 12,
        }),
    ];
    for mode in [AbsDiffMode::Add, AbsDiffMode::Sub, AbsDiffMode::AbsDiff] {
        cfgs.push(ClusterCfg::AbsDiff { width: 8, mode });
    }
    for (op, accumulate) in [(AddOp::Add, true), (AddOp::Sub, true), (AddOp::Sub, false)] {
        cfgs.push(ClusterCfg::AddAcc {
            width: 16,
            op,
            accumulate,
        });
    }
    for mode in [
        CompMode::Min,
        CompMode::Max,
        CompMode::StreamMin,
        CompMode::StreamMax,
    ] {
        cfgs.push(ClusterCfg::Comparator {
            width: 8,
            index_width: 6,
            mode,
        });
    }
    let mut zoo: Vec<Netlist> = cfgs.into_iter().map(single_cluster).collect();
    // Constants, slices and concatenation around a sign extension.
    let mut nl = Netlist::new("glue");
    let a = nl.input("a", 8).unwrap();
    let k = nl.constant("k", 0x5, 4).unwrap();
    let hi = nl.slice("hi", (a, "out"), 4, 4).unwrap();
    let cat = nl.concat("cat", &[(hi, "out"), (k, "out")]).unwrap();
    let se = nl.sign_extend("se", (cat, "out"), 12).unwrap();
    let y = nl.output("y", 12).unwrap();
    nl.connect((se, "out"), (y, "in")).unwrap();
    zoo.push(nl);
    zoo
}

/// The DA DCT netlists: every serial/ROM/shift-accumulator op in context.
fn dct_netlists() -> Vec<Netlist> {
    let p = DaParams::precise();
    vec![
        BasicDa::new(p).unwrap().netlist().clone(),
        MixedRom::new(p).unwrap().netlist().clone(),
        Cordic1::new(p).unwrap().netlist().clone(),
        Cordic2::new(p).unwrap().netlist().clone(),
    ]
}

fn ports_of(nl: &Netlist) -> (Vec<InputPort>, Vec<OutputPort>) {
    let mut ins = Vec::new();
    let mut outs = Vec::new();
    for node in nl.nodes() {
        match node.kind {
            NodeKind::Input { .. } => ins.push(InputPort::resolve(nl, &node.name).unwrap()),
            NodeKind::Output { .. } => outs.push(OutputPort::resolve(nl, &node.name).unwrap()),
            _ => {}
        }
    }
    (ins, outs)
}

/// Drives one `W`-lane simulator and `W` single-lane simulators with the
/// same per-lane random stimulus (each input, each cycle, broadcast with
/// probability 1/3, else drawn per lane), asserting every output of every
/// lane after every cycle and the summed activity at the end.
fn assert_lanes_match_singles(nl: &Netlist, cycles: usize, faults: &[StuckFault], seed: u64) {
    let plan = ExecPlan::compile(nl).unwrap();
    let (ins, outs) = ports_of(nl);
    let mut wide = Simulator::<_, W>::with_plan_lanes(nl, &plan);
    let mut singles: Vec<Simulator<'_>> = (0..W).map(|_| Simulator::with_plan(nl, &plan)).collect();
    for &f in faults {
        wide.inject_fault(f);
        for s in &mut singles {
            s.inject_fault(f);
        }
    }
    let mut rng = SplitMix64::new(seed);
    for cycle in 0..cycles {
        for &pin in &ins {
            if rng.next_below(3) == 0 {
                let v = rng.next_u64();
                wide.drive(pin, v);
                singles.iter_mut().for_each(|s| s.drive(pin, v));
            } else {
                for (lane, s) in singles.iter_mut().enumerate() {
                    let v = rng.next_u64();
                    wide.drive_lane(pin, lane, v);
                    s.drive(pin, v);
                }
            }
        }
        wide.step();
        singles.iter_mut().for_each(|s| s.step());
        for (o, &pin) in outs.iter().enumerate() {
            for (lane, s) in singles.iter().enumerate() {
                assert_eq!(
                    wide.read_lane(pin, lane),
                    s.read(pin),
                    "{}: output #{o}, lane {lane}, cycle {cycle}",
                    nl.name()
                );
            }
        }
    }
    let act = wide.activity();
    let sum = |f: &dyn Fn(&Simulator<'_>) -> u64| singles.iter().map(f).sum::<u64>();
    assert_eq!(act.cycles(), sum(&|s| s.activity().cycles()));
    assert_eq!(wide.cycle(), cycles as u64);
    for net in 0..nl.nets().len() {
        let id = NetId(net as u32);
        assert_eq!(
            act.net_toggles(id),
            sum(&|s| s.activity().net_toggles(id)),
            "{}: net {net} toggles",
            nl.name()
        );
    }
    for node in 0..nl.nodes().len() {
        let id = NodeId(node as u32);
        assert_eq!(
            act.node_toggles(id),
            sum(&|s| s.activity().node_toggles(id)),
            "{}: node {node} toggles",
            nl.name()
        );
    }
}

#[test]
fn every_op_kind_runs_lanes_independently() {
    for (i, nl) in cluster_zoo().iter().enumerate() {
        assert_lanes_match_singles(nl, 40, &[], 0x1A4E + i as u64);
    }
}

#[test]
fn dct_datapaths_run_lanes_independently() {
    for (i, nl) in dct_netlists().iter().enumerate() {
        assert_lanes_match_singles(nl, 48, &[], 0xDC7 + i as u64);
    }
}

#[test]
fn lane_activity_is_the_sum_of_single_lane_runs() {
    // The DCT netlists toggle every kind of net; the check above asserts
    // field-wise sums, this one pins that the totals are non-trivial.
    let nl = &dct_netlists()[0];
    let plan = ExecPlan::compile(nl).unwrap();
    let (ins, _) = ports_of(nl);
    let mut wide = Simulator::<_, W>::with_plan_lanes(nl, &plan);
    let mut rng = SplitMix64::new(3);
    for _ in 0..20 {
        for &pin in &ins {
            for lane in 0..W {
                wide.drive_lane(pin, lane, rng.next_u64());
            }
        }
        wide.step();
    }
    assert_eq!(wide.activity().cycles(), 20 * W as u64);
    assert!(wide.activity().total_net_toggles() > 0);
    assert!(wide.activity().total_node_toggles() > 0);
    assert_lanes_match_singles(nl, 20, &[], 3);
}

#[test]
fn stuck_faults_hit_every_lane_like_the_faulted_single_lane_run() {
    for (i, nl) in dct_netlists().iter().enumerate() {
        let nets = nl.nets().len() as u32;
        for (j, net) in [0, nets / 3, nets / 2, nets - 1].into_iter().enumerate() {
            let width = nl.net(NetId(net)).width;
            let faults = [
                StuckFault {
                    net: NetId(net),
                    bit: 0,
                    stuck_high: j % 2 == 0,
                },
                StuckFault {
                    net: NetId(net),
                    bit: width - 1,
                    stuck_high: j % 2 == 1,
                },
            ];
            assert_lanes_match_singles(nl, 32, &faults, 0xFA17 + (i * 8 + j) as u64);
        }
    }
}
