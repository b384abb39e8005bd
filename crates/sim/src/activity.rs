//! Switching-activity bookkeeping.
//!
//! The paper performs no power measurements (§3.6) but notes that the
//! implementations "can have different power consumption due to the
//! different area usage and different signal activities in the design".
//! A recording simulator therefore counts, per net, how many bits toggle
//! each cycle; `dsra-tech` turns these counts into activity-based energy
//! estimates (experiment E9).
//!
//! Only simulators built over the recording sink
//! ([`crate::RecordActivity`], e.g. [`crate::Simulator::recording`]) count
//! toggles. Power is priced once per kernel, from a profiling run at
//! setup, so the engines that serve jobs keep the default sink and pay
//! nothing for activity no caller would read.

use dsra_core::netlist::NetId;

/// Per-net and per-node toggle counters accumulated over a recording
/// simulation run (summed over every lane of a lane-batched simulator).
#[derive(Debug, Clone, Default)]
pub struct Activity {
    net_toggles: Vec<u64>,
    node_output_toggles: Vec<u64>,
    cycles: u64,
}

impl Activity {
    pub(crate) fn new(nets: usize, nodes: usize) -> Self {
        Activity {
            net_toggles: vec![0; nets],
            node_output_toggles: vec![0; nodes],
            cycles: 0,
        }
    }

    /// Builds an activity record from explicit toggle counts — for energy
    /// models and property tests that need controlled activity without
    /// running a simulation (e.g. `dsra-power`'s monotonicity properties).
    /// Simulation-produced records come from [`crate::Simulator::activity`].
    pub fn synthetic(net_toggles: Vec<u64>, node_output_toggles: Vec<u64>, cycles: u64) -> Self {
        Activity {
            net_toggles,
            node_output_toggles,
            cycles,
        }
    }

    /// Credits each net the bits that toggled between `prev` and `cur`,
    /// summed over the lanes, then advances `prev` to `cur`. `cur` may run
    /// past the netlist's nets (constant slots); those never toggle.
    pub(crate) fn record_nets<const W: usize>(&mut self, prev: &mut [[u64; W]], cur: &[[u64; W]]) {
        for ((toggles, p), c) in self.net_toggles.iter_mut().zip(prev).zip(cur) {
            let mut bits = 0;
            for l in 0..W {
                bits += (p[l] ^ c[l]).count_ones();
            }
            *toggles += u64::from(bits);
            *p = *c;
        }
    }

    pub(crate) fn credit_node(&mut self, node: usize, toggles: u64) {
        self.node_output_toggles[node] += toggles;
    }

    pub(crate) fn end_cycle(&mut self, lanes: u64) {
        self.cycles += lanes;
    }

    /// Total simulated cycles, summed over lanes (a `W`-lane simulator
    /// adds `W` per clock, so its record equals the sum of `W` single-lane
    /// runs).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Bit toggles observed on one net.
    pub fn net_toggles(&self, net: NetId) -> u64 {
        self.net_toggles.get(net.0 as usize).copied().unwrap_or(0)
    }

    /// Total bit toggles over all nets.
    pub fn total_net_toggles(&self) -> u64 {
        self.net_toggles.iter().sum()
    }

    /// Output toggles credited to one node (its internal datapath activity
    /// proxy).
    pub fn node_toggles(&self, node: dsra_core::netlist::NodeId) -> u64 {
        self.node_output_toggles
            .get(node.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Total node output toggles.
    pub fn total_node_toggles(&self) -> u64 {
        self.node_output_toggles.iter().sum()
    }
}
