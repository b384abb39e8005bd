//! # dsra-sim — cycle-accurate simulator for domain-specific array netlists
//!
//! Executes [`dsra_core::netlist::Netlist`] designs cycle by cycle with
//! hardware-faithful semantics:
//!
//! * two-phase clocking: combinational settle in levelized order, then a
//!   global register tick;
//! * bit-serial distributed arithmetic — LSB-first serial streams, carry
//!   flip-flops in serial adders, right-shift-accumulate with a subtracting
//!   sign-bit cycle (White's DA, ref. \[4\] of the paper);
//! * per-net toggle counting for activity-based power estimation
//!   (`dsra-tech`), on simulators built over the recording sink
//!   ([`RecordActivity`], [`Simulator::recording`]) only — served engines
//!   keep the default sink and count nothing;
//! * zero-cost-when-disabled op-level profiling ([`prof`]): the
//!   interpreter is generic over a [`ProfSink`] (default [`NoopProf`],
//!   monomorphized away) and every plan exposes its static per-cycle
//!   [`OpMix`] via [`ExecPlan::op_mix`] for cycle attribution.
//!
//! The hot path is allocation-free: a checked netlist compiles once into a
//! flat [`ExecPlan`] (resolved port slots, enum-dispatched ops, pre-masked
//! ROMs) and every simulated cycle runs over dense arrays. Drivers that
//! build many simulators over one netlist share the plan via
//! [`Simulator::with_plan`] and drive pins through resolved handles
//! ([`Simulator::input_port`] / [`Simulator::drive`]). A simulator may
//! carry `W` independent lanes ([`Simulator::with_plan_lanes`]): one sweep
//! clocks `W` copies of the design that share their control schedule,
//! the way the DCT drivers run eight blocks at once.
//!
//! See [`Simulator`] for a usage example.

#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod prof;
pub mod trace;

pub use activity::Activity;
pub use engine::{ExecPlan, InputPort, OutputPort, Simulator};
pub use prof::{CountingProf, NoopProf, OpClass, OpMix, ProfSink, RecordActivity};
pub use trace::Waveform;
