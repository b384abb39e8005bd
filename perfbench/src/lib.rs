//! # perfbench — host-time benchmark of the dsra serving stack
//!
//! Replays seeded workloads through the public entry points of
//! `dsra-runtime`, `dsra-service` and `dsra-chaos`, measures what they
//! cost in host wall time, memory and set-up, and checks every served
//! output against the golden reference. See `README.md` beside this
//! crate for the workloads and metrics.

pub mod cli;
pub mod measure;
pub mod oracle;
mod probes;
pub mod spans;
pub mod workload;
