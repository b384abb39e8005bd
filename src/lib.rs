//! # dsra — Domain-Specific Reconfigurable Arrays for mobile video
//!
//! A full reproduction of *"Efficient Implementations of Mobile Video
//! Computations on Domain-Specific Reconfigurable Arrays"* (Khawam et al.,
//! DATE 2004) as a Rust workspace:
//!
//! * [`core`] — fabric model: clusters, netlists, placement, routing over
//!   the mixed 8-bit/1-bit mesh, bitstreams, Table-1 resource accounting;
//! * [`sim`] — cycle-accurate simulator with bit-serial DA semantics;
//! * [`dct`] — the six DCT mappings of §3 (basic DA, Mixed-ROM, two
//!   CORDIC-rotator variants, two skew-circular-convolution variants);
//! * [`me`] — the 2-D systolic motion-estimation array of §4 and its 1-D /
//!   sequential / fast-search alternatives;
//! * [`tech`] — technology model and generic-FPGA baseline (the −75 %/−38 %
//!   power comparisons);
//! * [`video`] — synthetic sequences, quantisation, PSNR, encode pipeline;
//! * [`platform`] — the reconfigurable SoC: bitstream manager, run-time
//!   policies, dynamic switching;
//! * [`power`] — battery model, per-array energy accounting and power
//!   gating;
//! * [`backend`] — execution backends behind one contract: the cycle-level
//!   array simulator, a pure-software golden reference, and the
//!   differential check mode that diffs them per job;
//! * [`trace`] — deterministic virtual-time tracing: job-lifecycle events,
//!   array state intervals, metrics registry, Chrome-trace exporter;
//! * [`monitor`] — online windowed SLO monitoring over the trace stream:
//!   sliding-window percentiles, burn-rate alerting with hysteresis,
//!   health snapshots driving admission control;
//! * [`runtime`] — the multi-array SoC runtime: content-addressed bitstream
//!   cache, diff-aware scheduling, energy-aware serving, worker-thread job
//!   service;
//! * [`service`] — the open-loop multi-tenant streaming frontend: seeded
//!   traces, admission control and load shedding, elastic array pools,
//!   SLO tracking;
//! * [`profile`] — cycle-exact attribution profiling over the trace
//!   stream: per-op/per-kernel cycle and energy accounting, utilization
//!   timelines, collapsed-stack flamegraph export;
//! * [`chaos`] — deterministic fault injection (stuck-at, transients,
//!   corrupted reconfiguration, array death, battery brownout) with
//!   golden-spot-check detection, retry/quarantine recovery, and the
//!   recovery-on vs fault-oblivious chaos-serving experiment.
//!
//! ## Quickstart
//!
//! ```
//! use dsra::dct::{BasicDa, DaParams, DctImpl};
//!
//! # fn main() -> Result<(), dsra::core::CoreError> {
//! let dct = BasicDa::new(DaParams::precise())?;
//! let coeffs = dct.transform(&[100, 50, -25, 0, 10, -60, 30, 5])?;
//! let reference = dsra::dct::reference::dct_1d_int(&[100, 50, -25, 0, 10, -60, 30, 5]);
//! assert!((coeffs[0] - reference[0]).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use dsra_backend as backend;
pub use dsra_chaos as chaos;
pub use dsra_core as core;
pub use dsra_dct as dct;
pub use dsra_me as me;
pub use dsra_monitor as monitor;
pub use dsra_platform as platform;
pub use dsra_power as power;
pub use dsra_profile as profile;
pub use dsra_runtime as runtime;
pub use dsra_service as service;
pub use dsra_sim as sim;
pub use dsra_tech as tech;
pub use dsra_trace as trace;
pub use dsra_video as video;
