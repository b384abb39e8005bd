//! # dsra-profile — cycle-exact attribution profiling
//!
//! `dsra-trace` records *what happened*; this crate answers *where the
//! cycles and joules went*. A [`ProfileSink`] tees the virtual-time
//! trace-event stream into a shared [`Profiler`] while forwarding every
//! event to the wrapped inner sink, so profiling composes with
//! `--trace` recording and `--monitor` health queries. The profiler
//! joins `JobSchedule` routing, `ArrayInterval` occupancy, and
//! `JobComplete` energy into per-array / per-kernel accounts;
//! [`ProfileReport`] then splits each kernel's busy cycles over its
//! static op mix ([`dsra_sim::OpMix::attribute`], an exact
//! largest-remainder split) for the hot-op ranking, and [`flamegraph`]
//! renders the whole pool as collapsed stacks
//! (`soc;array0;kernel:dct8;op:mac 48211`) for inferno/speedscope.
//!
//! Everything is deterministic in virtual time: the same seed yields
//! byte-identical reports, counter tracks, and flamegraphs — and
//! because the profiler is a pure observer on the sink seam, enabling
//! it never changes job outputs or report digests.
//!
//! ```
//! use dsra_profile::{flamegraph, Profiler, ProfileReport};
//! use dsra_trace::{ArrayPhase, TraceEvent};
//!
//! let mut prof = Profiler::new();
//! prof.observe(&TraceEvent::ArrayInterval {
//!     array: 0,
//!     phase: ArrayPhase::Idle,
//!     start: 0,
//!     end: 250,
//!     job: None,
//!     kernel: None,
//! });
//! let report = ProfileReport::build(&prof, &[]);
//! assert_eq!(report.arrays[&0].idle, 250);
//! assert_eq!(flamegraph(&prof, &[]).render(), "soc;array0;idle 250\n");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flame;
pub mod profiler;
pub mod report;

/// The shared per-array phase account, defined in `dsra-trace`.
pub use dsra_trace::PhaseBreakdown;
pub use flame::{flamegraph, frame_label, Flame};
pub use profiler::{
    ArrayAccount, JobRoute, KernelCycles, KernelEnergy, ProfileSink, Profiler, ProfilerHandle,
};
pub use report::{utilization_tracks, HotOp, KernelProfile, ProfileReport};
