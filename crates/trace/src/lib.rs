//! # dsra-trace — deterministic virtual-time tracing
//!
//! Every layer above `dsra-core` reports end-of-run aggregates; this crate
//! records *where the time and energy went*. A [`TraceSink`] is threaded
//! through `SocRuntime` (batch and stream paths), `dsra-service` admission,
//! and the power accounts; the default [`NoopSink`] keeps the hot path
//! allocation-free while the recording [`EventLog`] captures structured
//! [`TraceEvent`]s for export and analysis.
//!
//! ## The virtual-time stamping rule
//!
//! Every timestamp in a [`TraceEvent`] is a **virtual** simulation cycle —
//! never a wall-clock reading. Wall-clock numbers (like the runtime's
//! `PhaseTimings`) are diagnostics and must never enter the event stream,
//! so two runs of the same seed produce byte-identical traces and the
//! Chrome exporter ([`chrome_trace`]) is deterministic end to end.
//!
//! ```
//! use dsra_trace::{chrome_trace, EventLog, TraceEvent, TraceSink};
//!
//! let mut log = EventLog::new();
//! log.emit(TraceEvent::JobEnqueue {
//!     t: 0,
//!     job: 7,
//!     tenant: 0,
//!     class: "quality",
//!     kind: "dct",
//!     deadline: 0,
//! });
//! assert!(log.enabled());
//! let json = chrome_trace(&log);
//! assert!(json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod health;
pub mod hist;
pub mod metrics;
pub mod phase;
pub mod sink;

pub use chrome::{chrome_trace, counter_tracks_doc, CounterTrack};
pub use event::{ArrayPhase, EnergyBreakdown, TraceEvent};
pub use health::{ArrayHealth, BatteryHealth, HealthSnapshot, LatencyStats, TenantHealth};
pub use hist::Histogram;
pub use metrics::MetricsRegistry;
pub use phase::PhaseBreakdown;
pub use sink::{job_spans, EventLog, JobSpan, NoopSink, TraceSink};
