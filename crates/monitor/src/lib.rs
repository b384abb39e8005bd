//! # dsra-monitor — online windowed SLO monitoring over the trace stream
//!
//! `dsra-trace` (PR 7) made every serve explainable after the fact; this
//! crate makes the stack observe itself *while serving*. A [`Monitor`]
//! consumes the [`dsra_trace::TraceEvent`] stream online — installed on
//! `SocRuntime` as a [`MonitorSink`] tee — and maintains deterministic,
//! virtual-time-windowed state:
//!
//! * sliding-window latency percentiles (a ring of
//!   [`dsra_trace::Histogram`]s, merged on demand);
//! * per-array utilization / gating / reconfiguration-stall ratios;
//! * battery burn rate with a projected time-to-empty;
//! * per-tenant shed and SLO-violation rates feeding a multi-window
//!   **error-budget burn-rate alerter** (fast/slow window pair, latched
//!   with hysteresis) that emits a structured [`AlertLog`]; a tenant
//!   without a configured budget gets 5 %.
//!
//! Everything is stamped in virtual cycles only, so same-seed runs are
//! byte-identical, and window accumulation is order-insensitive, so
//! replaying a recorded [`dsra_trace::EventLog`] ([`Monitor::replay`])
//! reproduces the online run exactly — the contract behind
//! `trace_report --slo`.
//!
//! ```
//! use dsra_monitor::{Monitor, MonitorConfig};
//! use dsra_trace::TraceEvent;
//!
//! let mut m = Monitor::new(MonitorConfig::default());
//! m.observe(&TraceEvent::JobEnqueue {
//!     t: 0,
//!     job: 0,
//!     tenant: 0,
//!     class: "deadline",
//!     kind: "dct",
//!     deadline: 10_000,
//! });
//! m.finalize(50_000);
//! let health = m.final_snapshot();
//! assert_eq!(health.tenant(0).map(|t| t.enqueued), Some(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alert;
pub mod config;
pub mod dashboard;
pub mod monitor;
pub mod sink;

pub use alert::{AlertEvent, AlertLog, BudgetPoint};
pub use config::{BurnRateConfig, MonitorConfig};
pub use dashboard::{render_dashboard, render_timeline};
pub use monitor::{event_end_cycle, ChaosCounts, Monitor};
pub use sink::{MonitorHandle, MonitorSink};
