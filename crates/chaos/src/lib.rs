//! # dsra-chaos — deterministic fault injection with detection and recovery
//!
//! Every layer below this one assumes the arrays compute correctly; real
//! reconfigurable fabric does not always oblige — lanes stick, upsets
//! flip bits, configuration writes land corrupted, arrays die, batteries
//! brown out. This crate makes the streaming stack *survive* that, and
//! proves it deterministically (DESIGN.md §13):
//!
//! * a **fault plan** ([`FaultPlan`]): a seeded schedule of eight
//!   virtual-time faults — two stuck-at lanes with self-clearing windows,
//!   three single-execution transients, one corrupted configuration
//!   write, one array death, one battery brownout step — the same seed
//!   always breaks the same things at the same instants;
//! * an **injector** ([`ChaosBackend`] via [`install_chaos`]): a
//!   [`dsra_backend::Backend`] decorator corrupting result checksums
//!   (stuck lanes forced high or low, transient XORs), while timing stays
//!   honest — silent data corruption, exactly the failure detection has
//!   to earn its keep against;
//! * **detection** ([`ChaosHook`]): golden spot checks — every served job
//!   is re-verified against [`dsra_backend::GoldenBackend`] and any
//!   mismatch becomes a structured [`dsra_backend::Divergence`];
//! * **recovery**: up to 3 virtual-time retries with a 20 µs × attempt
//!   backoff on a *different* array, quarantine after 2 consecutive
//!   divergences (bitstream evicted, placement excluded, the online
//!   monitor alerted through the `ArrayQuarantine` trace event) and
//!   probes every 500 µs that re-admit arrays once healthy. Detection and
//!   recovery are on ([`RecoveryConfig::Full`], the default) or all off
//!   ([`RecoveryConfig::Oblivious`]);
//! * the **E15 experiment** ([`serve_with_chaos`]): the E13 stream under
//!   a fault plan, recovery-on vs fault-oblivious — corrupt results
//!   served, useful goodput, recovery overhead — byte-deterministic per
//!   seed (`chaos_serve`, `BENCH_chaos.json`).
//!
//! ```
//! use dsra_chaos::{serve_with_chaos, ChaosConfig, FaultPlan, RecoveryConfig};
//! use dsra_runtime::{RuntimeConfig, SocRuntime};
//! use dsra_service::{standard_tenants, ServiceConfig, TraceConfig};
//!
//! # fn main() -> Result<(), dsra_core::error::CoreError> {
//! let mut runtime = SocRuntime::new(RuntimeConfig::default())?;
//! let trace = TraceConfig {
//!     tenants: standard_tenants(2, 400),
//!     duration_us: 4_000,
//!     ..Default::default()
//! };
//! let plan = FaultPlan::generate(&ChaosConfig {
//!     duration_us: trace.duration_us,
//!     ..Default::default()
//! });
//! let report = serve_with_chaos(
//!     &mut runtime,
//!     &trace,
//!     &ServiceConfig::default(),
//!     &plan,
//!     RecoveryConfig::default(),
//! )?;
//! // Per-job spot checks withhold every corrupt result.
//! assert_eq!(report.corrupt_served, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod plan;
pub mod recover;
pub mod session;

pub use fault::{install_chaos, ChaosBackend, ChaosState};
pub use plan::{ChaosConfig, FaultEvent, FaultKind, FaultPlan};
pub use recover::{ChaosHook, RecoveryConfig, RecoveryCounts};
pub use session::{assemble, serve_with_chaos, ChaosReport};
