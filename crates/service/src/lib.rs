//! # dsra-service — the open-loop multi-tenant streaming frontend
//!
//! The paper's arrays exist to serve *live* mobile video under time and
//! energy pressure; `dsra-runtime` drains a pre-planned batch queue, but a
//! production service faces arrivals it does not control, tenants with
//! different objectives, and overload it must say "no" to. This crate is
//! that missing layer (DESIGN.md §9), in virtual time and fully
//! deterministic:
//!
//! * a **trace generator** ([`trace`]): seeded per-tenant sessions —
//!   Poisson-ish bursty arrivals in virtual µs, per-tenant payload and
//!   service-class mixes (drawn through `dsra_video::sample_payload`) and
//!   an [`SloSpec`] (latency budget + shed tolerance) per tenant;
//! * an **admission queue** ([`admit`]): the FIFO-unbounded baseline vs.
//!   deadline-EDF with shedding of requests whose budget is already blown;
//! * a **dispatcher** ([`dispatch`]): a virtual-time event loop, stamped
//!   at `dsra_runtime::CYCLES_PER_US` (100) cycles per µs, that
//!   admits, sheds, dispatches through the runtime's streaming hooks
//!   (placement stays with the existing `SchedulePolicy`/`DiffMatrix`
//!   machinery) and scales the pool elastically — idle arrays power-gate
//!   (dropping their configuration), backlog wakes them at the price of a
//!   full bitstream rewrite;
//! * an **SLO report** ([`report`]): per-tenant goodput, shed and
//!   violation counts, served latencies (feed them to `dsra_bench::hist`
//!   for p50/p90/p99), pool energy — all folded into a digest that pins
//!   byte-identical behaviour across runs (the E13 `stream_serve` gate).
//!
//! ## Quick tour
//!
//! ```
//! use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
//! use dsra_service::{
//!     serve_trace, standard_tenants, AdmitPolicy, ServiceConfig, TraceConfig,
//! };
//!
//! # fn main() -> Result<(), dsra_core::error::CoreError> {
//! let mut runtime = SocRuntime::new(RuntimeConfig {
//!     da_arrays: 1,
//!     me_arrays: 1,
//!     mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
//!     ..Default::default()
//! })?;
//! let trace = TraceConfig {
//!     tenants: standard_tenants(2, 400),
//!     duration_us: 4_000,
//!     ..Default::default()
//! };
//! let report = serve_trace(&mut runtime, &trace, &ServiceConfig::default())?;
//! assert_eq!(report.policy, AdmitPolicy::EdfShed.name());
//! assert_eq!(report.requests, report.served + report.shed);
//! assert!(report.served > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod admit;
pub mod dispatch;
pub mod report;
pub mod trace;

pub use admit::{AdmissionQueue, AdmitPolicy, MonitorAwareAdmission};
pub use dispatch::{
    install_monitor, install_monitor_with, monitor_config_for, serve_requests,
    serve_requests_with_hook, serve_trace, DispatchHook, NoopDispatch, PoolConfig, ServiceConfig,
};
pub use report::{RequestOutcome, ServiceReport, TenantReport};
pub use trace::{
    generate_trace, pool_for, standard_tenant, standard_tenants, Request, SloSpec, TenantSpec,
    TraceConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};

    fn runtime(da: usize, me: usize) -> SocRuntime {
        SocRuntime::new(RuntimeConfig {
            da_arrays: da,
            me_arrays: me,
            mappings: vec![
                DctMapping::BasicDa,
                DctMapping::MixedRom,
                DctMapping::SccFull,
            ],
            ..Default::default()
        })
        .unwrap()
    }

    fn small_trace() -> TraceConfig {
        TraceConfig {
            tenants: standard_tenants(3, 150),
            duration_us: 8_000,
            ..Default::default()
        }
    }

    #[test]
    fn dispatch_is_byte_deterministic() {
        let trace = small_trace();
        let service = ServiceConfig::default();
        let a = serve_trace(&mut runtime(2, 2), &trace, &service).unwrap();
        let b = serve_trace(&mut runtime(2, 2), &trace, &service).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.pool, b.pool);
    }

    #[test]
    fn every_request_is_served_or_shed_exactly_once() {
        let trace = small_trace();
        let report = serve_trace(&mut runtime(2, 2), &trace, &ServiceConfig::default()).unwrap();
        assert_eq!(report.requests, generate_trace(&trace).len());
        assert_eq!(report.requests, report.served + report.shed);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i as u32);
            if !o.shed {
                assert!(o.end_us >= o.start_us);
                assert!(o.start_us >= o.arrival_us);
                assert_eq!(o.latency_us, o.end_us - o.arrival_us);
                assert!(o.energy_j > 0.0);
            }
        }
        // Tenant aggregates cover exactly the outcome rows.
        let submitted: usize = report.tenants.iter().map(|t| t.submitted).sum();
        assert_eq!(submitted, report.requests);
        // FIFO on the same trace sheds nothing.
        let fifo = ServiceConfig {
            policy: AdmitPolicy::FifoUnbounded,
            ..Default::default()
        };
        let fifo_report = serve_trace(&mut runtime(2, 2), &trace, &fifo).unwrap();
        assert_eq!(fifo_report.shed, 0, "FIFO-unbounded never sheds");
        assert_eq!(fifo_report.served, report.requests);
    }

    #[test]
    fn elastic_pool_gates_idle_arrays_and_wakes_them_for_backlog() {
        // A sparse trace with long lulls on a generous pool: the elastic
        // controller must find gating opportunities, and the session must
        // record the wake penalty when traffic returns.
        let trace = TraceConfig {
            tenants: standard_tenants(1, 2_500),
            duration_us: 30_000,
            ..Default::default()
        };
        let elastic = serve_trace(
            &mut runtime(2, 2),
            &trace,
            &ServiceConfig {
                pool: PoolConfig {
                    elastic: true,
                    gate_idle_us: 500,
                    wake_backlog: 2,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(elastic.gate_events() > 0, "idle arrays must gate");
        assert!(elastic.pool.gated_cycles() > 0);
        let fixed = serve_trace(
            &mut runtime(2, 2),
            &trace,
            &ServiceConfig {
                pool: PoolConfig {
                    elastic: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(fixed.gate_events(), 0);
        assert_eq!(fixed.pool.gated_cycles(), 0);
        // Same requests served either way; the elastic pool leaks less
        // static energy over the idle stretches than the fixed pool.
        assert_eq!(fixed.served, elastic.served);
        let leak = |r: &ServiceReport| -> f64 { r.pool.arrays.iter().map(|a| a.static_j).sum() };
        assert!(
            leak(&elastic) < leak(&fixed),
            "gating must save leakage: {} vs {}",
            leak(&elastic),
            leak(&fixed)
        );
    }

    #[test]
    fn malformed_traces_and_impossible_payloads_are_errors() {
        use dsra_video::{JobPayload, ServiceClass};
        let spec = standard_tenant(0, 100);
        // An ME request on a pool with no ME arrays.
        let me_req = Request {
            id: 0,
            tenant: 0,
            arrival_us: 0,
            deadline_us: 1_000,
            class: ServiceClass::Quality,
            payload: JobPayload::MeSearch {
                size: (48, 48),
                shift: (1, 0),
                block: 8,
                range: 2,
            },
            seed: 1,
        };
        let service = ServiceConfig::default();
        assert!(serve_requests(&mut runtime(1, 0), &[spec], 1_000, &[me_req], &service).is_err());
        // An undersized plane is rejected at execution, not a panic.
        let undersized = Request {
            payload: JobPayload::MeSearch {
                size: (10, 10),
                shift: (1, 0),
                block: 8,
                range: 2,
            },
            ..me_req
        };
        assert!(
            serve_requests(&mut runtime(1, 1), &[spec], 1_000, &[undersized], &service).is_err()
        );
        // Non-dense ids are rejected up front.
        let misnumbered = Request { id: 7, ..me_req };
        assert!(
            serve_requests(&mut runtime(1, 1), &[spec], 1_000, &[misnumbered], &service).is_err()
        );
    }
}
