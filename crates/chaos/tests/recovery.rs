//! Integration gates for the chaos stack: determinism, the
//! recovery-vs-oblivious comparison, monitor integration, and the
//! conservation property (admitted == served + shed + failed, with no
//! corrupt checksum reaching the SLO report when recovery is on).

use dsra_chaos::{serve_with_chaos, ChaosConfig, FaultPlan, RecoveryConfig};
use dsra_monitor::MonitorHandle;
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_service::{install_monitor, standard_tenants, ServiceConfig, TraceConfig};
use dsra_trace::NoopSink;
use proptest::prelude::*;

fn runtime() -> SocRuntime {
    // Two mappings keep debug-mode construction cheap (the full set is
    // exercised by the release-mode tier-1 gate).
    SocRuntime::new(RuntimeConfig {
        da_arrays: 2,
        me_arrays: 2,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .unwrap()
}

fn trace(duration_us: u64) -> TraceConfig {
    TraceConfig {
        tenants: standard_tenants(3, 150),
        duration_us,
        ..Default::default()
    }
}

fn plan(seed: u64, duration_us: u64) -> FaultPlan {
    FaultPlan::generate(&ChaosConfig {
        seed,
        duration_us,
        arrays: 4,
    })
}

#[test]
fn chaos_sessions_are_byte_deterministic() {
    let trace = trace(6_000);
    let plan = plan(7, 6_000);
    let service = ServiceConfig::default();
    let a = serve_with_chaos(
        &mut runtime(),
        &trace,
        &service,
        &plan,
        RecoveryConfig::default(),
    )
    .unwrap();
    let b = serve_with_chaos(
        &mut runtime(),
        &trace,
        &service,
        &plan,
        RecoveryConfig::default(),
    )
    .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // The plan actually fired and detection actually caught corruption.
    assert_eq!(a.counts.faults_injected as usize, plan.len());
    assert!(a.counts.divergences > 0, "plan must provoke divergences");
}

#[test]
fn recovery_serves_no_corrupt_results_and_beats_oblivious_goodput() {
    let trace = trace(6_000);
    let plan = plan(7, 6_000);
    let service = ServiceConfig::default();
    let recovered = serve_with_chaos(
        &mut runtime(),
        &trace,
        &service,
        &plan,
        RecoveryConfig::default(),
    )
    .unwrap();
    let oblivious = serve_with_chaos(
        &mut runtime(),
        &trace,
        &service,
        &plan,
        RecoveryConfig::Oblivious,
    )
    .unwrap();
    // The oblivious arm serves silently corrupt results; recovery
    // withholds every one (per-job spot check).
    assert!(oblivious.corrupt_served > 0, "plan too gentle to matter");
    assert_eq!(recovered.corrupt_served, 0);
    assert!(recovered.counts.retries > 0);
    assert!(
        recovered.counts.quarantines > 0,
        "a dead array must strike out"
    );
    assert!(
        recovered.useful_goodput_pct() > oblivious.useful_goodput_pct(),
        "recovery must win on corruption-aware goodput: {:.1}% vs {:.1}%",
        recovered.useful_goodput_pct(),
        oblivious.useful_goodput_pct()
    );
    // Oblivious never detects, retries, or quarantines.
    assert_eq!(oblivious.counts.divergences, 0);
    assert_eq!(oblivious.counts.retries, 0);
    assert_eq!(oblivious.counts.quarantines, 0);
    assert_eq!(oblivious.service.failed, 0);
}

#[test]
fn an_empty_plan_changes_nothing() {
    use dsra_service::serve_trace;
    let trace = trace(4_000);
    let service = ServiceConfig::default();
    let plain = serve_trace(&mut runtime(), &trace, &service).unwrap();
    let chaos = serve_with_chaos(
        &mut runtime(),
        &trace,
        &service,
        &FaultPlan::default(),
        RecoveryConfig::default(),
    )
    .unwrap();
    // No faults: the hooked loop, the decorators and the per-job golden
    // spot checks are all behaviour-invisible.
    assert_eq!(chaos.service.digest(), plain.digest());
    assert_eq!(chaos.corrupt_served, 0);
    assert_eq!(chaos.counts.divergences, 0);
    assert_eq!(chaos.service.failed, 0);
}

#[test]
fn quarantine_alerts_reach_the_online_monitor() {
    let trace = trace(6_000);
    let plan = plan(7, 6_000);
    let mut rt = runtime();
    let handle: MonitorHandle = install_monitor(&mut rt, &trace.tenants, Box::new(NoopSink));
    let service = ServiceConfig {
        monitor: Some(handle.clone()),
        ..Default::default()
    };
    let report =
        serve_with_chaos(&mut rt, &trace, &service, &plan, RecoveryConfig::default()).unwrap();
    let counts = handle.with(|m| m.chaos_counts());
    assert_eq!(counts.faults, report.counts.faults_injected);
    assert_eq!(counts.divergences, report.counts.divergences);
    assert_eq!(counts.retries, report.counts.retries);
    assert_eq!(counts.quarantines, report.counts.quarantines);
    assert_eq!(counts.restores, report.counts.restores);
    // A dead array never probes healthy, so it is still quarantined at
    // session end — and a quarantined array is an active alert, which is
    // what health-driven admission keys off.
    assert!(!handle.with(|m| m.quarantined_arrays()).is_empty());
    assert!(handle.final_snapshot().alerts_active >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Satellite 3: request conservation and the no-corrupt-results
    // invariant hold across fault plans, not just the pinned seed.
    #[test]
    fn every_admitted_request_is_served_shed_or_failed(seed in 0u64..1_000) {
        let trace = trace(4_000);
        let plan = plan(seed, 4_000);
        let report = serve_with_chaos(
            &mut runtime(),
            &trace,
            &ServiceConfig::default(),
            &plan,
            RecoveryConfig::default(),
        )
        .unwrap();
        let s = &report.service;
        prop_assert_eq!(s.requests, s.served + s.shed + s.failed);
        let served = s.outcomes.iter().filter(|o| !o.shed && !o.failed).count();
        let shed = s.outcomes.iter().filter(|o| o.shed).count();
        let failed = s.outcomes.iter().filter(|o| o.failed).count();
        prop_assert_eq!((served, shed, failed), (s.served, s.shed, s.failed));
        for o in &s.outcomes {
            prop_assert!(!(o.shed && o.failed), "shed and failed are exclusive");
        }
        // With a per-job spot check, no corrupt checksum reaches the
        // SLO report: the ground-truth oracle agrees with zero.
        prop_assert_eq!(report.corrupt_served, 0);
        prop_assert!(report.corrupt_outcome_ids().is_empty());
    }
}
