//! Integration gate for the E15 chaos layer: under the default fault
//! plan, recovery-on must serve **zero** corrupt results and strictly
//! higher corruption-aware goodput than fault-oblivious serving; a
//! fault-free chaos session must be byte-identical to a plain one (so
//! the pinned E13 digests survive the hook plumbing); and same-seed
//! chaos sessions must be byte-deterministic including the Chrome trace
//! export.

use dsra::chaos::{serve_with_chaos, ChaosConfig, ChaosReport, FaultPlan, RecoveryConfig};
use dsra::runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra::service::{serve_trace, standard_tenants, ServiceConfig, TraceConfig};
use dsra::trace::{chrome_trace, EventLog};

use std::sync::OnceLock;

fn runtime() -> SocRuntime {
    SocRuntime::new(RuntimeConfig {
        da_arrays: 2,
        me_arrays: 2,
        mappings: vec![
            DctMapping::BasicDa,
            DctMapping::MixedRom,
            DctMapping::SccFull,
        ],
        ..Default::default()
    })
    .expect("runtime builds")
}

fn trace() -> TraceConfig {
    TraceConfig {
        tenants: standard_tenants(3, 150),
        duration_us: 6_000,
        ..Default::default()
    }
}

fn plan() -> FaultPlan {
    FaultPlan::generate(&ChaosConfig {
        duration_us: 6_000,
        arrays: 4,
        ..Default::default()
    })
}

/// One chaos session, optionally with the recording sink; returns the
/// report and (when recorded) the exported Chrome document.
fn run(recovery: RecoveryConfig, record: bool) -> (ChaosReport, Option<String>) {
    let mut rt = runtime();
    if record {
        rt.set_trace_sink(Box::new(EventLog::new()));
    }
    let report = serve_with_chaos(
        &mut rt,
        &trace(),
        &ServiceConfig::default(),
        &plan(),
        recovery,
    )
    .expect("chaos session");
    let doc = record.then(|| chrome_trace(&rt.take_trace_sink().into_log().expect("recording")));
    (report, doc)
}

fn recovered() -> &'static (ChaosReport, Option<String>) {
    static R: OnceLock<(ChaosReport, Option<String>)> = OnceLock::new();
    R.get_or_init(|| run(RecoveryConfig::default(), true))
}

fn oblivious() -> &'static ChaosReport {
    static O: OnceLock<ChaosReport> = OnceLock::new();
    O.get_or_init(|| run(RecoveryConfig::Oblivious, false).0)
}

#[test]
fn recovery_serves_zero_corrupt_results_and_beats_oblivious() {
    let (rec, _) = recovered();
    let obl = oblivious();

    // Equal offered load and the same fault plan actually biting.
    assert_eq!(rec.service.requests, obl.service.requests);
    assert!(rec.service.requests > 50, "trace must carry real traffic");
    assert_eq!(rec.counts.faults_injected, obl.counts.faults_injected);
    assert!(
        obl.corrupt_served > 0,
        "the default plan must corrupt results the oblivious arm serves"
    );

    // The E15 acceptance gate.
    assert_eq!(
        rec.corrupt_served, 0,
        "recovery must withhold every corrupt result"
    );
    assert!(
        rec.useful_goodput_pct() > obl.useful_goodput_pct(),
        "recovery useful goodput {:.2}% must beat oblivious {:.2}%",
        rec.useful_goodput_pct(),
        obl.useful_goodput_pct()
    );
    // And it must win by actually recovering, not by shedding the work.
    assert!(rec.counts.divergences > 0);
    assert!(rec.counts.retries > 0);
    assert!(rec.counts.quarantines > 0);
}

#[test]
fn chaos_sessions_are_byte_identical_including_the_trace_export() {
    let (a, doc_a) = recovered();
    let (b, doc_b) = run(RecoveryConfig::default(), true);
    assert_eq!(a, &b);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.service.render(), b.service.render());
    assert_eq!(doc_a.as_deref(), doc_b.as_deref());
    let doc = doc_a.as_deref().expect("recorded session");
    for name in ["\"fault\"", "\"divergence\"", "\"retry\"", "\"quarantine\""] {
        assert!(doc.contains(name), "trace export lacks {name} instants");
    }
}

#[test]
fn a_fault_free_chaos_session_matches_plain_serving_byte_for_byte() {
    // The hook plumbing, the backend decorators and the spot checks must
    // be behaviour-invisible without faults — this is what keeps the
    // pinned E13 digests intact.
    let plain = serve_trace(&mut runtime(), &trace(), &ServiceConfig::default()).expect("plain");
    let empty = serve_with_chaos(
        &mut runtime(),
        &trace(),
        &ServiceConfig::default(),
        &FaultPlan::default(),
        RecoveryConfig::default(),
    )
    .expect("fault-free chaos session");
    assert_eq!(empty.service.digest(), plain.digest());
    assert_eq!(empty.service.render(), plain.render());
    assert_eq!(empty.corrupt_served, 0);
    assert_eq!(empty.counts, Default::default());
    // The faulted session really differs (the plan bit), so the equality
    // above is not vacuous.
    assert_ne!(recovered().0.service.digest(), plain.digest());
}

#[test]
fn chaos_accounting_is_internally_consistent() {
    let (rec, _) = recovered();
    let s = &rec.service;
    assert_eq!(s.requests, s.served + s.shed + s.failed);
    assert_eq!(
        s.served,
        s.outcomes.iter().filter(|o| !o.shed && !o.failed).count()
    );
    assert_eq!(s.failed, rec.counts.failed_jobs as usize);
    // Every corrupted execution was either caught (divergence) or is
    // accounted as a corrupt serve; with per-job checks, none slip by.
    assert!(rec.corrupt_execs <= rec.counts.divergences + rec.corrupt_served as u64);
    assert!(rec.total_execs >= s.served as u64);
}
