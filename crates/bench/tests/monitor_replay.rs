//! Replay pinning for the online monitor: the health state the monitor
//! builds *while serving* must be reproducible after the fact — first
//! from the in-memory event log, then through the full Chrome round trip
//! (`--trace` export → `events_from_chrome` → replay), which is exactly
//! the `trace_report --slo` path. Alert logs and timelines are bit-exact
//! in both directions; the round-tripped battery charge is only
//! `{:.6}`-lossy, so it is compared approximately. The same holds for
//! `trace_report`'s analysis: folding a live log and folding its
//! exported document give the same report.

use dsra_bench::{
    analyze_chrome_trace, parse_json, slo_config_from_meta, slo_replay, TraceAnalysis,
};
use dsra_chaos::{serve_with_chaos, ChaosConfig, FaultPlan, RecoveryConfig};
use dsra_monitor::{AlertLog, BudgetPoint, Monitor, MonitorConfig};
use dsra_profile::{ProfileReport, Profiler};
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_service::{
    install_monitor_with, monitor_config_for, serve_trace, standard_tenants, AdmitPolicy,
    PoolConfig, ServiceConfig, TraceConfig,
};
use dsra_trace::{chrome_trace, EventLog, HealthSnapshot};
use dsra_video::{generate_job_mix, JobMixConfig};

use std::sync::OnceLock;

struct OnlineRun {
    log: EventLog,
    cfg: MonitorConfig,
    alerts: AlertLog,
    timeline: Vec<BudgetPoint>,
    snapshot: HealthSnapshot,
}

/// One overloaded monitored session under `monitor-shed`, recorded with
/// a full-lifecycle event log: the alerter latches and acts, and every
/// arrival interleaves monitor queries with the event stream — the
/// hardest case for replay equality.
fn online() -> &'static OnlineRun {
    static RUN: OnceLock<OnlineRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let trace = TraceConfig {
            tenants: standard_tenants(4, 3),
            duration_us: 4_000,
            ..Default::default()
        };
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![
                DctMapping::BasicDa,
                DctMapping::MixedRom,
                DctMapping::SccFull,
            ],
            ..Default::default()
        })
        .expect("runtime");
        let mut cfg = monitor_config_for(&trace.tenants);
        cfg.keep_timeline = true;
        let handle = install_monitor_with(&mut rt, cfg.clone(), Box::new(EventLog::new()));
        serve_trace(
            &mut rt,
            &trace,
            &ServiceConfig {
                policy: AdmitPolicy::MonitorShed,
                pool: PoolConfig::default(),
                monitor: Some(handle.clone()),
            },
        )
        .expect("session");
        let log = rt.take_trace_sink().into_log().expect("recording inner");
        // The service-layer seal grace guarantees the online monitor
        // dropped nothing — the precondition for time-ordered replays
        // (the Chrome round trip below) to be exact rather than merely
        // close.
        assert_eq!(
            handle.with(|m| m.drops()),
            (0, 0),
            "online monitor must not late-drop any window contribution"
        );
        OnlineRun {
            log,
            cfg,
            alerts: handle.alert_log(),
            timeline: handle.with(|m| m.timeline().to_vec()),
            snapshot: handle.final_snapshot(),
        }
    })
}

/// Everything except the battery must be bit-exact; the battery charge
/// survives the Chrome round trip only to `{:.6}` precision.
fn assert_snapshots_agree(a: &HealthSnapshot, b: &HealthSnapshot, battery_exact: bool) {
    assert_eq!(a.at_cycle, b.at_cycle);
    assert_eq!(a.window_cycles, b.window_cycles);
    assert_eq!(a.windows_sealed, b.windows_sealed);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.arrays, b.arrays);
    assert_eq!(a.tenants, b.tenants);
    assert_eq!(a.alerts_active, b.alerts_active);
    assert_eq!(a.completes, b.completes);
    assert_eq!(a.sheds, b.sheds);
    match (&a.battery, &b.battery) {
        (None, None) => {}
        (Some(x), Some(y)) if battery_exact => assert_eq!(x, y),
        (Some(x), Some(y)) => {
            assert_eq!(x.at_cycle, y.at_cycle);
            assert!(
                (x.charge_j - y.charge_j).abs() <= 1e-6 * x.charge_j.abs().max(1.0),
                "round-tripped charge {} vs {}",
                y.charge_j,
                x.charge_j
            );
        }
        _ => panic!("battery presence must survive replay"),
    }
}

#[test]
fn replaying_the_event_log_reproduces_the_online_monitor_exactly() {
    let run = online();
    assert!(
        !run.alerts.is_empty(),
        "the overload session must latch alerts"
    );
    let replayed = Monitor::replay(run.cfg.clone(), run.log.events().iter());
    assert_eq!(replayed.alert_log(), &run.alerts);
    assert_eq!(replayed.alert_log().digest(), run.alerts.digest());
    assert_eq!(replayed.timeline(), &run.timeline[..]);
    assert_snapshots_agree(&replayed.final_snapshot(), &run.snapshot, true);
}

#[test]
fn chrome_round_trip_reproduces_the_online_monitor() {
    let run = online();
    let doc = parse_json(&chrome_trace(&run.log)).expect("exporter emits strict JSON");
    let analysis = analyze_chrome_trace(&doc).expect("analysis");
    let cfg = slo_config_from_meta(&analysis.meta);
    assert_eq!(cfg.window_cycles, run.cfg.window_cycles);
    assert_eq!(cfg.hist_bucket_cycles, run.cfg.hist_bucket_cycles);
    assert_eq!(cfg.seal_grace_cycles, run.cfg.seal_grace_cycles);
    assert_eq!(cfg.tenant_budgets, run.cfg.tenant_budgets);

    let replayed = slo_replay(&doc).expect("round-trip replay");
    assert_eq!(replayed.config(), &cfg);
    assert_eq!(
        replayed.alert_log(),
        &run.alerts,
        "alert transitions must survive the Chrome round trip bit-exactly"
    );
    assert_eq!(replayed.timeline(), &run.timeline[..]);
    assert_snapshots_agree(&replayed.final_snapshot(), &run.snapshot, false);
}

/// One E15 chaos session recorded with a full-lifecycle event log. A
/// retried job is scheduled and completed once per attempt in the live
/// log, but its exported span keeps only the last attempt.
fn chaos_log() -> &'static EventLog {
    static LOG: OnceLock<EventLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let trace = TraceConfig {
            tenants: standard_tenants(2, 250),
            duration_us: 3_000,
            seed: 0x5EED,
        };
        let plan = FaultPlan::generate(&ChaosConfig {
            seed: 7,
            duration_us: trace.duration_us,
            arrays: 2,
        });
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            ..Default::default()
        })
        .expect("runtime");
        rt.set_trace_sink(Box::new(EventLog::new()));
        serve_with_chaos(
            &mut rt,
            &trace,
            &ServiceConfig::default(),
            &plan,
            RecoveryConfig::default(),
        )
        .expect("chaos session");
        rt.take_trace_sink().into_log().expect("recording sink")
    })
}

/// Two E11 batch serves on one runtime, recorded into one log: job ids
/// restart, and every array's timeline restarts at cycle 0.
fn two_serve_log() -> &'static EventLog {
    static LOG: OnceLock<EventLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            ..Default::default()
        })
        .expect("runtime");
        rt.set_trace_sink(Box::new(EventLog::new()));
        for seed in [1, 2] {
            let mix = generate_job_mix(JobMixConfig {
                jobs: 12,
                seed,
                ..Default::default()
            });
            rt.serve(&mix).expect("serve");
        }
        rt.take_trace_sink().into_log().expect("recording sink")
    })
}

/// `|a - b|` within 1e-6 of the larger magnitude (the exporter writes
/// joules with 6 decimals).
fn assert_close(what: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0),
        "{what}: live {a} vs post-hoc {b}"
    );
}

/// Folding a live log and folding its exported Chrome document give the
/// same analysis: every integer field equal, energies to 1e-6.
fn assert_live_and_post_hoc_folds_agree(log: &EventLog) -> TraceAnalysis {
    let live = TraceAnalysis::fold(log.events());
    let doc = parse_json(&chrome_trace(log)).expect("exporter emits strict JSON");
    let post = analyze_chrome_trace(&doc).expect("analysis");
    assert_eq!(live.meta, post.meta);
    assert_eq!(live.arrays, post.arrays);
    assert_eq!(live.tenants, post.tenants);
    assert_eq!(live.stalls, post.stalls);
    assert_eq!(live.completes, post.completes);
    assert_eq!(live.full_lifecycle, post.full_lifecycle);
    assert_eq!(live.sheds, post.sheds);
    assert_eq!(live.kernels.len(), post.kernels.len());
    for ((lf, l), (pf, p)) in live.kernels.iter().zip(&post.kernels) {
        assert_eq!(
            (lf, &l.kernel, l.completions),
            (pf, &p.kernel, p.completions)
        );
        assert_close("dynamic_j", l.dynamic_j, p.dynamic_j);
        assert_close("static_j", l.static_j, p.static_j);
        assert_close("reconfig_j", l.reconfig_j, p.reconfig_j);
    }
    let names: Vec<&str> = live.metrics.counter_names().collect();
    assert_eq!(names, post.metrics.counter_names().collect::<Vec<_>>());
    for name in names {
        assert_eq!(
            live.metrics.counter(name),
            post.metrics.counter(name),
            "{name}"
        );
    }
    match (
        live.metrics.gauge("battery_final_j"),
        post.metrics.gauge("battery_final_j"),
    ) {
        (Some(l), Some(p)) => assert_close("battery_final_j", l, p),
        (l, p) => assert_eq!(l, p),
    }
    assert_eq!(
        live.metrics.hist("queue_delay_cycles"),
        post.metrics.hist("queue_delay_cycles")
    );
    post
}

#[test]
fn monitor_array_health_matches_the_trace_analyzer() {
    let run = online();
    let analysis = assert_live_and_post_hoc_folds_agree(&run.log);
    assert_eq!(analysis.arrays.len(), run.snapshot.arrays.len());
    for ((&array, post), live) in analysis.arrays.iter().zip(&run.snapshot.arrays) {
        assert_eq!(array, live.array);
        assert_eq!(post.span(), live.span_cycles, "array {array} span");
        assert!(
            (post.utilization_pct() - live.utilization_pct).abs() < 1e-9,
            "array {} utilization: post-hoc {} vs online {}",
            array,
            post.utilization_pct(),
            live.utilization_pct
        );
        assert!(
            (post.gated_pct() - live.gated_pct).abs() < 1e-9,
            "array {} gating: post-hoc {} vs online {}",
            array,
            post.gated_pct(),
            live.gated_pct
        );
    }

    let chaos = chaos_log();
    let kinds = |tag: &str| {
        chaos
            .events()
            .iter()
            .filter(|e| e.kind_tag() == tag)
            .count()
    };
    assert!(kinds("retry") > 0, "the chaos session must retry jobs");
    assert!(
        kinds("complete") > kinds("enqueue") - kinds("shed"),
        "retried jobs complete more than once in the live log"
    );
    let analysis = assert_live_and_post_hoc_folds_agree(chaos);
    assert!(analysis.metrics.counter("chaos_retries") > 0);

    let analysis = assert_live_and_post_hoc_folds_agree(two_serve_log());
    assert_eq!(analysis.completes, 24, "reused job ids stay separate jobs");
}

/// A log holding two serves charges each array's second timeline as a
/// new session: phases tile the summed span, so no percentage tops 100.
#[test]
fn multi_serve_logs_keep_every_array_within_its_span() {
    let log = two_serve_log();
    let analysis = TraceAnalysis::fold(log.events());
    let mut profiler = Profiler::new();
    for ev in log.events() {
        profiler.observe(ev);
    }
    let report = ProfileReport::build(&profiler, &[]);
    assert_eq!(report.arrays, analysis.arrays);
    for (array, phases) in &report.arrays {
        let intervals = &log.array_intervals()[array];
        let last_end = intervals.iter().map(|&(_, end, _)| end).max().unwrap();
        assert!(
            phases.span() > last_end,
            "array {array}: the second serve opens a new session"
        );
        let charged = phases.idle + phases.gated + phases.reconfig + phases.waking + phases.exec;
        assert_eq!(
            charged,
            phases.span(),
            "array {array}: phases tile the span"
        );
        assert!(
            phases.utilization_pct() + phases.gated_pct() <= 100.0 + 1e-9,
            "array {array}: {} util% + {} gated%",
            phases.utilization_pct(),
            phases.gated_pct()
        );
    }
}
