//! The `BENCH_<name>.json` contract (ISSUE 3 satellite): everything the
//! experiment binaries can write with `--json` must be parseable JSON
//! carrying the required keys. Before this test the trajectory files were
//! write-only — nothing in the workspace could read one back.

use dsra_bench::{
    chaos_metrics, json_summary, monitor_metrics, parse_json, registry_from_metrics,
    stream_metrics, Json, JsonValue,
};
use dsra_chaos::{serve_with_chaos, ChaosConfig, FaultPlan, RecoveryConfig};
use dsra_runtime::{DctMapping, PhaseTimings, RuntimeConfig, SocRuntime};
use dsra_service::{
    install_monitor, serve_trace, standard_tenants, AdmitPolicy, PoolConfig, ServiceConfig,
    TraceConfig,
};
use dsra_trace::{chrome_trace, EventLog, NoopSink};
use dsra_video::{generate_job_mix, JobMixConfig, JobMixWeights};

/// The flat `json_summary` shape every per-experiment writer uses:
/// `experiment` plus a `metrics` object, surviving the awkward cases
/// (non-finite numbers become null, strings get escaped).
#[test]
fn json_summary_emits_the_contract_shape() {
    let doc = json_summary(
        "E12",
        &[
            ("jobs", JsonValue::Int(42)),
            ("joules_per_job", JsonValue::Num(3.25)),
            ("psnr_db", JsonValue::Num(f64::INFINITY)),
            ("nan_metric", JsonValue::Num(f64::NAN)),
            ("label", JsonValue::Str("quote\" back\\slash".into())),
        ],
    );
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("unparseable summary: {e}\n{doc}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E12"));
    let metrics = v.get("metrics").expect("metrics object");
    assert_eq!(metrics.get("jobs").and_then(Json::as_f64), Some(42.0));
    assert_eq!(
        metrics.get("joules_per_job").and_then(Json::as_f64),
        Some(3.25)
    );
    // JSON has no inf/NaN literals; the writer must null them.
    assert_eq!(metrics.get("psnr_db"), Some(&Json::Null));
    assert_eq!(metrics.get("nan_metric"), Some(&Json::Null));
    assert_eq!(
        metrics.get("label").and_then(Json::as_str),
        Some("quote\" back\\slash")
    );
}

/// The full `RuntimeReport::to_json` payload (`BENCH_runtime.json`):
/// parseable, and every required key present — including the energy and
/// battery-trajectory sections E12 adds.
#[test]
fn runtime_report_json_carries_required_keys() {
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa],
        ..Default::default()
    })
    .expect("runtime");
    let jobs = generate_job_mix(JobMixConfig {
        jobs: 6,
        weights: JobMixWeights {
            dct: 2,
            me: 1,
            encode: 1,
        },
        ..Default::default()
    });
    let report = rt.serve(&jobs).expect("serve");
    let doc = report.to_json("E11");
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("unparseable report: {e}\n{doc}"));

    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E11"));
    // The execution backend is part of the schema (ISSUE 6) but never part
    // of the digest — outcomes are byte-identical across backends.
    assert_eq!(v.get("backend").and_then(Json::as_str), Some("array"));
    for key in [
        "jobs",
        "dct_jobs",
        "me_jobs",
        "encode_jobs",
        "makespan_cycles",
        "jobs_per_megacycle",
        "total_reconfig_bits",
        "reconfig_events",
    ] {
        assert!(
            v.get(key).and_then(Json::as_f64).is_some(),
            "missing numeric key {key}"
        );
    }
    assert!(v.get("outcome_digest").and_then(Json::as_str).is_some());
    // Serve-latency percentiles (ISSUE 5 satellite): arrival → completion,
    // queueing included, pinned as part of the BENCH_runtime.json schema.
    let latency = v.get("latency").expect("latency object");
    for key in ["p50_cycles", "p99_cycles"] {
        assert!(
            latency.get(key).and_then(Json::as_f64).is_some(),
            "missing latency key {key}"
        );
    }
    assert!(
        latency.get("p50_cycles").unwrap().as_f64() <= latency.get("p99_cycles").unwrap().as_f64(),
        "p50 must not exceed p99"
    );
    let cache = v.get("cache").expect("cache object");
    for key in ["lookups", "hits", "misses", "hit_rate"] {
        assert!(cache.get(key).and_then(Json::as_f64).is_some());
    }
    let energy = v.get("energy").expect("energy object");
    for key in [
        "total_j",
        "dynamic_j",
        "static_j",
        "reconfig_j",
        "gated_cycles",
        "joules_per_job",
        "encoded_frames",
        "frames_per_joule",
    ] {
        assert!(
            energy.get(key).and_then(Json::as_f64).is_some(),
            "missing energy key {key}"
        );
    }
    assert!(energy.get("point").and_then(Json::as_str).is_some());
    let battery = v.get("battery").expect("battery object");
    for key in ["capacity_j", "start_j", "end_j", "idle_drain_j"] {
        assert!(battery.get(key).and_then(Json::as_f64).is_some());
    }
    let trajectory = battery
        .get("trajectory")
        .and_then(Json::as_array)
        .expect("trajectory array");
    assert_eq!(trajectory.len(), 6, "one trajectory sample per job");
    for sample in trajectory {
        assert!(sample.get("job").and_then(Json::as_f64).is_some());
        assert!(sample.get("charge_j").and_then(Json::as_f64).is_some());
    }
    // `soc_serve --json` writes the timed variant: same document plus a
    // `phases` object carrying the serve's wall-clock planning/exec split
    // (ISSUE 4). Both keys are part of the BENCH_runtime.json contract.
    let timed = report.to_json_with_phases("E11", rt.phase_timings());
    let tv =
        parse_json(&timed).unwrap_or_else(|e| panic!("unparseable timed report: {e}\n{timed}"));
    let ph = tv.get("phases").expect("phases object");
    for key in ["planning_ms", "exec_ms"] {
        assert!(
            ph.get(key).and_then(Json::as_f64).is_some(),
            "missing phase key {key}"
        );
    }
    // Stripping the phases object back out recovers the deterministic
    // document byte for byte.
    let explicit = report.to_json_with_phases(
        "E11",
        PhaseTimings {
            planning_ms: 1.5,
            exec_ms: 2.5,
        },
    );
    let stripped: String = explicit
        .lines()
        .filter(|l| !l.contains("\"phases\""))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(stripped, doc, "phases must be a pure addition");

    let arrays = v.get("arrays").and_then(Json::as_array).expect("arrays");
    assert_eq!(arrays.len(), 2);
    for a in arrays {
        for key in [
            "id",
            "jobs",
            "exec_cycles",
            "reconfig_bits",
            "utilization_pct",
            "energy_j",
            "dynamic_j",
            "static_j",
            "reconfig_j",
            "gated_cycles",
        ] {
            assert!(
                a.get(key).and_then(Json::as_f64).is_some(),
                "missing array key {key}"
            );
        }
        assert!(a.get("kind").and_then(Json::as_str).is_some());
    }
}

/// The `BENCH_stream.json` payload (E13): `stream_metrics` must emit a
/// parseable per-policy block with every pinned key, for both admission
/// policies, from one shared definition (`dsra_bench::stream`).
#[test]
fn stream_metrics_carry_the_bench_stream_contract() {
    let trace = TraceConfig {
        tenants: standard_tenants(2, 300),
        duration_us: 4_000,
        ..Default::default()
    };
    let mut all: Vec<(String, JsonValue)> = vec![
        ("tenants".into(), JsonValue::Int(2)),
        ("duration_us".into(), JsonValue::Int(4_000)),
        ("rate_per_ms".into(), JsonValue::Int(7)),
        ("da_arrays".into(), JsonValue::Int(1)),
        ("me_arrays".into(), JsonValue::Int(1)),
    ];
    for policy in [AdmitPolicy::FifoUnbounded, AdmitPolicy::EdfShed] {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
            ..Default::default()
        })
        .expect("runtime");
        let report = serve_trace(
            &mut rt,
            &trace,
            &ServiceConfig {
                policy,
                ..Default::default()
            },
        )
        .expect("session");
        all.extend(stream_metrics(&report));
    }
    let doc = json_summary("E13", &all);
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("unparseable stream summary: {e}\n{doc}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E13"));
    let metrics = v.get("metrics").expect("metrics object");
    for key in [
        "tenants",
        "duration_us",
        "rate_per_ms",
        "da_arrays",
        "me_arrays",
    ] {
        assert!(
            metrics.get(key).and_then(Json::as_f64).is_some(),
            "missing run key {key}"
        );
    }
    for tag in ["fifo", "edf_shed"] {
        for key in [
            "requests",
            "served",
            "shed",
            "violations",
            "p50_latency_us",
            "p90_latency_us",
            "p99_latency_us",
            "max_latency_us",
            "shed_wait_p99_us",
            "violation_pct",
            "shed_pct",
            "goodput_pct",
            "energy_j",
            "joules_per_served",
            "gate_events",
            "wakes",
        ] {
            assert!(
                metrics
                    .get(&format!("{tag}_{key}"))
                    .and_then(Json::as_f64)
                    .is_some(),
                "missing numeric key {tag}_{key}"
            );
        }
        assert!(
            metrics
                .get(&format!("{tag}_digest"))
                .and_then(Json::as_str)
                .is_some(),
            "missing {tag}_digest"
        );
    }
}

/// The `--monitor` extension of `BENCH_stream.json` plus the `--metrics`
/// Prometheus text-exposition dump (ISSUE 8): a monitored session adds
/// exactly the pinned `monitor_*` keys; `registry_from_metrics` folds
/// the same vec into a registry whose Prometheus rendering carries the
/// numeric keys (strings like digests are skipped by design); and both
/// documents are byte-identical across same-seed runs.
#[test]
fn monitor_metrics_and_prometheus_dump_extend_the_stream_contract() {
    let session = || {
        let trace = TraceConfig {
            tenants: standard_tenants(4, 3),
            duration_us: 3_000,
            ..Default::default()
        };
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
            ..Default::default()
        })
        .expect("runtime");
        let handle = install_monitor(&mut rt, &trace.tenants, Box::new(NoopSink));
        let report = serve_trace(
            &mut rt,
            &trace,
            &ServiceConfig {
                policy: AdmitPolicy::MonitorShed,
                pool: PoolConfig::default(),
                monitor: Some(handle.clone()),
            },
        )
        .expect("session");
        let health = report.health.clone().expect("monitored session has health");
        let mut metrics = stream_metrics(&report);
        metrics.extend(monitor_metrics(&health, &handle.alert_log()));
        metrics
    };

    let metrics = session();
    let doc = json_summary("E13", &metrics);
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("unparseable monitor summary: {e}\n{doc}"));
    let m = v.get("metrics").expect("metrics object");
    for key in [
        "monitor_windows_sealed",
        "monitor_alerts_active",
        "monitor_alert_transitions",
    ] {
        assert!(
            m.get(key).and_then(Json::as_f64).is_some(),
            "missing numeric key {key}"
        );
    }
    for key in ["monitor_alert_digest", "monitor_alert_log"] {
        assert!(
            m.get(key).and_then(Json::as_str).is_some(),
            "missing string key {key}"
        );
    }
    assert!(
        m.get("monitor_windows_sealed").unwrap().as_f64() > Some(0.0),
        "the session spans at least one window"
    );

    let prom = registry_from_metrics(&metrics).render_prometheus("dsra");
    assert!(
        prom.contains("# TYPE dsra_monitor_windows_sealed counter\n"),
        "windows-sealed counter missing from the Prometheus dump:\n{prom}"
    );
    assert!(prom.contains("# TYPE dsra_monitor_shed_requests counter\n"));
    assert!(prom.contains("# TYPE dsra_monitor_shed_violation_pct gauge\n"));
    assert!(
        !prom.contains("digest") && !prom.contains("alert_log"),
        "string metrics must not leak into the Prometheus dump"
    );

    // Same seed, same bytes — for the JSON document and the dump alike.
    let again = session();
    assert_eq!(json_summary("E13", &again), doc);
    assert_eq!(
        registry_from_metrics(&again).render_prometheus("dsra"),
        prom
    );
}

/// The `--trace` Chrome trace-event document (ISSUE 7): strict-parseable
/// JSON whose event kinds, categories and per-kind required keys are
/// pinned here. A new event kind or a dropped key is a schema change and
/// must update this test.
#[test]
fn chrome_trace_document_carries_the_pinned_schema() {
    let trace = TraceConfig {
        tenants: standard_tenants(2, 300),
        duration_us: 4_000,
        ..Default::default()
    };
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .expect("runtime");
    rt.set_trace_sink(Box::new(EventLog::new()));
    serve_trace(&mut rt, &trace, &ServiceConfig::default()).expect("session");
    let log = rt.take_trace_sink().into_log().expect("recording sink");
    let doc = chrome_trace(&log);
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("trace is not strict JSON: {e}"));

    // Top-level shape.
    assert!(v.get("displayTimeUnit").and_then(Json::as_str).is_some());
    let other = v.get("otherData").expect("otherData object");
    for key in ["mode", "backend", "policy"] {
        assert!(
            other.get(key).and_then(Json::as_str).is_some(),
            "missing session metadata {key}"
        );
    }
    assert_eq!(other.get("mode").and_then(Json::as_str), Some("stream"));

    let seen = assert_chrome_events(&v);
    // Every pinned event kind actually occurs in a streaming session.
    for ph in ["M", "X", "i", "C"] {
        assert!(
            seen.iter().any(|(p, _, _)| p == ph),
            "no {ph} events in the document"
        );
    }
}

/// Validates every event of a parsed Chrome document against the pinned
/// schema — phase/category/name sets and the keys each kind must carry —
/// returning the `(ph, cat, name)` triples seen. Shared by the plain
/// streaming schema test and the chaos-session one.
fn assert_chrome_events(v: &Json) -> Vec<(String, String, String)> {
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut seen: Vec<(String, String, String)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or_default();
        let cat = ev.get("cat").and_then(Json::as_str).unwrap_or_default();
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
        for key in ["name", "cat", "ph"] {
            assert!(
                ev.get(key).and_then(Json::as_str).is_some(),
                "event {i}: {key}"
            );
        }
        for key in ["ts", "pid", "tid"] {
            assert!(
                ev.get(key).and_then(Json::as_f64).is_some(),
                "event {i}: {key}"
            );
        }
        let args = ev.get("args").expect("args object");
        match ph {
            "M" => {
                assert_eq!(cat, "__metadata");
                assert!(matches!(name, "process_name" | "thread_name"), "{name}");
                assert!(args.get("name").and_then(Json::as_str).is_some());
            }
            "X" => {
                assert!(
                    ev.get("dur").and_then(Json::as_f64).is_some(),
                    "event {i}: dur"
                );
                match cat {
                    "array" => assert!(
                        matches!(name, "idle" | "gated" | "reconfig" | "waking" | "exec"),
                        "unknown array phase {name}"
                    ),
                    "job" => {
                        assert!(matches!(name, "queued" | "shed"), "unknown job span {name}");
                        assert!(args.get("job").and_then(Json::as_f64).is_some());
                    }
                    other => panic!("unknown X category {other}"),
                }
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"));
                match cat {
                    "job" => {
                        assert!(
                            matches!(name, "admit" | "complete"),
                            "unknown instant {name}"
                        );
                        assert!(args.get("job").and_then(Json::as_f64).is_some());
                        if name == "complete" {
                            for key in ["checksum", "kernel", "fingerprint"] {
                                assert!(args.get(key).and_then(Json::as_str).is_some(), "{key}");
                            }
                            for key in ["dynamic_j", "static_j", "reconfig_j"] {
                                assert!(args.get(key).is_some(), "{key}");
                            }
                        }
                    }
                    // Chaos/recovery instants (E15): injection, detection
                    // and quarantine land on the array tracks.
                    "chaos" => match name {
                        "fault" => {
                            assert!(args.get("kind").and_then(Json::as_str).is_some())
                        }
                        "divergence" => {
                            assert!(args.get("job").and_then(Json::as_f64).is_some())
                        }
                        "retry" => {
                            assert!(args.get("job").and_then(Json::as_f64).is_some());
                            assert!(args.get("attempt").and_then(Json::as_f64).is_some());
                        }
                        "quarantine" => {
                            assert!(args.get("strikes").and_then(Json::as_f64).is_some())
                        }
                        "restore" => {}
                        other => panic!("unknown chaos instant {other}"),
                    },
                    other => panic!("unknown i category {other}"),
                }
            }
            "C" => {
                assert_eq!(cat, "counter");
                assert!(
                    matches!(
                        name,
                        "battery_j"
                            | "cache_hits"
                            | "cache_misses"
                            | "diff_probes"
                            | "diff_memo_misses"
                    ),
                    "unknown counter track {name}"
                );
            }
            other => panic!("unknown phase {other}"),
        }
        seen.push((ph.to_owned(), cat.to_owned(), name.to_owned()));
    }
    seen
}

/// The `BENCH_chaos.json` payload (E15) and the chaos extension of the
/// Chrome-trace schema: `chaos_metrics` must emit a parseable per-arm
/// block with every pinned key, and a chaos session's trace export must
/// carry the `chaos`-category instants (validated against the same
/// pinned per-event schema as plain streaming sessions).
#[test]
fn chaos_metrics_and_chrome_instants_carry_the_bench_chaos_contract() {
    let trace = TraceConfig {
        tenants: standard_tenants(3, 150),
        duration_us: 6_000,
        ..Default::default()
    };
    let plan = FaultPlan::generate(&ChaosConfig {
        seed: 7,
        duration_us: trace.duration_us,
        arrays: 4,
    });
    let session = |recovery: RecoveryConfig, record: bool| {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 2,
            me_arrays: 2,
            mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
            ..Default::default()
        })
        .expect("runtime");
        if record {
            rt.set_trace_sink(Box::new(EventLog::new()));
        }
        let report = serve_with_chaos(&mut rt, &trace, &ServiceConfig::default(), &plan, recovery)
            .expect("chaos session");
        let log = record.then(|| rt.take_trace_sink().into_log().expect("recording sink"));
        (report, log)
    };

    let (recovered, log) = session(RecoveryConfig::default(), true);
    let (oblivious, _) = session(RecoveryConfig::Oblivious, false);

    // The chaos instants pass the pinned Chrome schema and actually occur.
    let doc = chrome_trace(&log.expect("recorded"));
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("chaos trace is not strict JSON: {e}"));
    let seen = assert_chrome_events(&v);
    for name in ["fault", "divergence", "retry", "quarantine"] {
        assert!(
            seen.iter().any(|(_, c, n)| c == "chaos" && n == name),
            "no chaos/{name} instant in the chaos-session trace"
        );
    }

    // The per-arm metric blocks carry every pinned key.
    let mut metrics: Vec<(String, JsonValue)> = vec![
        ("duration_us".into(), JsonValue::Int(trace.duration_us)),
        ("fault_seed".into(), JsonValue::Int(7)),
        ("faults_planned".into(), JsonValue::Int(plan.len() as u64)),
    ];
    metrics.extend(chaos_metrics(&recovered, "recovery"));
    metrics.extend(chaos_metrics(&oblivious, "oblivious"));
    let doc = json_summary("E15", &metrics);
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("unparseable chaos summary: {e}\n{doc}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E15"));
    let m = v.get("metrics").expect("metrics object");
    for key in ["duration_us", "fault_seed", "faults_planned"] {
        assert!(
            m.get(key).and_then(Json::as_f64).is_some(),
            "missing run key {key}"
        );
    }
    for tag in ["recovery", "oblivious"] {
        for key in [
            "requests",
            "served",
            "shed",
            "failed",
            "violations",
            "p50_latency_us",
            "p99_latency_us",
            "goodput_pct",
            "useful_goodput_pct",
            "corrupt_served",
            "corrupt_execs",
            "total_execs",
            "faults_injected",
            "divergences",
            "retries",
            "quarantines",
            "restores",
        ] {
            assert!(
                m.get(&format!("{tag}_{key}"))
                    .and_then(Json::as_f64)
                    .is_some(),
                "missing numeric key {tag}_{key}"
            );
        }
        assert!(
            m.get(&format!("{tag}_digest"))
                .and_then(Json::as_str)
                .is_some(),
            "missing {tag}_digest"
        );
    }
}
