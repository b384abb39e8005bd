//! Input from outside never panics the readers: truncated, mutated and
//! structurally malformed documents fed to the JSON parser and to the
//! Chrome-trace readers behind `trace_report` (`events_from_chrome`,
//! `analyze_chrome_trace`, the `--slo` replay) come back as `Err`, never
//! as a panic or a hang.

use std::sync::OnceLock;

use dsra_bench::{analyze_chrome_trace, events_from_chrome, parse_json, slo_replay, Json};
use dsra_core::rng::SplitMix64;
use dsra_monitor::{Monitor, MonitorConfig};
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_trace::{chrome_trace, ArrayPhase, EnergyBreakdown, EventLog, TraceEvent, TraceSink};
use dsra_video::{generate_job_mix, JobMixConfig};
use proptest::prelude::*;

/// A real `--trace` document: a small traced batch serve, plus one event
/// of every kind the serve does not emit (queueing, shedding, chaos,
/// battery), so every reader branch has a well-formed case to corrupt.
fn chrome_doc() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .expect("runtime");
        rt.set_trace_sink(Box::new(EventLog::new()));
        let mix = generate_job_mix(JobMixConfig {
            jobs: 4,
            ..Default::default()
        });
        rt.serve(&mix).expect("serve");
        let mut log = rt.take_trace_sink().into_log().expect("recording sink");
        for ev in [
            TraceEvent::JobEnqueue {
                t: 10,
                job: 90,
                tenant: 1,
                class: "deadline",
                kind: "dct",
                deadline: 500,
            },
            TraceEvent::JobAdmit { t: 30, job: 90 },
            TraceEvent::JobEnqueue {
                t: 12,
                job: 91,
                tenant: 1,
                class: "background",
                kind: "me",
                deadline: 40,
            },
            TraceEvent::JobShed {
                t: 52,
                job: 91,
                tenant: 1,
                queued: 40,
            },
            TraceEvent::ArrayInterval {
                array: 0,
                phase: ArrayPhase::Gated,
                start: 60,
                end: 70,
                job: None,
                kernel: None,
            },
            TraceEvent::FaultInjected {
                t: 61,
                array: 0,
                kind: "stuck_at",
            },
            TraceEvent::DivergenceDetected {
                t: 62,
                job: 90,
                array: 0,
            },
            TraceEvent::JobRetry {
                t: 63,
                job: 90,
                attempt: 1,
            },
            TraceEvent::ArrayQuarantine {
                t: 64,
                array: 0,
                strikes: 2,
            },
            TraceEvent::ArrayRestore { t: 65, array: 0 },
            TraceEvent::JobComplete {
                t: 80,
                job: 90,
                checksum: 0xABCD,
                energy: EnergyBreakdown {
                    dynamic_j: 1.0,
                    static_j: 0.5,
                    reconfig_j: 0.0,
                },
            },
            TraceEvent::BatteryLevel {
                t: 81,
                charge_j: 12.5,
            },
        ] {
            log.emit(ev);
        }
        chrome_trace(&log).trim_end().to_owned()
    })
}

fn parsed() -> Json {
    parse_json(chrome_doc()).expect("the exporter emits strict JSON")
}

/// Runs every reader on a document; any panic fails the test. Returns
/// whether each accepted it.
fn read_all(doc: &Json) -> (bool, bool) {
    (
        events_from_chrome(doc).is_ok(),
        analyze_chrome_trace(doc).is_ok(),
    )
}

fn fields_mut(value: &mut Json) -> &mut Vec<(String, Json)> {
    let Json::Obj(fields) = value else {
        panic!("expected an object")
    };
    fields
}

fn field_mut<'a>(value: &'a mut Json, key: &str) -> &'a mut Json {
    let field = fields_mut(value).iter_mut().find(|(k, _)| k == key);
    &mut field.unwrap_or_else(|| panic!("no `{key}`")).1
}

fn events_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(events) = field_mut(doc, "traceEvents") else {
        panic!("traceEvents is an array")
    };
    events
}

fn remove_key(value: &mut Json, key: &str) -> bool {
    let fields = fields_mut(value);
    let before = fields.len();
    fields.retain(|(k, _)| k != key);
    fields.len() != before
}

fn str_field<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn the_fixture_document_is_read_cleanly() {
    assert_eq!(read_all(&parsed()), (true, true));
}

#[test]
fn every_truncation_is_an_error() {
    let doc = chrome_doc();
    for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
        assert!(
            parse_json(&doc[..cut]).is_err(),
            "a document truncated to {cut} of {} bytes parsed",
            doc.len()
        );
    }
}

#[test]
fn nesting_bombs_are_errors_not_stack_overflows() {
    for open in ["[", "{\"a\":"] {
        let bomb = open.repeat(100_000);
        assert!(parse_json(&bomb).is_err());
    }
    let deep_but_closed = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(parse_json(&deep_but_closed).is_err());
    let shallow = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    assert!(parse_json(&shallow).is_ok());
}

#[test]
fn malformed_scalars_are_errors() {
    for bad in [
        "",
        " ",
        "-",
        "1e",
        "1e999",
        "tru",
        "nul",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\x\"",
        "\"abc",
        "\"\\",
        "{\"a\" 1}",
        "{1: 2}",
        "[1 2]",
        "{\"traceEvents\": [}",
    ] {
        assert!(parse_json(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn documents_without_events_are_errors() {
    for text in [
        "{}",
        "[]",
        "{\"traceEvents\": 3}",
        "{\"traceEvents\": {}}",
        "null",
    ] {
        let doc = parse_json(text).unwrap();
        assert_eq!(read_all(&doc), (false, false), "{text}");
    }
}

#[test]
fn every_missing_required_field_is_an_error() {
    let clean = parsed();
    let count = events_mut(&mut clean.clone()).len();
    for i in 0..count {
        for key in ["name", "ph", "tid", "args"] {
            let mut doc = clean.clone();
            if remove_key(&mut events_mut(&mut doc)[i], key) {
                assert_eq!(read_all(&doc), (false, false), "event {i} without `{key}`");
            }
        }
        let ev = &clean.get("traceEvents").and_then(Json::as_array).unwrap()[i];
        let (ph, name) = (str_field(ev, "ph"), str_field(ev, "name"));
        let span = ph == "X" && matches!(name, "idle" | "gated" | "reconfig" | "waking" | "exec");
        if span {
            let mut doc = clean.clone();
            remove_key(&mut events_mut(&mut doc)[i], "dur");
            assert!(events_from_chrome(&doc).is_err(), "span {i} without dur");
            assert!(analyze_chrome_trace(&doc).is_err(), "span {i} without dur");
        }
        let needs_job = matches!(
            (ph, name),
            ("X", "queued" | "shed") | ("i", "admit" | "complete" | "divergence" | "retry")
        );
        if needs_job {
            let mut doc = clean.clone();
            let args = field_mut(&mut events_mut(&mut doc)[i], "args");
            assert!(remove_key(args, "job"), "event {i} has a job");
            assert!(events_from_chrome(&doc).is_err(), "{name} {i} without job");
            read_all(&doc);
        }
    }
}

#[test]
fn spans_past_the_last_cycle_are_errors_not_overflows() {
    let clean = parsed();
    let count = events_mut(&mut clean.clone()).len();
    let mut ending = 0;
    for i in 0..count {
        let mut doc = clean.clone();
        let ev = &mut events_mut(&mut doc)[i];
        if str_field(ev, "ph") != "X" {
            continue;
        }
        for (k, v) in fields_mut(ev).iter_mut() {
            if k == "ts" || k == "dur" {
                *v = Json::Num(1.8e19);
            }
        }
        // Array phases and sheds end at `ts + dur`; queue spans only
        // start at `ts`.
        if str_field(ev, "name") != "queued" {
            ending += 1;
            assert!(events_from_chrome(&doc).is_err(), "span {i} overflowed");
        }
        read_all(&doc);
    }
    assert!(ending > 3, "the fixture carries array phases and a shed");
}

/// Well-formed documents stamped far in the future, with the last cycle
/// each reaches: two 2^63-cycle `exec` spans on one array (their sum
/// overflows `u64`), and one span ending 2048 cycles short of `u64::MAX`.
const FAR_FUTURE: [(&str, &str); 2] = [
    (
        r#"{"traceEvents": [
            {"name": "exec", "ph": "X", "ts": 0, "dur": 9223372036854775808, "pid": 0, "tid": 0, "args": {}},
            {"name": "exec", "ph": "X", "ts": 0, "dur": 9223372036854775808, "pid": 0, "tid": 0, "args": {}}
        ]}"#,
        "9223372036854775808",
    ),
    (
        r#"{"traceEvents": [
            {"name": "exec", "ph": "X", "ts": 0, "dur": 18446744073709549568, "pid": 0, "tid": 0, "args": {}}
        ]}"#,
        "18446744073709549568",
    ),
];

#[test]
fn far_future_spans_are_analyzed_but_not_replayed() {
    for (text, end) in FAR_FUTURE {
        let doc = parse_json(text).expect("strict JSON");
        let events = events_from_chrome(&doc).expect("well-formed spans");
        let array = analyze_chrome_trace(&doc)
            .expect("well-formed spans")
            .arrays[&0];
        assert!(array.utilization_pct() <= 100.0, "{array:?}");
        // The monitor's phase account saturates instead of overflowing...
        let mut monitor = Monitor::new(MonitorConfig::default());
        for ev in &events {
            monitor.observe(ev);
        }
        let health = &monitor.snapshot(0).arrays[0];
        assert!(health.utilization_pct <= 100.0, "{health:?}");
        // ...and the replay refuses to seal ~2^63 / W windows one by one.
        let err = slo_replay(&doc).expect_err("far-future replay");
        assert!(err.contains(end), "{err}");
    }
}

/// The fixture with the geometry a `stream_serve --monitor` session
/// stamps into `otherData`, `key` set to `value`.
fn monitored(key: &str, value: u64) -> Json {
    let mut doc = parsed();
    if !fields_mut(&mut doc).iter().any(|(k, _)| k == "otherData") {
        fields_mut(&mut doc).push(("otherData".into(), Json::Obj(Vec::new())));
    }
    let meta = fields_mut(field_mut(&mut doc, "otherData"));
    for (k, v) in [
        ("monitor_window_cycles", 25_000),
        ("monitor_hist_bucket_cycles", 2_500),
        ("monitor_seal_grace_cycles", 99),
    ] {
        let v = if k == key { value } else { v };
        meta.retain(|(m, _)| m != k);
        meta.push((k.into(), Json::Str(v.to_string())));
    }
    doc
}

/// A window or seal grace of `u64::MAX` in a monitored trace's geometry
/// metadata puts the last window's seal cycle past `u64::MAX`: the replay
/// names the key instead of overflowing.
#[test]
fn overflowing_monitor_geometry_is_an_error_naming_the_key() {
    let clean = monitored("monitor_seal_grace_cycles", 99);
    assert!(slo_replay(&clean).is_ok(), "the monitored fixture replays");
    for key in ["monitor_seal_grace_cycles", "monitor_window_cycles"] {
        let doc = monitored(key, u64::MAX);
        let err = slo_replay(&doc).expect_err("overflowing geometry");
        assert!(err.contains(key), "{err}");
        read_all(&doc);
    }
}

/// JSON-significant bytes: mutations built from these reach deep into
/// the parser instead of failing at the first byte.
const NOISE: &[u8] = b"{}[]\":,-+.0123456789eE\\u tfnrl ";

/// A random JSON value of bounded depth.
fn random_json(rng: &mut SplitMix64, depth: u32) -> Json {
    match rng.next_below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_below(2) == 1),
        2 => Json::Num(
            [-1.0, 0.0, 0.5, 1e300, -1e300, 1.8e19, 4.3e9, 7.0][rng.next_below(8) as usize],
        ),
        3 => Json::Str(
            ["", "X", "i", "C", "exec", "complete", "0x", "0xZZ"][rng.next_below(8) as usize]
                .into(),
        ),
        4 => Json::Num(rng.next_below(1 << 40) as f64),
        5 => Json::Arr(
            (0..rng.next_below(3))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut fields = Vec::new();
            for k in [
                "name", "ph", "tid", "ts", "dur", "args", "job", "value", "charge_j",
            ] {
                if rng.next_below(2) == 1 {
                    fields.push((k.to_owned(), random_json(rng, depth - 1)));
                }
            }
            Json::Obj(fields)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Byte-level damage anywhere in a real document: the parser answers
    /// `Ok` or `Err`, and whatever it accepts the trace readers handle.
    #[test]
    fn mutated_documents_never_panic(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = chrome_doc().as_bytes().to_vec();
        for _ in 0..1 + rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64 + 1) as usize;
            let noise = NOISE[rng.next_below(NOISE.len() as u64) as usize];
            match rng.next_below(3) {
                0 if at < bytes.len() => bytes[at] = noise,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, noise),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = parse_json(&text) {
            read_all(&doc);
        }
    }

    /// Structurally valid JSON with wrongly typed, out-of-range or
    /// missing fields in random events never panics the trace readers.
    #[test]
    fn wrongly_typed_events_never_panic(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let mut doc = parsed();
        let events = events_mut(&mut doc);
        for _ in 0..1 + rng.next_below(6) {
            let i = rng.next_below(events.len() as u64) as usize;
            if rng.next_below(4) == 0 {
                events[i] = random_json(&mut rng, 3);
                continue;
            }
            let Json::Obj(fields) = &mut events[i] else { continue };
            let f = rng.next_below(fields.len() as u64) as usize;
            fields[f].1 = random_json(&mut rng, 2);
        }
        read_all(&doc);
    }
}
