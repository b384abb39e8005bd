//! Chrome trace-event exporter: renders an [`EventLog`] as a
//! `chrome://tracing` / Perfetto-loadable JSON document.
//!
//! Layout: process 0 hosts one track per array (state intervals as `"X"`
//! complete events named after the [`crate::ArrayPhase`] tag, plus
//! `"complete"` instants and `"C"` counter tracks); process 1 hosts one
//! track per tenant (`"queued"` wait spans, `"admit"` instants, `"shed"`
//! spans). All `ts`/`dur` values are virtual cycles, so the document is
//! byte-identical across runs of the same seed. Keys are unique per
//! object and the writer emits no non-finite literals, so the output
//! round-trips through the strict `dsra_bench::json` parser.

use crate::event::TraceEvent;
use crate::sink::{job_spans, EventLog};
use std::collections::BTreeSet;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

struct Record {
    name: String,
    cat: &'static str,
    ph: &'static str,
    ts: u64,
    dur: Option<u64>,
    pid: u32,
    tid: u32,
    scope: bool,
    args: Vec<(String, String)>,
}

impl Record {
    fn render(&self) -> String {
        let mut s = format!(
            "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
            esc(&self.name),
            self.cat,
            self.ph,
            self.ts
        );
        if let Some(d) = self.dur {
            s.push_str(&format!("\"dur\": {d}, "));
        }
        if self.scope {
            s.push_str("\"s\": \"t\", ");
        }
        s.push_str(&format!("\"pid\": {}, \"tid\": {}, ", self.pid, self.tid));
        s.push_str("\"args\": {");
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str("}}");
        s
    }
}

fn meta_record(pid: u32, tid: u32, key: &'static str, value: &str) -> Record {
    Record {
        name: key.to_owned(),
        cat: "__metadata",
        ph: "M",
        ts: 0,
        dur: None,
        pid,
        tid,
        scope: false,
        args: vec![("name".into(), format!("\"{}\"", esc(value)))],
    }
}

/// Renders the log as a Chrome trace-event JSON document (see the module
/// docs for the track layout). Deterministic: same log, same bytes.
pub fn chrome_trace(log: &EventLog) -> String {
    let mut records: Vec<Record> = Vec::new();

    // Track metadata first: arrays (pid 0) then tenants (pid 1).
    let mut arrays: BTreeSet<u32> = BTreeSet::new();
    for ev in log.events() {
        match ev {
            TraceEvent::ArrayInterval { array, .. }
            | TraceEvent::JobSchedule { array, .. }
            | TraceEvent::FaultInjected { array, .. }
            | TraceEvent::DivergenceDetected { array, .. }
            | TraceEvent::ArrayQuarantine { array, .. }
            | TraceEvent::ArrayRestore { array, .. } => {
                arrays.insert(*array);
            }
            _ => {}
        }
    }
    let spans = job_spans(log.events());
    let tenants: BTreeSet<u32> = spans.iter().map(|s| s.tenant).collect();
    records.push(meta_record(0, 0, "process_name", "arrays"));
    records.push(meta_record(1, 0, "process_name", "tenants"));
    for a in &arrays {
        records.push(meta_record(0, *a, "thread_name", &format!("array {a}")));
    }
    for t in &tenants {
        records.push(meta_record(1, *t, "thread_name", &format!("tenant {t}")));
    }

    // Array-process records in raw emission order.
    for ev in log.events() {
        match ev {
            TraceEvent::ArrayInterval {
                array,
                phase,
                start,
                end,
                job,
                kernel,
            } => {
                if end <= start {
                    continue;
                }
                let mut args = Vec::new();
                if let Some(j) = job {
                    args.push(("job".to_owned(), j.to_string()));
                }
                if let Some(k) = kernel {
                    args.push(("kernel".to_owned(), format!("\"{}\"", esc(k))));
                }
                records.push(Record {
                    name: phase.tag().to_owned(),
                    cat: "array",
                    ph: "X",
                    ts: *start,
                    dur: Some(end - start),
                    pid: 0,
                    tid: *array,
                    scope: false,
                    args,
                });
            }
            TraceEvent::BatteryLevel { t, charge_j } => records.push(Record {
                name: "battery_j".to_owned(),
                cat: "counter",
                ph: "C",
                ts: *t,
                dur: None,
                pid: 0,
                tid: 0,
                scope: false,
                args: vec![("charge_j".to_owned(), num(*charge_j))],
            }),
            TraceEvent::Counter { t, name, value } => records.push(Record {
                name: (*name).to_owned(),
                cat: "counter",
                ph: "C",
                ts: *t,
                dur: None,
                pid: 0,
                tid: 0,
                scope: false,
                args: vec![("value".to_owned(), value.to_string())],
            }),
            // Chaos/recovery instants land on the owning array's track
            // (`JobRetry` carries no array and uses track 0) in a
            // dedicated category, so fault storms read directly off the
            // timeline next to the intervals they perturb.
            TraceEvent::FaultInjected { t, array, kind } => records.push(Record {
                name: "fault".to_owned(),
                cat: "chaos",
                ph: "i",
                ts: *t,
                dur: None,
                pid: 0,
                tid: *array,
                scope: true,
                args: vec![("kind".to_owned(), format!("\"{kind}\""))],
            }),
            TraceEvent::DivergenceDetected { t, job, array } => records.push(Record {
                name: "divergence".to_owned(),
                cat: "chaos",
                ph: "i",
                ts: *t,
                dur: None,
                pid: 0,
                tid: *array,
                scope: true,
                args: vec![("job".to_owned(), job.to_string())],
            }),
            TraceEvent::JobRetry { t, job, attempt } => records.push(Record {
                name: "retry".to_owned(),
                cat: "chaos",
                ph: "i",
                ts: *t,
                dur: None,
                pid: 0,
                tid: 0,
                scope: true,
                args: vec![
                    ("job".to_owned(), job.to_string()),
                    ("attempt".to_owned(), attempt.to_string()),
                ],
            }),
            TraceEvent::ArrayQuarantine { t, array, strikes } => records.push(Record {
                name: "quarantine".to_owned(),
                cat: "chaos",
                ph: "i",
                ts: *t,
                dur: None,
                pid: 0,
                tid: *array,
                scope: true,
                args: vec![("strikes".to_owned(), strikes.to_string())],
            }),
            TraceEvent::ArrayRestore { t, array } => records.push(Record {
                name: "restore".to_owned(),
                cat: "chaos",
                ph: "i",
                ts: *t,
                dur: None,
                pid: 0,
                tid: *array,
                scope: true,
                args: Vec::new(),
            }),
            _ => {}
        }
    }

    // Job-lifecycle records from the joined spans, in span order.
    for s in &spans {
        let mut tags = vec![("job".to_owned(), s.job.to_string())];
        if let Some(c) = s.class {
            tags.push(("class".to_owned(), format!("\"{c}\"")));
        }
        if let Some(k) = s.kind {
            tags.push(("kind".to_owned(), format!("\"{k}\"")));
        }
        if let Some(admit) = s.admit {
            records.push(Record {
                name: "admit".to_owned(),
                cat: "job",
                ph: "i",
                ts: admit,
                dur: None,
                pid: 1,
                tid: s.tenant,
                scope: true,
                args: vec![("job".to_owned(), s.job.to_string())],
            });
        }
        if let (Some(enq), Some(sched)) = (s.enqueue, s.schedule) {
            let mut args = tags.clone();
            args.push(("deadline".to_owned(), s.deadline.to_string()));
            records.push(Record {
                name: "queued".to_owned(),
                cat: "job",
                ph: "X",
                ts: enq,
                dur: Some(sched.saturating_sub(enq)),
                pid: 1,
                tid: s.tenant,
                scope: false,
                args,
            });
        }
        if let Some((t, queued)) = s.shed {
            let mut args = tags.clone();
            args.push(("wait".to_owned(), queued.to_string()));
            records.push(Record {
                name: "shed".to_owned(),
                cat: "job",
                ph: "X",
                ts: t.saturating_sub(queued),
                dur: Some(queued),
                pid: 1,
                tid: s.tenant,
                scope: false,
                args,
            });
        }
        if let (Some(t), Some(array)) = (s.complete, s.array) {
            let mut args = vec![("job".to_owned(), s.job.to_string())];
            if let Some(c) = s.checksum {
                args.push(("checksum".to_owned(), format!("\"{c:#018x}\"")));
            }
            if let Some(k) = &s.kernel {
                args.push(("kernel".to_owned(), format!("\"{}\"", esc(k))));
            }
            if let Some(fp) = &s.fingerprint {
                args.push(("fingerprint".to_owned(), format!("\"{}\"", esc(fp))));
            }
            if let Some(e) = s.energy {
                args.push(("dynamic_j".to_owned(), num(e.dynamic_j)));
                args.push(("static_j".to_owned(), num(e.static_j)));
                args.push(("reconfig_j".to_owned(), num(e.reconfig_j)));
            }
            records.push(Record {
                name: "complete".to_owned(),
                cat: "job",
                ph: "i",
                ts: t,
                dur: None,
                pid: 0,
                tid: array,
                scope: true,
                args,
            });
        }
    }

    // Session metadata: first value per key wins (multi-serve logs repeat
    // their session header; the strict parser rejects duplicate keys).
    let mut meta_keys: BTreeSet<&'static str> = BTreeSet::new();
    let mut other: Vec<(&'static str, String)> = Vec::new();
    for ev in log.events() {
        if let TraceEvent::Meta { key, value } = ev {
            if meta_keys.insert(key) {
                other.push((key, value.clone()));
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
    for (i, (k, v)) in other.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{k}\": \"{}\"", esc(v)));
    }
    if !other.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"traceEvents\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.render());
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One stacked counter track: Chrome `"C"` events on process 0, track
/// `tid`, each sample carrying the same series keys (busy/reconfig/…)
/// so the viewer renders them as a stacked area chart. Produced by
/// `dsra-profile`'s per-array utilization timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (e.g. `"array 3 utilization"`).
    pub name: String,
    /// Track id on the array process (use the array id).
    pub tid: u32,
    /// `(cycle, series values)` samples in ascending cycle order.
    pub samples: Vec<(u64, Vec<(String, f64)>)>,
}

/// Renders stacked counter tracks as a standalone Chrome trace-event
/// JSON document. Deterministic: tracks and samples render in the order
/// given, values through the same fixed-precision writer as
/// [`chrome_trace`], so same input means same bytes.
pub fn counter_tracks_doc(tracks: &[CounterTrack]) -> String {
    let mut records: Vec<Record> = vec![meta_record(0, 0, "process_name", "arrays")];
    for track in tracks {
        for (t, series) in &track.samples {
            records.push(Record {
                name: track.name.clone(),
                cat: "counter",
                ph: "C",
                ts: *t,
                dur: None,
                pid: 0,
                tid: track.tid,
                scope: false,
                args: series.iter().map(|(k, v)| (k.clone(), num(*v))).collect(),
            });
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {},\n  \"traceEvents\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.render());
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrayPhase, EnergyBreakdown};
    use crate::sink::TraceSink;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.emit(TraceEvent::Meta {
            key: "mode",
            value: "stream".into(),
        });
        log.emit(TraceEvent::Meta {
            key: "mode",
            value: "second-session".into(),
        });
        log.emit(TraceEvent::JobEnqueue {
            t: 0,
            job: 1,
            tenant: 2,
            class: "deadline",
            kind: "me",
            deadline: 900,
        });
        log.emit(TraceEvent::JobAdmit { t: 0, job: 1 });
        log.emit(TraceEvent::JobSchedule {
            t: 30,
            job: 1,
            array: 1,
            kernel: "me\"systolic".into(),
            fingerprint: "0".repeat(32),
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 1,
            phase: ArrayPhase::Idle,
            start: 0,
            end: 30,
            job: None,
            kernel: None,
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 1,
            phase: ArrayPhase::Exec,
            start: 30,
            end: 80,
            job: Some(1),
            kernel: Some("me".into()),
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 1,
            phase: ArrayPhase::Exec,
            start: 80,
            end: 80,
            job: Some(1),
            kernel: None,
        });
        log.emit(TraceEvent::JobComplete {
            t: 80,
            job: 1,
            checksum: 0xdead_beef,
            energy: EnergyBreakdown {
                dynamic_j: 0.5,
                static_j: 0.25,
                reconfig_j: 0.0,
            },
        });
        log.emit(TraceEvent::JobShed {
            t: 60,
            job: 2,
            tenant: 0,
            queued: 45,
        });
        log.emit(TraceEvent::BatteryLevel {
            t: 80,
            charge_j: 7.5,
        });
        log.emit(TraceEvent::Counter {
            t: 80,
            name: "cache_hits",
            value: 3,
        });
        log
    }

    #[test]
    fn export_is_deterministic_and_structurally_sound() {
        let log = sample_log();
        let a = chrome_trace(&log);
        let b = chrome_trace(&log);
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"thread_name\""));
        // First meta value wins; no duplicate keys in otherData.
        assert!(a.contains("\"mode\": \"stream\""));
        assert!(!a.contains("second-session"));
        // Strings are escaped.
        assert!(a.contains("me\\\"systolic"));
        // Zero-length intervals are dropped.
        assert!(!a.contains("\"dur\": 0,"));
        // Shed span rewinds to the arrival instant.
        assert!(a.contains("\"name\": \"shed\", \"cat\": \"job\", \"ph\": \"X\", \"ts\": 15"));
    }

    #[test]
    fn chaos_events_export_as_instants_on_the_array_track() {
        let mut log = EventLog::new();
        log.emit(TraceEvent::FaultInjected {
            t: 10,
            array: 3,
            kind: "stuck_at",
        });
        log.emit(TraceEvent::DivergenceDetected {
            t: 20,
            job: 7,
            array: 3,
        });
        log.emit(TraceEvent::JobRetry {
            t: 25,
            job: 7,
            attempt: 1,
        });
        log.emit(TraceEvent::ArrayQuarantine {
            t: 30,
            array: 3,
            strikes: 2,
        });
        log.emit(TraceEvent::ArrayRestore { t: 90, array: 3 });
        let a = chrome_trace(&log);
        for needle in [
            "\"name\": \"fault\", \"cat\": \"chaos\", \"ph\": \"i\", \"ts\": 10",
            "\"kind\": \"stuck_at\"",
            "\"name\": \"divergence\", \"cat\": \"chaos\", \"ph\": \"i\", \"ts\": 20",
            "\"name\": \"retry\", \"cat\": \"chaos\", \"ph\": \"i\", \"ts\": 25",
            "\"attempt\": 1",
            "\"name\": \"quarantine\", \"cat\": \"chaos\", \"ph\": \"i\", \"ts\": 30",
            "\"strikes\": 2",
            "\"name\": \"restore\", \"cat\": \"chaos\", \"ph\": \"i\", \"ts\": 90",
            // The chaos-only array still gets a named track.
            "\"thread_name\"",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn counter_tracks_doc_is_deterministic_and_stacked() {
        let tracks = vec![CounterTrack {
            name: "array 1 utilization".into(),
            tid: 1,
            samples: vec![
                (0, vec![("busy".into(), 75.0), ("idle".into(), 25.0)]),
                (100, vec![("busy".into(), 50.0), ("idle".into(), 50.0)]),
            ],
        }];
        let a = counter_tracks_doc(&tracks);
        assert_eq!(a, counter_tracks_doc(&tracks));
        assert!(a.contains("\"name\": \"array 1 utilization\""));
        assert!(a.contains("\"ph\": \"C\""));
        assert!(a.contains("\"busy\": 75.000000"));
        assert!(a.contains("\"ts\": 100"));
        assert!(a.contains("\"tid\": 1"));
    }

    #[test]
    fn export_carries_all_track_kinds() {
        let a = chrome_trace(&sample_log());
        for needle in [
            "\"name\": \"idle\"",
            "\"name\": \"exec\"",
            "\"name\": \"queued\"",
            "\"name\": \"admit\"",
            "\"name\": \"complete\"",
            "\"name\": \"battery_j\"",
            "\"name\": \"cache_hits\"",
            "\"checksum\": \"0x00000000deadbeef\"",
            "\"s\": \"t\"",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }
}
