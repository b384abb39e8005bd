//! Trace semantics (ISSUE 7 satellite): property tests over full
//! streaming sessions pinning the lifecycle invariants the exporter and
//! `trace_report` rely on — per-array state intervals tile the session
//! without overlap or gap, job spans are well-nested, the recorded trace
//! agrees with the SLO report it observed, and two same-seed runs export
//! byte-identical Chrome documents.

use dsra_bench::{analyze_chrome_trace, parse_json};
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_service::{serve_trace, standard_tenants, ServiceConfig, ServiceReport, TraceConfig};
use dsra_trace::{chrome_trace, EventLog};
use proptest::prelude::*;

/// One traced streaming session: small enough to run as a property case,
/// big enough to exercise queueing, shedding and elastic gating.
fn traced_session(seed: u64) -> (ServiceReport, EventLog) {
    let trace = TraceConfig {
        tenants: standard_tenants(2, 250),
        duration_us: 3_000,
        seed,
    };
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .expect("runtime");
    rt.set_trace_sink(Box::new(EventLog::new()));
    let report = serve_trace(&mut rt, &trace, &ServiceConfig::default()).expect("session");
    let log = rt.take_trace_sink().into_log().expect("recording sink");
    (report, log)
}

/// Virtual cycles per µs at the default 100 MHz clock.
const CYC: u64 = 100;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The invariants one traced session must satisfy, for any seed.
    #[test]
    fn traced_sessions_satisfy_the_lifecycle_invariants(seed in any::<u64>()) {
        let (report, log) = traced_session(seed);

        // 1 — per-array intervals tile the session: sorted by emission
        // they are contiguous (no overlap, no gap) and every array covers
        // the same [0, session-end) window.
        let intervals = log.array_intervals();
        prop_assert_eq!(intervals.len(), 2, "one timeline per array");
        let mut session_end = None;
        for (array, iv) in &intervals {
            prop_assert!(!iv.is_empty());
            prop_assert_eq!(iv[0].0, 0, "array {} timeline must start at 0", array);
            for w in iv.windows(2) {
                prop_assert_eq!(
                    w[0].1, w[1].0,
                    "array {} intervals must be contiguous", array
                );
            }
            let end = iv.last().unwrap().1;
            prop_assert_eq!(*session_end.get_or_insert(end), end,
                "all arrays must cover the same session window");
        }

        // 2 — span nesting: enqueue ≤ admit ≤ schedule, reconfig starts at
        // the schedule instant, exec follows reconfig seamlessly, and the
        // completion stamp is the exec end.
        let spans = dsra_trace::job_spans(log.events());
        for s in &spans {
            let enq = s.enqueue.expect("every request is enqueued");
            let admit = s.admit.expect("open-loop admission always admits");
            prop_assert!(enq <= admit);
            if let Some((t, queued)) = s.shed {
                prop_assert!(queued <= t);
                prop_assert!(s.schedule.is_none() && s.complete.is_none(),
                    "a shed job must not also be served");
                continue;
            }
            let sched = s.schedule.expect("served jobs are scheduled");
            prop_assert!(admit <= sched);
            let exec = s.exec.expect("served jobs execute");
            if let Some((rs, re)) = s.reconfig {
                prop_assert_eq!(rs, sched, "reconfig starts at the schedule instant");
                prop_assert_eq!(re, exec.0, "exec follows reconfig seamlessly");
            } else {
                prop_assert_eq!(exec.0, sched);
            }
            prop_assert!(exec.0 < exec.1);
            prop_assert_eq!(s.complete.expect("served jobs complete"), exec.1);
        }

        // 3 — the trace agrees with the SLO report it observed: one
        // full-lifecycle span per served request (the ≥95 % coverage gate,
        // met at 100 %), matching checksums and shed waits, energy split
        // summing to the attributed joules.
        let served: Vec<&_> = spans.iter().filter(|s| s.shed.is_none()).collect();
        prop_assert_eq!(served.len(), report.served);
        prop_assert_eq!(spans.len() - served.len(), report.shed);
        prop_assert!(served.iter().all(|s| s.is_full_lifecycle()));
        for s in &spans {
            let o = &report.outcomes[s.job as usize];
            prop_assert_eq!(o.shed, s.shed.is_some());
            if let Some((_, queued)) = s.shed {
                prop_assert_eq!(queued, o.shed_wait_us * CYC);
            } else {
                prop_assert_eq!(s.checksum.unwrap(), o.checksum);
                prop_assert_eq!(s.array.unwrap() as usize, o.array);
                let e = s.energy.unwrap();
                let err = (e.total_j() - o.energy_j).abs();
                prop_assert!(err <= 1e-9 * o.energy_j.max(1.0),
                    "span energy split {} vs attributed {}", e.total_j(), o.energy_j);
                // Queue delay in the trace matches the report's
                // start − arrival to within the µs rounding of start_us.
                let trace_delay = s.schedule.unwrap() - s.enqueue.unwrap();
                let report_delay = (o.start_us - o.arrival_us) * CYC;
                prop_assert!(report_delay >= trace_delay
                    && report_delay - trace_delay < CYC);
            }
        }

        // 4 — the exported document round-trips through the strict parser
        // and the analyzer's sums agree with the report aggregates.
        let doc = parse_json(&chrome_trace(&log)).expect("strict JSON");
        let a = analyze_chrome_trace(&doc).expect("analyzable trace");
        prop_assert_eq!(a.completes as usize, report.served);
        prop_assert_eq!(a.sheds as usize, report.shed);
        prop_assert!(a.coverage_pct() >= 95.0);
        let span_exec: u64 = served.iter().map(|s| {
            let (b, e) = s.exec.unwrap();
            e - b
        }).sum();
        prop_assert_eq!(a.total_exec_cycles(), span_exec);
    }

    /// Determinism: two runs of the same seed export byte-identical
    /// Chrome trace documents.
    #[test]
    fn same_seed_runs_export_identical_bytes(seed in any::<u64>()) {
        let (_, log1) = traced_session(seed);
        let (_, log2) = traced_session(seed);
        prop_assert_eq!(chrome_trace(&log1), chrome_trace(&log2));
    }
}
