//! E13 metric assembly: one definition of the `BENCH_stream.json`
//! payload, shared by the `stream_serve` binary, the JSON-contract test
//! and the tier-1 integration gate (`tests/stream_serve.rs`) — so the
//! artifact, its schema test and the acceptance gate cannot drift apart.

use dsra_monitor::AlertLog;
use dsra_service::ServiceReport;
use dsra_trace::HealthSnapshot;

use crate::hist::Histogram;
use crate::{metric, JsonValue};

/// Bucket width of the serve-latency histogram (virtual µs).
pub const LATENCY_BUCKET_US: u64 = 25;
/// Bucket count (values beyond ~51 ms land in the overflow bucket).
pub const LATENCY_BUCKETS: usize = 2048;

/// Folds a session's served latencies into the standard E13 histogram.
pub fn latency_histogram(report: &ServiceReport) -> Histogram {
    let mut h = Histogram::new(LATENCY_BUCKET_US, LATENCY_BUCKETS);
    h.record_all(report.sorted_latencies_us());
    h
}

/// Folds the queue residencies of the shed requests into the same
/// fixed-bucket histogram — `shed_wait_p99` says how long requests sat
/// queued before the policy gave up on them.
pub fn shed_wait_histogram(report: &ServiceReport) -> Histogram {
    let mut h = Histogram::new(LATENCY_BUCKET_US, LATENCY_BUCKETS);
    h.record_all(report.sorted_shed_waits_us());
    h
}

/// The per-policy metric block of `BENCH_stream.json`, keys prefixed
/// with the policy tag (`fifo_…` / `edf_shed_…`).
pub fn stream_metrics(report: &ServiceReport) -> Vec<(String, JsonValue)> {
    let tag = report.policy.replace('-', "_");
    let h = latency_histogram(report);
    let sw = shed_wait_histogram(report);
    vec![
        metric(format!("{tag}_requests"), report.requests as u64),
        metric(format!("{tag}_served"), report.served as u64),
        metric(format!("{tag}_shed"), report.shed as u64),
        metric(format!("{tag}_violations"), report.violations as u64),
        metric(format!("{tag}_p50_latency_us"), h.p50()),
        metric(format!("{tag}_p90_latency_us"), h.p90()),
        metric(format!("{tag}_p99_latency_us"), h.p99()),
        metric(format!("{tag}_max_latency_us"), h.max()),
        metric(format!("{tag}_shed_wait_p99_us"), sw.p99()),
        metric(format!("{tag}_violation_pct"), report.violation_pct()),
        metric(format!("{tag}_shed_pct"), report.shed_pct()),
        metric(format!("{tag}_goodput_pct"), report.goodput_pct()),
        metric(format!("{tag}_energy_j"), report.pool.total_j()),
        metric(
            format!("{tag}_joules_per_served"),
            report.joules_per_served(),
        ),
        metric(format!("{tag}_gate_events"), report.gate_events() as u64),
        metric(format!("{tag}_wakes"), report.wakes() as u64),
        metric(
            format!("{tag}_digest"),
            format!("{:#018x}", report.digest()),
        ),
    ]
}

/// The monitor metric block of `BENCH_stream.json` (present only under
/// `--monitor`): window/alert totals from the final [`HealthSnapshot`]
/// plus the [`AlertLog`] folded to its digest and compact form — enough
/// to pin same-seed byte-identical alerting without growing the file
/// with the full log.
pub fn monitor_metrics(health: &HealthSnapshot, log: &AlertLog) -> Vec<(String, JsonValue)> {
    vec![
        metric("monitor_windows_sealed", health.windows_sealed),
        metric("monitor_alerts_active", u64::from(health.alerts_active)),
        metric("monitor_alert_transitions", log.len() as u64),
        metric("monitor_alert_digest", format!("{:#018x}", log.digest())),
        metric("monitor_alert_log", log.compact()),
    ]
}
