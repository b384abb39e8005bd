//! E15 metric assembly: one definition of the `BENCH_chaos.json`
//! payload, shared by the `chaos_serve` binary, the JSON-contract test
//! and the tier-1 integration gate (`tests/chaos_serve.rs`) — so the
//! artifact, its schema test and the acceptance gate cannot drift apart.

use dsra_chaos::ChaosReport;

use crate::stream::latency_histogram;
use crate::{metric, JsonValue};

/// The per-arm metric block of `BENCH_chaos.json`, keys prefixed with
/// the arm tag (`recovery_…` / `oblivious_…`): the dispatch totals, the
/// tail, the injection/recovery tallies, the corruption ground truth and
/// the corruption-aware goodput the E15 gate compares on.
pub fn chaos_metrics(report: &ChaosReport, tag: &str) -> Vec<(String, JsonValue)> {
    let s = &report.service;
    let h = latency_histogram(s);
    vec![
        metric(format!("{tag}_requests"), s.requests as u64),
        metric(format!("{tag}_served"), s.served as u64),
        metric(format!("{tag}_shed"), s.shed as u64),
        metric(format!("{tag}_failed"), s.failed as u64),
        metric(format!("{tag}_violations"), s.violations as u64),
        metric(format!("{tag}_p50_latency_us"), h.p50()),
        metric(format!("{tag}_p99_latency_us"), h.p99()),
        metric(format!("{tag}_goodput_pct"), s.goodput_pct()),
        metric(
            format!("{tag}_useful_goodput_pct"),
            report.useful_goodput_pct(),
        ),
        metric(
            format!("{tag}_corrupt_served"),
            report.corrupt_served as u64,
        ),
        metric(format!("{tag}_corrupt_execs"), report.corrupt_execs),
        metric(format!("{tag}_total_execs"), report.total_execs),
        metric(
            format!("{tag}_faults_injected"),
            report.counts.faults_injected,
        ),
        metric(format!("{tag}_divergences"), report.counts.divergences),
        metric(format!("{tag}_retries"), report.counts.retries),
        metric(format!("{tag}_quarantines"), report.counts.quarantines),
        metric(format!("{tag}_restores"), report.counts.restores),
        metric(
            format!("{tag}_digest"),
            format!("{:#018x}", report.digest()),
        ),
    ]
}
