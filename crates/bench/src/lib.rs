//! # dsra-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §4 for the experiment
//! index) plus Criterion micro-benchmarks. Shared workload builders live
//! here so binaries and benches measure the same things.
//!
//! ## Quick tour
//!
//! ```
//! use dsra_bench::shifted_planes;
//! use dsra_me::{full_search, SearchParams};
//!
//! // The standard ME workload: hash-noise planes with a known shift…
//! let (cur, refp) = shifted_planes(48, 48, (2, -1));
//! // …which full search must recover exactly (SAD 0 at the true offset).
//! let m = full_search(&cur, &refp, 16, 16, &SearchParams { block: 8, range: 3 });
//! assert_eq!(m.mv, (2, -1));
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod diff;
pub mod discharge;
pub mod json;
pub mod profpost;
pub mod stream;
pub mod tracepost;

/// Fixed-bucket latency histogram — lives in `dsra-trace` now (the
/// metrics registry embeds it) but keeps its historical
/// `dsra_bench::hist` path for every existing caller.
pub use dsra_trace::hist;

use dsra_core::netlist::Netlist;
use dsra_me::Plane;
use dsra_service::{standard_tenants, TraceConfig};
use dsra_sim::{Activity, Simulator};

pub use chaos::chaos_metrics;
pub use cli::{bad_value, gate, or_exit, out, outln, write_file, Args};
pub use diff::{diff_documents, DiffReport, KeyClass};
pub use discharge::{discharge_battery, discharge_runtime, DischargeOutcome};
pub use hist::Histogram;
pub use json::{parse_json, Json};
pub use profpost::{install_profiler, runtime_flame, runtime_profile_report, write_profile};
pub use stream::{latency_histogram, monitor_metrics, shed_wait_histogram, stream_metrics};
pub use tracepost::{
    analyze_chrome_trace, events_from_chrome, install_trace, slo_config_from_meta, slo_replay,
    write_chrome_trace, TraceAnalysis,
};

/// Deterministic hash-noise planes with a known shift (no displacement
/// aliasing) — the standard ME workload.
pub fn shifted_planes(w: usize, h: usize, shift: (i32, i32)) -> (Plane, Plane) {
    let pat = |x: i64, y: i64| -> u8 {
        let h = (x.wrapping_mul(0x9E37_79B9) ^ y.wrapping_mul(0x85EB_CA6B)) as u64;
        ((h ^ (h >> 13)) & 0xFF) as u8
    };
    let mut refd = Vec::with_capacity(w * h);
    let mut curd = Vec::with_capacity(w * h);
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            refd.push(pat(x, y));
            curd.push(pat(x + i64::from(shift.0), y + i64::from(shift.1)));
        }
    }
    (Plane::new(w, h, curd), Plane::new(w, h, refd))
}

/// Representative switching activity for the 2-D systolic ME array.
pub fn me_activity(nl: &Netlist, cycles: u64) -> Activity {
    let mut sim = Simulator::recording(nl).expect("valid ME netlist");
    let cols = nl
        .input_nodes()
        .into_iter()
        .filter(|id| nl.node(*id).name.starts_with("cur"))
        .count() as u64;
    for c in 0..cycles {
        for j in 0..cols {
            let _ = sim.set(&format!("cur{j}"), (c * 31 + j * 7) % 256);
            let _ = sim.set(&format!("ref{j}"), (c * 17 + j * 13) % 256);
        }
        for m in 0..4 {
            let _ = sim.set(&format!("men{m}"), 1);
        }
        sim.step();
    }
    sim.activity().clone()
}

/// Representative switching activity for a DA/DCT netlist (generic control
/// duty cycle; 12-bit random-ish samples).
pub fn da_activity(nl: &Netlist, cycles: u64) -> Activity {
    let mut sim = Simulator::recording(nl).expect("valid DA netlist");
    let inputs: Vec<String> = nl
        .input_nodes()
        .into_iter()
        .map(|id| nl.node(id).name.clone())
        .collect();
    for c in 0..cycles {
        for (i, name) in inputs.iter().enumerate() {
            let v = if name.starts_with("ctl_") {
                u64::from((c + i as u64).is_multiple_of(14))
            } else {
                (c * 97 + i as u64 * 55) % 4096
            };
            let _ = sim.set(name, v);
        }
        sim.step();
    }
    sim.activity().clone()
}

/// Prints a header line for experiment binaries.
pub fn banner(experiment: &str, artifact: &str) {
    outln("==============================================================");
    outln(format!("{experiment} — reproduces {artifact}"));
    outln("==============================================================");
}

/// A metric value in a machine-readable benchmark summary.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Integer metric.
    Int(u64),
    /// Floating-point metric (serialised with 6 decimals, deterministic).
    Num(f64),
    /// String metric.
    Str(String),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Int(v) => v.to_string(),
            // JSON has no inf/NaN literals (e.g. PSNR of a lossless frame
            // is +inf); null keeps the file parseable.
            JsonValue::Num(v) if !v.is_finite() => "null".to_owned(),
            JsonValue::Num(v) => format!("{v:.6}"),
            JsonValue::Str(v) => format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// One entry of a flat metric vec; the value's type picks its
/// [`JsonValue`] variant.
pub fn metric(key: impl Into<String>, value: impl Into<JsonValue>) -> (String, JsonValue) {
    (key.into(), value.into())
}

/// Renders a flat `{"experiment": .., "metrics": {..}}` JSON summary —
/// the `BENCH_<experiment>.json` payload every experiment binary can emit
/// with `--json`, so the perf trajectory is machine-readable. Keys may be
/// `&str` or `String`.
pub fn json_summary<K: AsRef<str>>(experiment: &str, metrics: &[(K, JsonValue)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
    s.push_str("  \"metrics\": {\n");
    for (i, (key, value)) in metrics.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {}{}\n",
            key.as_ref(),
            value.render(),
            if i + 1 == metrics.len() { "" } else { "," }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Largest `--da` / `--me` pool a serving binary accepts: batch serving
/// runs one OS thread per array.
pub const MAX_ARRAYS: u64 = 64;

/// Largest `--jobs` / `--chunk` job count a serving binary accepts; the
/// whole job list is generated up front.
pub const MAX_JOBS: u64 = 1_000_000;

/// Longest `--duration` (virtual µs) a streaming binary accepts; the whole
/// request trace is generated up front.
pub const MAX_DURATION_US: u64 = 1_000_000;

/// The standard tenant trace a streaming binary serves: `tenants` tenants
/// offering ~`rate_per_ms` requests per virtual ms in aggregate over
/// `duration_us`, each tenant's mean gap `tenants × 1000 / rate` µs
/// (at least 1; background tenants arrive at half that rate).
///
/// The whole trace is generated up front, so a request count past
/// [`MAX_JOBS`] goes to [`bad_value`] before any of it is built. The
/// count checked is the expected one, summed over the tenants: at mean
/// gap `m`, [`dsra_video::sample_gap`] averages `m·7/8 + ⌊m/2⌋·3/8` µs,
/// so a tenant offers `8·duration ÷ (7m + 3⌊m/2⌋)` requests on average
/// (8/7 of `duration ÷ m` at a 1 µs gap); bursts move the generated
/// count around it.
pub fn tenant_trace(tenants: u16, duration_us: u64, rate_per_ms: u64, seed: u64) -> TraceConfig {
    let mean_gap_us = (u64::from(tenants).max(1) * 1000 / rate_per_ms.max(1)).max(1);
    let tenants = standard_tenants(tenants, mean_gap_us);
    let expected: u128 = tenants
        .iter()
        .map(|t| {
            let m = u128::from(t.mean_gap_us.max(1));
            u128::from(duration_us) * 8 / (7 * m + 3 * (m / 2))
        })
        .sum();
    if expected > u128::from(MAX_JOBS) {
        bad_value(
            &format!("--tenants/--duration/--rate (at most {MAX_JOBS} requests)"),
            &format!(
                "{} tenants over {duration_us} µs at {rate_per_ms} req/ms would offer \
                 ~{expected} requests",
                tenants.len()
            ),
        );
    }
    TraceConfig {
        tenants,
        duration_us,
        seed,
    }
}

/// Writes a [`json_summary`] to `BENCH_<tag>.json` in the working directory
/// and prints where it went.
pub fn write_json_summary<K: AsRef<str>>(tag: &str, experiment: &str, metrics: &[(K, JsonValue)]) {
    write_file(
        &format!("BENCH_{tag}.json"),
        json_summary(experiment, metrics),
    );
}

/// Folds a flat metric vec (the same one [`json_summary`] renders) into a
/// [`dsra_trace::MetricsRegistry`]: integers become counters, floats
/// become gauges, strings (digests, logs) are skipped. The registry's
/// `render_prometheus` then gives every experiment binary a
/// text-exposition dump (`--metrics <file>`) without a second metric
/// definition to drift.
pub fn registry_from_metrics<K: AsRef<str>>(
    metrics: &[(K, JsonValue)],
) -> dsra_trace::MetricsRegistry {
    let mut reg = dsra_trace::MetricsRegistry::new();
    for (key, value) in metrics {
        match value {
            JsonValue::Int(v) => reg.count(key.as_ref(), *v),
            JsonValue::Num(v) => reg.set_gauge(key.as_ref(), *v),
            JsonValue::Str(_) => {}
        }
    }
    reg
}

/// Writes `render_prometheus("dsra")` of the metric vec to `path`, a
/// `--metrics <file>` value, when one was given.
pub fn write_metrics<K: AsRef<str>>(path: Option<&str>, metrics: &[(K, JsonValue)]) {
    if let Some(path) = path {
        write_file(
            path,
            registry_from_metrics(metrics).render_prometheus("dsra"),
        );
    }
}
