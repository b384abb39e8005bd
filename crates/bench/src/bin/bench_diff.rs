//! Compares two `BENCH_*.json` summaries key by key and exits non-zero
//! on regression — the CI step that diffs fresh runs against the
//! committed baselines, and a local tool for eyeballing a change's
//! metric impact.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin bench_diff -- \
//!     BENCH_stream.json fresh/BENCH_stream.json --threshold 0.01
//! ```
//!
//! Key classes (see `dsra_bench::diff`): `*_ms` wall-clock timings are
//! report-only; digests, strings and integer counts hard-fail on any
//! change; fractional numbers fail beyond the relative `--threshold`
//! (default 1 %); missing or extra keys always fail.

use dsra_bench::{diff_documents, out, parse_json, Args};

fn load(path: &str) -> dsra_bench::Json {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_json(&src).unwrap_or_else(|e| {
        eprintln!("{path} is not strict JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    const USAGE: &str = "bench_diff <baseline.json> <candidate.json> [--threshold f]";
    let mut args = Args::from_env();
    let (old, new) = (args.positional(USAGE), args.positional(USAGE));
    let threshold = args.num(
        "--threshold",
        0.01,
        ("a finite number, at least 0", |t| t.is_finite() && t >= 0.0),
    );
    args.finish();
    let report = diff_documents(&load(&old), &load(&new), threshold);
    out(report.render());
    if report.regressed() {
        std::process::exit(1);
    }
}
