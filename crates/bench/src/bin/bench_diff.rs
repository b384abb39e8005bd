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

use dsra_bench::{arg_value, bad_value, diff_documents, parse_f64, parse_json};

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
    let args: Vec<String> = std::env::args().collect();
    let (old, new) = match (args.get(1), args.get(2)) {
        (Some(a), Some(b)) if !a.starts_with("--") && !b.starts_with("--") => (a, b),
        _ => {
            eprintln!("usage: bench_diff <baseline.json> <candidate.json> [--threshold f]");
            std::process::exit(2);
        }
    };
    let threshold = parse_f64("--threshold", 0.01);
    if !(threshold.is_finite() && threshold >= 0.0) {
        bad_value(
            "--threshold (a finite number, at least 0)",
            &arg_value("--threshold").unwrap_or_default(),
        );
    }
    let report = diff_documents(&load(old), &load(new), threshold);
    print!("{}", report.render());
    if report.regressed() {
        std::process::exit(1);
    }
}
