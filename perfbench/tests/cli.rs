//! Bad invocations exit non-zero with a message and never panic, and the
//! metric lists in `BENCHMARK.json` are the ones the program prints.

use std::process::Command;

use perfbench::measure::{per_layer_metrics, END_TO_END};
use perfbench::workload::Workload;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench")
}

#[test]
fn malformed_invocations_exit_2_with_a_message() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "stream_edf", "--seed", "0xZZ"],
        &["--workload", "stream_edf", "--seed", "12.5"],
        &["--workload", "batch_mix", "--size", "0"],
        &["--workload", "batch_mix", "--size", "-3"],
        &["--workload", "batch_mix", "--size", "1e9"],
        &["--workload", "chaos_observed", "--trace", "yes"],
        &["--workload", "chaos_observed", "--seconds"],
        &["--seed", "1"],
        &[],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(stderr.starts_with("perfbench: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let compact: String = doc.split_whitespace().collect();
    let mut expected = 0;
    for (name, unit) in END_TO_END {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "end-to-end {name} [{unit}] missing"
        );
        expected += 1;
    }
    for (name, unit) in per_layer_metrics() {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "per-layer {name} [{unit}] missing"
        );
        expected += 1;
    }
    for entry in compact.split("{\"name\":\"").skip(1) {
        if let Some((name, _)) = entry.split_once("\",\"why\"") {
            assert!(
                Workload::from_name(name).is_some(),
                "unknown workload {name}"
            );
            expected += 1;
        }
    }
    assert_eq!(compact.matches("{\"name\":").count(), expected);
}
