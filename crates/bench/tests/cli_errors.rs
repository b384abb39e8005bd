//! A malformed command line ends an experiment binary with a message and
//! exit status 2, and a closed stdout ends it with status 141; never with
//! a panic.

use std::process::{Command, Stdio};

/// A committed benchmark summary: a well-formed document to diff against
/// itself.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");

/// One tenant, a 1 µs mean gap, the longest duration (`--da 0` fails the
/// serve fast should the trace ever be built).
const ONE_TENANT_AT_1US: &[&str] = &[
    "--tenants",
    "1",
    "--duration",
    "1000000",
    "--rate",
    "1000",
    "--da",
    "0",
];

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &["a.json", "b.json", "--threshold", "x"][..],
            "--threshold",
        ),
        // A threshold no difference can exceed (NaN) or that an identical
        // pair exceeds (negative), on a document diffed against itself.
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &[BASELINE, BASELINE, "--threshold", "nan"],
            "--threshold",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &[BASELINE, BASELINE, "--threshold", "-1"],
            "--threshold",
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "abc"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--backend", "fpga"],
            "--backend",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--chunk", "0x1FFFFFFFF"],
            "--chunk",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--policy", "lifo"],
            "--policy",
        ),
        (
            env!("CARGO_BIN_EXE_trace_report"),
            &["no-such-trace.json", "--top", "-1"],
            "--top",
        ),
        // Values past the type: once truncated to 2 jobs and 1 tenant.
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "4294967298"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--tenants", "65537", "--duration", "100"],
            "--tenants",
        ),
        // One value just past each bound. `--da 0` makes the run fail
        // fast should the bound ever stop being checked before the
        // runtime is built, and then the message names the pool instead.
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "1000001", "--da", "0"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--da", "65", "--me", "0"],
            "--da",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--me", "65", "--da", "0", "--duration", "100"],
            "--me",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--duration", "1000001", "--da", "0"],
            "--duration",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--chunk", "1000001", "--da", "0"],
            "--chunk",
        ),
        // A battery charge must be a finite number above zero.
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--capacity", "-1", "--chunk", "5"],
            "--capacity",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--capacity", "nan", "--chunk", "5"],
            "--capacity",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--capacity", "0", "--chunk", "5"],
            "--capacity",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--capacity", "inf", "--chunk", "5"],
            "--capacity",
        ),
        // A generated trace just past `MAX_JOBS` nominal requests: two
        // tenants at a 1 µs mean gap offer 2 × 500 001.
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &[
                "--tenants",
                "2",
                "--duration",
                "500001",
                "--rate",
                "2000",
                "--da",
                "0",
            ],
            "--tenants/--duration/--rate",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            &[
                "--tenants",
                "2",
                "--duration",
                "500001",
                "--rate",
                "2000",
                "--da",
                "0",
            ],
            "--tenants/--duration/--rate",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &[
                "--tenants",
                "2",
                "--duration",
                "500001",
                "--rate",
                "2000",
                "--da",
                "0",
            ],
            "--tenants/--duration/--rate",
        ),
        // One tenant at a 1 µs mean gap over 1 000 000 µs: exactly
        // `MAX_JOBS` nominal requests, but `sample_gap` averages 7/8 µs
        // there, so the trace would hold ~1 142 857.
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            ONE_TENANT_AT_1US,
            "--tenants/--duration/--rate",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            ONE_TENANT_AT_1US,
            "--tenants/--duration/--rate",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            ONE_TENANT_AT_1US,
            "--tenants/--duration/--rate",
        ),
        // Degenerate values once clamped to 1 or served as an empty run.
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--rate", "0"],
            "--rate (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            &["--rate", "0"],
            "--rate (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--rate", "0"],
            "--rate (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--timeline", "t.json", "--timeline-window", "0"],
            "--timeline-window (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--chunk", "0"],
            "--chunk (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--max-serves", "0"],
            "--max-serves (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--tenants", "0"],
            "--tenants (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            &["--tenants", "0"],
            "--tenants (at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--tenants", "0"],
            "--tenants (at least 1)",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("bad value for {flag}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn failed_serves_exit_2_naming_the_runtime_error() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "20", "--da", "0", "--me", "1"][..],
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--da", "0", "--duration", "200"],
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            &["--da", "0", "--duration", "200"],
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--da", "0", "--chunk", "5"],
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--da", "0", "--duration", "200"],
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("failed: ")
                && stderr.contains("needs a DA array but the pool has none"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

/// A charge too small to serve any job misses the E12 gate for every
/// policy alike: the binary names the gate and both counts, and exits
/// non-zero without a panic.
#[test]
fn missed_e12_gate_exits_1_with_both_job_counts() {
    let out = Command::new(env!("CARGO_BIN_EXE_battery_serve"))
        .args(["--capacity", "1e3", "--chunk", "5"])
        .output()
        .expect("spawn battery_serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("E12 gate missed") && stderr.contains("(energy-aware 0, naive 0)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// One DA and one ME array under the default load: a faulted array has no
/// healthy peer to retry on, so recovery's failed retries crowd the queue
/// and its useful goodput falls just below oblivious serving's. E15's gate
/// is missed; the binary names it and exits 1 without a panic.
#[test]
fn missed_e15_gate_exits_1_naming_the_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_serve"))
        .args([
            "--duration",
            "3000",
            "--seed",
            "3",
            "--da",
            "1",
            "--me",
            "1",
        ])
        .output()
        .expect("spawn chaos_serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("E15 gate"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Every artifact a serving binary writes to a path from its flags: a path
/// under a missing directory exits 2 naming the path, never a panic.
#[test]
fn unwritable_output_paths_exit_2_naming_the_path() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-directory")
        .join("out.txt");
    let path = path.to_str().expect("utf-8 temp path");
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "20", "--trace"][..],
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "20", "--profile-out"],
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--duration", "200", "--metrics"],
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--duration", "200", "--timeline"],
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--duration", "200", "--profile-out"],
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .arg(path)
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("write {path} failed")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn unreadable_trace_exits_2_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("no-such-trace.json")
        .output()
        .expect("spawn trace_report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("cannot read no-such-trace.json"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn far_future_slo_replay_exits_2_naming_the_cycle() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("far_future_trace.json");
    std::fs::write(
        &path,
        r#"{"traceEvents": [
            {"name": "exec", "ph": "X", "ts": 0, "dur": 9223372036854775808, "pid": 0, "tid": 0, "args": {}},
            {"name": "exec", "ph": "X", "ts": 0, "dur": 9223372036854775808, "pid": 0, "tid": 0, "args": {}}
        ]}"#,
    )
    .expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(&path)
        .arg("--slo")
        .output()
        .expect("spawn trace_report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cycle 9223372036854775808"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Every experiment binary, each with a command line it runs to its first
/// output line with.
const BINARIES: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_table1"), &[]),
    (env!("CARGO_BIN_EXE_dct_accuracy"), &[]),
    (env!("CARGO_BIN_EXE_dct_energy"), &[]),
    (env!("CARGO_BIN_EXE_me_systolic"), &[]),
    (env!("CARGO_BIN_EXE_fpga_compare"), &[]),
    (env!("CARGO_BIN_EXE_mesh_ablation"), &[]),
    (env!("CARGO_BIN_EXE_pipeline"), &[]),
    (env!("CARGO_BIN_EXE_dynamic_switch"), &[]),
    (env!("CARGO_BIN_EXE_soc_serve"), &[]),
    (env!("CARGO_BIN_EXE_battery_serve"), &[]),
    (env!("CARGO_BIN_EXE_stream_serve"), &[]),
    (env!("CARGO_BIN_EXE_chaos_serve"), &[]),
    (env!("CARGO_BIN_EXE_profile_serve"), &[]),
    (env!("CARGO_BIN_EXE_trace_report"), &["no-such-trace.json"]),
    (env!("CARGO_BIN_EXE_bench_diff"), &[BASELINE, BASELINE]),
];

/// Runs `bin args`, expecting exit status `code`, a stderr containing
/// every one of `needles`, and no panic.
fn expect_exit(bin: &str, args: &[&str], code: i32, needles: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// An unknown flag exits 2 naming it, before anything is served.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (bin, args) in BINARIES {
        let args = [args, &["--bogus"][..]].concat();
        expect_exit(
            bin,
            &args,
            2,
            &["unexpected argument --bogus", " accepts --"],
        );
    }
}

/// A valued flag given last, with no value, exits 2 naming the flag; so do
/// a repeated flag and a stray operand.
#[test]
fn malformed_command_lines_exit_2_naming_the_token() {
    for (bin, args, needle) in [
        (
            env!("CARGO_BIN_EXE_dynamic_switch"),
            &["--profile-out"][..],
            "--profile-out needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs"],
            "--jobs needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_battery_serve"),
            &["--capacity"],
            "--capacity needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            &["--policy"],
            "--policy needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_serve"),
            &["--seed"],
            "--seed needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_profile_serve"),
            &["--timeline"],
            "--timeline needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_trace_report"),
            &["t.json", "--top"],
            "--top needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &["a", "b", "--threshold"],
            "--threshold needs a value",
        ),
        // A flag followed by another flag has no value either.
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--trace", "--json"],
            "--trace needs a value",
        ),
        // `soc_serve --jbos 5` once served the default 1 000 jobs.
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jbos", "5"],
            "unexpected argument --jbos",
        ),
        (
            env!("CARGO_BIN_EXE_soc_serve"),
            &["--jobs", "5", "--jobs", "6"],
            "--jobs given 2 times",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["extra"],
            "unexpected argument extra",
        ),
        (
            env!("CARGO_BIN_EXE_trace_report"),
            &["t.json", "extra"],
            "unexpected argument extra",
        ),
    ] {
        expect_exit(bin, args, 2, &[needle]);
    }
    expect_exit(
        env!("CARGO_BIN_EXE_trace_report"),
        &["--top", "5"],
        2,
        &["usage: trace_report <trace.json>"],
    );
}

/// A stdout whose reader is gone ends every binary at its first line with
/// status 141 (128 + SIGPIPE) and nothing on stderr: no panic, no
/// "Broken pipe" message.
#[test]
fn closed_stdout_exits_141_quietly() {
    for (bin, args) in BINARIES {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(*args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{bin} {args:?}: {stderr}");
        assert!(stderr.is_empty(), "{bin} {args:?}: {stderr}");
    }
}
