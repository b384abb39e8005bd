//! A malformed flag value ends an experiment binary with a message and
//! exit status 2, never with a panic.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &["a.json", "b.json", "--threshold", "x"][..],
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
