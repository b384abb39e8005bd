//! Keeps the documentation honest: exercises README.md's quickstart path
//! end-to-end and checks that cross-file references (the DESIGN.md §4
//! experiment index, the binaries README names) actually exist.

use std::path::Path;

use dsra::core::{place, route, Bitstream};
use dsra::dct::{BasicDa, DaParams, DctImpl};

/// The exact code shown in README.md "Quickstart".
#[test]
fn readme_quickstart() -> Result<(), dsra::core::CoreError> {
    let dct = BasicDa::new(DaParams::precise())?;
    let coeffs = dct.transform(&[100, 50, -25, 0, 10, -60, 30, 5])?;

    let reference = dsra::dct::reference::dct_1d_int(&[100, 50, -25, 0, 10, -60, 30, 5]);
    assert!((coeffs[0] - reference[0]).abs() < 1.0);
    Ok(())
}

/// The pipeline DESIGN.md §1 describes — netlist → place → route →
/// bitstream — works end-to-end on a real kernel mapping.
#[test]
fn design_overview_pipeline() -> Result<(), dsra::core::CoreError> {
    let imp = BasicDa::new(DaParams::precise())?;
    let fabric = dsra::core::Fabric::da_array(16, 12, dsra::core::MeshSpec::mixed());
    let placement = place(imp.netlist(), &fabric)?;
    let routing = route(imp.netlist(), &fabric, &placement)?;
    let bits = Bitstream::generate(imp.netlist(), &fabric, &placement, &routing);
    assert!(bits.total_bits() > 0);
    Ok(())
}

/// Every experiment binary README's index names must exist, and the
/// DESIGN.md section that `dsra-bench` docs cite must be present.
#[test]
fn experiment_index_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md exists");

    assert!(
        design.contains("## 4. Experiment index"),
        "DESIGN.md must keep the §4 experiment index crates/bench cites"
    );
    assert!(
        design.contains("## 6. Runtime layer"),
        "DESIGN.md must document the dsra-runtime layer (§6)"
    );
    assert!(
        design.contains("## 7. Power model"),
        "DESIGN.md must document the dsra-power subsystem (§7)"
    );
    assert!(
        design.contains("## 8. Performance engineering"),
        "DESIGN.md must document the hot-path engineering (§8)"
    );
    for anchor in ["ExecPlan", "diff_bits_map", "DiffMatrix", "planning_ms"] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §8 must cover `{anchor}`"
        );
    }
    assert!(
        design.contains("## 9. Streaming service layer"),
        "DESIGN.md must document the dsra-service layer (§9)"
    );
    for anchor in [
        "AdmissionQueue",
        "EdfShed",
        "stream_serve_job",
        "gate_idle_us",
        "wake_backlog",
        "sample_payload",
        "p50_cycles",
        "BENCH_stream.json",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §9 must cover `{anchor}`"
        );
    }
    assert!(
        design.contains("## 10. Backend contract"),
        "DESIGN.md must document the dsra-backend contract (§10)"
    );
    assert!(
        design.contains("## 11. Observability"),
        "DESIGN.md must document the dsra-trace layer (§11)"
    );
    for anchor in [
        "TraceSink",
        "NoopSink",
        "EventLog",
        "ArrayInterval",
        "EnergyBreakdown",
        "chrome_trace",
        "MetricsRegistry",
        "shed_wait_p99_us",
        "--trace <file>",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §11 must cover `{anchor}`"
        );
    }
    assert!(
        design.contains("## 12. Online monitoring"),
        "DESIGN.md must document the dsra-monitor layer (§12)"
    );
    for anchor in [
        "MonitorSink",
        "HealthSnapshot",
        "BurnRateConfig",
        "seal_grace_cycles",
        "AlertLog",
        "MonitorAwareAdmission",
        "monitor_replay.rs",
        "trace_report --slo",
        "--metrics <file>",
        "render_prometheus",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §12 must cover `{anchor}`"
        );
    }
    for anchor in ["--monitor", "--metrics <file>", "--slo", "monitor-shed"] {
        assert!(
            readme.contains(anchor),
            "README must document the monitor surface `{anchor}`"
        );
    }
    assert!(
        design.contains("## 13. Chaos engineering"),
        "DESIGN.md must document the dsra-chaos layer (§13)"
    );
    for anchor in [
        "FaultPlan",
        "install_chaos",
        "ChaosBackend",
        "DispatchHook",
        "spot_check_every",
        "Divergence",
        "stream_serve_job_excluding",
        "stream_quarantine",
        "stream_restore",
        "FaultInjected",
        "ArrayQuarantine",
        "useful goodput",
        "BENCH_chaos.json",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §13 must cover `{anchor}`"
        );
    }
    for anchor in ["BENCH_chaos.json", "quarantine"] {
        assert!(
            readme.contains(anchor),
            "README must document the chaos surface `{anchor}`"
        );
    }
    assert!(
        design.contains("## 14. Profiling & attribution"),
        "DESIGN.md must document the dsra-profile layer (§14)"
    );
    for anchor in [
        "ProfSink",
        "OpMix",
        "op_mix",
        "ProfileSink",
        "kernel_op_mixes",
        "unrouted_cycles",
        "flamegraph",
        "utilization_tracks",
        "profile_neutrality.rs",
        "BENCH_profile.json",
        "--profile-out <file>",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §14 must cover `{anchor}`"
        );
    }
    for anchor in ["BENCH_profile.json", "--profile-out <file>", "flamegraph"] {
        assert!(
            readme.contains(anchor),
            "README must document the profiling surface `{anchor}`"
        );
    }
    for anchor in [
        "ArrayBackend",
        "GoldenBackend",
        "CheckBackend",
        "ExecOutcome",
        "run_payload",
        "--backend check",
        "golden_me_search",
    ] {
        assert!(
            design.contains(anchor),
            "DESIGN.md §10 must cover `{anchor}`"
        );
    }
    assert!(
        readme.contains("## Performance"),
        "README must keep the performance table"
    );
    assert!(
        readme.contains("--bench hotpath"),
        "README must point at the hot-path bench CI runs"
    );
    let hotpath = root.join("crates/bench/benches/hotpath.rs");
    assert!(hotpath.is_file(), "hot-path bench must exist");
    assert!(
        readme.contains("`dsra-runtime`"),
        "README crate map must list dsra-runtime"
    );
    assert!(
        readme.contains("`dsra-power`"),
        "README crate map must list dsra-power"
    );
    assert!(
        readme.contains("`dsra-service`"),
        "README crate map must list dsra-service"
    );
    assert!(
        readme.contains("`dsra-backend`"),
        "README crate map must list dsra-backend"
    );
    assert!(
        readme.contains("`dsra-trace`"),
        "README crate map must list dsra-trace"
    );
    assert!(
        readme.contains("`dsra-monitor`"),
        "README crate map must list dsra-monitor"
    );
    assert!(
        readme.contains("`dsra-chaos`"),
        "README crate map must list dsra-chaos"
    );
    assert!(
        readme.contains("`dsra-profile`"),
        "README crate map must list dsra-profile"
    );

    for bin in [
        "table1",
        "dct_accuracy",
        "me_systolic",
        "fpga_compare",
        "mesh_ablation",
        "dynamic_switch",
        "dct_energy",
        "pipeline",
        "soc_serve",
        "battery_serve",
        "stream_serve",
        "chaos_serve",
        "profile_serve",
        "trace_report",
        "bench_diff",
    ] {
        let path = root.join(format!("crates/bench/src/bin/{bin}.rs"));
        assert!(path.is_file(), "README indexes missing binary {bin}");
        assert!(
            readme.contains(&format!("`{bin}`")),
            "README experiment index must mention {bin}"
        );
        assert!(
            design.contains(&format!("`{bin}`")),
            "DESIGN.md §4 must mention {bin}"
        );
    }

    for example in [
        "quickstart",
        "explore_dct_space",
        "motion_search",
        "video_pipeline",
        "dynamic_reconfig",
    ] {
        let path = root.join(format!("examples/{example}.rs"));
        assert!(path.is_file(), "README lists missing example {example}");
    }
}
