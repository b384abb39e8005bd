//! E16 — attribution profiling of the streaming SoC (DESIGN.md §14): the
//! E13 multi-tenant stream replayed with the cycle-exact profiler teed
//! into the trace seam, emitting the per-kernel / per-op / per-array
//! attribution table, `BENCH_profile.json`, and (on request) the
//! collapsed-stack flamegraph and occupancy timeline.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin profile_serve
//! cargo run -p dsra-bench --release --bin profile_serve -- \
//!     --tenants 4 --duration 20000 --rate 900 --da 2 --me 2 \
//!     --seed 0x57EA4AED --json --profile-out profile.folded \
//!     --timeline occupancy.trace.json
//! ```
//!
//! Two gates run on every invocation: the op rollup must account for at
//! least 99 % of pool busy cycles (the largest-remainder split makes it
//! exactly 100 % when every kernel has a mix), and the profiler's
//! per-kernel joules must reconcile with the service report's per-request
//! energy attribution to within 1 nJ. Output is byte-identical across
//! runs with the same arguments — the profiler observes the same
//! virtual-time event stream that makes the serve itself deterministic.

use dsra_bench::{
    arg_value, banner, gate, install_profiler, json_flag, latency_histogram, or_exit, parse_int,
    parse_u64, runtime_profile_report, tenant_trace, write_chrome_trace, write_file, write_flame,
    write_json_summary, write_metrics_arg, JsonValue, MAX_ARRAYS, MAX_DURATION_US,
};
use dsra_profile::{flamegraph, utilization_tracks};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{serve_trace, AdmitPolicy, ServiceConfig};
use dsra_trace::{counter_tracks_doc, EventLog};

fn main() {
    let tenants: u16 = parse_int("--tenants", 4, u16::MAX.into());
    let duration_us = parse_int("--duration", 20_000, MAX_DURATION_US);
    let rate_per_ms = parse_u64("--rate", 900).max(1);
    let da: usize = parse_int("--da", 2, MAX_ARRAYS);
    let me: usize = parse_int("--me", 2, MAX_ARRAYS);
    let seed = parse_u64("--seed", 0x57EA_4AED);
    let top_k: usize = parse_int("--top", 8, u64::MAX);
    banner(
        "E16",
        "cycle-exact attribution: where the stream's cycles and joules went",
    );
    println!(
        "{tenants} tenants, {duration_us} µs trace, ~{rate_per_ms} req/ms offered, \
         pool {da} DA + {me} ME, seed {seed:#x}\n"
    );

    let trace = tenant_trace(tenants, duration_us, rate_per_ms, seed);
    let mut runtime = SocRuntime::new(RuntimeConfig {
        da_arrays: da,
        me_arrays: me,
        ..Default::default()
    })
    .expect("runtime construction");
    // `--trace <file>` still records the raw event stream: the profiler
    // tee wraps the recorder, so both artifacts come from one session.
    let trace_path = arg_value("--trace");
    if trace_path.is_some() {
        runtime.set_trace_sink(Box::new(EventLog::new()));
    }
    let handle = install_profiler(&mut runtime);

    let report = or_exit(
        "streaming session",
        serve_trace(
            &mut runtime,
            &trace,
            &ServiceConfig {
                policy: AdmitPolicy::EdfShed,
                ..Default::default()
            },
        ),
    );
    print!("{}", report.render());
    let h = latency_histogram(&report);
    println!(
        "serve latency      : p50 {} µs, p90 {} µs, p99 {} µs, max {} µs\n",
        h.p50(),
        h.p90(),
        h.p99(),
        h.max()
    );

    let prof = runtime_profile_report(&runtime, &handle);
    print!("{}", prof.render(top_k));
    println!("profile digest     : {:#018x}", prof.digest());

    // Gate 1 — the op rollup accounts for (essentially) every busy cycle.
    gate(
        prof.attribution_pct() >= 99.0,
        &format!(
            "E16 gate: op attribution covers {:.3} % of busy cycles (< 99 %)",
            prof.attribution_pct()
        ),
    );
    // Gate 2 — per-kernel joules reconcile with the service report's
    // per-request energy attribution to the joule. Both sides sum the
    // same per-job breakdowns, just in different orders, so the only
    // slack is f64 summation order (observed ~1e-4 J at 1e10 J scale).
    let served_energy_j: f64 = report.outcomes.iter().map(|o| o.energy_j).sum();
    let energy_err_j = (prof.total_energy_j - served_energy_j).abs();
    println!(
        "energy reconciliation: profiler {:.9} eu vs outcomes {:.9} eu (|err| {:.3e} eu)\n",
        prof.total_energy_j, served_energy_j, energy_err_j
    );
    gate(
        energy_err_j < 1.0,
        &format!(
            "E16 gate: kernel energy accounts diverge from request outcomes by \
             {energy_err_j:.3e} eu"
        ),
    );

    // `--profile-out <file>`: the collapsed-stack flamegraph.
    if let Some(path) = arg_value("--profile-out") {
        let mixes = runtime.kernel_op_mixes();
        let flame = handle.with(|p| flamegraph(p, &mixes));
        write_flame(&flame, &path);
    }
    // `--timeline <file>`: per-array occupancy as Chrome counter tracks.
    if let Some(path) = arg_value("--timeline") {
        let window = parse_u64("--timeline-window", 2_500).max(1);
        let tracks = handle.with(|p| utilization_tracks(p, window));
        write_file(&path, counter_tracks_doc(&tracks));
        println!("wrote {path}");
    }
    if let Some(path) = &trace_path {
        write_chrome_trace(&mut runtime, path);
    }

    let mut metrics: Vec<(String, JsonValue)> = vec![
        ("tenants".into(), JsonValue::Int(u64::from(tenants))),
        ("duration_us".into(), JsonValue::Int(duration_us)),
        ("rate_per_ms".into(), JsonValue::Int(rate_per_ms)),
        ("served".into(), JsonValue::Int(report.served as u64)),
        ("shed".into(), JsonValue::Int(report.shed as u64)),
        ("busy_cycles".into(), JsonValue::Int(prof.busy_cycles)),
        (
            "attributed_cycles".into(),
            JsonValue::Int(prof.attributed_cycles),
        ),
        (
            "attribution_pct".into(),
            JsonValue::Num(prof.attribution_pct()),
        ),
        (
            "unrouted_cycles".into(),
            JsonValue::Int(prof.unrouted_cycles),
        ),
        (
            "profiled_energy_j".into(),
            JsonValue::Num(prof.total_energy_j),
        ),
        ("served_energy_j".into(), JsonValue::Num(served_energy_j)),
        (
            "mean_utilization_pct".into(),
            JsonValue::Num(prof.mean_utilization_pct()),
        ),
        (
            "profile_digest".into(),
            JsonValue::Str(format!("{:#018x}", prof.digest())),
        ),
    ];
    for (array, p) in &prof.arrays {
        metrics.push((
            format!("array{array}_utilization_pct"),
            JsonValue::Num(p.utilization_pct()),
        ));
    }
    for (i, k) in prof.kernels.iter().take(top_k).enumerate() {
        metrics.push((format!("kernel{i}_name"), JsonValue::Str(k.kernel.clone())));
        metrics.push((
            format!("kernel{i}_exec_cycles"),
            JsonValue::Int(k.exec_cycles),
        ));
        metrics.push((format!("kernel{i}_energy_j"), JsonValue::Num(k.energy_j())));
    }
    for op in prof.hot_ops.iter().take(top_k) {
        metrics.push((
            format!("op_{}_cycles", op.class.tag()),
            JsonValue::Int(op.cycles),
        ));
    }
    if json_flag() {
        write_json_summary("profile", "E16", &metrics);
    }
    write_metrics_arg(&metrics);
}
