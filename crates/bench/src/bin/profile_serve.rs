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
    banner, gate, install_profiler, install_trace, latency_histogram, metric, or_exit, out, outln,
    runtime_flame, runtime_profile_report, tenant_trace, write_chrome_trace, write_file,
    write_json_summary, write_metrics, Args, JsonValue, MAX_ARRAYS, MAX_DURATION_US,
};
use dsra_profile::utilization_tracks;
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{serve_trace, AdmitPolicy, ServiceConfig};
use dsra_trace::counter_tracks_doc;

fn main() {
    let mut args = Args::from_env();
    let tenants: u16 = args.int("--tenants", 4, 1..=u16::MAX.into());
    let duration_us: u64 = args.int("--duration", 20_000, 0..=MAX_DURATION_US);
    let rate_per_ms: u64 = args.int("--rate", 900, 1..=u64::MAX);
    let da: usize = args.int("--da", 2, 0..=MAX_ARRAYS);
    let me: usize = args.int("--me", 2, 0..=MAX_ARRAYS);
    let seed: u64 = args.int("--seed", 0x57EA_4AED, 0..=u64::MAX);
    let top_k: usize = args.int("--top", 8, 0..=u64::MAX);
    let trace_path = args.value("--trace");
    let profile_out = args.value("--profile-out");
    let timeline = args.value("--timeline");
    let window: u64 = args.int("--timeline-window", 2_500, 1..=u64::MAX);
    let json = args.switch("--json");
    let metrics_out = args.value("--metrics");
    args.finish();
    let trace = tenant_trace(tenants, duration_us, rate_per_ms, seed);
    banner(
        "E16",
        "cycle-exact attribution: where the stream's cycles and joules went",
    );
    outln(format!(
        "{tenants} tenants, {duration_us} µs trace, ~{rate_per_ms} req/ms offered, \
         pool {da} DA + {me} ME, seed {seed:#x}\n"
    ));

    let mut runtime = SocRuntime::new(RuntimeConfig {
        da_arrays: da,
        me_arrays: me,
        ..Default::default()
    })
    .expect("runtime construction");
    // `--trace <file>` still records the raw event stream: the profiler
    // tee wraps the recorder, so both artifacts come from one session.
    install_trace(&mut runtime, trace_path.as_deref());
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
    out(report.render());
    let h = latency_histogram(&report);
    outln(format!(
        "serve latency      : p50 {} µs, p90 {} µs, p99 {} µs, max {} µs\n",
        h.p50(),
        h.p90(),
        h.p99(),
        h.max()
    ));

    let prof = runtime_profile_report(&runtime, &handle);
    out(prof.render(top_k));
    outln(format!("profile digest     : {:#018x}", prof.digest()));

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
    outln(format!(
        "energy reconciliation: profiler {:.9} eu vs outcomes {:.9} eu (|err| {:.3e} eu)\n",
        prof.total_energy_j, served_energy_j, energy_err_j
    ));
    gate(
        energy_err_j < 1.0,
        &format!(
            "E16 gate: kernel energy accounts diverge from request outcomes by \
             {energy_err_j:.3e} eu"
        ),
    );

    // `--profile-out <file>`: the collapsed-stack flamegraph.
    if let Some(path) = &profile_out {
        write_file(path, runtime_flame(&runtime, &handle).render());
    }
    // `--timeline <file>`: per-array occupancy as Chrome counter tracks.
    if let Some(path) = &timeline {
        let tracks = handle.with(|p| utilization_tracks(p, window));
        write_file(path, counter_tracks_doc(&tracks));
    }
    write_chrome_trace(&mut runtime, trace_path.as_deref());

    let mut metrics: Vec<(String, JsonValue)> = vec![
        metric("tenants", u64::from(tenants)),
        metric("duration_us", duration_us),
        metric("rate_per_ms", rate_per_ms),
        metric("served", report.served as u64),
        metric("shed", report.shed as u64),
        metric("busy_cycles", prof.busy_cycles),
        metric("attributed_cycles", prof.attributed_cycles),
        metric("attribution_pct", prof.attribution_pct()),
        metric("unrouted_cycles", prof.unrouted_cycles),
        metric("profiled_energy_j", prof.total_energy_j),
        metric("served_energy_j", served_energy_j),
        metric("mean_utilization_pct", prof.mean_utilization_pct()),
        metric("profile_digest", format!("{:#018x}", prof.digest())),
    ];
    for (array, p) in &prof.arrays {
        metrics.push(metric(
            format!("array{array}_utilization_pct"),
            p.utilization_pct(),
        ));
    }
    for (i, k) in prof.kernels.iter().take(top_k).enumerate() {
        metrics.push(metric(format!("kernel{i}_name"), k.kernel.clone()));
        metrics.push(metric(format!("kernel{i}_exec_cycles"), k.exec_cycles));
        metrics.push(metric(format!("kernel{i}_energy_j"), k.energy_j()));
    }
    for op in prof.hot_ops.iter().take(top_k) {
        metrics.push(metric(format!("op_{}_cycles", op.class.tag()), op.cycles));
    }
    if json {
        write_json_summary("profile", "E16", &metrics);
    }
    write_metrics(metrics_out.as_deref(), &metrics);
}
