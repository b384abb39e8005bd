//! E11 — the multi-array SoC runtime under heavy mixed traffic: a seeded
//! queue of DCT / motion-search / encode jobs served across a pool of DA
//! and ME arrays with content-addressed bitstream caching and diff-aware
//! scheduling (DESIGN.md §6).
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin soc_serve
//! cargo run -p dsra-bench --release --bin soc_serve -- \
//!     --jobs 1000 --da 2 --me 2 --seed 0x50C5EED --json
//! ```
//!
//! Output is byte-identical across runs with the same arguments — the
//! scheduler plans deterministically and the worker threads only execute
//! plans — which is exactly what the `outcome digest` line pins.

use dsra_bench::{
    bad_value, banner, gate, install_profiler, install_trace, metric, or_exit, out, outln,
    write_chrome_trace, write_file, write_metrics, write_profile, Args, JsonValue, MAX_ARRAYS,
    MAX_JOBS,
};
use dsra_runtime::{BackendKind, RuntimeConfig, SocRuntime};
use dsra_video::{generate_job_mix, JobMixConfig};

fn main() {
    let mut args = Args::from_env();
    let jobs: u32 = args.int("--jobs", 1000, 0..=MAX_JOBS);
    let da: usize = args.int("--da", 2, 0..=MAX_ARRAYS);
    let me: usize = args.int("--me", 2, 0..=MAX_ARRAYS);
    let seed: u64 = args.int("--seed", 0x50C_5EED, 0..=u64::MAX);
    // `--backend check` runs every job through the array simulator *and*
    // the software golden reference, failing on the first divergence; the
    // report (and its digest) is byte-identical across all three because
    // outcomes are pinned by the backend contract.
    let backend = match args.value("--backend") {
        None => BackendKind::default(),
        Some(name) => BackendKind::from_name(&name)
            .unwrap_or_else(|| bad_value("--backend (array | golden | check)", &name)),
    };
    let trace = args.value("--trace");
    let profile_out = args.value("--profile-out");
    let json = args.switch("--json");
    let metrics_out = args.value("--metrics");
    args.finish();
    banner(
        "E11",
        "multi-array SoC runtime: cache + diff-aware scheduling",
    );
    outln(format!(
        "pool: {da} DA + {me} ME arrays, {jobs} jobs, seed {seed:#x}, {} backend\n",
        backend.name()
    ));

    let mix = generate_job_mix(JobMixConfig {
        jobs,
        seed,
        ..Default::default()
    });
    let mut runtime = SocRuntime::new(RuntimeConfig {
        da_arrays: da,
        me_arrays: me,
        backend,
        ..Default::default()
    })
    .expect("runtime construction");
    install_trace(&mut runtime, trace.as_deref());
    // `--profile-out <file>` tees the same event stream into the
    // attribution profiler and dumps the serve as a flamegraph.
    let profile = profile_out.map(|path| (path, install_profiler(&mut runtime)));
    let report = or_exit("serve", runtime.serve(&mix));
    out(report.render());
    write_profile(&runtime, &profile);
    write_chrome_trace(&mut runtime, trace.as_deref());

    let hit_rate = report.cache.hit_rate();
    outln(format!(
        "\nplace-and-route paid {} time(s) for {} job-kernel lookups",
        runtime.cache_stats().misses,
        runtime.cache_stats().lookups()
    ));
    gate(
        jobs < 200 || hit_rate > 0.9,
        &format!("cache hit rate {hit_rate:.3} below the E11 gate"),
    );

    if json {
        // The phases object carries this run's wall-clock planning/exec
        // split; everything else in the document is byte-identical per
        // seed.
        write_file(
            "BENCH_runtime.json",
            report.to_json_with_phases("E11", runtime.phase_timings()),
        );
    }
    // `--metrics <file>`: the scalar view of the same report in
    // Prometheus text exposition (counters for counts, gauges for rates).
    let metrics: Vec<(String, JsonValue)> = vec![
        metric("jobs", report.jobs as u64),
        metric("dct_jobs", report.dct_jobs as u64),
        metric("me_jobs", report.me_jobs as u64),
        metric("encode_jobs", report.encode_jobs as u64),
        metric("makespan_cycles", report.makespan_cycles),
        metric("jobs_per_megacycle", report.jobs_per_megacycle),
        metric("cache_lookups", report.cache.lookups()),
        metric("cache_hits", report.cache.hits),
        metric("cache_misses", report.cache.misses),
        metric("cache_hit_rate", hit_rate),
        metric("total_reconfig_bits", report.total_reconfig_bits),
        metric("reconfig_events", report.reconfig_events as u64),
        metric("energy_total_j", report.energy.total_j()),
    ];
    write_metrics(metrics_out.as_deref(), &metrics);
}
