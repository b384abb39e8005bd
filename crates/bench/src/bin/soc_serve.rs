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
    arg_value, bad_value, banner, gate, install_profile_arg, install_trace_arg, json_flag, or_exit,
    parse_int, parse_u64, write_chrome_trace, write_file, write_metrics_arg, write_profile_arg,
    JsonValue, MAX_ARRAYS, MAX_JOBS,
};
use dsra_runtime::{BackendKind, RuntimeConfig, SocRuntime};
use dsra_video::{generate_job_mix, JobMixConfig};

fn main() {
    let jobs: u32 = parse_int("--jobs", 1000, MAX_JOBS);
    let da: usize = parse_int("--da", 2, MAX_ARRAYS);
    let me: usize = parse_int("--me", 2, MAX_ARRAYS);
    let seed = parse_u64("--seed", 0x50C_5EED);
    // `--backend check` runs every job through the array simulator *and*
    // the software golden reference, failing on the first divergence; the
    // report (and its digest) is byte-identical across all three because
    // outcomes are pinned by the backend contract.
    let backend = match arg_value("--backend") {
        None => BackendKind::default(),
        Some(name) => BackendKind::from_name(&name)
            .unwrap_or_else(|| bad_value("--backend (array | golden | check)", &name)),
    };
    banner(
        "E11",
        "multi-array SoC runtime: cache + diff-aware scheduling",
    );
    println!(
        "pool: {da} DA + {me} ME arrays, {jobs} jobs, seed {seed:#x}, {} backend\n",
        backend.name()
    );

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
    let trace_path = install_trace_arg(&mut runtime);
    // `--profile-out <file>` tees the same event stream into the
    // attribution profiler and dumps the serve as a flamegraph.
    let profile = install_profile_arg(&mut runtime);
    let report = or_exit("serve", runtime.serve(&mix));
    print!("{}", report.render());
    write_profile_arg(&runtime, &profile);
    if let Some(path) = &trace_path {
        write_chrome_trace(&mut runtime, path);
    }

    let hit_rate = report.cache.hit_rate();
    println!(
        "\nplace-and-route paid {} time(s) for {} job-kernel lookups",
        runtime.cache_stats().misses,
        runtime.cache_stats().lookups()
    );
    gate(
        jobs < 200 || hit_rate > 0.9,
        &format!("cache hit rate {hit_rate:.3} below the E11 gate"),
    );

    if json_flag() {
        // The phases object carries this run's wall-clock planning/exec
        // split; everything else in the document is byte-identical per
        // seed.
        write_file(
            "BENCH_runtime.json",
            report.to_json_with_phases("E11", runtime.phase_timings()),
        );
        println!("wrote BENCH_runtime.json");
    }
    // `--metrics <file>`: the scalar view of the same report in
    // Prometheus text exposition (counters for counts, gauges for rates).
    let metrics: Vec<(String, JsonValue)> = vec![
        ("jobs".into(), JsonValue::Int(report.jobs as u64)),
        ("dct_jobs".into(), JsonValue::Int(report.dct_jobs as u64)),
        ("me_jobs".into(), JsonValue::Int(report.me_jobs as u64)),
        (
            "encode_jobs".into(),
            JsonValue::Int(report.encode_jobs as u64),
        ),
        (
            "makespan_cycles".into(),
            JsonValue::Int(report.makespan_cycles),
        ),
        (
            "jobs_per_megacycle".into(),
            JsonValue::Num(report.jobs_per_megacycle),
        ),
        (
            "cache_lookups".into(),
            JsonValue::Int(report.cache.lookups()),
        ),
        ("cache_hits".into(), JsonValue::Int(report.cache.hits)),
        ("cache_misses".into(), JsonValue::Int(report.cache.misses)),
        ("cache_hit_rate".into(), JsonValue::Num(hit_rate)),
        (
            "total_reconfig_bits".into(),
            JsonValue::Int(report.total_reconfig_bits),
        ),
        (
            "reconfig_events".into(),
            JsonValue::Int(report.reconfig_events as u64),
        ),
        (
            "energy_total_j".into(),
            JsonValue::Num(report.energy.total_j()),
        ),
    ];
    write_metrics_arg(&metrics);
}
