//! E12 — energy-aware serving per battery charge: the E11 job mix is
//! served in chunks until a full battery discharges, once per scheduling
//! policy (naive / diff-aware / energy-aware), comparing jobs served per
//! charge (DESIGN.md §7).
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin battery_serve
//! cargo run -p dsra-bench --release --bin battery_serve -- \
//!     --capacity 2e9 --chunk 120 --da 2 --me 2 --seed 0x50C5EED --json
//! ```
//!
//! Output is byte-identical across runs with the same arguments: the
//! battery drains by the deterministic per-serve energy totals, and every
//! policy decision is a pure function of (jobs, config, battery reading).
//! The discharge loop itself is `dsra_bench::discharge_battery` — the
//! same definition `tests/battery_serve.rs` gates in tier-1.

use dsra_bench::{
    banner, discharge_runtime, gate, install_profiler, install_trace, metric, or_exit, outln,
    write_chrome_trace, write_json_summary, write_metrics, write_profile, Args, DischargeOutcome,
    JsonValue, MAX_ARRAYS, MAX_JOBS,
};
use dsra_runtime::{
    DefaultPolicy, EnergyAwarePolicy, NaivePolicy, PowerConfig, RuntimeConfig, SchedulePolicy,
    SocRuntime,
};
use dsra_video::JobMixConfig;

fn main() {
    let mut args = Args::from_env();
    let capacity = args.num(
        "--capacity",
        2.0e9,
        ("a finite number above 0", |c| c.is_finite() && c > 0.0),
    );
    let chunk: u32 = args.int("--chunk", 120, 1..=MAX_JOBS);
    let da: usize = args.int("--da", 2, 0..=MAX_ARRAYS);
    let me: usize = args.int("--me", 2, 0..=MAX_ARRAYS);
    let seed: u64 = args.int("--seed", 0x50C_5EED, 0..=u64::MAX);
    let low_pct: u8 = args.int("--low-pct", 20, 0..=u8::MAX.into());
    let max_serves: u64 = args.int("--max-serves", 64, 1..=u64::MAX);
    let trace = args.value("--trace");
    let profile_out = args.value("--profile-out");
    let json = args.switch("--json");
    let metrics_out = args.value("--metrics");
    args.finish();
    banner("E12", "energy-aware serving: jobs per full battery charge");
    outln(format!(
        "battery {capacity:.3e} eu, {chunk}-job chunks of the E11 mix (seed {seed:#x}), \
         pool {da} DA + {me} ME, low-battery threshold {low_pct}%\n"
    ));

    let config = || RuntimeConfig {
        da_arrays: da,
        me_arrays: me,
        power: PowerConfig {
            battery_capacity_j: capacity,
            low_battery_pct: low_pct,
        },
        ..Default::default()
    };
    let base = JobMixConfig {
        jobs: chunk,
        seed,
        ..Default::default()
    };
    let policies: Vec<Box<dyn SchedulePolicy>> = vec![
        Box::new(NaivePolicy),
        Box::new(DefaultPolicy),
        Box::new(EnergyAwarePolicy),
    ];
    let mut runs: Vec<DischargeOutcome> = Vec::new();
    let count = policies.len();
    for (i, policy) in policies.into_iter().enumerate() {
        let mut runtime = SocRuntime::with_policy(config(), policy).expect("runtime construction");
        // `--trace <file>` records the last policy's discharge (the
        // energy-aware run the E12 gate celebrates), and `--profile-out
        // <file>` captures the same discharge as an attribution flamegraph.
        let last = i + 1 == count;
        let trace_path = trace.as_deref().filter(|_| last);
        install_trace(&mut runtime, trace_path);
        let profile = profile_out
            .clone()
            .filter(|_| last)
            .map(|path| (path, install_profiler(&mut runtime)));
        runs.push(or_exit(
            "discharge run",
            discharge_runtime(&mut runtime, base, max_serves),
        ));
        write_profile(&runtime, &profile);
        write_chrome_trace(&mut runtime, trace_path);
    }

    outln("policy        jobs/charge  serves  low-batt  eu/job      frames/eu");
    for r in &runs {
        outln(format!(
            "{:<12}  {:>11}  {:>6}  {:>8}  {:>10.3e}  {:.6e}",
            r.policy,
            r.jobs_served,
            r.reports.len(),
            r.low_battery_serves,
            r.joules_per_job(),
            r.frames_per_joule()
        ));
    }

    let by_name = |n: &str| runs.iter().find(|r| r.policy == n).unwrap();
    let naive = by_name("naive");
    let energy = by_name("energy-aware");
    outln(format!(
        "\nenergy-aware served {} jobs per charge vs. {} naive ({:+.1} %) — \
         the paper's low-battery argument, measured.",
        energy.jobs_served,
        naive.jobs_served,
        (energy.jobs_served as f64 / naive.jobs_served.max(1) as f64 - 1.0) * 100.0
    ));
    gate(
        energy.jobs_served > naive.jobs_served,
        &format!(
            "E12 gate missed: energy-aware must serve strictly more jobs per charge \
             (energy-aware {}, naive {})",
            energy.jobs_served, naive.jobs_served
        ),
    );

    let mut metrics: Vec<(String, JsonValue)> = vec![
        metric("battery_capacity_j", capacity),
        metric("chunk_jobs", u64::from(chunk)),
        metric("low_battery_pct", u64::from(low_pct)),
    ];
    for r in &runs {
        let key = r.policy.replace('-', "_");
        metrics.push(metric(
            format!("{key}_jobs_per_charge"),
            r.jobs_served as u64,
        ));
        metrics.push(metric(format!("{key}_serves"), r.reports.len() as u64));
        metrics.push(metric(format!("{key}_total_j"), r.total_j));
    }
    metrics.push(metric(
        "energy_aware_gain_pct",
        (energy.jobs_served as f64 / naive.jobs_served.max(1) as f64 - 1.0) * 100.0,
    ));
    if json {
        write_json_summary("battery_serve", "E12", &metrics);
    }
    write_metrics(metrics_out.as_deref(), &metrics);
}
