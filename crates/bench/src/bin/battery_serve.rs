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
    arg_value, bad_value, banner, discharge_runtime, gate, install_profile_arg, install_trace_arg,
    json_flag, or_exit, parse_f64, parse_int, parse_u64, write_chrome_trace, write_json_summary,
    write_metrics_arg, write_profile_arg, DischargeOutcome, JsonValue, MAX_ARRAYS, MAX_JOBS,
};
use dsra_runtime::{
    DefaultPolicy, EnergyAwarePolicy, NaivePolicy, PowerConfig, RuntimeConfig, SchedulePolicy,
    SocRuntime,
};
use dsra_video::JobMixConfig;

fn main() {
    let capacity = parse_f64("--capacity", 2.0e9);
    if !(capacity.is_finite() && capacity > 0.0) {
        bad_value(
            "--capacity (a finite number above 0)",
            &arg_value("--capacity").unwrap_or_default(),
        );
    }
    let chunk: u32 = parse_int("--chunk", 120, MAX_JOBS);
    let da: usize = parse_int("--da", 2, MAX_ARRAYS);
    let me: usize = parse_int("--me", 2, MAX_ARRAYS);
    let seed = parse_u64("--seed", 0x50C_5EED);
    let low_pct: u8 = parse_int("--low-pct", 20, u8::MAX.into());
    let max_serves = parse_u64("--max-serves", 64);
    banner("E12", "energy-aware serving: jobs per full battery charge");
    println!(
        "battery {capacity:.3e} eu, {chunk}-job chunks of the E11 mix (seed {seed:#x}), \
         pool {da} DA + {me} ME, low-battery threshold {low_pct}%\n"
    );

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
        // energy-aware run the E12 gate celebrates).
        let trace_path = if i + 1 == count {
            install_trace_arg(&mut runtime)
        } else {
            None
        };
        // `--profile-out <file>` captures the same (last) policy's
        // discharge as an attribution flamegraph.
        let profile = if i + 1 == count {
            install_profile_arg(&mut runtime)
        } else {
            None
        };
        runs.push(or_exit(
            "discharge run",
            discharge_runtime(&mut runtime, base, max_serves),
        ));
        write_profile_arg(&runtime, &profile);
        if let Some(path) = &trace_path {
            write_chrome_trace(&mut runtime, path);
        }
    }

    println!("policy        jobs/charge  serves  low-batt  eu/job      frames/eu");
    for r in &runs {
        println!(
            "{:<12}  {:>11}  {:>6}  {:>8}  {:>10.3e}  {:.6e}",
            r.policy,
            r.jobs_served,
            r.reports.len(),
            r.low_battery_serves,
            r.joules_per_job(),
            r.frames_per_joule()
        );
    }

    let by_name = |n: &str| runs.iter().find(|r| r.policy == n).unwrap();
    let naive = by_name("naive");
    let energy = by_name("energy-aware");
    println!(
        "\nenergy-aware served {} jobs per charge vs. {} naive ({:+.1} %) — \
         the paper's low-battery argument, measured.",
        energy.jobs_served,
        naive.jobs_served,
        (energy.jobs_served as f64 / naive.jobs_served.max(1) as f64 - 1.0) * 100.0
    );
    gate(
        energy.jobs_served > naive.jobs_served,
        &format!(
            "E12 gate missed: energy-aware must serve strictly more jobs per charge \
             (energy-aware {}, naive {})",
            energy.jobs_served, naive.jobs_served
        ),
    );

    let mut metrics: Vec<(String, JsonValue)> = vec![
        ("battery_capacity_j".into(), JsonValue::Num(capacity)),
        ("chunk_jobs".into(), JsonValue::Int(u64::from(chunk))),
        ("low_battery_pct".into(), JsonValue::Int(u64::from(low_pct))),
    ];
    for r in &runs {
        let key = r.policy.replace('-', "_");
        metrics.push((
            format!("{key}_jobs_per_charge"),
            JsonValue::Int(r.jobs_served as u64),
        ));
        metrics.push((
            format!("{key}_serves"),
            JsonValue::Int(r.reports.len() as u64),
        ));
        metrics.push((format!("{key}_total_j"), JsonValue::Num(r.total_j)));
    }
    metrics.push((
        "energy_aware_gain_pct".into(),
        JsonValue::Num((energy.jobs_served as f64 / naive.jobs_served.max(1) as f64 - 1.0) * 100.0),
    ));
    if json_flag() {
        write_json_summary("battery_serve", "E12", &metrics);
    }
    write_metrics_arg(&metrics);
}
