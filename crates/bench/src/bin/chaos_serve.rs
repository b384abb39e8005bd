//! E15 — chaos serving (DESIGN.md §13): the E13 multi-tenant stream
//! under a seeded fault plan — stuck-at lanes, transient upsets,
//! corrupted configuration writes, array death, battery brownouts — once
//! with the full recovery stack (golden spot checks, retry-elsewhere,
//! quarantine + probes) and once fault-*oblivious*, comparing corrupt
//! results served, corruption-aware goodput and tail latency.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin chaos_serve
//! cargo run -p dsra-bench --release --bin chaos_serve -- \
//!     --tenants 3 --duration 6000 --rate 450 --da 2 --me 2 \
//!     --seed 7 --json --trace chaos.trace.json
//! ```
//!
//! Output is byte-identical across runs with the same arguments: the
//! request trace and the fault plan are pure functions of their seeds,
//! and injection, detection, retries and probes all run in the
//! dispatcher's virtual time. `--trace <file>` records the recovery
//! arm's session — fault/divergence/retry/quarantine/restore instants
//! land on the array tracks next to the intervals they perturb.

use dsra_bench::{
    arg_value, banner, chaos_metrics, gate, install_profile_arg, json_flag, latency_histogram,
    or_exit, parse_int, parse_u64, tenant_trace, write_chrome_trace, write_json_summary,
    write_metrics_arg, write_profile_arg, JsonValue, MAX_ARRAYS, MAX_DURATION_US,
};
use dsra_chaos::{serve_with_chaos, ChaosConfig, ChaosReport, FaultPlan, RecoveryConfig};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{ServiceConfig, TraceConfig};
use dsra_trace::EventLog;

fn main() {
    let tenants: u16 = parse_int("--tenants", 3, u16::MAX.into());
    let duration_us = parse_int("--duration", 6_000, MAX_DURATION_US);
    let rate_per_ms = parse_u64("--rate", 450).max(1);
    let da: usize = parse_int("--da", 2, MAX_ARRAYS);
    let me: usize = parse_int("--me", 2, MAX_ARRAYS);
    // Fault-plan seed; the request trace keeps E13's default seed so the
    // offered load is the familiar one.
    let seed = parse_u64("--seed", 7);
    banner(
        "E15",
        "chaos serving: fault injection + detection/retry/quarantine vs. oblivious",
    );
    println!(
        "{tenants} tenants, {duration_us} µs trace, ~{rate_per_ms} req/ms offered, \
         pool {da} DA + {me} ME, fault seed {seed:#x}\n"
    );

    let trace = tenant_trace(
        tenants,
        duration_us,
        rate_per_ms,
        TraceConfig::default().seed,
    );
    let plan = FaultPlan::generate(&ChaosConfig {
        seed,
        duration_us,
        arrays: da + me,
    });
    println!("fault plan         : {} events", plan.len());
    for e in plan.events() {
        println!("  t={:>6} µs  array {}  {}", e.at_us, e.array, e.kind.tag());
    }
    println!();

    let arms = [
        ("recovery", RecoveryConfig::default()),
        ("oblivious", RecoveryConfig::Oblivious),
    ];
    let mut reports: Vec<ChaosReport> = Vec::new();
    for (i, (tag, recovery)) in arms.iter().enumerate() {
        let mut runtime = SocRuntime::new(RuntimeConfig {
            da_arrays: da,
            me_arrays: me,
            ..Default::default()
        })
        .expect("runtime construction");
        // `--trace <file>` records the recovery arm (the one with chaos
        // events worth looking at).
        let trace_path = if i == 0 { arg_value("--trace") } else { None };
        if trace_path.is_some() {
            runtime.set_trace_sink(Box::new(EventLog::new()));
        }
        // `--profile-out <file>` captures the same (recovery) arm as an
        // attribution flamegraph, composing with `--trace`.
        let profile = if i == 0 {
            install_profile_arg(&mut runtime)
        } else {
            None
        };
        let report = or_exit(
            "chaos session",
            serve_with_chaos(
                &mut runtime,
                &trace,
                &ServiceConfig::default(),
                &plan,
                *recovery,
            ),
        );
        println!("--- {tag} ---");
        print!("{}", report.service.render());
        let c = report.counts;
        println!(
            "chaos              : {} faults, {} divergences, {} retries, \
             {} quarantines, {} restores, {} failed jobs",
            c.faults_injected, c.divergences, c.retries, c.quarantines, c.restores, c.failed_jobs
        );
        println!(
            "corruption         : {} of {} executions corrupted, {} corrupt results served",
            report.corrupt_execs, report.total_execs, report.corrupt_served
        );
        println!(
            "useful goodput     : {:.2} % (served, on time, and correct)",
            report.useful_goodput_pct()
        );
        let h = latency_histogram(&report.service);
        println!(
            "serve latency      : p50 {} µs, p99 {} µs",
            h.p50(),
            h.p99()
        );
        println!("chaos digest       : {:#018x}\n", report.digest());
        write_profile_arg(&runtime, &profile);
        if let Some(path) = &trace_path {
            write_chrome_trace(&mut runtime, path);
        }
        reports.push(report);
    }

    let (recovered, oblivious) = (&reports[0], &reports[1]);
    println!(
        "recovery vs oblivious: corrupt served {} vs {}, useful goodput {:.2} % vs {:.2} % — \
         detection plus retry-elsewhere turns silent corruption into served-correct results.",
        recovered.corrupt_served,
        oblivious.corrupt_served,
        recovered.useful_goodput_pct(),
        oblivious.useful_goodput_pct()
    );
    // The E15 gate only means something once the plan actually corrupted
    // results the oblivious arm went on to serve.
    if oblivious.corrupt_served > 0 {
        gate(
            recovered.corrupt_served == 0,
            &format!(
                "E15 gate: per-job spot checks must withhold every corrupt result \
                 (recovery served {})",
                recovered.corrupt_served
            ),
        );
        gate(
            recovered.useful_goodput_pct() > oblivious.useful_goodput_pct(),
            &format!(
                "E15 gate: recovery must beat oblivious on corruption-aware goodput \
                 (recovery {:.2} %, oblivious {:.2} %)",
                recovered.useful_goodput_pct(),
                oblivious.useful_goodput_pct()
            ),
        );
    }

    let mut metrics: Vec<(String, JsonValue)> = vec![
        ("tenants".into(), JsonValue::Int(u64::from(tenants))),
        ("duration_us".into(), JsonValue::Int(duration_us)),
        ("rate_per_ms".into(), JsonValue::Int(rate_per_ms)),
        ("da_arrays".into(), JsonValue::Int(da as u64)),
        ("me_arrays".into(), JsonValue::Int(me as u64)),
        ("fault_seed".into(), JsonValue::Int(seed)),
        ("faults_planned".into(), JsonValue::Int(plan.len() as u64)),
    ];
    for (report, (tag, _)) in reports.iter().zip(&arms) {
        metrics.extend(chaos_metrics(report, tag));
    }
    if json_flag() {
        write_json_summary("chaos", "E15", &metrics);
    }
    write_metrics_arg(&metrics);
}
