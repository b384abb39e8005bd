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
    banner, chaos_metrics, gate, install_profiler, install_trace, latency_histogram, metric,
    or_exit, out, outln, tenant_trace, write_chrome_trace, write_json_summary, write_metrics,
    write_profile, Args, JsonValue, MAX_ARRAYS, MAX_DURATION_US,
};
use dsra_chaos::{serve_with_chaos, ChaosConfig, ChaosReport, FaultPlan, RecoveryConfig};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{ServiceConfig, TraceConfig};

fn main() {
    let mut args = Args::from_env();
    let tenants: u16 = args.int("--tenants", 3, 1..=u16::MAX.into());
    let duration_us: u64 = args.int("--duration", 6_000, 0..=MAX_DURATION_US);
    let rate_per_ms: u64 = args.int("--rate", 450, 1..=u64::MAX);
    let da: usize = args.int("--da", 2, 0..=MAX_ARRAYS);
    let me: usize = args.int("--me", 2, 0..=MAX_ARRAYS);
    // Fault-plan seed; the request trace keeps E13's default seed so the
    // offered load is the familiar one.
    let seed: u64 = args.int("--seed", 7, 0..=u64::MAX);
    let trace_out = args.value("--trace");
    let profile_out = args.value("--profile-out");
    let json = args.switch("--json");
    let metrics_out = args.value("--metrics");
    args.finish();
    let trace = tenant_trace(
        tenants,
        duration_us,
        rate_per_ms,
        TraceConfig::default().seed,
    );
    banner(
        "E15",
        "chaos serving: fault injection + detection/retry/quarantine vs. oblivious",
    );
    outln(format!(
        "{tenants} tenants, {duration_us} µs trace, ~{rate_per_ms} req/ms offered, \
         pool {da} DA + {me} ME, fault seed {seed:#x}\n"
    ));

    let plan = FaultPlan::generate(&ChaosConfig {
        seed,
        duration_us,
        arrays: da + me,
    });
    outln(format!("fault plan         : {} events", plan.len()));
    for e in plan.events() {
        outln(format!(
            "  t={:>6} µs  array {}  {}",
            e.at_us,
            e.array,
            e.kind.tag()
        ));
    }
    outln("");

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
        let trace_path = trace_out.as_deref().filter(|_| i == 0);
        install_trace(&mut runtime, trace_path);
        // `--profile-out <file>` captures the same (recovery) arm as an
        // attribution flamegraph, composing with `--trace`.
        let profile = profile_out
            .clone()
            .filter(|_| i == 0)
            .map(|path| (path, install_profiler(&mut runtime)));
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
        outln(format!("--- {tag} ---"));
        out(report.service.render());
        let c = report.counts;
        outln(format!(
            "chaos              : {} faults, {} divergences, {} retries, \
             {} quarantines, {} restores, {} failed jobs",
            c.faults_injected, c.divergences, c.retries, c.quarantines, c.restores, c.failed_jobs
        ));
        outln(format!(
            "corruption         : {} of {} executions corrupted, {} corrupt results served",
            report.corrupt_execs, report.total_execs, report.corrupt_served
        ));
        outln(format!(
            "useful goodput     : {:.2} % (served, on time, and correct)",
            report.useful_goodput_pct()
        ));
        let h = latency_histogram(&report.service);
        outln(format!(
            "serve latency      : p50 {} µs, p99 {} µs",
            h.p50(),
            h.p99()
        ));
        outln(format!("chaos digest       : {:#018x}\n", report.digest()));
        write_profile(&runtime, &profile);
        write_chrome_trace(&mut runtime, trace_path);
        reports.push(report);
    }

    let (recovered, oblivious) = (&reports[0], &reports[1]);
    let recovered_pct = recovered.useful_goodput_pct();
    let oblivious_pct = oblivious.useful_goodput_pct();
    // The E15 gate only means something once the plan actually corrupted
    // results the oblivious arm went on to serve; the claim is printed
    // only when that gate runs and passes.
    let gated = oblivious.corrupt_served > 0;
    let withheld = recovered.corrupt_served == 0;
    let beats = recovered_pct > oblivious_pct;
    outln(format!(
        "recovery vs oblivious: corrupt served {} vs {}, useful goodput {recovered_pct:.2} % vs \
         {oblivious_pct:.2} %{}",
        recovered.corrupt_served,
        oblivious.corrupt_served,
        if gated && withheld && beats {
            " — detection plus retry-elsewhere turns silent corruption into served-correct results."
        } else {
            "."
        }
    ));
    if gated {
        gate(
            withheld,
            &format!(
                "E15 gate: per-job spot checks must withhold every corrupt result \
                 (recovery served {})",
                recovered.corrupt_served
            ),
        );
        gate(
            beats,
            &format!(
                "E15 gate: recovery must beat oblivious on corruption-aware goodput \
                 (recovery {recovered_pct:.2} %, oblivious {oblivious_pct:.2} %)"
            ),
        );
    }

    let mut metrics: Vec<(String, JsonValue)> = vec![
        metric("tenants", u64::from(tenants)),
        metric("duration_us", duration_us),
        metric("rate_per_ms", rate_per_ms),
        metric("da_arrays", da as u64),
        metric("me_arrays", me as u64),
        metric("fault_seed", seed),
        metric("faults_planned", plan.len() as u64),
    ];
    for (report, (tag, _)) in reports.iter().zip(&arms) {
        metrics.extend(chaos_metrics(report, tag));
    }
    if json {
        write_json_summary("chaos", "E15", &metrics);
    }
    write_metrics(metrics_out.as_deref(), &metrics);
}
