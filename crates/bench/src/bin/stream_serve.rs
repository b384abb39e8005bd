//! E13 — open-loop multi-tenant streaming (DESIGN.md §9): a seeded
//! per-tenant request trace served through the `dsra-service` frontend —
//! admission control, deadline shedding, elastic array pools — once per
//! admission policy, comparing tail latency and SLO violations at equal
//! offered load.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin stream_serve
//! cargo run -p dsra-bench --release --bin stream_serve -- \
//!     --tenants 4 --duration 20000 --rate 900 --da 2 --me 2 \
//!     --policy both --seed 0x57EA4AED --json
//! cargo run -p dsra-bench --release --bin stream_serve -- --monitor --json
//! ```
//!
//! `--monitor` installs the online SLO monitor on every session, prints
//! its dashboard after each, appends the `monitor-shed` closed-loop
//! policy to the run list, and adds the `monitor_*` alert keys to the
//! `--json` summary. `--metrics <file>` dumps the summary metrics in
//! Prometheus text exposition.
//!
//! Output is byte-identical across runs with the same arguments: the
//! trace is a pure function of its config, the dispatcher advances a
//! virtual clock, and every payload is a pure function of its spec —
//! which is exactly what each policy's `outcome digest` line pins.

use dsra_bench::{
    arg_value, bad_value, banner, gate, install_profile_arg, json_flag, latency_histogram,
    monitor_metrics, or_exit, parse_int, parse_u64, shed_wait_histogram, stream_metrics,
    tenant_trace, write_chrome_trace, write_json_summary, write_metrics_arg, write_profile_arg,
    JsonValue, MAX_ARRAYS, MAX_DURATION_US,
};
use dsra_monitor::{render_dashboard, MonitorHandle};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{install_monitor, serve_trace, AdmitPolicy, ServiceConfig, ServiceReport};
use dsra_trace::{EventLog, NoopSink, TraceSink};

fn main() {
    let tenants: u16 = parse_int("--tenants", 4, u16::MAX.into());
    let duration_us = parse_int("--duration", 20_000, MAX_DURATION_US);
    // Aggregate offered load in requests per virtual millisecond; the
    // per-tenant mean gap follows from it (background tenants halve
    // their own rate).
    let rate_per_ms = parse_u64("--rate", 900).max(1);
    let da: usize = parse_int("--da", 2, MAX_ARRAYS);
    let me: usize = parse_int("--me", 2, MAX_ARRAYS);
    let seed = parse_u64("--seed", 0x57EA_4AED);
    let policy_arg = arg_value("--policy").unwrap_or_else(|| "both".into());
    banner(
        "E13",
        "open-loop streaming: admission control + elastic pools vs. SLOs",
    );
    println!(
        "{tenants} tenants, {duration_us} µs trace, ~{rate_per_ms} req/ms offered, \
         pool {da} DA + {me} ME, seed {seed:#x}\n"
    );

    let trace = tenant_trace(tenants, duration_us, rate_per_ms, seed);
    let monitored = std::env::args().any(|a| a == "--monitor");
    let mut policies: Vec<AdmitPolicy> = match policy_arg.as_str() {
        "both" => vec![AdmitPolicy::FifoUnbounded, AdmitPolicy::EdfShed],
        name => vec![AdmitPolicy::from_name(name)
            .unwrap_or_else(|| bad_value("--policy (fifo | edf | monitor | both)", name))],
    };
    if monitored && !policies.contains(&AdmitPolicy::MonitorShed) {
        policies.push(AdmitPolicy::MonitorShed);
    }

    let mut runs: Vec<ServiceReport> = Vec::new();
    let mut last_monitor: Option<MonitorHandle> = None;
    for (i, policy) in policies.iter().enumerate() {
        let mut runtime = SocRuntime::new(RuntimeConfig {
            da_arrays: da,
            me_arrays: me,
            ..Default::default()
        })
        .expect("runtime construction");
        // `--trace <file>` records the last policy's session (the one the
        // E13 gate cares about) as a Chrome trace-event document.
        let trace_path = if i + 1 == policies.len() {
            arg_value("--trace")
        } else {
            None
        };
        // The monitor (and `monitor-shed`) needs the online monitor
        // installed as a tee over whatever the session records into.
        let use_monitor = monitored || *policy == AdmitPolicy::MonitorShed;
        let monitor = if use_monitor {
            let inner: Box<dyn TraceSink> = if trace_path.is_some() {
                Box::new(EventLog::new())
            } else {
                Box::new(NoopSink)
            };
            Some(install_monitor(&mut runtime, &trace.tenants, inner))
        } else {
            if trace_path.is_some() {
                runtime.set_trace_sink(Box::new(EventLog::new()));
            }
            None
        };
        // `--profile-out <file>` captures the last policy's session as
        // an attribution flamegraph; the tee wraps whatever the monitor
        // and `--trace` wiring installed, so all three compose.
        let profile = if i + 1 == policies.len() {
            install_profile_arg(&mut runtime)
        } else {
            None
        };
        let report = or_exit(
            "streaming session",
            serve_trace(
                &mut runtime,
                &trace,
                &ServiceConfig {
                    policy: *policy,
                    monitor: monitor.clone(),
                    ..Default::default()
                },
            ),
        );
        print!("{}", report.render());
        if let Some(handle) = &monitor {
            print!(
                "{}",
                render_dashboard(&handle.final_snapshot(), &handle.alert_log())
            );
            last_monitor = Some(handle.clone());
        }
        let h = latency_histogram(&report);
        println!(
            "serve latency      : p50 {} µs, p90 {} µs, p99 {} µs, max {} µs",
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        );
        println!(
            "shed waits         : p99 {} µs over {} shed\n",
            shed_wait_histogram(&report).p99(),
            report.shed
        );
        write_profile_arg(&runtime, &profile);
        if let Some(path) = &trace_path {
            write_chrome_trace(&mut runtime, path);
        }
        runs.push(report);
    }

    if runs.len() == 2 {
        let fifo = &runs[0];
        let edf = &runs[1];
        let (hf, he) = (latency_histogram(fifo), latency_histogram(edf));
        println!(
            "edf-shed vs fifo   : p99 {} vs {} µs, violations {} vs {}, shed {} vs {} — \
             saying \"no\" to blown budgets keeps the tail inside the SLO.",
            he.p99(),
            hf.p99(),
            edf.violations,
            fifo.violations,
            edf.shed,
            fifo.shed
        );
        // The gate only means something once overload made EDF actually
        // shed (tier-1's tests/stream_serve.rs pins it against a
        // guaranteed-overloaded trace). Light or marginal load — where
        // EDF meets every deadline by reordering alone and may trade a
        // slightly longer tail for zero violations — is a valid
        // configuration, not a failure.
        if fifo.violations > 0 && edf.shed > 0 {
            gate(
                he.p99() < hf.p99() && edf.violation_pct() < fifo.violation_pct(),
                "E13 gate: EDF+shedding must beat FIFO on p99 latency and violation rate",
            );
        }
    }

    let mut metrics: Vec<(String, JsonValue)> = vec![
        ("tenants".into(), JsonValue::Int(u64::from(tenants))),
        ("duration_us".into(), JsonValue::Int(duration_us)),
        ("rate_per_ms".into(), JsonValue::Int(rate_per_ms)),
        ("da_arrays".into(), JsonValue::Int(da as u64)),
        ("me_arrays".into(), JsonValue::Int(me as u64)),
    ];
    for report in &runs {
        metrics.extend(stream_metrics(report));
    }
    if let Some(handle) = &last_monitor {
        metrics.extend(monitor_metrics(
            &handle.final_snapshot(),
            &handle.alert_log(),
        ));
    }
    if json_flag() {
        write_json_summary("stream", "E13", &metrics);
    }
    write_metrics_arg(&metrics);
}
