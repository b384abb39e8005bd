//! Post-processes a `--trace` Chrome trace-event document into operator
//! breakdowns: queue-delay per tenant, per-array utilization/gating
//! timelines, reconfig-stall attribution by kernel, and the top-k hot
//! kernel configurations by fingerprint (DESIGN.md §11).
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin stream_serve -- --trace trace.json
//! cargo run -p dsra-bench --release --bin trace_report -- trace.json --top 8
//! cargo run -p dsra-bench --release --bin trace_report -- trace.json --slo
//! ```
//!
//! `--slo` replays the recorded event stream through the offline
//! `dsra-monitor` (geometry restored from the document's `monitor_*`
//! metadata) and prints the per-tenant error-budget timeline plus the
//! final dashboard — the post-hoc view of exactly the windows the online
//! monitor sealed (DESIGN.md §12).
//!
//! The report is a pure function of the trace document, which is itself
//! byte-identical per seed — so the breakdown is too.

use dsra_bench::{analyze_chrome_trace, banner, out, outln, parse_json, slo_replay, Args};
use dsra_monitor::{render_dashboard, render_timeline};

fn main() {
    let mut args = Args::from_env();
    let path = args.positional("trace_report <trace.json> [--top N] [--slo]");
    let top_k: usize = args.int("--top", 8, 0..=u64::MAX);
    let slo = args.switch("--slo");
    args.finish();
    banner("trace_report", "job-lifecycle trace breakdowns");
    let fail = |what: String| -> ! {
        eprintln!("{what}");
        std::process::exit(2)
    };
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let doc = parse_json(&src).unwrap_or_else(|e| fail(format!("{path} is not strict JSON: {e}")));
    let analysis =
        analyze_chrome_trace(&doc).unwrap_or_else(|e| fail(format!("{path} is not a trace: {e}")));
    out(analysis.render(top_k));
    if slo {
        let monitor =
            slo_replay(&doc).unwrap_or_else(|e| fail(format!("{path} cannot be replayed: {e}")));
        outln("== error-budget timeline ==");
        out(render_timeline(monitor.timeline()));
        out(render_dashboard(
            &monitor.final_snapshot(),
            monitor.alert_log(),
        ));
    }
}
