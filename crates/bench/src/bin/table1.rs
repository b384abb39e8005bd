//! E1 — regenerates **Table 1** of the paper: area usage (clusters) of the
//! DCT implementations, plus the untabulated Fig.-4 basic DA.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin table1
//! ```

use dsra_bench::{banner, metric, outln, write_json_summary, Args, JsonValue};
use dsra_core::report::table1;
use dsra_dct::{all_impls, DaParams};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner("E1", "Table 1: Area usage of the DCT implementations");
    let impls = all_impls(DaParams::precise()).expect("builders are infallible");
    // Paper column order: MIX ROM, CORDIC 1, CORDIC 2, SCC EVEN/ODD, SCC.
    let order = [
        "MIX ROM", "CORDIC 1", "CORDIC 2", "SCC E/O", "SCC", "BASIC DA",
    ];
    let reports: Vec<_> = order
        .iter()
        .map(|n| {
            impls
                .iter()
                .find(|i| i.name() == *n)
                .expect("all impls present")
                .report()
        })
        .collect();
    let refs: Vec<_> = reports.iter().collect();
    outln(table1(&refs));
    outln("Paper totals:        32      48      38      32      24      (n/a)");
    outln("\nROM geometry per implementation:");
    for r in &reports {
        outln(format!(
            "  {:<10} {:>6} ROM words total, {:>6} cluster config bits",
            r.name(),
            r.memory_words(),
            r.config_bits()
        ));
    }

    if json {
        let mut metrics: Vec<(String, JsonValue)> = Vec::new();
        for r in &reports {
            let key = r.name().to_lowercase().replace([' ', '/'], "_");
            metrics.push(metric(
                format!("{key}_clusters"),
                u64::from(r.total_clusters()),
            ));
            metrics.push(metric(format!("{key}_config_bits"), r.config_bits()));
        }
        write_json_summary("table1", "E1", &metrics);
    }
}
