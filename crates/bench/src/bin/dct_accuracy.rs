//! E2 — functional/accuracy characterisation of the six DCT mappings
//! (Figs. 4–9): cycles per block, coefficient error vs the double-precision
//! reference, for both the precise and the paper-faithful (Fig. 4) widths.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin dct_accuracy
//! ```

use dsra_bench::{banner, metric, outln, write_json_summary, Args, JsonValue};
use dsra_dct::{all_impls, measure_accuracy, DaParams};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner("E2", "Figs. 4-9: functional behaviour of the DCT mappings");
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for (label, tag, params, amplitude) in [
        (
            "precise widths (16-bit ROM / 32-bit acc), 12-bit input",
            "precise",
            DaParams::precise(),
            2047i64,
        ),
        (
            "paper widths (8-bit ROM / 16-bit acc, Fig. 4), 8-bit input",
            "paper",
            DaParams::paper(),
            255,
        ),
    ] {
        outln(format!("\n--- {label} ---"));
        outln(format!(
            "{:<10} {:>8} {:>12} {:>12}",
            "impl", "cycles", "max |err|", "rms err"
        ));
        let impls = all_impls(params).expect("builders are infallible");
        for imp in &impls {
            let acc = measure_accuracy(imp.as_ref(), 16, amplitude, 0xE2).expect("driver ok");
            outln(format!(
                "{:<10} {:>8} {:>12.3} {:>12.4}",
                imp.name(),
                imp.cycles_per_block(),
                acc.max_abs_err,
                acc.rms_err
            ));
            let key = imp.name().to_lowercase().replace([' ', '/'], "_");
            metrics.push(metric(format!("{tag}_{key}_max_abs_err"), acc.max_abs_err));
            metrics.push(metric(
                format!("{tag}_{key}_cycles_per_block"),
                imp.cycles_per_block(),
            ));
        }
    }
    if json {
        write_json_summary("dct_accuracy", "E2", &metrics);
    }
    outln(
        "\nShape check: pure-DA paths (BASIC DA, MIX ROM, SCC*) are exact up\n\
         to ROM rounding; the CORDIC paths add re-serialisation truncation;\n\
         Fig.-4 widths degrade everything uniformly (quality/area trade, §5).",
    );
}
