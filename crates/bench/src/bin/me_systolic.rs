//! E3/E8 — Figs. 10–11: the 2-D systolic array vs the 1-D and sequential
//! alternatives: cycles, memory bandwidth, first-SAD latency, search-range
//! sweep.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin me_systolic
//! ```

use dsra_bench::{banner, metric, outln, shifted_planes, write_json_summary, Args, JsonValue};
use dsra_me::{full_search, MeEngine, SearchParams, Sequential, Systolic1d, Systolic2d};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner("E3/E8", "Figs. 10-11: 2-D systolic ME array");
    let (cur, refp) = shifted_planes(96, 96, (2, -1));
    let n = 8usize;

    outln("architecture comparison (block 8x8, range +-4):");
    outln(format!(
        "{:<22} {:>9} {:>9} {:>11} {:>9} {:>8}",
        "architecture", "clusters", "cycles", "ref fetch", "bw gain", "MV ok"
    ));
    let params = SearchParams { block: n, range: 4 };
    let sw = full_search(&cur, &refp, 40, 40, &params);
    let engines: Vec<Box<dyn MeEngine>> = vec![
        Box::new(Systolic2d::new(n).unwrap()),
        Box::new(Systolic1d::new(n).unwrap()),
        Box::new(Sequential::new(n).unwrap()),
    ];
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for eng in &engines {
        let r = eng.search(&cur, &refp, 40, 40, &params).unwrap();
        outln(format!(
            "{:<22} {:>9} {:>9} {:>11} {:>8.2}x {:>8}",
            eng.name(),
            eng.report().total_clusters(),
            r.cycles,
            r.ref_fetches,
            r.bandwidth_reduction(),
            r.best.mv == sw.mv && r.best.sad == sw.sad
        ));
        let key = eng.name().to_lowercase().replace([' ', '-'], "_");
        metrics.push(metric(format!("{key}_cycles"), r.cycles));
        metrics.push(metric(format!("{key}_bw_gain"), r.bandwidth_reduction()));
    }

    outln("\nsearch-range sweep on the 2-D array:");
    outln(format!(
        "{:<8} {:>11} {:>9} {:>13} {:>9}",
        "range", "candidates", "cycles", "cycles/cand", "bw gain"
    ));
    let eng = Systolic2d::new(n).unwrap();
    for range in [2, 4, 8] {
        let params = SearchParams { block: n, range };
        let r = eng.search(&cur, &refp, 40, 40, &params).unwrap();
        outln(format!(
            "+-{:<6} {:>11} {:>9} {:>13.2} {:>8.2}x",
            range,
            r.best.candidates,
            r.cycles,
            r.cycles as f64 / r.best.candidates as f64,
            r.bandwidth_reduction()
        ));
    }

    let eng16 = Systolic2d::new(16).unwrap();
    outln(format!(
        "\nfirst SAD latency at 16x16 blocks: {} cycles (paper: \"the first\n\
         round of SAD calculations would take 16 clock cycles\")",
        eng16.first_sad_latency()
    ));
    outln(format!("\n16x16 array resources:\n{}", eng16.report()));

    if json {
        metrics.push(metric("first_sad_latency_16", eng16.first_sad_latency()));
        write_json_summary("me_systolic", "E3/E8", &metrics);
    }
}
