//! E10 — the end-to-end mobile-video workload: motion-compensated residual
//! coding with hardware DCT, PSNR/rate across quantiser settings and DCT
//! mappings (the paper's §5 flexibility claim made measurable).
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin pipeline
//! ```

use dsra_bench::{banner, metric, outln, write_json_summary, Args, JsonValue};
use dsra_dct::{BasicDa, Cordic2, DaParams, DctImpl, SccFull};
use dsra_me::SearchParams;
use dsra_video::{encode_frame, EncodeConfig, Quantizer, SequenceConfig, SyntheticSequence};

fn main() {
    let mut args = Args::from_env();
    let json = args.switch("--json");
    args.finish();
    banner("E10", "mini MPEG-4-style encode loop on the arrays");
    let seq = SyntheticSequence::generate(SequenceConfig {
        width: 64,
        height: 64,
        frames: 3,
        pan: (1.0, 0.5),
        objects: 2,
        noise: 2,
        ..Default::default()
    });
    let impls: Vec<Box<dyn DctImpl>> = vec![
        Box::new(BasicDa::new(DaParams::precise()).unwrap()),
        Box::new(SccFull::new(DaParams::precise()).unwrap()),
        Box::new(Cordic2::new(DaParams::precise()).unwrap()),
    ];
    outln(format!(
        "{:<10} {:>6} {:>12} {:>10} {:>12}",
        "impl", "QP", "nz levels", "PSNR dB", "DCT cycles"
    ));
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for imp in &impls {
        for qp in [4.0, 10.0, 24.0] {
            let cfg = EncodeConfig {
                search: SearchParams {
                    block: 16,
                    range: 3,
                },
                quantizer: Quantizer::uniform(qp),
            };
            let (_, stats) = encode_frame(seq.frame(1), seq.frame(0), imp.as_ref(), &cfg).unwrap();
            outln(format!(
                "{:<10} {:>6.0} {:>12} {:>10.2} {:>12}",
                imp.name(),
                qp,
                stats.nonzero_levels,
                stats.psnr_db,
                stats.dct_cycles
            ));
            let key = imp.name().to_lowercase().replace([' ', '/'], "_");
            metrics.push(metric(format!("{key}_qp{qp:.0}_psnr_db"), stats.psnr_db));
            metrics.push(metric(
                format!("{key}_qp{qp:.0}_nonzero_levels"),
                stats.nonzero_levels as u64,
            ));
        }
    }
    outln(
        "\nShape: rate (nonzero levels) falls and PSNR drops as QP grows;\n\
         all mappings sit on the same rate-distortion curve — they are\n\
         interchangeable implementations of one transform.",
    );
    if json {
        write_json_summary("pipeline", "E10", &metrics);
    }
}
