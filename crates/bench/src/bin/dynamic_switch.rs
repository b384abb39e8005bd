//! E7 — dynamic reconfiguration (§5): switching costs between all pairs of
//! DCT configurations on the shared DA array, plus the battery-drop encode
//! scenario.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin dynamic_switch
//! ```

use dsra_bench::{banner, metric, out, outln, write_file, write_json_summary, Args};
use dsra_dct::DaParams;
use dsra_me::SearchParams;
use dsra_platform::{
    dynamic_encode, profile_all_impls, standard_da_fabric, Condition, ReconfigManager,
};
use dsra_profile::{frame_label, Flame};
use dsra_sim::ExecPlan;
use dsra_tech::TechModel;
use dsra_video::{EncodeConfig, SequenceConfig, SyntheticSequence};

fn main() {
    let mut args = Args::from_env();
    let profile_out = args.value("--profile-out");
    let json = args.switch("--json");
    args.finish();
    banner(
        "E7",
        "§5 claim: dynamic reconfiguration under run-time constraints",
    );
    let fabric = standard_da_fabric();
    let mut mgr = ReconfigManager::default();
    let impls = profile_all_impls(
        DaParams::precise(),
        &fabric,
        &TechModel::default(),
        &mut mgr,
    )
    .unwrap();

    // Pairwise switching costs.
    outln("\npartial-reconfiguration cost matrix (bits to rewrite):");
    let names: Vec<String> = impls.iter().map(|p| p.profile.name.clone()).collect();
    out(format!("{:<10}", ""));
    for n in &names {
        out(format!("{n:>10}"));
    }
    outln("");
    for from in &names {
        mgr.switch_to(from).unwrap();
        out(format!("{from:<10}"));
        for to in &names {
            let rep = mgr.switch_to(to).unwrap();
            out(format!("{:>10}", rep.bits_written));
            mgr.switch_to(from).unwrap();
        }
        outln("");
    }

    // Battery-drop scenario.
    let seq = SyntheticSequence::generate(SequenceConfig {
        width: 48,
        height: 48,
        frames: 5,
        ..Default::default()
    });
    let conditions = [
        Condition::HighQuality,
        Condition::HighQuality,
        Condition::LowBattery { charge_pct: 18 },
        Condition::LowBattery { charge_pct: 14 },
    ];
    let cfg = EncodeConfig {
        search: SearchParams {
            block: 16,
            range: 3,
        },
        ..Default::default()
    };
    let mut mgr = ReconfigManager::default();
    let impls = profile_all_impls(
        DaParams::precise(),
        &fabric,
        &TechModel::default(),
        &mut mgr,
    )
    .unwrap();
    let frames = dynamic_encode(seq.frames(), &conditions, &impls, &mut mgr, &cfg).unwrap();
    outln("\nbattery-drop scenario:");
    outln("frame  condition      impl        PSNR(dB)  reconfig cost");
    for f in &frames {
        let rc = match f.reconfig {
            Some(r) => format!(
                "{} bits, {} cycles ({:.2} us)",
                r.bits_written, r.cycles, r.micros
            ),
            None => "-".to_owned(),
        };
        outln(format!(
            "{:>5}  {:<13} {:<11} {:>7.2}  {}",
            f.frame_index,
            format!("{:?}", f.condition),
            f.impl_name,
            f.stats.psnr_db,
            rc
        ));
    }

    // `--profile-out <file>`: E7 has no SocRuntime, so the flamegraph is
    // built straight from the frame schedule — each frame's DCT cycles
    // split over its implementation's op mix, switch costs under a
    // reconfig leaf. Same folded format as the runtime experiments.
    if let Some(path) = profile_out {
        let mut flame = Flame::new();
        for f in &frames {
            let imp = impls
                .iter()
                .find(|p| p.profile.name == f.impl_name)
                .expect("scenario frame names a profiled impl");
            let mix = ExecPlan::compile(imp.implementation.netlist())
                .expect("scenario netlists compile")
                .op_mix();
            let name = frame_label(&f.impl_name);
            for (class, share) in mix.attribute(f.stats.dct_cycles) {
                flame.add(
                    &format!("soc;array0;kernel:{name};op:{}", class.tag()),
                    share,
                );
            }
            if let Some(r) = f.reconfig {
                flame.add(&format!("soc;array0;kernel:{name};reconfig"), r.cycles);
            }
        }
        write_file(&path, flame.render());
    }

    if json {
        let total_bits: u64 = frames
            .iter()
            .filter_map(|f| f.reconfig.map(|r| r.bits_written))
            .sum();
        let switches = frames.iter().filter(|f| f.reconfig.is_some()).count() as u64;
        let min_psnr = frames
            .iter()
            .map(|f| f.stats.psnr_db)
            .fold(f64::INFINITY, f64::min);
        write_json_summary(
            "dynamic_switch",
            "E7",
            &[
                metric("frames", frames.len() as u64),
                metric("switches", switches),
                metric("total_reconfig_bits", total_bits),
                metric("min_psnr_db", min_psnr),
            ],
        );
    }
}
