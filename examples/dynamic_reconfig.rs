//! Dynamic reconfiguration under run-time constraints (§5 / experiment E7):
//! encodes a synthetic sequence, switching DCT implementations when the
//! operating condition changes, and reports the measured partial-
//! reconfiguration costs.
//!
//! ```sh
//! cargo run --release --example dynamic_reconfig
//! ```

use dsra::core::CoreError;
use dsra::dct::DaParams;
use dsra::me::SearchParams;
use dsra::platform::{
    dynamic_encode, profile_all_impls, standard_da_fabric, Condition, ReconfigManager,
};
use dsra::tech::TechModel;
use dsra::video::{EncodeConfig, SequenceConfig, SyntheticSequence};

fn main() -> Result<(), CoreError> {
    // Build, place, route and profile all six DCT mappings on one DA array.
    let fabric = standard_da_fabric();
    let mut manager = ReconfigManager::default();
    let impls = profile_all_impls(
        DaParams::precise(),
        &fabric,
        &TechModel::default(),
        &mut manager,
    )?;
    println!("profiled {} implementations:", impls.len());
    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>14}",
        "impl", "clusters", "cyc/blk", "cfg bits", "energy/blk"
    );
    for p in &impls {
        println!(
            "{:<10} {:>9} {:>10} {:>12} {:>14.1}",
            p.profile.name,
            p.profile.clusters,
            p.profile.cycles_per_block,
            p.profile.config_bits,
            p.profile.energy_per_block
        );
    }

    // Encode a short sequence; the battery alarm fires before frame 3.
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
    let frames = dynamic_encode(seq.frames(), &conditions, &impls, &mut manager, &cfg)?;

    println!("\nframe  condition      impl        PSNR(dB)  reconfig");
    for f in &frames {
        let rc = match f.reconfig {
            Some(r) => format!("{} bits / {} cycles", r.bits_written, r.cycles),
            None => "-".to_owned(),
        };
        println!(
            "{:>5}  {:<13} {:<11} {:>7.2}  {}",
            f.frame_index,
            format!("{:?}", f.condition),
            f.impl_name,
            f.stats.psnr_db,
            rc
        );
    }
    println!(
        "\nThe low-battery switch rewrites only the differing configuration\n\
         frames — the run-time flexibility the paper's conclusion claims."
    );
    Ok(())
}
