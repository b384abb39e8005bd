//! End-to-end flow test: every DCT mapping goes netlist → placement →
//! routing → bitstream on one shared fabric, and the full encode loop runs
//! on hardware transforms — the complete story of Fig. 1's SoC.

use dsra::core::{place, route, Bitstream};
use dsra::dct::{all_impls, DaParams};
use dsra::me::SearchParams;
use dsra::platform::{standard_da_fabric, Condition};
use dsra::video::{encode_frame, EncodeConfig, Quantizer, SequenceConfig, SyntheticSequence};

#[test]
fn every_impl_places_routes_and_configures_on_the_shared_array() {
    let fabric = standard_da_fabric();
    let mut bitstreams = Vec::new();
    for imp in all_impls(DaParams::precise()).unwrap() {
        let nl = imp.netlist();
        let placement =
            place(nl, &fabric).unwrap_or_else(|e| panic!("{} placement failed: {e}", imp.name()));
        let routing = route(nl, &fabric, &placement)
            .unwrap_or_else(|e| panic!("{} routing failed: {e}", imp.name()));
        assert!(routing.stats.track_segments > 0, "{}", imp.name());
        let bs = Bitstream::generate(nl, &fabric, &placement, &routing);
        assert!(bs.total_bits() > 0);
        bitstreams.push((imp.name().to_owned(), bs));
    }
    // All configurations differ pairwise — except MIX ROM vs SCC E/O,
    // which are bit-identical by mathematics, not by accident: Li's
    // exponent mapping (±3^e mod 32) is order-preserving on the odd
    // quarter for N=8, so the skew-circular formulation programs exactly
    // the same 16-word ROM contents as the even/odd matrix split. What the
    // SCC adds is the *shared rotated table* property (verified in
    // dsra-dct's structural tests), which a custom memory macro could
    // exploit for ROM sharing.
    for (i, (na, a)) in bitstreams.iter().enumerate() {
        for (nb, b) in bitstreams.iter().skip(i + 1) {
            let twins =
                (na == "MIX ROM" && nb == "SCC E/O") || (na == "SCC E/O" && nb == "MIX ROM");
            if twins {
                assert_eq!(a.diff_bits(b), 0, "{na} vs {nb} should coincide");
            } else {
                assert!(a.diff_bits(b) > 0, "{na} vs {nb} identical?");
            }
        }
    }
}

#[test]
fn encode_loop_runs_on_every_dct_mapping() {
    let seq = SyntheticSequence::generate(SequenceConfig {
        width: 32,
        height: 32,
        frames: 2,
        noise: 1,
        objects: 1,
        ..Default::default()
    });
    let cfg = EncodeConfig {
        search: SearchParams {
            block: 16,
            range: 2,
        },
        quantizer: Quantizer::uniform(10.0),
    };
    for imp in all_impls(DaParams::precise()).unwrap() {
        let (_, stats) = encode_frame(seq.frame(1), seq.frame(0), imp.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} encode failed: {e}", imp.name()));
        assert!(
            stats.psnr_db > 26.0,
            "{}: PSNR {:.1} dB too low",
            imp.name(),
            stats.psnr_db
        );
    }
}

#[test]
fn policy_conditions_pick_sane_impls() {
    use dsra::platform::{profile_all_impls, select, ReconfigManager};
    use dsra::tech::TechModel;
    let fabric = standard_da_fabric();
    let mut mgr = ReconfigManager::default();
    let impls = profile_all_impls(
        DaParams::precise(),
        &fabric,
        &TechModel::default(),
        &mut mgr,
    )
    .unwrap();
    let profiles: Vec<_> = impls.iter().map(|p| p.profile.clone()).collect();
    // Quality: one of the exact-DA mappings (smallest coefficient error).
    let hq = select(&profiles, Condition::HighQuality).unwrap();
    assert!(hq.max_abs_err < 1.0, "{}: err {}", hq.name, hq.max_abs_err);
    // Min area: a 24-cluster column.
    let small = select(&profiles, Condition::MinArea).unwrap();
    assert_eq!(small.clusters, 24);
    // Deadline of 20 cycles/block excludes the two-phase CORDIC paths.
    let fast = select(
        &profiles,
        Condition::Deadline {
            max_cycles_per_block: 20,
        },
    )
    .unwrap();
    assert!(fast.cycles_per_block <= 20);
}
