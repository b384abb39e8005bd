//! E7 pins: the reconfiguration costs `dynamic_switch` prints.
//!
//! Two things are pinned, with the binary's own setup (the six DCT
//! mappings at `DaParams::precise()` on the standard DA fabric):
//!
//! - the 6×6 matrix of bits `ReconfigManager::switch_to` rewrites between
//!   every ordered pair of mappings;
//! - every `ReconfigReport` of the battery-drop `dynamic_encode` scenario,
//!   on a fresh manager: bits written, configuration-bus cycles and the
//!   bits of the `micros` f64.
//!
//! A change to bitstream diffing, the configuration-bus pricing or the
//! policy's choice of mapping fails this test.

use dsra::dct::DaParams;
use dsra::me::SearchParams;
use dsra::platform::{
    dynamic_encode, profile_all_impls, standard_da_fabric, Condition, ProfiledImpl, ReconfigManager,
};
use dsra::tech::TechModel;
use dsra::video::{EncodeConfig, SequenceConfig, SyntheticSequence};

/// The mappings in `profile_all_impls` order, which is the matrix order.
const NAMES: [&str; 6] = [
    "BASIC DA", "MIX ROM", "CORDIC 1", "CORDIC 2", "SCC E/O", "SCC",
];

/// `MATRIX[from][to]`: bits written switching from `from` to `to`.
#[rustfmt::skip]
const MATRIX: [[u64; 6]; 6] = [
    [0, 14489, 14731, 14603, 14489, 13002],
    [14489, 0, 1382, 1290, 0, 14499],
    [14731, 1382, 0, 750, 1382, 14731],
    [14603, 1290, 750, 0, 1290, 14603],
    [14489, 0, 1382, 1290, 0, 14499],
    [13002, 14499, 14731, 14603, 14499, 0],
];

/// `(bits_written, cycles, micros bits)` of one switch.
type Switch = (u64, u64, u64);

/// Per scenario frame: the mapping and its switch, if it switched.
#[rustfmt::skip]
const SCENARIO: [(&str, Option<Switch>); 4] = [
    ("BASIC DA", Some((33549, 1049, 0x4024fae147ae147b))),
    ("BASIC DA", None),
    ("MIX ROM", Some((14489, 453, 0x40121eb851eb851f))),
    ("MIX ROM", None),
];

fn profiled(mgr: &mut ReconfigManager) -> Vec<ProfiledImpl> {
    profile_all_impls(
        DaParams::precise(),
        &standard_da_fabric(),
        &TechModel::default(),
        mgr,
    )
    .expect("the six mappings profile")
}

#[test]
fn switch_matrix_is_pinned() {
    let mut mgr = ReconfigManager::default();
    let impls = profiled(&mut mgr);
    let names: Vec<&str> = impls.iter().map(|p| p.profile.name.as_str()).collect();
    assert_eq!(names, NAMES);
    for (from, row) in NAMES.iter().zip(MATRIX) {
        mgr.switch_to(from).unwrap();
        for (to, bits) in NAMES.iter().zip(row) {
            let rep = mgr.switch_to(to).unwrap();
            assert_eq!(rep.bits_written, bits, "{from} -> {to}");
            mgr.switch_to(from).unwrap();
        }
    }
}

#[test]
fn battery_drop_reconfig_reports_are_pinned() {
    let mut mgr = ReconfigManager::default();
    let impls = profiled(&mut mgr);
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
    let frames = dynamic_encode(seq.frames(), &conditions, &impls, &mut mgr, &cfg).unwrap();
    let got: Vec<(&str, Option<Switch>)> = frames
        .iter()
        .map(|f| {
            let rep = f
                .reconfig
                .map(|r| (r.bits_written, r.cycles, r.micros.to_bits()));
            (f.impl_name.as_str(), rep)
        })
        .collect();
    assert_eq!(got, SCENARIO);
}
