//! Reference pins: the oracle for the payload path's precomputed tables and
//! for recorded switching activity.
//!
//! Three things the served payloads and the power model read are pinned
//! bit for bit:
//!
//! - the `to_bits` of every output of the reference transforms
//!   (`dct_1d`, `idct_1d`, `dct_2d`, `idct_2d`) over 1 200 seeded blocks,
//!   from pixel-range integers up to ±2^20 magnitudes;
//! - every pixel of `SyntheticSequence` frames under odd sizes,
//!   fractional pans, noise 0 and 3 and one to three objects;
//! - the net and node toggle totals and lane-cycles that
//!   `profiling_activity` records for each of the runtime's 15 kernels;
//! - the `energy_per_block` of every DCT mapping the runtime offers, as
//!   `SocRuntime::profiles` prices it under both `DaParams`.
//!
//! A change that reorders one f64 sum, moves one RNG draw or drops one
//! toggle fails here. The values were captured from the per-coefficient
//! `cos` transforms, the per-pixel background trig and the simulator that
//! counted toggles on every run, before each was replaced.

use dsra::core::netlist::{NetId, NodeId};
use dsra::core::rng::{fnv1a_fold, SplitMix64};
use dsra::dct::reference::{dct_1d, dct_2d, idct_1d, idct_2d, N};
use dsra::dct::DaParams;
use dsra::platform::profiling_activity;
use dsra::runtime::{DctMapping, KernelId, RuntimeConfig, SocRuntime};
use dsra::video::{SequenceConfig, SyntheticSequence};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// `(dct_1d, idct_1d, dct_2d, idct_2d)` digests.
const TRANSFORM_PINS: (u64, u64, u64, u64) = (
    0x0c85_1619_bdfc_e5f7,
    0x4df8_b0cb_1449_4f52,
    0x071e_2715_c5e2_fc92,
    0xa127_59f1_13ec_edfc,
);

/// `(label, frame digest)`.
const SEQUENCE_PINS: &[(&str, u64)] = &[
    ("odd 33x17 pan 1.5/-0.5 noise 0 obj 1", 0xdee7bb4a82875ef2),
    ("odd 47x29 pan 0.25/0.75 noise 3 obj 2", 0x9e553920bcc4b2cb),
    ("32x32 pan -1.125/2.375 noise 3 obj 3", 0xaad4663e4b595756),
    ("odd 21x35 pan 0.1/-0.3 noise 0 obj 3", 0x30ddccfe657a2bab),
    ("default 96x96", 0x95038cae8ac6235f),
];

/// `(kernel, total net toggles, total node toggles, lane-cycles, digest of
/// the per-net then per-node toggle counts)`.
#[rustfmt::skip]
const ACTIVITY_PINS: &[(&str, u64, u64, u64, u64)] = &[
    ("da BASIC DA precise", 8132, 471, 128, 0xffc0480a0ce789e0),
    ("da MIX ROM precise", 15994, 471, 128, 0x5939b9c6ab1baf4c),
    ("da CORDIC 1 precise", 16184, 502, 128, 0x1b7b937eb1da04ad),
    ("da CORDIC 2 precise", 16339, 428, 128, 0xc92c2407d01ec0d8),
    ("da SCC E/O precise", 15994, 471, 128, 0x5939b9c6ab1baf4c),
    ("da SCC precise", 8132, 471, 128, 0x4e1a446044424f80),
    ("da BASIC DA paper", 6874, 471, 128, 0x0310a015aebebbd6),
    ("da MIX ROM paper", 14590, 471, 128, 0x994ec8be00799a68),
    ("da CORDIC 1 paper", 15593, 502, 128, 0xa5c10098cb20e98e),
    ("da CORDIC 2 paper", 15889, 428, 128, 0xeea0d118a46213fa),
    ("da SCC E/O paper", 14590, 471, 128, 0x994ec8be00799a68),
    ("da SCC paper", 6874, 471, 128, 0xe7ad4fda5b054e36),
    ("me systolic4", 28430, 1905, 128, 0x3abf7e9011579e5e),
    ("me systolic8", 57198, 3429, 128, 0x165093361a6eaa22),
    ("me systolic16", 120912, 6477, 128, 0x7fbb7822a165d706),
];

/// `(params tag, mapping, energy_per_block.to_bits())`.
#[rustfmt::skip]
const ENERGY_PINS: &[(&str, &str, u64)] = &[
    ("precise", "BASIC DA", 0x40f73d8ce9c93f16),
    ("precise", "MIX ROM", 0x40d5aac3c44a1794),
    ("precise", "CORDIC 1", 0x40efa103127cb51b),
    ("precise", "CORDIC 2", 0x40e9aabd0f0b0b32),
    ("precise", "SCC E/O", 0x40d5aac3c44a1794),
    ("precise", "SCC", 0x40f73d8ce9c93f16),
    ("paper", "BASIC DA", 0x40e91d790da86f25),
    ("paper", "MIX ROM", 0x40d07a27003a4115),
    ("paper", "CORDIC 1", 0x40e36587db95c18d),
    ("paper", "CORDIC 2", 0x40de8b2a3a9e81e9),
    ("paper", "SCC E/O", 0x40d07a27003a4115),
    ("paper", "SCC", 0x40e9205712958f32),
];

/// Block `k` of the seeded corpus. Every fourth block is drawn from one of
/// four magnitude classes: signed pixel-range integers, fractional values
/// in ±255, values in ±2^20, and exact ±2^20 endpoints mixed with small
/// fractions.
fn block(rng: &mut SplitMix64, k: usize) -> [[f64; N]; N] {
    const BIG: f64 = (1u64 << 20) as f64;
    std::array::from_fn(|_| {
        std::array::from_fn(|_| match k % 4 {
            0 => rng.next_below(256) as f64 - 128.0,
            1 => (rng.next_f64() * 2.0 - 1.0) * 255.0,
            2 => (rng.next_f64() * 2.0 - 1.0) * BIG,
            _ => match rng.next_below(3) {
                0 => BIG,
                1 => -BIG,
                _ => rng.next_f64() - 0.5,
            },
        })
    })
}

fn fold_row(h: u64, row: &[f64; N]) -> u64 {
    row.iter().fold(h, |h, v| fnv1a_fold(h, v.to_bits()))
}

fn fold_block(h: u64, b: &[[f64; N]; N]) -> u64 {
    b.iter().fold(h, fold_row)
}

fn transform_digests() -> (u64, u64, u64, u64) {
    let mut rng = SplitMix64::new(0xDC7_B175);
    let (mut d1, mut i1, mut d2, mut i2) = (FNV_SEED, FNV_SEED, FNV_SEED, FNV_SEED);
    for k in 0..1200 {
        let b = block(&mut rng, k);
        for row in &b {
            d1 = fold_row(d1, &dct_1d(row));
            i1 = fold_row(i1, &idct_1d(row));
        }
        d2 = fold_block(d2, &dct_2d(&b));
        i2 = fold_block(i2, &idct_2d(&b));
    }
    (d1, i1, d2, i2)
}

fn sequence_configs() -> Vec<(&'static str, SequenceConfig)> {
    let base = SequenceConfig::default();
    vec![
        (
            "odd 33x17 pan 1.5/-0.5 noise 0 obj 1",
            SequenceConfig {
                width: 33,
                height: 17,
                frames: 3,
                pan: (1.5, -0.5),
                objects: 1,
                noise: 0,
                seed: 0x5EED,
            },
        ),
        (
            "odd 47x29 pan 0.25/0.75 noise 3 obj 2",
            SequenceConfig {
                width: 47,
                height: 29,
                frames: 4,
                pan: (0.25, 0.75),
                objects: 2,
                noise: 3,
                seed: 0xF4A3,
            },
        ),
        (
            "32x32 pan -1.125/2.375 noise 3 obj 3",
            SequenceConfig {
                width: 32,
                height: 32,
                frames: 3,
                pan: (-1.125, 2.375),
                objects: 3,
                noise: 3,
                seed: 7,
            },
        ),
        (
            "odd 21x35 pan 0.1/-0.3 noise 0 obj 3",
            SequenceConfig {
                width: 21,
                height: 35,
                frames: 2,
                pan: (0.1, -0.3),
                objects: 3,
                noise: 0,
                seed: 0xABCD,
            },
        ),
        ("default 96x96", base),
    ]
}

fn sequence_digest(config: SequenceConfig) -> u64 {
    let seq = SyntheticSequence::generate(config);
    let mut h = FNV_SEED;
    for frame in seq.frames() {
        h = fnv1a_fold(h, frame.width() as u64);
        h = fnv1a_fold(h, frame.height() as u64);
        for &p in frame.data() {
            h = fnv1a_fold(h, u64::from(p));
        }
    }
    h
}

/// The runtime's 15 kernels: every DCT mapping under both `DaParams`, and
/// the three systolic ME blocks.
fn runtime_kernels() -> Vec<(String, dsra::core::Netlist)> {
    let mut out = Vec::new();
    for (tag, params) in [
        ("precise", DaParams::precise()),
        ("paper", DaParams::paper()),
    ] {
        for mapping in DctMapping::ALL {
            let (nl, _) = KernelId::Dct(mapping).build_netlist(params).unwrap();
            out.push((format!("da {} {tag}", mapping.name()), nl));
        }
    }
    for block in [4u8, 8, 16] {
        let (nl, _) = KernelId::MeSystolic { block }
            .build_netlist(DaParams::precise())
            .unwrap();
        out.push((format!("me systolic{block}"), nl));
    }
    out
}

#[test]
fn reference_transforms_keep_every_bit() {
    let actual = transform_digests();
    assert_eq!(
        actual, TRANSFORM_PINS,
        "reference transform digests moved: actual {actual:#018x?}"
    );
}

#[test]
fn synthetic_sequences_keep_every_pixel() {
    let actual: Vec<(&str, u64)> = sequence_configs()
        .into_iter()
        .map(|(label, config)| (label, sequence_digest(config)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, SEQUENCE_PINS,
        "sequence digests moved; actual:\n{table}"
    );
}

#[test]
fn profiling_activity_keeps_its_toggle_totals() {
    let actual: Vec<(String, u64, u64, u64, u64)> = runtime_kernels()
        .into_iter()
        .map(|(label, nl)| {
            let act = profiling_activity(&nl).unwrap();
            let nets = (0..nl.nets().len()).map(|i| act.net_toggles(NetId(i as u32)));
            let nodes = (0..nl.nodes().len()).map(|i| act.node_toggles(NodeId(i as u32)));
            let digest = nets.chain(nodes).fold(FNV_SEED, fnv1a_fold);
            (
                label,
                act.total_net_toggles(),
                act.total_node_toggles(),
                act.cycles(),
                digest,
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, n, d, c, h)| format!("    (\"{l}\", {n}, {d}, {c}, {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64, u64, u64)> = ACTIVITY_PINS
        .iter()
        .map(|&(l, n, d, c, h)| (l.to_owned(), n, d, c, h))
        .collect();
    assert_eq!(actual, expected, "activity totals moved; actual:\n{table}");
}

#[test]
fn runtime_profiles_keep_their_energy_per_block() {
    let mut actual = Vec::new();
    for (tag, params) in [
        ("precise", DaParams::precise()),
        ("paper", DaParams::paper()),
    ] {
        let rt = SocRuntime::new(RuntimeConfig {
            da_params: params,
            ..Default::default()
        })
        .unwrap();
        for p in rt.profiles() {
            actual.push((tag, p.name.clone(), p.energy_per_block.to_bits()));
        }
    }
    let table: String = actual
        .iter()
        .map(|(t, n, b)| format!("    (\"{t}\", \"{n}\", {b:#018x}),\n"))
        .collect();
    let expected: Vec<(&str, String, u64)> = ENERGY_PINS
        .iter()
        .map(|&(t, n, b)| (t, n.to_owned(), b))
        .collect();
    assert_eq!(actual, expected, "profile energies moved; actual:\n{table}");
}
