//! Property tests for the bitstream diff and fingerprint algebra — the two
//! primitives the runtime's content-addressed cache and diff-aware
//! scheduler lean on:
//!
//! * `diff_bits(a, a) == 0` (a no-op switch is free),
//! * `diff_bits(a, b) == diff_bits(b, a)` (symmetry),
//! * fingerprint equality is consistent with zero diff: equal netlist
//!   fingerprints compile to bitstreams with equal fingerprints and zero
//!   diff; distinct kernels differ in both.

use std::collections::BTreeMap;

use dsra_core::bitstream::FrameAddr;
use dsra_core::prelude::*;
use dsra_core::rng::SplitMix64;
use proptest::prelude::*;

/// A small parameterised DA-style kernel: an add/sub datapath plus a ROM
/// whose contents are part of the parameter space — the two configuration
/// planes (function bits and memory bits) that dominate real kernels.
fn build(width: u8, mode_sel: u8, rom_word: u64) -> Netlist {
    let cfg = if mode_sel.is_multiple_of(2) {
        AddShiftCfg::Add {
            width,
            serial: false,
        }
    } else {
        AddShiftCfg::Sub {
            width,
            serial: false,
        }
    };
    let mut nl = Netlist::new("prop");
    let a = nl.input("a", width).unwrap();
    let b = nl.input("b", width).unwrap();
    let addr = nl.input("addr", 4).unwrap();
    let add = nl.cluster("add", ClusterCfg::AddShift(cfg)).unwrap();
    let rom = nl
        .cluster(
            "rom",
            ClusterCfg::Memory {
                words: 16,
                width,
                contents: vec![rom_word & ((1u64 << width) - 1); 16],
            },
        )
        .unwrap();
    let y = nl.output("y", width).unwrap();
    let z = nl.output("z", width).unwrap();
    nl.connect((a, "out"), (add, "a")).unwrap();
    nl.connect((b, "out"), (add, "b")).unwrap();
    nl.connect((add, "y"), (y, "in")).unwrap();
    nl.connect((addr, "out"), (rom, "addr")).unwrap();
    nl.connect((rom, "dout"), (z, "in")).unwrap();
    nl
}

fn compile(nl: &Netlist) -> Bitstream {
    let fabric = Fabric::da_array(10, 10, MeshSpec::mixed());
    let p = place(nl, &fabric).unwrap();
    let r = route(nl, &fabric, &p).unwrap();
    Bitstream::generate(nl, &fabric, &p, &r)
}

/// Random frame map over a deliberately small address space, so two
/// independently drawn maps share some keys, miss others (asymmetric key
/// sets) and disagree on word counts (length mismatches) — every branch of
/// the diff.
fn random_frames(seed: u64, frames: u64, max_words: u64) -> BTreeMap<FrameAddr, Vec<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut map = BTreeMap::new();
    for _ in 0..frames {
        let addr = if rng.next_below(2) == 0 {
            FrameAddr::Site {
                x: rng.next_below(4) as u16,
                y: rng.next_below(4) as u16,
            }
        } else {
            FrameAddr::Edge {
                id: rng.next_below(12) as u32,
                bus: rng.next_below(2) == 1,
            }
        };
        let len = 1 + rng.next_below(max_words) as usize;
        map.insert(addr, (0..len).map(|_| rng.next_u64()).collect());
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed merge sweep is exactly the map-based diff, on arbitrary
    /// frame maps — asymmetric keys and mismatched frame lengths included.
    #[test]
    fn prop_packed_diff_agrees_with_map_diff(
        seed_a in 0u64..1 << 48,
        seed_b in 0u64..1 << 48,
        frames_a in 0u64..24,
        frames_b in 0u64..24,
        max_words in 1u64..6,
    ) {
        let a = Bitstream::from_frames(random_frames(seed_a, frames_a, max_words));
        let b = Bitstream::from_frames(random_frames(seed_b, frames_b, max_words));
        prop_assert_eq!(a.diff_bits_packed(&b), a.diff_bits_map(&b));
        prop_assert_eq!(b.diff_bits_packed(&a), a.diff_bits_packed(&b), "symmetry");
        prop_assert_eq!(a.diff_bits_packed(&a), 0);
        prop_assert_eq!(b.diff_bits_packed(&b), 0);
    }

    /// Packing a frame map and reading frames back through the packed index
    /// round-trips every frame (and only those frames).
    #[test]
    fn prop_packing_round_trips(
        seed in 0u64..1 << 48,
        frames in 0u64..24,
        max_words in 1u64..6,
    ) {
        let map = random_frames(seed, frames, max_words);
        let bs = Bitstream::from_frames(map.clone());
        for (addr, words) in &map {
            prop_assert_eq!(bs.packed_frame(*addr), Some(words.as_slice()));
        }
        let absent = FrameAddr::Site { x: u16::MAX, y: u16::MAX };
        prop_assert_eq!(bs.packed_frame(absent), None);
        prop_assert_eq!(bs.frame_count(), map.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_self_diff_is_zero(width in 4u8..=12, mode in 0u8..3, word in 0u64..256) {
        let nl = build(width, mode, word);
        let bs = compile(&nl);
        prop_assert_eq!(bs.diff_bits(&bs), 0);
        // An independently recompiled identical netlist also diffs to zero:
        // the whole pipeline is deterministic.
        let again = compile(&build(width, mode, word));
        prop_assert_eq!(bs.diff_bits(&again), 0);
        prop_assert_eq!(bs.fingerprint(), again.fingerprint());
    }

    #[test]
    fn prop_diff_is_symmetric(
        width in 4u8..=12,
        mode_a in 0u8..3,
        mode_b in 0u8..3,
        word_a in 0u64..256,
        word_b in 0u64..256,
    ) {
        let a = compile(&build(width, mode_a, word_a));
        let b = compile(&build(width, mode_b, word_b));
        prop_assert_eq!(a.diff_bits(&b), b.diff_bits(&a));
    }

    #[test]
    fn prop_fingerprint_equality_matches_zero_diff(
        width in 4u8..=12,
        mode_a in 0u8..3,
        mode_b in 0u8..3,
        word_a in 0u64..64,
        word_b in 0u64..64,
    ) {
        let nl_a = build(width, mode_a, word_a);
        let nl_b = build(width, mode_b, word_b);
        let bs_a = compile(&nl_a);
        let bs_b = compile(&nl_b);
        if nl_a.fingerprint() == nl_b.fingerprint() {
            // Same content address → identical compiled configuration.
            prop_assert_eq!(bs_a.fingerprint(), bs_b.fingerprint());
            prop_assert_eq!(bs_a.diff_bits(&bs_b), 0);
        } else {
            // Distinct kernels differ somewhere in the configuration planes
            // (mode or ROM contents), so a switch writes real bits.
            prop_assert!(bs_a.diff_bits(&bs_b) > 0);
            prop_assert_ne!(bs_a.fingerprint(), bs_b.fingerprint());
        }
    }
}
