//! Placement pins: the oracle for the annealing placer.
//!
//! Placement is deterministic, and its contract is the RNG draw sequence
//! and the f64 summation order of `dsra_core::place::anneal`. Every
//! (netlist, fabric) pair that the runtime, a serving binary or an E1–E10
//! experiment places is compiled here, and three things are pinned per pair:
//!
//! - a digest over every node's site, in node order;
//! - the bits of the final width-weighted HPWL;
//! - the fingerprint of the bitstream that placement routes into.
//!
//! A placer change that moves one draw, reorders one sum or lands one node
//! elsewhere fails this test. The values were captured from the
//! hash-map annealer this one replaced, before it was deleted.

use dsra::core::fabric::{Fabric, MeshSpec};
use dsra::core::netlist::{Netlist, NodeId};
use dsra::dct::{BasicDa, DaParams, DctImpl};
use dsra::platform::{compile_netlist, standard_da_fabric};
use dsra::runtime::{me_fabric_for, DctMapping, KernelId};

/// `(pair, site digest, hpwl bits, bitstream fingerprint)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u128)] = &[
    ("da BASIC DA precise", 0x24cff2ccc313726e, 0x407781431f681620, 0x1bf37f3ac348afa226b7f67054b8136e),
    ("da MIX ROM precise", 0x045bb6976a81a8ce, 0x407b7ae720c95519, 0xf12774e42f784510ca2716e163cd7aea),
    ("da CORDIC 1 precise", 0x896fd89e2afb8c1a, 0x40844a21c302599e, 0x25c36a96f973e697735cd5032b51a3b0),
    ("da CORDIC 2 precise", 0x4971569410d540e0, 0x40805aae3be064a6, 0xdc56fb8b16711df36f8413549fb67a13),
    ("da SCC E/O precise", 0x045bb6976a81a8ce, 0x407b7ae720c95519, 0xf12774e42f784510ca2716e163cd7aea),
    ("da SCC precise", 0x24cff2ccc313726e, 0x407781431f681620, 0xfb2c14faf1d236b9a2427fd998e7f2e2),
    ("da BASIC DA paper", 0xab0e0f0f860e9ab1, 0x4074f56b9c313343, 0x101a3bcd121d9c67da8e556bab7ecfb6),
    ("da MIX ROM paper", 0x1883bc0980b29e76, 0x40786ba35932db1c, 0x4cd9b34ce9e7c8e09e24526268f43a50),
    ("da CORDIC 1 paper", 0xe53c7dae335af6b5, 0x408406286d2fb85c, 0x4849d85591fe8876c2238b92bf2d83d5),
    ("da CORDIC 2 paper", 0xd4537e447205c16d, 0x4080076a5b6dd048, 0x61a5acc2c95fa819fc2aa00a0e40a05c),
    ("da SCC E/O paper", 0x1883bc0980b29e76, 0x40786ba35932db1c, 0x4cd9b34ce9e7c8e09e24526268f43a50),
    ("da SCC paper", 0xab0e0f0f860e9ab1, 0x4074f56b9c313343, 0xe3cfa5dcdec0c33b3b6cda958dffe4ff),
    ("me systolic4", 0xfcbde2efb355cfea, 0x40886590700c9c61, 0xda7beff3fb77a35466dcb7adb37f9ca7),
    ("me systolic8", 0xd1bcde24a5ac160e, 0x4099f9f97f43bd5a, 0x188de3e27230d2b6770c980464e4ba93),
    ("me systolic16", 0x6d8700e50111a8f4, 0x40ad98c6e34858f7, 0x6ab40adc4970ae4b6c0130574e6136f5),
    ("me systolic8 26x20", 0xe471f20919b42d12, 0x409a90ef60117612, 0xd284ded36a66bed4b9d75f5eb5515975),
    ("da BASIC DA 16x12", 0xe258cf6fb21f628b, 0x40773cc3e208ae35, 0xb536858430cc029b7a7c1eeda48cbae1),
];

/// FNV-1a/64 over each node's site in node order; unplaced (wiring) nodes
/// hash as a distinct tag so a node gaining or losing a site shows.
fn site_digest(nl: &Netlist, placement: &dsra::core::place::Placement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for idx in 0..nl.nodes().len() {
        match placement.loc(NodeId(idx as u32)) {
            Some((x, y)) => {
                write(1);
                write(u64::from(x));
                write(u64::from(y));
            }
            None => write(0),
        }
    }
    h
}

/// Every placed (netlist, fabric) pair, labelled by who places it.
fn pairs() -> Vec<(String, Netlist, Fabric)> {
    let mut out = Vec::new();
    // The runtime (and E7 `dynamic_switch`, E9 `dct_energy`, E6
    // `mesh_ablation`'s DCT rows, all on the same 20×14 DA array) compiles
    // every DCT mapping on the standard fabric, under either `DaParams`.
    for (tag, params) in [
        ("precise", DaParams::precise()),
        ("paper", DaParams::paper()),
    ] {
        for mapping in DctMapping::ALL {
            let (nl, _) = KernelId::Dct(mapping).build_netlist(params).unwrap();
            out.push((
                format!("da {} {tag}", mapping.name()),
                nl,
                standard_da_fabric(),
            ));
        }
    }
    // The runtime's lazily compiled systolic ME kernels.
    for block in [4u8, 8, 16] {
        let (nl, _) = KernelId::MeSystolic { block }
            .build_netlist(DaParams::precise())
            .unwrap();
        let fabric = me_fabric_for(&nl);
        out.push((format!("me systolic{block}"), nl, fabric));
    }
    // E6 `mesh_ablation` and E4 `fpga_compare`: systolic 8×8 on a 26×20
    // ME array.
    let (me8, _) = KernelId::MeSystolic { block: 8 }
        .build_netlist(DaParams::precise())
        .unwrap();
    out.push((
        "me systolic8 26x20".to_owned(),
        me8,
        Fabric::me_array(26, 20, MeshSpec::mixed()),
    ));
    // E5 `fpga_compare`: BASIC DA on a 16×12 DA array.
    out.push((
        "da BASIC DA 16x12".to_owned(),
        BasicDa::new(DaParams::precise()).unwrap().netlist().clone(),
        Fabric::da_array(16, 12, MeshSpec::mixed()),
    ));
    out
}

#[test]
fn every_placed_pair_keeps_its_sites_hpwl_and_bitstream() {
    let actual: Vec<(String, u64, u64, u128)> = pairs()
        .into_iter()
        .map(|(label, nl, fabric)| {
            let art = compile_netlist(&nl, &fabric)
                .unwrap_or_else(|e| panic!("{label} failed to compile: {e}"));
            (
                label,
                site_digest(&nl, &art.placement),
                art.placement.hpwl().to_bits(),
                art.bitstream.fingerprint().0,
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, s, h, b)| format!("    (\"{l}\", {s:#018x}, {h:#018x}, {b:#034x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        PINS.len(),
        "pin table out of date; computed:\n{table}"
    );
    for ((label, sites, hpwl, bits), &(pl, ps, ph, pb)) in actual.iter().zip(PINS) {
        assert_eq!(label, pl, "pair order changed; computed:\n{table}");
        assert_eq!(*sites, ps, "{label}: node sites moved; computed:\n{table}");
        assert_eq!(*hpwl, ph, "{label}: HPWL bits moved; computed:\n{table}");
        assert_eq!(*bits, pb, "{label}: bitstream moved; computed:\n{table}");
    }
}
