//! Bitstream assembly and partial-reconfiguration accounting.
//!
//! A [`Bitstream`] gathers every configuration bit a mapped design needs:
//! cluster function/mode bits (including LUT/ROM contents) and routing switch
//! bits. Two bitstreams for the *same fabric* can be diffed to obtain the
//! number of bits that must actually be rewritten when dynamically switching
//! between implementations — the quantity behind the paper's run-time
//! reconfiguration claim (§5) and experiment E7.

use std::collections::BTreeMap;

use crate::fabric::Fabric;
use crate::netlist::{Netlist, NodeKind};
use crate::place::Placement;
use crate::route::{Routing, TrackClass};

/// Configuration frame address: where on the fabric a group of bits lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameAddr {
    /// Cluster site frame.
    Site {
        /// Site x coordinate.
        x: u16,
        /// Site y coordinate.
        y: u16,
    },
    /// Routing frame for one mesh edge and track class.
    Edge {
        /// Edge id from the router's grid.
        id: u32,
        /// `true` for the bus-track plane, `false` for bit tracks.
        bus: bool,
    },
}

/// A fully assembled configuration for one fabric.
///
/// Besides the per-frame map, a bitstream carries a canonical **packed**
/// representation built once at generation time: a sorted frame index over
/// one contiguous word plane. Diffing two packed bitstreams is a single
/// merge sweep of XOR + popcount over word slices — no `BTreeSet` of keys,
/// no per-frame map lookups, no allocation (see [`Bitstream::diff_bits_packed`]).
#[derive(Debug, Clone, Default)]
pub struct Bitstream {
    frames: BTreeMap<FrameAddr, Vec<u64>>,
    cluster_bits: u64,
    routing_bits: u64,
    /// Sorted `(frame, start, len)` index into `words` (frame-address order,
    /// mirroring the `BTreeMap` iteration order).
    index: Vec<(FrameAddr, u32, u32)>,
    /// All frame words, contiguous, in index order.
    words: Vec<u64>,
}

impl Bitstream {
    /// Assembles the bitstream of a placed-and-routed design.
    ///
    /// The per-frame words are a deterministic encoding of the cluster
    /// configuration (function select, element modes, memory contents) and of
    /// the occupied routing lanes, so that diffing two bitstreams counts real
    /// configuration differences.
    pub fn generate(
        netlist: &Netlist,
        _fabric: &Fabric,
        placement: &Placement,
        routing: &Routing,
    ) -> Self {
        let mut bs = Bitstream::default();
        for (idx, node) in netlist.nodes().iter().enumerate() {
            let id = crate::netlist::NodeId(idx as u32);
            if let NodeKind::Cluster(cfg) = &node.kind {
                if let Some((x, y)) = placement.loc(id) {
                    let words = encode_cluster(cfg);
                    bs.cluster_bits += u64::from(cfg.config_bits());
                    bs.frames.insert(FrameAddr::Site { x, y }, words);
                }
            }
        }
        for route in &routing.routes {
            for edge in &route.edges {
                let addr = FrameAddr::Edge {
                    id: edge.0,
                    bus: route.class == TrackClass::Bus,
                };
                let word = bs.frames.entry(addr).or_insert_with(|| vec![0]);
                // Each lane sets one bit in the edge frame.
                word[0] |= (1u64 << route.lanes.min(63)) - 1;
            }
            let lane_bits = u64::from(route.lanes);
            bs.routing_bits += (route.edges.len() as u64 + 2) * lane_bits;
        }
        bs.pack();
        bs
    }

    /// Builds a bitstream directly from a frame map — for diff algebra
    /// tests and synthetic workloads. Only the frames (and therefore
    /// [`Bitstream::diff_bits`] / [`Bitstream::fingerprint`]) are
    /// meaningful; the cluster/routing bit totals of a synthetic stream are
    /// zero.
    pub fn from_frames(frames: BTreeMap<FrameAddr, Vec<u64>>) -> Self {
        let mut bs = Bitstream {
            frames,
            ..Bitstream::default()
        };
        bs.pack();
        bs
    }

    /// Rebuilds the packed index/word plane from the frame map.
    fn pack(&mut self) {
        self.index.clear();
        self.words.clear();
        self.index.reserve(self.frames.len());
        for (addr, words) in &self.frames {
            let start = self.words.len() as u32;
            self.words.extend_from_slice(words);
            self.index.push((*addr, start, words.len() as u32));
        }
    }

    /// The packed words of one frame, if present (binary search over the
    /// sorted index).
    pub fn packed_frame(&self, addr: FrameAddr) -> Option<&[u64]> {
        let i = self
            .index
            .binary_search_by(|&(a, _, _)| a.cmp(&addr))
            .ok()?;
        let (_, start, len) = self.index[i];
        Some(&self.words[start as usize..(start + len) as usize])
    }

    /// Total configuration bits (clusters + routing).
    pub fn total_bits(&self) -> u64 {
        self.cluster_bits + self.routing_bits
    }

    /// Cluster-only configuration bits.
    pub fn cluster_bits(&self) -> u64 {
        self.cluster_bits
    }

    /// Routing-only configuration bits.
    pub fn routing_bits(&self) -> u64 {
        self.routing_bits
    }

    /// Number of frames carrying configuration.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Stable content hash over every configuration frame.
    ///
    /// Two bitstreams with equal fingerprints are frame-for-frame identical,
    /// so their [`Bitstream::diff_bits`] is zero and a cache may share one
    /// copy for both. Netlists with equal [`Netlist::fingerprint`]s compile
    /// to bitstreams with equal fingerprints on the same fabric (the whole
    /// pipeline is deterministic).
    pub fn fingerprint(&self) -> crate::netlist::Fingerprint {
        let mut h = crate::netlist::FnvHasher::new();
        h.write_u64(self.cluster_bits);
        h.write_u64(self.routing_bits);
        h.write_u64(self.frames.len() as u64);
        for (addr, words) in &self.frames {
            match addr {
                FrameAddr::Site { x, y } => {
                    h.write_u64(0x51);
                    h.write_u64(u64::from(*x));
                    h.write_u64(u64::from(*y));
                }
                FrameAddr::Edge { id, bus } => {
                    h.write_u64(0x52);
                    h.write_u64(u64::from(*id));
                    h.write_u64(u64::from(*bus));
                }
            }
            h.write_u64(words.len() as u64);
            for w in words {
                h.write_u64(*w);
            }
        }
        h.finish()
    }

    /// Bits that differ between two configurations of the same fabric — the
    /// cost of a partial reconfiguration from `self` to `other`.
    ///
    /// Frames present on only one side count in full (they must be written
    /// or cleared). Delegates to the packed sweep
    /// ([`Bitstream::diff_bits_packed`]); the original map walk survives as
    /// [`Bitstream::diff_bits_map`], the reference the property tests hold
    /// the fast path against.
    pub fn diff_bits(&self, other: &Bitstream) -> u64 {
        self.diff_bits_packed(other)
    }

    /// Allocation-free diff over the packed representation: one merge walk
    /// of the two sorted frame indexes, XOR + popcount over the word planes.
    pub fn diff_bits_packed(&self, other: &Bitstream) -> u64 {
        let mut bits = 0u64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.index.len() && j < other.index.len() {
            let (ka, sa, la) = self.index[i];
            let (kb, sb, lb) = other.index[j];
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    bits += ones(&self.words[sa as usize..(sa + la) as usize]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    bits += ones(&other.words[sb as usize..(sb + lb) as usize]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let a = &self.words[sa as usize..(sa + la) as usize];
                    let b = &other.words[sb as usize..(sb + lb) as usize];
                    let common = a.len().min(b.len());
                    for (wa, wb) in a[..common].iter().zip(&b[..common]) {
                        bits += u64::from((wa ^ wb).count_ones());
                    }
                    bits += ones(&a[common..]);
                    bits += ones(&b[common..]);
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(_, s, l) in &self.index[i..] {
            bits += ones(&self.words[s as usize..(s + l) as usize]);
        }
        for &(_, s, l) in &other.index[j..] {
            bits += ones(&other.words[s as usize..(s + l) as usize]);
        }
        bits
    }

    /// The original map-based diff (BTreeSet key union + per-frame
    /// lookups), kept as the executable specification of
    /// [`Bitstream::diff_bits_packed`].
    pub fn diff_bits_map(&self, other: &Bitstream) -> u64 {
        let mut bits = 0u64;
        let keys: std::collections::BTreeSet<_> = self
            .frames
            .keys()
            .chain(other.frames.keys())
            .copied()
            .collect();
        for key in keys {
            match (self.frames.get(&key), other.frames.get(&key)) {
                (Some(a), Some(b)) => {
                    let len = a.len().max(b.len());
                    for i in 0..len {
                        let wa = a.get(i).copied().unwrap_or(0);
                        let wb = b.get(i).copied().unwrap_or(0);
                        bits += u64::from((wa ^ wb).count_ones());
                    }
                }
                (Some(a), None) | (None, Some(a)) => {
                    bits += a.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                }
                (None, None) => unreachable!(),
            }
        }
        bits
    }
}

/// Total set bits in a word slice.
fn ones(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

pub(crate) fn encode_cluster(cfg: &crate::cluster::ClusterCfg) -> Vec<u64> {
    use crate::cluster::{AbsDiffMode, AddOp, AddShiftCfg, ClusterCfg, CompMode};
    // Deterministic structural encoding; field layout is arbitrary but
    // stable, which is all diffing requires.
    let mut words = Vec::new();
    let tag = |t: u64, payload: u64| (t << 56) | (payload & 0x00FF_FFFF_FFFF_FFFF);
    match cfg {
        ClusterCfg::RegMux { width, registered } => {
            words.push(tag(1, (u64::from(*width) << 1) | u64::from(*registered)));
        }
        ClusterCfg::AbsDiff { width, mode } => {
            let m = match mode {
                AbsDiffMode::Add => 0u64,
                AbsDiffMode::Sub => 1,
                AbsDiffMode::AbsDiff => 2,
            };
            words.push(tag(2, (u64::from(*width) << 2) | m));
        }
        ClusterCfg::AddAcc {
            width,
            op,
            accumulate,
        } => {
            let m = (matches!(op, AddOp::Sub) as u64) | ((*accumulate as u64) << 1);
            words.push(tag(3, (u64::from(*width) << 2) | m));
        }
        ClusterCfg::Comparator {
            width,
            index_width,
            mode,
        } => {
            let m = match mode {
                CompMode::Min => 0u64,
                CompMode::Max => 1,
                CompMode::StreamMin => 2,
                CompMode::StreamMax => 3,
            };
            words.push(tag(
                4,
                (u64::from(*width) << 10) | (u64::from(*index_width) << 2) | m,
            ));
        }
        ClusterCfg::AddShift(as_cfg) => {
            let payload = match as_cfg {
                AddShiftCfg::Add { width, serial } => {
                    (u64::from(*width) << 3) | (u64::from(*serial) << 2)
                }
                AddShiftCfg::Sub { width, serial } => {
                    (u64::from(*width) << 3) | (u64::from(*serial) << 2) | 1
                }
                AddShiftCfg::SerialReg { width } => (u64::from(*width) << 3) | 2,
                AddShiftCfg::ShiftAcc {
                    acc_width,
                    data_width,
                } => (u64::from(*acc_width) << 11) | (u64::from(*data_width) << 3) | 3,
            };
            words.push(tag(5, payload));
        }
        ClusterCfg::Memory {
            words: nwords,
            width,
            contents,
        } => {
            words.push(tag(6, (u64::from(*nwords) << 8) | u64::from(*width)));
            // Pack contents, `width` bits per word, into 64-bit frames.
            let mut acc = 0u64;
            let mut used = 0u8;
            for &w in contents {
                let mut remaining = *width;
                let mut value = w;
                while remaining > 0 {
                    // `take` is at most 32 because cluster widths are <= 32.
                    let take = remaining.min(64 - used);
                    acc |= (value & ((1u64 << take) - 1)) << used;
                    value = value.checked_shr(u32::from(take)).unwrap_or(0);
                    used += take;
                    remaining -= take;
                    if used == 64 {
                        words.push(acc);
                        acc = 0;
                        used = 0;
                    }
                }
            }
            if used > 0 {
                words.push(acc);
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AbsDiffMode, ClusterCfg};
    use crate::fabric::MeshSpec;
    use crate::place::place;
    use crate::route::route;

    fn build(mode: AbsDiffMode) -> (Netlist, Fabric, Placement, Routing) {
        let mut nl = Netlist::new("b");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let y = nl.output("y", 8).unwrap();
        let ad = nl
            .cluster("ad", ClusterCfg::AbsDiff { width: 8, mode })
            .unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        let f = Fabric::me_array(8, 8, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        let r = route(&nl, &f, &p).unwrap();
        (nl, f, p, r)
    }

    #[test]
    fn identical_configs_diff_zero() {
        let (nl, f, p, r) = build(AbsDiffMode::AbsDiff);
        let b1 = Bitstream::generate(&nl, &f, &p, &r);
        let b2 = Bitstream::generate(&nl, &f, &p, &r);
        assert_eq!(b1.diff_bits(&b2), 0);
        assert!(b1.total_bits() > 0);
    }

    #[test]
    fn mode_change_diffs_few_bits() {
        let (nl1, f, p1, r1) = build(AbsDiffMode::AbsDiff);
        let (nl2, _, p2, r2) = build(AbsDiffMode::Sub);
        let b1 = Bitstream::generate(&nl1, &f, &p1, &r1);
        let b2 = Bitstream::generate(&nl2, &f, &p2, &r2);
        let d = b1.diff_bits(&b2);
        assert!(d > 0, "different modes must differ");
        assert!(
            d < b1.total_bits(),
            "partial reconfig must beat full rewrite"
        );
    }

    #[test]
    fn memory_contents_affect_bits() {
        let mk = |val: u64| {
            let mut nl = Netlist::new("m");
            let a = nl.input("a", 4).unwrap();
            let rom = nl
                .cluster(
                    "rom",
                    ClusterCfg::Memory {
                        words: 16,
                        width: 8,
                        contents: vec![val; 16],
                    },
                )
                .unwrap();
            let y = nl.output("y", 8).unwrap();
            nl.connect((a, "out"), (rom, "addr")).unwrap();
            nl.connect((rom, "dout"), (y, "in")).unwrap();
            let f = Fabric::da_array(8, 8, MeshSpec::mixed());
            let p = place(&nl, &f).unwrap();
            let r = route(&nl, &f, &p).unwrap();
            Bitstream::generate(&nl, &f, &p, &r)
        };
        let b0 = mk(0x00);
        let b1 = mk(0xFF);
        // 16 words x 8 flipped bits = 128 differing content bits.
        assert!(b0.diff_bits(&b1) >= 128);
    }

    #[test]
    fn packed_diff_matches_map_diff_on_compiled_streams() {
        let (nl1, f, p1, r1) = build(AbsDiffMode::AbsDiff);
        let (nl2, _, p2, r2) = build(AbsDiffMode::Sub);
        let a = Bitstream::generate(&nl1, &f, &p1, &r1);
        let b = Bitstream::generate(&nl2, &f, &p2, &r2);
        assert_eq!(a.diff_bits_packed(&b), a.diff_bits_map(&b));
        assert_eq!(a.diff_bits_packed(&a), 0);
    }

    #[test]
    fn packing_round_trips_every_frame() {
        let (nl, f, p, r) = build(AbsDiffMode::AbsDiff);
        let bs = Bitstream::generate(&nl, &f, &p, &r);
        assert!(bs.frame_count() > 0);
        for (addr, words) in &bs.frames {
            assert_eq!(bs.packed_frame(*addr), Some(words.as_slice()));
        }
        assert_eq!(
            bs.packed_frame(FrameAddr::Site {
                x: u16::MAX,
                y: u16::MAX
            }),
            None
        );
    }
}
