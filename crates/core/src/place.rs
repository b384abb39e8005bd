//! Placement: assigning netlist nodes to fabric sites.
//!
//! A greedy constructive pass (each node goes to the free compatible site
//! nearest the centroid of its already-placed neighbours) is refined by
//! simulated annealing over swap/move proposals, minimising width-weighted
//! half-perimeter wirelength (HPWL). Deterministic: the seed is fixed.
//!
//! **The draw order is the placement contract.** Every compiled kernel,
//! bitstream fingerprint and diff cost downstream follows from which sites
//! the annealer picks, so the sequence of RNG draws per move (node, then
//! destination, then swap partner, then an acceptance draw only for a
//! non-improving move), the free-list update and the order in which HPWL
//! terms are summed are fixed. Everything is indexed densely by node id
//! and site kind, so a move costs only the nets it touches. The
//! workspace's `tests/placement_pins.rs` pins the sites, HPWL bits and
//! bitstream of every kernel the runtime and the experiments place.

use crate::cluster::ClusterKind;
use crate::error::{CoreError, Result};
use crate::fabric::{Fabric, SiteKind};
use crate::netlist::{Netlist, NodeId, NodeKind, PhysNet};
use crate::rng::SplitMix64;

/// Annealer RNG seed: every placement draws the same sequence.
const SEED: u64 = 0xD5EA_2004;
/// Annealing move budget.
const SA_MOVES: u32 = 20_000;
/// Initial annealing temperature, in HPWL units.
const INITIAL_TEMPERATURE: f64 = 8.0;

/// A site, or `None` for an unplaced (wiring) node, indexed by node id.
type Sites = [Option<(u16, u16)>];

/// A completed placement of one netlist on one fabric.
#[derive(Debug, Clone)]
pub struct Placement {
    loc: Vec<Option<(u16, u16)>>,
    hpwl: f64,
}

impl Placement {
    /// Site of a placed node, if it is a placeable node.
    pub fn loc(&self, node: NodeId) -> Option<(u16, u16)> {
        self.loc.get(node.0 as usize).copied().flatten()
    }

    /// Width-weighted half-perimeter wirelength of the final placement.
    pub fn hpwl(&self) -> f64 {
        self.hpwl
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.loc.iter().flatten().count()
    }

    /// `true` when nothing was placed (empty netlist).
    pub fn is_empty(&self) -> bool {
        self.loc.iter().all(Option::is_none)
    }
}

fn manhattan(a: (u16, u16), b: (u16, u16)) -> u32 {
    a.0.abs_diff(b.0) as u32 + a.1.abs_diff(b.1) as u32
}

fn net_hpwl(net: &PhysNet, loc: &Sites) -> f64 {
    let mut xs: (u16, u16) = (u16::MAX, 0);
    let mut ys: (u16, u16) = (u16::MAX, 0);
    let mut seen = false;
    for node in std::iter::once(net.source).chain(net.sinks.iter().copied()) {
        if let Some((x, y)) = loc[node.0 as usize] {
            xs = (xs.0.min(x), xs.1.max(x));
            ys = (ys.0.min(y), ys.1.max(y));
            seen = true;
        }
    }
    if !seen {
        return 0.0;
    }
    let hp = (xs.1 - xs.0) as f64 + (ys.1 - ys.0) as f64;
    hp * f64::from(net.width).sqrt()
}

/// Places `netlist` on `fabric`: the greedy pass, then 20 000 annealing
/// moves from temperature 8.0 with a fixed seed.
///
/// # Errors
/// [`CoreError::PlacementFull`] when the fabric lacks sites of a needed kind
/// (including I/O pads).
pub fn place(netlist: &Netlist, fabric: &Fabric) -> Result<Placement> {
    place_with_moves(netlist, fabric, SA_MOVES)
}

/// [`place`] with an explicit annealing budget (0 keeps the greedy
/// placement).
pub(crate) fn place_with_moves(
    netlist: &Netlist,
    fabric: &Fabric,
    moves: u32,
) -> Result<Placement> {
    fabric.check_capacity(&netlist.resource_report())?;

    // Free sites per kind, in fabric scan order.
    let mut free: Vec<Vec<(u16, u16)>> = vec![Vec::new(); SiteKey::COUNT];
    for (x, y, site) in fabric.iter_sites() {
        match site {
            SiteKind::Io => free[SiteKey::Io.slot()].push((x, y)),
            SiteKind::Cluster(kind) => free[SiteKey::Cluster(kind).slot()].push((x, y)),
            SiteKind::Empty => {}
        }
    }

    let nodes = netlist.nodes().len();
    let phys = netlist.physical_nets();
    // Adjacency: node -> other endpoints of shared nets.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
    for net in &phys {
        for &sink in &net.sinks {
            adj[net.source.0 as usize].push(sink);
            adj[sink.0 as usize].push(net.source);
        }
    }

    let io_count = netlist.input_nodes().len() + netlist.output_nodes().len();
    if io_count > free[SiteKey::Io.slot()].len() {
        return Err(CoreError::PlacementFull {
            kind: "IO".to_owned(),
        });
    }

    // Greedy constructive placement in node order.
    let mut loc: Vec<Option<(u16, u16)>> = vec![None; nodes];
    for (idx, node) in netlist.nodes().iter().enumerate() {
        let key = match &node.kind {
            NodeKind::Input { .. } | NodeKind::Output { .. } => SiteKey::Io,
            NodeKind::Cluster(cfg) => SiteKey::Cluster(cfg.kind()),
            _ => continue, // wiring nodes are not placed
        };
        let candidates = &mut free[key.slot()];
        if candidates.is_empty() {
            return Err(CoreError::PlacementFull {
                kind: format!("{key:?}"),
            });
        }
        // Centroid of placed neighbours.
        let (sx, sy, n) = adj[idx]
            .iter()
            .filter_map(|&nb| loc[nb.0 as usize])
            .fold((0u32, 0u32, 0u32), |(sx, sy, n), (x, y)| {
                (sx + u32::from(x), sy + u32::from(y), n + 1)
            });
        let pick = match (sx.checked_div(n), sy.checked_div(n)) {
            (Some(cx), Some(cy)) => {
                let target = (cx as u16, cy as u16);
                candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| manhattan(c, target))
                    .map(|(i, _)| i)
                    .unwrap()
            }
            _ => 0,
        };
        loc[idx] = Some(candidates.swap_remove(pick));
    }

    // Simulated-annealing refinement over cluster nodes.
    anneal(netlist, &phys, &mut loc, &mut free, moves);

    let hpwl = phys.iter().map(|n| net_hpwl(n, &loc)).sum();
    Ok(Placement { loc, hpwl })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKey {
    Io,
    Cluster(ClusterKind),
}

impl SiteKey {
    /// Number of distinct keys: the I/O pads plus every cluster kind.
    const COUNT: usize = 1 + ClusterKind::ALL.len();

    /// Dense index of this key, below [`SiteKey::COUNT`].
    fn slot(self) -> usize {
        match self {
            SiteKey::Io => 0,
            SiteKey::Cluster(kind) => 1 + kind as usize,
        }
    }
}

fn anneal(
    netlist: &Netlist,
    phys: &[PhysNet],
    loc: &mut Sites,
    free: &mut [Vec<(u16, u16)>],
    moves: u32,
) {
    // Nets touching each node, for incremental cost evaluation.
    let mut nets_of: Vec<Vec<usize>> = vec![Vec::new(); loc.len()];
    for (i, net) in phys.iter().enumerate() {
        nets_of[net.source.0 as usize].push(i);
        for &s in &net.sinks {
            nets_of[s.0 as usize].push(i);
        }
    }
    // Movable cluster nodes with their kind slot, in node order; each
    // kind's members in that same order, and each movable node's rank
    // among its kind's members.
    let movable: Vec<(usize, usize)> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match &n.kind {
            NodeKind::Cluster(cfg) => Some((i, SiteKey::Cluster(cfg.kind()).slot())),
            _ => None,
        })
        .collect();
    if movable.is_empty() {
        return;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); SiteKey::COUNT];
    let rank: Vec<usize> = movable
        .iter()
        .map(|&(node, slot)| {
            members[slot].push(node);
            members[slot].len() - 1
        })
        .collect();
    let mut rng = SplitMix64::new(SEED);
    let mut temp = INITIAL_TEMPERATURE;
    let decay = (0.01f64 / INITIAL_TEMPERATURE).powf(1.0 / f64::from(moves.max(1)));
    // Each net's HPWL under the current placement: a move re-prices only
    // the nets it touches, and writes them back only when accepted.
    let mut net_cost: Vec<f64> = phys.iter().map(|n| net_hpwl(n, loc)).collect();
    let mut touched: Vec<usize> = Vec::new();
    let mut moved_cost: Vec<f64> = Vec::new();

    for _ in 0..moves {
        let m = rng.next_below(movable.len() as u64) as usize;
        let (node, slot) = movable[m];
        let cur = loc[node].expect("every cluster node is placed greedily");
        // Choose a destination: a free same-kind site or another node's
        // site. `total` counts the node itself among its kind's members.
        let free_sites = &free[slot];
        let kin = &members[slot];
        let total = free_sites.len() + kin.len();
        if total <= 1 {
            continue;
        }
        let choice = rng.next_below(total as u64) as usize;
        let (dest, swap_with) = if choice < free_sites.len() {
            (free_sites[choice], None)
        } else {
            // The peers are the kind's members without the node itself:
            // peer `j` is member `j` below the node's rank, `j + 1` above.
            let peers = kin.len() - 1;
            if peers == 0 {
                continue;
            }
            let j = rng.next_below(peers as u64) as usize;
            let other = kin[if j < rank[m] { j } else { j + 1 }];
            (loc[other].expect("peers are placed"), Some(other))
        };
        if dest == cur {
            continue;
        }
        touched.clear();
        touched.extend_from_slice(&nets_of[node]);
        if let Some(other) = swap_with {
            touched.extend_from_slice(&nets_of[other]);
        }
        touched.sort_unstable();
        touched.dedup();
        let before: f64 = touched.iter().map(|&i| net_cost[i]).sum();
        // Apply move.
        loc[node] = Some(dest);
        if let Some(other) = swap_with {
            loc[other] = Some(cur);
        }
        moved_cost.clear();
        moved_cost.extend(touched.iter().map(|&i| net_hpwl(&phys[i], loc)));
        let after: f64 = moved_cost.iter().copied().sum();
        let delta = after - before;
        let accept = delta < 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp();
        if accept {
            for (&i, &c) in touched.iter().zip(&moved_cost) {
                net_cost[i] = c;
            }
            if swap_with.is_none() {
                // dest was free: remove it from the free list, add cur back.
                let list = &mut free[slot];
                let pos = list.iter().position(|&s| s == dest).unwrap();
                list.swap_remove(pos);
                list.push(cur);
            }
        } else {
            // Revert.
            loc[node] = Some(cur);
            if let Some(other) = swap_with {
                loc[other] = Some(dest);
            }
        }
        temp *= decay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AbsDiffMode, ClusterCfg};
    use crate::fabric::MeshSpec;

    fn chain_netlist(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let mut prev = a;
        for i in 0..n {
            let ad = nl
                .cluster(
                    format!("ad{i}"),
                    ClusterCfg::AbsDiff {
                        width: 8,
                        mode: AbsDiffMode::AbsDiff,
                    },
                )
                .unwrap();
            nl.connect((prev, if i == 0 { "out" } else { "y" }), (ad, "a"))
                .unwrap();
            nl.connect((b, "out"), (ad, "b")).unwrap();
            prev = ad;
        }
        let y = nl.output("y", 8).unwrap();
        nl.connect((prev, "y"), (y, "in")).unwrap();
        nl
    }

    #[test]
    fn places_all_placeable_nodes() {
        let nl = chain_netlist(6);
        let f = Fabric::me_array(12, 12, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        // 6 clusters + 2 inputs + 1 output
        assert_eq!(p.len(), 9);
        assert!(!p.is_empty());
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain_netlist(5);
        let f = Fabric::me_array(10, 10, MeshSpec::mixed());
        let p1 = place(&nl, &f).unwrap();
        let p2 = place(&nl, &f).unwrap();
        for id in nl.cluster_nodes() {
            assert_eq!(p1.loc(id), p2.loc(id));
        }
    }

    #[test]
    fn no_two_nodes_share_a_site() {
        let nl = chain_netlist(8);
        let f = Fabric::me_array(14, 14, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        let mut seen = std::collections::HashSet::new();
        for idx in 0..nl.nodes().len() {
            if let Some(site) = p.loc(NodeId(idx as u32)) {
                assert!(seen.insert(site), "site {site:?} used twice");
            }
        }
    }

    #[test]
    fn annealing_does_not_worsen_tiny_designs_catastrophically() {
        let nl = chain_netlist(4);
        let f = Fabric::me_array(20, 20, MeshSpec::mixed());
        let quick = place_with_moves(&nl, &f, 0).unwrap();
        let refined = place(&nl, &f).unwrap();
        assert!(refined.hpwl() <= quick.hpwl() * 1.5 + 8.0);
    }

    #[test]
    fn rejects_fabric_without_needed_kind() {
        let nl = chain_netlist(2); // uses AbsDiff
        let f = Fabric::da_array(10, 10, MeshSpec::mixed()); // no AbsDiff sites
        assert!(matches!(
            place(&nl, &f),
            Err(CoreError::PlacementFull { .. })
        ));
    }
}
