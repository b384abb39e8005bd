//! Placement: assigning netlist nodes to fabric sites.
//!
//! A greedy constructive pass (each node goes to the free compatible site
//! nearest the centroid of its already-placed neighbours) is refined by
//! simulated annealing over swap/move proposals, minimising width-weighted
//! half-perimeter wirelength (HPWL). Deterministic for a given seed.

use std::collections::HashMap;

use crate::cluster::ClusterKind;
use crate::error::{CoreError, Result};
use crate::fabric::{Fabric, SiteKind};
use crate::netlist::{Netlist, NodeId, NodeKind, PhysNet};
use crate::rng::SplitMix64;

/// Placement parameters.
#[derive(Debug, Clone, Copy)]
pub struct PlacerOptions {
    /// RNG seed (placement is deterministic per seed).
    pub seed: u64,
    /// Annealing move budget.
    pub sa_moves: u32,
    /// Initial temperature, in HPWL units.
    pub initial_temperature: f64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            seed: 0xD5EA_2004,
            sa_moves: 20_000,
            initial_temperature: 8.0,
        }
    }
}

/// A completed placement of one netlist on one fabric.
#[derive(Debug, Clone)]
pub struct Placement {
    loc: HashMap<NodeId, (u16, u16)>,
    hpwl: f64,
}

impl Placement {
    /// Site of a placed node, if it is a placeable node.
    pub fn loc(&self, node: NodeId) -> Option<(u16, u16)> {
        self.loc.get(&node).copied()
    }

    /// Width-weighted half-perimeter wirelength of the final placement.
    pub fn hpwl(&self) -> f64 {
        self.hpwl
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.loc.len()
    }

    /// `true` when nothing was placed (empty netlist).
    pub fn is_empty(&self) -> bool {
        self.loc.is_empty()
    }
}

fn manhattan(a: (u16, u16), b: (u16, u16)) -> u32 {
    a.0.abs_diff(b.0) as u32 + a.1.abs_diff(b.1) as u32
}

fn net_hpwl(net: &PhysNet, loc: &HashMap<NodeId, (u16, u16)>) -> f64 {
    let mut xs: (u16, u16) = (u16::MAX, 0);
    let mut ys: (u16, u16) = (u16::MAX, 0);
    let mut seen = false;
    for node in std::iter::once(net.source).chain(net.sinks.iter().copied()) {
        if let Some(&(x, y)) = loc.get(&node) {
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

/// Places `netlist` on `fabric`.
///
/// # Errors
/// [`CoreError::PlacementFull`] when the fabric lacks sites of a needed kind
/// (including I/O pads).
pub fn place(netlist: &Netlist, fabric: &Fabric, opts: PlacerOptions) -> Result<Placement> {
    fabric.check_capacity(&netlist.resource_report())?;

    let mut free: HashMap<SiteKey, Vec<(u16, u16)>> = HashMap::new();
    for (x, y, site) in fabric.iter_sites() {
        match site {
            SiteKind::Io => free.entry(SiteKey::Io).or_default().push((x, y)),
            SiteKind::Cluster(kind) => free.entry(SiteKey::Cluster(kind)).or_default().push((x, y)),
            SiteKind::Empty => {}
        }
    }

    let phys = netlist.physical_nets();
    // Adjacency: node -> other endpoints of shared nets.
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for net in &phys {
        for &sink in &net.sinks {
            adj.entry(net.source).or_default().push(sink);
            adj.entry(sink).or_default().push(net.source);
        }
    }

    let io_count = netlist.input_nodes().len() + netlist.output_nodes().len();
    if io_count > free.get(&SiteKey::Io).map_or(0, Vec::len) {
        return Err(CoreError::PlacementFull {
            kind: "IO".to_owned(),
        });
    }

    // Greedy constructive placement in node order.
    let mut loc: HashMap<NodeId, (u16, u16)> = HashMap::new();
    for (idx, node) in netlist.nodes().iter().enumerate() {
        let id = NodeId(idx as u32);
        let key = match &node.kind {
            NodeKind::Input { .. } | NodeKind::Output { .. } => SiteKey::Io,
            NodeKind::Cluster(cfg) => SiteKey::Cluster(cfg.kind()),
            _ => continue, // wiring nodes are not placed
        };
        let candidates = free.get_mut(&key).ok_or_else(|| CoreError::PlacementFull {
            kind: format!("{key:?}"),
        })?;
        if candidates.is_empty() {
            return Err(CoreError::PlacementFull {
                kind: format!("{key:?}"),
            });
        }
        // Centroid of placed neighbours.
        let target = adj.get(&id).and_then(|ns| {
            let placed: Vec<(u16, u16)> = ns.iter().filter_map(|n| loc.get(n).copied()).collect();
            if placed.is_empty() {
                None
            } else {
                let sx: u32 = placed.iter().map(|p| u32::from(p.0)).sum();
                let sy: u32 = placed.iter().map(|p| u32::from(p.1)).sum();
                Some((
                    (sx / placed.len() as u32) as u16,
                    (sy / placed.len() as u32) as u16,
                ))
            }
        });
        let pick = match target {
            Some(t) => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| manhattan(c, t))
                .map(|(i, _)| i)
                .unwrap(),
            None => 0,
        };
        let site = candidates.swap_remove(pick);
        loc.insert(id, site);
    }

    // Simulated-annealing refinement over cluster nodes.
    anneal(netlist, &phys, &mut loc, &mut free, opts);

    let hpwl = phys.iter().map(|n| net_hpwl(n, &loc)).sum();
    Ok(Placement { loc, hpwl })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SiteKey {
    Io,
    Cluster(ClusterKind),
}

fn anneal(
    netlist: &Netlist,
    phys: &[PhysNet],
    loc: &mut HashMap<NodeId, (u16, u16)>,
    free: &mut HashMap<SiteKey, Vec<(u16, u16)>>,
    opts: PlacerOptions,
) {
    // Nets touching each node, for incremental cost evaluation.
    let mut nets_of: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, net) in phys.iter().enumerate() {
        nets_of.entry(net.source).or_default().push(i);
        for &s in &net.sinks {
            nets_of.entry(s).or_default().push(i);
        }
    }
    let movable: Vec<(NodeId, SiteKey)> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match &n.kind {
            NodeKind::Cluster(cfg) => Some((NodeId(i as u32), SiteKey::Cluster(cfg.kind()))),
            _ => None,
        })
        .collect();
    if movable.is_empty() {
        return;
    }
    let mut rng = SplitMix64::new(opts.seed);
    let mut temp = opts.initial_temperature;
    let decay = (0.01f64 / opts.initial_temperature).powf(1.0 / f64::from(opts.sa_moves.max(1)));

    let cost_of = |ids: &[usize], loc: &HashMap<NodeId, (u16, u16)>| -> f64 {
        ids.iter().map(|&i| net_hpwl(&phys[i], loc)).sum()
    };

    for _ in 0..opts.sa_moves {
        let (node, key) = movable[rng.next_below(movable.len() as u64) as usize];
        let cur = loc[&node];
        // Choose a destination: a free same-kind site or another node's site.
        let free_sites = free.get(&key).map_or(&[][..], Vec::as_slice);
        let total = free_sites.len() + movable.iter().filter(|(_, k)| *k == key).count();
        if total <= 1 {
            continue;
        }
        let choice = rng.next_below(total as u64) as usize;
        let (dest, swap_with) = if choice < free_sites.len() {
            (free_sites[choice], None)
        } else {
            let peers: Vec<NodeId> = movable
                .iter()
                .filter(|(n, k)| *k == key && *n != node)
                .map(|(n, _)| *n)
                .collect();
            if peers.is_empty() {
                continue;
            }
            let other = peers[rng.next_below(peers.len() as u64) as usize];
            (loc[&other], Some(other))
        };
        if dest == cur {
            continue;
        }
        let mut touched: Vec<usize> = nets_of.get(&node).cloned().unwrap_or_default();
        if let Some(other) = swap_with {
            touched.extend(nets_of.get(&other).cloned().unwrap_or_default());
        }
        touched.sort_unstable();
        touched.dedup();
        let before = cost_of(&touched, loc);
        // Apply move.
        loc.insert(node, dest);
        if let Some(other) = swap_with {
            loc.insert(other, cur);
        }
        let after = cost_of(&touched, loc);
        let delta = after - before;
        let accept = delta < 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp();
        if accept {
            if swap_with.is_none() {
                // dest was free: remove it from the free list, add cur back.
                let list = free.get_mut(&key).unwrap();
                let pos = list.iter().position(|&s| s == dest).unwrap();
                list.swap_remove(pos);
                list.push(cur);
            }
        } else {
            // Revert.
            loc.insert(node, cur);
            if let Some(other) = swap_with {
                loc.insert(other, dest);
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
        let p = place(&nl, &f, PlacerOptions::default()).unwrap();
        // 6 clusters + 2 inputs + 1 output
        assert_eq!(p.len(), 9);
        assert!(!p.is_empty());
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain_netlist(5);
        let f = Fabric::me_array(10, 10, MeshSpec::mixed());
        let p1 = place(&nl, &f, PlacerOptions::default()).unwrap();
        let p2 = place(&nl, &f, PlacerOptions::default()).unwrap();
        for id in nl.cluster_nodes() {
            assert_eq!(p1.loc(id), p2.loc(id));
        }
    }

    #[test]
    fn no_two_nodes_share_a_site() {
        let nl = chain_netlist(8);
        let f = Fabric::me_array(14, 14, MeshSpec::mixed());
        let p = place(&nl, &f, PlacerOptions::default()).unwrap();
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
        let quick = place(
            &nl,
            &f,
            PlacerOptions {
                sa_moves: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let refined = place(&nl, &f, PlacerOptions::default()).unwrap();
        assert!(refined.hpwl() <= quick.hpwl() * 1.5 + 8.0);
    }

    #[test]
    fn rejects_fabric_without_needed_kind() {
        let nl = chain_netlist(2); // uses AbsDiff
        let f = Fabric::da_array(10, 10, MeshSpec::mixed()); // no AbsDiff sites
        assert!(matches!(
            place(&nl, &f, PlacerOptions::default()),
            Err(CoreError::PlacementFull { .. })
        ));
    }
}
