//! Mesh routing with negotiated congestion (PathFinder-style).
//!
//! The inter-cluster mesh of §2 provides, per channel, a number of 8-bit bus
//! tracks and a number of 1-bit tracks. Multi-bit nets ride bus tracks when
//! available (one switch + one configuration bit steers eight wires at once);
//! on a fine-grain mesh the same net needs one switch and one configuration
//! bit *per wire* — the paper's argument for the mixed mesh, quantified here
//! and exercised by the E6 ablation.
//!
//! The router grows a Steiner-ish tree per physical net over the switchbox
//! grid using multi-source Dijkstra, then iterates rip-up/re-route with
//! history costs until no channel is over capacity.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{CoreError, Result};
use crate::fabric::Fabric;
use crate::netlist::{Netlist, PhysNet};
use crate::place::Placement;

/// Which track class a net occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackClass {
    /// 8-bit (or `bus_width`-bit) bus tracks.
    Bus,
    /// Single-bit tracks.
    Bit,
}

/// Maximum negotiation iterations before giving up.
const MAX_ITERATIONS: u32 = 40;
/// History cost increment per over-used edge per iteration.
const HISTORY_INCREMENT: f64 = 0.5;
/// Present-congestion multiplier.
const PRESENT_FACTOR: f64 = 2.0;

/// The realised route of one physical net.
#[derive(Debug, Clone)]
pub struct NetRoute {
    /// Index into `Netlist::physical_nets()`.
    pub net_index: usize,
    /// Track class used.
    pub class: TrackClass,
    /// Parallel lanes occupied (e.g. a 12-bit net on 8-bit buses uses 2).
    pub lanes: u32,
    /// Switchbox-to-switchbox edges of the routed tree.
    pub edges: Vec<EdgeId>,
    /// Longest source→sink path length in hops.
    pub max_hops: u32,
}

/// Identifies one channel segment between two adjacent switchboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Aggregate routing statistics — the quantities behind C-MESH and the
/// technology model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoutingStats {
    /// Total occupied track segments (edges × lanes).
    pub track_segments: u64,
    /// Programmable switch points configured (one per lane per edge, plus
    /// connection boxes at each terminal).
    pub switch_points: u64,
    /// Pass-transistor equivalents (a bus switch gangs `bus_width`
    /// transistors behind one configuration bit).
    pub transistor_equiv: u64,
    /// Routing configuration bits.
    pub config_bits: u64,
    /// Longest net length in hops (routing part of the critical path).
    pub max_net_hops: u32,
    /// Sum over nets of hop counts (average wirelength proxy).
    pub total_hops: u64,
    /// Number of physical nets routed.
    pub nets: u64,
    /// Negotiation iterations used.
    pub iterations: u32,
}

/// Result of routing a placed netlist.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Per-net routes.
    pub routes: Vec<NetRoute>,
    /// Aggregate statistics.
    pub stats: RoutingStats,
}

struct Grid {
    width: u16,
    /// adjacency: cell -> (neighbor cell, edge id)
    adj: Vec<Vec<(u32, u32)>>,
    edge_count: u32,
}

impl Grid {
    fn new(width: u16, height: u16) -> Self {
        let w = u32::from(width);
        let h = u32::from(height);
        let cells = (w * h) as usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::with_capacity(4); cells];
        let mut edge = 0u32;
        for y in 0..h {
            for x in 0..w {
                let c = y * w + x;
                if x + 1 < w {
                    let r = c + 1;
                    adj[c as usize].push((r, edge));
                    adj[r as usize].push((c, edge));
                    edge += 1;
                }
                if y + 1 < h {
                    let d = c + w;
                    adj[c as usize].push((d, edge));
                    adj[d as usize].push((c, edge));
                    edge += 1;
                }
            }
        }
        Grid {
            width,
            adj,
            edge_count: edge,
        }
    }

    fn cell(&self, x: u16, y: u16) -> u32 {
        u32::from(y) * u32::from(self.width) + u32::from(x)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    cell: u32,
}

impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.cell.cmp(&other.cell))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes all physical nets of a placed netlist.
///
/// # Errors
/// [`CoreError::Unroutable`] if congestion cannot be resolved within 40
/// negotiation iterations, [`CoreError::Mismatch`] if a net endpoint was
/// never placed.
pub fn route(netlist: &Netlist, fabric: &Fabric, placement: &Placement) -> Result<Routing> {
    let mesh = fabric.mesh();
    let grid = Grid::new(fabric.width(), fabric.height());
    let phys = netlist.physical_nets();

    // Net terminals in grid cells.
    let mut terminals: Vec<(u32, Vec<u32>, TrackClass, u32)> = Vec::with_capacity(phys.len());
    for net in &phys {
        let src = place_cell(&grid, placement, net, net.source, netlist)?;
        let mut sinks = Vec::with_capacity(net.sinks.len());
        for &s in &net.sinks {
            sinks.push(place_cell(&grid, placement, net, s, netlist)?);
        }
        let (class, lanes) = class_for_width(net.width, mesh.bus_tracks, mesh.bus_width);
        terminals.push((src, sinks, class, lanes));
    }

    let cap = |class: TrackClass| -> f64 {
        match class {
            TrackClass::Bus => f64::from(mesh.bus_tracks),
            TrackClass::Bit => f64::from(mesh.bit_tracks),
        }
    };

    let ec = grid.edge_count as usize;
    let mut hist_bus = vec![0.0f64; ec];
    let mut hist_bit = vec![0.0f64; ec];
    let mut routes: Vec<NetRoute> = Vec::new();

    for iteration in 0..MAX_ITERATIONS {
        let mut use_bus = vec![0.0f64; ec];
        let mut use_bit = vec![0.0f64; ec];
        routes.clear();

        for (i, (src, sinks, class, lanes)) in terminals.iter().enumerate() {
            let (usage, hist) = match class {
                TrackClass::Bus => (&mut use_bus, &hist_bus),
                TrackClass::Bit => (&mut use_bit, &hist_bit),
            };
            let capacity = cap(*class);
            let lanes_f = f64::from(*lanes);
            let route = route_net(&grid, *src, sinks, lanes_f, capacity, usage, hist);
            let mut edges: Vec<EdgeId> = route.edges.iter().map(|&e| EdgeId(e)).collect();
            edges.sort_unstable();
            edges.dedup();
            for e in &edges {
                usage[e.0 as usize] += lanes_f;
            }
            routes.push(NetRoute {
                net_index: i,
                class: *class,
                lanes: *lanes,
                edges,
                max_hops: route.max_hops,
            });
        }

        // Check congestion.
        let mut over = false;
        for e in 0..ec {
            if use_bus[e] > cap(TrackClass::Bus) + 1e-9 {
                hist_bus[e] += HISTORY_INCREMENT * (use_bus[e] - cap(TrackClass::Bus));
                over = true;
            }
            if use_bit[e] > cap(TrackClass::Bit) + 1e-9 {
                hist_bit[e] += HISTORY_INCREMENT * (use_bit[e] - cap(TrackClass::Bit));
                over = true;
            }
        }
        if !over {
            let stats = collect_stats(&routes, &phys, mesh.bus_width, iteration + 1);
            return Ok(Routing { routes, stats });
        }
    }

    Err(CoreError::Unroutable {
        net: netlist.name().to_owned(),
    })
}

fn place_cell(
    grid: &Grid,
    placement: &Placement,
    _net: &PhysNet,
    node: crate::netlist::NodeId,
    netlist: &Netlist,
) -> Result<u32> {
    let (x, y) = placement.loc(node).ok_or_else(|| {
        CoreError::Mismatch(format!(
            "node `{}` has no placement",
            netlist.node(node).name
        ))
    })?;
    Ok(grid.cell(x, y))
}

/// Picks the track class and lane count for a net width.
pub fn class_for_width(width: u8, bus_tracks: u8, bus_width: u8) -> (TrackClass, u32) {
    if width == 1 || bus_tracks == 0 {
        (TrackClass::Bit, u32::from(width))
    } else {
        (TrackClass::Bus, u32::from(width.div_ceil(bus_width)))
    }
}

struct TreeRoute {
    edges: Vec<u32>,
    max_hops: u32,
}

fn route_net(
    grid: &Grid,
    src: u32,
    sinks: &[u32],
    lanes: f64,
    capacity: f64,
    usage: &[f64],
    hist: &[f64],
) -> TreeRoute {
    let cells = grid.adj.len();
    let mut in_tree = vec![false; cells];
    let mut tree_depth = vec![0u32; cells];
    in_tree[src as usize] = true;
    let mut tree_edges: Vec<u32> = Vec::new();
    let mut max_hops = 0u32;

    // Route sinks nearest-first (by later Dijkstra results this is greedy,
    // here simply in given order — terminals lists are small).
    for &sink in sinks {
        if in_tree[sink as usize] {
            continue;
        }
        // Multi-source Dijkstra from the current tree to this sink.
        let mut dist = vec![f64::INFINITY; cells];
        let mut prev_edge: Vec<Option<(u32, u32)>> = vec![None; cells]; // (from cell, edge)
        let mut heap = BinaryHeap::new();
        for (c, &t) in in_tree.iter().enumerate() {
            if t {
                dist[c] = 0.0;
                heap.push(HeapEntry {
                    cost: 0.0,
                    cell: c as u32,
                });
            }
        }
        while let Some(HeapEntry { cost, cell }) = heap.pop() {
            if cost > dist[cell as usize] + 1e-12 {
                continue;
            }
            if cell == sink {
                break;
            }
            for &(next, edge) in &grid.adj[cell as usize] {
                let e = edge as usize;
                let congestion = if usage[e] + lanes > capacity {
                    PRESENT_FACTOR * (usage[e] + lanes - capacity + 1.0)
                } else {
                    0.0
                };
                let edge_cost = 1.0 + hist[e] + congestion;
                let nd = cost + edge_cost;
                if nd < dist[next as usize] {
                    dist[next as usize] = nd;
                    prev_edge[next as usize] = Some((cell, edge));
                    heap.push(HeapEntry {
                        cost: nd,
                        cell: next,
                    });
                }
            }
        }
        // Trace back from sink to the tree.
        let mut cur = sink;
        let mut path: Vec<(u32, u32)> = Vec::new();
        while !in_tree[cur as usize] {
            let Some((from, edge)) = prev_edge[cur as usize] else {
                break; // unreachable sink: same-cell terminals, nothing to do
            };
            path.push((cur, edge));
            cur = from;
        }
        let join_depth = tree_depth[cur as usize];
        max_hops = max_hops.max(join_depth + path.len() as u32);
        for (cell, edge) in path.into_iter().rev() {
            in_tree[cell as usize] = true;
            tree_edges.push(edge);
        }
        // Refresh per-cell depths now that the tree grew.
        recompute_depth(grid, src, &in_tree, &tree_edges, &mut tree_depth);
    }
    TreeRoute {
        edges: tree_edges,
        max_hops,
    }
}

fn recompute_depth(grid: &Grid, src: u32, in_tree: &[bool], tree_edges: &[u32], depth: &mut [u32]) {
    use std::collections::HashSet;
    let edge_set: HashSet<u32> = tree_edges.iter().copied().collect();
    let mut visited = vec![false; grid.adj.len()];
    let mut stack = vec![(src, 0u32)];
    visited[src as usize] = true;
    while let Some((cell, d)) = stack.pop() {
        depth[cell as usize] = d;
        for &(next, edge) in &grid.adj[cell as usize] {
            if !visited[next as usize] && in_tree[next as usize] && edge_set.contains(&edge) {
                visited[next as usize] = true;
                stack.push((next, d + 1));
            }
        }
    }
}

fn collect_stats(
    routes: &[NetRoute],
    phys: &[PhysNet],
    bus_width: u8,
    iterations: u32,
) -> RoutingStats {
    let mut s = RoutingStats {
        iterations,
        nets: routes.len() as u64,
        ..Default::default()
    };
    for r in routes {
        let lanes = u64::from(r.lanes);
        let hops = r.edges.len() as u64;
        s.track_segments += hops * lanes;
        // Connection boxes: one at the source, one per sink, per lane.
        let terminals = 1 + phys[r.net_index].sinks.len() as u64;
        s.switch_points += hops * lanes + terminals * lanes;
        s.config_bits += hops * lanes + terminals * lanes;
        s.transistor_equiv += match r.class {
            TrackClass::Bus => (hops + terminals) * lanes * u64::from(bus_width),
            TrackClass::Bit => (hops + terminals) * lanes,
        };
        s.max_net_hops = s.max_net_hops.max(r.max_hops);
        s.total_hops += hops;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AbsDiffMode, ClusterCfg};
    use crate::fabric::MeshSpec;
    use crate::place::place;

    fn small_design() -> Netlist {
        let mut nl = Netlist::new("r");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let y = nl.output("y", 8).unwrap();
        let ad = nl
            .cluster(
                "ad",
                ClusterCfg::AbsDiff {
                    width: 8,
                    mode: AbsDiffMode::AbsDiff,
                },
            )
            .unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        nl
    }

    #[test]
    fn routes_simple_design() {
        let nl = small_design();
        let f = Fabric::me_array(8, 8, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        let r = route(&nl, &f, &p).unwrap();
        assert_eq!(r.routes.len(), 3);
        assert!(r.stats.config_bits > 0);
        assert!(r.stats.switch_points > 0);
    }

    #[test]
    fn bus_nets_use_fewer_config_bits_than_fine_grain() {
        let nl = small_design();
        let mixed = Fabric::me_array(8, 8, MeshSpec::mixed());
        let fine = mixed.with_mesh(MeshSpec::fine_grain());
        let pm = place(&nl, &mixed).unwrap();
        let rm = route(&nl, &mixed, &pm).unwrap();
        let pf = place(&nl, &fine).unwrap();
        let rf = route(&nl, &fine, &pf).unwrap();
        assert!(
            rf.stats.config_bits > rm.stats.config_bits,
            "fine {} should exceed mixed {}",
            rf.stats.config_bits,
            rm.stats.config_bits
        );
        assert!(rf.stats.switch_points > rm.stats.switch_points);
    }

    #[test]
    fn class_selection() {
        assert_eq!(class_for_width(1, 8, 8), (TrackClass::Bit, 1));
        assert_eq!(class_for_width(8, 8, 8), (TrackClass::Bus, 1));
        assert_eq!(class_for_width(12, 8, 8), (TrackClass::Bus, 2));
        assert_eq!(class_for_width(12, 0, 8), (TrackClass::Bit, 12));
    }

    #[test]
    fn fanout_net_builds_tree() {
        let mut nl = Netlist::new("fan");
        let a = nl.input("a", 8).unwrap();
        let mut sinks = Vec::new();
        let b = nl.input("b", 8).unwrap();
        for i in 0..4 {
            let ad = nl
                .cluster(
                    format!("ad{i}"),
                    ClusterCfg::AbsDiff {
                        width: 8,
                        mode: AbsDiffMode::AbsDiff,
                    },
                )
                .unwrap();
            nl.connect((a, "out"), (ad, "a")).unwrap();
            nl.connect((b, "out"), (ad, "b")).unwrap();
            let y = nl.output(format!("y{i}"), 8).unwrap();
            nl.connect((ad, "y"), (y, "in")).unwrap();
            sinks.push(ad);
        }
        let f = Fabric::me_array(10, 10, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        let r = route(&nl, &f, &p).unwrap();
        // Net from `a` must reach all four sinks.
        let a_route = &r.routes[0];
        assert!(!a_route.edges.is_empty());
    }
}
