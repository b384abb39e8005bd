//! Figs. 10–11 — the low-power 2-D systolic full-search array.
//!
//! Four PE modules of `N` PEs each (4×16 = 64 for 16-pixel blocks). Each
//! module computes the SAD of one candidate of a vertically adjacent batch:
//!
//! * **search-area pixels are broadcast** to all modules — one reference row
//!   is fetched per cycle and every module taps it;
//! * **current-block pixels propagate through a register array** — module
//!   `m` sees the current row `m` cycles after module 0 (the register-
//!   multiplexer delay line of Fig. 11), which is exactly what lets four
//!   candidates at `dy, dy+1, dy+2, dy+3` share one stream of reference
//!   rows and cuts the memory bandwidth;
//! * each PE computes `|cur − ref|` (AD cluster) into a combinational adder
//!   chain (ADD/ACC clusters); a per-module accumulator sums the row SADs,
//!   so **the first SAD is ready after `N` (=16) clock cycles** (§4);
//! * a register-multiplexer tree drains the four SADs through the min
//!   comparator (COMP cluster), which tracks the best motion vector.

#![allow(clippy::needless_range_loop)] // cycle-indexed driver loops read clearer

use dsra_core::cluster::{AbsDiffMode, AddOp, ClusterCfg, CompMode};
use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};
use dsra_sim::{ExecPlan, InputPort, OutputPort, Simulator};

use crate::harness::{pack_mv, unpack_mv, MeEngine, MeSearchResult};
use crate::reference::{candidate_valid, Match, Plane, SearchParams};

/// Number of PE modules (vertically adjacent candidates per batch).
pub const MODULES: usize = 4;

/// SAD datapath width (16 bits holds a 16×16 block of 8-bit differences).
const SAD_WIDTH: u8 = 16;

/// How a module combines its per-column absolute differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumStructure {
    /// Ripple chain through the PEs (the classic systolic organisation:
    /// simple wiring, logic depth grows linearly with `n`).
    Chain,
    /// Balanced adder tree (extra wiring, logarithmic logic depth — the
    /// timing-oriented alternative; DESIGN.md ablation #5).
    Tree,
}

/// Resolved pin handles for the 2-D systolic driver — one name lookup per
/// pin at construction instead of a formatted lookup per pixel per cycle.
#[derive(Debug)]
struct S2dPins {
    cur: Vec<InputPort>,
    refs: Vec<InputPort>,
    men: [InputPort; MODULES],
    mclr: InputPort,
    sel0: InputPort,
    sel1: InputPort,
    cmp_en: InputPort,
    cmp_clr: InputPort,
    cmp_idx: InputPort,
    best_sad: OutputPort,
    best_idx: OutputPort,
}

/// The 2-D systolic array engine.
#[derive(Debug)]
pub struct Systolic2d {
    netlist: Netlist,
    n: usize,
    plan: ExecPlan,
    pins: S2dPins,
}

impl Systolic2d {
    /// Builds the array for `n`-pixel block edges (16 in the paper; 8 and
    /// 32 are the other sizes §4 mentions) with the default chain
    /// accumulation.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn new(n: usize) -> Result<Self> {
        Self::with_structure(n, AccumStructure::Chain)
    }

    /// Builds the array with an explicit accumulation structure.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn with_structure(n: usize, structure: AccumStructure) -> Result<Self> {
        assert!(
            (4..=32).contains(&n),
            "block edge {n} outside supported 4..=32"
        );
        let mut nl = Netlist::new(format!("systolic2d-{n}x{n}"));
        // Pixel inputs.
        let cur: Vec<NodeId> = (0..n)
            .map(|j| nl.input(format!("cur{j}"), 8))
            .collect::<Result<_>>()?;
        let refs: Vec<NodeId> = (0..n)
            .map(|j| nl.input(format!("ref{j}"), 8))
            .collect::<Result<_>>()?;
        // Controls.
        let men: Vec<NodeId> = (0..MODULES)
            .map(|m| nl.input(format!("men{m}"), 1))
            .collect::<Result<_>>()?;
        let mclr = nl.input("mclr", 1)?;
        let sel0 = nl.input("sel0", 1)?;
        let sel1 = nl.input("sel1", 1)?;
        let cmp_en = nl.input("cmp_en", 1)?;
        let cmp_clr = nl.input("cmp_clr", 1)?;
        let cmp_idx = nl.input("cmp_idx", 16)?;
        let zero8 = nl.constant("zero8", 0, 8)?;

        let mut module_accs = Vec::with_capacity(MODULES);
        // Per-column current-pixel sources for the module being built;
        // starts at the inputs and grows a register stage per module.
        let mut cur_src: Vec<(NodeId, &str)> = cur.iter().map(|&c| (c, "out")).collect();
        for m in 0..MODULES {
            if m > 0 {
                // Register stage: the Fig. 11 "register array" that
                // propagates current pixels between modules.
                let mut next = Vec::with_capacity(n);
                for (j, src) in cur_src.iter().enumerate() {
                    let reg = nl.cluster(
                        format!("dly_m{m}_c{j}"),
                        ClusterCfg::RegMux {
                            width: 8,
                            registered: true,
                        },
                    )?;
                    nl.connect(*src, (reg, "a"))?;
                    next.push((reg, "y"));
                }
                cur_src = next;
            }
            // PEs: one AD per column, widened to the SAD width.
            let mut wides: Vec<NodeId> = Vec::with_capacity(n);
            for j in 0..n {
                let ad = nl.cluster(
                    format!("ad_m{m}_c{j}"),
                    ClusterCfg::AbsDiff {
                        width: 8,
                        mode: AbsDiffMode::AbsDiff,
                    },
                )?;
                nl.connect(cur_src[j], (ad, "a"))?;
                nl.connect((refs[j], "out"), (ad, "b"))?;
                // Widen the 8-bit difference to the SAD width (zero-extend).
                let wide = nl.concat(format!("w_m{m}_c{j}"), &[(ad, "y"), (zero8, "out")])?;
                wides.push(wide);
            }
            // Row-SAD reduction: chain or balanced tree of ADD/ACC clusters.
            let row_sum = match structure {
                AccumStructure::Chain => {
                    let mut chain_prev: Option<NodeId> = None;
                    for (j, wide) in wides.iter().enumerate() {
                        let add = nl.cluster(
                            format!("chain_m{m}_c{j}"),
                            ClusterCfg::AddAcc {
                                width: SAD_WIDTH,
                                op: AddOp::Add,
                                accumulate: false,
                            },
                        )?;
                        nl.connect((*wide, "out"), (add, "a"))?;
                        if let Some(prev) = chain_prev {
                            nl.connect((prev, "y"), (add, "b"))?;
                        }
                        chain_prev = Some(add);
                    }
                    chain_prev.expect("n >= 4")
                }
                AccumStructure::Tree => {
                    let mut level: Vec<(NodeId, &str)> =
                        wides.iter().map(|&w| (w, "out")).collect();
                    let mut lvl = 0usize;
                    while level.len() > 1 {
                        let mut next = Vec::with_capacity(level.len().div_ceil(2));
                        for (k, pair) in level.chunks(2).enumerate() {
                            if pair.len() == 1 {
                                next.push(pair[0]);
                                continue;
                            }
                            let add = nl.cluster(
                                format!("tree_m{m}_l{lvl}_{k}"),
                                ClusterCfg::AddAcc {
                                    width: SAD_WIDTH,
                                    op: AddOp::Add,
                                    accumulate: false,
                                },
                            )?;
                            nl.connect(pair[0], (add, "a"))?;
                            nl.connect(pair[1], (add, "b"))?;
                            next.push((add, "y"));
                        }
                        level = next;
                        lvl += 1;
                    }
                    level[0].0
                }
            };
            // Module accumulator: sums one row-SAD per cycle.
            let acc = nl.cluster(
                format!("acc_m{m}"),
                ClusterCfg::AddAcc {
                    width: SAD_WIDTH,
                    op: AddOp::Add,
                    accumulate: true,
                },
            )?;
            nl.connect((row_sum, "y"), (acc, "a"))?;
            nl.connect((men[m], "out"), (acc, "en"))?;
            nl.connect((mclr, "out"), (acc, "clr"))?;
            let sad_out = nl.output(format!("sad{m}"), SAD_WIDTH)?;
            nl.connect((acc, "y"), (sad_out, "in"))?;
            module_accs.push(acc);
        }

        // Drain multiplexer tree (register-multiplexer clusters).
        let mux01 = nl.cluster(
            "mux01",
            ClusterCfg::RegMux {
                width: SAD_WIDTH,
                registered: false,
            },
        )?;
        nl.connect((module_accs[0], "y"), (mux01, "a"))?;
        nl.connect((module_accs[1], "y"), (mux01, "b"))?;
        nl.connect((sel0, "out"), (mux01, "sel"))?;
        let mux23 = nl.cluster(
            "mux23",
            ClusterCfg::RegMux {
                width: SAD_WIDTH,
                registered: false,
            },
        )?;
        nl.connect((module_accs[2], "y"), (mux23, "a"))?;
        nl.connect((module_accs[3], "y"), (mux23, "b"))?;
        nl.connect((sel0, "out"), (mux23, "sel"))?;
        let muxtop = nl.cluster(
            "muxtop",
            ClusterCfg::RegMux {
                width: SAD_WIDTH,
                registered: false,
            },
        )?;
        nl.connect((mux01, "y"), (muxtop, "a"))?;
        nl.connect((mux23, "y"), (muxtop, "b"))?;
        nl.connect((sel1, "out"), (muxtop, "sel"))?;

        // Minimum comparator with motion-vector index tracking.
        let comp = nl.cluster(
            "comp",
            ClusterCfg::Comparator {
                width: SAD_WIDTH,
                index_width: 16,
                mode: CompMode::StreamMin,
            },
        )?;
        nl.connect((muxtop, "y"), (comp, "x"))?;
        nl.connect((cmp_idx, "out"), (comp, "idx"))?;
        nl.connect((cmp_en, "out"), (comp, "en"))?;
        nl.connect((cmp_clr, "out"), (comp, "clr"))?;
        let best = nl.output("best_sad", SAD_WIDTH)?;
        nl.connect((comp, "best"), (best, "in"))?;
        let best_idx = nl.output("best_idx", 16)?;
        nl.connect((comp, "best_idx"), (best_idx, "in"))?;

        let plan = ExecPlan::compile(&nl)?;
        let pins = S2dPins {
            cur: (0..n)
                .map(|j| InputPort::resolve(&nl, &format!("cur{j}")))
                .collect::<Result<_>>()?,
            refs: (0..n)
                .map(|j| InputPort::resolve(&nl, &format!("ref{j}")))
                .collect::<Result<_>>()?,
            men: std::array::from_fn(|m| {
                InputPort::resolve(&nl, &format!("men{m}")).expect("men pin exists")
            }),
            mclr: InputPort::resolve(&nl, "mclr")?,
            sel0: InputPort::resolve(&nl, "sel0")?,
            sel1: InputPort::resolve(&nl, "sel1")?,
            cmp_en: InputPort::resolve(&nl, "cmp_en")?,
            cmp_clr: InputPort::resolve(&nl, "cmp_clr")?,
            cmp_idx: InputPort::resolve(&nl, "cmp_idx")?,
            best_sad: OutputPort::resolve(&nl, "best_sad")?,
            best_idx: OutputPort::resolve(&nl, "best_idx")?,
        };
        Ok(Systolic2d {
            netlist: nl,
            n,
            plan,
            pins,
        })
    }

    /// Cycles until the first SAD of a batch is available (§4: "The first
    /// round of SAD calculations would take 16 clock cycles").
    pub fn first_sad_latency(&self) -> u64 {
        self.n as u64
    }
}

impl MeEngine for Systolic2d {
    fn name(&self) -> &'static str {
        "2-D systolic (4xN)"
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn search(
        &self,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        params: &SearchParams,
    ) -> Result<MeSearchResult> {
        assert_eq!(
            params.block, self.n,
            "array built for {}-pixel blocks",
            self.n
        );
        let n = self.n;
        let p = params.range;
        let pins = &self.pins;
        let mut sim = Simulator::with_plan(&self.netlist, &self.plan);
        let mut ref_fetches = 0u64;
        let mut ref_fetches_naive = 0u64;
        let mut cur_fetches = 0u64;
        let mut candidates = 0u64;

        // Reset the comparator.
        sim.drive(pins.cmp_clr, 1);
        sim.step();
        sim.drive(pins.cmp_clr, 0);

        for dx in -p..=p {
            let mut dy_base = -p;
            while dy_base <= p {
                let batch: Vec<(usize, i32)> = (0..MODULES)
                    .map(|m| (m, dy_base + m as i32))
                    .filter(|&(_, dy)| dy <= p && candidate_valid(reference, bx, by, dx, dy, n))
                    .collect();
                dy_base += MODULES as i32;
                if batch.is_empty() {
                    continue;
                }
                candidates += batch.len() as u64;
                ref_fetches_naive += (batch.len() * n * n) as u64;

                // Clear the module accumulators.
                sim.drive(pins.mclr, 1);
                for m in 0..MODULES {
                    sim.drive(pins.men[m], 0);
                }
                sim.step();
                sim.drive(pins.mclr, 0);

                // Stream n + MODULES - 1 rows (stagger tail).
                let dy0 = i64::from(batch[0].1) - batch[0].0 as i64; // dy of module 0 slot
                for t in 0..(n + MODULES - 1) {
                    // Current row t enters column j (module 0 timing).
                    for j in 0..n {
                        let v = if t < n {
                            u64::from(cur.at(bx + j, by + t))
                        } else {
                            0
                        };
                        sim.drive(pins.cur[j], v);
                    }
                    if t < n {
                        cur_fetches += n as u64;
                    }
                    // Broadcast reference row dy0 + t (if any module needs it).
                    let ry = by as i64 + dy0 + t as i64;
                    let row_needed = batch.iter().any(|&(m, _)| t >= m && t < m + n);
                    if row_needed && ry >= 0 && (ry as usize) < reference.height() {
                        for j in 0..n {
                            let x = (bx as i64 + i64::from(dx)) as usize + j;
                            sim.drive(pins.refs[j], u64::from(reference.at(x, ry as usize)));
                        }
                        ref_fetches += n as u64;
                    } else {
                        for j in 0..n {
                            sim.drive(pins.refs[j], 0);
                        }
                    }
                    // Module m accumulates during its n-cycle window.
                    for m in 0..MODULES {
                        let active = batch.iter().any(|&(bm, _)| bm == m && t >= m && t < m + n);
                        sim.drive(pins.men[m], u64::from(active));
                    }
                    sim.step();
                }
                for m in 0..MODULES {
                    sim.drive(pins.men[m], 0);
                }
                // Drain: compare each module SAD against the running best.
                for &(m, dy) in &batch {
                    sim.drive(pins.sel0, (m & 1) as u64);
                    sim.drive(pins.sel1, ((m >> 1) & 1) as u64);
                    sim.drive(pins.cmp_en, 1);
                    sim.drive(pins.cmp_idx, pack_mv(dx, dy, p));
                    sim.step();
                }
                sim.drive(pins.cmp_en, 0);
            }
        }
        // Let the registered comparator outputs settle.
        sim.step();
        let best_sad = sim.read(pins.best_sad);
        let best_idx = sim.read(pins.best_idx);
        Ok(MeSearchResult {
            best: Match {
                mv: unpack_mv(best_idx, p),
                sad: best_sad,
                candidates,
            },
            cycles: sim.cycle(),
            ref_fetches,
            ref_fetches_naive,
            cur_fetches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::full_search;

    fn shifted_planes(w: usize, h: usize, shift: (i32, i32)) -> (Plane, Plane) {
        let pat = |x: i64, y: i64| -> u8 {
            // Non-linear hash so no two displacements alias.
            let h = (x.wrapping_mul(0x9E37_79B9) ^ y.wrapping_mul(0x85EB_CA6B)) as u64;
            ((h ^ (h >> 13)) & 0xFF) as u8
        };
        let mut refd = Vec::with_capacity(w * h);
        let mut curd = Vec::with_capacity(w * h);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                refd.push(pat(x, y));
                curd.push(pat(x + i64::from(shift.0), y + i64::from(shift.1)));
            }
        }
        (Plane::new(w, h, curd), Plane::new(w, h, refd))
    }

    #[test]
    fn resource_report_matches_fig11_structure() {
        let eng = Systolic2d::new(16).unwrap();
        let r = eng.report();
        use dsra_core::cluster::ClusterKind;
        // 4 modules x 16 PEs: one AD each.
        assert_eq!(r.me_clusters(ClusterKind::AbsDiff), 64);
        // Chain adders (64) + module accumulators (4).
        assert_eq!(r.me_clusters(ClusterKind::AddAcc), 68);
        // Register delay lines (3 stages x 16 columns) + drain mux tree (3).
        assert_eq!(r.me_clusters(ClusterKind::RegMux), 51);
        assert_eq!(r.me_clusters(ClusterKind::Comparator), 1);
    }

    #[test]
    fn finds_known_shift_and_matches_reference_exactly() {
        let (cur, refp) = shifted_planes(48, 48, (2, -3));
        let params = SearchParams { block: 8, range: 4 };
        let eng = Systolic2d::new(8).unwrap();
        let hw = eng.search(&cur, &refp, 16, 16, &params).unwrap();
        let sw = full_search(&cur, &refp, 16, 16, &params);
        assert_eq!(hw.best.mv, sw.mv);
        assert_eq!(hw.best.sad, sw.sad);
        assert_eq!(hw.best.mv, (2, -3));
        assert_eq!(hw.best.sad, 0);
    }

    #[test]
    fn noisy_planes_still_match_software() {
        let (mut cur, refp) = shifted_planes(48, 48, (-1, 2));
        // Perturb so SAD is nonzero and ties are possible.
        for y in 0..48 {
            for x in 0..48 {
                if (x + y) % 7 == 0 {
                    let v = cur.at(x, y);
                    *cur.at_mut(x, y) = v.wrapping_add(3);
                }
            }
        }
        let params = SearchParams { block: 8, range: 4 };
        let eng = Systolic2d::new(8).unwrap();
        let hw = eng.search(&cur, &refp, 16, 16, &params).unwrap();
        let sw = full_search(&cur, &refp, 16, 16, &params);
        assert_eq!(hw.best.mv, sw.mv);
        assert_eq!(hw.best.sad, sw.sad);
    }

    #[test]
    fn bandwidth_reuse_beats_naive_fetching() {
        let (cur, refp) = shifted_planes(64, 64, (0, 0));
        let params = SearchParams { block: 8, range: 4 };
        let eng = Systolic2d::new(8).unwrap();
        let hw = eng.search(&cur, &refp, 24, 24, &params).unwrap();
        assert!(
            hw.bandwidth_reduction() > 2.0,
            "broadcast+delay reuse should cut fetches substantially, got {}",
            hw.bandwidth_reduction()
        );
    }

    #[test]
    fn first_sad_latency_is_block_height() {
        let eng = Systolic2d::new(16).unwrap();
        assert_eq!(eng.first_sad_latency(), 16);
    }

    #[test]
    fn adder_tree_cuts_logic_depth_without_changing_results() {
        // DESIGN.md ablation #5: chain vs balanced tree reduction.
        let chain = Systolic2d::with_structure(8, AccumStructure::Chain).unwrap();
        let tree = Systolic2d::with_structure(8, AccumStructure::Tree).unwrap();
        let dc = chain.netlist().logic_depth().unwrap();
        let dt = tree.netlist().logic_depth().unwrap();
        assert!(dt < dc, "tree depth {dt} should beat chain depth {dc}");
        let (cur, refp) = shifted_planes(48, 48, (2, -3));
        let params = SearchParams { block: 8, range: 3 };
        let rc = chain.search(&cur, &refp, 16, 16, &params).unwrap();
        let rt = tree.search(&cur, &refp, 16, 16, &params).unwrap();
        assert_eq!(rc.best, rt.best);
        assert_eq!(rc.cycles, rt.cycles);
        // The tree saves one adder per module (n-1 vs n).
        use dsra_core::cluster::ClusterKind;
        assert_eq!(
            chain.report().me_clusters(ClusterKind::AddAcc),
            tree.report().me_clusters(ClusterKind::AddAcc) + 4
        );
    }
}
