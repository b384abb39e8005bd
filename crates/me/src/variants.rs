//! Alternative ME architectures on the same cluster set — the paper's
//! flexibility argument (§1: the arrays "support a number of
//! implementations having different performance characteristics").
//!
//! * [`Systolic1d`] — one row of `N` PEs, one candidate at a time (the 1-D
//!   array family of refs \[12\]–\[14]\: less area, more cycles, higher
//!   required clock rate for the same throughput);
//! * [`Sequential`] — a single PE (AD + accumulator + comparator), the
//!   minimal-area mapping;
//! * fast-search schedules ([`run_schedule`]) that reuse the sequential
//!   engine with three-step / diamond candidate patterns, trading match
//!   quality for cycles — the run-time trade the paper's conclusion invokes
//!   for low-battery operation.

use dsra_core::cluster::{AbsDiffMode, AddOp, ClusterCfg, CompMode};
use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};
use dsra_sim::{ExecPlan, InputPort, OutputPort, Simulator};

use crate::harness::{pack_mv, unpack_mv, MeEngine, MeSearchResult};
use crate::reference::{candidate_valid, Match, Plane, SearchParams};

const SAD_WIDTH: u8 = 16;

fn comparator_stage(nl: &mut Netlist, x_src: (NodeId, &str)) -> Result<()> {
    let cmp_en = nl.input("cmp_en", 1)?;
    let cmp_clr = nl.input("cmp_clr", 1)?;
    let cmp_idx = nl.input("cmp_idx", 16)?;
    let comp = nl.cluster(
        "comp",
        ClusterCfg::Comparator {
            width: SAD_WIDTH,
            index_width: 16,
            mode: CompMode::StreamMin,
        },
    )?;
    nl.connect(x_src, (comp, "x"))?;
    nl.connect((cmp_idx, "out"), (comp, "idx"))?;
    nl.connect((cmp_en, "out"), (comp, "en"))?;
    nl.connect((cmp_clr, "out"), (comp, "clr"))?;
    let best = nl.output("best_sad", SAD_WIDTH)?;
    nl.connect((comp, "best"), (best, "in"))?;
    let best_idx = nl.output("best_idx", 16)?;
    nl.connect((comp, "best_idx"), (best_idx, "in"))?;
    Ok(())
}

/// The accumulator and comparator control pins both engines share,
/// resolved once at construction.
#[derive(Debug, Clone, Copy)]
struct PePins {
    men: InputPort,
    mclr: InputPort,
    cmp_en: InputPort,
    cmp_clr: InputPort,
    cmp_idx: InputPort,
    best_sad: OutputPort,
    best_idx: OutputPort,
}

impl PePins {
    fn resolve(nl: &Netlist) -> Result<Self> {
        let pin = |name| InputPort::resolve(nl, name);
        let out = |name| OutputPort::resolve(nl, name);
        Ok(PePins {
            men: pin("men")?,
            mclr: pin("mclr")?,
            cmp_en: pin("cmp_en")?,
            cmp_clr: pin("cmp_clr")?,
            cmp_idx: pin("cmp_idx")?,
            best_sad: out("best_sad")?,
            best_idx: out("best_idx")?,
        })
    }

    /// A fresh simulator with the comparator reset (one cycle).
    fn reset<'n>(&self, nl: &'n Netlist, plan: &'n ExecPlan) -> Simulator<'n> {
        let mut sim = Simulator::with_plan(nl, plan);
        sim.drive(self.cmp_clr, 1);
        sim.step();
        sim.drive(self.cmp_clr, 0);
        sim
    }

    /// Feeds the finished candidate's SAD to the comparator (one cycle).
    fn compare(&self, sim: &mut Simulator<'_>, mv_index: u64) {
        sim.drive(self.cmp_en, 1);
        sim.drive(self.cmp_idx, mv_index);
        sim.step();
        sim.drive(self.cmp_en, 0);
    }

    /// Lets the registered comparator settle and reads out the winner.
    fn finish(&self, sim: &mut Simulator<'_>, range: i32, stats: &mut MeSearchResult) {
        sim.step();
        stats.best.mv = unpack_mv(sim.read(self.best_idx), range);
        stats.best.sad = sim.read(self.best_sad);
        stats.cycles = sim.cycle();
    }
}

/// One row of `N` PEs: streams a candidate's rows, one per cycle.
#[derive(Debug)]
pub struct Systolic1d {
    netlist: Netlist,
    n: usize,
    plan: ExecPlan,
    pins: PePins,
    cur_pins: Vec<InputPort>,
    ref_pins: Vec<InputPort>,
}

impl Systolic1d {
    /// Builds the 1-D array for `n`-pixel blocks.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn new(n: usize) -> Result<Self> {
        assert!((4..=32).contains(&n), "block edge out of range");
        let mut nl = Netlist::new(format!("systolic1d-{n}"));
        let zero8 = nl.constant("zero8", 0, 8)?;
        let men = nl.input("men", 1)?;
        let mclr = nl.input("mclr", 1)?;
        let mut chain_prev: Option<NodeId> = None;
        for j in 0..n {
            let curj = nl.input(format!("cur{j}"), 8)?;
            let refj = nl.input(format!("ref{j}"), 8)?;
            let ad = nl.cluster(
                format!("ad{j}"),
                ClusterCfg::AbsDiff {
                    width: 8,
                    mode: AbsDiffMode::AbsDiff,
                },
            )?;
            nl.connect((curj, "out"), (ad, "a"))?;
            nl.connect((refj, "out"), (ad, "b"))?;
            let wide = nl.concat(format!("w{j}"), &[(ad, "y"), (zero8, "out")])?;
            let add = nl.cluster(
                format!("chain{j}"),
                ClusterCfg::AddAcc {
                    width: SAD_WIDTH,
                    op: AddOp::Add,
                    accumulate: false,
                },
            )?;
            nl.connect((wide, "out"), (add, "a"))?;
            if let Some(prev) = chain_prev {
                nl.connect((prev, "y"), (add, "b"))?;
            }
            chain_prev = Some(add);
        }
        let acc = nl.cluster(
            "acc",
            ClusterCfg::AddAcc {
                width: SAD_WIDTH,
                op: AddOp::Add,
                accumulate: true,
            },
        )?;
        nl.connect((chain_prev.expect("n >= 4"), "y"), (acc, "a"))?;
        nl.connect((men, "out"), (acc, "en"))?;
        nl.connect((mclr, "out"), (acc, "clr"))?;
        comparator_stage(&mut nl, (acc, "y"))?;
        let plan = ExecPlan::compile(&nl)?;
        let cur_pins = (0..n)
            .map(|j| InputPort::resolve(&nl, &format!("cur{j}")))
            .collect::<Result<_>>()?;
        let ref_pins = (0..n)
            .map(|j| InputPort::resolve(&nl, &format!("ref{j}")))
            .collect::<Result<_>>()?;
        Ok(Systolic1d {
            pins: PePins::resolve(&nl)?,
            netlist: nl,
            n,
            plan,
            cur_pins,
            ref_pins,
        })
    }
}

impl MeEngine for Systolic1d {
    fn name(&self) -> &'static str {
        "1-D systolic (N PE)"
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
        assert_eq!(params.block, self.n);
        let n = self.n;
        let p = params.range;
        let mut sim = self.pins.reset(&self.netlist, &self.plan);
        let mut stats = empty_stats();
        for dx in -p..=p {
            for dy in -p..=p {
                if !candidate_valid(reference, bx, by, dx, dy, n) {
                    continue;
                }
                stats.best.candidates += 1;
                self.run_candidate_rows(&mut sim, cur, reference, bx, by, dx, dy, &mut stats);
                self.pins.compare(&mut sim, pack_mv(dx, dy, p));
            }
        }
        self.pins.finish(&mut sim, p, &mut stats);
        Ok(stats)
    }
}

impl Systolic1d {
    /// Streams the `n` rows of one candidate through the 1-D PE row.
    #[allow(clippy::too_many_arguments)]
    fn run_candidate_rows(
        &self,
        sim: &mut Simulator<'_>,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        dx: i32,
        dy: i32,
        stats: &mut MeSearchResult,
    ) {
        let n = self.n;
        sim.drive(self.pins.mclr, 1);
        sim.drive(self.pins.men, 0);
        sim.step();
        sim.drive(self.pins.mclr, 0);
        sim.drive(self.pins.men, 1);
        for t in 0..n {
            for j in 0..n {
                sim.drive(self.cur_pins[j], u64::from(cur.at(bx + j, by + t)));
                let rx = (bx as i64 + i64::from(dx)) as usize + j;
                let ry = (by as i64 + i64::from(dy)) as usize + t;
                sim.drive(self.ref_pins[j], u64::from(reference.at(rx, ry)));
            }
            stats.cur_fetches += n as u64;
            stats.ref_fetches += n as u64;
            stats.ref_fetches_naive += n as u64;
            sim.step();
        }
        sim.drive(self.pins.men, 0);
    }
}

/// A single-PE engine: one AD, one accumulator, the comparator.
#[derive(Debug)]
pub struct Sequential {
    netlist: Netlist,
    n: usize,
    plan: ExecPlan,
    pins: PePins,
    cur: InputPort,
    refp: InputPort,
}

impl Sequential {
    /// Builds the single-PE engine for `n`-pixel blocks.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn new(n: usize) -> Result<Self> {
        let mut nl = Netlist::new("sequential-pe");
        let zero8 = nl.constant("zero8", 0, 8)?;
        let a = nl.input("cur", 8)?;
        let b = nl.input("ref", 8)?;
        let men = nl.input("men", 1)?;
        let mclr = nl.input("mclr", 1)?;
        let ad = nl.cluster(
            "ad",
            ClusterCfg::AbsDiff {
                width: 8,
                mode: AbsDiffMode::AbsDiff,
            },
        )?;
        nl.connect((a, "out"), (ad, "a"))?;
        nl.connect((b, "out"), (ad, "b"))?;
        let wide = nl.concat("w", &[(ad, "y"), (zero8, "out")])?;
        let acc = nl.cluster(
            "acc",
            ClusterCfg::AddAcc {
                width: SAD_WIDTH,
                op: AddOp::Add,
                accumulate: true,
            },
        )?;
        nl.connect((wide, "out"), (acc, "a"))?;
        nl.connect((men, "out"), (acc, "en"))?;
        nl.connect((mclr, "out"), (acc, "clr"))?;
        comparator_stage(&mut nl, (acc, "y"))?;
        let plan = ExecPlan::compile(&nl)?;
        Ok(Sequential {
            pins: PePins::resolve(&nl)?,
            cur: InputPort::resolve(&nl, "cur")?,
            refp: InputPort::resolve(&nl, "ref")?,
            netlist: nl,
            n,
            plan,
        })
    }

    /// Evaluates one candidate pixel-serially and feeds the comparator.
    #[allow(clippy::too_many_arguments)]
    fn run_candidate(
        &self,
        sim: &mut Simulator<'_>,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        dx: i32,
        dy: i32,
        range: i32,
        stats: &mut MeSearchResult,
    ) {
        let n = self.n;
        sim.drive(self.pins.mclr, 1);
        sim.drive(self.pins.men, 0);
        sim.drive(self.pins.cmp_en, 0);
        sim.step();
        sim.drive(self.pins.mclr, 0);
        sim.drive(self.pins.men, 1);
        for y in 0..n {
            for x in 0..n {
                sim.drive(self.cur, u64::from(cur.at(bx + x, by + y)));
                let rx = (bx as i64 + i64::from(dx)) as usize + x;
                let ry = (by as i64 + i64::from(dy)) as usize + y;
                sim.drive(self.refp, u64::from(reference.at(rx, ry)));
                sim.step();
            }
        }
        stats.cur_fetches += (n * n) as u64;
        stats.ref_fetches += (n * n) as u64;
        stats.ref_fetches_naive += (n * n) as u64;
        sim.drive(self.pins.men, 0);
        self.pins.compare(sim, pack_mv(dx, dy, range));
        stats.best.candidates += 1;
    }
}

impl MeEngine for Sequential {
    fn name(&self) -> &'static str {
        "sequential (1 PE)"
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
        assert_eq!(params.block, self.n);
        let p = params.range;
        let mut sim = self.pins.reset(&self.netlist, &self.plan);
        let mut stats = empty_stats();
        for dx in -p..=p {
            for dy in -p..=p {
                if !candidate_valid(reference, bx, by, dx, dy, self.n) {
                    continue;
                }
                self.run_candidate(&mut sim, cur, reference, bx, by, dx, dy, p, &mut stats);
            }
        }
        self.pins.finish(&mut sim, p, &mut stats);
        Ok(stats)
    }
}

fn empty_stats() -> MeSearchResult {
    MeSearchResult {
        best: Match {
            mv: (0, 0),
            sad: 0,
            candidates: 0,
        },
        cycles: 0,
        ref_fetches: 0,
        ref_fetches_naive: 0,
        cur_fetches: 0,
    }
}

/// Fast-search candidate schedules runnable on the [`Sequential`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Three-step search.
    ThreeStep,
    /// Diamond search (large + small diamond pattern).
    Diamond,
}

/// Runs a fast-search schedule on the sequential engine: the same fabric
/// configuration, a different controller program — the paper's dynamic
/// reconfigurability argument in miniature.
///
/// # Errors
/// Propagates simulator errors.
pub fn run_schedule(
    engine: &Sequential,
    schedule: Schedule,
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    params: &SearchParams,
) -> Result<MeSearchResult> {
    let p = params.range;
    let n = params.block;
    assert_eq!(n, engine.n);
    let mut sim = engine.pins.reset(&engine.netlist, &engine.plan);
    let mut stats = empty_stats();
    let mut center = (0i32, 0i32);
    let mut evaluated: std::collections::HashSet<(i32, i32)> = std::collections::HashSet::new();
    let eval = |sim: &mut Simulator<'_>,
                stats: &mut MeSearchResult,
                evaluated: &mut std::collections::HashSet<(i32, i32)>,
                (dx, dy): (i32, i32)|
     -> Result<Option<u64>> {
        if dx.abs() > p
            || dy.abs() > p
            || evaluated.contains(&(dx, dy))
            || !candidate_valid(reference, bx, by, dx, dy, n)
        {
            return Ok(None);
        }
        evaluated.insert((dx, dy));
        engine.run_candidate(sim, cur, reference, bx, by, dx, dy, p, stats);
        Ok(Some(crate::reference::sad(
            cur, reference, bx, by, dx, dy, n,
        )))
    };

    let mut best_sad =
        eval(&mut sim, &mut stats, &mut evaluated, (0, 0))?.expect("(0,0) is always valid");
    match schedule {
        Schedule::ThreeStep => {
            for ring in crate::reference::three_step_candidates(p) {
                let mut best_here = center;
                for (ox, oy) in ring {
                    let cand = (center.0 + ox, center.1 + oy);
                    if cand == center {
                        continue;
                    }
                    if let Some(s) = eval(&mut sim, &mut stats, &mut evaluated, cand)? {
                        if s < best_sad {
                            best_sad = s;
                            best_here = cand;
                        }
                    }
                }
                center = best_here;
            }
        }
        Schedule::Diamond => {
            let large = [
                (0, -2),
                (-1, -1),
                (1, -1),
                (-2, 0),
                (2, 0),
                (-1, 1),
                (1, 1),
                (0, 2),
            ];
            let small = [(0, -1), (-1, 0), (1, 0), (0, 1)];
            loop {
                let mut best_here = center;
                for (ox, oy) in large {
                    let cand = (center.0 + ox, center.1 + oy);
                    if let Some(s) = eval(&mut sim, &mut stats, &mut evaluated, cand)? {
                        if s < best_sad {
                            best_sad = s;
                            best_here = cand;
                        }
                    }
                }
                if best_here == center {
                    break;
                }
                center = best_here;
            }
            for (ox, oy) in small {
                let cand = (center.0 + ox, center.1 + oy);
                if let Some(s) = eval(&mut sim, &mut stats, &mut evaluated, cand)? {
                    if s < best_sad {
                        best_sad = s;
                    }
                }
            }
        }
    }
    engine.pins.finish(&mut sim, p, &mut stats);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::full_search;
    use crate::systolic2d::Systolic2d;

    fn shifted(w: usize, h: usize, shift: (i32, i32)) -> (Plane, Plane) {
        let pat = |x: i64, y: i64| -> u8 {
            // Non-linear hash so no two displacements alias.
            let h = (x.wrapping_mul(0x9E37_79B9) ^ y.wrapping_mul(0x85EB_CA6B)) as u64;
            ((h ^ (h >> 13)) & 0xFF) as u8
        };
        let mut refd = Vec::new();
        let mut curd = Vec::new();
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                refd.push(pat(x, y));
                curd.push(pat(x + i64::from(shift.0), y + i64::from(shift.1)));
            }
        }
        (Plane::new(w, h, curd), Plane::new(w, h, refd))
    }

    #[test]
    fn one_d_matches_software_reference() {
        let (cur, refp) = shifted(40, 40, (1, -2));
        let params = SearchParams { block: 8, range: 3 };
        let eng = Systolic1d::new(8).unwrap();
        let hw = eng.search(&cur, &refp, 16, 16, &params).unwrap();
        let sw = full_search(&cur, &refp, 16, 16, &params);
        assert_eq!(hw.best.mv, sw.mv);
        assert_eq!(hw.best.sad, sw.sad);
    }

    #[test]
    fn sequential_matches_software_reference() {
        let (cur, refp) = shifted(40, 40, (-2, 1));
        let params = SearchParams { block: 8, range: 3 };
        let eng = Sequential::new(8).unwrap();
        let hw = eng.search(&cur, &refp, 16, 16, &params).unwrap();
        let sw = full_search(&cur, &refp, 16, 16, &params);
        assert_eq!(hw.best.mv, sw.mv);
        assert_eq!(hw.best.sad, sw.sad);
    }

    #[test]
    fn architectures_trade_area_for_cycles() {
        let (cur, refp) = shifted(40, 40, (1, 1));
        let params = SearchParams { block: 8, range: 3 };
        let s2 = Systolic2d::new(8).unwrap();
        let s1 = Systolic1d::new(8).unwrap();
        let s0 = Sequential::new(8).unwrap();
        let r2 = s2.search(&cur, &refp, 16, 16, &params).unwrap();
        let r1 = s1.search(&cur, &refp, 16, 16, &params).unwrap();
        let r0 = s0.search(&cur, &refp, 16, 16, &params).unwrap();
        // Same answer everywhere.
        assert_eq!(r2.best.mv, r1.best.mv);
        assert_eq!(r1.best.mv, r0.best.mv);
        // More PEs, fewer cycles.
        assert!(
            r2.cycles < r1.cycles,
            "2-D {} vs 1-D {}",
            r2.cycles,
            r1.cycles
        );
        assert!(
            r1.cycles < r0.cycles,
            "1-D {} vs seq {}",
            r1.cycles,
            r0.cycles
        );
        // More PEs, more clusters.
        let clusters = |e: &dyn MeEngine| e.report().total_clusters();
        assert!(clusters(&s2) > clusters(&s1));
        assert!(clusters(&s1) > clusters(&s0));
    }

    /// Smooth texture: fast local searches need a SAD landscape that
    /// decreases toward the true displacement (natural video does; white
    /// noise does not).
    fn shifted_smooth(w: usize, h: usize, shift: (i32, i32)) -> (Plane, Plane) {
        let pat = |x: i64, y: i64| -> u8 {
            let fx = x as f64 * 0.35;
            let fy = y as f64 * 0.22;
            (128.0 + 60.0 * (fx.sin() + (fy + 0.3 * fx).cos())) as u8
        };
        let mut refd = Vec::new();
        let mut curd = Vec::new();
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                refd.push(pat(x, y));
                curd.push(pat(x + i64::from(shift.0), y + i64::from(shift.1)));
            }
        }
        (Plane::new(w, h, curd), Plane::new(w, h, refd))
    }

    #[test]
    fn three_step_schedule_cuts_cycles() {
        let (cur, refp) = shifted_smooth(48, 48, (2, 2));
        let params = SearchParams { block: 8, range: 4 };
        let eng = Sequential::new(8).unwrap();
        let full = eng.search(&cur, &refp, 16, 16, &params).unwrap();
        let tss = run_schedule(&eng, Schedule::ThreeStep, &cur, &refp, 16, 16, &params).unwrap();
        assert!(tss.cycles * 2 < full.cycles);
        // Clean shift: TSS finds the same motion vector.
        assert_eq!(tss.best.mv, full.best.mv);
    }

    #[test]
    fn diamond_schedule_finds_clean_shift() {
        let (cur, refp) = shifted_smooth(48, 48, (-2, 1));
        let params = SearchParams { block: 8, range: 4 };
        let eng = Sequential::new(8).unwrap();
        let dia = run_schedule(&eng, Schedule::Diamond, &cur, &refp, 16, 16, &params).unwrap();
        assert_eq!(dia.best.mv, (-2, 1));
    }
}
