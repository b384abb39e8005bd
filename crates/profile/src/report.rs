//! [`ProfileReport`] — the joined attribution view: per-array
//! utilization, per-kernel cycle and energy accounts, and the global
//! hot-op ranking produced by splitting each kernel's busy cycles with
//! its static [`OpMix`].
//!
//! The op rollup uses [`OpMix::attribute`], a largest-remainder split
//! whose shares sum *exactly* to the input cycles, so a report built
//! from a stream whose every busy interval carries a routable job
//! accounts for 100 % of pool busy cycles — the `profile_serve`
//! acceptance gate reads [`ProfileReport::attribution_pct`] directly.

use crate::profiler::Profiler;
use dsra_sim::{OpClass, OpMix};
use dsra_trace::{CounterTrack, PhaseBreakdown};
use std::collections::BTreeMap;

/// One kernel fingerprint's cycle and energy account, pool-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Bitstream fingerprint (32 hex digits).
    pub fingerprint: String,
    /// Kernel display name.
    pub kernel: String,
    /// Execution cycles across all arrays.
    pub exec_cycles: u64,
    /// Reconfiguration cycles (diff + wake rewrites) across all arrays.
    pub reconfig_cycles: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Dynamic joules.
    pub dynamic_j: f64,
    /// Static joules.
    pub static_j: f64,
    /// Reconfiguration joules.
    pub reconfig_j: f64,
}

impl KernelProfile {
    /// Total joules attributed to this fingerprint.
    pub fn energy_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }
}

/// One operation class's share of pool busy cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotOp {
    /// Operation class.
    pub class: OpClass,
    /// Busy cycles attributed to this class.
    pub cycles: u64,
    /// Share of all attributed cycles, percent.
    pub share_pct: f64,
}

/// The joined attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Per-array phase accounts, array-id order.
    pub arrays: BTreeMap<u32, PhaseBreakdown>,
    /// Per-kernel accounts, hottest (most exec cycles) first.
    pub kernels: Vec<KernelProfile>,
    /// Hot-op ranking, largest share first.
    pub hot_ops: Vec<HotOp>,
    /// Total execution cycles across the pool.
    pub busy_cycles: u64,
    /// Busy cycles attributed to an op class through a kernel's mix.
    pub attributed_cycles: u64,
    /// Busy/reconfig cycles whose interval had no routable job.
    pub unrouted_cycles: u64,
    /// Total joules across all kernel accounts.
    pub total_energy_j: f64,
    /// Largest virtual cycle observed.
    pub end_cycle: u64,
}

impl ProfileReport {
    /// Joins the profiler's accounts with the kernel cache's op mixes
    /// (`SocRuntime::kernel_op_mixes()` tuples: name, fingerprint hex,
    /// mix). Kernels whose fingerprint has no mix keep their cycle and
    /// energy accounts but contribute nothing to the op rollup, which
    /// shows up as `attribution_pct < 100`.
    pub fn build(prof: &Profiler, op_mixes: &[(String, String, OpMix)]) -> Self {
        let mix_of: BTreeMap<&str, &OpMix> = op_mixes
            .iter()
            .map(|(_, fp, mix)| (fp.as_str(), mix))
            .collect();

        let arrays = prof
            .arrays()
            .iter()
            .map(|(&array, acct)| (array, acct.phases))
            .collect();

        // Pool-wide per-fingerprint cycles, then join the energy account.
        let mut cycles: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for acct in prof.arrays().values() {
            for (fp, k) in &acct.kernels {
                let c = cycles.entry(fp.as_str()).or_default();
                c.0 += k.exec;
                c.1 += k.reconfig;
            }
        }
        let mut kernels: Vec<KernelProfile> = cycles
            .iter()
            .map(|(&fp, &(exec, reconfig))| {
                let e = prof.energy().get(fp);
                KernelProfile {
                    fingerprint: fp.to_owned(),
                    kernel: e.map(|e| e.kernel.clone()).unwrap_or_else(|| "?".into()),
                    exec_cycles: exec,
                    reconfig_cycles: reconfig,
                    completions: e.map_or(0, |e| e.completions),
                    dynamic_j: e.map_or(0.0, |e| e.dynamic_j),
                    static_j: e.map_or(0.0, |e| e.static_j),
                    reconfig_j: e.map_or(0.0, |e| e.reconfig_j),
                }
            })
            .collect();
        kernels.sort_by(|a, b| {
            b.exec_cycles
                .cmp(&a.exec_cycles)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });

        // Op rollup: split each kernel's exec cycles with its mix.
        let mut per_class = [0u64; OpClass::COUNT];
        let mut attributed = 0u64;
        for k in &kernels {
            if let Some(mix) = mix_of.get(k.fingerprint.as_str()) {
                for (class, share) in mix.attribute(k.exec_cycles) {
                    per_class[class.index()] += share;
                    attributed += share;
                }
            }
        }
        let mut hot_ops: Vec<HotOp> = OpClass::ALL
            .iter()
            .filter(|c| per_class[c.index()] > 0)
            .map(|&class| HotOp {
                class,
                cycles: per_class[class.index()],
                share_pct: per_class[class.index()] as f64 * 100.0 / attributed.max(1) as f64,
            })
            .collect();
        hot_ops.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then_with(|| a.class.index().cmp(&b.class.index()))
        });

        ProfileReport {
            arrays,
            kernels,
            hot_ops,
            busy_cycles: prof.busy_cycles(),
            attributed_cycles: attributed,
            unrouted_cycles: prof.unrouted_cycles(),
            total_energy_j: prof.total_energy_j(),
            end_cycle: prof.end_cycle(),
        }
    }

    /// Busy cycles attributed to an op class, as a percentage of all
    /// busy cycles (100 when the pool never executed).
    pub fn attribution_pct(&self) -> f64 {
        if self.busy_cycles == 0 {
            return 100.0;
        }
        self.attributed_cycles as f64 * 100.0 / self.busy_cycles as f64
    }

    /// Mean utilization across arrays, percent (0 with no arrays).
    pub fn mean_utilization_pct(&self) -> f64 {
        if self.arrays.is_empty() {
            return 0.0;
        }
        self.arrays
            .values()
            .map(PhaseBreakdown::utilization_pct)
            .sum::<f64>()
            / self.arrays.len() as f64
    }

    /// The human-readable attribution table: per-array utilization,
    /// per-kernel cycles and joules, top-`k` hot ops. Deterministic.
    pub fn render(&self, top_k: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "attribution        : {}/{} busy cycles ({:.2}%), {} unrouted, {:.6} J total\n",
            self.attributed_cycles,
            self.busy_cycles,
            self.attribution_pct(),
            self.unrouted_cycles,
            self.total_energy_j
        ));
        s.push_str("array  util%       idle      gated   reconfig     waking       exec\n");
        for (array, p) in &self.arrays {
            s.push_str(&format!(
                "{:>5}  {:>5.1} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                array,
                p.utilization_pct(),
                p.idle,
                p.gated,
                p.reconfig,
                p.waking,
                p.exec
            ));
        }
        s.push_str("kernel accounts (hottest first):\n");
        for k in &self.kernels {
            s.push_str(&format!(
                "  {}  {:<24} {:>10} exec {:>8} reconfig {:>5} jobs  {:>12.6} J\n",
                k.fingerprint,
                k.kernel,
                k.exec_cycles,
                k.reconfig_cycles,
                k.completions,
                k.energy_j()
            ));
        }
        s.push_str(&format!("top-{top_k} hot ops:\n"));
        for op in self.hot_ops.iter().take(top_k) {
            s.push_str(&format!(
                "  op:{:<14} {:>12} cycles  {:>5.1}%\n",
                op.class.tag(),
                op.cycles,
                op.share_pct
            ));
        }
        s
    }

    /// FNV-1a digest of the rendered report (all rows) — a stable
    /// fingerprint for determinism checks across runs of the same seed.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render(usize::MAX).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Per-array occupancy timelines as Chrome counter tracks: one track per
/// array, one sample per `window` cycles, each sample carrying the
/// cycles that window spent in `exec` / `reconfig` (incl. waking) /
/// `gated` / `idle`. Stacked in the viewer they tile the window, so the
/// exec series *is* the utilization timeline.
pub fn utilization_tracks(prof: &Profiler, window: u64) -> Vec<CounterTrack> {
    let window = window.max(1);
    let mut tracks = Vec::new();
    for (&array, acct) in prof.arrays() {
        let span = acct
            .intervals
            .iter()
            .map(|&(_, end, _)| end)
            .max()
            .unwrap_or(0);
        let windows = span.div_ceil(window).max(1) as usize;
        // [exec, reconfig, gated, idle] cycles per window.
        let mut buckets = vec![[0u64; 4]; windows];
        for &(start, end, phase) in &acct.intervals {
            let slot = match phase {
                dsra_trace::ArrayPhase::Exec => 0,
                dsra_trace::ArrayPhase::Reconfig | dsra_trace::ArrayPhase::Waking => 1,
                dsra_trace::ArrayPhase::Gated => 2,
                dsra_trace::ArrayPhase::Idle => 3,
            };
            // Split the interval across the windows it overlaps.
            let mut t = start;
            while t < end {
                let w = (t / window) as usize;
                let w_end = ((t / window) + 1) * window;
                let upto = end.min(w_end);
                if let Some(b) = buckets.get_mut(w) {
                    b[slot] += upto - t;
                }
                t = upto;
            }
        }
        let samples = buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    i as u64 * window,
                    vec![
                        ("exec".to_owned(), b[0] as f64),
                        ("reconfig".to_owned(), b[1] as f64),
                        ("gated".to_owned(), b[2] as f64),
                        ("idle".to_owned(), b[3] as f64),
                    ],
                )
            })
            .collect();
        tracks.push(CounterTrack {
            name: format!("array{array}_occupancy"),
            tid: array,
            samples,
        });
    }
    tracks
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_trace::{ArrayPhase, EnergyBreakdown, TraceEvent};

    fn profiler_with_two_kernels() -> Profiler {
        let mut p = Profiler::new();
        for (job, array, kernel, fp, start) in [
            (1u32, 0u32, "dct8", "aa", 0u64),
            (2, 1, "me_full", "bb", 100),
        ] {
            let fp: String = fp.repeat(16);
            p.observe(&TraceEvent::JobSchedule {
                t: start,
                job,
                array,
                kernel: kernel.into(),
                fingerprint: fp.clone(),
            });
            p.observe(&TraceEvent::ArrayInterval {
                array,
                phase: ArrayPhase::Reconfig,
                start,
                end: start + 100,
                job: Some(job),
                kernel: Some(kernel.into()),
            });
            p.observe(&TraceEvent::ArrayInterval {
                array,
                phase: ArrayPhase::Exec,
                start: start + 100,
                end: start + 100 + 600,
                job: Some(job),
                kernel: Some(kernel.into()),
            });
            p.observe(&TraceEvent::JobComplete {
                t: start + 700,
                job,
                checksum: 1,
                energy: EnergyBreakdown {
                    dynamic_j: 2.0,
                    static_j: 1.0,
                    reconfig_j: 0.5,
                },
            });
        }
        p
    }

    fn mixes() -> Vec<(String, String, OpMix)> {
        let mut dct = OpMix::new();
        dct.add(OpClass::AddSub, 3);
        dct.add(OpClass::Reg, 1);
        let mut me = OpMix::new();
        me.add(OpClass::AbsDiff, 2);
        vec![
            ("dct8".into(), "aa".repeat(16), dct),
            ("me_full".into(), "bb".repeat(16), me),
        ]
    }

    #[test]
    fn report_attributes_every_busy_cycle_exactly() {
        let p = profiler_with_two_kernels();
        let r = ProfileReport::build(&p, &mixes());
        assert_eq!(r.busy_cycles, 1_200);
        assert_eq!(r.attributed_cycles, 1_200, "exact largest-remainder split");
        assert!((r.attribution_pct() - 100.0).abs() < 1e-12);
        assert_eq!(r.unrouted_cycles, 0);
        assert!((r.total_energy_j - 7.0).abs() < 1e-12);
        // dct8: 600 × {AddSub 3/4, Reg 1/4}; me_full: 600 × AbsDiff.
        let by_class: BTreeMap<_, _> = r.hot_ops.iter().map(|o| (o.class, o.cycles)).collect();
        assert_eq!(by_class[&OpClass::AbsDiff], 600);
        assert_eq!(by_class[&OpClass::AddSub], 450);
        assert_eq!(by_class[&OpClass::Reg], 150);
        assert_eq!(r.hot_ops[0].class, OpClass::AbsDiff, "largest first");
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].completions, 1);
        assert!((r.kernels[0].energy_j() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn missing_mix_lowers_attribution_but_keeps_the_account() {
        let p = profiler_with_two_kernels();
        let only_dct: Vec<_> = mixes().into_iter().take(1).collect();
        let r = ProfileReport::build(&p, &only_dct);
        assert_eq!(r.attributed_cycles, 600);
        assert!((r.attribution_pct() - 50.0).abs() < 1e-12);
        assert_eq!(r.kernels.len(), 2, "energy/cycle accounts survive");
    }

    #[test]
    fn render_and_digest_are_deterministic() {
        let p = profiler_with_two_kernels();
        let r = ProfileReport::build(&p, &mixes());
        assert_eq!(r.render(5), r.render(5));
        assert_eq!(r.digest(), r.digest());
        let fewer = ProfileReport::build(&p, &mixes()[..1]);
        assert_ne!(r.digest(), fewer.digest());
        let table = r.render(5);
        assert!(table.contains("op:abs_diff"));
        assert!(table.contains("dct8"));
        assert!(table.contains("100.00%"));
    }

    #[test]
    fn utilization_tracks_tile_each_window() {
        let p = profiler_with_two_kernels();
        let tracks = utilization_tracks(&p, 200);
        assert_eq!(tracks.len(), 2);
        let t0 = &tracks[0];
        assert_eq!(t0.name, "array0_occupancy");
        // Array 0 spans [0, 700): windows of 200 → 4 samples.
        assert_eq!(t0.samples.len(), 4);
        // First window: 100 reconfig + 100 exec.
        let first: BTreeMap<_, _> = t0.samples[0].1.iter().cloned().collect();
        assert_eq!(first["reconfig"], 100.0);
        assert_eq!(first["exec"], 100.0);
        // Full windows tile to the window size; the tail is partial.
        for (start, series) in &t0.samples[..3] {
            let total: f64 = series.iter().map(|(_, v)| v).sum();
            assert_eq!(total, 200.0, "window at {start} tiles");
        }
    }
}
