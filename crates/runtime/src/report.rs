//! Runtime metrics: what a serve run measured, rendered for humans and as
//! machine-readable JSON.
//!
//! Everything here is a pure function of the (deterministic) serve result,
//! so two runs with the same seed render byte-identical reports — the
//! property the E11 acceptance gate checks.

use crate::cache::CacheStats;
use crate::kernel::ArrayKind;

/// Per-array totals of one batch serve or streaming session.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Array id.
    pub id: usize,
    /// Fabric kind.
    pub kind: ArrayKind,
    /// Jobs executed.
    pub jobs: usize,
    /// Cycles spent executing payloads.
    pub exec_cycles: u64,
    /// Cycles spent on the configuration bus.
    pub reconfig_cycles: u64,
    /// Bits rewritten by reconfigurations.
    pub reconfig_bits: u64,
    /// Switches that actually wrote bits.
    pub reconfig_events: usize,
    /// Busy fraction of the serve's span (the batch makespan, or the
    /// instant a streaming session ended), in percent.
    pub utilization_pct: f64,
    /// Activity-based dynamic energy this array burned (joules).
    pub dynamic_j: f64,
    /// Leakage energy, active and idle (joules).
    pub static_j: f64,
    /// Configuration-plane write energy (joules).
    pub reconfig_j: f64,
    /// Idle cycles spent power-gated (leaking nothing).
    pub gated_cycles: u64,
    /// Idle cycles spent powered (leaking the resident plane, if any).
    pub idle_cycles: u64,
}

impl ArrayReport {
    /// Everything this array drained from the battery.
    pub fn energy_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }
}

/// One served job, in job-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: u32,
    /// Payload kind tag (`dct` / `me` / `encode`).
    pub kind: &'static str,
    /// Array that served it.
    pub array: usize,
    /// Kernel that served it.
    pub kernel: String,
    /// Bits the switch before this job rewrote.
    pub reconfig_bits: u64,
    /// Payload sim-cycles.
    pub exec_cycles: u64,
    /// Cycle the job arrived at (copied from its spec, so serve latency —
    /// `end_cycle - arrival_cycle` — is computable from the outcome alone).
    pub arrival_cycle: u64,
    /// Start cycle (after arrival and queueing).
    pub start_cycle: u64,
    /// Completion cycle.
    pub end_cycle: u64,
    /// Deterministic output digest.
    pub checksum: u64,
    /// Energy attributable to this job (execution dynamic + leakage over
    /// its busy window + its reconfiguration write), in joules.
    pub energy_j: f64,
}

/// One point of the battery trajectory: the charge left after a job's
/// energy was drained, in completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySample {
    /// Job id.
    pub job: u32,
    /// Battery charge after this job, saturating at empty.
    pub charge_j: f64,
}

/// Battery state over one serve: per-job samples plus the idle leakage
/// no single job owns.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryTrajectory {
    /// Design capacity of the battery.
    pub capacity_j: f64,
    /// Charge when the serve was planned.
    pub start_j: f64,
    /// Charge after the whole serve (jobs + idle leakage), saturating.
    pub end_j: f64,
    /// Idle-array leakage drained on top of the per-job energies.
    pub idle_drain_j: f64,
    /// Per-job battery readings in completion (`end_cycle`, id) order.
    pub samples: Vec<BatterySample>,
}

/// Energy metrics of one serve — the power subsystem's half of the
/// report (DESIGN.md §7).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Activity-based dynamic energy (joules).
    pub dynamic_j: f64,
    /// Leakage energy, active and idle (joules).
    pub static_j: f64,
    /// Configuration-plane write energy (joules).
    pub reconfig_j: f64,
    /// Idle cycles that leaked nothing because the policy gates idle
    /// arrays.
    pub gated_cycles: u64,
    /// Mean joules per served job (total / jobs).
    pub joules_per_job: f64,
    /// Frames encoded by the mix's encode-GOP jobs (exact count).
    pub encoded_frames: u64,
    /// Encoded frames per joule (0 when the mix had no encode jobs).
    pub frames_per_joule: f64,
    /// Battery state over the serve.
    pub battery: BatteryTrajectory,
}

impl EnergyReport {
    /// Total joules the serve drained.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }
}

/// The full serve report.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Execution backend that produced the outcomes (`array` / `golden` /
    /// `check`). Reported in the JSON summary; deliberately *not* part of
    /// the digest — the backend contract says outcomes are byte-identical
    /// across backends, so the digest must not vary with the backend.
    pub backend: &'static str,
    /// Jobs served.
    pub jobs: usize,
    /// DCT-block jobs.
    pub dct_jobs: usize,
    /// Motion-search jobs.
    pub me_jobs: usize,
    /// Encode-GOP jobs.
    pub encode_jobs: usize,
    /// Sim-cycle at which the last job completed.
    pub makespan_cycles: u64,
    /// Throughput: jobs per million sim-cycles.
    pub jobs_per_megacycle: f64,
    /// Bitstream-cache counters for this serve call.
    pub cache: CacheStats,
    /// Total bits rewritten across all arrays.
    pub total_reconfig_bits: u64,
    /// Switches that actually wrote bits.
    pub reconfig_events: usize,
    /// Energy and battery metrics.
    pub energy: EnergyReport,
    /// Per-array aggregates (array-id order).
    pub arrays: Vec<ArrayReport>,
    /// Per-job outcomes (job-id order).
    pub outcomes: Vec<JobOutcome>,
}

impl RuntimeReport {
    /// Deterministic digest over every job outcome *and* the energy
    /// columns — one number that changes if any job's placement, cost,
    /// payload result, attributed energy or the battery trajectory
    /// changes.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            h = dsra_core::rng::fnv1a_fold(h, v);
        };
        for o in &self.outcomes {
            mix(u64::from(o.id));
            mix(o.array as u64);
            mix(o.reconfig_bits);
            mix(o.exec_cycles);
            mix(o.start_cycle);
            mix(o.end_cycle);
            mix(o.checksum);
            mix(o.energy_j.to_bits());
        }
        mix(self.energy.dynamic_j.to_bits());
        mix(self.energy.static_j.to_bits());
        mix(self.energy.reconfig_j.to_bits());
        mix(self.energy.gated_cycles);
        mix(self.energy.battery.start_j.to_bits());
        mix(self.energy.battery.end_j.to_bits());
        mix(self.energy.battery.idle_drain_j.to_bits());
        for s in &self.energy.battery.samples {
            mix(u64::from(s.job));
            mix(s.charge_j.to_bits());
        }
        h
    }

    /// Per-job serve latencies (arrival → completion, sim-cycles), sorted
    /// ascending — queueing delay included, which is what an SLO sees.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self
            .outcomes
            .iter()
            .map(|o| o.end_cycle - o.arrival_cycle)
            .collect();
        l.sort_unstable();
        l
    }

    /// Human-readable summary (stable across runs for the same seed).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "jobs served        : {} ({} dct, {} me, {} encode)\n",
            self.jobs, self.dct_jobs, self.me_jobs, self.encode_jobs
        ));
        s.push_str(&format!(
            "makespan           : {} sim-cycles ({:.2} jobs/Mcycle)\n",
            self.makespan_cycles, self.jobs_per_megacycle
        ));
        s.push_str(&format!(
            "bitstream cache    : {} lookups, {} hits, {} misses ({:.2}% hit rate)\n",
            self.cache.lookups(),
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        ));
        s.push_str(&format!(
            "reconfiguration    : {} bits over {} events\n",
            self.total_reconfig_bits, self.reconfig_events
        ));
        let e = &self.energy;
        s.push_str(&format!(
            "energy @ nominal  : {:.1} eu ({:.1} dynamic, {:.1} static, {:.1} reconfig)\n",
            e.total_j(),
            e.dynamic_j,
            e.static_j,
            e.reconfig_j
        ));
        s.push_str(&format!(
            "efficiency         : {:.2} eu/job, {:.6} frames/eu, {} gated cycles\n",
            e.joules_per_job, e.frames_per_joule, e.gated_cycles
        ));
        s.push_str(&format!(
            "battery            : {:.1} -> {:.1} eu of {:.1} ({} samples, {:.1} eu idle drain)\n",
            e.battery.start_j,
            e.battery.end_j,
            e.battery.capacity_j,
            e.battery.samples.len(),
            e.battery.idle_drain_j
        ));
        s.push_str(
            "array  kind  jobs   exec-cycles  reconfig-bits  events  util%     energy-eu  gated\n",
        );
        for a in &self.arrays {
            s.push_str(&format!(
                "{:>5}  {:<4}  {:>4}  {:>12}  {:>13}  {:>6}  {:>5.1}  {:>12.1}  {:>5}\n",
                a.id,
                a.kind.tag(),
                a.jobs,
                a.exec_cycles,
                a.reconfig_bits,
                a.reconfig_events,
                a.utilization_pct,
                a.energy_j(),
                a.gated_cycles
            ));
        }
        s.push_str(&format!("outcome digest     : {:#018x}\n", self.digest()));
        s
    }

    /// Machine-readable JSON summary (the `BENCH_runtime.json` payload).
    pub fn to_json(&self, experiment: &str) -> String {
        self.render_json(experiment, None)
    }

    /// Like [`RuntimeReport::to_json`] with the serve's wall-clock phase
    /// timings appended as a `phases` object (`planning_ms` / `exec_ms`) —
    /// what `soc_serve --json` writes so `BENCH_runtime.json` tracks the
    /// perf trajectory. Timings are diagnostics: the rest of the document
    /// (and the digest) stays byte-identical per seed.
    pub fn to_json_with_phases(&self, experiment: &str, phases: crate::PhaseTimings) -> String {
        self.render_json(experiment, Some(phases))
    }

    fn render_json(&self, experiment: &str, phases: Option<crate::PhaseTimings>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
        s.push_str(&format!("  \"backend\": \"{}\",\n", self.backend));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"dct_jobs\": {},\n", self.dct_jobs));
        s.push_str(&format!("  \"me_jobs\": {},\n", self.me_jobs));
        s.push_str(&format!("  \"encode_jobs\": {},\n", self.encode_jobs));
        s.push_str(&format!(
            "  \"makespan_cycles\": {},\n",
            self.makespan_cycles
        ));
        s.push_str(&format!(
            "  \"jobs_per_megacycle\": {:.4},\n",
            self.jobs_per_megacycle
        ));
        s.push_str(&format!(
            "  \"cache\": {{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6}}},\n",
            self.cache.lookups(),
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate()
        ));
        s.push_str(&format!(
            "  \"total_reconfig_bits\": {},\n",
            self.total_reconfig_bits
        ));
        s.push_str(&format!(
            "  \"reconfig_events\": {},\n",
            self.reconfig_events
        ));
        s.push_str(&format!(
            "  \"outcome_digest\": \"{:#018x}\",\n",
            self.digest()
        ));
        // Serve-latency percentiles (nearest-rank over arrival → completion
        // cycles) — the queueing-aware view the SLO layer (DESIGN.md §9)
        // reads off this file.
        let lat = self.sorted_latencies();
        let pct = |p: f64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
            lat[rank.clamp(1, lat.len()) - 1]
        };
        s.push_str(&format!(
            "  \"latency\": {{\"p50_cycles\": {}, \"p99_cycles\": {}}},\n",
            pct(50.0),
            pct(99.0)
        ));
        if let Some(p) = phases {
            s.push_str(&format!(
                "  \"phases\": {{\"planning_ms\": {:.3}, \"exec_ms\": {:.3}}},\n",
                p.planning_ms, p.exec_ms
            ));
        }
        let e = &self.energy;
        // Every array runs at the one nominal clock; `point` stays in the
        // document because readers of `BENCH_runtime.json` require the key.
        s.push_str(&format!(
            "  \"energy\": {{\"point\": \"nominal\", \"total_j\": {:.6}, \"dynamic_j\": {:.6}, \
             \"static_j\": {:.6}, \"reconfig_j\": {:.6}, \"gated_cycles\": {}, \
             \"joules_per_job\": {:.6}, \"encoded_frames\": {}, \"frames_per_joule\": {:.6}}},\n",
            e.total_j(),
            e.dynamic_j,
            e.static_j,
            e.reconfig_j,
            e.gated_cycles,
            e.joules_per_job,
            e.encoded_frames,
            e.frames_per_joule
        ));
        s.push_str(&format!(
            "  \"battery\": {{\"capacity_j\": {:.6}, \"start_j\": {:.6}, \"end_j\": {:.6}, \
             \"idle_drain_j\": {:.6}, \"trajectory\": [",
            e.battery.capacity_j, e.battery.start_j, e.battery.end_j, e.battery.idle_drain_j
        ));
        for (i, sample) in e.battery.samples.iter().enumerate() {
            s.push_str(&format!(
                "{}{{\"job\": {}, \"charge_j\": {:.6}}}",
                if i == 0 { "" } else { ", " },
                sample.job,
                sample.charge_j
            ));
        }
        s.push_str("]},\n");
        s.push_str("  \"arrays\": [\n");
        for (i, a) in self.arrays.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"kind\": \"{}\", \"jobs\": {}, \"exec_cycles\": {}, \
                 \"reconfig_bits\": {}, \"reconfig_events\": {}, \"utilization_pct\": {:.2}, \
                 \"energy_j\": {:.6}, \"dynamic_j\": {:.6}, \"static_j\": {:.6}, \
                 \"reconfig_j\": {:.6}, \"gated_cycles\": {}}}{}\n",
                a.id,
                a.kind.tag(),
                a.jobs,
                a.exec_cycles,
                a.reconfig_bits,
                a.reconfig_events,
                a.utilization_pct,
                a.energy_j(),
                a.dynamic_j,
                a.static_j,
                a.reconfig_j,
                a.gated_cycles,
                if i + 1 == self.arrays.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}
