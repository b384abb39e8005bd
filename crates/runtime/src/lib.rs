//! # dsra-runtime — the multi-array SoC runtime
//!
//! The layer between the compile pipeline and the experiments: a
//! deterministic runtime that serves a queue of heterogeneous video jobs
//! (DCT blocks, motion searches, encode GOPs from `dsra-video`) across a
//! pool of simulated ME and DA arrays, using worker threads.
//!
//! Four pieces (DESIGN.md §6):
//!
//! * a **content-addressed bitstream cache** ([`cache::BitstreamCache`]):
//!   compiled `(placement, routing, bitstream)` artifacts keyed by
//!   `Netlist::fingerprint()`, so place-and-route runs once per distinct
//!   kernel rather than once per job;
//! * **diff-aware placement** (`scheduler::place`): a pure function
//!   that puts each job on the array whose resident bitstream minimises
//!   `diff_bits()` reconfiguration cost plus queueing delay, with a
//!   [`scheduler::SchedulePolicy`] hook honouring the platform's run-time
//!   `Condition` (battery / deadline / quality);
//! * a **per-array ledger**, the only per-array state and the one
//!   accounting path of both serving modes: it holds the resident kernel
//!   and the busy-until clock that placement prices, charges each array's
//!   configuration writes, execution and idle leakage, and emits the
//!   array's trace intervals and job schedule/complete events. Batch
//!   [`SocRuntime::serve`] plans every job up front against estimated
//!   clocks, runs each array's payloads on its own worker thread, then
//!   walks each plan through its ledger; streaming
//!   ([`SocRuntime::stream_serve_job`] and the gate/wake/quarantine
//!   hooks) places on and drives the same ledgers one event at a time;
//! * a **metrics layer** ([`report::RuntimeReport`]): jobs per mega-cycle,
//!   cache hit rate, total reconfiguration bits and per-array utilisation,
//!   consumed by the E11 `soc_serve` binary and its Criterion group.
//!
//! Determinism is load-bearing: scheduling decisions are made sequentially
//! before any worker thread starts, every payload is a pure function of
//! its job spec, and workers only compute — the ledgers run on the serving
//! thread — so the report, including its `digest()`, is byte-identical
//! across runs regardless of thread interleaving.
//!
//! The arrays run at one clock, 100 MHz ([`CYCLES_PER_US`] = 100), and
//! every configuration bit written costs 2.0 energy units; neither is a
//! setting.
//!
//! ## Quick tour
//!
//! ```
//! use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
//! use dsra_video::{generate_job_mix, JobMixConfig, JobMixWeights};
//!
//! # fn main() -> Result<(), dsra_core::error::CoreError> {
//! // A small pool (1 DA array, no ME arrays) offering two DCT mappings.
//! let mut runtime = SocRuntime::new(RuntimeConfig {
//!     da_arrays: 1,
//!     me_arrays: 0,
//!     mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
//!     ..Default::default()
//! })?;
//! let jobs = generate_job_mix(JobMixConfig {
//!     jobs: 8,
//!     weights: JobMixWeights { dct: 1, me: 0, encode: 0 },
//!     ..Default::default()
//! });
//! let report = runtime.serve(&jobs)?;
//! assert_eq!(report.jobs, 8);
//! // Two mappings at most → at most two compiles ever; the rest hit.
//! assert!(report.cache.hits >= 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod kernel;
mod ledger;
pub mod report;
pub mod scheduler;

use std::collections::HashMap;
use std::sync::Arc;

use dsra_core::error::{CoreError, Result};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::netlist::{Fingerprint, Netlist};
use dsra_core::report::ExecOutcome;
use dsra_dct::DaParams;
use dsra_platform::{profile_impl, standard_da_fabric, Condition, ImplProfile};
use dsra_power::{Battery, NOMINAL_FREQ_MHZ};
use dsra_tech::TechModel;
use dsra_trace::{NoopSink, TraceEvent, TraceSink};
use dsra_video::{JobPayload, JobSpec};

pub use cache::{BitstreamCache, CacheStats, CompiledKernel};
pub use dsra_backend::{Backend, BackendKind};
pub use kernel::{ArrayKind, DctMapping, KernelId};
use ledger::ArrayLedger;
pub use report::{
    ArrayReport, BatterySample, BatteryTrajectory, EnergyReport, JobOutcome, RuntimeReport,
};
use scheduler::{place, Candidate};
pub use scheduler::{
    DefaultPolicy, DiffMatrix, DiffStats, EnergyAwarePolicy, NaivePolicy, PlannedSlot,
    PowerSnapshot, SchedulePolicy,
};

/// Wall-clock phase timings of the last [`SocRuntime::serve`] call —
/// diagnostics for the perf trajectory (`soc_serve --json` records them).
/// Never part of the deterministic report or its digest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Milliseconds spent planning (kernel selection + diff-aware
    /// placement) on the serve thread.
    pub planning_ms: f64,
    /// Milliseconds spent executing the per-array plans on worker threads.
    pub exec_ms: f64,
}

/// Sim-cycles per virtual µs at the nominal 100 MHz array clock
/// ([`NOMINAL_FREQ_MHZ`]): the one conversion every streaming frontend
/// stamps its µs clock with.
pub const CYCLES_PER_US: u64 = NOMINAL_FREQ_MHZ as u64;

/// Power-domain configuration of a [`SocRuntime`]: the battery the pool
/// serves from. The arrays always run at [`NOMINAL_FREQ_MHZ`] and every
/// configuration bit written costs 2.0 energy units.
#[derive(Debug, Clone, Copy)]
pub struct PowerConfig {
    /// Battery capacity in the technology model's (arbitrary) joules.
    pub battery_capacity_j: f64,
    /// Battery percentage at or below which energy-aware policies switch
    /// to battery-stretching behaviour.
    pub low_battery_pct: u8,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            // Roughly ten default 1000-job serves at nominal — enough for
            // E12's discharge loop to see the low-battery phase kick in.
            battery_capacity_j: 2.0e10,
            low_battery_pct: 20,
        }
    }
}

/// Pool and platform configuration of a [`SocRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of DA arrays in the pool.
    pub da_arrays: usize,
    /// Number of ME arrays in the pool.
    pub me_arrays: usize,
    /// Fixed-point parameters for the DCT mappings.
    pub da_params: DaParams,
    /// DCT mappings the runtime offers for policy selection.
    pub mappings: Vec<DctMapping>,
    /// Battery capacity and low-battery threshold.
    pub power: PowerConfig,
    /// Execution backend the worker threads run payloads on: the
    /// cycle-level array simulator (default), the pure-software golden
    /// reference, or the differential check mode that runs both and fails
    /// on any divergence. Outcomes are byte-identical across backends by
    /// contract.
    pub backend: BackendKind,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            da_arrays: 2,
            me_arrays: 2,
            da_params: DaParams::precise(),
            mappings: DctMapping::ALL.to_vec(),
            power: PowerConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

/// One planned job: what a worker executes and the ledger then charges.
#[derive(Debug, Clone)]
struct Assignment {
    job: JobSpec,
    /// Compiled kernel serving it (shared cache entry).
    kernel: Arc<CompiledKernel>,
    /// Where placement put it and at what reconfiguration cost.
    slot: PlannedSlot,
}

/// A kernel recipe's memoised identity: content address plus the netlist
/// kept around for the (single) compile on a cache miss.
#[derive(Debug)]
struct KernelSeed {
    fingerprint: Fingerprint,
    netlist: Netlist,
}

/// State of the incremental (arrival-ordered) streaming mode: the
/// per-array ledgers, whose clocks, resident kernels and gating flags
/// survive between jobs, plus session tallies. Owned by the runtime
/// between [`SocRuntime::stream_begin`] and [`SocRuntime::stream_end`].
struct StreamState {
    ledgers: Vec<ArrayLedger>,
    gate_events: usize,
    wakes: usize,
    /// Cache counters at session open, for the session-delta trace
    /// counters emitted by `stream_end`.
    cache_before: CacheStats,
    /// DiffMatrix counters at session open (same purpose).
    diff_before: DiffStats,
}

/// Placement-visible status of one array in streaming mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamArrayStatus {
    /// Array id (dense, DA arrays first).
    pub id: usize,
    /// Fabric kind.
    pub kind: ArrayKind,
    /// Sim-cycle at which the array finishes its accepted work.
    pub free_at: u64,
    /// `true` while the elastic pool holds the array powered off.
    pub gated: bool,
    /// `true` while the fault-recovery layer holds the array out of
    /// placement (see [`SocRuntime::stream_quarantine`]).
    pub quarantined: bool,
}

/// One incrementally served job: what [`SocRuntime::stream_serve_job`]
/// reports back to the streaming frontend.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedJob {
    /// Job id (from the spec).
    pub id: u32,
    /// Array that served it.
    pub array: usize,
    /// Kernel that served it.
    pub kernel: String,
    /// Bits the switch before this job rewrote (full bitstream on a wake).
    pub reconfig_bits: u64,
    /// Cycles on the configuration bus for those bits.
    pub reconfig_cycles: u64,
    /// Measured payload sim-cycles.
    pub exec_cycles: u64,
    /// Start cycle (after arrival and queueing).
    pub start_cycle: u64,
    /// Completion cycle.
    pub end_cycle: u64,
    /// Deterministic output digest.
    pub checksum: u64,
    /// Energy attributable to this job (reconfiguration write + leakage
    /// over its busy window + execution), in joules.
    pub energy_j: f64,
    /// `true` if serving this job woke a power-gated array (the wake paid
    /// the full configuration rewrite counted in `reconfig_bits`).
    pub woke_array: bool,
}

/// What one streaming session cost, returned by [`SocRuntime::stream_end`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Per-array totals (array-id order), utilisation taken over the
    /// session up to its end instant.
    pub arrays: Vec<ArrayReport>,
    /// Times the elastic pool powered an idle array off.
    pub gate_events: usize,
    /// Times a gated array was woken (each wake's first job paid a full
    /// configuration rewrite).
    pub wakes: usize,
}

impl StreamSummary {
    /// Total joules the session drained, all arrays.
    pub fn total_j(&self) -> f64 {
        self.arrays.iter().map(ArrayReport::energy_j).sum()
    }

    /// Total idle cycles that leaked nothing thanks to pool gating.
    pub fn gated_cycles(&self) -> u64 {
        self.arrays.iter().map(|a| a.gated_cycles).sum()
    }
}

/// The multi-array SoC runtime.
pub struct SocRuntime {
    config: RuntimeConfig,
    policy: Box<dyn SchedulePolicy>,
    cache: BitstreamCache,
    battery: Battery,
    da_fabric: Fabric,
    /// Profiles of the offered DCT mappings (selection input), aligned with
    /// `config.mappings`.
    profiles: Vec<ImplProfile>,
    dct_seeds: HashMap<&'static str, KernelSeed>,
    /// ME systolic seeds and their fabrics, one per block edge a job has
    /// asked for (built lazily — the job's `block` field is the identity).
    me_seeds: HashMap<u8, (KernelSeed, Fabric)>,
    /// Memoised kernel-pair reconfiguration costs, shared by every batch
    /// and streaming placement so warm probes are table lookups.
    diffs: DiffMatrix,
    /// Per-array execution backends, reused across serve calls.
    engines: Vec<Box<dyn Backend>>,
    /// Wall-clock phase timings of the last serve.
    last_timings: PhaseTimings,
    /// Incremental streaming session, if one is open (E13).
    stream: Option<StreamState>,
    /// Trace sink every serve path reports into. The default
    /// [`NoopSink`] is disabled, and all event construction is guarded by
    /// `enabled()`, so the untraced hot path stays allocation-free.
    sink: Box<dyn TraceSink>,
}

impl SocRuntime {
    /// Builds a runtime with the [`DefaultPolicy`].
    ///
    /// Compiles and profiles the offered DCT mappings up front (each is one
    /// cache miss); the ME kernel compiles lazily on the first motion job.
    ///
    /// # Errors
    /// Propagates construction, placement, routing or simulation failures.
    pub fn new(config: RuntimeConfig) -> Result<Self> {
        Self::with_policy(config, Box::new(DefaultPolicy))
    }

    /// Builds a runtime with a custom scheduling policy.
    ///
    /// # Errors
    /// See [`SocRuntime::new`].
    pub fn with_policy(config: RuntimeConfig, policy: Box<dyn SchedulePolicy>) -> Result<Self> {
        assert!(
            !config.mappings.is_empty(),
            "runtime needs at least one DCT mapping to offer"
        );
        let da_fabric = standard_da_fabric();
        let mut cache = BitstreamCache::with_model(TechModel::default());
        let mut profiles = Vec::with_capacity(config.mappings.len());
        let mut dct_seeds = HashMap::new();
        for mapping in &config.mappings {
            let imp = mapping.build(config.da_params)?;
            let netlist = imp.netlist().clone();
            let fingerprint = netlist.fingerprint();
            let kernel = cache.get_or_compile(
                fingerprint,
                mapping.name(),
                KernelId::Dct(*mapping).array_kind(),
                &da_fabric,
                || Ok(netlist.clone()),
            )?;
            profiles.push(profile_impl(imp.as_ref(), &kernel.artifact, &kernel.split)?);
            dct_seeds.insert(
                mapping.name(),
                KernelSeed {
                    fingerprint,
                    netlist,
                },
            );
        }
        let battery = Battery::new(config.power.battery_capacity_j);
        let engines = (0..config.da_arrays + config.me_arrays)
            .map(|_| config.backend.build())
            .collect();
        Ok(SocRuntime {
            config,
            policy,
            cache,
            battery,
            da_fabric,
            profiles,
            dct_seeds,
            me_seeds: HashMap::new(),
            diffs: DiffMatrix::new(),
            engines,
            last_timings: PhaseTimings::default(),
            stream: None,
            sink: Box::new(NoopSink),
        })
    }

    /// Installs a trace sink; subsequent serve calls (batch and stream)
    /// report lifecycle, interval, energy and counter events into it.
    /// Every stamp is a virtual cycle — wall-clock never enters the
    /// stream — so a recorded log is byte-identical across runs.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Removes the current trace sink (restoring the no-op default) so a
    /// recorded `EventLog` can be recovered via `TraceSink::into_log`.
    pub fn take_trace_sink(&mut self) -> Box<dyn TraceSink> {
        std::mem::replace(&mut self.sink, Box::new(NoopSink))
    }

    /// The live trace sink — upper layers (the service frontend's
    /// admission path) emit their own events through this, guarded by
    /// `enabled()` exactly like the runtime's own emission.
    pub fn trace_sink(&mut self) -> &mut dyn TraceSink {
        self.sink.as_mut()
    }

    /// Profiles of the offered DCT mappings.
    pub fn profiles(&self) -> &[ImplProfile] {
        &self.profiles
    }

    /// Per-kernel `(name, fingerprint-hex, op mix)` of every kernel the
    /// bitstream cache has compiled, sorted by fingerprint — the join key
    /// the attribution profiler (`dsra-profile`) uses to split a
    /// kernel's busy cycles across op classes. Deterministic regardless
    /// of compile order.
    pub fn kernel_op_mixes(&self) -> Vec<(String, String, dsra_sim::OpMix)> {
        self.cache
            .kernels_sorted()
            .into_iter()
            .map(|k| (k.name.clone(), k.fingerprint.to_hex(), k.op_mix.clone()))
            .collect()
    }

    /// Lifetime cache counters (across all serve calls).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The battery the pool serves from (drained by every serve call).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Swaps in a fresh, full battery.
    pub fn recharge_full(&mut self) {
        self.battery.recharge_full();
    }

    /// Drains `joules` straight from the battery, outside any job's
    /// energy attribution — the hook fault injection uses to model a
    /// brownout step. Returns the joules actually removed (clamped at
    /// empty), exactly as [`dsra_power::Battery::drain`] reports.
    pub fn drain_battery(&mut self, joules: f64) -> f64 {
        self.battery.drain(joules)
    }

    /// Number of per-array execution backends (== the pool size).
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Rebuilds every per-array backend through `wrap`, which receives
    /// the array id and the current engine and returns the engine to use
    /// from now on — the hook `dsra-chaos` uses to interpose its
    /// fault-injecting decorator between the scheduler and the real
    /// backends. Call it before serving; engines carry memoised compile
    /// state, so wrapping mid-session only affects subsequent jobs.
    pub fn wrap_engines(
        &mut self,
        mut wrap: impl FnMut(usize, Box<dyn Backend>) -> Box<dyn Backend>,
    ) {
        let engines = std::mem::take(&mut self.engines);
        self.engines = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| wrap(i, engine))
            .collect();
    }

    /// The scheduling policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Wall-clock phase timings of the last serve (zeroes before the first
    /// call). Diagnostics only — reports and digests never depend on them.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.last_timings
    }

    /// Serves a job queue across the pool and reports what happened.
    ///
    /// Jobs are planned in `(arrival_cycle, id)` order on the current
    /// thread, then each array's plan runs on its own worker thread. The
    /// returned report is a pure function of the job list and the runtime
    /// configuration.
    ///
    /// # Errors
    /// Propagates compile and execution failures; fails if a job's payload
    /// has no compatible array in the pool.
    pub fn serve(&mut self, jobs: &[JobSpec]) -> Result<RuntimeReport> {
        // A batch serve abandons any open streaming session.
        self.stream = None;
        if self.sink.enabled() {
            self.emit_session_meta("batch");
        }
        let stats_before = self.cache.stats();
        let diff_before = self.diffs.stats();
        let mut order: Vec<&JobSpec> = jobs.iter().collect();
        order.sort_by_key(|j| (j.arrival_cycle, j.id));

        // The power state every decision in this serve sees: the battery
        // reading is taken once at planning time (the controller samples
        // its gauge, then plans), keeping the whole plan a pure function
        // of (jobs, config, battery-at-start).
        let power = self.power_snapshot();

        // Phase 1 — deterministic planning (timings are diagnostics only
        // and never enter the report). Payloads have not run yet, so each
        // array's clock advances by an *estimate* of its jobs' cycles:
        // this per-array (resident kernel, estimated busy-until) vector is
        // the runtime's only estimate clock.
        let plan_start = std::time::Instant::now();
        let mut ledgers = ArrayLedger::pool(self.config.da_arrays, self.config.me_arrays);
        let mut planned: Vec<(Option<Arc<CompiledKernel>>, u64)> = vec![(None, 0); ledgers.len()];
        let mut plans: Vec<Vec<Assignment>> = vec![Vec::new(); ledgers.len()];
        for job in order {
            let condition = self.policy.condition(job.class, &power);
            let kernel = self.kernel_for(job, condition)?;
            let candidates = ledgers
                .iter()
                .zip(&planned)
                .map(|(l, (resident, free_at))| Candidate {
                    id: l.id,
                    kind: l.kind,
                    resident: resident.as_deref(),
                    free_at: *free_at,
                });
            let slot = place(
                &kernel,
                job.arrival_cycle,
                candidates,
                self.policy.as_ref(),
                &power,
                &mut self.diffs,
            )
            .ok_or_else(|| missing_array(job, &kernel, "the pool has none"))?;
            let est = self.estimated_cycles(job, &kernel);
            let (resident, free_at) = &mut planned[slot.array];
            *free_at = (*free_at).max(job.arrival_cycle) + slot.reconfig_cycles + est;
            *resident = Some(Arc::clone(&kernel));
            plans[slot.array].push(Assignment {
                job: *job,
                kernel,
                slot,
            });
        }
        let planning_ms = plan_start.elapsed().as_secs_f64() * 1e3;

        // Phase 2 — parallel execution, one worker thread per array, each
        // running its plan's payloads on its runtime-owned engine (reused
        // across serve calls). Workers only compute; the plan already
        // holds every reconfiguration cost.
        let exec_start = std::time::Instant::now();
        let params = self.config.da_params;
        let results: Vec<Result<Vec<ExecOutcome>>> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .zip(self.engines.iter_mut())
                .map(|(plan, backend)| {
                    let backend = backend.as_mut();
                    s.spawn(move || {
                        plan.iter()
                            .map(|a| backend.execute(params, &a.job, &a.kernel.name))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("array worker panicked"))
                .collect()
        });
        self.last_timings = PhaseTimings {
            planning_ms,
            exec_ms: exec_start.elapsed().as_secs_f64() * 1e3,
        };
        let results = results.into_iter().collect::<Result<Vec<_>>>()?;

        // Phase 3 — walk each array's plan through its ledger, then the
        // report totals and the battery drain.
        let gate_idle = self.policy.power_gate_idle();
        let sink = self.sink.as_mut();
        let mut outcomes = Vec::with_capacity(jobs.len());
        for ((ledger, plan), results) in ledgers.iter_mut().zip(&plans).zip(&results) {
            for (a, out) in plan.iter().zip(results) {
                if sink.enabled() {
                    sink.emit(TraceEvent::JobEnqueue {
                        t: a.job.arrival_cycle,
                        job: a.job.id,
                        tenant: 0,
                        class: a.job.class.tag(),
                        kind: a.job.payload.tag(),
                        deadline: 0,
                    });
                }
                // An array that never held a plane leaks nothing
                // attributable, gated or not.
                let gated = ledger.resident.is_some() && gate_idle;
                let (start, _) = ledger.start_job(&a.job, &a.kernel, gated, sink);
                let energy_j = ledger.finish_job(a.job.id, &a.kernel, &a.slot, out, false, sink);
                outcomes.push(JobOutcome {
                    id: a.job.id,
                    kind: a.job.payload.tag(),
                    array: ledger.id,
                    kernel: a.kernel.name.clone(),
                    reconfig_bits: a.slot.reconfig_bits,
                    exec_cycles: out.exec_cycles,
                    arrival_cycle: a.job.arrival_cycle,
                    start_cycle: start,
                    end_cycle: ledger.free_at,
                    checksum: out.checksum,
                    energy_j,
                });
            }
        }
        let cache = self.cache.stats().since(stats_before);
        let report = self.assemble_report(ledgers, outcomes, jobs, cache);
        self.battery.drain(report.energy.total_j());
        if self.sink.enabled() {
            let d = self.diffs.stats().since(diff_before);
            for (name, value) in [("diff_probes", d.probes), ("diff_memo_misses", d.misses)] {
                self.sink.emit(TraceEvent::Counter {
                    t: report.makespan_cycles,
                    name,
                    value,
                });
            }
        }
        Ok(report)
    }

    /// Opens an incremental streaming session (E13): fresh per-array
    /// ledgers, all arrays powered and cold. Any previous session is
    /// discarded.
    ///
    /// In streaming mode jobs are served one at a time in whatever order
    /// the frontend dispatches them — the open-loop `dsra-service` layer
    /// owns arrivals, admission and shedding, and this runtime owns
    /// placement (the same `place`/[`SchedulePolicy`]/[`DiffMatrix`]
    /// machinery as batch serving, priced over the ledgers), execution and
    /// energy.
    pub fn stream_begin(&mut self) {
        if self.sink.enabled() {
            self.emit_session_meta("stream");
        }
        self.stream = Some(StreamState {
            ledgers: ArrayLedger::pool(self.config.da_arrays, self.config.me_arrays),
            gate_events: 0,
            wakes: 0,
            cache_before: self.cache.stats(),
            diff_before: self.diffs.stats(),
        });
    }

    /// Array `id` of the open streaming session, read from its ledger at
    /// the moment of the call (`None` when no session is open or `id` is
    /// out of range).
    pub fn stream_array(&self, id: usize) -> Option<StreamArrayStatus> {
        self.stream
            .as_ref()?
            .ledgers
            .get(id)
            .map(ArrayLedger::status)
    }

    /// Every array of the open streaming session in id order, read from
    /// the ledgers without copying them (empty when no session is open).
    /// The streaming frontends decide on this view, so they keep no array
    /// state of their own.
    pub fn stream_arrays(&self) -> impl ExactSizeIterator<Item = StreamArrayStatus> + '_ {
        self.stream
            .as_ref()
            .map_or(&[][..], |s| &s.ledgers[..])
            .iter()
            .map(ArrayLedger::status)
    }

    /// Pulls an array out of placement at `now_cycle` — the
    /// fault-recovery hook (`dsra-chaos`) calls this after repeated
    /// divergences. The array stays powered, any powered-idle span up to
    /// `now_cycle` is charged (and drained from the battery), and its
    /// resident configuration is evicted — so a later
    /// [`SocRuntime::stream_restore`] re-admits it cold, paying a full
    /// bitstream rewrite, exactly the reload that clears a corrupted
    /// configuration plane. In-flight work is unaffected (`free_at` is
    /// kept), so quarantine drains rather than aborts. Returns `false`
    /// if no session is open, the array is out of range, or it is
    /// already quarantined.
    pub fn stream_quarantine(&mut self, array: usize, now_cycle: u64) -> bool {
        let Some(ledger) = self.stream.as_mut().and_then(|s| s.ledgers.get_mut(array)) else {
            return false;
        };
        if ledger.quarantined {
            return false;
        }
        if !ledger.gated {
            let idle_j = ledger.idle_until(now_cycle, false, self.sink.as_mut());
            self.battery.drain(idle_j);
        }
        // A gated array's dark span up to here is not tallied.
        ledger.free_at = ledger.free_at.max(now_cycle);
        ledger.resident = None;
        ledger.quarantined = true;
        true
    }

    /// Re-admits a quarantined array to placement at `now_cycle` (the
    /// recovery hook calls this when a probe finds the array healthy
    /// again). The span it sat quarantined is tallied as idle — it held
    /// no configuration plane, so it leaked nothing — and its busy-until
    /// clock moves to the restore instant, so no job can start on it
    /// before the restore decision existed. It re-enters placement cold.
    /// Returns `false` if no session is open, the array is out of range,
    /// or it was not quarantined.
    pub fn stream_restore(&mut self, array: usize, now_cycle: u64) -> bool {
        let Some(ledger) = self.stream.as_mut().and_then(|s| s.ledgers.get_mut(array)) else {
            return false;
        };
        if !ledger.quarantined {
            return false;
        }
        // Zero-leak idle (the plane was evicted at quarantine): no joules
        // move, but the idle-cycle tally stays complete. The quarantined
        // span is not drawn on the timeline.
        ledger.idle_until(now_cycle, false, &mut NoopSink);
        ledger.quarantined = false;
        true
    }

    /// Powers an idle array off at `now_cycle`: the leakage it paid while
    /// idle up to `now_cycle` is charged (and drained from the battery),
    /// its resident configuration is dropped — *non*-retentive gating, so
    /// the next kernel placed there pays a full bitstream rewrite — and
    /// subsequent idle cycles cost nothing. Returns `false` (and does
    /// nothing) if no session is open, the array is out of range, it is
    /// still busy beyond `now_cycle`, or it is already gated.
    pub fn stream_gate(&mut self, array: usize, now_cycle: u64) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        let Some(ledger) = stream.ledgers.get_mut(array) else {
            return false;
        };
        if ledger.gated || ledger.free_at > now_cycle {
            return false;
        }
        // The powered-idle span the gate decision just closes out.
        let idle_j = ledger.idle_until(now_cycle, false, self.sink.as_mut());
        ledger.resident = None;
        ledger.gated = true;
        stream.gate_events += 1;
        self.battery.drain(idle_j);
        true
    }

    /// Wakes a gated array at `now_cycle`: the cycles it sat dark are
    /// tallied as gated, its busy-until clock moves to the wake instant
    /// — so no job can start on it before the wake decision existed — and
    /// it re-enters placement. It still holds no configuration (its first
    /// job pays the full rewrite). Returns `false` if no session is open,
    /// the array is out of range, or it was not gated.
    pub fn stream_wake(&mut self, array: usize, now_cycle: u64) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        let Some(ledger) = stream.ledgers.get_mut(array) else {
            return false;
        };
        if !ledger.gated {
            return false;
        }
        ledger.idle_until(now_cycle, true, self.sink.as_mut());
        ledger.gated = false;
        stream.wakes += 1;
        true
    }

    /// Serves one job *now*: places it over the session's ledgers (gated
    /// arrays excluded — unless every compatible array is gated, in which
    /// case the cheapest one is woken), executes the payload
    /// cycle-accurately, then advances the array's ledger by the measured
    /// cycles, charges energy and drains the battery. A job whose payload
    /// fails leaves the session exactly as it was.
    ///
    /// # Errors
    /// Propagates compile and execution failures; fails if no session is
    /// open or the job's payload has no compatible array in the pool.
    pub fn stream_serve_job(&mut self, job: &JobSpec) -> Result<StreamedJob> {
        self.stream_serve_job_excluding(job, None)
    }

    /// [`SocRuntime::stream_serve_job`] with one array barred from
    /// placement — the retry path of the fault-recovery layer, which
    /// re-dispatches a diverged job *away* from the array that produced
    /// the bad result. Quarantined arrays are always excluded; `exclude`
    /// is dropped (rather than failing the job) when it would leave no
    /// candidate, so a single-array pool retries in place.
    ///
    /// # Errors
    /// Everything [`SocRuntime::stream_serve_job`] can raise, plus a
    /// failure when every compatible array is quarantined.
    pub fn stream_serve_job_excluding(
        &mut self,
        job: &JobSpec,
        exclude: Option<usize>,
    ) -> Result<StreamedJob> {
        if self.stream.is_none() {
            return Err(CoreError::Mismatch(
                "stream_serve_job needs an open session (call stream_begin)".into(),
            ));
        }
        let power = self.power_snapshot();
        let condition = self.policy.condition(job.class, &power);
        let kernel = self.kernel_for(job, condition)?;
        let stream = self.stream.as_mut().expect("checked above");
        let kind = kernel.array_kind;
        let of_kind = || stream.ledgers.iter().filter(move |l| l.kind == kind);
        if of_kind().next().is_none() {
            return Err(missing_array(job, &kernel, "the pool has none"));
        }
        // Quarantined arrays never take new work; the recovery layer's
        // retry exclusion only holds while another candidate remains.
        if of_kind().all(|l| l.quarantined) {
            return Err(missing_array(job, &kernel, "every one is quarantined"));
        }
        let exclude = exclude.filter(|&x| of_kind().any(|l| !l.quarantined && l.id != x));
        let open = |l: &ArrayLedger| !l.quarantined && Some(l.id) != exclude;
        // Gated arrays stay out of placement — except when the whole
        // candidate pool is gated, which force-wakes the winner (the
        // elastic controller's backlog threshold normally wakes arrays
        // before this fallback fires).
        let all_gated = of_kind().filter(|l| open(l)).all(|l| l.gated);
        let candidates = stream
            .ledgers
            .iter()
            .filter(|l| open(l) && (all_gated || !l.gated))
            .map(ArrayLedger::candidate);
        let slot = place(
            &kernel,
            job.arrival_cycle,
            candidates,
            self.policy.as_ref(),
            &power,
            &mut self.diffs,
        )
        .expect("an open array of the kernel's kind remains");
        let outcome = self.engines[slot.array].execute(self.config.da_params, job, &kernel.name)?;
        // The job ran: only now does the session change.
        let ledger = &mut stream.ledgers[slot.array];
        let woke = ledger.gated;
        if woke {
            ledger.gated = false;
            stream.wakes += 1;
        }
        // Idle gap before this job: a powered plane leaks, a gated one
        // only tallies the cycles it sat dark.
        let (start, gap_j) = ledger.start_job(job, &kernel, woke, self.sink.as_mut());
        let energy_j =
            ledger.finish_job(job.id, &kernel, &slot, &outcome, woke, self.sink.as_mut());
        let end = ledger.free_at;
        self.battery.drain(gap_j + energy_j);
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::BatteryLevel {
                t: end,
                charge_j: self.battery.charge_j(),
            });
        }
        Ok(StreamedJob {
            id: job.id,
            array: slot.array,
            kernel: kernel.name.clone(),
            reconfig_bits: slot.reconfig_bits,
            reconfig_cycles: slot.reconfig_cycles,
            exec_cycles: outcome.exec_cycles,
            start_cycle: start,
            end_cycle: end,
            checksum: outcome.checksum,
            energy_j,
            woke_array: woke,
        })
    }

    /// Closes the streaming session at `now_cycle`: every array's tail
    /// idle up to `now_cycle` is charged (leakage or gated, as it stood),
    /// drained from the battery, and the per-array totals are returned.
    /// Returns `None` if no session was open.
    pub fn stream_end(&mut self, now_cycle: u64) -> Option<StreamSummary> {
        let mut stream = self.stream.take()?;
        let mut tail_j = 0.0;
        for l in &mut stream.ledgers {
            tail_j += l.idle_until(now_cycle, l.gated, self.sink.as_mut());
        }
        self.battery.drain(tail_j);
        if self.sink.enabled() {
            let cache = self.cache.stats().since(stream.cache_before);
            let diff = self.diffs.stats().since(stream.diff_before);
            for (name, value) in [
                ("cache_hits", cache.hits),
                ("cache_misses", cache.misses),
                ("diff_probes", diff.probes),
                ("diff_memo_misses", diff.misses),
            ] {
                self.sink.emit(TraceEvent::Counter {
                    t: now_cycle,
                    name,
                    value,
                });
            }
            self.sink.emit(TraceEvent::BatteryLevel {
                t: now_cycle,
                charge_j: self.battery.charge_j(),
            });
        }
        Some(StreamSummary {
            arrays: stream.ledgers.iter().map(|l| l.report(now_cycle)).collect(),
            gate_events: stream.gate_events,
            wakes: stream.wakes,
        })
    }

    /// The runtime's pool and platform configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Closes a batch serve: every array's tail idle up to the pool-wide
    /// makespan, the per-array and report totals, and the battery trajectory
    /// (DESIGN.md §7). The per-job timeline and energy are already in the
    /// ledgers and `outcomes` (array by array, in plan order).
    fn assemble_report(
        &mut self,
        mut ledgers: Vec<ArrayLedger>,
        mut outcomes: Vec<JobOutcome>,
        jobs: &[JobSpec],
        cache: CacheStats,
    ) -> RuntimeReport {
        let gate_idle = self.policy.power_gate_idle();
        let battery = &self.battery;
        let sink = self.sink.as_mut();
        let tracing = sink.enabled();
        let makespan = ledgers.iter().map(|l| l.free_at).max().unwrap_or(0);
        // Tail idle: every array leaks (or gates) from its last job to the
        // makespan. Like the inter-job gaps, this energy belongs to no job —
        // everything outside the per-job attributions feeds the trajectory's
        // idle drain.
        let job_energy_total: f64 = outcomes.iter().map(|o| o.energy_j).sum();
        for l in &mut ledgers {
            let gated = l.resident.is_some() && gate_idle;
            l.idle_until(makespan, gated, sink);
        }
        let arrays: Vec<ArrayReport> = ledgers.iter().map(|l| l.report(makespan)).collect();
        let dynamic_j: f64 = arrays.iter().map(|a| a.dynamic_j).sum();
        let static_j: f64 = arrays.iter().map(|a| a.static_j).sum();
        let reconfig_j: f64 = arrays.iter().map(|a| a.reconfig_j).sum();
        let total_j = dynamic_j + static_j + reconfig_j;
        let idle_drain_j = total_j - job_energy_total;
        let encoded_frames: u64 = jobs
            .iter()
            .map(|j| match j.payload {
                JobPayload::EncodeGop { frames, .. } => u64::from(frames.saturating_sub(1)),
                _ => 0,
            })
            .sum();

        // Battery trajectory: drain per-job energies in completion order,
        // then the idle leakage, saturating exactly as the real battery does.
        let mut by_completion: Vec<(u64, u32, f64)> = outcomes
            .iter()
            .map(|o| (o.end_cycle, o.id, o.energy_j))
            .collect();
        by_completion.sort_unstable_by_key(|&(end, id, _)| (end, id));
        let start_j = battery.charge_j();
        let mut sim = *battery;
        let mut samples: Vec<BatterySample> = Vec::with_capacity(by_completion.len());
        for (end_cycle, id, energy_j) in by_completion {
            sim.drain(energy_j);
            if tracing {
                sink.emit(TraceEvent::BatteryLevel {
                    t: end_cycle,
                    charge_j: sim.charge_j(),
                });
            }
            samples.push(BatterySample {
                job: id,
                charge_j: sim.charge_j(),
            });
        }
        sim.drain(idle_drain_j);
        if tracing {
            sink.emit(TraceEvent::BatteryLevel {
                t: makespan,
                charge_j: sim.charge_j(),
            });
            for (name, value) in [("cache_hits", cache.hits), ("cache_misses", cache.misses)] {
                sink.emit(TraceEvent::Counter {
                    t: makespan,
                    name,
                    value,
                });
            }
        }

        outcomes.sort_by_key(|o| o.id);
        let count = |tag: &str| outcomes.iter().filter(|o| o.kind == tag).count();
        let jobs = outcomes.len();
        RuntimeReport {
            backend: self.config.backend.name(),
            jobs,
            dct_jobs: count("dct"),
            me_jobs: count("me"),
            encode_jobs: count("encode"),
            makespan_cycles: makespan,
            jobs_per_megacycle: if makespan == 0 {
                0.0
            } else {
                jobs as f64 * 1e6 / makespan as f64
            },
            cache,
            total_reconfig_bits: arrays.iter().map(|a| a.reconfig_bits).sum(),
            reconfig_events: arrays.iter().map(|a| a.reconfig_events).sum(),
            energy: EnergyReport {
                dynamic_j,
                static_j,
                reconfig_j,
                gated_cycles: arrays.iter().map(|a| a.gated_cycles).sum(),
                joules_per_job: if jobs == 0 {
                    0.0
                } else {
                    total_j / jobs as f64
                },
                encoded_frames,
                frames_per_joule: if total_j > 0.0 {
                    encoded_frames as f64 / total_j
                } else {
                    0.0
                },
                battery: BatteryTrajectory {
                    capacity_j: battery.capacity_j(),
                    start_j,
                    end_j: sim.charge_j(),
                    idle_drain_j,
                    samples,
                },
            },
            arrays,
            outcomes,
        }
    }

    /// Opens a traced session: which mode, backend and policy produced
    /// the events that follow.
    fn emit_session_meta(&mut self, mode: &'static str) {
        for (key, value) in [
            ("mode", mode),
            ("backend", self.config.backend.name()),
            ("policy", self.policy.name()),
        ] {
            self.sink.emit(TraceEvent::Meta {
                key,
                value: value.into(),
            });
        }
    }

    /// The power state placement decisions see right now.
    fn power_snapshot(&self) -> PowerSnapshot {
        PowerSnapshot {
            battery_charge_pct: self.battery.charge_pct(),
            low_battery_pct: self.config.power.low_battery_pct,
        }
    }

    /// Resolves the compiled kernel that serves one job.
    fn kernel_for(&mut self, job: &JobSpec, condition: Condition) -> Result<Arc<CompiledKernel>> {
        match job.payload {
            JobPayload::DctBlocks { .. } | JobPayload::EncodeGop { .. } => {
                self.dct_kernel(condition)
            }
            JobPayload::MeSearch { block, .. } => {
                // One systolic kernel per block edge, seeded on first sight
                // — the kernel the worker will execute is exactly the one
                // priced and cached here.
                let kernel_id = KernelId::MeSystolic { block };
                let params = self.config.da_params;
                let (seed, fabric) = match self.me_seeds.entry(block) {
                    std::collections::hash_map::Entry::Occupied(e) => &*e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let (netlist, fingerprint) = kernel_id.build_netlist(params)?;
                        let fabric = me_fabric_for(&netlist);
                        &*e.insert((
                            KernelSeed {
                                fingerprint,
                                netlist,
                            },
                            fabric,
                        ))
                    }
                };
                self.cache.get_or_compile(
                    seed.fingerprint,
                    &kernel_id.display_name(),
                    kernel_id.array_kind(),
                    fabric,
                    || Ok(seed.netlist.clone()),
                )
            }
        }
    }

    /// Batch planning's estimate of `job`'s payload cycles on `kernel`,
    /// before the payload has run: the selected mapping's cycles per block
    /// for DCT work, `candidates × block × 2` for a motion search.
    fn estimated_cycles(&self, job: &JobSpec, kernel: &CompiledKernel) -> u64 {
        let cycles_per_block = || {
            self.profiles
                .iter()
                .find(|p| p.name == kernel.name)
                .expect("DCT kernels are compiled from the offered profiles")
                .cycles_per_block
        };
        match job.payload {
            JobPayload::DctBlocks { blocks, .. } => cycles_per_block() * u64::from(blocks),
            JobPayload::MeSearch { block, range, .. } => {
                let side = 2 * u64::from(range) + 1;
                side * side * u64::from(block) * 2
            }
            JobPayload::EncodeGop { size, frames, .. } => {
                let blocks8 = (u64::from(size.0) / 8)
                    * (u64::from(size.1) / 8)
                    * u64::from(frames.saturating_sub(1));
                // 16 1-D transforms per 8×8 block (rows + columns).
                blocks8 * 16 * cycles_per_block()
            }
        }
    }

    /// Picks the DCT mapping for a condition and fetches its compiled
    /// kernel through the cache (a hit after warm-up).
    fn dct_kernel(&mut self, condition: Condition) -> Result<Arc<CompiledKernel>> {
        let profile = self
            .policy
            .select_mapping(&self.profiles, condition)
            .ok_or_else(|| {
                CoreError::Mismatch(format!("no offered mapping satisfies {condition:?}"))
            })?;
        let seed = self
            .dct_seeds
            .get(profile.name.as_str())
            .expect("profiles and seeds are built together");
        self.cache.get_or_compile(
            seed.fingerprint,
            &profile.name,
            ArrayKind::Da,
            &self.da_fabric,
            || Ok(seed.netlist.clone()),
        )
    }
}

/// The error for a job whose kernel has no usable array, `why` naming
/// the reason.
fn missing_array(job: &JobSpec, kernel: &CompiledKernel, why: &str) -> CoreError {
    CoreError::Mismatch(format!(
        "job {} needs a {} array but {why}",
        job.id,
        kernel.array_kind.tag()
    ))
}

/// Smallest standard ME array that fits `netlist` (cluster capacity only;
/// the perimeter provides I/O pads): the fabric the runtime compiles each
/// systolic ME kernel for.
pub fn me_fabric_for(netlist: &Netlist) -> Fabric {
    let report = netlist.resource_report();
    let mut height = 6u16;
    loop {
        let fabric = Fabric::me_array(height + 3, height, MeshSpec::mixed());
        if fabric.check_capacity(&report).is_ok() {
            return fabric;
        }
        height += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_video::{generate_job_mix, JobMixConfig, JobMixWeights};

    fn small_mix(jobs: u32, seed: u64) -> Vec<JobSpec> {
        generate_job_mix(JobMixConfig {
            jobs,
            seed,
            ..Default::default()
        })
    }

    fn small_runtime() -> SocRuntime {
        SocRuntime::new(RuntimeConfig {
            da_arrays: 2,
            me_arrays: 2,
            mappings: vec![
                DctMapping::BasicDa,
                DctMapping::MixedRom,
                DctMapping::SccFull,
            ],
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn serve_is_deterministic_across_runtimes_and_threads() {
        let jobs = small_mix(40, 7);
        let a = small_runtime().serve(&jobs).unwrap();
        let b = small_runtime().serve(&jobs).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json("E11"), b.to_json("E11"));
        // …including the energy columns and the full battery trajectory.
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn digest_covers_energy_columns_and_battery_trajectory() {
        let mut rt = small_runtime();
        let report = rt.serve(&small_mix(12, 9)).unwrap();
        assert!(report.energy.total_j() > 0.0);
        assert_eq!(report.energy.battery.samples.len(), report.jobs);
        let digest = report.digest();
        // Any energy column shifting must change the digest: per-job
        // attribution, the serve totals, and the battery trajectory.
        let mut t = report.clone();
        t.outcomes[0].energy_j += 1.0;
        assert_ne!(t.digest(), digest, "per-job energy must be pinned");
        let mut t = report.clone();
        t.energy.static_j += 1.0;
        assert_ne!(t.digest(), digest, "static energy must be pinned");
        let mut t = report.clone();
        t.energy.battery.samples[0].charge_j += 1.0;
        assert_ne!(t.digest(), digest, "battery trajectory must be pinned");
        let mut t = report.clone();
        t.energy.gated_cycles += 1;
        assert_ne!(t.digest(), digest, "gated cycles must be pinned");
    }

    #[test]
    fn warm_memo_and_engines_do_not_change_results() {
        // One runtime serving the same mix twice: the second serve runs
        // with warm worker engines and a warm diff memo, and must produce
        // byte-identical results (the memo is an optimisation, never a
        // behaviour change). A fresh runtime agrees too.
        let jobs = small_mix(30, 21);
        let mut warm = small_runtime();
        let first = warm.serve(&jobs).unwrap();
        warm.recharge_full();
        let second = warm.serve(&jobs).unwrap();
        // Everything outcome-bearing is identical; only the cache counters
        // differ (the first serve paid the one ME compile miss).
        assert_eq!(first.digest(), second.digest());
        assert_eq!(first.outcomes, second.outcomes);
        assert_eq!(first.energy, second.energy);
        assert_eq!(second.cache.misses, 0, "second serve must be all hits");
        assert_eq!(
            small_runtime().serve(&jobs).unwrap().digest(),
            first.digest()
        );
        // The mix rotates kernels, so the memo actually learned pairs.
        assert!(!warm.diffs.is_empty(), "diff memo never engaged");
    }

    #[test]
    fn batch_tracing_observes_without_changing_the_report() {
        use dsra_trace::EventLog;
        let jobs = small_mix(24, 17);
        let untraced = small_runtime().serve(&jobs).unwrap();
        let mut rt = small_runtime();
        rt.set_trace_sink(Box::new(EventLog::new()));
        let traced = rt.serve(&jobs).unwrap();
        assert_eq!(traced.digest(), untraced.digest());
        assert_eq!(traced.outcomes, untraced.outcomes);
        let log = rt
            .take_trace_sink()
            .into_log()
            .expect("recording sink installed");
        assert_eq!(log.meta("mode"), Some("batch"));
        assert_eq!(log.meta("backend"), Some("array"));
        // Every job has its whole lifecycle recorded, agreeing with the
        // report's timeline.
        let spans = dsra_trace::job_spans(log.events());
        assert_eq!(spans.len(), jobs.len());
        for s in &spans {
            assert!(s.is_full_lifecycle(), "job {} incomplete", s.job);
            let o = &traced.outcomes[s.job as usize];
            assert_eq!(s.enqueue, Some(o.arrival_cycle));
            assert_eq!(s.schedule, Some(o.start_cycle));
            assert_eq!(s.complete, Some(o.end_cycle));
            assert_eq!(s.checksum, Some(o.checksum));
            let e = s.energy.expect("energy breakdown");
            assert!(
                (e.total_j() - o.energy_j).abs() <= 1e-9 * o.energy_j.max(1.0),
                "attribution split must sum to the digest-pinned energy"
            );
        }
        // Per-array state intervals tile [0, makespan] gap-free.
        let by_array = log.array_intervals();
        assert_eq!(by_array.len(), traced.arrays.len());
        for (array, spans) in &by_array {
            let mut cursor = 0u64;
            for (start, end, _) in spans {
                assert_eq!(*start, cursor, "gap on array {array}");
                assert!(end > start);
                cursor = *end;
            }
            assert_eq!(cursor, traced.makespan_cycles, "array {array} tail");
        }
        // One battery point per completion plus the final idle-drain point.
        let battery_points = log
            .events()
            .iter()
            .filter(|e| matches!(e, dsra_trace::TraceEvent::BatteryLevel { .. }))
            .count();
        assert_eq!(battery_points, jobs.len() + 1);
        // A re-run with a fresh runtime records the identical log.
        let mut rt2 = small_runtime();
        rt2.set_trace_sink(Box::new(EventLog::new()));
        rt2.serve(&jobs).unwrap();
        assert_eq!(rt2.take_trace_sink().into_log().unwrap(), log);
    }

    #[test]
    fn phase_timings_are_diagnostics_only() {
        let mut rt = small_runtime();
        assert_eq!(rt.phase_timings(), PhaseTimings::default());
        let report = rt.serve(&small_mix(8, 5)).unwrap();
        // Wall-clock numbers exist after a serve but never enter the
        // deterministic document.
        let t = rt.phase_timings();
        assert!(t.planning_ms >= 0.0 && t.exec_ms > 0.0);
        assert!(!report.to_json("E11").contains("phases"));
    }

    #[test]
    fn cache_pays_compile_once_per_kernel() {
        let mut rt = small_runtime();
        let report = rt.serve(&small_mix(60, 11)).unwrap();
        assert_eq!(report.jobs, 60);
        // Worst case: 3 offered DCT mappings (already compiled at startup,
        // so all serve-time DCT lookups hit) + 1 ME kernel miss.
        assert!(report.cache.misses <= 1, "misses: {:?}", report.cache);
        assert!(report.cache.hit_rate() > 0.9);
        // Every array the pool offers for a present job kind did real work.
        assert!(report.makespan_cycles > 0);
        assert!(report.total_reconfig_bits > 0);
    }

    #[test]
    fn report_covers_every_job_exactly_once() {
        let mut rt = small_runtime();
        let jobs = small_mix(50, 3);
        let report = rt.serve(&jobs).unwrap();
        assert_eq!(report.outcomes.len(), 50);
        let mut ids: Vec<u32> = report.outcomes.iter().map(|o| o.id).collect();
        ids.dedup();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
        assert_eq!(report.dct_jobs + report.me_jobs + report.encode_jobs, 50);
        // Timeline sanity: jobs never start before arrival and never end
        // before they start.
        for (o, j) in report.outcomes.iter().zip(&jobs) {
            assert!(o.start_cycle >= j.arrival_cycle);
            assert!(o.end_cycle >= o.start_cycle);
        }
    }

    #[test]
    fn stream_serving_is_deterministic_and_checksum_equal_to_batch() {
        let jobs = small_mix(30, 13);
        let batch = small_runtime().serve(&jobs).unwrap();

        let stream_once = || {
            let mut rt = small_runtime();
            rt.stream_begin();
            let outcomes: Vec<StreamedJob> = jobs
                .iter()
                .map(|j| rt.stream_serve_job(j).unwrap())
                .collect();
            let makespan = outcomes.iter().map(|o| o.end_cycle).max().unwrap();
            let summary = rt.stream_end(makespan).unwrap();
            (outcomes, summary)
        };
        let (a, sa) = stream_once();
        let (b, sb) = stream_once();
        assert_eq!(a, b, "streaming must be byte-deterministic");
        assert_eq!(sa, sb);
        // Payloads are pure functions of their specs: the incremental path
        // computes exactly the checksums the batch path computed.
        for (s, o) in a.iter().zip(&batch.outcomes) {
            assert_eq!(s.id, o.id);
            assert_eq!(s.checksum, o.checksum);
            assert_eq!(s.exec_cycles, o.exec_cycles);
            assert!(s.start_cycle >= jobs[s.id as usize].arrival_cycle);
            assert!(s.end_cycle >= s.start_cycle);
            assert!(s.energy_j > 0.0);
        }
        // Per-array totals agree with the per-job outcomes.
        assert_eq!(sa.arrays.iter().map(|x| x.jobs).sum::<usize>(), jobs.len());
        let per_job: f64 = a.iter().map(|o| o.energy_j).sum();
        assert!(sa.total_j() >= per_job, "totals include idle leakage");
    }

    #[test]
    fn batch_and_stream_agree_job_for_job_and_joule_for_joule() {
        // One DA and one ME array: every job has exactly one candidate,
        // so both planners place it alike. Arrivals spaced wider than any
        // job's busy span mean no job queues, so the batch planner's
        // estimates never matter and both modes walk the same timeline
        // through the same per-array ledgers.
        let pool = || {
            SocRuntime::new(RuntimeConfig {
                da_arrays: 1,
                me_arrays: 1,
                mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
                ..Default::default()
            })
            .unwrap()
        };
        let mut jobs = small_mix(24, 29);
        let probe = pool().serve(&jobs).unwrap();
        let span = 1 + probe
            .outcomes
            .iter()
            .map(|o| o.end_cycle - o.start_cycle)
            .max()
            .unwrap();
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_cycle = i as u64 * span;
        }
        let batch = pool().serve(&jobs).unwrap();
        let mut rt = pool();
        rt.stream_begin();
        let streamed: Vec<StreamedJob> = jobs
            .iter()
            .map(|j| rt.stream_serve_job(j).unwrap())
            .collect();
        let makespan = streamed.iter().map(|s| s.end_cycle).max().unwrap();
        assert_eq!(makespan, batch.makespan_cycles);
        let summary = rt.stream_end(makespan).unwrap();

        for (s, o) in streamed.iter().zip(&batch.outcomes) {
            assert_eq!(s.id, o.id);
            assert_eq!(o.start_cycle, o.arrival_cycle, "job {} queued", o.id);
            assert_eq!(
                (s.array, s.start_cycle, s.end_cycle),
                (o.array, o.start_cycle, o.end_cycle),
                "job {} timeline",
                o.id
            );
            assert_eq!(
                (s.reconfig_bits, s.exec_cycles, s.checksum),
                (o.reconfig_bits, o.exec_cycles, o.checksum),
                "job {} work",
                o.id
            );
            assert_eq!(
                s.energy_j.to_bits(),
                o.energy_j.to_bits(),
                "job {} energy",
                o.id
            );
        }
        assert_eq!(summary.arrays.len(), batch.arrays.len());
        for (s, b) in summary.arrays.iter().zip(&batch.arrays) {
            let joules = |d: f64, st: f64, r: f64| [d.to_bits(), st.to_bits(), r.to_bits()];
            assert_eq!(
                joules(s.dynamic_j, s.static_j, s.reconfig_j),
                joules(b.dynamic_j, b.static_j, b.reconfig_j),
                "array {} energy",
                s.id
            );
        }
    }

    #[test]
    fn stream_gating_drops_config_and_wake_pays_the_rewrite() {
        use dsra_video::{JobPayload, ServiceClass};
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 0,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .unwrap();
        let job = |id: u32, arrival: u64| JobSpec {
            id,
            arrival_cycle: arrival,
            class: ServiceClass::Quality,
            payload: JobPayload::DctBlocks {
                blocks: 1,
                amplitude: 100,
            },
            seed: id.into(),
        };
        rt.stream_begin();
        let first = rt.stream_serve_job(&job(0, 0)).unwrap();
        assert!(first.reconfig_bits > 0, "cold array pays the full write");
        assert!(!first.woke_array);
        // Resident kernel: the next job is free.
        let resident = rt.stream_serve_job(&job(1, first.end_cycle)).unwrap();
        assert_eq!(resident.reconfig_bits, 0);
        // Gate the (idle) array, then serve again: the pool is fully
        // gated, so the job force-wakes it and pays the full rewrite.
        let now = resident.end_cycle + 1_000;
        assert!(rt.stream_gate(0, now));
        assert!(!rt.stream_gate(0, now), "already gated");
        assert!(rt.stream_array(0).unwrap().gated);
        let woken = rt.stream_serve_job(&job(2, now + 1_000)).unwrap();
        assert!(woken.woke_array);
        assert_eq!(woken.reconfig_bits, first.reconfig_bits);
        let summary = rt.stream_end(woken.end_cycle + 500).unwrap();
        assert_eq!(summary.gate_events, 1);
        assert_eq!(summary.wakes, 1);
        assert!(summary.gated_cycles() > 0, "gated idle must be tallied");
        assert!(rt.stream_end(0).is_none(), "session closes once");
    }

    #[test]
    fn explicit_wake_settles_the_clock_and_tallies_the_dark_span() {
        use dsra_video::{JobPayload, ServiceClass};
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 0,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .unwrap();
        let job = |id: u32, arrival: u64| JobSpec {
            id,
            arrival_cycle: arrival,
            class: ServiceClass::Quality,
            payload: JobPayload::DctBlocks {
                blocks: 1,
                amplitude: 100,
            },
            seed: id.into(),
        };
        rt.stream_begin();
        let first = rt.stream_serve_job(&job(0, 0)).unwrap();
        assert!(rt.stream_gate(0, first.end_cycle + 100));
        // Woken long after gating: the whole dark span is gated cycles,
        // and the busy-until clock moves to the wake instant…
        let wake_at = first.end_cycle + 10_000;
        assert!(rt.stream_wake(0, wake_at));
        assert!(!rt.stream_wake(0, wake_at), "only gated arrays wake");
        let status = rt.stream_array(0).unwrap();
        assert!(!status.gated);
        assert_eq!(status.free_at, wake_at);
        // …so a request that arrived while the array was dark cannot be
        // served before the wake decision existed.
        let served = rt.stream_serve_job(&job(1, first.end_cycle + 500)).unwrap();
        assert!(served.start_cycle >= wake_at);
        assert!(!served.woke_array, "explicitly woken, not force-woken");
        assert_eq!(
            served.reconfig_bits, first.reconfig_bits,
            "wake still pays the full rewrite"
        );
        let summary = rt.stream_end(served.end_cycle).unwrap();
        assert_eq!(summary.wakes, 1);
        assert!(summary.gated_cycles() >= 9_000, "dark span must be tallied");
    }

    #[test]
    fn stream_session_returns_the_diff_memo_and_drains_the_battery() {
        let jobs = small_mix(20, 4);
        let mut rt = small_runtime();
        let full = rt.battery().charge_j();
        rt.stream_begin();
        let mut makespan = 0;
        for j in &jobs {
            makespan = makespan.max(rt.stream_serve_job(j).unwrap().end_cycle);
        }
        let summary = rt.stream_end(makespan).unwrap();
        assert!(!rt.diffs.is_empty(), "streaming placement fills the memo");
        let drained = full - rt.battery().charge_j();
        assert!(
            (drained - summary.total_j()).abs() < 1e-6 * summary.total_j().max(1.0),
            "battery drain {drained} must equal session energy {}",
            summary.total_j()
        );
        // A batch serve right after streaming still works and reuses the
        // warm memo.
        assert!(rt.serve(&jobs).is_ok());
    }

    #[test]
    fn undersized_me_plane_is_an_error_not_a_panic() {
        use dsra_video::{JobPayload, ServiceClass};
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .unwrap();
        let job = JobSpec {
            id: 0,
            arrival_cycle: 0,
            class: ServiceClass::Quality,
            payload: JobPayload::MeSearch {
                size: (10, 10),
                shift: (1, 0),
                block: 8,
                range: 2,
            },
            seed: 1,
        };
        assert!(rt.serve(&[job]).is_err());
    }

    #[test]
    fn me_jobs_need_an_me_array() {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 0,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .unwrap();
        let jobs = generate_job_mix(JobMixConfig {
            jobs: 4,
            weights: JobMixWeights {
                dct: 0,
                me: 1,
                encode: 0,
            },
            ..Default::default()
        });
        assert!(rt.serve(&jobs).is_err());
    }

    fn one_da_one_me() -> SocRuntime {
        SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa],
            ..Default::default()
        })
        .unwrap()
    }

    fn me_job(id: u32, arrival_cycle: u64, size: (u16, u16)) -> JobSpec {
        JobSpec {
            id,
            arrival_cycle,
            class: dsra_video::ServiceClass::Quality,
            payload: JobPayload::MeSearch {
                size,
                shift: (1, 0),
                block: 8,
                range: 2,
            },
            seed: u64::from(id) + 1,
        }
    }

    #[test]
    fn a_failed_stream_job_leaves_the_session_untouched() {
        // A 10×10 plane is too small for an 8×8 block searched ±2: the
        // payload fails after placement chose the ME array.
        let mut rt = one_da_one_me();
        rt.stream_begin();
        let before: Vec<_> = rt.stream_arrays().collect();
        assert!(rt.stream_serve_job(&me_job(0, 0, (10, 10))).is_err());
        assert_eq!(rt.stream_arrays().collect::<Vec<_>>(), before);
        // The array neither holds the kernel nor is busy: the next job
        // pays the cold write and runs exactly as on a fresh session.
        let after = rt.stream_serve_job(&me_job(1, 0, (32, 32))).unwrap();
        let mut fresh = one_da_one_me();
        fresh.stream_begin();
        let clean = fresh.stream_serve_job(&me_job(1, 0, (32, 32))).unwrap();
        assert!(clean.reconfig_bits > 0);
        assert_eq!(
            (after.reconfig_bits, after.start_cycle, after.end_cycle),
            (clean.reconfig_bits, clean.start_cycle, clean.end_cycle)
        );
    }

    #[test]
    fn stream_hooks_reject_out_of_range_arrays() {
        let mut rt = one_da_one_me();
        assert!(!rt.stream_gate(0, 0), "no session open");
        rt.stream_begin();
        let before: Vec<_> = rt.stream_arrays().collect();
        assert!(!rt.stream_gate(9, 0));
        assert!(!rt.stream_wake(9, 0));
        assert!(!rt.stream_quarantine(9, 0));
        assert!(!rt.stream_restore(9, 0));
        assert_eq!(rt.stream_arrays().collect::<Vec<_>>(), before);
        assert_eq!(rt.stream_array(9), None);
    }

    /// One step of a random streaming session.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Serve(JobSpec, Option<usize>),
        Gate(usize),
        Wake(usize),
        Quarantine(usize),
        Restore(usize),
    }

    /// A random session on 2 DA + 1 ME arrays: DCT jobs of both offered
    /// mappings, ME searches (some on planes too small, which fail), and
    /// hooks on in-range and out-of-range arrays, all at a rising clock.
    fn random_ops(seed: u64, steps: usize) -> Vec<(u64, Op)> {
        let mut rng = dsra_core::rng::SplitMix64::new(seed);
        let mut now = 0;
        (0..steps as u32)
            .map(|id| {
                now += rng.next_below(2_500);
                let array = rng.next_below(4) as usize;
                let op = match rng.next_below(9) {
                    0..=2 => {
                        let class = [
                            dsra_video::ServiceClass::Quality,
                            dsra_video::ServiceClass::Background,
                        ][rng.next_below(2) as usize];
                        let blocks = 1 + rng.next_below(3) as u16;
                        let payload = JobPayload::DctBlocks {
                            blocks,
                            amplitude: 100,
                        };
                        let job = JobSpec {
                            id,
                            arrival_cycle: now,
                            class,
                            payload,
                            seed: u64::from(id),
                        };
                        Op::Serve(job, (array < 3).then_some(array))
                    }
                    3 => Op::Serve(me_job(id, now, (32, 32)), None),
                    4 => Op::Serve(me_job(id, now, (10, 10)), None),
                    5 => Op::Gate(array),
                    6 => Op::Wake(array),
                    7 => Op::Quarantine(array),
                    _ => Op::Restore(array),
                };
                (now, op)
            })
            .collect()
    }

    /// What a session returned, step by step, for replay equality.
    #[derive(Debug, PartialEq)]
    enum Step {
        Served(std::result::Result<StreamedJob, String>),
        Hook(bool),
    }

    /// Runs `ops` on a fresh runtime, checking the array-state invariants
    /// after every step, and returns what each step and the session end
    /// reported.
    fn checked_session(ops: &[(u64, Op)]) -> (Vec<Step>, StreamSummary) {
        let mut rt = SocRuntime::new(RuntimeConfig {
            da_arrays: 2,
            me_arrays: 1,
            mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
            ..Default::default()
        })
        .unwrap();
        rt.stream_begin();
        let start_j = rt.battery().charge_j();
        // The model: each array's busy-until clock, and whether it holds
        // no configuration (cold, gated or quarantined since its last job).
        let mut free_at = [0u64; 3];
        let mut cold = [true; 3];
        let (mut job_j, mut idle_j) = (0.0, 0.0);
        let mut steps = Vec::with_capacity(ops.len());
        for &(now, op) in ops {
            let status: Vec<_> = rt.stream_arrays().collect();
            let charge = rt.battery().charge_j();
            let step = match op {
                Op::Serve(job, exclude) => Step::Served(
                    rt.stream_serve_job_excluding(&job, exclude)
                        .map_err(|e| e.to_string()),
                ),
                Op::Gate(a) => Step::Hook(rt.stream_gate(a, now)),
                Op::Wake(a) => Step::Hook(rt.stream_wake(a, now)),
                Op::Quarantine(a) => Step::Hook(rt.stream_quarantine(a, now)),
                Op::Restore(a) => Step::Hook(rt.stream_restore(a, now)),
            };
            let drop_j = charge - rt.battery().charge_j();
            match (&step, op) {
                (Step::Served(Ok(s)), Op::Serve(job, _)) => {
                    let a = s.array;
                    assert!(!status[a].quarantined, "{s:?} on a quarantined array");
                    assert_eq!(s.woke_array, status[a].gated, "{s:?}");
                    assert_eq!(s.start_cycle, free_at[a].max(job.arrival_cycle));
                    if cold[a] {
                        let full = rt
                            .cache
                            .kernels_sorted()
                            .into_iter()
                            .find(|k| k.name == s.kernel)
                            .unwrap()
                            .total_bits();
                        assert_eq!(s.reconfig_bits, full, "{s:?} on a cold array");
                    }
                    (free_at[a], cold[a]) = (s.end_cycle, false);
                    assert!(drop_j >= s.energy_j * (1.0 - 1e-9), "{s:?}");
                    job_j += s.energy_j;
                    idle_j += drop_j - s.energy_j;
                }
                (Step::Hook(true), Op::Gate(a) | Op::Quarantine(a)) => {
                    free_at[a] = free_at[a].max(now);
                    cold[a] = true;
                    idle_j += drop_j;
                }
                (Step::Hook(true), Op::Wake(a) | Op::Restore(a)) => {
                    free_at[a] = free_at[a].max(now);
                    assert!(cold[a]);
                    idle_j += drop_j;
                }
                // A failed job or a refused hook changes nothing.
                _ => {
                    assert_eq!(
                        rt.stream_arrays().collect::<Vec<_>>(),
                        status,
                        "{op:?} -> {step:?}"
                    );
                    assert_eq!(drop_j, 0.0, "{op:?} -> {step:?}");
                }
            }
            let clocks: Vec<u64> = rt.stream_arrays().map(|a| a.free_at).collect();
            assert_eq!(clocks, free_at, "after {op:?} -> {step:?}");
            steps.push(step);
        }
        let end = ops
            .last()
            .map_or(0, |&(now, _)| now)
            .max(free_at.into_iter().max().unwrap());
        let charge = rt.battery().charge_j();
        let summary = rt.stream_end(end).unwrap();
        idle_j += charge - rt.battery().charge_j();
        let drained = start_j - rt.battery().charge_j();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        assert!(
            close(drained, job_j + idle_j),
            "{drained} vs {job_j} + {idle_j}"
        );
        assert!(
            close(drained, summary.total_j()),
            "{drained} vs {}",
            summary.total_j()
        );
        (steps, summary)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn random_stream_sessions_keep_one_array_state(seed: u64, steps in 12usize..40) {
            let ops = random_ops(seed, steps);
            let first = checked_session(&ops);
            proptest::prop_assert_eq!(checked_session(&ops), first);
        }
    }
}
