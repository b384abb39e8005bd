//! The three workloads and one replay of each.
//!
//! An untraced replay calls only the program's top-level entry points
//! (`serve_requests`, `SocRuntime::serve`, and `install_chaos` +
//! `ChaosHook` + `serve_requests_with_hook` as `serve_with_chaos` does),
//! so refactors below them cannot break it. A traced replay adds the
//! forwarding probes (the private `probes` module) on the runtime's seams
//! and nothing else.

use std::hint::black_box;
use std::time::Instant;

use dsra_chaos::{assemble, install_chaos, ChaosConfig, ChaosHook, FaultPlan, RecoveryConfig};
use dsra_core::error::{CoreError, Result};
use dsra_core::rng::fnv1a_fold;
use dsra_monitor::{render_dashboard, MonitorHandle};
use dsra_profile::{ProfileReport, ProfileSink, ProfilerHandle};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{
    generate_trace, install_monitor, serve_requests, serve_requests_with_hook, standard_tenants,
    AdmitPolicy, NoopDispatch, Request, ServiceConfig, ServiceReport, TraceConfig,
};
use dsra_trace::{chrome_trace, EventLog};
use dsra_video::{generate_job_mix, JobMixConfig, JobSpec};

use crate::oracle::Served;
use crate::probes::{TimedBackend, TimedHook, TimedSink, CHAOS_DISPATCH, SERVE_JOB};
use crate::spans::{Recorder, MAIN_TID};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E13's overloaded multi-tenant stream under EDF with shedding.
    StreamEdf,
    /// E11's batch job mix through the planner and per-array workers.
    BatchMix,
    /// E15's stream under its fault plan, with recovery and every observer.
    ChaosObserved,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::StreamEdf,
        Workload::BatchMix,
        Workload::ChaosObserved,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamEdf => "stream_edf",
            Workload::BatchMix => "batch_mix",
            Workload::ChaosObserved => "chaos_observed",
        }
    }

    /// Resolves a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when `--seed` is absent: the pinned experiment's seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::StreamEdf | Workload::ChaosObserved => 0x57EA_4AED,
            Workload::BatchMix => 0x50C_5EED,
        }
    }

    /// Seed held out from tuning, for checking a claimed gain.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::StreamEdf => 0xD15C_0013,
            Workload::BatchMix => 0xD15C_0011,
            Workload::ChaosObserved => 0xD15C_0015,
        }
    }

    /// Size used when `--size` is absent (trace µs, or jobs for batch).
    pub fn default_size(self) -> u64 {
        match self {
            Workload::StreamEdf => 20_000,
            Workload::BatchMix => 3_000,
            Workload::ChaosObserved => 6_000,
        }
    }

    /// Largest accepted `--size`.
    pub fn max_size(self) -> u64 {
        match self {
            Workload::StreamEdf | Workload::ChaosObserved => 200_000,
            Workload::BatchMix => 100_000,
        }
    }

    /// The pinned outcome digest when `(seed, size)` are a pinned
    /// experiment's parameters: E13 `edf_shed` and E11 at 1000 jobs.
    pub fn pinned_digest(self, seed: u64, size: u64) -> Option<u64> {
        match (self, seed, size) {
            (Workload::StreamEdf, 0x57EA_4AED, 20_000) => Some(0x8ff5_4dee_67c9_be1c),
            (Workload::BatchMix, 0x50C_5EED, 1_000) => Some(0x0bfb_63a2_aa9a_9a73),
            _ => None,
        }
    }
}

/// Simulated clock: virtual µs per cycle at the default 100 MHz.
const CYCLES_PER_US: f64 = 100.0;

/// The modelled outcome of one replay. Deterministic per seed and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Served within SLO (and correct, for chaos) as a share of submitted.
    pub goodput_pct: f64,
    /// Nearest-rank p99 serve latency in virtual µs.
    pub p99_latency_us: f64,
    /// Pool energy per served request, in calibrated energy units.
    pub energy_per_served_eu: f64,
}

/// Layer counters of one replay (zero where a layer does not run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Requests the service layer saw.
    pub service_requests: u64,
    /// Requests it served.
    pub service_served: u64,
    /// Requests it shed.
    pub service_shed: u64,
    /// Divergences the chaos spot checks caught.
    pub chaos_divergences: u64,
    /// Chaos retry dispatches.
    pub chaos_retries: u64,
    /// Arrays quarantined.
    pub chaos_quarantines: u64,
    /// Jobs failed after exhausting the retry budget.
    pub chaos_failed_jobs: u64,
    /// Executions the fault decorators saw.
    pub chaos_total_execs: u64,
    /// Bitstream-cache hits over the runtime's lifetime.
    pub cache_hits: u64,
    /// Bitstream-cache misses (compiles) over the runtime's lifetime.
    pub cache_misses: u64,
    /// Batch planning wall time, seconds.
    pub plan_s: f64,
    /// Batch execution wall time, seconds.
    pub exec_s: f64,
    /// Bytes of the rendered Chrome trace.
    pub export_bytes: u64,
}

/// What one replay produced and what it cost.
#[derive(Debug, Clone)]
pub struct Replay {
    /// `SocRuntime::new` wall time.
    pub runtime_new_s: f64,
    /// `generate_trace` wall time (0 on `batch_mix`).
    pub trace_gen_s: f64,
    /// Whole set-up: runtime, inputs, observers and fault injection.
    pub setup_s: f64,
    /// First request to finished report, analysis included.
    pub wall_s: f64,
    /// Requests (or jobs) submitted.
    pub requests: usize,
    /// Outcome digest (the experiment's own digest, extended by the
    /// observer outputs on `chaos_observed`).
    pub digest: u64,
    /// Delivered checksum per request id; `None` when not served.
    pub delivered: Vec<Option<u64>>,
    /// Modelled metrics.
    pub sim: Sim,
    /// Layer counters.
    pub counts: Counts,
    /// Served results with their kernels, for the oracle. Filled on
    /// traced replays of the streaming workloads and on every batch one.
    pub served: Vec<Served>,
    /// Serve window on the recorder's clock (traced replays only).
    pub window_ns: Option<(u64, u64)>,
}

/// Runtime configuration shared by every workload: 2 DA + 2 ME arrays.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        da_arrays: 2,
        me_arrays: 2,
        ..Default::default()
    }
}

/// A trace config as E13/E15 build it: `tenants` standard tenants at an
/// aggregate `rate_per_ms` requests per virtual ms.
fn trace_config(tenants: u16, rate_per_ms: u64, duration_us: u64, seed: u64) -> TraceConfig {
    TraceConfig {
        tenants: standard_tenants(tenants, (u64::from(tenants) * 1000 / rate_per_ms).max(1)),
        duration_us,
        seed,
    }
}

/// Nearest-rank percentile of an ascending slice.
pub(crate) fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Inputs and a configured runtime, ready for the first request.
enum Prepared {
    Stream {
        trace: TraceConfig,
        requests: Vec<Request>,
    },
    Batch {
        jobs: Vec<JobSpec>,
    },
    Chaos {
        trace: TraceConfig,
        requests: Vec<Request>,
        monitor: MonitorHandle,
        profiler: ProfilerHandle,
        state: dsra_chaos::ChaosState,
        hook: Box<ChaosHook>,
    },
}

struct Setup {
    runtime: SocRuntime,
    prepared: Prepared,
    runtime_new_s: f64,
    trace_gen_s: f64,
    setup_s: f64,
}

/// Runs `generate_trace`, adding its wall time to `acc`.
fn timed_trace(trace: &TraceConfig, acc: &mut f64) -> Vec<Request> {
    let t = Instant::now();
    let requests = generate_trace(trace);
    *acc += since(t);
    requests
}

/// Builds the runtime and inputs; with `rec`, installs the probes.
fn set_up(workload: Workload, seed: u64, size: u64, rec: Option<&Recorder>) -> Result<Setup> {
    let t0 = Instant::now();
    let span0 = rec.map(Recorder::now);
    let mut runtime = SocRuntime::new(runtime_config())?;
    let runtime_new_s = since(t0);
    let span1 = rec.map(Recorder::now);
    let mut trace_gen_s = 0.0;
    if let Some(rec) = rec {
        let batch = workload == Workload::BatchMix;
        runtime.wrap_engines(|array, inner| {
            // Batch runs each array on its own worker thread.
            let tid = if batch { array as u32 + 1 } else { MAIN_TID };
            Box::new(TimedBackend::new(inner, rec.clone(), tid))
        });
    }
    let prepared = match workload {
        Workload::StreamEdf => {
            let trace = trace_config(4, 900, size, seed);
            let requests = timed_trace(&trace, &mut trace_gen_s);
            Prepared::Stream { trace, requests }
        }
        Workload::BatchMix => Prepared::Batch {
            jobs: generate_job_mix(JobMixConfig {
                jobs: u32::try_from(size)
                    .map_err(|_| CoreError::Mismatch(format!("{size} jobs is too many")))?,
                seed,
                ..Default::default()
            }),
        },
        Workload::ChaosObserved => {
            let trace = trace_config(3, 450, size, seed);
            let requests = timed_trace(&trace, &mut trace_gen_s);
            // E15's fault plan (its default plan seed): plans differ so
            // much between seeds (an early array death halves a pool)
            // that host time would not compare across seeds. The request
            // trace still follows the workload seed.
            let plan = FaultPlan::generate(&ChaosConfig {
                duration_us: size,
                arrays: runtime.engine_count(),
                ..Default::default()
            });
            // Observers nest as the experiment binaries nest them:
            // profiler over monitor over the recording log.
            let monitor = install_monitor(&mut runtime, &trace.tenants, Box::new(EventLog::new()));
            let profiler = ProfilerHandle::default();
            let inner = runtime.take_trace_sink();
            runtime.set_trace_sink(Box::new(ProfileSink::new(profiler.clone(), inner)));
            let state = install_chaos(&mut runtime);
            let hook = Box::new(ChaosHook::new(
                plan,
                state.clone(),
                runtime.engine_count(),
                RecoveryConfig::default(),
            ));
            Prepared::Chaos {
                trace,
                requests,
                monitor,
                profiler,
                state,
                hook,
            }
        }
    };
    if let Some(rec) = rec {
        let inner = runtime.take_trace_sink();
        runtime.set_trace_sink(Box::new(TimedSink::new(inner, rec.clone())));
    }
    if let (Some(rec), Some(s0), Some(s1)) = (rec, span0, span1) {
        rec.push_main("setup.runtime_new", s0, s1, None);
        rec.push_main("setup.inputs", s1, rec.now(), None);
    }
    Ok(Setup {
        runtime,
        prepared,
        runtime_new_s,
        trace_gen_s,
        setup_s: since(t0),
    })
}

/// Set-up alone, as a sample of `(runtime_new_s, trace_gen_s, setup_s)`.
///
/// # Errors
/// Propagates runtime construction failures.
pub(crate) fn set_up_only(workload: Workload, seed: u64, size: u64) -> Result<(f64, f64, f64)> {
    let s = black_box(set_up(workload, seed, size, None)?);
    Ok((s.runtime_new_s, s.trace_gen_s, s.setup_s))
}

/// One replay: set up, serve, and (for `chaos_observed`) build the
/// profile report, the monitor dashboard and the Chrome trace. With
/// `rec`, every layer call is recorded as a span.
///
/// # Errors
/// Propagates any error a program call returns.
pub fn replay(workload: Workload, seed: u64, size: u64, rec: Option<&Recorder>) -> Result<Replay> {
    let Setup {
        mut runtime,
        prepared,
        runtime_new_s,
        trace_gen_s,
        setup_s,
    } = set_up(workload, seed, size, rec)?;
    let t0 = Instant::now();
    let window_start = rec.map(Recorder::now);
    let span = |name: &'static str, f: &mut dyn FnMut()| match rec {
        Some(rec) => rec.time(name, f),
        None => f(),
    };
    let mut counts = Counts::default();
    let mut served = Vec::new();
    let (digest, delivered, sim, requests) = match prepared {
        Prepared::Stream { trace, requests } => {
            let service = ServiceConfig::default();
            let mut report = None;
            span("service.serve", &mut || {
                report = Some(match rec {
                    None => serve_requests(
                        &mut runtime,
                        &trace.tenants,
                        trace.duration_us,
                        &requests,
                        &service,
                    ),
                    Some(rec) => {
                        let mut noop = NoopDispatch;
                        let mut hook = TimedHook::new(&mut noop, rec.clone(), SERVE_JOB);
                        let r = serve_requests_with_hook(
                            &mut runtime,
                            &trace.tenants,
                            trace.duration_us,
                            &requests,
                            &service,
                            &mut hook,
                        );
                        served = hook.into_served();
                        r
                    }
                });
            });
            let report = report.expect("serve span ran")?;
            service_counts(&mut counts, &report);
            let sim = stream_sim(&report, report.goodput_pct());
            (
                report.digest(),
                delivered_checksums(&report),
                sim,
                report.requests,
            )
        }
        Prepared::Batch { jobs } => {
            let mut report = None;
            span("runtime.serve", &mut || report = Some(runtime.serve(&jobs)));
            let report = report.expect("serve span ran")?;
            let timings = runtime.phase_timings();
            counts.plan_s = timings.planning_ms * 1e-3;
            counts.exec_s = timings.exec_ms * 1e-3;
            let mut delivered = vec![None; jobs.len()];
            for o in &report.outcomes {
                if let (Some(slot), Some(spec)) =
                    (delivered.get_mut(o.id as usize), jobs.get(o.id as usize))
                {
                    *slot = Some(o.checksum);
                    served.push(Served {
                        spec: *spec,
                        kernel: o.kernel.clone(),
                        checksum: o.checksum,
                    });
                }
            }
            let latencies = report.sorted_latencies();
            let sim = Sim {
                goodput_pct: report.outcomes.len() as f64 * 100.0 / jobs.len().max(1) as f64,
                p99_latency_us: nearest_rank(&latencies, 99.0) as f64 / CYCLES_PER_US,
                energy_per_served_eu: report.energy.total_j() / report.jobs.max(1) as f64,
            };
            (report.digest(), delivered, sim, jobs.len())
        }
        Prepared::Chaos {
            trace,
            requests,
            monitor,
            profiler,
            state,
            mut hook,
        } => {
            // E15's own admission (EDF with shedding). The monitor still
            // observes every event and is finalized at session end, but
            // does not drive admission: under `MonitorShed` the modelled
            // p99 swings threefold between seeds, because alert-latched
            // shedding reacts to where bursts fall against the fault plan.
            let service = ServiceConfig {
                policy: AdmitPolicy::EdfShed,
                monitor: Some(monitor.clone()),
                ..Default::default()
            };
            let mut report = None;
            span("service.serve", &mut || {
                report = Some(match rec {
                    None => serve_requests_with_hook(
                        &mut runtime,
                        &trace.tenants,
                        trace.duration_us,
                        &requests,
                        &service,
                        hook.as_mut(),
                    ),
                    Some(rec) => {
                        let mut timed = TimedHook::new(hook.as_mut(), rec.clone(), CHAOS_DISPATCH);
                        let r = serve_requests_with_hook(
                            &mut runtime,
                            &trace.tenants,
                            trace.duration_us,
                            &requests,
                            &service,
                            &mut timed,
                        );
                        served = timed.into_served();
                        r
                    }
                });
            });
            let report = assemble(report.expect("serve span ran")?, hook.counts(), &state);
            let mut profile_digest = 0;
            span("profile.report", &mut || {
                let mixes = runtime.kernel_op_mixes();
                profile_digest = profiler.with(|p| ProfileReport::build(p, &mixes)).digest();
            });
            let mut dashboard_len = 0;
            span("monitor.snapshot", &mut || {
                let snapshot = monitor.final_snapshot();
                dashboard_len = render_dashboard(&snapshot, &monitor.alert_log()).len();
            });
            let mut log = None;
            span("trace.export", &mut || {
                log = runtime
                    .take_trace_sink()
                    .into_log()
                    .map(|log| chrome_trace(&log).len());
            });
            counts.export_bytes = log
                .ok_or_else(|| CoreError::Mismatch("the event log did not survive".into()))?
                as u64;
            service_counts(&mut counts, &report.service);
            let c = report.counts;
            counts.chaos_divergences = c.divergences;
            counts.chaos_retries = c.retries;
            counts.chaos_quarantines = c.quarantines;
            counts.chaos_failed_jobs = c.failed_jobs;
            counts.chaos_total_execs = report.total_execs;
            let sim = stream_sim(&report.service, report.useful_goodput_pct());
            let digest = [profile_digest, dashboard_len as u64, counts.export_bytes]
                .into_iter()
                .fold(report.digest(), fnv1a_fold);
            (
                digest,
                delivered_checksums(&report.service),
                sim,
                report.service.requests,
            )
        }
    };
    let wall_s = since(t0);
    let window_ns = rec.zip(window_start).map(|(rec, s)| (s, rec.now()));
    let cache = runtime.cache_stats();
    counts.cache_hits = cache.hits;
    counts.cache_misses = cache.misses;
    Ok(Replay {
        runtime_new_s,
        trace_gen_s,
        setup_s,
        wall_s,
        requests,
        digest: black_box(digest),
        delivered,
        sim,
        counts,
        served,
        window_ns,
    })
}

fn service_counts(counts: &mut Counts, report: &ServiceReport) {
    counts.service_requests = report.requests as u64;
    counts.service_served = report.served as u64;
    counts.service_shed = report.shed as u64;
}

/// Modelled metrics of a streaming session.
fn stream_sim(report: &ServiceReport, goodput_pct: f64) -> Sim {
    let mut latencies: Vec<u64> = report
        .outcomes
        .iter()
        .filter(|o| !o.shed && !o.failed)
        .map(|o| o.latency_us)
        .collect();
    latencies.sort_unstable();
    Sim {
        goodput_pct,
        p99_latency_us: nearest_rank(&latencies, 99.0) as f64,
        energy_per_served_eu: report.joules_per_served(),
    }
}

fn delivered_checksums(report: &ServiceReport) -> Vec<Option<u64>> {
    report
        .outcomes
        .iter()
        .map(|o| (!o.shed && !o.failed).then_some(o.checksum))
        .collect()
}
