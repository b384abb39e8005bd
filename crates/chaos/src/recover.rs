//! The recovery side: a [`DispatchHook`] that injects the plan on
//! schedule, spot-checks served results against the golden reference,
//! retries diverged jobs on a different array, and quarantines arrays
//! that keep diverging — with periodic probes that re-admit them once
//! healthy.
//!
//! Everything runs in virtual time through the dispatcher's event loop:
//! fault instants and probe instants are folded into the loop's time
//! advance ([`ChaosHook::next_event_us`]), retries are re-dispatches at
//! a backed-off virtual arrival, and all bookkeeping is integer state —
//! so a chaos session is byte-identical across runs for the same seed.

use dsra_backend::{Backend, Divergence, GoldenBackend};
use dsra_core::error::Result;
use dsra_runtime::{SocRuntime, StreamedJob, CYCLES_PER_US};
use dsra_service::{pool_for, DispatchHook};
use dsra_trace::TraceEvent;
use dsra_video::JobSpec;

use crate::fault::ChaosState;
use crate::plan::{FaultKind, FaultPlan};

/// Retry budget per job after a detected divergence.
const MAX_RETRIES: u32 = 3;
/// Virtual-µs backoff before a retry re-dispatches (scaled linearly by
/// the attempt number).
const RETRY_BACKOFF_US: u64 = 20;
/// Consecutive divergences on one array before it is quarantined.
const QUARANTINE_STRIKES: u32 = 2;
/// Virtual µs between probes of a quarantined array.
const PROBE_INTERVAL_US: u64 = 500;

/// Whether a chaos session recovers. [`RecoveryConfig::Full`] (the
/// default) verifies every served job against the golden reference,
/// retries a diverged job up to 3 times on another array after a
/// 20 µs × attempt backoff, quarantines an array after 2 consecutive
/// divergences and probes it every 500 µs. [`RecoveryConfig::Oblivious`]
/// switches every mechanism off — the fault-*oblivious* baseline E15
/// compares against, which serves whatever the arrays produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryConfig {
    /// Detection, retries, quarantine and probes.
    #[default]
    Full,
    /// No detection, no retries, no quarantine.
    Oblivious,
}

/// Recovery-side tallies (the trace carries the same story as events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Faults injected on schedule.
    pub faults_injected: u64,
    /// Divergences the spot checks caught.
    pub divergences: u64,
    /// Retry dispatches.
    pub retries: u64,
    /// Arrays quarantined.
    pub quarantines: u64,
    /// Quarantined arrays probed healthy and re-admitted.
    pub restores: u64,
    /// Jobs failed after exhausting the retry budget.
    pub failed_jobs: u64,
}

/// The chaos [`DispatchHook`]: fault injection plus the full
/// detect/retry/quarantine/probe recovery loop.
pub struct ChaosHook {
    plan: FaultPlan,
    next_fault: usize,
    state: ChaosState,
    recovery: RecoveryConfig,
    golden: GoldenBackend,
    /// Consecutive-divergence strikes per array.
    strikes: Vec<u32>,
    /// Next probe instant per quarantined array (µs) — only a schedule:
    /// whether an array is quarantined is read from the runtime.
    probe_at: Vec<Option<u64>>,
    counts: RecoveryCounts,
}

impl ChaosHook {
    /// A hook for `plan` over a pool of `arrays`, driving `state` (from
    /// [`crate::install_chaos`] on the same runtime).
    pub fn new(
        plan: FaultPlan,
        state: ChaosState,
        arrays: usize,
        recovery: RecoveryConfig,
    ) -> Self {
        ChaosHook {
            plan,
            next_fault: 0,
            state,
            recovery,
            golden: GoldenBackend::default(),
            strikes: vec![0; arrays],
            probe_at: vec![None; arrays],
            counts: RecoveryCounts::default(),
        }
    }

    /// The tallies so far.
    pub fn counts(&self) -> RecoveryCounts {
        self.counts
    }

    /// Quarantines `array` unless it is the last healthy array of its
    /// kind (a degraded pool keeps serving — jobs that keep diverging
    /// there fail per-job instead of stalling the whole service).
    fn try_quarantine(&mut self, runtime: &mut SocRuntime, array: usize, now_cycle: u64) -> bool {
        let Some(kind) = runtime.stream_array(array).map(|a| a.kind) else {
            return false;
        };
        let healthy_peer = runtime
            .stream_arrays()
            .any(|a| a.kind == kind && !a.quarantined && a.id != array);
        if !healthy_peer || !runtime.stream_quarantine(array, now_cycle) {
            return false;
        }
        self.counts.quarantines += 1;
        // The eviction just dropped the (possibly corrupt) bitstream.
        self.state.on_quarantine(array);
        if runtime.trace_sink().enabled() {
            runtime.trace_sink().emit(TraceEvent::ArrayQuarantine {
                t: now_cycle,
                array: array as u32,
                strikes: self.strikes[array],
            });
        }
        true
    }
}

impl DispatchHook for ChaosHook {
    fn on_tick(&mut self, runtime: &mut SocRuntime, now_us: u64) {
        self.state.set_now(now_us);
        // Land every fault scheduled at or before this instant. The
        // dispatcher's clock visits each fault instant exactly (they are
        // folded into next_event_us), so `t` below is the scheduled time.
        while let Some(ev) = self.plan.events().get(self.next_fault) {
            if ev.at_us > now_us {
                break;
            }
            let ev = *ev;
            self.next_fault += 1;
            self.counts.faults_injected += 1;
            if let FaultKind::Brownout { pct } = ev.kind {
                let step = runtime.config().power.battery_capacity_j * f64::from(pct) / 100.0;
                runtime.drain_battery(step);
            } else {
                self.state.apply(&ev);
            }
            if runtime.trace_sink().enabled() {
                runtime.trace_sink().emit(TraceEvent::FaultInjected {
                    t: ev.at_us * CYCLES_PER_US,
                    array: ev.array as u32,
                    kind: ev.kind.tag(),
                });
            }
        }
        // Probe due quarantined arrays; re-admit the ones that come back
        // clean (stuck-at windows expire, evicted reconfig corruption is
        // gone; death never probes healthy).
        for array in 0..self.probe_at.len() {
            if self.probe_at[array].is_none_or(|due| due > now_us) {
                continue;
            }
            let faulty = self.state.is_faulty(array, now_us);
            self.probe_at[array] = faulty.then_some(now_us + PROBE_INTERVAL_US);
            if !faulty && runtime.stream_restore(array, now_us * CYCLES_PER_US) {
                self.strikes[array] = 0;
                self.counts.restores += 1;
                if runtime.trace_sink().enabled() {
                    runtime.trace_sink().emit(TraceEvent::ArrayRestore {
                        t: now_us * CYCLES_PER_US,
                        array: array as u32,
                    });
                }
            }
        }
    }

    fn next_event_us(&mut self, now_us: u64) -> Option<u64> {
        let fault = self
            .plan
            .events()
            .get(self.next_fault)
            .map(|e| e.at_us)
            .filter(|&t| t > now_us);
        let probe = self
            .probe_at
            .iter()
            .filter_map(|p| p.filter(|&t| t > now_us))
            .min();
        match (fault, probe) {
            (Some(f), Some(p)) => Some(f.min(p)),
            (f, p) => f.or(p),
        }
    }

    fn dispatch(
        &mut self,
        runtime: &mut SocRuntime,
        job: &JobSpec,
        now_us: u64,
    ) -> Result<Option<StreamedJob>> {
        let kind = pool_for(&job.payload);
        let verify = self.recovery == RecoveryConfig::Full;
        let mut exclude: Option<usize> = None;
        let mut arrival_cycle = job.arrival_cycle;
        for attempt in 0..=MAX_RETRIES {
            // A fully-quarantined pool cannot place the job at all.
            if !runtime
                .stream_arrays()
                .any(|a| a.kind == kind && !a.quarantined)
            {
                self.counts.failed_jobs += 1;
                return Ok(None);
            }
            let attempt_spec = JobSpec {
                arrival_cycle,
                ..*job
            };
            let served = runtime.stream_serve_job_excluding(&attempt_spec, exclude)?;
            // Detection: every served job is checked against golden under
            // full recovery, none when oblivious.
            let divergence = if verify {
                let expected = self.golden.execute(
                    runtime.config().da_params,
                    &attempt_spec,
                    &served.kernel,
                )?;
                let got = dsra_core::report::ExecOutcome {
                    exec_cycles: expected.exec_cycles,
                    checksum: served.checksum,
                };
                Divergence::compare(&attempt_spec, &served.kernel, expected, got)
            } else {
                None
            };
            let Some(divergence) = divergence else {
                self.strikes[served.array] = 0;
                return Ok(Some(served));
            };
            // Diverged: trace it, strike the array, maybe quarantine,
            // then retry elsewhere with a backed-off virtual arrival.
            self.counts.divergences += 1;
            self.strikes[served.array] += 1;
            if runtime.trace_sink().enabled() {
                runtime.trace_sink().emit(TraceEvent::DivergenceDetected {
                    t: served.end_cycle,
                    job: divergence.job,
                    array: served.array as u32,
                });
            }
            if self.strikes[served.array] >= QUARANTINE_STRIKES
                && self.try_quarantine(runtime, served.array, served.end_cycle)
            {
                self.probe_at[served.array] =
                    Some(now_us.max(served.end_cycle / CYCLES_PER_US) + PROBE_INTERVAL_US);
            }
            if attempt == MAX_RETRIES {
                break;
            }
            let backoff = RETRY_BACKOFF_US * u64::from(attempt + 1) * CYCLES_PER_US;
            arrival_cycle = served.end_cycle + backoff;
            self.counts.retries += 1;
            if runtime.trace_sink().enabled() {
                runtime.trace_sink().emit(TraceEvent::JobRetry {
                    t: arrival_cycle,
                    job: job.id,
                    attempt: attempt + 1,
                });
            }
            exclude = Some(served.array);
        }
        self.counts.failed_jobs += 1;
        Ok(None)
    }
}
