//! The online [`Profiler`] — a fold over the [`TraceEvent`] stream that
//! charges every array cycle and every joule to a (kernel, phase) pair —
//! plus [`ProfilerHandle`] (shared ownership) and [`ProfileSink`], the
//! [`TraceSink`] tee that feeds it during a serve.
//!
//! The profiler is a pure observer: it reads the same virtual-time event
//! stream the Chrome exporter consumes and mutates nothing, so enabling
//! it cannot perturb schedules, checksums, or report digests. Attribution
//! works by joining three event kinds:
//!
//! * `JobSchedule` routes a job id to its `(array, kernel, fingerprint)`;
//! * `ArrayInterval` charges the interval's cycles to the array's phase
//!   account and — for `Reconfig`/`Waking`/`Exec` intervals carrying a
//!   job — to the routed kernel fingerprint;
//! * `JobComplete` adds the job's [`dsra_trace::EnergyBreakdown`] to the same
//!   fingerprint, so every joule and every busy cycle land on one key.

use dsra_trace::{ArrayPhase, EventLog, HealthSnapshot, PhaseBreakdown, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Where one scheduled job ran: its array and kernel identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRoute {
    /// Array the job was scheduled on.
    pub array: u32,
    /// Kernel display name.
    pub kernel: String,
    /// Bitstream fingerprint (32 hex digits) — the attribution key.
    pub fingerprint: String,
}

/// Cycles one kernel fingerprint consumed on one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCycles {
    /// Execution cycles.
    pub exec: u64,
    /// Reconfiguration cycles (diff reconfig + wake rewrites).
    pub reconfig: u64,
}

/// One array's profile: phase totals, per-kernel cycle accounts, and the
/// raw interval list (for windowed utilization timelines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrayAccount {
    /// Cycles per phase and the span they cover.
    pub phases: PhaseBreakdown,
    /// Per-fingerprint cycle accounts, sorted by fingerprint.
    pub kernels: BTreeMap<String, KernelCycles>,
    /// Every interval in emission order (`start`, `end`, phase).
    pub intervals: Vec<(u64, u64, ArrayPhase)>,
}

/// One kernel fingerprint's energy account, joined from `JobComplete`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelEnergy {
    /// Kernel display name.
    pub kernel: String,
    /// Jobs completed under this fingerprint.
    pub completions: u64,
    /// Dynamic (switching) joules.
    pub dynamic_j: f64,
    /// Static (leakage) joules.
    pub static_j: f64,
    /// Reconfiguration joules.
    pub reconfig_j: f64,
}

impl KernelEnergy {
    /// Total joules attributed to this fingerprint.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }
}

/// Folds the trace-event stream into per-array, per-kernel, and
/// per-phase accounts. Deterministic: same event stream, same state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profiler {
    routes: BTreeMap<u32, JobRoute>,
    arrays: BTreeMap<u32, ArrayAccount>,
    energy: BTreeMap<String, KernelEnergy>,
    end_cycle: u64,
    unrouted_cycles: u64,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Feeds one event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::JobSchedule {
                t,
                job,
                array,
                kernel,
                fingerprint,
            } => {
                self.end_cycle = self.end_cycle.max(*t);
                self.routes.insert(
                    *job,
                    JobRoute {
                        array: *array,
                        kernel: kernel.clone(),
                        fingerprint: fingerprint.clone(),
                    },
                );
            }
            TraceEvent::ArrayInterval {
                array,
                phase,
                start,
                end,
                job,
                ..
            } => {
                let cycles = end.saturating_sub(*start);
                self.end_cycle = self.end_cycle.max(*end);
                let acct = self.arrays.entry(*array).or_default();
                acct.phases.charge(*phase, *start, *end);
                acct.intervals.push((*start, *end, *phase));
                if matches!(
                    phase,
                    ArrayPhase::Exec | ArrayPhase::Reconfig | ArrayPhase::Waking
                ) {
                    match job.and_then(|j| self.routes.get(&j)) {
                        Some(route) => {
                            let k = acct.kernels.entry(route.fingerprint.clone()).or_default();
                            match phase {
                                ArrayPhase::Exec => k.exec += cycles,
                                _ => k.reconfig += cycles,
                            }
                            self.energy
                                .entry(route.fingerprint.clone())
                                .or_default()
                                .kernel
                                .clone_from(&route.kernel);
                        }
                        None => self.unrouted_cycles += cycles,
                    }
                }
            }
            TraceEvent::JobComplete { t, job, energy, .. } => {
                self.end_cycle = self.end_cycle.max(*t);
                if let Some(route) = self.routes.get(job) {
                    let e = self.energy.entry(route.fingerprint.clone()).or_default();
                    e.kernel.clone_from(&route.kernel);
                    e.completions += 1;
                    e.dynamic_j += energy.dynamic_j;
                    e.static_j += energy.static_j;
                    e.reconfig_j += energy.reconfig_j;
                }
            }
            TraceEvent::JobEnqueue { t, .. }
            | TraceEvent::JobAdmit { t, .. }
            | TraceEvent::JobShed { t, .. }
            | TraceEvent::BatteryLevel { t, .. }
            | TraceEvent::Counter { t, .. }
            | TraceEvent::FaultInjected { t, .. }
            | TraceEvent::DivergenceDetected { t, .. }
            | TraceEvent::JobRetry { t, .. }
            | TraceEvent::ArrayQuarantine { t, .. }
            | TraceEvent::ArrayRestore { t, .. } => {
                self.end_cycle = self.end_cycle.max(*t);
            }
            TraceEvent::Meta { .. } => {}
        }
    }

    /// Per-array accounts, array-id order.
    pub fn arrays(&self) -> &BTreeMap<u32, ArrayAccount> {
        &self.arrays
    }

    /// Per-fingerprint energy accounts, fingerprint order.
    pub fn energy(&self) -> &BTreeMap<String, KernelEnergy> {
        &self.energy
    }

    /// Job routing table (most recent schedule per job id).
    pub fn routes(&self) -> &BTreeMap<u32, JobRoute> {
        &self.routes
    }

    /// Largest virtual cycle observed.
    pub fn end_cycle(&self) -> u64 {
        self.end_cycle
    }

    /// Busy/reconfig cycles whose interval carried no routable job —
    /// attribution leakage (0 on a healthy runtime stream).
    pub fn unrouted_cycles(&self) -> u64 {
        self.unrouted_cycles
    }

    /// Total execution cycles across the pool.
    pub fn busy_cycles(&self) -> u64 {
        self.arrays.values().map(|a| a.phases.exec).sum()
    }

    /// Total joules attributed across all fingerprints.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.values().map(KernelEnergy::total_j).sum()
    }
}

/// Cloneable shared handle to a [`Profiler`].
#[derive(Debug, Clone)]
pub struct ProfilerHandle(Arc<Mutex<Profiler>>);

impl PartialEq for ProfilerHandle {
    /// Handles compare by identity: two handles are equal when they
    /// share the same profiler.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ProfilerHandle {}

impl Default for ProfilerHandle {
    fn default() -> Self {
        ProfilerHandle::new(Profiler::new())
    }
}

impl ProfilerHandle {
    /// Wraps a profiler for sharing.
    pub fn new(profiler: Profiler) -> Self {
        ProfilerHandle(Arc::new(Mutex::new(profiler)))
    }

    fn lock(&self) -> MutexGuard<'_, Profiler> {
        self.0.lock().expect("profiler lock poisoned")
    }

    /// Runs a closure against the profiler.
    pub fn with<R>(&self, f: impl FnOnce(&mut Profiler) -> R) -> R {
        f(&mut self.lock())
    }

    /// Feeds one event.
    pub fn observe(&self, ev: &TraceEvent) {
        self.lock().observe(ev);
    }
}

/// A [`TraceSink`] that tees every event into the shared profiler and
/// forwards it to the wrapped inner sink, so `--profile-out` composes
/// with `--trace` (inner [`EventLog`]) and `--monitor` (inner
/// `MonitorSink`): health queries and log recovery delegate inward.
pub struct ProfileSink {
    handle: ProfilerHandle,
    inner: Box<dyn TraceSink>,
}

impl std::fmt::Debug for ProfileSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSink")
            .field("handle", &self.handle)
            .finish_non_exhaustive()
    }
}

impl ProfileSink {
    /// Tees into `handle`, forwarding to `inner`.
    pub fn new(handle: ProfilerHandle, inner: Box<dyn TraceSink>) -> Self {
        ProfileSink { handle, inner }
    }
}

impl TraceSink for ProfileSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        self.handle.observe(&event);
        if self.inner.enabled() {
            self.inner.emit(event);
        }
    }

    fn into_log(self: Box<Self>) -> Option<EventLog> {
        self.inner.into_log()
    }

    fn health_snapshot(&mut self, now_cycle: u64) -> Option<HealthSnapshot> {
        self.inner.health_snapshot(now_cycle)
    }

    fn active_alerts(&mut self, now_cycle: u64) -> u32 {
        self.inner.active_alerts(now_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_trace::{EnergyBreakdown, NoopSink};

    fn feed(p: &mut Profiler) {
        p.observe(&TraceEvent::JobSchedule {
            t: 100,
            job: 1,
            array: 0,
            kernel: "dct8".into(),
            fingerprint: "aa".repeat(16),
        });
        p.observe(&TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Idle,
            start: 0,
            end: 100,
            job: None,
            kernel: None,
        });
        p.observe(&TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Reconfig,
            start: 100,
            end: 400,
            job: Some(1),
            kernel: Some("dct8".into()),
        });
        p.observe(&TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Exec,
            start: 400,
            end: 1_000,
            job: Some(1),
            kernel: Some("dct8".into()),
        });
        p.observe(&TraceEvent::JobComplete {
            t: 1_000,
            job: 1,
            checksum: 7,
            energy: EnergyBreakdown {
                dynamic_j: 1.0,
                static_j: 0.5,
                reconfig_j: 0.25,
            },
        });
    }

    #[test]
    fn intervals_and_energy_join_on_the_fingerprint() {
        let mut p = Profiler::new();
        feed(&mut p);
        let fp = "aa".repeat(16);
        let a = &p.arrays()[&0];
        assert_eq!(a.phases.idle, 100);
        assert_eq!(a.phases.reconfig, 300);
        assert_eq!(a.phases.exec, 600);
        assert_eq!(a.phases.span(), 1_000);
        assert_eq!(
            a.kernels[&fp],
            KernelCycles {
                exec: 600,
                reconfig: 300
            }
        );
        let e = &p.energy()[&fp];
        assert_eq!(e.kernel, "dct8");
        assert_eq!(e.completions, 1);
        assert!((e.total_j() - 1.75).abs() < 1e-12);
        assert_eq!(p.busy_cycles(), 600);
        assert_eq!(p.unrouted_cycles(), 0);
        assert_eq!(p.end_cycle(), 1_000);
    }

    #[test]
    fn busy_intervals_without_a_route_count_as_leakage() {
        let mut p = Profiler::new();
        p.observe(&TraceEvent::ArrayInterval {
            array: 2,
            phase: ArrayPhase::Exec,
            start: 0,
            end: 50,
            job: Some(99),
            kernel: None,
        });
        assert_eq!(p.unrouted_cycles(), 50);
        assert_eq!(p.busy_cycles(), 50);
        assert!(p.energy().is_empty());
    }

    #[test]
    fn sink_tees_into_the_profiler_and_delegates_inward() {
        let handle = ProfilerHandle::default();
        let mut sink = ProfileSink::new(handle.clone(), Box::new(EventLog::new()));
        assert!(sink.enabled());
        sink.emit(TraceEvent::JobSchedule {
            t: 10,
            job: 3,
            array: 1,
            kernel: "me_full".into(),
            fingerprint: "bb".repeat(16),
        });
        assert_eq!(sink.health_snapshot(10), None, "plain inner: no health");
        assert_eq!(sink.active_alerts(10), 0);
        let log = Box::new(sink).into_log().expect("inner event log");
        assert_eq!(log.len(), 1, "event forwarded to the inner recorder");
        assert_eq!(handle.with(|p| p.routes().len()), 1);
    }

    #[test]
    fn noop_inner_keeps_profiling_but_records_nothing() {
        let handle = ProfilerHandle::default();
        let mut sink = ProfileSink::new(handle.clone(), Box::new(NoopSink));
        sink.emit(TraceEvent::JobAdmit { t: 77, job: 0 });
        assert!(Box::new(sink).into_log().is_none());
        assert_eq!(handle.with(|p| p.end_cycle()), 77);
    }

    #[test]
    fn handles_compare_by_identity() {
        let a = ProfilerHandle::default();
        let b = ProfilerHandle::default();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
