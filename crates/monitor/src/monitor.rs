//! The streaming monitor: windowed state over the trace-event stream.
//!
//! ## Sealing model
//!
//! Time is cut into windows `[w·W, (w+1)·W)` keyed by the absolute index
//! `w`. Not-yet-sealed windows live in a fixed ring; a window **seals**
//! once the watermark (the largest "now"-stamped cycle seen) passes its
//! end by [`MonitorConfig::seal_grace_cycles`], or when an explicit
//! query ([`Monitor::health`], [`Monitor::active_alerts`],
//! [`Monitor::finalize`]) advances virtual time past it. Only
//! `JobEnqueue`/`JobAdmit`/`JobShed` stamps advance the watermark —
//! they are emitted *at* the dispatcher's current instant, while
//! completions, intervals, and battery samples may carry stamps up to
//! one clock quantum behind it (the µs clock rounds cycles up) or far
//! ahead of it, and only fill windows; the seal grace is what keeps the
//! behind-the-watermark stragglers from being dropped.
//!
//! Window accumulation is order-insensitive (commutative counters,
//! histogram records, min/max battery folds), so replaying a recorded
//! [`EventLog`](dsra_trace::EventLog) through the same code yields a
//! byte-identical [`AlertLog`] and final [`HealthSnapshot`] — the
//! property `trace_report --slo` and its pinning test rely on.

use crate::alert::{AlertEvent, AlertLog, BudgetPoint};
use crate::config::MonitorConfig;
use dsra_trace::{
    ArrayHealth, BatteryHealth, HealthSnapshot, Histogram, LatencyStats, PhaseBreakdown,
    TenantHealth, TraceEvent,
};
use std::collections::{BTreeMap, VecDeque};

/// Per-tenant decision counts inside one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TenantWindow {
    enqueued: u64,
    served: u64,
    shed: u64,
    violations: u64,
}

/// One not-yet-sealed window resident in the ring.
#[derive(Debug, Clone)]
struct WindowState {
    abs: u64,
    hist: Histogram,
    tenants: BTreeMap<u32, TenantWindow>,
}

/// A job between its enqueue and its completion or shed.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    tenant: u32,
    enqueue: u64,
    deadline: u64,
}

/// Cumulative per-tenant state plus the alerter's window deque.
#[derive(Debug, Clone)]
struct TenantState {
    budget_fraction: f64,
    /// `(decided, bad)` per sealed window, most recent at the back,
    /// capped at `alert.slow_windows`.
    windows: VecDeque<(u64, u64)>,
    latched: bool,
    hold: u32,
    fast_burn: f64,
    slow_burn: f64,
    enqueued: u64,
    served: u64,
    shed: u64,
    violations: u64,
}

impl TenantState {
    fn new(budget_fraction: f64) -> Self {
        TenantState {
            budget_fraction,
            windows: VecDeque::new(),
            latched: false,
            hold: 0,
            fast_burn: 0.0,
            slow_burn: 0.0,
            enqueued: 0,
            served: 0,
            shed: 0,
            violations: 0,
        }
    }

    /// Burn rate over the most recent `depth` windows of the deque.
    fn burn(&self, depth: usize) -> f64 {
        let (mut decided, mut bad) = (0u64, 0u64);
        for &(d, b) in self.windows.iter().rev().take(depth) {
            decided += d;
            bad += b;
        }
        if decided == 0 {
            return 0.0;
        }
        (bad as f64 / decided as f64) / self.budget_fraction
    }
}

/// Cumulative chaos/recovery event counts observed on the stream —
/// commutative increments, so replay folds them order-insensitively like
/// every other windowed aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Fault-plan injections observed.
    pub faults: u64,
    /// Golden spot-check divergences observed.
    pub divergences: u64,
    /// Recovery retries dispatched.
    pub retries: u64,
    /// Array quarantine transitions.
    pub quarantines: u64,
    /// Array restore transitions.
    pub restores: u64,
}

/// Battery trajectory endpoints, folded order-insensitively: the first
/// sample is the one with the smallest cycle (largest charge on ties),
/// the last the one with the largest cycle (smallest charge on ties).
#[derive(Debug, Clone, Copy)]
struct BatteryAgg {
    first_t: u64,
    first_j: f64,
    last_t: u64,
    last_j: f64,
}

/// The streaming monitor. Feed it [`TraceEvent`]s via
/// [`observe`](Monitor::observe) (or wrap it in a
/// [`MonitorSink`](crate::MonitorSink)), query it with
/// [`health`](Monitor::health) / [`active_alerts`](Monitor::active_alerts),
/// and close the stream with [`finalize`](Monitor::finalize).
#[derive(Debug, Clone)]
pub struct Monitor {
    cfg: MonitorConfig,
    slots: Vec<Option<WindowState>>,
    /// Sealed window count == absolute index of the next window to seal.
    sealed: u64,
    watermark: u64,
    finalized_at: Option<u64>,
    inflight: BTreeMap<u32, Inflight>,
    tenants: BTreeMap<u32, TenantState>,
    /// `(abs, histogram)` of the most recent sealed windows, capped at
    /// `alert.slow_windows` — the sliding percentile view.
    lat_recent: VecDeque<(u64, Histogram)>,
    arrays: BTreeMap<u32, PhaseBreakdown>,
    battery: Option<BatteryAgg>,
    counters: BTreeMap<&'static str, u64>,
    chaos: ChaosCounts,
    /// Arrays currently under quarantine (fault alerts latch while any
    /// are present; restores clear them).
    quarantined: std::collections::BTreeSet<u32>,
    completes: u64,
    sheds: u64,
    late_drops: u64,
    horizon_drops: u64,
    log: AlertLog,
    timeline: Vec<BudgetPoint>,
}

impl Monitor {
    /// A monitor over an empty stream. Tenants listed in
    /// `cfg.tenant_budgets` are registered immediately so their alert
    /// windows cover the run from window 0.
    ///
    /// # Panics
    /// Panics on degenerate geometry (zero window length, empty ring,
    /// zero alert windows, or `fast_windows > slow_windows`).
    pub fn new(cfg: MonitorConfig) -> Self {
        assert!(cfg.window_cycles > 0, "window length must be positive");
        assert!(cfg.ring_windows > 0, "need at least one ring slot");
        assert!(
            cfg.alert.fast_windows > 0,
            "fast window depth must be positive"
        );
        assert!(
            cfg.alert.fast_windows <= cfg.alert.slow_windows,
            "fast window depth must not exceed the slow depth"
        );
        let mut tenants = BTreeMap::new();
        for &(id, _) in &cfg.tenant_budgets {
            tenants
                .entry(id)
                .or_insert_with(|| TenantState::new(cfg.budget_fraction(id)));
        }
        Monitor {
            slots: vec![None; cfg.ring_windows],
            sealed: 0,
            watermark: 0,
            finalized_at: None,
            inflight: BTreeMap::new(),
            tenants,
            lat_recent: VecDeque::new(),
            arrays: BTreeMap::new(),
            battery: None,
            counters: BTreeMap::new(),
            chaos: ChaosCounts::default(),
            quarantined: std::collections::BTreeSet::new(),
            completes: 0,
            sheds: 0,
            late_drops: 0,
            horizon_drops: 0,
            log: AlertLog::new(),
            timeline: Vec::new(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Consumes one trace event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::JobEnqueue {
                t,
                job,
                tenant,
                deadline,
                ..
            } => {
                self.advance(*t);
                self.tenant_entry(*tenant).enqueued += 1;
                if let Some(w) = self.window_mut(*t) {
                    w.tenants.entry(*tenant).or_default().enqueued += 1;
                }
                self.inflight.insert(
                    *job,
                    Inflight {
                        tenant: *tenant,
                        enqueue: *t,
                        deadline: *deadline,
                    },
                );
            }
            TraceEvent::JobAdmit { t, .. } => self.advance(*t),
            TraceEvent::JobShed { t, job, tenant, .. } => {
                self.advance(*t);
                self.inflight.remove(job);
                self.sheds += 1;
                self.tenant_entry(*tenant).shed += 1;
                if let Some(w) = self.window_mut(*t) {
                    w.tenants.entry(*tenant).or_default().shed += 1;
                }
            }
            TraceEvent::JobComplete { t, job, .. } => {
                self.completes += 1;
                if let Some(fl) = self.inflight.remove(job) {
                    let latency = t.saturating_sub(fl.enqueue);
                    let violated = fl.deadline > 0 && *t > fl.deadline;
                    let ts = self.tenant_entry(fl.tenant);
                    ts.served += 1;
                    ts.violations += violated as u64;
                    if let Some(w) = self.window_mut(*t) {
                        w.hist.record(latency);
                        let tw = w.tenants.entry(fl.tenant).or_default();
                        tw.served += 1;
                        tw.violations += violated as u64;
                    }
                }
            }
            // Zero-length intervals open no array entry either: the Chrome
            // exporter drops them, and replay must agree with online.
            TraceEvent::ArrayInterval {
                array,
                phase,
                start,
                end,
                ..
            } if end > start => {
                let account = self.arrays.entry(*array).or_default();
                account.charge(*phase, *start, *end);
            }
            TraceEvent::BatteryLevel { t, charge_j } => {
                let b = self.battery.get_or_insert(BatteryAgg {
                    first_t: *t,
                    first_j: *charge_j,
                    last_t: *t,
                    last_j: *charge_j,
                });
                if *t < b.first_t || (*t == b.first_t && *charge_j > b.first_j) {
                    b.first_t = *t;
                    b.first_j = *charge_j;
                }
                if *t > b.last_t || (*t == b.last_t && *charge_j < b.last_j) {
                    b.last_t = *t;
                    b.last_j = *charge_j;
                }
            }
            TraceEvent::Counter { name, value, .. } => {
                // Counters carry cumulative values; the last sample wins.
                self.counters.insert(name, *value);
            }
            TraceEvent::FaultInjected { .. } => self.chaos.faults += 1,
            TraceEvent::DivergenceDetected { .. } => self.chaos.divergences += 1,
            TraceEvent::JobRetry { .. } => self.chaos.retries += 1,
            TraceEvent::ArrayQuarantine { array, .. } => {
                self.chaos.quarantines += 1;
                self.quarantined.insert(*array);
            }
            TraceEvent::ArrayRestore { array, .. } => {
                self.chaos.restores += 1;
                self.quarantined.remove(array);
            }
            TraceEvent::ArrayInterval { .. }
            | TraceEvent::JobSchedule { .. }
            | TraceEvent::Meta { .. } => {}
        }
    }

    /// Seals every window whose end (plus the configured seal grace) is
    /// at or before `now_cycle`.
    pub fn seal_to(&mut self, now_cycle: u64) {
        self.advance(now_cycle);
    }

    /// Seals through the window containing `end_cycle` plus any windows
    /// still resident in the ring (partial tails included), closing the
    /// stream. Queries after this answer for `end_cycle`.
    pub fn finalize(&mut self, end_cycle: u64) {
        let mut target = end_cycle / self.cfg.window_cycles + 1;
        for s in self.slots.iter().flatten() {
            target = target.max(s.abs + 1);
        }
        while self.sealed < target {
            self.seal_one();
        }
        self.watermark = self.watermark.max(end_cycle);
        self.finalized_at = Some(end_cycle);
    }

    /// Alerts latched at `now_cycle` (seals up to it first): burn-rate
    /// alerts per tenant plus one fault alert per quarantined array, so
    /// recovery-driven capacity loss feeds the same admission hook the
    /// SLO alerter does.
    pub fn active_alerts(&mut self, now_cycle: u64) -> u32 {
        self.seal_to(now_cycle);
        self.tenants.values().filter(|t| t.latched).count() as u32 + self.quarantined.len() as u32
    }

    /// Cumulative chaos/recovery event counts observed so far.
    pub fn chaos_counts(&self) -> ChaosCounts {
        self.chaos
    }

    /// Arrays currently under quarantine, ascending.
    pub fn quarantined_arrays(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// Health at `now_cycle` (seals up to it first).
    pub fn health(&mut self, now_cycle: u64) -> HealthSnapshot {
        self.seal_to(now_cycle);
        self.snapshot(now_cycle)
    }

    /// Health at the finalize cycle (or the watermark before finalize),
    /// without advancing time.
    pub fn final_snapshot(&self) -> HealthSnapshot {
        self.snapshot(self.finalized_at.unwrap_or(self.watermark))
    }

    /// Alert transitions so far.
    pub fn alert_log(&self) -> &AlertLog {
        &self.log
    }

    /// Per-window budget timeline (empty unless
    /// [`MonitorConfig::keep_timeline`] is on).
    pub fn timeline(&self) -> &[BudgetPoint] {
        &self.timeline
    }

    /// Windows sealed so far.
    pub fn windows_sealed(&self) -> u64 {
        self.sealed
    }

    /// Windows currently held in memory (unsealed ring occupancy plus
    /// the sliding percentile view) — bounded by configuration, not run
    /// length.
    pub fn resident_windows(&self) -> usize {
        self.slots.iter().flatten().count() + self.lat_recent.len()
    }

    /// Jobs currently between enqueue and completion/shed.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// `(late, beyond-horizon)` events dropped from windowed state.
    /// Both stay 0 for dispatcher-shaped streams; they exist so silent
    /// miscounting is impossible.
    pub fn drops(&self) -> (u64, u64) {
        (self.late_drops, self.horizon_drops)
    }

    /// Replays a recorded event stream through a fresh monitor and
    /// finalizes at the largest cycle any event carries — the post-hoc
    /// view `trace_report --slo` renders, pinned byte-equal to the
    /// online view by `monitor_replay.rs`.
    pub fn replay<'a, I>(cfg: MonitorConfig, events: I) -> Monitor
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        let mut m = Monitor::new(cfg);
        let mut end = 0u64;
        for ev in events {
            end = end.max(event_end_cycle(ev));
            m.observe(ev);
        }
        m.finalize(end);
        m
    }

    /// Assembles a snapshot for `at_cycle` from current state, without
    /// sealing anything.
    pub fn snapshot(&self, at_cycle: u64) -> HealthSnapshot {
        let latency = {
            let mut merged = Histogram::new(self.cfg.hist_bucket_cycles, self.cfg.hist_buckets);
            for (_, h) in &self.lat_recent {
                merged.merge(h);
            }
            LatencyStats {
                count: merged.count(),
                p50: merged.p50(),
                p90: merged.p90(),
                p99: merged.p99(),
                max: merged.max(),
            }
        };
        let arrays = self
            .arrays
            .iter()
            .map(|(&array, p)| ArrayHealth {
                array,
                span_cycles: p.span(),
                utilization_pct: p.utilization_pct(),
                gated_pct: p.gated_pct(),
                stall_pct: p.stall_pct(),
            })
            .collect();
        let battery = self.battery.map(|b| {
            // The slope math lives with the battery model so dashboards
            // and discharge experiments agree on the projection.
            let (burn, projected) =
                dsra_power::burn_projection((b.first_t, b.first_j), (b.last_t, b.last_j));
            BatteryHealth {
                charge_j: b.last_j,
                at_cycle: b.last_t,
                burn_j_per_mcycle: burn,
                projected_empty_cycle: projected,
            }
        });
        let tenants = self
            .tenants
            .iter()
            .map(|(&tenant, t)| TenantHealth {
                tenant,
                enqueued: t.enqueued,
                served: t.served,
                shed: t.shed,
                violations: t.violations,
                fast_burn: t.fast_burn,
                slow_burn: t.slow_burn,
                alert: t.latched,
            })
            .collect();
        HealthSnapshot {
            at_cycle,
            window_cycles: self.cfg.window_cycles,
            windows_sealed: self.sealed,
            latency,
            arrays,
            battery,
            tenants,
            alerts_active: self.tenants.values().filter(|t| t.latched).count() as u32
                + self.quarantined.len() as u32,
            completes: self.completes,
            sheds: self.sheds,
        }
    }

    /// Cumulative value of a named counter sample (0 when never seen).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn advance(&mut self, now_cycle: u64) {
        self.watermark = self.watermark.max(now_cycle);
        // A window seals only once the watermark clears its end by the
        // configured grace, so events stamped up to one producer clock
        // quantum behind the watermark still find their window resident.
        while (self.sealed + 1) * self.cfg.window_cycles + self.cfg.seal_grace_cycles
            <= self.watermark
        {
            self.seal_one();
        }
    }

    fn tenant_entry(&mut self, tenant: u32) -> &mut TenantState {
        let budget = self.cfg.budget_fraction(tenant);
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(budget))
    }

    fn window_mut(&mut self, t: u64) -> Option<&mut WindowState> {
        let w = t / self.cfg.window_cycles;
        if w < self.sealed {
            self.late_drops += 1;
            return None;
        }
        let slot = (w % self.cfg.ring_windows as u64) as usize;
        match &self.slots[slot] {
            Some(s) if s.abs == w => {}
            Some(_) => {
                // The slot holds a different unsealed window: the stream
                // spans more future windows than the ring covers.
                self.horizon_drops += 1;
                return None;
            }
            None => {
                self.slots[slot] = Some(WindowState {
                    abs: w,
                    hist: Histogram::new(self.cfg.hist_bucket_cycles, self.cfg.hist_buckets),
                    tenants: BTreeMap::new(),
                });
            }
        }
        self.slots[slot].as_mut()
    }

    /// Seals window `self.sealed`: folds its histogram into the sliding
    /// view, feeds every known tenant's alerter (absent tenants
    /// contribute an empty window), and records transitions.
    fn seal_one(&mut self) {
        let w = self.sealed;
        let slot = (w % self.cfg.ring_windows as u64) as usize;
        let state = match &self.slots[slot] {
            Some(s) if s.abs == w => self.slots[slot].take(),
            _ => None,
        };
        let hist = state.as_ref().map_or_else(
            || Histogram::new(self.cfg.hist_bucket_cycles, self.cfg.hist_buckets),
            |s| s.hist.clone(),
        );
        self.lat_recent.push_back((w, hist));
        while self.lat_recent.len() > self.cfg.alert.slow_windows {
            self.lat_recent.pop_front();
        }
        let alert = self.cfg.alert;
        let end_cycle = (w + 1) * self.cfg.window_cycles;
        let mut transitions = Vec::new();
        let mut points = Vec::new();
        for (&id, ts) in self.tenants.iter_mut() {
            let (decided, bad) = state
                .as_ref()
                .and_then(|s| s.tenants.get(&id))
                .map_or((0, 0), |tw| (tw.served + tw.shed, tw.violations + tw.shed));
            ts.windows.push_back((decided, bad));
            while ts.windows.len() > alert.slow_windows {
                ts.windows.pop_front();
            }
            ts.fast_burn = ts.burn(alert.fast_windows);
            ts.slow_burn = ts.burn(alert.slow_windows);
            if ts.hold > 0 {
                ts.hold -= 1;
            } else if !ts.latched
                && ts.fast_burn >= alert.fire_burn
                && ts.slow_burn >= alert.fire_burn
            {
                ts.latched = true;
                ts.hold = alert.hold_windows;
                transitions.push((id, true, ts.fast_burn, ts.slow_burn));
            } else if ts.latched
                && ts.fast_burn <= alert.clear_burn
                && ts.slow_burn <= alert.clear_burn
            {
                ts.latched = false;
                ts.hold = alert.hold_windows;
                transitions.push((id, false, ts.fast_burn, ts.slow_burn));
            }
            if self.cfg.keep_timeline {
                points.push(BudgetPoint {
                    window: w,
                    end_cycle,
                    tenant: id,
                    decided,
                    bad,
                    fast_burn: ts.fast_burn,
                    slow_burn: ts.slow_burn,
                    latched: ts.latched,
                });
            }
        }
        for (tenant, latched, fast_burn, slow_burn) in transitions {
            self.log.push(AlertEvent {
                tenant,
                window: w,
                at_cycle: end_cycle,
                latched,
                fast_burn,
                slow_burn,
            });
        }
        self.timeline.extend(points);
        self.sealed = w + 1;
    }
}

/// The largest virtual cycle an event carries (0 for `Meta`).
pub fn event_end_cycle(ev: &TraceEvent) -> u64 {
    match ev {
        TraceEvent::Meta { .. } => 0,
        TraceEvent::JobEnqueue { t, .. }
        | TraceEvent::JobAdmit { t, .. }
        | TraceEvent::JobShed { t, .. }
        | TraceEvent::JobSchedule { t, .. }
        | TraceEvent::JobComplete { t, .. }
        | TraceEvent::BatteryLevel { t, .. }
        | TraceEvent::Counter { t, .. }
        | TraceEvent::FaultInjected { t, .. }
        | TraceEvent::DivergenceDetected { t, .. }
        | TraceEvent::JobRetry { t, .. }
        | TraceEvent::ArrayQuarantine { t, .. }
        | TraceEvent::ArrayRestore { t, .. } => *t,
        TraceEvent::ArrayInterval { end, .. } => *end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_trace::EnergyBreakdown;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            window_cycles: 100,
            ring_windows: 8,
            hist_bucket_cycles: 1,
            hist_buckets: 256,
            tenant_budgets: vec![(0, 10.0)],
            ..MonitorConfig::default()
        }
    }

    fn enqueue(t: u64, job: u32, deadline: u64) -> TraceEvent {
        TraceEvent::JobEnqueue {
            t,
            job,
            tenant: 0,
            class: "deadline",
            kind: "dct",
            deadline,
        }
    }

    fn complete(t: u64, job: u32) -> TraceEvent {
        TraceEvent::JobComplete {
            t,
            job,
            checksum: 1,
            energy: EnergyBreakdown::default(),
        }
    }

    #[test]
    fn windows_seal_on_the_watermark_and_latency_joins_enqueue_to_complete() {
        let mut m = Monitor::new(cfg());
        m.observe(&enqueue(10, 1, 0));
        m.observe(&complete(40, 1));
        assert_eq!(m.windows_sealed(), 0, "window 0 still open");
        m.observe(&enqueue(250, 2, 0));
        assert_eq!(m.windows_sealed(), 2, "watermark 250 seals windows 0-1");
        m.observe(&complete(260, 2));
        m.finalize(300);
        let s = m.final_snapshot();
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.max, 30);
        assert_eq!(s.completes, 2);
        let t = s.tenant(0).expect("tenant 0");
        assert_eq!((t.enqueued, t.served, t.shed, t.violations), (2, 2, 0, 0));
        assert_eq!(m.drops(), (0, 0));
    }

    #[test]
    fn violations_and_sheds_burn_the_budget_and_latch_then_clear() {
        let mut m = Monitor::new(cfg());
        let mut job = 0u32;
        // Four hot windows: every request blows its deadline.
        for w in 0..4u64 {
            for i in 0..10u64 {
                let t = w * 100 + i * 10;
                m.observe(&enqueue(t, job, t + 1));
                m.observe(&complete(t + 5, job));
                job += 1;
            }
        }
        // Then quiet windows: all on time.
        for w in 4..14u64 {
            for i in 0..10u64 {
                let t = w * 100 + i * 10;
                m.observe(&enqueue(t, job, t + 50));
                m.observe(&complete(t + 5, job));
                job += 1;
            }
        }
        m.finalize(1_400);
        let log = m.alert_log();
        assert!(!log.is_empty(), "overload must latch");
        assert!(log.events()[0].latched);
        assert!(
            log.events().last().map(|e| !e.latched).unwrap_or(false),
            "quiet tail must clear: {}",
            log.render()
        );
        assert_eq!(m.active_alerts(1_400), 0);
    }

    #[test]
    fn memory_is_bounded_by_configuration_not_run_length() {
        let mut m = Monitor::new(cfg());
        for j in 0..50_000u32 {
            let t = j as u64 * 7;
            m.observe(&enqueue(t, j, 0));
            m.observe(&complete(t + 3, j));
        }
        let bound = m.config().ring_windows + m.config().alert.slow_windows;
        assert!(
            m.resident_windows() <= bound,
            "{} resident windows exceeds the {bound} bound",
            m.resident_windows()
        );
        assert!(m.inflight_len() <= 1);
        assert_eq!(m.drops(), (0, 0));
    }

    #[test]
    fn replay_of_the_same_events_is_byte_identical() {
        let mut events = Vec::new();
        let mut job = 0u32;
        for w in 0..12u64 {
            for i in 0..6u64 {
                let t = w * 100 + i * 16;
                events.push(enqueue(t, job, t + (i % 2) * 40 + 1));
                events.push(complete(t + 30, job));
                job += 1;
            }
        }
        events.push(TraceEvent::BatteryLevel {
            t: 1_150,
            charge_j: 900.0,
        });
        events.push(TraceEvent::BatteryLevel {
            t: 100,
            charge_j: 1_000.0,
        });
        let mut online = Monitor::new(MonitorConfig {
            keep_timeline: true,
            ..cfg()
        });
        let end = events.iter().map(event_end_cycle).max().expect("events");
        for ev in &events {
            online.observe(ev);
        }
        online.finalize(end);
        let replayed = Monitor::replay(
            MonitorConfig {
                keep_timeline: true,
                ..cfg()
            },
            &events,
        );
        assert_eq!(online.alert_log(), replayed.alert_log());
        assert_eq!(online.timeline(), replayed.timeline());
        assert_eq!(online.final_snapshot(), replayed.final_snapshot());
        let b = online.final_snapshot().battery.expect("battery");
        assert_eq!(b.at_cycle, 1_150);
        assert!(b.burn_j_per_mcycle > 0.0);
        assert!(b.projected_empty_cycle.is_some());
    }

    #[test]
    fn far_future_events_beyond_the_ring_are_counted_not_miscounted() {
        let mut m = Monitor::new(cfg());
        m.observe(&enqueue(10, 1, 0));
        // Completion 8 windows ahead of an 8-slot ring lands on the slot
        // window 0 (still unsealed) occupies.
        m.observe(&complete(810, 1));
        let (late, horizon) = m.drops();
        assert_eq!((late, horizon), (0, 1));
        m.finalize(900);
        assert_eq!(m.final_snapshot().latency.count, 0);
        assert_eq!(m.final_snapshot().completes, 1, "cumulative still counts");
    }
}
