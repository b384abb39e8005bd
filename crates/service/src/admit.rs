//! Admission control and load shedding.
//!
//! The dispatcher holds admitted-but-not-yet-dispatched requests here and
//! asks for the next one whenever an array frees up. Two policies:
//!
//! * [`AdmitPolicy::FifoUnbounded`] — the baseline: every request is
//!   admitted, nothing is ever shed, dispatch order is arrival order.
//!   Under overload the backlog (and tail latency) grows without bound.
//! * [`AdmitPolicy::EdfShed`] — earliest-deadline-first dispatch, and any
//!   queued request whose latency budget is already blown (its deadline
//!   has passed before it could start) is shed instead of executed —
//!   serving it would burn array time and joules on a result nobody can
//!   use, making every job behind it later too.
//! * [`AdmitPolicy::MonitorShed`] — EDF with a health-driven control
//!   hook: while a burn-rate alert is latched in the online monitor
//!   (`dsra-monitor`), [`MonitorAwareAdmission`] sheds lower-class
//!   arrivals *at admission time*, before they ever occupy queue or
//!   array capacity that interactive work needs. Shedding escalates
//!   with the breadth of the burn: one alert sheds best-effort work,
//!   two alerting tenants shed the quality tier too.
//!
//! The queue is a pair of per-array-kind binary heaps keyed by the
//! policy's urgency `(key, id)` — FIFO keys by arrival, EDF by deadline —
//! so push/pop/shed are `O(log n)` and per-kind depth is `O(1)` even when
//! the FIFO baseline's backlog grows to tens of thousands of requests
//! (the overload regime this layer exists to measure).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use dsra_monitor::MonitorHandle;
use dsra_runtime::ArrayKind;
use dsra_video::ServiceClass;

use crate::trace::{pool_for, Request};

/// How the service admits, orders and sheds queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Admit everything, shed nothing, dispatch in arrival order.
    FifoUnbounded,
    /// Dispatch by earliest deadline; shed requests whose budget is
    /// already blown at dispatch time.
    EdfShed,
    /// [`AdmitPolicy::EdfShed`] plus monitor-driven early shedding of
    /// lower-class arrivals while burn-rate alerts are latched (the
    /// shed tier escalates with the number of alerting tenants).
    /// Requires a monitor handle in the service configuration.
    MonitorShed,
}

impl AdmitPolicy {
    /// Display name (E13 prints per-policy comparisons).
    pub fn name(self) -> &'static str {
        match self {
            AdmitPolicy::FifoUnbounded => "fifo",
            AdmitPolicy::EdfShed => "edf-shed",
            AdmitPolicy::MonitorShed => "monitor-shed",
        }
    }

    /// Parses a `--policy` argument (`fifo` / `edf` / `edf-shed` /
    /// `monitor` / `monitor-shed`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fifo" => Some(AdmitPolicy::FifoUnbounded),
            "edf" | "edf-shed" => Some(AdmitPolicy::EdfShed),
            "monitor" | "monitor-shed" => Some(AdmitPolicy::MonitorShed),
            _ => None,
        }
    }
}

/// The health-driven admission wrapper: polls the online monitor's
/// latched-alert count at each arrival and says no to lower-class
/// requests while error budgets are burning too fast. The decision is a
/// pure function of `(monitor state, request class)` at a virtual
/// instant, so same-seed runs shed the same requests.
///
/// Shedding escalates with the breadth of the burn: one latched alert
/// sheds only the best-effort tier (background and battery-saver work);
/// once a second tenant's budget is burning the overload is systemic and
/// the quality tier is shed too, so the array pool serves the strict
/// deadline tier first. Deadline-class work is never early-shed — its
/// protection is the point.
#[derive(Debug, Clone)]
pub struct MonitorAwareAdmission {
    monitor: MonitorHandle,
}

impl MonitorAwareAdmission {
    /// Wraps a monitor handle (clone of the one feeding the sink).
    pub fn new(monitor: MonitorHandle) -> Self {
        MonitorAwareAdmission { monitor }
    }

    /// The latched-alert count at which arrivals of `class` are shed:
    /// best-effort work goes at the first alert, quality-tier work once
    /// the burn is systemic (two tenants alerting), deadline-tier work
    /// never (`None`).
    pub fn shed_tier(class: ServiceClass) -> Option<u32> {
        match class {
            ServiceClass::Background | ServiceClass::LowPower => Some(1),
            ServiceClass::Quality => Some(2),
            ServiceClass::Deadline(_) => None,
        }
    }

    /// Should this arrival be shed before admission? `now_cycle` is the
    /// dispatcher's current virtual instant; querying it seals monitor
    /// windows exactly as the event watermark would.
    pub fn shed_early(&self, request: &Request, now_cycle: u64) -> bool {
        match Self::shed_tier(request.class) {
            Some(tier) => self.monitor.active_alerts(now_cycle) >= tier,
            None => false,
        }
    }
}

fn kind_index(kind: ArrayKind) -> usize {
    match kind {
        ArrayKind::Da => 0,
        ArrayKind::Me => 1,
    }
}

/// The pending-request queue, ordered by the policy's key.
#[derive(Debug)]
pub struct AdmissionQueue {
    policy: AdmitPolicy,
    /// Min-heaps of `(urgency key, id)`, one per array kind. The id makes
    /// every key unique, so ordering (and with it every dispatch
    /// decision) is fully deterministic.
    heaps: [BinaryHeap<Reverse<(u64, u32)>>; 2],
    /// The requests behind the heap entries.
    requests: HashMap<u32, Request>,
}

impl AdmissionQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: AdmitPolicy) -> Self {
        AdmissionQueue {
            policy,
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            requests: HashMap::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> AdmitPolicy {
        self.policy
    }

    /// The policy's urgency key: dispatch order is ascending in this.
    fn key(&self, r: &Request) -> u64 {
        match self.policy {
            AdmitPolicy::FifoUnbounded => r.arrival_us,
            AdmitPolicy::EdfShed | AdmitPolicy::MonitorShed => r.deadline_us,
        }
    }

    /// Requests waiting to be dispatched.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Waiting requests that need an array of `kind`.
    pub fn depth(&self, kind: ArrayKind) -> usize {
        self.heaps[kind_index(kind)].len()
    }

    /// Admits one request (open loop: admission itself never says no —
    /// saying no happens at dispatch time, where the EDF policy sheds).
    pub fn push(&mut self, request: Request) {
        let key = self.key(&request);
        self.heaps[kind_index(pool_for(&request.payload))].push(Reverse((key, request.id)));
        self.requests.insert(request.id, request);
    }

    /// Removes and returns every queued request whose deadline has passed
    /// at `now_us` — the EDF shedding step (under EDF the heap key *is*
    /// the deadline, so blown budgets sit at the front). FIFO never
    /// sheds.
    pub fn shed_blown(&mut self, now_us: u64) -> Vec<Request> {
        if self.policy == AdmitPolicy::FifoUnbounded {
            return Vec::new();
        }
        let mut shed = Vec::new();
        for heap in &mut self.heaps {
            while let Some(&Reverse((deadline, id))) = heap.peek() {
                if deadline > now_us {
                    break;
                }
                heap.pop();
                shed.push(self.requests.remove(&id).expect("heap and map in sync"));
            }
        }
        shed
    }

    /// Pops the policy-most-urgent request among those an available array
    /// kind can serve (`available(kind)` says whether some array of that
    /// kind is free right now). Ties break towards the lower request id,
    /// so dispatch order is deterministic.
    pub fn pop_available(&mut self, available: impl Fn(ArrayKind) -> bool) -> Option<Request> {
        let mut best: Option<(u64, u32, usize)> = None;
        for kind in [ArrayKind::Da, ArrayKind::Me] {
            if !available(kind) {
                continue;
            }
            let i = kind_index(kind);
            if let Some(&Reverse((key, id))) = self.heaps[i].peek() {
                if best.is_none_or(|(bk, bid, _)| (key, id) < (bk, bid)) {
                    best = Some((key, id, i));
                }
            }
        }
        let (_, id, i) = best?;
        self.heaps[i].pop();
        Some(self.requests.remove(&id).expect("heap and map in sync"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_video::{JobPayload, ServiceClass};

    fn req(id: u32, arrival: u64, deadline: u64, me: bool) -> Request {
        Request {
            id,
            tenant: 0,
            arrival_us: arrival,
            deadline_us: deadline,
            class: ServiceClass::Quality,
            payload: if me {
                JobPayload::MeSearch {
                    size: (48, 48),
                    shift: (1, 0),
                    block: 8,
                    range: 2,
                }
            } else {
                JobPayload::DctBlocks {
                    blocks: 1,
                    amplitude: 100,
                }
            },
            seed: u64::from(id),
        }
    }

    #[test]
    fn fifo_dispatches_in_arrival_order_and_never_sheds() {
        let mut q = AdmissionQueue::new(AdmitPolicy::FifoUnbounded);
        q.push(req(1, 20, 25, false));
        q.push(req(0, 10, 1_000, false));
        assert!(q.shed_blown(500).is_empty(), "FIFO never sheds");
        assert_eq!(q.pop_available(|_| true).unwrap().id, 0);
        assert_eq!(q.pop_available(|_| true).unwrap().id, 1);
        assert!(q.pop_available(|_| true).is_none());
    }

    #[test]
    fn edf_dispatches_most_urgent_first_and_sheds_blown_budgets() {
        let mut q = AdmissionQueue::new(AdmitPolicy::EdfShed);
        q.push(req(0, 0, 5_000, false)); // early arrival, lazy deadline
        q.push(req(1, 40, 100, false)); // late arrival, urgent deadline
        q.push(req(2, 10, 50, false)); // already blown at t=60
        let shed = q.shed_blown(60);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 2);
        // Most urgent surviving deadline first, not earliest arrival.
        assert_eq!(q.pop_available(|_| true).unwrap().id, 1);
        assert_eq!(q.pop_available(|_| true).unwrap().id, 0);
    }

    #[test]
    fn pop_respects_array_kind_availability() {
        let mut q = AdmissionQueue::new(AdmitPolicy::EdfShed);
        q.push(req(0, 0, 100, true)); // ME, most urgent
        q.push(req(1, 0, 200, false)); // DA
        assert_eq!(q.depth(ArrayKind::Me), 1);
        assert_eq!(q.depth(ArrayKind::Da), 1);
        // Only the DA pool is free: the DA request dispatches even though
        // the ME one is more urgent.
        let popped = q.pop_available(|k| k == ArrayKind::Da).unwrap();
        assert_eq!(popped.id, 1);
        // Nothing dispatchable while the ME pool stays busy.
        assert!(q.pop_available(|k| k == ArrayKind::Da).is_none());
        assert_eq!(q.pop_available(|k| k == ArrayKind::Me).unwrap().id, 0);
    }

    #[test]
    fn monitor_shed_orders_like_edf_and_parses_its_names() {
        assert_eq!(AdmitPolicy::MonitorShed.name(), "monitor-shed");
        assert_eq!(
            AdmitPolicy::from_name("monitor"),
            Some(AdmitPolicy::MonitorShed)
        );
        assert_eq!(
            AdmitPolicy::from_name("monitor-shed"),
            Some(AdmitPolicy::MonitorShed)
        );
        let mut q = AdmissionQueue::new(AdmitPolicy::MonitorShed);
        q.push(req(0, 0, 5_000, false));
        q.push(req(1, 40, 100, false));
        q.push(req(2, 10, 50, false));
        let shed = q.shed_blown(60);
        assert_eq!(shed.len(), 1, "blown budgets still shed like EDF");
        assert_eq!(q.pop_available(|_| true).unwrap().id, 1, "EDF order");
    }

    #[test]
    fn monitor_aware_admission_sheds_low_classes_only_while_alerted() {
        use dsra_monitor::{BurnRateConfig, Monitor, MonitorConfig, MonitorHandle};
        use dsra_trace::TraceEvent;

        let cfg = MonitorConfig {
            window_cycles: 100,
            tenant_budgets: vec![(0, 5.0), (1, 5.0)],
            alert: BurnRateConfig {
                fast_windows: 1,
                slow_windows: 1,
                fire_burn: 1.0,
                clear_burn: 0.5,
                hold_windows: 0,
            },
            ..MonitorConfig::default()
        };
        let handle = MonitorHandle::new(Monitor::new(cfg));
        let gate = MonitorAwareAdmission::new(handle.clone());
        let mut background = req(0, 0, 1_000, false);
        background.class = ServiceClass::Background;
        let quality = req(1, 0, 1_000, false); // req() defaults to Quality
        let mut interactive = req(2, 0, 1_000, false);
        interactive.class = ServiceClass::Deadline(16);
        assert!(!gate.shed_early(&background, 50), "no alert yet");
        // One all-shed window latches the tenant-0 alert.
        handle.observe(&TraceEvent::JobShed {
            t: 10,
            job: 9,
            tenant: 0,
            queued: 10,
        });
        assert!(gate.shed_early(&background, 150), "alert latched");
        assert!(
            !gate.shed_early(&quality, 150),
            "one alert sheds only the best-effort tier"
        );
        // Both tenants burning in the same window escalates to the
        // quality tier (systemic overload).
        for (t, tenant) in [(160, 0), (170, 1)] {
            handle.observe(&TraceEvent::JobShed {
                t,
                job: 10 + tenant,
                tenant,
                queued: 10,
            });
        }
        assert!(
            gate.shed_early(&quality, 200),
            "systemic burn sheds the quality tier too"
        );
        assert!(
            !gate.shed_early(&interactive, 200),
            "interactive work is never early-shed"
        );
    }

    #[test]
    fn depth_counters_track_push_pop_and_shed() {
        let mut q = AdmissionQueue::new(AdmitPolicy::EdfShed);
        for id in 0..6 {
            q.push(req(id, 0, 10 + u64::from(id), id % 2 == 0));
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.depth(ArrayKind::Me), 3);
        assert_eq!(q.depth(ArrayKind::Da), 3);
        let shed = q.shed_blown(12); // deadlines 10, 11, 12 blow
        assert_eq!(shed.len(), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.depth(ArrayKind::Me) + q.depth(ArrayKind::Da), 3);
        q.pop_available(|_| true).unwrap();
        assert_eq!(q.len(), 2);
    }
}
