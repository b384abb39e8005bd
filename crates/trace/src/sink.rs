//! The sink trait and its two implementations: the zero-cost [`NoopSink`]
//! (the default everywhere) and the recording [`EventLog`].

use crate::event::{ArrayPhase, EnergyBreakdown, TraceEvent};
use crate::health::HealthSnapshot;
use std::collections::BTreeMap;

/// Receives trace events. Producers must guard event *construction* behind
/// [`TraceSink::enabled`] so the disabled path allocates nothing:
///
/// ```
/// # use dsra_trace::{NoopSink, TraceEvent, TraceSink};
/// # let mut sink = NoopSink;
/// # let name = "dct8";
/// if sink.enabled() {
///     sink.emit(TraceEvent::Meta { key: "kernel", value: name.to_string() });
/// }
/// ```
pub trait TraceSink: Send {
    /// `false` for the no-op sink; producers skip event construction
    /// entirely when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event. The default discards it.
    fn emit(&mut self, event: TraceEvent) {
        let _ = event;
    }

    /// Recovers the recorded [`EventLog`] from a boxed sink, if this sink
    /// is one (avoids downcasting through `Any`).
    fn into_log(self: Box<Self>) -> Option<EventLog> {
        None
    }

    /// Answers a [`HealthSnapshot`] for the virtual instant `now_cycle`,
    /// if this sink is a streaming monitor. Plain recorders return `None`.
    fn health_snapshot(&mut self, now_cycle: u64) -> Option<HealthSnapshot> {
        let _ = now_cycle;
        None
    }

    /// Burn-rate alerts latched at `now_cycle`; 0 for non-monitoring
    /// sinks. Control hooks (`MonitorAwareAdmission`) poll this.
    fn active_alerts(&mut self, now_cycle: u64) -> u32 {
        let _ = now_cycle;
        0
    }
}

/// The default sink: tracing off, zero cost, no allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// Everything the trace recorded about one job instance, joined from its
/// lifecycle events. Batch ids restart per serve, so a repeated
/// `JobEnqueue` for the same id opens a fresh span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpan {
    /// Job id.
    pub job: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Service-class tag.
    pub class: Option<&'static str>,
    /// Payload kind tag.
    pub kind: Option<&'static str>,
    /// Absolute deadline cycle (0 = none).
    pub deadline: u64,
    /// Arrival cycle.
    pub enqueue: Option<u64>,
    /// Admission cycle.
    pub admit: Option<u64>,
    /// `(shed cycle, queue residency)` when the job was shed.
    pub shed: Option<(u64, u64)>,
    /// Schedule cycle (= reconfig start).
    pub schedule: Option<u64>,
    /// Array the job ran on.
    pub array: Option<u32>,
    /// Kernel name.
    pub kernel: Option<String>,
    /// Kernel fingerprint (32 hex digits).
    pub fingerprint: Option<String>,
    /// Reconfiguration interval `[start, end)`.
    pub reconfig: Option<(u64, u64)>,
    /// Execution interval `[start, end)`.
    pub exec: Option<(u64, u64)>,
    /// Completion cycle.
    pub complete: Option<u64>,
    /// Output checksum.
    pub checksum: Option<u64>,
    /// Per-job energy attribution.
    pub energy: Option<EnergyBreakdown>,
    /// `true` when this job's reconfiguration woke a gated array.
    pub woke: bool,
}

impl JobSpan {
    /// A served job with its whole lifecycle recorded: enqueue through
    /// schedule, reconfig, exec, and completion.
    pub fn is_full_lifecycle(&self) -> bool {
        self.enqueue.is_some()
            && self.schedule.is_some()
            && self.exec.is_some()
            && self.complete.is_some()
    }
}

/// A recording sink: an append-only, in-order list of [`TraceEvent`]s with
/// joined-view helpers for analysis and export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The raw events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// First recorded value for a metadata key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Meta { key: k, value } if *k == key => Some(value.as_str()),
            _ => None,
        })
    }

    /// Per-array state intervals `(start, end, phase)` in emission order.
    pub fn array_intervals(&self) -> BTreeMap<u32, Vec<(u64, u64, ArrayPhase)>> {
        let mut by_array: BTreeMap<u32, Vec<(u64, u64, ArrayPhase)>> = BTreeMap::new();
        for ev in &self.events {
            if let TraceEvent::ArrayInterval {
                array,
                phase,
                start,
                end,
                ..
            } = ev
            {
                by_array
                    .entry(*array)
                    .or_default()
                    .push((*start, *end, *phase));
            }
        }
        by_array
    }
}

/// Joins lifecycle events into per-job-instance spans, in stream order
/// of their opening event. A repeated `JobEnqueue` for an id
/// (multi-serve logs) opens a new instance; non-enqueue events attach
/// to the id's most recent instance.
pub fn job_spans(events: &[TraceEvent]) -> Vec<JobSpan> {
    let mut spans: Vec<JobSpan> = Vec::new();
    let mut open: BTreeMap<u32, usize> = BTreeMap::new();
    let span_of = |spans: &mut Vec<JobSpan>, open: &mut BTreeMap<u32, usize>, job: u32| {
        let idx = *open.entry(job).or_insert_with(|| {
            spans.push(JobSpan {
                job,
                ..JobSpan::default()
            });
            spans.len() - 1
        });
        idx
    };
    for ev in events {
        match ev {
            TraceEvent::JobEnqueue {
                t,
                job,
                tenant,
                class,
                kind,
                deadline,
            } => {
                // Always a fresh instance: ids restart per serve.
                open.remove(job);
                let idx = span_of(&mut spans, &mut open, *job);
                let s = &mut spans[idx];
                s.tenant = *tenant;
                s.class = Some(class);
                s.kind = Some(kind);
                s.deadline = *deadline;
                s.enqueue = Some(*t);
            }
            TraceEvent::JobAdmit { t, job } => {
                let idx = span_of(&mut spans, &mut open, *job);
                spans[idx].admit = Some(*t);
            }
            TraceEvent::JobShed {
                t,
                job,
                tenant,
                queued,
            } => {
                let idx = span_of(&mut spans, &mut open, *job);
                let s = &mut spans[idx];
                s.tenant = *tenant;
                s.shed = Some((*t, *queued));
            }
            TraceEvent::JobSchedule {
                t,
                job,
                array,
                kernel,
                fingerprint,
            } => {
                let idx = span_of(&mut spans, &mut open, *job);
                let s = &mut spans[idx];
                s.schedule = Some(*t);
                s.array = Some(*array);
                s.kernel = Some(kernel.clone());
                s.fingerprint = Some(fingerprint.clone());
            }
            TraceEvent::JobComplete {
                t,
                job,
                checksum,
                energy,
            } => {
                let idx = span_of(&mut spans, &mut open, *job);
                let s = &mut spans[idx];
                s.complete = Some(*t);
                s.checksum = Some(*checksum);
                s.energy = Some(*energy);
            }
            TraceEvent::ArrayInterval {
                phase,
                start,
                end,
                job: Some(job),
                ..
            } => {
                let idx = span_of(&mut spans, &mut open, *job);
                let s = &mut spans[idx];
                match phase {
                    ArrayPhase::Reconfig => s.reconfig = Some((*start, *end)),
                    ArrayPhase::Waking => {
                        s.reconfig = Some((*start, *end));
                        s.woke = true;
                    }
                    ArrayPhase::Exec => s.exec = Some((*start, *end)),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    spans
}

impl TraceSink for EventLog {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn into_log(self: Box<Self>) -> Option<EventLog> {
        Some(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_reports_disabled_and_discards() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.emit(TraceEvent::JobAdmit { t: 1, job: 0 });
        assert!(Box::new(sink).into_log().is_none());
    }

    #[test]
    fn event_log_records_in_order_and_round_trips_through_the_box() {
        let mut log = EventLog::new();
        assert!(log.enabled());
        log.emit(TraceEvent::JobAdmit { t: 5, job: 2 });
        log.emit(TraceEvent::Meta {
            key: "mode",
            value: "batch".into(),
        });
        let back = Box::new(log.clone()).into_log().expect("event log");
        assert_eq!(back, log);
        assert_eq!(back.len(), 2);
        assert_eq!(back.meta("mode"), Some("batch"));
        assert_eq!(back.meta("backend"), None);
    }

    #[test]
    fn spans_join_the_lifecycle_and_reopen_on_repeated_ids() {
        let mut log = EventLog::new();
        for serve in 0..2u64 {
            let base = serve * 100;
            log.emit(TraceEvent::JobEnqueue {
                t: base,
                job: 0,
                tenant: 1,
                class: "quality",
                kind: "dct",
                deadline: 0,
            });
            log.emit(TraceEvent::JobSchedule {
                t: base + 10,
                job: 0,
                array: 3,
                kernel: "dct8".into(),
                fingerprint: "f".repeat(32),
            });
            log.emit(TraceEvent::ArrayInterval {
                array: 3,
                phase: ArrayPhase::Reconfig,
                start: base + 10,
                end: base + 14,
                job: Some(0),
                kernel: Some("dct8".into()),
            });
            log.emit(TraceEvent::ArrayInterval {
                array: 3,
                phase: ArrayPhase::Exec,
                start: base + 14,
                end: base + 20,
                job: Some(0),
                kernel: Some("dct8".into()),
            });
            log.emit(TraceEvent::JobComplete {
                t: base + 20,
                job: 0,
                checksum: 9,
                energy: EnergyBreakdown::default(),
            });
        }
        let spans = job_spans(log.events());
        assert_eq!(spans.len(), 2, "repeated id opens a second instance");
        for (i, s) in spans.iter().enumerate() {
            let base = i as u64 * 100;
            assert!(s.is_full_lifecycle());
            assert_eq!(s.enqueue, Some(base));
            assert_eq!(s.schedule, Some(base + 10));
            assert_eq!(s.reconfig, Some((base + 10, base + 14)));
            assert_eq!(s.exec, Some((base + 14, base + 20)));
            assert_eq!(s.complete, Some(base + 20));
            assert!(!s.woke);
        }
    }

    #[test]
    fn shed_spans_and_waking_reconfigs_are_tagged() {
        let mut log = EventLog::new();
        log.emit(TraceEvent::JobEnqueue {
            t: 0,
            job: 4,
            tenant: 2,
            class: "deadline",
            kind: "me",
            deadline: 500,
        });
        log.emit(TraceEvent::JobShed {
            t: 120,
            job: 4,
            tenant: 2,
            queued: 120,
        });
        log.emit(TraceEvent::JobEnqueue {
            t: 10,
            job: 5,
            tenant: 2,
            class: "quality",
            kind: "dct",
            deadline: 0,
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Waking,
            start: 10,
            end: 40,
            job: Some(5),
            kernel: Some("dct8".into()),
        });
        let spans = job_spans(log.events());
        assert_eq!(spans[0].shed, Some((120, 120)));
        assert_eq!(spans[0].deadline, 500);
        assert!(!spans[0].is_full_lifecycle());
        assert!(spans[1].woke);
        assert_eq!(spans[1].reconfig, Some((10, 40)));
    }

    #[test]
    fn array_intervals_group_by_array_in_order() {
        let mut log = EventLog::new();
        log.emit(TraceEvent::ArrayInterval {
            array: 1,
            phase: ArrayPhase::Idle,
            start: 0,
            end: 5,
            job: None,
            kernel: None,
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Exec,
            start: 0,
            end: 9,
            job: Some(1),
            kernel: None,
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 1,
            phase: ArrayPhase::Exec,
            start: 5,
            end: 12,
            job: Some(2),
            kernel: None,
        });
        let by = log.array_intervals();
        assert_eq!(by[&0], vec![(0, 9, ArrayPhase::Exec)]);
        assert_eq!(
            by[&1],
            vec![(0, 5, ArrayPhase::Idle), (5, 12, ArrayPhase::Exec)]
        );
    }
}
