//! The traced run's probes: forwarding decorators on the three seams the
//! program offers. Each passes every call straight through and records a
//! host span around it, so a traced serve computes exactly what an
//! untraced one does (the neutrality test pins that).
//!
//! * [`TimedBackend`] — installed with `SocRuntime::wrap_engines`, times
//!   every payload execution;
//! * [`TimedHook`] — a `DispatchHook` around `NoopDispatch` or
//!   `ChaosHook`, times every dispatch and records what it served for
//!   the output oracle;
//! * [`TimedSink`] — the outermost `TraceSink`, times every event
//!   emission into the observers.

use dsra_core::error::Result;
use dsra_core::report::ExecOutcome;
use dsra_dct::DaParams;
use dsra_runtime::{Backend, SocRuntime, StreamedJob};
use dsra_service::DispatchHook;
use dsra_trace::{EventLog, HealthSnapshot, TraceEvent, TraceSink};
use dsra_video::{JobPayload, JobSpec};

use crate::oracle::Served;
use crate::spans::{EngineCall, Recorder, Span, MAIN_TID};

/// Payload tag of a job (`dct`, `me`, `encode`).
fn payload_tag(payload: &JobPayload) -> &'static str {
    match payload {
        JobPayload::DctBlocks { .. } => "dct",
        JobPayload::MeSearch { .. } => "me",
        JobPayload::EncodeGop { .. } => "encode",
    }
}

/// Span name of a dispatch through `ChaosHook`.
pub const CHAOS_DISPATCH: &str = "chaos.dispatch";
/// Span name of one `stream_serve_job` call.
pub const SERVE_JOB: &str = "runtime.serve_job";

/// Times every execution of the wrapped backend as an `engine` span.
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    rec: Recorder,
    tid: u32,
}

impl TimedBackend {
    /// Wraps `inner`; spans are recorded on thread id `tid`.
    pub fn new(inner: Box<dyn Backend>, rec: Recorder, tid: u32) -> Self {
        TimedBackend { inner, rec, tid }
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome> {
        let start = self.rec.now();
        let out = self.inner.execute(params, job, kernel_name);
        let end = self.rec.now();
        self.rec.push(Span {
            name: "engine",
            start_ns: start,
            end_ns: end,
            tid: self.tid,
            req: Some(job.id),
            engine: Some(EngineCall {
                payload: payload_tag(&job.payload),
                kernel: kernel_name.to_owned(),
                cycles: out.as_ref().map_or(0, |o| o.exec_cycles),
            }),
        });
        out
    }
}

/// Times every dispatch of the wrapped hook and records each served
/// `(spec, kernel, checksum)` for the oracle.
pub struct TimedHook<'a> {
    inner: &'a mut dyn DispatchHook,
    rec: Recorder,
    /// Span name of one dispatch: `runtime.serve_job` around
    /// `NoopDispatch` (which is exactly one `stream_serve_job` call),
    /// `chaos.dispatch` around `ChaosHook`.
    name: &'static str,
    served: Vec<Served>,
}

impl<'a> TimedHook<'a> {
    /// Wraps `inner`, naming its dispatch spans `name`.
    pub fn new(inner: &'a mut dyn DispatchHook, rec: Recorder, name: &'static str) -> Self {
        TimedHook {
            inner,
            rec,
            name,
            served: Vec::new(),
        }
    }

    /// What the dispatches served, in dispatch order.
    pub fn into_served(self) -> Vec<Served> {
        self.served
    }
}

impl DispatchHook for TimedHook<'_> {
    fn on_tick(&mut self, runtime: &mut SocRuntime, now_us: u64) {
        self.inner.on_tick(runtime, now_us);
    }

    fn next_event_us(&mut self, now_us: u64) -> Option<u64> {
        self.inner.next_event_us(now_us)
    }

    fn dispatch(
        &mut self,
        runtime: &mut SocRuntime,
        job: &JobSpec,
        now_us: u64,
    ) -> Result<Option<StreamedJob>> {
        let start = self.rec.now();
        let brackets = self.name == CHAOS_DISPATCH;
        if brackets {
            self.rec.set_attempt_start(Some(start));
        }
        let out = self.inner.dispatch(runtime, job, now_us);
        if brackets {
            self.rec.set_attempt_start(None);
        }
        self.rec
            .push_main(self.name, start, self.rec.now(), Some(job.id));
        if let Ok(Some(s)) = &out {
            self.served.push(Served {
                spec: *job,
                kernel: s.kernel.clone(),
                checksum: s.checksum,
            });
        }
        out
    }
}

/// The outermost trace sink: forwards everything to `inner` and times
/// each emission as an `observe.emit` span.
///
/// Inside a chaos dispatch it also brackets each `stream_serve_job`
/// attempt, which the chaos hook calls where no seam reaches: an attempt
/// starts when the dispatch starts or right after a `JobRetry` emission,
/// and ends with the `BatteryLevel` event the runtime emits last before
/// returning. Those brackets become `runtime.serve_job` spans. The sink
/// only sees events when an observer enabled it, so on an unobserved
/// session it records nothing and the hook's own spans stand.
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    rec: Recorder,
}

impl TimedSink {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TraceSink>, rec: Recorder) -> Self {
        TimedSink { inner, rec }
    }
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&mut self, event: TraceEvent) {
        let closes_attempt = matches!(event, TraceEvent::BatteryLevel { .. });
        let opens_attempt = matches!(event, TraceEvent::JobRetry { .. });
        let start = self.rec.now();
        self.inner.emit(event);
        let end = self.rec.now();
        self.rec.push_main("observe.emit", start, end, None);
        if let Some(attempt) = self.rec.attempt_start() {
            if closes_attempt {
                self.rec.push(Span {
                    name: SERVE_JOB,
                    start_ns: attempt,
                    end_ns: end,
                    tid: MAIN_TID,
                    req: None,
                    engine: None,
                });
            }
            if closes_attempt || opens_attempt {
                self.rec.set_attempt_start(Some(end));
            }
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
