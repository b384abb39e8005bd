//! [`MonitorHandle`] — shared ownership of a [`Monitor`] — and
//! [`MonitorSink`], the [`TraceSink`] tee that feeds it online.
//!
//! The sink is installed on `SocRuntime` in place of the plain sink and
//! forwards every event to both the monitor and the wrapped inner sink,
//! so `--monitor` and `--trace` compose. The caller keeps a handle clone
//! to query health mid-run (the `MonitorAwareAdmission` control hook)
//! and to extract the [`AlertLog`](crate::AlertLog) afterwards.

use crate::monitor::Monitor;
use dsra_trace::{EventLog, HealthSnapshot, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cloneable shared handle to a [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorHandle(Arc<Mutex<Monitor>>);

impl PartialEq for MonitorHandle {
    /// Handles compare by identity: two handles are equal when they
    /// share the same monitor.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for MonitorHandle {}

impl MonitorHandle {
    /// Wraps a monitor for sharing.
    pub fn new(monitor: Monitor) -> Self {
        MonitorHandle(Arc::new(Mutex::new(monitor)))
    }

    fn lock(&self) -> MutexGuard<'_, Monitor> {
        self.0.lock().expect("monitor lock poisoned")
    }

    /// Runs a closure against the monitor (for tests and renderers that
    /// need more than the query surface).
    pub fn with<R>(&self, f: impl FnOnce(&mut Monitor) -> R) -> R {
        f(&mut self.lock())
    }

    /// Feeds one event.
    pub fn observe(&self, ev: &TraceEvent) {
        self.lock().observe(ev);
    }

    /// Health at `now_cycle`.
    pub fn health(&self, now_cycle: u64) -> HealthSnapshot {
        self.lock().health(now_cycle)
    }

    /// Latched alerts at `now_cycle`.
    pub fn active_alerts(&self, now_cycle: u64) -> u32 {
        self.lock().active_alerts(now_cycle)
    }

    /// Closes the stream at `end_cycle`, sealing all resident windows.
    pub fn finalize(&self, end_cycle: u64) {
        self.lock().finalize(end_cycle);
    }

    /// A clone of the alert log.
    pub fn alert_log(&self) -> crate::AlertLog {
        self.lock().alert_log().clone()
    }

    /// Health at the finalize cycle (or the current watermark).
    pub fn final_snapshot(&self) -> HealthSnapshot {
        self.lock().final_snapshot()
    }
}

/// A [`TraceSink`] that tees every event into the shared monitor and
/// forwards it to the wrapped inner sink ([`dsra_trace::NoopSink`] when
/// recording is off, an [`EventLog`] when `--trace` is also on).
pub struct MonitorSink {
    handle: MonitorHandle,
    inner: Box<dyn TraceSink>,
}

impl std::fmt::Debug for MonitorSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorSink")
            .field("handle", &self.handle)
            .finish_non_exhaustive()
    }
}

impl MonitorSink {
    /// Tees into `handle`, forwarding to `inner`.
    pub fn new(handle: MonitorHandle, inner: Box<dyn TraceSink>) -> Self {
        MonitorSink { handle, inner }
    }
}

impl TraceSink for MonitorSink {
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
        Some(self.handle.health(now_cycle))
    }

    fn active_alerts(&mut self, now_cycle: u64) -> u32 {
        self.handle.active_alerts(now_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonitorConfig;
    use dsra_trace::NoopSink;

    #[test]
    fn sink_tees_into_the_monitor_and_forwards_to_the_inner_log() {
        let handle = MonitorHandle::new(Monitor::new(MonitorConfig::default()));
        let mut sink = MonitorSink::new(handle.clone(), Box::new(EventLog::new()));
        assert!(sink.enabled());
        sink.emit(TraceEvent::JobEnqueue {
            t: 5,
            job: 1,
            tenant: 0,
            class: "quality",
            kind: "dct",
            deadline: 0,
        });
        assert_eq!(sink.active_alerts(10), 0);
        let snap = sink.health_snapshot(10).expect("monitor answers health");
        assert_eq!(snap.tenant(0).map(|t| t.enqueued), Some(1));
        let log = Box::new(sink).into_log().expect("inner event log");
        assert_eq!(log.len(), 1);
        assert_eq!(handle.health(10).tenant(0).map(|t| t.enqueued), Some(1));
    }

    #[test]
    fn noop_inner_keeps_monitoring_but_records_nothing() {
        let handle = MonitorHandle::new(Monitor::new(MonitorConfig::default()));
        let mut sink = MonitorSink::new(handle.clone(), Box::new(NoopSink));
        sink.emit(TraceEvent::JobAdmit { t: 50_000, job: 0 });
        assert!(Box::new(sink).into_log().is_none());
        assert_eq!(handle.with(|m| m.windows_sealed()), 2);
    }

    #[test]
    fn handles_compare_by_identity() {
        let a = MonitorHandle::new(Monitor::new(MonitorConfig::default()));
        let b = MonitorHandle::new(Monitor::new(MonitorConfig::default()));
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
