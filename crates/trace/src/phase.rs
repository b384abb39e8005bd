//! [`PhaseBreakdown`]: how an [`ArrayInterval`](crate::TraceEvent::ArrayInterval)
//! charges an array, for the monitor, the profiler and `trace_report` alike.

use crate::event::ArrayPhase;

/// Virtual cycles one array spent in each [`ArrayPhase`], plus the span
/// of virtual time those intervals cover.
///
/// * **Charge rule.** An interval `[start, end)` adds `end - start`
///   cycles to its phase with a saturating add; a zero-length interval
///   charges nothing and leaves the span alone (the Chrome exporter
///   drops it, so online and post-hoc folds must too).
/// * **Sessions.** Every serve starts its timeline at cycle 0, so an
///   interval that starts before the previous one ended opens a new
///   session. The covered span is the sum of the per-session spans, each
///   running from cycle 0 to the session's last interval end. A log that
///   holds several serves therefore never reports more than 100 % of its
///   span in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Powered but idle.
    pub idle: u64,
    /// Power-gated.
    pub gated: u64,
    /// Partial (diff) reconfiguration.
    pub reconfig: u64,
    /// Full rewrite after a forced wake.
    pub waking: u64,
    /// Executing a job (the "busy" cycles attribution must cover).
    pub exec: u64,
    /// Summed spans of the sessions before the current one.
    closed_span: u64,
    /// Largest interval end in the current session.
    session_end: u64,
}

impl PhaseBreakdown {
    /// Charges the interval `[start, end)` spent in `phase` (see the type
    /// docs for the charge and session rules).
    pub fn charge(&mut self, phase: ArrayPhase, start: u64, end: u64) {
        if end <= start {
            return;
        }
        if start < self.session_end {
            self.closed_span = self.closed_span.saturating_add(self.session_end);
            self.session_end = 0;
        }
        self.session_end = self.session_end.max(end);
        let total = match phase {
            ArrayPhase::Idle => &mut self.idle,
            ArrayPhase::Gated => &mut self.gated,
            ArrayPhase::Reconfig => &mut self.reconfig,
            ArrayPhase::Waking => &mut self.waking,
            ArrayPhase::Exec => &mut self.exec,
        };
        *total = total.saturating_add(end - start);
    }

    /// Cycles covered by the charged intervals, summed over sessions.
    pub fn span(&self) -> u64 {
        self.closed_span.saturating_add(self.session_end)
    }

    /// Exec cycles as a percentage of the span (0 over an empty span).
    pub fn utilization_pct(&self) -> f64 {
        self.pct(self.exec)
    }

    /// Gated cycles as a percentage of the span.
    pub fn gated_pct(&self) -> f64 {
        self.pct(self.gated)
    }

    /// Reconfiguration stall (diff reconfig plus wake rewrites) as a
    /// percentage of the span.
    pub fn stall_pct(&self) -> f64 {
        self.pct(self.reconfig.saturating_add(self.waking))
    }

    fn pct(&self, cycles: u64) -> f64 {
        match self.span() {
            0 => 0.0,
            span => cycles as f64 * 100.0 / span as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_intervals_span_from_cycle_zero() {
        let mut p = PhaseBreakdown::default();
        p.charge(ArrayPhase::Idle, 0, 100);
        p.charge(ArrayPhase::Reconfig, 100, 400);
        p.charge(ArrayPhase::Exec, 400, 1_000);
        // A gap (chaos quarantines leave them) is not a restart.
        p.charge(ArrayPhase::Gated, 1_500, 2_000);
        assert_eq!((p.idle, p.reconfig, p.exec, p.gated), (100, 300, 600, 500));
        assert_eq!(p.span(), 2_000);
        assert!((p.utilization_pct() - 30.0).abs() < 1e-12);
        assert!((p.gated_pct() - 25.0).abs() < 1e-12);
        assert!((p.stall_pct() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn a_restarted_timeline_opens_a_new_session() {
        let mut p = PhaseBreakdown::default();
        p.charge(ArrayPhase::Exec, 0, 800);
        p.charge(ArrayPhase::Gated, 800, 1_000);
        // Second serve: back to cycle 0.
        p.charge(ArrayPhase::Exec, 0, 900);
        p.charge(ArrayPhase::Idle, 900, 1_000);
        assert_eq!(p.span(), 2_000);
        assert!(p.utilization_pct() + p.gated_pct() <= 100.0);
        assert!((p.utilization_pct() - 85.0).abs() < 1e-12);
    }

    #[test]
    fn empty_intervals_charge_nothing_and_sums_saturate() {
        let mut p = PhaseBreakdown::default();
        p.charge(ArrayPhase::Exec, 50, 50);
        p.charge(ArrayPhase::Exec, 60, 10);
        assert_eq!(p, PhaseBreakdown::default());
        assert_eq!(p.utilization_pct(), 0.0);
        let half = 1u64 << 63;
        p.charge(ArrayPhase::Exec, 0, half);
        p.charge(ArrayPhase::Exec, 0, half);
        p.charge(ArrayPhase::Idle, 0, u64::MAX);
        assert_eq!(p.exec, u64::MAX);
        assert_eq!(p.idle, u64::MAX);
        assert_eq!(p.span(), u64::MAX);
        assert!((p.utilization_pct() - 100.0).abs() < 1e-9);
    }
}
