//! The [`HealthSnapshot`] a streaming monitor answers when queried at a
//! virtual instant.
//!
//! The type lives here — below `dsra-monitor` — so `SocRuntime` and the
//! service dispatcher can expose a health query through the
//! [`crate::TraceSink`] trait without depending on the monitor crate.
//! Every field is plain data derived from the event stream; every
//! timestamp and duration is in virtual cycles, so same-seed snapshots
//! compare equal byte for byte.

/// Latency distribution over the monitor's sliding window (virtual
/// cycles, nearest-rank percentiles from the window histograms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completions in the window.
    pub count: u64,
    /// Median enqueue→complete latency.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Cumulative state ratios for one array, from its state intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayHealth {
    /// Array id.
    pub array: u32,
    /// Covered span in cycles, summed over sessions
    /// ([`crate::PhaseBreakdown::span`]).
    pub span_cycles: u64,
    /// Exec cycles as a percentage of the span.
    pub utilization_pct: f64,
    /// Power-gated cycles as a percentage of the span.
    pub gated_pct: f64,
    /// Reconfiguration-stall (reconfig + waking) percentage of the span.
    pub stall_pct: f64,
}

/// Battery trajectory summary from `BatteryLevel` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryHealth {
    /// Most recent charge sample, joules.
    pub charge_j: f64,
    /// Cycle of the most recent sample.
    pub at_cycle: u64,
    /// Observed burn rate in joules per megacycle (0 until two samples
    /// at distinct cycles exist).
    pub burn_j_per_mcycle: f64,
    /// Projected cycle at which the charge reaches zero, extrapolating
    /// the observed burn rate; `None` while the rate is zero.
    pub projected_empty_cycle: Option<u64>,
}

/// Per-tenant service and error-budget state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHealth {
    /// Tenant id.
    pub tenant: u32,
    /// Requests enqueued so far.
    pub enqueued: u64,
    /// Requests completed so far.
    pub served: u64,
    /// Requests shed so far.
    pub shed: u64,
    /// Completions past their deadline so far.
    pub violations: u64,
    /// Error-budget burn rate over the fast window pair.
    pub fast_burn: f64,
    /// Error-budget burn rate over the slow window pair.
    pub slow_burn: f64,
    /// `true` while this tenant's burn-rate alert is latched.
    pub alert: bool,
}

/// Point-in-time health of a serving SoC, assembled by a streaming
/// monitor from the trace-event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Virtual cycle the snapshot answers for.
    pub at_cycle: u64,
    /// Window length the monitor aggregates over, in cycles.
    pub window_cycles: u64,
    /// Windows sealed (finalised) so far.
    pub windows_sealed: u64,
    /// Latency percentiles over the sliding window.
    pub latency: LatencyStats,
    /// Per-array utilization/gating/stall ratios, ascending array id.
    pub arrays: Vec<ArrayHealth>,
    /// Battery burn summary, when any samples arrived.
    pub battery: Option<BatteryHealth>,
    /// Per-tenant budget state, ascending tenant id.
    pub tenants: Vec<TenantHealth>,
    /// Burn-rate alerts currently latched.
    pub alerts_active: u32,
    /// Total completions observed.
    pub completes: u64,
    /// Total sheds observed.
    pub sheds: u64,
}

impl HealthSnapshot {
    /// Health state for one tenant, if the monitor has seen it.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantHealth> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Health state for one array, if the monitor has seen it.
    pub fn array(&self, array: u32) -> Option<&ArrayHealth> {
        self.arrays.iter().find(|a| a.array == array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_find_by_id_and_default_is_empty() {
        let mut s = HealthSnapshot::default();
        assert!(s.tenant(0).is_none());
        assert!(s.array(0).is_none());
        s.tenants.push(TenantHealth {
            tenant: 3,
            enqueued: 10,
            served: 8,
            shed: 2,
            violations: 1,
            fast_burn: 0.5,
            slow_burn: 0.25,
            alert: false,
        });
        s.arrays.push(ArrayHealth {
            array: 1,
            span_cycles: 100,
            utilization_pct: 40.0,
            gated_pct: 10.0,
            stall_pct: 5.0,
        });
        assert_eq!(s.tenant(3).map(|t| t.served), Some(8));
        assert_eq!(s.array(1).map(|a| a.span_cycles), Some(100));
        assert!(s.tenant(4).is_none());
    }
}
