//! Monitor configuration: window geometry, histogram shape, per-tenant
//! error budgets, and the burn-rate alerter thresholds.

/// Multi-window burn-rate alerter parameters (the SRE fast/slow window
/// pair with hysteresis).
///
/// An alert **latches** for a tenant when both the fast-window and the
/// slow-window burn rate reach [`fire_burn`](BurnRateConfig::fire_burn),
/// and **clears** when both fall to
/// [`clear_burn`](BurnRateConfig::clear_burn) or below. After any
/// transition the state is held for
/// [`hold_windows`](BurnRateConfig::hold_windows) sealed windows, so the
/// alerter cannot flap faster than the hold interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRateConfig {
    /// Sealed windows in the fast (reactive) burn-rate view.
    pub fast_windows: usize,
    /// Sealed windows in the slow (confirming) burn-rate view; also the
    /// sliding-window depth for latency percentiles.
    pub slow_windows: usize,
    /// Burn rate at or above which an alert latches (1.0 = consuming the
    /// budget exactly as provisioned).
    pub fire_burn: f64,
    /// Burn rate at or below which a latched alert clears.
    pub clear_burn: f64,
    /// Sealed windows a transition is held before the next transition
    /// may happen.
    pub hold_windows: u32,
}

impl Default for BurnRateConfig {
    fn default() -> Self {
        BurnRateConfig {
            fast_windows: 2,
            slow_windows: 6,
            fire_burn: 1.5,
            clear_burn: 0.75,
            hold_windows: 2,
        }
    }
}

/// Error budget (percent of decided requests allowed to go bad) of a
/// tenant not listed in [`MonitorConfig::tenant_budgets`].
const DEFAULT_BUDGET_PCT: f64 = 5.0;

/// Full monitor configuration. All geometry is in virtual cycles; the
/// monitor never reads a wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Window length in cycles. Windows are `[w·W, (w+1)·W)` for the
    /// absolute index `w`; a window seals once virtual time passes its
    /// end.
    pub window_cycles: u64,
    /// Ring capacity for not-yet-sealed windows (the future horizon).
    /// Memory is bounded by this plus the alerter's window depth,
    /// independent of run length.
    pub ring_windows: usize,
    /// Bucket width of the per-window latency histograms, cycles.
    pub hist_bucket_cycles: u64,
    /// Bucket count of the per-window latency histograms.
    pub hist_buckets: usize,
    /// Burn-rate alerter parameters.
    pub alert: BurnRateConfig,
    /// Per-tenant error budgets `(tenant, budget_pct)`. Listed tenants
    /// are registered up front so their alert windows span the whole run;
    /// any other tenant gets a 5 % budget.
    pub tenant_budgets: Vec<(u32, f64)>,
    /// Extra cycles the watermark must pass a window's end before it
    /// seals. Producers whose "now" stamps are coarser than event
    /// stamps (the dispatcher's µs clock rounds cycles *up*) can emit a
    /// completion up to one clock quantum behind the watermark; a grace
    /// of `quantum − 1` guarantees such events still find their window
    /// resident, so [`Monitor::drops`](crate::Monitor::drops) stays
    /// zero and time-ordered replay equals the online view exactly.
    pub seal_grace_cycles: u64,
    /// Record a [`crate::BudgetPoint`] per tenant per sealed window.
    /// Off by default: the timeline grows with run length, which the
    /// serving path must not.
    pub keep_timeline: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_cycles: 25_000,
            ring_windows: 64,
            hist_bucket_cycles: 2_500,
            hist_buckets: 2_048,
            alert: BurnRateConfig::default(),
            tenant_budgets: Vec::new(),
            seal_grace_cycles: 0,
            keep_timeline: false,
        }
    }
}

impl MonitorConfig {
    /// The error budget for one tenant, as a fraction in `(0, 1]`.
    pub fn budget_fraction(&self, tenant: u32) -> f64 {
        let pct = self
            .tenant_budgets
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(DEFAULT_BUDGET_PCT, |(_, b)| *b);
        (pct / 100.0).clamp(1e-9, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_fall_back_to_the_default_and_clamp() {
        let cfg = MonitorConfig {
            tenant_budgets: vec![(0, 2.0), (1, 0.0)],
            ..MonitorConfig::default()
        };
        assert!((cfg.budget_fraction(0) - 0.02).abs() < 1e-12);
        assert!(cfg.budget_fraction(1) > 0.0, "zero budget clamps up");
        assert!((cfg.budget_fraction(9) - 0.05).abs() < 1e-12, "default");
    }
}
