//! Deterministic dashboard-style text rendering of a health snapshot
//! plus the alert log — what `stream_serve --monitor` prints.

use crate::alert::{AlertLog, BudgetPoint};
use dsra_trace::HealthSnapshot;

/// Renders a snapshot and alert log as a fixed-layout text dashboard.
/// Same-seed runs produce byte-identical output.
pub fn render_dashboard(snapshot: &HealthSnapshot, log: &AlertLog) -> String {
    let mut out = String::new();
    out.push_str("== monitor dashboard ==\n");
    out.push_str(&format!(
        "at={} window={} sealed={} alerts_active={} completes={} sheds={}\n",
        snapshot.at_cycle,
        snapshot.window_cycles,
        snapshot.windows_sealed,
        snapshot.alerts_active,
        snapshot.completes,
        snapshot.sheds
    ));
    let l = &snapshot.latency;
    out.push_str(&format!(
        "latency(cyc): n={} p50={} p90={} p99={} max={}\n",
        l.count, l.p50, l.p90, l.p99, l.max
    ));
    for a in &snapshot.arrays {
        out.push_str(&format!(
            "array {}: util={:.2}% gated={:.2}% stall={:.2}% span={}\n",
            a.array, a.utilization_pct, a.gated_pct, a.stall_pct, a.span_cycles
        ));
    }
    if let Some(b) = &snapshot.battery {
        out.push_str(&format!(
            "battery: charge={:.3}eu at={} burn={:.6}eu/Mcyc empty@{}\n",
            b.charge_j,
            b.at_cycle,
            b.burn_j_per_mcycle,
            b.projected_empty_cycle
                .map_or("-".to_owned(), |c| c.to_string())
        ));
    }
    for t in &snapshot.tenants {
        out.push_str(&format!(
            "tenant {}: enq={} served={} shed={} viol={} fast={:.4} slow={:.4}{}\n",
            t.tenant,
            t.enqueued,
            t.served,
            t.shed,
            t.violations,
            t.fast_burn,
            t.slow_burn,
            if t.alert { " ALERT" } else { "" }
        ));
    }
    if log.is_empty() {
        out.push_str("alerts: none\n");
    } else {
        out.push_str("alerts:\n");
        for line in log.render().lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

/// Renders the per-tenant error-budget timeline (`trace_report --slo`):
/// one line per tenant per sealed window, in sealing order.
pub fn render_timeline(points: &[BudgetPoint]) -> String {
    let mut out = String::new();
    out.push_str("window end_cycle tenant decided bad fast slow state\n");
    for p in points {
        out.push_str(&format!(
            "{:>6} {:>9} {:>6} {:>7} {:>3} {:>8.4} {:>8.4} {}\n",
            p.window,
            p.end_cycle,
            p.tenant,
            p.decided,
            p.bad,
            p.fast_burn,
            p.slow_burn,
            if p.latched { "ALERT" } else { "ok" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_trace::{LatencyStats, TenantHealth};

    #[test]
    fn dashboard_lines_cover_every_section_deterministically() {
        let mut s = HealthSnapshot {
            at_cycle: 500,
            window_cycles: 100,
            windows_sealed: 5,
            latency: LatencyStats {
                count: 3,
                p50: 10,
                p90: 20,
                p99: 30,
                max: 31,
            },
            ..HealthSnapshot::default()
        };
        s.tenants.push(TenantHealth {
            tenant: 0,
            enqueued: 4,
            served: 3,
            shed: 1,
            violations: 2,
            fast_burn: 2.5,
            slow_burn: 1.25,
            alert: true,
        });
        let log = AlertLog::new();
        let text = render_dashboard(&s, &log);
        assert_eq!(text, render_dashboard(&s, &log));
        assert!(text.contains("at=500 window=100 sealed=5"));
        assert!(text.contains("latency(cyc): n=3 p50=10 p90=20 p99=30 max=31"));
        assert!(text.contains("tenant 0: enq=4 served=3 shed=1 viol=2"));
        assert!(text.contains(" ALERT\n"));
        assert!(text.contains("alerts: none"));
    }

    #[test]
    fn timeline_renders_one_row_per_point() {
        let points = vec![BudgetPoint {
            window: 3,
            end_cycle: 400,
            tenant: 1,
            decided: 12,
            bad: 2,
            fast_burn: 1.5,
            slow_burn: 0.75,
            latched: false,
        }];
        let text = render_timeline(&points);
        assert!(text.starts_with("window end_cycle tenant"));
        assert!(text.contains(" ok\n"));
        assert_eq!(text.lines().count(), 2);
    }
}
