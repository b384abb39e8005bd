//! A small metrics registry: named counters, gauges, and histograms,
//! with deterministic **sorted** text renderings.
//!
//! Post-processing (`trace_report`) assembles its summary through one of
//! these so every number it prints comes from a named, inspectable slot;
//! tests read the same slots back instead of scraping stdout. Every
//! export path ([`MetricsRegistry::render`],
//! [`MetricsRegistry::render_prometheus`],
//! [`MetricsRegistry::counter_names`]) iterates in sorted name order, so
//! two registries holding the same slots dump identical bytes no matter
//! what order the slots were registered in.

use crate::hist::Histogram;

/// Named counters (`u64`, monotone), gauges (`f64`), and [`Histogram`]s.
/// Lookup is linear — registries hold tens of entries. Exports iterate
/// in sorted name order regardless of registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

/// Name-sorted view of one slot list (stable: duplicate names cannot
/// occur — every mutator upserts by name).
fn by_name<T>(items: &[(String, T)]) -> Vec<&(String, T)> {
    let mut v: Vec<&(String, T)> = items.iter().collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at 0 first
    /// (saturating at `u64::MAX`).
    pub fn count(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = v.saturating_add(delta),
            None => self.counters.push((name.to_owned(), delta)),
        }
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sets the named gauge, creating or overwriting it.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name.to_owned(), value)),
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named histogram, created with the given shape on first use.
    /// The shape arguments are ignored on later calls.
    pub fn hist_mut(&mut self, name: &str, bucket_width: u64, buckets: usize) -> &mut Histogram {
        if !self.hists.iter().any(|(n, _)| n == name) {
            self.hists
                .push((name.to_owned(), Histogram::new(bucket_width, buckets)));
        }
        let (_, h) = self
            .hists
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("histogram just inserted");
        h
    }

    /// Read-only access to a histogram.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Registered counter names in sorted order (export order).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        by_name(&self.counters).into_iter().map(|(n, _)| n.as_str())
    }

    /// Deterministic text rendering: counters, gauges (6 decimals), then
    /// histogram percentiles — each section in sorted name order, so the
    /// dump is independent of registration order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (n, v) in by_name(&self.counters) {
            out.push_str(&format!("{n} = {v}\n"));
        }
        for (n, v) in by_name(&self.gauges) {
            out.push_str(&format!("{n} = {v:.6}\n"));
        }
        for (n, h) in by_name(&self.hists) {
            out.push_str(&format!(
                "{n}: n={} p50={} p90={} p99={} max={}\n",
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            ));
        }
        out
    }

    /// Prometheus text-exposition rendering, deterministic: counters, then
    /// gauges, then histograms (as summaries with nearest-rank quantiles),
    /// each section in sorted name order — independent of registration
    /// order. Names are prefixed with `prefix_` and sanitised to
    /// `[a-zA-Z0-9_:]`; integer counters print exactly and gauges print
    /// with 6 decimals, so same-seed dumps are byte-identical.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let name_of = |raw: &str| {
            let mut n = String::with_capacity(prefix.len() + raw.len() + 1);
            n.push_str(prefix);
            n.push('_');
            for c in raw.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    n.push(c);
                } else {
                    n.push('_');
                }
            }
            n
        };
        let mut out = String::new();
        for (raw, v) in by_name(&self.counters) {
            let n = name_of(raw);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (raw, v) in by_name(&self.gauges) {
            let n = name_of(raw);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v:.6}\n"));
        }
        for (raw, h) in by_name(&self.hists) {
            let n = name_of(raw);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", h.percentile(p)));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = MetricsRegistry::new();
        m.count("served", 3);
        m.count("served", 2);
        assert_eq!(m.counter("served"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn gauges_overwrite_and_histograms_keep_their_shape() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("util_pct", 10.0);
        m.set_gauge("util_pct", 62.5);
        assert_eq!(m.gauge("util_pct"), Some(62.5));
        assert_eq!(m.gauge("absent"), None);
        m.hist_mut("queue", 1, 64).record_all([5, 9, 12]);
        // Shape arguments are ignored after creation.
        m.hist_mut("queue", 999, 1).record(7);
        let h = m.hist("queue").expect("queue histogram");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 12);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let mut m = MetricsRegistry::new();
        m.count("zebra", 1);
        m.count("alpha", 2);
        m.set_gauge("pct", 50.0);
        m.hist_mut("lat", 1, 8).record(3);
        let r = m.render();
        assert_eq!(r, m.render());
        let zebra = r.find("zebra = 1").expect("zebra line");
        let alpha = r.find("alpha = 2").expect("alpha line");
        assert!(alpha < zebra, "sorted order, not insertion order");
        assert!(r.contains("pct = 50.000000"));
        assert!(r.contains("lat: n=1 p50=3 p90=3 p99=3 max=3"));
        assert_eq!(m.counter_names().collect::<Vec<_>>(), ["alpha", "zebra"]);
    }

    #[test]
    fn export_order_is_independent_of_registration_order() {
        let names = ["zebra", "mid", "alpha"];
        let mut forward = MetricsRegistry::new();
        let mut backward = MetricsRegistry::new();
        for (i, n) in names.iter().enumerate() {
            forward.count(n, i as u64 + 1);
            forward.set_gauge(&format!("g_{n}"), i as f64);
            forward.hist_mut(&format!("h_{n}"), 1, 8).record(i as u64);
        }
        for (i, n) in names.iter().enumerate().rev() {
            backward.count(n, i as u64 + 1);
            backward.set_gauge(&format!("g_{n}"), i as f64);
            backward.hist_mut(&format!("h_{n}"), 1, 8).record(i as u64);
        }
        assert_eq!(forward.render(), backward.render());
        assert_eq!(
            forward.render_prometheus("dsra"),
            backward.render_prometheus("dsra")
        );
        assert_eq!(
            forward.counter_names().collect::<Vec<_>>(),
            ["alpha", "mid", "zebra"]
        );
    }

    #[test]
    fn prometheus_rendering_is_typed_prefixed_and_sanitised() {
        let mut m = MetricsRegistry::new();
        m.count("jobs", 12);
        m.set_gauge("util-pct", 62.5);
        m.hist_mut("latency_us", 1, 64).record_all([10, 20, 30]);
        let p = m.render_prometheus("dsra");
        assert_eq!(p, m.render_prometheus("dsra"), "deterministic");
        assert!(p.contains("# TYPE dsra_jobs counter\ndsra_jobs 12\n"));
        assert!(
            p.contains("# TYPE dsra_util_pct gauge\ndsra_util_pct 62.500000\n"),
            "dash sanitised to underscore: {p}"
        );
        assert!(p.contains("# TYPE dsra_latency_us summary\n"));
        assert!(p.contains("dsra_latency_us{quantile=\"0.5\"} 20\n"));
        assert!(p.contains("dsra_latency_us{quantile=\"0.99\"} 30\n"));
        assert!(p.contains("dsra_latency_us_sum 60\n"));
        assert!(p.contains("dsra_latency_us_count 3\n"));
        let counters = p.find("dsra_jobs").expect("counter");
        let gauges = p.find("dsra_util_pct").expect("gauge");
        let hists = p.find("dsra_latency_us").expect("summary");
        assert!(counters < gauges && gauges < hists, "section order");
    }
}
