//! The SLO report: what one streaming session did to every request,
//! tenant by tenant, with energy attribution from the runtime's pool
//! summary.
//!
//! Everything here is a pure function of the (deterministic) dispatch
//! result, so two runs over the same trace render byte-identical reports
//! — the property the E13 acceptance gate pins via [`ServiceReport::digest`].

use dsra_runtime::StreamSummary;

use crate::trace::TenantSpec;

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id (dense, arrival order).
    pub id: u32,
    /// Owning tenant.
    pub tenant: u16,
    /// Payload kind tag (`dct` / `me` / `encode`).
    pub kind: &'static str,
    /// Arrival time in virtual µs.
    pub arrival_us: u64,
    /// Latest admissible completion.
    pub deadline_us: u64,
    /// `true` if the request was shed instead of served.
    pub shed: bool,
    /// `true` if the request was dispatched but failed after the
    /// recovery hook's retry budget (its corrupt result was withheld).
    /// Always `false` without a chaos hook; like `shed_wait_us`,
    /// deliberately NOT folded into [`ServiceReport::digest`], so
    /// fault-free digests are unchanged.
    pub failed: bool,
    /// Array that served it (meaningless when shed or failed).
    pub array: usize,
    /// Execution start in virtual µs (shed: the shed instant).
    pub start_us: u64,
    /// Completion in virtual µs (shed: the shed instant).
    pub end_us: u64,
    /// Serve latency (`end - arrival`; 0 when shed).
    pub latency_us: u64,
    /// `true` if the request was served but finished past its deadline.
    pub violated: bool,
    /// Queue residency at the shed instant (µs; 0 when served) — how late
    /// the shed decision fell. Schema addition for `shed_wait_p99`
    /// reporting; deliberately NOT folded into [`ServiceReport::digest`].
    pub shed_wait_us: u64,
    /// Bits the switch before this request rewrote (full bitstream on an
    /// elastic-pool wake).
    pub reconfig_bits: u64,
    /// Deterministic output digest (0 when shed).
    pub checksum: u64,
    /// Energy attributed to this request (0 when shed), joules.
    pub energy_j: f64,
}

/// One tenant's slice of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant (spec copied in so the report is self-contained).
    pub spec: TenantSpec,
    /// Requests the tenant submitted.
    pub submitted: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Served requests that finished past their deadline.
    pub violations: usize,
    /// Goodput: served-within-SLO requests as a percentage of submitted.
    pub goodput_pct: f64,
    /// `true` while the shed fraction stays within the tenant's declared
    /// tolerance.
    pub shed_within_tolerance: bool,
    /// Worst served latency (µs).
    pub max_latency_us: u64,
    /// Joules attributed to the tenant's served requests.
    pub energy_j: f64,
}

/// The full session report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Admission policy display name.
    pub policy: &'static str,
    /// Virtual trace length (arrivals stop here).
    pub duration_us: u64,
    /// Virtual time the last served request completed.
    pub makespan_us: u64,
    /// Requests submitted across all tenants.
    pub requests: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed.
    pub shed: usize,
    /// Requests dispatched but failed after the recovery hook's retry
    /// budget — corrupt results withheld rather than served. Zero
    /// without a chaos hook, so `requests == served + shed` holds in
    /// every fault-free session (`requests == served + shed + failed`
    /// in general).
    pub failed: usize,
    /// Served requests that missed their deadline.
    pub violations: usize,
    /// Per-array energy and work totals from the runtime, including the
    /// elastic pool's gate/wake counters.
    pub pool: StreamSummary,
    /// Per-tenant aggregates (tenant-id order).
    pub tenants: Vec<TenantReport>,
    /// Per-request outcomes (request-id order).
    pub outcomes: Vec<RequestOutcome>,
    /// Final health snapshot when an online monitor was installed
    /// (`None` otherwise). Deliberately outside [`ServiceReport::digest`]:
    /// the digest pins dispatch decisions, which must not move when
    /// observation is switched on.
    pub health: Option<dsra_trace::HealthSnapshot>,
}

impl ServiceReport {
    /// Served latencies in µs, sorted ascending — feed these to the
    /// fixed-bucket histogram (`dsra_bench::hist`) for p50/p90/p99.
    pub fn sorted_latencies_us(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| !o.shed)
            .map(|o| o.latency_us)
            .collect();
        l.sort_unstable();
        l
    }

    /// Queue residencies of the shed requests in µs, sorted ascending —
    /// the `shed_wait_p99` input (how late the shed decisions fell).
    pub fn sorted_shed_waits_us(&self) -> Vec<u64> {
        let mut w: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| o.shed)
            .map(|o| o.shed_wait_us)
            .collect();
        w.sort_unstable();
        w
    }

    /// Served requests that met their deadline, as a fraction of all
    /// submitted requests — the service-wide goodput.
    pub fn goodput_pct(&self) -> f64 {
        if self.requests == 0 {
            return 100.0;
        }
        (self.served - self.violations) as f64 * 100.0 / self.requests as f64
    }

    /// SLO violations as a fraction of submitted requests (percent).
    pub fn violation_pct(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.violations as f64 * 100.0 / self.requests as f64
    }

    /// Shed requests as a fraction of submitted requests (percent).
    pub fn shed_pct(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shed as f64 * 100.0 / self.requests as f64
    }

    /// Times the elastic pool powered an idle array off.
    pub fn gate_events(&self) -> usize {
        self.pool.gate_events
    }

    /// Times a gated array was woken back up.
    pub fn wakes(&self) -> usize {
        self.pool.wakes
    }

    /// Joules per *served* request (what the battery actually bought).
    pub fn joules_per_served(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.pool.total_j() / self.served as f64
    }

    /// Deterministic digest over every request outcome, the tenant
    /// aggregates and the pool energy — one number that changes if any
    /// dispatch decision, payload result, shed verdict or attributed
    /// joule changes.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            h = dsra_core::rng::fnv1a_fold(h, v);
        };
        for o in &self.outcomes {
            mix(u64::from(o.id));
            mix(u64::from(o.tenant));
            mix(u64::from(o.shed));
            mix(o.array as u64);
            mix(o.start_us);
            mix(o.end_us);
            mix(o.latency_us);
            mix(u64::from(o.violated));
            mix(o.reconfig_bits);
            mix(o.checksum);
            mix(o.energy_j.to_bits());
        }
        for t in &self.tenants {
            mix(t.submitted as u64);
            mix(t.served as u64);
            mix(t.shed as u64);
            mix(t.violations as u64);
            mix(t.energy_j.to_bits());
        }
        mix(self.pool.gate_events as u64);
        mix(self.pool.wakes as u64);
        mix(self.pool.total_j().to_bits());
        mix(self.pool.gated_cycles());
        h
    }

    /// Human-readable summary (stable across runs for the same trace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "policy             : {} ({} µs trace, makespan {} µs)\n",
            self.policy, self.duration_us, self.makespan_us
        ));
        s.push_str(&format!(
            "requests           : {} submitted, {} served, {} shed ({:.1}%), {} SLO violations ({:.1}%)\n",
            self.requests,
            self.served,
            self.shed,
            self.shed_pct(),
            self.violations,
            self.violation_pct()
        ));
        // Only chaos sessions fail requests; fault-free renders are
        // byte-identical to what they were before the field existed.
        if self.failed > 0 {
            s.push_str(&format!(
                "failed             : {} requests unrecoverable after retries (corrupt results withheld)\n",
                self.failed
            ));
        }
        s.push_str(&format!(
            "goodput            : {:.1}% of submitted served within SLO\n",
            self.goodput_pct()
        ));
        s.push_str(&format!(
            "elastic pool       : {} gate events, {} wakes, {} gated cycles\n",
            self.pool.gate_events,
            self.pool.wakes,
            self.pool.gated_cycles()
        ));
        s.push_str(&format!(
            "energy             : {:.1} eu total, {:.1} eu per served request\n",
            self.pool.total_j(),
            self.joules_per_served()
        ));
        s.push_str(
            "tenant  archetype    submitted  served  shed  viol  goodput%  max-lat-µs  tolerant\n",
        );
        for t in &self.tenants {
            s.push_str(&format!(
                "{:>6}  {:<11}  {:>9}  {:>6}  {:>4}  {:>4}  {:>8.1}  {:>10}  {}\n",
                t.spec.id,
                t.spec.archetype,
                t.submitted,
                t.served,
                t.shed,
                t.violations,
                t.goodput_pct,
                t.max_latency_us,
                if t.shed_within_tolerance { "yes" } else { "NO" }
            ));
        }
        s.push_str(&format!("outcome digest     : {:#018x}\n", self.digest()));
        s
    }
}
