//! Open-loop trace generation: per-tenant request streams in virtual
//! microseconds.
//!
//! A [`TraceConfig`] describes a set of tenants — each with its own
//! arrival rate, payload mix (drawn through `dsra_video::sample_payload`,
//! the same synthesiser every workload producer in the workspace uses),
//! service-class mix and [`SloSpec`] — and [`generate_trace`] turns it
//! into one merged, arrival-ordered request stream. The trace is *open
//! loop*: arrivals are a pure function of the config, never of how fast
//! the pool serves, which is exactly what makes overload (and the
//! admission-control comparison it motivates) observable.

use dsra_core::rng::SplitMix64;
use dsra_runtime::ArrayKind;
use dsra_video::{sample_gap, sample_payload, JobMixWeights, JobPayload, ServiceClass};

/// A tenant's service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Admissible arrival → completion latency in virtual µs; a served
    /// request that takes longer is an SLO violation.
    pub latency_budget_us: u64,
    /// Fraction of requests (percent) the tenant tolerates being shed
    /// before shedding itself counts against the tenant's SLO.
    pub shed_tolerance_pct: u8,
}

/// One tenant of the streaming service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Dense tenant id.
    pub id: u16,
    /// Archetype tag (`interactive` / `streaming` / `background`).
    pub archetype: &'static str,
    /// Mean inter-arrival gap in virtual µs (bursty around this mean).
    pub mean_gap_us: u64,
    /// Payload-kind weights of the tenant's traffic.
    pub weights: JobMixWeights,
    /// Dominant service class of the tenant's requests.
    pub primary_class: ServiceClass,
    /// Minority service class…
    pub secondary_class: ServiceClass,
    /// …and how often it appears (percent of requests).
    pub secondary_pct: u8,
    /// The tenant's latency/shedding objective.
    pub slo: SloSpec,
}

/// The three tenant archetypes E13 rotates through. `index` picks the
/// archetype; rates are scaled so that `mean_gap_us` is the per-tenant
/// mean inter-arrival gap.
pub fn standard_tenant(id: u16, mean_gap_us: u64) -> TenantSpec {
    match id % 3 {
        // Video-call tenants: transform + motion bound, tight deadline,
        // nearly no tolerance for drops.
        0 => TenantSpec {
            id,
            archetype: "interactive",
            mean_gap_us,
            weights: JobMixWeights {
                dct: 7,
                me: 3,
                encode: 0,
            },
            primary_class: ServiceClass::Deadline(16),
            secondary_class: ServiceClass::Quality,
            secondary_pct: 20,
            slo: SloSpec {
                latency_budget_us: 900,
                shed_tolerance_pct: 2,
            },
        },
        // Streaming playback: quality-first mixed traffic, a looser
        // budget, a few drops are concealable.
        1 => TenantSpec {
            id,
            archetype: "streaming",
            mean_gap_us,
            weights: JobMixWeights {
                dct: 6,
                me: 3,
                encode: 1,
            },
            primary_class: ServiceClass::Quality,
            secondary_class: ServiceClass::Deadline(32),
            secondary_pct: 25,
            slo: SloSpec {
                latency_budget_us: 2_500,
                shed_tolerance_pct: 10,
            },
        },
        // Background transcode: encode-heavy, latency-insensitive, half
        // of it may be shed without anyone noticing.
        _ => TenantSpec {
            id,
            archetype: "background",
            mean_gap_us: mean_gap_us.saturating_mul(2).max(1),
            weights: JobMixWeights {
                dct: 2,
                me: 1,
                encode: 3,
            },
            primary_class: ServiceClass::Background,
            secondary_class: ServiceClass::LowPower,
            secondary_pct: 40,
            slo: SloSpec {
                latency_budget_us: 20_000,
                shed_tolerance_pct: 50,
            },
        },
    }
}

/// The standard tenant set: `n` tenants rotating through the three
/// archetypes, each with the given mean inter-arrival gap (background
/// tenants arrive at half that rate).
pub fn standard_tenants(n: u16, mean_gap_us: u64) -> Vec<TenantSpec> {
    (0..n).map(|id| standard_tenant(id, mean_gap_us)).collect()
}

/// One request of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Dense id in merged arrival order — also the job id the runtime
    /// sees.
    pub id: u32,
    /// Owning tenant.
    pub tenant: u16,
    /// Arrival time in virtual µs.
    pub arrival_us: u64,
    /// Latest admissible completion (`arrival + latency budget`).
    pub deadline_us: u64,
    /// Service class in force for this request.
    pub class: ServiceClass,
    /// The work itself (a `dsra-video` job payload).
    pub payload: JobPayload,
    /// Per-request seed for synthesising payload data.
    pub seed: u64,
}

/// Which array pool serves `payload` — the one mapping the dispatcher's
/// queues, its pool checks and the fault-recovery hook all share.
pub fn pool_for(payload: &JobPayload) -> ArrayKind {
    match payload {
        JobPayload::MeSearch { .. } => ArrayKind::Me,
        JobPayload::DctBlocks { .. } | JobPayload::EncodeGop { .. } => ArrayKind::Da,
    }
}

/// Parameters of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The tenants whose streams are merged.
    pub tenants: Vec<TenantSpec>,
    /// Virtual length of the trace: arrivals stop at this µs mark.
    pub duration_us: u64,
    /// RNG seed; the whole trace is a pure function of this config.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            tenants: standard_tenants(4, 60),
            duration_us: 50_000,
            seed: 0x57EA_4AED,
        }
    }
}

/// Spreads a tenant id into an independent per-tenant RNG seed — the
/// shared [`dsra_core::rng::split_seed`] recipe, offset by one so tenant
/// 0 does not collapse onto the raw trace seed.
fn tenant_seed(seed: u64, tenant: u16) -> u64 {
    dsra_core::rng::split_seed(seed, u64::from(tenant) + 1)
}

/// Generates the merged, arrival-ordered request stream: every tenant
/// walks its own seeded bursty clock (most requests arrive back to back,
/// some after a lull — the same arrival shape as `generate_job_mix`),
/// then the streams merge by `(arrival_us, tenant)` and requests get
/// dense ids in that order.
pub fn generate_trace(config: &TraceConfig) -> Vec<Request> {
    let mut merged: Vec<Request> = Vec::new();
    for tenant in &config.tenants {
        let mut rng = SplitMix64::new(tenant_seed(config.seed, tenant.id));
        let mean = tenant.mean_gap_us.max(1);
        let mut clock = 0u64;
        loop {
            clock += sample_gap(&mut rng, mean);
            if clock >= config.duration_us {
                break;
            }
            let class = if rng.next_below(100) < u64::from(tenant.secondary_pct) {
                tenant.secondary_class
            } else {
                tenant.primary_class
            };
            let payload = sample_payload(&mut rng, tenant.weights);
            merged.push(Request {
                id: 0, // assigned after the merge
                tenant: tenant.id,
                arrival_us: clock,
                deadline_us: clock + tenant.slo.latency_budget_us,
                class,
                payload,
                seed: rng.next_u64(),
            });
        }
    }
    // Stable sort: simultaneous arrivals order by tenant, and a tenant's
    // own requests keep their generation order.
    merged.sort_by_key(|r| (r.arrival_us, r.tenant));
    for (id, r) in merged.iter_mut().enumerate() {
        r.id = id as u32;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_its_config() {
        let config = TraceConfig::default();
        let a = generate_trace(&config);
        let b = generate_trace(&config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = generate_trace(&TraceConfig {
            seed: 1,
            ..config.clone()
        });
        assert_ne!(a, c, "a different seed is a different trace");
    }

    #[test]
    fn trace_is_arrival_ordered_with_dense_ids_and_live_deadlines() {
        let trace = generate_trace(&TraceConfig::default());
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i as u32);
            assert!(r.deadline_us > r.arrival_us);
            assert!(r.arrival_us < 50_000);
        }
        assert!(trace.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
    }

    #[test]
    fn every_archetype_contributes_its_traffic() {
        let trace = generate_trace(&TraceConfig::default());
        // 4 tenants rotate interactive/streaming/background/interactive.
        for tenant in 0..4u16 {
            assert!(
                trace.iter().filter(|r| r.tenant == tenant).count() > 0,
                "tenant {tenant} generated nothing"
            );
        }
        assert!(trace.iter().any(|r| pool_for(&r.payload) == ArrayKind::Me));
        assert!(trace.iter().any(|r| pool_for(&r.payload) == ArrayKind::Da));
        // The class mix is in force: both primary and secondary classes
        // of tenant 0 (interactive) appear.
        let t0: Vec<_> = trace.iter().filter(|r| r.tenant == 0).collect();
        assert!(t0.iter().any(|r| r.class == ServiceClass::Deadline(16)));
        assert!(t0.iter().any(|r| r.class == ServiceClass::Quality));
    }
}
