//! Seeded, virtual-time fault plans: which array breaks, how, and when.
//!
//! A [`FaultPlan`] is a pure function of its [`ChaosConfig`] — the same
//! seed always yields the same events at the same virtual instants, so a
//! chaos session is as byte-deterministic as a fault-free one. Events
//! fire when the dispatcher's virtual clock reaches them (the recovery
//! hook folds their instants into the loop's time advance, so none are
//! skipped over).

use dsra_core::rng::SplitMix64;

/// How an array misbehaves, once a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A stuck-at fault on one lane of the array's output path: the
    /// checksum bit is forced `high`/low on every execution while the
    /// fault is active (`at_us..until_us`).
    StuckAt {
        /// Checksum bit lane (0..64) the fault pins.
        bit: u8,
        /// `true` pins the lane to 1, `false` to 0.
        high: bool,
        /// Virtual µs at which the (intermittent) fault clears itself.
        until_us: u64,
    },
    /// A transient single-execution upset: the given mask is XORed into
    /// the checksum of exactly the next execution, then the fault clears.
    Transient {
        /// Non-zero XOR mask flipped into one execution's checksum.
        bits: u64,
    },
    /// A corrupted configuration-plane write: every execution on the
    /// array diverges until the (bad) bitstream is evicted — which is
    /// exactly what quarantine does, so a probe after quarantine finds
    /// the array healthy again.
    ReconfigCorrupt,
    /// The array dies: every execution from here on returns garbage and
    /// no probe ever re-admits it.
    Death,
    /// A battery brownout step: `pct` percent of the pack's capacity is
    /// drained instantly (the energy-aware layers see the step on their
    /// next snapshot). Not an array fault — `array` carries the step
    /// index instead.
    Brownout {
        /// Percent of battery capacity removed by the step.
        pct: u8,
    },
}

impl FaultKind {
    /// Stable tag, matching the `FaultInjected` trace event and the
    /// Chrome-trace exporter (`stuck_at`, `transient`, `reconfig`,
    /// `death`, `brownout`).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::StuckAt { .. } => "stuck_at",
            FaultKind::Transient { .. } => "transient",
            FaultKind::ReconfigCorrupt => "reconfig",
            FaultKind::Death => "death",
            FaultKind::Brownout { .. } => "brownout",
        }
    }

    /// Sort rank for deterministic ordering of same-instant events.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::StuckAt { .. } => 0,
            FaultKind::Transient { .. } => 1,
            FaultKind::ReconfigCorrupt => 2,
            FaultKind::Death => 3,
            FaultKind::Brownout { .. } => 4,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual µs at which the fault lands.
    pub at_us: u64,
    /// Target array (pool id); for [`FaultKind::Brownout`], the step
    /// index (brownouts hit the shared battery, not an array).
    pub array: usize,
    /// What breaks.
    pub kind: FaultKind,
}

/// Stuck-at faults per plan (each with a self-clearing window).
const STUCK_AT: usize = 2;
/// Transient single-execution bit flips per plan.
const TRANSIENTS: usize = 3;
/// Corrupted configuration writes per plan.
const RECONFIG: usize = 1;
/// Array deaths per plan.
const DEATHS: usize = 1;
/// Battery brownout steps per plan.
const BROWNOUTS: usize = 1;

/// Where and when a [`FaultPlan`] lands its faults. Every plan holds the
/// same eight: two stuck-at windows, three transient flips, one corrupted
/// configuration write, one array death and one battery brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Plan seed; same seed, same plan, byte for byte.
    pub seed: u64,
    /// Virtual window faults land in (events draw from its middle 80%,
    /// so the session both warms up and winds down fault-free).
    pub duration_us: u64,
    /// Pool size faults draw targets from.
    pub arrays: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            duration_us: 6_000,
            arrays: 4,
        }
    }
}

/// A sorted schedule of [`FaultEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the plan for `cfg` — deterministic in every field.
    pub fn generate(cfg: &ChaosConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed ^ 0xC0A5_7A6E_FAB1_0CAFu64);
        let lo = cfg.duration_us / 10;
        let span = (cfg.duration_us * 8 / 10).max(1);
        let at = |rng: &mut SplitMix64| lo + rng.next_below(span);
        let array = |rng: &mut SplitMix64| rng.next_below(cfg.arrays.max(1) as u64) as usize;
        let mut events = Vec::new();
        for _ in 0..STUCK_AT {
            let at_us = at(&mut rng);
            events.push(FaultEvent {
                at_us,
                array: array(&mut rng),
                kind: FaultKind::StuckAt {
                    bit: rng.next_below(64) as u8,
                    high: rng.next_below(2) == 1,
                    // Long enough that recovery has to act, short enough
                    // that a later probe can genuinely re-admit.
                    until_us: at_us + cfg.duration_us / 4 + rng.next_below(span / 2 + 1),
                },
            });
        }
        for _ in 0..TRANSIENTS {
            events.push(FaultEvent {
                at_us: at(&mut rng),
                array: array(&mut rng),
                kind: FaultKind::Transient {
                    // At least one bit flips, so a transient is never a
                    // silent no-op.
                    bits: rng.next_u64() | 1,
                },
            });
        }
        for _ in 0..RECONFIG {
            events.push(FaultEvent {
                at_us: at(&mut rng),
                array: array(&mut rng),
                kind: FaultKind::ReconfigCorrupt,
            });
        }
        for _ in 0..DEATHS {
            events.push(FaultEvent {
                at_us: at(&mut rng),
                array: array(&mut rng),
                kind: FaultKind::Death,
            });
        }
        for i in 0..BROWNOUTS {
            events.push(FaultEvent {
                at_us: at(&mut rng),
                array: i,
                kind: FaultKind::Brownout {
                    pct: 5 + rng.next_below(20) as u8,
                },
            });
        }
        events.sort_by_key(|e| (e.at_us, e.array, e.kind.rank()));
        FaultPlan { events }
    }

    /// The schedule, ascending by `(at_us, array, kind)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is scheduled (a fault-free chaos session).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_sorted() {
        let cfg = ChaosConfig::default();
        let a = FaultPlan::generate(&cfg);
        let b = FaultPlan::generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.len(),
            STUCK_AT + TRANSIENTS + RECONFIG + DEATHS + BROWNOUTS
        );
        assert!(a.events().windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let c = FaultPlan::generate(&ChaosConfig {
            seed: 8,
            ..ChaosConfig::default()
        });
        assert_ne!(a, c, "a different seed must move the plan");
    }

    #[test]
    fn events_land_inside_the_middle_of_the_window() {
        let cfg = ChaosConfig {
            duration_us: 10_000,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg);
        for e in plan.events() {
            assert!(e.at_us >= 1_000 && e.at_us < 9_000, "{e:?}");
            if let FaultKind::StuckAt { until_us, .. } = e.kind {
                assert!(until_us > e.at_us);
            }
            if let FaultKind::Transient { bits } = e.kind {
                assert_ne!(bits, 0);
            }
        }
    }
}
