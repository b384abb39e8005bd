//! Diff-aware placement across the array pool.
//!
//! `place` puts each job on the compatible array where it is cheapest to
//! run *now*: the partial reconfiguration cost against the array's
//! resident bitstream (`diff_bits` over the configuration bus — zero when
//! the kernel is already resident) plus the wait until that array drains
//! its backlog, in sim-cycles. Kernels therefore develop array affinity
//! automatically, and identical kernels spill to a second array only once
//! queueing delay outweighs a reconfiguration.
//!
//! Placement is a pure function of the job and the pool state it is
//! shown. The runtime's per-array ledgers are that state; only batch
//! planning substitutes estimated busy-until clocks. Worker threads only
//! execute the resulting per-array plans, so thread scheduling can never
//! change any decision.

use std::collections::HashMap;

use dsra_core::netlist::Fingerprint;
use dsra_platform::{bus_cycles, select, Condition, ImplProfile};
use dsra_video::ServiceClass;

use crate::cache::CompiledKernel;
use crate::kernel::ArrayKind;

/// Memoised partial-reconfiguration costs, keyed by unordered kernel
/// fingerprint pair.
///
/// Placement probes `diff_bits(loaded, target)` once per candidate
/// array per job; the kernel population of a run is tiny (a handful of
/// distinct fingerprints), so after warm-up every probe is a table lookup
/// instead of a frame-map sweep. Two invariants make the memo sound, both
/// pinned by tests: `diff_bits` is symmetric (`bitstream_props`), and
/// within one runtime a netlist fingerprint resolves to exactly one
/// compiled artifact (the cache compiles each kernel for one deterministic
/// fabric).
///
/// The runtime owns one matrix for its whole lifetime and prices every
/// batch and streaming placement with it, so E12's chunked discharge
/// loop reuses diffs across chunks.
#[derive(Debug, Default)]
pub struct DiffMatrix {
    entries: HashMap<(Fingerprint, Fingerprint), u64>,
    probes: u64,
    misses: u64,
}

/// Lifetime probe counters of a [`DiffMatrix`] — observability only
/// (trace `Counter` events); never consulted by any scheduling decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Unequal-fingerprint probes (equal pairs short-circuit to 0 bits).
    pub probes: u64,
    /// Probes that had to sweep the frame maps (first sight of a pair).
    pub misses: u64,
}

impl DiffStats {
    /// Counter deltas against an earlier snapshot.
    pub fn since(&self, earlier: DiffStats) -> DiffStats {
        DiffStats {
            probes: self.probes - earlier.probes,
            misses: self.misses - earlier.misses,
        }
    }
}

impl DiffMatrix {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct kernel pairs memoised so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` until the first miss is memoised.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime probe counters (see [`DiffStats`]).
    pub fn stats(&self) -> DiffStats {
        DiffStats {
            probes: self.probes,
            misses: self.misses,
        }
    }

    /// Reconfiguration bits between two compiled kernels — zero for equal
    /// fingerprints, otherwise the (memoised) bitstream diff.
    pub fn bits(&mut self, from: &CompiledKernel, to: &CompiledKernel) -> u64 {
        if from.fingerprint == to.fingerprint {
            return 0;
        }
        self.probes += 1;
        let key = if from.fingerprint <= to.fingerprint {
            (from.fingerprint, to.fingerprint)
        } else {
            (to.fingerprint, from.fingerprint)
        };
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses += 1;
                *v.insert(from.artifact.bitstream.diff_bits(&to.artifact.bitstream))
            }
        }
    }
}

/// Power state the runtime exposes to scheduling decisions: the battery
/// reading at serve start and the configured low-battery threshold.
/// Policies that ignore it behave exactly as before
/// the power subsystem existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSnapshot {
    /// Battery charge in whole percent when the serve was planned.
    pub battery_charge_pct: u8,
    /// Threshold (percent) below which energy-aware policies switch to
    /// battery-stretching behaviour.
    pub low_battery_pct: u8,
}

impl PowerSnapshot {
    /// `true` once the battery has fallen to (or below) the threshold.
    pub fn is_low(&self) -> bool {
        self.battery_charge_pct <= self.low_battery_pct
    }
}

impl Default for PowerSnapshot {
    fn default() -> Self {
        PowerSnapshot {
            battery_charge_pct: 100,
            low_battery_pct: 20,
        }
    }
}

/// What placement sees of one array: its identity, the kernel it holds
/// and when it finishes the work it has accepted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'a> {
    /// Array id (dense, DA arrays first).
    pub(crate) id: usize,
    /// Fabric kind.
    pub(crate) kind: ArrayKind,
    /// Kernel whose bitstream the array holds; `None` while cold.
    pub(crate) resident: Option<&'a CompiledKernel>,
    /// Sim-cycle at which the array finishes its accepted work.
    pub(crate) free_at: u64,
}

/// Policy hook: how service classes map to platform conditions, how DCT
/// mappings are selected, and how reconfiguration cost trades against
/// queueing delay. Implement this to experiment with scheduling policies;
/// the [`DefaultPolicy`] reproduces the paper's §5 behaviour.
pub trait SchedulePolicy {
    /// Display name (E12 prints per-policy comparisons).
    fn name(&self) -> &'static str {
        "diff-aware"
    }

    /// Maps a job's service class to the run-time condition the platform
    /// policy understands, given the power state at planning time. The
    /// default honours the class as stated, turning `LowPower` into a
    /// [`Condition::LowBattery`] that carries the *measured* battery
    /// reading.
    fn condition(&self, class: ServiceClass, power: &PowerSnapshot) -> Condition {
        match class {
            ServiceClass::Quality => Condition::HighQuality,
            ServiceClass::LowPower => Condition::LowBattery {
                charge_pct: power.battery_charge_pct,
            },
            ServiceClass::Deadline(max_cycles_per_block) => Condition::Deadline {
                max_cycles_per_block,
            },
            ServiceClass::Background => Condition::MinArea,
        }
    }

    /// Picks the DCT mapping for a condition among the offered profiles.
    ///
    /// Falls back to [`Condition::HighQuality`] when the condition is
    /// unsatisfiable (e.g. a deadline no offered mapping meets), so a job is
    /// never dropped just because its preference cannot be honoured.
    fn select_mapping<'a>(
        &self,
        profiles: &'a [ImplProfile],
        condition: Condition,
    ) -> Option<&'a ImplProfile> {
        select(profiles, condition).or_else(|| select(profiles, Condition::HighQuality))
    }

    /// Cost of placing a job on `array` when loading its kernel there takes
    /// `reconfig_cycles` on the configuration bus and the array's backlog
    /// delays the start by `wait_cycles`. Lower is better; ties break
    /// towards the lower array id.
    fn assignment_cost(
        &self,
        reconfig_cycles: u64,
        wait_cycles: u64,
        power: &PowerSnapshot,
    ) -> u64 {
        let _ = power;
        reconfig_cycles + wait_cycles
    }

    /// `true` if idle arrays should be power-gated (leak nothing while
    /// holding no work). The default keeps them powered — exactly the
    /// pre-power-subsystem energy behaviour.
    fn power_gate_idle(&self) -> bool {
        false
    }
}

/// The default diff-aware policy: §5 condition mapping, platform `select`,
/// reconfiguration cycles + queueing delay as the cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultPolicy;

impl SchedulePolicy for DefaultPolicy {}

/// The energy-oblivious baseline E12 compares against: every job is
/// treated as a mains-powered quality job, and placement balances queue
/// depth only — the reconfiguration bits a move costs are invisible to
/// it, so kernels ping-pong between arrays and the configuration plane
/// burns joules the work never needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaivePolicy;

impl SchedulePolicy for NaivePolicy {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn condition(&self, _class: ServiceClass, _power: &PowerSnapshot) -> Condition {
        Condition::HighQuality
    }

    fn assignment_cost(&self, _reconfig_cycles: u64, wait_cycles: u64, _: &PowerSnapshot) -> u64 {
        wait_cycles
    }
}

/// Cost weight of one reconfiguration cycle vs. one wait cycle under
/// [`EnergyAwarePolicy`] while the battery is healthy.
const RECONFIG_WEIGHT: u64 = 4;
/// The multiplier [`EnergyAwarePolicy`] applies to that weight once the
/// battery is low.
const LOW_BATTERY_FACTOR: u64 = 2;

/// The energy-aware policy (E12): trades joules against deadline slack.
///
/// * Below the low-battery threshold every non-deadline job is served as
///   [`Condition::LowBattery`] — the battery is the binding constraint,
///   so the lowest-energy mapping wins (deadline jobs keep their cycle
///   budget; `select` already minimises energy within it).
/// * Reconfiguration writes are weighted above queueing delay in the
///   placement cost — a configuration bit written is joules gone, while
///   waiting merely spends slack: one reconfiguration cycle costs four
///   wait cycles, and eight once the battery is low.
/// * Idle arrays are power-gated.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAwarePolicy;

impl SchedulePolicy for EnergyAwarePolicy {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn condition(&self, class: ServiceClass, power: &PowerSnapshot) -> Condition {
        if power.is_low() {
            match class {
                ServiceClass::Deadline(max_cycles_per_block) => Condition::Deadline {
                    max_cycles_per_block,
                },
                _ => Condition::LowBattery {
                    charge_pct: power.battery_charge_pct,
                },
            }
        } else {
            DefaultPolicy.condition(class, power)
        }
    }

    fn assignment_cost(
        &self,
        reconfig_cycles: u64,
        wait_cycles: u64,
        power: &PowerSnapshot,
    ) -> u64 {
        let weight = RECONFIG_WEIGHT
            * if power.is_low() {
                LOW_BATTERY_FACTOR
            } else {
                1
            };
        reconfig_cycles
            .saturating_mul(weight)
            .saturating_add(wait_cycles)
    }

    fn power_gate_idle(&self) -> bool {
        true
    }
}

/// One planned reconfiguration-aware placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSlot {
    /// Chosen array id.
    pub array: usize,
    /// Bits the switch will rewrite (0 when the kernel is resident).
    pub reconfig_bits: u64,
    /// Cycles on the configuration bus for those bits.
    pub reconfig_cycles: u64,
}

/// Places one job that needs `kernel` and arrives at `arrival_cycle` on
/// the cheapest of `candidates` (in id order) whose kind matches the
/// kernel's, or returns `None` when none does. A pure function: the
/// callers own the array state and apply the slot themselves.
///
/// The switch is priced as `ReconfigManager::switch_to` would charge it:
/// free when the kernel is resident, a (memoised) frame diff against the
/// resident kernel, a full write on a cold array, each taking
/// [`bus_cycles`] on the configuration bus. The policy weighs
/// those bus cycles against the wait until the array is free; ties go to
/// the lower array id.
pub(crate) fn place<'a>(
    kernel: &CompiledKernel,
    arrival_cycle: u64,
    candidates: impl IntoIterator<Item = Candidate<'a>>,
    policy: &dyn SchedulePolicy,
    power: &PowerSnapshot,
    diffs: &mut DiffMatrix,
) -> Option<PlannedSlot> {
    let mut chosen: Option<(u64, PlannedSlot)> = None;
    for a in candidates {
        if a.kind != kernel.array_kind {
            continue;
        }
        let reconfig_bits = match a.resident {
            None => kernel.total_bits(),
            Some(resident) if resident.fingerprint == kernel.fingerprint => 0,
            Some(resident) => diffs.bits(resident, kernel),
        };
        let reconfig_cycles = bus_cycles(reconfig_bits);
        let wait = a.free_at.saturating_sub(arrival_cycle);
        let cost = policy.assignment_cost(reconfig_cycles, wait, power);
        // First minimum wins: ties break towards the lower array id.
        if chosen.is_none_or(|(best, slot)| (cost, a.id) < (best, slot.array)) {
            let slot = PlannedSlot {
                array: a.id,
                reconfig_bits,
                reconfig_cycles,
            };
            chosen = Some((cost, slot));
        }
    }
    chosen.map(|(_, slot)| slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dsra_core::fabric::{Fabric, MeshSpec};
    use dsra_core::netlist::Netlist;
    use dsra_core::prelude::{AbsDiffMode, ClusterCfg};
    use dsra_platform::compile_netlist;

    fn kernel(mode: AbsDiffMode) -> Arc<CompiledKernel> {
        kernel_of_width(mode, 8)
    }

    fn kernel_of_width(mode: AbsDiffMode, width: u8) -> Arc<CompiledKernel> {
        let mut nl = Netlist::new("k");
        let a = nl.input("a", width).unwrap();
        let b = nl.input("b", width).unwrap();
        let y = nl.output("y", width).unwrap();
        let ad = nl
            .cluster("ad", ClusterCfg::AbsDiff { width, mode })
            .unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        let fabric = Fabric::me_array(8, 8, MeshSpec::mixed());
        Arc::new(CompiledKernel {
            name: format!("{mode:?}{width}"),
            fingerprint: nl.fingerprint(),
            array_kind: ArrayKind::Me,
            artifact: compile_netlist(&nl, &fabric).unwrap(),
            split: dsra_tech::EnergySplit {
                dyn_energy_per_cycle: 10.0,
                leak_power: 5.0,
            },
            op_mix: dsra_sim::ExecPlan::compile(&nl).unwrap().op_mix(),
        })
    }

    fn snap() -> PowerSnapshot {
        PowerSnapshot::default()
    }

    /// Drives [`place`] the way batch planning does: each array's resident
    /// kernel and busy-until clock advance by the caller's estimate.
    struct Pool {
        diffs: DiffMatrix,
        arrays: Vec<(ArrayKind, Option<Arc<CompiledKernel>>, u64)>,
    }

    impl Pool {
        fn new(da: usize, me: usize) -> Self {
            let kinds = std::iter::repeat_n(ArrayKind::Da, da);
            Pool {
                diffs: DiffMatrix::new(),
                arrays: kinds
                    .chain(std::iter::repeat_n(ArrayKind::Me, me))
                    .map(|kind| (kind, None, 0))
                    .collect(),
            }
        }

        fn assign(
            &mut self,
            k: &Arc<CompiledKernel>,
            arrival: u64,
            est: u64,
            policy: &dyn SchedulePolicy,
        ) -> PlannedSlot {
            self.assign_among(k, arrival, est, policy, |_| true)
        }

        fn assign_among(
            &mut self,
            k: &Arc<CompiledKernel>,
            arrival: u64,
            est: u64,
            policy: &dyn SchedulePolicy,
            available: impl Fn(usize) -> bool,
        ) -> PlannedSlot {
            let candidates = self
                .arrays
                .iter()
                .enumerate()
                .filter(|(id, _)| available(*id))
                .map(|(id, (kind, resident, free_at))| Candidate {
                    id,
                    kind: *kind,
                    resident: resident.as_deref(),
                    free_at: *free_at,
                });
            let slot = place(k, arrival, candidates, policy, &snap(), &mut self.diffs)
                .expect("a candidate of the kernel's kind");
            let (_, resident, free_at) = &mut self.arrays[slot.array];
            *free_at = (*free_at).max(arrival) + slot.reconfig_cycles + est;
            *resident = Some(Arc::clone(k));
            slot
        }
    }

    #[test]
    fn resident_kernel_wins_over_cold_array() {
        let mut pool = Pool::new(0, 2);
        let k = kernel(AbsDiffMode::AbsDiff);
        // First job cold-starts array 0 (tie on cost → lowest id).
        let p0 = pool.assign(&k, 0, 10, &DefaultPolicy);
        assert_eq!(p0.array, 0);
        assert_eq!(p0.reconfig_bits, k.total_bits());
        // Second job with the same kernel: array 0 is loaded, and with the
        // backlog drained by the late arrival the switch is free.
        let p1 = pool.assign(&k, 1 << 20, 10, &DefaultPolicy);
        assert_eq!(p1.array, 0);
        assert_eq!(p1.reconfig_bits, 0);
    }

    #[test]
    fn queueing_delay_eventually_spills_to_a_second_array() {
        let mut pool = Pool::new(0, 2);
        let k = kernel(AbsDiffMode::AbsDiff);
        // A burst of same-kernel jobs all arriving at cycle 0: affinity
        // holds until array 0's queue costs more than a cold start of
        // array 1, then the load balances.
        let cold_cycles = k.total_bits().div_ceil(32);
        let mut spilled = false;
        for _ in 0..200 {
            let p = pool.assign(&k, 0, cold_cycles / 4 + 1, &DefaultPolicy);
            if p.array == 1 {
                spilled = true;
                break;
            }
        }
        assert!(spilled, "load balancing must engage under a burst");
    }

    #[test]
    fn different_kernel_prefers_the_cheaper_diff() {
        let mut pool = Pool::new(0, 2);
        let ka = kernel(AbsDiffMode::AbsDiff);
        let kb = kernel(AbsDiffMode::Sub);
        pool.assign(&ka, 0, 0, &DefaultPolicy); // array 0 holds ka
                                                // Arriving after array 0 drained: a partial reconfiguration against
                                                // ka beats a full cold write onto empty array 1.
        let p = pool.assign(&kb, 1 << 20, 0, &DefaultPolicy);
        assert_eq!(p.array, 0);
        assert!(p.reconfig_bits > 0);
        assert!(p.reconfig_bits < kb.total_bits());
    }

    #[test]
    fn planned_switch_costs_match_a_reconfig_manager_per_array() {
        // Ledgers never re-price a switch: they charge the slot's bits and
        // cycles. So for random kernel sequences, pool sizes and policies,
        // every slot must equal what a per-array `ReconfigManager`
        // replaying the placements charges.
        use dsra_core::rng::SplitMix64;
        use dsra_platform::ReconfigManager;
        let kernels: Vec<Arc<CompiledKernel>> = [8, 12, 16]
            .into_iter()
            .flat_map(|w| {
                [AbsDiffMode::Add, AbsDiffMode::Sub, AbsDiffMode::AbsDiff]
                    .map(|m| kernel_of_width(m, w))
            })
            .collect();
        let policies: [&dyn SchedulePolicy; 3] = [&DefaultPolicy, &NaivePolicy, &EnergyAwarePolicy];
        let mut rng = SplitMix64::new(0x5107_C057);
        for case in 0..48 {
            let size = 1 + rng.next_below(4) as usize;
            let policy = policies[rng.next_below(3) as usize];
            let mut pool = Pool::new(0, size);
            let mut managers: Vec<ReconfigManager> = (0..size)
                .map(|_| {
                    let mut m = ReconfigManager::default();
                    for k in &kernels {
                        m.register(k.fingerprint.to_hex(), k.artifact.bitstream.clone());
                    }
                    m
                })
                .collect();
            let mut arrival = 0;
            for step in 0..40 {
                // A small working set per case, so residency hits happen.
                let k = &kernels[rng.next_below(1 + case % kernels.len() as u64) as usize];
                arrival += rng.next_below(3_000);
                let slot = pool.assign(k, arrival, rng.next_below(6_000), policy);
                let charged = managers[slot.array]
                    .switch_to(&k.fingerprint.to_hex())
                    .unwrap();
                assert_eq!(
                    (slot.reconfig_bits, slot.reconfig_cycles),
                    (charged.bits_written, charged.cycles),
                    "case {case} step {step}: plan and replay disagree"
                );
            }
        }
    }

    #[test]
    fn kinds_are_respected() {
        let mut pool = Pool::new(1, 1);
        let k = kernel(AbsDiffMode::AbsDiff); // an ME kernel
        let p = pool.assign(&k, 0, 0, &DefaultPolicy);
        assert_eq!(pool.arrays[p.array].0, ArrayKind::Me);
        // With no array of the kernel's kind offered, nothing is placed.
        let da_only = [Candidate {
            id: 0,
            kind: ArrayKind::Da,
            resident: None,
            free_at: 0,
        }];
        let mut diffs = DiffMatrix::new();
        assert_eq!(
            place(&k, 0, da_only, &DefaultPolicy, &snap(), &mut diffs),
            None
        );
    }

    #[test]
    fn diff_matrix_memoises_symmetric_pairs() {
        let ka = kernel(AbsDiffMode::AbsDiff);
        let kb = kernel(AbsDiffMode::Sub);
        let mut m = DiffMatrix::new();
        // Equal fingerprints are free and never stored.
        assert_eq!(m.bits(&ka, &ka), 0);
        assert!(m.is_empty());
        // A real pair is computed once, agrees with the bitstream diff in
        // both directions, and occupies one unordered entry.
        let expected = ka.artifact.bitstream.diff_bits(&kb.artifact.bitstream);
        assert!(expected > 0);
        assert_eq!(m.bits(&ka, &kb), expected);
        assert_eq!(m.bits(&kb, &ka), expected);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn filtered_assignment_skips_unavailable_arrays_and_eviction_goes_cold() {
        let mut pool = Pool::new(0, 2);
        let k = kernel(AbsDiffMode::AbsDiff);
        // Array 0 is not offered (gated): the cold start lands on array 1
        // even though 0 would win the tie.
        let p = pool.assign_among(&k, 0, 10, &DefaultPolicy, |i| i != 0);
        assert_eq!(p.array, 1);
        assert_eq!(p.reconfig_bits, k.total_bits());
        // Resident on 1, a later arrival is free there…
        let p = pool.assign(&k, 1 << 20, 10, &DefaultPolicy);
        assert_eq!((p.array, p.reconfig_bits), (1, 0));
        // …until the resident plane is dropped, as a power-off does:
        // both arrays are equally cold (the tie reverts to array 0) and
        // the kernel pays the full write again.
        pool.arrays[1].1 = None;
        let p = pool.assign(&k, 2 << 20, 10, &DefaultPolicy);
        assert_eq!(p.array, 0);
        assert_eq!(p.reconfig_bits, k.total_bits());
    }

    #[test]
    fn naive_policy_ignores_reconfig_and_battery() {
        use dsra_video::ServiceClass;
        let naive = NaivePolicy;
        let low = PowerSnapshot {
            battery_charge_pct: 5,
            ..Default::default()
        };
        // Every class flattens to HighQuality, battery notwithstanding.
        for class in [
            ServiceClass::Quality,
            ServiceClass::LowPower,
            ServiceClass::Deadline(16),
            ServiceClass::Background,
        ] {
            assert_eq!(naive.condition(class, &low), Condition::HighQuality);
        }
        // A mountain of reconfiguration bits costs it nothing.
        assert_eq!(naive.assignment_cost(1 << 30, 7, &low), 7);
        assert!(!naive.power_gate_idle());
    }

    #[test]
    fn energy_aware_policy_reacts_to_the_battery() {
        use dsra_video::ServiceClass;
        let policy = EnergyAwarePolicy;
        let healthy = PowerSnapshot {
            battery_charge_pct: 80,
            ..Default::default()
        };
        let low = PowerSnapshot {
            battery_charge_pct: 12,
            ..Default::default()
        };
        // Healthy battery: classes are honoured as stated.
        assert_eq!(
            policy.condition(ServiceClass::Quality, &healthy),
            Condition::HighQuality
        );
        // Low battery: quality and background jobs bend to the battery,
        // carrying the measured reading…
        assert_eq!(
            policy.condition(ServiceClass::Quality, &low),
            Condition::LowBattery { charge_pct: 12 }
        );
        assert_eq!(
            policy.condition(ServiceClass::Background, &low),
            Condition::LowBattery { charge_pct: 12 }
        );
        // …while deadline slack is still honoured.
        assert_eq!(
            policy.condition(ServiceClass::Deadline(16), &low),
            Condition::Deadline {
                max_cycles_per_block: 16
            }
        );
        // Reconfiguration is weighted above waiting, more so when low.
        let healthy_cost = policy.assignment_cost(100, 10, &healthy);
        let low_cost = policy.assignment_cost(100, 10, &low);
        assert!(healthy_cost > 100 + 10);
        assert!(low_cost > healthy_cost);
        assert!(policy.power_gate_idle());
    }
}
