//! Property tests for the power subsystem: gating never costs energy, and
//! the battery cannot go negative.

use dsra_power::{Battery, EnergyAccount};
use dsra_tech::EnergySplit;
use proptest::prelude::*;

proptest! {
    /// Power-gating an idle array never increases total energy, whatever
    /// the leakage or duration.
    #[test]
    fn gating_an_idle_array_never_increases_energy(
        cycles in 0u64..1_000_000,
        leak_milli in 0u64..10_000_000,
        active in 0u64..10_000,
    ) {
        let leak = leak_milli as f64 / 1000.0;
        let split = EnergySplit { dyn_energy_per_cycle: 17.0, leak_power: leak };
        let mut powered = EnergyAccount::new("p");
        let mut gated = EnergyAccount::new("g");
        // Same productive work on both…
        powered.charge_active(active, &split);
        gated.charge_active(active, &split);
        // …then the same idle stretch, gated on one side only.
        powered.charge_idle(cycles, leak, false);
        gated.charge_idle(cycles, leak, true);
        prop_assert!(gated.total_j() <= powered.total_j());
        prop_assert_eq!(gated.gated_cycles, cycles);
    }

    /// The battery never goes negative, whatever sequence of drains is
    /// thrown at it, and drained totals never exceed capacity.
    #[test]
    fn battery_never_goes_negative(
        capacity_milli in 0u64..10_000_000,
        d0 in 0u64..5_000_000,
        d1 in 0u64..5_000_000,
        d2 in 0u64..5_000_000,
        d3 in 0u64..5_000_000,
    ) {
        let capacity = capacity_milli as f64 / 1000.0;
        let mut battery = Battery::new(capacity);
        let mut drained = 0.0;
        for d in [d0, d1, d2, d3] {
            drained += battery.drain(d as f64 / 1000.0);
            prop_assert!(battery.charge_j() >= 0.0);
            prop_assert!(battery.fraction() >= 0.0 && battery.fraction() <= 1.0);
            prop_assert!(battery.charge_pct() <= 100);
        }
        prop_assert!(drained <= capacity + 1e-9);
        prop_assert!((battery.charge_j() + drained - capacity).abs() < 1e-6);
    }
}
