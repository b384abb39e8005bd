//! Per-array energy accounting: integrates static (leakage) and dynamic
//! (activity) energy over a serve, in joule-denominated arbitrary units.
//!
//! One [`EnergyAccount`] per array. Active cycles charge both halves of
//! the [`EnergySplit`]; idle cycles charge leakage only — unless the
//! array is power-gated, in which case they charge nothing (and are
//! tallied separately so reports can show what gating saved).

use dsra_tech::EnergySplit;

/// A point-in-time snapshot of an account's three energy components.
///
/// Tracing takes one of these before and after a job's reconfig + exec
/// window and attributes the component-wise difference to the job; the
/// digest-visible per-job `energy_j` stays `total_j() - before` so the
/// split is a pure observability addition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyTotals {
    /// Activity-based dynamic energy (joules).
    pub dynamic_j: f64,
    /// Leakage energy (joules).
    pub static_j: f64,
    /// Configuration-plane write energy (joules).
    pub reconfig_j: f64,
}

impl EnergyTotals {
    /// Sum of all three components.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }

    /// Component-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &EnergyTotals) -> EnergyTotals {
        EnergyTotals {
            dynamic_j: self.dynamic_j - earlier.dynamic_j,
            static_j: self.static_j - earlier.static_j,
            reconfig_j: self.reconfig_j - earlier.reconfig_j,
        }
    }
}

/// Energy integrated by one array over one serve.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAccount {
    /// Display label (array id / kind).
    pub label: String,
    /// Activity-based dynamic energy (joules).
    pub dynamic_j: f64,
    /// Leakage energy (joules), active and idle.
    pub static_j: f64,
    /// Configuration-plane write energy (joules).
    pub reconfig_j: f64,
    /// Cycles spent executing or reconfiguring.
    pub active_cycles: u64,
    /// Cycles spent idle but powered (leaking).
    pub idle_cycles: u64,
    /// Idle cycles spent power-gated (leaking nothing).
    pub gated_cycles: u64,
}

impl EnergyAccount {
    /// A zeroed account.
    pub fn new(label: impl Into<String>) -> Self {
        EnergyAccount {
            label: label.into(),
            dynamic_j: 0.0,
            static_j: 0.0,
            reconfig_j: 0.0,
            active_cycles: 0,
            idle_cycles: 0,
            gated_cycles: 0,
        }
    }

    /// Charges `cycles` of execution on a kernel with the given energy
    /// split: dynamic switching plus leakage.
    pub fn charge_active(&mut self, cycles: u64, split: &EnergySplit) {
        let c = cycles as f64;
        self.dynamic_j += c * split.dyn_energy_per_cycle;
        self.static_j += c * split.leak_power;
        self.active_cycles += cycles;
    }

    /// Charges `cycles` of idleness while the plane leaking `leak_power`
    /// stays powered — or nothing at all when `gated`.
    pub fn charge_idle(&mut self, cycles: u64, leak_power: f64, gated: bool) {
        if gated {
            self.gated_cycles += cycles;
        } else {
            self.static_j += cycles as f64 * leak_power;
            self.idle_cycles += cycles;
        }
    }

    /// Charges a reconfiguration that wrote `bits` configuration bits at
    /// `energy_per_bit` (a dynamic cost — config writes are switching
    /// events on the configuration plane).
    pub fn charge_reconfig(&mut self, bits: u64, energy_per_bit: f64) {
        self.reconfig_j += bits as f64 * energy_per_bit;
    }

    /// Everything this account has integrated.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j + self.reconfig_j
    }

    /// Snapshot of the three components (see [`EnergyTotals`]).
    pub fn totals(&self) -> EnergyTotals {
        EnergyTotals {
            dynamic_j: self.dynamic_j,
            static_j: self.static_j,
            reconfig_j: self.reconfig_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split() -> EnergySplit {
        EnergySplit {
            dyn_energy_per_cycle: 40.0,
            leak_power: 10.0,
        }
    }

    #[test]
    fn active_charges_both_halves() {
        let mut a = EnergyAccount::new("da0");
        a.charge_active(100, &split());
        assert!((a.dynamic_j - 4000.0).abs() < 1e-9);
        assert!((a.static_j - 1000.0).abs() < 1e-9);
        assert_eq!(a.active_cycles, 100);
        assert!((a.total_j() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn gated_idle_is_free_and_tallied() {
        let mut powered = EnergyAccount::new("p");
        let mut gated = EnergyAccount::new("g");
        powered.charge_idle(500, 10.0, false);
        gated.charge_idle(500, 10.0, true);
        assert!((powered.static_j - 5000.0).abs() < 1e-9);
        assert_eq!(powered.idle_cycles, 500);
        assert_eq!(gated.total_j(), 0.0);
        assert_eq!(gated.gated_cycles, 500);
    }

    #[test]
    fn totals_snapshot_differences_attribute_per_window_energy() {
        let mut a = EnergyAccount::new("da0");
        a.charge_active(50, &split());
        let before = a.totals();
        a.charge_reconfig(1000, 0.5);
        a.charge_active(100, &split());
        let delta = a.totals().since(&before);
        assert!((delta.reconfig_j - 500.0).abs() < 1e-9);
        assert!((delta.dynamic_j - 4000.0).abs() < 1e-9);
        assert!((delta.static_j - 1000.0).abs() < 1e-9);
        assert!((delta.total_j() - (a.total_j() - before.total_j())).abs() < 1e-9);
    }
}
