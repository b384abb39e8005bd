//! # dsra-power — battery and energy accounting
//!
//! The paper's headline claims are *power* claims (−75 % for the ME
//! array, §3.6's activity-driven energy differences between DCT
//! mappings), and its §5 motivation is a battery: "different run-time
//! constraints, such as low-battery conditions". This crate turns the
//! repo's one-shot offline energy table (E9) into a subsystem the
//! runtime can actually serve against:
//!
//! * a [`Battery`] — capacity in (arbitrary) joules, drained by measured
//!   per-serve energy, never negative;
//! * [`EnergyAccount`]s — per-array integration of static + dynamic
//!   energy from `dsra_tech::EnergySplit` costs, with power-gating of
//!   idle arrays;
//! * the [`energy_per_block`] bridge both E9 (`dct_energy`) and the
//!   runtime profiles consume, so the offline table and the serving
//!   stack cannot drift.
//!
//! Every array runs at one clock, [`NOMINAL_FREQ_MHZ`], so one simulated
//! cycle is one time unit and leakage power is leakage energy per cycle.
//!
//! ## Quick tour
//!
//! ```
//! use dsra_power::{energy_per_block, Battery, EnergyAccount};
//! use dsra_tech::EnergySplit;
//!
//! let split = EnergySplit { dyn_energy_per_cycle: 40.0, leak_power: 10.0 };
//! // A 16-cycle block costs (40 + 10) × 16 joules…
//! let block = energy_per_block(&split, 16);
//! assert!((block - 800.0).abs() < 1e-9);
//! // …and an idle array leaks unless it is gated.
//! let mut powered = EnergyAccount::new("powered");
//! let mut gated = EnergyAccount::new("gated");
//! powered.charge_idle(16, split.leak_power, false);
//! gated.charge_idle(16, split.leak_power, true);
//! assert!(gated.total_j() < powered.total_j());
//!
//! // A battery serves blocks until it runs dry — never below zero.
//! let mut battery = Battery::new(2000.0);
//! let mut blocks = 0;
//! while !battery.is_empty() {
//!     battery.drain(block);
//!     blocks += 1;
//! }
//! assert_eq!(blocks, 3); // 800 + 800 + saturated remainder
//! ```

#![warn(missing_docs)]

pub mod account;
pub mod battery;

pub use account::{EnergyAccount, EnergyTotals};
pub use battery::{burn_projection, Battery};

use dsra_tech::EnergySplit;

/// The array clock every layer converts cycles with: reconfiguration µs,
/// the streaming frontends' cycles per virtual µs, and one simulated cycle
/// as one time unit.
pub const NOMINAL_FREQ_MHZ: f64 = 100.0;

/// Energy one block costs: dynamic energy plus the leakage each cycle
/// soaks up, × cycles. This is *the* energy-per-block producer —
/// `dsra_platform::profile_impl` and the E9 `dct_energy` table both call
/// it, so the number the run-time policies select on and the number the
/// offline table prints are one number.
pub fn energy_per_block(split: &EnergySplit, cycles_per_block: u64) -> f64 {
    (split.dyn_energy_per_cycle + split.leak_power) * cycles_per_block as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_energy_per_block_matches_legacy_power_times_cycles() {
        // Pre-power-subsystem, profiles priced a block as
        // `ImplCost::power() * cycles`. This must reproduce that exactly
        // or every E7/E11 selection would shift.
        let split = EnergySplit {
            dyn_energy_per_cycle: 123.25,
            leak_power: 77.5,
        };
        let legacy = (split.dyn_energy_per_cycle + split.leak_power) * 14.0;
        assert!((energy_per_block(&split, 14) - legacy).abs() < 1e-9);
    }
}
