//! # dsra-platform — the reconfigurable System-on-Chip model
//!
//! Fig. 1 of the paper: processors, DSPs and the domain-specific arrays on
//! one SoC, with a controller generating addresses and configurations. This
//! crate models the platform-level behaviour the paper claims in §5:
//! dynamic reconfiguration between implementations of the same kernel under
//! run-time constraints, with measured switching costs.
//!
//! ## Quick tour
//!
//! ```
//! use dsra_platform::{select, Condition, ImplProfile};
//!
//! let profiles = vec![
//!     ImplProfile {
//!         name: "BASIC DA".into(),
//!         clusters: 24,
//!         config_bits: 34_000,
//!         cycles_per_block: 14,
//!         energy_per_block: 9.0,
//!         max_abs_err: 0.8,
//!     },
//!     ImplProfile {
//!         name: "MIX ROM".into(),
//!         clusters: 32,
//!         config_bits: 4_000,
//!         cycles_per_block: 16,
//!         energy_per_block: 6.0,
//!         max_abs_err: 0.9,
//!     },
//! ];
//! // Battery down to 15 % → the controller swaps in the lowest-energy
//! // mapping (the condition carries the measured charge reading).
//! let cond = Condition::LowBattery { charge_pct: 15 };
//! assert_eq!(select(&profiles, cond).unwrap().name, "MIX ROM");
//! ```

#![warn(missing_docs)]

pub mod policy;
pub mod reconfig;
pub mod scenario;

pub use policy::{select, Condition, ImplProfile};
pub use reconfig::{bus_cycles, ReconfigManager, ReconfigReport, CFG_BUS_BITS_PER_CYCLE};
pub use scenario::{
    compile_netlist, dynamic_encode, profile_all_impls, profile_impl, profiling_activity,
    profiling_split, standard_da_fabric, CompiledArtifact, ProfiledImpl, ScenarioFrame,
};
