//! Configuration storage and dynamic reconfiguration timing.
//!
//! §5: the arrays "have the ability to be dynamically reconfigured to
//! support different implementations of the same algorithms for different
//! run-time constraints, such as low-battery conditions and noisy channels
//! in mobile devices." This module prices that switch: configurations are
//! kept as bitstreams for one fabric, and swapping to another implementation
//! rewrites only the differing bits (partial reconfiguration), or the full
//! bitstream on a cold array, at [`CFG_BUS_BITS_PER_CYCLE`] bits per cycle.

use std::collections::BTreeMap;

use dsra_core::bitstream::Bitstream;
use dsra_core::error::{CoreError, Result};
use dsra_power::NOMINAL_FREQ_MHZ;

/// Configuration bits the SoC's configuration bus writes per clock cycle.
pub const CFG_BUS_BITS_PER_CYCLE: u64 = 32;

/// Configuration-bus cycles that writing `bits` takes: the one pricing
/// rule both [`ReconfigManager::switch_to`] and the runtime's placement
/// charge.
pub fn bus_cycles(bits: u64) -> u64 {
    bits.div_ceil(CFG_BUS_BITS_PER_CYCLE)
}

/// Cost of one reconfiguration event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigReport {
    /// Bits actually written.
    pub bits_written: u64,
    /// Cycles on the configuration bus.
    pub cycles: u64,
    /// Wall-clock microseconds at the nominal array clock
    /// ([`NOMINAL_FREQ_MHZ`], 100 MHz).
    pub micros: f64,
}

impl ReconfigReport {
    /// The free report of a no-op switch (already-loaded configuration).
    pub const NOOP: ReconfigReport = ReconfigReport {
        bits_written: 0,
        cycles: 0,
        micros: 0.0,
    };
}

/// A library of named configurations for one fabric plus the currently
/// loaded one.
#[derive(Debug, Default)]
pub struct ReconfigManager {
    store: BTreeMap<String, Bitstream>,
    current: Option<String>,
}

impl ReconfigManager {
    /// Registers a configuration under a name.
    pub fn register(&mut self, name: impl Into<String>, bitstream: Bitstream) {
        self.store.insert(name.into(), bitstream);
    }

    /// Names of all registered configurations.
    pub fn available(&self) -> Vec<&str> {
        self.store.keys().map(String::as_str).collect()
    }

    /// The currently loaded configuration, if any.
    pub fn current(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Loads `name`, returning the switching cost.
    ///
    /// Switching to the configuration that is already loaded is an explicit
    /// zero-cost no-op: nothing is written and [`ReconfigReport::NOOP`] is
    /// returned immediately. The diff-aware scheduler in `dsra-runtime`
    /// leans on this — routing a job to the array that already holds its
    /// kernel must cost exactly nothing.
    ///
    /// Otherwise the cost is the bit-difference against the currently
    /// loaded configuration (partial reconfiguration), or the full bitstream
    /// from a cold start.
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if the name was never registered.
    pub fn switch_to(&mut self, name: &str) -> Result<ReconfigReport> {
        if self.current.as_deref() == Some(name) {
            return Ok(ReconfigReport::NOOP);
        }
        let target = self
            .store
            .get(name)
            .ok_or_else(|| CoreError::UnknownNode(name.to_owned()))?;
        let bits_written = match &self.current {
            Some(cur) => self.store[cur].diff_bits(target),
            None => target.total_bits(),
        };
        let cycles = bus_cycles(bits_written);
        let report = ReconfigReport {
            bits_written,
            cycles,
            micros: cycles as f64 / NOMINAL_FREQ_MHZ,
        };
        self.current = Some(name.to_owned());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_core::prelude::*;

    fn bitstream_for(mode: AbsDiffMode) -> Bitstream {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let y = nl.output("y", 8).unwrap();
        let ad = nl
            .cluster("ad", ClusterCfg::AbsDiff { width: 8, mode })
            .unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        let f = Fabric::me_array(8, 8, MeshSpec::mixed());
        let p = place(&nl, &f).unwrap();
        let r = route(&nl, &f, &p).unwrap();
        Bitstream::generate(&nl, &f, &p, &r)
    }

    #[test]
    fn cold_start_writes_full_bitstream() {
        let mut mgr = ReconfigManager::default();
        let bs = bitstream_for(AbsDiffMode::AbsDiff);
        let total = bs.total_bits();
        mgr.register("sad", bs);
        let rep = mgr.switch_to("sad").unwrap();
        assert_eq!(rep.bits_written, total);
        assert_eq!(mgr.current(), Some("sad"));
    }

    #[test]
    fn partial_switch_is_cheaper_than_full() {
        let mut mgr = ReconfigManager::default();
        mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
        mgr.register("sub", bitstream_for(AbsDiffMode::Sub));
        mgr.switch_to("sad").unwrap();
        let partial = mgr.switch_to("sub").unwrap();
        let full = mgr.store["sub"].total_bits();
        assert!(partial.bits_written > 0);
        assert!(
            partial.bits_written < full,
            "partial {} should be below full {}",
            partial.bits_written,
            full
        );
    }

    #[test]
    fn switching_to_current_is_free() {
        let mut mgr = ReconfigManager::default();
        mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
        mgr.switch_to("sad").unwrap();
        let rep = mgr.switch_to("sad").unwrap();
        assert_eq!(rep.bits_written, 0);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn switch_to_current_is_an_explicit_noop() {
        // The runtime scheduler depends on this exact behaviour: re-loading
        // the already-current configuration writes nothing, costs no cycles
        // and leaves the configuration loaded.
        let mut mgr = ReconfigManager::default();
        mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
        mgr.switch_to("sad").unwrap();
        for _ in 0..3 {
            let rep = mgr.switch_to("sad").unwrap();
            assert_eq!(rep, ReconfigReport::NOOP);
        }
        assert_eq!(mgr.current(), Some("sad"));
    }

    #[test]
    fn unknown_configuration_is_an_error() {
        let mut mgr = ReconfigManager::default();
        assert!(mgr.switch_to("nope").is_err());
    }

    #[test]
    fn cycles_respect_bus_width() {
        // Cold and partial writes alike take one bus cycle per started
        // 32-bit word.
        let mut mgr = ReconfigManager::default();
        mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
        mgr.register("sub", bitstream_for(AbsDiffMode::Sub));
        for name in ["sad", "sub"] {
            let rep = mgr.switch_to(name).unwrap();
            assert!(rep.bits_written > 0);
            assert_eq!(rep.cycles, rep.bits_written.div_ceil(32));
        }
        assert_eq!(bus_cycles(0), 0);
        assert_eq!(bus_cycles(1), 1);
        assert_eq!(bus_cycles(CFG_BUS_BITS_PER_CYCLE), 1);
        assert_eq!(bus_cycles(CFG_BUS_BITS_PER_CYCLE + 1), 2);
    }
}
