//! Configuration storage and dynamic reconfiguration timing.
//!
//! §5: the arrays "have the ability to be dynamically reconfigured to
//! support different implementations of the same algorithms for different
//! run-time constraints, such as low-battery conditions and noisy channels
//! in mobile devices." This module prices that switch: configurations are
//! kept as bitstreams for one fabric, and swapping to another implementation
//! costs `differing bits / configuration-bus width` cycles (partial
//! reconfiguration) or a full rewrite.

use std::collections::BTreeMap;

use dsra_core::bitstream::Bitstream;
use dsra_core::error::{CoreError, Result};
use dsra_power::NOMINAL_FREQ_MHZ;

/// SoC-level constants for the configuration path.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// Configuration bits written per clock cycle (config-bus width).
    pub cfg_bus_bits_per_cycle: u32,
    /// `true` if the fabric supports partial reconfiguration (only
    /// differing frames are rewritten).
    pub partial_reconfig: bool,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            cfg_bus_bits_per_cycle: 32,
            partial_reconfig: true,
        }
    }
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
    soc: SocConfig,
    store: BTreeMap<String, Bitstream>,
    current: Option<String>,
    history: Vec<(String, ReconfigReport)>,
}

impl ReconfigManager {
    /// Creates a manager with the given SoC constants.
    pub fn new(soc: SocConfig) -> Self {
        ReconfigManager {
            soc,
            ..Default::default()
        }
    }

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

    /// Switch history (name, cost) in order.
    pub fn history(&self) -> &[(String, ReconfigReport)] {
        &self.history
    }

    /// Loads `name`, returning the switching cost.
    ///
    /// Switching to the configuration that is already loaded is an explicit
    /// zero-cost no-op: nothing is written, no history entry is recorded and
    /// [`ReconfigReport::NOOP`] is returned immediately. The diff-aware
    /// scheduler in `dsra-runtime` leans on this — routing a job to the
    /// array that already holds its kernel must cost exactly nothing.
    ///
    /// Otherwise, with partial reconfiguration the cost is the
    /// bit-difference against the currently loaded configuration; without it
    /// (or from a cold start) the full bitstream is written.
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
        let bits_written = match (&self.current, self.soc.partial_reconfig) {
            (Some(cur), true) => {
                let cur_bs = &self.store[cur];
                cur_bs.diff_bits(target)
            }
            _ => target.total_bits(),
        };
        let cycles = bits_written.div_ceil(u64::from(self.soc.cfg_bus_bits_per_cycle));
        let report = ReconfigReport {
            bits_written,
            cycles,
            micros: cycles as f64 / NOMINAL_FREQ_MHZ,
        };
        self.current = Some(name.to_owned());
        self.history.push((name.to_owned(), report));
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
        let mut mgr = ReconfigManager::new(SocConfig::default());
        let bs = bitstream_for(AbsDiffMode::AbsDiff);
        let total = bs.total_bits();
        mgr.register("sad", bs);
        let rep = mgr.switch_to("sad").unwrap();
        assert_eq!(rep.bits_written, total);
        assert_eq!(mgr.current(), Some("sad"));
    }

    #[test]
    fn partial_switch_is_cheaper_than_full() {
        let mut mgr = ReconfigManager::new(SocConfig::default());
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
        let mut mgr = ReconfigManager::new(SocConfig::default());
        mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
        mgr.switch_to("sad").unwrap();
        let rep = mgr.switch_to("sad").unwrap();
        assert_eq!(rep.bits_written, 0);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn switch_to_current_is_an_explicit_noop() {
        // The runtime scheduler depends on this exact behaviour: re-loading
        // the already-current configuration writes nothing, costs no cycles,
        // records no history entry, and holds even without partial
        // reconfiguration support.
        for partial in [true, false] {
            let mut mgr = ReconfigManager::new(SocConfig {
                partial_reconfig: partial,
                ..Default::default()
            });
            mgr.register("sad", bitstream_for(AbsDiffMode::AbsDiff));
            mgr.switch_to("sad").unwrap();
            let history_len = mgr.history().len();
            for _ in 0..3 {
                let rep = mgr.switch_to("sad").unwrap();
                assert_eq!(rep, ReconfigReport::NOOP);
            }
            assert_eq!(mgr.history().len(), history_len, "no-ops must not log");
            assert_eq!(mgr.current(), Some("sad"));
        }
    }

    #[test]
    fn unknown_configuration_is_an_error() {
        let mut mgr = ReconfigManager::new(SocConfig::default());
        assert!(mgr.switch_to("nope").is_err());
    }

    #[test]
    fn cycles_respect_bus_width() {
        let mut wide = ReconfigManager::new(SocConfig {
            cfg_bus_bits_per_cycle: 64,
            ..Default::default()
        });
        let mut narrow = ReconfigManager::new(SocConfig {
            cfg_bus_bits_per_cycle: 8,
            ..Default::default()
        });
        let bs = bitstream_for(AbsDiffMode::AbsDiff);
        wide.register("x", bs.clone());
        narrow.register("x", bs);
        let w = wide.switch_to("x").unwrap();
        let n = narrow.switch_to("x").unwrap();
        assert_eq!(w.cycles, w.bits_written.div_ceil(64));
        assert_eq!(n.cycles, n.bits_written.div_ceil(8));
        assert!(n.cycles >= w.cycles);
    }
}
