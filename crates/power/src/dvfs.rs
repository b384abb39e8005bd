//! DVFS operating points: voltage/frequency pairs scaling the technology
//! model's two energy classes.
//!
//! Dynamic energy per operation scales with the square of the supply
//! voltage (CV² switching); leakage *power* scales roughly linearly with
//! voltage, and because it is paid per unit time rather than per toggle,
//! running slower makes every operation carry more leakage — the classic
//! DVFS trade-off the energy accounts integrate.

/// Nominal supply voltage every [`crate::EnergySplit`]-derived number is
/// calibrated at (arbitrary volts; only ratios matter, DESIGN.md §2).
pub const NOMINAL_VOLTAGE: f64 = 1.2;

/// Nominal array clock, the one clock every layer converts cycles with:
/// reconfiguration µs, the streaming frontends' cycles per virtual µs, and
/// one simulated cycle as one time unit at this point.
pub const NOMINAL_FREQ_MHZ: f64 = 100.0;

/// One voltage/frequency operating point of the array power domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Display name.
    pub name: &'static str,
    /// Supply voltage (arbitrary volts, nominal 1.2).
    pub voltage: f64,
    /// Clock frequency in MHz (nominal 100).
    pub freq_mhz: f64,
}

impl OperatingPoint {
    /// Overdrive: fastest, most energy per operation.
    pub const TURBO: OperatingPoint = OperatingPoint {
        name: "turbo",
        voltage: 1.32,
        freq_mhz: 133.0,
    };
    /// The calibration point of the technology model.
    pub const NOMINAL: OperatingPoint = OperatingPoint {
        name: "nominal",
        voltage: NOMINAL_VOLTAGE,
        freq_mhz: NOMINAL_FREQ_MHZ,
    };
    /// Battery-saver point.
    pub const ECO: OperatingPoint = OperatingPoint {
        name: "eco",
        voltage: 1.0,
        freq_mhz: 66.0,
    };
    /// Deep power saving (near-threshold-ish).
    pub const CRAWL: OperatingPoint = OperatingPoint {
        name: "crawl",
        voltage: 0.85,
        freq_mhz: 33.0,
    };

    /// The supported points, fastest first. Voltage and frequency are
    /// jointly monotone down the table, so a lower V·f product always
    /// means lower dynamic energy per operation (pinned by a property
    /// test).
    pub const ALL: [OperatingPoint; 4] = [
        OperatingPoint::TURBO,
        OperatingPoint::NOMINAL,
        OperatingPoint::ECO,
        OperatingPoint::CRAWL,
    ];

    /// Dynamic-energy multiplier vs. nominal: (V / V_nom)².
    pub fn dyn_energy_scale(&self) -> f64 {
        let r = self.voltage / NOMINAL_VOLTAGE;
        r * r
    }

    /// Leakage-power multiplier vs. nominal: V / V_nom.
    pub fn leak_power_scale(&self) -> f64 {
        self.voltage / NOMINAL_VOLTAGE
    }

    /// Clock speed-up vs. nominal (cycles per time unit).
    pub fn freq_scale(&self) -> f64 {
        self.freq_mhz / NOMINAL_FREQ_MHZ
    }

    /// The V·f product — the conventional "how hard is this point
    /// driven" ordering key.
    pub fn vf_product(&self) -> f64 {
        self.voltage * self.freq_mhz
    }

    /// Leakage *energy* charged per cycle at this point: leakage power
    /// scales down with voltage, but a slower clock stretches every cycle,
    /// so the per-cycle share is `leak × (V/V_nom) / (f/f_nom)`.
    pub fn leak_energy_per_cycle(&self, leak_power: f64) -> f64 {
        leak_power * self.leak_power_scale() / self.freq_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scales_are_unity() {
        let p = OperatingPoint::NOMINAL;
        assert!((p.dyn_energy_scale() - 1.0).abs() < 1e-12);
        assert!((p.leak_power_scale() - 1.0).abs() < 1e-12);
        assert!((p.freq_scale() - 1.0).abs() < 1e-12);
        assert!((p.leak_energy_per_cycle(7.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn table_is_jointly_monotone() {
        for w in OperatingPoint::ALL.windows(2) {
            assert!(w[0].voltage > w[1].voltage);
            assert!(w[0].freq_mhz > w[1].freq_mhz);
            assert!(w[0].vf_product() > w[1].vf_product());
        }
    }

    #[test]
    fn slow_points_pay_more_leakage_per_cycle() {
        // The DVFS trade-off: CRAWL's cycles are 3x longer than nominal,
        // so even at lower voltage each cycle soaks up more leakage.
        let leak = 100.0;
        assert!(
            OperatingPoint::CRAWL.leak_energy_per_cycle(leak)
                > OperatingPoint::NOMINAL.leak_energy_per_cycle(leak)
        );
    }
}
