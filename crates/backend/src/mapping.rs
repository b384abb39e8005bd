//! The catalogue of §3 DCT mappings, as buildable recipes.
//!
//! Lives here (rather than in the runtime) because every backend needs to
//! resolve a kernel display name to a concrete implementation: the array
//! backend builds the netlist-backed [`DctImpl`], the golden backend builds
//! its software model from the same identity.

use dsra_core::error::Result;
use dsra_dct::{BasicDa, Cordic1, Cordic2, DaParams, DctImpl, MixedRom, SccEvenOdd, SccFull};

/// The six §3 DCT mappings, as schedulable kernel recipes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DctMapping {
    /// Fig. 4 basic distributed arithmetic.
    BasicDa,
    /// Mixed-ROM decomposition.
    MixedRom,
    /// CORDIC rotator, variant 1.
    Cordic1,
    /// CORDIC rotator, variant 2.
    Cordic2,
    /// Skew-circular convolution, even/odd split.
    SccEvenOdd,
    /// Skew-circular convolution, full.
    SccFull,
}

impl DctMapping {
    /// All six mappings in Table-1 column order (plus the basic DA first,
    /// matching `dsra_dct::all_impls`).
    pub const ALL: [DctMapping; 6] = [
        DctMapping::BasicDa,
        DctMapping::MixedRom,
        DctMapping::Cordic1,
        DctMapping::Cordic2,
        DctMapping::SccEvenOdd,
        DctMapping::SccFull,
    ];

    /// The mapping's display name (identical to its `DctImpl::name`).
    pub fn name(self) -> &'static str {
        match self {
            DctMapping::BasicDa => "BASIC DA",
            DctMapping::MixedRom => "MIX ROM",
            DctMapping::Cordic1 => "CORDIC 1",
            DctMapping::Cordic2 => "CORDIC 2",
            DctMapping::SccEvenOdd => "SCC E/O",
            DctMapping::SccFull => "SCC",
        }
    }

    /// Resolves a profile name back to the mapping.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Builds the cycle-accurate implementation.
    ///
    /// # Errors
    /// `CoreError::InvalidWidth` when `params` fail [`DaParams::validate`];
    /// otherwise netlist construction errors.
    pub fn build(self, params: DaParams) -> Result<Box<dyn DctImpl>> {
        Ok(match self {
            DctMapping::BasicDa => Box::new(BasicDa::new(params)?),
            DctMapping::MixedRom => Box::new(MixedRom::new(params)?),
            DctMapping::Cordic1 => Box::new(Cordic1::new(params)?),
            DctMapping::Cordic2 => Box::new(Cordic2::new(params)?),
            DctMapping::SccEvenOdd => Box::new(SccEvenOdd::new(params)?),
            DctMapping::SccFull => Box::new(SccFull::new(params)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_names_round_trip() {
        for m in DctMapping::ALL {
            assert_eq!(DctMapping::from_name(m.name()), Some(m));
            let imp = m.build(DaParams::precise()).unwrap();
            assert_eq!(imp.name(), m.name(), "recipe and impl must agree");
        }
        assert_eq!(DctMapping::from_name("nope"), None);
    }
}
