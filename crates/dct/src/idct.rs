//! Inverse DCT on the DA array.
//!
//! A decoder needs the IDCT next to the forward transform; the paper's
//! reference \[8\] (an online CORDIC 2-D IDCT) shows the authors intended
//! the same fabric to host it. Since DA absorbs any fixed-coefficient
//! linear map, the orthonormal inverse (DCT-III, the transpose of the
//! forward matrix) maps onto the identical Fig.-4 structure: 8 serial
//! registers, 8 ROMs, 8 shift accumulators. Reconfiguring between forward
//! and inverse transforms is purely a ROM-content rewrite — measured by
//! the reconfiguration tests below.

use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};

use crate::da::{add_controls, da_lane, serializer, DaParams};
use crate::harness::{BlockIo, DctImpl};
use crate::reference;

/// Bit-serial DA inverse DCT (structure of Fig. 4, transposed coefficients).
#[derive(Debug)]
pub struct BasicIdct {
    netlist: Netlist,
    params: DaParams,
    cycles: u64,
    io: BlockIo,
}

impl BasicIdct {
    /// Builds the inverse mapping.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn new(params: DaParams) -> Result<Self> {
        let mut nl = Netlist::new("basic-idct");
        let ctl = add_controls(&mut nl)?;
        let mut srs: Vec<NodeId> = Vec::with_capacity(8);
        for u in 0..8 {
            let x = nl.input(format!("x{u}"), params.input_bits)?;
            srs.push(serializer(
                &mut nl,
                &format!("sr{u}"),
                (x, "out"),
                params.input_bits,
                &ctl,
            )?);
        }
        let addr_parts: Vec<(NodeId, &str)> = srs.iter().map(|&n| (n, "q")).collect();
        let addr = nl.concat("addr", &addr_parts)?;
        for i in 0..8 {
            // Row i of the inverse = column i of the forward matrix.
            let coeffs: Vec<f64> = (0..8).map(|u| reference::dct_coeff(u, i)).collect();
            let (_, acc) = da_lane(
                &mut nl,
                &format!("lane{i}"),
                (addr, "out"),
                &coeffs,
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            let y = nl.output(format!("y{i}"), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }
        let io = BlockIo::standard(&nl, &params, params.input_bits)?;
        Ok(BasicIdct {
            netlist: nl,
            params,
            cycles: u64::from(params.input_bits) + 2,
            io,
        })
    }

    /// Reconstructs 8 samples from 8 (integer-rounded) coefficients.
    ///
    /// # Errors
    /// Propagates driver errors.
    pub fn inverse(&self, coeffs: &[i64; 8]) -> Result<[f64; 8]> {
        self.transform(coeffs)
    }
}

impl DctImpl for BasicIdct {
    fn name(&self) -> &'static str {
        "BASIC IDCT"
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn params(&self) -> &DaParams {
        &self.params
    }

    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
        self.io
            .single_phase_batch(&self.netlist, self.params.input_bits, xs, out);
        Ok(())
    }

    fn cycles_per_block(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_da::BasicDa;

    #[test]
    fn same_structure_as_forward() {
        let inv = BasicIdct::new(DaParams::precise()).unwrap();
        let r = inv.report();
        assert_eq!(r.table1_row(), [0, 0, 8, 8, 8]);
        assert_eq!(r.total_clusters(), 24);
    }

    #[test]
    fn forward_then_inverse_round_trips() {
        let fwd = BasicDa::new(DaParams::precise()).unwrap();
        let inv = BasicIdct::new(DaParams::precise()).unwrap();
        let x = [120i64, -80, 44, 9, -33, 71, -2, 15];
        let coeffs = fwd.transform(&x).unwrap();
        let rounded: [i64; 8] = std::array::from_fn(|u| coeffs[u].round() as i64);
        let back = inv.inverse(&rounded).unwrap();
        for (i, (orig, rec)) in x.iter().zip(back.iter()).enumerate() {
            assert!(
                (*orig as f64 - rec).abs() < 1.5,
                "sample {i}: {orig} vs {rec}"
            );
        }
    }

    #[test]
    fn inverse_matches_reference_idct() {
        let inv = BasicIdct::new(DaParams::precise()).unwrap();
        let coeffs = [200i64, -31, 55, 0, -12, 7, 99, -64];
        let hw = inv.inverse(&coeffs).unwrap();
        let cf: [f64; 8] = std::array::from_fn(|u| coeffs[u] as f64);
        let sw = reference::idct_1d(&cf);
        for (i, (h, s)) in hw.iter().zip(sw.iter()).enumerate() {
            assert!((h - s).abs() < 0.5, "sample {i}: {h} vs {s}");
        }
    }

    #[test]
    fn forward_to_inverse_is_a_rom_only_reconfiguration() {
        use dsra_core::prelude::*;
        // Same structure, different ROM contents: switching between the
        // forward and inverse transform rewrites memory frames only.
        let fwd = BasicDa::new(DaParams::precise()).unwrap();
        let inv = BasicIdct::new(DaParams::precise()).unwrap();
        let fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
        let bs = |nl: &Netlist| {
            let p = place(nl, &fabric, PlacerOptions::default()).unwrap();
            let r = route(nl, &fabric, &p, RouterOptions::default()).unwrap();
            Bitstream::generate(nl, &fabric, &p, &r)
        };
        let bf = bs(fwd.netlist());
        let bi = bs(inv.netlist());
        let diff = bf.diff_bits(&bi);
        assert!(diff > 0, "contents must differ");
        // Far less than a full rewrite: structure and routing coincide.
        assert!(
            diff < bf.total_bits() / 2,
            "diff {diff} should be mostly ROM contents (total {})",
            bf.total_bits()
        );
    }
}
