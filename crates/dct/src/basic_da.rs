//! §3.1 / Fig. 4 — the simple bit-serial distributed-arithmetic DCT.
//!
//! Eight shift registers serialise the samples; the eight serial bits form a
//! common 8-bit address into eight 256-word ROMs (one per coefficient); each
//! ROM feeds a shift-accumulator. "All the N memories receive the same
//! address."

use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};

use crate::da::{add_controls, da_lane, serializer, DaParams};
use crate::harness::{BlockIo, DctImpl};
use crate::reference;

/// The Fig.-4 basic DA implementation.
#[derive(Debug)]
pub struct BasicDa {
    netlist: Netlist,
    params: DaParams,
    cycles: u64,
    io: BlockIo,
}

impl BasicDa {
    /// Builds the mapping with the given fixed-point parameters.
    ///
    /// # Errors
    /// Fails only on internal netlist inconsistencies (a bug), surfaced as
    /// [`dsra_core::error::CoreError`].
    pub fn new(params: DaParams) -> Result<Self> {
        let mut nl = Netlist::new("basic-da");
        let ctl = add_controls(&mut nl)?;
        let mut srs: Vec<NodeId> = Vec::with_capacity(8);
        for i in 0..8 {
            let x = nl.input(format!("x{i}"), params.input_bits)?;
            let sr = serializer(
                &mut nl,
                &format!("sr{i}"),
                (x, "out"),
                params.input_bits,
                &ctl,
            )?;
            srs.push(sr);
        }
        let addr_parts: Vec<(NodeId, &str)> = srs.iter().map(|&n| (n, "q")).collect();
        let addr = nl.concat("addr", &addr_parts)?;
        for u in 0..8 {
            let coeffs: Vec<f64> = (0..8).map(|i| reference::dct_coeff(u, i)).collect();
            let (_rom, acc) = da_lane(
                &mut nl,
                &format!("lane{u}"),
                (addr, "out"),
                &coeffs,
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            let y = nl.output(format!("y{u}"), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }
        let io = BlockIo::standard(&nl, &params, params.input_bits)?;
        Ok(BasicDa {
            netlist: nl,
            params,
            cycles: u64::from(params.input_bits) + 2,
            io,
        })
    }
}

impl DctImpl for BasicDa {
    fn name(&self) -> &'static str {
        "BASIC DA"
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
    use crate::harness::measure_accuracy;

    #[test]
    fn table1_row_matches_fig4() {
        let imp = BasicDa::new(DaParams::precise()).unwrap();
        let r = imp.report();
        assert_eq!(r.table1_row(), [0, 0, 8, 8, 8]);
        assert_eq!(r.total_clusters(), 24);
        assert_eq!(r.memory_words(), 8 * 256);
    }

    #[test]
    fn dc_block_transforms_exactly() {
        let imp = BasicDa::new(DaParams::precise()).unwrap();
        let y = imp.transform(&[100; 8]).unwrap();
        let sw = reference::dct_1d_int(&[100; 8]);
        for (h, s) in y.iter().zip(sw.iter()) {
            assert!((h - s).abs() < 0.5, "hw {h} vs sw {s}");
        }
    }

    #[test]
    fn random_blocks_accurate_with_precise_params() {
        let imp = BasicDa::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 12, 2047, 42).unwrap();
        // Exact DA: error bounded by ROM coefficient rounding alone.
        assert!(acc.max_abs_err < 1.5, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn paper_widths_show_truncation_noise_but_stay_usable() {
        let imp = BasicDa::new(DaParams::paper()).unwrap();
        let acc = measure_accuracy(&imp, 8, 255, 42).unwrap();
        // 8-bit ROMs / 16-bit accs: coarse but bounded.
        assert!(acc.max_abs_err < 40.0, "max err {}", acc.max_abs_err);
        let precise = BasicDa::new(DaParams::precise()).unwrap();
        let accp = measure_accuracy(&precise, 8, 255, 42).unwrap();
        assert!(accp.max_abs_err < acc.max_abs_err);
    }
}
