//! §3.2 / Fig. 5 — the Mixed-ROM DCT: even/odd matrix split.
//!
//! Algebraic manipulation (Lee's decomposition, refs \[6\]\[7\] of the
//! paper) reduces the 8×8 DCT matrix to two 4×4 products on the butterfly
//! sums `a_n = x_n + x_{7-n}` and differences `b_n = x_n − x_{7-n}`. Each
//! 4-input DA unit needs a 16-word ROM — "16 times less than the previous
//! implementation, but some overhead has been incurred in the form of
//! adders".

use dsra_core::cluster::{AddShiftCfg, ClusterCfg};
use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};

use crate::da::{add_controls, da_lane, serializer, DaParams};
use crate::harness::{BlockIo, DctImpl};
use crate::reference;

/// Internal butterfly datapath width (sign-extended from the input width).
pub(crate) const STAGE_WIDTH: u8 = 16;

/// The Fig.-5 Mixed-ROM implementation.
#[derive(Debug)]
pub struct MixedRom {
    netlist: Netlist,
    params: DaParams,
    cycles: u64,
    io: BlockIo,
}

/// Builds the shared front half of the Mixed-ROM/SCC structures: inputs,
/// sign extension, and the a/b butterfly stage. Returns `(a, b)` adder and
/// subtracter nodes (outputs on port `y`).
pub(crate) fn build_butterfly_stage(
    nl: &mut Netlist,
    input_bits: u8,
) -> Result<([NodeId; 4], [NodeId; 4])> {
    let mut xs = Vec::with_capacity(8);
    for i in 0..8 {
        let x = nl.input(format!("x{i}"), input_bits)?;
        let se = nl.sign_extend(format!("se{i}"), (x, "out"), STAGE_WIDTH)?;
        xs.push(se);
    }
    let mut adds = [NodeId(0); 4];
    let mut subs = [NodeId(0); 4];
    for n in 0..4 {
        let add = nl.cluster(
            format!("add_a{n}"),
            ClusterCfg::AddShift(AddShiftCfg::Add {
                width: STAGE_WIDTH,
                serial: false,
            }),
        )?;
        nl.connect((xs[n], "out"), (add, "a"))?;
        nl.connect((xs[7 - n], "out"), (add, "b"))?;
        adds[n] = add;
        let sub = nl.cluster(
            format!("sub_b{n}"),
            ClusterCfg::AddShift(AddShiftCfg::Sub {
                width: STAGE_WIDTH,
                serial: false,
            }),
        )?;
        nl.connect((xs[n], "out"), (sub, "a"))?;
        nl.connect((xs[7 - n], "out"), (sub, "b"))?;
        subs[n] = sub;
    }
    Ok((adds, subs))
}

impl MixedRom {
    /// Builds the mapping.
    ///
    /// # Errors
    /// Internal netlist inconsistencies only.
    pub fn new(params: DaParams) -> Result<Self> {
        Self::with_odd_coeffs(
            params,
            |k, n| reference::dct_coeff(2 * k + 1, n),
            "mixed-rom",
        )
    }

    /// Shared constructor: the SCC even/odd variant reuses this structure
    /// with its own odd-part coefficient layout.
    pub(crate) fn with_odd_coeffs(
        params: DaParams,
        odd_coeff: impl Fn(usize, usize) -> f64,
        name: &str,
    ) -> Result<Self> {
        let mut nl = Netlist::new(name);
        let ctl = add_controls(&mut nl)?;
        let (adds, subs) = build_butterfly_stage(&mut nl, params.input_bits)?;
        // Serialise the butterfly outputs.
        let mut sa = Vec::with_capacity(4);
        let mut sb = Vec::with_capacity(4);
        for n in 0..4 {
            sa.push(serializer(
                &mut nl,
                &format!("sra{n}"),
                (adds[n], "y"),
                STAGE_WIDTH,
                &ctl,
            )?);
            sb.push(serializer(
                &mut nl,
                &format!("srb{n}"),
                (subs[n], "y"),
                STAGE_WIDTH,
                &ctl,
            )?);
        }
        let addr_e_parts: Vec<(NodeId, &str)> = sa.iter().map(|&n| (n, "q")).collect();
        let addr_e = nl.concat("addr_e", &addr_e_parts)?;
        let addr_o_parts: Vec<(NodeId, &str)> = sb.iter().map(|&n| (n, "q")).collect();
        let addr_o = nl.concat("addr_o", &addr_o_parts)?;
        // Even lanes: X_{2k} = Σ a_n · dct(2k, n).
        for k in 0..4 {
            let coeffs: Vec<f64> = (0..4).map(|n| reference::dct_coeff(2 * k, n)).collect();
            let (_, acc) = da_lane(
                &mut nl,
                &format!("even{k}"),
                (addr_e, "out"),
                &coeffs,
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            let y = nl.output(format!("y{}", 2 * k), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }
        // Odd lanes: X_{2k+1} = Σ b_n · odd_coeff(k, n).
        for k in 0..4 {
            let coeffs: Vec<f64> = (0..4).map(|n| odd_coeff(k, n)).collect();
            let (_, acc) = da_lane(
                &mut nl,
                &format!("odd{k}"),
                (addr_o, "out"),
                &coeffs,
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            let y = nl.output(format!("y{}", 2 * k + 1), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }
        // Butterfly sums occupy one extra bit: stream two guard cycles.
        let stream_bits = params.input_bits + 2;
        let io = BlockIo::standard(&nl, &params, stream_bits)?;
        Ok(MixedRom {
            netlist: nl,
            params,
            cycles: u64::from(stream_bits) + 2,
            io,
        })
    }
}

impl DctImpl for MixedRom {
    fn name(&self) -> &'static str {
        "MIX ROM"
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
    fn table1_column_matches_paper() {
        let imp = MixedRom::new(DaParams::precise()).unwrap();
        let r = imp.report();
        // Table 1, MIX ROM column: 4 / 4 / 8 / 8, mem 8, total 32.
        assert_eq!(r.table1_row(), [4, 4, 8, 8, 8]);
        assert_eq!(r.add_shift_total(), 24);
        assert_eq!(r.total_clusters(), 32);
        // 16-word ROMs: 16x smaller than Fig. 4's 256-word ROMs.
        assert_eq!(r.memory_words(), 8 * 16);
    }

    #[test]
    fn matches_reference_on_random_blocks() {
        let imp = MixedRom::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 12, 2047, 99).unwrap();
        assert!(acc.max_abs_err < 1.5, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn impulse_responses_match_reference() {
        let imp = MixedRom::new(DaParams::precise()).unwrap();
        for pos in 0..8 {
            let mut x = [0i64; 8];
            x[pos] = 1000;
            let hw = imp.transform(&x).unwrap();
            let sw = reference::dct_1d_int(&x);
            for (u, (h, s)) in hw.iter().zip(sw.iter()).enumerate() {
                assert!((h - s).abs() < 1.0, "impulse {pos} coeff {u}: {h} vs {s}");
            }
        }
    }
}
