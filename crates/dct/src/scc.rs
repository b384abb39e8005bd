//! §3.5 / Figs. 8–9 — Li's skew-circular-convolution DCT formulations.
//!
//! Li's algorithm (\[11\] of the paper) exploits the multiplicative group
//! structure of odd residues modulo 4N: every odd `u (mod 32)` is `±3^e` for
//! a unique exponent `e ∈ Z₈`, so products `(2n+1)(2k+1)` become exponent
//! *sums* and the odd-part DCT matrix becomes (skew-)circulant in the
//! mapped index space:
//!
//! ```text
//! cos((2n+1)(2k+1)·π/16) = C[(e(2n+1) + e(2k+1)) mod 8],
//! C[e] = cos(3^e · π/16),     C[e+4] = −C[e]   (the "skew" wrap)
//! ```
//!
//! * [`SccEvenOdd`] (Fig. 8) splits even/odd like the Mixed-ROM mapping; its
//!   odd-part 16-word ROMs all read from the shared table `C` at rotated
//!   offsets.
//! * [`SccFull`] (Fig. 9) skips the butterfly stage entirely: 256-word ROMs
//!   absorb the full coefficient rows ("16 times more \[ROM\] than the
//!   previous implementation but does not require adder/subtracters"). The
//!   four odd-output ROMs are exact rotations of one another in the
//!   exponent-mapped input order.

#![allow(clippy::needless_range_loop)] // index-coupled matrix math reads clearer

use dsra_core::error::Result;
use dsra_core::netlist::{Netlist, NodeId};

use crate::da::{add_controls, da_lane, serializer, DaParams};
use crate::harness::{BlockIo, DctImpl};
use crate::mixed_rom::MixedRom;
use crate::reference;

/// Exponent map of the group of odd residues mod 32: returns `e` such that
/// `u ≡ ±3^e (mod 32)`.
///
/// # Panics
/// Panics if `u` is even.
pub fn exponent_of(u: usize) -> usize {
    assert!(u % 2 == 1, "exponent map defined on odd residues");
    let mut p = 1usize;
    for e in 0..8 {
        if p == u % 32 || (32 - p) == u % 32 {
            return e;
        }
        p = (p * 3) % 32;
    }
    unreachable!("±3^e covers all odd residues mod 32");
}

/// The shared coefficient table `C[e] = α·cos(3^e·π/16)` (orthonormal DCT
/// scaling included).
pub fn shared_table() -> [f64; 8] {
    let alpha = reference::alpha(1);
    let mut c = [0.0; 8];
    let mut p = 1u32;
    for e in 0..8 {
        c[e] = alpha * (f64::from(p) * std::f64::consts::PI / 16.0).cos();
        p = (p * 3) % 32;
    }
    c
}

/// Odd-part coefficient in Li's exponent-mapped form:
/// `dct(2k+1, n) = C[(e(2n+1)+e(2k+1)) mod 8]`.
pub fn scc_odd_coeff(k: usize, n: usize) -> f64 {
    let c = shared_table();
    c[(exponent_of(2 * n + 1) + exponent_of(2 * k + 1)) % 8]
}

/// Fig. 8 — SCC with even/odd split. Structurally a Mixed-ROM mapping whose
/// odd ROMs are generated from the shared rotated table.
#[derive(Debug)]
pub struct SccEvenOdd {
    inner: MixedRom,
}

impl SccEvenOdd {
    /// Builds the mapping.
    ///
    /// # Errors
    /// As [`MixedRom::new`].
    pub fn new(params: DaParams) -> Result<Self> {
        Ok(SccEvenOdd {
            inner: MixedRom::with_odd_coeffs(params, scc_odd_coeff, "scc-even-odd")?,
        })
    }
}

impl DctImpl for SccEvenOdd {
    fn name(&self) -> &'static str {
        "SCC E/O"
    }

    fn netlist(&self) -> &Netlist {
        self.inner.netlist()
    }

    fn params(&self) -> &DaParams {
        self.inner.params()
    }

    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
        self.inner.transform_batch(xs, out)
    }

    fn cycles_per_block(&self) -> u64 {
        self.inner.cycles_per_block()
    }
}

/// Fig. 9 — SCC without the even/odd split: eight serialisers feed eight
/// 256-word ROMs; inputs are wired in exponent order so the odd-output ROMs
/// are rotations of a single table.
#[derive(Debug)]
pub struct SccFull {
    netlist: Netlist,
    params: DaParams,
    cycles: u64,
    /// `slot_of_input[i]` = serialiser slot of input `x_i`.
    slot_of_input: [usize; 8],
    io: BlockIo,
}

impl SccFull {
    /// Builds the mapping.
    ///
    /// # Errors
    /// [`dsra_core::error::CoreError::InvalidWidth`] when `params` fail
    /// [`DaParams::validate`]; otherwise internal netlist inconsistencies
    /// only.
    pub fn new(params: DaParams) -> Result<Self> {
        params.validate()?;
        let mut nl = Netlist::new("scc-full");
        let ctl = add_controls(&mut nl)?;
        // Input i = x_i with (2i+1) ≡ ±3^e (mod 32); e is a bijection onto
        // Z₈, the serialiser slot.
        let mut slot_of_input = [0usize; 8];
        let mut input_of_slot = [0usize; 8];
        for i in 0..8 {
            let e = exponent_of(2 * i + 1);
            slot_of_input[i] = e;
            input_of_slot[e] = i;
        }
        let mut srs: Vec<Option<NodeId>> = vec![None; 8];
        for i in 0..8 {
            let x = nl.input(format!("x{i}"), params.input_bits)?;
            let slot = slot_of_input[i];
            let sr = serializer(
                &mut nl,
                &format!("sr_slot{slot}"),
                (x, "out"),
                params.input_bits,
                &ctl,
            )?;
            srs[slot] = Some(sr);
        }
        let srs: Vec<NodeId> = srs.into_iter().map(|s| s.expect("slot filled")).collect();
        let addr_parts: Vec<(NodeId, &str)> = srs.iter().map(|&n| (n, "q")).collect();
        let addr = nl.concat("addr", &addr_parts)?;
        for u in 0..8 {
            // Coefficient for slot j = dct(u, input_of_slot[j]).
            let coeffs: Vec<f64> = (0..8)
                .map(|j| reference::dct_coeff(u, input_of_slot[j]))
                .collect();
            let (_, acc) = da_lane(
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
        Ok(SccFull {
            netlist: nl,
            params,
            cycles: u64::from(params.input_bits) + 2,
            slot_of_input,
            io,
        })
    }

    /// Coefficient vector (slot order) of one output lane — used by the
    /// structural rotation tests.
    pub fn lane_coeffs(&self, u: usize) -> [f64; 8] {
        let mut input_of_slot = [0usize; 8];
        for i in 0..8 {
            input_of_slot[self.slot_of_input[i]] = i;
        }
        std::array::from_fn(|j| reference::dct_coeff(u, input_of_slot[j]))
    }
}

impl DctImpl for SccFull {
    fn name(&self) -> &'static str {
        "SCC"
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
    fn exponent_map_is_a_bijection_on_odd_indices() {
        let mut seen = [false; 8];
        for i in 0..8 {
            let e = exponent_of(2 * i + 1);
            assert!(!seen[e], "exponent {e} repeated");
            seen[e] = true;
        }
    }

    #[test]
    fn skew_wrap_property() {
        let c = shared_table();
        for e in 0..4 {
            assert!(
                (c[e + 4] + c[e]).abs() < 1e-12,
                "C[{}] = {} should equal -C[{}] = {}",
                e + 4,
                c[e + 4],
                e,
                c[e]
            );
        }
    }

    #[test]
    fn scc_odd_coeffs_equal_dct_coeffs() {
        // Li's identity: the exponent-mapped table reproduces the true DCT
        // coefficients exactly.
        for k in 0..4 {
            for n in 0..4 {
                let direct = reference::dct_coeff(2 * k + 1, n);
                let mapped = scc_odd_coeff(k, n);
                assert!(
                    (direct - mapped).abs() < 1e-12,
                    "k={k} n={n}: {direct} vs {mapped}"
                );
            }
        }
    }

    #[test]
    fn even_odd_table1_column() {
        let imp = SccEvenOdd::new(DaParams::precise()).unwrap();
        let r = imp.report();
        // Table 1, SCC EVEN/ODD column: 4 / 4 / 8 / 8, mem 8, total 32.
        assert_eq!(r.table1_row(), [4, 4, 8, 8, 8]);
        assert_eq!(r.total_clusters(), 32);
    }

    #[test]
    fn full_table1_column() {
        let imp = SccFull::new(DaParams::precise()).unwrap();
        let r = imp.report();
        // Table 1, SCC column: 0 / 0 / 8 / 8, mem 8, total 24.
        assert_eq!(r.table1_row(), [0, 0, 8, 8, 8]);
        assert_eq!(r.add_shift_total(), 16);
        assert_eq!(r.total_clusters(), 24);
        assert_eq!(r.memory_words(), 8 * 256);
    }

    #[test]
    fn even_odd_matches_reference() {
        let imp = SccEvenOdd::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 10, 2047, 3).unwrap();
        assert!(acc.max_abs_err < 1.5, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn full_matches_reference() {
        let imp = SccFull::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 10, 2047, 4).unwrap();
        assert!(acc.max_abs_err < 1.5, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn odd_lanes_are_rotations_of_the_shared_table() {
        // Li's structural property: in slot space, odd-output lane k has
        // coefficients C[(j + e(2k+1)) mod 8] — one table, rotated.
        let imp = SccFull::new(DaParams::precise()).unwrap();
        let c = shared_table();
        for k in 0..4 {
            let lane = imp.lane_coeffs(2 * k + 1);
            let off = exponent_of(2 * k + 1);
            for (j, v) in lane.iter().enumerate() {
                let expect = c[(j + off) % 8];
                assert!(
                    (v - expect).abs() < 1e-12,
                    "lane {} slot {}: {} vs table {}",
                    2 * k + 1,
                    j,
                    v,
                    expect
                );
            }
        }
    }
}
