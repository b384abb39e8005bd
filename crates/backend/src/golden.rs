//! Pure-software golden reference models: the same fixed-point arithmetic
//! the arrays compute, without a netlist or a cycle-level simulator.
//!
//! Every model reproduces its array datapath *bit-for-bit*: samples are
//! encoded with the same two's-complement widths, ROM words come from the
//! same [`da_rom_contents`] tables, and the shift-accumulator recurrence
//! (add the aligned ROM word, subtract on the sign cycle, arithmetic-shift
//! right) is replayed in plain integer arithmetic. A golden transform is
//! therefore byte-equal to the simulated one — not merely close — which is
//! what lets the differential harness assert checksum equality instead of
//! tolerances.

use dsra_core::error::Result;
use dsra_core::fixed::{from_signed, mask, to_signed};
use dsra_core::netlist::Netlist;
use dsra_dct::da::{da_rom_contents, encode_sample};
use dsra_dct::factor::{
    odd_target, solve_sandwich, solve_scaled_sandwich, Sandwich, ScaledSandwich,
};
use dsra_dct::reference::{alpha, dct_coeff};
use dsra_dct::scc::{exponent_of, scc_odd_coeff};
use dsra_dct::{DaParams, DctImpl};
use dsra_me::reference::candidate_valid;
use dsra_me::systolic2d::MODULES;
use dsra_me::{full_search, MeSearchResult, Plane, SearchParams};

use crate::mapping::DctMapping;

/// Butterfly datapath width of the even/odd and CORDIC structures
/// (sign-extended from the input width; mirrors the arrays' stage width).
const STAGE_WIDTH: u8 = 16;

/// Replays one bit-serial DA lane: `streams[i]` supplies address bit `i`
/// at serial step `t`, the addressed ROM word (programmed from `coeffs`)
/// is aligned and accumulated with a subtracting final cycle, and the
/// accumulator arithmetic-shifts right each step — exactly the
/// shift-accumulator cluster's update rule.
fn da_lane(streams: &[u64], coeffs: &[f64], params: &DaParams, bits: u8) -> u64 {
    let rom = da_rom_contents(coeffs, params.q());
    let align = u32::from(params.align());
    let mut acc = 0u64;
    for t in 0..bits {
        let mut addr = 0usize;
        for (i, s) in streams.iter().enumerate() {
            addr |= (((s >> t) & 1) as usize) << i;
        }
        let word = to_signed(rom[addr], params.rom_width);
        let sgn: i64 = if t + 1 == bits { -1 } else { 1 };
        let a = to_signed(acc, params.acc_width) + sgn * (word << align);
        acc = from_signed(a >> 1, params.acc_width);
    }
    acc
}

/// Encodes the input block exactly as the array input pins see it: each
/// sample masked to `input_bits` and re-signed (out-of-range samples wrap,
/// as they would in hardware).
fn encode_block(x: &[i64; 8], input_bits: u8) -> [i64; 8] {
    std::array::from_fn(|i| to_signed(encode_sample(x[i], input_bits), input_bits))
}

/// Mod-2^16 butterfly node: the 16-bit adder/subtracter clusters wrap.
fn stage(v: i64) -> i64 {
    to_signed(from_signed(v, STAGE_WIDTH), STAGE_WIDTH)
}

/// Direct DA (Fig. 4 / Fig. 9): eight serialised inputs address per-output
/// ROMs. `perm[slot]` is the input index wired to serialiser `slot` — the
/// identity for the basic DA, Li's exponent reordering for the full SCC.
fn direct_transform(x: &[i64; 8], params: &DaParams, perm: &[usize; 8]) -> [f64; 8] {
    let bits = params.input_bits;
    let xe = encode_block(x, bits);
    let streams: Vec<u64> = perm.iter().map(|&i| encode_sample(xe[i], bits)).collect();
    std::array::from_fn(|u| {
        let coeffs: Vec<f64> = perm.iter().map(|&i| dct_coeff(u, i)).collect();
        params.decode_acc(da_lane(&streams, &coeffs, params, bits), bits)
    })
}

/// Even/odd split (Fig. 5 / Fig. 8): 16-bit butterfly sums `a_n` and
/// differences `b_n` feed 4-input DA lanes over `input_bits + 2` serial
/// cycles. `odd_coeff(k, n)` selects the odd-part table (plain DCT rows
/// for the Mixed-ROM, the skew-circular rotation for the SCC).
fn even_odd_transform(
    x: &[i64; 8],
    params: &DaParams,
    odd_coeff: impl Fn(usize, usize) -> f64,
) -> [f64; 8] {
    let bits = params.input_bits + 2;
    let xe = encode_block(x, params.input_bits);
    let sa: Vec<u64> = (0..4)
        .map(|n| from_signed(xe[n] + xe[7 - n], STAGE_WIDTH))
        .collect();
    let sb: Vec<u64> = (0..4)
        .map(|n| from_signed(xe[n] - xe[7 - n], STAGE_WIDTH))
        .collect();
    let mut y = [0.0; 8];
    for k in 0..4 {
        let even: Vec<f64> = (0..4).map(|n| dct_coeff(2 * k, n)).collect();
        y[2 * k] = params.decode_acc(da_lane(&sa, &even, params, bits), bits);
        let odd: Vec<f64> = (0..4).map(|n| odd_coeff(k, n)).collect();
        y[2 * k + 1] = params.decode_acc(da_lane(&sb, &odd, params, bits), bits);
    }
    y
}

/// Phase schedule of the two-phase CORDIC drivers (mirrors the private
/// `Schedule` in `dsra_dct::cordic`, formula for formula).
#[derive(Debug, Clone, Copy)]
struct Sched {
    b1: u8,
    presh: u8,
    b2: u8,
}

impl Sched {
    fn for_params(params: &DaParams, max_row_norm: f64) -> Self {
        let b1 = params.input_bits + 2;
        let b2 = params.acc_width - params.rom_width; // keep phase 2 exact
        let p_bits = (max_row_norm.log2()
            + f64::from(params.input_bits)
            + f64::from(params.rom_frac)
            + f64::from(params.align())
            - f64::from(b1))
        .ceil() as i32
            + 1;
        let presh = (p_bits + 2 - i32::from(b2)).max(1) as u8;
        Sched { b1, presh, b2 }
    }

    fn phase2_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.b2) - i32::from(params.align()) - i32::from(params.rom_frac)
            + i32::from(self.presh)
            - i32::from(params.rom_frac)
            - i32::from(params.align())
            + i32::from(self.b1)
    }

    fn stream_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.presh) - i32::from(params.rom_frac) - i32::from(params.align())
            + i32::from(self.b1)
    }

    fn cycles(&self) -> u64 {
        1 + u64::from(self.b1) + u64::from(self.presh) + u64::from(self.b2) + 1
    }
}

/// Extracts (columns, sign) of a ±1 butterfly row with exactly two nonzeros.
fn row_ops(row: &[f64; 4]) -> (usize, usize, bool) {
    let nz: Vec<usize> = (0..4).filter(|&c| row[c].abs() > 0.5).collect();
    assert_eq!(nz.len(), 2, "butterfly rows have two operands");
    assert!(row[nz[0]] > 0.0, "library rows lead with +1");
    (nz[0], nz[1], row[nz[1]] < 0.0)
}

/// The shared CORDIC front end: 16-bit `a`/`b` butterflies, then the `u`
/// stage over the sums. Returns the raw `b_n` serial streams and the signed
/// `u` values.
fn cordic_front(x: &[i64; 8], params: &DaParams) -> ([u64; 4], [i64; 4]) {
    let xe = encode_block(x, params.input_bits);
    let a: [i64; 4] = std::array::from_fn(|n| stage(xe[n] + xe[7 - n]));
    let b: [u64; 4] = std::array::from_fn(|n| from_signed(xe[n] - xe[7 - n], STAGE_WIDTH));
    let u = [
        stage(a[0] + a[3]),
        stage(a[1] + a[2]),
        stage(a[1] - a[2]),
        stage(a[0] - a[3]),
    ];
    (b, u)
}

/// Phase-1 X rotators + discard + serial butterfly, shared by both CORDIC
/// odd paths: returns `H_r = A'_{c1} ± A'_{c2}` where `A'` is the
/// presh-discarded phase-1 accumulator.
fn cordic_odd_h(
    b: &[u64; 4],
    x_pairs: ((usize, usize), (usize, usize)),
    x_blocks: &[[[f64; 2]; 2]; 2],
    butterfly: &[[f64; 4]; 4],
    params: &DaParams,
    sched: &Sched,
) -> [i64; 4] {
    let mut p = [0u64; 4];
    for (bi, pair) in [x_pairs.0, x_pairs.1].into_iter().enumerate() {
        let streams = [b[pair.0], b[pair.1]];
        p[pair.0] = da_lane(&streams, &x_blocks[bi][0], params, sched.b1);
        p[pair.1] = da_lane(&streams, &x_blocks[bi][1], params, sched.b1);
    }
    let ap: [i64; 4] =
        std::array::from_fn(|r| to_signed(p[r], params.acc_width) >> u32::from(sched.presh));
    std::array::from_fn(|r| {
        let (c1, c2, sign) = row_ops(&butterfly[r]);
        if sign {
            ap[c1] - ap[c2]
        } else {
            ap[c1] + ap[c2]
        }
    })
}

fn cordic1_transform(x: &[i64; 8], params: &DaParams, fact: &Sandwich, sched: &Sched) -> [f64; 8] {
    let (b, u) = cordic_front(x, params);
    let su: [u64; 4] = std::array::from_fn(|i| from_signed(u[i], STAGE_WIDTH));
    let a = alpha(1);
    let a0 = alpha(0);
    let c4 = (std::f64::consts::PI / 4.0).cos();
    let c2 = (std::f64::consts::PI / 8.0).cos();
    let s2 = (std::f64::consts::PI / 8.0).sin();
    let mut y = [0.0; 8];
    let even = |streams: [u64; 2], row: [f64; 2]| {
        params.decode_acc(da_lane(&streams, &row, params, sched.b1), sched.b1)
    };
    y[0] = even([su[0], su[1]], [a0, a0]);
    y[4] = even([su[0], su[1]], [a * c4, -a * c4]);
    y[2] = even([su[2], su[3]], [a * s2, a * c2]);
    y[6] = even([su[2], su[3]], [-a * c2, a * s2]);

    let h = cordic_odd_h(
        &b,
        fact.x_pairs,
        &fact.x_blocks,
        &fact.butterfly,
        params,
        sched,
    );
    let exp = sched.phase2_exp(params);
    for (bi, pair) in [fact.y_pairs.0, fact.y_pairs.1].into_iter().enumerate() {
        // Phase 2: the Y rotators accumulate the serial H streams for b2
        // cycles (sub on the last); H's two's-complement bits are exactly
        // what the serial adders emit.
        let streams = [h[pair.0] as u64, h[pair.1] as u64];
        for (r, out) in [pair.0, pair.1].into_iter().enumerate() {
            let raw = da_lane(&streams, &fact.y_blocks[bi][r], params, sched.b2);
            y[2 * out + 1] = to_signed(raw, params.acc_width) as f64 * 2f64.powi(exp);
        }
    }
    y
}

fn cordic2_transform(
    x: &[i64; 8],
    params: &DaParams,
    fact: &ScaledSandwich,
    sched: &Sched,
) -> [f64; 8] {
    let (b, u) = cordic_front(x, params);
    let a = alpha(1);
    let a0 = alpha(0);
    let c4 = (std::f64::consts::PI / 4.0).cos();
    let c2 = (std::f64::consts::PI / 8.0).cos();
    let s2 = (std::f64::consts::PI / 8.0).sin();
    let mut y = [0.0; 8];
    // X0/X4 leave the array as parallel 16-bit adder outputs; the scale
    // factors are applied driver-side (standing in for the quantiser).
    y[0] = stage(u[0] + u[1]) as f64 * a0;
    y[4] = stage(u[0] - u[1]) as f64 * a * c4;
    let su2 = from_signed(u[2], STAGE_WIDTH);
    let su3 = from_signed(u[3], STAGE_WIDTH);
    y[2] = params.decode_acc(
        da_lane(&[su2, su3], &[a * s2, a * c2], params, sched.b1),
        sched.b1,
    );
    y[6] = params.decode_acc(
        da_lane(&[su2, su3], &[-a * c2, a * s2], params, sched.b1),
        sched.b1,
    );

    let h = cordic_odd_h(
        &b,
        fact.x_pairs,
        &fact.x_blocks,
        &fact.butterfly,
        params,
        sched,
    );
    let (pi, pj) = fact.post_pair;
    let exp = sched.stream_exp(params);
    for r in 0..4 {
        // The serial post network combines the post pair and passes the
        // rest; the driver samples b2 stream bits, so the decoded value is
        // the low-b2 window of the integer combination.
        let comb = if r == pi {
            h[pi] + h[pj]
        } else if r == pj {
            h[pi] - h[pj]
        } else {
            h[r]
        };
        let stream = mask(comb as u64, sched.b2);
        y[2 * r + 1] = to_signed(stream, sched.b2) as f64 * 2f64.powi(exp) * fact.scales[r];
    }
    y
}

/// Which software model a [`GoldenDct`] replays.
enum Model {
    /// Fig. 4 / Fig. 9 direct DA; `perm[slot]` = input index in that slot.
    Direct { perm: [usize; 8] },
    /// Fig. 5 / Fig. 8 even/odd split; `scc` selects the odd-part table.
    EvenOdd { scc: bool },
    /// Fig. 6 two-phase sandwich factorization.
    Cordic1 { fact: Sandwich, sched: Sched },
    /// Fig. 7 scaled factorization with serial output taps.
    Cordic2 { fact: ScaledSandwich, sched: Sched },
}

/// A software golden reference for one DCT mapping, bit-exact against the
/// simulated array and exposing the same [`DctImpl`] interface (including
/// `cycles_per_block`, so encode payloads cost identically). The netlist
/// is an empty placeholder — there is no hardware here.
pub struct GoldenDct {
    mapping: DctMapping,
    params: DaParams,
    netlist: Netlist,
    cycles: u64,
    model: Model,
}

impl GoldenDct {
    /// Builds the golden model for `mapping`.
    ///
    /// # Errors
    /// Never fails today; `Result` mirrors [`DctMapping::build`] so the two
    /// construction paths stay interchangeable.
    pub fn new(mapping: DctMapping, params: DaParams) -> Result<Self> {
        let max_row_norm = |blocks: &[[[f64; 2]; 2]; 2]| {
            blocks
                .iter()
                .flat_map(|b| b.iter())
                .map(|row| row[0].abs() + row[1].abs())
                .fold(0.0f64, f64::max)
        };
        let (model, cycles) = match mapping {
            DctMapping::BasicDa => (
                Model::Direct {
                    perm: std::array::from_fn(|i| i),
                },
                u64::from(params.input_bits) + 2,
            ),
            DctMapping::SccFull => {
                // Input i sits in serialiser slot e where (2i+1) ≡ ±3^e
                // (mod 32); perm maps slots back to inputs.
                let mut perm = [0usize; 8];
                for i in 0..8 {
                    perm[exponent_of(2 * i + 1)] = i;
                }
                (Model::Direct { perm }, u64::from(params.input_bits) + 2)
            }
            DctMapping::MixedRom => (
                Model::EvenOdd { scc: false },
                u64::from(params.input_bits) + 4,
            ),
            DctMapping::SccEvenOdd => (
                Model::EvenOdd { scc: true },
                u64::from(params.input_bits) + 4,
            ),
            DctMapping::Cordic1 => {
                let fact = solve_sandwich(&odd_target());
                let sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                let cycles = sched.cycles();
                (Model::Cordic1 { fact, sched }, cycles)
            }
            DctMapping::Cordic2 => {
                let fact = solve_scaled_sandwich(&odd_target());
                let mut sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                // Streams pass two serial levels: one extra guard bit.
                sched.presh += 1;
                let cycles = sched.cycles();
                (Model::Cordic2 { fact, sched }, cycles)
            }
        };
        Ok(GoldenDct {
            mapping,
            params,
            netlist: Netlist::new("golden"),
            cycles,
            model,
        })
    }

    /// The mapping this model mirrors.
    pub fn mapping(&self) -> DctMapping {
        self.mapping
    }
}

impl DctImpl for GoldenDct {
    fn name(&self) -> &'static str {
        self.mapping.name()
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn params(&self) -> &DaParams {
        &self.params
    }

    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
        assert_eq!(xs.len(), out.len(), "one output row per block");
        for (x, o) in xs.iter().zip(out) {
            *o = match &self.model {
                Model::Direct { perm } => direct_transform(x, &self.params, perm),
                Model::EvenOdd { scc: false } => {
                    even_odd_transform(x, &self.params, |k, n| dct_coeff(2 * k + 1, n))
                }
                Model::EvenOdd { scc: true } => even_odd_transform(x, &self.params, scc_odd_coeff),
                Model::Cordic1 { fact, sched } => cordic1_transform(x, &self.params, fact, sched),
                Model::Cordic2 { fact, sched } => cordic2_transform(x, &self.params, fact, sched),
            };
        }
        Ok(())
    }

    fn cycles_per_block(&self) -> u64 {
        self.cycles
    }
}

/// Scalar golden motion search: the best match comes from the plain
/// software [`full_search`] (which already walks candidates in the systolic
/// array's column-major, first-wins order), and the cycle/bandwidth
/// counters are computed analytically from the array's batch schedule —
/// `MODULES` candidates per streaming pass, `n + MODULES - 1` staggered
/// row cycles, one drain cycle per candidate, plus the comparator reset
/// and settle cycles.
///
/// # Errors
/// Never fails today; `Result` mirrors the simulated engine's signature.
pub fn golden_me_search(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    params: &SearchParams,
) -> Result<MeSearchResult> {
    let n = params.block;
    let p = params.range;
    let mut cycles = 1u64; // comparator reset
    let mut ref_fetches = 0u64;
    let mut ref_fetches_naive = 0u64;
    let mut cur_fetches = 0u64;
    for dx in -p..=p {
        let mut dy_base = -p;
        while dy_base <= p {
            let batch: Vec<(usize, i32)> = (0..MODULES)
                .map(|m| (m, dy_base + m as i32))
                .filter(|&(_, dy)| dy <= p && candidate_valid(reference, bx, by, dx, dy, n))
                .collect();
            dy_base += MODULES as i32;
            if batch.is_empty() {
                continue;
            }
            ref_fetches_naive += (batch.len() * n * n) as u64;
            // mclr + streaming window + one drain cycle per candidate.
            cycles += 1 + (n + MODULES - 1) as u64 + batch.len() as u64;
            cur_fetches += (n * n) as u64;
            let dy0 = i64::from(batch[0].1) - batch[0].0 as i64;
            for t in 0..(n + MODULES - 1) {
                let ry = by as i64 + dy0 + t as i64;
                let row_needed = batch.iter().any(|&(m, _)| t >= m && t < m + n);
                if row_needed && ry >= 0 && (ry as usize) < reference.height() {
                    ref_fetches += n as u64;
                }
            }
        }
    }
    cycles += 1; // registered comparator settle
    Ok(MeSearchResult {
        best: full_search(cur, reference, bx, by, params),
        cycles,
        ref_fetches,
        ref_fetches_naive,
        cur_fetches,
    })
}
