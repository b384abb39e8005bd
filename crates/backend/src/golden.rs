//! Pure-software golden reference models: the same fixed-point arithmetic
//! the arrays compute, without a netlist or a cycle-level simulator.
//!
//! Every model reproduces its array datapath *bit-for-bit*: samples are
//! encoded with the same two's-complement widths, ROM words come from the
//! same [`da_rom_contents`] tables (programmed once per model, as the
//! arrays' ROMs are at configuration time, and sign-extended then), and the
//! shift-accumulator recurrence (add the aligned ROM word, subtract on the
//! sign cycle, arithmetic-shift right, wrap to the accumulator width) is
//! replayed step for step in plain integer arithmetic on a sign-extended
//! accumulator. Accumulators decode through the one [`AccDecoder`] a model
//! builds for its stream length. A golden transform is therefore
//! byte-equal to the simulated one — not merely close — which is what lets
//! the differential harness assert checksum equality instead of
//! tolerances.

use dsra_core::error::{CoreError, Result};
use dsra_core::fixed::{from_signed, mask, to_signed};
use dsra_core::netlist::Netlist;
use dsra_dct::da::{da_rom_contents, encode_sample};
use dsra_dct::factor::{
    odd_target, solve_sandwich, solve_scaled_sandwich, Sandwich, ScaledSandwich,
};
use dsra_dct::reference::{alpha, dct_coeff};
use dsra_dct::scc::{exponent_of, scc_odd_coeff};
use dsra_dct::{AccDecoder, DaParams, DctImpl};
use dsra_me::reference::candidate_valid;
use dsra_me::systolic2d::MODULES;
use dsra_me::{full_search, MeSearchResult, Plane, SearchParams};

use crate::mapping::DctMapping;

/// Butterfly datapath width of the even/odd and CORDIC structures
/// (sign-extended from the input width; mirrors the arrays' stage width).
const STAGE_WIDTH: u8 = 16;

/// Longest serial stream a model replays: streams are `u64` words, so one
/// block's per-step ROM addresses fit a fixed-size array.
const MAX_SERIAL_BITS: usize = 64;

/// One block's serial ROM addresses: `addrs[t]` gathers bit `t` of every
/// stream (stream `i` drives address bit `i`), the word the serialisers
/// present to the ROMs at step `t`. Computed once per block and shared by
/// every lane that reads the same streams.
fn serial_addrs<const N: usize>(streams: [u64; N], bits: u8) -> [u8; MAX_SERIAL_BITS] {
    let mut addrs = [0u8; MAX_SERIAL_BITS];
    for (t, addr) in addrs[..usize::from(bits)].iter_mut().enumerate() {
        for (i, s) in streams.iter().enumerate() {
            *addr |= (((s >> t) & 1) as u8) << i;
        }
    }
    addrs
}

/// Replays `L` bit-serial DA lanes that read the same streams: at serial
/// step `t` each lane's ROM word at `addrs[t]` is aligned and accumulated
/// with a subtracting final cycle, and the accumulator arithmetic-shifts
/// right and wraps to `acc_width` each step — exactly the
/// shift-accumulator cluster's update rule. Accumulators stay
/// sign-extended, so the result is the accumulator's signed value. The
/// lanes step together, so each address is fetched once per block.
fn da_lanes<const L: usize>(
    roms: &[Rom; L],
    addrs: &[u8; MAX_SERIAL_BITS],
    bits: u8,
    params: &DaParams,
) -> [i64; L] {
    let align = u32::from(params.align());
    // Shifting the unused top bits out and back wraps and sign-extends.
    let unused = 64 - u32::from(params.acc_width);
    let mut acc = [0i64; L];
    for t in 0..bits {
        let addr = usize::from(addrs[usize::from(t)]);
        let sgn: i64 = if t + 1 == bits { -1 } else { 1 };
        for (acc, rom) in acc.iter_mut().zip(roms) {
            let a = *acc + sgn * (rom[addr] << align);
            *acc = ((a >> 1) << unused) >> unused;
        }
    }
    acc
}

/// A DA lane's ROM: its words, sign-extended from `rom_width`.
type Rom = Vec<i64>;

/// The ROM a DA lane programmed with `coeffs` holds. Built once per model,
/// as the array's ROMs are written once at configuration time.
fn rom<const N: usize>(coeffs: [f64; N], params: &DaParams) -> Rom {
    da_rom_contents(&coeffs, params.q())
        .into_iter()
        .map(|word| to_signed(word, params.rom_width))
        .collect()
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
fn direct_transform(
    x: &[i64; 8],
    params: &DaParams,
    dec: &AccDecoder,
    perm: &[usize; 8],
    roms: &[Rom; 8],
) -> [f64; 8] {
    let bits = params.input_bits;
    let xe = encode_block(x, bits);
    let addrs = serial_addrs(perm.map(|i| encode_sample(xe[i], bits)), bits);
    da_lanes(roms, &addrs, bits, params).map(|acc| dec.value(acc))
}

/// Even/odd split (Fig. 5 / Fig. 8): 16-bit butterfly sums `a_n` and
/// differences `b_n` feed 4-input DA lanes over `input_bits + 2` serial
/// cycles; `even[k]` yields `X_2k` and `odd[k]` yields `X_2k+1`.
fn even_odd_transform(
    x: &[i64; 8],
    params: &DaParams,
    dec: &AccDecoder,
    even: &[Rom; 4],
    odd: &[Rom; 4],
) -> [f64; 8] {
    let bits = params.input_bits + 2;
    let xe = encode_block(x, params.input_bits);
    let sums = serial_addrs::<4>(
        std::array::from_fn(|n| from_signed(xe[n] + xe[7 - n], STAGE_WIDTH)),
        bits,
    );
    let diffs = serial_addrs::<4>(
        std::array::from_fn(|n| from_signed(xe[n] - xe[7 - n], STAGE_WIDTH)),
        bits,
    );
    let even = da_lanes(even, &sums, bits, params);
    let odd = da_lanes(odd, &diffs, bits, params);
    std::array::from_fn(|u| dec.value(if u % 2 == 0 { even[u / 2] } else { odd[u / 2] }))
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

/// Phase 1 of both CORDIC odd paths: two X rotators, each a pair of 2-input
/// DA lanes over one pair of `b` streams, and the ±1 butterfly over their
/// presh-discarded accumulators.
struct XRotators {
    /// The `b` indices rotator `i` reads; its two lanes produce the
    /// accumulators of the same indices.
    pairs: [(usize, usize); 2],
    /// `roms[i][lane]`, programmed from the rotator blocks.
    roms: [[Rom; 2]; 2],
    /// Butterfly rows as `(c1, c2, subtract)`.
    butterfly: [(usize, usize, bool); 4],
}

impl XRotators {
    fn new(
        pairs: ((usize, usize), (usize, usize)),
        blocks: &[[[f64; 2]; 2]; 2],
        butterfly: &[[f64; 4]; 4],
        params: &DaParams,
    ) -> Self {
        XRotators {
            pairs: [pairs.0, pairs.1],
            roms: blocks.map(|block| block.map(|row| rom(row, params))),
            butterfly: std::array::from_fn(|r| row_ops(&butterfly[r])),
        }
    }

    /// Returns `H_r = A'_{c1} ± A'_{c2}` where `A'` is the presh-discarded
    /// phase-1 accumulator.
    fn h(&self, b: &[u64; 4], params: &DaParams, sched: &Sched) -> [i64; 4] {
        let mut p = [0i64; 4];
        for (pair, roms) in self.pairs.iter().zip(&self.roms) {
            let addrs = serial_addrs([b[pair.0], b[pair.1]], sched.b1);
            [p[pair.0], p[pair.1]] = da_lanes(roms, &addrs, sched.b1, params);
        }
        let ap: [i64; 4] = p.map(|acc| acc >> u32::from(sched.presh));
        self.butterfly.map(|(c1, c2, sub)| {
            if sub {
                ap[c1] - ap[c2]
            } else {
                ap[c1] + ap[c2]
            }
        })
    }
}

/// Fig. 6 two-phase sandwich: even outputs from 2-input DA lanes over the
/// `u` streams, odd outputs from X rotators, butterfly, then Y rotators
/// accumulating the serial `H` streams.
struct Cordic1Model {
    sched: Sched,
    /// ROMs of `[X0, X4]` (over `u0`/`u1`) and `[X2, X6]` (over `u2`/`u3`).
    even: [[Rom; 2]; 2],
    x: XRotators,
    /// The `H` indices Y rotator `i` reads and the odd rows it produces.
    y_pairs: [(usize, usize); 2],
    /// `y_roms[i][lane]`, programmed from the Y blocks.
    y_roms: [[Rom; 2]; 2],
    /// `2^phase2_exp`: the weight of a raw Y-rotator accumulator.
    y_scale: f64,
}

impl Cordic1Model {
    fn new(params: &DaParams, fact: &Sandwich, sched: Sched) -> Self {
        let a = alpha(1);
        let a0 = alpha(0);
        let c4 = (std::f64::consts::PI / 4.0).cos();
        let c2 = (std::f64::consts::PI / 8.0).cos();
        let s2 = (std::f64::consts::PI / 8.0).sin();
        Cordic1Model {
            sched,
            even: [
                [rom([a0, a0], params), rom([a * c4, -a * c4], params)],
                [
                    rom([a * s2, a * c2], params),
                    rom([-a * c2, a * s2], params),
                ],
            ],
            x: XRotators::new(fact.x_pairs, &fact.x_blocks, &fact.butterfly, params),
            y_pairs: [fact.y_pairs.0, fact.y_pairs.1],
            y_roms: fact.y_blocks.map(|block| block.map(|row| rom(row, params))),
            y_scale: 2f64.powi(sched.phase2_exp(params)),
        }
    }

    fn transform(&self, x: &[i64; 8], params: &DaParams, dec: &AccDecoder) -> [f64; 8] {
        let b1 = self.sched.b1;
        let (b, u) = cordic_front(x, params);
        let su: [u64; 4] = std::array::from_fn(|i| from_signed(u[i], STAGE_WIDTH));
        let mut y = [0.0; 8];
        for (streams, roms, outs) in [
            ([su[0], su[1]], &self.even[0], [0, 4]),
            ([su[2], su[3]], &self.even[1], [2, 6]),
        ] {
            let acc = da_lanes(roms, &serial_addrs(streams, b1), b1, params);
            for (out, acc) in outs.into_iter().zip(acc) {
                y[out] = dec.value(acc);
            }
        }

        let h = self.x.h(&b, params, &self.sched);
        for (pair, roms) in self.y_pairs.iter().zip(&self.y_roms) {
            // Phase 2: the Y rotators accumulate the serial H streams for b2
            // cycles (sub on the last); H's two's-complement bits are exactly
            // what the serial adders emit.
            let addrs = serial_addrs([h[pair.0] as u64, h[pair.1] as u64], self.sched.b2);
            let acc = da_lanes(roms, &addrs, self.sched.b2, params);
            for (out, acc) in [pair.0, pair.1].into_iter().zip(acc) {
                y[2 * out + 1] = acc as f64 * self.y_scale;
            }
        }
        y
    }
}

/// Fig. 7 scaled factorization: `X0`/`X4` from parallel adders, `X2`/`X6`
/// from 2-input DA lanes, odd outputs tapped from the serial post network.
struct Cordic2Model {
    sched: Sched,
    /// ROMs of `X2` and `X6` (over `u2`/`u3`).
    even: [Rom; 2],
    x: XRotators,
    post_pair: (usize, usize),
    scales: [f64; 4],
    /// `2^stream_exp`: the weight of a sampled output stream.
    stream_scale: f64,
    /// `alpha(0)`, `alpha(1)` and `cos(π/4)`: the driver-side `X0`/`X4`
    /// scale factors.
    a0: f64,
    a: f64,
    c4: f64,
}

impl Cordic2Model {
    fn new(params: &DaParams, fact: &ScaledSandwich, sched: Sched) -> Self {
        let a = alpha(1);
        let c4 = (std::f64::consts::PI / 4.0).cos();
        let c2 = (std::f64::consts::PI / 8.0).cos();
        let s2 = (std::f64::consts::PI / 8.0).sin();
        Cordic2Model {
            sched,
            even: [
                rom([a * s2, a * c2], params),
                rom([-a * c2, a * s2], params),
            ],
            x: XRotators::new(fact.x_pairs, &fact.x_blocks, &fact.butterfly, params),
            post_pair: fact.post_pair,
            scales: fact.scales,
            stream_scale: 2f64.powi(sched.stream_exp(params)),
            a0: alpha(0),
            a,
            c4,
        }
    }

    fn transform(&self, x: &[i64; 8], params: &DaParams, dec: &AccDecoder) -> [f64; 8] {
        let Sched { b1, b2, .. } = self.sched;
        let (b, u) = cordic_front(x, params);
        let mut y = [0.0; 8];
        // X0/X4 leave the array as parallel 16-bit adder outputs; the scale
        // factors are applied driver-side (standing in for the quantiser).
        y[0] = stage(u[0] + u[1]) as f64 * self.a0;
        y[4] = stage(u[0] - u[1]) as f64 * self.a * self.c4;
        let addrs = serial_addrs(
            [
                from_signed(u[2], STAGE_WIDTH),
                from_signed(u[3], STAGE_WIDTH),
            ],
            b1,
        );
        let [x2, x6] = da_lanes(&self.even, &addrs, b1, params);
        y[2] = dec.value(x2);
        y[6] = dec.value(x6);

        let h = self.x.h(&b, params, &self.sched);
        let (pi, pj) = self.post_pair;
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
            let stream = mask(comb as u64, b2);
            y[2 * r + 1] = to_signed(stream, b2) as f64 * self.stream_scale * self.scales[r];
        }
        y
    }
}

/// Which software model a [`GoldenDct`] replays, with every DA ROM it reads
/// already programmed.
enum Model {
    /// Fig. 4 / Fig. 9 direct DA: `perm[slot]` = input index in that slot,
    /// `roms[u]` = the ROM of output `u`.
    Direct { perm: [usize; 8], roms: [Rom; 8] },
    /// Fig. 5 / Fig. 8 even/odd split: the odd ROMs hold plain DCT rows
    /// (Mixed-ROM) or the skew-circular rotation (SCC).
    EvenOdd { even: [Rom; 4], odd: [Rom; 4] },
    /// Fig. 6 two-phase sandwich factorization.
    Cordic1(Cordic1Model),
    /// Fig. 7 scaled factorization with serial output taps.
    Cordic2(Cordic2Model),
}

impl Model {
    fn direct(perm: [usize; 8], params: &DaParams) -> Self {
        let roms = std::array::from_fn(|u| rom(perm.map(|i| dct_coeff(u, i)), params));
        Model::Direct { perm, roms }
    }

    fn even_odd(params: &DaParams, odd_coeff: impl Fn(usize, usize) -> f64) -> Self {
        Model::EvenOdd {
            even: std::array::from_fn(|k| {
                rom::<4>(std::array::from_fn(|n| dct_coeff(2 * k, n)), params)
            }),
            odd: std::array::from_fn(|k| {
                rom::<4>(std::array::from_fn(|n| odd_coeff(k, n)), params)
            }),
        }
    }
}

/// A software golden reference for one DCT mapping, bit-exact against the
/// simulated array and exposing the same [`DctImpl`] interface (including
/// `cycles_per_block`, so encode payloads cost identically). The netlist
/// is an empty placeholder — there is no hardware here.
///
/// Every DA ROM and the accumulator decoder are built once, in
/// [`GoldenDct::new`]; a block only serialises its samples and replays the
/// shift-accumulators.
pub struct GoldenDct {
    mapping: DctMapping,
    params: DaParams,
    netlist: Netlist,
    cycles: u64,
    model: Model,
    /// Decodes the accumulators of the model's first (or only) DA phase.
    dec: AccDecoder,
}

impl GoldenDct {
    /// Builds the golden model for `mapping`, programming its DA ROMs.
    ///
    /// # Errors
    /// Fails when `params` need serial streams or accumulators of 64 bits
    /// or more (no array can be configured that wide); `Result` also
    /// mirrors [`DctMapping::build`] so the two construction paths stay
    /// interchangeable.
    pub fn new(mapping: DctMapping, params: DaParams) -> Result<Self> {
        if usize::from(params.input_bits) + 2 > MAX_SERIAL_BITS
            || usize::from(params.acc_width) >= MAX_SERIAL_BITS
        {
            return Err(CoreError::Mismatch(format!(
                "golden {}: {params:?} needs serial streams over {MAX_SERIAL_BITS} bits",
                mapping.name()
            )));
        }
        let max_row_norm = |blocks: &[[[f64; 2]; 2]; 2]| {
            blocks
                .iter()
                .flat_map(|b| b.iter())
                .map(|row| row[0].abs() + row[1].abs())
                .fold(0.0f64, f64::max)
        };
        // The direct models stream the samples; every other one streams
        // butterfly outputs, two guard bits wider.
        let stream_bits = match mapping {
            DctMapping::BasicDa | DctMapping::SccFull => params.input_bits,
            _ => params.input_bits + 2,
        };
        let (model, cycles) = match mapping {
            DctMapping::BasicDa => (
                Model::direct(std::array::from_fn(|i| i), &params),
                u64::from(params.input_bits) + 2,
            ),
            DctMapping::SccFull => {
                // Input i sits in serialiser slot e where (2i+1) ≡ ±3^e
                // (mod 32); perm maps slots back to inputs.
                let mut perm = [0usize; 8];
                for i in 0..8 {
                    perm[exponent_of(2 * i + 1)] = i;
                }
                (
                    Model::direct(perm, &params),
                    u64::from(params.input_bits) + 2,
                )
            }
            DctMapping::MixedRom => (
                Model::even_odd(&params, |k, n| dct_coeff(2 * k + 1, n)),
                u64::from(params.input_bits) + 4,
            ),
            DctMapping::SccEvenOdd => (
                Model::even_odd(&params, scc_odd_coeff),
                u64::from(params.input_bits) + 4,
            ),
            DctMapping::Cordic1 => {
                let fact = solve_sandwich(&odd_target());
                let sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                let cycles = sched.cycles();
                (
                    Model::Cordic1(Cordic1Model::new(&params, &fact, sched)),
                    cycles,
                )
            }
            DctMapping::Cordic2 => {
                let fact = solve_scaled_sandwich(&odd_target());
                let mut sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                // Streams pass two serial levels: one extra guard bit.
                sched.presh += 1;
                let cycles = sched.cycles();
                (
                    Model::Cordic2(Cordic2Model::new(&params, &fact, sched)),
                    cycles,
                )
            }
        };
        Ok(GoldenDct {
            mapping,
            params,
            netlist: Netlist::new("golden"),
            cycles,
            model,
            dec: params.decoder(stream_bits),
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
        let (params, dec) = (&self.params, &self.dec);
        for (x, o) in xs.iter().zip(out) {
            *o = match &self.model {
                Model::Direct { perm, roms } => direct_transform(x, params, dec, perm, roms),
                Model::EvenOdd { even, odd } => even_odd_transform(x, params, dec, even, odd),
                Model::Cordic1(m) => m.transform(x, params, dec),
                Model::Cordic2(m) => m.transform(x, params, dec),
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
            // Module m of this streaming pass evaluates candidate dy_base + m.
            let valid: [bool; MODULES] = std::array::from_fn(|m| {
                let dy = dy_base + m as i32;
                dy <= p && candidate_valid(reference, bx, by, dx, dy, n)
            });
            let dy0 = i64::from(dy_base);
            dy_base += MODULES as i32;
            let batch = valid.iter().filter(|&&v| v).count();
            if batch == 0 {
                continue;
            }
            ref_fetches_naive += (batch * n * n) as u64;
            // mclr + streaming window + one drain cycle per candidate.
            cycles += 1 + (n + MODULES - 1) as u64 + batch as u64;
            cur_fetches += (n * n) as u64;
            for t in 0..(n + MODULES - 1) {
                let ry = by as i64 + dy0 + t as i64;
                let row_needed = (0..MODULES).any(|m| valid[m] && t >= m && t < m + n);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_wider_than_a_word_are_rejected() {
        let params = DaParams {
            input_bits: 63,
            ..DaParams::precise()
        };
        for mapping in DctMapping::ALL {
            let err = GoldenDct::new(mapping, params).err().expect("rejected");
            assert!(err.to_string().contains("over 64 bits"), "{err}");
        }
    }
}
