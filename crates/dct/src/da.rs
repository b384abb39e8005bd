//! Distributed-arithmetic building blocks shared by all six DCT mappings:
//! fixed-point parameters, ROM content generation and netlist helpers.
//!
//! All mappings follow White's bit-serial DA (ref. \[4\] of the paper):
//! parallel samples are serialised LSB-first, the serial bits of all inputs
//! form a ROM address, and a shift-accumulator sums the ROM words with a
//! subtracting final (sign-bit) cycle.

use dsra_core::cluster::{AddShiftCfg, ClusterCfg};
use dsra_core::error::Result;
#[cfg(test)]
use dsra_core::fixed::to_signed;
use dsra_core::fixed::{from_signed, MAX_WORD_WIDTH, Q};
use dsra_core::netlist::{Netlist, NodeId};

/// Fixed-point parameters of a DA datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DaParams {
    /// Bit-serial cycles per sample (serial stream length `B`).
    pub input_bits: u8,
    /// ROM word width in bits.
    pub rom_width: u8,
    /// Fractional bits inside a ROM word.
    pub rom_frac: u8,
    /// Shift-accumulator register width.
    pub acc_width: u8,
}

impl DaParams {
    /// High-precision configuration: exact DA (no accumulator truncation,
    /// `acc_width - rom_width >= input_bits`), coefficient error only.
    pub fn precise() -> Self {
        DaParams {
            input_bits: 12,
            rom_width: 16,
            rom_frac: 13,
            acc_width: 32,
        }
    }

    /// The widths printed in Fig. 4 of the paper: 12-bit samples, 8-bit ROM
    /// words, 16-bit shift accumulators. Coarser, with visible truncation
    /// noise — used by the accuracy/precision experiments.
    pub fn paper() -> Self {
        DaParams {
            input_bits: 12,
            rom_width: 8,
            rom_frac: 5,
            acc_width: 16,
        }
    }

    /// ROM word fixed-point format.
    pub fn q(&self) -> Q {
        Q::new(self.rom_width, self.rom_frac)
    }

    /// Alignment shift of the accumulator (`A = acc_width - rom_width`).
    pub fn align(&self) -> u8 {
        self.acc_width - self.rom_width
    }

    /// `true` when the right-shift accumulator loses no bits for this
    /// stream length.
    pub fn exact(&self, stream_bits: u8) -> bool {
        self.align() >= stream_bits
    }

    /// Decodes a raw accumulator word into the real value of
    /// `Σ_t s_t·rom_t·2^t / 2^rom_frac` given the stream length used.
    ///
    /// After `B` accumulate cycles the register holds
    /// `Σ s_t·rom_t·2^(t + A - B)`; undoing the `2^(A-B)` alignment and the
    /// ROM fraction yields the mathematical dot product. Drivers that
    /// decode many words build [`DaParams::decoder`] once instead.
    ///
    /// # Panics
    /// Same as [`DaParams::decoder`].
    pub fn decode_acc(&self, raw: u64, stream_bits: u8) -> f64 {
        self.decoder(stream_bits).decode(raw)
    }

    /// The decoder of accumulator words after `stream_bits` serial cycles:
    /// [`DaParams::decode_acc`] with the accumulator width checked and the
    /// alignment and fraction scales computed once.
    ///
    /// # Panics
    /// Panics if `acc_width` is not in 1..=63 or `rom_frac >= rom_width`.
    pub fn decoder(&self, stream_bits: u8) -> AccDecoder {
        assert!(
            (1..=MAX_WORD_WIDTH).contains(&self.acc_width),
            "width out of range: {}",
            self.acc_width
        );
        let shift = f64::from(self.align() as i32 - i32::from(stream_bits));
        AccDecoder {
            stream_bits,
            unused: 64 - u32::from(self.acc_width),
            align_scale: 2f64.powf(shift),
            frac_scale: self.q().scale(),
        }
    }
}

/// Decodes the shift-accumulator words of one `(DaParams, stream_bits)`
/// pair — the hoisted form of [`DaParams::decode_acc`], with the same f64
/// operations in the same order, so every decoded value is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccDecoder {
    stream_bits: u8,
    /// `64 - acc_width`: the shift that sign-extends an accumulator word.
    unused: u32,
    /// `2^(align - stream_bits)`.
    align_scale: f64,
    /// `2^rom_frac`.
    frac_scale: f64,
}

impl AccDecoder {
    /// The serial stream length the decoded accumulators ran for.
    pub fn stream_bits(&self) -> u8 {
        self.stream_bits
    }

    /// A raw accumulator word read as a signed integer.
    #[inline]
    pub fn signed(&self, raw: u64) -> i64 {
        ((raw << self.unused) as i64) >> self.unused
    }

    /// The real value of a raw accumulator word.
    #[inline]
    pub fn decode(&self, raw: u64) -> f64 {
        self.value(self.signed(raw))
    }

    /// The real value of an accumulator already read as a signed integer.
    #[inline]
    pub fn value(&self, acc: i64) -> f64 {
        acc as f64 / self.align_scale / self.frac_scale
    }
}

impl Default for DaParams {
    fn default() -> Self {
        DaParams::precise()
    }
}

/// Generates ROM contents for an n-input DA unit: word at address `a` holds
/// the fixed-point sum of `coeffs[i]` over set bits `i` of `a`.
///
/// # Panics
/// Panics if more than 10 coefficients are given (1024-word ROM limit).
pub fn da_rom_contents(coeffs: &[f64], q: Q) -> Vec<u64> {
    assert!(coeffs.len() <= 10, "ROM address space limit");
    let words = 1usize << coeffs.len();
    (0..words)
        .map(|addr| {
            let sum: f64 = coeffs
                .iter()
                .enumerate()
                .filter(|(i, _)| addr >> i & 1 == 1)
                .map(|(_, c)| *c)
                .sum();
            q.encode(sum)
        })
        .collect()
}

/// Worst-case absolute coefficient sum — must stay inside the Q range for
/// the ROM not to saturate.
pub fn rom_dynamic_range(coeffs: &[f64]) -> f64 {
    coeffs.iter().map(|c| c.abs()).sum()
}

/// The shared control pins every DA mapping exposes.
///
/// The SoC controller (paper §2: "a controller in the processor is used to
/// integrate and generate the addresses for these array structures") drives
/// these; in this repo that controller is the Rust driver in
/// [`crate::harness`].
#[derive(Debug, Clone, Copy)]
pub struct ControlPins {
    /// Parallel load strobe for the serial registers.
    pub load: NodeId,
    /// Serial-register shift enable.
    pub sren: NodeId,
    /// Accumulator enable (phase 1).
    pub accen: NodeId,
    /// Sign-bit-cycle subtract (phase 1).
    pub sub: NodeId,
    /// Global clear.
    pub clr: NodeId,
}

/// Adds the standard control input pins to a netlist.
pub fn add_controls(nl: &mut Netlist) -> Result<ControlPins> {
    Ok(ControlPins {
        load: nl.input("ctl_load", 1)?,
        sren: nl.input("ctl_sren", 1)?,
        accen: nl.input("ctl_accen", 1)?,
        sub: nl.input("ctl_sub", 1)?,
        clr: nl.input("ctl_clr", 1)?,
    })
}

/// Instantiates a parallel-to-serial register fed from `src` and wired to
/// the shared controls; returns the node (serial output port `q`).
pub fn serializer(
    nl: &mut Netlist,
    name: &str,
    src: (NodeId, &str),
    width: u8,
    ctl: &ControlPins,
) -> Result<NodeId> {
    let sr = nl.cluster(name, ClusterCfg::AddShift(AddShiftCfg::SerialReg { width }))?;
    nl.connect(src, (sr, "d"))?;
    nl.connect((ctl.load, "out"), (sr, "load"))?;
    nl.connect((ctl.sren, "out"), (sr, "en"))?;
    Ok(sr)
}

/// Instantiates one DA lane: a ROM programmed with `coeffs` addressed by the
/// given serial bit sources, feeding a shift-accumulator wired to the shared
/// controls. Returns `(rom, acc)`; the accumulated word is on `acc.y`.
#[allow(clippy::too_many_arguments)]
pub fn da_lane(
    nl: &mut Netlist,
    name: &str,
    addr: (NodeId, &str),
    coeffs: &[f64],
    params: &DaParams,
    ctl_accen: NodeId,
    ctl_sub: NodeId,
    ctl_clr: NodeId,
) -> Result<(NodeId, NodeId)> {
    let words = 1u16 << coeffs.len();
    let rom = nl.cluster(
        format!("{name}_rom"),
        ClusterCfg::Memory {
            words,
            width: params.rom_width,
            contents: da_rom_contents(coeffs, params.q()),
        },
    )?;
    nl.connect(addr, (rom, "addr"))?;
    let acc = nl.cluster(
        format!("{name}_acc"),
        ClusterCfg::AddShift(AddShiftCfg::ShiftAcc {
            acc_width: params.acc_width,
            data_width: params.rom_width,
        }),
    )?;
    nl.connect((rom, "dout"), (acc, "d"))?;
    nl.connect((ctl_accen, "out"), (acc, "en"))?;
    nl.connect((ctl_sub, "out"), (acc, "sub"))?;
    nl.connect((ctl_clr, "out"), (acc, "clr"))?;
    Ok((rom, acc))
}

/// Encodes a signed sample for a 12-bit input pin.
pub fn encode_sample(value: i64, width: u8) -> u64 {
    from_signed(value, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rom_contents_cover_all_subsets() {
        let q = Q::new(16, 13);
        let rom = da_rom_contents(&[0.5, -0.25, 1.0], q);
        assert_eq!(rom.len(), 8);
        assert_eq!(to_signed(rom[0], 16), 0);
        // addr 0b101 -> 0.5 + 1.0
        let v = to_signed(rom[5], 16) as f64 / q.scale();
        assert!((v - 1.5).abs() < 1e-3);
    }

    #[test]
    fn decode_inverts_alignment() {
        let p = DaParams::precise();
        // Simulate an exact accumulation result: value 3.25 with B = 12.
        let real = 3.25;
        let fixed = (real * p.q().scale()) as i64; // Σ s_t rom_t 2^t
        let aligned = fixed << (i32::from(p.align()) - 12);
        let raw = from_signed(aligned, p.acc_width);
        assert!((p.decode_acc(raw, 12) - real).abs() < 1e-9);
    }

    #[test]
    fn decoder_matches_the_per_word_decode() {
        let mut rng = dsra_core::rng::SplitMix64::new(0xDEC0);
        for p in [DaParams::precise(), DaParams::paper()] {
            for bits in [p.input_bits, p.input_bits + 2, p.align()] {
                let dec = p.decoder(bits);
                assert_eq!(dec.stream_bits(), bits);
                for _ in 0..256 {
                    let raw = rng.next_u64();
                    let v = to_signed(raw, p.acc_width) as f64;
                    let shift = f64::from(p.align() as i32 - i32::from(bits));
                    let old = v / 2f64.powf(shift) / p.q().scale();
                    assert_eq!(dec.decode(raw).to_bits(), old.to_bits());
                    assert_eq!(dec.signed(raw), to_signed(raw, p.acc_width));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn decoder_rejects_a_64_bit_accumulator() {
        DaParams {
            acc_width: 64,
            ..DaParams::precise()
        }
        .decoder(12);
    }

    #[test]
    fn paper_params_are_not_exact_precise_are() {
        assert!(DaParams::precise().exact(12));
        assert!(!DaParams::paper().exact(12));
    }

    #[test]
    fn dynamic_range_guard() {
        let coeffs = [0.49, 0.46, 0.41, 0.27, 0.49, 0.46, 0.41, 0.27];
        assert!(rom_dynamic_range(&coeffs) < DaParams::precise().q().max_value());
    }
}
