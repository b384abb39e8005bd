//! Two's-complement fixed-point helpers shared by the whole workspace.
//!
//! Bus values travel through the simulator as `u64` words holding the raw
//! bits of a `width`-bit two's-complement number. These helpers convert
//! between raw bus words and signed integers, and between signed fixed-point
//! (`Qm.f`) values and `f64`.
//!
//! Widths of 1..=[`MAX_WORD_WIDTH`] bits are supported; the fabric limits
//! cluster datapaths to 32 bits (cascaded 4-bit elements), but pins,
//! wiring and intermediate arithmetic inside the simulator use the full
//! range.

/// Widest two's-complement word the helpers (and every bus) support: one
/// bit short of `u64`, so sign extension never overflows.
pub const MAX_WORD_WIDTH: u8 = 63;

/// Masks `value` to the low `width` bits.
///
/// # Panics
/// Panics if `width` is 0 or greater than 63.
#[inline]
pub fn mask(value: u64, width: u8) -> u64 {
    assert!(
        (1..=MAX_WORD_WIDTH).contains(&width),
        "width out of range: {width}"
    );
    value & ((1u64 << width) - 1)
}

/// Interprets the low `width` bits of `raw` as a two's-complement signed
/// integer.
///
/// # Panics
/// Panics if `width` is 0 or greater than 63.
#[inline]
pub fn to_signed(raw: u64, width: u8) -> i64 {
    let m = mask(raw, width);
    let sign = 1u64 << (width - 1);
    if m & sign != 0 {
        // Bitwise sign extension avoids i64 overflow at width 63.
        (m | !((1u64 << width) - 1)) as i64
    } else {
        m as i64
    }
}

/// Encodes a signed integer into the low `width` bits (two's complement,
/// wrapping — exactly what a hardware register does on overflow).
///
/// # Panics
/// Panics if `width` is 0 or greater than 63.
#[inline]
pub fn from_signed(value: i64, width: u8) -> u64 {
    mask(value as u64, width)
}

/// Saturates `value` into the representable range of a signed `width`-bit
/// number: `[-2^(width-1), 2^(width-1) - 1]`.
#[inline]
pub fn saturate(value: i64, width: u8) -> i64 {
    let max = (1i64 << (width - 1)) - 1;
    let min = -(1i64 << (width - 1));
    value.clamp(min, max)
}

/// Returns `true` when `value` fits a signed `width`-bit number without
/// wrapping.
#[inline]
pub fn fits(value: i64, width: u8) -> bool {
    saturate(value, width) == value
}

/// A signed fixed-point format with `frac` fractional bits inside a `width`
/// bit word (so `width - frac` integer bits including sign).
///
/// ```
/// use dsra_core::fixed::Q;
/// let q = Q::new(16, 14);
/// let raw = q.encode(0.5);
/// assert!((q.decode(raw) - 0.5).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q {
    width: u8,
    frac: u8,
}

impl Q {
    /// Creates a new format descriptor.
    ///
    /// # Panics
    /// Panics if `width` is not in 1..=63 or `frac >= width`.
    pub fn new(width: u8, frac: u8) -> Self {
        assert!(
            (1..=MAX_WORD_WIDTH).contains(&width),
            "width out of range: {width}"
        );
        assert!(frac < width, "frac bits must leave room for the sign");
        Q { width, frac }
    }

    /// Total word width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of fractional bits.
    pub fn frac(&self) -> u8 {
        self.frac
    }

    /// Scale factor `2^frac`.
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac) as f64
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        (((1i64 << (self.width - 1)) - 1) as f64) / self.scale()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f64 {
        (-(1i64 << (self.width - 1)) as f64) / self.scale()
    }

    /// Encodes an `f64` to the nearest representable raw word, saturating at
    /// the format bounds.
    pub fn encode(&self, value: f64) -> u64 {
        let scaled = (value * self.scale()).round() as i64;
        from_signed(saturate(scaled, self.width), self.width)
    }

    /// Decodes a raw word back to `f64`.
    pub fn decode(&self, raw: u64) -> f64 {
        to_signed(raw, self.width) as f64 / self.scale()
    }

    /// Quantization step (value of one LSB).
    pub fn epsilon(&self) -> f64 {
        1.0 / self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn signed_round_trip_small() {
        for w in 1..=16u8 {
            let lo = -(1i64 << (w - 1));
            let hi = (1i64 << (w - 1)) - 1;
            for v in lo..=hi {
                assert_eq!(to_signed(from_signed(v, w), w), v, "w={w} v={v}");
            }
        }
    }

    #[test]
    fn wrapping_matches_hardware() {
        // 4-bit register: 7 + 1 wraps to -8.
        let sum = to_signed(from_signed(7 + 1, 4), 4);
        assert_eq!(sum, -8);
    }

    #[test]
    fn saturate_bounds() {
        assert_eq!(saturate(1000, 8), 127);
        assert_eq!(saturate(-1000, 8), -128);
        assert_eq!(saturate(5, 8), 5);
        assert!(fits(127, 8));
        assert!(!fits(128, 8));
    }

    #[test]
    fn q_format_encodes_known_constants() {
        let q = Q::new(16, 14);
        // cos(pi/4) in Q2.14.
        let c = q.encode(std::f64::consts::FRAC_1_SQRT_2);
        assert!((q.decode(c) - std::f64::consts::FRAC_1_SQRT_2).abs() < q.epsilon());
    }

    #[test]
    fn q_format_saturates() {
        let q = Q::new(8, 6);
        assert_eq!(q.decode(q.encode(100.0)), q.max_value());
        assert_eq!(q.decode(q.encode(-100.0)), q.min_value());
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn zero_width_rejected() {
        mask(1, 0);
    }

    proptest! {
        #[test]
        fn prop_round_trip(v in -(1i64<<31)..(1i64<<31), w in 33u8..=63) {
            prop_assert_eq!(to_signed(from_signed(v, w), w), v);
        }

        #[test]
        fn prop_mask_idempotent(v: u64, w in 1u8..=63) {
            prop_assert_eq!(mask(mask(v, w), w), mask(v, w));
        }

        #[test]
        fn prop_wrap_is_mod_2w(v: i64, w in 1u8..=32) {
            // Encoding then decoding equals v modulo 2^w, in the signed window.
            let decoded = to_signed(from_signed(v, w), w);
            let modulus = 1i128 << w;
            let diff = (v as i128 - decoded as i128).rem_euclid(modulus);
            prop_assert_eq!(diff, 0);
        }

        #[test]
        fn prop_q_decode_within_eps(x in -1.9f64..1.9, f in 1u8..=14) {
            let q = Q::new(16, f);
            let x = x.clamp(q.min_value(), q.max_value());
            let err = (q.decode(q.encode(x)) - x).abs();
            prop_assert!(err <= q.epsilon() / 2.0 + 1e-12);
        }
    }
}
