//! Reference DCT implementations (double precision and integer), the golden
//! models every hardware mapping is validated against.
//!
//! The transforms read one matrix built once from [`dct_coeff`], so a block
//! costs its 64 multiply-adds per pass and no trigonometry; each output is
//! the same products summed in the same order as evaluating [`dct_coeff`]
//! in place, bit for bit.

use std::sync::OnceLock;

/// Transform size used throughout the paper (8-point DCT).
pub const N: usize = 8;

/// Normalisation factor `α(u)` of the orthonormal DCT-II.
#[inline]
pub fn alpha(u: usize) -> f64 {
    if u == 0 {
        (1.0 / N as f64).sqrt()
    } else {
        (2.0 / N as f64).sqrt()
    }
}

/// Entry `(u, i)` of the orthonormal 8-point DCT-II matrix:
/// `α(u)·cos((2i+1)uπ/16)`.
#[inline]
pub fn dct_coeff(u: usize, i: usize) -> f64 {
    alpha(u) * (((2 * i + 1) * u) as f64 * std::f64::consts::PI / (2.0 * N as f64)).cos()
}

/// The full 8×8 orthonormal DCT-II matrix (rows = output coefficients).
pub fn dct_matrix() -> [[f64; N]; N] {
    let mut m = [[0.0; N]; N];
    for (u, row) in m.iter_mut().enumerate() {
        for (i, e) in row.iter_mut().enumerate() {
            *e = dct_coeff(u, i);
        }
    }
    m
}

/// The matrix the reference transforms read, built on first use.
fn table() -> &'static [[f64; N]; N] {
    static TABLE: OnceLock<[[f64; N]; N]> = OnceLock::new();
    TABLE.get_or_init(dct_matrix)
}

/// Reference 1-D forward DCT-II of an 8-sample block.
///
/// ```
/// use dsra_dct::reference::{dct_1d, idct_1d};
/// let x = [100.0, -3.0, 5.0, 8.0, -100.0, 44.0, 7.0, 0.0];
/// let y = dct_1d(&x);
/// let back = idct_1d(&y);
/// for (a, b) in x.iter().zip(back.iter()) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
pub fn dct_1d(x: &[f64; N]) -> [f64; N] {
    let m = table();
    std::array::from_fn(|u| x.iter().zip(&m[u]).map(|(&xi, &c)| xi * c).sum())
}

/// Reference 1-D inverse DCT (DCT-III with orthonormal scaling).
pub fn idct_1d(y: &[f64; N]) -> [f64; N] {
    let m = table();
    std::array::from_fn(|i| y.iter().zip(m).map(|(&yu, row)| yu * row[i]).sum())
}

/// Reference 2-D forward DCT of an 8×8 block (row-column decomposition).
pub fn dct_2d(block: &[[f64; N]; N]) -> [[f64; N]; N] {
    let mut tmp = [[0.0; N]; N];
    for (r, row) in block.iter().enumerate() {
        tmp[r] = dct_1d(row);
    }
    let mut out = [[0.0; N]; N];
    for c in 0..N {
        let col: [f64; N] = std::array::from_fn(|r| tmp[r][c]);
        let t = dct_1d(&col);
        for (r, v) in t.iter().enumerate() {
            out[r][c] = *v;
        }
    }
    out
}

/// Reference 2-D inverse DCT.
pub fn idct_2d(coeffs: &[[f64; N]; N]) -> [[f64; N]; N] {
    let mut tmp = [[0.0; N]; N];
    for c in 0..N {
        let col: [f64; N] = std::array::from_fn(|r| coeffs[r][c]);
        let t = idct_1d(&col);
        for (r, v) in t.iter().enumerate() {
            tmp[r][c] = *v;
        }
    }
    let mut out = [[0.0; N]; N];
    for (r, row) in tmp.iter().enumerate() {
        out[r] = idct_1d(row);
    }
    out
}

/// 1-D DCT of integer samples, returned in doubles (used to compare against
/// the fixed-point hardware mappings).
pub fn dct_1d_int(x: &[i64; N]) -> [f64; N] {
    let xs: [f64; N] = std::array::from_fn(|i| x[i] as f64);
    dct_1d(&xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_input_concentrates_in_x0() {
        let x = [10.0; N];
        let y = dct_1d(&x);
        assert!((y[0] - 10.0 * (N as f64).sqrt()).abs() < 1e-9);
        for v in &y[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_is_orthonormal() {
        let m = dct_matrix();
        for a in 0..N {
            for b in 0..N {
                let dot: f64 = (0..N).map(|i| m[a][i] * m[b][i]).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "rows {a},{b}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let x = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, -2.0, 6.0];
        let y = dct_1d(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() < 1e-9);
    }

    #[test]
    fn two_d_round_trip() {
        let mut block = [[0.0; N]; N];
        for (r, row) in block.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = ((r * 31 + c * 17) % 256) as f64 - 128.0;
            }
        }
        let y = dct_2d(&block);
        let back = idct_2d(&y);
        for r in 0..N {
            for c in 0..N {
                assert!((block[r][c] - back[r][c]).abs() < 1e-8);
            }
        }
    }
}
