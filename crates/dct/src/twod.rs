//! 2-D DCT by row-column decomposition on any of the 1-D hardware mappings.
//!
//! MPEG-4/H.263 use the 8×8 2-D DCT; the array computes it as eight row
//! transforms followed by eight column transforms, with the intermediate
//! coefficients re-quantised to the input width (a transpose memory in a
//! real system; the SoC controller's address generator here).

use dsra_core::error::Result;

use crate::harness::DctImpl;
use crate::reference::N;

/// Runs an 8×8 block through `imp` twice: the eight rows as one batch,
/// then the eight columns as another (one lane sweep each on the netlist
/// mappings).
///
/// Intermediate values are rounded to integers before the column pass,
/// modelling the transpose-memory word width.
///
/// # Errors
/// Propagates driver errors from the underlying implementation.
pub fn dct_2d_hw(imp: &dyn DctImpl, block: &[[i64; N]; N]) -> Result<[[f64; N]; N]> {
    let mut rows = [[0.0; N]; N];
    imp.transform_batch(block, &mut rows)?;
    let cols: [[i64; N]; N] =
        std::array::from_fn(|c| std::array::from_fn(|r| rows[r][c].round() as i64));
    let mut t = [[0.0; N]; N];
    imp.transform_batch(&cols, &mut t)?;
    Ok(std::array::from_fn(|r| std::array::from_fn(|c| t[c][r])))
}

/// Total array cycles for one 8×8 block (16 one-dimensional transforms).
pub fn cycles_2d(imp: &dyn DctImpl) -> u64 {
    imp.cycles_per_block() * (2 * N as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_da::BasicDa;
    use crate::da::DaParams;
    use crate::reference;

    #[test]
    fn two_d_matches_reference_on_texture_block() {
        let imp = BasicDa::new(DaParams::precise()).unwrap();
        let mut block = [[0i64; N]; N];
        for (r, row) in block.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (((r * 37 + c * 101) % 255) as i64) - 128;
            }
        }
        let hw = dct_2d_hw(&imp, &block).unwrap();
        let blockf: [[f64; N]; N] =
            std::array::from_fn(|r| std::array::from_fn(|c| block[r][c] as f64));
        let sw = reference::dct_2d(&blockf);
        for r in 0..N {
            for c in 0..N {
                assert!(
                    (hw[r][c] - sw[r][c]).abs() < 3.0,
                    "({r},{c}): {} vs {}",
                    hw[r][c],
                    sw[r][c]
                );
            }
        }
    }

    #[test]
    fn cycles_scale_with_sixteen_transforms() {
        let imp = BasicDa::new(DaParams::precise()).unwrap();
        assert_eq!(cycles_2d(&imp), imp.cycles_per_block() * 16);
    }
}
