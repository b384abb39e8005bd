//! Lane batching is invisible in the results: for every mapping, a batch
//! of any length (empty, partial lane sweeps, several sweeps) transforms
//! each block bit-for-bit like a batch of one.

use dsra_core::rng::SplitMix64;
use dsra_dct::{all_impls, BasicIdct, DaParams, DctImpl, LANES};

fn random_blocks(n: usize, amplitude: i64, seed: u64) -> Vec<[i64; 8]> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            std::array::from_fn(|_| rng.next_below(2 * amplitude as u64 + 1) as i64 - amplitude)
        })
        .collect()
}

fn assert_batches_match_single_blocks(imp: &dyn DctImpl, amplitude: i64) {
    for (k, n) in [0usize, 1, 7, 8, 9, 17].into_iter().enumerate() {
        let xs = random_blocks(n, amplitude, 0xB47C + k as u64);
        let mut batched = vec![[f64::NAN; 8]; n];
        imp.transform_batch(&xs, &mut batched).unwrap();
        for (i, (x, y)) in xs.iter().zip(&batched).enumerate() {
            let single = imp.transform(x).unwrap();
            assert_eq!(
                y.map(f64::to_bits),
                single.map(f64::to_bits),
                "{}: block {i} of a batch of {n}",
                imp.name()
            );
        }
    }
}

#[test]
fn batched_transforms_equal_single_blocks_for_every_mapping() {
    assert_eq!(LANES, 8, "one lane sweep carries an 8x8 block's rows");
    for params in [DaParams::precise(), DaParams::paper()] {
        let amplitude = if params == DaParams::paper() {
            255
        } else {
            2047
        };
        for imp in all_impls(params).unwrap() {
            assert_batches_match_single_blocks(imp.as_ref(), amplitude);
        }
        assert_batches_match_single_blocks(&BasicIdct::new(params).unwrap(), amplitude);
    }
}

#[test]
#[should_panic(expected = "one output row per block")]
fn a_short_output_buffer_is_rejected() {
    let imp = &all_impls(DaParams::precise()).unwrap()[0];
    let mut out = [[0.0; 8]; 2];
    let _ = imp.transform_batch(&random_blocks(3, 100, 1), &mut out);
}
