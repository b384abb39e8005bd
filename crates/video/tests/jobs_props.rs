//! Property tests for the job-mix generator (ISSUE 5 satellite): the mix
//! is a pure function of its seed, and every motion-search payload any
//! producer draws satisfies the full-window invariant the runtime's
//! undersized-plane rejection guards (`size >= block + 2 * range` on both
//! axes — the rejection path itself is pinned by
//! `undersized_me_plane_is_an_error_not_a_panic` in `dsra-runtime` and by
//! the `dsra-service` dispatch test).

use dsra_core::rng::SplitMix64;
use dsra_video::{generate_job_mix, sample_payload, JobMixConfig, JobMixWeights, JobPayload};
use proptest::prelude::*;

/// `true` when an ME payload's planes can hold the centred search window.
fn me_window_fits(payload: &JobPayload) -> bool {
    match *payload {
        JobPayload::MeSearch {
            size, block, range, ..
        } => {
            let need = u16::from(block) + 2 * u16::from(range);
            size.0 >= need && size.1 >= need
        }
        _ => true,
    }
}

proptest! {
    /// Same seed ⇒ byte-identical mix; a different seed changes it.
    #[test]
    fn job_mix_is_a_pure_function_of_the_seed(seed in any::<u64>(), jobs in 1u32..200) {
        let config = JobMixConfig { jobs, seed, ..Default::default() };
        let a = generate_job_mix(config);
        let b = generate_job_mix(config);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), jobs as usize);
        let other = generate_job_mix(JobMixConfig {
            seed: seed.wrapping_add(1),
            ..config
        });
        prop_assert_ne!(a, other);
    }

    /// Every generated `MeSearch` fits its full search window: the plane
    /// is at least `block + 2 * range` on both axes, so the systolic feed
    /// can never read out of bounds on generated traffic.
    #[test]
    fn every_generated_me_search_fits_its_window(seed in any::<u64>(), jobs in 1u32..200) {
        let mix = generate_job_mix(JobMixConfig {
            jobs,
            seed,
            // ME-heavy so the property actually exercises the payload.
            weights: JobMixWeights { dct: 1, me: 8, encode: 1 },
        });
        for job in &mix {
            prop_assert!(me_window_fits(&job.payload), "{:?}", job.payload);
        }
    }

    /// The shared payload sampler upholds the same invariant for every
    /// consumer (the E13 trace generator draws through it too).
    #[test]
    fn sampled_payloads_fit_their_windows(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let weights = JobMixWeights { dct: 0, me: 1, encode: 0 };
        for _ in 0..64 {
            let payload = sample_payload(&mut rng, weights);
            prop_assert!(me_window_fits(&payload), "{payload:?}");
        }
    }
}

/// The generator's chunking keeps the weights in force: an all-ME chunk
/// is all ME, and a rejected (all-zero) weight set panics rather than
/// silently emitting something.
#[test]
fn zero_weights_are_rejected_loudly() {
    let result = std::panic::catch_unwind(|| {
        let mut rng = SplitMix64::new(7);
        sample_payload(
            &mut rng,
            JobMixWeights {
                dct: 0,
                me: 0,
                encode: 0,
            },
        )
    });
    assert!(result.is_err(), "all-zero weights must panic");
}
