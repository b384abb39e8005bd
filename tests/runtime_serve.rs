//! Integration gate for the E11 runtime layer through the `dsra` facade:
//! a small mixed queue served across a 4-array pool must be deterministic,
//! cache-friendly and spread across both fabric kinds.

use dsra::runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra::video::{generate_job_mix, JobMixConfig};

fn runtime() -> SocRuntime {
    SocRuntime::new(RuntimeConfig {
        da_arrays: 2,
        me_arrays: 2,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .expect("runtime builds")
}

#[test]
fn serve_small_mix_end_to_end() {
    let jobs = generate_job_mix(JobMixConfig {
        jobs: 30,
        seed: 0xE11,
        ..Default::default()
    });
    let report = runtime().serve(&jobs).expect("serve");
    assert_eq!(report.jobs, 30);
    assert_eq!(report.arrays.len(), 4);

    // Content-addressed caching: at most one serve-time compile (the ME
    // systolic kernel) no matter how many jobs arrive; everything else hits.
    assert!(report.cache.misses <= 1, "cache: {:?}", report.cache);
    assert!(report.cache.hit_rate() > 0.9);

    // Both fabric kinds did work (the default mix contains every job kind).
    let da_jobs: usize = report.arrays[..2].iter().map(|a| a.jobs).sum();
    let me_jobs: usize = report.arrays[2..].iter().map(|a| a.jobs).sum();
    assert_eq!(da_jobs, report.dct_jobs + report.encode_jobs);
    assert_eq!(me_jobs, report.me_jobs);
    assert!(report.total_reconfig_bits > 0, "cold starts write bits");

    // Determinism: a fresh runtime over the same queue reproduces the
    // report byte for byte, worker threads notwithstanding.
    let again = runtime().serve(&jobs).expect("serve again");
    assert_eq!(report.render(), again.render());
    assert_eq!(report.digest(), again.digest());
}

/// The runtime prices each DCT mapping once, in its bitstream cache, and
/// profiles it from that price; E7's `profile_all_impls` prices on its
/// own. Both must land on the same profiles, energy bit for bit, or the
/// runtime's selections would drift from the offline table's.
#[test]
fn runtime_profiles_equal_the_offline_profiles_bit_for_bit() {
    use dsra::dct::DaParams;
    use dsra::platform::{profile_all_impls, standard_da_fabric, ReconfigManager};
    use dsra::tech::TechModel;

    for params in [DaParams::precise(), DaParams::paper()] {
        let rt = SocRuntime::new(RuntimeConfig {
            da_params: params,
            ..Default::default()
        })
        .expect("runtime builds");
        let offline = profile_all_impls(
            params,
            &standard_da_fabric(),
            &TechModel::default(),
            &mut ReconfigManager::default(),
        )
        .expect("offline profiles");
        assert_eq!(rt.profiles().len(), offline.len());
        for (live, off) in rt.profiles().iter().zip(&offline) {
            let off = &off.profile;
            assert_eq!(live, off, "{params:?}");
            assert_eq!(
                live.energy_per_block.to_bits(),
                off.energy_per_block.to_bits(),
                "{} {params:?}",
                live.name
            );
            assert_eq!(
                live.max_abs_err.to_bits(),
                off.max_abs_err.to_bits(),
                "{} {params:?}",
                live.name
            );
        }
    }
}
