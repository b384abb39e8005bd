//! The probes must not change what the program computes: a small
//! instance of every workload replays to the same outcome with all timing
//! wrappers on and off, and every output the traced replay recorded
//! matches the golden reference.

use perfbench::oracle;
use perfbench::spans::{Recorder, Tree};
use perfbench::workload::{replay, Workload};

/// Small sizes, so the test stays quick in a debug build.
fn small_size(w: Workload) -> u64 {
    match w {
        Workload::StreamEdf => 600,
        Workload::BatchMix => 40,
        Workload::ChaosObserved => 1_500,
    }
}

#[test]
fn traced_and_untraced_replays_agree_and_pass_the_oracle() {
    let params = dsra_runtime::RuntimeConfig::default().da_params;
    for w in Workload::ALL {
        let size = small_size(w);
        let seed = w.held_out_seed();
        let plain = replay(w, seed, size, None).expect("untraced replay");
        let rec = Recorder::default();
        let traced = replay(w, seed, size, Some(&rec)).expect("traced replay");
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: probes moved the digest",
            w.name()
        );
        assert_eq!(plain.delivered, traced.delivered, "{}", w.name());
        assert_eq!(plain.sim, traced.sim, "{}", w.name());
        assert!(plain.delivered.iter().any(Option::is_some), "{}", w.name());
        assert_eq!(
            traced.served.len(),
            traced.delivered.iter().filter(|d| d.is_some()).count(),
            "{}: every delivered output was recorded",
            w.name()
        );
        assert!(
            oracle::mismatches(&traced.served, params).is_empty(),
            "{}",
            w.name()
        );

        // Layer self times and the residue partition the serve window.
        let window = traced.window_ns.expect("traced replays record a window");
        let selfs = Tree::build(rec.spans()).self_times(window.0, window.1);
        let covered: f64 = selfs.values().sum();
        let wall = (window.1 - window.0) as f64 * 1e-9;
        assert!(covered <= wall + 1e-9, "{}: {covered} > {wall}", w.name());
        assert!(
            selfs.get("engine").copied().unwrap_or(0.0) > 0.0,
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_corrupted_output_is_caught_by_the_oracle() {
    let params = dsra_runtime::RuntimeConfig::default().da_params;
    let r = replay(Workload::BatchMix, 5, 12, None).expect("replay");
    let mut served = r.served.clone();
    assert!(oracle::mismatches(&served, params).is_empty());
    served[3].checksum ^= 1;
    assert_eq!(oracle::mismatches(&served, params), vec![served[3].spec.id]);
}

/// E11 at its pinned parameters reproduces the pinned digest through the
/// benchmark's own replay. Slow without optimisations, so release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn batch_mix_at_e11_parameters_reproduces_the_pinned_digest() {
    let w = Workload::BatchMix;
    let (seed, size) = (w.default_seed(), 1_000);
    let pinned = w
        .pinned_digest(seed, size)
        .expect("E11 parameters are pinned");
    assert_eq!(replay(w, seed, size, None).expect("replay").digest, pinned);
}
