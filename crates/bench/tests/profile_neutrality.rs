//! Profiler neutrality (ISSUE 10 satellite): the attribution profiler is
//! a pure observer on the trace-sink seam, so enabling it must never
//! change what a session computes. For random seeds, the E11 batch
//! serve, the E13 streaming session, and the E15 chaos session each run
//! twice — bare sink vs. [`dsra_profile::ProfileSink`] tee — and their
//! outcome digests must match bit for bit while the profiler proves it
//! actually watched the run (non-zero busy cycles, full attribution).

use dsra_bench::{install_profiler, runtime_profile_report};
use dsra_chaos::{serve_with_chaos, ChaosConfig, FaultPlan, RecoveryConfig};
use dsra_runtime::{RuntimeConfig, SocRuntime};
use dsra_service::{serve_trace, standard_tenants, ServiceConfig, TraceConfig};
use dsra_video::{generate_job_mix, JobMixConfig};
use proptest::prelude::*;

fn small_runtime() -> SocRuntime {
    SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        ..Default::default()
    })
    .expect("runtime construction")
}

fn small_trace(seed: u64) -> TraceConfig {
    TraceConfig {
        tenants: standard_tenants(2, 250),
        duration_us: 3_000,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// E11 batch serving: same job mix, same outcome digest with the
    /// profiler on, and the profiler accounts for every busy cycle.
    #[test]
    fn batch_serves_are_profile_neutral(seed in any::<u64>()) {
        let mix = generate_job_mix(JobMixConfig {
            jobs: 24,
            seed,
            ..Default::default()
        });
        let mut bare = small_runtime();
        let bare_digest = bare.serve(&mix).expect("bare serve").digest();

        let mut profiled = small_runtime();
        let handle = install_profiler(&mut profiled);
        let prof_digest = profiled.serve(&mix).expect("profiled serve").digest();
        prop_assert_eq!(bare_digest, prof_digest);

        let report = runtime_profile_report(&profiled, &handle);
        prop_assert!(report.busy_cycles > 0, "profiler saw the serve");
        prop_assert_eq!(report.attributed_cycles, report.busy_cycles);
        prop_assert_eq!(report.unrouted_cycles, 0);
    }

    /// E13 streaming: same request trace, same service digest with the
    /// profiler teed in.
    #[test]
    fn streaming_sessions_are_profile_neutral(seed in any::<u64>()) {
        let trace = small_trace(seed);
        let mut bare = small_runtime();
        let bare_digest = serve_trace(&mut bare, &trace, &ServiceConfig::default())
            .expect("bare session")
            .digest();

        let mut profiled = small_runtime();
        let handle = install_profiler(&mut profiled);
        let prof_digest = serve_trace(&mut profiled, &trace, &ServiceConfig::default())
            .expect("profiled session")
            .digest();
        prop_assert_eq!(bare_digest, prof_digest);
        prop_assert!(handle.with(|p| p.end_cycle()) > 0, "profiler saw events");
    }

    /// E15 chaos serving: same fault plan, same chaos digest — faults,
    /// detection, retries and quarantines all land identically whether
    /// or not the profiler watches.
    #[test]
    fn chaos_sessions_are_profile_neutral(seed in any::<u64>()) {
        let trace = small_trace(seed ^ 0x5EED);
        let plan = FaultPlan::generate(&ChaosConfig {
            seed,
            duration_us: trace.duration_us,
            arrays: 2,
        });
        let mut bare = small_runtime();
        let bare_digest = serve_with_chaos(
            &mut bare,
            &trace,
            &ServiceConfig::default(),
            &plan,
            RecoveryConfig::default(),
        )
        .expect("bare chaos session")
        .digest();

        let mut profiled = small_runtime();
        let handle = install_profiler(&mut profiled);
        let prof_digest = serve_with_chaos(
            &mut profiled,
            &trace,
            &ServiceConfig::default(),
            &plan,
            RecoveryConfig::default(),
        )
        .expect("profiled chaos session")
        .digest();
        prop_assert_eq!(bare_digest, prof_digest);
        prop_assert!(handle.with(|p| p.end_cycle()) > 0, "profiler saw events");
    }
}
