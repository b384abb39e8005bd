//! Integration gate for the E12 power layer: discharging one full
//! battery over chunked serves, the energy-aware policy must serve
//! strictly more jobs than the naive one, and the whole report — energy
//! columns and battery trajectory included — must be byte-identical
//! across runs. The discharge loop is `dsra_bench::discharge_battery`,
//! the same definition the `battery_serve` binary (and its CI smoke run)
//! executes, so this gate and the E12 artifact cannot measure different
//! things.

use dsra::core::rng::fnv1a_fold;
use dsra::power::Battery;
use dsra::runtime::{
    DctMapping, DefaultPolicy, EnergyAwarePolicy, NaivePolicy, PowerConfig, RuntimeConfig,
    SchedulePolicy, SocRuntime,
};
use dsra::video::{generate_job_mix, JobMixConfig};
use dsra_bench::{discharge_battery, DischargeOutcome};

const CAPACITY_J: f64 = 6.0e8;
const CHUNK_JOBS: u32 = 24;
const MAX_SERVES: u64 = 12;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        da_arrays: 2,
        me_arrays: 2,
        mappings: vec![
            DctMapping::BasicDa,
            DctMapping::MixedRom,
            DctMapping::SccFull,
        ],
        power: PowerConfig {
            battery_capacity_j: CAPACITY_J,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn discharge(policy: Box<dyn SchedulePolicy>) -> DischargeOutcome {
    let base = JobMixConfig {
        jobs: CHUNK_JOBS,
        ..Default::default()
    };
    let out = discharge_battery(config(), policy, base, MAX_SERVES).expect("discharge run");
    assert!(
        out.discharged,
        "battery must discharge within {MAX_SERVES} serves"
    );
    out
}

#[test]
fn energy_aware_policy_serves_more_jobs_per_charge() {
    let naive = discharge(Box::new(NaivePolicy));
    let energy = discharge(Box::new(EnergyAwarePolicy));

    // The E12 acceptance gate: strictly more jobs per full charge.
    assert!(
        energy.jobs_served > naive.jobs_served,
        "energy-aware {} must beat naive {}",
        energy.jobs_served,
        naive.jobs_served
    );

    // The win is made of real, accounted joules: gating shows up, the
    // naive run never gates, and both drain exactly one battery.
    assert!(energy.reports.iter().any(|r| r.energy.gated_cycles > 0));
    assert!(naive.reports.iter().all(|r| r.energy.gated_cycles == 0));
    for out in [&naive, &energy] {
        assert!(
            out.total_j >= CAPACITY_J,
            "drained {} of {CAPACITY_J}",
            out.total_j
        );
        for r in &out.reports {
            // Battery trajectory bookkeeping: samples cover every job,
            // are non-increasing, and end where the idle drain leaves off.
            assert_eq!(r.energy.battery.samples.len(), r.jobs);
            assert!(r
                .energy
                .battery
                .samples
                .windows(2)
                .all(|w| w[1].charge_j <= w[0].charge_j));
            assert!(r.energy.battery.end_j >= 0.0);
            // The per-job energies plus the idle drain are the total.
            let jobs_j: f64 = r.outcomes.iter().map(|o| o.energy_j).sum();
            let total = r.energy.total_j();
            assert!(
                (jobs_j + r.energy.battery.idle_drain_j - total).abs() < 1e-6 * total.max(1.0),
                "energy must decompose into jobs + idle drain"
            );
        }
    }
}

/// E12 pin: per policy, the jobs served on one charge and a fold of every
/// chunk report's digest. The energy-aware policy's placement weights are
/// constants that no other pinned digest covers; any change to them, to
/// the power model or to the discharge loop moves these numbers.
#[test]
fn discharge_outcomes_are_pinned_per_policy() {
    let policies: [Box<dyn SchedulePolicy>; 3] = [
        Box::new(NaivePolicy),
        Box::new(DefaultPolicy),
        Box::new(EnergyAwarePolicy),
    ];
    let pins: Vec<(&str, usize, u64)> = policies
        .into_iter()
        .map(|policy| {
            let base = JobMixConfig {
                jobs: CHUNK_JOBS,
                ..Default::default()
            };
            let out = discharge_battery(config(), policy, base, MAX_SERVES).expect("discharge run");
            let fold = out
                .reports
                .iter()
                .fold(0xCBF2_9CE4_8422_2325u64, |h, r| fnv1a_fold(h, r.digest()));
            (out.policy, out.jobs_served, fold)
        })
        .collect();
    assert_eq!(
        pins,
        [
            ("naive", 70, 0x1e7f_fab8_97a4_a711),
            ("diff-aware", 70, 0xf633_ec59_8a2b_6aaf),
            ("energy-aware", 109, 0x58e3_0205_c5d4_0bc7),
        ]
    );
}

#[test]
fn discharge_run_is_byte_identical_across_runs() {
    let a = discharge(Box::new(EnergyAwarePolicy));
    let b = discharge(Box::new(EnergyAwarePolicy));
    assert_eq!(a.jobs_served, b.jobs_served);
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        // Byte-identical including energy columns and the battery
        // trajectory (digest, human render and JSON all pin it).
        assert_eq!(ra.digest(), rb.digest());
        assert_eq!(ra.render(), rb.render());
        assert_eq!(ra.to_json("E12"), rb.to_json("E12"));
        assert_eq!(ra.energy.battery.samples, rb.energy.battery.samples);
    }
}

#[test]
fn serve_drains_the_runtime_battery_and_recharge_restores_it() {
    let mut rt =
        SocRuntime::with_policy(config(), Box::new(EnergyAwarePolicy)).expect("runtime builds");
    assert_eq!(rt.battery().charge_j(), CAPACITY_J);
    let report = rt
        .serve(&generate_job_mix(JobMixConfig {
            jobs: 8,
            ..Default::default()
        }))
        .expect("serve");
    let expected = Battery::new(CAPACITY_J).charge_j() - report.energy.total_j();
    assert!((rt.battery().charge_j() - expected.max(0.0)).abs() < 1e-6);
    assert!((rt.battery().charge_j() - report.energy.battery.end_j).abs() < 1e-6);
    rt.recharge_full();
    assert_eq!(rt.battery().charge_j(), CAPACITY_J);
}
