//! The fault-injection surface: a shared [`ChaosState`] holding each
//! array's active faults, and the [`ChaosBackend`] decorator that applies
//! them at the [`Backend`] execution boundary.
//!
//! Corruption happens on the *checksum* — the deterministic output digest
//! every served result carries: a stuck lane is forced on every
//! execution (later faults win on a contested bit), a transient XORs one
//! execution, a dead array returns deterministic garbage. Timing is left honest (`exec_cycles` pass through), so a
//! faulty array still *looks* healthy to the scheduler — only the data
//! is wrong, which is exactly what makes silent corruption dangerous and
//! detection worth paying for.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use dsra_backend::Backend;
use dsra_core::error::Result;
use dsra_core::report::ExecOutcome;
use dsra_dct::DaParams;
use dsra_runtime::SocRuntime;
use dsra_video::JobSpec;

use crate::plan::{FaultEvent, FaultKind};

/// Deterministic garbage fold for a dead array's output.
const DEATH_SALT: u64 = 0xDEAD_A77A_DEAD_A77A;
/// Deterministic fold for a corrupted configuration plane.
const RECONFIG_SALT: u64 = 0xBAD0_C0DE_BAD0_C0DE;

/// One array's active faults.
#[derive(Debug, Clone, Default)]
struct ArrayFaults {
    /// Active stuck-at lanes: `(bit, high, until_us)`, in injection
    /// order (later faults win).
    stuck: Vec<(u8, bool, u64)>,
    /// Pending transient mask — XORed into exactly one execution.
    transient: u64,
    /// `true` while the array's configuration plane is corrupted.
    reconfig: bool,
    /// `true` once the array is dead.
    dead: bool,
}

impl ArrayFaults {
    /// Whether any fault would corrupt an execution at `now_us`.
    fn is_faulty(&self, now_us: u64) -> bool {
        self.dead
            || self.reconfig
            || self.transient != 0
            || self.stuck.iter().any(|&(_, _, until)| until > now_us)
    }
}

/// The mutable fault state behind [`ChaosState`].
#[derive(Debug, Default)]
pub struct ChaosCore {
    now_us: u64,
    arrays: Vec<ArrayFaults>,
    /// Ground truth per job id: was the *latest* execution of this job
    /// corrupted? (Retries overwrite — what matters is whether the
    /// result that could reach a tenant is corrupt.)
    last_corrupt: BTreeMap<u32, bool>,
    corrupt_execs: u64,
    total_execs: u64,
}

impl ChaosCore {
    fn corrupt(&mut self, array: usize, job: u32, checksum: u64) -> u64 {
        self.total_execs += 1;
        let now_us = self.now_us;
        let Some(f) = self.arrays.get_mut(array) else {
            self.last_corrupt.insert(job, false);
            return checksum;
        };
        let mut v = checksum;
        if f.dead {
            v = v.rotate_left(17) ^ DEATH_SALT;
        }
        if f.reconfig {
            v = v.rotate_left(5) ^ RECONFIG_SALT;
        }
        // Stuck lanes compose in injection order: later injections win
        // on a contested bit.
        for &(bit, high, until_us) in &f.stuck {
            if until_us <= now_us {
                continue; // intermittent fault, currently self-cleared
            }
            let mask = 1u64 << bit;
            if high {
                v |= mask;
            } else {
                v &= !mask;
            }
        }
        if f.transient != 0 {
            v ^= f.transient;
            f.transient = 0; // single-execution upset
        }
        let corrupted = v != checksum;
        self.corrupt_execs += u64::from(corrupted);
        self.last_corrupt.insert(job, corrupted);
        v
    }
}

/// Shared handle to the fault state: the recovery hook arms faults and
/// probes through it, every [`ChaosBackend`] corrupts through it.
#[derive(Debug, Clone, Default)]
pub struct ChaosState(Arc<Mutex<ChaosCore>>);

impl ChaosState {
    /// Fresh, fault-free state for a pool of `arrays`.
    pub fn new(arrays: usize) -> Self {
        ChaosState(Arc::new(Mutex::new(ChaosCore {
            arrays: vec![ArrayFaults::default(); arrays],
            ..ChaosCore::default()
        })))
    }

    fn lock(&self) -> MutexGuard<'_, ChaosCore> {
        self.0.lock().expect("chaos state lock poisoned")
    }

    /// Advances the fault clock (stuck-at windows are judged against it).
    pub fn set_now(&self, now_us: u64) {
        self.lock().now_us = now_us;
    }

    /// Arms one scheduled fault. Brownouts are battery-side and ignored
    /// here (the hook drains the battery directly).
    pub fn apply(&self, ev: &FaultEvent) {
        let mut core = self.lock();
        let Some(f) = core.arrays.get_mut(ev.array) else {
            return;
        };
        match ev.kind {
            FaultKind::StuckAt {
                bit,
                high,
                until_us,
            } => f.stuck.push((bit, high, until_us)),
            FaultKind::Transient { bits } => f.transient ^= bits,
            FaultKind::ReconfigCorrupt => f.reconfig = true,
            FaultKind::Death => f.dead = true,
            FaultKind::Brownout { .. } => {}
        }
    }

    /// Quarantine side effect: the array's bitstream was evicted, so a
    /// corrupted configuration plane is gone (its next load is clean),
    /// and any armed transient is discharged. Stuck-at windows and death
    /// are physical and survive.
    pub fn on_quarantine(&self, array: usize) {
        let mut core = self.lock();
        if let Some(f) = core.arrays.get_mut(array) {
            f.reconfig = false;
            f.transient = 0;
        }
    }

    /// The probe's verdict: would an execution on `array` corrupt right
    /// now? (`at_us` is the probe instant — intermittent stuck-at faults
    /// may have self-cleared by then.)
    pub fn is_faulty(&self, array: usize, at_us: u64) -> bool {
        let core = self.lock();
        core.arrays.get(array).is_some_and(|f| f.is_faulty(at_us))
    }

    /// Whether the latest execution of `job` delivered a corrupt
    /// checksum — the ground-truth oracle `corrupt_served` accounting
    /// checks served outcomes against.
    pub fn was_last_corrupt(&self, job: u32) -> bool {
        self.lock().last_corrupt.get(&job).copied().unwrap_or(false)
    }

    /// `(corrupt, total)` executions the decorators have seen.
    pub fn exec_counts(&self) -> (u64, u64) {
        let core = self.lock();
        (core.corrupt_execs, core.total_execs)
    }
}

/// The fault-injecting [`Backend`] decorator: executes the inner backend
/// unchanged, then corrupts the checksum per the shared fault state.
pub struct ChaosBackend {
    array: usize,
    inner: Box<dyn Backend>,
    state: ChaosState,
}

impl ChaosBackend {
    /// Decorates `inner` as pool array `array`.
    pub fn new(array: usize, inner: Box<dyn Backend>, state: ChaosState) -> Self {
        ChaosBackend {
            array,
            inner,
            state,
        }
    }
}

impl Backend for ChaosBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome> {
        let outcome = self.inner.execute(params, job, kernel_name)?;
        let checksum = self
            .state
            .lock()
            .corrupt(self.array, job.id, outcome.checksum);
        Ok(ExecOutcome {
            checksum,
            ..outcome
        })
    }
}

/// Interposes a [`ChaosBackend`] on every array of `runtime` and returns
/// the shared state the recovery hook drives. Call once per runtime (a
/// second call would stack decorators).
pub fn install_chaos(runtime: &mut SocRuntime) -> ChaosState {
    let state = ChaosState::new(runtime.engine_count());
    let handle = state.clone();
    runtime.wrap_engines(move |array, inner| {
        Box::new(ChaosBackend::new(array, inner, handle.clone()))
    });
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedBackend(u64);
    impl Backend for FixedBackend {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn execute(&mut self, _: DaParams, _: &JobSpec, _: &str) -> Result<ExecOutcome> {
            Ok(ExecOutcome {
                exec_cycles: 100,
                checksum: self.0,
            })
        }
    }

    fn job(id: u32) -> JobSpec {
        JobSpec {
            id,
            arrival_cycle: 0,
            class: dsra_video::ServiceClass::Quality,
            payload: dsra_video::JobPayload::DctBlocks {
                blocks: 1,
                amplitude: 64,
            },
            seed: 1,
        }
    }

    fn exec(b: &mut ChaosBackend, id: u32) -> u64 {
        b.execute(DaParams::precise(), &job(id), "dct_basic")
            .unwrap()
            .checksum
    }

    #[test]
    fn stuck_at_forces_the_lane_until_it_expires() {
        let state = ChaosState::new(1);
        let mut b = ChaosBackend::new(0, Box::new(FixedBackend(0)), state.clone());
        state.apply(&FaultEvent {
            at_us: 10,
            array: 0,
            kind: FaultKind::StuckAt {
                bit: 3,
                high: true,
                until_us: 100,
            },
        });
        state.set_now(50);
        assert_eq!(exec(&mut b, 0), 1 << 3);
        assert!(state.was_last_corrupt(0));
        assert!(state.is_faulty(0, 50));
        // Past the window the intermittent fault self-clears.
        state.set_now(100);
        assert_eq!(exec(&mut b, 1), 0);
        assert!(!state.was_last_corrupt(1));
        assert!(!state.is_faulty(0, 100));
    }

    #[test]
    fn stuck_low_on_an_already_low_lane_is_a_silent_no_op() {
        let state = ChaosState::new(1);
        let mut b = ChaosBackend::new(0, Box::new(FixedBackend(0)), state.clone());
        state.apply(&FaultEvent {
            at_us: 0,
            array: 0,
            kind: FaultKind::StuckAt {
                bit: 5,
                high: false,
                until_us: 100,
            },
        });
        assert_eq!(exec(&mut b, 0), 0);
        assert!(!state.was_last_corrupt(0), "no bit moved, no corruption");
    }

    #[test]
    fn transient_flips_exactly_one_execution() {
        let state = ChaosState::new(1);
        let mut b = ChaosBackend::new(0, Box::new(FixedBackend(0xFF)), state.clone());
        state.apply(&FaultEvent {
            at_us: 0,
            array: 0,
            kind: FaultKind::Transient { bits: 0b101 },
        });
        assert_eq!(exec(&mut b, 0), 0xFF ^ 0b101);
        assert_eq!(exec(&mut b, 1), 0xFF, "cleared after one execution");
        let (corrupt, total) = state.exec_counts();
        assert_eq!((corrupt, total), (1, 2));
    }

    #[test]
    fn death_is_permanent_and_reconfig_clears_on_quarantine() {
        let state = ChaosState::new(2);
        let mut dead = ChaosBackend::new(0, Box::new(FixedBackend(7)), state.clone());
        let mut bad_cfg = ChaosBackend::new(1, Box::new(FixedBackend(7)), state.clone());
        state.apply(&FaultEvent {
            at_us: 0,
            array: 0,
            kind: FaultKind::Death,
        });
        state.apply(&FaultEvent {
            at_us: 0,
            array: 1,
            kind: FaultKind::ReconfigCorrupt,
        });
        assert_ne!(exec(&mut dead, 0), 7);
        assert_ne!(exec(&mut bad_cfg, 1), 7);
        state.on_quarantine(0);
        state.on_quarantine(1);
        assert!(state.is_faulty(0, 1_000_000), "death survives quarantine");
        assert!(!state.is_faulty(1, 0), "reconfig clears with the eviction");
        assert_ne!(exec(&mut dead, 2), 7);
        assert_eq!(exec(&mut bad_cfg, 3), 7);
    }
}
