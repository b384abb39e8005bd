//! Per-array state and accounting shared by batch and streaming serving.
//!
//! The model (DESIGN.md §7) charges each array for its (partial)
//! configuration writes, its execution and the leakage of whatever plane
//! it holds, and draws the same timeline as trace intervals. One
//! [`ArrayLedger`] per array is the only place that happens, and the only
//! record of what the array holds and when it is free: streaming
//! placement prices the ledgers directly. Batch `serve` walks each array's
//! finished plan through its ledger; streaming drives it job by job and
//! from the gate, wake, quarantine and restore hooks. What differs between
//! the modes is passed in as arguments (whether an idle span is gated,
//! whether a configuration write is a wake), never decided here.

use std::sync::Arc;

use dsra_core::report::ExecOutcome;
use dsra_power::EnergyAccount;
use dsra_trace::{ArrayPhase, EnergyBreakdown, TraceEvent, TraceSink};
use dsra_video::JobSpec;

use crate::cache::CompiledKernel;
use crate::kernel::ArrayKind;
use crate::report::ArrayReport;
use crate::scheduler::{Candidate, PlannedSlot};
use crate::StreamArrayStatus;

/// Energy per configuration bit written (a dynamic cost: each written bit
/// switches the configuration plane), in the technology model's energy
/// units.
const RECONFIG_ENERGY_PER_BIT: f64 = 2.0;

/// Resident plane, energy, timeline cursor and tallies of one array over
/// one serve or streaming session.
pub(crate) struct ArrayLedger {
    pub(crate) id: usize,
    pub(crate) kind: ArrayKind,
    account: EnergyAccount,
    /// Kernel whose configuration plane the array holds; `None` while it
    /// holds none (never configured, gated or quarantined), when an idle
    /// span leaks nothing and the next kernel pays a full write.
    pub(crate) resident: Option<Arc<CompiledKernel>>,
    /// Streaming only: the elastic pool holds the array powered off.
    pub(crate) gated: bool,
    /// Streaming only: the fault-recovery layer holds the array out of
    /// placement.
    pub(crate) quarantined: bool,
    /// Every cycle before this one is charged and traced.
    pub(crate) free_at: u64,
    jobs: usize,
    /// Switches that actually wrote bits.
    reconfig_events: usize,
    reconfig_bits: u64,
    reconfig_cycles: u64,
    exec_cycles: u64,
}

impl ArrayLedger {
    /// One cold, zeroed ledger per array of a pool of `da` DA arrays
    /// followed by `me` ME arrays, in id order.
    pub(crate) fn pool(da: usize, me: usize) -> Vec<Self> {
        std::iter::repeat_n(ArrayKind::Da, da)
            .chain(std::iter::repeat_n(ArrayKind::Me, me))
            .enumerate()
            .map(|(id, kind)| ArrayLedger {
                id,
                kind,
                account: EnergyAccount::new(format!("{}{id}", kind.tag())),
                resident: None,
                gated: false,
                quarantined: false,
                free_at: 0,
                jobs: 0,
                reconfig_events: 0,
                reconfig_bits: 0,
                reconfig_cycles: 0,
                exec_cycles: 0,
            })
            .collect()
    }

    /// What placement sees of this array.
    pub(crate) fn candidate(&self) -> Candidate<'_> {
        Candidate {
            id: self.id,
            kind: self.kind,
            resident: self.resident.as_deref(),
            free_at: self.free_at,
        }
    }

    /// What the streaming frontends see of this array.
    pub(crate) fn status(&self) -> StreamArrayStatus {
        StreamArrayStatus {
            id: self.id,
            kind: self.kind,
            free_at: self.free_at,
            gated: self.gated,
            quarantined: self.quarantined,
        }
    }

    /// This array's totals as a report row, its utilisation taken over
    /// `[0, span_end)`.
    pub(crate) fn report(&self, span_end: u64) -> ArrayReport {
        ArrayReport {
            id: self.id,
            kind: self.kind,
            jobs: self.jobs,
            exec_cycles: self.exec_cycles,
            reconfig_cycles: self.reconfig_cycles,
            reconfig_bits: self.reconfig_bits,
            reconfig_events: self.reconfig_events,
            utilization_pct: if span_end == 0 {
                0.0
            } else {
                (self.exec_cycles + self.reconfig_cycles) as f64 * 100.0 / span_end as f64
            },
            dynamic_j: self.account.dynamic_j,
            static_j: self.account.static_j,
            reconfig_j: self.account.reconfig_j,
            gated_cycles: self.account.gated_cycles,
            idle_cycles: self.account.idle_cycles,
        }
    }

    /// Charges the span from the cursor up to `t` as idle time, leaking the
    /// resident plane or, when `gated`, nothing (tallied as gated cycles).
    /// It is traced as one `Idle`/`Gated` interval, and the cursor moves to
    /// `t`. Returns the joules charged; a `t` at or before the cursor
    /// charges and emits nothing.
    pub(crate) fn idle_until(&mut self, t: u64, gated: bool, sink: &mut dyn TraceSink) -> f64 {
        if t <= self.free_at {
            return 0.0;
        }
        let before = self.account.total_j();
        let leak = self.resident.as_ref().map_or(0.0, |k| k.split.leak_power);
        self.account.charge_idle(t - self.free_at, leak, gated);
        if sink.enabled() {
            sink.emit(TraceEvent::ArrayInterval {
                array: self.id as u32,
                phase: if gated {
                    ArrayPhase::Gated
                } else {
                    ArrayPhase::Idle
                },
                start: self.free_at,
                end: t,
                job: None,
                kernel: None,
            });
        }
        self.free_at = t;
        self.account.total_j() - before
    }

    /// Starts `job` on `kernel` at the later of its arrival and the cursor:
    /// the gap before it is charged as in [`ArrayLedger::idle_until`], then
    /// `JobSchedule` is emitted. Returns the start cycle and the gap's
    /// joules.
    pub(crate) fn start_job(
        &mut self,
        job: &JobSpec,
        kernel: &CompiledKernel,
        gated: bool,
        sink: &mut dyn TraceSink,
    ) -> (u64, f64) {
        let start = self.free_at.max(job.arrival_cycle);
        let gap_j = self.idle_until(start, gated, sink);
        if sink.enabled() {
            sink.emit(TraceEvent::JobSchedule {
                t: start,
                job: job.id,
                array: self.id as u32,
                kernel: kernel.name.clone(),
                fingerprint: kernel.fingerprint.to_hex(),
            });
        }
        (start, gap_j)
    }

    /// Finishes the job [`ArrayLedger::start_job`] started: charges its
    /// configuration write, the new plane's leakage while the bus writes
    /// it, and its execution. Emits the `Reconfig` (or, when `waking`,
    /// `Waking`) and `Exec` intervals and `JobComplete`, makes `kernel`
    /// resident and moves the cursor to the job's end. Returns the joules
    /// attributable to the job.
    pub(crate) fn finish_job(
        &mut self,
        job: u32,
        kernel: &Arc<CompiledKernel>,
        slot: &PlannedSlot,
        outcome: &ExecOutcome,
        waking: bool,
        sink: &mut dyn TraceSink,
    ) -> f64 {
        let start = self.free_at;
        let exec_start = start + slot.reconfig_cycles;
        let end = exec_start + outcome.exec_cycles;
        let split = &kernel.split;
        let before = self.account.totals();
        self.account
            .charge_reconfig(slot.reconfig_bits, RECONFIG_ENERGY_PER_BIT);
        self.account
            .charge_idle(slot.reconfig_cycles, split.leak_power, false);
        self.account.charge_active(outcome.exec_cycles, split);
        let energy_j = self.account.total_j() - before.total_j();
        if sink.enabled() {
            if slot.reconfig_cycles > 0 {
                sink.emit(TraceEvent::ArrayInterval {
                    array: self.id as u32,
                    phase: if waking {
                        ArrayPhase::Waking
                    } else {
                        ArrayPhase::Reconfig
                    },
                    start,
                    end: exec_start,
                    job: Some(job),
                    kernel: Some(kernel.name.clone()),
                });
            }
            if outcome.exec_cycles > 0 {
                sink.emit(TraceEvent::ArrayInterval {
                    array: self.id as u32,
                    phase: ArrayPhase::Exec,
                    start: exec_start,
                    end,
                    job: Some(job),
                    kernel: Some(kernel.name.clone()),
                });
            }
            let d = self.account.totals().since(&before);
            sink.emit(TraceEvent::JobComplete {
                t: end,
                job,
                checksum: outcome.checksum,
                energy: EnergyBreakdown {
                    dynamic_j: d.dynamic_j,
                    static_j: d.static_j,
                    reconfig_j: d.reconfig_j,
                },
            });
        }
        self.resident = Some(Arc::clone(kernel));
        self.free_at = end;
        self.jobs += 1;
        self.reconfig_events += usize::from(slot.reconfig_bits > 0);
        self.reconfig_bits += slot.reconfig_bits;
        self.reconfig_cycles += slot.reconfig_cycles;
        self.exec_cycles += outcome.exec_cycles;
        energy_j
    }
}
