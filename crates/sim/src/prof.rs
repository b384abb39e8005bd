//! Op-level profiling for the flat-plan interpreter: zero-cost when
//! disabled, cycle-exact when on.
//!
//! The seam mirrors `dsra-trace`'s `NoopSink`: the simulator is generic
//! over a [`ProfSink`] whose `ENABLED` flag is an associated `const`, so
//! the disabled path ([`NoopProf`], the default) monomorphizes every
//! `record_*` call away — the compiled hot loop is bit-for-bit the
//! pre-profiling one, and simulation results are byte-identical with
//! profiling on or off (the sink only *observes*).
//!
//! ## Activity recording
//!
//! Toggle counting rides the same seam. `RECORDS_ACTIVITY` is the second
//! associated `const`: only [`RecordActivity`] sets it, and only a
//! simulator over that sink keeps previous net values, counts toggles and
//! offers [`crate::Simulator::activity`]. Power profiling (the setup-time
//! `profiling_activity` pass, E4/E5/E9's activity stimuli) builds it;
//! served engines keep [`NoopProf`], so they count no toggles at all.
//!
//! ## The static op mix
//!
//! The flat plan executes the same ops every cycle: every node of the
//! settle sweep evaluates once and every sequential node ticks once per
//! [`crate::Simulator::step`] (once per sweep, however many lanes the
//! simulator carries). Per-cycle op-class counts are therefore a
//! *static* property of the plan — [`crate::ExecPlan::op_mix`] returns
//! them without simulating, and a live [`CountingProf`] must agree
//! exactly: `counters == op_mix × cycles`. Attribution layers
//! (`dsra-profile`) exploit this to split a kernel's busy cycles across
//! op classes without paying for per-cycle counting.

/// The operation classes the interpreter dispatches on, collapsed over
/// widths and modes. Sequential clusters contribute **two** counts per
/// cycle — one Moore-output publish in the settle phase and one
/// clock-edge tick — matching what the interpreter actually executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Top-level input publish.
    Input,
    /// Constant driver.
    Const,
    /// Bus concatenation.
    Concat,
    /// Bit-slice extraction.
    Slice,
    /// Sign extension.
    SignExtend,
    /// Unregistered 2:1 mux.
    Mux,
    /// Registered RegMux (publish + tick).
    Reg,
    /// Absolute difference / add / sub pixel op.
    AbsDiff,
    /// Combinational add/subtract.
    AddSub,
    /// Accumulating adder (publish + tick).
    Acc,
    /// Two-value min/max comparator.
    CmpMinMax,
    /// Streaming best/index comparator (publish + tick).
    CmpStream,
    /// Bit-serial full-adder sum bit (the carry tick rides the same
    /// class).
    SerialAdd,
    /// Parallel-to-serial shift register (publish + tick).
    SerialReg,
    /// DA shift-accumulator (publish + tick).
    ShiftAcc,
    /// Asynchronous-read memory (DA ROMs).
    Memory,
}

impl OpClass {
    /// Number of distinct classes.
    pub const COUNT: usize = 16;

    /// Every class, in stable declaration order (the tie-break order of
    /// [`OpMix::attribute`]).
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Input,
        OpClass::Const,
        OpClass::Concat,
        OpClass::Slice,
        OpClass::SignExtend,
        OpClass::Mux,
        OpClass::Reg,
        OpClass::AbsDiff,
        OpClass::AddSub,
        OpClass::Acc,
        OpClass::CmpMinMax,
        OpClass::CmpStream,
        OpClass::SerialAdd,
        OpClass::SerialReg,
        OpClass::ShiftAcc,
        OpClass::Memory,
    ];

    /// Dense index in `[0, COUNT)`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case tag — the `op:<tag>` leaf of flamegraph stacks.
    pub fn tag(self) -> &'static str {
        match self {
            OpClass::Input => "input",
            OpClass::Const => "const",
            OpClass::Concat => "concat",
            OpClass::Slice => "slice",
            OpClass::SignExtend => "sign_extend",
            OpClass::Mux => "mux",
            OpClass::Reg => "reg",
            OpClass::AbsDiff => "abs_diff",
            OpClass::AddSub => "add_sub",
            OpClass::Acc => "acc",
            OpClass::CmpMinMax => "cmp_min_max",
            OpClass::CmpStream => "cmp_stream",
            OpClass::SerialAdd => "serial_add",
            OpClass::SerialReg => "serial_reg",
            OpClass::ShiftAcc => "shift_acc",
            OpClass::Memory => "memory",
        }
    }
}

/// Per-cycle op-class execution counts of one compiled plan — the static
/// profile every simulated cycle repeats (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpMix {
    per_cycle: [u64; OpClass::COUNT],
}

impl OpMix {
    /// An empty mix (no ops — the mix of an empty netlist).
    pub fn new() -> Self {
        OpMix::default()
    }

    /// Adds `n` executions-per-cycle of one class.
    pub fn add(&mut self, class: OpClass, n: u64) {
        self.per_cycle[class.index()] += n;
    }

    /// Executions per cycle of one class.
    pub fn count(&self, class: OpClass) -> u64 {
        self.per_cycle[class.index()]
    }

    /// Total op executions per cycle across all classes.
    pub fn ops_per_cycle(&self) -> u64 {
        self.per_cycle.iter().sum()
    }

    /// `true` when the plan executes no ops.
    pub fn is_empty(&self) -> bool {
        self.ops_per_cycle() == 0
    }

    /// Splits `cycles` busy cycles across the mix's op classes,
    /// proportionally to their per-cycle counts, by largest remainder
    /// (ties to the earlier class in [`OpClass::ALL`]). The returned
    /// shares cover `cycles` **exactly** — attribution never leaks a
    /// cycle — and only classes present in the mix appear.
    pub fn attribute(&self, cycles: u64) -> Vec<(OpClass, u64)> {
        let total = u128::from(self.ops_per_cycle());
        if total == 0 || cycles == 0 {
            return Vec::new();
        }
        let mut shares: Vec<(OpClass, u64, u128)> = Vec::new();
        let mut assigned: u64 = 0;
        for class in OpClass::ALL {
            let w = u128::from(self.count(class));
            if w == 0 {
                continue;
            }
            let exact = u128::from(cycles) * w;
            let base = (exact / total) as u64;
            assigned += base;
            shares.push((class, base, exact % total));
        }
        let mut leftover = cycles - assigned;
        while leftover > 0 {
            // Stable max-by-remainder: earlier class wins ties.
            let (best, _) = shares
                .iter()
                .enumerate()
                .max_by(|(ai, a), (bi, b)| a.2.cmp(&b.2).then(bi.cmp(ai)))
                .expect("non-empty mix");
            shares[best].1 += 1;
            shares[best].2 = 0;
            leftover -= 1;
        }
        shares.into_iter().map(|(c, n, _)| (c, n)).collect()
    }
}

/// Receives op-level execution records from the interpreter. `ENABLED`
/// and `RECORDS_ACTIVITY` are associated `const`s so a disabled sink
/// compiles to nothing.
pub trait ProfSink: std::fmt::Debug {
    /// `false` for [`NoopProf`]; the simulator guards every record call
    /// behind `if P::ENABLED`, which const-folds away when `false`.
    const ENABLED: bool;

    /// `true` only for [`RecordActivity`]: whether the simulator counts
    /// toggles into an [`crate::Activity`] record. Every counting step is
    /// guarded by `if P::RECORDS_ACTIVITY`, so on any other sink the
    /// previous-value copy, the per-net toggle sweep and the per-lane
    /// state-change count compile out.
    const RECORDS_ACTIVITY: bool;

    /// One op executed for `node` this cycle.
    fn record_op(&mut self, node: u32, class: OpClass);

    /// One full cycle completed.
    fn record_cycle(&mut self);
}

/// The default sink: profiling off, zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProf;

impl ProfSink for NoopProf {
    const ENABLED: bool = false;
    const RECORDS_ACTIVITY: bool = false;

    #[inline]
    fn record_op(&mut self, _node: u32, _class: OpClass) {}

    #[inline]
    fn record_cycle(&mut self) {}
}

/// A live counting sink: per-class and per-node op counts plus the cycle
/// count. Exists to *verify* the static mix (`counters == op_mix ×
/// cycles`) and to profile ad-hoc simulations; the attribution layer
/// uses [`OpMix`] directly.
#[derive(Debug, Clone, Default)]
pub struct CountingProf {
    cycles: u64,
    per_class: [u64; OpClass::COUNT],
    per_node: Vec<u64>,
}

impl CountingProf {
    /// A zeroed counter set.
    pub fn new() -> Self {
        CountingProf::default()
    }

    /// Cycles recorded so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Op executions recorded for one class.
    pub fn class_count(&self, class: OpClass) -> u64 {
        self.per_class[class.index()]
    }

    /// Op executions recorded for one node (0 for never-seen nodes).
    pub fn node_count(&self, node: u32) -> u64 {
        self.per_node.get(node as usize).copied().unwrap_or(0)
    }

    /// Total op executions across all classes.
    pub fn total_ops(&self) -> u64 {
        self.per_class.iter().sum()
    }

    /// The per-cycle mix these counters imply (`None` before the first
    /// full cycle or if the counts are not an exact multiple — which
    /// would mean the plan's op set varied per cycle, i.e. a bug).
    pub fn implied_mix(&self) -> Option<OpMix> {
        if self.cycles == 0 {
            return None;
        }
        let mut mix = OpMix::new();
        for class in OpClass::ALL {
            let n = self.class_count(class);
            if !n.is_multiple_of(self.cycles) {
                return None;
            }
            mix.add(class, n / self.cycles);
        }
        Some(mix)
    }
}

impl ProfSink for CountingProf {
    const ENABLED: bool = true;
    const RECORDS_ACTIVITY: bool = false;

    #[inline]
    fn record_op(&mut self, node: u32, class: OpClass) {
        self.per_class[class.index()] += 1;
        let idx = node as usize;
        if idx >= self.per_node.len() {
            self.per_node.resize(idx + 1, 0);
        }
        self.per_node[idx] += 1;
    }

    #[inline]
    fn record_cycle(&mut self) {
        self.cycles += 1;
    }
}

/// The activity-recording sink: a simulator built over it counts toggles
/// on every net and every state change, and only such a simulator offers
/// [`crate::Simulator::activity`]. Op records go to the wrapped sink, so
/// `RecordActivity(CountingProf::new())` profiles and records at once.
/// Power profiling builds this type; served engines keep [`NoopProf`] and
/// pay nothing for toggles they would never read.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordActivity<P: ProfSink = NoopProf>(pub P);

impl<P: ProfSink> ProfSink for RecordActivity<P> {
    const ENABLED: bool = P::ENABLED;
    const RECORDS_ACTIVITY: bool = true;

    #[inline]
    fn record_op(&mut self, node: u32, class: OpClass) {
        self.0.record_op(node, class);
    }

    #[inline]
    fn record_cycle(&mut self) {
        self.0.record_cycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_and_tags_are_stable() {
        assert_eq!(OpClass::ALL.len(), OpClass::COUNT);
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(OpClass::ShiftAcc.tag(), "shift_acc");
        assert_eq!(OpClass::SerialAdd.tag(), "serial_add");
    }

    #[test]
    fn attribute_is_exact_and_proportional() {
        let mut mix = OpMix::new();
        mix.add(OpClass::AbsDiff, 3);
        mix.add(OpClass::Acc, 1);
        mix.add(OpClass::Reg, 2);
        for cycles in [0u64, 1, 7, 100, 48_211, u64::from(u32::MAX)] {
            let shares = mix.attribute(cycles);
            let sum: u64 = shares.iter().map(|&(_, n)| n).sum();
            assert_eq!(sum, cycles, "attribution must cover every cycle");
        }
        let shares = mix.attribute(600);
        assert_eq!(
            shares,
            vec![
                (OpClass::Reg, 200),
                (OpClass::AbsDiff, 300),
                (OpClass::Acc, 100)
            ]
        );
    }

    #[test]
    fn attribute_of_empty_mix_is_empty() {
        assert!(OpMix::new().attribute(1000).is_empty());
    }

    #[test]
    fn counting_prof_tracks_per_node_and_per_class() {
        let mut p = CountingProf::new();
        p.record_op(4, OpClass::Mux);
        p.record_op(4, OpClass::Mux);
        p.record_op(9, OpClass::Memory);
        p.record_cycle();
        assert_eq!(p.cycles(), 1);
        assert_eq!(p.class_count(OpClass::Mux), 2);
        assert_eq!(p.node_count(4), 2);
        assert_eq!(p.node_count(9), 1);
        assert_eq!(p.node_count(100), 0);
        assert_eq!(p.total_ops(), 3);
        let mix = p.implied_mix().expect("one full cycle");
        assert_eq!(mix.count(OpClass::Mux), 2);
        assert_eq!(mix.count(OpClass::Memory), 1);
    }
}
