//! The cycle-accurate simulation engine.
//!
//! Two-phase execution per clock: all combinational logic settles in
//! levelized order, then every sequential cluster ticks. Values travel as raw
//! two's-complement words ([`dsra_core::fixed`]).
//!
//! ## The flat execution plan
//!
//! The netlist graph is walked **once**, at [`ExecPlan::compile`] /
//! [`Simulator::new`] time, and lowered into a flat plan: every node becomes
//! one enum-dispatched op with its input ports resolved to net slots (an
//! unconnected port reads a constant slot holding its default), its output
//! ports resolved to the nets they drive, and its sequential state resolved
//! to a run of state slots. The settle sweep is stored as `(node, op)`
//! pairs in execution order. The per-cycle loops then touch only dense
//! `Vec`s — no port-name lookups, no adjacency chasing and **zero heap
//! allocations per simulated cycle**.
//!
//! ## Checked once, at compile
//!
//! Compiling validates every width an op computes with (`1..=63`, see
//! [`dsra_core::fixed::MAX_WORD_WIDTH`]) and returns
//! [`CoreError::InvalidWidth`] for any other, so the sweep never checks a
//! width: its masks and sign extensions are branch-free shifts, and the
//! sequential ticks select their next state instead of branching per lane.
//! Each ROM is lowered to a table of `2^addr_bits` pre-masked words with
//! `table[a] = contents[a % words]`, so a read is `table[a & (len - 1)]`:
//! one path, no divide.
//!
//! ## Lanes
//!
//! A simulator evaluates `W` independent copies of the design at once
//! (`Simulator<'n, P, W>`, `W = 1` by default). Every net value, external
//! pin and state slot holds a `[u64; W]` — one word per lane — and one plan
//! sweep matches each op once, then loops over the lanes. Designs whose
//! control schedule is the same for every data set (the bit-serial DA
//! DCTs: only the sample pins differ between blocks) therefore pay the op
//! dispatch once per `W` blocks. Lanes never interact: pins driven with
//! [`Simulator::drive`] are broadcast to every lane (the shared control
//! schedule), [`Simulator::drive_lane`] / [`Simulator::read_lane`] address
//! one lane's data, and [`Activity`] sums toggles (and lane-cycles) over
//! the lanes, so a `W`-lane record equals the sum of `W` single-lane runs.
//!
//! ## Activity is recorded only by recording types
//!
//! Toggle counting is a compile-time property of the sink type, like op
//! profiling: a simulator over [`crate::RecordActivity`] copies each
//! cycle's net values, counts the bits that changed per net and the lanes
//! whose state changed per sequential node, and offers
//! [`Simulator::activity`]. On any other sink — [`NoopProf`], the default
//! every served engine uses — those steps const-fold away: no
//! previous-value buffer is allocated, and one sweep loop serves both.
//!
//! Drivers that rebuild a `Simulator` per batch or per search (the DCT
//! `transform_batch` drivers, the ME engines) compile the plan once at
//! construction and share it via [`Simulator::with_plan`] /
//! [`Simulator::with_plan_lanes`], so the graph walk is paid per *kernel*,
//! not per invocation.

use dsra_core::cluster::{AbsDiffMode, AddOp, AddShiftCfg, ClusterCfg, CompMode};
use dsra_core::error::{CoreError, Result};
use dsra_core::fixed::MAX_WORD_WIDTH;
use dsra_core::netlist::{Netlist, NodeId, NodeKind, PortDir, PortRef};

use crate::activity::Activity;
use crate::prof::{NoopProf, OpClass, OpMix, ProfSink, RecordActivity};

/// Word arithmetic for widths [`ExecPlan::compile`] has validated
/// (`1..=MAX_WORD_WIDTH`): the results of [`dsra_core::fixed`]'s helpers of
/// the same names, as plain shifts without their per-call range assert.
mod word {
    /// The low `width` bits of `value`.
    #[inline(always)]
    pub(crate) fn mask(value: u64, width: u8) -> u64 {
        value & (u64::MAX >> (64 - u32::from(width)))
    }

    /// The low `width` bits of `raw`, sign-extended.
    #[inline(always)]
    pub(crate) fn to_signed(raw: u64, width: u8) -> i64 {
        let unused = 64 - u32::from(width);
        ((raw << unused) as i64) >> unused
    }

    /// `value` wrapped to a `width`-bit two's-complement word.
    #[inline(always)]
    pub(crate) fn from_signed(value: i64, width: u8) -> u64 {
        mask(value as u64, width)
    }
}

use word::{from_signed, mask, to_signed};

/// Sentinel for "no net" in the compiled plan: an undriven output port (its
/// writes are dropped) or an unconnected top-level output (reads as 0).
const NO_NET: u32 = u32::MAX;

/// One resolved input port: the net slot it reads. Unconnected ports with
/// a baked-in default read a constant slot past the netlist's nets.
#[derive(Debug, Clone, Copy)]
struct InSlot(u32);

impl InSlot {
    /// The port's value in every lane.
    #[inline(always)]
    fn read<const W: usize>(self, nets: &[[u64; W]]) -> &[u64; W] {
        &nets[self.0 as usize]
    }
}

/// Applies `f` lane by lane.
#[inline(always)]
fn map1<const W: usize>(a: &[u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    std::array::from_fn(|l| f(a[l]))
}

/// Applies `f` lane by lane to two operands.
#[inline(always)]
fn map2<const W: usize>(a: &[u64; W], b: &[u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// Stores a node's next state (its `K` consecutive slots) and returns the
/// number of lanes in which any slot changed — the node's output toggles
/// for the activity record. Only a recording sink counts; on any other
/// the count is a constant 0.
#[inline(always)]
fn commit<P: ProfSink, const W: usize, const K: usize>(
    slots: &mut [[u64; W]],
    next: [[u64; W]; K],
) -> u64 {
    let mut changed = 0;
    if P::RECORDS_ACTIVITY {
        for l in 0..W {
            changed += u64::from((0..K).any(|k| slots[k][l] != next[k][l]));
        }
    }
    slots[..K].copy_from_slice(&next);
    changed
}

/// A node lowered to a dispatchable operation with resolved ports. The
/// variant split mirrors [`NodeKind::comb_output`]: `*Out` variants publish
/// Moore state in phase A, the rest settle combinationally in phase B.
/// `st` is the first of the node's state slots.
#[derive(Debug, Clone, Copy)]
enum EvalOp {
    /// Output node: pure sink, nothing to evaluate.
    Sink,
    /// Top-level input: publishes the externally driven word.
    Input { ext: u32, width: u8, out: u32 },
    /// Constant driver (value pre-masked at compile time).
    Const { value: u64, out: u32 },
    /// Concatenation: parts live in the plan's CSR pool.
    Concat { start: u32, len: u32, out: u32 },
    Slice {
        a: InSlot,
        offset: u8,
        width: u8,
        out: u32,
    },
    SignExtend {
        a: InSlot,
        in_width: u8,
        width: u8,
        out: u32,
    },
    /// Unregistered RegMux.
    Mux {
        a: InSlot,
        b: InSlot,
        sel: InSlot,
        out: u32,
    },
    /// Registered RegMux: publishes the register (slot `q`).
    RegOut { width: u8, out: u32, st: u32 },
    AbsDiff {
        a: InSlot,
        b: InSlot,
        width: u8,
        mode: AbsDiffMode,
        out: u32,
    },
    /// Combinational add/sub (AddAcc pass-through and parallel AddShift).
    AddSub {
        a: InSlot,
        b: InSlot,
        width: u8,
        sub: bool,
        out: u32,
    },
    /// Accumulating AddAcc: publishes the accumulator (slot `acc`).
    AccOut { width: u8, out: u32, st: u32 },
    /// Two-value min/max comparator.
    CmpMinMax {
        a: InSlot,
        b: InSlot,
        max: bool,
        out_y: u32,
        out_which: u32,
    },
    /// Streaming comparator: publishes slots `best`, `best_idx`.
    CmpStreamOut {
        out_best: u32,
        out_idx: u32,
        st: u32,
    },
    /// Bit-serial adder/subtracter sum bit (slot: carry).
    SerialAdd {
        a: InSlot,
        b: InSlot,
        sub: bool,
        out: u32,
        st: u32,
    },
    /// Parallel-to-serial register (slots `reg`, `pos`): publishes the
    /// current bit.
    SerialRegOut { width: u8, out: u32, st: u32 },
    /// Shift-accumulator (slot `acc`): publishes the accumulator and its
    /// serial bit.
    ShiftAccOut {
        acc_width: u8,
        out_y: u32,
        out_qs: u32,
        st: u32,
    },
    /// Asynchronous-read memory, lowered to a table of the plan's pool
    /// whose length is a power of two.
    Memory { addr: InSlot, table: u32, out: u32 },
}

/// Clock-edge update of one sequential node, with resolved control ports
/// and its first state slot.
#[derive(Debug, Clone, Copy)]
enum TickOp {
    Reg {
        a: InSlot,
        b: InSlot,
        sel: InSlot,
        en: InSlot,
        st: u32,
    },
    Acc {
        a: InSlot,
        b: InSlot,
        en: InSlot,
        clr: InSlot,
        width: u8,
        sub: bool,
        st: u32,
    },
    Comp {
        x: InSlot,
        idx: InSlot,
        en: InSlot,
        clr: InSlot,
        min: bool,
        st: u32,
    },
    Carry {
        a: InSlot,
        b: InSlot,
        clr: InSlot,
        sub: bool,
        st: u32,
    },
    SerialReg {
        d: InSlot,
        load: InSlot,
        en: InSlot,
        st: u32,
    },
    ShiftAcc {
        d: InSlot,
        en: InSlot,
        clr: InSlot,
        sub: InSlot,
        sh: InSlot,
        acc_width: u8,
        data_width: u8,
        st: u32,
    },
}

/// The flat, allocation-free execution plan a checked netlist compiles to.
///
/// Compiling is `O(nodes + ports + nets)` and immutable thereafter, so one
/// plan can back any number of [`Simulator`]s over the same netlist, of any
/// lane count (see [`Simulator::with_plan`]) — kernels that simulate many
/// blocks pay the graph walk once.
#[derive(Debug)]
pub struct ExecPlan {
    nodes: usize,
    nets: usize,
    /// The settle sweep, `(node, op)` in execution order: phase A (source
    /// nodes — inputs, constants, Moore outputs of sequential clusters —
    /// in ascending node id), then phase B (combinational nodes in
    /// levelized order).
    sweep: Vec<(u32, EvalOp)>,
    /// Sequential nodes with their clock-edge ops, ascending node id.
    ticks: Vec<(u32, TickOp)>,
    /// CSR pool of concat parts: (slot, part width, shift).
    concat_parts: Vec<(InSlot, u8, u32)>,
    /// ROM tables: `2^addr_bits` pre-masked words each (see [`rom_table`]).
    tables: Vec<Vec<u64>>,
    /// Power-on value of every state slot (sequential nodes own
    /// consecutive runs of slots, in node order).
    initial_state: Vec<u64>,
    /// Distinct defaults of unconnected input ports; `consts[k]` is the
    /// constant net slot `nets + k`.
    consts: Vec<u64>,
}

impl ExecPlan {
    /// Compiles a netlist into its flat execution plan, validating it
    /// (`check()`) and every width its ops compute with along the way.
    ///
    /// # Errors
    /// Propagates netlist validation failures (unconnected mandatory
    /// inputs, combinational loops); [`CoreError::InvalidWidth`] for a width
    /// outside `1..=63`, a concatenation wider than that, a slice reaching
    /// past its input bus or a shift-accumulator narrower than its data.
    pub fn compile(netlist: &Netlist) -> Result<Self> {
        let order = netlist.check()?;
        let mut plan = ExecPlan {
            nodes: netlist.nodes().len(),
            nets: netlist.nets().len(),
            sweep: Vec::new(),
            ticks: Vec::new(),
            concat_parts: Vec::new(),
            tables: Vec::new(),
            initial_state: Vec::new(),
            consts: Vec::new(),
        };
        // Unconnected input ports read a constant slot holding their
        // default, so every port read is one indexed load.
        for (idx, node) in netlist.nodes().iter().enumerate() {
            for (pi, port) in node.ports.iter().enumerate() {
                let pref = PortRef {
                    node: NodeId(idx as u32),
                    port: pi as u16,
                };
                let default = port.default.unwrap_or(0);
                if port.dir == PortDir::In
                    && netlist.net_of(pref).is_none()
                    && !plan.consts.contains(&default)
                {
                    plan.consts.push(default);
                }
            }
        }
        let mut ops = Vec::with_capacity(netlist.nodes().len());
        for (idx, node) in netlist.nodes().iter().enumerate() {
            let id = NodeId(idx as u32);
            let st = plan.initial_state.len() as u32;
            plan.initial_state
                .extend_from_slice(initial_state(&node.kind));
            let op = plan.lower(netlist, id, st)?;
            if !matches!(op, EvalOp::Sink) && !node.kind.comb_output() {
                plan.sweep.push((idx as u32, op));
            }
            if node.kind.sequential() {
                let tick = lower_tick(netlist, id, st, &plan.consts)?;
                plan.ticks.push((idx as u32, tick));
            }
            ops.push(op);
        }
        for id in order {
            if netlist.node(id).kind.comb_output() {
                plan.sweep.push((id.0, ops[id.0 as usize]));
            }
        }
        Ok(plan)
    }

    /// The plan's static per-sweep op mix: how many ops of each class one
    /// [`Simulator::step`] executes (once per sweep, whatever the lane
    /// count). Every settle runs the same sweep and every tick updates
    /// the same sequential nodes, so this is exact —
    /// a live [`crate::CountingProf`] over `n` cycles reports precisely
    /// `n ×` these counts. Attribution layers use it to split busy
    /// cycles across op classes without per-cycle counting.
    pub fn op_mix(&self) -> OpMix {
        let mut mix = OpMix::new();
        for (_, op) in &self.sweep {
            if let Some(class) = op_class(op) {
                mix.add(class, 1);
            }
        }
        for &(_, tick) in &self.ticks {
            mix.add(tick_class(&tick), 1);
        }
        mix
    }

    /// Lowers one node, resolving every port it reads or drives and
    /// validating every width it computes with; `st` is the node's first
    /// state slot.
    fn lower(&mut self, netlist: &Netlist, id: NodeId, st: u32) -> Result<EvalOp> {
        let node = netlist.node(id);
        let consts = &self.consts;
        let slot = |name: &str| in_slot(netlist, id, name, consts);
        let out = |name: &str| out_net(netlist, id, name);
        let w = |width: u8| word_width(netlist, id, width);
        Ok(match &node.kind {
            NodeKind::Input { width } => EvalOp::Input {
                ext: id.0,
                width: w(*width)?,
                out: out("out"),
            },
            NodeKind::Output { .. } => EvalOp::Sink,
            NodeKind::Const { value, width } => EvalOp::Const {
                value: mask(*value, w(*width)?),
                out: out("out"),
            },
            NodeKind::Concat { parts } => {
                let start = self.concat_parts.len() as u32;
                let mut shift = 0u32;
                for (i, part) in parts.iter().enumerate() {
                    self.concat_parts
                        .push((slot(&format!("in{i}")), w(*part)?, shift));
                    shift += u32::from(*part);
                }
                // Every part's shift must stay inside one word.
                w(u8::try_from(shift).unwrap_or(u8::MAX))?;
                EvalOp::Concat {
                    start,
                    len: parts.len() as u32,
                    out: out("out"),
                }
            }
            NodeKind::Slice {
                in_width,
                offset,
                width,
            } => {
                let end = offset.saturating_add(*width);
                if end > w(*in_width)? {
                    return Err(CoreError::InvalidWidth {
                        node: node.name.clone(),
                        width: end,
                    });
                }
                EvalOp::Slice {
                    a: slot("in"),
                    offset: *offset,
                    width: w(*width)?,
                    out: out("out"),
                }
            }
            NodeKind::SignExtend { in_width, width } => EvalOp::SignExtend {
                a: slot("in"),
                in_width: w(*in_width)?,
                width: w(*width)?,
                out: out("out"),
            },
            NodeKind::Cluster(cfg) => match cfg {
                ClusterCfg::RegMux {
                    width, registered, ..
                } => {
                    if *registered {
                        EvalOp::RegOut {
                            width: w(*width)?,
                            out: out("y"),
                            st,
                        }
                    } else {
                        EvalOp::Mux {
                            a: slot("a"),
                            b: slot("b"),
                            sel: slot("sel"),
                            out: out("y"),
                        }
                    }
                }
                ClusterCfg::AbsDiff { width, mode } => EvalOp::AbsDiff {
                    a: slot("a"),
                    b: slot("b"),
                    width: w(*width)?,
                    mode: *mode,
                    out: out("y"),
                },
                ClusterCfg::AddAcc {
                    width,
                    op,
                    accumulate,
                } => {
                    if *accumulate {
                        EvalOp::AccOut {
                            width: w(*width)?,
                            out: out("y"),
                            st,
                        }
                    } else {
                        EvalOp::AddSub {
                            a: slot("a"),
                            b: slot("b"),
                            width: w(*width)?,
                            sub: matches!(op, AddOp::Sub),
                            out: out("y"),
                        }
                    }
                }
                ClusterCfg::Comparator { mode, .. } => match mode {
                    CompMode::Min | CompMode::Max => EvalOp::CmpMinMax {
                        a: slot("a"),
                        b: slot("b"),
                        max: matches!(mode, CompMode::Max),
                        out_y: out("y"),
                        out_which: out("which"),
                    },
                    CompMode::StreamMin | CompMode::StreamMax => EvalOp::CmpStreamOut {
                        out_best: out("best"),
                        out_idx: out("best_idx"),
                        st,
                    },
                },
                ClusterCfg::AddShift(as_cfg) => match as_cfg {
                    AddShiftCfg::Add { width, serial } | AddShiftCfg::Sub { width, serial } => {
                        let sub = matches!(as_cfg, AddShiftCfg::Sub { .. });
                        if *serial {
                            EvalOp::SerialAdd {
                                a: slot("a"),
                                b: slot("b"),
                                sub,
                                out: out("y"),
                                st,
                            }
                        } else {
                            EvalOp::AddSub {
                                a: slot("a"),
                                b: slot("b"),
                                width: w(*width)?,
                                sub,
                                out: out("y"),
                            }
                        }
                    }
                    AddShiftCfg::SerialReg { width } => EvalOp::SerialRegOut {
                        width: w(*width)?,
                        out: out("q"),
                        st,
                    },
                    AddShiftCfg::ShiftAcc { acc_width, .. } => EvalOp::ShiftAccOut {
                        acc_width: w(*acc_width)?,
                        out_y: out("y"),
                        out_qs: out("qs"),
                        st,
                    },
                },
                ClusterCfg::Memory {
                    width, contents, ..
                } => {
                    let addr = node.port_index("addr").expect("memory has an address port");
                    let addr_bits = node.ports[usize::from(addr)].width;
                    let table = self.tables.len() as u32;
                    self.tables
                        .push(rom_table(contents, w(*width)?, w(addr_bits)?));
                    EvalOp::Memory {
                        addr: slot("addr"),
                        table,
                        out: out("dout"),
                    }
                }
            },
        })
    }
}

/// Passes `width` through when the word arithmetic supports it
/// (`1..=MAX_WORD_WIDTH`); [`CoreError::InvalidWidth`] names the node
/// otherwise.
fn word_width(netlist: &Netlist, id: NodeId, width: u8) -> Result<u8> {
    if (1..=MAX_WORD_WIDTH).contains(&width) {
        Ok(width)
    } else {
        Err(CoreError::InvalidWidth {
            node: netlist.node(id).name.clone(),
            width,
        })
    }
}

/// Lowers a ROM to a table of `2^addr_bits` words masked to `width`,
/// `table[a] = contents[a % contents.len()]`: every address the port can
/// carry reads its word with `table[a & (len - 1)]`, without a divide.
fn rom_table(contents: &[u64], width: u8, addr_bits: u8) -> Vec<u64> {
    (0..1usize << addr_bits)
        .map(|a| mask(contents[a % contents.len()], width))
        .collect()
}

/// Resolves an input port to the net it reads, or to the constant slot
/// holding its baked default (`consts[k]` lives in slot `nets + k`).
fn in_slot(netlist: &Netlist, id: NodeId, name: &str, consts: &[u64]) -> InSlot {
    let node = netlist.node(id);
    let pi = node.port_index(name).expect("port exists");
    debug_assert_eq!(node.ports[pi as usize].dir, PortDir::In);
    match netlist.net_of(PortRef { node: id, port: pi }) {
        Some(net) => InSlot(net.0),
        None => {
            let d = node.ports[pi as usize].default.unwrap_or(0);
            let k = consts
                .iter()
                .position(|&c| c == d)
                .expect("default collected");
            InSlot((netlist.nets().len() + k) as u32)
        }
    }
}

/// Resolves an output port to the net it drives — only when it is that
/// net's driver, exactly as the old `write_outputs` guarded.
fn out_net(netlist: &Netlist, id: NodeId, name: &str) -> u32 {
    let node = netlist.node(id);
    let pi = node.port_index(name).expect("port exists");
    let pref = PortRef { node: id, port: pi };
    match netlist.net_of(pref) {
        Some(net) if netlist.net(net).driver == pref => net.0,
        _ => NO_NET,
    }
}

/// Lowers one sequential node's clock-edge update, validating its widths
/// as [`ExecPlan::lower`] does.
fn lower_tick(netlist: &Netlist, id: NodeId, st: u32, consts: &[u64]) -> Result<TickOp> {
    let slot = |name: &str| in_slot(netlist, id, name, consts);
    let w = |width: u8| word_width(netlist, id, width);
    let NodeKind::Cluster(cfg) = &netlist.node(id).kind else {
        unreachable!("only clusters are sequential");
    };
    Ok(match cfg {
        ClusterCfg::RegMux { .. } => TickOp::Reg {
            a: slot("a"),
            b: slot("b"),
            sel: slot("sel"),
            en: slot("en"),
            st,
        },
        ClusterCfg::AddAcc { width, op, .. } => TickOp::Acc {
            a: slot("a"),
            b: slot("b"),
            en: slot("en"),
            clr: slot("clr"),
            width: w(*width)?,
            sub: matches!(op, AddOp::Sub),
            st,
        },
        ClusterCfg::Comparator { mode, .. } => TickOp::Comp {
            x: slot("x"),
            idx: slot("idx"),
            en: slot("en"),
            clr: slot("clr"),
            min: matches!(mode, CompMode::StreamMin),
            st,
        },
        ClusterCfg::AddShift(as_cfg) => match as_cfg {
            AddShiftCfg::Add { .. } | AddShiftCfg::Sub { .. } => TickOp::Carry {
                a: slot("a"),
                b: slot("b"),
                clr: slot("clr"),
                sub: matches!(as_cfg, AddShiftCfg::Sub { .. }),
                st,
            },
            AddShiftCfg::SerialReg { .. } => TickOp::SerialReg {
                d: slot("d"),
                load: slot("load"),
                en: slot("en"),
                st,
            },
            AddShiftCfg::ShiftAcc {
                acc_width,
                data_width,
            } => {
                // The data word aligns to the accumulator's top bits.
                if data_width > acc_width {
                    return Err(CoreError::InvalidWidth {
                        node: netlist.node(id).name.clone(),
                        width: *data_width,
                    });
                }
                TickOp::ShiftAcc {
                    d: slot("d"),
                    en: slot("en"),
                    clr: slot("clr"),
                    sub: slot("sub"),
                    sh: slot("sh"),
                    acc_width: w(*acc_width)?,
                    data_width: w(*data_width)?,
                    st,
                }
            }
        },
        _ => unreachable!("state/config mismatch"),
    })
}

/// Profiling class of one settle-phase op (`None` for pure sinks, which
/// execute nothing).
fn op_class(op: &EvalOp) -> Option<OpClass> {
    Some(match op {
        EvalOp::Sink => return None,
        EvalOp::Input { .. } => OpClass::Input,
        EvalOp::Const { .. } => OpClass::Const,
        EvalOp::Concat { .. } => OpClass::Concat,
        EvalOp::Slice { .. } => OpClass::Slice,
        EvalOp::SignExtend { .. } => OpClass::SignExtend,
        EvalOp::Mux { .. } => OpClass::Mux,
        EvalOp::RegOut { .. } => OpClass::Reg,
        EvalOp::AbsDiff { .. } => OpClass::AbsDiff,
        EvalOp::AddSub { .. } => OpClass::AddSub,
        EvalOp::AccOut { .. } => OpClass::Acc,
        EvalOp::CmpMinMax { .. } => OpClass::CmpMinMax,
        EvalOp::CmpStreamOut { .. } => OpClass::CmpStream,
        EvalOp::SerialAdd { .. } => OpClass::SerialAdd,
        EvalOp::SerialRegOut { .. } => OpClass::SerialReg,
        EvalOp::ShiftAccOut { .. } => OpClass::ShiftAcc,
        EvalOp::Memory { .. } => OpClass::Memory,
    })
}

/// Profiling class of one clock-edge op (the tick rides the same class
/// as the cluster's Moore publish).
fn tick_class(op: &TickOp) -> OpClass {
    match op {
        TickOp::Reg { .. } => OpClass::Reg,
        TickOp::Acc { .. } => OpClass::Acc,
        TickOp::Comp { .. } => OpClass::CmpStream,
        TickOp::Carry { .. } => OpClass::SerialAdd,
        TickOp::SerialReg { .. } => OpClass::SerialReg,
        TickOp::ShiftAcc { .. } => OpClass::ShiftAcc,
    }
}

/// The plan a simulator executes: its own, or one shared by the caller.
#[derive(Debug)]
enum PlanSource<'n> {
    Owned(Box<ExecPlan>),
    Shared(&'n ExecPlan),
}

impl PlanSource<'_> {
    #[inline]
    fn get(&self) -> &ExecPlan {
        match self {
            PlanSource::Owned(p) => p,
            PlanSource::Shared(p) => p,
        }
    }
}

/// A resolved top-level input, for allocation-free driving on hot paths
/// (resolve once with [`Simulator::input_port`], then [`Simulator::drive`]
/// per cycle — no name lookup, no formatting).
///
/// Handles depend only on the netlist's structure, so one resolved handle is
/// valid for every simulator built over that netlist (drivers resolve at
/// construction time, then reuse across blocks/searches).
#[derive(Debug, Clone, Copy)]
pub struct InputPort {
    ext: u32,
    width: u8,
}

impl InputPort {
    /// Resolves a top-level input by name.
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no input has this name.
    pub fn resolve(netlist: &Netlist, input: &str) -> Result<InputPort> {
        match netlist.node_by_name(input) {
            Some(id) => match netlist.node(id).kind {
                NodeKind::Input { width } => Ok(InputPort { ext: id.0, width }),
                _ => Err(CoreError::UnknownNode(input.to_owned())),
            },
            None => Err(CoreError::UnknownNode(input.to_owned())),
        }
    }
}

/// A resolved top-level output, for allocation-free reading
/// ([`Simulator::output_port`] once, [`Simulator::read`] per use). Like
/// [`InputPort`], valid for every simulator over the same netlist.
#[derive(Debug, Clone, Copy)]
pub struct OutputPort {
    net: u32,
    width: u8,
}

impl OutputPort {
    /// Resolves a top-level output by name.
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no output has this name.
    pub fn resolve(netlist: &Netlist, output: &str) -> Result<OutputPort> {
        match netlist.node_by_name(output) {
            Some(id) => match netlist.node(id).kind {
                NodeKind::Output { width } => {
                    let pref = PortRef { node: id, port: 0 };
                    let net = netlist.net_of(pref).map_or(NO_NET, |n| n.0);
                    Ok(OutputPort { net, width })
                }
                _ => Err(CoreError::UnknownNode(output.to_owned())),
            },
            None => Err(CoreError::UnknownNode(output.to_owned())),
        }
    }
}

/// Cycle-accurate simulator for a checked netlist, evaluating `W`
/// independent lanes per sweep (see the [module docs](self)).
///
/// ```
/// use dsra_core::prelude::*;
/// use dsra_sim::Simulator;
///
/// # fn main() -> std::result::Result<(), CoreError> {
/// let mut nl = Netlist::new("abs");
/// let a = nl.input("a", 8)?;
/// let b = nl.input("b", 8)?;
/// let ad = nl.cluster("ad", ClusterCfg::AbsDiff {
///     width: 8,
///     mode: AbsDiffMode::AbsDiff,
/// })?;
/// let y = nl.output("y", 8)?;
/// nl.connect((a, "out"), (ad, "a"))?;
/// nl.connect((b, "out"), (ad, "b"))?;
/// nl.connect((ad, "y"), (y, "in"))?;
///
/// let mut sim = Simulator::new(&nl)?;
/// sim.set("a", 200)?;
/// sim.set("b", 55)?;
/// sim.step();
/// assert_eq!(sim.get("y")?, 145);
///
/// // Four lanes: `b` is broadcast, `a` differs per lane.
/// let plan = dsra_sim::ExecPlan::compile(&nl)?;
/// let mut lanes = Simulator::<_, 4>::with_plan_lanes(&nl, &plan);
/// let (pa, py) = (lanes.input_port("a")?, lanes.output_port("y")?);
/// lanes.set("b", 55)?;
/// for l in 0..4 {
///     lanes.drive_lane(pa, l, 50 * l as u64);
/// }
/// lanes.step();
/// assert_eq!(lanes.read_lane(py, 0), 55);
/// assert_eq!(lanes.read_lane(py, 3), 95);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'n, P: ProfSink = NoopProf, const W: usize = 1> {
    netlist: &'n Netlist,
    plan: PlanSource<'n>,
    lanes: Lanes<W>,
    /// Previous-cycle value per net, for toggle counting. Empty (never
    /// allocated) unless `P` records activity.
    prev_values: Vec<[u64; W]>,
    /// Toggle counts; empty unless `P` records activity.
    activity: Activity,
    cycle: u64,
    waveform: Option<crate::trace::Waveform>,
    /// Op-level profiling sink. [`NoopProf`] (the default) has
    /// `ENABLED = false` and `RECORDS_ACTIVITY = false`, so every record
    /// call and every toggle count below const-folds away and the hot loop
    /// neither profiles nor counts toggles.
    prof: P,
}

impl<'n> Simulator<'n> {
    /// Builds a simulator, validating the netlist (`check()`) and compiling
    /// its private execution plan.
    ///
    /// # Errors
    /// Propagates netlist validation failures (unconnected mandatory inputs,
    /// combinational loops).
    pub fn new(netlist: &'n Netlist) -> Result<Self> {
        Self::new_profiled(netlist, NoopProf)
    }

    /// Builds a simulator over a plan compiled earlier with
    /// [`ExecPlan::compile`] from the **same** netlist — the graph walk is
    /// skipped, so constructing per-block/per-search simulators is cheap.
    ///
    /// # Panics
    /// Panics if the plan's node/net counts do not match the netlist (a
    /// plan compiled from a different netlist).
    pub fn with_plan(netlist: &'n Netlist, plan: &'n ExecPlan) -> Self {
        Self::with_plan_profiled(netlist, plan, NoopProf)
    }
}

impl<P: ProfSink> Simulator<'_, P> {
    /// Reads a resolved output port after the last `step`.
    #[inline]
    pub fn read(&self, port: OutputPort) -> u64 {
        self.read_lane(port, 0)
    }

    /// Reads a resolved output port as a signed value.
    #[inline]
    pub fn read_signed(&self, port: OutputPort) -> i64 {
        to_signed(self.read(port), port.width)
    }

    /// Reads a top-level output (raw bus word) after the last `step`.
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no output has this name.
    pub fn get(&self, output: &str) -> Result<u64> {
        Ok(self.read(self.output_port(output)?))
    }

    /// Reads a top-level output as a signed value.
    ///
    /// # Errors
    /// Same as [`Simulator::get`].
    pub fn get_signed(&self, output: &str) -> Result<i64> {
        Ok(self.read_signed(self.output_port(output)?))
    }
}

impl<'n, const W: usize> Simulator<'n, NoopProf, W> {
    /// [`Simulator::with_plan`] for `W` lanes:
    /// `Simulator::<_, 8>::with_plan_lanes(netlist, &plan)`.
    ///
    /// # Panics
    /// Same as [`Simulator::with_plan`].
    pub fn with_plan_lanes(netlist: &'n Netlist, plan: &'n ExecPlan) -> Self {
        Self::with_plan_profiled(netlist, plan, NoopProf)
    }
}

impl<'n> Simulator<'n, RecordActivity> {
    /// [`Simulator::new`] over the activity-recording sink: the simulator
    /// power profiling builds, whose [`Simulator::activity`] counts every
    /// toggle.
    ///
    /// # Errors
    /// Same as [`Simulator::new`].
    pub fn recording(netlist: &'n Netlist) -> Result<Self> {
        Self::new_profiled(netlist, RecordActivity(NoopProf))
    }
}

impl<P: ProfSink, const W: usize> Simulator<'_, RecordActivity<P>, W> {
    /// Accumulated switching activity, summed over the lanes. Only a
    /// simulator over a [`RecordActivity`] sink counts toggles, so only it
    /// offers this record.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }
}

impl<'n, P: ProfSink, const W: usize> Simulator<'n, P, W> {
    /// [`Simulator::new`] with an explicit profiling sink (a
    /// [`crate::CountingProf`] records per-op/per-class execution
    /// counts, once per sweep whatever the lane count; results are
    /// byte-identical either way — the sink only observes).
    ///
    /// # Errors
    /// Same as [`Simulator::new`].
    pub fn new_profiled(netlist: &'n Netlist, prof: P) -> Result<Self> {
        let plan = ExecPlan::compile(netlist)?;
        Ok(Self::build(
            netlist,
            PlanSource::Owned(Box::new(plan)),
            prof,
        ))
    }

    /// [`Simulator::with_plan`] with an explicit profiling sink.
    ///
    /// # Panics
    /// Same as [`Simulator::with_plan`].
    pub fn with_plan_profiled(netlist: &'n Netlist, plan: &'n ExecPlan, prof: P) -> Self {
        assert!(
            plan.nodes == netlist.nodes().len() && plan.nets == netlist.nets().len(),
            "execution plan was compiled from a different netlist"
        );
        Self::build(netlist, PlanSource::Shared(plan), prof)
    }

    fn build(netlist: &'n Netlist, plan: PlanSource<'n>, prof: P) -> Self {
        let p = plan.get();
        let nets = netlist.nets().len();
        let lanes = Lanes {
            nets: std::iter::repeat_n([0; W], nets)
                .chain(p.consts.iter().map(|&c| [c; W]))
                .collect(),
            states: p.initial_state.iter().map(|&v| [v; W]).collect(),
            external: vec![[0; W]; netlist.nodes().len()],
        };
        let (prev_values, activity) = if P::RECORDS_ACTIVITY {
            (
                vec![[0; W]; nets],
                Activity::new(nets, netlist.nodes().len()),
            )
        } else {
            (Vec::new(), Activity::default())
        };
        Simulator {
            netlist,
            plan,
            lanes,
            prev_values,
            activity,
            cycle: 0,
            waveform: None,
            prof,
        }
    }

    /// The profiling sink's accumulated state.
    pub fn prof(&self) -> &P {
        &self.prof
    }

    /// Resolves a top-level input by name for repeated allocation-free
    /// driving via [`Simulator::drive`].
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no input has this name.
    pub fn input_port(&self, input: &str) -> Result<InputPort> {
        InputPort::resolve(self.netlist, input)
    }

    /// Resolves a top-level output by name for repeated allocation-free
    /// reading via [`Simulator::read`] / [`Simulator::read_lane`].
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no output has this name.
    pub fn output_port(&self, output: &str) -> Result<OutputPort> {
        OutputPort::resolve(self.netlist, output)
    }

    /// Drives a resolved input port in every lane (raw bus word, masked to
    /// its width).
    #[inline]
    pub fn drive(&mut self, port: InputPort, raw: u64) {
        self.lanes.external[port.ext as usize] = [mask(raw, port.width); W];
    }

    /// Drives a resolved input port in every lane with a signed value.
    #[inline]
    pub fn drive_signed(&mut self, port: InputPort, value: i64) {
        self.lanes.external[port.ext as usize] = [from_signed(value, port.width); W];
    }

    /// Drives a resolved input port in one lane (raw bus word, masked to
    /// its width).
    ///
    /// # Panics
    /// Panics if `lane >= W`.
    #[inline]
    pub fn drive_lane(&mut self, port: InputPort, lane: usize, raw: u64) {
        self.lanes.external[port.ext as usize][lane] = mask(raw, port.width);
    }

    /// Reads one lane of a resolved output port after the last `step`.
    ///
    /// # Panics
    /// Panics if `lane >= W`.
    #[inline]
    pub fn read_lane(&self, port: OutputPort, lane: usize) -> u64 {
        if port.net == NO_NET {
            0
        } else {
            self.lanes.nets[port.net as usize][lane]
        }
    }

    /// Drives a top-level input in every lane (raw bus word, masked to the
    /// input width).
    ///
    /// # Errors
    /// [`CoreError::UnknownNode`] if no input has this name.
    pub fn set(&mut self, input: &str, raw: u64) -> Result<()> {
        let port = self.input_port(input)?;
        self.drive(port, raw);
        Ok(())
    }

    /// Drives a top-level input in every lane with a signed value.
    ///
    /// # Errors
    /// Same as [`Simulator::set`].
    pub fn set_signed(&mut self, input: &str, value: i64) -> Result<()> {
        let port = self.input_port(input)?;
        self.drive_signed(port, value);
        Ok(())
    }

    /// Executes one clock cycle in every lane: combinational settle,
    /// activity recording (on a recording sink), sequential tick.
    pub fn step(&mut self) {
        self.settle();
        if P::RECORDS_ACTIVITY {
            self.activity
                .record_nets(&mut self.prev_values, &self.lanes.nets);
        }
        if let Some(w) = &mut self.waveform {
            let real = &self.lanes.nets[..self.plan.get().nets];
            w.capture(real.iter().map(|v| v[0]));
        }
        self.tick();
        if P::RECORDS_ACTIVITY {
            self.activity.end_cycle(W as u64);
        }
        if P::ENABLED {
            self.prof.record_cycle();
        }
        self.cycle += 1;
    }

    /// Starts recording a waveform of lane 0 (one snapshot per cycle from
    /// now on).
    pub fn record_waveform(&mut self) {
        self.waveform = Some(crate::trace::Waveform::new(self.netlist));
    }

    /// The recorded waveform, if recording was enabled.
    pub fn waveform(&self) -> Option<&crate::trace::Waveform> {
        self.waveform.as_ref()
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Clock cycles (plan sweeps) executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Combinational propagation without advancing the clock (useful in
    /// tests to observe settled values).
    ///
    /// Phase A publishes every *source* value — external inputs, constants
    /// and the Moore outputs of sequential clusters (which depend only on
    /// state). Phase B then evaluates combinational nodes in levelized
    /// order, so a single pass settles the whole design.
    pub fn settle(&mut self) {
        let plan = self.plan.get();
        for &(idx, op) in &plan.sweep {
            if P::ENABLED {
                if let Some(class) = op_class(&op) {
                    self.prof.record_op(idx, class);
                }
            }
            self.lanes.eval(plan, op);
        }
    }

    /// Clock edge: update every sequential node from the settled net
    /// values, in every lane.
    fn tick(&mut self) {
        for &(idx, op) in &self.plan.get().ticks {
            if P::ENABLED {
                self.prof.record_op(idx, tick_class(&op));
            }
            let changed = self.lanes.tick::<P>(op);
            if P::RECORDS_ACTIVITY && changed > 0 {
                self.activity.credit_node(idx as usize, changed);
            }
        }
    }
}

/// The per-lane machine state one sweep reads and writes.
#[derive(Debug)]
struct Lanes<const W: usize> {
    /// Current value per net slot (the netlist's nets, then the constant
    /// slots of unconnected-port defaults), one word per lane.
    nets: Vec<[u64; W]>,
    /// Sequential state, one word per lane per state slot.
    states: Vec<[u64; W]>,
    /// Externally driven word per input node, one per lane.
    external: Vec<[u64; W]>,
}

impl<const W: usize> Lanes<W> {
    /// Writes one settled output value in every lane.
    #[inline]
    fn write(&mut self, out: u32, value: [u64; W]) {
        if out == NO_NET {
            return;
        }
        self.nets[out as usize] = value;
    }

    /// Evaluates one node's outputs for the current cycle, in every lane,
    /// and writes them.
    #[inline]
    fn eval(&mut self, plan: &ExecPlan, op: EvalOp) {
        let nets = &self.nets;
        let states = &self.states;
        match op {
            EvalOp::Sink => {}
            EvalOp::Input { ext, width, out } => {
                let v = map1(&self.external[ext as usize], |x| mask(x, width));
                self.write(out, v);
            }
            EvalOp::Const { value, out } => self.write(out, [value; W]),
            EvalOp::Concat { start, len, out } => {
                let mut v = [0u64; W];
                for &(slot, w, sh) in &plan.concat_parts[start as usize..(start + len) as usize] {
                    let part = slot.read(nets);
                    for l in 0..W {
                        v[l] |= mask(part[l], w) << sh;
                    }
                }
                self.write(out, v);
            }
            EvalOp::Slice {
                a,
                offset,
                width,
                out,
            } => {
                let v = map1(a.read(nets), |x| mask(x >> offset, width));
                self.write(out, v);
            }
            EvalOp::SignExtend {
                a,
                in_width,
                width,
                out,
            } => {
                let v = map1(a.read(nets), |x| from_signed(to_signed(x, in_width), width));
                self.write(out, v);
            }
            EvalOp::Mux { a, b, sel, out } => {
                let (a, b, sel) = (a.read(nets), b.read(nets), sel.read(nets));
                let v = std::array::from_fn(|l| if sel[l] & 1 == 1 { b[l] } else { a[l] });
                self.write(out, v);
            }
            EvalOp::RegOut { width, out, st } => {
                let v = map1(&states[st as usize], |q| mask(q, width));
                self.write(out, v);
            }
            EvalOp::AbsDiff {
                a,
                b,
                width,
                mode,
                out,
            } => {
                let (a, b) = (a.read(nets), b.read(nets));
                let v = match mode {
                    AbsDiffMode::Add => map2(a, b, |a, b| mask(a.wrapping_add(b), width)),
                    AbsDiffMode::Sub => map2(a, b, |a, b| mask(a.wrapping_sub(b), width)),
                    // Pixels are unsigned: |a - b| = max - min.
                    AbsDiffMode::AbsDiff => map2(a, b, |a, b| mask(a.max(b) - a.min(b), width)),
                };
                self.write(out, v);
            }
            EvalOp::AddSub {
                a,
                b,
                width,
                sub,
                out,
            } => {
                let (a, b) = (a.read(nets), b.read(nets));
                let v = if sub {
                    map2(a, b, |a, b| mask(a.wrapping_sub(b), width))
                } else {
                    map2(a, b, |a, b| mask(a.wrapping_add(b), width))
                };
                self.write(out, v);
            }
            EvalOp::AccOut { width, out, st } => {
                let v = map1(&states[st as usize], |acc| mask(acc, width));
                self.write(out, v);
            }
            EvalOp::CmpMinMax {
                a,
                b,
                max,
                out_y,
                out_which,
            } => {
                let (a, b) = (a.read(nets), b.read(nets));
                // SAD metrics are unsigned.
                let (y, which) = if max {
                    (map2(a, b, u64::max), map2(a, b, |a, b| u64::from(a < b)))
                } else {
                    (map2(a, b, u64::min), map2(a, b, |a, b| u64::from(a > b)))
                };
                self.write(out_y, y);
                self.write(out_which, which);
            }
            EvalOp::CmpStreamOut {
                out_best,
                out_idx,
                st,
            } => {
                let (best, best_idx) = (states[st as usize], states[st as usize + 1]);
                self.write(out_best, best);
                self.write(out_idx, best_idx);
            }
            EvalOp::SerialAdd { a, b, sub, out, st } => {
                let (a, b, c) = (a.read(nets), b.read(nets), states[st as usize]);
                let inv = u64::from(sub);
                let v = std::array::from_fn(|l| (a[l] & 1) ^ ((b[l] & 1) ^ inv) ^ c[l]);
                self.write(out, v);
            }
            EvalOp::SerialRegOut { width, out, st } => {
                let (reg, pos) = (&states[st as usize], &states[st as usize + 1]);
                let top = u64::from(width - 1);
                let v = map2(reg, pos, |reg, pos| (reg >> pos.min(top)) & 1);
                self.write(out, v);
            }
            EvalOp::ShiftAccOut {
                acc_width,
                out_y,
                out_qs,
                st,
            } => {
                let acc = &states[st as usize];
                let (y, qs) = (
                    map1(acc, |acc| mask(acc, acc_width)),
                    map1(acc, |acc| acc & 1),
                );
                self.write(out_y, y);
                self.write(out_qs, qs);
            }
            EvalOp::Memory { addr, table, out } => {
                let table = &plan.tables[table as usize];
                let last = table.len() - 1;
                let v = map1(addr.read(nets), |a| table[a as usize & last]);
                self.write(out, v);
            }
        }
    }

    /// Clock-edge update of one sequential node in every lane; returns
    /// the number of lanes whose state changed when `P` records activity,
    /// and 0 otherwise.
    #[inline]
    fn tick<P: ProfSink>(&mut self, op: TickOp) -> u64 {
        let nets = &self.nets;
        let s = &mut self.states;
        match op {
            TickOp::Reg { a, b, sel, en, st } => {
                let (a, b, sel, en) = (a.read(nets), b.read(nets), sel.read(nets), en.read(nets));
                let q = s[st as usize];
                let next = std::array::from_fn(|l| match (en[l] & 1, sel[l] & 1) {
                    (0, _) => q[l],
                    (_, 0) => a[l],
                    _ => b[l],
                });
                commit::<P, _, _>(&mut s[st as usize..], [next])
            }
            TickOp::Acc {
                a,
                b,
                en,
                clr,
                width,
                sub,
                st,
            } => {
                let (a, b, en, clr) = (a.read(nets), b.read(nets), en.read(nets), clr.read(nets));
                let acc = s[st as usize];
                let next = std::array::from_fn(|l| {
                    if clr[l] & 1 == 1 {
                        0
                    } else if en[l] & 1 == 1 {
                        let term = if sub {
                            a[l].wrapping_sub(b[l])
                        } else {
                            a[l].wrapping_add(b[l])
                        };
                        mask(acc[l].wrapping_add(term), width)
                    } else {
                        acc[l]
                    }
                });
                commit::<P, _, _>(&mut s[st as usize..], [next])
            }
            TickOp::Comp {
                x,
                idx: idx_slot,
                en,
                clr,
                min,
                st,
            } => {
                let (x, idx_in, en, clr) = (
                    x.read(nets),
                    idx_slot.read(nets),
                    en.read(nets),
                    clr.read(nets),
                );
                let st = st as usize;
                let (mut best, mut best_idx, mut valid) = (s[st], s[st + 1], s[st + 2]);
                for l in 0..W {
                    if clr[l] & 1 == 1 {
                        (best[l], best_idx[l], valid[l]) = (0, 0, 0);
                    } else if en[l] & 1 == 1 {
                        let better =
                            valid[l] == 0 || if min { x[l] < best[l] } else { x[l] > best[l] };
                        if better {
                            (best[l], best_idx[l]) = (x[l], idx_in[l]);
                        }
                        valid[l] = 1;
                    }
                }
                commit::<P, _, _>(&mut s[st..], [best, best_idx, valid])
            }
            TickOp::Carry { a, b, clr, sub, st } => {
                let (a, b, clr) = (a.read(nets), b.read(nets), clr.read(nets));
                let c = s[st as usize];
                let inv = u64::from(sub);
                let next = std::array::from_fn(|l| {
                    if clr[l] & 1 == 1 {
                        inv
                    } else {
                        let (a, b, cin) = (a[l] & 1, (b[l] & 1) ^ inv, c[l]);
                        (a & b) | (a & cin) | (b & cin)
                    }
                });
                commit::<P, _, _>(&mut s[st as usize..], [next])
            }
            TickOp::SerialReg { d, load, en, st } => {
                let (d, load, en) = (d.read(nets), load.read(nets), en.read(nets));
                let st = st as usize;
                let (reg, pos) = (s[st], s[st + 1]);
                let (mut next_reg, mut next_pos) = (reg, pos);
                for l in 0..W {
                    let loading = load[l] & 1 == 1;
                    let advanced = if en[l] & 1 == 1 {
                        (pos[l] + 1).min(u64::from(u8::MAX))
                    } else {
                        pos[l]
                    };
                    next_reg[l] = if loading { d[l] } else { reg[l] };
                    next_pos[l] = if loading { 0 } else { advanced };
                }
                commit::<P, _, _>(&mut s[st..], [next_reg, next_pos])
            }
            TickOp::ShiftAcc {
                d,
                en,
                clr,
                sub,
                sh,
                acc_width,
                data_width,
                st,
            } => {
                let (d, en, clr, sub, sh) = (
                    d.read(nets),
                    en.read(nets),
                    clr.read(nets),
                    sub.read(nets),
                    sh.read(nets),
                );
                let acc = s[st as usize];
                let align = u32::from(acc_width - data_width);
                let next = std::array::from_fn(|l| {
                    // Accumulate (`en`) adds the aligned data word, negated
                    // on the sign cycle (`sub`); accumulate and shift (`sh`)
                    // both shift right; clear wins over everything.
                    let en_mask = -((en[l] & 1) as i64);
                    let negate = -((sub[l] & 1) as i64);
                    let term = to_signed(d[l], data_width) << align;
                    let term = ((term ^ negate) - negate) & en_mask;
                    let shifted =
                        from_signed((to_signed(acc[l], acc_width) + term) >> 1, acc_width);
                    let moved = if (en[l] | sh[l]) & 1 == 1 {
                        shifted
                    } else {
                        acc[l]
                    };
                    if clr[l] & 1 == 1 {
                        0
                    } else {
                        moved
                    }
                });
                commit::<P, _, _>(&mut s[st as usize..], [next])
            }
        }
    }
}

/// Power-on values of a node's state slots (empty for stateless nodes).
/// Slot layouts: register `[q]`, accumulator `[acc]`, streaming comparator
/// `[best, best_idx, valid]`, serial adder `[carry]`, serial register
/// `[reg, pos]`, shift-accumulator `[acc]`.
fn initial_state(kind: &NodeKind) -> &'static [u64] {
    match kind {
        NodeKind::Cluster(cfg) => match cfg {
            ClusterCfg::RegMux {
                registered: true, ..
            }
            | ClusterCfg::AddAcc {
                accumulate: true, ..
            } => &[0],
            ClusterCfg::Comparator {
                mode: CompMode::StreamMin | CompMode::StreamMax,
                ..
            } => &[0, 0, 0],
            ClusterCfg::AddShift(cfg) => match cfg {
                AddShiftCfg::Add { serial: true, .. } => &[0],
                AddShiftCfg::Sub { serial: true, .. } => &[1],
                AddShiftCfg::SerialReg { .. } => &[0, 0],
                AddShiftCfg::ShiftAcc { .. } => &[0],
                _ => &[],
            },
            _ => &[],
        },
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_core::cluster::AddShiftCfg;
    use dsra_core::fixed;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn word_helpers_match_fixed_at_every_width(raw: u64, value: i64) {
            for width in 1..=MAX_WORD_WIDTH {
                prop_assert_eq!(word::mask(raw, width), fixed::mask(raw, width));
                prop_assert_eq!(word::to_signed(raw, width), fixed::to_signed(raw, width));
                prop_assert_eq!(word::from_signed(value, width), fixed::from_signed(value, width));
            }
        }
    }

    /// An 8-word ROM (3-bit address) fed from a top-level input.
    fn rom8() -> Netlist {
        let mut nl = Netlist::new("rom");
        let addr = nl.input("addr", 3).unwrap();
        let rom = nl
            .cluster(
                "rom",
                ClusterCfg::Memory {
                    words: 8,
                    width: 8,
                    contents: vec![0; 8],
                },
            )
            .unwrap();
        let dout = nl.output("dout", 8).unwrap();
        nl.connect((addr, "out"), (rom, "addr")).unwrap();
        nl.connect((rom, "dout"), (dout, "in")).unwrap();
        nl
    }

    /// `ClusterCfg::validate` admits only power-of-two ROMs, so a 5-word
    /// ROM on a 3-bit address is lowered directly into an 8-word ROM's
    /// plan: every address reads `contents[a % 5]`, on one lane and on
    /// eight.
    #[test]
    fn rom_table_wraps_a_non_power_of_two_rom() {
        let contents = [11, 22, 33, 44, 0x1FF];
        let nl = rom8();
        let mut plan = ExecPlan::compile(&nl).unwrap();
        plan.tables[0] = rom_table(&contents, 8, 3);
        let expect = |a: u64| contents[a as usize % 5] & 0xFF;

        let mut one = Simulator::with_plan(&nl, &plan);
        let (addr, dout) = (
            one.input_port("addr").unwrap(),
            one.output_port("dout").unwrap(),
        );
        for a in 0..8 {
            one.drive(addr, a);
            one.step();
            assert_eq!(one.read(dout), expect(a), "address {a}");
        }

        let mut lanes = Simulator::<_, 8>::with_plan_lanes(&nl, &plan);
        for lane in 0..8 {
            lanes.drive_lane(addr, lane, lane as u64);
        }
        lanes.step();
        for lane in 0..8 {
            assert_eq!(
                lanes.read_lane(dout, lane),
                expect(lane as u64),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn shift_acc_narrower_than_its_data_is_a_width_error() {
        let mut nl = Netlist::new("acc");
        let d = nl.input("d", 16).unwrap();
        let acc = nl
            .cluster(
                "acc",
                ClusterCfg::AddShift(AddShiftCfg::ShiftAcc {
                    acc_width: 8,
                    data_width: 16,
                }),
            )
            .unwrap();
        nl.connect((d, "out"), (acc, "d")).unwrap();
        let err = ExecPlan::compile(&nl).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidWidth { ref node, width: 16 } if node == "acc"),
            "{err}"
        );
    }

    #[test]
    fn slice_past_its_bus_is_a_width_error() {
        let mut nl = Netlist::new("slice");
        let a = nl.input("a", 8).unwrap();
        let sl = nl.slice("sl", (a, "out"), 6, 4).unwrap();
        let y = nl.output("y", 4).unwrap();
        nl.connect((sl, "out"), (y, "in")).unwrap();
        let err = ExecPlan::compile(&nl).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidWidth { ref node, width: 10 } if node == "sl"),
            "{err}"
        );
    }
}
