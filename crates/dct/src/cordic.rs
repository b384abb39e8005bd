//! §3.3–3.4 / Figs. 6–7 — the two CORDIC-rotator-based DCT mappings.
//!
//! A "CORDIC rotator" on this fabric is a 2-input/2-output DA block: two
//! 4-word ROMs plus two shift-accumulators (§3.3: "The CORDIC rotators are
//! implemented through ROM and Shift Accumulators"). Because the ROM words
//! are free, each rotator realises an arbitrary 2×2 matrix — rotation,
//! scaled rotation, or plain scaling.
//!
//! * [`Cordic1`] (Fig. 6): 6 rotators + 16 butterfly adders. Even part: two
//!   rotators after parallel butterflies. Odd part: the
//!   [`crate::factor::solve_sandwich`] factorization — two input rotators,
//!   four *bit-serial* butterfly adders chained off the accumulators'
//!   serial outputs, two output rotators.
//! * [`Cordic2`] (Fig. 7): the scaled architecture — 3 rotators + 20
//!   butterfly adders. `X0/X4` collapse to plain adders (scale factors
//!   folded into quantisation, §3.4), and the odd part uses the
//!   [`crate::factor::solve_scaled_sandwich`] factorization with serial
//!   output taps.

#![allow(clippy::needless_range_loop)] // index-coupled matrix math reads clearer

use dsra_core::cluster::{AddShiftCfg, ClusterCfg};
use dsra_core::error::Result;
use dsra_core::fixed::to_signed;
use dsra_core::netlist::{Netlist, NodeId};
use dsra_sim::{InputPort, NoopProf, Simulator};

use crate::da::{add_controls, da_lane, ControlPins, DaParams};
use crate::factor::{solve_sandwich, solve_scaled_sandwich, Sandwich, ScaledSandwich};
use crate::harness::{BlockIo, CtlPorts, DctImpl, LaneSchedule};
use crate::mixed_rom::{build_butterfly_stage, STAGE_WIDTH};
use crate::reference;

fn alpha0() -> f64 {
    reference::alpha(0)
}
fn alpha() -> f64 {
    reference::alpha(1)
}

/// Even-part construction shared by both CORDIC mappings: the `u` butterfly
/// stage over `a0..a3`. Returns `(u0, u1, u2, u3)` node ids (`u0/u1` sums,
/// `u2/u3` differences; outputs on port `y`).
fn build_u_stage(nl: &mut Netlist, adds: &[NodeId; 4]) -> Result<[NodeId; 4]> {
    let mk = |nl: &mut Netlist, name: &str, sub: bool| -> Result<NodeId> {
        let cfg = if sub {
            AddShiftCfg::Sub {
                width: STAGE_WIDTH,
                serial: false,
            }
        } else {
            AddShiftCfg::Add {
                width: STAGE_WIDTH,
                serial: false,
            }
        };
        nl.cluster(name, ClusterCfg::AddShift(cfg))
    };
    let u0 = mk(nl, "u0", false)?;
    nl.connect((adds[0], "y"), (u0, "a"))?;
    nl.connect((adds[3], "y"), (u0, "b"))?;
    let u1 = mk(nl, "u1", false)?;
    nl.connect((adds[1], "y"), (u1, "a"))?;
    nl.connect((adds[2], "y"), (u1, "b"))?;
    let u2 = mk(nl, "u2", true)?;
    nl.connect((adds[1], "y"), (u2, "a"))?;
    nl.connect((adds[2], "y"), (u2, "b"))?;
    let u3 = mk(nl, "u3", true)?;
    nl.connect((adds[0], "y"), (u3, "a"))?;
    nl.connect((adds[3], "y"), (u3, "b"))?;
    Ok([u0, u1, u2, u3])
}

/// Builds a serialiser on a 16-bit stage output.
fn stage_serializer(
    nl: &mut Netlist,
    name: &str,
    src: NodeId,
    ctl: &ControlPins,
) -> Result<NodeId> {
    crate::da::serializer(nl, name, (src, "y"), STAGE_WIDTH, ctl)
}

/// Builds one 2-in/2-out rotator: two DA lanes sharing a 2-bit address.
/// `coeff_rows[r]` are the matrix rows; returns the two accumulator nodes.
#[allow(clippy::too_many_arguments)]
fn rotator(
    nl: &mut Netlist,
    name: &str,
    bit_a: (NodeId, &str),
    bit_b: (NodeId, &str),
    coeff_rows: [[f64; 2]; 2],
    params: &DaParams,
    accen: NodeId,
    sub: NodeId,
    clr: NodeId,
) -> Result<[NodeId; 2]> {
    let addr = nl.concat(format!("{name}_addr"), &[bit_a, bit_b])?;
    let range = crate::da::rom_dynamic_range(&coeff_rows[0])
        .max(crate::da::rom_dynamic_range(&coeff_rows[1]));
    assert!(
        range <= params.q().max_value(),
        "rotator `{name}` coefficients ({range:.3}) exceed the ROM range"
    );
    let mut accs = [NodeId(0); 2];
    for (r, acc) in accs.iter_mut().enumerate() {
        let (_, a) = da_lane(
            nl,
            &format!("{name}_r{r}"),
            (addr, "out"),
            &coeff_rows[r],
            params,
            accen,
            sub,
            clr,
        )?;
        *acc = a;
    }
    Ok(accs)
}

/// A bit-serial ±op on two 1-bit streams; `sign = false` adds, `true`
/// subtracts. Carry clear wired to `sclr`.
fn serial_op(
    nl: &mut Netlist,
    name: &str,
    a: (NodeId, &str),
    b: (NodeId, &str),
    sign: bool,
    sclr: NodeId,
) -> Result<NodeId> {
    let cfg = if sign {
        AddShiftCfg::Sub {
            width: 1,
            serial: true,
        }
    } else {
        AddShiftCfg::Add {
            width: 1,
            serial: true,
        }
    };
    let op = nl.cluster(name, ClusterCfg::AddShift(cfg))?;
    nl.connect(a, (op, "a"))?;
    nl.connect(b, (op, "b"))?;
    nl.connect((sclr, "out"), (op, "clr"))?;
    Ok(op)
}

/// Extracts (columns, sign) of a ±1 butterfly row with exactly two nonzeros.
fn row_ops(row: &[f64; 4]) -> (usize, usize, bool) {
    let nz: Vec<usize> = (0..4).filter(|&c| row[c].abs() > 0.5).collect();
    assert_eq!(nz.len(), 2, "butterfly rows have two operands");
    assert!(row[nz[0]] > 0.0, "library rows lead with +1");
    (nz[0], nz[1], row[nz[1]] < 0.0)
}

/// Extra control pins used by the two-phase CORDIC schedules.
struct Phase2Pins {
    sh: NodeId,
    sclr: NodeId,
    accen2: NodeId,
    sub2: NodeId,
}

fn add_phase2_controls(nl: &mut Netlist) -> Result<Phase2Pins> {
    Ok(Phase2Pins {
        sh: nl.input("ctl_sh", 1)?,
        sclr: nl.input("ctl_sclr", 1)?,
        accen2: nl.input("ctl_accen2", 1)?,
        sub2: nl.input("ctl_sub2", 1)?,
    })
}

/// Phase schedule constants shared by the drivers.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Phase-1 serial stream length.
    b1: u8,
    /// Low accumulator bits discarded before phase 2 (precision trade).
    presh: u8,
    /// Phase-2 serial stream length.
    b2: u8,
}

impl Schedule {
    fn for_params(params: &DaParams, max_row_norm: f64) -> Self {
        let b1 = params.input_bits + 2;
        let b2 = params.acc_width - params.rom_width; // keep phase 2 exact

        // Phase-1 accumulator magnitude bound:
        //   |P| <= rowNorm · 2^input_bits · 2^rom_frac · 2^(align - b1)
        let p_bits = (max_row_norm.log2()
            + f64::from(params.input_bits)
            + f64::from(params.rom_frac)
            + f64::from(params.align())
            - f64::from(b1))
        .ceil() as i32
            + 1;
        // Two streams add in the butterfly: need p_bits - presh + 2 <= b2.
        let presh = (p_bits + 2 - i32::from(b2)).max(1) as u8;
        Schedule { b1, presh, b2 }
    }

    /// Decode exponent for phase-2 results: raw · 2^exp recovers the real
    /// value of `row · q_real`.
    fn phase2_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.b2) - i32::from(params.align()) - i32::from(params.rom_frac)
            + i32::from(self.presh)
            - i32::from(params.rom_frac)
            - i32::from(params.align())
            + i32::from(self.b1)
    }

    /// Decode exponent for serial streams sampled in phase 2 (CORDIC #2):
    /// stream integer · 2^exp recovers `q_real`.
    fn stream_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.presh) - i32::from(params.rom_frac) - i32::from(params.align())
            + i32::from(self.b1)
    }
}

/// The phase-2 control pins, resolved once per mapping.
#[derive(Debug, Clone, Copy)]
struct Phase2Ports {
    sh: InputPort,
    sclr: InputPort,
    accen2: InputPort,
    sub2: InputPort,
}

impl Phase2Ports {
    fn resolve(nl: &Netlist) -> Result<Self> {
        let pin = |name| InputPort::resolve(nl, name);
        Ok(Phase2Ports {
            sh: pin("ctl_sh")?,
            sclr: pin("ctl_sclr")?,
            accen2: pin("ctl_accen2")?,
            sub2: pin("ctl_sub2")?,
        })
    }
}

/// Runs the common part of the CORDIC schedules: phase 1 (load, `b1`
/// accumulate cycles with a subtracting sign cycle), then the discard
/// window (`presh` cycles with a carry clear on its last cycle), leaving
/// `sh` asserted for phase 2.
fn run_phase1_and_discard<const W: usize>(
    sim: &mut Simulator<'_, NoopProf, W>,
    ctl: &CtlPorts,
    p2: &Phase2Ports,
    sched: &Schedule,
) {
    sim.drive(p2.accen2, 0);
    sim.drive(p2.sub2, 0);
    sim.drive(ctl.load, 1);
    sim.drive(ctl.clr, 1);
    sim.drive(ctl.sren, 0);
    sim.drive(ctl.accen, 0);
    sim.drive(ctl.sub, 0);
    sim.drive(p2.sh, 0);
    sim.drive(p2.sclr, 0);
    sim.step();
    sim.drive(ctl.load, 0);
    sim.drive(ctl.clr, 0);
    sim.drive(ctl.sren, 1);
    sim.drive(ctl.accen, 1);
    for t in 0..sched.b1 {
        sim.drive(ctl.sub, u64::from(t == sched.b1 - 1));
        sim.step();
    }
    sim.drive(ctl.sren, 0);
    sim.drive(ctl.accen, 0);
    sim.drive(ctl.sub, 0);
    sim.drive(p2.sh, 1);
    for t in 0..sched.presh {
        sim.drive(p2.sclr, u64::from(t == sched.presh - 1));
        sim.step();
    }
    sim.drive(p2.sclr, 0);
}

// ---------------------------------------------------------------------------
// CORDIC #1
// ---------------------------------------------------------------------------

/// Fig. 6 — the 6-rotator, 16-adder CORDIC DCT.
#[derive(Debug)]
pub struct Cordic1 {
    netlist: Netlist,
    params: DaParams,
    sched: Schedule,
    cycles: u64,
    io: BlockIo,
    p2: Phase2Ports,
}

impl Cordic1 {
    /// Builds the mapping; the odd-part factorization is solved on the fly
    /// (deterministically) and asserted exact.
    ///
    /// # Errors
    /// [`dsra_core::error::CoreError::InvalidWidth`] when `params` fail
    /// [`DaParams::validate`]; otherwise internal netlist inconsistencies
    /// only.
    pub fn new(params: DaParams) -> Result<Self> {
        params.validate()?;
        let fact: Sandwich = solve_sandwich(&crate::factor::odd_target());
        assert!(
            fact.residual < 1e-7,
            "odd-part sandwich factorization failed: residual {}",
            fact.residual
        );
        let mut nl = Netlist::new("cordic-1");
        let ctl = add_controls(&mut nl)?;
        let p2 = add_phase2_controls(&mut nl)?;
        let (adds, subs) = build_butterfly_stage(&mut nl, params.input_bits)?;
        let us = build_u_stage(&mut nl, &adds)?;

        // Even path: serialise u0..u3, two rotators.
        let su: Vec<NodeId> = (0..4)
            .map(|i| stage_serializer(&mut nl, &format!("sru{i}"), us[i], &ctl))
            .collect::<Result<_>>()?;
        let a = alpha();
        let a0 = alpha0();
        let c4 = (std::f64::consts::PI / 4.0).cos();
        let c2 = (std::f64::consts::PI / 8.0).cos();
        let s2 = (std::f64::consts::PI / 8.0).sin();
        let e1 = rotator(
            &mut nl,
            "rot_e1",
            (su[0], "q"),
            (su[1], "q"),
            [[a0, a0], [a * c4, -a * c4]],
            &params,
            ctl.accen,
            ctl.sub,
            ctl.clr,
        )?;
        let e2 = rotator(
            &mut nl,
            "rot_e2",
            (su[2], "q"),
            (su[3], "q"),
            [[a * s2, a * c2], [-a * c2, a * s2]],
            &params,
            ctl.accen,
            ctl.sub,
            ctl.clr,
        )?;
        for (u, acc) in [(0usize, e1[0]), (4, e1[1]), (2, e2[0]), (6, e2[1])] {
            let y = nl.output(format!("y{u}"), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }

        // Odd path, phase 1: serialise b0..b3 and apply the X rotators.
        let sb: Vec<NodeId> = (0..4)
            .map(|i| stage_serializer(&mut nl, &format!("srb{i}"), subs[i], &ctl))
            .collect::<Result<_>>()?;
        // p accumulators indexed in b-space.
        let mut p_accs: [NodeId; 4] = [NodeId(0); 4];
        for (bi, pair) in [fact.x_pairs.0, fact.x_pairs.1].into_iter().enumerate() {
            let accs = rotator(
                &mut nl,
                &format!("rot_x{bi}"),
                (sb[pair.0], "q"),
                (sb[pair.1], "q"),
                fact.x_blocks[bi],
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            p_accs[pair.0] = accs[0];
            p_accs[pair.1] = accs[1];
        }
        // Wire the phase-1 odd accumulators' shift controls.
        for (i, acc) in p_accs.iter().enumerate() {
            let _ = i;
            nl.connect((p2.sh, "out"), (*acc, "sh"))?;
        }
        // Serial butterflies on the accumulators' serial outputs.
        let mut q_ops: [NodeId; 4] = [NodeId(0); 4];
        for (r, op) in q_ops.iter_mut().enumerate() {
            let (c1, c2i, sign) = row_ops(&fact.butterfly[r]);
            *op = serial_op(
                &mut nl,
                &format!("bfly{r}"),
                (p_accs[c1], "qs"),
                (p_accs[c2i], "qs"),
                sign,
                p2.sclr,
            )?;
        }
        // Output rotators on the butterfly streams.
        for (bi, pair) in [fact.y_pairs.0, fact.y_pairs.1].into_iter().enumerate() {
            let accs = rotator(
                &mut nl,
                &format!("rot_y{bi}"),
                (q_ops[pair.0], "y"),
                (q_ops[pair.1], "y"),
                fact.y_blocks[bi],
                &params,
                p2.accen2,
                p2.sub2,
                ctl.clr,
            )?;
            for (r, acc) in [pair.0, pair.1].into_iter().zip(accs) {
                let y = nl.output(format!("y{}", 2 * r + 1), params.acc_width)?;
                nl.connect((acc, "y"), (y, "in"))?;
            }
        }
        let p2 = Phase2Ports::resolve(&nl)?;
        let max_row_norm = fact
            .x_blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|row| row[0].abs() + row[1].abs())
            .fold(0.0f64, f64::max);
        let sched = Schedule::for_params(&params, max_row_norm);
        let io = BlockIo::standard(&nl, &params, sched.b1)?;
        let cycles = 1 + u64::from(sched.b1) + u64::from(sched.presh) + u64::from(sched.b2) + 1;
        Ok(Cordic1 {
            netlist: nl,
            params,
            sched,
            cycles,
            io,
            p2,
        })
    }
}

impl DctImpl for Cordic1 {
    fn name(&self) -> &'static str {
        "CORDIC 1"
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn params(&self) -> &DaParams {
        &self.params
    }

    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
        let bits = self.params.input_bits;
        self.io.run_batch(&self.netlist, bits, xs, out, self);
        Ok(())
    }

    fn cycles_per_block(&self) -> u64 {
        self.cycles
    }
}

impl LaneSchedule for Cordic1 {
    fn run<const W: usize>(&self, sim: &mut Simulator<'_, NoopProf, W>, rows: &mut [[f64; 8]]) {
        let (params, sched, io, p2) = (&self.params, &self.sched, &self.io, &self.p2);
        run_phase1_and_discard(sim, &io.ctl, p2, sched);
        sim.drive(p2.accen2, 1);
        for t in 0..sched.b2 {
            sim.drive(p2.sub2, u64::from(t == sched.b2 - 1));
            sim.step();
        }
        sim.drive(p2.accen2, 0);
        sim.drive(p2.sub2, 0);
        sim.drive(p2.sh, 0);
        sim.step();
        let odd_scale = 2f64.powi(sched.phase2_exp(params));
        for (lane, row) in rows.iter_mut().enumerate() {
            for (u, o) in row.iter_mut().enumerate() {
                let raw = sim.read_lane(io.ys[u], lane);
                *o = if u % 2 == 0 {
                    io.dec.decode(raw)
                } else {
                    io.dec.signed(raw) as f64 * odd_scale
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CORDIC #2
// ---------------------------------------------------------------------------

/// Fig. 7 — the scaled 3-rotator, 20-adder CORDIC DCT.
///
/// `X0`/`X4` leave the array as parallel adder outputs, the four odd
/// coefficients as bit-serial streams; the per-output scale factors (§3.4)
/// are applied by the driver, standing in for the quantiser.
#[derive(Debug)]
pub struct Cordic2 {
    netlist: Netlist,
    params: DaParams,
    sched: Schedule,
    scales: [f64; 4],
    cycles: u64,
    /// Output pins in coefficient order: even parallel outputs
    /// `y0/y2/y4/y6`, odd serial streams `so1/so3/so5/so7`.
    io: BlockIo,
    p2: Phase2Ports,
}

impl Cordic2 {
    /// Builds the mapping; the scaled odd-part factorization is solved on
    /// the fly and asserted exact.
    ///
    /// # Errors
    /// [`dsra_core::error::CoreError::InvalidWidth`] when `params` fail
    /// [`DaParams::validate`]; otherwise internal netlist inconsistencies
    /// only.
    pub fn new(params: DaParams) -> Result<Self> {
        params.validate()?;
        let fact: ScaledSandwich = solve_scaled_sandwich(&crate::factor::odd_target());
        assert!(
            fact.residual < 1e-7,
            "odd-part scaled factorization failed: residual {}",
            fact.residual
        );
        let mut nl = Netlist::new("cordic-2");
        let ctl = add_controls(&mut nl)?;
        let p2 = add_phase2_controls(&mut nl)?;
        let (adds, subs) = build_butterfly_stage(&mut nl, params.input_bits)?;
        let us = build_u_stage(&mut nl, &adds)?;

        // X0/X4: plain adders, scales folded into quantisation.
        let x0 = nl.cluster(
            "x0_add",
            ClusterCfg::AddShift(AddShiftCfg::Add {
                width: STAGE_WIDTH,
                serial: false,
            }),
        )?;
        nl.connect((us[0], "y"), (x0, "a"))?;
        nl.connect((us[1], "y"), (x0, "b"))?;
        let y0 = nl.output("y0", STAGE_WIDTH)?;
        nl.connect((x0, "y"), (y0, "in"))?;
        let x4 = nl.cluster(
            "x4_sub",
            ClusterCfg::AddShift(AddShiftCfg::Sub {
                width: STAGE_WIDTH,
                serial: false,
            }),
        )?;
        nl.connect((us[0], "y"), (x4, "a"))?;
        nl.connect((us[1], "y"), (x4, "b"))?;
        let y4 = nl.output("y4", STAGE_WIDTH)?;
        nl.connect((x4, "y"), (y4, "in"))?;

        // X2/X6: the even rotator (exact).
        let su2 = stage_serializer(&mut nl, "sru2", us[2], &ctl)?;
        let su3 = stage_serializer(&mut nl, "sru3", us[3], &ctl)?;
        let a = alpha();
        let c2 = (std::f64::consts::PI / 8.0).cos();
        let s2 = (std::f64::consts::PI / 8.0).sin();
        let e = rotator(
            &mut nl,
            "rot_e",
            (su2, "q"),
            (su3, "q"),
            [[a * s2, a * c2], [-a * c2, a * s2]],
            &params,
            ctl.accen,
            ctl.sub,
            ctl.clr,
        )?;
        for (u, acc) in [(2usize, e[0]), (6, e[1])] {
            let y = nl.output(format!("y{u}"), params.acc_width)?;
            nl.connect((acc, "y"), (y, "in"))?;
        }

        // Odd path: input rotators, then the serial post network.
        let sb: Vec<NodeId> = (0..4)
            .map(|i| stage_serializer(&mut nl, &format!("srb{i}"), subs[i], &ctl))
            .collect::<Result<_>>()?;
        let mut p_accs: [NodeId; 4] = [NodeId(0); 4];
        for (bi, pair) in [fact.x_pairs.0, fact.x_pairs.1].into_iter().enumerate() {
            let accs = rotator(
                &mut nl,
                &format!("rot_x{bi}"),
                (sb[pair.0], "q"),
                (sb[pair.1], "q"),
                fact.x_blocks[bi],
                &params,
                ctl.accen,
                ctl.sub,
                ctl.clr,
            )?;
            p_accs[pair.0] = accs[0];
            p_accs[pair.1] = accs[1];
        }
        for acc in &p_accs {
            nl.connect((p2.sh, "out"), (*acc, "sh"))?;
        }
        let mut h_ops: [NodeId; 4] = [NodeId(0); 4];
        for (r, op) in h_ops.iter_mut().enumerate() {
            let (c1, c2i, sign) = row_ops(&fact.butterfly[r]);
            *op = serial_op(
                &mut nl,
                &format!("bfly{r}"),
                (p_accs[c1], "qs"),
                (p_accs[c2i], "qs"),
                sign,
                p2.sclr,
            )?;
        }
        // Post network: combine post_pair, pass the rest.
        let (pi, pj) = fact.post_pair;
        let post_add = serial_op(
            &mut nl,
            "post_add",
            (h_ops[pi], "y"),
            (h_ops[pj], "y"),
            false,
            p2.sclr,
        )?;
        let post_sub = serial_op(
            &mut nl,
            "post_sub",
            (h_ops[pi], "y"),
            (h_ops[pj], "y"),
            true,
            p2.sclr,
        )?;
        for r in 0..4 {
            let src: (NodeId, &str) = if r == pi {
                (post_add, "y")
            } else if r == pj {
                (post_sub, "y")
            } else {
                (h_ops[r], "y")
            };
            let y = nl.output(format!("so{}", 2 * r + 1), 1)?;
            nl.connect(src, (y, "in"))?;
        }
        let p2 = Phase2Ports::resolve(&nl)?;
        let max_row_norm = fact
            .x_blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|row| row[0].abs() + row[1].abs())
            .fold(0.0f64, f64::max);
        let mut sched = Schedule::for_params(&params, max_row_norm);
        // Streams pass two serial levels: one extra guard bit.
        sched.presh += 1;
        let io = BlockIo::new(
            &nl,
            ["y0", "so1", "y2", "so3", "y4", "so5", "y6", "so7"],
            params.decoder(sched.b1),
        )?;
        let cycles = 1 + u64::from(sched.b1) + u64::from(sched.presh) + u64::from(sched.b2) + 1;
        Ok(Cordic2 {
            netlist: nl,
            params,
            sched,
            scales: fact.scales,
            cycles,
            io,
            p2,
        })
    }
}

impl DctImpl for Cordic2 {
    fn name(&self) -> &'static str {
        "CORDIC 2"
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn params(&self) -> &DaParams {
        &self.params
    }

    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
        let bits = self.params.input_bits;
        self.io.run_batch(&self.netlist, bits, xs, out, self);
        Ok(())
    }

    fn cycles_per_block(&self) -> u64 {
        self.cycles
    }
}

impl LaneSchedule for Cordic2 {
    fn run<const W: usize>(&self, sim: &mut Simulator<'_, NoopProf, W>, rows: &mut [[f64; 8]]) {
        let (params, sched, io, p2) = (&self.params, &self.sched, &self.io, &self.p2);
        run_phase1_and_discard(sim, &io.ctl, p2, sched);
        // Phase 2: sample the four serial output streams of every lane.
        let mut streams = [[0u64; 4]; W];
        for t in 0..sched.b2 {
            sim.step();
            for (lane, lane_streams) in streams.iter_mut().enumerate() {
                for (s, stream) in lane_streams.iter_mut().enumerate() {
                    *stream |= sim.read_lane(io.ys[2 * s + 1], lane) << t;
                }
            }
        }
        sim.drive(p2.sh, 0);
        sim.step();
        let c4 = (std::f64::consts::PI / 4.0).cos();
        let stream_scale = 2f64.powi(sched.stream_exp(params));
        for (lane, (row, lane_streams)) in rows.iter_mut().zip(&streams).enumerate() {
            let even = |u: usize| sim.read_lane(io.ys[u], lane);
            // Parallel scaled outputs.
            row[0] = to_signed(even(0), STAGE_WIDTH) as f64 * alpha0();
            row[4] = to_signed(even(4), STAGE_WIDTH) as f64 * alpha() * c4;
            // Even rotator outputs.
            for u in [2usize, 6] {
                row[u] = io.dec.decode(even(u));
            }
            // Odd serial streams, with the quantiser-side scale factors.
            for (s, stream) in lane_streams.iter().enumerate() {
                let v = to_signed(*stream, sched.b2) as f64 * stream_scale;
                row[2 * s + 1] = v * self.scales[s];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::measure_accuracy;

    #[test]
    fn cordic1_table1_column() {
        let imp = Cordic1::new(DaParams::precise()).unwrap();
        let r = imp.report();
        // Table 1, CORDIC 1 column: 8 / 8 / 8 / 12, mem 12, total 48.
        assert_eq!(r.table1_row(), [8, 8, 8, 12, 12]);
        assert_eq!(r.add_shift_total(), 36);
        assert_eq!(r.total_clusters(), 48);
    }

    #[test]
    fn cordic2_table1_column() {
        let imp = Cordic2::new(DaParams::precise()).unwrap();
        let r = imp.report();
        // Table 1, CORDIC 2 column: 10 / 10 / 6 / 6, mem 6, total 38.
        assert_eq!(r.table1_row(), [10, 10, 6, 6, 6]);
        assert_eq!(r.add_shift_total(), 32);
        assert_eq!(r.total_clusters(), 38);
    }

    #[test]
    fn cordic1_matches_reference_within_fixed_point_budget() {
        let imp = Cordic1::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 8, 2047, 11).unwrap();
        assert!(acc.max_abs_err < 8.0, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn cordic2_matches_reference_within_fixed_point_budget() {
        let imp = Cordic2::new(DaParams::precise()).unwrap();
        let acc = measure_accuracy(&imp, 8, 2047, 12).unwrap();
        assert!(acc.max_abs_err < 8.0, "max err {}", acc.max_abs_err);
    }

    #[test]
    fn cordic1_dc_block() {
        let imp = Cordic1::new(DaParams::precise()).unwrap();
        let y = imp.transform(&[500; 8]).unwrap();
        let sw = reference::dct_1d_int(&[500; 8]);
        for (u, (h, s)) in y.iter().zip(sw.iter()).enumerate() {
            assert!((h - s).abs() < 4.0, "coeff {u}: hw {h} vs sw {s}");
        }
    }

    #[test]
    fn cordic2_uses_three_rotators_cordic1_six() {
        // §3.4: "Uses 3 CORDIC rotators instead of 6" — visible as the
        // memory-cluster count (2 ROMs per rotator).
        let c1 = Cordic1::new(DaParams::precise()).unwrap();
        let c2 = Cordic2::new(DaParams::precise()).unwrap();
        assert_eq!(c1.report().memory_clusters(), 12);
        assert_eq!(c2.report().memory_clusters(), 6);
        // "...20 butterfly adders instead of 16".
        let adders = |r: &dsra_core::report::ResourceReport| r.table1_row()[0] + r.table1_row()[1];
        assert_eq!(adders(&c1.report()), 16);
        assert_eq!(adders(&c2.report()), 20);
    }
}
