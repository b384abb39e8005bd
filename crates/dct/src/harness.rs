//! Common interface and measurement harness for the six DCT mappings.

use dsra_core::error::Result;
use dsra_core::netlist::Netlist;
use dsra_core::report::ResourceReport;
use dsra_core::rng::SplitMix64;
use dsra_sim::{ExecPlan, InputPort, NoopProf, OutputPort, Simulator};

use crate::da::{encode_sample, AccDecoder, DaParams};
use crate::reference;

/// Blocks one lane sweep evaluates: the eight rows (or columns) of one
/// 8×8 block.
pub const LANES: usize = 8;

/// Shortest chunk worth a [`LANES`]-wide sweep. One 8-lane sweep costs
/// about four single-lane sweeps, so shorter chunks (a job's last few
/// blocks, single-block calls) run one block per single-lane simulator.
const MIN_LANE_BATCH: usize = LANES / 2;

/// One mapping's work on a chunk of blocks loaded into a simulator's
/// lanes: play the control schedule (broadcast to every lane), then decode
/// one output row per lane. Generic over the lane count, so each mapping
/// has this one driver whichever width runs it.
pub(crate) trait LaneSchedule {
    fn run<const W: usize>(&self, sim: &mut Simulator<'_, NoopProf, W>, rows: &mut [[f64; 8]]);
}

/// The shared single-phase control pins, resolved once per mapping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtlPorts {
    pub(crate) load: InputPort,
    pub(crate) clr: InputPort,
    pub(crate) sren: InputPort,
    pub(crate) accen: InputPort,
    pub(crate) sub: InputPort,
}

impl CtlPorts {
    fn resolve(netlist: &Netlist) -> Result<Self> {
        let pin = |name| InputPort::resolve(netlist, name);
        Ok(CtlPorts {
            load: pin("ctl_load")?,
            clr: pin("ctl_clr")?,
            sren: pin("ctl_sren")?,
            accen: pin("ctl_accen")?,
            sub: pin("ctl_sub")?,
        })
    }
}

/// Per-mapping simulation assets compiled once at construction: the flat
/// execution plan, resolved sample pins `x0..x7`, output pins (one per
/// coefficient, in coefficient order) and control pins, and the decoder of
/// the accumulator words the outputs carry.
#[derive(Debug)]
pub(crate) struct BlockIo {
    plan: ExecPlan,
    xs: [InputPort; 8],
    pub(crate) ys: [OutputPort; 8],
    pub(crate) ctl: CtlPorts,
    pub(crate) dec: AccDecoder,
}

impl BlockIo {
    /// Compiles the plan and resolves the block pins; `outputs[u]` names
    /// the pin carrying coefficient `u`, and `dec` decodes its accumulator.
    pub(crate) fn new(netlist: &Netlist, outputs: [&str; 8], dec: AccDecoder) -> Result<Self> {
        let plan = ExecPlan::compile(netlist)?;
        let mut xs = [InputPort::resolve(netlist, "x0")?; 8];
        let mut ys = [OutputPort::resolve(netlist, outputs[0])?; 8];
        for i in 1..8 {
            xs[i] = InputPort::resolve(netlist, &format!("x{i}"))?;
            ys[i] = OutputPort::resolve(netlist, outputs[i])?;
        }
        Ok(BlockIo {
            plan,
            xs,
            ys,
            ctl: CtlPorts::resolve(netlist)?,
            dec,
        })
    }

    /// The standard pins `y0..y7`, each a DA accumulator of
    /// `params` after `stream_bits` serial cycles.
    pub(crate) fn standard(netlist: &Netlist, params: &DaParams, stream_bits: u8) -> Result<Self> {
        Self::new(
            netlist,
            ["y0", "y1", "y2", "y3", "y4", "y5", "y6", "y7"],
            params.decoder(stream_bits),
        )
    }

    /// The one driver loop every mapping shares: blocks go through in
    /// chunks of [`LANES`], one block per lane of a fresh simulator over
    /// the shared plan, and `schedule` runs each chunk. Chunks shorter
    /// than [`MIN_LANE_BATCH`] run block by block on single-lane
    /// simulators instead; results are identical either way.
    pub(crate) fn run_batch(
        &self,
        netlist: &Netlist,
        input_bits: u8,
        xs: &[[i64; 8]],
        out: &mut [[f64; 8]],
        schedule: &impl LaneSchedule,
    ) {
        assert_eq!(xs.len(), out.len(), "one output row per block");
        for (blocks, rows) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            if blocks.len() >= MIN_LANE_BATCH {
                self.run_chunk::<LANES>(netlist, input_bits, blocks, rows, schedule);
            } else {
                for (x, row) in blocks.chunks(1).zip(rows.chunks_mut(1)) {
                    self.run_chunk::<1>(netlist, input_bits, x, row, schedule);
                }
            }
        }
    }

    fn run_chunk<const W: usize>(
        &self,
        netlist: &Netlist,
        input_bits: u8,
        blocks: &[[i64; 8]],
        rows: &mut [[f64; 8]],
        schedule: &impl LaneSchedule,
    ) {
        let mut sim = Simulator::<_, W>::with_plan_lanes(netlist, &self.plan);
        for (lane, x) in blocks.iter().enumerate() {
            for (&pin, &v) in self.xs.iter().zip(x) {
                sim.drive_lane(pin, lane, encode_sample(v, input_bits));
            }
        }
        schedule.run(&mut sim, rows);
    }

    /// The complete driver of the single-phase mappings (basic DA, Mixed
    /// ROM, both SCCs, the IDCT): see [`SinglePhase`].
    pub(crate) fn single_phase_batch(
        &self,
        netlist: &Netlist,
        input_bits: u8,
        xs: &[[i64; 8]],
        out: &mut [[f64; 8]],
    ) {
        self.run_batch(netlist, input_bits, xs, out, &SinglePhase(self));
    }
}

/// The single-phase DA schedule: load cycle, one accumulate cycle per
/// serial bit of the block decoder's stream with a subtracting sign cycle,
/// one flush cycle (`stream_bits + 2` cycles); then every output is
/// decoded as a shift-accumulator word.
struct SinglePhase<'a>(&'a BlockIo);

impl LaneSchedule for SinglePhase<'_> {
    fn run<const W: usize>(&self, sim: &mut Simulator<'_, NoopProf, W>, rows: &mut [[f64; 8]]) {
        let io = self.0;
        let (ctl, bits) = (&io.ctl, io.dec.stream_bits());
        sim.drive(ctl.load, 1);
        sim.drive(ctl.clr, 1);
        sim.drive(ctl.sren, 0);
        sim.drive(ctl.accen, 0);
        sim.drive(ctl.sub, 0);
        sim.step();
        sim.drive(ctl.load, 0);
        sim.drive(ctl.clr, 0);
        sim.drive(ctl.sren, 1);
        sim.drive(ctl.accen, 1);
        for t in 0..bits {
            sim.drive(ctl.sub, u64::from(t == bits - 1));
            sim.step();
        }
        sim.drive(ctl.sren, 0);
        sim.drive(ctl.accen, 0);
        sim.drive(ctl.sub, 0);
        sim.step();
        for (lane, row) in rows.iter_mut().enumerate() {
            for (o, &pin) in row.iter_mut().zip(&io.ys) {
                *o = io.dec.decode(sim.read_lane(pin, lane));
            }
        }
    }
}

/// A DCT implementation mapped onto the distributed-arithmetic array.
///
/// All six mappings of §3 implement this trait: they expose their structural
/// netlist (for placement/routing/area accounting) and a `transform_batch`
/// driver that plays the SoC controller, steering the control pins cycle by
/// cycle. Every block runs the same control schedule and only the sample
/// pins differ, so the netlist mappings evaluate up to [`LANES`] blocks per
/// simulator sweep (one lane each, controls broadcast); results are
/// bit-identical to transforming the blocks one at a time, which is what
/// [`DctImpl::transform`] does (a batch of one).
///
/// `Send` so runtimes can keep per-array engine caches and hand them to
/// worker threads (every mapping is plain owned data).
pub trait DctImpl: Send {
    /// Display name (column header of Table 1).
    fn name(&self) -> &'static str;

    /// The structural netlist of the mapping.
    fn netlist(&self) -> &Netlist;

    /// Fixed-point parameters in use.
    fn params(&self) -> &DaParams;

    /// Transforms a batch of 8-sample blocks, `out[i]` receiving block
    /// `xs[i]`. Outputs are decoded to real values directly comparable with
    /// [`reference::dct_1d_int`] (any scaled-DCT factors are already
    /// applied).
    ///
    /// # Errors
    /// Propagates simulator construction errors; input magnitudes must fit
    /// the implementation's input width.
    ///
    /// # Panics
    /// Panics if `out.len() != xs.len()`.
    fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()>;

    /// Transforms one 8-sample block (a batch of one).
    ///
    /// # Errors
    /// Same as [`DctImpl::transform_batch`].
    fn transform(&self, x: &[i64; 8]) -> Result<[f64; 8]> {
        let mut out = [[0.0; 8]];
        self.transform_batch(std::slice::from_ref(x), &mut out)?;
        Ok(out[0])
    }

    /// Clock cycles one block occupies the array (load + bit-serial phases +
    /// flush), as measured by the driver.
    fn cycles_per_block(&self) -> u64;

    /// Table-1 style resource report (named with the display name).
    fn report(&self) -> ResourceReport {
        self.netlist().resource_report().renamed(self.name())
    }
}

/// Accuracy of a hardware mapping against the double-precision reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Maximum absolute coefficient error observed.
    pub max_abs_err: f64,
    /// Root-mean-square coefficient error.
    pub rms_err: f64,
    /// Number of blocks evaluated.
    pub blocks: usize,
}

/// Runs `blocks` random 8-sample blocks (12-bit range by default) through an
/// implementation and accumulates error statistics against the reference.
///
/// # Errors
/// Propagates driver errors.
pub fn measure_accuracy(
    imp: &dyn DctImpl,
    blocks: usize,
    amplitude: i64,
    seed: u64,
) -> Result<Accuracy> {
    let mut rng = SplitMix64::new(seed);
    let mut max_abs: f64 = 0.0;
    let mut sq_sum = 0.0;
    let mut count = 0usize;
    transform_random_blocks(imp, &mut rng, blocks, amplitude, |x, hw| {
        let sw = reference::dct_1d_int(x);
        for (h, s) in hw.iter().zip(sw.iter()) {
            let e = (h - s).abs();
            max_abs = max_abs.max(e);
            sq_sum += e * e;
            count += 1;
        }
    })?;
    Ok(Accuracy {
        max_abs_err: max_abs,
        rms_err: (sq_sum / count.max(1) as f64).sqrt(),
        blocks,
    })
}

/// Transforms `blocks` pseudo-random blocks, samples uniform in
/// `-amplitude..=amplitude` and drawn from `rng` block by block, a lane
/// batch at a time. `visit` sees every `(block, coefficients)` pair in draw
/// order, so results match transforming each block as it is drawn.
///
/// # Errors
/// Propagates driver errors.
pub fn transform_random_blocks(
    imp: &dyn DctImpl,
    rng: &mut SplitMix64,
    blocks: usize,
    amplitude: i64,
    mut visit: impl FnMut(&[i64; 8], &[f64; 8]),
) -> Result<()> {
    let mut xs = [[0i64; 8]; LANES];
    let mut ys = [[0.0; 8]; LANES];
    let mut left = blocks;
    while left > 0 {
        let n = left.min(LANES);
        left -= n;
        for x in &mut xs[..n] {
            *x = std::array::from_fn(|_| {
                rng.next_below(2 * amplitude as u64 + 1) as i64 - amplitude
            });
        }
        imp.transform_batch(&xs[..n], &mut ys[..n])?;
        for (x, y) in xs[..n].iter().zip(&ys[..n]) {
            visit(x, y);
        }
    }
    Ok(())
}

/// Builds every implementation of §3 with shared parameters, in the column
/// order of Table 1 (plus the Fig.-4 basic DA, which the table omits).
///
/// # Errors
/// Propagates netlist construction errors.
pub fn all_impls(params: DaParams) -> Result<Vec<Box<dyn DctImpl>>> {
    Ok(vec![
        Box::new(crate::basic_da::BasicDa::new(params)?),
        Box::new(crate::mixed_rom::MixedRom::new(params)?),
        Box::new(crate::cordic::Cordic1::new(params)?),
        Box::new(crate::cordic::Cordic2::new(params)?),
        Box::new(crate::scc::SccEvenOdd::new(params)?),
        Box::new(crate::scc::SccFull::new(params)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_reference_against_itself_is_zero() {
        // A trivial impl that calls the reference directly.
        struct Ideal {
            nl: Netlist,
            p: DaParams,
        }
        impl DctImpl for Ideal {
            fn name(&self) -> &'static str {
                "IDEAL"
            }
            fn netlist(&self) -> &Netlist {
                &self.nl
            }
            fn params(&self) -> &DaParams {
                &self.p
            }
            fn transform_batch(&self, xs: &[[i64; 8]], out: &mut [[f64; 8]]) -> Result<()> {
                for (x, o) in xs.iter().zip(out) {
                    *o = reference::dct_1d_int(x);
                }
                Ok(())
            }
            fn cycles_per_block(&self) -> u64 {
                0
            }
        }
        let ideal = Ideal {
            nl: Netlist::new("ideal"),
            p: DaParams::precise(),
        };
        let acc = measure_accuracy(&ideal, 4, 2047, 7).unwrap();
        assert_eq!(acc.max_abs_err, 0.0);
        assert_eq!(acc.rms_err, 0.0);
    }
}
