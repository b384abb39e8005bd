//! End-to-end dynamic-reconfiguration scenario (experiment E7).
//!
//! All six DCT mappings are placed, routed and turned into bitstreams for
//! *one* DA array; a run-time policy then encodes a synthetic sequence,
//! switching implementations mid-stream when the operating condition
//! changes (e.g. a battery alarm) and paying the measured partial-
//! reconfiguration cost.

use dsra_core::bitstream::Bitstream;
use dsra_core::error::{CoreError, Result};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::place::place;
use dsra_core::route::route;
use dsra_dct::{all_impls, measure_accuracy, DaParams, DctImpl};
use dsra_me::Plane;
use dsra_sim::Simulator;
use dsra_tech::{dsra_cost, EnergySplit, TechModel};
use dsra_video::{encode_frame, EncodeConfig, EncodeStats};

use crate::policy::{select, Condition, ImplProfile};
use crate::reconfig::{ReconfigManager, ReconfigReport};

/// A DCT implementation with its measured profile and bitstream.
pub struct ProfiledImpl {
    /// The hardware mapping.
    pub implementation: Box<dyn DctImpl>,
    /// Measured profile (drives the policy).
    pub profile: ImplProfile,
}

/// A compiled kernel: the placement, routing and bitstream one netlist
/// produces on one fabric. Cloneable so caches can hand out shared copies
/// (typically behind an `Arc`); `dsra-runtime` keys these by
/// [`dsra_core::netlist::Fingerprint`].
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// Site assignment of every cluster.
    pub placement: dsra_core::place::Placement,
    /// Mesh tracks and routing statistics.
    pub routing: dsra_core::route::Routing,
    /// The assembled configuration.
    pub bitstream: Bitstream,
}

/// Runs the deterministic compile pipeline — place, route, bitstream — for
/// one netlist on one fabric.
///
/// # Errors
/// Propagates placement or routing failures.
pub fn compile_netlist(
    nl: &dsra_core::netlist::Netlist,
    fabric: &Fabric,
) -> Result<CompiledArtifact> {
    let placement = place(nl, fabric)?;
    let routing = route(nl, fabric, &placement)?;
    let bitstream = Bitstream::generate(nl, fabric, &placement, &routing);
    Ok(CompiledArtifact {
        placement,
        routing,
        bitstream,
    })
}

/// Prices a compiled kernel's energy under the profiling stimulus
/// ([`profiling_activity`]): the static/dynamic split the run-time
/// policies select on and the runtime's energy accounts integrate. The
/// runtime's bitstream cache prices each kernel through this once, at
/// compile time.
///
/// # Errors
/// Propagates simulator errors.
pub fn profiling_split(
    nl: &dsra_core::netlist::Netlist,
    artifact: &CompiledArtifact,
    model: &TechModel,
) -> Result<EnergySplit> {
    let activity = profiling_activity(nl)?;
    Ok(dsra_cost(nl, &artifact.routing.stats, &activity, model).energy_split())
}

/// Measures one compiled DCT mapping into the [`ImplProfile`] the run-time
/// selection policy consumes: area, configuration bits, cycle count,
/// energy and coefficient accuracy. `split` is the mapping's
/// [`profiling_split`] on `artifact`, priced once by the caller.
///
/// # Errors
/// Propagates simulator errors.
pub fn profile_impl(
    imp: &dyn DctImpl,
    artifact: &CompiledArtifact,
    split: &EnergySplit,
) -> Result<ImplProfile> {
    let nl = imp.netlist();
    let accuracy = measure_accuracy(imp, 4, 2047, 0xACC)?;
    Ok(ImplProfile {
        name: imp.name().to_owned(),
        clusters: nl.resource_report().total_clusters(),
        config_bits: artifact.bitstream.total_bits(),
        cycles_per_block: imp.cycles_per_block(),
        // Battery-relevant energy: static + dynamic through the power
        // subsystem's single energy-per-block producer (the big-ROM
        // mappings pay for their 33k-bit configuration planes here).
        // E9 (`dct_energy`) prints the same call, so the offline table
        // and the run-time selection cannot drift.
        energy_per_block: dsra_power::energy_per_block(split, imp.cycles_per_block()),
        max_abs_err: accuracy.max_abs_err,
    })
}

/// Builds, places, routes, profiles and registers all six DCT mappings on a
/// shared DA array.
///
/// # Errors
/// Propagates construction, placement or routing failures.
pub fn profile_all_impls(
    params: DaParams,
    fabric: &Fabric,
    model: &TechModel,
    manager: &mut ReconfigManager,
) -> Result<Vec<ProfiledImpl>> {
    let mut out = Vec::new();
    for imp in all_impls(params)? {
        let artifact = compile_netlist(imp.netlist(), fabric)?;
        let split = profiling_split(imp.netlist(), &artifact, model)?;
        let profile = profile_impl(imp.as_ref(), &artifact, &split)?;
        manager.register(imp.name(), artifact.bitstream);
        out.push(ProfiledImpl {
            implementation: imp,
            profile,
        });
    }
    Ok(out)
}

/// Exercises a netlist with a generic stimulus to collect representative
/// switching activity (the profiling workload of §3.6's activity remark).
/// Public so other layers (the runtime's bitstream cache) price kernels
/// with exactly the stimulus the profiles were measured under.
pub fn profiling_activity(nl: &dsra_core::netlist::Netlist) -> Result<dsra_sim::Activity> {
    let mut sim = Simulator::recording(nl)?;
    let inputs: Vec<String> = nl
        .input_nodes()
        .into_iter()
        .map(|id| nl.node(id).name.clone())
        .collect();
    for c in 0..128u64 {
        for (i, name) in inputs.iter().enumerate() {
            let v = if name.starts_with("ctl_") {
                // Exercise controls with a rough duty cycle.
                u64::from((c + i as u64).is_multiple_of(7))
            } else {
                (c * 97 + i as u64 * 55) % 4096
            };
            sim.set(name, v)?;
        }
        sim.step();
    }
    Ok(sim.activity().clone())
}

/// One frame of the dynamic scenario.
#[derive(Debug, Clone)]
pub struct ScenarioFrame {
    /// Frame index in the sequence.
    pub frame_index: usize,
    /// Operating condition in force.
    pub condition: Condition,
    /// Implementation chosen by the policy.
    pub impl_name: String,
    /// Reconfiguration cost paid before this frame (None = no switch).
    pub reconfig: Option<ReconfigReport>,
    /// Encoding statistics.
    pub stats: EncodeStats,
}

/// Encodes `frames[1..]` against their predecessors, selecting the DCT
/// implementation per frame from `conditions` (battery drops, deadlines...)
/// and switching the array configuration when the choice changes.
///
/// # Errors
/// Fails if a condition is unsatisfiable or encoding fails.
pub fn dynamic_encode(
    frames: &[Plane],
    conditions: &[Condition],
    impls: &[ProfiledImpl],
    manager: &mut ReconfigManager,
    encode: &EncodeConfig,
) -> Result<Vec<ScenarioFrame>> {
    assert_eq!(
        conditions.len(),
        frames.len().saturating_sub(1),
        "one condition per encoded frame"
    );
    let profiles: Vec<ImplProfile> = impls.iter().map(|p| p.profile.clone()).collect();
    let mut out = Vec::new();
    for (i, condition) in conditions.iter().enumerate() {
        let chosen = select(&profiles, *condition).ok_or_else(|| {
            CoreError::Mismatch(format!("no implementation satisfies {condition:?}"))
        })?;
        let reconfig = if manager.current() != Some(chosen.name.as_str()) {
            Some(manager.switch_to(&chosen.name)?)
        } else {
            None
        };
        let imp = impls
            .iter()
            .find(|p| p.profile.name == chosen.name)
            .expect("profile names match");
        let (_, stats) = encode_frame(
            &frames[i + 1],
            &frames[i],
            imp.implementation.as_ref(),
            encode,
        )?;
        out.push(ScenarioFrame {
            frame_index: i + 1,
            condition: *condition,
            impl_name: chosen.name.clone(),
            reconfig,
            stats,
        });
    }
    Ok(out)
}

/// The standard shared fabric every scenario uses: a DA array big enough
/// for the largest mapping (CORDIC #1, 48 clusters).
pub fn standard_da_fabric() -> Fabric {
    Fabric::da_array(20, 14, MeshSpec::mixed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_video::{SequenceConfig, SyntheticSequence};

    #[test]
    fn profiles_cover_all_six_impls() {
        let fabric = standard_da_fabric();
        let mut mgr = ReconfigManager::default();
        let impls = profile_all_impls(
            DaParams::precise(),
            &fabric,
            &TechModel::default(),
            &mut mgr,
        )
        .unwrap();
        assert_eq!(impls.len(), 6);
        assert_eq!(mgr.available().len(), 6);
        // Cluster counts are the Table-1 totals.
        let by_name = |n: &str| {
            impls
                .iter()
                .find(|p| p.profile.name == n)
                .unwrap()
                .profile
                .clusters
        };
        assert_eq!(by_name("MIX ROM"), 32);
        assert_eq!(by_name("CORDIC 1"), 48);
        assert_eq!(by_name("CORDIC 2"), 38);
        assert_eq!(by_name("SCC E/O"), 32);
        assert_eq!(by_name("SCC"), 24);
        assert_eq!(by_name("BASIC DA"), 24);
    }

    #[test]
    fn battery_drop_triggers_one_switch() {
        let fabric = standard_da_fabric();
        let mut mgr = ReconfigManager::default();
        let impls = profile_all_impls(
            DaParams::precise(),
            &fabric,
            &TechModel::default(),
            &mut mgr,
        )
        .unwrap();
        let seq = SyntheticSequence::generate(SequenceConfig {
            width: 32,
            height: 32,
            frames: 4,
            ..Default::default()
        });
        let conditions = [
            Condition::HighQuality,
            Condition::HighQuality,
            Condition::LowBattery { charge_pct: 12 },
        ];
        let cfg = EncodeConfig {
            search: dsra_me::SearchParams {
                block: 16,
                range: 2,
            },
            ..Default::default()
        };
        let frames = dynamic_encode(seq.frames(), &conditions, &impls, &mut mgr, &cfg).unwrap();
        assert_eq!(frames.len(), 3);
        // First frame pays the cold-start configuration.
        assert!(frames[0].reconfig.is_some());
        // Second frame keeps the configuration.
        assert!(frames[1].reconfig.is_none());
        // The battery alarm switches implementations iff the policy picks a
        // different one — and the switch is partial, not a full rewrite.
        if frames[2].impl_name != frames[1].impl_name {
            let rep = frames[2].reconfig.expect("switch happened");
            assert!(rep.bits_written > 0);
        }
        for f in &frames {
            assert!(
                f.stats.psnr_db > 25.0,
                "frame {} PSNR {}",
                f.frame_index,
                f.stats.psnr_db
            );
        }
    }
}
