//! End-to-end DSRA-vs-FPGA evaluation pipeline (experiments E4/E5) and the
//! interconnect-mesh ablation (E6).

use dsra_core::error::Result;
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::netlist::Netlist;
use dsra_core::place::place;
use dsra_core::route::{route, RoutingStats};
use dsra_sim::Activity;

use crate::model::{compare, dsra_cost, fpga_cost, Comparison, ImplCost, TechModel};

/// Everything produced by one two-fabric evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Cost on the domain-specific array (mixed 8-bit/1-bit mesh).
    pub dsra: ImplCost,
    /// Cost on the generic fine-grain FPGA model.
    pub fpga: ImplCost,
    /// Relative improvements (the paper's units).
    pub comparison: Comparison,
    /// Routing statistics on the mixed mesh.
    pub routing_mixed: RoutingStats,
    /// Routing statistics on the 1-bit mesh.
    pub routing_fine: RoutingStats,
}

/// Places and routes `netlist` on `fabric` twice — once with the mixed
/// 8-bit/1-bit mesh, once with a capacity-matched 1-bit-only mesh — and
/// prices both against the technology model using the measured `activity`.
///
/// # Errors
/// Propagates placement/routing failures (fabric too small, unroutable).
pub fn evaluate_against_fpga(
    netlist: &Netlist,
    fabric: &Fabric,
    activity: &Activity,
    model: &TechModel,
) -> Result<Evaluation> {
    let mixed = fabric.with_mesh(MeshSpec::mixed());
    let fine = fabric.with_mesh(MeshSpec::fine_grain());
    let placement = place(netlist, &mixed)?;
    let routing_mixed = route(netlist, &mixed, &placement)?;
    let routing_fine = route(netlist, &fine, &placement)?;
    let dsra = dsra_cost(netlist, &routing_mixed.stats, activity, model);
    let fpga = fpga_cost(netlist, &routing_fine.stats, activity, model);
    Ok(Evaluation {
        comparison: compare(&dsra, &fpga),
        dsra,
        fpga,
        routing_mixed: routing_mixed.stats,
        routing_fine: routing_fine.stats,
    })
}

/// Mesh ablation (E6): routes the same placed design over the mixed mesh
/// and the 1-bit-only mesh and reports the switch/configuration cost of
/// each — the §2 claim that bus tracks need "a reduced number of switches
/// and configuration bits".
///
/// # Errors
/// Propagates placement/routing failures.
pub fn mesh_ablation(netlist: &Netlist, fabric: &Fabric) -> Result<(RoutingStats, RoutingStats)> {
    let mixed = fabric.with_mesh(MeshSpec::mixed());
    let fine = fabric.with_mesh(MeshSpec::fine_grain());
    let placement = place(netlist, &mixed)?;
    let rm = route(netlist, &mixed, &placement)?;
    let rf = route(netlist, &fine, &placement)?;
    Ok((rm.stats, rf.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_core::cluster::{AbsDiffMode, AddOp, ClusterCfg};
    use dsra_core::error::CoreError;
    use dsra_sim::Simulator;

    /// A small SAD datapath with realistic multi-bit nets.
    fn sad_strip(n: usize) -> Netlist {
        let mut nl = Netlist::new("sad-strip");
        let mut prev = None;
        for i in 0..n {
            let a = nl.input(format!("a{i}"), 8).unwrap();
            let b = nl.input(format!("b{i}"), 8).unwrap();
            let ad = nl
                .cluster(
                    format!("ad{i}"),
                    ClusterCfg::AbsDiff {
                        width: 8,
                        mode: AbsDiffMode::AbsDiff,
                    },
                )
                .unwrap();
            nl.connect((a, "out"), (ad, "a")).unwrap();
            nl.connect((b, "out"), (ad, "b")).unwrap();
            let add = nl
                .cluster(
                    format!("add{i}"),
                    ClusterCfg::AddAcc {
                        width: 8,
                        op: AddOp::Add,
                        accumulate: false,
                    },
                )
                .unwrap();
            nl.connect((ad, "y"), (add, "a")).unwrap();
            if let Some(p) = prev {
                nl.connect((p, "y"), (add, "b")).unwrap();
            }
            prev = Some(add);
        }
        let y = nl.output("y", 8).unwrap();
        nl.connect((prev.unwrap(), "y"), (y, "in")).unwrap();
        nl
    }

    fn activity_for(nl: &Netlist, cycles: u64) -> Activity {
        let mut sim = Simulator::recording(nl).unwrap();
        for c in 0..cycles {
            for i in 0..4 {
                let _ = sim.set(&format!("a{i}"), (c * 37 + i * 11) % 256);
                let _ = sim.set(&format!("b{i}"), (c * 91 + i * 7) % 256);
            }
            sim.step();
        }
        sim.activity().clone()
    }

    #[test]
    fn evaluation_produces_consistent_costs() -> std::result::Result<(), CoreError> {
        let nl = sad_strip(4);
        let fabric = Fabric::me_array(12, 10, MeshSpec::mixed());
        let act = activity_for(&nl, 64);
        let ev = evaluate_against_fpga(&nl, &fabric, &act, &TechModel::default())?;
        assert!(ev.dsra.area > 0.0 && ev.fpga.area > 0.0);
        assert!(ev.dsra.power() > 0.0 && ev.fpga.power() > 0.0);
        // The domain-specific fabric must win on datapath workloads.
        assert!(ev.comparison.power_reduction_pct > 0.0);
        assert!(ev.comparison.area_reduction_pct > 0.0);
        Ok(())
    }

    #[test]
    fn mesh_ablation_shows_bus_advantage() -> std::result::Result<(), CoreError> {
        let nl = sad_strip(4);
        let fabric = Fabric::me_array(12, 10, MeshSpec::mixed());
        let (mixed, fine) = mesh_ablation(&nl, &fabric)?;
        assert!(
            fine.config_bits > mixed.config_bits,
            "1-bit mesh {} bits should exceed mixed mesh {} bits",
            fine.config_bits,
            mixed.config_bits
        );
        assert!(fine.switch_points > mixed.switch_points);
        Ok(())
    }
}
