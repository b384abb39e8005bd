//! Technology cost model: area, delay, dynamic energy and leakage in
//! calibrated arbitrary units.
//!
//! The paper's headline numbers (−75 % power / −45 % area / +23 % timing for
//! the ME array vs a generic FPGA, −38 % / −14 % / −54 % for the DA array,
//! from refs \[1\]\[2\]) come from 0.13 µm synthesis flows we do not have.
//! What *is* reproducible is the structural story: a domain-specific cluster
//! does in one hard macro what costs several LUTs, flip-flops and dozens of
//! bit-level routing switches on a fine-grain FPGA. This module prices both
//! sides with one set of constants, calibrated once (see
//! `calibration` notes in DESIGN.md) so the FPGA:DSRA ratios land in the
//! bands the paper reports. Absolute numbers are meaningless; ratios are
//! the experiment.

use dsra_core::cluster::ClusterCfg;
use dsra_core::netlist::{Netlist, NodeKind};
use dsra_core::route::RoutingStats;
use dsra_sim::Activity;

/// Calibrated technology constants (arbitrary units: area in element-
/// equivalents, delay in ns-like units, energy in fJ-like units).
#[derive(Debug, Clone, Copy)]
pub struct TechModel {
    /// Area of one 4-bit cluster element.
    pub a_element: f64,
    /// Fixed per-cluster overhead (config, intra-cluster wiring).
    pub a_cluster: f64,
    /// Area per memory bit (dense macro).
    pub a_mem_bit: f64,
    /// Area per routing switch point (one config bit's worth of switch).
    pub a_switch: f64,
    /// Area of one FPGA CLB (4-LUT + FF + local routing).
    pub a_clb: f64,
    /// Combinational delay through one cluster level.
    pub d_cluster: f64,
    /// Delay of one FPGA LUT level.
    pub d_lut: f64,
    /// Routing delay per mesh hop (bus track, ganged switch).
    pub d_hop: f64,
    /// Routing delay per FPGA hop (bit-level switches).
    pub d_hop_fpga: f64,
    /// Energy per net-bit toggle per mesh hop.
    pub e_wire_hop: f64,
    /// Energy per net-bit toggle per FPGA hop.
    pub e_wire_hop_fpga: f64,
    /// Energy per cluster-output toggle (internal datapath).
    pub e_cluster_toggle: f64,
    /// Energy per LUT output toggle.
    pub e_lut_toggle: f64,
    /// Leakage power per configuration bit.
    pub p_leak_cfg: f64,
    /// Leakage power per area unit.
    pub p_leak_area: f64,
}

impl Default for TechModel {
    fn default() -> Self {
        // Calibration: one global fit against the paper's reported ratios
        // (see EXPERIMENTS.md E4/E5). The structural quantities (LUT counts,
        // switch counts, hops) do most of the work; these constants set the
        // exchange rates between them.
        TechModel {
            // Area: a domain cluster carries a large fixed overhead (mode
            // decoders, intra-cluster routing) and ~2 CLB-equivalents per
            // 4-bit element; its configurable-geometry memories cost close
            // to an FPGA LUT-ROM bit — which is why the paper's DA array
            // only saves 14 % area while the (memory-free) ME array saves 45 %.
            a_element: 2.08,
            a_cluster: 7.0,
            a_mem_bit: 0.08,
            a_switch: 0.05,
            a_clb: 1.0,
            // Delay: a cascaded-element cluster level is ~2.3x slower than
            // one LUT+carry level (flexible intra-cluster muxing), but the
            // mixed mesh's ganged bus switches are ~2.5x faster per hop
            // than bit-level FPGA switches.
            d_cluster: 1.0,
            d_lut: 0.44,
            d_hop: 0.30,
            d_hop_fpga: 0.74,
            // Energy: same functional toggles; the FPGA pays ~2.4x wire
            // capacitance per hop and 16 config-SRAM bits of leakage per
            // LUT, the DSRA pays leakage on its own (memory-heavy for DA)
            // configuration plane.
            e_wire_hop: 1.0,
            e_wire_hop_fpga: 2.44,
            e_cluster_toggle: 0.3,
            e_lut_toggle: 0.15,
            p_leak_cfg: 0.1865,
            p_leak_area: 0.01,
        }
    }
}

/// Cost summary of one mapped implementation on one fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplCost {
    /// Logic + memory + used-switch area (area units).
    pub area: f64,
    /// Critical-path estimate (delay units).
    pub delay: f64,
    /// Dynamic energy per simulated cycle (energy units), from measured
    /// switching activity.
    pub dyn_energy_per_cycle: f64,
    /// Static (leakage) power (power units).
    pub leak_power: f64,
    /// Total configuration bits (cluster + routing).
    pub config_bits: u64,
}

impl ImplCost {
    /// Total power proxy at one cycle per time unit: dynamic + leakage.
    pub fn power(&self) -> f64 {
        self.dyn_energy_per_cycle + self.leak_power
    }

    /// The static/dynamic split the power subsystem (`dsra-power`)
    /// consumes: activity-driven energy per cycle on one side, leakage
    /// power on the other. Idle and power-gated arrays pay only (or none
    /// of) the leakage half, which is why downstream accounting must
    /// never re-merge them into a single number.
    pub fn energy_split(&self) -> EnergySplit {
        EnergySplit {
            dyn_energy_per_cycle: self.dyn_energy_per_cycle,
            leak_power: self.leak_power,
        }
    }
}

/// An implementation's energy cost split into its two classes: dynamic
/// (activity-based, paid per executed cycle) and static leakage (paid per
/// *time* the configured plane is powered, busy or idle). Produced by
/// [`ImplCost::energy_split`]; consumed by `dsra-power`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergySplit {
    /// Activity-based dynamic energy per simulated cycle.
    pub dyn_energy_per_cycle: f64,
    /// Leakage power (energy per time unit; one cycle is one time unit at
    /// the array clock).
    pub leak_power: f64,
}

/// Leakage power of one configured cluster: its private configuration
/// plane plus its logic/memory area.
///
/// This is the power-gating granularity — an idle array stops paying
/// exactly the sum of its clusters' leakage (the routing plane's share is
/// priced separately from [`RoutingStats`], see [`routing_leakage`]).
pub fn cluster_leakage(cfg: &ClusterCfg, model: &TechModel) -> f64 {
    let (base_area, mem_bits) = match cfg {
        ClusterCfg::Memory { words, width, .. } => {
            (model.a_cluster, u64::from(*words) * u64::from(*width))
        }
        _ => (
            model.a_cluster + f64::from(cfg.element_count()) * model.a_element,
            0,
        ),
    };
    let area = base_area + mem_bits as f64 * model.a_mem_bit;
    f64::from(cfg.config_bits()) * model.p_leak_cfg + area * model.p_leak_area
}

/// Leakage power of the routing plane: its configuration bits plus the
/// switch-point area.
pub fn routing_leakage(routing: &RoutingStats, model: &TechModel) -> f64 {
    routing.config_bits as f64 * model.p_leak_cfg
        + routing.switch_points as f64 * model.a_switch * model.p_leak_area
}

/// Per-cluster FPGA resource estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpgaResources {
    /// 4-input LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
}

impl FpgaResources {
    /// CLBs needed (one LUT + one FF per CLB, 85 % packing efficiency).
    pub fn clbs(&self) -> u64 {
        let packed = self.luts.max(self.ffs);
        (packed as f64 / 0.85).ceil() as u64
    }
}

/// Technology-maps one cluster configuration to 4-LUT FPGA resources.
///
/// The counts follow standard FPGA mapping folklore: one LUT per output bit
/// of a 2-input arithmetic/mux function (carry chains included), three
/// LUT-levels' worth for an absolute difference, LUT-as-16×1-ROM for
/// memories (distributed ROM) plus a mux overhead.
pub fn map_cluster_to_fpga(cfg: &ClusterCfg) -> FpgaResources {
    use dsra_core::cluster::AddShiftCfg;
    let w = u64::from(cfg.width());
    match cfg {
        ClusterCfg::RegMux { registered, .. } => FpgaResources {
            luts: w,
            ffs: if *registered { w } else { 0 },
        },
        // a-b, b-a, and a per-bit select: ~3 LUTs/bit.
        ClusterCfg::AbsDiff { .. } => FpgaResources {
            luts: 3 * w,
            ffs: 0,
        },
        ClusterCfg::AddAcc { accumulate, .. } => FpgaResources {
            luts: w,
            ffs: if *accumulate { w } else { 0 },
        },
        ClusterCfg::Comparator {
            mode, index_width, ..
        } => {
            use dsra_core::cluster::CompMode;
            match mode {
                CompMode::Min | CompMode::Max => FpgaResources {
                    luts: 2 * w,
                    ffs: 0,
                },
                _ => FpgaResources {
                    luts: 2 * w + u64::from(*index_width),
                    ffs: w + u64::from(*index_width),
                },
            }
        }
        ClusterCfg::AddShift(as_cfg) => match as_cfg {
            AddShiftCfg::Add { serial, .. } | AddShiftCfg::Sub { serial, .. } => {
                if *serial {
                    FpgaResources { luts: 2, ffs: 1 }
                } else {
                    FpgaResources { luts: w, ffs: 0 }
                }
            }
            AddShiftCfg::SerialReg { width } => FpgaResources {
                luts: u64::from(*width) / 4 + 2, // counter + output mux
                ffs: u64::from(*width) + 4,
            },
            AddShiftCfg::ShiftAcc { acc_width, .. } => FpgaResources {
                luts: u64::from(*acc_width),
                ffs: u64::from(*acc_width),
            },
        },
        ClusterCfg::Memory { words, width, .. } => {
            // LUT as 16x1 distributed ROM + read mux overhead.
            let bits = u64::from(*words) * u64::from(*width);
            let rom_luts = bits.div_ceil(16);
            let mux_luts = (rom_luts as f64 * 0.25).ceil() as u64;
            FpgaResources {
                luts: rom_luts + mux_luts,
                ffs: 0,
            }
        }
    }
}

/// Maps a whole netlist to FPGA resources.
pub fn map_netlist_to_fpga(netlist: &Netlist) -> FpgaResources {
    let mut total = FpgaResources::default();
    for node in netlist.nodes() {
        if let NodeKind::Cluster(cfg) = &node.kind {
            let r = map_cluster_to_fpga(cfg);
            total.luts += r.luts;
            total.ffs += r.ffs;
        }
    }
    total
}

/// Prices a design mapped on the domain-specific array.
pub fn dsra_cost(
    netlist: &Netlist,
    routing: &RoutingStats,
    activity: &Activity,
    model: &TechModel,
) -> ImplCost {
    let mut area = 0.0;
    let mut mem_bits = 0u64;
    for node in netlist.nodes() {
        if let NodeKind::Cluster(cfg) = &node.kind {
            match cfg {
                ClusterCfg::Memory { words, width, .. } => {
                    mem_bits += u64::from(*words) * u64::from(*width);
                    area += model.a_cluster;
                }
                _ => {
                    area += model.a_cluster + f64::from(cfg.element_count()) * model.a_element;
                }
            }
        }
    }
    area += mem_bits as f64 * model.a_mem_bit;
    area += routing.switch_points as f64 * model.a_switch;

    let depth = netlist.logic_depth().unwrap_or(1).max(1) as f64;
    let delay = depth * model.d_cluster + f64::from(routing.max_net_hops) * model.d_hop;

    let cycles = activity.cycles().max(1) as f64;
    let wire_energy =
        activity.total_net_toggles() as f64 * model.e_wire_hop * mean_hops(routing) / cycles;
    let cluster_energy = activity.total_node_toggles() as f64 * model.e_cluster_toggle / cycles;
    let config_bits = netlist.cluster_config_bits() as u64 + routing.config_bits;
    ImplCost {
        area,
        delay,
        dyn_energy_per_cycle: wire_energy + cluster_energy,
        leak_power: config_bits as f64 * model.p_leak_cfg + area * model.p_leak_area,
        config_bits,
    }
}

/// Prices the same design technology-mapped onto the generic fine-grain
/// FPGA (same placement geometry, 1-bit routing, LUT pricing).
pub fn fpga_cost(
    netlist: &Netlist,
    routing_fine: &RoutingStats,
    activity: &Activity,
    model: &TechModel,
) -> ImplCost {
    let resources = map_netlist_to_fpga(netlist);
    let mut area = resources.clbs() as f64 * model.a_clb;
    area += routing_fine.switch_points as f64 * model.a_switch;

    // One cluster level maps to roughly one LUT+carry level (dedicated
    // carry chains keep FPGA arithmetic shallow).
    let depth = netlist.logic_depth().unwrap_or(1).max(1) as f64;
    let delay = depth * model.d_lut + f64::from(routing_fine.max_net_hops) * model.d_hop_fpga;

    let cycles = activity.cycles().max(1) as f64;
    // Same functional toggles, bit-level switching fabric, plus LUT-internal
    // activity proportional to the logic replication factor.
    let replication = resources.luts as f64 / cluster_count(netlist).max(1) as f64;
    let wire_energy =
        activity.total_net_toggles() as f64 * model.e_wire_hop_fpga * mean_hops(routing_fine)
            / cycles;
    let lut_energy =
        activity.total_node_toggles() as f64 * model.e_lut_toggle * replication / cycles;
    let config_bits = resources.luts * 16 + routing_fine.config_bits;
    ImplCost {
        area,
        delay,
        dyn_energy_per_cycle: wire_energy + lut_energy,
        leak_power: config_bits as f64 * model.p_leak_cfg + area * model.p_leak_area,
        config_bits,
    }
}

/// Average net length in hops (plus one for the connection boxes) — the
/// per-toggle wire-capacitance proxy. Public so activity-based energy
/// integration elsewhere (`dsra-power`) prices toggles exactly as
/// [`dsra_cost`] does.
pub fn mean_hops(routing: &RoutingStats) -> f64 {
    1.0 + routing.total_hops as f64 / routing.nets.max(1) as f64
}

fn cluster_count(netlist: &Netlist) -> u64 {
    netlist.cluster_nodes().len() as u64
}

/// Relative improvements of the DSRA mapping over the FPGA mapping, in the
/// units the paper quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Power reduction in percent (paper: 75 % ME, 38 % DA).
    pub power_reduction_pct: f64,
    /// Area reduction in percent (paper: 45 % ME, 14 % DA).
    pub area_reduction_pct: f64,
    /// Critical-path (timing) improvement in percent (paper: 23 % ME, 54 % DA).
    pub timing_improvement_pct: f64,
}

/// Compares two priced mappings.
pub fn compare(dsra: &ImplCost, fpga: &ImplCost) -> Comparison {
    let pct = |ours: f64, theirs: f64| (1.0 - ours / theirs) * 100.0;
    Comparison {
        power_reduction_pct: pct(dsra.power(), fpga.power()),
        area_reduction_pct: pct(dsra.area, fpga.area),
        timing_improvement_pct: pct(dsra.delay, fpga.delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_core::cluster::{AbsDiffMode, AddShiftCfg};

    #[test]
    fn fpga_mapping_charges_memories_as_lut_rom() {
        let rom = ClusterCfg::Memory {
            words: 256,
            width: 8,
            contents: vec![0; 256],
        };
        let r = map_cluster_to_fpga(&rom);
        // 2048 bits -> 128 ROM LUTs + 32 mux LUTs.
        assert_eq!(r.luts, 160);
        assert_eq!(r.ffs, 0);
    }

    #[test]
    fn fpga_mapping_charges_absdiff_three_luts_per_bit() {
        let ad = ClusterCfg::AbsDiff {
            width: 8,
            mode: AbsDiffMode::AbsDiff,
        };
        assert_eq!(map_cluster_to_fpga(&ad).luts, 24);
    }

    #[test]
    fn serial_adder_is_tiny_on_both_fabrics() {
        let s = ClusterCfg::AddShift(AddShiftCfg::Add {
            width: 1,
            serial: true,
        });
        let r = map_cluster_to_fpga(&s);
        assert!(r.luts <= 2 && r.ffs <= 1);
    }

    #[test]
    fn clb_packing_uses_max_of_luts_and_ffs() {
        let r = FpgaResources { luts: 100, ffs: 40 };
        assert!(r.clbs() >= 100);
        let r2 = FpgaResources { luts: 10, ffs: 200 };
        assert!(r2.clbs() >= 200);
    }

    #[test]
    fn per_cluster_leakage_sums_to_the_priced_total() {
        // The power-gating granularity must account for every leakage
        // term dsra_cost prices: Σ cluster_leakage + routing_leakage ==
        // ImplCost::leak_power, exactly (same constants, same quantities).
        use dsra_core::fabric::{Fabric, MeshSpec};
        use dsra_core::netlist::{Netlist, NodeKind};
        use dsra_core::place::place;
        use dsra_core::route::route;

        let mut nl = Netlist::new("leak");
        let addr = nl.input("addr", 4).unwrap();
        let b = nl.input("b", 8).unwrap();
        let y = nl.output("y", 8).unwrap();
        let rom = nl
            .cluster(
                "rom",
                ClusterCfg::Memory {
                    words: 16,
                    width: 8,
                    contents: vec![3; 16],
                },
            )
            .unwrap();
        let add = nl
            .cluster(
                "add",
                ClusterCfg::AddShift(AddShiftCfg::Add {
                    width: 8,
                    serial: false,
                }),
            )
            .unwrap();
        nl.connect((addr, "out"), (rom, "addr")).unwrap();
        nl.connect((rom, "dout"), (add, "a")).unwrap();
        nl.connect((b, "out"), (add, "b")).unwrap();
        nl.connect((add, "y"), (y, "in")).unwrap();

        let fabric = Fabric::da_array(8, 8, MeshSpec::mixed());
        let placement = place(&nl, &fabric).unwrap();
        let routing = route(&nl, &fabric, &placement).unwrap();
        let model = TechModel::default();
        let activity =
            dsra_sim::Activity::synthetic(vec![0; nl.nets().len()], vec![0; nl.nodes().len()], 1);
        let cost = dsra_cost(&nl, &routing.stats, &activity, &model);

        let cluster_sum: f64 = nl
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Cluster(cfg) => Some(cluster_leakage(cfg, &model)),
                _ => None,
            })
            .sum();
        let total = cluster_sum + routing_leakage(&routing.stats, &model);
        assert!(
            (total - cost.leak_power).abs() < 1e-9 * cost.leak_power.max(1.0),
            "split {total} vs priced {}",
            cost.leak_power
        );
    }

    #[test]
    fn comparison_percentages() {
        let a = ImplCost {
            area: 50.0,
            delay: 8.0,
            dyn_energy_per_cycle: 20.0,
            leak_power: 5.0,
            config_bits: 100,
        };
        let b = ImplCost {
            area: 100.0,
            delay: 10.0,
            dyn_energy_per_cycle: 90.0,
            leak_power: 10.0,
            config_bits: 1000,
        };
        let c = compare(&a, &b);
        assert!((c.area_reduction_pct - 50.0).abs() < 1e-9);
        assert!((c.power_reduction_pct - 75.0).abs() < 1e-9);
        assert!((c.timing_improvement_pct - 20.0).abs() < 1e-9);
    }
}
