//! Netlist graph: cluster instances connected by typed buses.
//!
//! A [`Netlist`] is the structural description an implementation builder
//! (e.g. one of the six DCT mappings) produces, and what the placer, router,
//! bitstream generator and simulator consume.
//!
//! Nodes are either *clusters* (physical resources, see
//! [`crate::cluster::ClusterCfg`]) or *wiring pseudo-nodes*: top-level
//! inputs/outputs, constants, bit concatenation and bit slicing. Wiring nodes
//! model plain wires/pads: they occupy no cluster site and no area.
//!
//! Nets are driven by exactly one output port and fan out to any number of
//! input ports; every net carries a bus of a fixed bit width.

use std::collections::HashMap;
use std::fmt;

use crate::cluster::{addr_width, AddShiftCfg, ClusterCfg, ClusterKind, CompMode};
use crate::error::{CoreError, Result};
use crate::fixed::MAX_WORD_WIDTH;
use crate::report::ResourceReport;

/// Stable content hash of a netlist or bitstream (FNV-1a, 128-bit).
///
/// Two netlists built by the same deterministic builder with the same
/// parameters hash equal; any structural difference — a node kind, a port
/// width, a ROM content word, a connection — changes the value. This is the
/// content address the runtime's bitstream cache keys compiled
/// `(placement, routing, bitstream)` artifacts by, so place-and-route is
/// paid once per distinct kernel rather than once per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The canonical 32-digit lower-case hex spelling of the address — the
    /// single formatting everything renders fingerprints with (kernel
    /// registration keys, cache diagnostics, reports). `Display` delegates
    /// here, so `to_string()` and `to_hex()` agree byte for byte.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental FNV-1a/128 hasher behind [`Fingerprint`]. Kept crate-local so
/// bitstreams and netlists hash through the identical primitive.
pub(crate) struct FnvHasher {
    state: u128,
}

impl FnvHasher {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    pub(crate) fn new() -> Self {
        FnvHasher {
            state: Self::OFFSET,
        }
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Identifies a node inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a net inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A (node, port-index) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The node.
    pub node: NodeId,
    /// Index into the node's port list.
    pub port: u16,
}

/// Direction of a port, from the node's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// The node reads this port.
    In,
    /// The node drives this port.
    Out,
}

/// Static description of one port of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Port name, unique within the node.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Bus width in bits.
    pub width: u8,
    /// For input ports: value assumed when the port is left unconnected
    /// (`None` makes the port mandatory).
    pub default: Option<u64>,
}

impl PortSpec {
    fn input(name: &str, width: u8) -> Self {
        PortSpec {
            name: name.to_owned(),
            dir: PortDir::In,
            width,
            default: None,
        }
    }
    fn input_opt(name: &str, width: u8, default: u64) -> Self {
        PortSpec {
            name: name.to_owned(),
            dir: PortDir::In,
            width,
            default: Some(default),
        }
    }
    fn output(name: &str, width: u8) -> Self {
        PortSpec {
            name: name.to_owned(),
            dir: PortDir::Out,
            width,
            default: None,
        }
    }
}

/// What a node *is*.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Top-level input pad (driven by the testbench / SoC controller).
    Input {
        /// Bus width.
        width: u8,
    },
    /// Top-level output pad.
    Output {
        /// Bus width.
        width: u8,
    },
    /// Constant driver (tied-off wire).
    Const {
        /// Raw value (masked to `width`).
        value: u64,
        /// Bus width.
        width: u8,
    },
    /// Wiring node concatenating `parts` input buses into one output bus.
    /// `in0` occupies the least-significant bits.
    Concat {
        /// Widths of the input buses, LSB-first.
        parts: Vec<u8>,
    },
    /// Wiring node extracting `width` bits starting at `offset` from an
    /// `in_width`-bit bus.
    Slice {
        /// Width of the input bus.
        in_width: u8,
        /// LSB offset of the extracted field.
        offset: u8,
        /// Width of the extracted field.
        width: u8,
    },
    /// Wiring node sign-extending an `in_width`-bit bus to `width` bits
    /// (replicated MSB wiring; no logic).
    SignExtend {
        /// Width of the input bus.
        in_width: u8,
        /// Output width (must be >= `in_width`).
        width: u8,
    },
    /// A configured cluster instance.
    Cluster(ClusterCfg),
}

impl NodeKind {
    /// `true` if the node's outputs are a combinational function of its
    /// inputs in the *same* cycle.
    pub fn comb_output(&self) -> bool {
        match self {
            NodeKind::Input { .. } | NodeKind::Const { .. } => false, // sources
            NodeKind::Output { .. } => false,                         // sink only
            NodeKind::Concat { .. } | NodeKind::Slice { .. } | NodeKind::SignExtend { .. } => true,
            NodeKind::Cluster(cfg) => match cfg {
                ClusterCfg::RegMux { registered, .. } => !registered,
                ClusterCfg::AbsDiff { .. } => true,
                ClusterCfg::AddAcc { accumulate, .. } => !accumulate,
                ClusterCfg::Comparator { mode, .. } => {
                    matches!(mode, CompMode::Min | CompMode::Max)
                }
                ClusterCfg::AddShift(cfg) => {
                    matches!(cfg, AddShiftCfg::Add { .. } | AddShiftCfg::Sub { .. })
                }
                ClusterCfg::Memory { .. } => true, // asynchronous read
            },
        }
    }

    /// `true` if the node holds sequential state and must be clocked.
    pub fn sequential(&self) -> bool {
        match self {
            NodeKind::Cluster(cfg) => match cfg {
                ClusterCfg::RegMux { registered, .. } => *registered,
                ClusterCfg::AddAcc { accumulate, .. } => *accumulate,
                ClusterCfg::Comparator { mode, .. } => {
                    matches!(mode, CompMode::StreamMin | CompMode::StreamMax)
                }
                ClusterCfg::AddShift(cfg) => match cfg {
                    // serial adders keep a carry flip-flop
                    AddShiftCfg::Add { serial, .. } | AddShiftCfg::Sub { serial, .. } => *serial,
                    AddShiftCfg::SerialReg { .. } | AddShiftCfg::ShiftAcc { .. } => true,
                },
                ClusterCfg::AbsDiff { .. } | ClusterCfg::Memory { .. } => false,
            },
            _ => false,
        }
    }

    /// Computes the port list of this node kind.
    pub fn ports(&self) -> Vec<PortSpec> {
        match self {
            NodeKind::Input { width } => vec![PortSpec::output("out", *width)],
            NodeKind::Output { width } => vec![PortSpec::input("in", *width)],
            NodeKind::Const { width, .. } => vec![PortSpec::output("out", *width)],
            NodeKind::Concat { parts } => {
                let mut ports: Vec<PortSpec> = parts
                    .iter()
                    .enumerate()
                    .map(|(i, w)| PortSpec::input(&format!("in{i}"), *w))
                    .collect();
                let total: u8 = parts.iter().sum();
                ports.push(PortSpec::output("out", total));
                ports
            }
            NodeKind::Slice {
                in_width, width, ..
            }
            | NodeKind::SignExtend { in_width, width } => vec![
                PortSpec::input("in", *in_width),
                PortSpec::output("out", *width),
            ],
            NodeKind::Cluster(cfg) => cluster_ports(cfg),
        }
    }
}

fn cluster_ports(cfg: &ClusterCfg) -> Vec<PortSpec> {
    match cfg {
        ClusterCfg::RegMux { width, .. } => vec![
            PortSpec::input("a", *width),
            PortSpec::input_opt("b", *width, 0),
            PortSpec::input_opt("sel", 1, 0),
            PortSpec::input_opt("en", 1, 1),
            PortSpec::output("y", *width),
        ],
        ClusterCfg::AbsDiff { width, .. } => vec![
            PortSpec::input("a", *width),
            PortSpec::input("b", *width),
            PortSpec::output("y", *width),
        ],
        ClusterCfg::AddAcc {
            width, accumulate, ..
        } => {
            let mut p = vec![
                PortSpec::input("a", *width),
                PortSpec::input_opt("b", *width, 0),
            ];
            if *accumulate {
                p.push(PortSpec::input_opt("en", 1, 1));
                p.push(PortSpec::input_opt("clr", 1, 0));
            }
            p.push(PortSpec::output("y", *width));
            p
        }
        ClusterCfg::Comparator {
            width,
            index_width,
            mode,
        } => match mode {
            CompMode::Min | CompMode::Max => vec![
                PortSpec::input("a", *width),
                PortSpec::input("b", *width),
                PortSpec::output("y", *width),
                PortSpec::output("which", 1),
            ],
            CompMode::StreamMin | CompMode::StreamMax => vec![
                PortSpec::input("x", *width),
                PortSpec::input_opt("idx", *index_width, 0),
                PortSpec::input_opt("en", 1, 1),
                PortSpec::input_opt("clr", 1, 0),
                PortSpec::output("best", *width),
                PortSpec::output("best_idx", *index_width),
            ],
        },
        ClusterCfg::AddShift(cfg) => match cfg {
            AddShiftCfg::Add { width, serial } | AddShiftCfg::Sub { width, serial } => {
                let w = if *serial { 1 } else { *width };
                let mut p = vec![PortSpec::input("a", w), PortSpec::input("b", w)];
                if *serial {
                    p.push(PortSpec::input_opt("clr", 1, 0));
                }
                p.push(PortSpec::output("y", w));
                p
            }
            AddShiftCfg::SerialReg { width } => vec![
                PortSpec::input("d", *width),
                PortSpec::input_opt("load", 1, 0),
                PortSpec::input_opt("en", 1, 1),
                PortSpec::output("q", 1),
            ],
            AddShiftCfg::ShiftAcc {
                acc_width,
                data_width,
            } => vec![
                PortSpec::input("d", *data_width),
                PortSpec::input_opt("en", 1, 1),
                PortSpec::input_opt("clr", 1, 0),
                PortSpec::input_opt("sub", 1, 0),
                PortSpec::input_opt("sh", 1, 0),
                PortSpec::output("y", *acc_width),
                PortSpec::output("qs", 1),
            ],
        },
        ClusterCfg::Memory { words, width, .. } => vec![
            PortSpec::input("addr", addr_width(*words)),
            PortSpec::output("dout", *width),
        ],
    }
}

/// One node instance in a netlist.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name.
    pub name: String,
    /// Node kind and configuration.
    pub kind: NodeKind,
    /// Cached port list.
    pub ports: Vec<PortSpec>,
}

impl Node {
    /// Finds a port index by name.
    pub fn port_index(&self, port: &str) -> Option<u16> {
        self.ports
            .iter()
            .position(|p| p.name == port)
            .map(|i| i as u16)
    }
}

/// One net (bus) in a netlist.
#[derive(Debug, Clone)]
pub struct Net {
    /// Name (derived from the driver).
    pub name: String,
    /// Driving output port.
    pub driver: PortRef,
    /// Reading input ports.
    pub sinks: Vec<PortRef>,
    /// Bus width in bits.
    pub width: u8,
}

/// A complete structural netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    nets: Vec<Net>,
    by_name: HashMap<String, NodeId>,
    net_of_driver: HashMap<PortRef, NetId>,
    net_of_sink: HashMap<PortRef, NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The node behind an id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The net behind an id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Net driven by the given output port, if any.
    pub fn net_of(&self, port: PortRef) -> Option<NetId> {
        self.net_of_driver
            .get(&port)
            .or_else(|| self.net_of_sink.get(&port))
            .copied()
    }

    /// Ids of all [`NodeKind::Input`] nodes, in creation order.
    pub fn input_nodes(&self) -> Vec<NodeId> {
        self.filter_kind(|k| matches!(k, NodeKind::Input { .. }))
    }

    /// Ids of all [`NodeKind::Output`] nodes, in creation order.
    pub fn output_nodes(&self) -> Vec<NodeId> {
        self.filter_kind(|k| matches!(k, NodeKind::Output { .. }))
    }

    /// Ids of all cluster nodes, in creation order.
    pub fn cluster_nodes(&self) -> Vec<NodeId> {
        self.filter_kind(|k| matches!(k, NodeKind::Cluster(_)))
    }

    fn filter_kind(&self, pred: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(&n.kind))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    // ---- builder API -----------------------------------------------------

    fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> Result<NodeId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(CoreError::DuplicateNode(name));
        }
        let ports = kind.ports();
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, kind, ports });
        Ok(id)
    }

    /// Adds a top-level input of the given width.
    ///
    /// # Errors
    /// [`CoreError::InvalidWidth`] unless `width` is in
    /// `1..=`[`MAX_WORD_WIDTH`]; [`CoreError::DuplicateNode`] on a reused
    /// name.
    pub fn input(&mut self, name: impl Into<String>, width: u8) -> Result<NodeId> {
        let name = word_width(name.into(), width)?;
        self.add_node(name, NodeKind::Input { width })
    }

    /// Adds a top-level output of the given width.
    ///
    /// # Errors
    /// Same as [`Netlist::input`].
    pub fn output(&mut self, name: impl Into<String>, width: u8) -> Result<NodeId> {
        let name = word_width(name.into(), width)?;
        self.add_node(name, NodeKind::Output { width })
    }

    /// Adds a constant driver.
    ///
    /// # Errors
    /// Same as [`Netlist::input`].
    pub fn constant(&mut self, name: impl Into<String>, value: u64, width: u8) -> Result<NodeId> {
        let name = word_width(name.into(), width)?;
        self.add_node(name, NodeKind::Const { value, width })
    }

    /// Adds a cluster instance after validating its configuration.
    pub fn cluster(&mut self, name: impl Into<String>, cfg: ClusterCfg) -> Result<NodeId> {
        let name = name.into();
        cfg.validate(&name)?;
        self.add_node(name, NodeKind::Cluster(cfg))
    }

    /// Adds a concat wiring node and connects `sources` to it (LSB first).
    /// Returns the concat node; its output port is `out`.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        sources: &[(NodeId, &str)],
    ) -> Result<NodeId> {
        let mut parts = Vec::with_capacity(sources.len());
        for (node, port) in sources {
            let n = self.node_checked(*node)?;
            let pi = n.port_index(port).ok_or_else(|| CoreError::UnknownPort {
                node: n.name.clone(),
                port: (*port).to_owned(),
            })?;
            parts.push(n.ports[pi as usize].width);
        }
        let cat = self.add_node(name, NodeKind::Concat { parts })?;
        for (i, (node, port)) in sources.iter().enumerate() {
            self.connect((*node, port), (cat, &format!("in{i}")))?;
        }
        Ok(cat)
    }

    /// Adds a slice wiring node extracting `width` bits at `offset` from the
    /// output port `src` and returns it; its output port is `out`.
    pub fn slice(
        &mut self,
        name: impl Into<String>,
        src: (NodeId, &str),
        offset: u8,
        width: u8,
    ) -> Result<NodeId> {
        let n = self.node_checked(src.0)?;
        let pi = n.port_index(src.1).ok_or_else(|| CoreError::UnknownPort {
            node: n.name.clone(),
            port: src.1.to_owned(),
        })?;
        let in_width = n.ports[pi as usize].width;
        let sl = self.add_node(
            name,
            NodeKind::Slice {
                in_width,
                offset,
                width,
            },
        )?;
        self.connect(src, (sl, "in"))?;
        Ok(sl)
    }

    /// Adds a sign-extension wiring node widening the output port `src` to
    /// `width` bits and returns it; its output port is `out`.
    pub fn sign_extend(
        &mut self,
        name: impl Into<String>,
        src: (NodeId, &str),
        width: u8,
    ) -> Result<NodeId> {
        let n = self.node_checked(src.0)?;
        let pi = n.port_index(src.1).ok_or_else(|| CoreError::UnknownPort {
            node: n.name.clone(),
            port: src.1.to_owned(),
        })?;
        let in_width = n.ports[pi as usize].width;
        if width < in_width {
            return Err(CoreError::InvalidWidth {
                node: n.name.clone(),
                width,
            });
        }
        let se = self.add_node(name, NodeKind::SignExtend { in_width, width })?;
        self.connect(src, (se, "in"))?;
        Ok(se)
    }

    fn node_checked(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.0 as usize)
            .ok_or_else(|| CoreError::UnknownNode(format!("#{}", id.0)))
    }

    fn resolve(&self, node: NodeId, port: &str) -> Result<(PortRef, PortSpec)> {
        let n = self.node_checked(node)?;
        let pi = n.port_index(port).ok_or_else(|| CoreError::UnknownPort {
            node: n.name.clone(),
            port: port.to_owned(),
        })?;
        Ok((PortRef { node, port: pi }, n.ports[pi as usize].clone()))
    }

    /// Connects output port `from` to input port `to`, creating or extending
    /// the net driven by `from`.
    ///
    /// # Errors
    /// Fails on unknown nodes/ports, direction misuse, width mismatch, or if
    /// the sink already has a driver.
    pub fn connect(&mut self, from: (NodeId, &str), to: (NodeId, &str)) -> Result<NetId> {
        let (fref, fspec) = self.resolve(from.0, from.1)?;
        let (tref, tspec) = self.resolve(to.0, to.1)?;
        if fspec.dir != PortDir::Out {
            return Err(CoreError::DirectionMismatch {
                node: self.node(from.0).name.clone(),
                port: from.1.to_owned(),
            });
        }
        if tspec.dir != PortDir::In {
            return Err(CoreError::DirectionMismatch {
                node: self.node(to.0).name.clone(),
                port: to.1.to_owned(),
            });
        }
        if fspec.width != tspec.width {
            return Err(CoreError::WidthMismatch {
                node: self.node(to.0).name.clone(),
                port: to.1.to_owned(),
                expected: tspec.width,
                found: fspec.width,
            });
        }
        if self.net_of_sink.contains_key(&tref) {
            return Err(CoreError::MultipleDrivers {
                node: self.node(to.0).name.clone(),
                port: to.1.to_owned(),
            });
        }
        let net_id = match self.net_of_driver.get(&fref) {
            Some(id) => *id,
            None => {
                let id = NetId(self.nets.len() as u32);
                self.nets.push(Net {
                    name: format!("{}.{}", self.node(from.0).name, from.1),
                    driver: fref,
                    sinks: Vec::new(),
                    width: fspec.width,
                });
                self.net_of_driver.insert(fref, id);
                id
            }
        };
        self.nets[net_id.0 as usize].sinks.push(tref);
        self.net_of_sink.insert(tref, net_id);
        Ok(net_id)
    }

    // ---- analysis --------------------------------------------------------

    /// Checks that every mandatory input is connected and that the
    /// combinational part of the design is acyclic; returns the nodes in a
    /// valid combinational evaluation order.
    ///
    /// # Errors
    /// [`CoreError::Unconnected`] for a dangling mandatory input,
    /// [`CoreError::CombinationalLoop`] if a comb cycle exists.
    pub fn check(&self) -> Result<Vec<NodeId>> {
        for (ni, node) in self.nodes.iter().enumerate() {
            for (pi, port) in node.ports.iter().enumerate() {
                if port.dir == PortDir::In && port.default.is_none() {
                    let pref = PortRef {
                        node: NodeId(ni as u32),
                        port: pi as u16,
                    };
                    if !self.net_of_sink.contains_key(&pref) {
                        return Err(CoreError::Unconnected {
                            node: node.name.clone(),
                            port: port.name.clone(),
                        });
                    }
                }
            }
        }
        self.levelize()
    }

    /// Topologically sorts nodes along combinational edges.
    pub fn levelize(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0u32; n];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for net in &self.nets {
            let drv = net.driver.node.0 as usize;
            // Order sinks after any driver that produces its value during the
            // combinational phase: comb clusters, wiring nodes, and external
            // sources (inputs / constants). Sequential outputs come from
            // state and impose no ordering (this is what breaks register
            // feedback loops).
            let orders_sinks = self.nodes[drv].kind.comb_output()
                || matches!(
                    self.nodes[drv].kind,
                    NodeKind::Input { .. } | NodeKind::Const { .. }
                );
            if orders_sinks {
                for sink in &net.sinks {
                    adj[drv].push(sink.node.0);
                    indeg[sink.node.0 as usize] += 1;
                }
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        // Stable order: process lowest ids first for determinism.
        queue.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(NodeId(u));
            for &v in &adj[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap();
            return Err(CoreError::CombinationalLoop {
                involving: self.nodes[stuck].name.clone(),
            });
        }
        Ok(order)
    }

    /// Longest combinational path length in cluster nodes (logic depth).
    /// Wiring nodes count as zero delay; each cluster counts as one level.
    pub fn logic_depth(&self) -> Result<u32> {
        let order = self.levelize()?;
        let mut depth = vec![0u32; self.nodes.len()];
        let mut max = 0;
        for id in order {
            let u = id.0 as usize;
            let node = &self.nodes[u];
            let cost = match &node.kind {
                NodeKind::Cluster(_) if node.kind.comb_output() => 1,
                _ => 0,
            };
            depth[u] += cost;
            max = max.max(depth[u]);
            if node.kind.comb_output() {
                for (pref, _) in self.driver_ports(id) {
                    if let Some(net) = self.net_of_driver.get(&pref) {
                        for sink in &self.nets[net.0 as usize].sinks {
                            let v = sink.node.0 as usize;
                            depth[v] = depth[v].max(depth[u]);
                        }
                    }
                }
            }
        }
        Ok(max)
    }

    fn driver_ports(&self, id: NodeId) -> Vec<(PortRef, &PortSpec)> {
        self.nodes[id.0 as usize]
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PortDir::Out)
            .map(|(i, p)| {
                (
                    PortRef {
                        node: id,
                        port: i as u16,
                    },
                    p,
                )
            })
            .collect()
    }

    /// Stable structural content hash of this netlist.
    ///
    /// Covers the netlist name, every node (name, kind, full cluster
    /// configuration including memory contents) and every net (driver,
    /// sinks, width), all in deterministic creation order. Equal
    /// fingerprints therefore mean structurally identical netlists, which —
    /// because placement, routing and bitstream generation are themselves
    /// deterministic — compile to identical bitstreams on the same fabric.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FnvHasher::new();
        h.write_str(&self.name);
        h.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            h.write_str(&node.name);
            hash_node_kind(&mut h, &node.kind);
        }
        h.write_u64(self.nets.len() as u64);
        for net in &self.nets {
            h.write_u64(u64::from(net.driver.node.0));
            h.write_u64(u64::from(net.driver.port));
            h.write_u64(u64::from(net.width));
            h.write_u64(net.sinks.len() as u64);
            for sink in &net.sinks {
                h.write_u64(u64::from(sink.node.0));
                h.write_u64(u64::from(sink.port));
            }
        }
        h.finish()
    }

    /// Builds the Table-1 style resource report for this netlist.
    pub fn resource_report(&self) -> ResourceReport {
        let mut report = ResourceReport::new(&self.name);
        for node in &self.nodes {
            if let NodeKind::Cluster(cfg) = &node.kind {
                report.record(cfg);
            }
        }
        report
    }

    /// Total cluster configuration bits (routing excluded — the router adds
    /// its own switch bits).
    pub fn cluster_config_bits(&self) -> u32 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Cluster(cfg) => Some(cfg.config_bits()),
                _ => None,
            })
            .sum()
    }

    /// Number of cluster instances of a given kind.
    pub fn count_kind(&self, kind: ClusterKind) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(&n.kind, NodeKind::Cluster(c) if c.kind() == kind))
            .count()
    }

    /// Collapses wiring pseudo-nodes (concat / slice / const) and returns the
    /// *physical* nets that the placer and router work with: cluster-or-pad
    /// sources fanning out to cluster-or-pad sinks.
    ///
    /// Constants produce no physical nets (they are tied off inside the
    /// cluster's connection box).
    pub fn physical_nets(&self) -> Vec<PhysNet> {
        let mut result = Vec::new();
        for net in &self.nets {
            let driver = &self.nodes[net.driver.node.0 as usize];
            let physical_driver =
                matches!(driver.kind, NodeKind::Input { .. } | NodeKind::Cluster(_));
            if !physical_driver {
                continue;
            }
            let mut sinks = Vec::new();
            self.collect_terminal_sinks(net, &mut sinks);
            if !sinks.is_empty() {
                sinks.sort_unstable();
                sinks.dedup();
                result.push(PhysNet {
                    source: net.driver.node,
                    sinks,
                    width: net.width,
                });
            }
        }
        result
    }

    fn collect_terminal_sinks(&self, net: &Net, out: &mut Vec<NodeId>) {
        for sink in &net.sinks {
            let node = &self.nodes[sink.node.0 as usize];
            match &node.kind {
                NodeKind::Output { .. } | NodeKind::Cluster(_) => out.push(sink.node),
                NodeKind::Concat { .. } | NodeKind::Slice { .. } | NodeKind::SignExtend { .. } => {
                    // Follow through the wiring node's output net, if driven.
                    for (pref, _) in self.driver_ports(sink.node) {
                        if let Some(next) = self.net_of_driver.get(&pref) {
                            self.collect_terminal_sinks(&self.nets[next.0 as usize], out);
                        }
                    }
                }
                NodeKind::Input { .. } | NodeKind::Const { .. } => {}
            }
        }
    }
}

fn hash_node_kind(h: &mut FnvHasher, kind: &NodeKind) {
    match kind {
        NodeKind::Input { width } => {
            h.write_u64(0x10);
            h.write_u64(u64::from(*width));
        }
        NodeKind::Output { width } => {
            h.write_u64(0x11);
            h.write_u64(u64::from(*width));
        }
        NodeKind::Const { value, width } => {
            h.write_u64(0x12);
            h.write_u64(*value);
            h.write_u64(u64::from(*width));
        }
        NodeKind::Concat { parts } => {
            h.write_u64(0x13);
            h.write_u64(parts.len() as u64);
            for p in parts {
                h.write_u64(u64::from(*p));
            }
        }
        NodeKind::Slice {
            in_width,
            offset,
            width,
        } => {
            h.write_u64(0x14);
            h.write_u64(u64::from(*in_width));
            h.write_u64(u64::from(*offset));
            h.write_u64(u64::from(*width));
        }
        NodeKind::SignExtend { in_width, width } => {
            h.write_u64(0x15);
            h.write_u64(u64::from(*in_width));
            h.write_u64(u64::from(*width));
        }
        NodeKind::Cluster(cfg) => {
            h.write_u64(0x16);
            // The bitstream's structural cluster encoding already covers
            // every configuration field (including memory contents), so the
            // fingerprint and the configuration planes cannot drift apart.
            let words = crate::bitstream::encode_cluster(cfg);
            h.write_u64(words.len() as u64);
            for w in words {
                h.write_u64(w);
            }
        }
    }
}

/// A physical net after wiring-node collapsing: what actually needs mesh
/// tracks between sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysNet {
    /// Driving cluster or input pad.
    pub source: NodeId,
    /// Terminal cluster or output-pad sinks (deduplicated, sorted).
    pub sinks: Vec<NodeId>,
    /// Bus width in bits.
    pub width: u8,
}

/// Passes `name` through when `width` fits a raw bus word
/// (`1..=`[`MAX_WORD_WIDTH`]), the widths the simulator's word arithmetic
/// supports.
fn word_width(name: String, width: u8) -> Result<String> {
    if (1..=MAX_WORD_WIDTH).contains(&width) {
        Ok(name)
    } else {
        Err(CoreError::InvalidWidth { node: name, width })
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}`: {} nodes ({} clusters), {} nets",
            self.name,
            self.nodes.len(),
            self.cluster_nodes().len(),
            self.nets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AbsDiffMode;

    fn abs_diff(width: u8) -> ClusterCfg {
        ClusterCfg::AbsDiff {
            width,
            mode: AbsDiffMode::AbsDiff,
        }
    }

    #[test]
    fn build_and_check_simple_pipeline() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let ad = nl.cluster("ad", abs_diff(8)).unwrap();
        let y = nl.output("y", 8).unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        let order = nl.check().unwrap();
        assert_eq!(order.len(), 4);
        // ad must come after both inputs.
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(ad) > pos(a) && pos(ad) > pos(b));
        assert!(pos(y) > pos(ad));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let ad = nl.cluster("ad", abs_diff(12)).unwrap();
        assert!(matches!(
            nl.connect((a, "out"), (ad, "a")),
            Err(CoreError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn direction_and_double_drive_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let ad = nl.cluster("ad", abs_diff(8)).unwrap();
        // output port used as sink
        assert!(matches!(
            nl.connect((a, "out"), (b, "out")),
            Err(CoreError::DirectionMismatch { .. })
        ));
        nl.connect((a, "out"), (ad, "a")).unwrap();
        assert!(matches!(
            nl.connect((b, "out"), (ad, "a")),
            Err(CoreError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn unconnected_mandatory_input_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let ad = nl.cluster("ad", abs_diff(8)).unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        assert!(matches!(nl.check(), Err(CoreError::Unconnected { .. })));
    }

    #[test]
    fn optional_inputs_may_dangle() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let mux = nl
            .cluster(
                "m",
                ClusterCfg::RegMux {
                    width: 8,
                    registered: false,
                },
            )
            .unwrap();
        let y = nl.output("y", 8).unwrap();
        nl.connect((a, "out"), (mux, "a")).unwrap();
        nl.connect((mux, "y"), (y, "in")).unwrap();
        // b, sel, en are optional.
        nl.check().unwrap();
    }

    #[test]
    fn comb_loop_detected() {
        let mut nl = Netlist::new("t");
        let ad1 = nl.cluster("ad1", abs_diff(8)).unwrap();
        let ad2 = nl.cluster("ad2", abs_diff(8)).unwrap();
        nl.connect((ad1, "y"), (ad2, "a")).unwrap();
        nl.connect((ad2, "y"), (ad1, "a")).unwrap();
        assert!(matches!(
            nl.levelize(),
            Err(CoreError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn registered_feedback_is_legal() {
        // acc -> adder -> acc through a registered accumulator is fine.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let acc = nl
            .cluster(
                "acc",
                ClusterCfg::AddAcc {
                    width: 8,
                    op: AddOp::Add,
                    accumulate: true,
                },
            )
            .unwrap();
        nl.connect((a, "out"), (acc, "a")).unwrap();
        nl.connect((acc, "y"), (acc, "b")).unwrap();
        nl.check().unwrap();
    }

    use crate::cluster::AddOp;

    #[test]
    fn concat_and_slice_widths() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1).unwrap();
        let b = nl.input("b", 3).unwrap();
        let cat = nl.concat("cat", &[(a, "out"), (b, "out")]).unwrap();
        assert_eq!(nl.node(cat).ports.last().unwrap().width, 4);
        let sl = nl.slice("sl", (cat, "out"), 1, 3).unwrap();
        assert_eq!(nl.node(sl).ports.last().unwrap().width, 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.input("a", 8).unwrap();
        assert!(matches!(nl.input("a", 8), Err(CoreError::DuplicateNode(_))));
    }

    /// Asserts a pin builder rejects widths 0 and 64 and accepts the
    /// range's two ends, adding no node for a rejected width.
    fn assert_word_widths(add: impl Fn(&mut Netlist, &str, u8) -> Result<NodeId>) {
        let mut nl = Netlist::new("t");
        for width in [0, MAX_WORD_WIDTH + 1] {
            assert!(
                matches!(
                    add(&mut nl, "bad", width),
                    Err(CoreError::InvalidWidth { ref node, width: w }) if node == "bad" && w == width
                ),
                "width {width} accepted"
            );
        }
        assert!(nl.nodes().is_empty());
        add(&mut nl, "narrow", 1).unwrap();
        add(&mut nl, "wide", MAX_WORD_WIDTH).unwrap();
    }

    #[test]
    fn input_rejects_widths_outside_a_word() {
        assert_word_widths(|nl, name, w| nl.input(name, w));
    }

    #[test]
    fn output_rejects_widths_outside_a_word() {
        assert_word_widths(|nl, name, w| nl.output(name, w));
    }

    #[test]
    fn constant_rejects_widths_outside_a_word() {
        assert_word_widths(|nl, name, w| nl.constant(name, 1, w));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let build = |mode: AbsDiffMode, width: u8| {
            let mut nl = Netlist::new("fp");
            let a = nl.input("a", width).unwrap();
            let b = nl.input("b", width).unwrap();
            let ad = nl
                .cluster("ad", ClusterCfg::AbsDiff { width, mode })
                .unwrap();
            let y = nl.output("y", width).unwrap();
            nl.connect((a, "out"), (ad, "a")).unwrap();
            nl.connect((b, "out"), (ad, "b")).unwrap();
            nl.connect((ad, "y"), (y, "in")).unwrap();
            nl
        };
        let base = build(AbsDiffMode::AbsDiff, 8);
        // Rebuilding the identical structure reproduces the hash.
        assert_eq!(
            base.fingerprint(),
            build(AbsDiffMode::AbsDiff, 8).fingerprint()
        );
        // A mode or width change is a different content address.
        assert_ne!(base.fingerprint(), build(AbsDiffMode::Sub, 8).fingerprint());
        assert_ne!(
            base.fingerprint(),
            build(AbsDiffMode::AbsDiff, 12).fingerprint()
        );
    }

    #[test]
    fn fingerprint_hex_is_canonical_and_shared_with_display() {
        let fp = Fingerprint(0x00AB_u128);
        let hex = fp.to_hex();
        // Fixed-width, lower-case, zero-padded — and Display is the same
        // bytes, so every consumer formats fingerprints identically.
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, "000000000000000000000000000000ab");
        assert_eq!(hex, fp.to_string());
        assert_eq!(Fingerprint(u128::MAX).to_hex(), "f".repeat(32));
    }

    #[test]
    fn fingerprint_sees_memory_contents_and_connectivity() {
        let build = |val: u64, cross: bool| {
            let mut nl = Netlist::new("fp");
            let a = nl.input("a", 4).unwrap();
            let rom = nl
                .cluster(
                    "rom",
                    ClusterCfg::Memory {
                        words: 16,
                        width: 8,
                        contents: vec![val; 16],
                    },
                )
                .unwrap();
            let y = nl.output("y", 8).unwrap();
            nl.connect((a, "out"), (rom, "addr")).unwrap();
            if cross {
                nl.connect((rom, "dout"), (y, "in")).unwrap();
            }
            nl
        };
        assert_ne!(build(1, true).fingerprint(), build(2, true).fingerprint());
        assert_ne!(build(1, true).fingerprint(), build(1, false).fingerprint());
        assert_eq!(build(3, true).fingerprint(), build(3, true).fingerprint());
    }

    #[test]
    fn memory_ports_follow_geometry() {
        let mut nl = Netlist::new("t");
        let m = nl
            .cluster(
                "rom",
                ClusterCfg::Memory {
                    words: 256,
                    width: 8,
                    contents: vec![0; 256],
                },
            )
            .unwrap();
        let node = nl.node(m);
        assert_eq!(node.port_index("addr").unwrap(), 0);
        assert_eq!(node.ports[0].width, 8); // 256 words -> 8 address bits
        assert_eq!(node.ports[1].width, 8);
    }
}
