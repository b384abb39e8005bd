//! Error types for fabric construction, netlist building, placement and
//! routing.

use std::fmt;

/// Errors produced by the `dsra-core` crate.
///
/// Every fallible public function in this crate returns `Result<_, CoreError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CoreError {
    /// A node name was used twice within one netlist.
    DuplicateNode(String),
    /// Referenced a node that does not exist.
    UnknownNode(String),
    /// Referenced a port that does not exist on the given node.
    UnknownPort { node: String, port: String },
    /// Tried to connect two ports with different bit widths.
    WidthMismatch {
        node: String,
        port: String,
        expected: u8,
        found: u8,
    },
    /// Tried to drive a net from an input port or feed an output port as a
    /// source.
    DirectionMismatch { node: String, port: String },
    /// An input port was connected twice.
    MultipleDrivers { node: String, port: String },
    /// A required input port was left unconnected.
    Unconnected { node: String, port: String },
    /// The combinational part of the netlist contains a cycle.
    CombinationalLoop { involving: String },
    /// A width is outside its supported range: 1..=32 for a cluster
    /// datapath, 1..=63 for pins, constants and wiring.
    InvalidWidth { node: String, width: u8 },
    /// Memory geometry is unsupported (zero words, too many address bits...).
    InvalidGeometry { node: String, detail: String },
    /// The fabric has no free site compatible with a node.
    PlacementFull { kind: String },
    /// The router could not find a legal route within its iteration budget.
    Unroutable { net: String },
    /// Mismatch between a netlist and the fabric or placement it is used with.
    Mismatch(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateNode(n) => write!(f, "duplicate node name `{n}`"),
            CoreError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            CoreError::UnknownPort { node, port } => {
                write!(f, "node `{node}` has no port `{port}`")
            }
            CoreError::WidthMismatch {
                node,
                port,
                expected,
                found,
            } => write!(
                f,
                "width mismatch on `{node}.{port}`: port is {expected} bits, net is {found} bits"
            ),
            CoreError::DirectionMismatch { node, port } => {
                write!(f, "port `{node}.{port}` used against its direction")
            }
            CoreError::MultipleDrivers { node, port } => {
                write!(f, "input port `{node}.{port}` has multiple drivers")
            }
            CoreError::Unconnected { node, port } => {
                write!(f, "required input `{node}.{port}` is unconnected")
            }
            CoreError::CombinationalLoop { involving } => {
                write!(f, "combinational loop through node `{involving}`")
            }
            CoreError::InvalidWidth { node, width } => {
                write!(
                    f,
                    "node `{node}` has unsupported width {width} (clusters take 1..=32, pins and wiring 1..=63)"
                )
            }
            CoreError::InvalidGeometry { node, detail } => {
                write!(f, "node `{node}` has invalid memory geometry: {detail}")
            }
            CoreError::PlacementFull { kind } => {
                write!(f, "fabric has no free site for cluster kind {kind}")
            }
            CoreError::Unroutable { net } => write!(f, "net `{net}` could not be routed"),
            CoreError::Mismatch(d) => write!(f, "netlist/fabric mismatch: {d}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
