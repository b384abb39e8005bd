//! # dsra-core — domain-specific reconfigurable array fabric model
//!
//! Structural model of the reconfigurable arrays from *"Efficient
//! Implementations of Mobile Video Computations on Domain-Specific
//! Reconfigurable Arrays"* (Khawam et al., DATE 2004): heterogeneous
//! cluster fabrics for motion estimation and distributed arithmetic, a
//! netlist representation for kernel mappings, placement, routing over the
//! mixed 8-bit/1-bit mesh, bitstream generation and Table-1-style resource
//! accounting.
//!
//! ## Quick tour
//!
//! ```
//! use dsra_core::prelude::*;
//!
//! # fn main() -> std::result::Result<(), CoreError> {
//! // Describe a tiny design: |a - b| on an 8-bit datapath.
//! let mut nl = Netlist::new("sad-cell");
//! let a = nl.input("a", 8)?;
//! let b = nl.input("b", 8)?;
//! let ad = nl.cluster("ad", ClusterCfg::AbsDiff {
//!     width: 8,
//!     mode: AbsDiffMode::AbsDiff,
//! })?;
//! let y = nl.output("y", 8)?;
//! nl.connect((a, "out"), (ad, "a"))?;
//! nl.connect((b, "out"), (ad, "b"))?;
//! nl.connect((ad, "y"), (y, "in"))?;
//! nl.check()?;
//!
//! // Map it onto the motion-estimation array and count everything.
//! // Placement and routing take no options: the annealer's seed, its
//! // 20 000 moves and the router's 40 iterations are constants.
//! let fabric = Fabric::me_array(8, 8, MeshSpec::mixed());
//! let placement = place(&nl, &fabric)?;
//! let routing = route(&nl, &fabric, &placement)?;
//! let bits = Bitstream::generate(&nl, &fabric, &placement, &routing);
//! assert!(bits.total_bits() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! The cycle-accurate execution of configured netlists lives in `dsra-sim`;
//! kernel builders (DCT, motion estimation) live in `dsra-dct` / `dsra-me`.

#![warn(missing_docs)]

pub mod bitstream;
pub mod cluster;
pub mod error;
pub mod fabric;
pub mod fixed;
pub mod netlist;
pub mod place;
pub mod report;
pub mod rng;
pub mod route;

/// Convenience re-exports of the most used items.
pub mod prelude {
    pub use crate::bitstream::Bitstream;
    pub use crate::cluster::{
        AbsDiffMode, AddOp, AddShiftCfg, AddShiftRole, ClusterCfg, ClusterKind, CompMode,
    };
    pub use crate::error::{CoreError, Result};
    pub use crate::fabric::{Fabric, MeshSpec, SiteKind};
    pub use crate::netlist::{
        Fingerprint, Net, NetId, Netlist, Node, NodeId, NodeKind, PhysNet, PortRef,
    };
    pub use crate::place::{place, Placement};
    pub use crate::report::{table1, ExecOutcome, ResourceReport};
    pub use crate::route::{route, Routing, RoutingStats, TrackClass};
}

pub use prelude::*;
