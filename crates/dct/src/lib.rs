//! # dsra-dct — DCT implementations on the distributed-arithmetic array
//!
//! The six DCT mappings of the paper's §3, each built as a
//! [`dsra_core::netlist::Netlist`] over add-shift and memory clusters and
//! executed bit-serially on the `dsra-sim` engine. Every block runs the
//! same control schedule, so [`DctImpl::transform_batch`] clocks up to
//! [`LANES`] blocks through one lane-batched simulator sweep.

#![warn(missing_docs)]

pub mod basic_da;
pub mod cordic;
pub mod da;
pub mod factor;
pub mod harness;
pub mod idct;
pub mod mixed_rom;
pub mod reference;
pub mod scc;
pub mod twod;

pub use basic_da::BasicDa;
pub use cordic::{Cordic1, Cordic2};
pub use da::{AccDecoder, DaParams};
pub use harness::{all_impls, measure_accuracy, transform_random_blocks, Accuracy, DctImpl, LANES};
pub use idct::BasicIdct;
pub use mixed_rom::MixedRom;
pub use scc::{SccEvenOdd, SccFull};
