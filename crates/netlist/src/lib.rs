//! Gate-level netlist infrastructure for the DynUnlock reproduction.
//!
//! The paper evaluates on ISCAS-89 and ITC-99 sequential benchmarks. This
//! crate provides everything needed to stand in for that flow:
//!
//! * [`Circuit`] — a validated gate-level IR with primary inputs/outputs,
//!   combinational gates and D flip-flops;
//! * [`CircuitBuilder`] — ergonomic construction with name management;
//! * [`bench`](mod@bench) — a reader/writer for the ISCAS-89 `.bench` format, so real
//!   benchmark files can be dropped in unchanged;
//! * [`topo`] — topological ordering of the combinational core (the basis
//!   of simulation and CNF encoding);
//! * [`generator`] — a seeded synthetic sequential-circuit generator;
//! * [`profiles`] — generator profiles pinned to the post-synthesis
//!   scan-flop counts the paper reports for its ten benchmarks
//!   (see DESIGN.md §4 for why this substitution preserves behaviour).
//!
//! # Example
//!
//! ```
//! use netlist::{CircuitBuilder, GateKind};
//!
//! let mut b = CircuitBuilder::new("toy");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let g = b.gate(GateKind::Nand, &[a, bb], "g");
//! let q = b.dff("ff", g); // q is the flop output
//! let o = b.gate(GateKind::Xor, &[q, a], "o");
//! b.output(o);
//! let c = b.finish().unwrap();
//! assert_eq!(c.num_dffs(), 1);
//! assert_eq!(c.num_gates(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod builder;
mod circuit;
mod error;
mod gate;
pub mod generator;
pub mod profiles;
pub mod topo;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Dff, Gate, NetId};
pub use error::NetlistError;
pub use gate::GateKind;
