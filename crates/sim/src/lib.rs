//! Gate-level simulation: combinational evaluation, sequential stepping,
//! and scan-chain test access for *unlocked* circuits.
//!
//! This crate is the ground-truth substrate of the reproduction: the
//! locked-chip oracle in `scanlock` layers obfuscation on top of the
//! primitives here, and the attack's final verification re-locks a
//! `scanlock::LockedScanChip` under the recovered seed and compares its
//! responses with the oracle's.
//!
//! * [`Evaluator`] — reusable topological-order evaluation of the
//!   combinational core;
//! * [`SeqSim`] — clock-by-clock functional simulation;
//! * [`ScanChain`] — the order in which flops are stitched into the chain;
//! * [`ScanChip`] — load / capture / unload test access, no obfuscation;
//! * [`ScanAccess`] — the oracle interface shared by unlocked and locked
//!   chips (the attack only ever talks to this trait);
//! * [`FaultyOracle`] / [`FallibleScanAccess`] — seeded fault injection
//!   (bit flips and transient errors) over any honest oracle, and the
//!   fallible interface fault-tolerant attack code consumes
//!   ([`Reliable`] lifts a trustworthy oracle into it).
//!
//! # Example
//!
//! ```
//! use netlist::generator::counter;
//! use sim::SeqSim;
//!
//! let c = counter(3);
//! let mut simulator = SeqSim::new(&c);
//! for _ in 0..4 {
//!     simulator.step(&[true]); // enable high: count up
//! }
//! assert_eq!(simulator.state(), &[false, false, true]); // 4 = 0b100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod faulty;
mod oracle;
mod scan;
mod seq;

pub use comb::Evaluator;
pub use faulty::{FallibleScanAccess, FaultSpec, FaultyOracle, FaultyStats, OracleFault, Reliable};
pub use oracle::{check_session_freshness, FreshnessViolation, ScanAccess, ScanResponse};
pub use scan::{ScanChain, ScanChip};
pub use seq::SeqSim;
