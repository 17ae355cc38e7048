//! Dense linear algebra over GF(2) and a small deterministic PRNG.
//!
//! This crate is the arithmetic substrate of the DynUnlock reproduction.
//! The attack exploits the fact that LFSR-based dynamic scan obfuscation
//! is *linear over GF(2)* in the secret seed; everything needed to state
//! and exploit that linearity lives here:
//!
//! * [`BitVec`] — a fixed-length bit-vector backed by `u64` words, the
//!   representation of seeds, key-stream snapshots and mask rows.
//! * [`BitMatrix`] — a dense row-major matrix of [`BitVec`] rows, used for
//!   LFSR companion matrices and the scan-obfuscation mask matrices
//!   `T_in` / `T_out`.
//! * [`LinSolver`] — incremental Gaussian elimination: rank, consistency,
//!   pinned variables, a particular solution and a nullspace basis. It is
//!   the attack's one elimination: the mask basis and its map back to the
//!   seed are built on it.
//! * [`solve_system`] — one-shot Gauss–Jordan elimination of `A x = b`,
//!   sharing its routine with [`BitMatrix::rank`] and
//!   [`BitMatrix::nullspace`]. No attack path runs it; it is the test
//!   reference [`LinSolver`] is checked against.
//! * [`SplitMix64`] / [`Xoshiro256`] — dependency-free deterministic PRNGs
//!   so synthetic benchmark generation is reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use gf2::{BitMatrix, BitVec};
//!
//! // Companion-style update: x' = A x over GF(2).
//! let a = BitMatrix::identity(3);
//! let x = BitVec::from_bools([true, false, true]);
//! assert_eq!(a.mul_vec(&x), x);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod matrix;
mod rng;
mod rref;
mod solve;

pub use bitvec::BitVec;
pub use matrix::BitMatrix;
pub use rng::{Rng64, SplitMix64, Xoshiro256};
pub use solve::{solve_system, LinSolution, LinSolver, SolveError};
