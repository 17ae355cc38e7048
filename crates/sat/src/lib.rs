//! A from-scratch CDCL SAT solver.
//!
//! The paper runs the oracle-guided SAT attack with an off-the-shelf
//! solver (lingeling). This repository implements its own
//! conflict-driven clause-learning solver instead of depending on one —
//! the attack is solver-agnostic, and a self-contained solver keeps the
//! whole reproduction auditable (DESIGN.md §4).
//!
//! Feature set (MiniSat-class):
//!
//! * two-watched-literal propagation with blocker literals;
//! * first-UIP conflict analysis with reason-based clause minimization;
//! * VSIDS variable activities (exponential decay, indexed max-heap);
//! * phase saving;
//! * Luby-sequence restarts;
//! * learnt-clause database reduction by activity with arena compaction;
//! * incremental use: add clauses between `solve` calls, solve under
//!   assumptions;
//! * budgeted solving: per-call conflict / propagation / wall-clock
//!   limits ([`Budget`]) that return [`SolveResult::Unknown`] and leave
//!   the solver warm and resumable;
//! * native XOR constraints via an in-solver GF(2) engine — incremental
//!   Gauss–Jordan elimination plus watched-column propagation, with lazy
//!   row reasons that conflict analysis reads without allocating a
//!   clause ([`xor`]);
//! * DIMACS CNF reading/writing, including the CryptoMiniSat `x`-line
//!   XOR extension ([`dimacs`]).
//!
//! # Example
//!
//! ```
//! use satsolver::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::negative(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause;
pub mod dimacs;
mod heap;
pub mod proof;
mod solver;
mod types;
pub mod xor;

pub use budget::Budget;
pub use proof::{DratProof, ProofLogger, ProofStats};
pub use solver::{SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};
pub use xor::{Constraint, XorClause};
