//! Proof logging: DRAT with an `x` extension for xor-derived clauses.
//!
//! A certifying run streams every inference the solver makes to a
//! [`ProofLogger`]; together with the input formula the resulting log is a
//! machine-checkable certificate (checked by the `proofcheck` crate's
//! `drat-check`). Three step kinds are emitted:
//!
//! * **Clause addition** — a learnt clause (or the empty clause on
//!   refutation), one DIMACS-coded line terminated by `0`. Checkable by
//!   RUP: assuming the negation of every literal and unit-propagating over
//!   the active clause set must yield a conflict.
//! * **Clause deletion** — `d` followed by the clause. Deletions keep the
//!   checker's propagation state small and mirror the solver's learnt-DB
//!   reduction exactly.
//! * **Xor-derived clause** — `x <lits> 0 <origin ids> 0 <unit lits> 0`.
//!   Clauses read off the GF(2) engine's rows are *not* RUP in general
//!   (that is the whole point of native xor reasoning), so each one is
//!   logged with its derivation. The solver logs one when conflict
//!   analysis first reads a row reason during an assignment, on every
//!   conflicting row, and on every level-0 xor implication; an
//!   implication analysis never reads is never logged. Each line carries
//!   the set of input xor constraints whose GF(2) sum, after substituting
//!   the listed top-level unit literals, yields the row the clause was
//!   read off. Origin ids are **1-based** on the wire (`0` is the group
//!   terminator): id `k` is the formula's `k`-th `x`-line in add order.
//!   The checker re-runs the elimination densely and verifies the clause
//!   against the reconstructed row — no RUP involved. See DESIGN.md §7
//!   for the exact soundness argument.
//!
//! The logger is held behind `Option<Box<dyn ProofLogger>>` in the solver:
//! when no logger is installed every call site is a single branch on a
//! `None` — proof support costs nothing unless switched on.

use std::sync::{Arc, Mutex};

use crate::types::Lit;

/// Sink for proof steps emitted by a certifying [`crate::Solver`] run.
///
/// Implementations must be cheap: the solver calls these on every learnt
/// clause, deletion, and xor reason analysis reads. [`DratProof`] is the
/// standard in-memory implementation; install a shared handle with
/// [`crate::Solver::set_proof_logger`] (an `Arc<Mutex<DratProof>>`
/// implements the trait) and read the accumulated text back after the
/// solve.
pub trait ProofLogger: std::fmt::Debug + Send {
    /// A clause addition step (learnt clause, derived unit, or the empty
    /// clause closing a refutation).
    fn add_clause(&mut self, lits: &[Lit]);

    /// A clause deletion step.
    fn delete_clause(&mut self, lits: &[Lit]);

    /// An xor-derived clause: `lits` is implied by the GF(2) sum of the
    /// input xor constraints `origins` (0-based indices in add order;
    /// rendered 1-based on the wire) after substituting the top-level
    /// unit literals `units`.
    fn add_xor_derived(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]);
}

/// Counters over the steps a [`DratProof`] holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Clause addition steps (including the final empty clause).
    pub additions: u64,
    /// Clause deletion steps.
    pub deletions: u64,
    /// Xor-derived clause steps.
    pub xor_steps: u64,
}

impl ProofStats {
    /// Total step count.
    pub fn steps(&self) -> u64 {
        self.additions + self.deletions + self.xor_steps
    }
}

/// The in-memory DRAT+xor proof log.
///
/// Accumulates the textual proof (one step per line) plus step counters.
/// The text format is the certificate interchange format checked by
/// `proofcheck` (DESIGN.md §7).
#[derive(Debug, Default)]
pub struct DratProof {
    text: String,
    stats: ProofStats,
    /// Set once an empty-clause addition has been logged; later steps are
    /// suppressed (the refutation is complete, and the solver's fast
    /// top-level unsat paths may otherwise log twice).
    closed: bool,
}

impl DratProof {
    /// An empty proof.
    pub fn new() -> DratProof {
        DratProof::default()
    }

    /// A fresh shared handle, ready for [`crate::Solver::set_proof_logger`]
    /// (clone the `Arc`, box one clone for the solver, keep the other).
    pub fn shared() -> Arc<Mutex<DratProof>> {
        Arc::new(Mutex::new(DratProof::new()))
    }

    /// The proof text so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Step counters.
    pub fn stats(&self) -> &ProofStats {
        &self.stats
    }

    /// Whether an empty-clause addition has been logged (the proof is a
    /// complete refutation).
    pub fn is_refutation(&self) -> bool {
        self.closed
    }

    fn push_lits(&mut self, lits: &[Lit]) {
        for l in lits {
            self.text.push_str(itoa(l.to_dimacs()).as_str());
            self.text.push(' ');
        }
        self.text.push('0');
    }
}

/// Minimal integer formatting without the `format!` machinery (this is the
/// hot path of a certifying run).
fn itoa(v: i64) -> String {
    v.to_string()
}

impl ProofLogger for DratProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        if self.closed {
            return;
        }
        self.stats.additions += 1;
        self.push_lits(lits);
        self.text.push('\n');
        if lits.is_empty() {
            self.closed = true;
        }
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        if self.closed {
            return;
        }
        self.stats.deletions += 1;
        self.text.push_str("d ");
        self.push_lits(lits);
        self.text.push('\n');
    }

    fn add_xor_derived(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]) {
        if self.closed {
            return;
        }
        self.stats.xor_steps += 1;
        self.text.push_str("x ");
        self.push_lits(lits);
        self.text.push(' ');
        for id in origins {
            // 1-based on the wire: 0 terminates the group.
            self.text.push_str(itoa(i64::from(*id) + 1).as_str());
            self.text.push(' ');
        }
        self.text.push_str("0 ");
        self.push_lits(units);
        self.text.push('\n');
        if lits.is_empty() {
            self.closed = true;
        }
    }
}

/// Forwarding implementation so a shared handle can be installed in the
/// solver while the caller keeps the other clone to read the proof back.
impl ProofLogger for Arc<Mutex<DratProof>> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.lock().expect("proof mutex").add_clause(lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.lock().expect("proof mutex").delete_clause(lits);
    }

    fn add_xor_derived(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]) {
        self.lock()
            .expect("proof mutex")
            .add_xor_derived(lits, origins, units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[i64]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_dimacs(c)).collect()
    }

    #[test]
    fn text_format_round_trips_by_eye() {
        let mut p = DratProof::new();
        p.add_clause(&lits(&[1, -2]));
        p.delete_clause(&lits(&[1, -2]));
        p.add_xor_derived(&lits(&[3, -4]), &[0, 2], &lits(&[-5]));
        p.add_clause(&[]);
        assert_eq!(p.text(), "1 -2 0\nd 1 -2 0\nx 3 -4 0 1 3 0 -5 0\n0\n");
        assert_eq!(p.stats().additions, 2);
        assert_eq!(p.stats().deletions, 1);
        assert_eq!(p.stats().xor_steps, 1);
        assert_eq!(p.stats().steps(), 4);
        assert!(p.is_refutation());
    }

    #[test]
    fn steps_after_refutation_are_suppressed() {
        let mut p = DratProof::new();
        p.add_clause(&[]);
        p.add_clause(&lits(&[1]));
        p.delete_clause(&lits(&[1]));
        assert_eq!(p.stats().steps(), 1);
        assert_eq!(p.text(), "0\n");
    }

    #[test]
    fn shared_handle_forwards() {
        let shared = DratProof::shared();
        let mut handle: Box<dyn ProofLogger> = Box::new(shared.clone());
        handle.add_clause(&lits(&[7]));
        assert_eq!(shared.lock().unwrap().stats().additions, 1);
    }
}
