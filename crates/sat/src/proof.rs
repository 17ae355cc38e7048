//! Proof logging: DRAT with an `x` extension for xor-derived clauses.
//!
//! A certifying run writes every inference the solver makes to a
//! [`DratProof`]; together with the input formula the resulting log is a
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
//! The solver holds the log as an `Option<DratProof>`
//! ([`crate::Solver::enable_proof`]; read back with
//! [`crate::Solver::proof`]): when logging is off every
//! call site is a single branch on a `None`, so proof support costs
//! nothing unless switched on.
//!
//! The log keeps only its text: a certificate's step counts are the
//! checker's (`proofcheck::CheckReport::steps`), taken over the steps it
//! verified.

use crate::types::Lit;

/// The in-memory DRAT+xor proof log.
///
/// Accumulates the textual proof, one step per line. The solver calls
/// the step methods on every learnt clause, deletion, and xor reason
/// analysis reads. The text format is the certificate interchange format
/// checked by `proofcheck` (DESIGN.md §7).
#[derive(Debug, Default)]
pub struct DratProof {
    text: String,
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

    /// The proof text so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Whether an empty-clause addition has been logged (the proof is a
    /// complete refutation).
    pub fn is_refutation(&self) -> bool {
        self.closed
    }

    /// Appends the decimal digits of `v`, with no intermediate string.
    /// By hand: `write!` through `fmt::Write` takes about twice as long
    /// per number, and logging runs inside every step of a certified run.
    fn push_int(&mut self, v: i64) {
        if v < 0 {
            self.text.push('-');
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = v.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        for &d in &digits[at..] {
            self.text.push(char::from(d));
        }
    }

    fn push_lits(&mut self, lits: &[Lit]) {
        for l in lits {
            self.push_int(l.to_dimacs());
            self.text.push(' ');
        }
        self.text.push('0');
    }

    /// A clause addition step (learnt clause, derived unit, or the empty
    /// clause closing a refutation).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.closed {
            return;
        }
        self.push_lits(lits);
        self.text.push('\n');
        if lits.is_empty() {
            self.closed = true;
        }
    }

    /// A clause deletion step.
    pub fn delete_clause(&mut self, lits: &[Lit]) {
        if self.closed {
            return;
        }
        self.text.push_str("d ");
        self.push_lits(lits);
        self.text.push('\n');
    }

    /// An xor-derived clause: `lits` is implied by the GF(2) sum of the
    /// input xor constraints `origins` (0-based indices in add order;
    /// rendered 1-based on the wire) after substituting the top-level
    /// unit literals `units`.
    pub fn add_xor_derived(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]) {
        if self.closed {
            return;
        }
        self.text.push_str("x ");
        self.push_lits(lits);
        self.text.push(' ');
        for id in origins {
            // 1-based on the wire: 0 terminates the group.
            self.push_int(i64::from(*id) + 1);
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
        assert!(p.is_refutation());
    }

    #[test]
    fn wide_literals_and_origin_ids_print_every_digit() {
        let mut p = DratProof::new();
        p.add_xor_derived(&lits(&[-1_000_000_007]), &[4_294_967_294], &[]);
        assert_eq!(p.text(), "x -1000000007 0 4294967295 0 0\n");
    }

    #[test]
    fn steps_after_refutation_are_suppressed() {
        let mut p = DratProof::new();
        p.add_clause(&[]);
        p.add_clause(&lits(&[1]));
        p.delete_clause(&lits(&[1]));
        assert_eq!(p.text(), "0\n");
    }
}
