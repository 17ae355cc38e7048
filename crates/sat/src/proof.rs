//! Proof logging: DRAT with an `x` extension for xor-derived clauses and
//! LRAT-style antecedent hints on clause additions.
//!
//! A certifying run writes every inference the solver makes to a
//! [`DratProof`]; together with the input formula the resulting log is a
//! machine-checkable certificate (checked by the `proofcheck` crate's
//! `drat-check`). Three step kinds are emitted:
//!
//! * **Clause addition** — a learnt clause (or the empty clause on
//!   refutation): `<lits> 0 <hints> 0`, or `<lits> 0` with no hints.
//!   Checkable by RUP: assuming the negation of every literal and
//!   unit-propagating over the active clause set must yield a conflict.
//!   The hints name the clauses that propagation needs, in the order the
//!   solver's trail used them and the conflict last, so the checker can
//!   walk them instead of propagating over everything. Literals false at
//!   level 0 need no hint: the checker holds them on its own trail.
//! * **Clause deletion** — `d <id> 0`: the id of a clause the solver's
//!   learnt-DB reduction dropped, numbered as hints are (below). Deletions
//!   keep the checker's propagation state small.
//! * **Xor-derived clause** — `x <lits> 0 <origin ids> 0 <unit lits> 0`.
//!   Clauses read off the GF(2) engine's rows are *not* RUP in general
//!   (that is the whole point of native xor reasoning), so each one is
//!   logged with its derivation. The solver logs one when conflict
//!   analysis cites a row reason or a conflicting row, and on every
//!   level-0 xor implication; an implication analysis never cites is
//!   never logged. Each line carries the set of input xor constraints
//!   whose GF(2) sum, after substituting the listed top-level unit
//!   literals, yields the row the clause was read off. Origin ids are
//!   **1-based** on the wire (`0` is the group terminator): id `k` is the
//!   formula's `k`-th `x`-line in add order. The checker re-runs the
//!   elimination and verifies the clause against the reconstructed row —
//!   no RUP involved. See DESIGN.md §7 for the exact soundness argument.
//!
//! **The log owns the certified formula and every id.** A certifying
//! solver hands each input constraint to the log verbatim, before any
//! simplification: [`DratProof::input_clause`] records the `k`-th input
//! clause and returns its id `-k`; [`DratProof::input_xor`] records the
//! `k`-th input xor constraint and returns its origin id `k - 1` (0-based
//! in memory, written 1-based). [`DratProof::formula`] is therefore the
//! formula the proof refutes, and [`DratProof::into_parts`] hands a
//! certifier the formula and the text together. The `n`-th addition
//! line, plain or `x`, is step `n`. Each distinct xor-derived clause is
//! written once: a repeat with the same literal set, in any order,
//! returns the first line's id and writes nothing — the log's literal-set
//! map is the only cache of `x`-line ids. A deletion names its clause by
//! id, so dropping a learnt clause with an `x` line's literal set leaves
//! that line, and its id in the map, live.
//!
//! The solver holds the log as an `Option<DratProof>`
//! ([`crate::Solver::enable_proof`], the one switch of a certifying run,
//! turned on before the first constraint; read back with
//! [`crate::Solver::proof`], moved out with
//! [`crate::Solver::take_proof`]): when logging is off every call site
//! is a single branch on a `None`, so proof support costs nothing unless
//! switched on.
//!
//! The log keeps its inputs, its text and the ids it hands out: a
//! certificate's step counts are the checker's
//! (`proofcheck::CheckReport::steps`), taken over the steps it verified.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::dimacs::Cnf;
use crate::types::Lit;

/// A multiply-rotate hasher (FxHash's mix) for the literal sets the log
/// dedups. The keys are the solver's own clauses, not input from outside
/// the program, so the default hasher's resistance to crafted collisions
/// buys nothing, while its per-word cost is paid on every cited row.
#[derive(Debug, Default)]
struct LitSetHasher(u64);

impl LitSetHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for LitSetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The in-memory DRAT+xor proof log.
///
/// Records the input formula and accumulates the textual proof, one step
/// per line. The solver hands it every input constraint and calls the
/// step methods on every learnt clause, deletion, and xor reason analysis
/// cites. The text format is the certificate interchange format checked
/// by `proofcheck` (DESIGN.md §7).
#[derive(Debug, Default)]
pub struct DratProof {
    /// The inputs, verbatim and in add order: the formula the proof
    /// refutes. Clause `k` (1-based) has id `-k`; xor `k` has origin id
    /// `k - 1`.
    formula: Cnf,
    text: String,
    /// Set once an empty-clause addition has been logged; later steps are
    /// suppressed (the refutation is complete, and the solver's fast
    /// top-level unsat paths may otherwise log twice).
    closed: bool,
    /// Addition lines written so far (the last one's id).
    steps: i64,
    /// The id of each xor-derived clause written, by sorted literal set.
    xor_ids: HashMap<Vec<Lit>, i64, BuildHasherDefault<LitSetHasher>>,
    /// Scratch for the sorted literal set of a lookup.
    key: Vec<Lit>,
}

impl DratProof {
    /// An empty proof over a formula of `num_vars` variables (grown to
    /// cover every recorded input).
    pub fn new(num_vars: usize) -> DratProof {
        DratProof {
            formula: Cnf::new(num_vars),
            ..DratProof::default()
        }
    }

    /// The inputs recorded so far: the formula the proof refutes.
    pub fn formula(&self) -> &Cnf {
        &self.formula
    }

    /// The proof text so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The recorded formula and the proof text, moved out of the log.
    pub fn into_parts(self) -> (Cnf, String) {
        (self.formula, self.text)
    }

    /// Whether an empty-clause addition has been logged (the proof is a
    /// complete refutation).
    pub fn is_refutation(&self) -> bool {
        self.closed
    }

    /// Records an input clause verbatim: the `k`-th call returns `-k`,
    /// the id hints use for the formula's `k`-th clause.
    pub fn input_clause(&mut self, lits: &[Lit]) -> i64 {
        self.formula.add_clause(lits);
        -(self.formula.clauses.len() as i64)
    }

    /// Records an input xor constraint `⊕ lits = rhs` verbatim and
    /// returns its origin id: `k - 1` for the `k`-th call. The trivially
    /// true `⊕ ∅ = 0` has no spelling in the formula; do not record it.
    pub fn input_xor(&mut self, lits: &[Lit], rhs: bool) -> u32 {
        debug_assert!(!lits.is_empty() || rhs, "⊕ ∅ = 0 is not an input");
        self.formula.add_xor(lits, rhs);
        self.formula.xors.len() as u32 - 1
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

    /// Ends an addition line and returns its step id.
    fn end_addition(&mut self, lits: &[Lit]) -> i64 {
        self.text.push('\n');
        if lits.is_empty() {
            self.closed = true;
        }
        self.steps += 1;
        self.steps
    }

    /// A clause addition step (learnt clause, derived unit, or the empty
    /// clause closing a refutation) with its antecedent `hints` (clause
    /// ids, in propagation order with the conflict last; may be empty).
    /// Returns the step's id, or `0` once the proof is closed.
    pub fn add_clause(&mut self, lits: &[Lit], hints: &[i64]) -> i64 {
        if self.closed {
            return 0;
        }
        self.push_lits(lits);
        if !hints.is_empty() {
            for &id in hints {
                self.text.push(' ');
                self.push_int(id);
            }
            self.text.push_str(" 0");
        }
        self.end_addition(lits)
    }

    /// A clause deletion step naming the clause by its id (`-k` for input
    /// clause `k`, `n` for the `n`-th addition line).
    pub fn delete_clause(&mut self, id: i64) {
        if self.closed {
            return;
        }
        self.text.push_str("d ");
        self.push_int(id);
        self.text.push_str(" 0\n");
    }

    /// An xor-derived clause: `lits` is implied by the GF(2) sum of the
    /// input xor constraints `origins` (0-based indices in add order;
    /// rendered 1-based on the wire) after substituting the top-level
    /// unit literals `units`. Returns the clause's id: a new step, or the
    /// step that already wrote the same literal set. `0` once the proof
    /// is closed.
    pub fn add_xor_derived(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]) -> i64 {
        if self.closed {
            return 0;
        }
        self.key.clear();
        self.key.extend_from_slice(lits);
        self.key.sort_unstable();
        if let Some(&id) = self.xor_ids.get(self.key.as_slice()) {
            return id;
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
        let id = self.end_addition(lits);
        if !lits.is_empty() {
            self.xor_ids.insert(self.key.clone(), id);
        }
        id
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
        let mut p = DratProof::new(3);
        // Inputs are recorded verbatim and numbered by kind, interleaved
        // or not: clauses `-k`, xors 0-based origin ids.
        assert_eq!(p.input_clause(&lits(&[1, 1, -2])), -1);
        assert_eq!(p.input_xor(&lits(&[-3, 4]), true), 0);
        assert_eq!(p.input_clause(&lits(&[5])), -2);
        assert_eq!(p.input_xor(&[], true), 1);
        assert_eq!(p.input_xor(&lits(&[2, 3]), false), 2);
        let f = p.formula();
        assert_eq!(f.num_vars, 5, "grown to cover the inputs");
        assert_eq!(f.clauses, vec![lits(&[1, 1, -2]), lits(&[5])]);
        let xors: Vec<_> = f.xors.iter().map(|x| (x.lits.clone(), x.rhs)).collect();
        assert_eq!(
            xors,
            vec![
                (lits(&[-3, 4]), true),
                (vec![], true),
                (lits(&[2, 3]), false)
            ]
        );
        assert_eq!(p.text(), "", "inputs write no proof line");
        assert_eq!(p.add_clause(&lits(&[1, -2]), &[]), 1);
        p.delete_clause(1);
        assert_eq!(p.add_xor_derived(&lits(&[3, -4]), &[0, 2], &lits(&[-5])), 2);
        p.delete_clause(-1);
        assert_eq!(p.add_clause(&lits(&[-3]), &[-2, 2]), 3);
        assert_eq!(p.add_clause(&[], &[3, -2]), 4);
        assert_eq!(
            p.text(),
            "1 -2 0\nd 1 0\nx 3 -4 0 1 3 0 -5 0\nd -1 0\n-3 0 -2 2 0\n0 3 -2 0\n"
        );
        assert!(p.is_refutation());
        // Inputs after the refutation still belong to the formula.
        assert_eq!(p.input_clause(&lits(&[2])), -3);
        let (formula, text) = p.into_parts();
        assert_eq!(formula.clauses.len(), 3);
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn wide_literals_and_origin_ids_print_every_digit() {
        let mut p = DratProof::new(0);
        p.add_xor_derived(&lits(&[-1_000_000_007]), &[4_294_967_294], &[]);
        assert_eq!(p.text(), "x -1000000007 0 4294967295 0 0\n");
    }

    #[test]
    fn steps_after_refutation_are_suppressed() {
        let mut p = DratProof::new(0);
        assert_eq!(p.add_clause(&[], &[]), 1);
        assert_eq!(p.add_clause(&lits(&[1]), &[1]), 0);
        p.delete_clause(1);
        assert_eq!(p.add_xor_derived(&lits(&[2]), &[0], &[]), 0);
        assert_eq!(p.text(), "0\n");
    }

    #[test]
    fn repeated_xor_clause_returns_the_first_id_and_writes_nothing() {
        let mut p = DratProof::new(0);
        assert_eq!(p.add_xor_derived(&lits(&[1, -2, 3]), &[0], &[]), 1);
        assert_eq!(p.add_clause(&lits(&[4]), &[1]), 2);
        let written = p.text().len();
        // The same literal set in another order, from another derivation.
        assert_eq!(
            p.add_xor_derived(&lits(&[3, 1, -2]), &[1, 2], &lits(&[5])),
            1
        );
        assert_eq!(p.add_xor_derived(&lits(&[-2, 3, 1]), &[0], &[]), 1);
        assert_eq!(p.text().len(), written, "a repeat writes nothing");
        // Another literal set is a new clause.
        assert_eq!(p.add_xor_derived(&lits(&[1, 2, 3]), &[0], &[]), 3);
        // Deletions name their clauses by id and leave the map as it is.
        p.delete_clause(2);
        p.delete_clause(-1);
        let written = p.text().len();
        assert_eq!(p.add_xor_derived(&lits(&[-2, 1, 3]), &[0], &[]), 1);
        assert_eq!(p.text().len(), written, "a repeat writes nothing");
        assert!(p.text().ends_with("d 2 0\nd -1 0\n"));
    }
}
