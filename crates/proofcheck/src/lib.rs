//! Standalone checker for DRAT+xor proofs emitted by `satsolver`.
//!
//! A certifying solver run (see `satsolver::proof`) streams three step
//! kinds; this crate re-verifies them against the input formula with an
//! independent implementation — no solver code is trusted:
//!
//! * **Clause additions** are checked by RUP (reverse unit propagation):
//!   assume the negation of every literal, unit-propagate over the active
//!   clause set, and require a conflict. Propagation here is a separate
//!   two-watched-literal engine written for checking, not solving.
//! * **Xor-derived clauses** (`x` lines) are *not* RUP in general — that
//!   is the point of native GF(2) reasoning — so each one carries its
//!   derivation: the input xor constraints whose GF(2) sum, after
//!   substituting the listed (RUP-verified) unit literals, yields the row
//!   the clause was read off. The checker refolds that sum densely over
//!   [`gf2::BitVec`] and accepts the clause iff its variables are exactly
//!   the row's and its unique falsifying assignment violates the row's
//!   parity.
//! * **Deletions** deactivate the matching clause (by literal multiset).
//!   Because every activated clause was verified implied before use,
//!   ignoring an unmatched deletion is sound — deletions can only make
//!   the checker reject more, never accept more.
//!
//! The check is a forward pass: each addition is verified against the
//! clauses active *at that point*, and the run succeeds when a verified
//! empty clause closes the refutation. [`certify`] turns a formula and
//! a checked proof into a [`Certificate`]; `dynunlock`'s `certify` flag
//! calls it on the proof its live solver logged. [`certify_unsat`]
//! bundles the whole loop — fresh logged solver, proof extraction,
//! [`certify`] — for the fuzz tests and the certificate corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use gf2::BitVec;
use satsolver::dimacs::Cnf;
use satsolver::{Lit, SolveResult, Solver};

/// One parsed proof step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// Clause addition (empty = refutation), checked by RUP.
    Add(Vec<Lit>),
    /// Clause deletion (advisory; unmatched deletions are ignored).
    Delete(Vec<Lit>),
    /// Xor-derived clause with its GF(2) provenance.
    XorDerived {
        /// The derived clause (empty = refutation by inconsistent row).
        lits: Vec<Lit>,
        /// Indices of the input `x`-line constraints summed, 0-based in
        /// add order (the wire format is 1-based; `0` terminates).
        origins: Vec<u32>,
        /// Unit literals substituted into the sum; each is RUP-verified.
        units: Vec<Lit>,
    },
}

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// The proof text did not parse.
    Parse {
        /// 1-based proof line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A step failed verification.
    Step {
        /// 0-based index into the step list.
        index: usize,
        /// What went wrong.
        reason: String,
    },
    /// The proof ran out of steps without deriving the empty clause.
    NotRefutation,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Parse { line, msg } => write!(f, "proof line {line}: {msg}"),
            CheckError::Step { index, reason } => write!(f, "proof step {index}: {reason}"),
            CheckError::NotRefutation => {
                write!(f, "proof ends without deriving the empty clause")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Summary of a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Clause additions verified by RUP (including the empty clause if it
    /// closed the proof as a plain addition).
    pub rup_additions: u64,
    /// Xor-derived steps verified by GF(2) refolding.
    pub xor_steps: u64,
    /// Unit literals RUP-verified inside xor steps.
    pub xor_units_checked: u64,
    /// Deletions applied (matched an active clause).
    pub deletions_applied: u64,
    /// Deletions ignored (no matching active clause).
    pub deletions_ignored: u64,
}

impl CheckReport {
    /// Every checked step: additions, deletions (applied or ignored) and
    /// xor-derived clauses.
    pub fn steps(&self) -> u64 {
        self.rup_additions + self.deletions_applied + self.deletions_ignored + self.xor_steps
    }
}

/// Parses DRAT+xor proof text (the format `satsolver::proof::DratProof`
/// emits — see DESIGN.md §7).
///
/// # Errors
///
/// Returns [`CheckError::Parse`] on the first malformed line.
pub fn parse_proof(text: &str) -> Result<Vec<ProofStep>, CheckError> {
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let err = |msg: &str| CheckError::Parse {
            line: lineno + 1,
            msg: msg.to_string(),
        };
        if let Some(rest) = line.strip_prefix("d ") {
            let (lits, extra) = parse_lit_group(rest).ok_or_else(|| err("malformed deletion"))?;
            if !extra.trim().is_empty() {
                return Err(err("trailing tokens after deletion"));
            }
            steps.push(ProofStep::Delete(lits));
        } else if let Some(rest) = line.strip_prefix('x') {
            let (lits, rest) = parse_lit_group(rest).ok_or_else(|| err("malformed x-line lits"))?;
            let (origins, rest) =
                parse_u32_group(rest).ok_or_else(|| err("malformed x-line origins"))?;
            let (units, extra) =
                parse_lit_group(rest).ok_or_else(|| err("malformed x-line units"))?;
            if !extra.trim().is_empty() {
                return Err(err("trailing tokens after x-line"));
            }
            steps.push(ProofStep::XorDerived {
                lits,
                origins,
                units,
            });
        } else {
            let (lits, extra) = parse_lit_group(line).ok_or_else(|| err("malformed addition"))?;
            if !extra.trim().is_empty() {
                return Err(err("trailing tokens after addition"));
            }
            steps.push(ProofStep::Add(lits));
        }
    }
    Ok(steps)
}

/// Parses DIMACS-coded literals up to a `0` terminator; returns the
/// literals and the unconsumed remainder.
fn parse_lit_group(text: &str) -> Option<(Vec<Lit>, &str)> {
    let mut lits = Vec::new();
    let mut rest = text;
    loop {
        let trimmed = rest.trim_start();
        let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
        let (tok, tail) = trimmed.split_at(end);
        let code: i64 = tok.parse().ok()?;
        rest = tail;
        if code == 0 {
            return Some((lits, rest));
        }
        lits.push(Lit::try_from_dimacs(code)?);
    }
}

/// Parses the 1-based origin-id group up to its `0` terminator, returning
/// 0-based indices and the unconsumed remainder.
fn parse_u32_group(text: &str) -> Option<(Vec<u32>, &str)> {
    let mut ids = Vec::new();
    let mut rest = text;
    loop {
        let trimmed = rest.trim_start();
        let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
        let (tok, tail) = trimmed.split_at(end);
        let id: u32 = tok.parse().ok()?;
        rest = tail;
        match id.checked_sub(1) {
            None => return Some((ids, rest)),
            Some(zero_based) => ids.push(zero_based),
        }
    }
}

/// The checker's own unit-propagation engine: two watched literals over
/// an arena of (de)activatable clauses, with a persistent trail for
/// formula-level facts and a rollback mark for per-check assumptions.
#[derive(Debug, Default)]
struct Prop {
    /// Clause literals, reordered freely (slots 0/1 are the watch pair).
    clauses: Vec<Vec<Lit>>,
    active: Vec<bool>,
    /// `watches[l.index()]`: clauses watching literal `l` (visited when
    /// `l` becomes false). Stale entries are dropped lazily.
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment (`None` = unassigned).
    assigns: Vec<Option<bool>>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set once the active set is propagation-contradictory; every later
    /// check passes trivially (everything is implied).
    contradiction: bool,
    /// Active clauses by sorted-literal key, for deletion matching. Built
    /// from the arena when the first deletion arrives, so a proof without
    /// deletions never pays for it.
    by_key: Option<HashMap<Vec<Lit>, Vec<u32>>>,
}

impl Prop {
    fn new(num_vars: usize) -> Prop {
        Prop {
            assigns: vec![None; num_vars],
            watches: vec![Vec::new(); 2 * num_vars],
            ..Prop::default()
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var().index()].map(|b| b == l.is_positive())
    }

    fn enqueue(&mut self, l: Lit) {
        debug_assert!(self.value(l).is_none());
        self.assigns[l.var().index()] = Some(l.is_positive());
        self.trail.push(l);
    }

    /// Sorted-dedup key for deletion matching.
    fn key(lits: &[Lit]) -> Vec<Lit> {
        let mut k = lits.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Activates a clause: registers watches, enqueues persistent units,
    /// and propagates to a fixpoint. Any conflict flips `contradiction`.
    /// The clause is published to the arena *before* propagation runs —
    /// propagation may revisit it through its own watch entries.
    fn add_clause(&mut self, lits: &[Lit]) {
        let mut lits = Self::key(lits);
        let cid = self.clauses.len() as u32;
        if let Some(index) = self.by_key.as_mut() {
            index.entry(lits.clone()).or_default().push(cid);
        }
        // Prefer non-false literals in the watch slots so the watch
        // invariant (a false watched literal has been visited) holds
        // from the start.
        let mut slot = 0usize;
        for i in 0..lits.len() {
            if self.value(lits[i]) != Some(false) {
                lits.swap(slot, i);
                slot += 1;
                if slot == 2 {
                    break;
                }
            }
        }
        let first = lits.first().copied();
        let watch_pair = (lits.len() >= 2).then(|| (lits[0], lits[1]));
        self.clauses.push(lits);
        self.active.push(true);
        if let Some((w0, w1)) = watch_pair {
            self.watches[w0.index()].push(cid);
            self.watches[w1.index()].push(cid);
        }
        let Some(first) = first else {
            self.contradiction = true; // empty clause
            return;
        };
        match slot {
            0 => self.contradiction = true, // every literal already false
            1 => match self.value(first) {
                Some(true) => {}
                Some(false) => unreachable!("slot counted it non-false"),
                None => {
                    self.enqueue(first);
                    if self.propagate() {
                        self.contradiction = true;
                    }
                }
            },
            _ => {}
        }
    }

    /// Deactivates the most recently added active clause with the same
    /// literal set. Returns whether a clause matched.
    fn delete_clause(&mut self, lits: &[Lit]) -> bool {
        let (clauses, active) = (&self.clauses, &self.active);
        let index = self.by_key.get_or_insert_with(|| {
            let mut index: HashMap<Vec<Lit>, Vec<u32>> = HashMap::new();
            for (cid, clause) in clauses.iter().enumerate() {
                if active[cid] {
                    index.entry(Self::key(clause)).or_default().push(cid as u32);
                }
            }
            index
        });
        if let Some(stack) = index.get_mut(&Self::key(lits)) {
            while let Some(cid) = stack.pop() {
                if self.active[cid as usize] {
                    self.active[cid as usize] = false;
                    return true;
                }
            }
        }
        false
    }

    /// Unit-propagates from `qhead`; returns `true` on conflict. Watches
    /// moved during propagation stay valid across assumption rollback
    /// because rolled-back literals return to unassigned.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let fl = !p; // the literal that just became false
            let mut ws = std::mem::take(&mut self.watches[fl.index()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = false;
            'next: while i < ws.len() {
                let cid = ws[i] as usize;
                i += 1;
                if !self.active[cid] {
                    continue; // stale entry for a deleted clause
                }
                if self.clauses[cid][0] == fl {
                    self.clauses[cid].swap(0, 1);
                }
                let first = self.clauses[cid][0];
                if self.value(first) == Some(true) {
                    ws[j] = cid as u32;
                    j += 1;
                    continue;
                }
                for k in 2..self.clauses[cid].len() {
                    let l = self.clauses[cid][k];
                    if self.value(l) != Some(false) {
                        self.clauses[cid].swap(1, k);
                        self.watches[l.index()].push(cid as u32);
                        continue 'next;
                    }
                }
                ws[j] = cid as u32;
                j += 1;
                match self.value(first) {
                    Some(false) => {
                        conflict = true;
                        while i < ws.len() {
                            ws[j] = ws[i];
                            j += 1;
                            i += 1;
                        }
                    }
                    None => self.enqueue(first),
                    Some(true) => unreachable!("handled above"),
                }
            }
            ws.truncate(j);
            self.watches[fl.index()] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// RUP check: is `clause` implied by unit propagation over the active
    /// set? Temporary assumptions are rolled back before returning.
    fn is_rup(&mut self, clause: &[Lit]) -> bool {
        if self.contradiction {
            return true;
        }
        debug_assert_eq!(self.qhead, self.trail.len(), "persistent state at fixpoint");
        let saved = self.trail.len();
        let mut conflict = false;
        for &l in clause {
            match self.value(l) {
                Some(true) => {
                    conflict = true; // ¬l contradicts the current state
                    break;
                }
                Some(false) => {}
                None => self.enqueue(!l),
            }
        }
        let ok = conflict || self.propagate();
        for idx in saved..self.trail.len() {
            self.assigns[self.trail[idx].var().index()] = None;
        }
        self.trail.truncate(saved);
        self.qhead = saved;
        ok
    }
}

/// Checks a parsed proof against its input formula.
///
/// # Errors
///
/// Returns the first failing step ([`CheckError::Step`]) or
/// [`CheckError::NotRefutation`] if the proof never derives the empty
/// clause.
pub fn check(cnf: &Cnf, steps: &[ProofStep]) -> Result<CheckReport, CheckError> {
    let mut prop = Prop::new(cnf.num_vars);
    for c in &cnf.clauses {
        prop.add_clause(c);
    }
    // Input xor constraints, normalized to (sorted vars, parity) for the
    // dense refold. They are *not* clauses and never join propagation.
    let inputs: Vec<(Vec<satsolver::Var>, bool)> = cnf
        .xors
        .iter()
        .map(satsolver::XorClause::normalized)
        .collect();

    let mut report = CheckReport::default();
    for (index, step) in steps.iter().enumerate() {
        let fail = |reason: String| CheckError::Step { index, reason };
        // Reject out-of-range variables up front: a malformed proof must
        // fail the check, not panic the checker.
        let step_lits: &[Lit] = match step {
            ProofStep::Add(lits) | ProofStep::Delete(lits) => lits,
            ProofStep::XorDerived { lits, .. } => lits,
        };
        let unit_lits: &[Lit] = match step {
            ProofStep::XorDerived { units, .. } => units,
            _ => &[],
        };
        for l in step_lits.iter().chain(unit_lits) {
            if l.var().index() >= cnf.num_vars {
                return Err(fail(format!(
                    "variable {} out of range (formula has {})",
                    l.var(),
                    cnf.num_vars
                )));
            }
        }
        match step {
            ProofStep::Delete(lits) => {
                if prop.delete_clause(lits) {
                    report.deletions_applied += 1;
                } else {
                    report.deletions_ignored += 1;
                }
            }
            ProofStep::Add(lits) => {
                if !prop.is_rup(lits) {
                    return Err(fail(format!("clause {} is not RUP", dimacs(lits))));
                }
                report.rup_additions += 1;
                if lits.is_empty() {
                    return Ok(report);
                }
                prop.add_clause(lits);
            }
            ProofStep::XorDerived {
                lits,
                origins,
                units,
            } => {
                // Refold the claimed derivation densely over GF(2).
                let mut row = BitVec::zeros(cnf.num_vars);
                let mut rhs = false;
                for &id in origins {
                    let (vars, r) = inputs
                        .get(id as usize)
                        .ok_or_else(|| fail(format!("origin {id} out of range")))?;
                    for v in vars {
                        row.flip(v.index());
                    }
                    rhs ^= r;
                }
                for &u in units {
                    // Substituting `u` is xoring in the singleton
                    // constraint `var(u) = polarity(u)` — sound only if
                    // the unit itself is derivable.
                    if !prop.is_rup(&[u]) {
                        return Err(fail(format!(
                            "substituted unit {} is not RUP",
                            u.to_dimacs()
                        )));
                    }
                    report.xor_units_checked += 1;
                    row.flip(u.var().index());
                    rhs ^= u.is_positive();
                }
                if lits.is_empty() {
                    // Refutation by inconsistent row: 0 = 1.
                    if !row.is_zero() || !rhs {
                        return Err(fail("empty x-line does not refold to 0 = 1".to_string()));
                    }
                    report.xor_steps += 1;
                    return Ok(report);
                }
                // The clause must cover the row's variables exactly, and
                // its unique falsifying assignment must violate the row:
                // that assignment sets each variable to the negation of
                // its literal's polarity, so its parity is the negative-
                // literal count mod 2.
                let mut neg = 0usize;
                let mut seen = BitVec::zeros(cnf.num_vars);
                for l in lits {
                    let v = l.var().index();
                    if seen.get(v) {
                        return Err(fail(format!("duplicate variable in {}", dimacs(lits))));
                    }
                    seen.flip(v);
                    if !row.get(v) {
                        return Err(fail(format!(
                            "variable {} of {} not in the derived row",
                            l.var(),
                            dimacs(lits)
                        )));
                    }
                    neg += usize::from(!l.is_positive());
                }
                if lits.len() != row.count_ones() {
                    return Err(fail(format!(
                        "clause {} misses {} row variable(s)",
                        dimacs(lits),
                        row.count_ones() - lits.len()
                    )));
                }
                if (neg % 2 == 1) == rhs {
                    return Err(fail(format!(
                        "clause {} does not block the row's violating parity",
                        dimacs(lits)
                    )));
                }
                report.xor_steps += 1;
                prop.add_clause(lits);
            }
        }
    }
    Err(CheckError::NotRefutation)
}

/// Parses and checks proof text in one call.
///
/// # Errors
///
/// See [`parse_proof`] and [`check`].
pub fn check_text(cnf: &Cnf, proof: &str) -> Result<CheckReport, CheckError> {
    let steps = parse_proof(proof)?;
    check(cnf, &steps)
}

fn dimacs(lits: &[Lit]) -> String {
    let codes: Vec<String> = lits.iter().map(|l| l.to_dimacs().to_string()).collect();
    format!("[{}]", codes.join(" "))
}

/// A checked UNSAT certificate: the formula, the proof text, and the
/// checker's report. Carrying the formula makes the certificate
/// self-contained — it can be re-checked (or deliberately corrupted, in
/// mutation tests) without reconstructing the instance, and dumped as a
/// `.cnf`/`.drat` pair for the standalone `drat-check`.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The formula the proof refutes.
    pub formula: Cnf,
    /// The DRAT+xor proof text.
    pub proof: String,
    /// The checked steps, counted by kind (see [`certify`]).
    pub stats: CheckReport,
}

/// Checks `proof` against `formula` and bundles both into a
/// [`Certificate`] — the one way a certificate is made, whether the proof
/// comes from a fresh solve ([`certify_unsat`]) or from a solver that
/// logged it live. The certificate's `stats` count the steps the checker
/// verified, so they cover every step of the text up to the closing
/// empty clause.
///
/// # Errors
///
/// The [`CheckError`] of the first malformed line or failing step, or
/// [`CheckError::NotRefutation`].
pub fn certify(formula: Cnf, proof: String) -> Result<Certificate, CheckError> {
    let stats = check_text(&formula, &proof)?;
    Ok(Certificate {
        formula,
        proof,
        stats,
    })
}

/// Why [`certify_unsat`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertifyError {
    /// The formula is satisfiable — there is nothing to certify.
    Sat,
    /// The emitted proof did not verify (a solver soundness bug).
    Check(CheckError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Sat => write!(f, "formula is satisfiable; no UNSAT certificate"),
            CertifyError::Check(e) => write!(f, "emitted proof failed verification: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Solves `cnf` with proof logging on and verifies the emitted proof
/// through [`certify`], returning the checked certificate.
///
/// The solver is built fresh with proof logging on **before** any
/// constraint is added, so add-time xor eliminations are captured too.
///
/// # Errors
///
/// [`CertifyError::Sat`] if the formula is satisfiable;
/// [`CertifyError::Check`] if the proof does not verify (which would mean
/// a solver soundness bug).
pub fn certify_unsat(cnf: &Cnf) -> Result<Certificate, CertifyError> {
    let mut solver = Solver::new();
    solver.enable_proof();
    for _ in 0..cnf.num_vars {
        solver.new_var();
    }
    // Mirror `Cnf::to_solver` add order: clauses then xors, so origin ids
    // in the proof index `cnf.xors` directly.
    let mut unsat = false;
    for c in &cnf.clauses {
        unsat |= !solver.add_clause(c);
    }
    for x in &cnf.xors {
        unsat |= !solver.add_xor(&x.lits, x.rhs);
    }
    if !unsat && solver.solve() == SolveResult::Sat {
        return Err(CertifyError::Sat);
    }
    let proof = solver.proof().expect("proof logging enabled above").text();
    certify(cnf.clone(), proof.to_string()).map_err(CertifyError::Check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[i64]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_dimacs(c)).collect()
    }

    /// Pigeonhole formula: `holes + 1` pigeons into `holes` holes (UNSAT).
    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let mut cnf = Cnf::new(pigeons * holes);
        let var = |p: usize, h: usize| Lit::from_dimacs((p * holes + h + 1) as i64);
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(vec![!var(p1, h), !var(p2, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn parse_the_three_step_kinds() {
        let steps = parse_proof("1 -2 0\nd 1 -2 0\nx 3 -4 0 1 2 0 -5 0\n0\n").unwrap();
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0], ProofStep::Add(lits(&[1, -2])));
        assert_eq!(steps[1], ProofStep::Delete(lits(&[1, -2])));
        assert_eq!(
            steps[2],
            ProofStep::XorDerived {
                lits: lits(&[3, -4]),
                origins: vec![0, 1],
                units: lits(&[-5]),
            }
        );
        assert_eq!(steps[3], ProofStep::Add(Vec::new()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_proof("1 banana 0\n"),
            Err(CheckError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_proof("1 2\n"),
            Err(CheckError::Parse { .. })
        ));
        for oversized in [
            "99999999999 0\n",
            "d -99999999999 0\n",
            "x 99999999999 0 0 0\n",
        ] {
            assert!(
                matches!(
                    parse_proof(oversized),
                    Err(CheckError::Parse { line: 1, .. })
                ),
                "{oversized:?} must be rejected"
            );
        }
    }

    #[test]
    fn hand_written_rup_refutation_checks() {
        // (a ∨ b)(¬a ∨ b)(a ∨ ¬b)(¬a ∨ ¬b) with the classic two-step proof.
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        let report = check_text(&cnf, "2 0\n0\n").unwrap();
        assert_eq!(report.rup_additions, 2);
    }

    #[test]
    fn non_rup_step_is_rejected() {
        let cnf = Cnf::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let err = check_text(&cnf, "1 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");
    }

    #[test]
    fn missing_empty_clause_is_not_a_refutation() {
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        assert_eq!(check_text(&cnf, "2 0\n"), Err(CheckError::NotRefutation));
    }

    #[test]
    fn deletion_is_tracked_and_weakens_the_set() {
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        // A deletion keyed by a duplicated literal list still matches
        // [1 2]; without that clause the unit 2 is no longer RUP.
        let err = check_text(&cnf, "d 1 1 2 2 0\n2 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 1, .. }), "{err}");
        // Deleting a clause not in the set is ignored, not an error.
        let report = check_text(&cnf, "d 2 0\n2 0\n0\n").unwrap();
        assert_eq!(report.deletions_ignored, 1);
        assert_eq!(report.deletions_applied, 0);
    }

    #[test]
    fn deletion_index_built_late_still_sees_later_lemmas() {
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        // The first deletion builds the index; the lemma added after it
        // must still be found by the second.
        let report = check_text(&cnf, "d 2 0\n2 0\nd 2 0\n0\n").unwrap();
        assert_eq!(report.deletions_ignored, 1);
        assert_eq!(report.deletions_applied, 1);
    }

    #[test]
    fn certify_counts_every_checked_step_of_a_carried_proof() {
        // Every checked step counts, deletions included: the unit 2, the
        // deletion of a clause it subsumes, and the refutation.
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        let cert = certify(cnf.clone(), "2 0\nd 1 2 0\n0\n".to_string()).unwrap();
        assert_eq!(cert.stats.steps(), 3);
        assert_eq!(cert.stats.rup_additions, 2);
        assert_eq!(cert.stats.deletions_applied, 1);
        assert_eq!(cert.formula.clauses, cnf.clauses);
        let sat = Cnf::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let err = certify(sat, "1 0\n0\n".to_string()).unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");
    }

    #[test]
    fn certify_pigeonhole() {
        let cnf = pigeonhole(4);
        let cert = certify_unsat(&cnf).unwrap();
        assert!(cert.stats.rup_additions > 0);
    }

    #[test]
    fn certify_xor_instances() {
        // Inconsistent at add time: the triangle refutes by elimination.
        let cnf = Cnf::parse("p cnf 3 3\nx1 2 0\nx2 3 0\nx1 3 0\n").unwrap();
        let cert = certify_unsat(&cnf).unwrap();
        assert!(cert.stats.xor_steps > 0, "refuted by an x-step");

        // Unit substitution: the clause units 9 and 10 are folded into
        // the wide rows before they cancel into 0 = 1.
        let mut text = String::from("p cnf 10 4\nx1 2 3 4 5 6 7 8 9 0\nx");
        text.push_str("1 2 3 4 5 6 7 8 -10 0\n9 0\n10 0\n");
        let cnf = Cnf::parse(&text).unwrap();
        let cert = certify_unsat(&cnf).unwrap();
        assert!(cert.stats.xor_steps > 0);
        assert!(cert.stats.xor_units_checked > 0);

        // Needs search: the xor bank sums to 2⊕4⊕6 = 1 (odd count true)
        // while the clauses force exactly two of {2, 4, 6} true.
        let cnf = Cnf::parse(
            "p cnf 6 7\nx1 2 3 0\nx3 4 5 0\nx5 6 1 0\n2 4 0\n2 6 0\n4 6 0\n-2 -4 -6 0\n",
        )
        .unwrap();
        let cert = certify_unsat(&cnf).unwrap();
        assert!(cert.stats.xor_steps > 0, "search must lean on the rows");
    }

    #[test]
    fn certify_rejects_sat_formula() {
        let cnf = Cnf::parse("p cnf 2 1\n1 2 0\n").unwrap();
        assert_eq!(certify_unsat(&cnf).unwrap_err(), CertifyError::Sat);
    }

    #[test]
    fn mutated_proof_is_rejected() {
        let cnf = pigeonhole(4);
        let cert = certify_unsat(&cnf).unwrap();
        // Replace the first line with the unit clause [1], which is not
        // RUP against the pigeonhole formula (no propagation fires from
        // assuming -1). The original first line cannot be "1 0": had it
        // been, the unmutated check would have rejected it.
        let (_, rest) = cert.proof.split_once('\n').unwrap();
        let mutated = format!("1 0\n{rest}");
        let err = check_text(&cnf, &mutated).unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");
    }

    #[test]
    fn mutated_xor_parity_is_rejected() {
        let cnf = Cnf::parse("p cnf 3 3\nx1 2 0\nx2 3 0\nx1 3 0\n").unwrap();
        let cert = certify_unsat(&cnf).unwrap();
        // The refutation is a single empty x-line summing all three
        // inputs. Dropping one origin breaks the refold to 0 = 1.
        assert!(cert.proof.contains("1 2 3 0"), "{}", cert.proof);
        let mutated = cert.proof.replacen("1 2 3 0", "1 2 0", 1);
        let err = check_text(&cnf, &mutated).unwrap_err();
        assert!(matches!(err, CheckError::Step { .. }), "{err}");
        // Truncating the closing step must also be rejected.
        let last_line_start = cert.proof.trim_end().rfind('\n').map_or(0, |i| i + 1);
        let truncated = &cert.proof[..last_line_start];
        assert!(check_text(&cnf, truncated).is_err());
    }
}
