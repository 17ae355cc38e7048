//! Standalone checker for DRAT+xor proofs emitted by `satsolver`.
//!
//! A certifying solver run (see `satsolver::proof`) writes three step
//! kinds; this crate re-verifies them against the input formula with an
//! independent implementation — no solver code is trusted:
//!
//! * **Clause additions** are checked by RUP (reverse unit propagation):
//!   assume the negation of every literal and require a conflict by unit
//!   steps over the active clause set. An addition may carry hints (the
//!   ids of the clauses its derivation used, in propagation order): the
//!   checker walks them first, assigning the literal of each hint that is
//!   unit and stopping at the first that is falsified. A hint that is
//!   neither is skipped, and a walk that ends without a conflict falls
//!   back to full propagation over every active clause — a separate
//!   two-watched-literal engine written for checking, not solving — so
//!   hints only make the check faster: they are never a premise.
//! * **Xor-derived clauses** (`x` lines) are *not* RUP in general — that
//!   is the point of native GF(2) reasoning — so each one carries its
//!   derivation: the input xor constraints whose GF(2) sum, after
//!   substituting the listed (RUP-verified) unit literals, yields the row
//!   the clause was read off. The checker refolds that sum sparsely, over
//!   the variables the named constraints hold, and accepts the clause iff
//!   its variables are exactly the row's and its unique falsifying
//!   assignment violates the row's parity.
//! * **Deletions** (`d <id>* 0`) deactivate the clauses their ids name,
//!   numbered as hints are: `-k` is the formula's `k`-th clause, `n` the
//!   `n`-th addition line. An id that names no earlier clause is an
//!   error. Deletions can only make the checker reject more, never accept
//!   more.
//!
//! The check is one forward pass over the text, parsing each line into
//! reused buffers and checking it at once against the clauses active *at
//! that point*; clauses live in one flat arena. The run succeeds when a
//! verified empty clause closes the refutation, and nothing after that
//! line is read. [`certify`] turns a formula and a checked proof into a
//! [`Certificate`]; `dynunlock`'s `certify` flag calls it on the proof
//! its live solver logged. [`certify_unsat`] bundles the whole loop —
//! fresh logged solver, proof extraction, [`certify`] — for the fuzz
//! tests and the certificate corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use satsolver::dimacs::Cnf;
use satsolver::{Lit, SolveResult, Solver, XorClause};

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
    /// Of those, the additions checked by full propagation: every
    /// unhinted one that needed propagating, and every hinted one whose
    /// hints reached no conflict (a fallback).
    pub propagated_additions: u64,
    /// Xor-derived steps verified by GF(2) refolding.
    pub xor_steps: u64,
    /// Unit literals RUP-verified inside xor steps.
    pub xor_units_checked: u64,
    /// Clause ids deleted.
    pub deletions_applied: u64,
}

impl CheckReport {
    /// Every checked step: additions, deleted ids and xor-derived
    /// clauses.
    pub fn steps(&self) -> u64 {
        self.rup_additions + self.deletions_applied + self.xor_steps
    }

    /// Clause additions verified without full propagation: by their
    /// hints, or at once (a literal already true, or a checker state that
    /// is already contradictory).
    pub fn hinted_additions(&self) -> u64 {
        self.rup_additions - self.propagated_additions
    }
}

/// The kind of a parsed [`Line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    #[default]
    Add,
    Delete,
    Xor,
}

/// One proof line, parsed into buffers reused from line to line.
#[derive(Debug, Default)]
struct Line {
    kind: Kind,
    lits: Vec<Lit>,
    /// An addition's hints, or the clause ids a deletion names.
    hints: Vec<i64>,
    origins: Vec<u32>,
    units: Vec<Lit>,
}

impl Line {
    /// Parses `raw` into `self`. Returns `Ok(false)` for a blank or
    /// comment line, `Err` with a message for a malformed one.
    fn parse(&mut self, raw: &str) -> Result<bool, &'static str> {
        let mut toks = raw.split_ascii_whitespace().peekable();
        let Some(&first) = toks.peek() else {
            return Ok(false);
        };
        if first.starts_with('c') {
            return Ok(false);
        }
        self.lits.clear();
        self.hints.clear();
        self.origins.clear();
        self.units.clear();
        let mut rest_of_first = None;
        if first == "d" {
            self.kind = Kind::Delete;
            toks.next();
        } else if let Some(glued) = first.strip_prefix('x') {
            self.kind = Kind::Xor;
            toks.next();
            rest_of_first = Some(glued).filter(|t| !t.is_empty());
        } else {
            self.kind = Kind::Add;
        }
        let mut toks = rest_of_first.into_iter().chain(toks);
        match self.kind {
            Kind::Delete => {
                hint_group(&mut toks, &mut self.hints).ok_or("malformed deletion")?;
                if toks.next().is_some() {
                    return Err("trailing tokens after deletion");
                }
            }
            Kind::Xor => {
                lit_group(&mut toks, &mut self.lits).ok_or("malformed x-line lits")?;
                id_group(&mut toks, &mut self.origins).ok_or("malformed x-line origins")?;
                lit_group(&mut toks, &mut self.units).ok_or("malformed x-line units")?;
                if toks.next().is_some() {
                    return Err("trailing tokens after x-line");
                }
            }
            Kind::Add => {
                lit_group(&mut toks, &mut self.lits).ok_or("malformed addition")?;
                let mut hints = toks.peekable();
                if hints.peek().is_some() {
                    hint_group(&mut hints, &mut self.hints).ok_or("malformed hints")?;
                    if hints.next().is_some() {
                        return Err("trailing tokens after hints");
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Reads DIMACS-coded literals up to a `0` terminator into `out`.
fn lit_group<'a>(toks: &mut impl Iterator<Item = &'a str>, out: &mut Vec<Lit>) -> Option<()> {
    loop {
        let code: i64 = toks.next()?.parse().ok()?;
        if code == 0 {
            return Some(());
        }
        out.push(Lit::try_from_dimacs(code)?);
    }
}

/// Reads the 1-based origin-id group up to its `0` terminator into `out`
/// as 0-based indices.
fn id_group<'a>(toks: &mut impl Iterator<Item = &'a str>, out: &mut Vec<u32>) -> Option<()> {
    loop {
        let id: u32 = toks.next()?.parse().ok()?;
        match id.checked_sub(1) {
            None => return Some(()),
            Some(zero_based) => out.push(zero_based),
        }
    }
}

/// Reads a clause-id group (hints, or deleted ids) up to its `0`
/// terminator into `out`.
fn hint_group<'a>(toks: &mut impl Iterator<Item = &'a str>, out: &mut Vec<i64>) -> Option<()> {
    loop {
        let id: i64 = toks.next()?.parse().ok()?;
        if id == 0 {
            return Some(());
        }
        out.push(id);
    }
}

/// Per-variable marks of the sparse refold ([`Checker::xor_step`]).
const IN_ROW: u8 = 1;
const IN_CLAUSE: u8 = 2;
const TOUCHED: u8 = 4;

/// Scratch of the sparse refold: per-variable marks ([`IN_ROW`],
/// [`IN_CLAUSE`], [`TOUCHED`]), all zero after each verified step (a
/// failed step ends the check), and the variables a step marked.
#[derive(Debug)]
struct Refold {
    marks: Vec<u8>,
    touched: Vec<usize>,
}

impl Refold {
    /// Flips variable `v`'s row bit, noting it as touched.
    fn flip(&mut self, v: usize) {
        if self.marks[v] & TOUCHED == 0 {
            self.marks[v] |= TOUCHED;
            self.touched.push(v);
        }
        self.marks[v] ^= IN_ROW;
    }

    /// How many touched variables are in the row.
    fn row_len(&self) -> usize {
        self.touched
            .iter()
            .filter(|&&v| self.marks[v] & IN_ROW != 0)
            .count()
    }

    /// Zeroes every mark.
    fn clear(&mut self) {
        for &v in &self.touched {
            self.marks[v] = 0;
        }
        self.touched.clear();
    }
}

/// The checker's state: the formula and every verified step as clauses in
/// one flat arena, its own unit-propagation engine (two watched literals
/// over (de)activatable clauses, with a persistent level-0 trail and a
/// rollback mark for per-check assumptions), and the input xor rows.
#[derive(Debug)]
struct Checker<'f> {
    /// Clause literals, reordered freely (slots 0/1 are the watch pair).
    lits: Vec<Lit>,
    /// Clause `c` is `lits[starts[c]..starts[c + 1]]`: the formula's
    /// clauses in order, then one per verified addition line.
    starts: Vec<usize>,
    active: Vec<bool>,
    /// How many of the clauses are the formula's.
    num_inputs: usize,
    /// Addition lines verified so far (plain and `x`).
    additions: usize,
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
    /// The formula's xor constraints, as written. They are *not* clauses
    /// and never join propagation.
    xors: &'f [XorClause],
    refold: Refold,
    /// Arena indices of the clauses the current step's ids name.
    hint_cids: Vec<usize>,
    report: CheckReport,
}

impl<'f> Checker<'f> {
    fn new(cnf: &'f Cnf) -> Checker<'f> {
        let n = cnf.num_vars;
        let mut checker = Checker {
            lits: Vec::new(),
            starts: vec![0],
            active: Vec::new(),
            num_inputs: cnf.clauses.len(),
            additions: 0,
            watches: vec![Vec::new(); 2 * n],
            assigns: vec![None; n],
            trail: Vec::new(),
            qhead: 0,
            contradiction: false,
            xors: &cnf.xors,
            refold: Refold {
                marks: vec![0; n],
                touched: Vec::new(),
            },
            hint_cids: Vec::new(),
            report: CheckReport::default(),
        };
        for c in &cnf.clauses {
            checker.add_clause(c);
        }
        checker
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var().index()].map(|b| b == l.is_positive())
    }

    fn enqueue(&mut self, l: Lit) {
        debug_assert!(self.value(l).is_none());
        self.assigns[l.var().index()] = Some(l.is_positive());
        self.trail.push(l);
    }

    /// Arena range of clause `cid`.
    fn range(&self, cid: usize) -> std::ops::Range<usize> {
        self.starts[cid]..self.starts[cid + 1]
    }

    /// Activates a clause: appends it to the arena, registers watches,
    /// enqueues persistent units, and propagates to a fixpoint. Any
    /// conflict flips `contradiction`. The clause is in the arena
    /// *before* propagation runs — propagation may revisit it through its
    /// own watch entries.
    fn add_clause(&mut self, lits: &[Lit]) {
        let cid = self.active.len() as u32;
        let base = self.lits.len();
        // The clause enters the arena sorted, with duplicates removed in
        // place, so no literal takes both watch slots.
        self.lits.extend_from_slice(lits);
        self.lits[base..].sort_unstable();
        let mut end = base;
        for i in base..self.lits.len() {
            if end == base || self.lits[end - 1] != self.lits[i] {
                self.lits[end] = self.lits[i];
                end += 1;
            }
        }
        self.lits.truncate(end);
        // Prefer non-false literals in the watch slots so the watch
        // invariant (a false watched literal has been visited) holds
        // from the start.
        let mut slot = 0usize;
        for i in base..self.lits.len() {
            if self.value(self.lits[i]) != Some(false) {
                self.lits.swap(base + slot, i);
                slot += 1;
                if slot == 2 {
                    break;
                }
            }
        }
        self.starts.push(self.lits.len());
        self.active.push(true);
        let len = self.lits.len() - base;
        if len >= 2 {
            self.watches[self.lits[base].index()].push(cid);
            self.watches[self.lits[base + 1].index()].push(cid);
        }
        if len == 0 || slot == 0 {
            self.contradiction = true; // empty, or every literal already false
        } else if slot == 1 {
            let first = self.lits[base];
            if self.value(first).is_none() {
                self.enqueue(first);
                if self.propagate() {
                    self.contradiction = true;
                }
            }
        }
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
                let cid = ws[i];
                i += 1;
                if !self.active[cid as usize] {
                    continue; // stale entry for a deleted clause
                }
                let range = self.range(cid as usize);
                let base = range.start;
                if self.lits[base] == fl {
                    self.lits.swap(base, base + 1);
                }
                let first = self.lits[base];
                if self.value(first) == Some(true) {
                    ws[j] = cid;
                    j += 1;
                    continue;
                }
                for k in base + 2..range.end {
                    let l = self.lits[k];
                    if self.value(l) != Some(false) {
                        self.lits.swap(base + 1, k);
                        self.watches[l.index()].push(cid);
                        continue 'next;
                    }
                }
                ws[j] = cid;
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

    /// The arena index of the clause `id` names (a hint, or a deleted
    /// clause), if it names one before the current step: `-k` is the
    /// formula's `k`-th clause, `n` the `n`-th verified addition line.
    fn hint_cid(&self, id: i64) -> Option<usize> {
        let k = usize::try_from(id.unsigned_abs()).ok()?.checked_sub(1)?;
        if id < 0 {
            (k < self.num_inputs).then_some(k)
        } else {
            (k < self.additions).then_some(self.num_inputs + k)
        }
    }

    /// Walks the hints in `hint_cids` over the current assignment: the
    /// literal of each active hint that is unit is assigned, and the walk
    /// stops with `true` at the first that is falsified. Any other hint
    /// (inactive, satisfied, or with two open literals) is skipped.
    fn walk_hints(&mut self) -> bool {
        for h in 0..self.hint_cids.len() {
            let cid = self.hint_cids[h];
            if !self.active[cid] {
                continue;
            }
            let mut open = None;
            let mut skip = false;
            for k in self.range(cid) {
                let l = self.lits[k];
                match self.value(l) {
                    Some(false) => {}
                    None if open.is_none() => open = Some(l),
                    _ => {
                        skip = true; // satisfied, or a second open literal
                        break;
                    }
                }
            }
            if skip {
                continue;
            }
            match open {
                None => return true,
                Some(l) => self.enqueue(l),
            }
        }
        false
    }

    /// RUP check: is `clause` implied by unit steps over the active set?
    /// The hints in `hint_cids` are walked first; full propagation runs
    /// only if they reach no conflict (counted in the report when
    /// `addition`). Temporary assumptions are rolled back before
    /// returning.
    fn is_rup(&mut self, clause: &[Lit], addition: bool) -> bool {
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
        if !conflict && !self.hint_cids.is_empty() {
            conflict = self.walk_hints();
        }
        if !conflict {
            self.report.propagated_additions += u64::from(addition);
            conflict = self.propagate();
        }
        for idx in saved..self.trail.len() {
            self.assigns[self.trail[idx].var().index()] = None;
        }
        self.trail.truncate(saved);
        self.qhead = saved;
        conflict
    }

    /// Verifies an `x` step: refolds the claimed derivation sparsely over
    /// the named input rows and units, and checks `lits` against the row.
    fn xor_step(&mut self, lits: &[Lit], origins: &[u32], units: &[Lit]) -> Result<(), String> {
        let mut rhs = false;
        for &id in origins {
            let row = self
                .xors
                .get(id as usize)
                .ok_or_else(|| format!("origin {id} out of range"))?;
            // Folded from the literals as written: a repeated variable
            // flips back out, and a negative literal flips the parity.
            rhs ^= row.rhs;
            for l in &row.lits {
                self.refold.flip(l.var().index());
                rhs ^= !l.is_positive();
            }
        }
        self.hint_cids.clear();
        for &u in units {
            // Substituting `u` is xoring in the singleton constraint
            // `var(u) = polarity(u)` — sound only if the unit itself is
            // derivable.
            if !self.is_rup(&[u], false) {
                return Err(format!("substituted unit {} is not RUP", u.to_dimacs()));
            }
            self.report.xor_units_checked += 1;
            self.refold.flip(u.var().index());
            rhs ^= u.is_positive();
        }
        let row_len = self.refold.row_len();
        // The clause must cover the row's variables exactly, and its
        // unique falsifying assignment must violate the row: that
        // assignment sets each variable to the negation of its literal's
        // polarity, so its parity is the negative-literal count mod 2.
        let mut neg = 0usize;
        let marks = &mut self.refold.marks;
        for l in lits {
            let v = l.var().index();
            if marks[v] & IN_CLAUSE != 0 {
                return Err(format!("duplicate variable in {}", dimacs(lits)));
            }
            if marks[v] & IN_ROW == 0 {
                return Err(format!(
                    "variable {} of {} not in the derived row",
                    l.var(),
                    dimacs(lits)
                ));
            }
            marks[v] |= IN_CLAUSE;
            neg += usize::from(!l.is_positive());
        }
        // Only row variables, all touched, got an `IN_CLAUSE` mark.
        self.refold.clear();
        if lits.is_empty() {
            // Refutation by inconsistent row: 0 = 1.
            if row_len != 0 || !rhs {
                return Err("empty x-line does not refold to 0 = 1".to_string());
            }
        } else if lits.len() != row_len {
            return Err(format!(
                "clause {} misses {} row variable(s)",
                dimacs(lits),
                row_len - lits.len()
            ));
        } else if (neg % 2 == 1) == rhs {
            return Err(format!(
                "clause {} does not block the row's violating parity",
                dimacs(lits)
            ));
        }
        Ok(())
    }

    /// Checks one step. Returns `Ok(true)` when it closes the refutation.
    fn step(&mut self, line: &Line) -> Result<bool, String> {
        // Reject out-of-range variables up front: a malformed proof must
        // fail the check, not panic the checker.
        let num_vars = self.assigns.len();
        if let Some(l) = line
            .lits
            .iter()
            .chain(&line.units)
            .find(|l| l.var().index() >= num_vars)
        {
            return Err(format!(
                "variable {} out of range (formula has {num_vars})",
                l.var()
            ));
        }
        self.hint_cids.clear();
        for &id in &line.hints {
            let cid = self
                .hint_cid(id)
                .ok_or_else(|| format!("clause id {id} names no earlier clause"))?;
            self.hint_cids.push(cid);
        }
        match line.kind {
            Kind::Delete => {
                for &cid in &self.hint_cids {
                    self.active[cid] = false;
                }
                self.report.deletions_applied += self.hint_cids.len() as u64;
                return Ok(false);
            }
            Kind::Add => {
                if !self.is_rup(&line.lits, true) {
                    return Err(format!("clause {} is not RUP", dimacs(&line.lits)));
                }
                self.report.rup_additions += 1;
            }
            Kind::Xor => {
                self.xor_step(&line.lits, &line.origins, &line.units)?;
                self.report.xor_steps += 1;
            }
        }
        if line.lits.is_empty() {
            return Ok(true);
        }
        self.additions += 1;
        self.add_clause(&line.lits);
        Ok(false)
    }
}

/// Checks DRAT+xor proof text against its input formula in one streaming
/// pass: each line is parsed and checked before the next is read, and
/// the check ends at the verified empty clause.
///
/// # Errors
///
/// [`CheckError::Parse`] for a malformed line, [`CheckError::Step`] for
/// the first failing step, or [`CheckError::NotRefutation`] if the proof
/// never derives the empty clause.
pub fn check_text(cnf: &Cnf, proof: &str) -> Result<CheckReport, CheckError> {
    let mut checker = Checker::new(cnf);
    let mut line = Line::default();
    let mut index = 0;
    for (lineno, raw) in proof.lines().enumerate() {
        let parsed = line.parse(raw).map_err(|msg| CheckError::Parse {
            line: lineno + 1,
            msg: msg.to_string(),
        })?;
        if !parsed {
            continue;
        }
        let closed = checker
            .step(&line)
            .map_err(|reason| CheckError::Step { index, reason })?;
        if closed {
            return Ok(checker.report);
        }
        index += 1;
    }
    Err(CheckError::NotRefutation)
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
/// The certificate's formula is the one the log recorded: `cnf`'s
/// constraints, verbatim, less any trivially true `⊕ ∅ = 0`.
///
/// # Errors
///
/// [`CertifyError::Sat`] if the formula is satisfiable;
/// [`CertifyError::Check`] if the proof does not verify (which would mean
/// a solver soundness bug).
pub fn certify_unsat(cnf: &Cnf) -> Result<Certificate, CertifyError> {
    let mut solver = Solver::new();
    for _ in 0..cnf.num_vars {
        solver.new_var();
    }
    solver.enable_proof();
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
    let (formula, proof) = solver
        .take_proof()
        .expect("proof logging enabled above")
        .into_parts();
    certify(formula, proof).map_err(CertifyError::Check)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// (a ∨ b)(¬a ∨ b)(a ∨ ¬b)(¬a ∨ ¬b)(c ∨ d): UNSAT, with a clause of
    /// its own that stays open.
    const SQUARE: &str = "p cnf 4 5\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n3 4 0\n";

    #[test]
    fn parse_the_three_step_kinds() {
        // Clauses -1..-5; x-lines 1: x3 ⊕ x5 = 1, 2: x4 = 1.
        let cnf =
            Cnf::parse("p cnf 5 7\n-5 0\n1 -2 0\n-3 -4 0\n3 4 0\n3 -4 0\nx3 5 0\nx4 0\n").unwrap();
        // An unhinted addition, its deletion by id, an x-line summing
        // both inputs with the unit ¬5 substituted (x3 ⊕ x4 = 0, step 2),
        // a hinted lemma citing it, and a hinted refutation.
        let text = "1 -2 0\nd 1 0\nx -3 4 0 1 2 0 -5 0\n-3 0 2 -3 0\n0 3 -4 -5 0\n";
        let report = check_text(&cnf, text).unwrap();
        assert_eq!(report.rup_additions, 3);
        assert_eq!(report.propagated_additions, 1, "only the unhinted one");
        assert_eq!(report.deletions_applied, 1);
        assert_eq!(report.xor_steps, 1);
        assert_eq!(report.xor_units_checked, 1);
        assert_eq!(report.steps(), 5);
    }

    #[test]
    fn parse_rejects_garbage() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        for garbage in [
            "1 banana 0\n",
            "1 2\n",
            "99999999999 0\n",
            "d 1 -2\n",
            "d -1 banana 0\n",
            "d 99999999999999999999 0\n",
            "x 99999999999 0 0 0\n",
            "1 0 99999999999999999999 0\n",
        ] {
            assert!(
                matches!(
                    check_text(&cnf, garbage),
                    Err(CheckError::Parse { line: 1, .. })
                ),
                "{garbage:?} must be rejected"
            );
        }
    }

    #[test]
    fn malformed_hint_groups_are_parse_errors() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        for bad in [
            "2 0 -1\n",
            "2 0 -1 banana 0\n",
            "2 0 -1 0 3\n",
            "0 -1 0 0\n",
        ] {
            assert!(
                matches!(
                    check_text(&cnf, bad),
                    Err(CheckError::Parse { line: 1, .. })
                ),
                "{bad:?} must be rejected by the checker"
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
    fn hints_check_without_propagation_and_skip_non_units() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        // [2]: assume ¬2; (1 ∨ 2) makes 1, then (¬1 ∨ 2) is falsified.
        // The hint (3 ∨ 4) has two open literals and (¬1 ∨ ¬2) is
        // satisfied by ¬2: both are skipped, not errors.
        let report = check_text(&cnf, "2 0 -5 -4 -1 -2 0\n0\n").unwrap();
        assert_eq!(report.rup_additions, 2);
        assert_eq!(report.propagated_additions, 0);
        assert_eq!(report.hinted_additions(), 2);
        // The same lemma without hints is checked by propagation.
        let report = check_text(&cnf, "2 0\n0\n").unwrap();
        assert_eq!(report.propagated_additions, 1);
    }

    #[test]
    fn unhelpful_hints_fall_back_to_propagation() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        // Only skipped hints: the walk ends without a conflict, and full
        // propagation proves the lemma anyway.
        let report = check_text(&cnf, "2 0 -5 -4 0\n0\n").unwrap();
        assert_eq!(report.propagated_additions, 1);
        // A deleted hint is skipped: citing it proves nothing. Deleting
        // (3 ∨ 4) costs the lemma nothing; deleting (¬1 ∨ 2) leaves it
        // unproved by hints and propagation alike.
        let report = check_text(&cnf, "d -5 0\n2 0 -5 -1 -2 0\n0\n").unwrap();
        assert_eq!(report.deletions_applied, 1);
        assert_eq!((report.rup_additions, report.propagated_additions), (2, 0));
        let err = check_text(&cnf, "d -2 0\n2 0 -1 -2 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 1, .. }), "{err}");
    }

    #[test]
    fn hint_naming_no_earlier_clause_is_an_error() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        for (proof, index) in [
            ("2 0 -6 0\n0\n", 0),                   // past the formula's 5 clauses
            ("2 0 1 0\n0\n", 0),                    // itself
            ("2 0 -1 -2 0\n0 2 0\n", 1),            // a later step
            ("2 0 9223372036854775807 0\n0\n", 0),  // far past the end
            ("2 0 -9223372036854775808 0\n0\n", 0), // far before the start
            // Deleted ids follow the same rule.
            ("d -6 0\n0\n", 0),                     // past the formula
            ("2 0\nd 2 0\n0\n", 1),                 // the id the next addition takes
            ("d 1 0\n2 0\n0\n", 0),                 // a later step
            ("d -1 9223372036854775807 0\n0\n", 0), // far past the end
        ] {
            let err = check_text(&cnf, proof).unwrap_err();
            assert!(
                matches!(&err, CheckError::Step { index: i, reason } if *i == index && reason.contains("names no earlier clause")),
                "{proof:?}: {err}"
            );
        }
    }

    #[test]
    fn non_rup_lemma_with_real_hints_is_rejected() {
        let cnf = Cnf::parse(SQUARE).unwrap();
        // [3] is not implied: its hints name real clauses, one of which
        // even becomes unit, but no conflict follows with or without them.
        let err = check_text(&cnf, "3 0 -5 -1 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");
        // A non-empty clause cannot close the proof through its hints.
        let err = check_text(&cnf, "0 -5 0\n").unwrap_err();
        assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");
    }

    #[test]
    fn empty_xor_does_not_shift_origin_ids() {
        // ⊕ ∅ = 0 is trivially true: the log neither records nor numbers
        // it, or every later x-line names the wrong row. Clauses between
        // the xors must not shift the origin ids either.
        let mut s = Solver::new();
        s.enable_proof();
        let v: Vec<Lit> = (0..4).map(|_| Lit::positive(s.new_var())).collect();
        assert!(s.add_xor(&[], false));
        assert!(s.add_xor(&[v[0], v[1]], false));
        assert!(s.add_clause(&[v[3], v[3], v[2]]));
        assert!(s.add_xor(&[], false));
        assert!(s.add_xor(&[v[1], v[2]], false));
        // ¬x3 forces x2, and the rows carry it to x1 and x0 ...
        assert!(s.add_clause(&[!v[3]]));
        assert!(s.add_xor(&[], false));
        // ... so x0 ⊕ x2 = 1 refutes, by an x-line naming all three rows.
        assert!(!s.add_xor(&[v[0], v[2]], true));
        let proof = s.proof().unwrap();
        let formula = proof.formula();
        assert_eq!(formula.clauses, vec![vec![v[3], v[3], v[2]], vec![!v[3]]]);
        assert_eq!(formula.xors.len(), 3);
        assert!(proof.is_refutation());
        let report = check_text(formula, proof.text()).unwrap();
        assert!(report.xor_steps > 0);
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
        // The lemma [1 2] (step 1) resolves the first two inputs; with it,
        // or with them, the unit 2 follows from (¬1 ∨ 2).
        let cnf = Cnf::parse("p cnf 3 5\n1 2 3 0\n1 2 -3 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        let report = check_text(&cnf, "1 2 0\nd -1 -2 0\n2 0\n0\n").unwrap();
        assert_eq!(report.deletions_applied, 2, "one per id");
        assert_eq!(report.steps(), 5);
        // Deleting an input, or the lemma as well as its premises, leaves
        // the unit 2 unproved.
        for proof in ["1 2 0\nd -3 0\n2 0\n0\n", "1 2 0\nd -1 -2 1 0\n2 0\n0\n"] {
            let err = check_text(&cnf, proof).unwrap_err();
            assert!(
                matches!(&err, CheckError::Step { index: 2, reason } if reason.contains("not RUP")),
                "{proof:?}: {err}"
            );
        }
    }

    #[test]
    fn certify_counts_every_checked_step_of_a_carried_proof() {
        // Every checked step counts, deletions included: the unit 2, the
        // deletion of a clause it subsumes, and the refutation.
        let cnf = Cnf::parse("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        let cert = certify(cnf.clone(), "2 0\nd -1 0\n0\n".to_string()).unwrap();
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
    fn x_lines_are_checked_against_the_refolded_row() {
        // One row, x1 ⊕ x2 ⊕ x3 = 1; x4 is in no row.
        let cnf = Cnf::parse("p cnf 4 1\nx1 2 3 0\n").unwrap();
        assert_eq!(
            check_text(&cnf, "x 3 1 2 0 1 0 0\n"),
            Err(CheckError::NotRefutation)
        );
        for (proof, why) in [
            ("x 1 1 2 3 0 1 0 0\n", "duplicate variable"),
            ("x 1 2 0 1 0 0\n", "misses 1 row variable"),
            ("x 1 2 3 4 0 1 0 0\n", "not in the derived row"),
            ("x -1 2 3 0 1 0 0\n", "violating parity"),
            ("x 1 2 3 0 2 0 0\n", "origin 1 out of range"),
            ("x 1 2 0 1 0 3 0\n", "substituted unit 3 is not RUP"),
        ] {
            let err = check_text(&cnf, proof).unwrap_err();
            assert!(
                matches!(&err, CheckError::Step { index: 0, reason } if reason.contains(why)),
                "{proof:?}: {err}"
            );
        }
    }

    #[test]
    fn input_xors_fold_from_their_literals() {
        // Row 1 is written with a negated literal and a repeated variable:
        // x1 ⊕ ¬x2 ⊕ x3 ⊕ x3 = 1 folds to x1 ⊕ x2 = 0. Row 2 is
        // x1 ⊕ x2 = 1, so the two sum to 0 = 1.
        let cnf = Cnf::parse("p cnf 3 2\nx1 -2 3 3 0\nx1 2 0\n").unwrap();
        let report = check_text(&cnf, "x 0 1 2 0 0\n").expect("the rows sum to 0 = 1");
        assert_eq!(report.xor_steps, 1);
        // Row 1 alone blocks x1 ≠ x2, so [1 -2] is its clause.
        assert_eq!(
            check_text(&cnf, "x 1 -2 0 1 0 0\n"),
            Err(CheckError::NotRefutation)
        );
        for (proof, why) in [
            // [1 2] blocks x1 = x2 = 0, which row 1 allows.
            ("x 1 2 0 1 0 0\n", "violating parity"),
            // The repeated x3 cancelled out of row 1.
            ("x 1 -2 3 0 1 0 0\n", "of [1 -2 3] not in the derived row"),
        ] {
            let err = check_text(&cnf, proof).unwrap_err();
            assert!(
                matches!(&err, CheckError::Step { index: 0, reason } if reason.contains(why)),
                "{proof:?}: {err}"
            );
        }
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
