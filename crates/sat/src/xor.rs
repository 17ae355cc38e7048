//! Native XOR (parity) constraints and the in-solver GF(2) engine.
//!
//! A parity constraint `l1 ⊕ l2 ⊕ … ⊕ lk = rhs` compiled to CNF costs
//! `k - 1` auxiliary variables and `4(k - 1)` clauses, and — much worse —
//! forces the CDCL core to prove parity facts by *resolution*, which is
//! exponential in the number of chained constraints (the classic
//! Tseitin-formula lower bound). This module keeps parity linear end to
//! end instead, the way CryptoMiniSat does:
//!
//! * [`XorClause`] is the first-class constraint type; [`Constraint`] is
//!   the stream unit the encoder hands to
//!   [`Solver::add_constraint`](crate::Solver::add_constraint).
//! * `XorEngine` stores the xor system as **sparse** GF(2) rows — each
//!   row is the strictly ascending list of its columns, so a row costs its
//!   weight, not the width of the formula — and keeps it in **reduced
//!   row-echelon form** by incremental Gauss–Jordan elimination: every
//!   constraint added between solves is substituted against the top-level
//!   trail, reduced against the existing pivots (a sorted merge per
//!   pivot row), and — if it survives — its lowest column becomes its
//!   pivot and is eliminated from every other row. Inconsistent rows
//!   surface immediately as top-level UNSAT; singleton rows become
//!   top-level units.
//! * During search the engine propagates with **two watched columns** per
//!   row, interleaved with unit propagation: when a watched variable is
//!   assigned the row walks its column list and either rewatches an
//!   unassigned column, or has become unit (propagate the last column) or
//!   fully assigned (check parity, conflict on mismatch).
//! * Propagations and conflicts are handed back to CDCL as *materialized
//!   reason clauses* (lazy clause generation): the implied literal plus
//!   the negations of the row's assigned literals. Reasons live in the
//!   learnt-clause arena, so first-UIP analysis, recursive minimization,
//!   assumptions, restarts, and database reduction all work unchanged;
//!   conflict clauses are temporary and reclaimed right after analysis.
//!
//! Backtracking needs no undo hooks: row operations are linear
//! combinations (sound regardless of the assignment) and watches are
//! repaired lazily, exactly like clause watches.

use crate::proof::ProofLogger;
use crate::types::{LBool, Lit, Var};

/// The solver's (possibly absent) proof sink, threaded through the engine
/// so add-time derivations (units by elimination, inconsistent rows) are
/// logged with their GF(2) provenance.
pub(crate) type ProofSink = Option<Box<dyn ProofLogger>>;

/// A native parity constraint: the XOR of `lits` must equal `rhs`.
///
/// A negated literal `¬x` contributes `x ⊕ 1`, so signs fold into the
/// right-hand side; [`XorClause::normalized`] computes the canonical
/// variables-and-parity form (sorted, duplicate pairs cancelled).
///
/// # Example
///
/// ```
/// use satsolver::{Lit, Solver, SolveResult, XorClause};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// let c = s.new_var();
/// // a ⊕ b ⊕ c = 1, and a = b: forces c = 1.
/// s.add_xor(&[Lit::positive(a), Lit::positive(b), Lit::positive(c)], true);
/// s.add_xor(&[Lit::positive(a), Lit::positive(b)], false);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(c), Some(true));
/// # let _ = XorClause::new(vec![Lit::positive(a)], true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct XorClause {
    /// The XORed literals.
    pub lits: Vec<Lit>,
    /// The parity the XOR must equal.
    pub rhs: bool,
}

impl XorClause {
    /// A parity constraint `⊕ lits = rhs`.
    pub fn new(lits: impl Into<Vec<Lit>>, rhs: bool) -> XorClause {
        XorClause {
            lits: lits.into(),
            rhs,
        }
    }

    /// Canonical form: sorted unique variables and the folded parity.
    /// Negative literals flip the parity; a variable appearing twice
    /// cancels (x ⊕ x = 0).
    pub fn normalized(&self) -> (Vec<Var>, bool) {
        let mut rhs = self.rhs;
        let mut vars: Vec<Var> = Vec::with_capacity(self.lits.len());
        for l in &self.lits {
            if !l.is_positive() {
                rhs = !rhs;
            }
            vars.push(l.var());
        }
        vars.sort_unstable();
        let mut out: Vec<Var> = Vec::with_capacity(vars.len());
        for v in vars {
            if out.last() == Some(&v) {
                out.pop(); // pair cancels
            } else {
                out.push(v);
            }
        }
        (out, rhs)
    }

    /// The canonical [`XorClause`] equivalent to this one: positive
    /// literals over the normalized variables, parity in `rhs`.
    pub fn canonical(&self) -> XorClause {
        let (vars, rhs) = self.normalized();
        XorClause {
            lits: vars.into_iter().map(Lit::positive).collect(),
            rhs,
        }
    }

    /// Whether `assignment` (indexed by variable) satisfies the
    /// constraint.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable is out of range.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let mut acc = false;
        for l in &self.lits {
            acc ^= assignment[l.var().index()] == l.is_positive();
        }
        acc == self.rhs
    }
}

/// One element of the encoder → solver constraint stream: a disjunctive
/// clause or a native parity constraint.
///
/// Solvers consume constraints through [`Solver::add_constraint`]; this is
/// the interface that lets an encoder keep XOR structure linear instead of
/// Tseitin-shredding it.
///
/// [`Solver::add_constraint`]: crate::Solver::add_constraint
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// A disjunction of literals.
    Clause(Vec<Lit>),
    /// A parity constraint.
    Xor(XorClause),
}

/// Column index sentinel: "no column".
const NONE: u32 = u32::MAX;

/// One stored row: `⊕ cols = rhs` over the engine's column space.
#[derive(Debug)]
struct XorRow {
    /// The row's columns (its nonzero coefficients), strictly ascending.
    cols: Vec<u32>,
    /// Right-hand parity.
    rhs: bool,
    /// The two watched columns (both in `cols`, distinct).
    watch: [u32; 2],
    /// The row's pivot column (unique to this row in RREF).
    pivot: u32,
    /// Dead rows (eliminated to units/tautologies) are skipped lazily.
    alive: bool,
    /// Derivation provenance: the set of input xor constraints (ids in add
    /// order) whose GF(2) sum, after substituting `units`, equals this
    /// row. Maintained by symmetric difference under every row operation,
    /// so `fold(origin) ⊕ fold(units) = (cols, rhs)` is an invariant.
    origin: Vec<u32>,
    /// Top-level unit literals substituted into this row (each `l` stands
    /// for the singleton constraint `var(l) = polarity(l)`).
    units: Vec<Lit>,
}

/// A propagation discovered by the engine: `lit` is implied by row `row`
/// under the current assignment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XorImplication {
    pub(crate) lit: Lit,
    pub(crate) row: u32,
}

/// The in-solver xor store and GF(2) propagation engine.
#[derive(Debug, Default)]
pub(crate) struct XorEngine {
    rows: Vec<XorRow>,
    /// Column → solver variable index.
    col_var: Vec<u32>,
    /// Variable index → column ([`NONE`] if the variable is in no xor).
    var_col: Vec<u32>,
    /// Column → row owning it as pivot ([`NONE`] if free).
    pivot_row: Vec<u32>,
    /// Column → rows watching it.
    watchers: Vec<Vec<u32>>,
    /// Live row count.
    num_live: usize,
    /// Input xor constraints seen so far (the next constraint's proof id).
    next_input_id: u32,
}

impl XorEngine {
    /// Number of live xor rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.num_live
    }

    /// Whether `var` participates in any xor row (cheap propagation gate).
    pub(crate) fn involves(&self, var: usize) -> bool {
        self.var_col.get(var).is_some_and(|&c| c != NONE)
    }

    /// The column for `var`, creating one if needed.
    fn col_for(&mut self, var: Var) -> u32 {
        let v = var.index();
        if self.var_col.len() <= v {
            self.var_col.resize(v + 1, NONE);
        }
        if self.var_col[v] == NONE {
            let col = self.col_var.len();
            self.var_col[v] = col as u32;
            self.col_var.push(v as u32);
            self.pivot_row.push(NONE);
            self.watchers.push(Vec::new());
        }
        self.var_col[v]
    }

    /// Current value of the variable behind column `col`.
    fn col_value(&self, col: u32, assigns: &[LBool]) -> LBool {
        assigns[self.col_var[col as usize] as usize]
    }

    /// Adds `⊕ vars = rhs` (already normalized) at decision level 0.
    ///
    /// Substitutes top-level assignments, reduces against the existing
    /// pivots (incremental Gauss–Jordan), and installs the surviving row,
    /// eliminating its pivot column from every other row. Implied
    /// top-level units are pushed to `units` for the caller to enqueue.
    /// Returns `false` if the xor system became inconsistent.
    pub(crate) fn add(
        &mut self,
        vars: &[Var],
        rhs: bool,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut ProofSink,
    ) -> bool {
        let id = self.next_input_id;
        self.next_input_id += 1;
        let mut origin = vec![id];
        let mut umeta: Vec<Lit> = Vec::new();

        // Substitute fixed variables, map the rest onto columns.
        let mut rhs = rhs;
        let mut cols: Vec<u32> = Vec::with_capacity(vars.len());
        for &v in vars {
            match assigns[v.index()] {
                LBool::True => {
                    rhs = !rhs;
                    umeta.push(Lit::positive(v));
                }
                LBool::False => umeta.push(Lit::negative(v)),
                LBool::Undef => cols.push(self.col_for(v)),
            }
        }
        umeta.sort_unstable();
        cols.sort_unstable();

        // Reduce against existing pivots. Pivot rows contain no *other*
        // pivot column (RREF), so adding one never adds or cancels another
        // pivot: the rows to eliminate are exactly the owners of the
        // substituted row's own columns.
        let mut reduced = cols.clone();
        for &c in &cols {
            let owner = self.pivot_row[c as usize];
            if owner == NONE {
                continue;
            }
            let row = &self.rows[owner as usize];
            sym_diff(&mut reduced, &row.cols);
            rhs ^= row.rhs;
            sym_diff(&mut origin, &row.origin);
            sym_diff(&mut umeta, &row.units);
        }

        self.install(reduced, rhs, origin, umeta, assigns, units, proof)
    }

    /// Installs a pivot-reduced row: registers its pivot, eliminates that
    /// column from every other live row, and sets up watches. Returns
    /// `false` on inconsistency.
    #[allow(clippy::too_many_arguments)] // internal seam; the tuple halves travel together
    fn install(
        &mut self,
        cols: Vec<u32>,
        rhs: bool,
        origin: Vec<u32>,
        umeta: Vec<Lit>,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut ProofSink,
    ) -> bool {
        let Some(&pivot) = cols.first() else {
            if rhs {
                log_xor(proof, &[], &origin, &umeta);
            }
            return !rhs;
        };
        if cols.len() == 1 {
            // Singleton: a top-level unit, not a stored row.
            let unit = Lit::new(Var::from_index(self.col_var[pivot as usize] as usize), rhs);
            log_xor(proof, &[unit], &origin, &umeta);
            units.push(unit);
            return true;
        }

        // Gauss–Jordan: clear the new pivot column from every other row.
        let mut touched: Vec<u32> = Vec::new();
        for ri in 0..self.rows.len() {
            let row = &mut self.rows[ri];
            if !row.alive || row.cols.binary_search(&pivot).is_err() {
                continue;
            }
            sym_diff(&mut row.cols, &cols);
            row.rhs ^= rhs;
            sym_diff(&mut row.origin, &origin);
            sym_diff(&mut row.units, &umeta);
            touched.push(ri as u32);
        }
        let mut ok = true;
        for &ri in &touched {
            ok &= self.repair_row(ri as usize, assigns, units, proof);
        }
        if !ok {
            return false;
        }

        let idx = self.rows.len();
        self.pivot_row[pivot as usize] = idx as u32;
        self.rows.push(XorRow {
            cols,
            rhs,
            watch: [NONE, NONE],
            pivot,
            alive: true,
            origin,
            units: umeta,
        });
        self.num_live += 1;
        self.attach_watches(idx, assigns, units, proof)
    }

    /// Re-examines a row whose columns just changed at level 0: it may have
    /// degenerated to empty (tautology or inconsistency), to a unit, or
    /// lost a watched column. Returns `false` on inconsistency.
    fn repair_row(
        &mut self,
        ri: usize,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut ProofSink,
    ) -> bool {
        if self.rows[ri].cols.is_empty() {
            let rhs = self.rows[ri].rhs;
            if rhs {
                log_xor(proof, &[], &self.rows[ri].origin, &self.rows[ri].units);
            }
            self.kill_row(ri);
            return !rhs;
        }
        self.unwatch_row(ri);
        self.attach_watches(ri, assigns, units, proof)
    }

    /// Drops both watcher-list registrations of row `ri`.
    fn unwatch_row(&mut self, ri: usize) {
        let watch = self.rows[ri].watch;
        self.rows[ri].watch = [NONE, NONE];
        for w in watch {
            if w == NONE {
                continue;
            }
            if let Some(pos) = self.watchers[w as usize]
                .iter()
                .position(|&r| r == ri as u32)
            {
                self.watchers[w as usize].swap_remove(pos);
            }
        }
    }

    /// Installs watches on two unassigned columns of live row `ri` (which
    /// must currently have no registered watches). If fewer than two
    /// columns are unassigned the row is resolved on the spot — unit
    /// (pushed to `units`), satisfied, or inconsistent (returns `false`) —
    /// and retired. Watching only unassigned columns is what keeps search
    /// propagation complete: a watch on an already-assigned variable never
    /// fires again.
    fn attach_watches(
        &mut self,
        ri: usize,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut ProofSink,
    ) -> bool {
        let mut unassigned = [NONE; 2];
        let mut count = 0;
        for &c in &self.rows[ri].cols {
            if self.col_value(c, assigns) == LBool::Undef {
                unassigned[count] = c;
                count += 1;
                if count == 2 {
                    break;
                }
            }
        }
        match count {
            2 => {
                self.rows[ri].watch = unassigned;
                for w in unassigned {
                    self.watchers[w as usize].push(ri as u32);
                }
                true
            }
            1 => {
                // Unit under the level-0 assignment.
                let target = unassigned[0];
                let rhs = self.row_residual(ri, target, assigns);
                let unit = Lit::new(Var::from_index(self.col_var[target as usize] as usize), rhs);
                if proof.is_some() {
                    let meta = self.substituted_meta(ri, Some(target), assigns);
                    log_xor(proof, &[unit], &self.rows[ri].origin, &meta);
                }
                units.push(unit);
                self.kill_row(ri);
                true
            }
            _ => {
                // Fully assigned at level 0: satisfied or inconsistent.
                let mut acc = self.rows[ri].rhs;
                for &c in &self.rows[ri].cols {
                    acc ^= self.col_value(c, assigns) == LBool::True;
                }
                if acc && proof.is_some() {
                    let meta = self.substituted_meta(ri, None, assigns);
                    log_xor(proof, &[], &self.rows[ri].origin, &meta);
                }
                self.kill_row(ri);
                !acc
            }
        }
    }

    /// The unit-substitution metadata of row `ri` after additionally
    /// substituting every assigned column except `skip`: the row's stored
    /// `units` xored with the trail literal of each assigned column. With
    /// these substitutions the row degenerates to the unit over `skip` (or
    /// to a constant), which is exactly what the proof step asserts.
    fn substituted_meta(&self, ri: usize, skip: Option<u32>, assigns: &[LBool]) -> Vec<Lit> {
        let row = &self.rows[ri];
        let mut meta = row.units.clone();
        let mut extra: Vec<Lit> = Vec::new();
        for &c in &row.cols {
            if Some(c) == skip {
                continue;
            }
            let v = Var::from_index(self.col_var[c as usize] as usize);
            match assigns[v.index()] {
                LBool::True => extra.push(Lit::positive(v)),
                LBool::False => extra.push(Lit::negative(v)),
                LBool::Undef => {}
            }
        }
        extra.sort_unstable();
        sym_diff(&mut meta, &extra);
        meta
    }

    /// Derivation provenance of row `ri` for proof logging: the input xor
    /// ids whose sum, after substituting the returned unit literals,
    /// equals the row.
    pub(crate) fn row_meta(&self, ri: u32) -> (&[u32], &[Lit]) {
        let row = &self.rows[ri as usize];
        (&row.origin, &row.units)
    }

    /// The parity forced on column `skip` by the rest of row `ri` under
    /// the current assignment (all other columns must be assigned).
    fn row_residual(&self, ri: usize, skip: u32, assigns: &[LBool]) -> bool {
        let row = &self.rows[ri];
        let mut acc = row.rhs;
        for &c in &row.cols {
            if c != skip {
                acc ^= self.col_value(c, assigns) == LBool::True;
            }
        }
        acc
    }

    /// Marks a row dead and releases its pivot and watch entries.
    fn kill_row(&mut self, ri: usize) {
        let row = &mut self.rows[ri];
        if !row.alive {
            return;
        }
        row.alive = false;
        let pivot = row.pivot;
        let watch = row.watch;
        if pivot != NONE && self.pivot_row[pivot as usize] == ri as u32 {
            self.pivot_row[pivot as usize] = NONE;
        }
        for w in watch {
            if w == NONE {
                continue;
            }
            if let Some(pos) = self.watchers[w as usize]
                .iter()
                .position(|&r| r == ri as u32)
            {
                self.watchers[w as usize].swap_remove(pos);
            }
        }
        self.num_live -= 1;
    }

    /// Search-time hook: variable `v` was just assigned. Visits every row
    /// watching it; rows rewatch an unassigned column when one exists,
    /// otherwise they propagate their last column or report a conflict.
    /// Implications are appended to `out`; the first conflicting row index
    /// is returned (remaining watchers stay intact).
    pub(crate) fn on_assign(
        &mut self,
        v: usize,
        assigns: &[LBool],
        out: &mut Vec<XorImplication>,
    ) -> Option<u32> {
        let col = match self.var_col.get(v) {
            Some(&c) if c != NONE => c,
            _ => return None,
        };
        // Compact the watcher list in place: `i` reads, `j` writes back the
        // entries that keep watching this column.
        let mut ws = std::mem::take(&mut self.watchers[col as usize]);
        let mut conflict = None;
        let (mut i, mut j) = (0, 0);
        while i < ws.len() {
            let ri = ws[i];
            i += 1;
            let row = &self.rows[ri as usize];
            if !row.alive {
                continue; // drop stale entry
            }
            let slot = if row.watch[0] == col {
                0
            } else if row.watch[1] == col {
                1
            } else {
                continue; // stale entry for a moved watch
            };
            let other = row.watch[1 - slot];

            // Try to rewatch an unassigned column.
            let replacement =
                row.cols.iter().copied().find(|&c| {
                    c != col && c != other && self.col_value(c, assigns) == LBool::Undef
                });
            if let Some(c) = replacement {
                self.rows[ri as usize].watch[slot] = c;
                self.watchers[c as usize].push(ri);
                continue;
            }

            // No replacement: every column but `other` is assigned.
            ws[j] = ri;
            j += 1;
            let rhs = self.row_residual(ri as usize, other, assigns);
            let ov = self.col_var[other as usize] as usize;
            match assigns[ov] {
                LBool::Undef => out.push(XorImplication {
                    lit: Lit::new(Var::from_index(ov), rhs),
                    row: ri,
                }),
                val => {
                    if (val == LBool::True) != rhs {
                        conflict = Some(ri);
                        // Watchers after the conflict stay registered.
                        while i < ws.len() {
                            ws[j] = ws[i];
                            j += 1;
                            i += 1;
                        }
                        break;
                    }
                }
            }
        }
        ws.truncate(j);
        self.watchers[col as usize] = ws;
        conflict
    }

    /// Pushes the falsified literal of every assigned column of row `ri`
    /// (skipping `skip_var`, the implied variable, when given). This is
    /// the clause-shaped reason CDCL analysis consumes.
    pub(crate) fn reason_lits(
        &self,
        ri: u32,
        skip_var: Option<Var>,
        assigns: &[LBool],
        out: &mut Vec<Lit>,
    ) {
        let row = &self.rows[ri as usize];
        let skip = skip_var.map(super::types::Var::index);
        for &c in &row.cols {
            let v = self.col_var[c as usize] as usize;
            if Some(v) == skip {
                continue;
            }
            // The literal currently false: the negation of the assignment.
            debug_assert_ne!(assigns[v], LBool::Undef);
            out.push(Lit::new(Var::from_index(v), assigns[v] == LBool::False));
        }
    }

    /// Structural invariant check: the matrix is in RREF, pivot maps are
    /// inverse, watches are registered, and the column maps are bijective.
    /// Violations are appended to `errors` as human-readable strings.
    pub(crate) fn audit(&self, errors: &mut Vec<String>) {
        let mut err = |msg: String| errors.push(format!("xor: {msg}"));
        // Column maps are inverse bijections.
        for (c, &v) in self.col_var.iter().enumerate() {
            if self.var_col.get(v as usize).copied() != Some(c as u32) {
                err(format!("col {c} maps to var {v} but not back"));
            }
        }
        for (v, &c) in self.var_col.iter().enumerate() {
            if c != NONE && self.col_var.get(c as usize).copied() != Some(v as u32) {
                err(format!("var {v} maps to col {c} but not back"));
            }
        }
        // Rows: alive count, pivot ownership, RREF shape, watch registration.
        let live = self.rows.iter().filter(|r| r.alive).count();
        if live != self.num_live {
            err(format!(
                "num_live {} but {} alive rows",
                self.num_live, live
            ));
        }
        for (ri, row) in self.rows.iter().enumerate() {
            if !row.alive {
                continue;
            }
            if row.cols.is_empty() {
                err(format!("live row {ri} is empty"));
                continue;
            }
            // Membership tests below binary-search `cols`, so an
            // unsorted row would also make them unreliable.
            if row.cols.windows(2).any(|w| w[0] >= w[1]) {
                err(format!("row {ri} columns are not strictly ascending"));
            }
            if let Some(&c) = row.cols.iter().find(|&&c| c as usize >= self.col_var.len()) {
                err(format!(
                    "row {ri} has col {c} beyond {} columns",
                    self.col_var.len()
                ));
            }
            let pivot = row.pivot;
            if row.cols.binary_search(&pivot).is_err() {
                err(format!("row {ri} pivot col {pivot} not in its columns"));
            }
            if self.pivot_row.get(pivot as usize).copied() != Some(ri as u32) {
                err(format!("row {ri} does not own its pivot col {pivot}"));
            }
            // RREF: no other live row contains this row's pivot column.
            for (rj, other) in self.rows.iter().enumerate() {
                if rj != ri && other.alive && other.cols.binary_search(&pivot).is_ok() {
                    err(format!("row {rj} contains row {ri}'s pivot col {pivot}"));
                }
            }
            for w in row.watch {
                if w == NONE {
                    err(format!("live row {ri} has an unset watch"));
                    continue;
                }
                if row.cols.binary_search(&w).is_err() {
                    err(format!("row {ri} watches col {w} not in its columns"));
                }
                if !self.watchers[w as usize].contains(&(ri as u32)) {
                    err(format!("row {ri} not registered on watched col {w}"));
                }
            }
            if row.watch[0] == row.watch[1] {
                err(format!("row {ri} watches the same column twice"));
            }
        }
        // Watcher lists may hold stale entries (dead rows, moved watches) —
        // that is the lazy-repair contract — but never out-of-range ones.
        for (c, list) in self.watchers.iter().enumerate() {
            for &ri in list {
                if ri as usize >= self.rows.len() {
                    err(format!("watcher list for col {c} has bogus row {ri}"));
                }
            }
        }
    }

    /// Snapshots the live rows as [`XorClause`]s (positive literals over
    /// each row's columns). The rows are the RREF of everything added — an
    /// equivalent, not textually identical, system.
    pub(crate) fn export(&self) -> Vec<XorClause> {
        self.rows
            .iter()
            .filter(|r| r.alive)
            .map(|r| XorClause {
                lits: r
                    .cols
                    .iter()
                    .map(|&c| Lit::positive(Var::from_index(self.col_var[c as usize] as usize)))
                    .collect(),
                rhs: r.rhs,
            })
            .collect()
    }
}

/// Symmetric difference of two sorted deduplicated vectors, in place.
/// This is a sparse GF(2) row xor (on column lists) and its metadata
/// mirror (on provenance lists): elements present in both sides cancel.
fn sym_diff<T: Ord + Copy>(dst: &mut Vec<T>, src: &[T]) {
    if src.is_empty() {
        return;
    }
    let old = std::mem::take(dst);
    dst.reserve(old.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < src.len() {
        match (old.get(i), src.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                dst.push(*a);
                i += 1;
            }
            (Some(_), Some(b)) => {
                dst.push(*b);
                j += 1;
            }
            (Some(a), None) => {
                dst.push(*a);
                i += 1;
            }
            (None, Some(b)) => {
                dst.push(*b);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Emits an xor-derived proof step if a logger is installed.
fn log_xor(proof: &mut ProofSink, lits: &[Lit], origin: &[u32], units: &[Lit]) {
    if let Some(p) = proof.as_mut() {
        p.add_xor_derived(lits, origin, units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[i64]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_dimacs(c)).collect()
    }

    #[test]
    fn normalization_folds_signs_and_pairs() {
        // ¬x1 ⊕ x2 ⊕ x1 ⊕ x2 ⊕ x3 = 1  ⇒  x3 = 0 (one sign flip).
        let xc = XorClause::new(lits(&[-1, 2, 1, 2, 3]), true);
        let (vars, rhs) = xc.normalized();
        assert_eq!(vars, vec![Var::from_index(2)]);
        assert!(!rhs);
        let canon = xc.canonical();
        assert_eq!(canon.lits, lits(&[3]));
        assert!(!canon.rhs);
    }

    #[test]
    fn normalization_cancels_triples_to_one() {
        let xc = XorClause::new(lits(&[1, 1, 1]), true);
        let (vars, rhs) = xc.normalized();
        assert_eq!(vars, vec![Var::from_index(0)]);
        assert!(rhs);
    }

    #[test]
    fn eval_checks_parity() {
        let xc = XorClause::new(lits(&[1, -2]), true);
        // x1 ⊕ ¬x2 = 1  ⇔  x1 = x2.
        assert!(xc.eval(&[true, true]));
        assert!(xc.eval(&[false, false]));
        assert!(!xc.eval(&[true, false]));
    }

    #[test]
    fn sym_diff_matches_a_set_reference() {
        use gf2::{Rng64, SplitMix64};
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::new(0x5D1F);
        for trial in 0..500 {
            let mut draw = |n: usize| -> Vec<u32> {
                let set: BTreeSet<u32> = (0..n).map(|_| rng.gen_index(24) as u32).collect();
                set.into_iter().collect()
            };
            let (mut dst, src) = (draw(trial % 13), draw(trial % 11));
            let a: BTreeSet<u32> = dst.iter().copied().collect();
            let b: BTreeSet<u32> = src.iter().copied().collect();
            let expect: Vec<u32> = a.symmetric_difference(&b).copied().collect();
            sym_diff(&mut dst, &src);
            assert_eq!(dst, expect, "trial {trial}: {a:?} ^ {b:?}");
        }
    }

    #[test]
    fn engine_reduces_duplicate_rows_to_nothing() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof: ProofSink = None;
        let vars: Vec<Var> = (0..3).map(Var::from_index).collect();
        assert!(eng.add(&vars, true, &assigns, &mut units, &mut proof));
        assert_eq!(eng.num_rows(), 1);
        // The same row again is redundant.
        assert!(eng.add(&vars, true, &assigns, &mut units, &mut proof));
        assert_eq!(eng.num_rows(), 1);
        assert!(units.is_empty());
        // The same row with flipped parity is inconsistent.
        assert!(!eng.add(&vars, false, &assigns, &mut units, &mut proof));
    }

    #[test]
    fn engine_derives_units_by_elimination() {
        // x0 ⊕ x1 = 1 and x0 ⊕ x1 ⊕ x2 = 1 force x2 = 0 by row reduction.
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof: ProofSink = None;
        let v: Vec<Var> = (0..3).map(Var::from_index).collect();
        assert!(eng.add(&[v[0], v[1]], true, &assigns, &mut units, &mut proof));
        assert!(eng.add(&[v[0], v[1], v[2]], true, &assigns, &mut units, &mut proof));
        assert_eq!(units, vec![Lit::negative(v[2])]);
        assert_eq!(eng.num_rows(), 1, "the combined row dies into the unit");
    }

    #[test]
    fn audit_flags_unsorted_columns() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof: ProofSink = None;
        let v: Vec<Var> = (0..4).map(Var::from_index).collect();
        assert!(eng.add(&v, true, &assigns, &mut units, &mut proof));
        let mut errors = Vec::new();
        eng.audit(&mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(eng.rows[0].cols, vec![0, 1, 2, 3]);
        // Out of order, then duplicated: both break the sparse-row shape.
        eng.rows[0].cols.swap(1, 2);
        eng.audit(&mut errors);
        assert!(
            errors.iter().any(|e| e.contains("not strictly ascending")),
            "{errors:?}"
        );
        errors.clear();
        eng.rows[0].cols = vec![0, 1, 1, 3];
        eng.audit(&mut errors);
        assert!(
            errors.iter().any(|e| e.contains("not strictly ascending")),
            "{errors:?}"
        );
    }

    #[test]
    fn export_is_an_equivalent_system() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 8];
        let mut units = Vec::new();
        let mut proof: ProofSink = None;
        let v: Vec<Var> = (0..4).map(Var::from_index).collect();
        eng.add(&[v[0], v[1], v[2]], true, &assigns, &mut units, &mut proof);
        eng.add(&[v[1], v[2], v[3]], false, &assigns, &mut units, &mut proof);
        let rows = eng.export();
        assert_eq!(rows.len(), 2);
        // Brute-force: the exported system has the same solution set.
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let original = (a[0] ^ a[1] ^ a[2]) && !(a[1] ^ a[2] ^ a[3]);
            let exported = rows.iter().all(|r| r.eval(&a));
            assert_eq!(original, exported, "assignment {a:?}");
        }
    }
}
