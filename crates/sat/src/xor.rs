//! Native XOR (parity) constraints and the in-solver GF(2) engine.
//!
//! A parity constraint `l1 ⊕ l2 ⊕ … ⊕ lk = rhs` compiled to CNF costs
//! `k - 1` auxiliary variables and `4(k - 1)` clauses, and — much worse —
//! forces the CDCL core to prove parity facts by *resolution*, which is
//! exponential in the number of chained constraints (the classic
//! Tseitin-formula lower bound). This module keeps parity linear end to
//! end instead, the way CryptoMiniSat does:
//!
//! * [`XorClause`] is the first-class constraint type; the encoder adds
//!   each parity with [`Solver::add_xor`](crate::Solver::add_xor).
//! * `XorEngine` stores the xor system as **sparse** GF(2) rows — each
//!   row is the strictly ascending list of its columns, so a row costs its
//!   weight, not the width of the formula — and keeps it in **reduced
//!   row-echelon form** by incremental Gauss–Jordan elimination: every
//!   constraint added between solves is substituted against the top-level
//!   trail, reduced against the existing pivots (a sorted merge per
//!   pivot row), and — if it survives — its **highest** column becomes
//!   its pivot and is eliminated from every other row. Columns are
//!   numbered in first-use order, so that is usually the variable the
//!   encoder just defined, held by no other row: rows do not fill in,
//!   and when the pivot column was created by the same add the
//!   elimination scan is skipped. Inconsistent rows surface immediately
//!   as top-level UNSAT; singleton rows become top-level units.
//! * A pivot that later gets a top-level value hides its row from
//!   add-time reduction, so each solve first **re-pivots** those rows:
//!   their assigned columns are substituted and each is reinstalled, in
//!   its own slot, on an unassigned pivot that is eliminated from the
//!   other rows. Dependencies the units expose become units or a
//!   top-level UNSAT before search.
//! * During search the engine propagates with **two watched columns** per
//!   row, interleaved with unit propagation: when a watched variable is
//!   assigned the row walks its column list and either rewatches an
//!   unassigned column, or has become unit (propagate the last column) or
//!   fully assigned (check parity, conflict on mismatch).
//! * Reasons are **lazy**, as in CryptoMiniSat: an implication records
//!   its row as the reason and a violated row is returned as the
//!   conflict, and no clause is allocated for either. Only when first-UIP
//!   analysis or recursive minimization reads the reason does the solver
//!   read the clause off the row — the implied literal plus the negations
//!   of the row's other (assigned) literals — into one scratch buffer.
//!   So the learnt-clause database holds learnt clauses only: reasons
//!   add no watches, do not fill `max_learnts`, and leave database
//!   reduction alone. Most implications are never read at all.
//! * Proof logging follows the citations. A certifying run hands a
//!   reason's or a conflicting row's clause to the log each time a
//!   learnt clause cites it (the log writes each literal set once and
//!   returns the first id; nothing here caches ids), and logs a level-0
//!   implication when it is made: analysis never reads those, but the
//!   checker needs the unit for later steps (see [`crate::proof`]). Each
//!   row's origin list names the input constraints it sums by the ids the
//!   log handed out, and its unit list the level-0 units substituted into
//!   it; a run that does not log keeps neither.
//!
//! Backtracking needs no undo hooks: row operations are linear
//! combinations (sound regardless of the assignment) and watches are
//! repaired lazily, exactly like clause watches.

use crate::proof::DratProof;
use crate::types::{LBool, Lit, Var};

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

/// [`XorClause::normalized`] into a reused buffer: loads the sorted
/// unique variables of `⊕ lits = rhs` into `vars` (a variable appearing
/// twice cancels) and returns the folded parity.
pub(crate) fn normalize_xor(lits: &[Lit], rhs: bool, vars: &mut Vec<Var>) -> bool {
    let mut rhs = rhs;
    vars.clear();
    for l in lits {
        rhs ^= !l.is_positive();
        vars.push(l.var());
    }
    vars.sort_unstable();
    // Cancel equal neighbours as a stack, so `x ⊕ x ⊕ x` keeps one `x`.
    let mut kept = 0;
    for i in 0..vars.len() {
        if kept > 0 && vars[kept - 1] == vars[i] {
            kept -= 1;
        } else {
            vars[kept] = vars[i];
            kept += 1;
        }
    }
    vars.truncate(kept);
    rhs
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
    /// Derivation provenance: the set of input xor constraints (the
    /// proof log's origin ids) whose GF(2) sum, after substituting
    /// `units`, equals this row. Maintained by symmetric difference under
    /// every row operation, so `fold(origin) ⊕ fold(units) = (cols, rhs)`
    /// is an invariant. Empty in a run that does not log.
    origin: Vec<u32>,
    /// Top-level unit literals substituted into this row (each `l` stands
    /// for the singleton constraint `var(l) = polarity(l)`). Empty in a
    /// run that does not log.
    units: Vec<Lit>,
}

impl XorRow {
    /// A live row with no pivot or watches yet, for `XorEngine::install`.
    fn new(cols: Vec<u32>, rhs: bool, origin: Vec<u32>, units: Vec<Lit>) -> XorRow {
        XorRow {
            cols,
            rhs,
            watch: [NONE, NONE],
            pivot: NONE,
            alive: true,
            origin,
            units,
        }
    }
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
    /// Scratch for the row [`XorEngine::add`] reduces.
    reduced: Vec<u32>,
    /// Scratch for one [`sym_diff`] on column or origin lists.
    merge: Vec<u32>,
    /// Scratch for one [`sym_diff`] on unit lists.
    merge_units: Vec<Lit>,
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
    /// `id` is the constraint's origin id in the proof log, `None` when
    /// not logging: then every row's origin and unit lists stay empty.
    /// Returns `false` if the xor system became inconsistent.
    pub(crate) fn add(
        &mut self,
        vars: &[Var],
        rhs: bool,
        id: Option<u32>,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut Option<DratProof>,
    ) -> bool {
        let fresh = self.col_var.len() as u32;
        let mut origin: Vec<u32> = id.into_iter().collect();
        let mut umeta: Vec<Lit> = Vec::new();

        // Substitute fixed variables, map the rest onto columns.
        let mut rhs = rhs;
        let mut reduced = std::mem::take(&mut self.reduced);
        reduced.clear();
        for &v in vars {
            match assigns[v.index()] {
                LBool::Undef => reduced.push(self.col_for(v)),
                val => {
                    rhs ^= val == LBool::True;
                    if id.is_some() {
                        umeta.push(Lit::new(v, val == LBool::True));
                    }
                }
            }
        }
        umeta.sort_unstable();
        reduced.sort_unstable();

        // Reduce against existing pivots. Pivot rows contain no *other*
        // pivot column (RREF), so adding one never adds or cancels another
        // pivot: the rows to eliminate are exactly the owners of the
        // substituted row's own columns. Reducing by the owner of `c`
        // removes `c` and touches only non-pivot columns, so the walk
        // goes on with the columns above `c`.
        let mut at = 0;
        while let Some(&c) = reduced.get(at) {
            let owner = self.pivot_row[c as usize];
            if owner != NONE {
                let row = &self.rows[owner as usize];
                sym_diff(&mut reduced, &row.cols, &mut self.merge);
                rhs ^= row.rhs;
                sym_diff(&mut origin, &row.origin, &mut self.merge);
                sym_diff(&mut umeta, &row.units, &mut self.merge_units);
            }
            at = reduced.partition_point(|&x| x <= c);
        }

        let row = XorRow::new(reduced.clone(), rhs, origin, umeta);
        self.reduced = reduced;
        self.install(row, None, fresh, assigns, units, proof)
    }

    /// Re-pivots every live row whose pivot column has a level-0 value.
    ///
    /// Such a row's pivot no longer takes part in propagation, so any
    /// combination of rows that cancels the rest of it goes unseen. Each
    /// one has its assigned columns substituted (folded into `rhs`, and,
    /// when logging, into `units` so its provenance stays exact) and is
    /// reinstalled in
    /// its own slot on an unassigned pivot, which is eliminated from the
    /// other rows. A row that substitutes down to a unit or a constant is
    /// resolved on the spot. Implied units are pushed to `units`; returns
    /// `false` if the xor system became inconsistent.
    pub(crate) fn repivot(
        &mut self,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut Option<DratProof>,
    ) -> bool {
        // Rows are reinstalled in place, so `rows` does not grow here.
        for ri in 0..self.rows.len() {
            let row = &self.rows[ri];
            if !row.alive || self.col_value(row.pivot, assigns) == LBool::Undef {
                continue;
            }
            let umeta = if proof.is_some() {
                self.substituted_meta(ri, None, assigns)
            } else {
                Vec::new()
            };
            self.kill_row(ri);
            let row = &mut self.rows[ri];
            let mut rhs = row.rhs;
            let mut cols = std::mem::take(&mut row.cols);
            let origin = std::mem::take(&mut row.origin);
            cols.retain(|&c| match assigns[self.col_var[c as usize] as usize] {
                LBool::Undef => true,
                val => {
                    rhs ^= val == LBool::True;
                    false
                }
            });
            let row = XorRow::new(cols, rhs, origin, umeta);
            let no_fresh = self.col_var.len() as u32;
            if !self.install(row, Some(ri), no_fresh, assigns, units, proof) {
                return false;
            }
        }
        true
    }

    /// Installs a pivot-reduced row, which holds no other row's pivot, in
    /// `slot` (a new slot when `None`): its highest column becomes its
    /// pivot and is eliminated from every other live row, then its watches
    /// are set up. A pivot at or above `fresh` was created by the current
    /// [`add`](XorEngine::add), so no stored row holds it and the scan is
    /// skipped. Returns `false` on inconsistency.
    fn install(
        &mut self,
        mut row: XorRow,
        slot: Option<usize>,
        fresh: u32,
        assigns: &[LBool],
        units: &mut Vec<Lit>,
        proof: &mut Option<DratProof>,
    ) -> bool {
        let Some(&pivot) = row.cols.last() else {
            if row.rhs {
                log_xor(proof, &[], &row.origin, &row.units);
            }
            return !row.rhs;
        };
        if row.cols.len() == 1 {
            // Singleton: a top-level unit, not a stored row.
            let unit = Lit::new(
                Var::from_index(self.col_var[pivot as usize] as usize),
                row.rhs,
            );
            log_xor(proof, &[unit], &row.origin, &row.units);
            units.push(unit);
            return true;
        }

        // Gauss–Jordan: clear the new pivot column from every other row.
        if pivot < fresh {
            let mut touched: Vec<u32> = Vec::new();
            for ri in 0..self.rows.len() {
                let other = &mut self.rows[ri];
                if !other.alive || other.cols.binary_search(&pivot).is_err() {
                    continue;
                }
                sym_diff(&mut other.cols, &row.cols, &mut self.merge);
                other.rhs ^= row.rhs;
                sym_diff(&mut other.origin, &row.origin, &mut self.merge);
                sym_diff(&mut other.units, &row.units, &mut self.merge_units);
                touched.push(ri as u32);
            }
            let mut ok = true;
            for &ri in &touched {
                ok &= self.repair_row(ri as usize, assigns, units, proof);
            }
            if !ok {
                return false;
            }
        }

        row.pivot = pivot;
        let idx = match slot {
            Some(ri) => {
                self.rows[ri] = row;
                ri
            }
            None => {
                self.rows.push(row);
                self.rows.len() - 1
            }
        };
        self.pivot_row[pivot as usize] = idx as u32;
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
        proof: &mut Option<DratProof>,
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
        proof: &mut Option<DratProof>,
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
        sym_diff(&mut meta, &extra, &mut Vec::new());
        meta
    }

    /// The variables and parity of row `ri`, or `None` if it is dead
    /// (for [`Solver::audit`](crate::Solver::audit)'s reason checks).
    pub(crate) fn live_row(&self, ri: u32) -> Option<(impl Iterator<Item = usize> + '_, bool)> {
        let row = self.rows.get(ri as usize).filter(|r| r.alive)?;
        let vars = row.cols.iter().map(|&c| self.col_var[c as usize] as usize);
        Some((vars, row.rhs))
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
        if pivot != NONE && self.pivot_row[pivot as usize] == ri as u32 {
            self.pivot_row[pivot as usize] = NONE;
        }
        self.unwatch_row(ri);
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
    /// inverse, watches are registered, the column maps are bijective, and
    /// a run that is not `logging` keeps no provenance lists. Violations
    /// are appended to `errors` as human-readable strings.
    pub(crate) fn audit(&self, logging: bool, errors: &mut Vec<String>) {
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
            if !logging && (!row.origin.is_empty() || !row.units.is_empty()) {
                err(format!("row {ri} keeps provenance without a proof log"));
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
/// The result is merged into `tmp` and swapped into `dst`, so `tmp` takes
/// `dst`'s old buffer and repeated calls allocate nothing once the
/// buffers have grown.
fn sym_diff<T: Ord + Copy>(dst: &mut Vec<T>, src: &[T], tmp: &mut Vec<T>) {
    if src.is_empty() {
        return;
    }
    tmp.clear();
    tmp.reserve(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        let (a, b) = (dst[i], src[j]);
        if a == b {
            i += 1;
            j += 1;
        } else if a < b {
            tmp.push(a);
            i += 1;
        } else {
            tmp.push(b);
            j += 1;
        }
    }
    tmp.extend_from_slice(&dst[i..]);
    tmp.extend_from_slice(&src[j..]);
    std::mem::swap(dst, tmp);
}

/// Emits an xor-derived proof step if proof logging is on.
fn log_xor(proof: &mut Option<DratProof>, lits: &[Lit], origin: &[u32], units: &[Lit]) {
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
        // One merge buffer for every trial, as the engine keeps one.
        let mut tmp = Vec::new();
        for trial in 0..500 {
            let mut draw = |n: usize| -> Vec<u32> {
                let set: BTreeSet<u32> = (0..n).map(|_| rng.gen_index(24) as u32).collect();
                set.into_iter().collect()
            };
            let (mut dst, src) = (draw(trial % 13), draw(trial % 11));
            let a: BTreeSet<u32> = dst.iter().copied().collect();
            let b: BTreeSet<u32> = src.iter().copied().collect();
            let expect: Vec<u32> = a.symmetric_difference(&b).copied().collect();
            sym_diff(&mut dst, &src, &mut tmp);
            assert_eq!(dst, expect, "trial {trial}: {a:?} ^ {b:?}");
        }
    }

    #[test]
    fn engine_reduces_duplicate_rows_to_nothing() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof = None;
        let vars: Vec<Var> = (0..3).map(Var::from_index).collect();
        assert!(eng.add(&vars, true, None, &assigns, &mut units, &mut proof));
        assert_eq!(eng.num_rows(), 1);
        // The same row again is redundant.
        assert!(eng.add(&vars, true, None, &assigns, &mut units, &mut proof));
        assert_eq!(eng.num_rows(), 1);
        assert!(units.is_empty());
        // The same row with flipped parity is inconsistent.
        assert!(!eng.add(&vars, false, None, &assigns, &mut units, &mut proof));
    }

    #[test]
    fn engine_derives_units_by_elimination() {
        // x0 ⊕ x1 = 1 and x0 ⊕ x1 ⊕ x2 = 1 force x2 = 0 by row reduction.
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof = None;
        let v: Vec<Var> = (0..3).map(Var::from_index).collect();
        assert!(eng.add(&[v[0], v[1]], true, None, &assigns, &mut units, &mut proof));
        assert!(eng.add(
            &[v[0], v[1], v[2]],
            true,
            None,
            &assigns,
            &mut units,
            &mut proof
        ));
        assert_eq!(units, vec![Lit::negative(v[2])]);
        assert_eq!(eng.num_rows(), 1, "the combined row dies into the unit");
    }

    #[test]
    fn repivot_moves_pivots_off_level_zero_units() {
        let mut eng = XorEngine::default();
        let mut assigns = vec![LBool::Undef; 6];
        let mut units = Vec::new();
        let mut proof = None;
        let v: Vec<Var> = (0..6).map(Var::from_index).collect();
        let input: [(&[usize], bool); 3] =
            [(&[0, 1, 2], true), (&[1, 3, 4], false), (&[2, 4, 5], true)];
        for (cols, rhs) in input {
            let vars: Vec<Var> = cols.iter().map(|&i| v[i]).collect();
            assert!(eng.add(&vars, rhs, None, &assigns, &mut units, &mut proof));
        }
        assert!(units.is_empty());
        // Each row pivots on its highest column: x2, x4, then x5.
        let pivots: Vec<u32> = eng.rows.iter().map(|r| r.pivot).collect();
        assert_eq!(pivots, vec![2, 4, 5]);

        // Units land on the first two pivots.
        assigns[2] = LBool::True;
        assigns[4] = LBool::False;
        assert!(eng.repivot(&assigns, &mut units, &mut proof));
        // x0 ⊕ x1 = 0 and x0 ⊕ x3 = 0 remain, and the third row reduces
        // to the unit x5 = 0.
        assert_eq!(units, vec![Lit::negative(v[5])]);
        assert_eq!(eng.rows.len(), 3, "rows are reinstalled in their own slots");
        for row in eng.rows.iter().filter(|r| r.alive) {
            assert_eq!(eng.col_value(row.pivot, &assigns), LBool::Undef);
        }
        let mut errors = Vec::new();
        eng.audit(false, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");

        // The rows and derived units still have the input's solutions
        // among the assignments that agree with the level-0 units.
        let rows = eng.export();
        for bits in 0..64u32 {
            let a: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            if !a[2] || a[4] {
                continue;
            }
            let original = input
                .iter()
                .all(|(cols, rhs)| cols.iter().fold(false, |acc, &i| acc ^ a[i]) == *rhs);
            let kept = rows.iter().all(|r| r.eval(&a))
                && units.iter().all(|u| a[u.var().index()] == u.is_positive());
            assert_eq!(original, kept, "assignment {a:?}");
        }
    }

    #[test]
    fn audit_flags_unsorted_columns() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 4];
        let mut units = Vec::new();
        let mut proof = None;
        let v: Vec<Var> = (0..4).map(Var::from_index).collect();
        assert!(eng.add(&v, true, None, &assigns, &mut units, &mut proof));
        let mut errors = Vec::new();
        eng.audit(false, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(eng.rows[0].cols, vec![0, 1, 2, 3]);
        // Out of order, then duplicated: both break the sparse-row shape.
        eng.rows[0].cols.swap(1, 2);
        eng.audit(false, &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("not strictly ascending")),
            "{errors:?}"
        );
        errors.clear();
        eng.rows[0].cols = vec![0, 1, 1, 3];
        eng.audit(false, &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("not strictly ascending")),
            "{errors:?}"
        );
        // Provenance is kept only while a proof log is attached.
        eng.rows[0].cols = vec![0, 1, 2, 3];
        for (origin, units) in [(vec![0], vec![]), (vec![], vec![Lit::negative(v[1])])] {
            (eng.rows[0].origin, eng.rows[0].units) = (origin, units);
            errors.clear();
            eng.audit(true, &mut errors);
            assert!(errors.is_empty(), "{errors:?}");
            eng.audit(false, &mut errors);
            assert!(
                errors
                    .iter()
                    .any(|e| e.contains("provenance without a proof log")),
                "{errors:?}"
            );
        }
    }

    #[test]
    fn export_is_an_equivalent_system() {
        let mut eng = XorEngine::default();
        let assigns = vec![LBool::Undef; 8];
        let mut units = Vec::new();
        let mut proof = None;
        let v: Vec<Var> = (0..4).map(Var::from_index).collect();
        eng.add(
            &[v[0], v[1], v[2]],
            true,
            None,
            &assigns,
            &mut units,
            &mut proof,
        );
        eng.add(
            &[v[1], v[2], v[3]],
            false,
            None,
            &assigns,
            &mut units,
            &mut proof,
        );
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
