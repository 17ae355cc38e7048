//! The CDCL search core.
//!
//! Architecture follows MiniSat 2.2: a trail-based backtracking search with
//! two-watched-literal propagation, first-UIP clause learning, VSIDS
//! branching, phase saving, Luby restarts and activity-driven learnt-clause
//! database reduction. Clauses live in the [`ClauseDb`] arena; watch lists
//! and clause reasons hold [`ClauseRef`] handles and are remapped through
//! the arena's forwarding table when it compacts. An xor implication's
//! reason is its row ([`Reason::Xor`]); analysis reads the row's literals
//! on demand and nothing enters the arena.
//!
//! A certifying run ([`Solver::enable_proof`], its one switch, turned on
//! before the first constraint) hands every input constraint to the
//! proof log verbatim, and logs each learnt clause with the proof ids of
//! the reasons analysis resolved on and minimization walked through, as
//! hints for the checker ([`crate::proof`]). Every id comes from the
//! log; the solver caches none. Every hint-collecting site sits behind a
//! branch on the log, so a run without one does no extra work per
//! conflict.

use std::collections::HashMap;

use crate::budget::Budget;
use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::proof::DratProof;
use crate::types::{LBool, Lit, Var};
use crate::xor::{normalize_xor, XorEngine, XorImplication};

/// Outcome of a [`Solver::solve`] / [`Solver::solve_assuming`] /
/// [`Solver::solve_limited`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable (under the assumptions, if any were
    /// given).
    Unsat,
    /// The [`Budget`] ran out before the search reached an answer
    /// (only [`Solver::solve_limited`] can return this). The solver is
    /// left warm at decision level 0 with every learnt clause retained:
    /// call again — with or without a budget — to resume the search, or
    /// add more constraints first. No model is available.
    Unknown,
}

/// Work counters accumulated over the lifetime of a [`Solver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals assigned by unit propagation or decision (trail pushes).
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added (including unit learnts): one per conflict
    /// analyzed above level 0. Xor implications add none (their reason is
    /// the row itself), so this never exceeds [`SolverStats::conflicts`].
    pub learnt_clauses: u64,
    /// Literals removed from learnt clauses by reason-side minimization.
    pub minimized_literals: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Literals implied by the GF(2) xor engine during search (also
    /// counted in [`SolverStats::propagations`]). Each keeps its row as
    /// the reason; none adds a clause.
    pub xor_propagations: u64,
    /// Conflicts detected by the GF(2) xor engine (also counted in
    /// [`SolverStats::conflicts`] when found during search).
    pub xor_conflicts: u64,
    /// Solve calls that returned [`SolveResult::Unknown`] because their
    /// [`Budget`] ran out.
    pub budget_exhaustions: u64,
}

/// What one bounded [`Solver::search`] episode concluded.
enum SearchOutcome {
    /// Full satisfying assignment found.
    Sat,
    /// Refuted (at level 0, or under the call's assumptions).
    Unsat,
    /// Restart budget spent; caller restarts the episode.
    Restart,
    /// The call's conflict cap was reached mid-search.
    OutOfBudget,
}

/// Why an assigned variable holds its value: the clause that became unit,
/// or the xor row whose other columns were all assigned. A conflict is
/// reported the same way (a falsified clause, or a violated row). A row
/// reason allocates nothing; [`Solver::load_reason`] reads its literals
/// off the row when analysis asks for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Clause(ClauseRef),
    Xor(u32),
}

/// A watch-list entry: the watched clause plus a cached *blocker* literal
/// from the same clause. If the blocker is already true the clause cannot
/// be unit, and propagation skips it without touching the arena.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    blocker: Lit,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f32 = 0.999;
const VAR_RESCALE: f64 = 1e100;
const CLA_RESCALE: f32 = 1e20;
const RESTART_BASE: u64 = 100;

/// A conflict-driven clause-learning SAT solver.
///
/// See the crate-level documentation for the feature set and an example.
/// The solver is incremental: clauses may be added between `solve` calls
/// and each call may carry its own assumptions.
#[derive(Debug, Default)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by `lit.index()`: clauses to inspect when `lit`
    /// becomes **true** (they watch `¬lit`).
    watches: Vec<Vec<Watch>>,
    /// Current assignment, per variable.
    assigns: Vec<LBool>,
    /// Saved polarity, per variable (phase saving).
    phase: Vec<bool>,
    /// Implying clause or xor row, per assigned variable (`None` for
    /// decisions, assumptions and top-level units).
    reason: Vec<Option<Reason>>,
    /// Decision level of the assignment, per assigned variable.
    level: Vec<u32>,
    /// Assignment stack in chronological order.
    trail: Vec<Lit>,
    /// `trail` index where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next `trail` position to propagate.
    qhead: usize,
    /// VSIDS activity, per variable.
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    cla_inc: f32,
    /// Live learnt clauses (for database reduction).
    learnts: Vec<ClauseRef>,
    max_learnts: f64,
    /// Per-variable scratch marks for conflict analysis.
    seen: Vec<bool>,
    /// Literals whose `seen` marks must be cleared after analysis.
    analyze_toclear: Vec<Lit>,
    /// False once the clause set is known unsatisfiable at level 0.
    ok: bool,
    /// Model captured at the last `Sat` answer, per variable.
    model: Vec<Option<bool>>,
    /// Native xor constraints: the in-solver GF(2) engine.
    xors: XorEngine,
    /// Scratch buffer for xor implications (reused across propagations).
    xor_props: Vec<XorImplication>,
    /// The literals of the reason analysis is reading
    /// ([`Solver::load_reason`]).
    reason_lits: Vec<Lit>,
    /// Proof ids of the reasons the first-UIP walk resolved, conflict
    /// first (logging only; emptied into `learnt_hints`).
    analyze_hints: Vec<i64>,
    /// The hints of the learnt clause analysis just built, in the order
    /// the checker walks them (logging only).
    learnt_hints: Vec<i64>,
    /// Scratch for the clause of an `x` line being logged.
    xor_clause: Vec<Lit>,
    /// Scratch for the simplified literals of a clause being added.
    add_lits: Vec<Lit>,
    /// Scratch for the normalized variables of an xor being added.
    add_vars: Vec<Var>,
    /// Scratch for the level-0 units the xor engine derives.
    xor_units: Vec<Lit>,
    /// Scratch stack of [`Solver::minimization_hints`].
    hint_walk: Vec<(Var, Option<i64>)>,
    /// Proof log of a certifying run ([`Solver::enable_proof`]), which
    /// also records the inputs; `None` (the default) makes every logging
    /// site a single branch.
    proof: Option<DratProof>,
    stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            order: VarHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Introduces a fresh variable, initially unassigned with saved phase
    /// `false`.
    pub fn new_var(&mut self) -> Var {
        let v = self.assigns.len();
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.model.push(None);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(v + 1);
        self.order.insert(v, &self.activity);
        Var::from_index(v)
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem (non-learnt) clauses of length ≥ 2. Unit
    /// clauses are absorbed into the top-level assignment instead of being
    /// stored.
    pub fn num_clauses(&self) -> usize {
        self.db.num_original
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.db.num_learnt
    }

    /// Work counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Starts a proof log, the one switch of a certifying run: every
    /// constraint added from here on is recorded verbatim in the log's
    /// formula ([`DratProof::formula`]), and every inference is written
    /// to its text (DRAT+xor, see [`crate::proof`]). Enable **before**
    /// the first constraint: the formula must hold every input, and
    /// add-time xor eliminations derive facts too. [`Solver::to_cnf`] is
    /// no substitute for the recorded formula: it snapshots the
    /// *processed* state, whose trail units are themselves unverified
    /// solver derivations.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(DratProof::new(self.num_vars()));
        }
    }

    /// The proof log, if [`Solver::enable_proof`] was called.
    pub fn proof(&self) -> Option<&DratProof> {
        self.proof.as_ref()
    }

    /// Moves the proof log out of the solver, which logs nothing more.
    pub fn take_proof(&mut self) -> Option<DratProof> {
        self.proof.take()
    }

    /// Logs a clause addition step with its antecedent hints if proof
    /// logging is on. Returns the step's id (`0` when not logged).
    fn log_add(&mut self, lits: &[Lit], hints: &[i64]) -> i64 {
        self.proof.as_mut().map_or(0, |p| p.add_clause(lits, hints))
    }

    /// Logs the deletion of `cref` by its proof id if proof logging is on.
    /// A clause without an id (`0`) is not logged: the checker keeps it,
    /// which is sound, since every clause it holds is implied.
    fn log_delete(&mut self, cref: ClauseRef) {
        let id = self.db.proof_id(cref);
        if let Some(p) = self.proof.as_mut().filter(|_| id != 0) {
            p.delete_clause(id);
        }
    }

    /// The proof id of `reason`, for a hint: the clause's own id, or the
    /// id of the row's `x` line, logged now unless the log already holds
    /// its literal set. For a row, `reason_lits` must hold what
    /// [`Solver::load_reason`] just read off it. Call only while logging.
    fn reason_id(&mut self, reason: Reason, implied: Option<Var>) -> i64 {
        match reason {
            Reason::Clause(cref) => self.db.proof_id(cref),
            Reason::Xor(row) => self.log_xor_reason(row, implied),
        }
    }

    /// Logs row `row`'s clause as an `x` line and returns its id: the
    /// trail literal of `implied` (when given) followed by `reason_lits`.
    /// The log writes each literal set once, so a reason cited again
    /// returns the first line's id.
    fn log_xor_reason(&mut self, row: u32, implied: Option<Var>) -> i64 {
        let Some(p) = self.proof.as_mut() else {
            return 0;
        };
        let clause = &mut self.xor_clause;
        clause.clear();
        if let Some(v) = implied {
            clause.push(Lit::new(v, self.assigns[v.index()] == LBool::True));
        }
        clause.extend_from_slice(&self.reason_lits);
        let (origin, units) = self.xors.row_meta(row);
        p.add_xor_derived(clause, origin, units)
    }

    /// Records a conflict at decision level 0: logs the refutation, citing
    /// the conflict (after logging a conflicting row's `x` line), and
    /// marks the clause set unsatisfiable.
    fn refute(&mut self, confl: Reason) {
        if self.proof.is_some() {
            self.load_reason(confl, None);
            let id = self.reason_id(confl, None);
            self.log_add(&[], &[id]);
        }
        self.ok = false;
    }

    /// Whether the clause set has been proven unsatisfiable at the top
    /// level (in which case every future [`Solver::solve`] call returns
    /// [`SolveResult::Unsat`] immediately).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The model value of `var` from the most recent [`SolveResult::Sat`]
    /// answer, or `None` if the last call did not return `Sat` or `var` was
    /// not created by this solver.
    pub fn value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index()).copied().flatten()
    }

    /// The model value of a literal (see [`Solver::value`]).
    pub fn lit_model_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|b| b == lit.is_positive())
    }

    /// Snapshots the current problem as a [`crate::dimacs::Cnf`]: the
    /// top-level assignment as unit clauses, every live original clause,
    /// and the live xor rows as `x`-line constraints. Learnt clauses are
    /// omitted (they are implied). The exported xors are the engine's
    /// reduced row-echelon form — an equivalent system, not a textual copy
    /// of what was added. Call between `solve` calls, i.e. at decision
    /// level 0.
    pub fn to_cnf(&self) -> crate::dimacs::Cnf {
        debug_assert_eq!(self.decision_level(), 0);
        let mut cnf = crate::dimacs::Cnf::new(self.num_vars());
        if !self.ok {
            cnf.add_clause(Vec::new());
            return cnf;
        }
        for &l in &self.trail {
            cnf.add_clause(vec![l]);
        }
        for cref in self.db.iter_refs() {
            if !self.db.is_learnt(cref) {
                let lits: Vec<Lit> = self
                    .db
                    .lits(cref)
                    .iter()
                    .map(|&raw| Lit::from_index(raw as usize))
                    .collect();
                cnf.add_clause(lits);
            }
        }
        for x in self.xors.export() {
            cnf.add_xor(x.lits, x.rhs);
        }
        cnf
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is now known unsatisfiable at the top
    /// level (e.g. the clause was empty after simplification, or a
    /// top-level propagation it triggered conflicted); `true` otherwise.
    /// Duplicate literals are removed, tautologies are dropped, and
    /// literals already false at level 0 are simplified away.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable not created with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        for l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "unknown variable {}",
                l.var()
            );
        }
        // Recorded even once refuted: the log's formula is every input.
        let id = self.proof.as_mut().map_or(0, |p| p.input_clause(lits));
        if !self.ok {
            return false;
        }
        let mut out = std::mem::take(&mut self.add_lits);
        let ok = if !self.simplify_clause(lits, &mut out) {
            true // a tautology, or satisfied at level 0
        } else {
            match out.len() {
                0 => {
                    // Every literal is false at level 0: the clause itself
                    // is the conflict.
                    self.log_add(&[], &[id]);
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(out[0], None);
                    if let Some(confl) = self.propagate() {
                        self.refute(confl);
                    }
                    self.ok
                }
                _ => {
                    let cref = self.db.alloc(&out, false, id);
                    self.attach_clause(cref);
                    true
                }
            }
        };
        self.add_lits = out;
        ok
    }

    /// Loads `lits` into `out` sorted by packed code, without duplicates
    /// and without literals false at level 0. Sorting makes the two
    /// polarities of one variable adjacent, so duplicates and tautologies
    /// are local checks. Returns `false` if the clause is a tautology or
    /// satisfied at level 0 (`out` is then partial).
    fn simplify_clause(&self, lits: &[Lit], out: &mut Vec<Lit>) -> bool {
        out.clear();
        out.extend_from_slice(lits);
        out.sort_unstable();
        out.dedup();
        let mut kept = 0;
        for i in 0..out.len() {
            let l = out[i];
            if kept > 0 && out[kept - 1] == !l {
                return false; // tautology: contains l and ¬l
            }
            match self.lit_value(l) {
                LBool::True => return false, // satisfied at level 0
                LBool::False => {}           // falsified at level 0: drop
                LBool::Undef => {
                    out[kept] = l;
                    kept += 1;
                }
            }
        }
        out.truncate(kept);
        true
    }

    /// Adds a native parity constraint: the XOR of `lits` must equal
    /// `rhs`.
    ///
    /// The constraint goes to the in-solver GF(2) engine (incremental
    /// Gauss–Jordan plus watched-column propagation during search), not
    /// through a Tseitin clause expansion — see [`crate::xor`]. Signs
    /// fold into `rhs` and duplicate variables cancel. Returns `false` if
    /// the solver is now known unsatisfiable at the top level. The
    /// trivially true empty constraint (`⊕ ∅ = 0`) is ignored, as
    /// [`crate::dimacs::Cnf::add_xor`] ignores it: the proof log neither
    /// records nor numbers it.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable not created with
    /// [`Solver::new_var`].
    pub fn add_xor(&mut self, lits: &[Lit], rhs: bool) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "xors are added at level 0");
        if lits.is_empty() && !rhs {
            return self.ok;
        }
        for l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "unknown variable {}",
                l.var()
            );
        }
        // Recorded even once refuted, as `add_clause` records.
        let origin = self.proof.as_mut().map(|p| p.input_xor(lits, rhs));
        if !self.ok {
            return false;
        }
        let rhs = normalize_xor(lits, rhs, &mut self.add_vars);
        let mut units = std::mem::take(&mut self.xor_units);
        units.clear();
        let ok = if self.xors.add(
            &self.add_vars,
            rhs,
            origin,
            &self.assigns,
            &mut units,
            &mut self.proof,
        ) {
            self.assert_xor_units(&units)
        } else {
            // The engine logged the inconsistent row as an empty x-line.
            self.ok = false;
            false
        };
        self.xor_units = units;
        ok
    }

    /// Enqueues the level-0 units the xor engine derived (each already
    /// logged by the engine) and propagates them. Returns `false` if the
    /// solver is now known unsatisfiable at the top level.
    fn assert_xor_units(&mut self, units: &[Lit]) -> bool {
        for &u in units {
            match self.lit_value(u) {
                LBool::True => {}
                LBool::False => {
                    // The derived unit contradicts the level-0 trail: the
                    // empty clause is now RUP.
                    self.log_add(&[], &[]);
                    self.ok = false;
                    return false;
                }
                LBool::Undef => self.unchecked_enqueue(u, None),
            }
        }
        if let Some(confl) = self.propagate() {
            self.refute(confl);
        }
        self.ok
    }

    /// Number of live xor rows held by the GF(2) engine. The engine keeps
    /// the system in reduced row-echelon form, so this is the rank of the
    /// added xor system minus constraints absorbed into top-level units.
    pub fn num_xors(&self) -> usize {
        self.xors.num_rows()
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_assuming(&[])
    }

    /// Solves under `assumptions`: each assumption literal is forced true
    /// for this call only (they act as pre-made decisions). A
    /// [`SolveResult::Unsat`] answer under assumptions does **not** poison
    /// the solver — later calls with different assumptions may still be
    /// satisfiable.
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to a variable not created with
    /// [`Solver::new_var`].
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, &Budget::new())
    }

    /// Solves under `assumptions` with a per-call conflict [`Budget`].
    ///
    /// Identical to [`Solver::solve_assuming`] until the conflict cap is
    /// reached, at which point the call backtracks to decision level 0 and
    /// returns [`SolveResult::Unknown`] with the solver *warm*: every
    /// clause learnt so far is retained, `is_ok` is untouched, and a
    /// follow-up call (same or different assumptions, bigger or no
    /// budget) resumes the search rather than starting over. Exhaustions
    /// are counted in [`SolverStats::budget_exhaustions`].
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to a variable not created with
    /// [`Solver::new_var`].
    pub fn solve_limited(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveResult {
        debug_assert_eq!(self.decision_level(), 0);
        for l in assumptions {
            assert!(
                l.var().index() < self.num_vars(),
                "unknown variable {}",
                l.var()
            );
        }
        for m in &mut self.model {
            *m = None;
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Some(confl) = self.propagate() {
            self.refute(confl);
            return SolveResult::Unsat;
        }
        // Level-0 units may have landed on xor pivots since the last call;
        // re-pivoting those rows exposes the dependencies they hid.
        let mut units = std::mem::take(&mut self.xor_units);
        units.clear();
        let ok = if self
            .xors
            .repivot(&self.assigns, &mut units, &mut self.proof)
        {
            self.assert_xor_units(&units)
        } else {
            self.ok = false;
            false
        };
        self.xor_units = units;
        if !ok {
            return SolveResult::Unsat;
        }
        self.max_learnts = (self.db.num_original as f64 / 3.0).max(1000.0);

        // The per-call budget as a cap on the lifetime conflict counter.
        let conflict_cap = budget
            .conflicts
            .map(|c| self.stats.conflicts.saturating_add(c));
        let mut curr_restarts = 0u64;
        loop {
            let restart_cap = RESTART_BASE * luby(2, curr_restarts);
            let status = self.search(restart_cap, assumptions, conflict_cap);
            match status {
                SearchOutcome::Sat => {
                    for (v, &a) in self.assigns.iter().enumerate() {
                        self.model[v] = match a {
                            LBool::True => Some(true),
                            LBool::False => Some(false),
                            // Unreachable in practice (search assigns every
                            // variable before answering Sat), but a default
                            // keeps the model total.
                            LBool::Undef => Some(false),
                        };
                    }
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    #[cfg(debug_assertions)]
                    {
                        let errs = self.audit();
                        assert!(errs.is_empty(), "solver audit failed at restart: {errs:#?}");
                    }
                }
                SearchOutcome::OutOfBudget => {
                    self.cancel_until(0);
                    self.stats.budget_exhaustions += 1;
                    return SolveResult::Unknown;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL until SAT, UNSAT, `max_conflicts` conflicts (restart), or
    /// the lifetime conflict count reaches `conflict_cap`.
    fn search(
        &mut self,
        max_conflicts: u64,
        assumptions: &[Lit],
        conflict_cap: Option<u64>,
    ) -> SearchOutcome {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    // Conflict independent of any decision or assumption.
                    self.refute(confl);
                    return SearchOutcome::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl);
                let hints = std::mem::take(&mut self.learnt_hints);
                let id = self.log_add(&learnt, &hints);
                self.learnt_hints = hints;
                self.cancel_until(backtrack);
                self.stats.learnt_clauses += 1;
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.db.alloc(&learnt, true, id);
                    self.learnts.push(cref);
                    self.attach_clause(cref);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(learnt[0], Some(Reason::Clause(cref)));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if conflict_cap.is_some_and(|cap| self.stats.conflicts >= cap) {
                    return SearchOutcome::OutOfBudget;
                }
            } else {
                if conflict_cap.is_some_and(|cap| self.stats.conflicts >= cap) {
                    return SearchOutcome::OutOfBudget;
                }
                if conflicts >= max_conflicts {
                    return SearchOutcome::Restart;
                }
                if self.learnts.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                }

                // Take the next unsatisfied assumption as the decision, or
                // fall back to VSIDS once all assumptions hold.
                let mut next: Option<Lit> = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already true: open a dummy level so the
                            // level ↔ assumption-index correspondence holds.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return SearchOutcome::Unsat,
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => p,
                        None => return SearchOutcome::Sat, // full assignment
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Current decision level.
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Picks an unassigned variable by VSIDS activity, signed by its saved
    /// phase.
    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v] == LBool::Undef {
                return Some(Lit::new(Var::from_index(v), self.phase[v]));
            }
        }
        None
    }

    /// Undoes all assignments above `level`, saving phases and returning
    /// variables to the order heap.
    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for idx in (lim..self.trail.len()).rev() {
            let p = self.trail[idx];
            let v = p.var().index();
            self.phase[v] = p.is_positive();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = lim;
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    /// Current truth value of a literal.
    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.is_positive()),
            LBool::False => LBool::from_bool(!l.is_positive()),
        }
    }

    /// Records `p` as true at the current level with the given reason.
    fn unchecked_enqueue(&mut self, p: Lit, reason: Option<Reason>) {
        let v = p.var().index();
        debug_assert_eq!(self.assigns[v], LBool::Undef);
        self.assigns[v] = LBool::from_bool(p.is_positive());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(p);
        self.stats.propagations += 1;
    }

    /// Starts watching a clause on its first two literals.
    fn attach_clause(&mut self, cref: ClauseRef) {
        let c0 = self.db.lit(cref, 0);
        let c1 = self.db.lit(cref, 1);
        self.watches[(!c0).index()].push(Watch { cref, blocker: c1 });
        self.watches[(!c1).index()].push(Watch { cref, blocker: c0 });
    }

    /// Removes a clause's two watch entries.
    fn detach_clause(&mut self, cref: ClauseRef) {
        for i in 0..2 {
            let w = (!self.db.lit(cref, i)).index();
            let pos = self.watches[w]
                .iter()
                .position(|e| e.cref == cref)
                .expect("watch entry present");
            self.watches[w].swap_remove(pos);
        }
    }

    /// Propagates all enqueued assignments. Returns the conflicting clause
    /// or xor row if one is found, `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<Reason> {
        let mut confl: Option<Reason> = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;

            // Take the list so the arena and other lists stay borrowable.
            // New watches are only ever pushed onto *other* literals' lists
            // (the replacement watch is never `¬p`).
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            'next_watch: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Cheap pre-check: a true blocker means the clause is
                // already satisfied.
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalize: the falsified watched literal sits at slot 1.
                if self.db.lit(cref, 0) == false_lit {
                    let other = self.db.lit(cref, 1);
                    self.db.set_lit(cref, 0, other);
                    self.db.set_lit(cref, 1, false_lit);
                }
                debug_assert_eq!(self.db.lit(cref, 1), false_lit);
                let first = self.db.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watch {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                for k in 2..self.db.len(cref) {
                    let l = self.db.lit(cref, k);
                    if self.lit_value(l) != LBool::False {
                        self.db.swap_lits(cref, 1, k);
                        self.watches[(!l).index()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        continue 'next_watch;
                    }
                }
                // Clause is unit (or conflicting) under the current
                // assignment; keep the watch.
                ws[j] = Watch {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    confl = Some(Reason::Clause(cref));
                    self.qhead = self.trail.len();
                    // Copy the rest of the list back verbatim.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(Reason::Clause(cref)));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            // GF(2) engine: wake xor rows watching this variable. Runs
            // after the clause watches of `p`, before the next trail
            // literal, so xor and unit propagation interleave.
            if confl.is_none() && self.xors.involves(p.var().index()) {
                confl = self.propagate_xor(p.var().index());
            }
            if confl.is_some() {
                break;
            }
        }
        confl
    }

    /// Processes the xor rows watching variable `v` after its assignment.
    /// An implication is enqueued with its row as the reason; a violated
    /// row is returned as the conflict. Neither allocates a clause.
    fn propagate_xor(&mut self, v: usize) -> Option<Reason> {
        let mut props = std::mem::take(&mut self.xor_props);
        props.clear();
        let conflict_row = self.xors.on_assign(v, &self.assigns, &mut props);
        let mut confl = None;
        for imp in &props {
            match self.lit_value(imp.lit) {
                // Another implication from this batch already assigned it
                // consistently.
                LBool::True => {}
                LBool::Undef => {
                    let reason = Reason::Xor(imp.row);
                    self.unchecked_enqueue(imp.lit, Some(reason));
                    self.stats.xor_propagations += 1;
                    // Analysis never reads a level-0 reason, but the proof
                    // checker needs the unit for later RUP steps.
                    if self.decision_level() == 0 && self.proof.is_some() {
                        self.load_reason(reason, Some(imp.lit.var()));
                        self.reason_id(reason, Some(imp.lit.var()));
                    }
                }
                // Two rows disagreed on the variable: the later row is now
                // fully falsified.
                LBool::False => {
                    confl = Some(Reason::Xor(imp.row));
                    break;
                }
            }
        }
        let confl = confl.or(conflict_row.map(Reason::Xor));
        if confl.is_some() {
            self.stats.xor_conflicts += 1;
            self.qhead = self.trail.len();
        }
        self.xor_props = props;
        confl
    }

    /// Fills `reason_lits` with the false literals `reason` contributes to
    /// analysis: the clause minus its implied first literal, or the row's
    /// columns other than `implied`, each read as the literal the
    /// assignment falsifies. A conflict (`implied == None`) contributes
    /// every literal. Reading logs nothing: a reason enters the proof
    /// when analysis cites it ([`Solver::reason_id`]).
    fn load_reason(&mut self, reason: Reason, implied: Option<Var>) {
        self.reason_lits.clear();
        match reason {
            Reason::Clause(cref) => {
                let skip = usize::from(implied.is_some());
                let lits = &self.db.lits(cref)[skip..];
                self.reason_lits
                    .extend(lits.iter().map(|&raw| Lit::from_index(raw as usize)));
            }
            Reason::Xor(row) => {
                self.xors
                    .reason_lits(row, implied, &self.assigns, &mut self.reason_lits);
            }
        }
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to. While logging, also
    /// leaves the clause's hints in `learnt_hints`: the reasons that
    /// rederive the literals minimization removed, then the reasons the
    /// walk resolved on in trail order, then the conflict.
    fn analyze(&mut self, confl: Reason) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // slot 0 = asserting lit
        let mut counter = 0usize; // literals of the current level still to resolve
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let logging = self.proof.is_some();

        loop {
            if let Reason::Clause(cref) = confl {
                if self.db.is_learnt(cref) {
                    self.cla_bump(cref);
                }
            }
            // A reason contributes all but the literal it implied; the
            // original conflict contributes everything.
            self.load_reason(confl, p.map(Lit::var));
            if logging {
                let id = self.reason_id(confl, p.map(Lit::var));
                self.analyze_hints.push(id);
            }
            for k in 0..self.reason_lits.len() {
                let q = self.reason_lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(v);
                    if self.level[v] as usize >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pivot = self.trail[index];
            let v = pivot.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pivot; // the first UIP
                break;
            }
            p = Some(pivot);
            confl = self.reason[v].expect("non-decision literal has a reason");
        }

        // Reason-side minimization: drop any learnt literal whose negation
        // is implied by the rest of the clause through reason chains.
        self.analyze_toclear = learnt.clone();
        let abstract_levels = learnt[1..]
            .iter()
            .fold(0u32, |m, l| m | self.abstract_level(l.var().index()));
        let before = learnt.len();
        let mut removed: Vec<Lit> = Vec::new();
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()].is_none() || !self.lit_redundant(l, abstract_levels) {
                learnt[j] = l;
                j += 1;
            } else if logging {
                removed.push(l);
            }
        }
        learnt.truncate(j);
        self.stats.minimized_literals += (before - learnt.len()) as u64;

        // Clear the scratch marks (including those set by lit_redundant).
        for idx in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[idx].var().index();
            self.seen[v] = false;
        }
        self.analyze_toclear.clear();

        if logging {
            self.learnt_hints.clear();
            if !removed.is_empty() {
                self.minimization_hints(&learnt, &removed);
            }
            // The walk cited the conflict first and then went down the
            // trail: reversed, that is trail order with the conflict last.
            let hints = self.analyze_hints.drain(..).rev().filter(|&id| id != 0);
            self.learnt_hints.extend(hints);
        }

        // Backtrack level: the second-highest level in the clause; that
        // literal moves to slot 1 so it is watched after attachment.
        if learnt.len() == 1 {
            return (learnt, 0);
        }
        let mut max_i = 1;
        for i in 2..learnt.len() {
            if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                max_i = i;
            }
        }
        learnt.swap(1, max_i);
        let backtrack = self.level[learnt[1].var().index()] as usize;
        (learnt, backtrack)
    }

    /// Appends to `learnt_hints` the reasons that rederive the negation of
    /// each `removed` literal, in an order the checker can walk: every
    /// other literal of a cited reason is in `learnt`, false at level 0,
    /// or rederived by a reason cited before it. A post-order walk over
    /// the reasons, with the learnt clause's variables as its leaves.
    /// Minimization proved each removed literal redundant, so the walk
    /// only meets implied variables; one without a reason is skipped,
    /// which costs the checker a propagation fallback, never soundness.
    fn minimization_hints(&mut self, learnt: &[Lit], removed: &[Lit]) {
        debug_assert!(self.analyze_toclear.is_empty());
        for &l in learnt {
            self.seen[l.var().index()] = true;
        }
        // `(v, None)` visits `v`; `(v, Some(id))` cites its reason once
        // everything the reason needs has been cited.
        let mut stack = std::mem::take(&mut self.hint_walk);
        stack.extend(removed.iter().map(|l| (l.var(), None)));
        while let Some((v, cite)) = stack.pop() {
            if let Some(id) = cite {
                if id != 0 {
                    self.learnt_hints.push(id);
                }
                continue;
            }
            let vi = v.index();
            let Some(reason) = self.reason[vi].filter(|_| !self.seen[vi]) else {
                continue;
            };
            self.seen[vi] = true;
            self.analyze_toclear.push(Lit::positive(v));
            self.load_reason(reason, Some(v));
            let id = self.reason_id(reason, Some(v));
            stack.push((v, Some(id)));
            for k in 0..self.reason_lits.len() {
                let u = self.reason_lits[k].var();
                if !self.seen[u.index()] && self.level[u.index()] > 0 {
                    stack.push((u, None));
                }
            }
        }
        self.hint_walk = stack;
        for &l in learnt {
            self.seen[l.var().index()] = false;
        }
        for l in self.analyze_toclear.drain(..) {
            self.seen[l.var().index()] = false;
        }
    }

    /// One-hot abstraction of a decision level, for the cheap set test in
    /// [`Solver::lit_redundant`].
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// Whether `p` is redundant in the learnt clause: every path from `p`
    /// through reasons bottoms out in level-0 facts or literals
    /// already in the clause (recursive check, MiniSat's `litRedundant`).
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        let mut stack = vec![p];
        let top = self.analyze_toclear.len();
        while let Some(q) = stack.pop() {
            let reason =
                self.reason[q.var().index()].expect("redundancy walk stays on implied lits");
            self.load_reason(reason, Some(q.var()));
            for k in 0..self.reason_lits.len() {
                let l = self.reason_lits[k];
                let v = l.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v].is_some() && (self.abstract_level(v) & abstract_levels) != 0 {
                    self.seen[v] = true;
                    stack.push(l);
                    self.analyze_toclear.push(l);
                } else {
                    // Not provably redundant: undo this walk's marks.
                    for idx in top..self.analyze_toclear.len() {
                        let u = self.analyze_toclear[idx].var().index();
                        self.seen[u] = false;
                    }
                    self.analyze_toclear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Activities
    // ------------------------------------------------------------------

    /// Bumps a variable's VSIDS activity and restores heap order.
    fn var_bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > VAR_RESCALE {
            for a in &mut self.activity {
                *a /= VAR_RESCALE;
            }
            self.var_inc /= VAR_RESCALE;
        }
        self.order.update(v, &self.activity);
    }

    /// Bumps a learnt clause's activity.
    fn cla_bump(&mut self, cref: ClauseRef) {
        let a = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, a);
        if a > CLA_RESCALE {
            for i in 0..self.learnts.len() {
                let c = self.learnts[i];
                let scaled = self.db.activity(c) / CLA_RESCALE;
                self.db.set_activity(c, scaled);
            }
            self.cla_inc /= CLA_RESCALE;
        }
    }

    // ------------------------------------------------------------------
    // Learnt database management
    // ------------------------------------------------------------------

    /// Whether a clause is the reason for its first literal's assignment
    /// (such clauses must survive database reduction).
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let c0 = self.db.lit(cref, 0);
        self.lit_value(c0) == LBool::True
            && self.reason[c0.var().index()] == Some(Reason::Clause(cref))
    }

    /// Deletes roughly half of the learnt clauses, lowest activity first.
    /// Binary and locked clauses are kept. Compacts the arena when a
    /// quarter of it is garbage.
    fn reduce_db(&mut self) {
        let learnts = {
            let mut ls = std::mem::take(&mut self.learnts);
            let db = &self.db;
            ls.sort_by(|&a, &b| {
                db.activity(a)
                    .partial_cmp(&db.activity(b))
                    .expect("clause activities are finite")
            });
            ls
        };
        let half = learnts.len() / 2;
        let extra_lim = self.cla_inc / learnts.len().max(1) as f32;
        let mut kept = Vec::with_capacity(learnts.len());
        for (i, &cref) in learnts.iter().enumerate() {
            let disposable = self.db.len(cref) > 2 && !self.is_locked(cref);
            if disposable && (i < half || self.db.activity(cref) < extra_lim) {
                self.log_delete(cref);
                self.detach_clause(cref);
                self.db.delete(cref);
                self.stats.deleted_clauses += 1;
            } else {
                kept.push(cref);
            }
        }
        self.learnts = kept;
        self.max_learnts *= 1.1;

        if self.db.wasted * 4 > self.db.arena_words() {
            self.compact();
        }
    }

    // ------------------------------------------------------------------
    // Invariant audit
    // ------------------------------------------------------------------

    /// Full-state invariant audit: watch-list ↔ clause-DB consistency,
    /// trail/reason sanity, xor matrix shape, and bookkeeping coherence.
    /// Returns one human-readable string per violation (empty = healthy).
    ///
    /// Runs automatically at every restart under `debug_assertions`
    /// (panicking on violations); call it from tests or after driving the
    /// solver through an unusual sequence. Cost is O(formula), so it is
    /// not for per-propagation use in release builds.
    pub fn audit(&self) -> Vec<String> {
        let mut errors: Vec<String> = Vec::new();
        let n = self.num_vars();

        // Parallel per-variable arrays agree on the variable count.
        for (name, len) in [
            ("phase", self.phase.len()),
            ("reason", self.reason.len()),
            ("level", self.level.len()),
            ("activity", self.activity.len()),
            ("seen", self.seen.len()),
            ("model", self.model.len()),
        ] {
            if len != n {
                errors.push(format!("{name} has {len} entries for {n} vars"));
            }
        }
        if self.watches.len() != 2 * n {
            errors.push(format!(
                "{} watch lists for {n} vars (expected {})",
                self.watches.len(),
                2 * n
            ));
        }

        // Trail: in range, consistent with `assigns`, levels match the
        // trail_lim structure, no variable assigned twice.
        if self.qhead > self.trail.len() {
            errors.push(format!(
                "qhead {} beyond trail length {}",
                self.qhead,
                self.trail.len()
            ));
        }
        let mut prev = 0usize;
        for (lvl, &lim) in self.trail_lim.iter().enumerate() {
            if lim < prev || lim > self.trail.len() {
                errors.push(format!("trail_lim[{lvl}] = {lim} out of order"));
            }
            prev = lim;
        }
        let mut on_trail = vec![false; n];
        for (idx, &p) in self.trail.iter().enumerate() {
            let v = p.var().index();
            if on_trail[v] {
                errors.push(format!("variable {} on the trail twice", p.var()));
                continue;
            }
            on_trail[v] = true;
            if self.lit_value(p) != LBool::True {
                errors.push(format!("trail literal {p:?} not assigned true"));
            }
            let expect = self.trail_lim.partition_point(|&lim| lim <= idx) as u32;
            if self.level[v] != expect {
                errors.push(format!(
                    "trail literal {p:?} at level {} (trail says {expect})",
                    self.level[v]
                ));
            }
        }
        for (v, &seen) in on_trail.iter().enumerate() {
            if (self.assigns[v] != LBool::Undef) != seen {
                errors.push(format!(
                    "variable {} assignment/trail mismatch",
                    Var::from_index(v)
                ));
            }
        }

        // Reasons: the implied literal leads its reason clause and every
        // other literal is false from no later a level. A row reason above
        // level 0 is a live row over the implied variable whose other
        // columns are assigned from no later a level, and the assignment
        // satisfies it. (Analysis never reads level-0 reasons, and adding
        // xors at level 0 may reduce or retire their rows.)
        for &p in &self.trail {
            let v = p.var().index();
            match self.reason[v] {
                None => {}
                Some(Reason::Clause(cref)) => {
                    if self.db.is_deleted(cref) {
                        errors.push(format!("reason of {p:?} is a deleted clause"));
                        continue;
                    }
                    if self.db.lit(cref, 0) != p {
                        errors.push(format!("reason of {p:?} does not start with it"));
                    }
                    for k in 1..self.db.len(cref) {
                        let q = self.db.lit(cref, k);
                        if self.lit_value(q) != LBool::False {
                            errors.push(format!("reason of {p:?} has non-false literal {q:?}"));
                        } else if self.level[q.var().index()] > self.level[v] {
                            errors
                                .push(format!("reason of {p:?} uses a later-level literal {q:?}"));
                        }
                    }
                }
                Some(Reason::Xor(_)) if self.level[v] == 0 => {}
                Some(Reason::Xor(row)) => {
                    let Some((vars, rhs)) = self.xors.live_row(row) else {
                        errors.push(format!("reason of {p:?} is dead xor row {row}"));
                        continue;
                    };
                    let (mut has_v, mut parity) = (false, rhs);
                    for u in vars {
                        has_v |= u == v;
                        parity ^= self.assigns[u] == LBool::True;
                        if self.assigns[u] == LBool::Undef {
                            errors.push(format!("xor reason of {p:?} has an unassigned column"));
                        } else if self.level[u] > self.level[v] {
                            errors.push(format!("xor reason of {p:?} uses a later-level column"));
                        }
                    }
                    if !has_v {
                        errors.push(format!("xor reason row {row} of {p:?} lacks its variable"));
                    } else if parity {
                        errors.push(format!("xor reason row {row} of {p:?} is violated"));
                    }
                }
            }
        }

        // Watches ↔ clause DB: every live clause is watched on exactly its
        // first two literals, every watch entry points at a live clause
        // through the right list, and blockers come from their clause.
        let mut watched: HashMap<ClauseRef, Vec<Lit>> = HashMap::new();
        for (i, ws) in self.watches.iter().enumerate() {
            // List `i` fires when `trigger` becomes true: entries watch its
            // negation.
            let trigger = Lit::from_index(i);
            for w in ws {
                if self.db.is_deleted(w.cref) {
                    errors.push(format!("watch list of {trigger:?} holds a deleted clause"));
                    continue;
                }
                let lits = self.db.lits(w.cref);
                let watched_lit = !trigger;
                if lits[0] != watched_lit.index() as u32 && lits[1] != watched_lit.index() as u32 {
                    errors.push(format!(
                        "clause watched on {watched_lit:?} which is not in its first two slots"
                    ));
                }
                if !lits.contains(&(w.blocker.index() as u32)) {
                    errors.push(format!("blocker {:?} not in its clause", w.blocker));
                }
                watched.entry(w.cref).or_default().push(watched_lit);
            }
        }
        let mut live_learnts = 0usize;
        for cref in self.db.iter_refs() {
            if self.db.is_learnt(cref) {
                live_learnts += 1;
            }
            let mut expect = vec![self.db.lit(cref, 0), self.db.lit(cref, 1)];
            let mut got = watched.remove(&cref).unwrap_or_default();
            expect.sort_unstable();
            got.sort_unstable();
            if expect != got {
                errors.push(format!(
                    "clause {:?} watched on {got:?}, expected {expect:?}",
                    self.db.lits(cref)
                ));
            }
        }

        // Learnt bookkeeping: `learnts` is exactly the live learnt clauses.
        let mut learnt_set: Vec<ClauseRef> = self.learnts.clone();
        learnt_set.sort_unstable_by_key(|c| c.0);
        learnt_set.dedup();
        if learnt_set.len() != self.learnts.len() {
            errors.push("duplicate entries in the learnt list".to_string());
        }
        if learnt_set.len() != live_learnts {
            errors.push(format!(
                "learnt list tracks {} clauses, arena holds {live_learnts}",
                learnt_set.len()
            ));
        }
        for &cref in &learnt_set {
            if self.db.is_deleted(cref) {
                errors.push("learnt list holds a deleted clause".to_string());
            } else if !self.db.is_learnt(cref) {
                errors.push("learnt list holds an original clause".to_string());
            }
        }

        // The GF(2) engine's structural invariants (RREF, pivot maps,
        // watch registration).
        self.xors.audit(self.proof.is_some(), &mut errors);
        errors
    }

    /// Compacts the clause arena and remaps every stored [`ClauseRef`].
    fn compact(&mut self) {
        let fwd = self.db.compact();
        for ws in &mut self.watches {
            for w in ws {
                w.cref = fwd.get(w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            if let Reason::Clause(cref) = r {
                *cref = fwd.get(*cref);
            }
        }
        for c in &mut self.learnts {
            *c = fwd.get(*c);
        }
    }
}

/// The Luby restart sequence scaled by `y`: `y^luby_exponent(i)`
/// (1, 1, 2, 1, 1, 2, 4, ... for `y = 2`).
fn luby(y: u64, mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.pow(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(code: i64) -> Lit {
        Lit::from_dimacs(code)
    }

    /// Builds a solver with `n` vars and the given DIMACS-coded clauses.
    fn solver_with(n: usize, clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&x| lit(x)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn input_mirror_records_constraints_verbatim() {
        let mut s = Solver::new();
        // The one switch: the proof log records the inputs.
        s.enable_proof();
        for _ in 0..3 {
            s.new_var();
        }
        // The solver simplifies (dedups, drops satisfied clauses); the
        // log's formula must keep the verbatim stream anyway.
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(1), lit(2), lit(2)]);
        s.add_xor(&[], false);
        s.add_xor(&[lit(2), lit(-3)], true);
        let m = s.proof().expect("enabled").formula();
        assert_eq!(m.num_vars, 3);
        assert_eq!(m.clauses.len(), 2);
        assert_eq!(m.clauses[1], vec![lit(1), lit(2), lit(2)]);
        assert_eq!(m.xors.len(), 1, "⊕ ∅ = 0 is not recorded");
        assert_eq!(m.xors[0].lits, vec![lit(2), lit(-3)]);
        // Solving derives facts but never touches the formula.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.proof().unwrap().formula().clauses.len(), 2);
        // Inputs after a refutation are still recorded.
        assert!(!s.add_clause(&[lit(-1)]));
        assert!(!s.add_xor(&[lit(3)], true));
        assert!(!s.add_xor(&[], false));
        let m = s.proof().unwrap().formula();
        assert_eq!((m.clauses.len(), m.xors.len()), (3, 2));
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(|i| luby(2, i)).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(true));
        assert_eq!(s.value(Var::from_index(1)), Some(true));
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = solver_with(1, &[]);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = solver_with(2, &[&[1, -1]]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_collapse() {
        let mut s = solver_with(2, &[&[1, 1, 2, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let a = s.value(Var::from_index(0)).unwrap();
        let b = s.value(Var::from_index(1)).unwrap();
        assert!(a || b);
    }

    #[test]
    fn xor_chain_forces_search() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1 is unsatisfiable.
        let mut s = solver_with(
            3,
            &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]],
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: &[&[i64]] = &[
            &[1, 2, -3],
            &[-1, 3],
            &[-2, 3],
            &[1, -2],
            &[2, -4, 5],
            &[-5, 4],
        ];
        let mut s = solver_with(5, clauses);
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in clauses {
            assert!(
                c.iter()
                    .any(|&code| s.lit_model_value(lit(code)) == Some(true)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn assumptions_do_not_poison() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve_assuming(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        assert!(s.is_ok());
        assert_eq!(s.solve_assuming(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(true));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = solver_with(1, &[]);
        assert_eq!(s.solve_assuming(&[lit(1), lit(-1)]), SolveResult::Unsat);
        assert!(s.is_ok());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(true));
        assert!(s.add_clause(&[lit(-2)]) || !s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once top-level unsat, it stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn value_of_a_foreign_variable_is_none() {
        // A variable this solver never created has no model value; asking
        // must not index past the model.
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let foreign = Var::from_index(7);
        assert_eq!(s.value(foreign), None);
        assert_eq!(s.lit_model_value(Lit::negative(foreign)), None);
        assert!(s.value(Var::from_index(1)).is_some());
    }

    #[test]
    fn model_cleared_on_unsat() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(Var::from_index(0)).is_some());
        assert_eq!(s.solve_assuming(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        assert_eq!(s.value(Var::from_index(0)), None);
    }

    /// Pigeonhole principle instance: `pigeons` pigeons into `holes` holes.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &vars {
            let c: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (i, pi) in vars.iter().enumerate() {
                for pj in vars.iter().skip(i + 1) {
                    s.add_clause(&[Lit::negative(pi[h]), Lit::negative(pj[h])]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat_exercises_learning() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = *s.stats();
        assert!(st.conflicts > 0, "expected a real search: {st:?}");
        assert!(st.learnt_clauses > 0);
        assert!(st.decisions > 0);
    }

    #[test]
    fn pigeonhole_sat_when_room() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn native_xor_triangle_unsat_at_top_level() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1: the third row reduces to
        // 0 = 1 under Gauss–Jordan, so the solver is poisoned on add.
        let mut s = solver_with(3, &[]);
        assert!(s.add_xor(&[lit(1), lit(2)], true));
        assert!(s.add_xor(&[lit(2), lit(3)], true));
        assert!(!s.add_xor(&[lit(1), lit(3)], true));
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn native_xor_units_fix_variables() {
        let mut s = solver_with(3, &[]);
        // x1 ⊕ ¬x2 = 0 ⇔ x1 ≠ x2; x1 ⊕ x2 ⊕ x3 = 0; x1 = 1.
        assert!(s.add_xor(&[lit(1), lit(-2)], false));
        assert!(s.add_xor(&[lit(1), lit(2), lit(3)], false));
        assert!(s.add_xor(&[lit(1)], true));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(true));
        assert_eq!(s.value(Var::from_index(1)), Some(false));
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn xor_search_propagation_and_conflicts() {
        // Free variables force real decisions; the xor rows then propagate
        // and conflict during search rather than at add time.
        let mut s = solver_with(6, &[&[1, 2], &[3, 4], &[5, 6]]);
        assert!(s.add_xor(&[lit(1), lit(3), lit(5)], true));
        assert!(s.add_xor(&[lit(2), lit(4), lit(6)], true));
        assert!(s.add_xor(&[lit(1), lit(2), lit(3), lit(4)], false));
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = |code: i64| s.lit_model_value(lit(code)).unwrap();
        assert!(m(1) ^ m(3) ^ m(5));
        assert!(m(2) ^ m(4) ^ m(6));
        assert!(!(m(1) ^ m(2) ^ m(3) ^ m(4)));
        assert!(m(1) || m(2));
    }

    #[test]
    fn xor_with_assumptions_does_not_poison() {
        let mut s = solver_with(2, &[]);
        assert!(s.add_xor(&[lit(1), lit(2)], true));
        assert_eq!(s.solve_assuming(&[lit(1), lit(2)]), SolveResult::Unsat);
        assert!(s.is_ok());
        assert_eq!(s.solve_assuming(&[lit(1)]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(false));
        assert_eq!(s.solve_assuming(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(true));
    }

    /// Exhaustive cross-check on small instances: random xor rows plus
    /// random clauses, solver answer vs brute-force enumeration. This
    /// drives the whole xor path — add-time elimination, watched-column
    /// propagation, row reasons, conflict analysis — through thousands of
    /// states.
    #[test]
    fn xor_matches_brute_force_on_random_small_instances() {
        use gf2::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(0x0DDB1A5);
        for trial in 0..200u64 {
            let n = 3 + (trial as usize % 8); // 3..=10 vars
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            let mut xors: Vec<(Vec<usize>, bool)> = Vec::new();
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            let mut ok = true;
            for _ in 0..2 + rng.gen_index(n) {
                let k = 1 + rng.gen_index(n.min(4));
                let vars: Vec<usize> = (0..k).map(|_| rng.gen_index(n)).collect();
                let rhs = rng.gen_bool();
                let lits: Vec<Lit> = vars
                    .iter()
                    .map(|&v| Lit::new(Var::from_index(v), rng.gen_bool()))
                    .collect();
                // Track the *literal* parity: solver folds signs into rhs.
                let flips = lits.iter().filter(|l| !l.is_positive()).count();
                xors.push((vars.clone(), rhs ^ (flips % 2 == 1)));
                ok &= s.add_xor(&lits, rhs);
            }
            for _ in 0..rng.gen_index(2 * n) {
                let k = 1 + rng.gen_index(3);
                let c: Vec<(usize, bool)> =
                    (0..k).map(|_| (rng.gen_index(n), rng.gen_bool())).collect();
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| Lit::new(Var::from_index(v), pos))
                    .collect();
                clauses.push(c);
                ok &= s.add_clause(&lits);
            }

            let brute = (0..1u32 << n).any(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                xors.iter()
                    .all(|(vs, rhs)| vs.iter().fold(false, |acc, &v| acc ^ a[v]) == *rhs)
                    && clauses
                        .iter()
                        .all(|c| c.iter().any(|&(v, pos)| a[v] == pos))
            });
            let got = ok && s.solve() == SolveResult::Sat;
            assert_eq!(got, brute, "trial {trial} (n = {n}) diverged");
            if got {
                for (vs, rhs) in &xors {
                    let parity = vs
                        .iter()
                        .fold(false, |acc, &v| acc ^ s.value(Var::from_index(v)).unwrap());
                    assert_eq!(parity, *rhs, "trial {trial}: model violates an xor");
                }
            }
        }
    }

    #[test]
    fn wide_parity_bank_is_easy_natively() {
        // Two disagreeing 64-bit parities over the same variables, hidden
        // from add-time reduction by a fresh "selector" variable each, so
        // refutation needs search-time xor propagation. Plain CDCL over a
        // Tseitin expansion needs exponential resolution here.
        let mut s = Solver::new();
        let xs: Vec<Var> = (0..64).map(|_| s.new_var()).collect();
        let sel = [s.new_var(), s.new_var()];
        let mut even: Vec<Lit> = xs.iter().map(|&v| Lit::positive(v)).collect();
        even.push(Lit::positive(sel[0]));
        let mut odd: Vec<Lit> = xs.iter().map(|&v| Lit::positive(v)).collect();
        odd.push(Lit::positive(sel[1]));
        assert!(s.add_xor(&even, false));
        assert!(s.add_xor(&odd, true));
        // sel0 = sel1 = 0 makes the bank contradictory.
        assert!(s.add_clause(&[Lit::negative(sel[0])]));
        assert!(s.add_clause(&[Lit::negative(sel[1])]) || !s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn stats_accumulate_across_calls() {
        let mut s = solver_with(2, &[&[1, 2]]);
        s.solve();
        let d1 = s.stats().decisions;
        s.solve();
        assert!(s.stats().decisions >= d1);
    }

    /// PHP(holes+1, holes): unsatisfiable with exponential resolution —
    /// a reliable conflict generator for budget tests.
    fn hard_unsat(holes: usize) -> Solver {
        let mut s = Solver::new();
        pigeonhole(&mut s, holes + 1, holes);
        s
    }

    /// PHP(8, 7) plus "hole `h` is taken" parities: at-most-one clauses
    /// make each parity exactly-one, so xor propagation and row reasons
    /// run throughout the (still unsatisfiable) search.
    fn php_with_parities() -> Solver {
        let (pigeons, holes) = (8, 7);
        let mut s = hard_unsat(holes);
        for h in 0..holes {
            let col: Vec<Lit> = (0..pigeons)
                .map(|p| Lit::positive(Var::from_index(p * holes + h)))
                .collect();
            assert!(s.add_xor(&col, true));
        }
        s
    }

    /// Decides the variables of `order` false (propagating after each)
    /// until the trail holds an xor implication above level 0. Returns
    /// each such variable with its row, or an empty list if a conflict
    /// came first.
    fn descend_to_row_reasons(
        s: &mut Solver,
        order: impl Iterator<Item = usize>,
    ) -> Vec<(usize, u32)> {
        for v in order {
            if s.assigns[v] != LBool::Undef {
                continue;
            }
            s.trail_lim.push(s.trail.len());
            s.unchecked_enqueue(Lit::negative(Var::from_index(v)), None);
            if s.propagate().is_some() {
                return Vec::new();
            }
            let rows: Vec<(usize, u32)> = s
                .trail
                .iter()
                .filter_map(|p| match s.reason[p.var().index()] {
                    Some(Reason::Xor(row)) => Some((p.var().index(), row)),
                    _ => None,
                })
                .filter(|&(u, _)| s.level[u] > 0)
                .collect();
            if !rows.is_empty() {
                return rows;
            }
        }
        Vec::new()
    }

    #[test]
    fn reduce_and_compact_keep_the_state_sound() {
        // Enough conflicts for learnt-clause reduction and arena
        // compaction to run between slices; every remapped reference must
        // audit clean, and the sliced search must reach the one-shot
        // answer. Xor implications lock nothing in the arena (their reason
        // is the row), so the mid-search check below descends to a trail
        // with row reasons above level 0, reduces and compacts there, and
        // asks the audit whether those reasons are still valid.
        let mut s = php_with_parities();
        let slice = Budget::new().with_conflicts(500);
        let mut arena_shrank = false;
        let mut checked_mid_search = false;
        let answer = loop {
            let before = s.db.arena_words();
            let r = s.solve_limited(&[], &slice);
            arena_shrank |= s.db.arena_words() < before;
            let errs = s.audit();
            assert!(errs.is_empty(), "audit after a slice: {errs:#?}");
            if r != SolveResult::Unknown {
                break r;
            }
            if !checked_mid_search && s.stats().deleted_clauses > 0 {
                // Pigeons 0..7 out of hole 0 leave its parity to imply
                // that pigeon 7 takes it.
                let (pigeons, holes) = (8, 7);
                let column_major =
                    (0..holes).flat_map(|h| (0..pigeons).map(move |p| p * holes + h));
                let rows = descend_to_row_reasons(&mut s, column_major);
                assert!(!rows.is_empty(), "no row reason above level 0");
                let words = s.db.arena_words();
                s.reduce_db();
                s.compact();
                assert!(s.db.arena_words() < words, "nothing was reclaimed");
                let errs = s.audit();
                assert!(errs.is_empty(), "audit mid-search: {errs:#?}");
                for (v, row) in rows {
                    assert_eq!(s.reason[v], Some(Reason::Xor(row)));
                }
                s.cancel_until(0);
                checked_mid_search = true;
            }
        };
        assert!(checked_mid_search, "the search ended before a reduction");
        assert_eq!(answer, SolveResult::Unsat);
        assert_eq!(php_with_parities().solve(), answer);
        let st = s.stats();
        assert!(st.deleted_clauses > 0, "reduce_db never ran: {st:?}");
        // Only compaction ever shrinks the arena.
        assert!(arena_shrank, "the arena never compacted: {st:?}");
        assert!(st.xor_propagations > 0, "no xor reasons: {st:?}");
    }

    /// 100 variables under 50 random 5-column parities and 250 random
    /// 3-clauses (fixed seed): unsatisfiable after about 3,000 conflicts,
    /// with about 8 xor implications per conflict.
    fn xor_heavy_unsat() -> Solver {
        use gf2::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(7);
        let n = 100;
        let mut s = solver_with(n, &[]);
        let var = |rng: &mut SplitMix64| Var::from_index(rng.gen_index(n));
        for _ in 0..50 {
            let lits: Vec<Lit> = (0..5).map(|_| Lit::positive(var(&mut rng))).collect();
            s.add_xor(&lits, rng.gen_bool());
        }
        for _ in 0..250 {
            let lits: Vec<Lit> = (0..3)
                .map(|_| Lit::new(var(&mut rng), rng.gen_bool()))
                .collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn xor_reasons_stay_out_of_the_clause_database() {
        // Each conflict adds at most one learnt clause; an xor implication
        // adds none, however many the search makes.
        let mut s = xor_heavy_unsat();
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = *s.stats();
        assert!(
            st.xor_propagations > st.conflicts,
            "too few xor implications to tell: {st:?}"
        );
        assert!(st.learnt_clauses <= st.conflicts, "{st:?}");
        assert!(s.num_learnts() as u64 <= st.conflicts, "{st:?}");
    }

    #[test]
    fn audit_checks_xor_row_reasons() {
        // Rows x1 ⊕ x2 ⊕ x3 = 1 and x4 ⊕ x5 = 0 share no column. Deciding
        // x1, x2 false and x4 true implies x3 at level 2 and x5 at level 3.
        let mut s = solver_with(5, &[]);
        assert!(s.add_xor(&[lit(1), lit(2), lit(3)], true));
        assert!(s.add_xor(&[lit(4), lit(5)], false));
        for code in [-1, -2, 4] {
            s.trail_lim.push(s.trail.len());
            s.unchecked_enqueue(lit(code), None);
            assert!(s.propagate().is_none());
        }
        let (x2, x3, x5) = (1, 2, 4);
        let (Some(Reason::Xor(row_a)), Some(Reason::Xor(row_b))) = (s.reason[x3], s.reason[x5])
        else {
            panic!("x3 and x5 should have row reasons: {:?}", s.reason);
        };
        assert_eq!((s.level[x3], s.level[x5]), (2, 3));
        assert!(s.audit().is_empty(), "{:#?}", s.audit());
        let flags = |s: &Solver, what: &str| {
            let errs = s.audit();
            assert!(
                errs.iter().any(|e| e.contains(what)),
                "want {what}: {errs:#?}"
            );
        };
        s.reason[x3] = Some(Reason::Xor(99));
        flags(&s, "dead xor row");
        s.reason[x3] = Some(Reason::Xor(row_b));
        flags(&s, "lacks its variable");
        s.reason[x3] = Some(Reason::Xor(row_a));
        s.level[x2] = 3;
        flags(&s, "later-level column");
        s.level[x2] = 2;
        s.assigns[x3] = LBool::False;
        flags(&s, "is violated");
        s.assigns[x3] = LBool::True;
        assert!(s.audit().is_empty(), "{:#?}", s.audit());
    }

    #[test]
    fn conflict_budget_returns_unknown_and_solver_resumes() {
        let mut s = hard_unsat(7);
        let tight = Budget::new().with_conflicts(3);
        assert_eq!(s.solve_limited(&[], &tight), SolveResult::Unknown);
        assert_eq!(s.stats().budget_exhaustions, 1);
        assert!(s.is_ok(), "Unknown must not poison the solver");
        // The solver stays warm: an unlimited follow-up call finishes the
        // job, keeping the clauses learnt under the budgeted call.
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stats().budget_exhaustions, 1);
    }

    #[test]
    fn unlimited_budget_matches_solve() {
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-3]]);
        assert_eq!(s.solve_limited(&[], &Budget::new()), SolveResult::Sat);
        assert_eq!(s.stats().budget_exhaustions, 0);
    }

    #[test]
    fn budgeted_calls_accumulate_until_answer() {
        // Drive the same instance through many tiny budgets; each call
        // resumes from the previous one's learnt clauses and the total
        // eventually refutes the formula.
        let mut s = hard_unsat(5);
        let slice = Budget::new().with_conflicts(8);
        let mut rounds = 0u32;
        loop {
            match s.solve_limited(&[], &slice) {
                SolveResult::Unknown => {
                    rounds += 1;
                    assert!(rounds < 10_000, "budgeted loop failed to converge");
                }
                r => {
                    assert_eq!(r, SolveResult::Unsat);
                    break;
                }
            }
        }
        assert!(rounds > 0, "PHP(6,5) should not finish in 8 conflicts");
        assert_eq!(u64::from(rounds), s.stats().budget_exhaustions);
    }

    #[test]
    fn budget_respects_assumptions_across_resume() {
        // Unknown under assumptions must not leak the assumption into the
        // solver: a later call with the opposite assumption still works.
        let mut s = hard_unsat(6);
        let a = Lit::from_dimacs(1);
        let tight = Budget::new().with_conflicts(2);
        assert_eq!(s.solve_limited(&[a], &tight), SolveResult::Unknown);
        assert_eq!(s.solve_assuming(&[!a]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
