//! The attack engine: the resumable DIP state machine.
//!
//! The DIP loop is an explicit [`AttackState`] machine driven one
//! [`step`](AttackState::step) at a time against a [`FallibleScanAccess`]
//! oracle. It does not assume an oracle that never fails, a SAT call that
//! always terminates, or a process that never dies:
//!
//! * **bounded retries** on transient oracle faults ([`RetryPolicy`]);
//! * **majority-vote replication** to repair bit-flip noise
//!   ([`RobustConfig::replication`]);
//! * **budgeted solving** — the SAT calls of one step share one
//!   conflict [`Budget`], and `Unknown` answers leave the machine
//!   resumable;
//! * **checkpoint / resume** — [`AttackState::checkpoint`] snapshots
//!   what the oracle said (the DIP set, plus the free mask bits and seed
//!   once converged) as a [`Checkpoint`], whose `duckpt` text codec lives
//!   in [`ckpt`](crate::ckpt), and [`AttackState::resume`] re-validates
//!   every recorded DIP against the live oracle and replays them into a
//!   fresh machine;
//! * **graceful degradation** — when a budget runs dry or the oracle
//!   becomes unrepairable, [`AttackState::run`] returns a
//!   [`PartialReport`] (recovered rank, nullity, per-seed-bit confidence)
//!   instead of an error.
//!
//! [`unlock`](crate::attack::unlock) is this machine under
//! [`RobustConfig::strict`], and its error is the machine's
//! [`DegradeReason`]. See DESIGN.md §8 for the fault model, the
//! checkpoint grammar, and the degradation contract.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use cnf::Encoder;
use gf2::{BitVec, Rng64, SplitMix64};
use netlist::Circuit;
use satsolver::{Budget, Lit, SolveResult, SolverStats};
use scanlock::{LockSpec, LockedScanChip};
use sim::{FallibleScanAccess, ScanAccess, ScanChain, ScanResponse};

use crate::attack::{locked_cone, mask_copy, output_order, AttackConfig, MaskCopy, Unlock};
use crate::ckpt::{instance_hash, Checkpoint, CheckpointError, CkptPhase};
use crate::model::{session_masks, MaskBasis};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How transient oracle faults are retried: a bounded number of
/// immediate re-queries per logical query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per logical query before the attack degrades
    /// (`0` = fail on the first fault).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 8 }
    }
}

impl RetryPolicy {
    /// No retries at all: the first fault degrades the attack. The policy
    /// of [`RobustConfig::strict`].
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0 }
    }
}

/// Tuning for a fault-tolerant attack run.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The underlying attack knobs (captures, DIP limit, verification,
    /// certification).
    pub base: AttackConfig,
    /// Times each logical oracle query is repeated for a per-bit majority
    /// vote. `1` disables voting; use an odd factor so votes cannot tie
    /// (ties resolve to `false`).
    pub replication: usize,
    /// Retry policy for transient faults.
    pub retry: RetryPolicy,
    /// Work budget of one [`AttackState::step`]. A step may make several
    /// SAT calls (one per output it closes, then the DIP search or the
    /// final model); conflicts are counted across all of them. Unlimited by default; when limited, a step
    /// that spends it returns [`Step::OutOfBudget`] with the solver warm.
    pub solve_budget: Budget,
    /// How many budget-exhausted steps to tolerate across the run
    /// before degrading with [`DegradeReason::BudgetExhausted`]. Ignored
    /// while `solve_budget` is unlimited.
    pub max_budget_exhaustions: u32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            base: AttackConfig::default(),
            replication: 1,
            retry: RetryPolicy::default(),
            solve_budget: Budget::new(),
            max_budget_exhaustions: 0,
        }
    }
}

impl RobustConfig {
    /// The no-fault-tolerance configuration
    /// [`unlock`](crate::attack::unlock) runs: single queries, no
    /// retries, unlimited solving. Against a reliable oracle no fault
    /// handling ever fires, so every query is one DIP or one probe.
    pub fn strict(base: AttackConfig) -> RobustConfig {
        RobustConfig {
            base,
            replication: 1,
            retry: RetryPolicy::none(),
            solve_budget: Budget::new(),
            max_budget_exhaustions: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// Fault-handling counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Oracle queries retried after a transient fault.
    pub retries: u64,
    /// Response bits repaired by majority vote (positions where at least
    /// one replica disagreed with the elected value).
    pub repaired_bits: u64,
}

/// Why an attack did not unlock: the error of
/// [`unlock`](crate::attack::unlock) and the reason of a
/// [`PartialReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeReason {
    /// The DIP loop hit [`AttackConfig::max_dips`] before converging.
    DipLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// Too many steps ran out of budget
    /// ([`RobustConfig::max_budget_exhaustions`]).
    BudgetExhausted {
        /// Budget-exhausted calls when the run gave up.
        exhaustions: u32,
    },
    /// A logical oracle query kept faulting after every allowed retry.
    OracleUnavailable {
        /// The retry allowance that was exhausted.
        retries: u32,
    },
    /// Oracle responses contradicted the model — either the spec/chain
    /// don't describe the chip, or bit-flip noise slipped past the
    /// configured replication factor.
    Inconsistent,
    /// The converged seed failed a verification probe.
    VerificationFailed {
        /// Probes checked before the mismatch.
        probes_passed: usize,
    },
    /// Certification was requested and failed (solver soundness bug).
    Certification {
        /// Why the certificate could not be produced or checked.
        reason: String,
    },
    /// [`AttackState::finish`] was called before the DIP loop converged.
    NotConverged,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::DipLimit { limit } => {
                write!(f, "DIP loop did not converge within {limit} iterations")
            }
            DegradeReason::BudgetExhausted { exhaustions } => {
                write!(f, "solve budget exhausted {exhaustions} times")
            }
            DegradeReason::OracleUnavailable { retries } => {
                write!(f, "oracle still faulting after {retries} retries")
            }
            DegradeReason::Inconsistent => {
                write!(f, "oracle responses contradict the lock model")
            }
            DegradeReason::VerificationFailed { probes_passed } => {
                write!(f, "seed failed verification after {probes_passed} probes")
            }
            DegradeReason::Certification { reason } => {
                write!(f, "certification failed: {reason}")
            }
            DegradeReason::NotConverged => {
                write!(f, "finish() called before the DIP loop converged")
            }
        }
    }
}

impl std::error::Error for DegradeReason {}

/// What a degraded run still knows — the graceful-degradation contract.
///
/// Every field is honest about partial knowledge: `rank`/`nullity`
/// describe the mask row space (a property of the lock, valid even
/// mid-loop), `bit_confidence` grades each seed bit, and
/// `candidate_seed` — when present — is consistent with every oracle
/// response observed so far, but not verified.
#[derive(Debug, Clone)]
pub struct PartialReport {
    /// Why the run degraded.
    pub reason: DegradeReason,
    /// DIP iterations completed before degradation.
    pub dip_iterations: usize,
    /// Oracle query attempts consumed (including retries and replicas).
    pub oracle_queries: usize,
    /// Rank of the session-mask linear system over the seed bits: how
    /// many seed dimensions convergence *would* determine.
    pub rank: usize,
    /// `width - rank`: log2 of the functionally equivalent seed class.
    pub nullity: usize,
    /// Per-seed-bit confidence in `candidate_seed`: `1.0` — pinned by the
    /// completed linear phase; `0.75` — determined by the mask row space
    /// and consistent with every DIP so far, but the loop had not
    /// converged; `0.5` — outside the row space (a pure guess).
    pub bit_confidence: Vec<f64>,
    /// The current best seed hypothesis, when the solver state still
    /// admitted one within budget.
    pub candidate_seed: Option<BitVec>,
    /// Fault-handling counters.
    pub faults: FaultStats,
    /// SAT solver work counters.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the run up to degradation.
    pub total_time: Duration,
}

/// Result of [`AttackState::run`]: full success or a partial report —
/// never a bare error.
#[derive(Debug, Clone)]
pub enum RobustOutcome {
    /// The attack converged and verified.
    Unlocked {
        /// The recovered-seed result, as [`unlock`](crate::attack::unlock)
        /// returns it.
        unlock: Unlock,
        /// Fault-handling counters for the run.
        faults: FaultStats,
    },
    /// The attack degraded; here is everything it still knows.
    Partial(PartialReport),
}

/// What one [`AttackState::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Found a distinguishing input, queried the oracle, constrained both
    /// hypotheses. The loop is still open.
    Dip,
    /// No distinguishing input remains (and the linear phase ran): call
    /// [`AttackState::finish`] to verify and collect the result.
    Converged,
    /// The step's SAT calls ran out of [`RobustConfig::solve_budget`]. The
    /// solver is warm and closed outputs stay closed: step again to keep
    /// searching, or stop here and take the [`AttackState::report`].
    OutOfBudget,
    /// The run degraded; further steps are no-ops. Take the
    /// [`AttackState::report`].
    Degraded(DegradeReason),
}

// ---------------------------------------------------------------------
// The state machine
// ---------------------------------------------------------------------

/// One DIP round the oracle answered: the stimulus and the (vote-repaired)
/// response both hypotheses were constrained to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DipRecord {
    pub(crate) pattern: Vec<bool>,
    pub(crate) pis: Vec<bool>,
    pub(crate) response: ScanResponse,
}

/// State the machine carries once the miter has gone UNSAT, and what a
/// converged checkpoint records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Converged {
    /// The converged free mask bits, one per dimension of the mask rows.
    pub(crate) free: Vec<bool>,
    /// Their seed, [`MaskBasis::seed`].
    pub(crate) seed: BitVec,
}

#[derive(Debug)]
enum Phase {
    Running,
    Converged(Converged),
    Degraded(DegradeReason),
}

/// Conflicts an output's lone refutation may take before the output is
/// moved behind the other open outputs; doubled on every such deferral,
/// so each output eventually gets whatever its proof needs. A refutation
/// can be hard alone yet easy once other outputs' DIPs have pinned more
/// of the masks. A step budget below this binds first.
const FIRST_ALLOWANCE: u64 = 4096;

/// The [`RobustConfig::solve_budget`] of one step, counted from the
/// step's start across every SAT call it makes.
struct StepBudget {
    budget: Budget,
    /// The solver's conflict count when the step started.
    conflicts: u64,
}

impl StepBudget {
    fn start(budget: &Budget, stats: &SolverStats) -> StepBudget {
        StepBudget {
            budget: *budget,
            conflicts: stats.conflicts,
        }
    }

    /// Whether the step has spent its budget.
    fn spent(&self, stats: &SolverStats) -> bool {
        self.remaining(stats).conflicts == Some(0)
    }

    /// What the step has left, given the solver's counters now.
    fn remaining(&self, stats: &SolverStats) -> Budget {
        Budget {
            conflicts: self
                .budget
                .conflicts
                .map(|c| c.saturating_sub(stats.conflicts - self.conflicts)),
        }
    }
}

/// Reads `lits` off the solver's last model. A literal without a value
/// means there is no model behind the answer being acted on, which
/// degrades as [`DegradeReason::Inconsistent`] instead of reading as 0.
fn model_bits(enc: &Encoder, lits: &[Lit]) -> Result<Vec<bool>, DegradeReason> {
    lits.iter()
        .map(|&l| {
            enc.solver()
                .lit_model_value(l)
                .ok_or(DegradeReason::Inconsistent)
        })
        .collect()
}

/// The resumable DynUnlock attack.
///
/// Drive it with [`step`](AttackState::step) (checkpointing between steps
/// as desired) or let [`run`](AttackState::run) loop to an outcome. The
/// oracle is passed per call, not owned, so a checkpointed process can
/// die, restart, reconnect to the bench, and
/// [`resume`](AttackState::resume).
#[derive(Debug)]
pub struct AttackState<'a> {
    circuit: &'a Circuit,
    chain: &'a ScanChain,
    spec: &'a LockSpec,
    cfg: RobustConfig,
    basis: MaskBasis,
    enc: Encoder,
    copies: [MaskCopy; 2],
    x: Vec<Lit>,
    p: Vec<Lit>,
    /// One literal per output bit (scan-out positions, then POs): the two
    /// hypotheses' responses differ there.
    diffs: Vec<Lit>,
    /// Outputs not yet proved closed, in the order their refutation is
    /// tried. Constraints only grow, so a closed output stays closed.
    open: VecDeque<usize>,
    /// Per output: how often its lone refutation outgrew its conflict
    /// allowance and it was moved behind the others.
    deferrals: Vec<u32>,
    dips: Vec<DipRecord>,
    phase: Phase,
    faults: FaultStats,
    start: Instant,
    solve_time: Duration,
    certify_time: Duration,
    oracle_queries: usize,
    exhaustions: u32,
    certificate: Option<proofcheck::Certificate>,
}

impl<'a> AttackState<'a> {
    /// Builds the miter and a fresh machine in the running phase.
    ///
    /// Construction is deterministic: the same `(circuit, chain, spec,
    /// captures)` always produces the same miter over the same variable
    /// numbering, so a resumed run that replays the same DIPs certifies
    /// over the same verbatim inputs as the uninterrupted one.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree (chain vs. circuit flops,
    /// `captures == 0`).
    pub fn new(
        circuit: &'a Circuit,
        chain: &'a ScanChain,
        spec: &'a LockSpec,
        cfg: RobustConfig,
    ) -> AttackState<'a> {
        let n = chain.len();
        assert_eq!(n, circuit.num_dffs(), "chain must cover all flops");
        assert!(cfg.base.captures > 0, "at least one capture cycle");
        let basis = session_masks(spec, n, cfg.base.captures).basis(spec.width());

        let mut enc = Encoder::new();
        if cfg.base.certify {
            // Before any constraint exists: record every constraint
            // verbatim and log every inference, so the convergence proof
            // this solver finds is checkable against the true inputs
            // rather than against its own derived facts.
            let solver = enc.solver_mut();
            solver.enable_input_mirror();
            solver.enable_proof();
        }
        let copies = [
            mask_copy(&mut enc, &basis.bits, n),
            mask_copy(&mut enc, &basis.bits, n),
        ];

        // The miter: a shared symbolic stimulus, both hypotheses'
        // responses, and one difference literal per output bit. Each step
        // assumes one of them at a time.
        let x = enc.fresh_many(n);
        let p = enc.fresh_many(circuit.inputs().len());
        let captures = cfg.base.captures;
        let (so1, po1) = locked_cone(&mut enc, circuit, chain, &copies[0], &x, &p, captures);
        let (so2, po2) = locked_cone(&mut enc, circuit, chain, &copies[1], &x, &p, captures);
        let diffs: Vec<Lit> = so1
            .iter()
            .zip(&so2)
            .chain(po1.iter().zip(&po2))
            .map(|(&a, &b)| enc.xor2(a, b))
            .collect();
        let deferrals = vec![0; diffs.len()];

        AttackState {
            circuit,
            chain,
            spec,
            cfg,
            basis,
            enc,
            copies,
            x,
            p,
            diffs,
            open: output_order(circuit, chain).into(),
            deferrals,
            dips: Vec::new(),
            phase: Phase::Running,
            faults: FaultStats::default(),
            start: Instant::now(),
            solve_time: Duration::ZERO,
            certify_time: Duration::ZERO,
            oracle_queries: 0,
            exhaustions: 0,
            certificate: None,
        }
    }

    /// DIP rounds completed so far.
    pub fn dip_count(&self) -> usize {
        self.dips.len()
    }

    /// SAT solver work counters so far.
    pub fn solver_stats(&self) -> SolverStats {
        *self.enc.solver().stats()
    }

    /// Whether the machine has left the running phase (converged or
    /// degraded).
    pub fn is_terminal(&self) -> bool {
        !matches!(self.phase, Phase::Running)
    }

    fn degrade(&mut self, reason: DegradeReason) -> Step {
        self.phase = Phase::Degraded(reason.clone());
        Step::Degraded(reason)
    }

    // -----------------------------------------------------------------
    // Fault-tolerant querying
    // -----------------------------------------------------------------

    /// One logical query with retries: attempts until the oracle answers
    /// or the retry allowance runs out. An answer whose scan-out or
    /// primary-output vector has the wrong length degrades as
    /// [`DegradeReason::Inconsistent`]: no bit of it can be trusted to
    /// sit where the model expects it.
    fn query_retry<O: FallibleScanAccess>(
        &mut self,
        oracle: &mut O,
        pattern: &[bool],
        pis: &[bool],
    ) -> Result<ScanResponse, DegradeReason> {
        let captures = self.cfg.base.captures;
        let mut attempt = 0u32;
        loop {
            self.oracle_queries += 1;
            match oracle.try_query_captures(pattern, pis, captures) {
                Ok(resp)
                    if resp.scan_out.len() != self.chain.len()
                        || resp.po.len() != self.circuit.outputs().len() =>
                {
                    return Err(DegradeReason::Inconsistent)
                }
                Ok(resp) => return Ok(resp),
                Err(_) if attempt < self.cfg.retry.max_retries => {
                    attempt += 1;
                    self.faults.retries += 1;
                }
                Err(_) => {
                    return Err(DegradeReason::OracleUnavailable {
                        retries: self.cfg.retry.max_retries,
                    })
                }
            }
        }
    }

    /// One logical query with replication: `replication` retried sessions,
    /// then a per-bit majority vote. Bits where any replica dissented from
    /// the elected value count as repaired.
    fn query_voted<O: FallibleScanAccess>(
        &mut self,
        oracle: &mut O,
        pattern: &[bool],
        pis: &[bool],
    ) -> Result<ScanResponse, DegradeReason> {
        let r = self.cfg.replication.max(1);
        if r == 1 {
            return self.query_retry(oracle, pattern, pis);
        }
        let votes: Vec<ScanResponse> = (0..r)
            .map(|_| self.query_retry(oracle, pattern, pis))
            .collect::<Result<_, _>>()?;
        let elect = |read: &dyn Fn(&ScanResponse) -> &Vec<bool>, repaired: &mut u64| {
            let len = read(&votes[0]).len();
            (0..len)
                .map(|i| {
                    let ones = votes.iter().filter(|v| read(v)[i]).count();
                    let win = 2 * ones > r;
                    let dissent = if win { r - ones } else { ones };
                    *repaired += dissent as u64;
                    win
                })
                .collect::<Vec<bool>>()
        };
        let mut repaired = 0u64;
        let scan_out = elect(&|v: &ScanResponse| &v.scan_out, &mut repaired);
        let po = elect(&|v: &ScanResponse| &v.po, &mut repaired);
        self.faults.repaired_bits += repaired;
        Ok(ScanResponse { scan_out, po })
    }

    // -----------------------------------------------------------------
    // The loop
    // -----------------------------------------------------------------

    /// Asserts one recorded DIP response onto both hypotheses. `false`
    /// means the solver found the response inconsistent with the model.
    fn constrain(&mut self, record: &DipRecord) -> bool {
        let x_const: Vec<Lit> = record
            .pattern
            .iter()
            .map(|&v| self.enc.constant(v))
            .collect();
        let p_const: Vec<Lit> = record.pis.iter().map(|&v| self.enc.constant(v)).collect();
        for copy in &self.copies {
            let (so, po) = locked_cone(
                &mut self.enc,
                self.circuit,
                self.chain,
                copy,
                &x_const,
                &p_const,
                self.cfg.base.captures,
            );
            let resp = &record.response;
            for (&lit, &val) in so.iter().zip(&resp.scan_out).chain(po.iter().zip(&resp.po)) {
                if !self.enc.assert_lit(if val { lit } else { !lit }) {
                    return false;
                }
            }
        }
        true
    }

    /// Advances the machine by one decision. The step takes the first
    /// still-open output and asks the solver for a distinguishing input
    /// there: UNSAT closes that output and moves on to the next, SAT runs
    /// one (voted, retried) oracle round and ends the step. Once every
    /// output is closed the linear phase runs. All SAT calls of the step
    /// share one [`RobustConfig::solve_budget`].
    ///
    /// An output whose lone refutation outgrows its conflict allowance
    /// (4096, doubled on every retry) moves behind the other open
    /// outputs, so their DIPs can arrive first.
    pub fn step<O: FallibleScanAccess>(&mut self, oracle: &mut O) -> Step {
        match &self.phase {
            Phase::Converged(_) => return Step::Converged,
            Phase::Degraded(reason) => return Step::Degraded(reason.clone()),
            Phase::Running => {}
        }
        let budget = StepBudget::start(&self.cfg.solve_budget, self.enc.solver().stats());
        while let Some(&out) = self.open.front() {
            let allowance = FIRST_ALLOWANCE << self.deferrals[out].min(32);
            let left = budget.remaining(self.enc.solver().stats());
            let capped = Budget::new()
                .with_conflicts(left.conflicts.map_or(allowance, |c| c.min(allowance)));
            match self.solve(&[self.diffs[out]], &capped) {
                SolveResult::Unsat => {
                    self.open.pop_front();
                }
                SolveResult::Sat => return self.dip(oracle),
                SolveResult::Unknown if budget.spent(self.enc.solver().stats()) => {
                    return self.out_of_budget()
                }
                SolveResult::Unknown => {
                    self.deferrals[out] += 1;
                    self.open.rotate_left(1);
                }
            }
        }
        self.converge(&budget)
    }

    /// One budgeted SAT call on behalf of the current step.
    fn solve(&mut self, assumptions: &[Lit], left: &Budget) -> SolveResult {
        let t0 = Instant::now();
        let res = self.enc.solver_mut().solve_limited(assumptions, left);
        self.solve_time += t0.elapsed();
        res
    }

    fn out_of_budget(&mut self) -> Step {
        self.exhaustions += 1;
        if self.exhaustions > self.cfg.max_budget_exhaustions {
            self.degrade(DegradeReason::BudgetExhausted {
                exhaustions: self.exhaustions,
            })
        } else {
            Step::OutOfBudget
        }
    }

    /// The solver just found a distinguishing input: ask the chip and
    /// constrain both hypotheses to its answer.
    fn dip<O: FallibleScanAccess>(&mut self, oracle: &mut O) -> Step {
        if self.dips.len() == self.cfg.base.max_dips {
            return self.degrade(DegradeReason::DipLimit {
                limit: self.cfg.base.max_dips,
            });
        }
        let stimulus = model_bits(&self.enc, &self.x)
            .and_then(|pattern| model_bits(&self.enc, &self.p).map(|pis| (pattern, pis)));
        let (pattern, pis) = match stimulus {
            Ok(s) => s,
            Err(reason) => return self.degrade(reason),
        };
        let response = match self.query_voted(oracle, &pattern, &pis) {
            Ok(resp) => resp,
            Err(reason) => return self.degrade(reason),
        };
        let record = DipRecord {
            pattern,
            pis,
            response,
        };
        if !self.constrain(&record) {
            return self.degrade(DegradeReason::Inconsistent);
        }
        self.dips.push(record);
        Step::Dip
    }

    /// Transition out of the DIP loop once every output is closed:
    /// materialize a model, run the linear phase, and certify
    /// (optionally) the solver's own convergence proof.
    fn converge(&mut self, budget: &StepBudget) -> Step {
        // No distinguishing input remains: every mask assignment
        // consistent with the observations is functionally equivalent.
        // Materialize one.
        let left = budget.remaining(self.enc.solver().stats());
        match self.solve(&[], &left) {
            SolveResult::Sat => {}
            SolveResult::Unsat => return self.degrade(DegradeReason::Inconsistent),
            SolveResult::Unknown => return self.out_of_budget(),
        }
        let conv = match self.recover() {
            Ok(conv) => conv,
            Err(reason) => return self.degrade(reason),
        };

        // Certification: the convergence claim is exactly "no output can
        // differ". Each closed output's refutation left its ¬diff as a
        // level-0 fact derived by logged steps, so once the verbatim input
        // mirror is closed with the OR of the difference literals, the
        // empty clause is RUP: the live log plus that one line refutes the
        // closed miter, and the independent checker verifies it once. A
        // failure here is a solver soundness bug, not an attack failure.
        if self.cfg.base.certify {
            let t0 = Instant::now();
            let solver = self.enc.solver();
            let mut formula = solver
                .input_mirror()
                .expect("mirror enabled at attack start")
                .clone();
            formula.add_clause(self.diffs.clone());
            let mut proof = solver
                .proof()
                .expect("proof enabled at attack start")
                .text()
                .to_string();
            proof.push_str("0\n");
            match proofcheck::certify(formula, proof) {
                Ok(cert) => self.certificate = Some(cert),
                Err(e) => {
                    return self.degrade(DegradeReason::Certification {
                        reason: e.to_string(),
                    })
                }
            }
            self.certify_time = t0.elapsed();
        }
        self.phase = Phase::Converged(conv);
        Step::Converged
    }

    /// The first copy's mask values in the solver's last model, `α` then
    /// `β`.
    fn model_mask_values(&self) -> Result<Vec<bool>, DegradeReason> {
        let lits: Vec<Lit> = self.copies[0]
            .alpha
            .iter()
            .chain(&self.copies[0].beta)
            .copied()
            .collect();
        model_bits(&self.enc, &lits)
    }

    /// The linear phase over the solver's last model: the free mask bits,
    /// and the seed the basis maps them to. A dependent mask value that
    /// disagrees with its free bits degrades as
    /// [`DegradeReason::Inconsistent`].
    fn recover(&self) -> Result<Converged, DegradeReason> {
        let values = self.model_mask_values()?;
        let free = self
            .basis
            .free_values(&values)
            .ok_or(DegradeReason::Inconsistent)?;
        Ok(Converged {
            seed: self.basis.seed(&free),
            free,
        })
    }

    /// Verifies the converged seed against the oracle with random probe
    /// sessions and assembles the final result.
    ///
    /// A machine that has not converged (drive it with
    /// [`step`](AttackState::step) or use [`run`](AttackState::run))
    /// yields its [`PartialReport`], with [`DegradeReason::NotConverged`]
    /// when it was still running.
    pub fn finish<O: FallibleScanAccess>(mut self, oracle: &mut O) -> RobustOutcome {
        let conv = match &self.phase {
            Phase::Converged(conv) => conv.clone(),
            Phase::Running => {
                self.phase = Phase::Degraded(DegradeReason::NotConverged);
                return RobustOutcome::Partial(self.report());
            }
            Phase::Degraded(_) => return RobustOutcome::Partial(self.report()),
        };
        let n = self.chain.len();
        let num_pis = self.circuit.inputs().len();
        let captures = self.cfg.base.captures;

        // Verification: the recovered seed must reproduce the oracle.
        let mut relocked = LockedScanChip::new(
            self.circuit,
            self.chain.clone(),
            self.spec.clone(),
            conv.seed.clone(),
        );
        let mut rng = SplitMix64::new(self.cfg.base.rng_seed);
        for probe in 0..self.cfg.base.verify_queries {
            let pat: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
            let pis: Vec<bool> = (0..num_pis).map(|_| rng.gen_bool()).collect();
            let expect = match self.query_voted(oracle, &pat, &pis) {
                Ok(resp) => resp,
                Err(reason) => {
                    self.phase = Phase::Degraded(reason);
                    return RobustOutcome::Partial(self.report());
                }
            };
            if relocked.query_captures(&pat, &pis, captures) != expect {
                self.phase = Phase::Degraded(DegradeReason::VerificationFailed {
                    probes_passed: probe,
                });
                return RobustOutcome::Partial(self.report());
            }
        }

        let unlock = Unlock {
            seed: conv.seed,
            dip_iterations: self.dips.len(),
            oracle_queries: self.oracle_queries,
            solve_time: self.solve_time,
            total_time: self.start.elapsed(),
            rank: self.basis.rank(),
            nullity: self.spec.width() - self.basis.rank(),
            verified: self.cfg.base.verify_queries > 0,
            certificate: self.certificate,
            certify_time: self.certify_time,
            solver_stats: *self.enc.solver().stats(),
        };
        RobustOutcome::Unlocked {
            unlock,
            faults: self.faults,
        }
    }

    /// Drives the machine to an outcome: steps until convergence or
    /// degradation, then verifies or reports. Budget-exhausted steps keep
    /// going until [`RobustConfig::max_budget_exhaustions`] trips.
    pub fn run<O: FallibleScanAccess>(mut self, oracle: &mut O) -> RobustOutcome {
        loop {
            match self.step(oracle) {
                Step::Dip | Step::OutOfBudget => {}
                Step::Converged => return self.finish(oracle),
                Step::Degraded(_) => return RobustOutcome::Partial(self.report()),
            }
        }
    }

    /// The graceful-degradation report for the machine's current state:
    /// what has been established, what is still guessed, and why the run
    /// stopped. Meaningful in any phase (in the running phase the reason
    /// is reported as budget exhaustion so far).
    pub fn report(&mut self) -> PartialReport {
        let width = self.spec.width();
        let reason = match &self.phase {
            Phase::Degraded(r) => r.clone(),
            _ => DegradeReason::BudgetExhausted {
                exhaustions: self.exhaustions,
            },
        };

        // Rank and pinned bits are properties of the mask row space (of
        // the lock); only the candidate seed needs mask values.
        let (candidate, converged) = match &self.phase {
            Phase::Converged(conv) => (Some(conv.seed.clone()), true),
            _ => {
                // Best current hypothesis: the seed of any mask assignment
                // consistent with every response so far, if one is
                // reachable within budget.
                let budget = self.cfg.solve_budget;
                let model = self.solve(&[], &budget) == SolveResult::Sat;
                let seed = model.then(|| self.recover().ok()).flatten();
                (seed.map(|conv| conv.seed), false)
            }
        };
        let rank = self.basis.rank();

        let bit_confidence: Vec<f64> = (0..width)
            .map(|b| match (self.basis.pins(b), converged) {
                (false, _) => 0.5,
                (true, true) => 1.0,
                (true, false) => 0.75,
            })
            .collect();

        PartialReport {
            reason,
            dip_iterations: self.dips.len(),
            oracle_queries: self.oracle_queries,
            rank,
            nullity: width - rank,
            bit_confidence,
            candidate_seed: candidate,
            faults: self.faults,
            solver_stats: *self.enc.solver().stats(),
            total_time: self.start.elapsed(),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint and resume (the `duckpt` codec is `crate::ckpt`)
// ---------------------------------------------------------------------

impl<'a> AttackState<'a> {
    /// Snapshots the machine into a serializable [`Checkpoint`]: what the
    /// oracle said (the DIP set), the free mask bits and the seed when
    /// converged, and the run counters, keyed by the instance hash.
    /// Nothing the solver derived is kept, so a certifying run's
    /// checkpoint is the same as any other's.
    pub fn checkpoint(&self) -> Checkpoint {
        let phase = match &self.phase {
            Phase::Converged(conv) => CkptPhase::Converged(conv.clone()),
            // A degraded machine checkpoints as running: resuming it
            // elsewhere (bigger budget, healthier oracle) is the point.
            Phase::Running | Phase::Degraded(_) => CkptPhase::Running,
        };
        Checkpoint {
            instance: instance_hash(self.circuit, self.chain, self.spec, self.cfg.base.captures),
            width: self.spec.width(),
            cells: self.chain.len(),
            captures: self.cfg.base.captures,
            oracle_queries: self.oracle_queries,
            retries: self.faults.retries,
            repaired_bits: self.faults.repaired_bits,
            exhaustions: self.exhaustions,
            dips: self.dips.clone(),
            phase,
        }
    }

    /// Rebuilds a machine from a checkpoint, re-validating it against the
    /// live oracle before continuing.
    ///
    /// Every recorded DIP is re-queried against `oracle` and compared to
    /// its recorded response, then the DIP constraints are replayed into
    /// a fresh [`AttackState::new`]: under [`AttackConfig::certify`] the
    /// fresh solver logs a fresh proof, so the resumed run's certificate
    /// is over the verbatim inputs with no carried steps. The search
    /// starts cold; what it learns again follows from the replayed DIPs.
    /// A converged checkpoint additionally restores the linear-phase
    /// result once its free bits fit the rebuilt mask basis and its seed
    /// is their seed, checked before any oracle query.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InstanceMismatch`] when the checkpoint belongs
    /// to a different instance, [`CheckpointError::OracleMismatch`] when
    /// the live oracle contradicts a recorded DIP (an answer of the wrong
    /// length included), [`CheckpointError::OracleUnavailable`] when
    /// re-validation queries keep faulting,
    /// [`CheckpointError::Inconsistent`] when the recorded shape or
    /// vector lengths do not fit the instance or the recorded data
    /// contradicts the rebuilt model.
    pub fn resume<O: FallibleScanAccess>(
        circuit: &'a Circuit,
        chain: &'a ScanChain,
        spec: &'a LockSpec,
        cfg: RobustConfig,
        ckpt: &Checkpoint,
        oracle: &mut O,
    ) -> Result<AttackState<'a>, CheckpointError> {
        let got = instance_hash(circuit, chain, spec, cfg.base.captures);
        if got != ckpt.instance {
            return Err(CheckpointError::InstanceMismatch {
                expected: ckpt.instance,
                got,
            });
        }
        // The hash does not cover the recorded vectors: check every length
        // against the live instance before any of them reaches the oracle
        // or the encoder.
        let (cells, pis, pos) = (chain.len(), circuit.inputs().len(), circuit.outputs().len());
        let shape = (spec.width(), cells, cfg.base.captures);
        if (ckpt.width, ckpt.cells, ckpt.captures) != shape
            || ckpt.dips.iter().any(|d| {
                d.pattern.len() != cells
                    || d.pis.len() != pis
                    || d.response.scan_out.len() != cells
                    || d.response.po.len() != pos
            })
        {
            return Err(CheckpointError::Inconsistent);
        }
        let mut state = AttackState::new(circuit, chain, spec, cfg);
        if let CkptPhase::Converged(conv) = &ckpt.phase {
            // The recorded seed must be what the rebuilt basis makes of
            // the recorded free bits.
            if conv.free.len() != state.basis.rank() || state.basis.seed(&conv.free) != conv.seed {
                return Err(CheckpointError::Inconsistent);
            }
            state.phase = Phase::Converged(conv.clone());
        }

        // Re-validate against the live bench: every recorded DIP must
        // reproduce (modulo the vote repairing fresh noise).
        for (i, record) in ckpt.dips.iter().enumerate() {
            let live = state
                .query_voted(oracle, &record.pattern, &record.pis)
                .map_err(|reason| match reason {
                    DegradeReason::Inconsistent => CheckpointError::OracleMismatch { dip: i },
                    _ => CheckpointError::OracleUnavailable,
                })?;
            if live != record.response {
                return Err(CheckpointError::OracleMismatch { dip: i });
            }
        }

        // Replay the DIP constraints in order.
        for record in &ckpt.dips {
            if !state.constrain(record) {
                return Err(CheckpointError::Inconsistent);
            }
        }

        state.dips = ckpt.dips.clone();
        state.oracle_queries += ckpt.oracle_queries;
        state.faults.retries += ckpt.retries;
        state.faults.repaired_bits += ckpt.repaired_bits;
        state.exhaustions = ckpt.exhaustions;

        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{solve_system, BitMatrix, Xoshiro256};
    use lfsr::TapSet;
    use netlist::generator::s208_like;
    use sim::{FaultSpec, FaultyOracle, Reliable};

    struct Fixture {
        circuit: Circuit,
        chain: ScanChain,
        spec: LockSpec,
        secret: BitVec,
    }

    fn fixture(width: usize, gates: usize, seed: u64) -> Fixture {
        let circuit = s208_like();
        let chain = ScanChain::natural(8);
        let mut rng = Xoshiro256::new(seed);
        let taps = TapSet::maximal(width).unwrap();
        let spec = LockSpec::random(taps, chain.len(), gates, &mut rng);
        let secret = spec.random_seed(&mut rng);
        Fixture {
            circuit,
            chain,
            spec,
            secret,
        }
    }

    impl Fixture {
        fn oracle(&self) -> LockedScanChip<'_> {
            LockedScanChip::new(
                &self.circuit,
                self.chain.clone(),
                self.spec.clone(),
                self.secret.clone(),
            )
        }

        /// The recovery promise at the attacked shape (one capture).
        fn same_class(&self, seed: &BitVec) -> bool {
            crate::attack::same_class(
                &self.circuit,
                &self.chain,
                &self.spec,
                seed,
                &self.secret,
                1,
                1000,
            )
        }
    }

    #[test]
    fn strict_run_matches_legacy_unlock() {
        let f = fixture(12, 6, 0xAB);
        let cfg = RobustConfig::strict(AttackConfig::default());
        let outcome =
            AttackState::new(&f.circuit, &f.chain, &f.spec, cfg).run(&mut Reliable(f.oracle()));
        let RobustOutcome::Unlocked { unlock, faults } = outcome else {
            panic!("reliable oracle must unlock");
        };
        let wrapped = crate::attack::unlock(
            &f.circuit,
            &f.chain,
            &f.spec,
            &mut f.oracle(),
            &AttackConfig::default(),
        )
        .unwrap();
        assert_eq!(unlock.seed, wrapped.seed);
        assert_eq!(unlock.dip_iterations, wrapped.dip_iterations);
        assert_eq!(unlock.oracle_queries, wrapped.oracle_queries);
        assert_eq!(faults, FaultStats::default());
    }

    #[test]
    fn recovers_exact_seed_through_noise_and_transients() {
        let f = fixture(16, 8, 0xC1);
        let cfg = RobustConfig {
            replication: 3,
            ..RobustConfig::default()
        };
        let mut faulty = FaultyOracle::new(
            f.oracle(),
            FaultSpec::new(0xB0_15E5)
                .with_bit_flips(8_000)
                .with_transients(60_000),
        );
        let outcome = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg).run(&mut faulty);
        let RobustOutcome::Unlocked { unlock, faults } = outcome else {
            panic!("vote + retry must repair this schedule");
        };
        assert!(f.same_class(&unlock.seed));
        assert!(faults.retries > 0 || faulty.stats().transient_faults == 0);
    }

    #[test]
    fn oracle_that_never_answers_degrades_gracefully() {
        let f = fixture(12, 6, 0xD2);
        let cfg = RobustConfig {
            retry: RetryPolicy { max_retries: 2 },
            ..RobustConfig::default()
        };
        // 100% transient: every query fails, retries exhaust.
        let mut dead = FaultyOracle::new(f.oracle(), FaultSpec::new(9).with_transients(1_000_000));
        let outcome = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg).run(&mut dead);
        let RobustOutcome::Partial(report) = outcome else {
            panic!("a dead oracle cannot unlock");
        };
        assert_eq!(
            report.reason,
            DegradeReason::OracleUnavailable { retries: 2 }
        );
        assert_eq!(report.nullity, f.spec.width() - report.rank);
        assert_eq!(report.bit_confidence.len(), f.spec.width());
        assert!(report.faults.retries > 0);
    }

    #[test]
    fn budget_exhaustion_degrades_with_partial_report() {
        let f = fixture(16, 8, 0xE3);
        let cfg = RobustConfig {
            solve_budget: Budget::new().with_conflicts(0),
            max_budget_exhaustions: 2,
            ..RobustConfig::default()
        };
        let outcome =
            AttackState::new(&f.circuit, &f.chain, &f.spec, cfg).run(&mut Reliable(f.oracle()));
        let RobustOutcome::Partial(report) = outcome else {
            panic!("a 0-conflict budget cannot converge");
        };
        assert!(matches!(
            report.reason,
            DegradeReason::BudgetExhausted { exhaustions: 3 }
        ));
        assert!(report.solver_stats.budget_exhaustions >= 3);
        // Confidence grades every seed bit, and never overstates.
        assert!(report
            .bit_confidence
            .iter()
            .all(|&c| (0.5..=1.0).contains(&c)));
    }

    #[test]
    fn stepwise_drive_with_mid_loop_checkpoint() {
        let f = fixture(16, 8, 0xF4);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());

        // Run two DIP rounds, checkpoint, then abandon this machine.
        let mut steps = 0;
        while state.dip_count() < 2 {
            match state.step(&mut oracle) {
                Step::Dip => {}
                Step::Converged => break, // tiny instance converged early
                other => panic!("unexpected step outcome: {other:?}"),
            }
            steps += 1;
            assert!(steps < 100);
        }
        let bytes = state.checkpoint().to_bytes();
        drop(state);

        // A different process: parse, resume, finish.
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let resumed = AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut oracle)
            .expect("same instance, same oracle");
        let RobustOutcome::Unlocked { unlock, .. } = resumed.run(&mut oracle) else {
            panic!("resumed attack must converge");
        };
        assert!(f.same_class(&unlock.seed));
    }

    #[test]
    fn converged_checkpoint_resumes_without_resolving() {
        let f = fixture(12, 6, 0x1A);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        while !matches!(state.step(&mut oracle), Step::Converged) {}
        let bytes = state.checkpoint().to_bytes();
        let seed_before = match &state.phase {
            Phase::Converged(c) => c.seed.clone(),
            _ => unreachable!(),
        };

        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let resumed =
            AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut oracle).unwrap();
        assert!(resumed.is_terminal());
        let RobustOutcome::Unlocked { unlock, .. } = resumed.finish(&mut oracle) else {
            panic!("converged checkpoint must verify");
        };
        assert_eq!(unlock.seed, seed_before);
    }

    #[test]
    fn report_on_a_converged_machine_grades_pinned_bits_as_certain() {
        // A 24-bit key behind 16 mask rows leaves free seed bits, so both
        // grades occur.
        let f = fixture(24, 6, 0x4D);
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, RobustConfig::default());
        while !matches!(state.step(&mut oracle), Step::Converged) {}
        let CkptPhase::Converged(Converged { seed, .. }) = state.checkpoint().phase else {
            panic!("a converged machine checkpoints as converged");
        };
        // The batch Gauss–Jordan reference over the secret's mask values.
        let masks = session_masks(&f.spec, f.chain.len(), 1);
        let rows = BitMatrix::from_rows(masks.alpha.iter().chain(&masks.beta).cloned().collect());
        let (alpha, beta) = masks.mask_values(&f.secret);
        let values: Vec<bool> = alpha.into_iter().chain(beta).collect();
        let reference = solve_system(&rows, &values.iter().copied().collect()).unwrap();
        let got: Vec<bool> = rows.iter_rows().map(|row| row.dot(&seed)).collect();
        assert_eq!(got, values, "the converged seed satisfies every row");

        let report = state.report();
        assert_eq!(report.rank, rows.rank());
        assert_eq!(report.nullity, 24 - rows.rank());
        assert!(0 < report.rank && report.rank < 24, "rank {}", report.rank);
        for (b, &c) in report.bit_confidence.iter().enumerate() {
            let pinned = reference.nullspace.iter().all(|v| !v.get(b));
            assert_eq!(c, if pinned { 1.0 } else { 0.5 }, "seed bit {b}");
            if pinned {
                assert_eq!(seed.get(b), f.secret.get(b), "pinned seed bit {b}");
            }
        }
        assert_eq!(report.candidate_seed, Some(seed));
        assert!(report.bit_confidence.contains(&1.0));
        assert!(report.bit_confidence.contains(&0.5));
    }

    #[test]
    fn checkpoint_rejects_wrong_instance() {
        let f = fixture(12, 6, 0x2B);
        let other = fixture(12, 6, 0x3C); // different spec → different hash
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();
        let err = AttackState::resume(
            &other.circuit,
            &other.chain,
            &other.spec,
            cfg,
            &ckpt,
            &mut oracle,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::InstanceMismatch { .. }));
    }

    #[test]
    fn checkpoint_rejects_wrong_oracle() {
        let f = fixture(12, 6, 0x4D);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        // Gather at least one DIP so re-validation has something to check.
        while state.dip_count() < 1 {
            if matches!(state.step(&mut oracle), Step::Converged) {
                return; // degenerate instance; nothing to test
            }
        }
        let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();
        // Same spec, different secret: the live oracle answers DIPs
        // differently (almost surely) and re-validation must notice.
        let mut rng = Xoshiro256::new(0x5E);
        let wrong_secret = f.spec.random_seed(&mut rng);
        assert_ne!(wrong_secret, f.secret);
        let mut wrong = Reliable(LockedScanChip::new(
            &f.circuit,
            f.chain.clone(),
            f.spec.clone(),
            wrong_secret,
        ));
        let res = AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut wrong);
        assert!(matches!(res, Err(CheckpointError::OracleMismatch { .. })));
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let f = fixture(16, 8, 0x6E);
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, RobustConfig::default());
        for _ in 0..3 {
            if matches!(state.step(&mut oracle), Step::Converged) {
                break;
            }
        }
        let ckpt = state.checkpoint();
        let reparsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, reparsed);
    }

    #[test]
    fn finish_on_a_running_machine_reports_not_converged() {
        let f = fixture(16, 8, 0x7F);
        let mut oracle = Reliable(f.oracle());
        let state = AttackState::new(&f.circuit, &f.chain, &f.spec, RobustConfig::default());
        let RobustOutcome::Partial(report) = state.finish(&mut oracle) else {
            panic!("nothing converged, nothing to verify");
        };
        assert_eq!(report.reason, DegradeReason::NotConverged);
        assert_eq!(report.dip_iterations, 0);
        assert_eq!(report.bit_confidence.len(), 16);
    }

    #[test]
    fn model_bits_refuses_to_read_a_missing_model() {
        let mut enc = Encoder::new();
        let lits = enc.fresh_many(3);
        enc.assert_lit(lits[1]);
        assert_eq!(
            model_bits(&enc, &lits),
            Err(DegradeReason::Inconsistent),
            "no solve yet: no model to read"
        );
        assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
        let bits = model_bits(&enc, &lits).expect("a model assigns every literal");
        assert!(bits[1]);
        enc.assert_lit(!lits[1]);
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
        assert!(
            model_bits(&enc, &lits).is_err(),
            "an UNSAT answer clears the model"
        );
    }

    #[test]
    fn a_step_shares_one_conflict_budget_across_its_sat_calls() {
        // A 32-flop s5378 lock: the smallest cliff size where single
        // steps routinely close outputs and then search on.
        let profile = netlist::profiles::by_name("s5378").unwrap();
        let circuit = profile.scaled(32.0 / profile.scan_flops as f64).build(3);
        let n = circuit.num_dffs();
        let mut rng = Xoshiro256::new(0x32);
        let chain = ScanChain::shuffled(n, &mut rng);
        let taps = TapSet::for_width(64, (2 * n + 1) as u64, &mut rng).unwrap();
        let spec = LockSpec::random(taps, n, n / 2, &mut rng);
        let secret = spec.random_seed(&mut rng);
        let mut oracle = Reliable(LockedScanChip::new(
            &circuit,
            chain.clone(),
            spec.clone(),
            secret,
        ));
        let cap = 400;
        let cfg = RobustConfig {
            solve_budget: Budget::new().with_conflicts(cap),
            max_budget_exhaustions: u32::MAX,
            ..RobustConfig::default()
        };
        let mut state = AttackState::new(&circuit, &chain, &spec, cfg);
        let mut multi_call_steps = 0;
        for _ in 0..60 {
            let (before, open) = (state.solver_stats().conflicts, state.open.len());
            let step = state.step(&mut oracle);
            let spent = state.solver_stats().conflicts - before;
            assert!(spent <= cap, "{step:?} spent {spent} conflicts of {cap}");
            if state.open.len() < open && !matches!(step, Step::Converged) {
                multi_call_steps += 1;
            }
            if state.is_terminal() {
                break;
            }
        }
        assert!(
            multi_call_steps > 0,
            "some step closed an output and searched on"
        );
    }
}
