//! One attack, driven from outside through the public `AttackState` API,
//! with an optional span trace and the bench's own correctness check.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dynunlock::{
    session_masks, AttackState, Checkpoint, DegradeReason, RobustOutcome, Step, Unlock,
};
use gf2::{BitVec, Rng64, Xoshiro256};
use lfsr::recover::SeedRecovery;
use satsolver::SolverStats;
use sim::{FallibleScanAccess, FaultyOracle, OracleFault, Reliable, ScanAccess, ScanResponse};

use crate::workload::{Locked, Plan, Workload};

/// Held-out sessions the bench replays against every unlocked seed.
pub const HELD_OUT_SESSIONS: usize = 48;
/// Separates the held-out RNG stream from the variant's other uses (the
/// attack's own verification probes use `AttackConfig::rng_seed`).
const HELD_OUT_STREAM: u64 = 0x4E1D_0C7E_57AB_1E00;
/// On `assured`, the checkpoint round trip follows this DIP, or
/// convergence when the attack needs fewer.
pub const ROUND_TRIP_DIP: usize = 4;

/// A timing adaptor around the oracle: counts every session attempt, and
/// when tracing records each session's interval.
#[derive(Debug)]
pub struct Metered<O> {
    inner: O,
    sessions: u64,
    intervals: Option<Vec<(Instant, Instant)>>,
}

impl<O> Metered<O> {
    fn new(inner: O, timed: bool) -> Self {
        Metered {
            inner,
            sessions: 0,
            intervals: timed.then(Vec::new),
        }
    }
}

impl<O: FallibleScanAccess> FallibleScanAccess for Metered<O> {
    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn num_pis(&self) -> usize {
        self.inner.num_pis()
    }

    fn num_pos(&self) -> usize {
        self.inner.num_pos()
    }

    fn try_query_captures(
        &mut self,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> Result<ScanResponse, OracleFault> {
        self.sessions += 1;
        let Some(intervals) = &mut self.intervals else {
            return self.inner.try_query_captures(pattern, pis, captures);
        };
        let t0 = Instant::now();
        let out = self.inner.try_query_captures(pattern, pis, captures);
        intervals.push((t0, Instant::now()));
        out
    }
}

/// How an attack ended, after the bench's own check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Converged, verified by the attack, and passed the held-out check.
    Unlocked {
        /// The recovered seed equals the secret bit for bit.
        exact: bool,
    },
    /// The workload's conflict budget ran out: a bounded attempt, not an
    /// error.
    BudgetOut,
    /// Anything else: degraded for another reason, resume rejected, or a
    /// seed that fails the held-out check.
    Failed(String),
}

/// Counts that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// DIP rounds.
    pub dips: u64,
    /// Solver conflicts over the whole attack (both solvers when resumed).
    pub conflicts: u64,
    /// Oracle session attempts, as the adaptor saw them.
    pub sessions: u64,
    /// Rank of the recovered mask system (0 unless unlocked).
    pub rank: u64,
}

/// Per-layer numbers of one traced attack, keyed by the metric names in
/// `BENCHMARK.json` (plus `bench.unaccounted_ns`, the attack time no span
/// covers). Times are self times: a span's duration minus the oracle
/// sessions inside it.
pub type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_default() += value;
}

/// One recorded span of the trace, relative to the attack's start.
#[derive(Debug, Clone)]
pub struct Span {
    /// `attack`, `new`, `step`, `checkpoint`, `parse`, `resume`, `finish`
    /// or `oracle`.
    pub name: &'static str,
    /// The step kind for `step` spans.
    pub tag: Option<&'static str>,
    /// Index of the parent span in the attack's list (`None` for the root).
    pub parent: Option<usize>,
    /// Start, ns after the attack started.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Solver counter deltas over a `step` span.
    pub stats: Option<SolverStats>,
}

/// Everything one attack produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// Wall time from before `AttackState::new` to the end of `finish`, or
    /// to the degrading step.
    pub wall: Duration,
    /// How it ended.
    pub outcome: Outcome,
    /// Determinism fingerprint.
    pub counts: Counts,
    /// Per-layer numbers and spans (traced runs only).
    pub trace: Option<(Layers, Vec<Span>)>,
}

/// Collects the attack root's child spans when tracing; a no-op
/// otherwise.
struct Spans {
    on: bool,
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.list.push(Span {
            name,
            tag: None,
            parent: Some(0),
            start_ns: self.ns(start),
            dur_ns: (end - start).as_nanos() as u64,
            stats: None,
        });
        out
    }
}

fn step_tag(step: &Step) -> &'static str {
    match step {
        Step::Dip => "Dip",
        Step::Converged => "Converged",
        Step::OutOfBudget => "OutOfBudget",
        Step::Degraded(_) => "Degraded",
    }
}

fn stats_delta(a: &SolverStats, b: &SolverStats) -> SolverStats {
    SolverStats {
        decisions: b.decisions - a.decisions,
        propagations: b.propagations - a.propagations,
        conflicts: b.conflicts - a.conflicts,
        restarts: b.restarts - a.restarts,
        learnt_clauses: b.learnt_clauses - a.learnt_clauses,
        minimized_literals: b.minimized_literals - a.minimized_literals,
        deleted_clauses: b.deleted_clauses - a.deleted_clauses,
        xor_propagations: b.xor_propagations - a.xor_propagations,
        xor_conflicts: b.xor_conflicts - a.xor_conflicts,
        budget_exhaustions: b.budget_exhaustions - a.budget_exhaustions,
    }
}

/// Attacks one lock with the plan's configuration and checks the result.
pub fn run(plan: &Plan, locked: &Locked, trace: bool) -> Record {
    let mut chip = locked.chip();
    if plan.workload == Workload::Assured {
        let faulty = FaultyOracle::new(&mut chip, plan.fault_spec(&locked.spec));
        drive(plan, locked, Metered::new(faulty, trace))
    } else {
        drive(plan, locked, Metered::new(Reliable(&mut chip), trace))
    }
}

/// What the attack loop itself returned, before the bench's checks.
struct Raw {
    end: Result<(Unlock, dynunlock::FaultStats), Outcome>,
    dips: usize,
    /// The attack went on from a resumed state.
    resumed: bool,
    conflicts_before_resume: u64,
    ckpt_bytes: usize,
    last_stats: SolverStats,
}

fn drive<O: FallibleScanAccess>(plan: &Plan, locked: &Locked, mut oracle: Metered<O>) -> Record {
    let tracing = oracle.intervals.is_some();
    let start = Instant::now();
    let mut spans = Spans {
        on: tracing,
        origin: start,
        list: Vec::new(),
    };
    let raw = attack_loop(plan, locked, &mut oracle, &mut spans);
    let wall = start.elapsed();

    let unlocked_seed = raw.end.as_ref().ok().map(|(u, _)| u.seed.clone());
    let (mut outcome, rank) = match &raw.end {
        Ok((unlock, _)) => {
            let outcome = if held_out_check(locked, &unlock.seed) {
                Outcome::Unlocked {
                    exact: unlock.seed == locked.secret,
                }
            } else {
                Outcome::Failed(format!(
                    "{}: seed fails the held-out check",
                    locked.spec.label()
                ))
            };
            (outcome, unlock.rank as u64)
        }
        Err(outcome) => (outcome.clone(), 0),
    };
    let final_stats = match &raw.end {
        Ok((unlock, _)) => unlock.solver_stats,
        Err(_) => raw.last_stats,
    };
    let counts = Counts {
        dips: raw.dips as u64,
        conflicts: raw.conflicts_before_resume + final_stats.conflicts,
        sessions: oracle.sessions,
        rank,
    };
    if !tracing {
        return Record {
            wall,
            outcome,
            counts,
            trace: None,
        };
    }

    // Self times: each oracle session is a child of the span that made
    // it; every other span is a child of the attack root.
    let sessions: Vec<(u64, u64)> = oracle
        .intervals
        .take()
        .unwrap_or_default()
        .iter()
        .map(|&(a, b)| (spans.ns(a), (b - a).as_nanos() as u64))
        .collect();
    let mut out = vec![Span {
        name: "attack",
        tag: None,
        parent: None,
        start_ns: 0,
        dur_ns: wall.as_nanos() as u64,
        stats: None,
    }];
    let mut layers = Layers::new();
    let mut covered = 0u64;
    // Solver work done before a mid-run resume is not in the resumed
    // state's `Unlock::solve_time`; the steps that did it stand in for it.
    let mut pre_resume_steps = 0.0;
    let mut seen_resume = false;
    for s in spans.list {
        let id = out.len();
        let end = s.start_ns + s.dur_ns;
        let inner: Vec<&(u64, u64)> = sessions
            .iter()
            .filter(|(a, d)| *a >= s.start_ns && a + d <= end)
            .collect();
        let own = (s.dur_ns - inner.iter().map(|(_, d)| d).sum::<u64>()) as f64;
        covered += s.dur_ns;
        let st = s.stats.unwrap_or_default();
        let (time, counts) = match (s.name, s.tag) {
            ("new", _) => ("cnf.new_ns", vec![]),
            ("step", Some("Dip")) => (
                "sat.dip_step_ns",
                vec![
                    ("sat.dip_steps", 1),
                    ("sat.dip_conflicts", st.conflicts),
                    ("sat.dip_propagations", st.propagations),
                ],
            ),
            ("step", _) => (
                "sat.converge_step_ns",
                vec![
                    ("sat.converge_conflicts", st.conflicts),
                    ("sat.converge_propagations", st.propagations),
                    ("sat.converge_xor_propagations", st.xor_propagations),
                    ("sat.converge_xor_conflicts", st.xor_conflicts),
                    ("sat.converge_learnts", st.learnt_clauses),
                ],
            ),
            ("checkpoint", _) => ("robust.ckpt_serialize_ns", vec![]),
            ("parse", _) => ("robust.ckpt_parse_ns", vec![]),
            ("resume", _) => ("robust.resume_ns", vec![]),
            ("finish", _) => ("sim.verify_ns", vec![]),
            _ => unreachable!("unknown span {}", s.name),
        };
        add(&mut layers, time, own);
        for (name, count) in counts {
            add(&mut layers, name, count as f64);
        }
        seen_resume |= s.name == "resume";
        if s.name == "step" && raw.resumed && !seen_resume {
            pre_resume_steps += own;
        }
        out.push(s);
        out.extend(inner.into_iter().map(|&(start_ns, dur_ns)| Span {
            name: "oracle",
            tag: None,
            parent: Some(id),
            start_ns,
            dur_ns,
            stats: None,
        }));
    }
    let ns = |d: Duration| d.as_nanos() as f64;
    let oracle_ns: f64 = sessions.iter().map(|&(_, d)| d as f64).sum();
    // The converge step contains certification; split it out.
    let certify = raw.end.as_ref().map_or(0.0, |(u, _)| ns(u.certify_time));
    add(&mut layers, "sat.converge_step_ns", -certify);
    add(&mut layers, "proofcheck.certify_ns", certify);
    add(&mut layers, "sim.oracle_ns", oracle_ns);
    add(
        &mut layers,
        "bench.unaccounted_ns",
        ns(wall) - covered as f64,
    );
    let exhaustions = final_stats.budget_exhaustions as f64;
    add(&mut layers, "sat.budget_exhaustions", exhaustions);
    add(&mut layers, "robust.ckpt_bytes", raw.ckpt_bytes as f64);

    if let Ok((unlock, faults)) = &raw.end {
        let solve = ns(unlock.solve_time) + pre_resume_steps;
        add(&mut layers, "sat.solve_ns", solve);
        add(
            &mut layers,
            "sat.nonsolve_ns",
            ns(wall) - solve - oracle_ns - certify,
        );
        add(&mut layers, "robust.retries", faults.retries as f64);
        add(
            &mut layers,
            "robust.repaired_bits",
            faults.repaired_bits as f64,
        );
        if let Some(cert) = &unlock.certificate {
            let t0 = Instant::now();
            let checked = proofcheck::check_text(&cert.formula, &cert.proof);
            add(&mut layers, "proofcheck.check_ns", ns(t0.elapsed()));
            if let Err(e) = checked {
                outcome = Outcome::Failed(format!(
                    "{}: certificate rejected: {e}",
                    locked.spec.label()
                ));
            }
            add(
                &mut layers,
                "proofcheck.proof_steps",
                cert.stats.steps() as f64,
            );
            add(
                &mut layers,
                "proofcheck.proof_bytes",
                cert.proof.len() as f64,
            );
        }
    }

    // The model and linear layers, timed on their own with the attack's
    // inputs (outside the attack's wall time).
    let n = locked.chain.len();
    let t0 = Instant::now();
    let masks = std::hint::black_box(session_masks(&locked.lock, n, plan.robust.base.captures));
    add(&mut layers, "model.session_masks_ns", ns(t0.elapsed()));
    if let Some(seed) = unlocked_seed {
        let (alpha, beta) = masks.mask_values(&seed);
        let t0 = Instant::now();
        let mut rec = SeedRecovery::new(locked.lock.taps().clone());
        let rows = masks.alpha.iter().chain(&masks.beta);
        for (row, value) in rows.zip(alpha.into_iter().chain(beta)) {
            rec.observe_form(row.clone(), value)
                .expect("mask values of one seed are consistent");
        }
        add(&mut layers, "lfsr.recover_ns", ns(t0.elapsed()));
        add(&mut layers, "lfsr.rank", rec.rank() as f64);
    }
    Record {
        wall,
        outcome,
        counts,
        trace: Some((layers, out)),
    }
}

/// The attack proper: `new` → `step`… → `finish`, with one checkpoint
/// round trip on `assured`. Everything in here is inside the attack's wall
/// time.
fn attack_loop<O: FallibleScanAccess>(
    plan: &Plan,
    locked: &Locked,
    oracle: &mut Metered<O>,
    spans: &mut Spans,
) -> Raw {
    let cfg = &plan.robust;
    let (circuit, chain, lock) = (&locked.circuit, &locked.chain, &locked.lock);
    let mut state = spans.time("new", || {
        AttackState::new(circuit, chain, lock, cfg.clone())
    });
    let mut raw = Raw {
        end: Err(Outcome::Failed("not run".into())),
        dips: 0,
        resumed: false,
        conflicts_before_resume: 0,
        ckpt_bytes: 0,
        last_stats: SolverStats::default(),
    };
    let mut round_tripped = plan.workload != Workload::Assured;
    loop {
        let before = spans.on.then(|| state.solver_stats());
        let step = spans.time("step", || state.step(oracle));
        if let Some(before) = before {
            let last = spans.list.last_mut().expect("step span just recorded");
            last.tag = Some(step_tag(&step));
            last.stats = Some(stats_delta(&before, &state.solver_stats()));
        }
        let converged = match step {
            Step::Dip | Step::OutOfBudget => false,
            Step::Converged => true,
            Step::Degraded(reason) => {
                raw.dips = state.dip_count();
                raw.last_stats = state.solver_stats();
                raw.end = Err(match reason {
                    DegradeReason::BudgetExhausted { .. } if !cfg.solve_budget.is_unlimited() => {
                        Outcome::BudgetOut
                    }
                    other => Outcome::Failed(format!("{}: degraded: {other}", locked.spec.label())),
                });
                return raw;
            }
        };
        if !round_tripped && (converged || state.dip_count() >= ROUND_TRIP_DIP) {
            round_tripped = true;
            let resumed = match round_trip(plan, locked, &state, oracle, spans, &mut raw) {
                Ok(s) if converged && !s.is_terminal() => Err("resume lost convergence".into()),
                other => other,
            };
            match resumed {
                // A checkpoint does not carry the certificate, so a
                // converged attack finishes on its own state; the resumed
                // copy only had to pass `resume`'s checks.
                Ok(_) if converged => {}
                Ok(s) => {
                    raw.resumed = true;
                    raw.conflicts_before_resume = state.solver_stats().conflicts;
                    state = s;
                }
                Err(why) => {
                    raw.end = Err(Outcome::Failed(format!("{}: {why}", locked.spec.label())));
                    return raw;
                }
            }
        }
        if converged {
            break;
        }
    }
    raw.dips = state.dip_count();
    let outcome = spans.time("finish", || state.finish(oracle));
    raw.end = match outcome {
        RobustOutcome::Unlocked { unlock, faults } => Ok((unlock, faults)),
        RobustOutcome::Partial(report) => Err(Outcome::Failed(format!(
            "{}: verification degraded: {}",
            locked.spec.label(),
            report.reason
        ))),
    };
    raw
}

/// `checkpoint` → `to_bytes` → `from_bytes` → `resume` against the live
/// oracle.
fn round_trip<'a, O: FallibleScanAccess>(
    plan: &Plan,
    locked: &'a Locked,
    state: &AttackState<'_>,
    oracle: &mut Metered<O>,
    spans: &mut Spans,
    raw: &mut Raw,
) -> Result<AttackState<'a>, String> {
    let bytes = spans.time("checkpoint", || state.checkpoint().to_bytes());
    raw.ckpt_bytes = bytes.len();
    let ckpt = spans
        .time("parse", || Checkpoint::from_bytes(&bytes))
        .map_err(|e| format!("checkpoint parse: {e}"))?;
    let (circuit, chain, lock) = (&locked.circuit, &locked.chain, &locked.lock);
    spans
        .time("resume", || {
            AttackState::resume(circuit, chain, lock, plan.robust.clone(), &ckpt, oracle)
        })
        .map_err(|e| format!("resume: {e}"))
}

/// The bench's own check of a recovered seed: a fresh chip holding the
/// true secret and one holding `seed` must answer the same held-out random
/// sessions, drawn from an RNG stream the attack never sees.
pub fn held_out_check(locked: &Locked, seed: &BitVec) -> bool {
    if seed.len() != locked.secret.len() {
        return false;
    }
    let mut truth = locked.chip();
    let mut candidate = scanlock::LockedScanChip::new(
        &locked.circuit,
        locked.chain.clone(),
        locked.lock.clone(),
        seed.clone(),
    );
    let mut rng = Xoshiro256::new(locked.spec.variant ^ HELD_OUT_STREAM);
    let (n, num_pis) = (locked.chain.len(), locked.circuit.inputs().len());
    (0..HELD_OUT_SESSIONS).all(|_| {
        let pattern: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
        let pis: Vec<bool> = (0..num_pis).map(|_| rng.gen_bool()).collect();
        truth.query(&pattern, &pis) == candidate.query(&pattern, &pis)
    })
}
