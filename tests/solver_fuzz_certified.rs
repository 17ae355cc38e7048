//! Randomized solver fuzzing with two independent safety nets per round:
//! the structural invariant auditor ([`satsolver::Solver::audit`]) after
//! every solve, and — whenever a round lands UNSAT — an in-process
//! `proofcheck` verification of the emitted DRAT+xor certificate.
//!
//! Instances mix plain clauses with native xor constraints at densities
//! chosen to land on both sides of the SAT/UNSAT boundary; each round
//! also runs a solve under random assumptions first, so the logged
//! refutation has to survive assumption-driven learnt clauses and
//! restarts that happened before the final answer. A second, xor-heavy
//! family covers the proof steps of row reasons: the `x` line of a
//! reason that analysis or minimization reads, and of an xor implication
//! at level 0.

use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::proofcheck;
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Budget, DratProof, Lit, SolveResult, Solver, Var};

fn random_cnf(rng: &mut Xoshiro256) -> Cnf {
    let num_vars = 4 + rng.gen_range(12) as usize;
    let mut cnf = Cnf::new(num_vars);
    let rand_lit = |rng: &mut Xoshiro256| {
        let v = rng.gen_range(num_vars as u64) as i64 + 1;
        if rng.gen_bool() {
            Lit::from_dimacs(v)
        } else {
            Lit::from_dimacs(-v)
        }
    };
    // 2–4 clauses/var of width 2–4 (the occasional unit) straddles the
    // SAT/UNSAT boundary once the xor rows below are stirred in.
    let num_clauses = num_vars * 2 + rng.gen_range(num_vars as u64 * 2) as usize;
    for _ in 0..num_clauses {
        let width = if rng.gen_range(10) == 0 {
            1
        } else {
            2 + rng.gen_range(3) as usize
        };
        let lits: Vec<Lit> = (0..width).map(|_| rand_lit(rng)).collect();
        cnf.add_clause(lits);
    }
    let num_xors = rng.gen_range(7) as usize;
    for _ in 0..num_xors {
        let width = 1 + rng.gen_range(5) as usize;
        let lits: Vec<Lit> = (0..width).map(|_| rand_lit(rng)).collect();
        cnf.add_xor(lits, rng.gen_bool());
    }
    cnf
}

fn assert_audit_clean(s: &Solver, round: u64, site: &str) {
    let errors = s.audit();
    assert!(
        errors.is_empty(),
        "round {round}: audit failed after {site}: {errors:#?}"
    );
}

#[test]
fn random_instances_audit_clean_and_certify() {
    let mut rng = Xoshiro256::new(0xF022);
    let rounds = if cfg!(debug_assertions) { 60 } else { 200 };
    let (mut sat_rounds, mut unsat_rounds) = (0u64, 0u64);
    for round in 0..rounds {
        let cnf = random_cnf(&mut rng);
        let shared = DratProof::shared();
        let mut s = Solver::new();
        s.set_proof_logger(shared.clone());
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        let mut unsat = false;
        for c in &cnf.clauses {
            unsat |= !s.add_clause(c);
        }
        for x in &cnf.xors {
            unsat |= !s.add_xor(&x.lits, x.rhs);
        }
        assert_audit_clean(&s, round, "adds");

        // A solve under random assumptions first: learnt clauses and
        // restarts from this call land in the same proof log the final
        // answer must close.
        if !unsat {
            let assumptions: Vec<Lit> = (0..rng.gen_range(4))
                .map(|_| {
                    let v = rng.gen_range(cnf.num_vars as u64) as usize;
                    let l = Lit::positive(Var::from_index(v));
                    if rng.gen_bool() {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            s.solve_assuming(&assumptions);
            assert_audit_clean(&s, round, "assumption solve");
        }

        // A starved budgeted solve next: whatever it answers, the solver
        // must stay warm and auditable, and a definite answer must agree
        // with the final unlimited solve below.
        let budgeted = if unsat {
            SolveResult::Unsat
        } else {
            let tiny = Budget::new().with_conflicts(1 + rng.gen_range(3));
            let r = s.solve_limited(&[], &tiny);
            assert_audit_clean(&s, round, "budgeted solve");
            if r == SolveResult::Unknown {
                assert!(
                    s.stats().budget_exhaustions > 0,
                    "round {round}: Unknown without a recorded exhaustion"
                );
            }
            r
        };

        let result = if unsat { SolveResult::Unsat } else { s.solve() };
        assert_audit_clean(&s, round, "final solve");
        if budgeted != SolveResult::Unknown {
            assert_eq!(
                budgeted, result,
                "round {round}: budgeted answer must match the full solve"
            );
        }
        drop(s);

        match result {
            SolveResult::Sat => {
                sat_rounds += 1;
            }
            SolveResult::Unknown => {
                unreachable!("round {round}: unlimited solve cannot return Unknown");
            }
            SolveResult::Unsat => {
                unsat_rounds += 1;
                let guard = shared.lock().unwrap();
                assert!(guard.is_refutation(), "round {round}: proof not closed");
                let report = proofcheck::check_text(&cnf, guard.text()).unwrap_or_else(|e| {
                    panic!(
                        "round {round}: emitted proof rejected: {e}\n{}",
                        guard.text()
                    )
                });
                assert!(report.rup_additions + report.xor_steps > 0);
            }
        }
    }
    // The densities are tuned so both outcomes occur; if either side
    // vanishes the fuzz loop has silently stopped covering half the
    // solver.
    assert!(sat_rounds > 5, "only {sat_rounds} SAT rounds");
    assert!(unsat_rounds > 5, "only {unsat_rounds} UNSAT rounds");
}

/// An xor-heavy instance: half as many random 3–5 column parities as
/// variables, plus 2.5 random 3-clauses per variable. Most land UNSAT
/// only after a search in which xor implications outnumber conflicts, so
/// conflict analysis and minimization keep reading row reasons, and
/// learnt units set off xor propagation at level 0.
fn xor_heavy_cnf(rng: &mut Xoshiro256) -> Cnf {
    let num_vars = 16 + rng.gen_range(17) as usize;
    let mut cnf = Cnf::new(num_vars);
    let var = |rng: &mut Xoshiro256| Var::from_index(rng.gen_range(num_vars as u64) as usize);
    for _ in 0..num_vars / 2 {
        let width = 3 + rng.gen_range(3) as usize;
        let lits: Vec<Lit> = (0..width).map(|_| Lit::positive(var(rng))).collect();
        cnf.add_xor(lits, rng.gen_bool());
    }
    for _ in 0..num_vars * 5 / 2 {
        let lits: Vec<Lit> = (0..3).map(|_| Lit::new(var(rng), rng.gen_bool())).collect();
        cnf.add_clause(lits);
    }
    cnf
}

/// Solves `xor_heavy_cnf` rounds with certification, adding the xor
/// constraints before the clauses when `xors_first` is set: then clause
/// units land on existing xor pivots, and the rows re-pivoted off them
/// carry the proof steps that follow.
fn certify_xor_heavy_rounds(seed: u64, xors_first: bool) {
    let mut rng = Xoshiro256::new(seed);
    let rounds = if cfg!(debug_assertions) { 60 } else { 200 };
    let (mut searched_unsat, mut xor_props, mut conflicts, mut minimized) = (0, 0, 0, 0);
    for round in 0..rounds {
        let cnf = xor_heavy_cnf(&mut rng);
        let shared = DratProof::shared();
        let mut s = Solver::new();
        s.set_proof_logger(shared.clone());
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        let add_clauses = |s: &mut Solver| {
            for c in &cnf.clauses {
                s.add_clause(c);
            }
        };
        let add_xors = |s: &mut Solver| {
            for x in &cnf.xors {
                s.add_xor(&x.lits, x.rhs);
            }
        };
        if xors_first {
            add_xors(&mut s);
            add_clauses(&mut s);
        } else {
            add_clauses(&mut s);
            add_xors(&mut s);
        }
        if s.solve() != SolveResult::Unsat {
            continue;
        }
        assert_audit_clean(&s, round, "xor-heavy solve");
        let st = *s.stats();
        if st.conflicts > 1 {
            searched_unsat += 1;
        }
        xor_props += st.xor_propagations;
        conflicts += st.conflicts;
        minimized += st.minimized_literals;
        drop(s);
        let guard = shared.lock().unwrap();
        assert!(guard.is_refutation(), "round {round}: proof not closed");
        if let Err(e) = proofcheck::check_text(&cnf, guard.text()) {
            panic!(
                "round {round} (xors first: {xors_first}): emitted proof rejected: {e}\n{}",
                guard.text()
            );
        }
    }
    assert!(
        searched_unsat > 10,
        "only {searched_unsat} refutations needed a search"
    );
    assert!(
        xor_props > conflicts,
        "xor implications ({xor_props}) should outnumber conflicts ({conflicts})"
    );
    assert!(minimized > 0, "minimization never removed a literal");
}

#[test]
fn xor_heavy_refutations_certify() {
    certify_xor_heavy_rounds(0x10CA, false);
    certify_xor_heavy_rounds(0x10CA, true);
}
