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
//! reason that analysis or minimization cites, and of an xor implication
//! at level 0.
//!
//! Every refutation is checked twice: as logged, and with every hint
//! group stripped. Hints may only speed the check up — both must verify
//! with the same step count — and the logged hints must carry every
//! addition without a propagation fallback, but for a closing line
//! written without hints. The fuzz instances stay below the solver's
//! learnt-DB reduction threshold, so a pigeonhole refutation covers the
//! deletions the solver writes.

use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::proofcheck::{self, CheckReport};
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Budget, Lit, SolveResult, Solver, Var};

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

/// `proof` with every hint group stripped: each plain addition keeps its
/// literals up to their terminating `0`.
fn strip_hints(proof: &str) -> String {
    let mut out = String::with_capacity(proof.len());
    for line in proof.lines() {
        if line.starts_with('x') || line.starts_with('d') {
            out.push_str(line);
        } else {
            let toks: Vec<&str> = line.split(' ').collect();
            let end = toks
                .iter()
                .position(|&t| t == "0")
                .expect("an addition ends its literals with 0");
            out.push_str(&toks[..=end].join(" "));
        }
        out.push('\n');
    }
    out
}

/// Checks a refutation as logged and with its hints stripped (see the
/// module docs), returning the logged run's report.
fn check_with_and_without_hints(cnf: &Cnf, proof: &str, round: u64) -> CheckReport {
    let logged = proofcheck::check_text(cnf, proof)
        .unwrap_or_else(|e| panic!("round {round}: emitted proof rejected: {e}\n{proof}"));
    let stripped = proofcheck::check_text(cnf, &strip_hints(proof))
        .unwrap_or_else(|e| panic!("round {round}: proof without hints rejected: {e}\n{proof}"));
    assert_eq!(logged.steps(), stripped.steps(), "round {round}");
    assert_eq!(
        logged.rup_additions, stripped.rup_additions,
        "round {round}"
    );
    let unhinted_close = proof.lines().last() == Some("0");
    assert!(
        logged.propagated_additions <= u64::from(unhinted_close),
        "round {round}: {} propagation fallbacks\n{proof}",
        logged.propagated_additions
    );
    logged
}

/// `holes + 1` pigeons into `holes` holes: pure-CNF UNSAT.
fn pigeonhole(holes: usize) -> Cnf {
    let var = |p: usize, h: usize| Lit::from_dimacs((p * holes + h + 1) as i64);
    let mut cnf = Cnf::new((holes + 1) * holes);
    for p in 0..=holes {
        cnf.add_clause((0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p in 0..=holes {
            for q in p + 1..=holes {
                cnf.add_clause(vec![!var(p, h), !var(q, h)]);
            }
        }
    }
    cnf
}

#[test]
fn solver_deletions_check_by_id() {
    // Seven holes take the solver past its learnt-DB reduction threshold,
    // so the refutation deletes learnt clauses by id.
    let cert = proofcheck::certify_unsat(&pigeonhole(7)).expect("pigeonhole is UNSAT");
    let deleted_ids: u64 = cert
        .proof
        .lines()
        .filter_map(|l| l.strip_prefix("d "))
        .map(|ids| ids.split(' ').filter(|&t| t != "0").count() as u64)
        .sum();
    assert!(deleted_ids > 0, "the refutation has d lines");
    assert_eq!(cert.stats.deletions_applied, deleted_ids);
    let report = check_with_and_without_hints(&cert.formula, &cert.proof, 0);
    assert_eq!(
        report.propagated_additions, 0,
        "every lemma checks by its hints"
    );
    // Deletions only weaken the checker's set: without them the proof
    // still holds.
    let kept: String = cert
        .proof
        .lines()
        .filter(|l| !l.starts_with('d'))
        .flat_map(|l| [l, "\n"])
        .collect();
    let report = proofcheck::check_text(&cert.formula, &kept).expect("proof without deletions");
    assert_eq!(report.deletions_applied, 0);
    assert_eq!(report.steps(), cert.stats.steps() - deleted_ids);
}

#[test]
fn stripping_hints_keeps_every_literal() {
    let proof = "1 -2 0 -3 4 0\n-5 0\nd -4 2 0\nx 3 -4 0 1 2 0 -5 0\n10 0 -7 0\n0 12 0\n";
    assert_eq!(
        strip_hints(proof),
        "1 -2 0\n-5 0\nd -4 2 0\nx 3 -4 0 1 2 0 -5 0\n10 0\n0\n"
    );
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
        let mut s = Solver::new();
        s.enable_proof();
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

        match result {
            SolveResult::Sat => {
                sat_rounds += 1;
            }
            SolveResult::Unknown => {
                unreachable!("round {round}: unlimited solve cannot return Unknown");
            }
            SolveResult::Unsat => {
                unsat_rounds += 1;
                let proof = s.proof().expect("proof logging enabled");
                assert!(proof.is_refutation(), "round {round}: proof not closed");
                let report = check_with_and_without_hints(&cnf, proof.text(), round);
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
        let mut s = Solver::new();
        s.enable_proof();
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
        let proof = s.proof().expect("proof logging enabled");
        assert!(proof.is_refutation(), "round {round}: proof not closed");
        check_with_and_without_hints(&cnf, proof.text(), round);
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
