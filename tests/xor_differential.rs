//! Differential tests for the two xor lowerings.
//!
//! Every randomized GF(2) system here is solved three ways: through the
//! solver's native xor engine ([`XorMode::Native`]), through the classical
//! Tseitin clause expansion ([`XorMode::Tseitin`]), and by dense Gaussian
//! elimination ([`gf2::solve_system`]) as ground truth. All three must
//! agree on SAT/UNSAT, and every SAT model must satisfy every row parity.
//! Rank-deficient and inconsistent systems are constructed explicitly on
//! top of the random sweep. One more test pins the native engine's reduced
//! form itself: after each incremental add, one live row per unit of rank,
//! and exported x-lines with exactly the reference solution set.

use dynunlock_repro::{cnf, gf2, satsolver};

use cnf::{Encoder, XorMode};
use gf2::{solve_system, BitMatrix, BitVec, Rng64, Xoshiro256};
use satsolver::{Lit, SolveResult};

/// One xor row: coefficient vector over the variables, plus its rhs.
type Row = (BitVec, bool);

/// Draws a random system of `m` rows over `n` variables. Rows may be
/// empty, dense, duplicated — whatever the RNG produces is a legal case.
fn random_system(n: usize, m: usize, rng: &mut Xoshiro256) -> Vec<Row> {
    (0..m)
        .map(|_| {
            let coeffs = BitVec::from_bools((0..n).map(|_| rng.gen_bool()));
            (coeffs, rng.gen_bool())
        })
        .collect()
}

/// Encodes the system under `mode` and solves. Returns the result and,
/// when SAT, the model restricted to the system variables.
fn solve_with(mode: XorMode, n: usize, rows: &[Row]) -> (SolveResult, Option<Vec<bool>>) {
    let mut enc = Encoder::with_mode(mode);
    let vars = enc.fresh_many(n);
    let mut ok = true;
    for (coeffs, rhs) in rows {
        let lits: Vec<Lit> = coeffs.iter_ones().map(|i| vars[i]).collect();
        ok &= enc.assert_xor(&lits, *rhs);
    }
    if !ok {
        return (SolveResult::Unsat, None);
    }
    let res = enc.solver_mut().solve();
    let model = (res == SolveResult::Sat).then(|| {
        vars.iter()
            .map(|&l| enc.solver().lit_model_value(l).unwrap_or(false))
            .collect()
    });
    (res, model)
}

/// Ground truth by dense elimination: `Ok` iff the system is consistent.
fn ground_truth(n: usize, rows: &[Row]) -> bool {
    let a = BitMatrix::from_rows(
        rows.iter()
            .map(|(c, _)| {
                assert_eq!(c.len(), n);
                c.clone()
            })
            .collect(),
    );
    let b = BitVec::from_bools(rows.iter().map(|(_, r)| *r));
    solve_system(&a, &b).is_ok()
}

/// Runs all three solvers on one system and cross-checks everything.
fn check_system(n: usize, rows: &[Row]) {
    let sat = ground_truth(n, rows);
    for mode in [XorMode::Native, XorMode::Tseitin] {
        let (res, model) = solve_with(mode, n, rows);
        assert_eq!(
            res == SolveResult::Sat,
            sat,
            "{mode:?} disagrees with elimination on a {n}-var {}-row system",
            rows.len()
        );
        if let Some(model) = model {
            let assignment = BitVec::from_bools(model.iter().copied());
            for (i, (coeffs, rhs)) in rows.iter().enumerate() {
                assert_eq!(
                    coeffs.dot(&assignment),
                    *rhs,
                    "{mode:?} model violates row {i}"
                );
            }
        }
    }
}

#[test]
fn randomized_systems_agree_with_elimination() {
    let mut rng = Xoshiro256::new(0xD1FF_5EED);
    for trial in 0..80 {
        let n = 2 + (trial % 19);
        let m = 1 + (trial % (n + 4));
        let rows = random_system(n, m, &mut rng);
        check_system(n, &rows);
    }
}

#[test]
fn rank_deficient_systems_stay_consistent() {
    // Append linear combinations with *consistent* rhs: rank stays put,
    // the system stays SAT, and both lowerings must keep agreeing.
    let mut rng = Xoshiro256::new(0xDEF1_C1E4);
    for trial in 0..25 {
        let n = 4 + (trial % 12);
        let mut rows = random_system(n, n / 2, &mut rng);
        if !ground_truth(n, &rows) {
            continue; // base must be consistent for this construction
        }
        let combos: Vec<Row> = rows
            .iter()
            .zip(rows.iter().skip(1))
            .map(|((c1, r1), (c2, r2))| {
                let mut c = c1.clone();
                c.xor_assign(c2);
                (c, r1 ^ r2)
            })
            .collect();
        rows.extend(combos);
        assert!(ground_truth(n, &rows), "combinations preserve consistency");
        check_system(n, &rows);
    }
}

#[test]
fn inconsistent_combinations_go_unsat_in_both_modes() {
    // Same construction with the rhs flipped: the new row contradicts the
    // span of the old ones, so every solver must report UNSAT.
    let mut rng = Xoshiro256::new(0xBAD_5EED);
    let mut checked = 0;
    for trial in 0..40 {
        let n = 3 + (trial % 14);
        let mut rows = random_system(n, 1 + n / 2, &mut rng);
        if !ground_truth(n, &rows) || rows.len() < 2 {
            continue;
        }
        let (c1, r1) = rows[0].clone();
        let (c2, r2) = rows[1].clone();
        let mut c = c1;
        c.xor_assign(&c2);
        rows.push((c, !(r1 ^ r2)));
        assert!(!ground_truth(n, &rows));
        check_system(n, &rows);
        checked += 1;
    }
    assert!(checked >= 10, "too few inconsistent cases exercised");
}

#[test]
fn xors_mixed_with_clauses_agree_across_modes() {
    // With ordinary clauses in the mix there is no closed-form ground
    // truth, so brute-force the assignment space (n is kept small) and
    // compare both lowerings against it.
    let mut rng = Xoshiro256::new(0x3141_5926);
    for trial in 0..30 {
        let n = 3 + (trial % 8);
        let xor_rows = random_system(n, 1 + n / 3, &mut rng);
        let clauses: Vec<Vec<(usize, bool)>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| ((rng.next_u64() as usize) % n, rng.gen_bool()))
                    .collect()
            })
            .collect();

        let brute = (0u64..1 << n).any(|bits| {
            let assign = BitVec::from_bools((0..n).map(|i| bits >> i & 1 == 1));
            xor_rows.iter().all(|(c, r)| c.dot(&assign) == *r)
                && clauses
                    .iter()
                    .all(|cl| cl.iter().any(|&(v, pos)| assign.get(v) == pos))
        });

        for mode in [XorMode::Native, XorMode::Tseitin] {
            let mut enc = Encoder::with_mode(mode);
            let vars = enc.fresh_many(n);
            let mut ok = true;
            for (coeffs, rhs) in &xor_rows {
                let lits: Vec<Lit> = coeffs.iter_ones().map(|i| vars[i]).collect();
                ok &= enc.assert_xor(&lits, *rhs);
            }
            for cl in &clauses {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                    .collect();
                ok &= enc.assert_clause(&lits);
            }
            let res = if ok {
                enc.solver_mut().solve()
            } else {
                SolveResult::Unsat
            };
            assert_eq!(
                res == SolveResult::Sat,
                brute,
                "{mode:?} disagrees with brute force on mixed instance {trial}"
            );
        }
    }
}

#[test]
fn assumptions_do_not_poison_either_mode() {
    // Solving under assumptions that contradict the xor system must come
    // back UNSAT without damaging the instance: the unconditional solve
    // afterwards still matches ground truth, in both modes.
    let mut rng = Xoshiro256::new(0xA55);
    for trial in 0..20 {
        let n = 4 + (trial % 10);
        let rows = random_system(n, n / 2, &mut rng);
        if !ground_truth(n, &rows) {
            continue;
        }
        for mode in [XorMode::Native, XorMode::Tseitin] {
            let mut enc = Encoder::with_mode(mode);
            let vars = enc.fresh_many(n);
            for (coeffs, rhs) in &rows {
                let lits: Vec<Lit> = coeffs.iter_ones().map(|i| vars[i]).collect();
                assert!(enc.assert_xor(&lits, *rhs));
            }
            assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
            let model: Vec<bool> = vars
                .iter()
                .map(|&l| enc.solver().lit_model_value(l).unwrap_or(false))
                .collect();
            // Pin every variable to the found model *except* one, flipped:
            // the parities that involve it now clash.
            let mut assumptions: Vec<Lit> = vars
                .iter()
                .zip(&model)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            assumptions[0] = !assumptions[0];
            let flipped_matters = rows.iter().any(|(c, _)| c.get(0));
            let res = enc.solver_mut().solve_assuming(&assumptions);
            if flipped_matters {
                assert_eq!(res, SolveResult::Unsat, "{mode:?} trial {trial}");
            }
            // The instance itself is untouched.
            assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
        }
    }
}

#[test]
fn incremental_xor_systems_keep_the_rref_shape() {
    // Even-weight rows only span even-weight vectors, so no variable is
    // ever pinned and the engine derives no top-level units: after every
    // add it must hold exactly one live row per independent constraint
    // (the rank), and its exported x-lines must accept exactly the
    // reference solution set. A planted solution keeps every prefix
    // consistent; redundant rows come from the RNG (more rows than rank).
    let mut rng = Xoshiro256::new(0x5BA2_5E0F);
    for trial in 0..40 {
        let n = 3 + (trial % 8);
        let planted = BitVec::from_bools((0..n).map(|_| rng.gen_bool()));
        let mut s = satsolver::Solver::new();
        let vars: Vec<satsolver::Var> = (0..n).map(|_| s.new_var()).collect();
        let mut rows: Vec<Row> = Vec::new();
        for step in 0..n + 3 {
            let mut coeffs = BitVec::from_bools((0..n).map(|_| rng.gen_bool()));
            if coeffs.count_ones() % 2 == 1 {
                coeffs.flip(rng.gen_index(n));
            }
            let rhs = coeffs.dot(&planted);
            // Random literal signs exercise the engine's parity folding.
            let mut lit_rhs = rhs;
            let lits: Vec<Lit> = coeffs
                .iter_ones()
                .map(|i| {
                    let positive = rng.gen_bool();
                    lit_rhs ^= !positive;
                    Lit::new(vars[i], positive)
                })
                .collect();
            assert!(s.add_xor(&lits, lit_rhs), "trial {trial}: planted system");
            rows.push((coeffs, rhs));

            let a = BitMatrix::from_rows(rows.iter().map(|(c, _)| c.clone()).collect());
            let b = BitVec::from_bools(rows.iter().map(|(_, r)| *r));
            assert_eq!(
                s.num_xors(),
                a.rank(),
                "trial {trial} step {step}: live rows != rank"
            );
            let sol = solve_system(&a, &b).expect("planted solution");
            let cnf = s.to_cnf();
            assert!(cnf.clauses.is_empty(), "trial {trial}: unexpected units");
            let mut accepted = 0u128;
            for bits in 0..1u32 << n {
                let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                if cnf.eval(&x) {
                    accepted += 1;
                    assert!(
                        sol.contains(&BitVec::from_bools(x.iter().copied())),
                        "trial {trial} step {step}: x-lines accept a non-solution {x:?}"
                    );
                }
            }
            assert_eq!(
                accepted,
                sol.count(),
                "trial {trial} step {step}: x-lines miss solutions"
            );
        }
    }
}
