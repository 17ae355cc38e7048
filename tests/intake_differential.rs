//! Differential test of the solver's constraint intake.
//!
//! Random literal lists — with duplicates, complementary pairs, and
//! literals whose variables are already fixed at level 0 — go through
//! [`Solver::add_clause`] and [`Solver::add_xor`] of a logging and a
//! non-logging solver. After every addition the observable state is
//! checked against a reference normalisation kept here: a clause is
//! copied, sorted and deduplicated, dropped when it is a tautology or
//! satisfied at level 0, and stored without its false literals, in that
//! sorted order; an xor is [`XorClause::normalized`], and the xor rows
//! together with the level-0 units must have exactly the solutions of the
//! normalised inputs. The proof log's formula must hold every input
//! verbatim, in add order.

use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Lit, Solver, Var, XorClause};

/// A literal list over `num_vars` variables that repeats and negates
/// some of its own literals.
fn random_lits(rng: &mut Xoshiro256, num_vars: usize) -> Vec<Lit> {
    let len = rng.gen_range(8) as usize;
    let mut lits: Vec<Lit> = Vec::with_capacity(len);
    for _ in 0..len {
        let lit = match (lits.len(), rng.gen_range(12)) {
            (1.., 0) => lits[rng.gen_range(lits.len() as u64) as usize],
            (1.., 1) => !lits[rng.gen_range(lits.len() as u64) as usize],
            _ => Lit::new(
                Var::from_index(rng.gen_range(num_vars as u64) as usize),
                rng.gen_bool(),
            ),
        };
        lits.push(lit);
    }
    lits
}

/// The level-0 assignment a snapshot carries: its unit clauses (stored
/// clauses have at least two literals).
fn level0(cnf: &Cnf) -> Vec<Option<bool>> {
    let mut values = vec![None; cnf.num_vars];
    for c in cnf.clauses.iter().filter(|c| c.len() == 1) {
        values[c[0].var().index()] = Some(c[0].is_positive());
    }
    values
}

fn stored(cnf: &Cnf) -> Vec<&Vec<Lit>> {
    cnf.clauses.iter().filter(|c| c.len() >= 2).collect()
}

/// What a clause leaves behind, by the reference normalisation: `None`
/// when it is a tautology or satisfied at level 0, else its unassigned
/// literals in sorted order.
fn reference_clause(lits: &[Lit], values: &[Option<bool>]) -> Option<Vec<Lit>> {
    let mut sorted = lits.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let value = |l: Lit| values[l.var().index()].map(|v| v == l.is_positive());
    if sorted
        .iter()
        .any(|&l| sorted.contains(&!l) || value(l) == Some(true))
    {
        return None;
    }
    sorted.retain(|&l| value(l).is_none());
    Some(sorted)
}

/// Checks that the solver's xor rows and level-0 units have exactly the
/// solutions of the normalised inputs among assignments agreeing with
/// the units, by enumeration.
fn check_xor_system(s: &Solver, inputs: &[(Vec<Var>, bool)], num_vars: usize) {
    let snapshot = s.to_cnf();
    let values = level0(&snapshot);
    for row in &snapshot.xors {
        // Rows list their variables in column order, which is first-use
        // order rather than variable order.
        let mut sorted = row.clone();
        sorted.lits.sort_unstable();
        assert_eq!(
            sorted,
            sorted.canonical(),
            "rows are distinct positive literals"
        );
    }
    for bits in 0..1u32 << num_vars {
        let a: Vec<bool> = (0..num_vars).map(|i| bits >> i & 1 == 1).collect();
        if values
            .iter()
            .zip(&a)
            .any(|(v, &b)| v.is_some_and(|v| v != b))
        {
            continue;
        }
        let reference = inputs
            .iter()
            .all(|(vars, rhs)| vars.iter().fold(false, |acc, v| acc ^ a[v.index()]) == *rhs);
        let rows = snapshot.xors.iter().all(|x| x.eval(&a));
        assert_eq!(
            reference, rows,
            "xor rows disagree with the inputs on {a:?}"
        );
    }
}

#[test]
fn intake_matches_the_reference_normalisation() {
    let mut rng = Xoshiro256::new(0x1D7A4E);
    let mut stored_clauses = 0;
    let mut xor_units = 0;
    let mut shortened = 0;
    for round in 0..300 {
        let num_vars = 6 + rng.gen_range(7) as usize;
        let mut logged = Solver::new();
        let mut plain = Solver::new();
        for _ in 0..num_vars {
            logged.new_var();
            plain.new_var();
        }
        logged.enable_proof();
        let mut formula = Cnf::new(num_vars);
        let mut xors: Vec<(Vec<Var>, bool)> = Vec::new();
        for op in 0..24 {
            let before = logged.to_cnf();
            let values = level0(&before);
            let lits = random_lits(&mut rng, num_vars);
            let ok = logged.is_ok();
            if rng.gen_range(4) < 3 {
                formula.add_clause(lits.clone());
                let res = logged.add_clause(&lits);
                assert_eq!(plain.add_clause(&lits), res, "round {round} op {op}");
                if !ok {
                    assert!(!res, "a refuted solver stays refuted");
                    continue;
                }
                let after = logged.to_cnf();
                let (old, new) = (stored(&before), stored(&after));
                match reference_clause(&lits, &values) {
                    None => assert_eq!(new, old, "{lits:?} adds nothing"),
                    Some(kept) if kept.len() >= 2 => {
                        stored_clauses += 1;
                        let mut distinct = lits.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        shortened += usize::from(distinct.len() > kept.len());
                        assert_eq!(new.len(), old.len() + 1, "{lits:?} is stored");
                        assert_eq!(new.last(), Some(&&kept), "stored literal order");
                    }
                    Some(kept) if kept.len() == 1 => {
                        let unit = kept[0];
                        let value = level0(&after)[unit.var().index()];
                        assert!(
                            !res || value == Some(unit.is_positive()),
                            "{unit:?} is fixed"
                        );
                    }
                    Some(_) => assert!(!res, "{lits:?} is false at level 0"),
                }
            } else {
                let rhs = rng.gen_bool();
                formula.add_xor(lits.clone(), rhs);
                let res = logged.add_xor(&lits, rhs);
                assert_eq!(plain.add_xor(&lits, rhs), res, "round {round} op {op}");
                if !ok {
                    assert!(!res, "a refuted solver stays refuted");
                    continue;
                }
                xors.push(XorClause::new(lits.clone(), rhs).normalized());
                if res {
                    let units_before = values.iter().flatten().count();
                    xor_units += level0(&logged.to_cnf()).iter().flatten().count() - units_before;
                    check_xor_system(&logged, &xors, num_vars);
                }
            }
            if logged.is_ok() {
                assert_eq!(plain.to_cnf(), logged.to_cnf(), "logging changes nothing");
                assert_eq!(plain.audit(), Vec::<String>::new());
                assert_eq!(logged.audit(), Vec::<String>::new());
            }
        }
        let recorded = logged.proof().expect("logging").formula();
        assert_eq!(
            recorded, &formula,
            "round {round}: the formula is the inputs"
        );
    }
    assert!(stored_clauses > 400, "{stored_clauses} stored clauses");
    assert!(shortened > 30, "{shortened} clauses lost a false literal");
    assert!(xor_units > 100, "{xor_units} units from xor rows");
}
