//! Differential property tests for the batch GF(2) elimination over
//! word-packed rows: [`gf2::solve_system`], [`BitMatrix::rank`] and
//! [`BitMatrix::nullspace`] against the incremental [`LinSolver`]
//! (Gaussian elimination one equation at a time) on rank-deficient and
//! inconsistent systems.
//!
//! `LinSolver` is the semantic reference (DESIGN.md §5); any divergence
//! here is a bug in the batch path.

use dynunlock_repro::gf2::{self, BitMatrix, BitVec, LinSolver, Rng64, Xoshiro256};

#[test]
fn batch_rank_matches_incremental_solver_on_rank_deficient_matrices() {
    let mut rng = Xoshiro256::new(0xDEF1);
    for trial in 0..10 {
        let base = 3 + rng.gen_index(25);
        let cols = 10 + rng.gen_index(60);
        let mut a = BitMatrix::random(base, cols, &mut rng);
        // append random XOR-combinations of existing rows: rank unchanged
        for _ in 0..base {
            let mut combo = BitVec::zeros(cols);
            for r in 0..base {
                if rng.next_u64() & 1 == 1 {
                    combo.xor_assign(a.row(r));
                }
            }
            a.push_row(combo);
        }
        let mut reference = LinSolver::new(cols);
        reference
            .add_system(&a, &BitVec::zeros(a.num_rows()))
            .unwrap();
        assert_eq!(a.rank(), reference.rank(), "trial {trial}");
        assert!(a.rank() <= base, "trial {trial}");
        let basis = a.nullspace();
        assert_eq!(basis.len(), reference.nullity(), "trial {trial}");
        for v in &basis {
            assert!(a.mul_vec(v).is_zero(), "trial {trial}");
        }
    }
}

#[test]
fn batch_solve_agrees_with_incremental_solver_on_inconsistent_systems() {
    let mut rng = Xoshiro256::new(0x1BAD);
    let mut saw_inconsistent = false;
    for trial in 0..30 {
        // overdetermined systems with random rhs are frequently inconsistent
        let cols = 2 + rng.gen_index(12);
        let n = cols + 1 + rng.gen_index(10);
        let a = BitMatrix::random(n, cols, &mut rng);
        let b = BitVec::random(n, &mut rng);
        let mut reference = LinSolver::new(cols);
        let ref_ok = reference.add_system(&a, &b).is_ok();
        let batch = gf2::solve_system(&a, &b);
        assert_eq!(batch.is_ok(), ref_ok, "consistency verdict: trial {trial}");
        if let Ok(sol) = batch {
            assert_eq!(a.mul_vec(&sol.particular), b, "trial {trial}");
            assert_eq!(
                sol.nullity(),
                reference.solve().unwrap().nullity(),
                "trial {trial}"
            );
        } else {
            saw_inconsistent = true;
        }
    }
    assert!(
        saw_inconsistent,
        "test must exercise at least one inconsistent system"
    );
}
