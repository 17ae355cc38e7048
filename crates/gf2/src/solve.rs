//! Gaussian elimination over GF(2): solving, nullspaces, solution counting.

use std::fmt;

use crate::{BitMatrix, BitVec};

/// Error returned when a linear system `A·x = b` has no solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveError;

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("linear system over GF(2) is inconsistent")
    }
}

impl std::error::Error for SolveError {}

/// The full solution set of a consistent linear system over GF(2).
///
/// Every solution is `particular ⊕ (some XOR-combination of nullspace basis
/// vectors)`; the set has exactly `2^nullity` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinSolution {
    /// One solution of `A·x = b`.
    pub particular: BitVec,
    /// Basis of the solution space of `A·x = 0`.
    pub nullspace: Vec<BitVec>,
}

impl LinSolution {
    /// Number of free dimensions (`log2` of the solution count).
    pub fn nullity(&self) -> usize {
        self.nullspace.len()
    }

    /// Number of solutions, saturating at `u128::MAX` for nullity ≥ 128.
    pub fn count(&self) -> u128 {
        if self.nullity() >= 128 {
            u128::MAX
        } else {
            1u128 << self.nullity()
        }
    }

    /// Whether `x` belongs to the solution set. Cost is one Gaussian
    /// elimination of the basis plus a reduction of `x ⊕ particular`.
    pub fn contains(&self, x: &BitVec) -> bool {
        let mut diff = x.clone();
        diff.xor_assign(&self.particular);
        // Bring the basis into echelon form (unique leading bits), then
        // reduce `diff`; membership in the span means it reduces to zero.
        let mut echelon: Vec<BitVec> = Vec::with_capacity(self.nullspace.len());
        for b in &self.nullspace {
            let mut v = b.clone();
            for e in &echelon {
                let lead = e.first_one().expect("echelon vectors are nonzero");
                if v.get(lead) {
                    v.xor_assign(e);
                }
            }
            if !v.is_zero() {
                echelon.push(v);
                // Keep ascending leading-bit order: a reduction pass then
                // never re-introduces a bit at an already-visited lead,
                // because XOR with a vector only touches bits ≥ its lead.
                echelon.sort_by_key(super::bitvec::BitVec::first_one);
            }
        }
        for e in &echelon {
            let lead = e.first_one().expect("echelon vectors are nonzero");
            if diff.get(lead) {
                diff.xor_assign(e);
            }
        }
        diff.is_zero()
    }
}

/// Incremental Gaussian elimination over GF(2).
///
/// Rows (equations `coeffs · x = rhs`) can be added one at a time; the
/// solver maintains an echelon form so consistency is detected immediately
/// and queries (`rank`, [`LinSolver::solve`]) stay cheap. This is the
/// attack's one production elimination: it finds the independent
/// session-mask rows and the seed bits they pin, and the nullspace of the
/// free rows with an identity block appended maps free mask bits back to
/// the seed.
///
/// # Example
///
/// ```
/// use gf2::{BitVec, LinSolver};
///
/// let mut s = LinSolver::new(2);
/// s.add_equation(BitVec::from_bools([true, true]), true).unwrap();  // x0^x1 = 1
/// s.add_equation(BitVec::from_bools([false, true]), false).unwrap(); // x1 = 0
/// let sol = s.solve().unwrap();
/// assert_eq!(sol.particular, BitVec::from_bools([true, false]));
/// assert_eq!(sol.count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LinSolver {
    vars: usize,
    /// Echelon rows: (coefficients, rhs), each with a unique leading column.
    rows: Vec<(BitVec, bool)>,
}

impl LinSolver {
    /// Creates a solver over `vars` unknowns.
    pub fn new(vars: usize) -> Self {
        LinSolver {
            vars,
            rows: Vec::new(),
        }
    }

    /// Number of unknowns.
    pub fn num_vars(&self) -> usize {
        self.vars
    }

    /// Current rank (number of independent equations).
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// log2 of the current solution-set size.
    pub fn nullity(&self) -> usize {
        self.vars - self.rows.len()
    }

    /// Adds the equation `coeffs · x = rhs`.
    ///
    /// Returns `Ok(true)` if the equation was independent (rank grew),
    /// `Ok(false)` if it was implied by existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if the equation contradicts the system; the
    /// solver is left unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn add_equation(&mut self, coeffs: BitVec, rhs: bool) -> Result<bool, SolveError> {
        assert_eq!(coeffs.len(), self.vars, "equation width mismatch");
        let mut c = coeffs;
        let mut r = rhs;
        for (row, rrhs) in &self.rows {
            if let Some(lead) = row.first_one() {
                if c.get(lead) {
                    c.xor_assign(row);
                    r ^= rrhs;
                }
            }
        }
        if c.is_zero() {
            return if r { Err(SolveError) } else { Ok(false) };
        }
        // Back-substitute into existing rows to keep reduced echelon form.
        let lead = c.first_one().expect("nonzero row has a leading bit");
        for (row, rrhs) in &mut self.rows {
            if row.get(lead) {
                row.xor_assign(&c);
                *rrhs ^= r;
            }
        }
        self.rows.push((c, r));
        self.rows.sort_by_key(|(row, _)| row.first_one());
        Ok(true)
    }

    /// Adds all equations from a matrix/vector pair.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] at the first inconsistent equation.
    pub fn add_system(&mut self, a: &BitMatrix, b: &BitVec) -> Result<(), SolveError> {
        assert_eq!(a.num_rows(), b.len(), "system height mismatch");
        for (i, row) in a.iter_rows().enumerate() {
            self.add_equation(row.clone(), b.get(i))?;
        }
        Ok(())
    }

    /// Value of variable `v` if it is uniquely determined by the system.
    pub fn pinned_value(&self, v: usize) -> Option<bool> {
        self.rows.iter().find_map(|(row, rhs)| {
            (row.first_one() == Some(v) && row.count_ones() == 1).then_some(*rhs)
        })
    }

    /// Solves the system accumulated so far.
    ///
    /// The rows are kept in *reduced* echelon form (each leading column
    /// appears in exactly one row), so the particular solution reads off
    /// directly and the nullspace basis comes from the free columns.
    pub fn solve(&self) -> Result<LinSolution, SolveError> {
        let mut particular = BitVec::zeros(self.vars);
        let mut is_pivot = vec![false; self.vars];
        for (row, rhs) in &self.rows {
            let lead = row.first_one().expect("echelon rows are nonzero");
            is_pivot[lead] = true;
            if *rhs {
                particular.set(lead, true);
            }
        }
        let mut nullspace = Vec::with_capacity(self.nullity());
        for (free, &pivot) in is_pivot.iter().enumerate() {
            if pivot {
                continue;
            }
            let mut basis = BitVec::zeros(self.vars);
            basis.set(free, true);
            for (row, _) in &self.rows {
                if row.get(free) {
                    let lead = row.first_one().expect("echelon rows are nonzero");
                    basis.set(lead, true);
                }
            }
            nullspace.push(basis);
        }
        Ok(LinSolution {
            particular,
            nullspace,
        })
    }
}

/// One-shot solve of `A·x = b` via Gauss–Jordan elimination of the
/// augmented matrix `[A | b]`.
///
/// No attack path runs it: it is the independent reference for the
/// incremental [`LinSolver`], and differential tests assert the two agree
/// on consistency, particular solution and nullity.
///
/// # Errors
///
/// Returns [`SolveError`] if the system is inconsistent.
///
/// # Panics
///
/// Panics if `b.len() != a.num_rows()`.
pub fn solve_system(a: &BitMatrix, b: &BitVec) -> Result<LinSolution, SolveError> {
    assert_eq!(a.num_rows(), b.len(), "system height mismatch");
    let cols = a.num_cols();
    // Augment each row with its right-hand side as one extra column so the
    // elimination carries the rhs along for free.
    let mut rows: Vec<BitVec> = a
        .iter_rows()
        .enumerate()
        .map(|(i, row)| {
            let mut aug = row.resized(cols + 1);
            if b.get(i) {
                aug.set(cols, true);
            }
            aug
        })
        .collect();
    let pivots = crate::rref::rref(&mut rows);
    // A pivot in the rhs column is a row reading `0 = 1`.
    if pivots.last() == Some(&cols) {
        return Err(SolveError);
    }
    let mut particular = BitVec::zeros(cols);
    for (row, &pcol) in rows.iter().zip(&pivots) {
        if row.get(cols) {
            particular.set(pcol, true);
        }
    }
    // The nullspace ignores the augmented column: truncate rows back to the
    // coefficient width (the rhs column is never a pivot here).
    let coeff_rows: Vec<BitVec> = rows[..pivots.len()]
        .iter()
        .map(|r| r.resized(cols))
        .collect();
    let nullspace = crate::rref::nullspace_from_rref(&coeff_rows, &pivots, cols);
    Ok(LinSolution {
        particular,
        nullspace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rng64, Xoshiro256};

    #[test]
    fn unique_solution() {
        // x0 ^ x1 = 1, x1 = 1 => x0 = 0
        let mut s = LinSolver::new(2);
        assert!(s
            .add_equation(BitVec::from_bools([true, true]), true)
            .unwrap());
        assert!(s
            .add_equation(BitVec::from_bools([false, true]), true)
            .unwrap());
        let sol = s.solve().unwrap();
        assert_eq!(sol.particular.to_bools(), vec![false, true]);
        assert_eq!(sol.count(), 1);
        assert_eq!(s.pinned_value(0), Some(false));
        assert_eq!(s.pinned_value(1), Some(true));
    }

    #[test]
    fn dependent_equation_reports_false() {
        let mut s = LinSolver::new(3);
        s.add_equation(BitVec::from_bools([true, true, false]), true)
            .unwrap();
        s.add_equation(BitVec::from_bools([false, true, true]), false)
            .unwrap();
        // sum of the two
        let dep = s
            .add_equation(BitVec::from_bools([true, false, true]), true)
            .unwrap();
        assert!(!dep);
        assert_eq!(s.rank(), 2);
    }

    #[test]
    fn contradiction_detected_and_state_preserved() {
        let mut s = LinSolver::new(2);
        s.add_equation(BitVec::from_bools([true, false]), true)
            .unwrap();
        let err = s.add_equation(BitVec::from_bools([true, false]), false);
        assert_eq!(err, Err(SolveError));
        assert_eq!(s.rank(), 1);
        assert!(s.solve().is_ok());
    }

    #[test]
    fn nullspace_vectors_satisfy_homogeneous_system() {
        let mut rng = Xoshiro256::new(42);
        let a = BitMatrix::random(6, 10, &mut rng);
        let x = BitVec::random(10, &mut rng);
        let b = a.mul_vec(&x);
        let sol = solve_system(&a, &b).unwrap();
        assert_eq!(a.mul_vec(&sol.particular), b);
        for n in &sol.nullspace {
            assert!(a.mul_vec(n).is_zero());
        }
        assert!(sol.contains(&x));
    }

    #[test]
    fn rank_nullity_theorem() {
        let mut rng = Xoshiro256::new(9);
        for _ in 0..10 {
            let rows = 3 + rng.gen_index(6);
            let cols = 4 + rng.gen_index(8);
            let a = BitMatrix::random(rows, cols, &mut rng);
            let mut s = LinSolver::new(cols);
            let zero = BitVec::zeros(rows);
            s.add_system(&a, &zero).unwrap();
            assert_eq!(s.rank() + s.nullity(), cols);
            assert_eq!(s.rank(), a.rank());
        }
    }

    #[test]
    fn contains_rejects_non_solution() {
        let mut s = LinSolver::new(3);
        s.add_equation(BitVec::from_bools([true, false, false]), true)
            .unwrap();
        let sol = s.solve().unwrap();
        let mut bad = sol.particular.clone();
        bad.flip(0);
        assert!(!sol.contains(&bad));
    }

    #[test]
    fn inconsistent_one_shot() {
        let mut a = BitMatrix::zeros(2, 2);
        a.set(0, 0, true);
        a.set(1, 0, true);
        let b = BitVec::from_bools([true, false]);
        assert!(solve_system(&a, &b).is_err());
    }

    /// The batch path must agree with the incremental LinSolver
    /// reference on random systems: same consistency verdict, same
    /// solution set.
    #[test]
    fn batch_solve_matches_incremental_reference() {
        let mut rng = Xoshiro256::new(2024);
        for trial in 0..20 {
            let rows = 2 + rng.gen_index(30);
            let cols = 2 + rng.gen_index(30);
            let a = BitMatrix::random(rows, cols, &mut rng);
            // Half the trials plant a solution (consistent); half draw a
            // random rhs (inconsistent whenever rank(A) < rank([A|b])).
            let b = if trial % 2 == 0 {
                a.mul_vec(&BitVec::random(cols, &mut rng))
            } else {
                BitVec::random(rows, &mut rng)
            };
            let mut reference = LinSolver::new(cols);
            let ref_result = reference.add_system(&a, &b);
            let batch = solve_system(&a, &b);
            match (ref_result, batch) {
                (Ok(()), Ok(sol)) => {
                    let ref_sol = reference.solve().unwrap();
                    assert_eq!(a.mul_vec(&sol.particular), b, "trial {trial}");
                    assert_eq!(sol.nullity(), ref_sol.nullity(), "trial {trial}");
                    for n in &sol.nullspace {
                        assert!(a.mul_vec(n).is_zero(), "trial {trial}");
                    }
                    assert!(ref_sol.contains(&sol.particular), "trial {trial}");
                }
                (Err(_), Err(_)) => {}
                (r, b) => panic!("trial {trial}: reference {r:?} vs batch {b:?}"),
            }
        }
    }

    #[test]
    fn batch_solve_handles_rank_deficient_consistent_systems() {
        let mut rng = Xoshiro256::new(7);
        let mut a = BitMatrix::random(5, 8, &mut rng);
        // duplicate rows => rank deficiency in the row space
        let dup = a.row(1).clone();
        a.push_row(dup);
        let x = BitVec::random(8, &mut rng);
        let b = a.mul_vec(&x);
        let sol = solve_system(&a, &b).unwrap();
        assert_eq!(a.mul_vec(&sol.particular), b);
        assert!(sol.contains(&x));
    }
}
