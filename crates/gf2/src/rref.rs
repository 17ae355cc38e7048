//! Gauss–Jordan elimination to reduced row echelon form (RREF): the one
//! batch elimination behind [`solve_system`](crate::solve_system),
//! [`BitMatrix::rank`](crate::BitMatrix::rank) and
//! [`BitMatrix::nullspace`](crate::BitMatrix::nullspace).
//!
//! Rows are word-packed [`BitVec`]s, so each row XOR works 64 columns at
//! a time. The differential tests check this routine against the
//! incremental [`LinSolver`](crate::LinSolver); RREF is unique, so any
//! correct elimination gives the same rows and pivots.

use crate::BitVec;

/// Reduces `rows` to reduced row echelon form in place and returns the
/// pivot columns.
///
/// After the call, row `i` (for `i < pivots.len()`) is the unique row with
/// a leading 1 in column `pivots[i]`, `pivots` is strictly increasing, and
/// every row from `pivots.len()` on is zero.
///
/// # Panics
///
/// Panics if rows have differing lengths.
pub(crate) fn rref(rows: &mut [BitVec]) -> Vec<usize> {
    let cols = rows.first().map_or(0, BitVec::len);
    assert!(
        rows.iter().all(|r| r.len() == cols),
        "all rows must share one length"
    );
    let mut pivots = Vec::new();
    let mut r = 0;
    for col in 0..cols {
        let Some(p) = (r..rows.len()).find(|&i| rows[i].get(col)) else {
            continue;
        };
        rows.swap(r, p);
        let pivot = rows[r].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i != r && row.get(col) {
                row.xor_assign(&pivot);
            }
        }
        pivots.push(col);
        r += 1;
        if r == rows.len() {
            break;
        }
    }
    pivots
}

/// Extracts a nullspace basis from rows already in RREF (as produced by
/// [`rref`] with the returned `pivots`).
///
/// One basis vector per free column: it has a 1 at the free column and, for
/// every pivot row with a 1 in that free column, a 1 at that row's pivot
/// column.
pub(crate) fn nullspace_from_rref(rows: &[BitVec], pivots: &[usize], cols: usize) -> Vec<BitVec> {
    let mut is_pivot = vec![false; cols];
    for &p in pivots {
        is_pivot[p] = true;
    }
    let mut basis = Vec::with_capacity(cols - pivots.len());
    for (free, _) in is_pivot.iter().enumerate().filter(|(_, &p)| !p) {
        let mut v = BitVec::zeros(cols);
        v.set(free, true);
        for (row, &pcol) in rows.iter().zip(pivots) {
            if row.get(free) {
                v.set(pcol, true);
            }
        }
        basis.push(v);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitMatrix, Rng64, Xoshiro256};

    fn random_rows(n: usize, cols: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = Xoshiro256::new(seed);
        (0..n).map(|_| BitVec::random(cols, &mut rng)).collect()
    }

    #[test]
    fn rank_deficient_rows_reduce_to_zero() {
        // Stack a matrix on top of XORs of its own rows: rank must not grow
        // and the extra rows must vanish.
        let base = random_rows(10, 40, 3);
        let mut rows = base.clone();
        for i in 0..10 {
            let mut dup = base[i].clone();
            dup.xor_assign(&base[(i + 3) % 10]);
            rows.push(dup);
        }
        let mut reference = crate::LinSolver::new(40);
        for row in &base {
            reference.add_equation(row.clone(), false).unwrap();
        }
        let pm = rref(&mut rows);
        assert_eq!(pm.len(), reference.rank());
        for row in &rows[pm.len()..] {
            assert!(row.is_zero());
        }
    }

    #[test]
    fn pivots_are_strictly_increasing_and_rows_canonical() {
        // Shapes on both sides of the 64-bit word boundary.
        for (n, cols, seed) in [(33, 50, 17), (90, 140, 18), (140, 70, 19)] {
            let mut rows = random_rows(n, cols, seed);
            let pivots = rref(&mut rows);
            for w in pivots.windows(2) {
                assert!(w[0] < w[1], "pivot columns must ascend");
            }
            for (i, &p) in pivots.iter().enumerate() {
                assert_eq!(rows[i].first_one(), Some(p), "row {i} leading bit");
                // pivot column appears in exactly one row
                for (j, row) in rows.iter().enumerate().take(pivots.len()) {
                    assert_eq!(row.get(p), i == j, "pivot col {p} in row {j}");
                }
            }
            assert!(rows[pivots.len()..].iter().all(BitVec::is_zero));
        }
    }

    #[test]
    fn nullspace_vectors_are_in_the_kernel() {
        for seed in 0..6 {
            let mut rng = Xoshiro256::new(500 + seed);
            let n = 4 + rng.gen_index(20);
            let cols = 6 + rng.gen_index(30);
            let rows = random_rows(n, cols, 77 + seed);
            let a = BitMatrix::from_rows(rows.clone());
            let mut work = rows;
            let pivots = rref(&mut work);
            let basis = nullspace_from_rref(&work[..pivots.len()], &pivots, cols);
            assert_eq!(basis.len(), cols - pivots.len(), "rank-nullity");
            for v in &basis {
                assert!(a.mul_vec(v).is_zero(), "basis vector not in kernel");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut none: Vec<BitVec> = Vec::new();
        assert!(rref(&mut none).is_empty());
        let mut zero_width = vec![BitVec::zeros(0); 3];
        assert!(rref(&mut zero_width).is_empty());
        let mut zeros = vec![BitVec::zeros(10); 4];
        assert!(rref(&mut zeros).is_empty());
        let mut single = vec![BitVec::unit(5, 3)];
        assert_eq!(rref(&mut single), vec![3]);
    }

    #[test]
    fn identity_is_fixed_point() {
        let n = 20;
        let mut rows: Vec<BitVec> = (0..n).map(|i| BitVec::unit(n, i)).collect();
        let pivots = rref(&mut rows);
        assert_eq!(pivots, (0..n).collect::<Vec<_>>());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &BitVec::unit(n, i));
        }
    }
}
