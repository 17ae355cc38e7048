//! Dense row-major matrices over GF(2).

use std::fmt;

use crate::BitVec;

/// A dense matrix over GF(2), stored as a vector of [`BitVec`] rows.
///
/// Used for LFSR companion matrices (`state_{t+1} = A · state_t`) and for
/// the scan-obfuscation mask matrices `T_in` / `T_out` whose rows give, for
/// each scan cell, the set of seed bits XOR-ed into that cell's data.
///
/// # Example
///
/// ```
/// use gf2::{BitMatrix, BitVec};
///
/// let mut a = BitMatrix::zeros(2, 2);
/// a.set(0, 1, true); // swap matrix
/// a.set(1, 0, true);
/// let x = BitVec::from_bools([true, false]);
/// assert_eq!(a.mul_vec(&x), BitVec::from_bools([false, true]));
/// assert_eq!(a.pow(2), BitMatrix::identity(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(cols); rows],
            cols,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must share one length"
        );
        BitMatrix { rows, cols }
    }

    /// Fills a matrix with random bits.
    pub fn random<R: crate::Rng64>(rows: usize, cols: usize, rng: &mut R) -> Self {
        BitMatrix {
            rows: (0..rows).map(|_| BitVec::random(cols, rng)).collect(),
            cols,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].get(c)
    }

    /// Writes entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.rows[r].set(c, value);
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut BitVec {
        &mut self.rows[r]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `num_cols` (unless the matrix
    /// had no rows, in which case the row defines the width).
    pub fn push_row(&mut self, row: BitVec) {
        if self.rows.is_empty() {
            self.cols = row.len();
        } else {
            assert_eq!(row.len(), self.cols, "row length mismatch");
        }
        self.rows.push(row);
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &BitVec> {
        self.rows.iter()
    }

    /// Matrix–vector product `A·x` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_cols`.
    pub fn mul_vec(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        BitVec::from_bools(self.rows.iter().map(|r| r.dot(x)))
    }

    /// Matrix product `A·B` over GF(2).
    ///
    /// Computed row-by-row: row i of the product is the XOR of rows of `B`
    /// selected by the set bits of row i of `A` (word-parallel, no
    /// transpose needed).
    ///
    /// # Panics
    ///
    /// Panics if `self.num_cols() != other.num_rows()`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(
            self.cols,
            other.num_rows(),
            "matrix product dimension mismatch"
        );
        let mut out = BitMatrix::zeros(self.num_rows(), other.num_cols());
        for (i, row) in self.rows.iter().enumerate() {
            let acc = out.row_mut(i);
            for j in row.iter_ones() {
                acc.xor_assign(other.row(j));
            }
        }
        out
    }

    /// Matrix power `A^e` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn pow(&self, mut e: u64) -> BitMatrix {
        assert_eq!(self.num_rows(), self.cols, "pow requires a square matrix");
        let mut result = BitMatrix::identity(self.cols);
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        result
    }

    /// Rank via Gauss–Jordan elimination on a working copy.
    pub fn rank(&self) -> usize {
        let mut work = self.rows.clone();
        crate::rref::rref(&mut work).len()
    }

    /// A basis of the right nullspace `{x : A·x = 0}`. The basis has
    /// `num_cols() - rank()` vectors.
    pub fn nullspace(&self) -> Vec<BitVec> {
        let mut work = self.rows.clone();
        let pivots = crate::rref::rref(&mut work);
        let nrows = pivots.len();
        crate::rref::nullspace_from_rref(&work[..nrows], &pivots, self.cols)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}x{}]", self.num_rows(), self.cols)?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256;

    fn random_square(n: usize, seed: u64) -> BitMatrix {
        let mut rng = Xoshiro256::new(seed);
        BitMatrix::random(n, n, &mut rng)
    }

    #[test]
    fn identity_properties() {
        let i = BitMatrix::identity(10);
        assert_eq!(i.rank(), 10);
        let m = random_square(10, 3);
        assert_eq!(i.mul(&m), m);
        assert_eq!(m.mul(&i), m);
    }

    #[test]
    fn mul_vec_matches_mul_with_column() {
        let mut rng = Xoshiro256::new(8);
        let a = BitMatrix::random(7, 5, &mut rng);
        let x = BitVec::random(5, &mut rng);
        let y = a.mul_vec(&x);
        for i in 0..7 {
            assert_eq!(y.get(i), a.row(i).dot(&x));
        }
    }

    #[test]
    fn mul_associative() {
        let mut rng = Xoshiro256::new(4);
        let a = BitMatrix::random(6, 6, &mut rng);
        let b = BitMatrix::random(6, 6, &mut rng);
        let c = BitMatrix::random(6, 6, &mut rng);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = random_square(9, 21);
        let mut acc = BitMatrix::identity(9);
        for e in 0..9u64 {
            assert_eq!(a.pow(e), acc, "exponent {e}");
            acc = acc.mul(&a);
        }
    }

    #[test]
    fn rank_of_singular() {
        let mut m = BitMatrix::zeros(3, 3);
        m.set(0, 0, true);
        m.set(1, 0, true); // duplicate column info
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn rank_bounded_by_dims() {
        let mut rng = Xoshiro256::new(77);
        let a = BitMatrix::random(5, 12, &mut rng);
        assert!(a.rank() <= 5);
        let b = BitMatrix::random(12, 5, &mut rng);
        assert!(b.rank() <= 5);
    }

    #[test]
    fn mul_vec_linearity() {
        let mut rng = Xoshiro256::new(13);
        let a = BitMatrix::random(8, 8, &mut rng);
        let x = BitVec::random(8, &mut rng);
        let y = BitVec::random(8, &mut rng);
        let mut xy = x.clone();
        xy.xor_assign(&y);
        let mut sum = a.mul_vec(&x);
        sum.xor_assign(&a.mul_vec(&y));
        assert_eq!(a.mul_vec(&xy), sum);
    }

    #[test]
    fn push_row_sets_width() {
        let mut m = BitMatrix::zeros(0, 0);
        m.push_row(BitVec::ones(5));
        assert_eq!(m.num_cols(), 5);
        assert_eq!(m.num_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dimension_mismatch_panics() {
        let a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
