//! Symbolic LFSR expansion: state bits as linear forms over the seed.

use std::collections::VecDeque;

use gf2::BitVec;

use crate::TapSet;

/// Tracks, cycle by cycle, the linear form of every LFSR state bit as a
/// function of the seed bits.
///
/// After `t` steps, state bit `j` equals `row(j) · seed` over GF(2); the
/// rows are exactly the rows of the companion-matrix power `A^t`, but
/// computed incrementally in `O(width²/64)` per step instead of a matrix
/// multiplication — the attack walks `2·FF + captures` cycles, so this is
/// the inner loop of model construction.
///
/// # Example
///
/// ```
/// use lfsr::{Lfsr, SymbolicLfsr, TapSet};
/// use gf2::BitVec;
///
/// let taps = TapSet::maximal(8).unwrap();
/// let seed = BitVec::from_u64(8, 0xA5);
/// let mut sym = SymbolicLfsr::new(taps.clone());
/// let mut conc = Lfsr::new(taps, seed.clone());
/// for _ in 0..20 {
///     sym.step();
///     conc.step();
/// }
/// // symbolic row · seed == concrete bit, for every bit
/// for j in 0..8 {
///     assert_eq!(sym.row(j).dot(&seed), conc.bit(j));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLfsr {
    taps: TapSet,
    /// `rows[j]` is the linear form of state bit `j`.
    rows: VecDeque<BitVec>,
    /// Reused feedback accumulator: `step` swaps it with the evicted row.
    scratch: BitVec,
}

impl SymbolicLfsr {
    /// Creates the symbolic register at time 0 (identity: bit `j` = seed
    /// bit `j`).
    pub fn new(taps: TapSet) -> Self {
        let w = taps.width();
        let rows = (0..w).map(|j| BitVec::unit(w, j)).collect();
        SymbolicLfsr {
            taps,
            rows,
            scratch: BitVec::zeros(w),
        }
    }

    /// Linear form of state bit `j` at the current time.
    pub fn row(&self, j: usize) -> &BitVec {
        &self.rows[j]
    }

    /// Advances one cycle: the new bit-0 form is the XOR of the tapped
    /// forms; all other forms shift up.
    ///
    /// The accumulation is word-parallel (`xor_assign` works 64 seed
    /// coefficients per instruction) and allocation-free: the evicted
    /// bottom row's storage is recycled as the next feedback accumulator,
    /// so walking many cycles allocates nothing after construction.
    pub fn step(&mut self) {
        self.scratch.as_words_mut().fill(0);
        for &t in self.taps.taps() {
            self.scratch.xor_assign(&self.rows[t]);
        }
        let mut evicted = self.rows.pop_back().expect("width is at least 1");
        std::mem::swap(&mut evicted, &mut self.scratch);
        self.rows.push_front(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lfsr;
    use gf2::{BitMatrix, SplitMix64};

    fn rows(sym: &SymbolicLfsr, width: usize) -> BitMatrix {
        BitMatrix::from_rows((0..width).map(|j| sym.row(j).clone()).collect())
    }

    #[test]
    fn time_zero_is_identity() {
        let taps = TapSet::maximal(8).unwrap();
        let sym = SymbolicLfsr::new(taps);
        for j in 0..8 {
            assert_eq!(sym.row(j), &BitVec::unit(8, j), "bit {j}");
        }
    }

    #[test]
    fn matches_companion_matrix_powers() {
        let taps = TapSet::maximal(12).unwrap();
        let a = taps.companion_matrix();
        let mut sym = SymbolicLfsr::new(taps);
        for t in 1..=40u64 {
            sym.step();
            let power = a.pow(t);
            for j in 0..12 {
                assert_eq!(sym.row(j), power.row(j), "bit {j} at cycle {t}");
            }
        }
    }

    #[test]
    fn predicts_concrete_bits_for_random_seeds() {
        let taps = TapSet::maximal(16).unwrap();
        let mut rng = SplitMix64::new(2);
        for _ in 0..5 {
            let seed = BitVec::random(16, &mut rng);
            let mut sym = SymbolicLfsr::new(taps.clone());
            let mut conc = Lfsr::new(taps.clone(), seed.clone());
            for t in 0..100 {
                for j in 0..16 {
                    assert_eq!(sym.row(j).dot(&seed), conc.bit(j), "bit {j} at cycle {t}");
                }
                sym.step();
                conc.step();
            }
        }
    }

    #[test]
    fn rows_stay_invertible() {
        // A^t is invertible for all t when taps include width-1.
        let taps = TapSet::maximal(10).unwrap();
        let mut sym = SymbolicLfsr::new(taps);
        for _ in 0..123 {
            sym.step();
        }
        assert_eq!(rows(&sym, 10).rank(), 10);
    }
}
