//! Feedback tap sets: validation, known maximal-length tables, searched
//! generation for arbitrary widths.

use gf2::{BitMatrix, BitVec, Rng64};

use crate::{Lfsr, LfsrError};

/// Known maximal-length Fibonacci tap sets, `(width, taps)`, in the
/// convention of this crate (`s'[0] = XOR of s[t]`, `t` 0-based).
///
/// Derived from the classic XAPP052-style table (1-based positions, shifted
/// down by one); each small-width entry is verified to reach period
/// `2^w - 1` by the test suite.
const MAXIMAL_TABLE: &[(usize, &[usize])] = &[
    (2, &[0, 1]),
    (3, &[1, 2]),
    (4, &[2, 3]),
    (5, &[2, 4]),
    (6, &[4, 5]),
    (7, &[5, 6]),
    (8, &[3, 4, 5, 7]),
    (9, &[4, 8]),
    (10, &[6, 9]),
    (11, &[8, 10]),
    (12, &[0, 3, 5, 11]),
    (13, &[0, 2, 3, 12]),
    (14, &[0, 2, 4, 13]),
    (15, &[13, 14]),
    (16, &[3, 12, 14, 15]),
    (17, &[13, 16]),
    (18, &[10, 17]),
    (19, &[0, 1, 5, 18]),
    (20, &[16, 19]),
    (21, &[18, 20]),
    (22, &[20, 21]),
    (23, &[17, 22]),
    (24, &[16, 21, 22, 23]),
    (25, &[21, 24]),
    (28, &[24, 27]),
    (31, &[27, 30]),
    (32, &[0, 1, 21, 31]),
    (64, &[59, 60, 62, 63]),
    (128, &[98, 100, 125, 127]),
];

/// A validated set of feedback taps for a `width`-bit LFSR.
///
/// Invariants: taps are sorted, unique, within `0..width`, and include
/// `width - 1` (so the state update is a bijection and the companion
/// matrix invertible — a defense whose PRNG loses state would eventually
/// cycle into a tiny orbit).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TapSet {
    width: usize,
    taps: Vec<usize>,
}

impl TapSet {
    /// Validates and creates a tap set.
    ///
    /// # Errors
    ///
    /// Rejects widths < 2, out-of-range taps, empty tap lists, and sets
    /// lacking `width - 1` (non-invertible update).
    pub fn new(width: usize, taps: impl Into<Vec<usize>>) -> Result<Self, LfsrError> {
        if width < 2 {
            return Err(LfsrError::WidthTooSmall { width });
        }
        let mut taps = taps.into();
        if taps.is_empty() {
            return Err(LfsrError::NoTaps);
        }
        taps.sort_unstable();
        taps.dedup();
        if let Some(&bad) = taps.iter().find(|&&t| t >= width) {
            return Err(LfsrError::TapOutOfRange { tap: bad, width });
        }
        if *taps.last().expect("nonempty") != width - 1 {
            return Err(LfsrError::NotInvertible);
        }
        Ok(TapSet { width, taps })
    }

    /// A known maximal-length tap set for `width`, if tabulated.
    ///
    /// Widths covered: 2–25, 28, 31, 32, 64, 128. For other widths use
    /// [`TapSet::generate`].
    pub fn maximal(width: usize) -> Option<TapSet> {
        MAXIMAL_TABLE
            .iter()
            .find(|(w, _)| *w == width)
            .map(|(w, t)| TapSet {
                width: *w,
                taps: t.to_vec(),
            })
    }

    /// Best available tap set for `width`: the tabulated maximal set when
    /// known, otherwise a searched set whose period provably exceeds
    /// `min_period` (verified by simulation from a fixed state).
    ///
    /// # Errors
    ///
    /// Propagates [`LfsrError::PeriodSearchFailed`] from [`TapSet::generate`].
    pub fn for_width<R: Rng64>(
        width: usize,
        min_period: u64,
        rng: &mut R,
    ) -> Result<TapSet, LfsrError> {
        if let Some(t) = TapSet::maximal(width) {
            return Ok(t);
        }
        TapSet::generate(width, min_period, rng)
    }

    /// Searches for a tap set whose period from the unit state exceeds
    /// `min_period`.
    ///
    /// The defense only needs the key schedule not to repeat within one
    /// test session (`2·FF + capture` cycles ≈ 3500 for the largest
    /// benchmark), so verified-period generation is sound for widths the
    /// maximal table misses — this is how the paper's 144…368-bit sweeps
    /// are built.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::PeriodSearchFailed`] after 200 failed draws
    /// (practically unreachable for `min_period` ≪ 2^width).
    pub fn generate<R: Rng64>(
        width: usize,
        min_period: u64,
        rng: &mut R,
    ) -> Result<TapSet, LfsrError> {
        if width < 2 {
            return Err(LfsrError::WidthTooSmall { width });
        }
        for _attempt in 0..200 {
            // 2 or 4 taps including width-1 (even tap counts are necessary
            // for maximal length; keep the parity-friendly shape).
            let extra = if rng.gen_bool() { 1 } else { 3 };
            let mut taps = rng.sample_indices(width - 1, extra.min(width - 1));
            taps.push(width - 1);
            let ts = TapSet::new(width, taps).expect("constructed taps are valid");
            if ts.verified_period_at_least(min_period) {
                return Ok(ts);
            }
        }
        Err(LfsrError::PeriodSearchFailed { min_period })
    }

    /// Register width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The tap positions, sorted ascending.
    pub fn taps(&self) -> &[usize] {
        &self.taps
    }

    /// The companion matrix `A` with `state_{t+1} = A · state_t`:
    /// row 0 has ones at the taps; row `j` has a one at column `j-1`.
    pub fn companion_matrix(&self) -> BitMatrix {
        let mut a = BitMatrix::zeros(self.width, self.width);
        for &t in &self.taps {
            a.set(0, t, true);
        }
        for j in 1..self.width {
            a.set(j, j - 1, true);
        }
        a
    }

    /// Checks by simulation that the period from the unit state exceeds
    /// `min_period` (exact period is not computed; the walk stops at the
    /// bound).
    pub fn verified_period_at_least(&self, min_period: u64) -> bool {
        let start = BitVec::unit(self.width, 0);
        let mut l = Lfsr::new(self.clone(), start.clone());
        for _ in 0..min_period {
            l.step();
            if l.state() == &start {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::SplitMix64;

    #[test]
    fn small_maximal_sets_reach_full_period() {
        // Exhaustively verify 2^w - 1 for tabulated small widths.
        for width in 2..=16 {
            let Some(taps) = TapSet::maximal(width) else {
                panic!("width {width} missing from table");
            };
            let start = BitVec::unit(width, 0);
            let mut l = Lfsr::new(taps, start.clone());
            let mut period = 0u64;
            loop {
                l.step();
                period += 1;
                if l.state() == &start {
                    break;
                }
                assert!(period <= 1 << width, "runaway at width {width}");
            }
            assert_eq!(period, (1u64 << width) - 1, "width {width} not maximal");
        }
    }

    #[test]
    fn large_tabulated_sets_have_long_periods() {
        for width in [24, 32, 64, 128] {
            let taps = TapSet::maximal(width).unwrap();
            assert!(
                taps.verified_period_at_least(100_000),
                "width {width} repeats too early"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_sets() {
        assert_eq!(
            TapSet::new(1, vec![0]).unwrap_err(),
            LfsrError::WidthTooSmall { width: 1 }
        );
        assert_eq!(TapSet::new(8, Vec::new()).unwrap_err(), LfsrError::NoTaps);
        assert_eq!(
            TapSet::new(8, vec![8, 7]).unwrap_err(),
            LfsrError::TapOutOfRange { tap: 8, width: 8 }
        );
        assert_eq!(
            TapSet::new(8, vec![0, 3]).unwrap_err(),
            LfsrError::NotInvertible
        );
    }

    #[test]
    fn taps_are_sorted_and_deduped() {
        let t = TapSet::new(8, vec![7, 3, 3, 5]).unwrap();
        assert_eq!(t.taps(), &[3, 5, 7]);
    }

    #[test]
    fn companion_matrix_is_invertible_and_steps_state() {
        let t = TapSet::maximal(8).unwrap();
        let a = t.companion_matrix();
        assert_eq!(a.rank(), 8, "companion must be invertible");
        // one concrete step == one matrix multiply
        let mut rng = SplitMix64::new(3);
        let seed = BitVec::random(8, &mut rng);
        let mut l = Lfsr::new(t, seed.clone());
        l.step();
        assert_eq!(l.state(), &a.mul_vec(&seed));
    }

    #[test]
    fn generate_meets_period_bound() {
        let mut rng = SplitMix64::new(9);
        for width in [33, 50, 100, 144, 368] {
            let t = TapSet::generate(width, 8_000, &mut rng).unwrap();
            assert_eq!(t.width(), width);
            assert!(t.verified_period_at_least(8_000));
        }
    }

    #[test]
    fn for_width_prefers_table() {
        let mut rng = SplitMix64::new(1);
        let t = TapSet::for_width(16, 1000, &mut rng).unwrap();
        assert_eq!(t, TapSet::maximal(16).unwrap());
    }

    #[test]
    fn generate_is_deterministic_in_rng() {
        let t1 = TapSet::generate(77, 5_000, &mut SplitMix64::new(5)).unwrap();
        let t2 = TapSet::generate(77, 5_000, &mut SplitMix64::new(5)).unwrap();
        assert_eq!(t1, t2);
    }
}
