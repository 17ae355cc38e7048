//! Seed recovery from observed linear forms of the seed.
//!
//! Every LFSR state bit at every cycle is a known linear form of the
//! seed ([`SymbolicLfsr`](crate::SymbolicLfsr) computes them), and so is
//! any XOR of such bits — DynUnlock's session masks are exactly that.
//! Each observed value is one equation `row · seed = value`; Gaussian
//! elimination pins the seed once `width` independent equations
//! accumulate. The attack reads its seed off the mask basis instead
//! (`dynunlock`'s `SessionMasks::basis`); fed all the mask rows with one
//! seed's values, this is the reference that basis is tested against.

use gf2::{BitVec, LinSolution, LinSolver, SolveError};

use crate::TapSet;

/// Incrementally recovers an LFSR seed from observed linear forms.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use lfsr::{Lfsr, SymbolicLfsr, TapSet};
/// use lfsr::recover::SeedRecovery;
///
/// let taps = TapSet::maximal(8).unwrap();
/// let secret = BitVec::from_u64(8, 0b1011_0010);
/// let mut chip = Lfsr::new(taps.clone(), secret.clone());
/// let mut sym = SymbolicLfsr::new(taps.clone());
/// let mut rec = SeedRecovery::new(taps);
///
/// // watch bit 0 for 8 consecutive cycles
/// for _ in 0..8 {
///     rec.observe_form(sym.row(0).clone(), chip.bit(0)).unwrap();
///     chip.step();
///     sym.step();
/// }
/// assert_eq!(rec.rank(), 8);
/// assert_eq!(rec.solution().particular, secret);
/// ```
#[derive(Debug, Clone)]
pub struct SeedRecovery {
    taps: TapSet,
    solver: LinSolver,
}

impl SeedRecovery {
    /// Starts a recovery for the given register structure (the attacker
    /// knows the taps from reverse engineering — threat-model assumption).
    pub fn new(taps: TapSet) -> Self {
        SeedRecovery {
            solver: LinSolver::new(taps.width()),
            taps,
        }
    }

    /// Adds one observed *linear form*: `row · seed = value` for an
    /// arbitrary coefficient row over the seed bits. Returns whether the
    /// equation was independent.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if the equation contradicts earlier ones
    /// (meaning the observations did not come from one seed, or the tap
    /// model is wrong); the recovery is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the register width.
    pub fn observe_form(&mut self, row: BitVec, value: bool) -> Result<bool, SolveError> {
        self.solver.add_equation(row, value)
    }

    /// Number of independent equations gathered so far.
    pub fn rank(&self) -> usize {
        self.solver.rank()
    }

    /// The affine solution set.
    pub fn solution(&self) -> LinSolution {
        self.solver
            .solve()
            .expect("solver state is consistent by construction")
    }

    /// Value of seed bit `bit_index` if the equations gathered so far pin
    /// it uniquely, even when the full seed is still ambiguous. This is
    /// the per-bit confidence signal a partial attack result reports:
    /// `Some` bits are certain, `None` bits are still free.
    ///
    /// # Panics
    ///
    /// Panics if `bit_index` is outside the register width.
    pub fn pinned_bit(&self, bit_index: usize) -> Option<bool> {
        assert!(bit_index < self.taps.width(), "bit index out of range");
        self.solver.pinned_value(bit_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lfsr, SymbolicLfsr};
    use gf2::{Rng64, SplitMix64};

    /// The `(form, value)` of state bits `0..bits` at every cycle in
    /// `0..cycles`, cycle-major: `stream[t * bits + j]` is bit `j` at
    /// cycle `t`, read off a symbolic and a concrete register together.
    fn keystream(taps: &TapSet, secret: &BitVec, cycles: u64, bits: usize) -> Vec<(BitVec, bool)> {
        let mut sym = SymbolicLfsr::new(taps.clone());
        let mut chip = Lfsr::new(taps.clone(), secret.clone());
        let mut stream = Vec::new();
        for _ in 0..cycles {
            for j in 0..bits {
                stream.push((sym.row(j).clone(), chip.bit(j)));
            }
            sym.step();
            chip.step();
        }
        stream
    }

    fn recover<'a>(
        taps: &TapSet,
        obs: impl IntoIterator<Item = &'a (BitVec, bool)>,
    ) -> SeedRecovery {
        let mut rec = SeedRecovery::new(taps.clone());
        for (row, value) in obs {
            rec.observe_form(row.clone(), *value)
                .expect("honest observations are consistent");
        }
        rec
    }

    #[test]
    fn consecutive_bit0_observations_pin_seed() {
        let taps = TapSet::maximal(16).unwrap();
        let secret = BitVec::from_u64(16, 0xBEEF);
        let rec = recover(&taps, &keystream(&taps, &secret, 16, 1));
        assert_eq!(rec.rank(), 16);
        assert_eq!(rec.solution().particular, secret);
    }

    #[test]
    fn scattered_observations_also_work() {
        let taps = TapSet::maximal(12).unwrap();
        let mut rng = SplitMix64::new(7);
        let secret = BitVec::random(12, &mut rng);
        let stream = keystream(&taps, &secret, 200, 12);
        // random (cycle, bit) picks; 30 of them almost surely span 12 dims
        let picks: Vec<&(BitVec, bool)> = (0..30)
            .map(|_| &stream[rng.gen_index(stream.len())])
            .collect();
        let rec = recover(&taps, picks);
        assert_eq!(rec.rank(), 12);
        assert_eq!(rec.solution().particular, secret);
    }

    #[test]
    fn underdetermined_keeps_true_seed_among_candidates() {
        let taps = TapSet::maximal(10).unwrap();
        let secret = BitVec::from_u64(10, 0b11_0110_0101 & 0x3FF);
        let rec = recover(&taps, &keystream(&taps, &secret, 6, 1));
        let sol = rec.solution();
        assert_eq!(sol.nullity(), 4);
        assert!(sol.contains(&secret));
    }

    #[test]
    fn pinned_bits_track_partial_knowledge() {
        let taps = TapSet::maximal(10).unwrap();
        let secret = BitVec::from_u64(10, 0b11_0110_0101 & 0x3FF);
        // Cycle-0 observations of bits 0..4 pin exactly those seed bits.
        let rec = recover(&taps, &keystream(&taps, &secret, 1, 4));
        for b in 0..4 {
            assert_eq!(rec.pinned_bit(b), Some(secret.get(b)), "bit {b}");
        }
        assert!(
            (4..10).all(|b| rec.pinned_bit(b).is_none()),
            "unobserved bits must stay free"
        );
        // Full watch pins everything, consistently with the solution.
        let full = recover(&taps, &keystream(&taps, &secret, 10, 1));
        let seed = full.solution().particular;
        for b in 0..10 {
            assert_eq!(full.pinned_bit(b), Some(seed.get(b)));
        }
    }

    #[test]
    fn contradiction_is_reported() {
        let taps = TapSet::maximal(8).unwrap();
        let mut rec = SeedRecovery::new(taps);
        rec.observe_form(BitVec::unit(8, 3), true).unwrap();
        assert!(rec.observe_form(BitVec::unit(8, 3), false).is_err());
        assert_eq!(rec.rank(), 1, "the recovery is left unchanged");
    }

    #[test]
    fn duplicate_observation_is_dependent() {
        let taps = TapSet::maximal(8).unwrap();
        let secret = BitVec::from_u64(8, 0x5C);
        let stream = keystream(&taps, &secret, 6, 3);
        let (row, value) = stream[5 * 3 + 2].clone();
        let mut rec = SeedRecovery::new(taps);
        assert!(rec.observe_form(row.clone(), value).unwrap());
        assert!(!rec.observe_form(row, value).unwrap());
        assert_eq!(rec.rank(), 1);
    }

    #[test]
    fn observed_forms_pin_seed() {
        // Watch only XORs of keystream bits (as a masked scan chain would
        // expose) and still recover the seed.
        let taps = TapSet::maximal(12).unwrap();
        let mut rng = SplitMix64::new(21);
        let secret = BitVec::random(12, &mut rng);
        let stream = keystream(&taps, &secret, 40, 3);
        let mut rec = SeedRecovery::new(taps);
        while rec.rank() < 12 {
            let mut row = BitVec::zeros(12);
            let mut value = false;
            for _ in 0..2 + rng.gen_index(3) {
                let (r, v) = &stream[rng.gen_index(stream.len())];
                row.xor_assign(r);
                value ^= v;
            }
            rec.observe_form(row, value)
                .expect("honest combinations are consistent");
        }
        assert_eq!(rec.solution().particular, secret);
    }

    #[test]
    fn repeated_terms_cancel() {
        let taps = TapSet::maximal(8).unwrap();
        let stream = keystream(&taps, &BitVec::from_u64(8, 0x3A), 4, 2);
        let (x, _) = &stream[3 * 2 + 1];
        let mut twice = x.clone();
        twice.xor_assign(x);
        let mut rec = SeedRecovery::new(taps);
        // x ⊕ x = 0: an even repetition is the trivially-true equation...
        assert!(!rec.observe_form(twice.clone(), false).unwrap());
        assert_eq!(rec.rank(), 0);
        // ...and claiming it equals 1 is a contradiction.
        assert!(rec.observe_form(twice, true).is_err());
    }
}
