//! Concrete (bit-level) LFSR simulation.

use gf2::BitVec;

use crate::TapSet;

/// A Fibonacci LFSR: on each step the register shifts by one and bit 0
/// receives the XOR of the tapped bits.
///
/// This is the PRNG inside the EFF-Dyn key selector (paper Fig. 2); the
/// locked chip steps it on **every** clock edge — shift and capture alike.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use lfsr::{Lfsr, TapSet};
///
/// let taps = TapSet::new(3, vec![1, 2]).unwrap(); // the paper's 3-bit demo
/// let mut l = Lfsr::new(taps, BitVec::from_u64(3, 0b001));
/// l.step();
/// // s'[0] = s[1]^s[2] = 0, s'[1] = s[0] = 1, s'[2] = s[1] = 0
/// assert_eq!(l.state().to_bools(), vec![false, true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    taps: TapSet,
    state: BitVec,
    steps: u64,
}

impl Lfsr {
    /// Creates an LFSR with the given seed as initial state.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != taps.width()`.
    pub fn new(taps: TapSet, seed: BitVec) -> Self {
        assert_eq!(seed.len(), taps.width(), "seed width mismatch");
        Lfsr {
            taps,
            state: seed,
            steps: 0,
        }
    }

    /// The tap set.
    pub fn taps(&self) -> &TapSet {
        &self.taps
    }

    /// Current state; bit `j` drives key gate `j` in the locked chip.
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// Number of steps taken since construction or the last reseed.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Reads state bit `j`.
    pub fn bit(&self, j: usize) -> bool {
        self.state.get(j)
    }

    /// Advances one clock.
    ///
    /// The register shift runs at word level (`s'[j] = s[j-1]` is one
    /// left-shift-with-carry per 64 bits); only the tap reads and the new
    /// bit 0 touch individual bits.
    pub fn step(&mut self) {
        let feedback = self
            .taps
            .taps()
            .iter()
            .fold(false, |acc, &t| acc ^ self.state.get(t));
        shift_up_words(&mut self.state);
        self.state.set(0, feedback);
        self.steps += 1;
    }

    /// Advances `n` clocks.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets to a new seed (models power-on reset of the locked chip).
    ///
    /// # Panics
    ///
    /// Panics if the seed width mismatches.
    pub fn reseed(&mut self, seed: BitVec) {
        assert_eq!(seed.len(), self.taps.width(), "seed width mismatch");
        self.state = seed;
        self.steps = 0;
    }
}

/// Word-level register shift `s'[j] = s[j-1]` with `s'[0] = 0`: each word
/// shifts left by one and takes the previous word's top bit as carry.
fn shift_up_words(state: &mut BitVec) {
    let mut carry = 0u64;
    for w in state.as_words_mut() {
        let next_carry = *w >> 63;
        *w = (*w << 1) | carry;
        carry = next_carry;
    }
    // the shift can push a live bit past `len` inside the last word
    state.mask_tail();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{Rng64, SplitMix64};

    fn taps3() -> TapSet {
        TapSet::new(3, vec![1, 2]).unwrap()
    }

    #[test]
    fn paper_three_bit_sequence() {
        // Walk the 3-bit LFSR of paper Fig. 1 by hand:
        // state (s0,s1,s2), update s0' = s1^s2, shift others.
        let mut l = Lfsr::new(taps3(), BitVec::from_bools([true, false, false]));
        let expected = [
            [false, true, false],
            [true, false, true],
            [true, true, false],
            [true, true, true],
            [false, true, true],
            [false, false, true],
            [true, false, false], // back to the seed: period 7
        ];
        for (i, exp) in expected.iter().enumerate() {
            l.step();
            assert_eq!(l.state().to_bools(), exp.to_vec(), "step {}", i + 1);
        }
        assert_eq!(l.steps_taken(), 7);
    }

    #[test]
    fn zero_state_is_fixed_point() {
        let mut l = Lfsr::new(taps3(), BitVec::zeros(3));
        l.run(10);
        assert!(l.state().is_zero());
    }

    #[test]
    fn step_matches_companion_matrix_power() {
        let taps = TapSet::maximal(16).unwrap();
        let a = taps.companion_matrix();
        let mut rng = SplitMix64::new(4);
        let seed = BitVec::random(16, &mut rng);
        let mut l = Lfsr::new(taps, seed.clone());
        l.run(37);
        assert_eq!(l.state(), &a.pow(37).mul_vec(&seed));
    }

    #[test]
    fn reseed_resets_step_count() {
        let mut l = Lfsr::new(taps3(), BitVec::from_u64(3, 0b101));
        l.run(5);
        l.reseed(BitVec::from_u64(3, 0b011));
        assert_eq!(l.steps_taken(), 0);
        assert_eq!(l.state(), &BitVec::from_u64(3, 0b011));
    }

    #[test]
    fn run_is_linear_in_seed() {
        // L(s1 ^ s2) = L(s1) ^ L(s2) after any number of steps.
        let taps = TapSet::maximal(12).unwrap();
        let mut rng = SplitMix64::new(8);
        let s1 = BitVec::random(12, &mut rng);
        let s2 = BitVec::random(12, &mut rng);
        let mut sx = s1.clone();
        sx.xor_assign(&s2);
        let mut l1 = Lfsr::new(taps.clone(), s1);
        let mut l2 = Lfsr::new(taps.clone(), s2);
        let mut lx = Lfsr::new(taps, sx);
        for _ in 0..50 {
            l1.step();
            l2.step();
            lx.step();
        }
        let mut sum = l1.state().clone();
        sum.xor_assign(l2.state());
        assert_eq!(&sum, lx.state());
    }

    #[test]
    fn word_shift_matches_bit_shift_at_awkward_widths() {
        // Cross-check the word-level register shift against a bit-by-bit
        // reference at widths straddling word boundaries.
        for width in [3usize, 63, 64, 65, 67, 100, 130] {
            let taps = if width == 3 {
                taps3()
            } else {
                TapSet::new(width, vec![width / 2, width - 1]).unwrap()
            };
            let mut rng = SplitMix64::new(width as u64);
            let seed = BitVec::random(width, &mut rng);
            let mut fast = Lfsr::new(taps.clone(), seed.clone());
            let mut slow = seed;
            for step in 0..200 {
                let feedback = taps.taps().iter().fold(false, |acc, &t| acc ^ slow.get(t));
                for j in (1..width).rev() {
                    let below = slow.get(j - 1);
                    slow.set(j, below);
                }
                slow.set(0, feedback);
                fast.step();
                assert_eq!(fast.state(), &slow, "width {width} step {step}");
            }
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let taps = TapSet::maximal(16).unwrap();
        let mut rng = SplitMix64::new(6);
        let s1 = BitVec::random(16, &mut rng);
        let mut s2 = s1.clone();
        s2.flip(rng.gen_index(16));
        let mut l1 = Lfsr::new(taps.clone(), s1);
        let mut l2 = Lfsr::new(taps, s2);
        let mut diverged = false;
        for _ in 0..32 {
            if l1.state() != l2.state() {
                diverged = true;
            }
            l1.step();
            l2.step();
        }
        assert!(diverged);
    }
}
