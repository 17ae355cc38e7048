//! Lane-word abstraction: a per-net storage word holding many independent
//! simulation lanes.
//!
//! Bit `l` of a lane word belongs to *lane* `l`, and every gate kernel is
//! a bitwise op on whole words. Two widths are provided:
//!
//! * `u64` — 64 lanes, one machine word;
//! * [`W256`] — 256 lanes as a `[u64; 4]` block.
//!
//! Within a `W256` block, lane `l` lives in word `l / 64`, bit `l % 64`.
//! No simulator in this crate uses lane words any more: every attack
//! phase runs the scalar [`Evaluator`](crate::Evaluator). The module is
//! slated for deletion (ROADMAP item 3).

use std::fmt;

/// One per-net storage word of a fixed number of independent lanes.
///
/// Implementations must satisfy, for all lanes `l < LANES`:
/// `zeros().lane(l) == false`, `ones().lane(l) == true`, and the bitwise
/// ops must act lane-wise (`a.and(b).lane(l) == (a.lane(l) & b.lane(l))`,
/// and likewise for `or` / `xor` / `not`).
pub trait LaneWord:
    Copy + Clone + Eq + PartialEq + Default + Send + Sync + fmt::Debug + 'static
{
    /// Number of independent lanes in one word.
    const LANES: usize;

    /// The all-lanes-false word.
    fn zeros() -> Self;

    /// The all-lanes-true word.
    fn ones() -> Self;

    /// Lane-wise NOT.
    fn not(self) -> Self;

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;

    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;

    /// Reads one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn lane(self, lane: usize) -> bool;

    /// Writes one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn set_lane(&mut self, lane: usize, bit: bool);
}

impl LaneWord for u64 {
    const LANES: usize = 64;

    fn zeros() -> Self {
        0
    }

    fn ones() -> Self {
        !0
    }

    fn not(self) -> Self {
        !self
    }

    fn and(self, other: Self) -> Self {
        self & other
    }

    fn or(self, other: Self) -> Self {
        self | other
    }

    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    fn lane(self, lane: usize) -> bool {
        assert!(lane < 64, "lane {lane} out of range for u64");
        (self >> lane) & 1 == 1
    }

    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(lane < 64, "lane {lane} out of range for u64");
        *self = (*self & !(1u64 << lane)) | (u64::from(bit) << lane);
    }
}

/// A 256-lane block: four `u64` words per net. Lane `l` is bit `l % 64`
/// of word `l / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct W256(pub [u64; 4]);

impl LaneWord for W256 {
    const LANES: usize = 256;

    fn zeros() -> Self {
        W256([0; 4])
    }

    fn ones() -> Self {
        W256([!0; 4])
    }

    fn not(self) -> Self {
        let W256([a, b, c, d]) = self;
        W256([!a, !b, !c, !d])
    }

    fn and(self, other: Self) -> Self {
        let W256(a) = self;
        let W256(b) = other;
        W256([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }

    fn or(self, other: Self) -> Self {
        let W256(a) = self;
        let W256(b) = other;
        W256([a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]])
    }

    fn xor(self, other: Self) -> Self {
        let W256(a) = self;
        let W256(b) = other;
        W256([a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]])
    }

    fn lane(self, lane: usize) -> bool {
        assert!(lane < 256, "lane {lane} out of range for W256");
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(lane < 256, "lane {lane} out of range for W256");
        let w = &mut self.0[lane / 64];
        let shift = lane % 64;
        *w = (*w & !(1u64 << shift)) | (u64::from(bit) << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<W: LaneWord>() {
        assert!(W::LANES >= 1);
        for l in 0..W::LANES {
            assert!(!W::zeros().lane(l));
            assert!(W::ones().lane(l));
            assert!(!W::ones().not().lane(l));
        }
        // lane-wise ops on a pseudo-random pair of words
        let mut a = W::zeros();
        let mut b = W::zeros();
        for l in 0..W::LANES {
            a.set_lane(l, l % 3 == 0);
            b.set_lane(l, l % 2 == 0);
        }
        for l in 0..W::LANES {
            let (x, y) = (a.lane(l), b.lane(l));
            assert_eq!(a.and(b).lane(l), x & y, "and lane {l}");
            assert_eq!(a.or(b).lane(l), x | y, "or lane {l}");
            assert_eq!(a.xor(b).lane(l), x ^ y, "xor lane {l}");
            assert_eq!(a.not().lane(l), !x, "not lane {l}");
        }
    }

    #[test]
    fn u64_satisfies_the_lane_laws() {
        check_laws::<u64>();
    }

    #[test]
    fn w256_satisfies_the_lane_laws() {
        check_laws::<W256>();
    }

    #[test]
    fn w256_lane_maps_to_word_and_bit() {
        let mut w = W256::zeros();
        w.set_lane(64, true);
        assert_eq!(w.0, [0, 1, 0, 0]);
        w.set_lane(255, true);
        assert_eq!(w.0[3], 1u64 << 63);
        w.set_lane(64, false);
        assert_eq!(w.0[1], 0);
        assert!(w.lane(255));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn w256_lane_bounds_are_checked() {
        let _ = W256::zeros().lane(256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn u64_lane_bounds_are_checked() {
        let _ = 0u64.lane(64);
    }
}
