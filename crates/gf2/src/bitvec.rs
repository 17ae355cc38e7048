//! Fixed-length bit-vectors backed by `u64` words.

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

const WORD_BITS: usize = 64;

/// A fixed-length vector over GF(2).
///
/// Bits beyond `len` inside the last word are kept zero at all times; every
/// mutating operation re-establishes that invariant, so words can be compared
/// and hashed directly.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(!v.parity()); // an even number of ones has even parity
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            len,
            words: vec![!0u64; len.div_ceil(WORD_BITS)],
        };
        v.mask_tail();
        v
    }

    /// Creates a vector with exactly one set bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn unit(len: usize, index: usize) -> Self {
        let mut v = BitVec::zeros(len);
        v.set(index, true);
        v
    }

    /// Builds a vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Builds a `len`-bit vector from the low bits of `value` (bit 0 of
    /// `value` becomes bit 0 of the vector). Bits past 64 are zero.
    pub fn from_u64(len: usize, value: u64) -> Self {
        let mut v = BitVec::zeros(len);
        if !v.words.is_empty() {
            v.words[0] = value;
            v.mask_tail();
        }
        v
    }

    /// Fills a vector of `len` bits from a random generator.
    pub fn random<R: crate::Rng64>(len: usize, rng: &mut R) -> Self {
        let mut v = BitVec::zeros(len);
        for w in &mut v.words {
            *w = rng.next_u64();
        }
        v.mask_tail();
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// XOR-reduction of all bits: true iff an odd number of bits are set.
    pub fn parity(&self) -> bool {
        self.words.iter().fold(0u64, |acc, w| acc ^ w).count_ones() % 2 == 1
    }

    /// Dot product over GF(2): parity of `self AND other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot product length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u64, |acc, (a, b)| acc ^ (a & b))
            .count_ones()
            % 2
            == 1
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over all bits as booleans, ascending by index.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies the vector into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter_bits().collect()
    }

    /// The underlying little-endian words (bit `i` lives in word `i / 64`).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the underlying words.
    ///
    /// This is the word-parallel fast path: callers operate on whole `u64`
    /// words (64 bits per instruction) instead of bit-at-a-time `get`/`set`.
    ///
    /// **Invariant:** bits at positions `>= len` inside the last word must
    /// stay zero so that equality, hashing, `count_ones` and `parity` can
    /// work on raw words. Any write that may set tail bits (shifts, fills,
    /// negations) must be followed by [`BitVec::mask_tail`].
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-establishes the tail invariant after raw word writes: clears every
    /// bit at position `>= len` in the last word.
    ///
    /// Word-level writers ([`BitVec::as_words_mut`]) call this once at the
    /// end instead of masking inside their inner loops.
    pub fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Returns a copy extended (with zeros) or truncated to `new_len` bits.
    pub fn resized(&self, new_len: usize) -> BitVec {
        let mut out = BitVec::zeros(new_len);
        let n_words = out.words.len().min(self.words.len());
        out.words[..n_words].copy_from_slice(&self.words[..n_words]);
        out.mask_tail();
        out
    }
}

/// Iterator over set-bit indices; see [`BitVec::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; {}]", self.len, self)
    }
}

impl fmt::Display for BitVec {
    /// Bit 0 is printed leftmost.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn zeros_is_empty_of_ones() {
        let v = BitVec::zeros(100);
        assert_eq!(v.len(), 100);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
        assert!(!v.parity());
        assert_eq!(v.first_one(), None);
    }

    #[test]
    fn ones_has_full_popcount_and_masked_tail() {
        let v = BitVec::ones(67);
        assert_eq!(v.count_ones(), 67);
        // invariant: tail bits zero => words comparable directly
        assert_eq!(v.as_words()[1] >> 3, 0);
        assert!(v.parity());
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(129, true);
        assert!(v.get(129));
        v.flip(129);
        assert!(!v.get(129));
        v.flip(0);
        assert!(v.get(0));
        assert_eq!(v.first_one(), Some(0));
    }

    #[test]
    fn unit_vector_dot() {
        let e3 = BitVec::unit(10, 3);
        let e4 = BitVec::unit(10, 4);
        assert!(!e3.dot(&e4));
        assert!(e3.dot(&e3));
    }

    #[test]
    fn xor_is_self_inverse() {
        let mut rng = SplitMix64::new(7);
        let a = BitVec::random(200, &mut rng);
        let b = BitVec::random(200, &mut rng);
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut rng = SplitMix64::new(99);
        let v = BitVec::random(300, &mut rng);
        let ones: Vec<usize> = v.iter_ones().collect();
        let expect: Vec<usize> = (0..300).filter(|&i| v.get(i)).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn from_u64_low_bits() {
        let v = BitVec::from_u64(8, 0b1010_0001);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(5));
        assert!(v.get(7));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn from_u64_truncates_to_len() {
        let v = BitVec::from_u64(4, 0xFF);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn display_orders_bit0_first() {
        let v = BitVec::from_u64(5, 0b00110);
        assert_eq!(v.to_string(), "01100");
    }

    #[test]
    fn resized_preserves_prefix() {
        let v = BitVec::from_u64(8, 0b1011_0101);
        let w = v.resized(4);
        assert_eq!(w.to_string(), "1010");
        let x = v.resized(12);
        assert_eq!(x.count_ones(), v.count_ones());
        assert_eq!(x.len(), 12);
    }

    #[test]
    fn parity_counts_mod_two() {
        let mut v = BitVec::zeros(128);
        assert!(!v.parity());
        v.set(64, true);
        assert!(v.parity());
        v.set(127, true);
        assert!(!v.parity());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        BitVec::zeros(4).dot(&BitVec::zeros(5));
    }

    #[test]
    fn from_bools_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_bools(), vec![true, false, true]);
    }

    #[test]
    fn as_words_mut_roundtrips_through_bit_api() {
        // 67 bits: one full word plus a 3-bit tail.
        let mut v = BitVec::zeros(67);
        v.as_words_mut()[0] = 0xDEAD_BEEF_0BAD_F00D;
        v.as_words_mut()[1] = 0b101;
        for i in 0..67 {
            let word = [0xDEAD_BEEF_0BAD_F00Du64, 0b101][i / 64];
            assert_eq!(v.get(i), (word >> (i % 64)) & 1 == 1, "bit {i}");
        }
    }

    #[test]
    fn mask_tail_restores_invariant_after_raw_fill() {
        for len in [1usize, 63, 64, 65, 67, 128, 130] {
            let mut v = BitVec::zeros(len);
            v.as_words_mut().fill(!0u64);
            v.mask_tail();
            assert_eq!(v.count_ones(), len, "len {len}");
            // tail-masked words compare equal to the canonical all-ones
            assert_eq!(v, BitVec::ones(len), "len {len}");
        }
    }

    #[test]
    fn mask_tail_is_noop_on_word_multiple_lengths() {
        let mut v = BitVec::zeros(128);
        v.as_words_mut().fill(!0u64);
        v.mask_tail();
        assert_eq!(v.count_ones(), 128);
    }

    #[test]
    fn word_level_xor_matches_bit_level() {
        let mut rng = SplitMix64::new(11);
        let a = BitVec::random(99, &mut rng);
        let b = BitVec::random(99, &mut rng);
        let mut word_level = a.clone();
        for (w, x) in word_level.as_words_mut().iter_mut().zip(b.as_words()) {
            *w ^= x;
        }
        let mut bit_level = a.clone();
        bit_level.xor_assign(&b);
        assert_eq!(word_level, bit_level);
    }
}
