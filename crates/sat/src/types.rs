//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, densely numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a variable from its dense index.
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, packed as `var << 1 | negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Lit {
        Lit(var.0 << 1 | 1)
    }

    /// A literal with explicit sign; `positive = true` gives `var`,
    /// `false` gives `¬var`.
    pub fn new(var: Var, positive: bool) -> Lit {
        if positive {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index (distinct for the two polarities), used for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a literal from its dense index.
    pub fn from_index(index: usize) -> Lit {
        Lit(index as u32)
    }

    /// DIMACS encoding: 1-based, negative numbers for negated literals.
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.var().0 + 1);
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Parses a DIMACS literal, or `None` if `code == 0` or its variable
    /// number exceeds [`crate::dimacs::MAX_VARS`] (it would wrap in the
    /// packed `u32` representation). Parsers of outside input call this.
    pub fn try_from_dimacs(code: i64) -> Option<Lit> {
        let magnitude = code.unsigned_abs();
        if code == 0 || magnitude > crate::dimacs::MAX_VARS as u64 {
            return None;
        }
        Some(Lit::new(Var(magnitude as u32 - 1), code > 0))
    }

    /// Parses a DIMACS literal (nonzero).
    ///
    /// # Panics
    ///
    /// Panics where [`Lit::try_from_dimacs`] returns `None`.
    pub fn from_dimacs(code: i64) -> Lit {
        assert!(code != 0, "DIMACS literal cannot be 0");
        Lit::try_from_dimacs(code).unwrap_or_else(|| {
            panic!(
                "DIMACS variable {} exceeds the supported maximum",
                code.unsigned_abs()
            )
        })
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "¬{}", self.var())
        }
    }
}

/// Three-valued assignment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    pub(crate) fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let v = Var(7);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_ne!(p.index(), n.index());
    }

    #[test]
    fn new_with_sign() {
        let v = Var(3);
        assert_eq!(Lit::new(v, true), Lit::positive(v));
        assert_eq!(Lit::new(v, false), Lit::negative(v));
    }

    #[test]
    fn dimacs_roundtrip() {
        for code in [1i64, -1, 5, -17] {
            assert_eq!(Lit::from_dimacs(code).to_dimacs(), code);
        }
        assert_eq!(Lit::positive(Var(0)).to_dimacs(), 1);
        assert_eq!(Lit::negative(Var(0)).to_dimacs(), -1);
        let max = crate::dimacs::MAX_VARS as i64;
        assert_eq!(Lit::try_from_dimacs(-max).map(Lit::to_dimacs), Some(-max));
        assert_eq!(Lit::try_from_dimacs(0), None);
        assert_eq!(Lit::try_from_dimacs(max + 1), None);
        assert_eq!(Lit::try_from_dimacs(i64::MIN), None);
    }

    #[test]
    #[should_panic(expected = "cannot be 0")]
    fn dimacs_zero_panics() {
        Lit::from_dimacs(0);
    }

    #[test]
    fn index_roundtrip() {
        let l = Lit::negative(Var(12));
        assert_eq!(Lit::from_index(l.index()), l);
        assert_eq!(Var::from_index(5), Var(5));
    }
}
