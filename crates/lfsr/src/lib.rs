//! Linear feedback shift registers: the defense's PRNG and the attack's
//! linear model of it.
//!
//! EFF-Dyn generates a fresh key every clock cycle from an LFSR seeded
//! with the 128-bit secret. Because an LFSR is linear over GF(2), every
//! key bit at every cycle is a known XOR of seed bits — the observation
//! DynUnlock is built on. This crate provides:
//!
//! * [`TapSet`] — validated feedback tap positions, known maximal-length
//!   sets for common widths, and verified generation for arbitrary widths
//!   (the paper sweeps key sizes 128–368);
//! * [`Lfsr`] — the concrete Fibonacci LFSR the locked chip clocks;
//! * [`SymbolicLfsr`] — every state bit at every cycle as a [`gf2::BitVec`]
//!   linear form over the seed bits (row of the companion-matrix power);
//! * [`recover`] — seed recovery from observed linear forms of the seed
//!   by Gaussian elimination, the reference the attack's linear phase is
//!   tested against.
//!
//! # Conventions
//!
//! State bits are `s[0..width]`. One step computes
//! `s'[0] = XOR of s[t] for t in taps` and `s'[j] = s[j-1]` for `j ≥ 1`
//! (paper Algorithm 1 uses exactly this shift-with-feedback form). A tap
//! set must include `width-1` so the update is invertible.
//!
//! # Example
//!
//! ```
//! use lfsr::{Lfsr, TapSet};
//! use gf2::BitVec;
//!
//! let taps = TapSet::maximal(8).unwrap();
//! let mut l = Lfsr::new(taps, BitVec::from_u64(8, 0b1));
//! let before = l.state().clone();
//! for _ in 0..255 { l.step(); }          // maximal period for width 8
//! assert_eq!(l.state(), &before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concrete;
mod error;
pub mod recover;
mod symbolic;
mod taps;

pub use concrete::Lfsr;
pub use error::LfsrError;
pub use symbolic::SymbolicLfsr;
pub use taps::TapSet;
