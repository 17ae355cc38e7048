//! The affine session model: why EFF-Dyn collapses.
//!
//! The defense's key LFSR steps every cycle, so naively each shift edge is
//! masked by a different key. But the [`sim::ScanAccess`] contract makes
//! every query a fresh powered session, and power-on reset restarts the
//! LFSR from the same secret seed. With the session structure fixed (`n`
//! shift-in edges, `c` captures, `n` shift-out edges), the key bit applied
//! at any point of any session is a *fixed linear function of the seed* —
//! the paper's central observation. The whole dynamic lock collapses to
//!
//! ```text
//! response = F(pattern ⊕ α) ,  scan_out = capture(F) ⊕ β
//! ```
//!
//! where `α` (the load mask) and `β` (the unload mask) are per-position
//! XOR masks, each an explicit GF(2) linear form of the seed. This module
//! computes those forms with one [`lfsr::SymbolicLfsr`] walk.
//!
//! The oracle only ever sees the masks, so the attack never needs the seed
//! itself while it searches: `SessionMasks::basis` picks the linearly
//! independent mask rows as free bits and writes every other mask bit as
//! the XOR of the free bits it depends on. The attack gives each free bit
//! one SAT variable per hypothesis; a dependent bit becomes one native
//! parity over free bits (a single GF(2) row in the solver's xor engine
//! under the default mode), and a zero row folds to constant false. When
//! the masks are independent no xor rows are left at all. The basis also
//! carries the map from free-bit values back to the seed, so the linear
//! phase reads the seed off the converged free bits without another
//! elimination.

use gf2::{BitVec, LinSolver};
use lfsr::SymbolicLfsr;
use scanlock::LockSpec;

/// How one mask bit is expressed over the mask basis
/// ([`SessionMasks::basis`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MaskBit {
    /// A row independent of every earlier row: free basis bit `i`.
    Free(usize),
    /// A row in the span of earlier rows: the XOR of these free bits
    /// (empty for a zero row, which is constant false).
    Sum(Vec<usize>),
}

/// The mask row space over its free bits, and the way back to the seed
/// ([`SessionMasks::basis`]): free bit `j` has a *dual seed* `d_j`, zero
/// off the pivot columns, on which free row `j` is 1 and every other free
/// row 0.
#[derive(Debug, Clone)]
pub(crate) struct MaskBasis {
    /// One entry per mask bit, `alpha` rows first, then `beta`.
    pub(crate) bits: Vec<MaskBit>,
    /// `duals[j]` is the dual seed of free bit `j`.
    duals: Vec<BitVec>,
    /// Per seed bit: whether the mask row space determines it.
    pinned: Vec<bool>,
}

impl MaskBasis {
    /// The number of free bits: the rank of the mask rows over the seed.
    pub(crate) fn rank(&self) -> usize {
        self.duals.len()
    }

    /// Whether the mask values determine seed bit `b`: every seed that
    /// produces the same masks agrees on it.
    pub(crate) fn pins(&self, b: usize) -> bool {
        self.pinned[b]
    }

    /// The seed behind free-bit values `free`: the XOR of the dual seeds of
    /// the set bits. It reproduces every mask value and is zero off the
    /// pivot columns, so it is the particular solution of the whole mask
    /// system: the unique seed at full rank, a canonical member of the
    /// equivalent class otherwise.
    pub(crate) fn seed(&self, free: &[bool]) -> BitVec {
        assert_eq!(free.len(), self.rank(), "one value per free bit");
        let mut seed = BitVec::zeros(self.pinned.len());
        for (dual, &v) in self.duals.iter().zip(free) {
            if v {
                seed.xor_assign(dual);
            }
        }
        seed
    }

    /// Every mask value, `alpha` then `beta`, for free-bit values `free`.
    pub(crate) fn values(&self, free: &[bool]) -> Vec<bool> {
        self.bits
            .iter()
            .map(|bit| match bit {
                MaskBit::Free(i) => free[*i],
                MaskBit::Sum(terms) => terms.iter().fold(false, |acc, &i| acc ^ free[i]),
            })
            .collect()
    }

    /// The free-bit values inside a full vector of mask values (`alpha`
    /// then `beta`), or `None` when a dependent value disagrees with the
    /// free bits it sums.
    pub(crate) fn free_values(&self, values: &[bool]) -> Option<Vec<bool>> {
        let free: Vec<bool> = self
            .bits
            .iter()
            .zip(values)
            .filter(|(bit, _)| matches!(bit, MaskBit::Free(_)))
            .map(|(_, &v)| v)
            .collect();
        (self.values(&free) == values).then_some(free)
    }
}

/// The affine masks of one session structure, as linear forms of the seed.
///
/// `alpha[p]` and `beta[p]` are coefficient rows of width
/// [`LockSpec::width`]; `row · seed` gives the concrete mask bit for chain
/// position `p` (see [`mask_values`](SessionMasks::mask_values)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMasks {
    /// Load mask: the state actually latched at position `p` is
    /// `pattern[p] ⊕ alpha[p]·seed`.
    pub alpha: Vec<BitVec>,
    /// Unload mask: the bit observed for position `p` is
    /// `captured[p] ⊕ beta[p]·seed`.
    pub beta: Vec<BitVec>,
}

impl SessionMasks {
    /// Evaluates both masks for a concrete seed.
    ///
    /// # Panics
    ///
    /// Panics if the seed width differs from the rows' width.
    pub fn mask_values(&self, seed: &BitVec) -> (Vec<bool>, Vec<bool>) {
        let a = self.alpha.iter().map(|row| row.dot(seed)).collect();
        let b = self.beta.iter().map(|row| row.dot(seed)).collect();
        (a, b)
    }

    /// The mask row space as a [`MaskBasis`] over `width` seed bits: one
    /// entry per mask bit, `alpha` rows first, then `beta`.
    ///
    /// Two eliminations build it. The first scans the rows in that order;
    /// each row independent of the rows before it becomes the next free
    /// bit (first-come pivots), and the reduced row space it leaves pins
    /// exactly the seed bits that are its unit rows. The second
    /// eliminates the free rows with an identity block appended,
    /// `[F | I_k]`: `F` has full row rank, so every pivot falls in a seed
    /// column, and the nullspace vector of identity column `j` is
    /// `(d_j, e_j)` with `F·d_j = e_j`, the dual seed of free bit `j`.
    /// A dependent row `r = c·F` then sums the free bits `j` with
    /// `r·d_j = c_j = 1`. Any assignment to the free bits extends to a
    /// seed, and every seed induces one, so a formula over the free bits
    /// describes exactly the masks some seed can produce.
    pub(crate) fn basis(&self, width: usize) -> MaskBasis {
        let rows: Vec<&BitVec> = self.alpha.iter().chain(&self.beta).collect();
        let mut span = LinSolver::new(width);
        let independent: Vec<bool> = rows
            .iter()
            .map(|row| {
                span.add_equation((*row).clone(), false)
                    .expect("a homogeneous system is consistent")
            })
            .collect();
        let pinned = (0..width).map(|b| span.pinned_value(b).is_some()).collect();

        let k = span.rank();
        let free_rows = rows
            .iter()
            .zip(&independent)
            .filter_map(|(row, &i)| i.then_some(row));
        let mut dual = LinSolver::new(width + k);
        for (j, row) in free_rows.enumerate() {
            let mut augmented = row.resized(width + k);
            augmented.set(width + j, true);
            dual.add_equation(augmented, false)
                .expect("a homogeneous system is consistent");
        }
        // The nullspace lists one vector per non-pivot column in column
        // order; the identity columns are the last k of them.
        let nullspace = dual
            .solve()
            .expect("a homogeneous system is consistent")
            .nullspace;
        let duals: Vec<BitVec> = nullspace[nullspace.len() - k..]
            .iter()
            .map(|v| v.resized(width))
            .collect();

        let mut next = 0;
        let bits = rows
            .iter()
            .zip(independent)
            .map(|(row, independent)| {
                if independent {
                    next += 1;
                    MaskBit::Free(next - 1)
                } else {
                    MaskBit::Sum((0..k).filter(|&j| row.dot(&duals[j])).collect())
                }
            })
            .collect();
        MaskBasis {
            bits,
            duals,
            pinned,
        }
    }
}

/// Derives the affine masks for one session structure.
///
/// Mirrors `scanlock`'s cycle convention exactly (the key applied at edge
/// `t` is `A^t · seed`; the register steps after every edge):
///
/// * the bit destined for position `p` enters cell 0 at edge `n-1-p` and
///   passes the key gate at position `q ≤ p` at edge `n-1-p+q`, so
///   `alpha[p] = Σ_{q ∈ gates, q ≤ p} row_{g(q)}(A^{n-1-p+q})`;
/// * the bit captured at position `p` passes the gate at position `q > p`
///   at edge `n+c+q-p-1` on its way out, so
///   `beta[p] = Σ_{q ∈ gates, q > p} row_{g(q)}(A^{n+c+q-p-1})`.
///
/// Capture edges contribute nothing (key gates sit on the scan path only)
/// but still advance the register, which is why `captures` shifts the
/// `beta` rows.
///
/// # Panics
///
/// Panics if `captures == 0` or a key gate lies beyond `num_cells`.
pub fn session_masks(spec: &LockSpec, num_cells: usize, captures: usize) -> SessionMasks {
    assert!(captures >= 1, "a session has at least one capture");
    let n = num_cells;
    if let Some(max) = spec.max_pos() {
        assert!(max < n, "key gate at position {max} past chain end");
    }
    let width = spec.width();
    let gates = spec.gates();

    // One symbolic walk over every edge of the session. At edge `t` the
    // gate at position `q` masks the bit bound for alpha[n-1-t+q] while
    // q ≤ t < n, and the bit leaving from beta[n+c+q-1-t] while
    // n+c ≤ t < n+c+q; each gate's row is XORed straight into its slot.
    let mut sym = SymbolicLfsr::new(spec.taps().clone());
    let mut alpha = vec![BitVec::zeros(width); n];
    let mut beta = vec![BitVec::zeros(width); n];
    for t in 0..2 * n + captures {
        for g in gates {
            let q = g.pos;
            let slot = if (q..n).contains(&t) {
                &mut alpha[n - 1 - t + q]
            } else if (n + captures..n + captures + q).contains(&t) {
                &mut beta[n + captures + q - 1 - t]
            } else {
                continue;
            };
            slot.xor_assign(sym.row(g.lfsr_bit));
        }
        sym.step();
    }
    SessionMasks { alpha, beta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{Rng64, SplitMix64};
    use lfsr::recover::SeedRecovery;
    use lfsr::TapSet;
    use netlist::generator::{s208_like, GeneratorConfig};
    use scanlock::LockedScanChip;
    use sim::{ScanAccess, ScanChain, ScanChip, ScanResponse};

    /// The affine prediction: mask the pattern with α, run the *honest*
    /// chip, mask the scan-out with β.
    fn affine_predict(
        circuit: &netlist::Circuit,
        chain: &ScanChain,
        masks: &SessionMasks,
        seed: &BitVec,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> ScanResponse {
        let (a, b) = masks.mask_values(seed);
        let masked: Vec<bool> = pattern.iter().zip(&a).map(|(&x, &m)| x ^ m).collect();
        let mut honest = ScanChip::new(circuit, chain.clone());
        let resp = honest.query_captures(&masked, pis, captures);
        let scan_out = resp.scan_out.iter().zip(&b).map(|(&y, &m)| y ^ m).collect();
        ScanResponse {
            scan_out,
            po: resp.po,
        }
    }

    /// The load-bearing cross-check of the whole reproduction: the affine
    /// model must agree bit-for-bit with the cycle-accurate locked chip,
    /// over random specs, chains (shuffled included), captures, and seeds.
    #[test]
    fn affine_model_matches_cycle_accurate_chip() {
        let mut rng = SplitMix64::new(0xDA7E);
        for trial in 0..12u64 {
            let c = if trial % 3 == 0 {
                s208_like()
            } else {
                GeneratorConfig::new("affine", 4, 2, 6 + (trial as usize % 5), 40)
                    .with_seed(trial)
                    .generate()
            };
            let n = c.num_dffs();
            let chain = if trial % 2 == 0 {
                ScanChain::natural(n)
            } else {
                ScanChain::shuffled(n, &mut rng)
            };
            let width = 8 + (trial as usize % 3) * 4;
            let taps = TapSet::maximal(width).unwrap();
            let spec = scanlock::LockSpec::random(taps, n, 1 + rng.gen_index(n), &mut rng);
            let seed = spec.random_seed(&mut rng);
            let captures = 1 + rng.gen_index(3);
            let masks = session_masks(&spec, n, captures);
            let mut locked = LockedScanChip::new(&c, chain.clone(), spec, seed.clone());
            for _ in 0..6 {
                let pattern: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
                let pis: Vec<bool> = (0..c.inputs().len()).map(|_| rng.gen_bool()).collect();
                let actual = locked.query_captures(&pattern, &pis, captures);
                let predicted = affine_predict(&c, &chain, &masks, &seed, &pattern, &pis, captures);
                assert_eq!(actual, predicted, "trial {trial} diverged");
            }
        }
    }

    #[test]
    fn gate_free_positions_have_empty_masks() {
        // A single gate at position q: alpha is zero below q, beta is zero
        // at and above q.
        let taps = TapSet::maximal(8).unwrap();
        let spec = scanlock::LockSpec::new(
            taps,
            vec![scanlock::KeyGate {
                pos: 3,
                lfsr_bit: 0,
            }],
        )
        .unwrap();
        let masks = session_masks(&spec, 6, 1);
        for p in 0..3 {
            assert!(masks.alpha[p].is_zero(), "alpha[{p}] below the gate");
        }
        for p in 3..6 {
            assert!(!masks.alpha[p].is_zero(), "alpha[{p}] crosses the gate");
            assert!(masks.beta[p].is_zero(), "beta[{p}] at/above the gate");
        }
        for p in 0..3 {
            assert!(!masks.beta[p].is_zero(), "beta[{p}] shifts out through it");
        }
    }

    /// The basis describes exactly the masks seeds can produce: from any
    /// seed it reproduces `mask_values`, and any assignment to its free
    /// bits extends to a seed. Covered with fewer mask bits than key bits
    /// (2n < w), about as many (2n ≈ w), and more (2n > w).
    #[test]
    fn basis_reproduces_masks_and_free_bits_extend_to_seeds() {
        let mut rng = SplitMix64::new(0xBA5E);
        for (cells, width) in [(4, 24), (6, 12), (8, 16), (12, 8), (16, 8), (10, 32)] {
            for trial in 0..4 {
                let taps = TapSet::maximal(width).unwrap();
                let gates = 1 + rng.gen_index(cells);
                let spec = scanlock::LockSpec::random(taps, cells, gates, &mut rng);
                let masks = session_masks(&spec, cells, 1 + trial % 2);
                let basis = masks.basis(width);
                assert_eq!(basis.bits.len(), 2 * cells);
                let rows: Vec<&BitVec> = masks.alpha.iter().chain(&masks.beta).collect();
                let free_rows: Vec<&BitVec> = basis
                    .bits
                    .iter()
                    .zip(&rows)
                    .filter_map(|(bit, row)| matches!(bit, MaskBit::Free(_)).then_some(*row))
                    .collect();
                assert_eq!(
                    free_rows.len(),
                    gf2::BitMatrix::from_rows(rows.iter().map(|r| (*r).clone()).collect()).rank(),
                    "one free bit per dimension of the row space"
                );

                for _ in 0..8 {
                    let seed = BitVec::random(width, &mut rng);
                    let free: Vec<bool> = free_rows.iter().map(|r| r.dot(&seed)).collect();
                    let (a, b) = masks.mask_values(&seed);
                    let expect: Vec<bool> = a.into_iter().chain(b).collect();
                    assert_eq!(basis.values(&free), expect, "{cells}x{width}");
                }

                for _ in 0..8 {
                    let free: Vec<bool> = (0..free_rows.len()).map(|_| rng.gen_bool()).collect();
                    let mut solver = LinSolver::new(width);
                    for (row, &v) in free_rows.iter().zip(&free) {
                        solver
                            .add_equation((*row).clone(), v)
                            .expect("independent rows take any values");
                    }
                    let seed = solver.solve().unwrap().particular;
                    let (a, b) = masks.mask_values(&seed);
                    let got: Vec<bool> = a.into_iter().chain(b).collect();
                    assert_eq!(got, basis.values(&free), "{cells}x{width}");
                }
            }
        }
    }

    /// The differential guard of the linear phase: the basis against the
    /// reference elimination, `SeedRecovery` fed all 2n mask rows with one
    /// random seed's values. Same seed, same rank, same pinned bits, and
    /// the values the basis reads back reproduce the masks.
    fn assert_basis_matches_seed_recovery(
        cells: usize,
        width: usize,
        gates: usize,
        rng: &mut SplitMix64,
    ) {
        let taps = TapSet::maximal(width).unwrap();
        let spec = scanlock::LockSpec::random(taps.clone(), cells, gates, rng);
        let masks = session_masks(&spec, cells, 1 + rng.gen_index(2));
        let basis = masks.basis(width);
        for _ in 0..4 {
            let secret = BitVec::random(width, rng);
            let (a, b) = masks.mask_values(&secret);
            let values: Vec<bool> = a.into_iter().chain(b).collect();
            let mut rec = SeedRecovery::new(taps.clone());
            for (row, &v) in masks.alpha.iter().chain(&masks.beta).zip(&values) {
                rec.observe_form(row.clone(), v)
                    .expect("one seed's mask values are consistent");
            }
            let shape = format!("{cells} cells x {width} bits, {gates} gates");
            let free = basis
                .free_values(&values)
                .unwrap_or_else(|| panic!("{shape}: a seed's masks fit the basis"));
            assert_eq!(basis.rank(), rec.rank(), "{shape}: rank");
            assert_eq!(
                basis.seed(&free),
                rec.solution().particular,
                "{shape}: seed"
            );
            assert_eq!(basis.values(&free), values, "{shape}: values");
            for bit in 0..width {
                let pinned = rec.pinned_bit(bit);
                assert_eq!(basis.pins(bit), pinned.is_some(), "{shape}: bit {bit}");
                if let Some(v) = pinned {
                    assert_eq!(v, secret.get(bit), "{shape}: pinned bit {bit}");
                }
            }
        }
    }

    #[test]
    fn mask_basis_matches_seed_recovery() {
        let mut rng = SplitMix64::new(0xD0A1);
        // 2n < w, 2n ≈ w, 2n > w, then 160 flops, the paper's smallest
        // profile, at 64 and 128 bits.
        for (cells, width) in [
            (4usize, 24),
            (6, 12),
            (8, 16),
            (16, 8),
            (10, 32),
            (160, 64),
            (160, 128),
        ] {
            for _ in 0..3 {
                let gates = 1 + rng.gen_index(cells.div_ceil(2));
                assert_basis_matches_seed_recovery(cells, width, gates, &mut rng);
            }
        }
        // The paper's largest profile (1728 flops) at 64 bits with the
        // recipe's n/2 key gates; about 30× slower in a debug build.
        if !cfg!(debug_assertions) {
            assert_basis_matches_seed_recovery(1728, 64, 864, &mut rng);
        }
    }

    #[test]
    fn basis_pivots_come_first_and_zero_rows_fold() {
        let taps = TapSet::maximal(8).unwrap();
        let spec = scanlock::LockSpec::new(
            taps,
            vec![scanlock::KeyGate {
                pos: 3,
                lfsr_bit: 0,
            }],
        )
        .unwrap();
        let basis = session_masks(&spec, 6, 1).basis(8).bits;
        // alpha[0..3] are zero rows; alpha[3] is the first nonzero row.
        for bit in &basis[..3] {
            assert_eq!(*bit, MaskBit::Sum(Vec::new()));
        }
        assert_eq!(basis[3], MaskBit::Free(0));
        let mut next = 0;
        for bit in &basis {
            if let MaskBit::Free(i) = bit {
                assert_eq!(*i, next, "free bits are numbered first-come");
                next += 1;
            }
        }
    }

    #[test]
    fn captures_shift_the_unload_mask() {
        // More captures step the LFSR further before shift-out: beta must
        // change, alpha must not.
        let taps = TapSet::maximal(8).unwrap();
        let mut rng = SplitMix64::new(3);
        let spec = scanlock::LockSpec::random(taps, 8, 4, &mut rng);
        let one = session_masks(&spec, 8, 1);
        let three = session_masks(&spec, 8, 3);
        assert_eq!(one.alpha, three.alpha);
        assert_ne!(one.beta, three.beta);
    }
}
