//! Deterministic fault injection for scan oracles.
//!
//! Real bench oracles are noisy and flaky: probe contact bounces, scan
//! clocks glitch, sessions die mid-shift, and robust-scan defenses
//! deliberately perturb scan-out. [`FaultyOracle`] wraps any honest
//! [`ScanAccess`] implementation and injects those failure modes from a
//! seeded RNG, so every fault schedule is exactly reproducible — the
//! substrate for every fault-tolerance test in the tree.
//!
//! A faulty oracle deliberately breaks the [`ScanAccess`] determinism
//! contract (`check_session_freshness` would — correctly — flag it), so
//! it does *not* implement `ScanAccess`. It implements the fallible
//! interface [`FallibleScanAccess`] instead; wrap a trustworthy oracle in
//! [`Reliable`] to lift it into the same interface.

use std::fmt;

use gf2::{Rng64, SplitMix64};

use crate::oracle::{ScanAccess, ScanResponse};

/// Why a fallible oracle query failed. Transient by construction: the
/// same logical query may be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleFault {
    /// The query's response was lost (bus glitch, timeout, a session that
    /// died mid-shift); the power-on-reset contract makes a retry safe.
    Transient,
}

impl fmt::Display for OracleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFault::Transient => write!(f, "transient query error"),
        }
    }
}

impl std::error::Error for OracleFault {}

/// Scan access that may fail per query. The fallible mirror of
/// [`ScanAccess`]: same session semantics, but each query can return an
/// [`OracleFault`] instead of a response, and a returned response may be
/// corrupted (bit flips) depending on the implementation.
pub trait FallibleScanAccess {
    /// Scan chain length.
    fn num_cells(&self) -> usize;

    /// Number of primary inputs.
    fn num_pis(&self) -> usize;

    /// Number of primary outputs.
    fn num_pos(&self) -> usize;

    /// A full session with `captures` capture cycles; see
    /// [`ScanAccess::query_captures`].
    ///
    /// # Errors
    ///
    /// Returns an [`OracleFault`] when the session fails; retrying the
    /// same query is always safe.
    fn try_query_captures(
        &mut self,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> Result<ScanResponse, OracleFault>;

    /// A standard single-capture session.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleFault`] when the session fails.
    fn try_query(&mut self, pattern: &[bool], pis: &[bool]) -> Result<ScanResponse, OracleFault> {
        self.try_query_captures(pattern, pis, 1)
    }
}

/// Lifts an infallible [`ScanAccess`] oracle into the
/// [`FallibleScanAccess`] interface (queries never fail). This is how
/// trustworthy oracles enter fault-tolerant attack code.
#[derive(Debug, Clone)]
pub struct Reliable<O>(pub O);

impl<O: ScanAccess> FallibleScanAccess for Reliable<O> {
    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn num_pis(&self) -> usize {
        self.0.num_pis()
    }

    fn num_pos(&self) -> usize {
        self.0.num_pos()
    }

    fn try_query_captures(
        &mut self,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> Result<ScanResponse, OracleFault> {
        Ok(self.0.query_captures(pattern, pis, captures))
    }
}

/// Fault schedule parameters for a [`FaultyOracle`].
///
/// Probabilities are integer parts-per-million so schedules are exact
/// across platforms (no floating-point rounding in the hot path). All
/// rates default to zero — `FaultSpec::new(seed)` is a no-fault wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// RNG seed; the entire fault schedule is a pure function of this
    /// seed and the query sequence.
    pub seed: u64,
    /// Probability (ppm) that any single response bit flips.
    pub bit_flip_ppm: u32,
    /// Probability (ppm) that a query fails with [`OracleFault::Transient`].
    pub transient_ppm: u32,
}

impl FaultSpec {
    /// A no-fault spec with the given RNG seed.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            bit_flip_ppm: 0,
            transient_ppm: 0,
        }
    }

    /// Sets the per-bit flip probability (parts per million).
    #[must_use]
    pub fn with_bit_flips(mut self, ppm: u32) -> FaultSpec {
        self.bit_flip_ppm = ppm;
        self
    }

    /// Sets the per-query transient-error probability (parts per million).
    #[must_use]
    pub fn with_transients(mut self, ppm: u32) -> FaultSpec {
        self.transient_ppm = ppm;
        self
    }
}

/// Counters accumulated by a [`FaultyOracle`] over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultyStats {
    /// Query attempts made (including failed ones).
    pub queries: u64,
    /// Queries that failed with [`OracleFault::Transient`].
    pub transient_faults: u64,
    /// Response bits flipped by injected noise.
    pub flipped_bits: u64,
}

/// A seeded fault-injection wrapper around an honest [`ScanAccess`]
/// oracle.
///
/// Each query attempt rolls, in order: transient error, then an
/// independent flip roll per response bit. The roll sequence is
/// fixed, so a given `(seed, query sequence)` pair always produces the
/// same fault schedule regardless of platform.
#[derive(Debug, Clone)]
pub struct FaultyOracle<O> {
    inner: O,
    spec: FaultSpec,
    rng: SplitMix64,
    stats: FaultyStats,
}

const PPM: u64 = 1_000_000;

impl<O: ScanAccess> FaultyOracle<O> {
    /// Wraps `inner` with the fault schedule described by `spec`.
    pub fn new(inner: O, spec: FaultSpec) -> FaultyOracle<O> {
        FaultyOracle {
            inner,
            spec,
            rng: SplitMix64::new(spec.seed),
            stats: FaultyStats::default(),
        }
    }

    /// The fault counters accumulated so far.
    pub fn stats(&self) -> &FaultyStats {
        &self.stats
    }

    /// The fault schedule parameters.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Borrows the wrapped honest oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn roll(&mut self, ppm: u32) -> bool {
        // Guard the rng call: gen_range consumes state, and a zero rate
        // must not perturb the schedule of the rates that are in use.
        ppm > 0 && self.rng.gen_range(PPM) < u64::from(ppm)
    }
}

impl<O: ScanAccess> FallibleScanAccess for FaultyOracle<O> {
    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn num_pis(&self) -> usize {
        self.inner.num_pis()
    }

    fn num_pos(&self) -> usize {
        self.inner.num_pos()
    }

    fn try_query_captures(
        &mut self,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> Result<ScanResponse, OracleFault> {
        self.stats.queries += 1;
        if self.roll(self.spec.transient_ppm) {
            self.stats.transient_faults += 1;
            return Err(OracleFault::Transient);
        }
        let mut resp = self.inner.query_captures(pattern, pis, captures);
        if self.spec.bit_flip_ppm > 0 {
            for bit in resp.scan_out.iter_mut().chain(resp.po.iter_mut()) {
                if self.rng.gen_range(PPM) < u64::from(self.spec.bit_flip_ppm) {
                    *bit = !*bit;
                    self.stats.flipped_bits += 1;
                }
            }
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScanChain, ScanChip};
    use netlist::generator::counter;
    use netlist::Circuit;

    fn chip(c: &Circuit) -> ScanChip<'_> {
        ScanChip::new(c, ScanChain::natural(c.num_dffs()))
    }

    fn run_schedule(spec: FaultSpec) -> (Vec<Result<ScanResponse, OracleFault>>, FaultyStats) {
        let c = counter(8);
        let mut o = FaultyOracle::new(chip(&c), spec);
        let mut rng = SplitMix64::new(7);
        let mut out = Vec::new();
        for _ in 0..200 {
            let pat: Vec<bool> = (0..o.num_cells()).map(|_| rng.gen_bool()).collect();
            let pi: Vec<bool> = (0..o.num_pis()).map(|_| rng.gen_bool()).collect();
            out.push(o.try_query(&pat, &pi));
        }
        (out, *o.stats())
    }

    #[test]
    fn zero_rates_are_transparent() {
        let (results, stats) = run_schedule(FaultSpec::new(42));
        let c = counter(8);
        let mut honest = chip(&c);
        let mut rng = SplitMix64::new(7);
        for r in &results {
            let pat: Vec<bool> = (0..honest.num_cells()).map(|_| rng.gen_bool()).collect();
            let pi: Vec<bool> = (0..honest.num_pis()).map(|_| rng.gen_bool()).collect();
            assert_eq!(r.as_ref().unwrap(), &honest.query(&pat, &pi));
        }
        assert_eq!(stats.transient_faults, 0);
        assert_eq!(stats.flipped_bits, 0);
        assert_eq!(stats.queries, 200);
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let spec = FaultSpec::new(0xFA17)
            .with_bit_flips(40_000)
            .with_transients(100_000);
        let (a, sa) = run_schedule(spec);
        let (b, sb) = run_schedule(spec);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(
            sa.transient_faults > 0,
            "rates this high must fire in 200 queries"
        );
        assert!(sa.flipped_bits > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = FaultSpec::new(1)
            .with_bit_flips(40_000)
            .with_transients(100_000);
        let (a, _) = run_schedule(spec);
        let (b, _) = run_schedule(FaultSpec { seed: 2, ..spec });
        assert_ne!(a, b);
    }

    #[test]
    fn reliable_adapter_never_fails() {
        let c = counter(8);
        let mut o = Reliable(chip(&c));
        let pat = vec![false; o.num_cells()];
        let pi = vec![false; o.num_pis()];
        let direct = chip(&c).query(&pat, &pi);
        assert_eq!(o.try_query(&pat, &pi).unwrap(), direct);
        assert_eq!(o.num_pos(), chip(&c).num_pos());
    }
}
