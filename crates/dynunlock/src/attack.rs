//! The DIP loop and seed recovery.
//!
//! The search space is the mask basis, not the seed: each of the two
//! hypotheses is one fresh SAT variable per free mask bit (see
//! [`model`](crate::model)), and the seed is the basis's map of the
//! converged free bits. The miter keeps one difference
//! literal per scan-out and primary-output bit, and convergence is proved
//! one output at a time.

use std::time::Duration;

use cnf::{Encoder, XorMode};
use gf2::{BitVec, Rng64, SplitMix64};
use netlist::Circuit;
use satsolver::{Lit, SolverStats};
use scanlock::{LockSpec, LockedScanChip};
use sim::{Reliable, ScanAccess, ScanChain};

use crate::model::MaskBit;
use crate::robust::{AttackState, DegradeReason, RobustConfig, RobustOutcome};

/// Attack tuning knobs.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Capture cycles per session (the paper's standard session uses 1).
    pub captures: usize,
    /// Abort after this many DIP iterations.
    pub max_dips: usize,
    /// Random probe queries used to verify the recovered seed against the
    /// oracle after the loop converges.
    pub verify_queries: usize,
    /// RNG seed for the verification probes.
    pub rng_seed: u64,
    /// How the encoder lowers parities (session-mask linear forms, miter
    /// xors). [`XorMode::Native`] hands each one to the solver's GF(2)
    /// engine as a single xor constraint — this is what makes wide keys
    /// (64+ bits) tractable. [`XorMode::Tseitin`] keeps the classical
    /// clause expansion as a differential reference.
    pub xor_mode: XorMode,
    /// Certify convergence: re-derive it from a fresh proof-logging
    /// solver over the verbatim inputs closed by the clause "some output
    /// differs", and verify the emitted DRAT+xor certificate with the
    /// independent `proofcheck` checker before trusting it (DESIGN.md §7).
    pub certify: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            captures: 1,
            max_dips: 512,
            verify_queries: 16,
            rng_seed: 0xD15C0,
            xor_mode: XorMode::Native,
            certify: false,
        }
    }
}

/// A successful unlock.
#[derive(Debug, Clone)]
pub struct Unlock {
    /// The recovered seed: the particular solution of the mask system,
    /// which is the unique solution at full rank. Mask bits no output
    /// observes are free, so it can differ from the secret even then; it
    /// always locks the chip identically at the attacked session shape
    /// ([`same_class`]; verified against the oracle either way).
    pub seed: BitVec,
    /// DIP iterations until the miter went UNSAT.
    pub dip_iterations: usize,
    /// Total oracle sessions consumed (DIP queries + verification probes).
    pub oracle_queries: usize,
    /// Time spent inside SAT solver calls.
    pub solve_time: Duration,
    /// Wall-clock time of the whole attack.
    pub total_time: Duration,
    /// Rank of the linear system the masks gave over the seed bits.
    pub rank: usize,
    /// `width - rank`: log2 of the functionally equivalent seed class.
    pub nullity: usize,
    /// Whether the recovered seed survived the verification probes.
    pub verified: bool,
    /// The checked UNSAT certificate for the final convergence answer,
    /// when [`AttackConfig::certify`] was set.
    pub certificate: Option<proofcheck::Certificate>,
    /// Time spent producing and checking the certificate (zero when
    /// certification was off).
    pub certify_time: Duration,
    /// The SAT solver's lifetime work counters at the end of the attack
    /// (restarts, decisions, conflicts, budget exhaustions, ...).
    pub solver_stats: SolverStats,
}

/// One symbolic mask hypothesis: its per-position mask literals, built
/// over one fresh variable per free bit of the mask basis.
#[derive(Debug)]
pub(crate) struct MaskCopy {
    pub(crate) alpha: Vec<Lit>,
    pub(crate) beta: Vec<Lit>,
}

/// Encodes one hypothesis over the mask basis
/// ([`SessionMasks::basis`](crate::model::SessionMasks::basis)):
/// a free bit is its own variable, a dependent bit one parity over free
/// variables, a zero row constant false.
pub(crate) fn mask_copy(enc: &mut Encoder, basis: &[MaskBit], cells: usize) -> MaskCopy {
    let free = basis
        .iter()
        .filter(|bit| matches!(bit, MaskBit::Free(_)))
        .count();
    let vars = enc.fresh_many(free);
    let mut alpha: Vec<Lit> = basis
        .iter()
        .map(|bit| match bit {
            MaskBit::Free(i) => vars[*i],
            MaskBit::Sum(terms) => {
                let lits: Vec<Lit> = terms.iter().map(|&i| vars[i]).collect();
                enc.parity(&lits)
            }
        })
        .collect();
    let beta = alpha.split_off(cells);
    MaskCopy { alpha, beta }
}

/// Whether two seeds lock `circuit` into the same oracle at one session
/// shape.
///
/// This is what a recovered seed promises: mask bits no output observes
/// are left free, so even a full-rank recovery can differ from the secret
/// bit for bit (DESIGN.md §6). The check demands equal unload masks `β`
/// (they XOR straight onto the scan-out, so they are always observable)
/// and identical answers from chips holding `a` and `b` on `sessions`
/// random sessions of `captures` captures each.
pub fn same_class(
    circuit: &Circuit,
    chain: &ScanChain,
    spec: &LockSpec,
    a: &BitVec,
    b: &BitVec,
    captures: usize,
    sessions: usize,
) -> bool {
    let masks = crate::model::session_masks(spec, chain.len(), captures);
    if masks.mask_values(a).1 != masks.mask_values(b).1 {
        return false;
    }
    let chip =
        |seed: &BitVec| LockedScanChip::new(circuit, chain.clone(), spec.clone(), seed.clone());
    let (mut chip_a, mut chip_b) = (chip(a), chip(b));
    let mut rng = SplitMix64::new(0x5A3E_C1A5_5E55_1075);
    let num_pis = circuit.inputs().len();
    (0..sessions).all(|_| {
        let pattern: Vec<bool> = (0..chain.len()).map(|_| rng.gen_bool()).collect();
        let pis: Vec<bool> = (0..num_pis).map(|_| rng.gen_bool()).collect();
        chip_a.query_captures(&pattern, &pis, captures)
            == chip_b.query_captures(&pattern, &pis, captures)
    })
}

/// Encodes one locked session under a seed hypothesis: XOR the load mask
/// into the pattern, scatter into flop order, unroll the capture frames,
/// gather back to chain order, XOR the unload mask. Returns
/// `(scan_out, po)` literals.
pub(crate) fn locked_cone(
    enc: &mut Encoder,
    circuit: &Circuit,
    chain: &ScanChain,
    copy: &MaskCopy,
    pattern: &[Lit],
    pis: &[Lit],
    captures: usize,
) -> (Vec<Lit>, Vec<Lit>) {
    let n = chain.len();
    let loaded: Vec<Lit> = (0..n)
        .map(|p| enc.xor2(pattern[p], copy.alpha[p]))
        .collect();
    let mut state: Vec<Option<Lit>> = vec![None; n];
    for (pos, &lit) in loaded.iter().enumerate() {
        state[chain.dff_at(pos)] = Some(lit);
    }
    let mut state: Vec<Lit> = state
        .into_iter()
        .map(|l| l.expect("chain is a permutation of the flops"))
        .collect();
    let mut po = Vec::new();
    for _ in 0..captures {
        let cone = enc.comb(circuit, pis, &state);
        po = cone.po;
        state = cone.next_state;
    }
    let scan_out = (0..n)
        .map(|pos| {
            let captured = state[chain.dff_at(pos)];
            enc.xor2(captured, copy.beta[pos])
        })
        .collect();
    (scan_out, po)
}

/// The order in which convergence is proved, as indices into the output
/// bits [`locked_cone`] returns (scan-out positions, then POs): ascending
/// number of flops in each output's one-frame fan-in cone, ties by index.
/// Small cones depend on few load-mask bits, so they close cheaply and
/// their DIPs arrive first.
pub(crate) fn output_order(circuit: &Circuit, chain: &ScanChain) -> Vec<usize> {
    let captured = (0..chain.len()).map(|pos| circuit.dffs()[chain.dff_at(pos)].d);
    let roots: Vec<_> = captured.chain(circuit.outputs().iter().copied()).collect();
    let mut keyed: Vec<(usize, usize)> = roots
        .iter()
        .enumerate()
        .map(|(i, &net)| {
            let cone = circuit.fanin_cone(&[net]);
            let flops = cone.iter().filter(|&&m| circuit.is_dff_output(m)).count();
            (flops, i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Runs the DynUnlock attack against a scan oracle.
///
/// The attacker knows the netlist, the chain order, and the lock structure
/// ([`LockSpec`] — taps and key-gate placement, from reverse engineering);
/// only the LFSR seed is secret, and the only access to the oracle is
/// [`ScanAccess`].
///
/// The run has three phases:
///
/// 1. **DIP loop** (the SAT attack): two symbolic mask hypotheses, each
///    over the free bits of the mask basis, drive two copies of the affine
///    session model over a shared symbolic stimulus. The outputs are
///    taken one at a time, smallest structural fan-in first: while the
///    solver can find a stimulus on which the copies disagree at the
///    current output, query the oracle there and constrain both copies to
///    the observed response; once it cannot, that output is closed for
///    good. The solver instance stays warm throughout — every iteration
///    only appends constraints. Under the default [`XorMode::Native`] a
///    dependent mask bit is a single xor row in the solver's GF(2)
///    engine instead of a Tseitin chain.
/// 2. **Linear phase**: once every output is closed, read the free mask
///    bits off a final model and map them to the seed through the mask
///    basis built before the loop (the XOR of their dual seeds), with no
///    further elimination. The seed returned is the particular solution
///    of the mask system: the unique seed at full rank, a canonical
///    member of the functionally equivalent class otherwise. Either way
///    it may differ from the secret in bits no output observes
///    ([`same_class`]).
/// 3. **Verification**: random probe sessions compare a re-locked chip
///    under the recovered seed against the oracle bit-for-bit.
///
/// This is [`AttackState::run`] under [`RobustConfig::strict`] against
/// an oracle that never faults: the same machine, with no retries,
/// replication or budget.
///
/// # Errors
///
/// The [`DegradeReason`] the machine stopped with:
/// [`DegradeReason::DipLimit`] if the loop does not converge,
/// [`DegradeReason::Inconsistent`] if the oracle contradicts the model
/// (wrong spec/chain/convention), [`DegradeReason::VerificationFailed`]
/// if the converged seed fails a probe, [`DegradeReason::Certification`]
/// if a requested certificate fails.
///
/// # Panics
///
/// Panics if dimensions disagree (chain vs. circuit flops, oracle port
/// counts, `captures == 0`).
pub fn unlock<O: ScanAccess>(
    circuit: &Circuit,
    chain: &ScanChain,
    spec: &LockSpec,
    oracle: &mut O,
    cfg: &AttackConfig,
) -> Result<Unlock, DegradeReason> {
    let state = AttackState::new(circuit, chain, spec, RobustConfig::strict(cfg.clone()));
    match state.run(&mut Reliable(&mut *oracle)) {
        RobustOutcome::Unlocked { unlock, .. } => Ok(unlock),
        RobustOutcome::Partial(report) => Err(report.reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::Xoshiro256;
    use lfsr::TapSet;
    use netlist::generator::{s208_like, GeneratorConfig};
    use scanlock::LockedScanChip;

    /// One end-to-end lock-and-attack exercise. A builder instead of a
    /// positional argument list: the defaulted knobs (captures, xor mode,
    /// certification) read at the call site instead of as bare numbers.
    struct RoundTrip<'a> {
        circuit: &'a Circuit,
        chain: ScanChain,
        width: usize,
        num_gates: usize,
        captures: usize,
        seed: u64,
        xor_mode: XorMode,
        certify: bool,
    }

    impl<'a> RoundTrip<'a> {
        fn new(
            circuit: &'a Circuit,
            chain: ScanChain,
            width: usize,
            num_gates: usize,
            seed: u64,
        ) -> Self {
            RoundTrip {
                circuit,
                chain,
                width,
                num_gates,
                captures: 1,
                seed,
                xor_mode: XorMode::Native,
                certify: false,
            }
        }

        fn captures(mut self, captures: usize) -> Self {
            self.captures = captures;
            self
        }

        fn mode(mut self, xor_mode: XorMode) -> Self {
            self.xor_mode = xor_mode;
            self
        }

        fn certify(mut self) -> Self {
            self.certify = true;
            self
        }

        fn run(self) -> Unlock {
            let mut rng = Xoshiro256::new(self.seed);
            let taps = TapSet::maximal(self.width).unwrap();
            let spec = LockSpec::random(taps, self.chain.len(), self.num_gates, &mut rng);
            let secret = spec.random_seed(&mut rng);
            let mut oracle = LockedScanChip::new(
                self.circuit,
                self.chain.clone(),
                spec.clone(),
                secret.clone(),
            );
            let cfg = AttackConfig {
                captures: self.captures,
                xor_mode: self.xor_mode,
                certify: self.certify,
                ..AttackConfig::default()
            };
            let unlock = unlock(self.circuit, &self.chain, &spec, &mut oracle, &cfg)
                .expect("attack converges");
            assert!(unlock.verified);
            assert_eq!(
                unlock.certificate.is_some(),
                self.certify,
                "certificate present exactly when requested"
            );
            assert!(
                same_class(
                    self.circuit,
                    &self.chain,
                    &spec,
                    &unlock.seed,
                    &secret,
                    self.captures,
                    1000
                ),
                "recovered seed must be in the secret's class"
            );
            unlock
        }
    }

    #[test]
    fn unlocks_s208_natural_chain() {
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 8, 5, 0xA0).run();
        assert!(u.dip_iterations <= 64, "tiny instance, few DIPs");
    }

    #[test]
    fn unlocks_s208_shuffled_chain() {
        let c = s208_like();
        let mut rng = Xoshiro256::new(99);
        let chain = ScanChain::shuffled(8, &mut rng);
        RoundTrip::new(&c, chain, 12, 6, 0xB1).run();
    }

    #[test]
    fn unlocks_generated_circuit_with_multiple_captures() {
        let c = GeneratorConfig::new("atk", 5, 3, 6, 50)
            .with_seed(7)
            .generate();
        RoundTrip::new(&c, ScanChain::natural(6), 8, 4, 0xC2)
            .captures(2)
            .run();
    }

    #[test]
    fn unlocks_wide_key_with_sparse_gates() {
        // Fewer gates than key bits: rank may be deficient, but the
        // recovered seed must still be functionally equivalent (verified
        // inside the round trip by probe).
        let c = s208_like();
        RoundTrip::new(&c, ScanChain::natural(8), 16, 3, 0xD3).run();
    }

    #[test]
    fn native_and_tseitin_modes_recover_the_same_lock() {
        // Same lock attacked under both lowering modes: both must verify
        // and land in the same class (each run checks it against the
        // secret).
        let c = s208_like();
        let native = RoundTrip::new(&c, ScanChain::natural(8), 12, 6, 0xE4).run();
        let tseitin = RoundTrip::new(&c, ScanChain::natural(8), 12, 6, 0xE4)
            .mode(XorMode::Tseitin)
            .run();
        assert!(native.verified && tseitin.verified);
        assert_eq!(native.rank, tseitin.rank, "rank is a property of the lock");
    }

    #[test]
    fn unlocks_64_bit_key_natively() {
        // The headline width from the refactor: a 64-bit LFSR seed. Native
        // xor keeps each mask bit a single solver row, so this stays fast.
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 64, 6, 0xF5).run();
        assert!(u.verified);
    }

    #[test]
    fn certified_unlock_smoke() {
        // Certification re-derives the convergence UNSAT with a logged
        // solver and checks the emitted proof; a small instance keeps
        // this fast enough for every test run (the 64-bit certified
        // attack lives in tests/certified_attack.rs).
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 8, 5, 0xA0)
            .certify()
            .run();
        let cert = u.certificate.expect("certificate requested");
        assert!(cert.stats.steps() > 0, "a real refutation was logged");
        assert!(u.certify_time > Duration::ZERO);
    }

    #[test]
    fn gate_free_lock_converges_immediately() {
        let c = s208_like();
        let spec = LockSpec::new(TapSet::maximal(8).unwrap(), vec![]).unwrap();
        let secret = BitVec::from_u64(8, 0x3C);
        let chain = ScanChain::natural(8);
        let mut oracle = LockedScanChip::new(&c, chain.clone(), spec.clone(), secret);
        let cfg = AttackConfig {
            certify: true,
            ..AttackConfig::default()
        };
        let u = unlock(&c, &chain, &spec, &mut oracle, &cfg).unwrap();
        assert_eq!(u.dip_iterations, 0, "no key gates, no DIPs needed");
        assert_eq!(u.rank, 0);
        assert!(u.verified);
        // Every mask folds to false, yet the two copies' cones are still
        // distinct variables: the certificate refutes "some output
        // differs" from the inputs.
        let cert = u.certificate.expect("certificate requested");
        assert!(proofcheck::check_text(&cert.formula, &cert.proof).is_ok());
    }

    #[test]
    fn wrong_spec_is_reported_inconsistent() {
        // Attack a chip whose real gate placement differs from the spec the
        // attacker assumes: either the loop detects the contradiction or
        // verification catches the bad seed — it must not silently succeed.
        let c = s208_like();
        let chain = ScanChain::natural(8);
        let taps = TapSet::maximal(8).unwrap();
        let mut rng = Xoshiro256::new(5);
        let real = LockSpec::random(taps.clone(), 8, 5, &mut rng);
        let assumed = LockSpec::random(taps, 8, 5, &mut rng);
        assert_ne!(real, assumed);
        let secret = real.random_seed(&mut rng);
        let mut oracle = LockedScanChip::new(&c, chain.clone(), real, secret);
        let err = unlock(&c, &chain, &assumed, &mut oracle, &AttackConfig::default());
        assert!(
            matches!(
                err,
                Err(DegradeReason::Inconsistent | DegradeReason::VerificationFailed { .. })
            ),
            "mismatched model must not verify: {err:?}"
        );
    }

    #[test]
    fn dip_limit_is_reported_exactly() {
        // The strict wrapper hands back the machine's own reason: a lock
        // that needs DIPs stops at a zero DIP allowance with `DipLimit`,
        // not a folded catch-all.
        let c = s208_like();
        let chain = ScanChain::natural(8);
        let mut rng = Xoshiro256::new(0xA0);
        let spec = LockSpec::random(TapSet::maximal(8).unwrap(), 8, 5, &mut rng);
        let secret = spec.random_seed(&mut rng);
        let mut oracle = LockedScanChip::new(&c, chain.clone(), spec.clone(), secret);
        let cfg = AttackConfig {
            max_dips: 0,
            ..AttackConfig::default()
        };
        let err = unlock(&c, &chain, &spec, &mut oracle, &cfg).unwrap_err();
        assert_eq!(err, DegradeReason::DipLimit { limit: 0 });
    }
}
