//! The DIP loop and seed recovery.
//!
//! The search space is the mask basis, not the seed: each of the two
//! hypotheses is one fresh SAT variable per free mask bit (see
//! [`model`](crate::model)), and the seed is the basis's map of the
//! converged free bits. The miter keeps one difference
//! literal per scan-out and primary-output bit, and convergence is proved
//! one output at a time.

use std::time::Duration;

use cnf::Encoder;
use gf2::{BitVec, Rng64, SplitMix64};
use netlist::{Circuit, NetId};
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
    /// Certify convergence: the attack's solver logs a DRAT+xor proof
    /// from its first constraint on, and at convergence the independent
    /// `proofcheck` checker verifies that log, closed by the empty
    /// clause, against the verbatim inputs plus the clause "some output
    /// differs" before the answer is trusted (DESIGN.md §7). A run
    /// resumed from a checkpoint replays its DIPs into a fresh log.
    pub certify: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            captures: 1,
            max_dips: 512,
            certify: false,
        }
    }
}

/// A successful unlock: its seed reproduced the oracle's responses on
/// every verification probe.
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
    /// The checked UNSAT certificate for the final convergence answer,
    /// when [`AttackConfig::certify`] was set.
    pub certificate: Option<proofcheck::Certificate>,
    /// Time spent closing the logged proof and checking it (zero when
    /// certification was off). Logging itself runs inside the DIP and
    /// convergence steps and is counted there.
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
    let mut lits = Vec::new();
    let mut alpha: Vec<Lit> = basis
        .iter()
        .map(|bit| match bit {
            MaskBit::Free(i) => vars[*i],
            MaskBit::Sum(terms) => {
                lits.clear();
                lits.extend(terms.iter().map(|&i| vars[i]));
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

/// The literals of one encoded session ([`locked_cone`]), in buffers that
/// are reused from session to session.
#[derive(Debug, Default)]
pub(crate) struct Session {
    /// The flop state while the capture frames unroll.
    state: Vec<Lit>,
    /// One literal per chain position.
    pub(crate) scan_out: Vec<Lit>,
    /// One literal per primary output.
    pub(crate) po: Vec<Lit>,
}

/// Encodes one locked session under a seed hypothesis: XOR the load mask
/// into the pattern, scatter into flop order, unroll the capture frames,
/// gather back to chain order, XOR the unload mask. `stimulus` holds the
/// pattern's literals (one per chain position), then the primary inputs';
/// the output literals land in `out.scan_out` and `out.po`.
pub(crate) fn locked_cone(
    enc: &mut Encoder,
    circuit: &Circuit,
    chain: &ScanChain,
    copy: &MaskCopy,
    stimulus: &[Lit],
    captures: usize,
    out: &mut Session,
) {
    let (pattern, pis) = stimulus.split_at(chain.len());
    // Sized by the pattern; the chain is a permutation of the flops, so
    // the loop overwrites every entry.
    out.state.clear();
    out.state.extend_from_slice(pattern);
    for (pos, (&x, &alpha)) in pattern.iter().zip(&copy.alpha).enumerate() {
        out.state[chain.dff_at(pos)] = enc.xor2(x, alpha);
    }
    for _ in 0..captures {
        enc.comb_in_place(circuit, pis, &mut out.state, &mut out.po);
    }
    out.scan_out.clear();
    for (pos, &beta) in copy.beta.iter().enumerate() {
        let captured = out.state[chain.dff_at(pos)];
        out.scan_out.push(enc.xor2(captured, beta));
    }
}

/// The order in which convergence is proved, as indices into the output
/// bits [`locked_cone`] returns (scan-out positions, then POs): ascending
/// number of flops in each output's one-frame fan-in cone, ties by index.
/// Small cones depend on few load-mask bits, so they close cheaply and
/// their DIPs arrive first.
///
/// Every count comes from one topological pass that gives each net the
/// set of flops in its cone as a bitset (`words` 64-bit words per net).
pub(crate) fn output_order(circuit: &Circuit, chain: &ScanChain) -> Vec<usize> {
    let words = circuit.num_dffs().div_ceil(64);
    let mut support = vec![0u64; circuit.num_nets() * words];
    for (i, dff) in circuit.dffs().iter().enumerate() {
        support[dff.q.index() * words + i / 64] |= 1 << (i % 64);
    }
    for &gi in circuit.topo_gates() {
        let gate = &circuit.gates()[gi];
        let out = gate.output.index() * words;
        for input in &gate.inputs {
            let src = input.index() * words;
            for w in 0..words {
                support[out + w] |= support[src + w];
            }
        }
    }
    let flops = |net: NetId| -> usize {
        let at = net.index() * words;
        support[at..at + words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    };
    let captured = (0..chain.len()).map(|pos| circuit.dffs()[chain.dff_at(pos)].d);
    let mut keyed: Vec<(usize, usize)> = captured
        .chain(circuit.outputs().iter().copied())
        .enumerate()
        .map(|(i, net)| (flops(net), i))
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
///    only appends constraints. A dependent mask bit is a single xor row
///    in the solver's GF(2) engine (the encoder's native
///    [`XorMode`](cnf::XorMode)) instead of a Tseitin chain.
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
    /// positional argument list: the defaulted knobs (captures,
    /// certification) read at the call site instead of as bare numbers.
    struct RoundTrip<'a> {
        circuit: &'a Circuit,
        chain: ScanChain,
        width: usize,
        num_gates: usize,
        captures: usize,
        seed: u64,
        certify: bool,
    }

    #[test]
    fn output_order_matches_per_output_cones() {
        // The reference: one fan-in cone walk per output, sorted by
        // (flop count, index).
        let reference = |c: &Circuit, chain: &ScanChain| -> Vec<(usize, usize)> {
            let captured = (0..chain.len()).map(|pos| c.dffs()[chain.dff_at(pos)].d);
            let roots: Vec<_> = captured.chain(c.outputs().iter().copied()).collect();
            let mut keyed: Vec<(usize, usize)> = roots
                .iter()
                .enumerate()
                .map(|(i, &net)| {
                    let cone = c.fanin_cone(&[net]);
                    (cone.iter().filter(|&&m| c.is_dff_output(m)).count(), i)
                })
                .collect();
            keyed.sort_unstable();
            keyed
        };
        let mut rng = Xoshiro256::new(0x0D0E);
        let mut circuits = vec![s208_like()];
        // 70 flops: bitsets of two words.
        for (seed, flops) in [(1u64, 6), (2, 12), (3, 20), (4, 70)] {
            circuits.push(
                GeneratorConfig::new("order", 5, 4, flops, 8 * flops)
                    .with_seed(seed)
                    .generate(),
            );
        }
        let mut ties = 0;
        for c in &circuits {
            let n = c.num_dffs();
            for chain in [ScanChain::natural(n), ScanChain::shuffled(n, &mut rng)] {
                let keyed = reference(c, &chain);
                ties += keyed.windows(2).filter(|w| w[0].0 == w[1].0).count();
                let expect: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
                assert_eq!(output_order(c, &chain), expect, "{n} flops");
            }
        }
        assert!(ties > 0, "the circuits must exercise the index tie-break");
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
                certify: false,
            }
        }

        fn captures(mut self, captures: usize) -> Self {
            self.captures = captures;
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
                certify: self.certify,
                ..AttackConfig::default()
            };
            let unlock = unlock(self.circuit, &self.chain, &spec, &mut oracle, &cfg)
                .expect("attack converges");
            assert_eq!(
                unlock.oracle_queries,
                unlock.dip_iterations + 16,
                "one session per DIP, then the verification probes"
            );
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
    fn unlocks_64_bit_key_natively() {
        // The headline width from the refactor: a 64-bit LFSR seed. Native
        // xor keeps each mask bit a single solver row, so this stays fast.
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 64, 6, 0xF5).run();
        assert_eq!(u.rank + u.nullity, 64);
    }

    #[test]
    fn certified_unlock_smoke() {
        // Certification checks the convergence proof the attack's own
        // solver logged; a small instance keeps this fast enough for
        // every test run (the 64-bit certified attack lives in
        // tests/certified_attack.rs).
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
        assert_eq!(u.oracle_queries, 16, "only the verification probes");
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
