//! Checkpoint kill/resume round trips: an attack killed mid-loop must
//! resume from serialized bytes — in a "different process" that rebuilds
//! everything from the instance description — and land on a seed that
//! locks the chip exactly as the uninterrupted run's seed does.

use dynunlock_repro::dynunlock::{
    same_class, AttackConfig, AttackState, Checkpoint, CheckpointError, RobustConfig,
    RobustOutcome, Step,
};
use dynunlock_repro::gf2::{BitVec, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::netlist::Circuit;
use dynunlock_repro::proofcheck;
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::{FaultSpec, FaultyOracle, Reliable, ScanChain};

struct Instance {
    circuit: Circuit,
    chain: ScanChain,
    spec: LockSpec,
    secret: BitVec,
}

fn instance(key_width: usize, num_gates: usize, seed: u64) -> Instance {
    instance_on(s208_like(), key_width, num_gates, seed)
}

/// A known-good 64-bit-key instance (shared with `tests/fault_injection.rs`,
/// first row of its golden table): session-mask rows span the full seed
/// space at two captures and the attack converges in about ten DIPs.
/// Requires `captures: 2`.
fn golden_instance() -> Instance {
    let circuit = GeneratorConfig::new("wide", 6, 4, 36, 180)
        .with_seed(0x1d5f_10f4_27e0_a5be)
        .generate();
    let mut rng = Xoshiro256::new(0xdc9e_6c1a_231f_e638);
    let taps = TapSet::maximal(64).unwrap();
    let spec = LockSpec::random(taps, circuit.num_dffs(), 10, &mut rng);
    let secret = spec.random_seed(&mut rng);
    Instance {
        chain: ScanChain::natural(circuit.num_dffs()),
        circuit,
        spec,
        secret,
    }
}

fn instance_on(circuit: Circuit, key_width: usize, num_gates: usize, seed: u64) -> Instance {
    let chain = ScanChain::natural(circuit.num_dffs());
    let mut rng = Xoshiro256::new(seed);
    let taps = TapSet::maximal(key_width).unwrap();
    let spec = LockSpec::random(taps, chain.len(), num_gates, &mut rng);
    let secret = spec.random_seed(&mut rng);
    Instance {
        circuit,
        chain,
        spec,
        secret,
    }
}

impl Instance {
    fn chip(&self) -> LockedScanChip<'_> {
        LockedScanChip::new(
            &self.circuit,
            self.chain.clone(),
            self.spec.clone(),
            self.secret.clone(),
        )
    }

    /// Whether seeds `a` and `b` lock the chip identically at `captures`.
    fn same_class(&self, a: &BitVec, b: &BitVec, captures: usize) -> bool {
        same_class(&self.circuit, &self.chain, &self.spec, a, b, captures, 1000)
    }
}

/// The acceptance scenario: a 64-bit-key attack killed at a checkpoint
/// resumes to a seed equivalent to the one the uninterrupted run
/// recovers.
///
/// Release builds run the uninterrupted reference attack too and compare
/// against its seed; debug builds (≈30× slower per solve) skip the
/// reference run and compare against the known secret, which the
/// reference seed is equivalent to.
#[test]
fn killed_64_bit_attack_resumes_to_the_identical_seed() {
    let inst = golden_instance();
    let cfg = RobustConfig::strict(AttackConfig {
        captures: 2,
        ..AttackConfig::default()
    });

    // Reference: the uninterrupted run.
    let reference_seed = if cfg!(debug_assertions) {
        inst.secret.clone()
    } else {
        let reference = match AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone())
            .run(&mut Reliable(inst.chip()))
        {
            RobustOutcome::Unlocked { unlock, .. } => unlock,
            RobustOutcome::Partial(report) => panic!("reference run degraded: {}", report.reason),
        };
        assert_eq!(reference.nullity, 0, "this instance has full rank");
        assert!(inst.same_class(&reference.seed, &inst.secret, 2));
        reference.seed
    };

    // Interrupted: run a few DIP rounds, checkpoint, "kill the process"
    // (drop every live object), then rebuild purely from the serialized
    // bytes plus the instance description.
    let mut oracle = Reliable(inst.chip());
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    let mut converged_early = false;
    while state.dip_count() < 3 {
        match state.step(&mut oracle) {
            Step::Dip => {}
            Step::Converged => {
                converged_early = true;
                break;
            }
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    assert!(!converged_early, "64-bit instance needs more than 3 DIPs");
    let bytes = state.checkpoint().to_bytes();
    drop(state);
    drop(oracle);

    let ckpt = Checkpoint::from_bytes(&bytes).expect("bytes round-trip");
    assert!(ckpt.dip_count() >= 3);
    let mut oracle = Reliable(inst.chip());
    let resumed = AttackState::resume(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        cfg,
        &ckpt,
        &mut oracle,
    )
    .expect("checkpoint re-validates against the live oracle");
    let resumed_unlock = match resumed.run(&mut oracle) {
        RobustOutcome::Unlocked { unlock, .. } => unlock,
        RobustOutcome::Partial(report) => panic!("resumed run degraded: {}", report.reason),
    };
    assert!(
        inst.same_class(&resumed_unlock.seed, &reference_seed, 2),
        "resume must land in the reference run's class"
    );
    assert!(resumed_unlock.verified);
}

/// Kill/resume with a *faulty* oracle on both sides of the kill: the
/// checkpoint re-validation itself runs through retry + voting.
#[test]
fn resume_through_a_faulty_oracle_still_converges() {
    let inst = instance(16, 6, 0xD00D);
    let cfg = RobustConfig {
        replication: 3,
        ..RobustConfig::default()
    };
    let fault_schedule = |seed: u64| {
        FaultSpec::new(seed)
            .with_bit_flips(1_000)
            .with_transients(20_000)
    };

    let mut oracle = FaultyOracle::new(inst.chip(), fault_schedule(0x111));
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    while state.dip_count() < 1 && !state.is_terminal() {
        match state.step(&mut oracle) {
            Step::Dip | Step::OutOfBudget => {}
            Step::Converged => break,
            Step::Degraded(reason) => panic!("pre-kill run degraded: {reason}"),
        }
    }
    let bytes = state.checkpoint().to_bytes();
    drop(state);

    // The "restarted process" reconnects to the bench with a *different*
    // noise future (fresh fault seed) — re-validation must vote through it.
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    let mut oracle = FaultyOracle::new(inst.chip(), fault_schedule(0x222));
    let resumed = AttackState::resume(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        cfg,
        &ckpt,
        &mut oracle,
    )
    .expect("voting repairs fresh noise during re-validation");
    match resumed.run(&mut oracle) {
        RobustOutcome::Unlocked { unlock, .. } => {
            assert!(unlock.verified);
            assert!(inst.same_class(&unlock.seed, &inst.secret, 1));
        }
        RobustOutcome::Partial(report) => panic!("resumed run degraded: {}", report.reason),
    }
}

/// Resuming against the wrong chip must be caught by re-validation, not
/// produce a Frankenstein attack state.
#[test]
fn resume_rejects_a_different_chip() {
    let inst = instance(16, 6, 0xE11E);
    let cfg = RobustConfig::strict(AttackConfig::default());
    let mut oracle = Reliable(inst.chip());
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    while state.dip_count() < 1 {
        match state.step(&mut oracle) {
            Step::Dip => {}
            Step::Converged => return, // nothing recorded to disagree on
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();

    // Same instance description, different secret behind the bench.
    let mut rng = Xoshiro256::new(0xBAD);
    let other_secret = inst.spec.random_seed(&mut rng);
    assert_ne!(other_secret, inst.secret);
    let mut wrong = Reliable(LockedScanChip::new(
        &inst.circuit,
        inst.chain.clone(),
        inst.spec.clone(),
        other_secret,
    ));
    let err = AttackState::resume(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        cfg,
        &ckpt,
        &mut wrong,
    )
    .expect_err("a different secret must fail re-validation");
    assert!(matches!(err, CheckpointError::OracleMismatch { .. }));
}

/// A well-formed checkpoint whose recorded vectors or shape do not fit
/// the instance is rejected before any oracle query: the instance hash
/// covers neither, and the file is not trusted.
#[test]
fn resume_rejects_tampered_vector_lengths() {
    let inst = instance(16, 6, 0xE11E);
    let cfg = RobustConfig::strict(AttackConfig::default());
    let mut oracle = Reliable(inst.chip());
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    while state.dip_count() < 1 {
        match state.step(&mut oracle) {
            Step::Dip => {}
            Step::Converged => return, // nothing recorded to tamper with
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    let text = String::from_utf8(state.checkpoint().to_bytes()).unwrap();
    let cells = inst.chain.len();
    // Drop the first bit of the first DIP's pattern.
    let at = text.find("\ndip ").expect("one DIP recorded") + "\ndip ".len();
    let truncated_dip = format!("{}{}", &text[..at], &text[at + 1..]);
    let wrong_shape = text.replacen(
        &format!("cells {cells} "),
        &format!("cells {} ", cells + 1),
        1,
    );
    for tampered in [truncated_dip, wrong_shape] {
        assert_ne!(tampered, text, "the tamper must change the file");
        let ckpt = Checkpoint::from_bytes(tampered.as_bytes()).expect("still well-formed");
        let mut untouched = FaultyOracle::new(inst.chip(), FaultSpec::new(1));
        let err = AttackState::resume(
            &inst.circuit,
            &inst.chain,
            &inst.spec,
            cfg.clone(),
            &ckpt,
            &mut untouched,
        )
        .expect_err("a tampered length must be rejected");
        assert_eq!(err, CheckpointError::Inconsistent);
        assert_eq!(untouched.stats().queries, 0, "rejected before any query");
    }
}

/// The checkpoint of `inst` attacked under `cfg` until it converges.
fn converged_checkpoint(inst: &Instance, cfg: &RobustConfig) -> String {
    let mut oracle = Reliable(inst.chip());
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    loop {
        match state.step(&mut oracle) {
            Step::Dip => {}
            Step::Converged => break,
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    String::from_utf8(state.checkpoint().to_bytes()).unwrap()
}

/// The strict attack without verification probes, so a converged
/// checkpoint's seed is trusted as recorded unless resume checks it.
fn unprobed() -> RobustConfig {
    RobustConfig::strict(AttackConfig {
        verify_queries: 0,
        ..AttackConfig::default()
    })
}

/// A converged checkpoint whose recorded seed is not the one its recorded
/// free mask bits map to is rejected: resume would otherwise hand back
/// (and, without verification probes, report) a seed the masks do not
/// support.
#[test]
fn resume_rejects_a_tampered_converged_seed() {
    let inst = instance(8, 5, 3);
    let cfg = unprobed();
    let mut oracle = Reliable(inst.chip());
    let text = converged_checkpoint(&inst, &cfg);
    // Flip the first bit of the recorded seed.
    let at = text
        .find("\nseed ")
        .expect("a converged checkpoint records its seed")
        + "\nseed ".len();
    let flipped = if &text[at..=at] == "0" { "1" } else { "0" };
    let tampered = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);

    let resume = |text: &str, oracle: &mut Reliable<LockedScanChip<'_>>| {
        let ckpt = Checkpoint::from_bytes(text.as_bytes()).expect("well-formed");
        AttackState::resume(
            &inst.circuit,
            &inst.chain,
            &inst.spec,
            cfg.clone(),
            &ckpt,
            oracle,
        )
        .map(|_| ())
    };
    assert_eq!(
        resume(&text, &mut oracle),
        Ok(()),
        "the untouched file resumes"
    );
    assert_eq!(
        resume(&tampered, &mut oracle),
        Err(CheckpointError::Inconsistent)
    );
}

/// A converged checkpoint must record one free bit per dimension of the
/// rebuilt mask basis; one short is rejected before any oracle query.
#[test]
fn resume_rejects_a_converged_checkpoint_missing_a_free_bit() {
    let inst = instance(8, 5, 3);
    let cfg = unprobed();
    let text = converged_checkpoint(&inst, &cfg);
    let at = text
        .find("\nfree ")
        .expect("a converged checkpoint records its free bits")
        + "\nfree ".len();
    let free_bits = text[at..].lines().next().unwrap();
    assert!(free_bits.len() > 1, "free bits {free_bits:?}: one can go");
    let tampered = format!("{}{}", &text[..at], &text[at + 1..]);

    let ckpt = Checkpoint::from_bytes(tampered.as_bytes()).expect("still well-formed");
    let mut untouched = FaultyOracle::new(inst.chip(), FaultSpec::new(1));
    let err = AttackState::resume(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        cfg,
        &ckpt,
        &mut untouched,
    )
    .expect_err("a short free vector must be rejected");
    assert_eq!(err, CheckpointError::Inconsistent);
    assert_eq!(untouched.stats().queries, 0, "rejected before any query");
}

/// Checkpoint bytes must survive an exact serialize → parse → serialize
/// round trip (the format is the contract, not the in-memory struct). A
/// checkpoint records only what the oracle said, so a certifying run's is
/// byte for byte the same as a non-certifying run's.
#[test]
fn checkpoint_bytes_are_stable_under_reserialization() {
    for seed in [0xF00F, 0xE11E, 0xD00D, 0x63] {
        let inst = instance(16, 6, seed);
        let bytes = [false, true].map(|certify| {
            let cfg = RobustConfig::strict(AttackConfig {
                certify,
                ..AttackConfig::default()
            });
            let mut oracle = Reliable(inst.chip());
            let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg);
            for _ in 0..3 {
                if matches!(state.step(&mut oracle), Step::Converged) {
                    break;
                }
            }
            let bytes = state.checkpoint().to_bytes();
            let reparsed = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(reparsed.to_bytes(), bytes, "canonical form is a fixpoint");
            bytes
        });
        assert_eq!(
            bytes[0], bytes[1],
            "lock {seed:#x}: certify leaves no trace"
        );
    }
}

/// The strict attack with certification on.
fn certified() -> RobustConfig {
    RobustConfig::strict(AttackConfig {
        certify: true,
        ..AttackConfig::default()
    })
}

/// The checkpoint text of a fresh attack on `inst` under `cfg`, taken
/// once it has recorded `dips` DIPs.
fn checkpoint_after(inst: &Instance, cfg: &RobustConfig, dips: usize) -> String {
    let mut oracle = Reliable(inst.chip());
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
    while state.dip_count() < dips {
        match state.step(&mut oracle) {
            Step::Dip => {}
            other => panic!("unexpected step outcome before DIP {dips}: {other:?}"),
        }
    }
    String::from_utf8(state.checkpoint().to_bytes()).unwrap()
}

/// Parses checkpoint `text` and resumes it against `oracle`.
fn resume_text<'a>(
    inst: &'a Instance,
    cfg: &RobustConfig,
    text: &str,
    oracle: &mut Reliable<LockedScanChip<'_>>,
) -> AttackState<'a> {
    let ckpt = Checkpoint::from_bytes(text.as_bytes()).expect("well-formed");
    AttackState::resume(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        cfg.clone(),
        &ckpt,
        oracle,
    )
    .expect("the checkpoint re-validates")
}

/// The certificate of a run that finished.
fn certificate_of(outcome: RobustOutcome) -> proofcheck::Certificate {
    match outcome {
        RobustOutcome::Unlocked { unlock, .. } => {
            unlock.certificate.expect("certification was requested")
        }
        RobustOutcome::Partial(report) => panic!("run degraded: {}", report.reason),
    }
}

/// A certified attack taken through two checkpoint round trips converges
/// with a certificate over exactly the inputs of the uninterrupted run,
/// and the certificate re-checks.
///
/// The first checkpoint is taken after the uninterrupted run's last DIP:
/// from there no distinguishing input is left whatever the solver's
/// state, so both runs end with the same DIP constraints and the
/// formulas can be compared whole. The second is taken straight from the
/// resumed machine.
#[test]
fn certified_resume_twice_keeps_the_uninterrupted_formula() {
    let inst = instance(16, 6, 0xF00F);
    let cfg = certified();
    let reference = match AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone())
        .run(&mut Reliable(inst.chip()))
    {
        RobustOutcome::Unlocked { unlock, .. } => unlock,
        RobustOutcome::Partial(report) => panic!("reference run degraded: {}", report.reason),
    };
    let dips = reference.dip_iterations;
    assert!(dips >= 2, "the lock needs DIPs to be worth checkpointing");
    let reference = reference.certificate.expect("certification was requested");

    let first = checkpoint_after(&inst, &cfg, dips);
    let mut oracle = Reliable(inst.chip());
    let resumed = resume_text(&inst, &cfg, &first, &mut oracle);
    let second = String::from_utf8(resumed.checkpoint().to_bytes()).unwrap();
    drop(resumed);

    let resumed = resume_text(&inst, &cfg, &second, &mut oracle);
    let cert = certificate_of(resumed.run(&mut oracle));
    assert_eq!(cert.formula, reference.formula, "same verbatim inputs");
    let report = proofcheck::check_text(&cert.formula, &cert.proof).expect("re-check verifies");
    assert_eq!(report, cert.stats);
    let steps = proofcheck::parse_proof(&cert.proof).unwrap().len() as u64;
    assert_eq!(cert.stats.steps(), steps, "stats count every checked step");
}
