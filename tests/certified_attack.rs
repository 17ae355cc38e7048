//! End-to-end certified solving: a full 64-bit-key attack under the
//! native xor mode must converge with a machine-checked UNSAT
//! certificate, the certificate must re-verify standalone, and corrupted
//! proofs must be rejected.

use dynunlock_repro::dynunlock::{
    unlock, AttackConfig, AttackState, Checkpoint, RobustConfig, RobustOutcome, Step,
};
use dynunlock_repro::gf2::{BitVec, Rng64, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::proofcheck::{self, CheckError};
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::{Reliable, ScanChain};

/// The 64-bit-key lock on the s208-like circuit every test here attacks.
fn lock_64_bit() -> (LockSpec, BitVec) {
    let mut rng = Xoshiro256::new(0xCE27);
    let taps = TapSet::maximal(64).unwrap();
    let spec = LockSpec::random(taps, 8, 6, &mut rng);
    let secret = spec.random_seed(&mut rng);
    (spec, secret)
}

fn certified() -> AttackConfig {
    AttackConfig {
        certify: true,
        ..AttackConfig::default()
    }
}

fn certified_64_bit_unlock() -> proofcheck::Certificate {
    let circuit = s208_like();
    let chain = ScanChain::natural(8);
    let (spec, secret) = lock_64_bit();
    let mut oracle = LockedScanChip::new(&circuit, chain.clone(), spec.clone(), secret);
    let u = unlock(&circuit, &chain, &spec, &mut oracle, &certified()).expect("attack converges");
    assert!(u.verified, "probes must pass");
    u.certificate.expect("certification was requested")
}

#[test]
fn attack_unsat_proof_verifies_and_mutations_are_rejected() {
    let cert = certified_64_bit_unlock();

    // The in-attack check already passed; the certificate must also
    // re-verify standalone from its own formula and proof text, with the
    // same numbers.
    let report = proofcheck::check_text(&cert.formula, &cert.proof).expect("re-check verifies");
    assert_eq!(report, cert.stats);
    assert!(
        report.xor_steps > 0,
        "a native-xor 64-bit attack must lean on x-steps"
    );

    // Mutation 1: corrupt the first proof line into a clause over a
    // variable the formula does not have — rejected at step 0 no matter
    // what the original line was.
    let (_, rest) = cert.proof.split_once('\n').expect("proof is non-empty");
    let corrupted = format!("999999 0\n{rest}");
    let err = proofcheck::check_text(&cert.formula, &corrupted).unwrap_err();
    assert!(matches!(err, CheckError::Step { index: 0, .. }), "{err}");

    // Mutation 2: drop the closing line. The empty clause is always the
    // final step (the logger suppresses everything after the refutation
    // closes), so the truncated proof never derives it.
    let last_line_start = cert.proof.trim_end().rfind('\n').map_or(0, |i| i + 1);
    let truncated = &cert.proof[..last_line_start];
    assert!(proofcheck::check_text(&cert.formula, truncated).is_err());
}

/// Convergence is certified from the verbatim inputs closed by "some
/// output differs": on a spread of small random locks — narrow and wide
/// keys, natural and shuffled chains, one and two captures — every
/// certificate must re-verify standalone.
#[test]
fn certificates_of_random_small_locks_all_verify() {
    let mut rng = Xoshiro256::new(0xCE_2710);
    for round in 0..10u64 {
        let circuit = GeneratorConfig::new("cert", 4, 3, 5 + (round as usize % 4), 40)
            .with_seed(round)
            .generate();
        let n = circuit.num_dffs();
        let chain = if round % 2 == 0 {
            ScanChain::natural(n)
        } else {
            ScanChain::shuffled(n, &mut rng)
        };
        let width = [8, 16, 32][round as usize % 3];
        let spec = LockSpec::random(
            TapSet::maximal(width).unwrap(),
            n,
            1 + rng.gen_index(n),
            &mut rng,
        );
        let secret = spec.random_seed(&mut rng);
        let mut oracle = LockedScanChip::new(&circuit, chain.clone(), spec.clone(), secret);
        let cfg = AttackConfig {
            captures: 1 + round as usize % 2,
            certify: true,
            ..AttackConfig::default()
        };
        let u = unlock(&circuit, &chain, &spec, &mut oracle, &cfg).expect("attack converges");
        let cert = u.certificate.expect("certification was requested");
        let report = proofcheck::check_text(&cert.formula, &cert.proof)
            .unwrap_or_else(|e| panic!("round {round}: certificate rejected: {e}"));
        assert_eq!(report, cert.stats, "round {round}");
    }
}

/// The same attack killed after its first DIP and resumed from checkpoint
/// bytes: the resumed solver replays the recorded DIP into a fresh proof
/// log, and its certificate re-checks against the verbatim inputs.
/// With `CERT_CORPUS_DIR` set, the certificate is also written there as
/// `resumed-attack.cnf` / `resumed-attack.drat` for the standalone
/// `drat-check`.
#[test]
fn resumed_attack_certificate_rechecks() {
    let circuit = s208_like();
    let chain = ScanChain::natural(8);
    let (spec, secret) = lock_64_bit();
    let cfg = RobustConfig::strict(certified());
    let mut oracle = Reliable(LockedScanChip::new(
        &circuit,
        chain.clone(),
        spec.clone(),
        secret,
    ));
    let mut state = AttackState::new(&circuit, &chain, &spec, cfg.clone());
    while state.dip_count() < 1 {
        match state.step(&mut oracle) {
            Step::Dip => {}
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    let bytes = state.checkpoint().to_bytes();
    drop(state);
    let ckpt = Checkpoint::from_bytes(&bytes).expect("bytes round-trip");
    let resumed = AttackState::resume(&circuit, &chain, &spec, cfg, &ckpt, &mut oracle)
        .expect("checkpoint re-validates");
    let cert = match resumed.run(&mut oracle) {
        RobustOutcome::Unlocked { unlock, .. } => {
            unlock.certificate.expect("certification was requested")
        }
        RobustOutcome::Partial(report) => panic!("resumed run degraded: {}", report.reason),
    };
    let report = proofcheck::check_text(&cert.formula, &cert.proof).expect("re-check verifies");
    assert_eq!(report, cert.stats);

    if let Some(dir) = std::env::var_os("CERT_CORPUS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("resumed-attack.cnf"), cert.formula.to_dimacs()).unwrap();
        std::fs::write(dir.join("resumed-attack.drat"), &cert.proof).unwrap();
    }
}
