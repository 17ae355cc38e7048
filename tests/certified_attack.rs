//! End-to-end certified solving: a full 64-bit-key attack under the
//! native xor mode must converge with a machine-checked UNSAT
//! certificate, the certificate must re-verify standalone, and corrupted
//! proofs must be rejected.

use dynunlock_repro::dynunlock::{unlock, AttackConfig};
use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::proofcheck::{self, CheckError};
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::ScanChain;

fn certified_64_bit_unlock() -> proofcheck::Certificate {
    let circuit = s208_like();
    let chain = ScanChain::natural(8);
    let mut rng = Xoshiro256::new(0xCE27);
    let taps = TapSet::maximal(64).unwrap();
    let spec = LockSpec::random(taps, chain.len(), 6, &mut rng);
    let secret = spec.random_seed(&mut rng);
    let mut oracle = LockedScanChip::new(&circuit, chain.clone(), spec.clone(), secret);
    let cfg = AttackConfig {
        certify: true,
        ..AttackConfig::default()
    };
    let u = unlock(&circuit, &chain, &spec, &mut oracle, &cfg).expect("attack converges");
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
    assert_eq!(report, cert.report);
    assert!(
        report.xor_steps > 0,
        "a native-xor 64-bit attack must lean on x-steps"
    );
    assert_eq!(cert.stats.xor_steps, report.xor_steps);

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
        assert_eq!(report, cert.report, "round {round}");
    }
}
