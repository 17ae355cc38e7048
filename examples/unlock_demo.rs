//! End-to-end DynUnlock demo: lock a circuit with EFF-Dyn, hand the
//! attacker nothing but scan-test access, and watch the seed come back.
//!
//! The script follows the paper's attack flow:
//!
//! 1. build a circuit and lock its scan chain (a 64-bit key LFSR + XOR
//!    key gates — the paper's headline key size);
//! 2. run the SAT-based DIP loop against the locked chip as a black-box
//!    oracle until no distinguishing input pattern remains (each session
//!    mask bit is one native GF(2) xor constraint in the solver, which is
//!    why a 64-bit key is no harder than an 8-bit one here);
//! 3. recover the seed by Gaussian elimination over the session masks;
//! 4. confirm the unlocked model reproduces the real chip bit-for-bit.
//!
//! Run with: `cargo run --release --example unlock_demo`

use dynunlock_repro::dynunlock::{unlock, AttackConfig};
use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::profiles::by_name;
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::{ScanAccess, ScanChain};

fn main() {
    // 1. The design: a scaled s5378-profile circuit with a shuffled scan
    //    stitching, locked with a 64-bit key LFSR — the paper's headline
    //    key size — driving key gates on half the chain segments. The
    //    session-mask parities land in the solver's native GF(2) engine,
    //    so the width costs the attack almost nothing.
    let profile = by_name("s5378").expect("paper profile").scaled(0.07);
    let circuit = profile.build(3);
    let n = circuit.num_dffs();
    let mut rng = Xoshiro256::new(0x5EED);
    let chain = ScanChain::shuffled(n, &mut rng);
    let taps = TapSet::maximal(64).expect("tabulated width");
    let spec = LockSpec::random(taps, n, n / 2, &mut rng);
    let secret = spec.random_seed(&mut rng);
    println!(
        "locked {}: {} flops, {} gates, {}-bit key, {} key gates",
        profile.name,
        n,
        circuit.num_gates(),
        spec.width(),
        spec.gates().len()
    );

    // The foundry's chip. The attacker gets `ScanAccess` to it and the
    // netlist (including the lock structure) — but never `secret`.
    let mut oracle = LockedScanChip::new(&circuit, chain.clone(), spec.clone(), secret.clone());

    // 2.+3. The attack: DIP loop, then linear seed recovery.
    let result = unlock(
        &circuit,
        &chain,
        &spec,
        &mut oracle,
        &AttackConfig::default(),
    )
    .expect("DynUnlock converges");
    println!(
        "unlocked in {} DIP iterations, {} oracle queries, solver time {:?}",
        result.dip_iterations, result.oracle_queries, result.solve_time
    );
    println!("  mask system rank {}/{}", result.rank, spec.width());
    println!("  secret:    {secret}");
    println!("  recovered: {}", result.seed);
    if result.seed == secret {
        println!("  recovered the secret exactly");
    } else {
        println!(
            "  (recovered a functionally equivalent seed; 2^{} seeds mask identically)",
            result.nullity
        );
    }

    // 4. Independent check: a chip re-locked with the recovered seed is
    //    indistinguishable from the real one. With the seed in hand the
    //    mask is known, so the attacker can load and read arbitrary scan
    //    states — the lock is broken.
    let mut relocked = LockedScanChip::new(&circuit, chain, spec, result.seed);
    let probes = 64;
    for _ in 0..probes {
        let pattern: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
        let pis: Vec<bool> = (0..circuit.inputs().len())
            .map(|_| rng.gen_bool())
            .collect();
        assert_eq!(
            relocked.query(&pattern, &pis),
            oracle.query(&pattern, &pis),
            "recovered seed must reproduce the oracle"
        );
    }
    println!("verified on {probes} random scan sessions");
    println!("ok");
}
