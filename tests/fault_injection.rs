//! Fault-injection round trips: the robust attack machine against
//! deliberately unreliable oracles.
//!
//! The headline acceptance test for the fault-tolerance work: a 64-bit-key
//! attack against a [`FaultyOracle`] with a seeded bit-flip + transient
//! error schedule must recover a full-rank seed equivalent to the secret
//! through retry and majority voting, across a small fixed seed matrix.
//! Alongside it: randomized fault schedules that stress the retry/vote
//! machinery harder, and degraded runs that must report honest partial
//! knowledge instead of fabricating success.

use dynunlock_repro::dynunlock::{
    same_class, AttackConfig, AttackState, Checkpoint, CheckpointError, DegradeReason, RetryPolicy,
    RobustConfig, RobustOutcome, Step,
};
use dynunlock_repro::gf2::{BitVec, Rng64, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::netlist::Circuit;
use dynunlock_repro::satsolver::Budget;
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::{
    FallibleScanAccess, FaultSpec, FaultyOracle, OracleFault, Reliable, ScanAccess, ScanChain,
    ScanResponse,
};

struct Instance {
    circuit: Circuit,
    chain: ScanChain,
    spec: LockSpec,
    secret: BitVec,
}

fn instance(key_width: usize, num_gates: usize, seed: u64) -> Instance {
    instance_on(s208_like(), key_width, num_gates, seed)
}

/// A known-good 64-bit-key instance: the session-mask rows span the full
/// seed space (rank 64 at two captures) and the attack converges fast.
/// Full rank does not make recovery exact: load-mask bits of flops no
/// output observes stay free, so instances 0 and 2 recover seeds that
/// differ from the secret yet lock the chip identically. Each tuple is
/// `(dffs, cgates, kgates, generator_seed, lock_seed)`, found by seeded
/// search; the attack must run with `captures: 2` — the second capture's
/// deeper LFSR rows are what complete the rank.
const GOLDEN_64: &[(usize, usize, usize, u64, u64)] = &[
    (36, 180, 10, 0x1d5f_10f4_27e0_a5be, 0xdc9e_6c1a_231f_e638),
    (34, 180, 12, 0x6ee7_c499_ed45_0964, 0xffb6_99f9_dfe2_8a1f),
    (36, 105, 12, 0xf828_7869_510d_c8b0, 0xc492_04a8_6e69_3984),
];

/// Builds golden instance `i`. The companion [`AttackConfig`] must use
/// two captures (see [`golden_attack_config`]).
fn golden_instance(i: usize) -> Instance {
    let (dffs, cgates, kgates, gseed, lseed) = GOLDEN_64[i];
    let circuit = GeneratorConfig::new("wide", 6, 4, dffs, cgates)
        .with_seed(gseed)
        .generate();
    let mut rng = Xoshiro256::new(lseed);
    let taps = TapSet::maximal(64).unwrap();
    let spec = LockSpec::random(taps, circuit.num_dffs(), kgates, &mut rng);
    let secret = spec.random_seed(&mut rng);
    Instance {
        chain: ScanChain::natural(circuit.num_dffs()),
        circuit,
        spec,
        secret,
    }
}

fn golden_attack_config() -> AttackConfig {
    AttackConfig {
        captures: 2,
        ..AttackConfig::default()
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

    /// The recovery promise: `seed` locks the chip as the secret does at
    /// the attacked capture count.
    fn same_class(&self, seed: &BitVec, captures: usize) -> bool {
        same_class(
            &self.circuit,
            &self.chain,
            &self.spec,
            seed,
            &self.secret,
            captures,
            1000,
        )
    }
}

/// The acceptance scenario: 64-bit key, fixed bit-flip + transient
/// schedule, a full-rank seed in the secret's class back — over a matrix
/// of instance and fault seeds.
/// Debug builds (≈30× slower per solve) run the first matrix entry; the
/// CI robustness job runs the full matrix in release.
#[test]
fn recovers_exact_64_bit_seed_through_seeded_faults() {
    let matrix_len = if cfg!(debug_assertions) {
        1
    } else {
        GOLDEN_64.len()
    };
    for (i, fault_seed) in [0x10u64, 0x20, 0x30]
        .into_iter()
        .enumerate()
        .take(matrix_len)
    {
        let inst = golden_instance(i);
        let cfg = RobustConfig {
            base: golden_attack_config(),
            replication: 3,
            ..RobustConfig::default()
        };
        let mut oracle = FaultyOracle::new(
            inst.chip(),
            FaultSpec::new(fault_seed)
                .with_bit_flips(2_000)
                .with_transients(30_000),
        );
        let outcome =
            AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg).run(&mut oracle);
        let RobustOutcome::Unlocked { unlock, faults } = outcome else {
            panic!("instance {i} fault seed {fault_seed:#x}: attack must survive this schedule");
        };
        assert_eq!(
            unlock.nullity, 0,
            "golden instances span the full 64-bit seed space"
        );
        assert!(
            inst.same_class(&unlock.seed, 2),
            "instance {i} fault seed {fault_seed:#x}: seed must lock the chip as the secret does"
        );
        // The schedule is hot enough that the machinery demonstrably ran.
        assert!(
            faults.retries > 0 || faults.repaired_bits > 0 || oracle.stats().transient_faults == 0,
            "fault handling must be exercised (or the schedule fired nothing)"
        );
    }
}

/// Randomized fault schedules: sweep rates drawn from an RNG and require
/// every run to end in a *sound* state — either verified-exact or honestly
/// degraded, never a wrong seed.
#[test]
fn randomized_fault_schedules_never_yield_a_wrong_verified_seed() {
    let mut rng = Xoshiro256::new(0x5CED);
    let mut unlocked = 0u32;
    for round in 0..8 {
        let inst = instance(16, 6, 0x900 + round);
        let bit_flips = (rng.gen_range(8) * 1_000) as u32;
        let transients = (rng.gen_range(10) * 10_000) as u32;
        // Sessions dropped mid-shift fail like transient errors, so their
        // rate adds to the transient one.
        let drops = (rng.gen_range(4) * 5_000) as u32;
        let cfg = RobustConfig {
            replication: 3,
            retry: RetryPolicy { max_retries: 6 },
            ..RobustConfig::default()
        };
        let mut oracle = FaultyOracle::new(
            inst.chip(),
            FaultSpec::new(rng.next_u64())
                .with_bit_flips(bit_flips)
                .with_transients(transients + drops),
        );
        match AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg).run(&mut oracle) {
            RobustOutcome::Unlocked { unlock, .. } => {
                // Verification ran against the (faulty) oracle and passed:
                // the seed must lock the chip as the secret does.
                assert!(
                    inst.same_class(&unlock.seed, 1),
                    "round {round}: verified ≠ wrong"
                );
                unlocked += 1;
            }
            RobustOutcome::Partial(report) => {
                // Degradation must be honest: a real reason, a full
                // confidence vector, and rank consistent with nullity.
                assert_eq!(report.bit_confidence.len(), inst.spec.width());
                assert_eq!(report.rank + report.nullity, inst.spec.width());
            }
        }
    }
    assert!(
        unlocked >= 4,
        "only {unlocked}/8 runs unlocked; schedules are tuned so most survive"
    );
}

/// A fully dead oracle: every query faults, so the attack must degrade
/// with [`DegradeReason::OracleUnavailable`] after the configured retries
/// and report them.
#[test]
fn dead_oracle_degrades_with_retry_accounting() {
    let inst = instance(12, 5, 0x41);
    let cfg = RobustConfig {
        retry: RetryPolicy { max_retries: 3 },
        ..RobustConfig::default()
    };
    let mut dead = FaultyOracle::new(inst.chip(), FaultSpec::new(7).with_transients(1_000_000));
    let outcome = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg).run(&mut dead);
    let RobustOutcome::Partial(report) = outcome else {
        panic!("a dead oracle cannot unlock anything");
    };
    assert_eq!(
        report.reason,
        DegradeReason::OracleUnavailable { retries: 3 }
    );
    assert_eq!(report.faults.retries, 3, "one allowance, fully spent");
    assert_eq!(report.dip_iterations, 0);
}

/// Budget exhaustion mid-loop: the partial report must grade every seed
/// bit and expose the solver's budget accounting.
#[test]
fn budget_exhaustion_reports_partial_confidence() {
    let inst = instance(16, 8, 0x52);
    let cfg = RobustConfig {
        solve_budget: Budget::new().with_conflicts(0),
        max_budget_exhaustions: 1,
        ..RobustConfig::default()
    };
    let mut oracle = FaultyOracle::new(inst.chip(), FaultSpec::new(1));
    let outcome = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg).run(&mut oracle);
    let RobustOutcome::Partial(report) = outcome else {
        panic!("a starved budget cannot converge");
    };
    assert!(matches!(
        report.reason,
        DegradeReason::BudgetExhausted { .. }
    ));
    assert!(report.solver_stats.budget_exhaustions >= 2);
    assert_eq!(report.bit_confidence.len(), 16);
    assert!(report
        .bit_confidence
        .iter()
        .all(|c| (0.5..=1.0).contains(c)));
    // Nothing converged, so no bit may claim linear-phase certainty.
    assert!(report.bit_confidence.iter().all(|&c| c < 1.0));
}

/// Replication actually repairs: under pure bit-flip noise (no transients)
/// a replication-3 attack succeeds and counts repaired bits, while the
/// same schedule with replication 1 must never verify a wrong seed.
#[test]
fn majority_vote_repairs_what_single_queries_cannot() {
    let inst = instance(16, 6, 0x63);
    let noisy_spec = FaultSpec::new(0xBEEF).with_bit_flips(5_000);

    let voted_cfg = RobustConfig {
        replication: 3,
        ..RobustConfig::default()
    };
    let mut voted_oracle = FaultyOracle::new(inst.chip(), noisy_spec);
    let outcome =
        AttackState::new(&inst.circuit, &inst.chain, &inst.spec, voted_cfg).run(&mut voted_oracle);
    let RobustOutcome::Unlocked { unlock, faults } = outcome else {
        panic!("replication 3 must survive 0.5% bit flips");
    };
    assert!(inst.same_class(&unlock.seed, 1));
    assert!(
        faults.repaired_bits > 0 || voted_oracle.stats().flipped_bits == 0,
        "flips injected must surface as repairs"
    );

    // Unvoted: the same noise feeds straight into the model. Whatever
    // happens — degradation or a lucky unlock — a *verified* result still
    // implies a seed in the secret's class (verification re-queries).
    let single_cfg = RobustConfig::default();
    let mut single_oracle = FaultyOracle::new(inst.chip(), noisy_spec);
    if let RobustOutcome::Unlocked { unlock, .. } =
        AttackState::new(&inst.circuit, &inst.chain, &inst.spec, single_cfg).run(&mut single_oracle)
    {
        assert!(inst.same_class(&unlock.seed, 1), "verified implies correct");
    }
}

/// An oracle whose every `period`-th answer comes back one bit short, on
/// the scan-out or on the primary outputs: a bench that drops a bit of
/// the unload or of the PO capture.
struct Truncating<O> {
    inner: O,
    period: u64,
    scan_out: bool,
    answered: u64,
}

impl<O: ScanAccess> FallibleScanAccess for Truncating<O> {
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
        let mut resp = self.inner.query_captures(pattern, pis, captures);
        self.answered += 1;
        if self.answered.is_multiple_of(self.period) {
            if self.scan_out {
                resp.scan_out.pop();
            } else {
                resp.po.pop();
            }
        }
        Ok(resp)
    }
}

/// A response of the wrong length is never voted on or constrained: the
/// attack degrades as inconsistent, and a resume re-validating against
/// such an oracle is refused, at replication 1 and 3 — never a panic, and
/// never a model constrained on a prefix of the response.
#[test]
fn short_oracle_responses_degrade_instead_of_panicking() {
    let inst = instance(16, 6, 0x74);
    assert!(
        !inst.circuit.outputs().is_empty(),
        "the PO port can lose a bit"
    );
    for replication in [1, 3] {
        let cfg = RobustConfig {
            replication,
            ..RobustConfig::default()
        };
        for scan_out in [true, false] {
            let why = format!("replication {replication}, scan-out {scan_out}");
            // Every third answer is short: at replication 3 the first
            // vote's last replica, at replication 1 the third query.
            let mut oracle = Truncating {
                inner: inst.chip(),
                period: 3,
                scan_out,
                answered: 0,
            };
            let outcome = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone())
                .run(&mut oracle);
            let RobustOutcome::Partial(report) = outcome else {
                panic!("{why}: a short answer must not unlock");
            };
            assert_eq!(report.reason, DegradeReason::Inconsistent, "{why}");

            // A checkpoint taken against the true chip, resumed against a
            // bench whose every answer is short.
            let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, cfg.clone());
            let mut chip = Reliable(inst.chip());
            while state.dip_count() < 1 {
                assert!(matches!(state.step(&mut chip), Step::Dip), "{why}");
            }
            let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();
            let mut short = Truncating {
                inner: inst.chip(),
                period: 1,
                scan_out,
                answered: 0,
            };
            let err = AttackState::resume(
                &inst.circuit,
                &inst.chain,
                &inst.spec,
                cfg.clone(),
                &ckpt,
                &mut short,
            )
            .expect_err("a short re-validation answer must be refused");
            assert_eq!(err, CheckpointError::OracleMismatch { dip: 0 }, "{why}");
        }
    }
}
