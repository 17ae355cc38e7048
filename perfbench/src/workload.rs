//! The three workloads and the locked instances they attack.
//!
//! Instances are built exactly the way `duharness` builds its rows
//! (`BenchmarkProfile::scaled(..).build(variant)`, a shuffled chain,
//! `TapSet::for_width`, `LockSpec::random` with gate fraction 0.5, one
//! capture), so a benchmark instance with variant `v` at `f` flops is the
//! lock a `duharness` row with `variant = v` and `scale = f / scan_flops`
//! attacks, except that on `cliff` the secret comes from the seed instead
//! of the variant, and the variants are the same for every seed.

use std::time::{Duration, Instant};

use dynunlock::{AttackConfig, RetryPolicy, RobustConfig};
use gf2::{BitVec, Rng64, SplitMix64, Xoshiro256};
use lfsr::TapSet;
use netlist::profiles::{by_name, BenchmarkProfile, PAPER_BENCHMARKS};
use netlist::Circuit;
use satsolver::Budget;
use scanlock::{LockSpec, LockedScanChip};
use sim::{FaultSpec, ScanChain};

/// Conflict budget for every SAT call on `cliff`. At the seed commit nearly
/// every 16-flop lock, most 24-flop locks and about a third of the 32-flop
/// locks prove convergence inside it, and the 40-flop locks run out. It is
/// this low because a lock that runs out costs the whole budget and one
/// that finishes much less, so the budget sets how far `unlock_s` moves
/// with the locks a seed draws (README.md, "Why the cliff budget").
pub const CLIFF_CONFLICTS: u64 = 4_000;
/// Draws the `cliff` circuits and key-gate placements, which are the same
/// for every seed; the seed draws their secrets.
const CLIFF_CIRCUITS: u64 = 0x00C1_1FF0;
/// Conflict budget for every SAT call on `sweep` and `assured`: a cap on
/// the heavy tail of convergence proofs (and of the certificates behind
/// them), which about one attack in a hundred hits at the seed commit.
pub const TAIL_CONFLICTS: u64 = 2_000;

/// Per-bit flip rate of the `assured` oracle, parts per million. With
/// three-way voting a bit is mis-elected with probability ~3e-8, so no
/// attack degrades from noise in practice.
const ASSURED_FLIP_PPM: u32 = 100;
/// Per-session transient-error rate of the `assured` oracle, ppm.
const ASSURED_TRANSIENT_PPM: u32 = 20_000;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few big attacks where the convergence proof dominates.
    Cliff,
    /// Many short attacks over all ten Table II profiles.
    Sweep,
    /// Noisy oracle, voting, checkpoint round trip, certification.
    Assured,
}

/// Instance sizes: the benchmark proper, or a tiny variant for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Debug-build sizes that exercise every code path in seconds.
    Tiny,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Cliff, Workload::Sweep, Workload::Assured];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cliff => "cliff",
            Workload::Sweep => "sweep",
            Workload::Assured => "assured",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The attacks this workload runs for `seed`: the same seed always
    /// gives the same plan.
    pub fn plan(self, seed: u64, size: Size) -> Plan {
        let mut variants = SplitMix64::new(seed ^ 0x005E_ED0F_BE7C);
        let mut next = || variants.next_u64() >> 1;
        let tiny = size == Size::Tiny;
        let s5378 = profile("s5378");
        let mut instances = Vec::new();
        match self {
            Workload::Cliff => {
                // (flops, locks): a pass short enough to repeat four times
                // or more in a run, since each attack's time is its fastest
                // pass. The 16-flop locks nearly always finish; they steady
                // `unlocked_frac`, which the 24- and 32-flop locks, each a
                // coin toss at this budget, make swing with the seed.
                let (sizes, width): (&[(usize, usize)], usize) = if tiny {
                    (&[(8, 1), (10, 1)], 32)
                } else {
                    (&[(16, 30), (24, 22), (32, 9), (40, 5)], 64)
                };
                // Fixed circuits and placements, as the paper attacks fixed
                // benchmark circuits under random keys: which circuits a
                // seed drew moved a pass's solver conflicts by 0.066 of
                // themselves from seed to seed, which keys by 0.018.
                let mut circuits = SplitMix64::new(CLIFF_CIRCUITS);
                for &(flops, count) in sizes {
                    for _ in 0..count {
                        let variant = circuits.next_u64() >> 1;
                        instances.push(InstanceSpec {
                            key_seed: Some(next()),
                            ..InstanceSpec::new(s5378, flops, width, variant)
                        });
                    }
                }
            }
            Workload::Sweep => {
                let (profiles, per_profile, widths): (&[BenchmarkProfile], usize, [usize; 2]) =
                    if tiny {
                        (&PAPER_BENCHMARKS[..3], 1, [32, 64])
                    } else {
                        (&PAPER_BENCHMARKS, 48, [64, 128])
                    };
                for (i, p) in profiles.iter().enumerate() {
                    for j in 0..per_profile {
                        let flops = if tiny { 6 } else { 10 + (i + j) % 3 };
                        let width = widths[(i + j) % 2];
                        instances.push(InstanceSpec::new(p, flops, width, next()));
                    }
                }
            }
            Workload::Assured => {
                let (names, sizes, per_size, width): (&[&str], &[usize], usize, usize) = if tiny {
                    (&["s5378"], &[8], 1, 32)
                } else {
                    (&["s5378", "b20"], &[10, 12], 64, 64)
                };
                for &name in names {
                    for &flops in sizes {
                        for _ in 0..per_size {
                            instances.push(InstanceSpec::new(profile(name), flops, width, next()));
                        }
                    }
                }
            }
        }

        let base = AttackConfig {
            captures: 1,
            certify: self == Workload::Assured,
            ..AttackConfig::default()
        };
        let conflicts = if self == Workload::Cliff {
            CLIFF_CONFLICTS
        } else {
            TAIL_CONFLICTS
        };
        let strict = RobustConfig {
            solve_budget: Budget::new().with_conflicts(conflicts),
            max_budget_exhaustions: 0,
            ..RobustConfig::strict(base)
        };
        let robust = if self == Workload::Assured {
            RobustConfig {
                replication: 3,
                retry: RetryPolicy::default(),
                ..strict
            }
        } else {
            strict
        };
        Plan {
            workload: self,
            instances,
            robust,
        }
    }
}

fn profile(name: &str) -> &'static BenchmarkProfile {
    by_name(name).expect("a Table II profile name")
}

/// One lock to build: a profile scaled to `flops`, a key width, and the
/// variant seed that draws the netlist and the lock.
#[derive(Debug, Clone, Copy)]
pub struct InstanceSpec {
    /// The Table II profile.
    pub profile: &'static BenchmarkProfile,
    /// Scan flops after scaling.
    pub flops: usize,
    /// Key-LFSR width.
    pub key_width: usize,
    /// Circuit and lock variant seed (`duharness`'s `variant`).
    pub variant: u64,
    /// Draws the secret in place of the variant's own stream, when set.
    pub key_seed: Option<u64>,
}

impl InstanceSpec {
    fn new(
        profile: &'static BenchmarkProfile,
        flops: usize,
        key_width: usize,
        variant: u64,
    ) -> Self {
        InstanceSpec {
            profile,
            flops,
            key_width,
            variant,
            key_seed: None,
        }
    }

    /// `name/flops/wkey#variant`, for diagnostics.
    pub fn label(&self) -> String {
        format!(
            "{}/{}ff/w{}#{:x}",
            self.profile.name, self.flops, self.key_width, self.variant
        )
    }
}

/// What a workload runs: its instances and how each is attacked.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The locks, attacked in this order every pass.
    pub instances: Vec<InstanceSpec>,
    /// Attack configuration shared by every instance.
    pub robust: RobustConfig,
}

impl Plan {
    /// The fault schedule for instance `spec` (`assured` only); seeded
    /// from the variant so it is decorrelated from the lock drawing.
    pub fn fault_spec(&self, spec: &InstanceSpec) -> FaultSpec {
        FaultSpec::new(spec.variant ^ 0xFA07_5EED)
            .with_bit_flips(ASSURED_FLIP_PPM)
            .with_transients(ASSURED_TRANSIENT_PPM)
    }
}

/// A generated lock: the circuit, its scan chain, the EFF-Dyn spec and the
/// secret seed the oracle chip holds.
#[derive(Debug, Clone)]
pub struct Locked {
    /// What was built.
    pub spec: InstanceSpec,
    /// The synthesized netlist.
    pub circuit: Circuit,
    /// Scan stitching.
    pub chain: ScanChain,
    /// Key-gate placement and LFSR taps.
    pub lock: LockSpec,
    /// The secret key-LFSR seed.
    pub secret: BitVec,
}

impl Locked {
    /// The oracle chip: the locked circuit holding the true secret.
    pub fn chip(&self) -> LockedScanChip<'_> {
        LockedScanChip::new(
            &self.circuit,
            self.chain.clone(),
            self.lock.clone(),
            self.secret.clone(),
        )
    }
}

/// Wall time of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// Netlist synthesis (`BenchmarkProfile::build`).
    pub generate: Duration,
    /// Chain shuffle, tap search, lock and secret drawing, and oracle chip
    /// construction.
    pub lock: Duration,
}

impl SetupTime {
    /// Whole set-up time.
    pub fn total(&self) -> Duration {
        self.generate + self.lock
    }
}

/// Builds every lock of the plan, timing synthesis and locking apart.
/// Chip construction is timed under `lock`; the chips are dropped, and the
/// attack builds its own from the returned locks.
pub fn build_all(plan: &Plan) -> (Vec<Locked>, SetupTime) {
    let mut time = SetupTime::default();
    let locks = plan
        .instances
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let scale = spec.flops as f64 / spec.profile.scan_flops as f64;
            let circuit = spec.profile.scaled(scale).build(spec.variant);
            let t1 = Instant::now();
            let n = circuit.num_dffs();
            let mut rng =
                Xoshiro256::new(spec.variant.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n as u64));
            let chain = ScanChain::shuffled(n, &mut rng);
            // A session is 2n + 1 edges; the key schedule must not wrap in it.
            let taps = TapSet::for_width(spec.key_width, (2 * n + 1) as u64, &mut rng)
                .expect("a usable tap set exists for every benchmark key width");
            let num_gates = ((n as f64 * 0.5) as usize).clamp(2, n);
            let lock = LockSpec::random(taps, n, num_gates, &mut rng);
            let secret = match spec.key_seed {
                Some(k) => lock.random_seed(&mut Xoshiro256::new(k)),
                None => lock.random_seed(&mut rng),
            };
            let locked = Locked {
                spec: *spec,
                circuit,
                chain,
                lock,
                secret,
            };
            std::hint::black_box(locked.chip());
            time.generate += t1 - t0;
            time.lock += t1.elapsed();
            locked
        })
        .collect();
    (locks, time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.plan(7, Size::Full);
            let b = w.plan(7, Size::Full);
            let c = w.plan(8, Size::Full);
            let inputs = |p: &Plan| {
                p.instances
                    .iter()
                    .map(|i| (i.variant, i.key_seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(inputs(&a), inputs(&b));
            assert_ne!(inputs(&a), inputs(&c));
        }
    }

    #[test]
    fn cliff_seeds_share_circuits_and_differ_in_secrets() {
        let build = |seed| build_all(&Workload::Cliff.plan(seed, Size::Tiny)).0;
        for (a, b) in build(1).iter().zip(&build(2)) {
            assert_eq!(a.spec.variant, b.spec.variant);
            assert_eq!(a.lock, b.lock);
            assert_ne!(a.secret, b.secret);
        }
    }

    #[test]
    fn instances_have_the_planned_flop_count() {
        for w in Workload::ALL {
            let plan = w.plan(1, Size::Tiny);
            let (locks, _) = build_all(&plan);
            for l in &locks {
                assert_eq!(l.circuit.num_dffs(), l.spec.flops, "{}", l.spec.label());
                assert_eq!(l.lock.width(), l.spec.key_width);
            }
        }
    }

    #[test]
    fn full_sweep_covers_every_profile_at_both_widths() {
        let plan = Workload::Sweep.plan(3, Size::Full);
        assert_eq!(plan.instances.len(), 480);
        for p in &PAPER_BENCHMARKS {
            let mine: Vec<_> = plan
                .instances
                .iter()
                .filter(|i| i.profile.name == p.name)
                .collect();
            assert!(mine.iter().any(|i| i.key_width == 64));
            assert!(mine.iter().any(|i| i.key_width == 128));
            assert!(mine.iter().all(|i| (10..=12).contains(&i.flops)));
        }
    }
}
