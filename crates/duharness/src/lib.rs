//! Reproduction harness for the DynUnlock paper tables.
//!
//! The paper's Tables II/III report, per benchmark, how many SAT (DIP)
//! iterations and how much solver time DynUnlock needs to break EFF-Dyn.
//! This crate re-creates that experiment over the synthetic
//! [`netlist::profiles`] circuits: lock each profile with a
//! random EFF-Dyn instance, run [`dynunlock::unlock`] against the locked
//! chip as a black-box [`sim::ScanAccess`] oracle, and tabulate the
//! results. The `dynunlock` bench target prints the table and emits
//! `BENCH_dynunlock.json` (schema in DESIGN.md §5, with DIP-iteration and
//! solve-time metrics per row).
//!
//! Absolute numbers are not comparable to the paper (synthetic circuits,
//! different solver, scaled sizes — see DESIGN.md §6); the *shape* is the
//! reproduced claim: every profile unlocks, in a handful of DIPs, in
//! solver time that stays far below the attack-resilience targets the
//! defense advertised.
//!
//! # Example
//!
//! ```
//! let cfg = duharness::HarnessConfig::tiny();
//! let rows = duharness::run_profiles(&cfg);
//! assert_eq!(rows.len(), cfg.profiles.len());
//! assert!(rows.iter().all(|r| r.unlock.verified));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynunlock::{
    unlock, AttackConfig, AttackState, FaultStats, RobustConfig, RobustOutcome, Step, Unlock,
};
use gf2::{BitVec, Xoshiro256};
use lfsr::TapSet;
use netlist::profiles::{by_name, BenchmarkProfile};
use netlist::Circuit;
use scanlock::{LockSpec, LockedScanChip};
use sim::{FaultSpec, FaultyOracle, ScanChain};

/// What to attack and how hard.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Paper benchmark names to run (must exist in
    /// [`netlist::profiles::PAPER_BENCHMARKS`]).
    pub profiles: Vec<&'static str>,
    /// Interface-size scale factor applied to each profile (the paper's
    /// full sizes are out of reach for a single-thread CDCL reproduction
    /// run on every CI push; DESIGN.md §6 discusses the substitution).
    pub scale: f64,
    /// Key-LFSR width (the paper's *key size*; Table III sweeps this).
    pub key_width: usize,
    /// Extra key widths to sweep: the first profile is re-attacked once
    /// per listed width and reported as `"{name}@w{width}"`. This is how
    /// the harness shows the paper's Table III claim — attack cost grows
    /// mildly with key size — without re-running every profile at every
    /// width.
    pub width_sweep: Vec<usize>,
    /// Key gates per chain, as a fraction of the flop count (≥ 2).
    pub gate_fraction: f64,
    /// Capture cycles per session.
    pub captures: usize,
    /// Use a shuffled (non-natural) scan stitching.
    pub shuffled_chains: bool,
    /// Deterministic variant seed for circuit synthesis and lock drawing.
    pub variant: u64,
    /// Certify each attack's convergence UNSAT with a checked DRAT+xor
    /// proof ([`AttackConfig::certify`]); proof size and check time are
    /// then recorded per row.
    pub certify: bool,
    /// Re-attack each profile through a seeded [`FaultyOracle`] (bit-flip
    /// noise + transient errors) with the fault-tolerant
    /// [`AttackState`] machine, reported as `"{name}+faults"` rows with
    /// `retries` / `repaired_bits` / `checkpoint_bytes` metrics
    /// (`DU_FAULTS=1`).
    pub faults: bool,
}

impl HarnessConfig {
    /// CI smoke sizes: three profiles, small circuits, 64-bit keys with
    /// one 80-bit sweep row.
    pub fn smoke() -> Self {
        HarnessConfig {
            profiles: vec!["s5378", "s13207", "s15850"],
            scale: 0.04,
            key_width: 64,
            width_sweep: vec![80],
            gate_fraction: 0.5,
            captures: 1,
            shuffled_chains: true,
            variant: 1,
            certify: false,
            faults: false,
        }
    }

    /// Full bench sizes: four profiles (both suites), 64-bit keys with a
    /// 32- and 80-bit sweep.
    ///
    /// 64 bits matches the paper's headline key size. The old harness
    /// capped the width at 20 because the solver's resolution-only UNSAT
    /// proof over the mask parities blew up past ~24 bits; the native
    /// GF(2) xor engine removed that cliff, so the sweep now brackets the
    /// paper range from both sides (DESIGN.md §6).
    pub fn full() -> Self {
        HarnessConfig {
            profiles: vec!["s5378", "s13207", "s15850", "b20"],
            scale: 0.07,
            key_width: 64,
            width_sweep: vec![32, 80],
            gate_fraction: 0.5,
            captures: 1,
            shuffled_chains: true,
            variant: 1,
            certify: false,
            faults: false,
        }
    }

    /// Debug-build test sizes: everything clamped tiny.
    pub fn tiny() -> Self {
        HarnessConfig {
            profiles: vec!["s5378", "b20"],
            scale: 0.01,
            key_width: 8,
            width_sweep: vec![],
            gate_fraction: 0.75,
            captures: 1,
            shuffled_chains: true,
            variant: 1,
            certify: false,
            faults: false,
        }
    }

    /// [`smoke`](HarnessConfig::smoke) under `BENCH_SMOKE=1`, otherwise
    /// [`full`](HarnessConfig::full); `DU_CERTIFY=1` switches proof
    /// certification on for every attack in the run; `DU_FAULTS=1` adds
    /// the fault-injected `"{name}+faults"` rows.
    pub fn from_env() -> Self {
        let mut cfg = if bench::smoke() {
            HarnessConfig::smoke()
        } else {
            HarnessConfig::full()
        };
        cfg.certify = std::env::var("DU_CERTIFY").is_ok_and(|v| v == "1");
        cfg.faults = std::env::var("DU_FAULTS").is_ok_and(|v| v == "1");
        cfg
    }
}

/// One row of the reproduced table: the attacked instance and the attack's
/// outcome.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Paper benchmark name.
    pub name: String,
    /// Scan flop count of the attacked (scaled) circuit.
    pub flops: usize,
    /// Combinational gate count of the attacked circuit.
    pub gates: usize,
    /// Key-LFSR width.
    pub key_width: usize,
    /// Number of key gates on the chain.
    pub key_gates: usize,
    /// The attack result.
    pub unlock: Unlock,
    /// Fault-handling counters, for `"{name}+faults"` rows run through
    /// the [`AttackState`] machine against a [`FaultyOracle`].
    pub faults: Option<FaultStats>,
    /// Size of a mid-attack checkpoint taken during the run, for fault
    /// rows (the serialized `duckpt` document, in bytes).
    pub checkpoint_bytes: Option<usize>,
}

/// Locks one (scaled) profile and runs the attack against it.
///
/// # Panics
///
/// Panics if the profile name is unknown or the attack fails — the
/// harness reproduces a table of successes; a failure is a bug, not a
/// data point.
pub fn attack_profile(profile: &BenchmarkProfile, cfg: &HarnessConfig) -> AttackRow {
    let inst = LockedInstance::build(profile, cfg);
    let mut oracle = inst.oracle();
    let attack_cfg = AttackConfig {
        captures: cfg.captures,
        certify: cfg.certify,
        ..AttackConfig::default()
    };
    let unlock = unlock(
        &inst.circuit,
        &inst.chain,
        &inst.spec,
        &mut oracle,
        &attack_cfg,
    )
    .unwrap_or_else(|e| panic!("attack on {} failed: {e}", profile.name));
    inst.row(profile.name.to_string(), unlock, None, None)
}

/// Re-attacks one profile through a seeded [`FaultyOracle`] (bit-flip
/// noise plus transient query errors) with the fault-tolerant
/// [`AttackState`] machine: majority-vote replication repairs the noise,
/// retry + backoff absorbs the transients, and a mid-run checkpoint is
/// taken so the row can report its serialized size.
///
/// # Panics
///
/// Panics if the profile name is unknown or the attack degrades — the
/// configured fault schedule is within what the machine must repair.
pub fn attack_profile_faulty(profile: &BenchmarkProfile, cfg: &HarnessConfig) -> AttackRow {
    let inst = LockedInstance::build(profile, cfg);
    let robust = RobustConfig {
        base: AttackConfig {
            captures: cfg.captures,
            certify: cfg.certify,
            ..AttackConfig::default()
        },
        replication: 3,
        ..RobustConfig::default()
    };
    // Deterministic fault schedule, decorrelated from the lock drawing.
    let fault_seed = cfg.variant ^ (inst.circuit.num_dffs() as u64).rotate_left(17) ^ 0xFA_07;
    let mut oracle = FaultyOracle::new(
        inst.oracle(),
        FaultSpec::new(fault_seed)
            .with_bit_flips(1_000)
            .with_transients(20_000),
    );
    let mut state = AttackState::new(&inst.circuit, &inst.chain, &inst.spec, robust);
    let mut checkpoint_bytes = None;
    loop {
        match state.step(&mut oracle) {
            Step::Dip | Step::OutOfBudget => {
                // One checkpoint per run, once there is real state in it.
                if checkpoint_bytes.is_none() {
                    checkpoint_bytes = Some(state.checkpoint().to_bytes().len());
                }
            }
            Step::Converged => break,
            Step::Degraded(reason) => {
                panic!("fault-mode attack on {} degraded: {reason}", profile.name)
            }
        }
    }
    let checkpoint_bytes = checkpoint_bytes.unwrap_or_else(|| state.checkpoint().to_bytes().len());
    match state.finish(&mut oracle) {
        RobustOutcome::Unlocked { unlock, faults } => inst.row(
            format!("{}+faults", profile.name),
            unlock,
            Some(faults),
            Some(checkpoint_bytes),
        ),
        RobustOutcome::Partial(report) => {
            panic!(
                "fault-mode attack on {} degraded in verification: {}",
                profile.name, report.reason
            )
        }
    }
}

/// One locked instance, built deterministically from a profile and the
/// harness knobs — shared by the reliable and fault-injected attack paths
/// so both attack the *same* lock.
struct LockedInstance {
    circuit: Circuit,
    chain: ScanChain,
    spec: LockSpec,
    secret: BitVec,
}

impl LockedInstance {
    fn build(profile: &BenchmarkProfile, cfg: &HarnessConfig) -> LockedInstance {
        let scaled = profile.scaled(cfg.scale);
        let circuit = scaled.build(cfg.variant);
        let n = circuit.num_dffs();
        let mut rng = Xoshiro256::new(cfg.variant.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n as u64));
        let chain = if cfg.shuffled_chains {
            ScanChain::shuffled(n, &mut rng)
        } else {
            ScanChain::natural(n)
        };
        // A session is 2n + c edges; the key schedule must not wrap inside it.
        let min_period = (2 * n + cfg.captures) as u64;
        let taps = TapSet::for_width(cfg.key_width, min_period, &mut rng)
            .expect("a usable tap set exists for the configured key width");
        let num_gates = ((n as f64 * cfg.gate_fraction) as usize).clamp(2, n);
        let spec = LockSpec::random(taps, n, num_gates, &mut rng);
        let secret = spec.random_seed(&mut rng);
        LockedInstance {
            circuit,
            chain,
            spec,
            secret,
        }
    }

    fn oracle(&self) -> LockedScanChip<'_> {
        LockedScanChip::new(
            &self.circuit,
            self.chain.clone(),
            self.spec.clone(),
            self.secret.clone(),
        )
    }

    fn row(
        &self,
        name: String,
        unlock: Unlock,
        faults: Option<FaultStats>,
        checkpoint_bytes: Option<usize>,
    ) -> AttackRow {
        AttackRow {
            name,
            flops: self.circuit.num_dffs(),
            gates: self.circuit.num_gates(),
            key_width: self.spec.width(),
            key_gates: self.spec.gates().len(),
            unlock,
            faults,
            checkpoint_bytes,
        }
    }
}

/// Runs [`attack_profile`] over every configured profile, then re-attacks
/// the first profile once per [`HarnessConfig::width_sweep`] width,
/// reporting those rows as `"{name}@w{width}"`. With
/// [`HarnessConfig::faults`] set, every configured profile is additionally
/// re-attacked through a faulty oracle ([`attack_profile_faulty`]) as a
/// `"{name}+faults"` row.
///
/// # Panics
///
/// Panics on unknown profile names or attack failures.
pub fn run_profiles(cfg: &HarnessConfig) -> Vec<AttackRow> {
    let mut rows: Vec<AttackRow> = cfg
        .profiles
        .iter()
        .map(|name| {
            let profile = by_name(name).unwrap_or_else(|| panic!("unknown profile {name:?}"));
            attack_profile(profile, cfg)
        })
        .collect();
    if let Some(first) = cfg.profiles.first() {
        let profile = by_name(first).unwrap_or_else(|| panic!("unknown profile {first:?}"));
        for &width in &cfg.width_sweep {
            let mut swept = cfg.clone();
            swept.key_width = width;
            let mut row = attack_profile(profile, &swept);
            row.name = format!("{}@w{width}", row.name);
            rows.push(row);
        }
    }
    if cfg.faults {
        for name in &cfg.profiles {
            let profile = by_name(name).unwrap_or_else(|| panic!("unknown profile {name:?}"));
            rows.push(attack_profile_faulty(profile, cfg));
        }
    }
    rows
}

/// Prints the rows in the paper's table layout.
pub fn print_table(rows: &[AttackRow]) {
    println!(
        "{:<10} {:>6} {:>7} {:>5} {:>6} {:>6} {:>8} {:>12} {:>12} {:>9}",
        "bench", "flops", "gates", "key", "kgates", "DIPs", "queries", "solve", "total", "exact"
    );
    for r in rows {
        println!(
            "{:<10} {:>6} {:>7} {:>5} {:>6} {:>6} {:>8} {:>12?} {:>12?} {:>9}",
            r.name,
            r.flops,
            r.gates,
            r.key_width,
            r.key_gates,
            r.unlock.dip_iterations,
            r.unlock.oracle_queries,
            r.unlock.solve_time,
            r.unlock.total_time,
            if r.unlock.nullity == 0 {
                "yes"
            } else {
                "class"
            },
        );
    }
}

/// Records the rows into a [`bench::Reporter`] with the DIP-iteration and
/// solve-time columns as per-case metrics.
pub fn record(rows: &[AttackRow], reporter: &mut bench::Reporter) {
    for r in rows {
        let id = format!("dynunlock/{}", r.name);
        reporter.record_timed(&id, r.flops as u64, r.unlock.total_time);
        reporter.add_metric(&id, "dip_iterations", r.unlock.dip_iterations as f64);
        reporter.add_metric(&id, "oracle_queries", r.unlock.oracle_queries as f64);
        reporter.add_metric(&id, "solve_ns", r.unlock.solve_time.as_nanos() as f64);
        reporter.add_metric(&id, "key_width", r.key_width as f64);
        reporter.add_metric(&id, "key_gates", r.key_gates as f64);
        reporter.add_metric(&id, "rank", r.unlock.rank as f64);
        reporter.add_metric(&id, "verified", if r.unlock.verified { 1.0 } else { 0.0 });
        let st = &r.unlock.solver_stats;
        reporter.add_metric(&id, "solver_decisions", st.decisions as f64);
        reporter.add_metric(&id, "solver_conflicts", st.conflicts as f64);
        reporter.add_metric(&id, "solver_restarts", st.restarts as f64);
        reporter.add_metric(&id, "solver_propagations", st.propagations as f64);
        reporter.add_metric(&id, "budget_exhaustions", st.budget_exhaustions as f64);
        if let Some(faults) = &r.faults {
            reporter.add_metric(&id, "retries", faults.retries as f64);
            reporter.add_metric(&id, "repaired_bits", faults.repaired_bits as f64);
            reporter.add_metric(&id, "backoff_ns", faults.backoff.as_nanos() as f64);
        }
        if let Some(bytes) = r.checkpoint_bytes {
            reporter.add_metric(&id, "checkpoint_bytes", bytes as f64);
        }
        if let Some(cert) = &r.unlock.certificate {
            reporter.add_metric(&id, "proof_steps", cert.stats.steps() as f64);
            reporter.add_metric(&id, "proof_bytes", cert.proof.len() as f64);
            reporter.add_metric(&id, "certify_ns", r.unlock.certify_time.as_nanos() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_profiles_unlock_and_record() {
        let cfg = HarnessConfig::tiny();
        let rows = run_profiles(&cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.unlock.verified, "{} must verify", r.name);
            assert!(r.key_gates >= 2);
        }
        let mut rep = bench::Reporter::new("dynunlock-selftest");
        record(&rows, &mut rep);
        let dir = std::env::temp_dir().join(format!("duharness-selftest-{}", std::process::id()));
        let path = rep.finish_to(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for needle in [
            "dynunlock/s5378",
            "dynunlock/b20",
            "dip_iterations",
            "solve_ns",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn certified_rows_record_proof_metrics() {
        let mut cfg = HarnessConfig::tiny();
        cfg.profiles = vec!["s5378"];
        cfg.certify = true;
        let rows = run_profiles(&cfg);
        let cert = rows[0]
            .unlock
            .certificate
            .as_ref()
            .expect("certified run carries a certificate");
        assert!(cert.stats.steps() > 0);
        let mut rep = bench::Reporter::new("dynunlock-certify-selftest");
        record(&rows, &mut rep);
        let dir = std::env::temp_dir().join(format!("duharness-certify-{}", std::process::id()));
        let path = rep.finish_to(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for needle in ["proof_steps", "proof_bytes", "certify_ns"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn rows_are_deterministic_in_the_variant() {
        let cfg = HarnessConfig::tiny();
        let a = attack_profile(by_name("s5378").unwrap(), &cfg);
        let b = attack_profile(by_name("s5378").unwrap(), &cfg);
        assert_eq!(a.unlock.seed, b.unlock.seed);
        assert_eq!(a.unlock.dip_iterations, b.unlock.dip_iterations);
    }

    #[test]
    fn ci_profiles_run_at_paper_key_widths() {
        // Refactor guard: the paper's headline key size is 64 bits, and
        // both CI-facing profiles must exercise it, with an 80-bit sweep
        // row proving there is headroom past the paper.
        for cfg in [HarnessConfig::smoke(), HarnessConfig::full()] {
            assert!(
                cfg.key_width >= 64,
                "CI profiles must run at paper key widths (got {})",
                cfg.key_width
            );
            assert!(
                cfg.width_sweep.contains(&80),
                "CI profiles must sweep a row at 80 bits"
            );
        }
    }

    #[test]
    fn width_sweep_adds_labelled_rows() {
        let mut cfg = HarnessConfig::tiny();
        cfg.width_sweep = vec![12];
        let rows = run_profiles(&cfg);
        assert_eq!(rows.len(), cfg.profiles.len() + 1);
        let swept = rows.last().unwrap();
        assert_eq!(swept.name, "s5378@w12");
        assert_eq!(swept.key_width, 12);
        assert!(swept.unlock.verified);
    }

    #[test]
    fn fault_rows_unlock_and_record_fault_metrics() {
        let mut cfg = HarnessConfig::tiny();
        cfg.profiles = vec!["s5378"];
        cfg.faults = true;
        let rows = run_profiles(&cfg);
        assert_eq!(rows.len(), 2, "one reliable row plus one fault row");
        let fault_row = rows.last().unwrap();
        assert_eq!(fault_row.name, "s5378+faults");
        assert!(fault_row.unlock.verified, "fault row must still verify");
        // Same lock as the reliable row: the two seeds may differ in bits
        // no output observes, but must lock the chip identically.
        let inst = LockedInstance::build(by_name("s5378").unwrap(), &cfg);
        assert!(dynunlock::same_class(
            &inst.circuit,
            &inst.chain,
            &inst.spec,
            &fault_row.unlock.seed,
            &rows[0].unlock.seed,
            cfg.captures,
            1000,
        ));
        let ckpt = fault_row.checkpoint_bytes.expect("fault rows checkpoint");
        assert!(ckpt > 0);
        assert!(fault_row.faults.is_some());

        let mut rep = bench::Reporter::new("dynunlock-faults-selftest");
        record(&rows, &mut rep);
        let dir = std::env::temp_dir().join(format!("duharness-faults-{}", std::process::id()));
        let path = rep.finish_to(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for needle in [
            "s5378+faults",
            "retries",
            "repaired_bits",
            "checkpoint_bytes",
            "solver_restarts",
            "solver_decisions",
            "budget_exhaustions",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown profile")]
    fn unknown_profile_panics() {
        let mut cfg = HarnessConfig::tiny();
        cfg.profiles = vec!["nonesuch"];
        run_profiles(&cfg);
    }
}
