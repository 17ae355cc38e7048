//! Time-to-unlock benchmark for the DynUnlock reproduction.
//!
//! Locks generated instances ([`workload`]), attacks each one through the
//! public `dynunlock::AttackState` API ([`attack`]), and reports the
//! end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
//! README.md next to this crate explains the workloads and the metrics.

#![forbid(unsafe_code)]

pub mod attack;
pub mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use attack::{Counts, Layers, Outcome, Record};
use workload::{build_all, SetupTime, Size, Workload};

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Passes over the workload per run, at least: two passes with the same
/// inputs are what the determinism check compares.
const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same instances.
    pub seed: u64,
    /// Measuring time; passes start only while they fit.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Benchmark or smoke-test sizes.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every unlocked seed passed the held-out check, no attack failed,
    /// and every pass repeated the first pass's counts exactly.
    pub correct: bool,
    /// Attacks run, over all passes.
    pub attempted: usize,
    /// Attacks that failed (not counting workload budget-outs).
    pub failed: usize,
    /// End-to-end metrics, or per-layer metrics when tracing.
    pub metrics: Vec<Metric>,
    /// Run metadata (execution shape, sample counts, count digest) as a
    /// JSON object.
    pub meta: String,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Spans of the first traced pass as JSON lines (empty untraced).
    pub spans: String,
    /// Human-readable self-time breakdown (empty untraced).
    pub breakdown: String,
}

impl Report {
    /// The metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number (non-finite values cannot occur in a correct run;
/// they print as 0 rather than as invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`.
/// Names ending in `_ns` are times (the median traced pass); the others
/// are counts, which repeat in every pass, or are derived below.
const PER_LAYER: [(&str, &str); 38] = [
    ("netlist.generate_ns", "ns"),
    ("scanlock.lock_ns", "ns"),
    ("cnf.new_ns", "ns"),
    ("sat.dip_step_ns", "ns"),
    ("sat.converge_step_ns", "ns"),
    ("proofcheck.certify_ns", "ns"),
    ("sim.oracle_ns", "ns"),
    ("sim.verify_ns", "ns"),
    ("robust.ckpt_serialize_ns", "ns"),
    ("robust.ckpt_parse_ns", "ns"),
    ("robust.resume_ns", "ns"),
    ("model.session_masks_ns", "ns"),
    ("sat.dip_steps", "count"),
    ("sat.dip_conflicts", "count"),
    ("sat.dip_propagations", "count"),
    ("sat.converge_conflicts", "count"),
    ("sat.converge_propagations", "count"),
    ("sat.converge_xor_propagations", "count"),
    ("sat.converge_xor_conflicts", "count"),
    ("sat.converge_learnts", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.solve_ns", "ns"),
    ("sat.budget_exhaustions", "count"),
    ("sat.nonsolve_ns", "ns"),
    ("sim.oracle_sessions", "count"),
    ("lfsr.recover_ns", "ns"),
    ("lfsr.rank", "bits"),
    ("lfsr.exact_frac", "frac"),
    ("proofcheck.check_ns", "ns"),
    ("proofcheck.proof_steps", "count"),
    ("proofcheck.proof_bytes", "bytes"),
    ("robust.ckpt_bytes", "bytes"),
    ("robust.retries", "count"),
    ("robust.repaired_bits", "count"),
    ("bench.attack_p50_ms", "ms"),
    ("trace.unlock_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_frac", "frac"),
];

/// The layers whose self times partition a traced attack's wall time.
const SELF_TIME: [&str; 10] = [
    "cnf.new_ns",
    "sat.dip_step_ns",
    "sat.converge_step_ns",
    "proofcheck.certify_ns",
    "sim.oracle_ns",
    "sim.verify_ns",
    "robust.ckpt_serialize_ns",
    "robust.ckpt_parse_ns",
    "robust.resume_ns",
    "bench.unaccounted_ns",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs one workload: set up, then passes over every instance until the
/// measuring time is spent, with the timed set-ups spread over the passes.
pub fn run(opts: &Options) -> Report {
    let plan = opts.workload.plan(opts.seed, opts.size);

    let (locks, _) = build_all(&plan);

    // Passes: all untraced, or untraced and traced alternately so the
    // tracing overhead is measured on the same inputs. Between attacks,
    // one timed set-up every `budget / SETUP_REPS`: the machine this was
    // tuned on changes speed by a third or more for seconds to minutes at
    // a time, and set-ups timed back to back all land in one such stretch.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let setup_every = budget / SETUP_REPS as u32;
    let mut setups: Vec<SetupTime> = Vec::new();
    let mut passes: Vec<(bool, Vec<Record>)> = Vec::new();
    let mut last = Duration::ZERO;
    while passes.len() < MIN_PASSES || started.elapsed() + last <= budget {
        let traced = opts.trace && passes.len() % 2 == 1;
        let t0 = Instant::now();
        let mut records = Vec::with_capacity(locks.len());
        for l in &locks {
            records.push(attack::run(&plan, l, traced));
            if setups.len() < SETUP_REPS && started.elapsed() >= setup_every * setups.len() as u32 {
                setups.push(build_all(&plan).1);
            }
        }
        last = t0.elapsed();
        passes.push((traced, records));
    }
    while setups.len() < SETUP_REPS {
        setups.push(build_all(&plan).1);
    }

    let peak_rss_mb = peak_rss_mb();

    let setup_median = |f: fn(&SetupTime) -> Duration| {
        median(&mut setups.iter().map(|t| secs(f(t))).collect::<Vec<_>>())
    };
    let setup_s = setup_median(SetupTime::total);

    let mut problems = Vec::new();
    let first = &passes[0].1;
    for (p, (_, records)) in passes.iter().enumerate() {
        for (i, r) in records.iter().enumerate() {
            if let Outcome::Failed(why) = &r.outcome {
                problems.push(format!("pass {p}: {why}"));
            }
            let (a, b) = (&first[i], r);
            if a.counts != b.counts
                || std::mem::discriminant(&a.outcome) != std::mem::discriminant(&b.outcome)
            {
                problems.push(format!(
                    "pass {p}: {} not deterministic: {:?} vs {:?}",
                    locks[i].spec.label(),
                    a.counts,
                    b.counts
                ));
            }
        }
    }
    let attempted: usize = passes.iter().map(|(_, r)| r.len()).sum();
    let failed = passes
        .iter()
        .flat_map(|(_, r)| r)
        .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
        .count();

    let per_pass = first.len() as f64;
    let unlocked = first
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Unlocked { .. }))
        .count() as f64;
    let exact = first
        .iter()
        .filter(|r| r.outcome == Outcome::Unlocked { exact: true })
        .count() as f64;
    let sessions: u64 = first.iter().map(|r| r.counts.sessions).sum();
    // Each attack's time is its fastest pass: interference from the rest
    // of the machine only ever adds time (README.md, "How a run works").
    let best = |traced: bool| -> Vec<f64> {
        (0..first.len())
            .map(|i| {
                passes
                    .iter()
                    .filter(|(t, _)| *t == traced)
                    .map(|(_, r)| secs(r[i].wall))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let best_untraced = best(false);
    let unlock_s: f64 = best_untraced.iter().sum();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for c in first.iter().map(|r| r.counts) {
        let Counts {
            dips,
            conflicts,
            sessions,
            rank,
        } = c;
        for v in [dips, conflicts, sessions, rank] {
            digest = (digest ^ v).wrapping_mul(0x1000_0000_01b3);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let budget_conflicts = plan.robust.solve_budget.conflicts.unwrap_or(0);
    let pass_s: Vec<String> = passes
        .iter()
        .map(|(_, r)| format!("{:.3}", r.iter().map(|x| secs(x.wall)).sum::<f64>()))
        .collect();
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"attack_threads\": 1, \
         \"passes\": {}, \"pass_s\": [{}], \"traced_passes\": {}, \"attacks_per_pass\": {}, \
         \"setups\": {}, \"conflict_budget\": {budget_conflicts}, \
         \"counts_digest\": \"{digest:016x}\"}}",
        opts.workload.name(),
        opts.seed,
        passes.len(),
        pass_s.join(", "),
        passes.iter().filter(|(t, _)| *t).count(),
        first.len(),
        setups.len(),
    );

    let mut report = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
        meta,
        problems,
        spans: String::new(),
        breakdown: String::new(),
    };

    if !opts.trace {
        for (name, value, unit) in [
            ("unlock_s", unlock_s, "s"),
            ("unlocked_frac", unlocked / per_pass, "frac"),
            ("oracle_queries", sessions as f64, "count"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ] {
            report.metrics.push(Metric { name, value, unit });
        }
        return report;
    }

    // Per-layer: sum each traced pass over its attacks. Times are the
    // median pass; counts repeat exactly, so they come from the first
    // traced pass.
    let traced: Vec<Layers> = passes
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, records)| {
            let mut sum = Layers::new();
            for r in records {
                for (&name, v) in &r.trace.as_ref().expect("traced pass carries layers").0 {
                    *sum.entry(name).or_default() += v;
                }
            }
            sum
        })
        .collect();
    let mut layers = traced[0].clone();
    for (name, value) in &mut layers {
        if name.ends_with("_ns") {
            let mut values: Vec<f64> = traced
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            *value = median(&mut values);
        }
    }
    let get = |l: &Layers, name| l.get(name).copied().unwrap_or(0.0);
    let accounted_frac = median(
        &mut passes
            .iter()
            .filter(|(t, _)| *t)
            .zip(&traced)
            .map(|((_, r), l)| {
                let wall_ns: f64 = r.iter().map(|x| secs(x.wall) * 1e9).sum();
                1.0 - get(l, "bench.unaccounted_ns") / wall_ns
            })
            .collect::<Vec<_>>(),
    );
    let traced_unlock_s: f64 = best(true).iter().sum();
    let mut walls_ms: Vec<f64> = best_untraced.iter().map(|s| s * 1e3).collect();
    let derived = [
        ("netlist.generate_ns", setup_median(|t| t.generate) * 1e9),
        ("scanlock.lock_ns", setup_median(|t| t.lock) * 1e9),
        (
            "sat.conflicts_per_s",
            ratio(
                get(&layers, "sat.converge_conflicts"),
                get(&layers, "sat.converge_step_ns") / 1e9,
            ),
        ),
        ("sim.oracle_sessions", sessions as f64),
        ("lfsr.rank", ratio(get(&layers, "lfsr.rank"), unlocked)),
        ("lfsr.exact_frac", ratio(exact, unlocked)),
        ("bench.attack_p50_ms", median(&mut walls_ms)),
        ("trace.unlock_s", traced_unlock_s),
        ("trace.overhead_s", traced_unlock_s - unlock_s),
        ("trace.accounted_frac", accounted_frac),
    ];
    layers.extend(derived);
    for (name, unit) in PER_LAYER {
        let value = get(&layers, name);
        report.metrics.push(Metric { name, value, unit });
    }

    let traced_pass_ns: f64 = SELF_TIME.iter().map(|&name| get(&layers, name)).sum();
    let mut breakdown = format!(
        "{} seed {}: traced unlock_s {traced_unlock_s:.4} (untraced {unlock_s:.4}), self time by layer:\n",
        opts.workload.name(),
        opts.seed
    );
    for name in SELF_TIME {
        let ns = get(&layers, name);
        let share = ratio(ns, traced_pass_ns) * 100.0;
        let _ = writeln!(
            breakdown,
            "  {name:<24} {:>10.2} ms {share:>6.1}%",
            ns / 1e6
        );
    }
    report.breakdown = breakdown;

    let (_, first_traced) = passes.iter().find(|(t, _)| *t).expect("a traced pass ran");
    for (a, r) in first_traced.iter().enumerate() {
        let (_, spans) = r.trace.as_ref().expect("traced pass carries spans");
        for (id, s) in spans.iter().enumerate() {
            let _ = write!(
                report.spans,
                "{{\"attack\": {a}, \"instance\": \"{}\", \"span\": {id}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"dur_ns\": {}",
                locks[a].spec.label(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.dur_ns
            );
            if let Some(tag) = s.tag {
                let _ = write!(report.spans, ", \"tag\": \"{tag}\"");
            }
            if let Some(st) = s.stats {
                let _ = write!(
                    report.spans,
                    ", \"conflicts\": {}, \"propagations\": {}, \"xor_propagations\": {}, \
                     \"xor_conflicts\": {}, \"learnts\": {}",
                    st.conflicts,
                    st.propagations,
                    st.xor_propagations,
                    st.xor_conflicts,
                    st.learnt_clauses
                );
            }
            report.spans.push_str("}\n");
        }
    }
    report
}
