//! Shared support for the hand-rolled benchmarks in `benches/`.
//!
//! Every bench target is declared `harness = false`, so each one is a
//! plain binary whose `main` times its cases with [`run`] and prints one
//! line per case. No external benchmark harness is used (the workspace is
//! dependency-free); numbers are wall-clock medians over a fixed
//! iteration count, which is plenty for the trend comparisons the paper's
//! tables call for (DESIGN.md §4).
//!
//! Besides the human-readable lines, every bench records its cases in a
//! [`Reporter`] and writes a machine-readable `BENCH_<name>.json` on
//! finish, so the perf trajectory can be tracked across PRs (schema in
//! DESIGN.md §5). Setting `BENCH_SMOKE=1` shrinks problem sizes and
//! iteration counts for CI smoke runs; `BENCH_JSON_DIR` redirects where
//! the JSON files land (default: the current directory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gf2::{Rng64, Xoshiro256};
use satsolver::dimacs::Cnf;
use satsolver::Lit;

/// Timing summary for one benchmark case.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Iterations timed (after one untimed warm-up).
    pub iters: u32,
    /// Median per-iteration wall-clock time.
    pub median: Duration,
    /// Total wall-clock time across all timed iterations.
    pub total: Duration,
}

/// Times `f` over `iters` iterations (plus one untimed warm-up), prints a
/// one-line summary, and returns the sample.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the computation cannot be optimized away.
pub fn run<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Sample {
    assert!(iters > 0, "need at least one iteration");
    std::hint::black_box(f()); // warm-up
    let mut times: Vec<Duration> = Vec::with_capacity(iters as usize);
    let total_start = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed());
    }
    let total = total_start.elapsed();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!("{name:<40} {iters:>5} iters   median {median:>12?}   total {total:>12?}");
    Sample {
        iters,
        median,
        total,
    }
}

/// Whether benches should run at reduced smoke-test sizes
/// (`BENCH_SMOKE=1` in the environment; used by the CI bench-smoke step).
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Picks `full` normally and `reduced` under [`smoke`] mode.
pub fn sized<T>(full: T, reduced: T) -> T {
    if smoke() {
        reduced
    } else {
        full
    }
}

/// One recorded benchmark case, as serialized into `BENCH_<name>.json`.
#[derive(Debug, Clone)]
struct Record {
    id: String,
    size: u64,
    iters: u32,
    ns_per_iter: f64,
    /// Extra named numbers (insertion-ordered); serialized as a `"metrics"`
    /// object only when non-empty, so cases without metrics keep the exact
    /// schema-1 shape.
    metrics: Vec<(String, f64)>,
}

/// Collects benchmark cases and writes them as machine-readable JSON.
///
/// Create one per bench binary, record every case, and call
/// [`Reporter::finish`] at the end of `main`. The output file is
/// `BENCH_<name>.json` in `BENCH_JSON_DIR` (or the current directory),
/// with the schema documented in DESIGN.md §5:
///
/// ```json
/// {
///   "schema": 1,
///   "bench": "xor_solve",
///   "smoke": false,
///   "results": [
///     {"id": "xor_solve/native_w64", "size": 64, "iters": 5, "ns_per_iter": 1234.5,
///      "metrics": {"key_width": 64}}
///   ]
/// }
/// ```
///
/// Cases may additionally carry a `"metrics"` object of named numbers
/// (added via [`Reporter::add_metric`]; omitted when empty), and
/// workloads timed by the caller can be recorded with their median via
/// [`Reporter::record_timed`].
#[derive(Debug)]
pub struct Reporter {
    bench: String,
    results: Vec<Record>,
}

impl Reporter {
    /// Starts a reporter for the bench target `name` (the `<name>` in
    /// `BENCH_<name>.json`).
    pub fn new(name: &str) -> Self {
        Reporter {
            bench: name.to_string(),
            results: Vec::new(),
        }
    }

    /// Times `f` with [`run`] and records the case. `size` is the problem
    /// size the case scales with (rows, patterns, variables…).
    pub fn case<T>(&mut self, id: &str, size: u64, iters: u32, f: impl FnMut() -> T) -> Sample {
        let sample = run(id, iters, f);
        self.record(id, size, sample.iters, sample.median);
        sample
    }

    /// Records a case timed externally: `median` is the median of `iters`
    /// runs (no warm-up). For workloads the closure-based [`run`] does not
    /// fit — a DynUnlock attack run is one adaptive oracle dialogue whose
    /// result the caller also keeps.
    pub fn record_timed(&mut self, id: &str, size: u64, iters: u32, median: Duration) {
        println!("{id:<40} {iters:>5} iters   median {median:>12?}");
        self.record(id, size, iters, median);
    }

    /// Attaches a named metric to the most recently recorded case with
    /// this `id` (e.g. DIP iterations or solver-only nanoseconds alongside
    /// the case's wall-clock time). Re-adding a key overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if no case with `id` has been recorded yet.
    pub fn add_metric(&mut self, id: &str, key: &str, value: f64) {
        let rec = self
            .results
            .iter_mut()
            .rev()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no recorded case with id {id:?}"));
        match rec.metrics.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => rec.metrics.push((key.to_string(), value)),
        }
    }

    fn record(&mut self, id: &str, size: u64, iters: u32, median: Duration) {
        self.results.push(Record {
            id: id.to_string(),
            size,
            iters,
            ns_per_iter: median.as_nanos() as f64,
            metrics: Vec::new(),
        });
    }

    /// Writes `BENCH_<name>.json` into `BENCH_JSON_DIR` (or the current
    /// directory) and returns its path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — a bench that silently loses its results is
    /// worse than one that fails loudly.
    pub fn finish(self) -> PathBuf {
        let dir =
            std::env::var_os("BENCH_JSON_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from);
        self.finish_to(&dir)
    }

    /// Writes `BENCH_<name>.json` into an explicit directory and returns
    /// its path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`Reporter::finish`].
    pub fn finish_to(self, dir: &std::path::Path) -> PathBuf {
        std::fs::create_dir_all(dir).expect("create bench JSON directory");
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(&self.bench)));
        out.push_str(&format!("  \"smoke\": {},\n", smoke()));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"size\": {}, \"iters\": {}, \"ns_per_iter\": {}",
                json_string(&r.id),
                r.size,
                r.iters,
                json_number(r.ns_per_iter),
            ));
            if !r.metrics.is_empty() {
                let body: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
                    .collect();
                out.push_str(&format!(", \"metrics\": {{{}}}", body.join(", ")));
            }
            out.push('}');
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        let mut file = std::fs::File::create(&path).expect("create bench JSON file");
        file.write_all(out.as_bytes()).expect("write bench JSON");
        println!("wrote {}", path.display());
        path
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite float as a JSON number (JSON has no Infinity/NaN).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A random 3-SAT instance with a *planted* satisfying assignment: every
/// clause is forced to agree with a hidden random model in at least one
/// literal, so the instance is SAT by construction.
pub fn planted_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> Cnf {
    assert!(num_vars >= 3);
    let mut rng = Xoshiro256::new(seed);
    let model: Vec<bool> = (0..num_vars).map(|_| rng.next_u64() & 1 == 1).collect();
    let mut cnf = Cnf::new(num_vars);
    while cnf.clauses.len() < num_clauses {
        let mut vars = [0usize; 3];
        vars[0] = rng.next_u64() as usize % num_vars;
        while {
            vars[1] = rng.next_u64() as usize % num_vars;
            vars[1] == vars[0]
        } {}
        while {
            vars[2] = rng.next_u64() as usize % num_vars;
            vars[2] == vars[0] || vars[2] == vars[1]
        } {}
        let mut clause: Vec<i64> = vars
            .iter()
            .map(|&v| {
                let positive = rng.next_u64() & 1 == 1;
                if positive {
                    (v + 1) as i64
                } else {
                    -((v + 1) as i64)
                }
            })
            .collect();
        // Plant: flip one literal's sign if none agrees with the model.
        if !clause
            .iter()
            .any(|&code| model[code.unsigned_abs() as usize - 1] == (code > 0))
        {
            let k = rng.next_u64() as usize % 3;
            clause[k] = -clause[k];
        }
        cnf.add_clause(
            clause
                .iter()
                .map(|&code| Lit::from_dimacs(code))
                .collect::<Vec<Lit>>(),
        );
    }
    cnf
}

/// The pigeonhole principle instance `PHP(pigeons, holes)`: UNSAT whenever
/// `pigeons > holes`, and a classic resolution-hard driver for clause
/// learning.
pub fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
    let lit = |p: usize, h: usize, positive: bool| {
        let code = (p * holes + h + 1) as i64;
        Lit::from_dimacs(if positive { code } else { -code })
    };
    let mut cnf = Cnf::new(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| lit(p, h, true)).collect::<Vec<Lit>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![lit(p1, h, false), lit(p2, h, false)]);
            }
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use satsolver::SolveResult;

    #[test]
    fn planted_instances_are_sat() {
        for seed in 0..3 {
            let inst = planted_3sat(50, 210, seed);
            assert_eq!(inst.clauses.len(), 210);
            let (mut s, _) = inst.to_solver();
            assert_eq!(s.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn pigeonhole_status_matches_counts() {
        let (mut unsat, _) = pigeonhole(5, 4).to_solver();
        assert_eq!(unsat.solve(), SolveResult::Unsat);
        let (mut sat, _) = pigeonhole(4, 4).to_solver();
        assert_eq!(sat.solve(), SolveResult::Sat);
    }

    #[test]
    fn run_reports_requested_iters() {
        let s = run("selftest/noop", 3, || 1 + 1);
        assert_eq!(s.iters, 3);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn reporter_writes_schema_conformant_json() {
        let dir = std::env::temp_dir().join(format!("bench-json-test-{}", std::process::id()));
        let mut rep = Reporter::new("selftest");
        rep.case("case/plain", 10, 2, || 1 + 1);
        let path = rep.finish_to(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(path.file_name().unwrap(), "BENCH_selftest.json");
        for needle in [
            "\"schema\": 1",
            "\"bench\": \"selftest\"",
            "\"id\": \"case/plain\"",
            "\"size\": 10",
            "\"ns_per_iter\":",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn record_timed_and_metrics_serialize() {
        let dir = std::env::temp_dir().join(format!("bench-json-metrics-{}", std::process::id()));
        let mut rep = Reporter::new("metricstest");
        rep.record_timed("attack/tiny", 8, 1, Duration::from_micros(1500));
        rep.add_metric("attack/tiny", "dip_iterations", 7.0);
        rep.add_metric("attack/tiny", "solve_ns", 1.25e6);
        rep.add_metric("attack/tiny", "dip_iterations", 9.0); // overwrite
        rep.case("plain/no-metrics", 1, 2, || 0);
        let path = rep.finish_to(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for needle in [
            "\"id\": \"attack/tiny\"",
            "\"iters\": 1",
            "\"ns_per_iter\": 1500000",
            "\"metrics\": {\"dip_iterations\": 9, \"solve_ns\": 1250000}",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // A case without metrics keeps the original schema-1 line shape.
        assert!(
            text.contains("\"id\": \"plain/no-metrics\"")
                && !text.contains("plain/no-metrics\", \"metrics\""),
            "metrics object must be omitted when empty:\n{text}"
        );
    }

    #[test]
    #[should_panic(expected = "no recorded case")]
    fn add_metric_requires_existing_case() {
        let mut rep = Reporter::new("metricstest");
        rep.add_metric("missing/case", "k", 1.0);
    }

    #[test]
    fn sized_picks_by_smoke_mode() {
        // BENCH_SMOKE is not set in the test environment by default.
        if !smoke() {
            assert_eq!(sized(100, 5), 100);
        }
    }
}
