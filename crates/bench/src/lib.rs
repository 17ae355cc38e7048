//! The `BENCH_<name>.json` writer, reader and regression gate.
//!
//! Every bench target is declared `harness = false`, so each one is a
//! plain binary that times its own cases, records them in a [`Reporter`]
//! and writes a machine-readable `BENCH_<name>.json` on finish, so the
//! perf trajectory can be tracked across commits (schema in DESIGN.md §5).
//! [`compare`] reads those files back and backs the `bench-compare` gate.
//! No external benchmark harness is used (the workspace is
//! dependency-free). Setting `BENCH_SMOKE=1` shrinks problem sizes for CI
//! smoke runs; `BENCH_JSON_DIR` redirects where the JSON files land
//! (default: the current directory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Whether benches should run at reduced smoke-test sizes
/// (`BENCH_SMOKE=1` in the environment; used by the CI bench-smoke step).
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
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
///   "bench": "dynunlock",
///   "smoke": false,
///   "results": [
///     {"id": "dynunlock/s5378", "size": 6, "iters": 5, "ns_per_iter": 2169755,
///      "metrics": {"dip_iterations": 3, "key_width": 64}}
///   ]
/// }
/// ```
///
/// Cases are recorded with their median via [`Reporter::record_timed`]
/// and may additionally carry a `"metrics"` object of named numbers
/// (added via [`Reporter::add_metric`]; omitted when empty).
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

    /// Records a case timed by the caller: `median` is the median of
    /// `iters` runs. `size` is the problem size the case scales with
    /// (flops, rows, variables…).
    pub fn record_timed(&mut self, id: &str, size: u64, iters: u32, median: Duration) {
        println!("{id:<40} {iters:>5} iters   median {median:>12?}");
        self.results.push(Record {
            id: id.to_string(),
            size,
            iters,
            ns_per_iter: median.as_nanos() as f64,
            metrics: Vec::new(),
        });
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

#[cfg(test)]
mod tests {
    use super::*;

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
        rep.record_timed("case/plain", 10, 2, Duration::from_nanos(40));
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
        rep.record_timed("plain/no-metrics", 1, 2, Duration::from_nanos(40));
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
}
