//! Comparing two sets of `BENCH_*.json` results: the CI perf gate.
//!
//! [`Reporter`](crate::Reporter) writes one JSON file per bench target;
//! this module reads those files back (with a built-in minimal JSON
//! parser — the workspace is dependency-free) and diffs a *baseline* set
//! against a *current* set, case by case. A case is keyed by
//! `(bench, id)`; its `ns_per_iter` median is the compared quantity. The
//! `bench-compare` binary wraps [`compare`] with a threshold and exit
//! code, so CI fails when a hot path regresses by more than the allowed
//! percentage (DESIGN.md §5 documents the baseline policy).
//!
//! Cases whose baseline median was below clock resolution (0 ns) carry no
//! meaningful ratio; they are reported as *incomparable* and never fail
//! the gate.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors surfaced while loading or diffing bench JSON files.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompareError {
    /// Reading a file or listing a directory failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not well-formed JSON.
    Parse {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the first error.
        pos: usize,
        /// What the parser expected.
        msg: String,
    },
    /// The JSON is well-formed but does not match bench schema 1.
    Schema {
        /// The offending file.
        path: PathBuf,
        /// Which schema expectation failed.
        msg: String,
    },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CompareError::Parse { path, pos, msg } => {
                write!(f, "{}: JSON error at byte {pos}: {msg}", path.display())
            }
            CompareError::Schema { path, msg } => {
                write!(f, "{}: schema error: {msg}", path.display())
            }
        }
    }
}

impl std::error::Error for CompareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompareError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Only what bench schema 1 needs; objects keep
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type ParseResult<T> = Result<T, (usize, String)>;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> ParseResult<T> {
        Err((self.pos, msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> ParseResult<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_document(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing data after JSON value");
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_object(&mut self) -> ParseResult<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn parse_array(&mut self) -> ParseResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn parse_string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("invalid \\u escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid; copy bytes until the next
                    // char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn parse_number(&mut self) -> ParseResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err(format!("invalid number {text:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Bench schema 1
// ---------------------------------------------------------------------

/// One benchmark case read back from a `BENCH_*.json` file (the reader's
/// view of what [`Reporter`](crate::Reporter) wrote).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case identifier, e.g. `"xor_solve/native_w64"`.
    pub id: String,
    /// Problem size the case scales with.
    pub size: u64,
    /// Timed iterations.
    pub iters: u32,
    /// Median nanoseconds per iteration — the compared quantity.
    pub ns_per_iter: f64,
    /// Extra named metrics (e.g. `dip_iterations`, `key_width`).
    pub metrics: Vec<(String, f64)>,
}

impl CaseResult {
    /// Looks up a named metric.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// One parsed `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// The bench target name (`"xor_solve"`, `"dynunlock"`, …).
    pub bench: String,
    /// Whether the file was produced under `BENCH_SMOKE=1`.
    pub smoke: bool,
    /// All recorded cases, in file order.
    pub results: Vec<CaseResult>,
}

impl BenchFile {
    /// Parses bench JSON text. `origin` labels error messages (use the
    /// file path, or a synthetic name for in-memory input).
    pub fn parse(text: &str, origin: &Path) -> Result<BenchFile, CompareError> {
        let doc = Parser::new(text)
            .parse_document()
            .map_err(|(pos, msg)| CompareError::Parse {
                path: origin.to_path_buf(),
                pos,
                msg,
            })?;
        let schema_err = |msg: &str| CompareError::Schema {
            path: origin.to_path_buf(),
            msg: msg.to_string(),
        };
        match doc.get("schema") {
            Some(Json::Num(v)) if *v == 1.0 => {}
            _ => return Err(schema_err("expected \"schema\": 1")),
        }
        let bench = match doc.get("bench") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(schema_err("expected a \"bench\" string")),
        };
        let smoke = match doc.get("smoke") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(schema_err("expected a \"smoke\" bool")),
        };
        let Some(Json::Arr(raw)) = doc.get("results") else {
            return Err(schema_err("expected a \"results\" array"));
        };
        let mut results = Vec::with_capacity(raw.len());
        for item in raw {
            let id = match item.get("id") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err(schema_err("result without an \"id\" string")),
            };
            let num = |key: &str| -> Result<f64, CompareError> {
                match item.get(key) {
                    Some(Json::Num(v)) => Ok(*v),
                    _ => Err(schema_err(&format!("case {id:?}: expected number {key:?}"))),
                }
            };
            let size = num("size")? as u64;
            let iters = num("iters")? as u32;
            let ns_per_iter = num("ns_per_iter")?;
            let mut metrics = Vec::new();
            if let Some(m) = item.get("metrics") {
                let Json::Obj(pairs) = m else {
                    return Err(schema_err(&format!(
                        "case {id:?}: metrics is not an object"
                    )));
                };
                for (k, v) in pairs {
                    let Json::Num(v) = v else {
                        return Err(schema_err(&format!(
                            "case {id:?}: metric {k:?} not a number"
                        )));
                    };
                    metrics.push((k.clone(), *v));
                }
            }
            results.push(CaseResult {
                id,
                size,
                iters,
                ns_per_iter,
                metrics,
            });
        }
        Ok(BenchFile {
            bench,
            smoke,
            results,
        })
    }

    /// Loads and parses one bench JSON file.
    pub fn load(path: &Path) -> Result<BenchFile, CompareError> {
        let text = std::fs::read_to_string(path).map_err(|source| CompareError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        BenchFile::parse(&text, path)
    }

    /// Loads a *set* of bench files: `path` may be a single JSON file or
    /// a directory, in which case every `BENCH_*.json` directly inside it
    /// is loaded (sorted by file name for determinism).
    pub fn load_set(path: &Path) -> Result<Vec<BenchFile>, CompareError> {
        if !path.is_dir() {
            return Ok(vec![BenchFile::load(path)?]);
        }
        let entries = std::fs::read_dir(path).map_err(|source| CompareError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        files.iter().map(|p| BenchFile::load(p)).collect()
    }
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// The per-case outcome of diffing a baseline case against its current
/// counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The bench target the case belongs to.
    pub bench: String,
    /// The case id.
    pub id: String,
    /// Baseline median, ns/iter.
    pub baseline_ns: f64,
    /// Current median, ns/iter.
    pub current_ns: f64,
}

impl Delta {
    /// Percentage change of `current` relative to `baseline` (positive =
    /// slower). Non-finite when the baseline median was 0 ns (below clock
    /// resolution) — such cases are *incomparable* and never regressions.
    pub fn change_pct(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            (self.current_ns / self.baseline_ns - 1.0) * 100.0
        } else if self.current_ns == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// The full result of diffing two bench-file sets.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Cases present in both sets, in baseline order.
    pub deltas: Vec<Delta>,
    /// `bench/id` keys present in the baseline but absent now (a removed
    /// or renamed case — suspicious, since a silently dropped case can
    /// hide a regression).
    pub missing_in_current: Vec<String>,
    /// `bench/id` keys present now but not in the baseline (new cases are
    /// fine; they just can't be compared yet).
    pub new_in_current: Vec<String>,
}

impl CompareReport {
    /// Deltas slower than `threshold_pct` percent (strictly greater).
    /// Incomparable deltas (0 ns baseline) are excluded.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| {
                let pct = d.change_pct();
                pct.is_finite() && pct > threshold_pct
            })
            .collect()
    }

    /// Human-readable table of every delta, flagging regressions beyond
    /// `threshold_pct` and listing missing/new cases.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>9}\n",
            "case", "baseline ns", "current ns", "change"
        ));
        for d in &self.deltas {
            let pct = d.change_pct();
            let (change, flag) = if pct.is_finite() {
                let flag = if pct > threshold_pct {
                    "  REGRESSION"
                } else {
                    ""
                };
                (format!("{pct:>+8.1}%"), flag)
            } else {
                ("   incomp".to_string(), "")
            };
            out.push_str(&format!(
                "{:<44} {:>14.0} {:>14.0} {change}{flag}\n",
                format!("{}/{}", d.bench, d.id),
                d.baseline_ns,
                d.current_ns,
            ));
        }
        for key in &self.missing_in_current {
            out.push_str(&format!("{key:<44} MISSING in current set\n"));
        }
        for key in &self.new_in_current {
            out.push_str(&format!("{key:<44} new (no baseline)\n"));
        }
        out
    }
}

/// Diffs `current` against `baseline`. Cases are keyed by
/// `(bench, id)`; duplicate keys within one set keep the last
/// occurrence.
pub fn compare(baseline: &[BenchFile], current: &[BenchFile]) -> CompareReport {
    let index = |set: &[BenchFile]| -> BTreeMap<(String, String), f64> {
        let mut map = BTreeMap::new();
        for file in set {
            for case in &file.results {
                map.insert((file.bench.clone(), case.id.clone()), case.ns_per_iter);
            }
        }
        map
    };
    let base = index(baseline);
    let cur = index(current);
    let mut report = CompareReport::default();
    for ((bench, id), &baseline_ns) in &base {
        match cur.get(&(bench.clone(), id.clone())) {
            Some(&current_ns) => report.deltas.push(Delta {
                bench: bench.clone(),
                id: id.clone(),
                baseline_ns,
                current_ns,
            }),
            None => report.missing_in_current.push(format!("{bench}/{id}")),
        }
    }
    for (bench, id) in cur.keys() {
        if !base.contains_key(&(bench.clone(), id.clone())) {
            report.new_in_current.push(format!("{bench}/{id}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reporter;
    use std::time::Duration;

    fn synthetic(bench: &str, cases: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            bench: bench.to_string(),
            smoke: true,
            results: cases
                .iter()
                .map(|&(id, ns)| CaseResult {
                    id: id.to_string(),
                    size: 1,
                    iters: 1,
                    ns_per_iter: ns,
                    metrics: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn round_trips_reporter_output() {
        let dir = std::env::temp_dir().join(format!("bench-compare-rt-{}", std::process::id()));
        let mut rep = Reporter::new("roundtrip");
        rep.record_timed("case/a", 64, 1, Duration::from_micros(10));
        rep.add_metric("case/a", "dip_iterations", 4.0);
        rep.add_metric("case/a", "key_width", 64.0);
        rep.case("case/b", 128, 2, || 1 + 1);
        let path = rep.finish_to(&dir);
        let parsed = BenchFile::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(parsed.bench, "roundtrip");
        assert_eq!(parsed.results.len(), 2);
        let a = &parsed.results[0];
        assert_eq!(a.id, "case/a");
        assert_eq!(a.size, 64);
        assert_eq!(a.ns_per_iter, 10_000.0);
        assert_eq!(a.metric("dip_iterations"), Some(4.0));
        assert_eq!(a.metric("key_width"), Some(64.0));
        let b = &parsed.results[1];
        assert_eq!((b.id.as_str(), b.size, b.iters), ("case/b", 128, 2));
        assert!(b.metrics.is_empty());
    }

    #[test]
    fn detects_a_synthetic_regression_over_threshold() {
        let base = [synthetic("wp", &[("fast", 1000.0), ("slow", 2000.0)])];
        let cur = [synthetic("wp", &[("fast", 1050.0), ("slow", 2400.0)])];
        let report = compare(&base, &cur);
        assert_eq!(report.deltas.len(), 2);
        // fast: +5% (under a 10% gate); slow: +20% (over it)
        let regs = report.regressions(10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "slow");
        assert!((regs[0].change_pct() - 20.0).abs() < 1e-9);
        assert!(report.render(10.0).contains("REGRESSION"));
        // A looser gate passes both.
        assert!(report.regressions(25.0).is_empty());
    }

    #[test]
    fn improvements_never_regress() {
        let base = [synthetic("wp", &[("a", 1000.0)])];
        let cur = [synthetic("wp", &[("a", 400.0)])];
        let report = compare(&base, &cur);
        assert!(report.regressions(0.0).is_empty());
        assert!(report.deltas[0].change_pct() < 0.0);
    }

    #[test]
    fn zero_baseline_is_incomparable_not_regression() {
        let base = [synthetic("wp", &[("z", 0.0)])];
        let cur = [synthetic("wp", &[("z", 500.0)])];
        let report = compare(&base, &cur);
        assert!(report.deltas[0].change_pct().is_infinite());
        assert!(report.regressions(10.0).is_empty());
        assert!(report.render(10.0).contains("incomp"));
    }

    #[test]
    fn missing_and_new_cases_are_reported() {
        let base = [synthetic("wp", &[("kept", 100.0), ("dropped", 100.0)])];
        let cur = [synthetic("wp", &[("kept", 100.0), ("added", 100.0)])];
        let report = compare(&base, &cur);
        assert_eq!(report.missing_in_current, vec!["wp/dropped".to_string()]);
        assert_eq!(report.new_in_current, vec!["wp/added".to_string()]);
        assert_eq!(report.deltas.len(), 1);
    }

    #[test]
    fn cases_in_different_benches_do_not_collide() {
        let base = [
            synthetic("a", &[("x", 100.0)]),
            synthetic("b", &[("x", 999.0)]),
        ];
        let cur = [
            synthetic("a", &[("x", 100.0)]),
            synthetic("b", &[("x", 999.0)]),
        ];
        let report = compare(&base, &cur);
        assert_eq!(report.deltas.len(), 2);
        assert!(report.regressions(0.0).is_empty());
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let ok = r#"{"schema": 1, "bench": "e\"s\\c", "smoke": false, "results": []}"#;
        let parsed = BenchFile::parse(ok, Path::new("<mem>")).unwrap();
        assert_eq!(parsed.bench, "e\"s\\c");
        assert!(!parsed.smoke);

        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"schema": 1}"#, // missing fields
            r#"{"schema": 2, "bench": "x", "smoke": true, "results": []}"#, // wrong schema
            r#"{"schema": 1, "bench": "x", "smoke": true, "results": [{"size": 1}]}"#, // no id
            r#"{"schema": 1, "bench": "x", "smoke": true, "results": []} trailing"#,
        ] {
            assert!(
                BenchFile::parse(bad, Path::new("<mem>")).is_err(),
                "accepted bad input: {bad}"
            );
        }
    }

    #[test]
    fn load_set_reads_every_bench_file_in_a_directory() {
        let dir = std::env::temp_dir().join(format!("bench-compare-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Reporter::new("alpha").finish_to(&dir);
        Reporter::new("beta").finish_to(&dir);
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let set = BenchFile::load_set(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let names: Vec<&str> = set.iter().map(|f| f.bench.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }
}
