//! CLI perf gate: diff two `BENCH_*.json` sets and fail on regressions.
//!
//! ```text
//! bench-compare [--threshold PCT] [--allow-missing] BASELINE CURRENT
//! bench-compare --self-test
//! ```
//!
//! `BASELINE` and `CURRENT` are each a bench JSON file or a directory of
//! them. Exit status is nonzero when any shared case's `ns_per_iter` is
//! more than `--threshold` percent slower (default 10), or when a
//! baseline case is missing from the current set (suppress with
//! `--allow-missing`). `--self-test` synthesizes a >10% regression in
//! memory and exits zero only if the gate catches it — CI runs this first
//! so a broken comparator cannot silently wave regressions through.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::compare::{compare, BenchFile, CaseResult};

const USAGE: &str = "usage: bench-compare [--threshold PCT] [--allow-missing] \
                     BASELINE CURRENT\n       bench-compare --self-test";

struct Options {
    threshold_pct: f64,
    allow_missing: bool,
    self_test: bool,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        threshold_pct: 10.0,
        allow_missing: false,
        self_test: false,
        paths: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = iter.next().ok_or("--threshold needs a value")?;
                opts.threshold_pct = value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("bad --threshold value {value:?}"))?;
            }
            "--allow-missing" => opts.allow_missing = true,
            "--self-test" => opts.self_test = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => opts.paths.push(PathBuf::from(other)),
        }
    }
    if opts.self_test {
        if !opts.paths.is_empty() {
            return Err("--self-test takes no paths".to_string());
        }
    } else if opts.paths.len() != 2 {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// Proves the gate catches what it must: a synthetic +25% case trips a
/// 10% threshold, a +5% case does not, and a dropped case is flagged.
fn self_test() -> Result<(), String> {
    let mk = |cases: &[(&str, f64)]| BenchFile {
        bench: "selftest".to_string(),
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
    };
    let base = [mk(&[("hot", 1000.0), ("warm", 1000.0), ("gone", 1.0)])];
    let cur = [mk(&[("hot", 1250.0), ("warm", 1050.0)])];
    let report = compare(&base, &cur);
    print!("{}", report.render(10.0));

    let regs = report.regressions(10.0);
    if regs.len() != 1 || regs[0].id != "hot" {
        return Err(format!(
            "expected exactly the +25% case to regress, got {:?}",
            regs.iter().map(|d| d.id.as_str()).collect::<Vec<_>>()
        ));
    }
    if report.missing_in_current != ["selftest/gone"] {
        return Err(format!(
            "expected the dropped case to be flagged, got {:?}",
            report.missing_in_current
        ));
    }
    // Round-trip through the JSON reader so the parser is covered too.
    let dir = std::env::temp_dir().join(format!("bench-compare-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let json = "{\n  \"schema\": 1,\n  \"bench\": \"selftest\",\n  \"smoke\": true,\n  \
                \"results\": [\n    {\"id\": \"hot\", \"size\": 1, \"iters\": 1, \
                \"ns_per_iter\": 1250}\n  ]\n}\n";
    let path = dir.join("BENCH_selftest.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    let reread = BenchFile::load(&path).map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).ok();
    if reread.results.len() != 1 || reread.results[0].ns_per_iter != 1250.0 {
        return Err("JSON round-trip mismatch".to_string());
    }
    println!("self-test ok: gate catches a >10% regression and a dropped case");
    Ok(())
}

fn gate(opts: &Options) -> Result<bool, String> {
    let load = |path: &Path| {
        BenchFile::load_set(path).map_err(|e| format!("loading {}: {e}", path.display()))
    };
    let baseline = load(&opts.paths[0])?;
    let current = load(&opts.paths[1])?;
    let report = compare(&baseline, &current);
    print!("{}", report.render(opts.threshold_pct));

    let regs = report.regressions(opts.threshold_pct);
    let mut failed = false;
    if !regs.is_empty() {
        println!(
            "FAIL: {} case(s) regressed more than {}%",
            regs.len(),
            opts.threshold_pct
        );
        failed = true;
    }
    if !report.missing_in_current.is_empty() && !opts.allow_missing {
        println!(
            "FAIL: {} baseline case(s) missing from the current set \
             (pass --allow-missing to permit)",
            report.missing_in_current.len()
        );
        failed = true;
    }
    if !failed {
        println!(
            "ok: {} case(s) within {}% of baseline",
            report.deltas.len(),
            opts.threshold_pct
        );
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if opts.self_test {
        self_test().map(|()| false)
    } else {
        gate(&opts)
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench-compare: {msg}");
            ExitCode::FAILURE
        }
    }
}
