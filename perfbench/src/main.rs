//! `perfbench --workload <cliff|sweep|assured> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `meta` line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
//! spans of the first traced pass go to `.perfbench/trace-<workload>-<seed>.jsonl`
//! and the self-time breakdown to stderr.

use std::process::ExitCode;

use perfbench::workload::{Size, Workload};
use perfbench::Options;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <cliff|sweep|assured> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&opts);
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    if opts.trace {
        eprint!("{}", report.breakdown);
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &report.spans))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{{\"meta\": {}}}", report.meta);
    println!("{}", report.json());
    ExitCode::SUCCESS
}
