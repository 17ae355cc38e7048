//! Standalone DRAT+xor proof checker.
//!
//! ```text
//! drat-check <formula.cnf> <proof.drat>
//! ```
//!
//! Exit status: `0` when the proof verifies as a refutation of the
//! formula, `1` when it does not, `2` on usage or I/O errors and on a
//! formula that does not parse.

use std::process::ExitCode;
use std::time::Instant;

use proofcheck::check_text;
use satsolver::dimacs::Cnf;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [formula_path, proof_path] = args.as_slice() else {
        eprintln!("usage: drat-check <formula.cnf> <proof.drat>");
        return ExitCode::from(2);
    };
    let formula_text = match std::fs::read_to_string(formula_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("drat-check: {formula_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let proof_text = match std::fs::read_to_string(proof_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("drat-check: {proof_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let cnf = match Cnf::parse(&formula_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("drat-check: {formula_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let start = Instant::now();
    match check_text(&cnf, &proof_text) {
        Ok(report) => {
            let elapsed = start.elapsed();
            println!(
                "VERIFIED: {} vars, {} clauses, {} xors; \
                 {} RUP additions ({} hinted, {} propagated), \
                 {} xor steps ({} units substituted), \
                 {} deletions applied; {:.3} ms",
                cnf.num_vars,
                cnf.clauses.len(),
                cnf.xors.len(),
                report.rup_additions,
                report.hinted_additions(),
                report.propagated_additions,
                report.xor_steps,
                report.xor_units_checked,
                report.deletions_applied,
                elapsed.as_secs_f64() * 1e3,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("drat-check: NOT VERIFIED: {e}");
            ExitCode::from(1)
        }
    }
}
