//! Certificate corpus: generate UNSAT instances, certify each with a
//! logged solver run, verify the emitted proof, and write the
//! `.cnf`/`.drat` pairs to disk for external re-checking by `drat-check`
//! (the CI `certify` job does exactly that).
//!
//! ```text
//! cert-corpus [out-dir]      # default: $CERT_CORPUS_DIR or target/cert-corpus
//! ```
//!
//! Exits nonzero if any instance fails to certify.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use proofcheck::certify_unsat;
use satsolver::dimacs::Cnf;
use satsolver::Lit;

/// `holes + 1` pigeons into `holes` holes: pure-CNF UNSAT.
fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new(pigeons * holes);
    let var = |p: usize, h: usize| Lit::from_dimacs((p * holes + h + 1) as i64);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    cnf
}

/// Three xor rows sharing parity variables in a triangle, each carrying
/// a body of `k` clause-equalized variables (`k` even, so every body
/// has even parity). The rows' GF(2) sum makes the parity variables
/// cancel and says the bodies' joint parity is odd — but the equality
/// chains force it even. The xor engine cannot see the equalities at
/// add time, so the refutation needs search and xor row reasons.
fn xor_triangle(k: usize) -> Cnf {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "even body keeps body parity zero"
    );
    let mut cnf = Cnf::new(3 * k + 3);
    let body = |seg: usize, j: usize| Lit::from_dimacs((seg * k + j + 1) as i64);
    let parity = |i: usize| Lit::from_dimacs((3 * k + i % 3 + 1) as i64);
    for seg in 0..3 {
        let mut row: Vec<Lit> = (0..k).map(|j| body(seg, j)).collect();
        row.push(parity(seg));
        row.push(parity(seg + 1));
        cnf.add_xor(row, true);
        for j in 0..k - 1 {
            let (a, b) = (body(seg, j), body(seg, j + 1));
            cnf.add_clause(vec![a, !b]);
            cnf.add_clause(vec![!a, b]);
        }
    }
    cnf
}

/// Two wide parity rows that disagree only after unit substitution.
fn wide_disagreement(width: usize) -> Cnf {
    let mut cnf = Cnf::new(width + 2);
    let sel1 = Lit::from_dimacs((width + 1) as i64);
    let sel2 = Lit::from_dimacs((width + 2) as i64);
    let body: Vec<Lit> = (1..=width).map(|i| Lit::from_dimacs(i as i64)).collect();
    let mut row1 = body.clone();
    row1.push(sel1);
    let mut row2 = body;
    row2.push(!sel2);
    cnf.add_xor(row1, true);
    cnf.add_xor(row2, true);
    cnf.add_clause(vec![sel1]);
    cnf.add_clause(vec![sel2]);
    cnf
}

fn main() -> ExitCode {
    let out_dir: PathBuf = std::env::args().nth(1).map_or_else(
        || {
            std::env::var_os("CERT_CORPUS_DIR")
                .map_or_else(|| PathBuf::from("target/cert-corpus"), PathBuf::from)
        },
        PathBuf::from,
    );
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cert-corpus: {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let corpus: Vec<(&str, Cnf)> = vec![
        ("php4", pigeonhole(4)),
        ("php5", pigeonhole(5)),
        ("xor-tri2", xor_triangle(2)),
        ("xor-tri8", xor_triangle(8)),
        ("xor-wide24", wide_disagreement(24)),
        ("xor-wide63", wide_disagreement(63)),
    ];

    println!(
        "{:<12} {:>6} {:>7} {:>6} {:>8} {:>6} {:>9} {:>9}",
        "instance", "vars", "clauses", "xors", "steps", "x-steps", "bytes", "check-ms"
    );
    let mut failed = false;
    for (name, cnf) in &corpus {
        let start = Instant::now();
        match certify_unsat(cnf) {
            Ok(cert) => {
                let elapsed = start.elapsed();
                let cnf_path = out_dir.join(format!("{name}.cnf"));
                let drat_path = out_dir.join(format!("{name}.drat"));
                let io = std::fs::write(&cnf_path, cnf.to_dimacs())
                    .and_then(|()| std::fs::write(&drat_path, &cert.proof));
                if let Err(e) = io {
                    eprintln!("cert-corpus: writing {name}: {e}");
                    return ExitCode::from(2);
                }
                println!(
                    "{:<12} {:>6} {:>7} {:>6} {:>8} {:>6} {:>9} {:>9.3}",
                    name,
                    cnf.num_vars,
                    cnf.clauses.len(),
                    cnf.xors.len(),
                    cert.stats.steps(),
                    cert.stats.xor_steps,
                    cert.proof.len(),
                    elapsed.as_secs_f64() * 1e3,
                );
            }
            Err(e) => {
                eprintln!("cert-corpus: {name}: FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "all {} certificates verified -> {}",
            corpus.len(),
            out_dir.display()
        );
        ExitCode::SUCCESS
    }
}
