//! Seeded mutation fuzzing of every parser of outside input: `.bench`
//! netlists, DIMACS with `x`-lines, DRAT+x proofs and `duckpt`
//! checkpoints.
//!
//! Each loop starts from documents the crate's own writer produced and
//! mutates them by truncation, bit flips, splices, deletions and oversized
//! numbers. No mutant may panic, a rejected one must carry a line number
//! inside the document, and an accepted `.bench`, DIMACS or `duckpt`
//! document must reach a `parse∘write` fixpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dynunlock_repro::dynunlock::{
    AttackConfig, AttackState, Checkpoint, CheckpointError, RobustConfig, Step,
};
use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::lfsr::TapSet;
use dynunlock_repro::netlist::bench;
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::netlist::NetlistError;
use dynunlock_repro::proofcheck::{certify, certify_unsat, check_text, CheckError};
use dynunlock_repro::satsolver::dimacs::{Cnf, DimacsError};
use dynunlock_repro::satsolver::{DratProof, Lit};
use dynunlock_repro::scanlock::{LockSpec, LockedScanChip};
use dynunlock_repro::sim::{Reliable, ScanChain};

/// Mutants per parser.
const MUTANTS: usize = 5_000;

/// Numbers past the widths the parsers hold: `u64`, `i64`, `u32` and the
/// DIMACS variable limit, each one past its edge.
const HUGE: [&str; 5] = [
    "18446744073709551616",
    "9223372036854775808",
    "-9223372036854775809",
    "4294967296",
    "2147483649",
];

/// A random span of at most 32 bytes inside `0..len`.
fn span(len: usize, rng: &mut Xoshiro256) -> (usize, usize) {
    let start = rng.gen_index(len + 1);
    let end = start + rng.gen_index((len - start).min(32) + 1);
    (start, end)
}

/// One to three mutations of `doc`; splices copy a span of one of
/// `donors`.
fn mutate(doc: &[u8], donors: &[Vec<u8>], rng: &mut Xoshiro256) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..1 + rng.gen_index(3) {
        match rng.gen_index(5) {
            0 => out.truncate(rng.gen_index(out.len() + 1)),
            1 => {
                if !out.is_empty() {
                    let at = rng.gen_index(out.len());
                    out[at] ^= 1 << rng.gen_index(8);
                }
            }
            2 => {
                let donor = &donors[rng.gen_index(donors.len())];
                let (start, end) = span(donor.len(), rng);
                let at = rng.gen_index(out.len() + 1);
                out.splice(at..at, donor[start..end].iter().copied());
            }
            3 => {
                let (start, end) = span(out.len(), rng);
                out.drain(start..end);
            }
            _ => {
                let starts: Vec<usize> = (0..out.len())
                    .filter(|&i| {
                        out[i].is_ascii_digit() && (i == 0 || !out[i - 1].is_ascii_digit())
                    })
                    .collect();
                if starts.is_empty() {
                    continue;
                }
                let start = starts[rng.gen_index(starts.len())];
                let end = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let huge = HUGE[rng.gen_index(HUGE.len())];
                out.splice(start..end, huge.bytes());
            }
        }
    }
    out
}

/// Feeds [`MUTANTS`] mutants of `docs` to `parse`, which returns whether
/// it accepted the input. Fails on any panic, listing the first few
/// panicking mutants, and unless some mutants were accepted and some
/// rejected.
fn fuzz(seed: u64, docs: &[Vec<u8>], parse: impl Fn(&[u8]) -> bool) {
    let mut rng = Xoshiro256::new(seed);
    let (mut accepted, mut panics) = (0, Vec::new());
    for _ in 0..MUTANTS {
        let mutant = mutate(&docs[rng.gen_index(docs.len())], docs, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| parse(&mutant))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panics.push(String::from_utf8_lossy(&mutant).into_owned()),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {MUTANTS} mutants panicked; the first:\n{:#?}",
        panics.len(),
        &panics[..panics.len().min(3)]
    );
    assert!(
        0 < accepted && accepted < MUTANTS,
        "{accepted} of {MUTANTS} mutants accepted: the mutations must both keep and break documents"
    );
}

/// Whether a reported 1-based line lies inside `text` (one past the end
/// for errors found at end of input).
fn line_inside(line: usize, text: &str) -> bool {
    (1..=text.lines().count() + 1).contains(&line)
}

#[test]
fn bench_parser_survives_mutants() {
    let docs: Vec<Vec<u8>> = [
        s208_like(),
        GeneratorConfig::new("fz", 4, 3, 6, 24)
            .with_seed(7)
            .generate(),
    ]
    .iter()
    .map(|c| bench::write(c).into_bytes())
    .collect();
    fuzz(0xBE7C, &docs, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match bench::parse("fz", &text) {
            Ok(c) => {
                let written = bench::write(&c);
                let again = bench::parse("fz", &written).expect("written netlist parses");
                assert_eq!(bench::write(&again), written, "parse∘write fixpoint");
                true
            }
            Err(NetlistError::Parse { line, .. }) => {
                assert!(line_inside(line, &text), "line {line} outside input");
                false
            }
            Err(_) => false,
        }
    });
}

fn lit(code: i64) -> Lit {
    Lit::from_dimacs(code)
}

/// Pigeonhole: 4 pigeons in 3 holes, an UNSAT formula whose proof is
/// CDCL lemmas with antecedent hints.
fn pigeonhole() -> Cnf {
    let var = |p: i64, h: i64| p * 3 + h + 1;
    let mut cnf = Cnf::new(12);
    for p in 0..4 {
        cnf.add_clause((0..3).map(|h| lit(var(p, h))).collect::<Vec<_>>());
    }
    for h in 0..3 {
        for p in 0..4 {
            for q in p + 1..4 {
                cnf.add_clause(vec![lit(-var(p, h)), lit(-var(q, h))]);
            }
        }
    }
    cnf
}

/// An inconsistent parity system (every variable occurs twice, the
/// right-hand sides sum to 1) with clauses over the same variables, so
/// the proof carries `x` lines.
fn parity_system() -> Cnf {
    let mut cnf = Cnf::new(6);
    cnf.add_xor(vec![lit(1), lit(2), lit(3)], true);
    cnf.add_xor(vec![lit(3), lit(4), lit(5)], false);
    cnf.add_xor(vec![lit(5), lit(6), lit(1)], true);
    cnf.add_xor(vec![lit(2), lit(4), lit(6)], true);
    cnf.add_clause(vec![lit(1), lit(-4)]);
    cnf.add_clause(vec![lit(-2), lit(5), lit(6)]);
    cnf
}

#[test]
fn dimacs_parser_survives_mutants() {
    let mut mixed = parity_system();
    mixed.add_xor(Vec::<Lit>::new(), true);
    mixed.add_clause(Vec::<Lit>::new());
    let docs: Vec<Vec<u8>> = [pigeonhole(), parity_system(), mixed]
        .iter()
        .map(|cnf| cnf.to_dimacs().into_bytes())
        .collect();
    fuzz(0xD1AC, &docs, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match Cnf::parse(&text) {
            Ok(cnf) => {
                assert_eq!(
                    Cnf::parse(&cnf.to_dimacs()).as_ref(),
                    Ok(&cnf),
                    "parse∘write fixpoint"
                );
                true
            }
            Err(DimacsError { line, .. }) => {
                assert!(line_inside(line, &text), "line {line} outside input");
                false
            }
        }
    });
}

/// A refutation written through [`DratProof`] that deletes an input and
/// a lemma by id: the lemma [1 2] resolves the first two inputs, the unit
/// 2 follows from it, and the refutation needs neither deleted clause.
fn proof_with_deletions() -> (Cnf, String) {
    let mut p = DratProof::new(3);
    for c in [[1, 2, 3], [1, 2, -3]] {
        p.input_clause(&c.map(lit));
    }
    for c in [[-1, 2], [1, -2], [-1, -2]] {
        p.input_clause(&c.map(lit));
    }
    let lemma = p.add_clause(&[lit(1), lit(2)], &[-1, -2]);
    let unit = p.add_clause(&[lit(2)], &[lemma, -3]);
    p.delete_clause(-1);
    p.delete_clause(lemma);
    p.add_clause(&[], &[unit, -4, -5]);
    p.into_parts()
}

#[test]
fn proof_checker_survives_mutants() {
    let (formula, proof) = proof_with_deletions();
    let mut certs: Vec<_> = [pigeonhole(), parity_system()]
        .iter()
        .map(|cnf| certify_unsat(cnf).expect("UNSAT formula certifies"))
        .collect();
    certs.push(certify(formula, proof).expect("the hand-written proof checks"));
    assert!(certs[1].stats.xor_steps > 0, "the parity proof has x lines");
    assert_eq!(certs[2].stats.deletions_applied, 2, "and this one d lines");
    let docs: Vec<Vec<u8>> = certs.iter().map(|c| c.proof.clone().into_bytes()).collect();
    // A mutant of any proof is checked against every formula.
    fuzz(0xD2A7, &docs, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        let mut verified = false;
        for cert in &certs {
            match check_text(&cert.formula, &text) {
                Ok(_) => verified = true,
                Err(CheckError::Parse { line, .. }) => {
                    assert!(line_inside(line, &text), "line {line} outside input");
                }
                Err(_) => {}
            }
        }
        verified
    });
}

/// A running checkpoint after the first DIP and the converged one of a
/// small 12-bit-key lock of s208.
fn checkpoints() -> Vec<Vec<u8>> {
    let circuit = s208_like();
    let chain = ScanChain::natural(circuit.num_dffs());
    let mut rng = Xoshiro256::new(0xC4E7);
    let spec = LockSpec::random(TapSet::maximal(12).unwrap(), chain.len(), 4, &mut rng);
    let secret = spec.random_seed(&mut rng);
    let mut oracle = Reliable(LockedScanChip::new(
        &circuit,
        chain.clone(),
        spec.clone(),
        secret,
    ));
    let cfg = RobustConfig::strict(AttackConfig::default());
    let mut state = AttackState::new(&circuit, &chain, &spec, cfg);
    let mut docs = Vec::new();
    loop {
        match state.step(&mut oracle) {
            Step::Dip if docs.is_empty() => docs.push(state.checkpoint().to_bytes()),
            Step::Dip => {}
            Step::Converged => break,
            other => panic!("unexpected step outcome: {other:?}"),
        }
    }
    docs.push(state.checkpoint().to_bytes());
    docs
}

#[test]
fn checkpoint_parser_survives_mutants() {
    let docs = checkpoints();
    assert_eq!(docs.len(), 2, "the lock needs at least one DIP");
    fuzz(0xC4E7, &docs, |bytes| match Checkpoint::from_bytes(bytes) {
        Ok(ckpt) => {
            assert_eq!(
                Checkpoint::from_bytes(&ckpt.to_bytes()).as_ref(),
                Ok(&ckpt),
                "parse∘write fixpoint"
            );
            true
        }
        Err(CheckpointError::Malformed { line, .. }) => {
            let text = String::from_utf8_lossy(bytes);
            assert!(line_inside(line, &text), "line {line} outside input");
            false
        }
        Err(other) => panic!("parsing reported a resume error: {other}"),
    });
}
