//! UNSAT-proof time vs. key width, native GF(2) xor vs. Tseitin.
//!
//! The instance family mirrors the attack's convergence proof: two
//! symbolic seed copies, a full-rank bank of parity constraints forcing
//! the copies to agree on every mask bit, and a miter clause demanding
//! they differ somewhere. Proving UNSAT means deriving `s = t` from the
//! parity bank — one elimination pass for the native engine, an
//! exponential resolution proof for the Tseitin expansion. This is the
//! cliff that capped the old harness at 20-bit keys.
//!
//! Emits `BENCH_xor_solve.json`. `BENCH_SMOKE=1` reduces the sweep. The
//! Tseitin engine is capped (printed below) — past the cap a single proof
//! runs for minutes to hours.

use bench::{sized, Reporter};
use cnf::{Encoder, XorMode};
use gf2::{BitMatrix, BitVec, Rng64, Xoshiro256};
use satsolver::{ProofStats, SolveResult};

/// Key widths swept (the harness profiles live at 64 and 80).
const WIDTHS: [usize; 7] = [8, 16, 24, 32, 48, 64, 80];

/// Reduced sweep for CI smoke runs.
const SMOKE_WIDTHS: [usize; 4] = [8, 16, 64, 80];

/// Widest key the Tseitin lowering is asked to prove. Resolution blows up
/// exponentially on this family; the cap keeps the bench bounded.
const TSEITIN_CAP: usize = 28;

/// Smoke-run Tseitin cap.
const SMOKE_TSEITIN_CAP: usize = 16;

/// A full-rank bank of `w` random parity rows over `w` variables.
fn full_rank_rows(w: usize, rng: &mut Xoshiro256) -> Vec<BitVec> {
    loop {
        let rows: Vec<BitVec> = (0..w)
            .map(|_| BitVec::from_bools((0..w).map(|_| rng.gen_bool())))
            .collect();
        if BitMatrix::from_rows(rows.clone()).rank() == w {
            return rows;
        }
    }
}

/// Builds the two-copy miter and proves it UNSAT under `mode`. With
/// `log` set, a DRAT+xor proof is streamed during the solve; returns the
/// emitted proof's size (zero stats and bytes when logging is off).
fn prove_unsat(mode: XorMode, rows: &[BitVec], log: bool) -> (ProofStats, usize) {
    let w = rows.len();
    let mut enc = Encoder::with_mode(mode);
    if log {
        enc.solver_mut().enable_proof();
    }
    let s = enc.fresh_many(w);
    let t = enc.fresh_many(w);
    let diff: Vec<_> = (0..w).map(|j| enc.xor2(s[j], t[j])).collect();
    enc.assert_clause(&diff);
    for row in rows {
        let lits: Vec<_> = row.iter_ones().flat_map(|i| [s[i], t[i]]).collect();
        enc.assert_xor(&lits, false);
    }
    assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    enc.solver()
        .proof()
        .map_or((ProofStats::default(), 0), |p| (*p.stats(), p.text().len()))
}

fn main() {
    let mut rep = Reporter::new("xor_solve");
    let widths: &[usize] = sized(&WIDTHS, &SMOKE_WIDTHS);
    let cap = *sized(&TSEITIN_CAP, &SMOKE_TSEITIN_CAP);
    println!("UNSAT-proof sweep over key widths {widths:?}");
    println!("tseitin capped at {cap} bits — resolution blows up past it (DESIGN.md §6)");

    for &w in widths {
        let mut rng = Xoshiro256::new(w as u64);
        let rows = full_rank_rows(w, &mut rng);

        let id = format!("xor_solve/native_w{w}");
        rep.case(&id, w as u64, sized(5, 2), || {
            prove_unsat(XorMode::Native, &rows, false);
        });
        rep.add_metric(&id, "key_width", w as f64);

        // The same native proof with DRAT+xor logging streaming to an
        // in-memory certificate: the delta against the row above is the
        // full cost of certified solving (DESIGN.md §7).
        let id = format!("xor_solve/native_logged_w{w}");
        let mut proof_size = (ProofStats::default(), 0);
        rep.case(&id, w as u64, sized(5, 2), || {
            proof_size = prove_unsat(XorMode::Native, &rows, true);
        });
        rep.add_metric(&id, "key_width", w as f64);
        rep.add_metric(&id, "proof_steps", proof_size.0.steps() as f64);
        rep.add_metric(&id, "proof_bytes", proof_size.1 as f64);

        if w <= cap {
            let id = format!("xor_solve/tseitin_w{w}");
            rep.case(&id, w as u64, sized(3, 2), || {
                prove_unsat(XorMode::Tseitin, &rows, false);
            });
            rep.add_metric(&id, "key_width", w as f64);
        } else {
            println!("  skipping tseitin at w={w} (cap {cap})");
        }
    }

    rep.finish();
}
