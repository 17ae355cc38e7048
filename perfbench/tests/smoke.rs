//! Tiny-size smoke of every workload: each metric `BENCHMARK.json` names is
//! emitted, tiny `sweep` and `assured` unlock everything, counts repeat
//! for a repeated seed, and the held-out check rejects a wrong seed.

use perfbench::attack::held_out_check;
use perfbench::workload::{build_all, Size, Workload};
use perfbench::{run, Options, Report};

/// The metric names listed under `section` in the repository's
/// `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    tiny_seed(workload, trace, 1)
}

fn tiny_seed(workload: Workload, trace: bool, seed: u64) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
    })
}

#[test]
fn every_contract_metric_is_emitted_and_correct() {
    let end_to_end = contract_names("end_to_end");
    let per_layer = contract_names("per_layer");
    assert!(end_to_end.len() >= 5 && per_layer.len() >= 30);
    for w in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let r = tiny(w, trace);
            assert!(r.correct, "{} trace={trace}: {:?}", w.name(), r.problems);
            assert_eq!(r.failed, 0);
            let emitted: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            assert_eq!(&emitted, names, "{} trace={trace}", w.name());
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            let line = r.json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            if !trace && w != Workload::Cliff {
                assert_eq!(r.metric("unlocked_frac"), Some(1.0), "{}", w.name());
            }
            if trace {
                assert!(r.spans.contains("\"name\": \"attack\""));
                assert!(r.metric("trace.accounted_frac").unwrap() > 0.5);
            }
        }
    }
}

#[test]
fn assured_exercises_checkpoints_and_certificates() {
    // The round trip comes after the fourth DIP, or at convergence when an
    // attack needs fewer; these tiny seeds take both paths.
    let (mut mid_run, mut at_convergence) = (false, false);
    for seed in 1..=4 {
        let r = tiny_seed(Workload::Assured, true, seed);
        assert!(r.correct, "seed {seed}: {:?}", r.problems);
        for name in [
            "robust.ckpt_bytes",
            "robust.resume_ns",
            "proofcheck.proof_steps",
            "proofcheck.certify_ns",
            "proofcheck.check_ns",
        ] {
            assert!(r.metric(name).unwrap() > 0.0, "seed {seed}: {name}");
        }
        let mut after_resume = r
            .spans
            .lines()
            .skip_while(|l| !l.contains("\"name\": \"resume\""))
            .skip(1);
        if after_resume.any(|l| l.contains("\"name\": \"step\"")) {
            mid_run = true;
        } else {
            at_convergence = true;
        }
    }
    assert!(mid_run && at_convergence);
}

#[test]
fn a_repeated_seed_repeats_every_count() {
    let digest = |r: &Report| {
        let at = r.meta.find("counts_digest").expect("digest in meta");
        r.meta[at..].to_string()
    };
    for w in Workload::ALL {
        let (a, b) = (tiny(w, false), tiny(w, false));
        assert_eq!(digest(&a), digest(&b), "{}", w.name());
        assert_eq!(a.metric("oracle_queries"), b.metric("oracle_queries"));
    }
}

#[test]
fn held_out_check_rejects_a_seed_with_one_flipped_bit() {
    let plan = Workload::Sweep.plan(5, Size::Tiny);
    let (locks, _) = build_all(&plan);
    for locked in &locks {
        assert!(held_out_check(locked, &locked.secret));
        // A bit that reaches an unload mask changes scan-out on every
        // session, whatever the circuit does.
        let masks = dynunlock::session_masks(&locked.lock, locked.chain.len(), 1);
        let bit = (0..locked.secret.len())
            .find(|&b| masks.beta.iter().any(|row| row.get(b)))
            .expect("some key bit reaches the unload mask");
        let mut wrong = locked.secret.clone();
        wrong.flip(bit);
        assert!(!held_out_check(locked, &wrong), "{}", locked.spec.label());
    }
}
