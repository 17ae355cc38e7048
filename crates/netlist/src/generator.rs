//! Seeded synthetic sequential-circuit generation.
//!
//! The repository does not ship the original ISCAS-89 / ITC-99 netlists;
//! instead it generates random-but-structured sequential circuits whose
//! interface sizes (PIs, POs, flops, gate count) match the paper's
//! post-synthesis figures (see [`crate::profiles`]). Everything the attack
//! measures — chain length, key-gate placement, LFSR linearity, SAT
//! iteration behaviour — depends only on those parameters, so the
//! substitution preserves the experiment's shape (DESIGN.md §4).
//!
//! Generation is deterministic: the same [`GeneratorConfig`] (including
//! `seed`) always yields the same netlist, bit for bit.

use gf2::{Rng64, Xoshiro256};

use crate::{Circuit, CircuitBuilder, GateKind, NetId};

/// Parameters of a synthetic sequential circuit.
///
/// # Example
///
/// ```
/// use netlist::generator::GeneratorConfig;
///
/// let c = GeneratorConfig::new("demo", 8, 4, 16, 60).with_seed(7).generate();
/// assert_eq!(c.num_dffs(), 16);
/// assert_eq!(c.inputs().len(), 8);
/// assert_eq!(c.outputs().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs (≥ 1).
    pub num_inputs: usize,
    /// Number of primary outputs (≥ 1).
    pub num_outputs: usize,
    /// Number of D flip-flops.
    pub num_dffs: usize,
    /// Number of combinational gates; raised internally if too small to
    /// connect every input and flop.
    pub num_gates: usize,
    /// Maximum gate fan-in (≥ 2).
    pub max_fanin: usize,
    /// PRNG seed; same seed, same circuit.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Creates a config with fan-in 4 and seed 0.
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        num_dffs: usize,
        num_gates: usize,
    ) -> Self {
        GeneratorConfig {
            name: name.into(),
            num_inputs,
            num_outputs,
            num_dffs,
            num_gates,
            max_fanin: 4,
            seed: 0,
        }
    }

    /// Sets the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the circuit.
    ///
    /// Structural guarantees, which the tests assert:
    ///
    /// * every primary input and every flop output feeds at least one gate;
    /// * every flop's D input is a gate output (states depend on logic);
    /// * the circuit passes full validation (acyclic, single drivers);
    /// * deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs == 0` or `num_outputs == 0`.
    pub fn generate(&self) -> Circuit {
        assert!(self.num_inputs > 0, "need at least one primary input");
        assert!(self.num_outputs > 0, "need at least one primary output");
        let mut rng = Xoshiro256::new(self.seed);
        let mut b = CircuitBuilder::new(self.name.clone());

        let pis: Vec<NetId> = (0..self.num_inputs)
            .map(|i| b.input(format!("pi{i}")))
            .collect();
        let qs: Vec<NetId> = (0..self.num_dffs)
            .map(|i| b.net(format!("ff{i}")))
            .collect();

        // Sources every gate may read. Grows as gates are created.
        let mut pool: Vec<NetId> = pis.iter().chain(qs.iter()).copied().collect();

        // Make sure every source is consumed: the first num_dffs +
        // num_inputs gates each take one designated source as their first
        // input.
        let must_use: Vec<NetId> = qs.iter().chain(pis.iter()).copied().collect();
        let num_gates = self.num_gates.max(must_use.len() + self.num_outputs);

        let mut gate_outputs: Vec<NetId> = Vec::with_capacity(num_gates);
        for gi in 0..num_gates {
            let kind = sample_kind(&mut rng);
            let fanin = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                // 2 + geometric-ish tail up to max_fanin
                let mut f = 2;
                while f < self.max_fanin && rng.gen_range(3) == 0 {
                    f += 1;
                }
                f
            };
            let mut inputs = Vec::with_capacity(fanin);
            if gi < must_use.len() {
                inputs.push(must_use[gi]);
            }
            while inputs.len() < fanin {
                // Recency bias: half the draws come from the most recent
                // quarter of the pool, giving non-trivial logic depth.
                let idx = if rng.gen_bool() && pool.len() > 4 {
                    pool.len() - 1 - rng.gen_index(pool.len() / 4)
                } else {
                    rng.gen_index(pool.len())
                };
                let cand = pool[idx];
                if !inputs.contains(&cand) {
                    inputs.push(cand);
                }
                // When the pool is tiny, duplicates are unavoidable; accept
                // a reduced fan-in instead of looping forever.
                if pool.len() <= fanin {
                    break;
                }
            }
            let kind = if inputs.len() == 1 && !kind.arity_ok(1) {
                GateKind::Buf
            } else {
                kind
            };
            let out = b.gate(kind, &inputs, format!("g{gi}"));
            gate_outputs.push(out);
            pool.push(out);
        }

        // Flop D inputs: draw from the later half of gate outputs so state
        // depends on real logic, not directly on a PI.
        let half = gate_outputs.len() / 2;
        for (i, &q) in qs.iter().enumerate() {
            let d = gate_outputs[half + rng.gen_index(gate_outputs.len() - half)];
            b.dff_into(d, q);
            let _ = i;
        }

        // Primary outputs: distinct late gate outputs where possible.
        let mut po_candidates: Vec<NetId> = gate_outputs.clone();
        rng.shuffle(&mut po_candidates);
        for i in 0..self.num_outputs {
            let net = po_candidates[i % po_candidates.len()];
            // `output` is idempotent; when num_outputs exceeds distinct
            // candidates we fall back to XORing two earlier picks to keep
            // the count exact.
            if i < po_candidates.len() {
                b.output(net);
            } else {
                let a = po_candidates[rng.gen_index(po_candidates.len())];
                let c = po_candidates[rng.gen_index(po_candidates.len())];
                let extra = b.gate(GateKind::Xor, &[a, c], format!("po_pad{i}"));
                b.output(extra);
            }
        }

        b.finish()
            .expect("generator construction cannot violate invariants")
    }
}

fn sample_kind<R: Rng64>(rng: &mut R) -> GateKind {
    // Weighted mix approximating post-synthesis ISCAS-89 gate profiles.
    const TABLE: [(GateKind, u64); 8] = [
        (GateKind::Nand, 25),
        (GateKind::Nor, 14),
        (GateKind::And, 15),
        (GateKind::Or, 14),
        (GateKind::Xor, 8),
        (GateKind::Xnor, 4),
        (GateKind::Not, 15),
        (GateKind::Buf, 5),
    ];
    let total: u64 = TABLE.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(total);
    for (kind, w) in TABLE {
        if pick < w {
            return kind;
        }
        pick -= w;
    }
    unreachable!("weights cover the sampled range")
}

/// Hand-written 8-flop circuit standing in for ISCAS-89 s208 in the
/// figure-1/figure-4 walkthroughs (the real s208 is a fractional divider
/// with 8 flops; only the flop count and interface shape matter for the
/// demonstration).
pub fn s208_like() -> Circuit {
    let mut b = CircuitBuilder::new("s208-like");
    let pis: Vec<NetId> = (0..10).map(|i| b.input(format!("pi{i}"))).collect();
    let qs: Vec<NetId> = (0..8).map(|i| b.net(format!("ff{i}"))).collect();
    // next-state: a twisted ring with input injection
    let mut ds = Vec::new();
    for i in 0..8 {
        let prev = qs[(i + 7) % 8];
        let inj = pis[i % 10];
        let t = b.gate(GateKind::Xor, &[prev, inj], format!("t{i}"));
        let u = b.gate(GateKind::Nand, &[t, pis[(i + 3) % 10]], format!("u{i}"));
        let d = b.gate(GateKind::Xor, &[u, qs[i]], format!("d{i}"));
        ds.push(d);
    }
    for (i, &d) in ds.iter().enumerate() {
        b.dff_into(d, qs[i]);
    }
    let o1 = b.gate(GateKind::Nor, &[qs[0], qs[3], qs[7]], "o1");
    b.output(o1);
    b.finish().expect("s208_like is statically correct")
}

/// An `n`-bit shift register (`q0 <- in`, `q{i} <- q{i-1}`), the simplest
/// possible scan-like structure; handy in unit tests.
pub fn shift_register(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(format!("shift{n}"));
    let din = b.input("din");
    let mut prev = din;
    for i in 0..n {
        prev = b.dff(format!("q{i}"), prev);
    }
    b.output(prev);
    b.finish().expect("shift register is statically correct")
}

/// An `n`-bit synchronous counter with ripple-carry increment logic;
/// exercises XOR/AND chains in tests.
pub fn counter(n: usize) -> Circuit {
    assert!(n >= 1, "counter needs at least one bit");
    let mut b = CircuitBuilder::new(format!("counter{n}"));
    let en = b.input("en");
    let qs: Vec<NetId> = (0..n).map(|i| b.net(format!("q{i}"))).collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let d = b.gate(GateKind::Xor, &[q, carry], format!("d{i}"));
        b.dff_into(d, q);
        if i + 1 < n {
            carry = b.gate(GateKind::And, &[carry, q], format!("c{i}"));
        }
    }
    let msb = qs[n - 1];
    b.output(msb);
    b.finish().expect("counter is statically correct")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GeneratorConfig::new("d", 6, 3, 10, 50).with_seed(11);
        let c1 = cfg.generate();
        let c2 = cfg.generate();
        assert_eq!(crate::bench::write(&c1), crate::bench::write(&c2));
        let c3 = cfg.clone().with_seed(12).generate();
        assert_ne!(crate::bench::write(&c1), crate::bench::write(&c3));
    }

    #[test]
    fn interface_sizes_match_config() {
        let c = GeneratorConfig::new("i", 9, 5, 17, 80)
            .with_seed(3)
            .generate();
        assert_eq!(c.inputs().len(), 9);
        assert_eq!(c.outputs().len(), 5);
        assert_eq!(c.num_dffs(), 17);
        assert!(c.num_gates() >= 80);
    }

    #[test]
    fn all_sources_are_consumed() {
        let c = GeneratorConfig::new("s", 7, 2, 12, 60)
            .with_seed(5)
            .generate();
        let mut used = vec![false; c.num_nets()];
        for g in c.gates() {
            for inp in &g.inputs {
                used[inp.index()] = true;
            }
        }
        for dff in c.dffs() {
            used[dff.d.index()] = true;
        }
        for &pi in c.inputs() {
            assert!(used[pi.index()], "unused primary input");
        }
        for dff in c.dffs() {
            assert!(used[dff.q.index()], "unused flop output");
        }
    }

    #[test]
    fn flop_inputs_are_gate_outputs() {
        let c = GeneratorConfig::new("f", 4, 2, 8, 40)
            .with_seed(9)
            .generate();
        for dff in c.dffs() {
            assert!(c.driving_gate(dff.d).is_some(), "D input must be logic");
        }
    }

    #[test]
    fn generated_circuits_validate() {
        for seed in 0..5 {
            let c = GeneratorConfig::new("v", 5, 4, 20, 100)
                .with_seed(seed)
                .generate();
            c.validate().expect("generated circuit must validate");
        }
    }

    #[test]
    fn gate_count_raised_when_too_small() {
        let c = GeneratorConfig::new("r", 10, 2, 10, 1)
            .with_seed(0)
            .generate();
        assert!(c.num_gates() >= 20, "gates raised to cover sources");
    }

    #[test]
    fn roundtrips_through_bench_format() {
        let c = GeneratorConfig::new("rt", 6, 3, 9, 45)
            .with_seed(2)
            .generate();
        let text = crate::bench::write(&c);
        let c2 = crate::bench::parse("rt", &text).unwrap();
        assert_eq!(c.num_gates(), c2.num_gates());
        assert_eq!(c.num_dffs(), c2.num_dffs());
    }

    #[test]
    fn s208_like_shape() {
        let c = s208_like();
        assert_eq!(c.num_dffs(), 8);
        assert_eq!(c.inputs().len(), 10);
        assert_eq!(c.outputs().len(), 1);
        c.validate().unwrap();
    }

    #[test]
    fn shift_register_shape() {
        let c = shift_register(5);
        assert_eq!(c.num_dffs(), 5);
        assert_eq!(c.num_gates(), 0);
        c.validate().unwrap();
    }

    #[test]
    fn counter_shape() {
        let c = counter(4);
        assert_eq!(c.num_dffs(), 4);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one primary input")]
    fn zero_inputs_panics() {
        GeneratorConfig::new("z", 0, 1, 1, 10).generate();
    }
}
