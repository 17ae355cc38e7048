//! End-to-end tests of the `satsolver` crate against the rest of the
//! stack: canonical UNSAT/SAT instance families, model verification
//! through the DIMACS layer, and a Tseitin encoding of a real netlist
//! cross-checked against `sim::Evaluator`.

use dynunlock_repro::netlist::generator::s208_like;
use dynunlock_repro::netlist::{Circuit, CircuitBuilder, GateKind};
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Lit, SolveResult, Solver, Var};
use dynunlock_repro::sim::Evaluator;
use gf2::{Rng64, SplitMix64, Xoshiro256};

/// A random 3-SAT instance with a *planted* satisfying assignment: every
/// clause is forced to agree with a hidden random model in at least one
/// literal, so the instance is SAT by construction.
fn planted_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> Cnf {
    assert!(num_vars >= 3);
    let mut rng = Xoshiro256::new(seed);
    let model: Vec<bool> = (0..num_vars).map(|_| rng.next_u64() & 1 == 1).collect();
    let mut cnf = Cnf::new(num_vars);
    while cnf.clauses.len() < num_clauses {
        let mut vars = [0usize; 3];
        vars[0] = rng.next_u64() as usize % num_vars;
        while {
            vars[1] = rng.next_u64() as usize % num_vars;
            vars[1] == vars[0]
        } {}
        while {
            vars[2] = rng.next_u64() as usize % num_vars;
            vars[2] == vars[0] || vars[2] == vars[1]
        } {}
        let mut clause: Vec<i64> = vars
            .iter()
            .map(|&v| {
                let positive = rng.next_u64() & 1 == 1;
                if positive {
                    (v + 1) as i64
                } else {
                    -((v + 1) as i64)
                }
            })
            .collect();
        // Plant: flip one literal's sign if none agrees with the model.
        if !clause
            .iter()
            .any(|&code| model[code.unsigned_abs() as usize - 1] == (code > 0))
        {
            let k = rng.next_u64() as usize % 3;
            clause[k] = -clause[k];
        }
        cnf.add_clause(
            clause
                .iter()
                .map(|&code| Lit::from_dimacs(code))
                .collect::<Vec<Lit>>(),
        );
    }
    cnf
}

/// The pigeonhole principle instance `PHP(pigeons, holes)`: UNSAT whenever
/// `pigeons > holes`, and a classic resolution-hard driver for clause
/// learning.
fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
    let lit = |p: usize, h: usize, positive: bool| {
        let code = (p * holes + h + 1) as i64;
        Lit::from_dimacs(if positive { code } else { -code })
    };
    let mut cnf = Cnf::new(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| lit(p, h, true)).collect::<Vec<Lit>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![lit(p1, h, false), lit(p2, h, false)]);
            }
        }
    }
    cnf
}

/// Extracts the model as a plain bool vector (all variables are defaulted
/// on a `Sat` answer).
fn model_of(s: &Solver, vars: &[Var]) -> Vec<bool> {
    vars.iter()
        .map(|&v| s.value(v).expect("model is total after Sat"))
        .collect()
}

#[test]
fn pigeonhole_is_unsat_with_real_search() {
    let cnf = pigeonhole(7, 6);
    let (mut s, _) = cnf.to_solver();
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = *s.stats();
    assert!(st.conflicts > 0, "PHP(7,6) must require learning: {st:?}");
    assert!(st.learnt_clauses > 0);
}

#[test]
fn pigeonhole_boundary_is_sat_and_model_checks() {
    let cnf = pigeonhole(6, 6);
    let (mut s, vars) = cnf.to_solver();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(cnf.eval(&model_of(&s, &vars)), "model violates a clause");
}

#[test]
fn planted_3sat_is_sat_and_model_checks() {
    for seed in 0..5 {
        let cnf = planted_3sat(120, 480, seed);
        let (mut s, vars) = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat, "planted instance, seed {seed}");
        assert!(
            cnf.eval(&model_of(&s, &vars)),
            "model violates a clause (seed {seed})"
        );
    }
}

#[test]
fn dimacs_round_trip_preserves_solver_answers() {
    let cnf = planted_3sat(40, 160, 9);
    let reparsed = Cnf::parse(&cnf.to_dimacs()).expect("own output parses");
    let (mut s, vars) = reparsed.to_solver();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(cnf.eval(&model_of(&s, &vars)));
}

// ---------------------------------------------------------------------
// Circuit-derived CNF vs the gate-level simulator
// ---------------------------------------------------------------------

/// Tseitin-encodes `circuit` into `solver`, one variable per net.
/// Flip-flop outputs (state) and primary inputs are left unconstrained.
fn tseitin(circuit: &Circuit, solver: &mut Solver) -> Vec<Var> {
    let vars: Vec<Var> = (0..circuit.num_nets()).map(|_| solver.new_var()).collect();
    let pos = |n: dynunlock_repro::netlist::NetId| Lit::positive(vars[n.index()]);
    let neg = |n: dynunlock_repro::netlist::NetId| Lit::negative(vars[n.index()]);

    for g in circuit.gates() {
        let o = g.output;
        let ins = &g.inputs;
        match g.kind {
            GateKind::Buf => {
                solver.add_clause(&[neg(o), pos(ins[0])]);
                solver.add_clause(&[pos(o), neg(ins[0])]);
            }
            GateKind::Not => {
                solver.add_clause(&[neg(o), neg(ins[0])]);
                solver.add_clause(&[pos(o), pos(ins[0])]);
            }
            GateKind::And | GateKind::Nand => {
                // aux ≡ AND(ins); for NAND the output literal is inverted.
                let (o_true, o_false) = if g.kind == GateKind::And {
                    (pos(o), neg(o))
                } else {
                    (neg(o), pos(o))
                };
                let mut long: Vec<Lit> = vec![o_true];
                for &i in ins {
                    solver.add_clause(&[o_false, pos(i)]);
                    long.push(neg(i));
                }
                solver.add_clause(&long);
            }
            GateKind::Or | GateKind::Nor => {
                let (o_true, o_false) = if g.kind == GateKind::Or {
                    (pos(o), neg(o))
                } else {
                    (neg(o), pos(o))
                };
                let mut long: Vec<Lit> = vec![o_false];
                for &i in ins {
                    solver.add_clause(&[o_true, neg(i)]);
                    long.push(pos(i));
                }
                solver.add_clause(&long);
            }
            GateKind::Xor | GateKind::Xnor => {
                // Chain binary XORs through aux variables, then tie the
                // output (inverted for XNOR) to the final parity.
                let mut acc = if g.kind == GateKind::Xor {
                    pos(ins[0])
                } else {
                    neg(ins[0])
                };
                for &i in &ins[1..] {
                    let t = Lit::positive(solver.new_var());
                    let b = pos(i);
                    // t ≡ acc ⊕ b
                    solver.add_clause(&[!t, acc, b]);
                    solver.add_clause(&[!t, !acc, !b]);
                    solver.add_clause(&[t, !acc, b]);
                    solver.add_clause(&[t, acc, !b]);
                    acc = t;
                }
                solver.add_clause(&[neg(o), acc]);
                solver.add_clause(&[pos(o), !acc]);
            }
            GateKind::Const0 => {
                solver.add_clause(&[neg(o)]);
            }
            GateKind::Const1 => {
                solver.add_clause(&[pos(o)]);
            }
        }
    }
    vars
}

/// Assumption literals pinning every primary input and state net.
fn pin_inputs(circuit: &Circuit, vars: &[Var], pis: &[bool], state: &[bool]) -> Vec<Lit> {
    let mut assumptions = Vec::new();
    for (net, &val) in circuit.inputs().iter().zip(pis) {
        assumptions.push(Lit::new(vars[net.index()], val));
    }
    for (dff, &val) in circuit.dffs().iter().zip(state) {
        assumptions.push(Lit::new(vars[dff.q.index()], val));
    }
    assumptions
}

/// A small combinational circuit covering every gate kind.
fn all_kinds_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("allkinds");
    let a = b.input("a");
    let c = b.input("c");
    let d = b.input("d");
    let e = b.input("e");
    let and = b.gate(GateKind::And, &[a, c, d], "and");
    let nand = b.gate(GateKind::Nand, &[c, d, e], "nand");
    let or = b.gate(GateKind::Or, &[and, nand], "or");
    let nor = b.gate(GateKind::Nor, &[a, e, and], "nor");
    let xor = b.gate(GateKind::Xor, &[or, nor, d], "xor");
    let xnor = b.gate(GateKind::Xnor, &[xor, a], "xnor");
    let not = b.gate(GateKind::Not, &[xnor], "not");
    let buf = b.gate(GateKind::Buf, &[nor], "buf");
    let one = b.gate(GateKind::Const1, &[], "one");
    let zero = b.gate(GateKind::Const0, &[], "zero");
    let mix = b.gate(GateKind::And, &[not, one], "mix");
    let mix2 = b.gate(GateKind::Or, &[buf, zero, mix], "mix2");
    b.output(xor);
    b.output(mix2);
    b.finish().expect("valid circuit")
}

#[test]
fn circuit_cnf_matches_evaluator_exhaustively() {
    let circuit = all_kinds_circuit();
    let mut solver = Solver::new();
    let vars = tseitin(&circuit, &mut solver);
    let mut ev = Evaluator::new(&circuit);

    let n = circuit.inputs().len();
    for stimulus in 0..1u32 << n {
        let pis: Vec<bool> = (0..n).map(|i| stimulus >> i & 1 == 1).collect();
        ev.eval(&pis, &[]);
        let assumptions = pin_inputs(&circuit, &vars, &pis, &[]);
        assert_eq!(
            solver.solve_assuming(&assumptions),
            SolveResult::Sat,
            "circuit CNF must be satisfiable once inputs are pinned"
        );
        // Every gate output — not just the primary outputs — must agree
        // with the simulator.
        for g in circuit.gates() {
            assert_eq!(
                solver.value(vars[g.output.index()]),
                Some(ev.value(g.output)),
                "net {} disagrees under stimulus {stimulus:04b}",
                circuit.net_name(g.output)
            );
        }
    }
}

#[test]
fn circuit_cnf_forcing_wrong_output_is_unsat() {
    let circuit = all_kinds_circuit();
    let mut solver = Solver::new();
    let vars = tseitin(&circuit, &mut solver);
    let mut ev = Evaluator::new(&circuit);

    let n = circuit.inputs().len();
    for stimulus in [0u32, 3, 7, 11, 15] {
        let pis: Vec<bool> = (0..n).map(|i| stimulus >> i & 1 == 1).collect();
        ev.eval(&pis, &[]);
        for &out in circuit.outputs() {
            let mut assumptions = pin_inputs(&circuit, &vars, &pis, &[]);
            assumptions.push(Lit::new(vars[out.index()], !ev.value(out)));
            assert_eq!(
                solver.solve_assuming(&assumptions),
                SolveResult::Unsat,
                "output {} cannot take the wrong value",
                circuit.net_name(out)
            );
        }
    }
}

#[test]
fn sequential_circuit_cnf_matches_evaluator_on_samples() {
    let circuit = s208_like();
    let mut solver = Solver::new();
    let vars = tseitin(&circuit, &mut solver);
    let mut ev = Evaluator::new(&circuit);
    let mut rng = SplitMix64::new(0x5EED);

    for _ in 0..32 {
        let pis: Vec<bool> = (0..circuit.inputs().len())
            .map(|_| rng.next_u64() & 1 == 1)
            .collect();
        let state: Vec<bool> = (0..circuit.num_dffs())
            .map(|_| rng.next_u64() & 1 == 1)
            .collect();
        ev.eval(&pis, &state);
        let assumptions = pin_inputs(&circuit, &vars, &pis, &state);
        assert_eq!(solver.solve_assuming(&assumptions), SolveResult::Sat);
        for (net, expected) in circuit.outputs().iter().zip(ev.output_values()) {
            assert_eq!(
                solver.value(vars[net.index()]),
                Some(expected),
                "primary output {} disagrees",
                circuit.net_name(*net)
            );
        }
        // Next-state (D inputs) must agree too.
        for (dff, expected) in circuit.dffs().iter().zip(ev.next_state()) {
            assert_eq!(solver.value(vars[dff.d.index()]), Some(expected));
        }
    }
}
