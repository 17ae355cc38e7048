//! Edge cases for the CNF encoder: constant nets, degenerate cones,
//! single-DFF chains, and DIMACS round trips of encoded circuits.

use dynunlock_repro::cnf::Encoder;
use dynunlock_repro::netlist::{CircuitBuilder, GateKind};
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Lit, SolveResult};
use dynunlock_repro::sim::Evaluator;

/// Assumption literals pinning `lits[i]` to `values[i]`.
fn pin(lits: &[Lit], values: &[bool]) -> Vec<Lit> {
    lits.iter()
        .zip(values)
        .map(|(&l, &v)| if v { l } else { !l })
        .collect()
}

#[test]
fn constant_gates_encode_as_pinned_nets() {
    // y = AND(const1, NOT(const0)) must be constant true; z = OR(const0,
    // const0) constant false — no gate needs an input.
    let mut b = CircuitBuilder::new("consts");
    let one = b.gate(GateKind::Const1, &[], "one");
    let zero = b.gate(GateKind::Const0, &[], "zero");
    let nz = b.gate(GateKind::Not, &[zero], "nz");
    let y = b.gate(GateKind::And, &[one, nz], "y");
    let z = b.gate(GateKind::Or, &[zero, zero], "z");
    b.output(y);
    b.output(z);
    let c = b.finish().unwrap();

    let mut enc = Encoder::new();
    let cone = enc.comb(&c, &[], &[]);
    assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
    assert_eq!(enc.solver().lit_model_value(cone.po[0]), Some(true));
    assert_eq!(enc.solver().lit_model_value(cone.po[1]), Some(false));
    // Pinning against the constants must be unsatisfiable.
    let y_lit = cone.po[0];
    assert_eq!(
        enc.solver_mut().solve_assuming(&[!y_lit]),
        SolveResult::Unsat
    );
}

#[test]
fn input_passthrough_cone_adds_no_gate_clauses() {
    // output = input through a Buf: the "cone" is empty; the PO literal is
    // the PI literal itself.
    let mut b = CircuitBuilder::new("wire");
    let x = b.input("x");
    let y = b.gate(GateKind::Buf, &[x], "y");
    b.output(y);
    let c = b.finish().unwrap();

    let mut enc = Encoder::new();
    let pis = enc.fresh_many(1);
    let cone = enc.comb(&c, &pis, &[]);
    assert_eq!(cone.po[0], pis[0], "a buffer is a wire, not a clause");
    assert_eq!(enc.solver().num_clauses(), 0);
}

#[test]
fn single_dff_chain_unrolls() {
    // One flop fed by its own inverse: q alternates each frame. Unroll
    // three frames and check the alternation appears in the literals.
    let mut b = CircuitBuilder::new("toggle");
    let q = b.net("q");
    let d = b.gate(GateKind::Not, &[q], "d");
    b.dff_into(d, q);
    b.output(q);
    let c = b.finish().unwrap();

    let mut enc = Encoder::new();
    let q0 = enc.fresh_many(1);
    let f1 = enc.comb(&c, &[], &q0);
    let f2 = enc.comb(&c, &[], &f1.next_state);
    let f3 = enc.comb(&c, &[], &f2.next_state);
    // Pin q0 = false: frames must read false, true, false.
    let assumption = pin(&q0, &[false]);
    assert_eq!(
        enc.solver_mut().solve_assuming(&assumption),
        SolveResult::Sat
    );
    assert_eq!(enc.solver().lit_model_value(f1.po[0]), Some(false));
    assert_eq!(enc.solver().lit_model_value(f2.po[0]), Some(true));
    assert_eq!(enc.solver().lit_model_value(f3.po[0]), Some(false));
}

#[test]
fn empty_parity_and_empty_linear_form_are_false() {
    let mut enc = Encoder::new();
    let p = enc.parity(&[]);
    assert_eq!(enc.solver_mut().solve_assuming(&[p]), SolveResult::Unsat);
    // The zero linear form selects no literal: the same empty parity,
    // whatever literals it is taken over.
    let lits = enc.fresh_many(4);
    let zero_row = dynunlock_repro::gf2::BitVec::zeros(4);
    let selected: Vec<_> = zero_row.iter_ones().map(|i| lits[i]).collect();
    let form = enc.parity(&selected);
    assert_eq!(enc.solver_mut().solve_assuming(&[form]), SolveResult::Unsat);
}

#[test]
fn encoded_circuit_roundtrips_through_dimacs() {
    // Encode a small circuit, snapshot to Cnf, serialize to DIMACS text,
    // parse it back, and check the two formulas agree on the original
    // model and on the clause inventory.
    let mut b = CircuitBuilder::new("rt");
    let x = b.input("x");
    let y = b.input("y");
    let a = b.gate(GateKind::Xor, &[x, y], "a");
    let o = b.gate(GateKind::Nand, &[a, x], "o");
    b.output(o);
    let c = b.finish().unwrap();

    let mut enc = Encoder::new();
    let pis = enc.fresh_many(2);
    let cone = enc.comb(&c, &pis, &[]);
    assert_eq!(
        enc.solver_mut().solve_assuming(&[!cone.po[0]]),
        SolveResult::Sat,
        "NAND can go false"
    );

    let snapshot = enc.solver().to_cnf();
    let text = snapshot.to_dimacs();
    let reparsed = Cnf::parse(&text).expect("emitted DIMACS reparses");
    assert_eq!(reparsed.num_vars, snapshot.num_vars);
    assert_eq!(reparsed.clauses, snapshot.clauses);

    // The reparsed formula solves to the same verdicts as the live solver.
    let (mut fresh, vars) = reparsed.to_solver();
    let po_var = vars[cone.po[0].var().index()];
    let po_lit = Lit::new(po_var, cone.po[0].is_positive());
    assert_eq!(fresh.solve_assuming(&[!po_lit]), SolveResult::Sat);
    // o = NAND(a, x) with a = x⊕y: o is false iff x=1,y=0 — forcing
    // x=0 alongside ¬o must be unsatisfiable in both formulas.
    let x0 = Lit::new(vars[pis[0].var().index()], pis[0].is_positive());
    assert_eq!(fresh.solve_assuming(&[!po_lit, !x0]), SolveResult::Unsat);
    assert_eq!(
        enc.solver_mut().solve_assuming(&[!cone.po[0], !pis[0]]),
        SolveResult::Unsat
    );
}

#[test]
fn encoder_model_matches_evaluator_on_edge_circuit() {
    // A circuit exercising every edge at once: constants feeding logic, a
    // buffer chain, and an XNOR reduction.
    let mut b = CircuitBuilder::new("edgemix");
    let x = b.input("x");
    let one = b.gate(GateKind::Const1, &[], "one");
    let buf = b.gate(GateKind::Buf, &[x], "buf");
    let mix = b.gate(GateKind::Xnor, &[buf, one, x], "mix");
    let out = b.gate(GateKind::Nor, &[mix, one], "out");
    b.output(mix);
    b.output(out);
    let c = b.finish().unwrap();

    let mut ev = Evaluator::new(&c);
    let mut enc = Encoder::new();
    let pis = enc.fresh_many(1);
    let cone = enc.comb(&c, &pis, &[]);
    for v in [false, true] {
        ev.eval(&[v], &[]);
        assert_eq!(
            enc.solver_mut().solve_assuming(&pin(&pis, &[v])),
            SolveResult::Sat
        );
        for (i, &po) in cone.po.iter().enumerate() {
            assert_eq!(
                enc.solver().lit_model_value(po),
                Some(ev.output_values()[i]),
                "PO {i} with x={v}"
            );
        }
    }
}
