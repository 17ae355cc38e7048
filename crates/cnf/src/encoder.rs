//! The constraint encoder: Tseitin for gates, native GF(2) for parity.

use netlist::{Circuit, GateKind, NetId};
use satsolver::{Lit, Solver};

/// How the encoder emits parity structure (`xor2`, `parity`, and XOR/XNOR
/// gates).
///
/// [`Native`](XorMode::Native) keeps parity linear: one definition
/// variable and one native xor constraint ([`Solver::add_xor`]) per
/// parity, handled by the solver's in-solver GF(2) engine. [`Tseitin`](XorMode::Tseitin) is the classical
/// clause expansion — a chain of 4-clause xor definitions — kept as a
/// differential reference; CDCL must prove parity facts over it by
/// resolution, which is exponential in the chain length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum XorMode {
    /// Emit native xor constraints to the solver's GF(2) engine.
    #[default]
    Native,
    /// Expand parity to clauses via auxiliary-variable chains.
    Tseitin,
}

/// Incremental constraint encoder owning a [`Solver`].
///
/// The encoder hands out fresh variables, caches a single pinned constant
/// variable, and knows how to turn gates, parities, and whole
/// combinational frames into constraints for the solver: clauses for gate
/// logic, native xor constraints for parity (under the default
/// [`XorMode::Native`]). Callers keep pushing structure into the same
/// solver instance — that is what makes the DynUnlock DIP loop
/// incremental: each oracle observation adds a cone, nothing is
/// re-encoded.
///
/// Returned literals are *logically* equal to the encoded function in every
/// model of the constraint set; gate outputs use fresh definition variables,
/// while trivial cases (buffers, single-input gates, constant folding) are
/// resolved to existing literals without new constraints.
#[derive(Debug, Default)]
pub struct Encoder {
    solver: Solver,
    const_true: Option<Lit>,
    mode: XorMode,
    /// Scratch for one gate's input literals ([`Encoder::comb_in_place`]).
    ins: Vec<Lit>,
    /// Scratch for the literals of the constraint a gate is defined by.
    kept: Vec<Lit>,
    /// Scratch for one frame's per-net literals
    /// ([`Encoder::comb_in_place`]).
    frame: Vec<Option<Lit>>,
}

impl Encoder {
    /// A new encoder over an empty solver, with native xor emission.
    pub fn new() -> Encoder {
        Encoder::with_mode(XorMode::default())
    }

    /// A new encoder with an explicit parity-emission mode.
    pub fn with_mode(mode: XorMode) -> Encoder {
        Encoder {
            solver: Solver::new(),
            const_true: None,
            mode,
            ins: Vec::new(),
            kept: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the underlying solver (to solve, assume, or add
    /// ad-hoc clauses).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// A fresh, unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::positive(self.solver.new_var())
    }

    /// `n` fresh, unconstrained literals.
    pub fn fresh_many(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.fresh()).collect()
    }

    /// The literal for a Boolean constant.
    ///
    /// All constants share one pinned variable, created lazily; encoding a
    /// thousand constant nets costs one variable and one unit clause.
    pub fn constant(&mut self, value: bool) -> Lit {
        let t = match self.const_true {
            Some(t) => t,
            None => {
                let t = self.fresh();
                self.solver.add_clause(&[t]);
                self.const_true = Some(t);
                t
            }
        };
        if value {
            t
        } else {
            !t
        }
    }

    /// If `lit` is (a polarity of) the pinned constant, its value.
    fn as_const(&self, lit: Lit) -> Option<bool> {
        let t = self.const_true?;
        if lit == t {
            Some(true)
        } else if lit == !t {
            Some(false)
        } else {
            None
        }
    }

    /// Adds a clause. Returns `false` if the solver became unsatisfiable.
    pub fn assert_clause(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }

    /// Constrains `⊕ lits = rhs`, respecting the encoder's [`XorMode`].
    /// Returns `false` if the solver became unsatisfiable.
    pub fn assert_xor(&mut self, lits: &[Lit], rhs: bool) -> bool {
        match self.mode {
            XorMode::Native => self.solver.add_xor(lits, rhs),
            XorMode::Tseitin => {
                let p = self.parity(lits);
                self.assert_lit(if rhs { p } else { !p })
            }
        }
    }

    /// Pins a literal true. Returns `false` on conflict.
    pub fn assert_lit(&mut self, lit: Lit) -> bool {
        self.solver.add_clause(&[lit])
    }

    /// A literal equal to `a ⊕ b`.
    ///
    /// Folds constants and syntactic (in)equality to existing literals
    /// regardless of mode. The general case introduces one definition
    /// variable: under [`XorMode::Native`] it is defined by one xor
    /// constraint (`z ⊕ a ⊕ b = 0`), under [`XorMode::Tseitin`] by four
    /// clauses.
    pub fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(va) = self.as_const(a) {
            return if va { !b } else { b };
        }
        if let Some(vb) = self.as_const(b) {
            return if vb { !a } else { a };
        }
        if a == b {
            return self.constant(false);
        }
        if a == !b {
            return self.constant(true);
        }
        let z = self.fresh();
        match self.mode {
            XorMode::Native => {
                self.solver.add_xor(&[z, a, b], false);
            }
            XorMode::Tseitin => {
                self.solver.add_clause(&[!z, a, b]);
                self.solver.add_clause(&[!z, !a, !b]);
                self.solver.add_clause(&[z, !a, b]);
                self.solver.add_clause(&[z, a, !b]);
            }
        }
        z
    }

    /// A literal equal to the XOR of all `lits` (false for an empty list).
    ///
    /// Under [`XorMode::Native`] a `k`-ary parity is **one** wide xor row
    /// (`z ⊕ l1 ⊕ … ⊕ lk = 0`) — no auxiliary chain, so the solver's GF(2)
    /// engine sees the whole constraint at once. Under
    /// [`XorMode::Tseitin`] it is the classical fold of binary xors
    /// (`k - 1` auxiliary variables, `4(k - 1)` clauses).
    pub fn parity(&mut self, lits: &[Lit]) -> Lit {
        match (self.mode, lits.split_first()) {
            (_, None) => self.constant(false),
            (_, Some((&only, []))) => only,
            (XorMode::Native, _) => {
                // Fold constants into the right-hand side so the pinned
                // constant variable stays out of the xor system.
                let mut kept = std::mem::take(&mut self.kept);
                kept.clear();
                let mut rhs = false;
                for &l in lits {
                    match self.as_const(l) {
                        Some(v) => rhs ^= v,
                        None => kept.push(l),
                    }
                }
                let z = match kept.len() {
                    0 => self.constant(rhs),
                    1 => {
                        if rhs {
                            !kept[0]
                        } else {
                            kept[0]
                        }
                    }
                    _ => {
                        let z = self.fresh();
                        kept.push(z);
                        self.solver.add_xor(&kept, rhs);
                        z
                    }
                };
                self.kept = kept;
                z
            }
            (XorMode::Tseitin, Some((&first, rest))) => {
                rest.iter().fold(first, |acc, &l| self.xor2(acc, l))
            }
        }
    }

    /// A literal equal to the AND of `lits` (of their negations when
    /// `negate`), after folding constants.
    fn and_many(&mut self, lits: &[Lit], negate: bool) -> Lit {
        let mut kept = std::mem::take(&mut self.kept);
        kept.clear();
        let mut falsified = false;
        for &l in lits {
            let l = if negate { !l } else { l };
            match self.as_const(l) {
                Some(false) => {
                    falsified = true;
                    break;
                }
                Some(true) => {}
                None => kept.push(l),
            }
        }
        let z = match kept.len() {
            _ if falsified => self.constant(false),
            0 => self.constant(true),
            1 => kept[0],
            _ => {
                let z = self.fresh();
                for a in &mut kept {
                    self.solver.add_clause(&[!z, *a]);
                    *a = !*a;
                }
                // The defining clause `z ∨ ¬a1 ∨ … ∨ ¬ak`, in that order.
                kept.insert(0, z);
                self.solver.add_clause(&kept);
                z
            }
        };
        self.kept = kept;
        z
    }

    /// A literal equal to `kind(inputs...)`.
    ///
    /// # Panics
    ///
    /// Panics if the arity is illegal for the kind (same contract as
    /// [`GateKind::eval`]).
    pub fn gate(&mut self, kind: GateKind, inputs: &[Lit]) -> Lit {
        assert!(
            kind.arity_ok(inputs.len()),
            "{kind} cannot take {} inputs",
            inputs.len()
        );
        match kind {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => self.and_many(inputs, false),
            GateKind::Nand => !self.and_many(inputs, false),
            GateKind::Or => !self.and_many(inputs, true),
            GateKind::Nor => self.and_many(inputs, true),
            GateKind::Xor => self.parity(inputs),
            GateKind::Xnor => !self.parity(inputs),
            GateKind::Const0 => self.constant(false),
            GateKind::Const1 => self.constant(true),
        }
    }

    /// Encodes one combinational frame of `circuit` from `pis` and the
    /// flop outputs in `state`, gate by gate in topological order, then
    /// replaces `state` with the next state and `po` with the primary
    /// outputs. The per-net literals live in a buffer the encoder reuses,
    /// so a caller that unrolls many frames allocates nothing per frame.
    ///
    /// Call repeatedly to time-unroll a sequential circuit; each call only
    /// appends constraints, so the solver instance (and everything it has
    /// learned) stays warm.
    ///
    /// # Panics
    ///
    /// Panics if `pis` or `state` have the wrong length.
    pub fn comb_in_place(
        &mut self,
        circuit: &Circuit,
        pis: &[Lit],
        state: &mut Vec<Lit>,
        po: &mut Vec<Lit>,
    ) {
        assert_eq!(pis.len(), circuit.inputs().len(), "PI count mismatch");
        assert_eq!(state.len(), circuit.dffs().len(), "state length mismatch");
        let mut net_lits = std::mem::take(&mut self.frame);
        net_lits.clear();
        net_lits.resize(circuit.num_nets(), None);
        for (i, &net) in circuit.inputs().iter().enumerate() {
            net_lits[net.index()] = Some(pis[i]);
        }
        for (i, dff) in circuit.dffs().iter().enumerate() {
            net_lits[dff.q.index()] = Some(state[i]);
        }
        let mut ins = std::mem::take(&mut self.ins);
        for &gi in circuit.topo_gates() {
            let gate = &circuit.gates()[gi];
            ins.clear();
            ins.extend(
                gate.inputs
                    .iter()
                    .map(|n| net_lits[n.index()].expect("topo order drives all fanins")),
            );
            net_lits[gate.output.index()] = Some(self.gate(gate.kind, &ins));
        }
        self.ins = ins;
        let driven = |n: &NetId| net_lits[n.index()].expect("outputs and D pins are driven");
        po.clear();
        po.extend(circuit.outputs().iter().map(driven));
        state.clear();
        state.extend(circuit.dffs().iter().map(|d| driven(&d.d)));
        self.frame = net_lits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{BitVec, Rng64, SplitMix64};
    use netlist::generator::{s208_like, GeneratorConfig};
    use satsolver::SolveResult;
    use sim::Evaluator;

    /// Assumption literals pinning `lits[i]` to `values[i]`.
    fn pin(lits: &[Lit], values: &[bool]) -> Vec<Lit> {
        lits.iter()
            .zip(values)
            .map(|(&l, &v)| if v { l } else { !l })
            .collect()
    }

    /// Encodes one frame of `circuit`: its primary-output and next-state
    /// literals.
    fn frame(
        enc: &mut Encoder,
        circuit: &Circuit,
        pis: &[Lit],
        state: &[Lit],
    ) -> (Vec<Lit>, Vec<Lit>) {
        let mut next = state.to_vec();
        let mut po = Vec::new();
        enc.comb_in_place(circuit, pis, &mut next, &mut po);
        (po, next)
    }

    /// Cross-checks the encoder against the interpreter on every driven
    /// net for a batch of random stimuli.
    fn cross_check(circuit: &Circuit, stimuli: usize, seed: u64) {
        let mut enc = Encoder::new();
        let pis = enc.fresh_many(circuit.inputs().len());
        let state = enc.fresh_many(circuit.num_dffs());
        frame(&mut enc, circuit, &pis, &state);
        // The frame's per-net literals, left in the encoder's scratch.
        let net_lits = enc.frame.clone();
        let mut ev = Evaluator::new(circuit);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..stimuli {
            let pi_vals: Vec<bool> = (0..pis.len()).map(|_| rng.gen_bool()).collect();
            let st_vals: Vec<bool> = (0..state.len()).map(|_| rng.gen_bool()).collect();
            let mut assumptions = pin(&pis, &pi_vals);
            assumptions.extend(pin(&state, &st_vals));
            assert_eq!(
                enc.solver_mut().solve_assuming(&assumptions),
                SolveResult::Sat,
                "pinning free inputs is always satisfiable"
            );
            ev.eval(&pi_vals, &st_vals);
            for idx in 0..circuit.num_nets() {
                let net = circuit
                    .gates()
                    .iter()
                    .map(|g| g.output)
                    .chain(circuit.inputs().iter().copied())
                    .chain(circuit.dffs().iter().map(|d| d.q))
                    .find(|n| n.index() == idx);
                let Some(net) = net else { continue };
                let lit = net_lits[net.index()].expect("driven net has a literal");
                assert_eq!(
                    enc.solver().lit_model_value(lit),
                    Some(ev.value(net)),
                    "net {net} disagrees on {pi_vals:?}/{st_vals:?}"
                );
            }
        }
    }

    #[test]
    fn s208_matches_evaluator_on_every_net() {
        cross_check(&s208_like(), 16, 0xA1);
    }

    #[test]
    fn random_circuits_match_evaluator() {
        for seed in 0..4u64 {
            let c = GeneratorConfig::new("xcheck", 6, 4, 10, 90)
                .with_seed(seed)
                .generate();
            cross_check(&c, 8, seed.wrapping_mul(0x9E37));
        }
    }

    #[test]
    fn parity_and_linear_form_agree_with_bitvec_dot() {
        for mode in [XorMode::Native, XorMode::Tseitin] {
            let mut enc = Encoder::with_mode(mode);
            let lits = enc.fresh_many(9);
            let mut rng = SplitMix64::new(5);
            for _ in 0..12 {
                // A linear form `row · x` is the parity of the selected
                // literals.
                let row = BitVec::random(9, &mut rng);
                let selected: Vec<Lit> = row.iter_ones().map(|i| lits[i]).collect();
                let form = enc.parity(&selected);
                let values: Vec<bool> = (0..9).map(|_| rng.gen_bool()).collect();
                let mut assumptions = pin(&lits, &values);
                assumptions.push(form);
                let expect = row.dot(&BitVec::from_bools(values.iter().copied()));
                let sat = enc.solver_mut().solve_assuming(&assumptions) == SolveResult::Sat;
                assert_eq!(sat, expect, "{mode:?} form must equal row·x for {row:?}");
            }
        }
    }

    #[test]
    fn native_parity_is_one_xor_row_no_clauses() {
        let mut enc = Encoder::new();
        let lits = enc.fresh_many(16);
        let p = enc.parity(&lits);
        assert_eq!(enc.solver().num_clauses(), 0, "no Tseitin expansion");
        assert_eq!(enc.solver().num_xors(), 1, "one wide row");
        assert_eq!(enc.solver().num_vars(), 17, "one definition variable");
        // The wide row really defines the parity.
        let mut assumptions = pin(&lits, &[true; 16]);
        assumptions.push(p);
        assert_eq!(
            enc.solver_mut().solve_assuming(&assumptions),
            SolveResult::Unsat,
            "16 ones have even parity"
        );
    }

    #[test]
    fn tseitin_parity_still_expands_to_clauses() {
        let mut enc = Encoder::with_mode(XorMode::Tseitin);
        let lits = enc.fresh_many(16);
        let _ = enc.parity(&lits);
        assert_eq!(enc.solver().num_xors(), 0, "no native rows in Tseitin mode");
        assert_eq!(enc.solver().num_clauses(), 4 * 15, "4 clauses per xor2");
        assert_eq!(enc.solver().num_vars(), 16 + 15, "a chain of aux vars");
    }

    #[test]
    fn native_parity_folds_constants_into_rhs() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let t = enc.constant(true);
        let f = enc.constant(false);
        // Constants must not enter the xor system as columns.
        let p = enc.parity(&[a, t, b, f]);
        assert_eq!(enc.solver().num_xors(), 1);
        // p = a ⊕ b ⊕ 1: equal inputs give p = 1, unequal give p = 0.
        assert_eq!(
            enc.solver_mut().solve_assuming(&[a, b, p]),
            SolveResult::Sat
        );
        assert_eq!(
            enc.solver_mut().solve_assuming(&[a, !b, p]),
            SolveResult::Unsat
        );
        // Single-survivor and no-survivor folds stay constraint-free.
        let before = enc.solver().num_xors();
        assert_eq!(enc.parity(&[a, t]), !a);
        assert_eq!(enc.parity(&[t, f]), enc.constant(true));
        assert_eq!(enc.solver().num_xors(), before);
    }

    #[test]
    fn assert_xor_pins_parity_in_both_modes() {
        for mode in [XorMode::Native, XorMode::Tseitin] {
            let mut enc = Encoder::with_mode(mode);
            let lits = enc.fresh_many(5);
            assert!(enc.assert_xor(&lits, true));
            assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
            let parity = lits.iter().fold(false, |acc, &l| {
                acc ^ enc.solver().lit_model_value(l).unwrap()
            });
            assert!(parity, "{mode:?}: model must have odd parity");
            // Pinning all five false contradicts the constraint.
            let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
            assert_eq!(
                enc.solver_mut().solve_assuming(&negated),
                SolveResult::Unsat
            );
        }
    }

    #[test]
    fn modes_agree_on_xor_heavy_circuits() {
        // XOR/XNOR-rich random circuits: both encoders must assign every
        // PO identically to the interpreter.
        for seed in 0..3u64 {
            let c = GeneratorConfig::new("xorheavy", 5, 3, 8, 60)
                .with_seed(0xE0E + seed)
                .generate();
            let mut rng = SplitMix64::new(seed + 1);
            let mut encs = [
                Encoder::with_mode(XorMode::Native),
                Encoder::with_mode(XorMode::Tseitin),
            ];
            let mut ev = Evaluator::new(&c);
            for _ in 0..6 {
                let pi_vals: Vec<bool> = (0..c.inputs().len()).map(|_| rng.gen_bool()).collect();
                let st_vals: Vec<bool> = (0..c.num_dffs()).map(|_| rng.gen_bool()).collect();
                ev.eval(&pi_vals, &st_vals);
                let expect = ev.output_values();
                for (enc, mode) in encs.iter_mut().zip([XorMode::Native, XorMode::Tseitin]) {
                    let pis = enc.fresh_many(c.inputs().len());
                    let state = enc.fresh_many(c.num_dffs());
                    let (po_lits, _) = frame(enc, &c, &pis, &state);
                    let mut assumptions = pin(&pis, &pi_vals);
                    assumptions.extend(pin(&state, &st_vals));
                    assert_eq!(
                        enc.solver_mut().solve_assuming(&assumptions),
                        SolveResult::Sat
                    );
                    let po: Vec<bool> = po_lits
                        .iter()
                        .map(|&l| enc.solver().lit_model_value(l).unwrap())
                        .collect();
                    assert_eq!(po, expect, "{mode:?} diverged on seed {seed}");
                }
            }
        }
    }

    #[test]
    fn xor2_folds_constants_and_duplicates() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let t = enc.constant(true);
        let f = enc.constant(false);
        assert_eq!(enc.xor2(a, f), a);
        assert_eq!(enc.xor2(a, t), !a);
        assert_eq!(enc.xor2(t, a), !a);
        assert_eq!(enc.xor2(a, a), f);
        assert_eq!(enc.xor2(a, !a), t);
        // Nothing above should have created definition clauses: one unit
        // clause for the pinned constant is all there is.
        assert_eq!(enc.solver().num_clauses(), 0, "units live on the trail");
        assert_eq!(enc.solver().num_vars(), 2);
    }

    #[test]
    fn constant_is_cached_and_pinned() {
        let mut enc = Encoder::new();
        let t1 = enc.constant(true);
        let f = enc.constant(false);
        let t2 = enc.constant(true);
        assert_eq!(t1, t2);
        assert_eq!(f, !t1);
        assert_eq!(enc.solver_mut().solve_assuming(&[f]), SolveResult::Unsat);
    }

    #[test]
    fn gate_encoding_is_exhaustively_correct() {
        // Every kind, arities 1..=3 where legal, all input combinations.
        for kind in GateKind::ALL {
            for arity in 0..=3usize {
                if !kind.arity_ok(arity) {
                    continue;
                }
                for bits in 0..1u32 << arity {
                    let mut enc = Encoder::new();
                    let ins = enc.fresh_many(arity);
                    let out = enc.gate(kind, &ins);
                    let vals: Vec<bool> = (0..arity).map(|i| bits >> i & 1 == 1).collect();
                    let mut assumptions = pin(&ins, &vals);
                    let expect = kind.eval(&vals);
                    assumptions.push(if expect { out } else { !out });
                    assert_eq!(
                        enc.solver_mut().solve_assuming(&assumptions),
                        SolveResult::Sat,
                        "{kind} on {vals:?} must be {expect}"
                    );
                    let mut refute = pin(&ins, &vals);
                    refute.push(if expect { !out } else { out });
                    assert_eq!(
                        enc.solver_mut().solve_assuming(&refute),
                        SolveResult::Unsat,
                        "{kind} on {vals:?} must not be {}",
                        !expect
                    );
                }
            }
        }
    }

    #[test]
    fn unrolled_frames_track_sequential_evaluation() {
        let c = s208_like();
        let mut enc = Encoder::new();
        let mut rng = SplitMix64::new(77);
        let frames = 4;
        let all_pis: Vec<Vec<Lit>> = (0..frames)
            .map(|_| enc.fresh_many(c.inputs().len()))
            .collect();
        let mut state = enc.fresh_many(c.num_dffs());
        let init = state.clone();
        let mut frames_po = Vec::new();
        for pis in &all_pis {
            let (po, next) = frame(&mut enc, &c, pis, &state);
            state = next;
            frames_po.push(po);
        }

        let st0: Vec<bool> = (0..c.num_dffs()).map(|_| rng.gen_bool()).collect();
        let stimuli: Vec<Vec<bool>> = (0..frames)
            .map(|_| (0..c.inputs().len()).map(|_| rng.gen_bool()).collect())
            .collect();
        let mut assumptions = pin(&init, &st0);
        for (pis, vals) in all_pis.iter().zip(&stimuli) {
            assumptions.extend(pin(pis, vals));
        }
        assert_eq!(
            enc.solver_mut().solve_assuming(&assumptions),
            SolveResult::Sat
        );

        let mut ev = Evaluator::new(&c);
        let mut st = st0;
        for (po_lits, vals) in frames_po.iter().zip(&stimuli) {
            ev.eval(vals, &st);
            let po: Vec<Option<bool>> = po_lits
                .iter()
                .map(|&l| enc.solver().lit_model_value(l))
                .collect();
            let expect: Vec<Option<bool>> = ev.output_values().into_iter().map(Some).collect();
            assert_eq!(po, expect, "PO mismatch in an unrolled frame");
            st = ev.next_state();
        }
    }
}
