//! The constraint encoder: Tseitin for gates, native GF(2) for parity.

use netlist::{Circuit, GateKind, NetId};
use satsolver::{Constraint, Lit, Solver, XorClause};

/// How the encoder emits parity structure (`xor2`, `parity`, and XOR/XNOR
/// gates).
///
/// [`Native`](XorMode::Native) keeps parity linear: one definition
/// variable and one [`XorClause`] per constraint, handled by the solver's
/// in-solver GF(2) engine. [`Tseitin`](XorMode::Tseitin) is the classical
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

/// SAT literals for one combinational frame of a circuit.
///
/// Produced by [`Encoder::comb`]; every driven net of the frame has a
/// literal, addressable either structurally (`po`, `next_state`) or by
/// [`NetId`] via [`net`](CombCone::net).
#[derive(Debug, Clone)]
pub struct CombCone {
    /// One literal per primary output, in circuit order.
    pub po: Vec<Lit>,
    /// One literal per flop D pin (the state *after* this frame's clock
    /// edge), in `circuit.dffs()` order.
    pub next_state: Vec<Lit>,
    net_lits: Vec<Option<Lit>>,
}

impl CombCone {
    /// The literal carrying `net` in this frame, if the net exists.
    pub fn net(&self, net: NetId) -> Option<Lit> {
        self.net_lits.get(net.index()).copied().flatten()
    }
}

/// Incremental constraint encoder owning a [`Solver`].
///
/// The encoder hands out fresh variables, caches a single pinned constant
/// variable, and knows how to turn gates, parities, and whole
/// combinational frames into a constraint stream ([`Constraint`]) for the
/// solver: clauses for gate logic, native xor constraints for parity
/// (under the default [`XorMode::Native`]). Callers keep pushing structure
/// into the same solver instance — that is what makes the DynUnlock DIP
/// loop incremental: each oracle observation adds a cone, nothing is
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
        }
    }

    /// The parity-emission mode this encoder was built with.
    pub fn xor_mode(&self) -> XorMode {
        self.mode
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

    /// Consumes the encoder, returning the solver with everything encoded
    /// so far.
    pub fn into_solver(self) -> Solver {
        self.solver
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

    /// Adds one constraint-stream element. Returns `false` if the solver
    /// became unsatisfiable.
    pub fn assert_constraint(&mut self, constraint: &Constraint) -> bool {
        self.solver.add_constraint(constraint)
    }

    /// Adds a clause. Returns `false` if the solver became unsatisfiable.
    pub fn assert_clause(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }

    /// Constrains `⊕ lits = rhs`, respecting the encoder's [`XorMode`].
    /// Returns `false` if the solver became unsatisfiable.
    pub fn assert_xor(&mut self, lits: &[Lit], rhs: bool) -> bool {
        match self.mode {
            XorMode::Native => self
                .solver
                .add_constraint(&Constraint::Xor(XorClause::new(lits.to_vec(), rhs))),
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

    /// Constrains two literals to be equal. Returns `false` on conflict.
    pub fn assert_equal(&mut self, a: Lit, b: Lit) -> bool {
        self.solver.add_clause(&[!a, b]) && self.solver.add_clause(&[a, !b])
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
                self.solver
                    .add_constraint(&Constraint::Xor(XorClause::new(vec![z, a, b], false)));
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
                let mut rhs = false;
                let mut kept: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
                for &l in lits {
                    match self.as_const(l) {
                        Some(v) => rhs ^= v,
                        None => kept.push(l),
                    }
                }
                match kept.len() {
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
                        self.solver
                            .add_constraint(&Constraint::Xor(XorClause::new(kept, rhs)));
                        z
                    }
                }
            }
            (XorMode::Tseitin, Some((&first, rest))) => {
                rest.iter().fold(first, |acc, &l| self.xor2(acc, l))
            }
        }
    }

    /// A literal equal to the AND of `lits`, after folding constants.
    fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut kept = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.as_const(l) {
                Some(false) => return self.constant(false),
                Some(true) => {}
                None => kept.push(l),
            }
        }
        match kept.len() {
            0 => self.constant(true),
            1 => kept[0],
            _ => {
                let z = self.fresh();
                let mut top = Vec::with_capacity(kept.len() + 1);
                top.push(z);
                for &a in &kept {
                    self.solver.add_clause(&[!z, a]);
                    top.push(!a);
                }
                self.solver.add_clause(&top);
                z
            }
        }
    }

    /// A literal equal to the OR of `lits`, after folding constants.
    fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let flipped: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&flipped)
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
            GateKind::And => self.and_many(inputs),
            GateKind::Nand => !self.and_many(inputs),
            GateKind::Or => self.or_many(inputs),
            GateKind::Nor => !self.or_many(inputs),
            GateKind::Xor => self.parity(inputs),
            GateKind::Xnor => !self.parity(inputs),
            GateKind::Const0 => self.constant(false),
            GateKind::Const1 => self.constant(true),
        }
    }

    /// Encodes one combinational frame of `circuit`: given literals for the
    /// primary inputs and the current flop outputs, returns literals for
    /// every driven net, the primary outputs, and the next state.
    ///
    /// Call repeatedly with the previous frame's `next_state` to time-unroll
    /// a sequential circuit; each call only appends clauses, so the solver
    /// instance (and everything it has learned) stays warm.
    ///
    /// # Panics
    ///
    /// Panics if `pis` or `state` have the wrong length.
    pub fn comb(&mut self, circuit: &Circuit, pis: &[Lit], state: &[Lit]) -> CombCone {
        assert_eq!(pis.len(), circuit.inputs().len(), "PI count mismatch");
        assert_eq!(state.len(), circuit.dffs().len(), "state length mismatch");
        let mut net_lits: Vec<Option<Lit>> = vec![None; circuit.num_nets()];
        for (i, &net) in circuit.inputs().iter().enumerate() {
            net_lits[net.index()] = Some(pis[i]);
        }
        for (i, dff) in circuit.dffs().iter().enumerate() {
            net_lits[dff.q.index()] = Some(state[i]);
        }
        for &gi in circuit.topo_gates() {
            let gate = &circuit.gates()[gi];
            let ins: Vec<Lit> = gate
                .inputs
                .iter()
                .map(|n| net_lits[n.index()].expect("topo order drives all fanins"))
                .collect();
            net_lits[gate.output.index()] = Some(self.gate(gate.kind, &ins));
        }
        let po = circuit
            .outputs()
            .iter()
            .map(|n| net_lits[n.index()].expect("outputs are driven"))
            .collect();
        let next_state = circuit
            .dffs()
            .iter()
            .map(|d| net_lits[d.d.index()].expect("D pins are driven"))
            .collect();
        CombCone {
            po,
            next_state,
            net_lits,
        }
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

    /// Cross-checks the encoder against the interpreter on every driven
    /// net for a batch of random stimuli.
    fn cross_check(circuit: &netlist::Circuit, stimuli: usize, seed: u64) {
        let mut enc = Encoder::new();
        let pis = enc.fresh_many(circuit.inputs().len());
        let state = enc.fresh_many(circuit.num_dffs());
        let cone = enc.comb(circuit, &pis, &state);
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
                let lit = cone.net(net).expect("driven net has a literal");
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
        assert_eq!(enc.xor_mode(), XorMode::Native);
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
                for enc in &mut encs {
                    let pis = enc.fresh_many(c.inputs().len());
                    let state = enc.fresh_many(c.num_dffs());
                    let cone = enc.comb(&c, &pis, &state);
                    let mut assumptions = pin(&pis, &pi_vals);
                    assumptions.extend(pin(&state, &st_vals));
                    assert_eq!(
                        enc.solver_mut().solve_assuming(&assumptions),
                        SolveResult::Sat
                    );
                    let po: Vec<bool> = cone
                        .po
                        .iter()
                        .map(|&l| enc.solver().lit_model_value(l).unwrap())
                        .collect();
                    assert_eq!(po, expect, "{:?} diverged on seed {seed}", enc.xor_mode());
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
        let mut cones = Vec::new();
        for pis in &all_pis {
            let cone = enc.comb(&c, pis, &state);
            state = cone.next_state.clone();
            cones.push(cone);
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
        for (cone, vals) in cones.iter().zip(&stimuli) {
            ev.eval(vals, &st);
            let po: Vec<Option<bool>> = cone
                .po
                .iter()
                .map(|&l| enc.solver().lit_model_value(l))
                .collect();
            let expect: Vec<Option<bool>> = ev.output_values().into_iter().map(Some).collect();
            assert_eq!(po, expect, "PO mismatch in an unrolled frame");
            st = ev.next_state();
        }
    }
}
