//! Topological-order evaluation of the combinational core.

use netlist::{Circuit, GateKind, NetId};

/// Reusable combinational evaluator.
///
/// Holds a per-net value buffer sized for one circuit so repeated
/// evaluations (oracle queries, sequential stepping) do not allocate.
/// Sources are the primary inputs and flop outputs; everything else is
/// computed in topological order.
///
/// # Example
///
/// ```
/// use netlist::{CircuitBuilder, GateKind};
/// use sim::Evaluator;
///
/// let mut b = CircuitBuilder::new("mux-ish");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate(GateKind::Or, &[x, y], "z");
/// b.output(z);
/// let c = b.finish().unwrap();
///
/// let mut ev = Evaluator::new(&c);
/// ev.eval(&[false, true], &[]);
/// assert!(ev.output_values()[0]);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'c> {
    circuit: &'c Circuit,
    values: Vec<bool>,
}

impl<'c> Evaluator<'c> {
    /// Creates an evaluator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        Evaluator {
            circuit,
            values: vec![false; circuit.num_nets()],
        }
    }

    /// The circuit being evaluated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Evaluates all nets from primary-input values and flop-output values
    /// (`state[i]` is the Q value of `circuit.dffs()[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `pis` or `state` have the wrong length.
    pub fn eval(&mut self, pis: &[bool], state: &[bool]) {
        let c = self.circuit;
        assert_eq!(pis.len(), c.inputs().len(), "PI count mismatch");
        assert_eq!(state.len(), c.dffs().len(), "state length mismatch");
        for (i, &net) in c.inputs().iter().enumerate() {
            self.values[net.index()] = pis[i];
        }
        for (i, dff) in c.dffs().iter().enumerate() {
            self.values[dff.q.index()] = state[i];
        }
        // Evaluate each gate by indexing `values` directly — no per-gate
        // fanin copy.
        for &gi in c.topo_gates() {
            let gate = &c.gates()[gi];
            let vals = &self.values;
            let out = match gate.kind {
                GateKind::Buf => vals[gate.inputs[0].index()],
                GateKind::Not => !vals[gate.inputs[0].index()],
                GateKind::And => gate.inputs.iter().all(|n| vals[n.index()]),
                GateKind::Nand => !gate.inputs.iter().all(|n| vals[n.index()]),
                GateKind::Or => gate.inputs.iter().any(|n| vals[n.index()]),
                GateKind::Nor => !gate.inputs.iter().any(|n| vals[n.index()]),
                GateKind::Xor => gate.inputs.iter().fold(false, |a, n| a ^ vals[n.index()]),
                GateKind::Xnor => !gate.inputs.iter().fold(false, |a, n| a ^ vals[n.index()]),
                GateKind::Const0 => false,
                GateKind::Const1 => true,
            };
            self.values[gate.output.index()] = out;
        }
    }

    /// Value of a net after the last [`Evaluator::eval`].
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Values of the primary outputs after the last eval.
    pub fn output_values(&self) -> Vec<bool> {
        self.circuit
            .outputs()
            .iter()
            .map(|&n| self.value(n))
            .collect()
    }

    /// Next-state vector (each flop's D value) after the last eval.
    pub fn next_state(&self) -> Vec<bool> {
        self.circuit
            .dffs()
            .iter()
            .map(|dff| self.value(dff.d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CircuitBuilder, GateKind};

    fn full_adder() -> Circuit {
        let mut b = CircuitBuilder::new("fa");
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("cin");
        let s1 = b.gate(GateKind::Xor, &[a, x], "s1");
        let sum = b.gate(GateKind::Xor, &[s1, cin], "sum");
        let c1 = b.gate(GateKind::And, &[a, x], "c1");
        let c2 = b.gate(GateKind::And, &[s1, cin], "c2");
        let cout = b.gate(GateKind::Or, &[c1, c2], "cout");
        b.output(sum);
        b.output(cout);
        b.finish().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let c = full_adder();
        let mut ev = Evaluator::new(&c);
        for bits in 0..8u32 {
            let a = bits & 1 == 1;
            let x = bits & 2 == 2;
            let cin = bits & 4 == 4;
            ev.eval(&[a, x, cin], &[]);
            let out = ev.output_values();
            let total = u32::from(a) + u32::from(x) + u32::from(cin);
            assert_eq!(out[0], total & 1 == 1, "sum for {bits:03b}");
            assert_eq!(out[1], total >= 2, "carry for {bits:03b}");
        }
    }

    #[test]
    fn state_feeds_logic() {
        let mut b = CircuitBuilder::new("st");
        let x = b.input("x");
        let q = b.dff("q", x);
        let y = b.gate(GateKind::Xor, &[q, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let mut ev = Evaluator::new(&c);
        ev.eval(&[true], &[false]);
        assert!(ev.output_values()[0]);
        ev.eval(&[true], &[true]);
        assert!(!ev.output_values()[0]);
        // next state is the D pin, i.e. x
        assert_eq!(ev.next_state(), vec![true]);
    }

    #[test]
    fn reuse_does_not_leak_previous_values() {
        let c = full_adder();
        let mut ev = Evaluator::new(&c);
        ev.eval(&[true, true, true], &[]);
        ev.eval(&[false, false, false], &[]);
        assert_eq!(ev.output_values(), vec![false, false]);
    }

    #[test]
    #[should_panic(expected = "PI count mismatch")]
    fn wrong_pi_count_panics() {
        let c = full_adder();
        Evaluator::new(&c).eval(&[true], &[]);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn wrong_state_len_panics() {
        let c = full_adder();
        Evaluator::new(&c).eval(&[true, false, true], &[false]);
    }
}
