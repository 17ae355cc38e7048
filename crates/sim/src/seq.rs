//! Clocked functional simulation.

use netlist::Circuit;

use crate::Evaluator;

/// A sequential (functional-mode) simulator: holds the flop state and
/// advances it one clock per [`SeqSim::step`].
///
/// # Example
///
/// ```
/// use netlist::generator::shift_register;
/// use sim::SeqSim;
///
/// let c = shift_register(3);
/// let mut s = SeqSim::new(&c);
/// s.step(&[true]);
/// s.step(&[false]);
/// s.step(&[false]);
/// // the `true` shifted three positions deep
/// assert_eq!(s.state(), &[false, false, true]);
/// ```
#[derive(Debug, Clone)]
pub struct SeqSim<'c> {
    evaluator: Evaluator<'c>,
    state: Vec<bool>,
}

impl<'c> SeqSim<'c> {
    /// Creates a simulator with the all-zero reset state.
    pub fn new(circuit: &'c Circuit) -> Self {
        SeqSim {
            evaluator: Evaluator::new(circuit),
            state: vec![false; circuit.num_dffs()],
        }
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &'c Circuit {
        self.evaluator.circuit()
    }

    /// Current flop state, indexed like `circuit.dffs()`.
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Overwrites the flop state (e.g. after a scan load).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the flop count.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state length mismatch");
        self.state.copy_from_slice(state);
    }

    /// Resets all flops to zero.
    pub fn reset(&mut self) {
        self.state.fill(false);
    }

    /// Applies one clock: evaluates the combinational core on (`pis`,
    /// current state), loads every flop with its D value, and returns the
    /// primary-output values *before* the edge (Mealy view).
    pub fn step(&mut self, pis: &[bool]) -> Vec<bool> {
        self.evaluator.eval(pis, &self.state);
        let po = self.evaluator.output_values();
        self.state = self.evaluator.next_state();
        po
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::generator::{counter, shift_register};
    use netlist::{CircuitBuilder, GateKind};

    #[test]
    fn counter_counts() {
        let c = counter(4);
        let mut s = SeqSim::new(&c);
        for expect in 1..=10u32 {
            s.step(&[true]);
            let value: u32 = s
                .state()
                .iter()
                .enumerate()
                .map(|(i, &b)| u32::from(b) << i)
                .sum();
            assert_eq!(value, expect);
        }
    }

    #[test]
    fn counter_holds_when_disabled() {
        let c = counter(3);
        let mut s = SeqSim::new(&c);
        s.step(&[true]);
        let before = s.state().to_vec();
        s.step(&[false]);
        assert_eq!(s.state(), &before[..]);
    }

    #[test]
    fn shift_register_delays() {
        let c = shift_register(4);
        let mut s = SeqSim::new(&c);
        let stream = [true, false, true, true, false, false, true];
        let mut outs = Vec::new();
        for &bit in &stream {
            outs.push(s.step(&[bit])[0]);
        }
        // output is the input delayed by 3 (Mealy: q3 visible during the
        // cycle after the bit has crossed 4 flops... the PO reads q3 before
        // the edge, so delay is exactly 4 steps; check suffix alignment).
        for i in 4..stream.len() {
            assert_eq!(outs[i], stream[i - 4], "delay mismatch at {i}");
        }
    }

    #[test]
    fn set_state_then_peek() {
        let mut b = CircuitBuilder::new("p");
        let x = b.input("x");
        let q = b.dff("q", x);
        let y = b.gate(GateKind::And, &[q, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let mut s = SeqSim::new(&c);
        s.set_state(&[true]);
        assert_eq!(s.state(), &[true]);
        // The outputs read the set state before the edge: y = q ∧ x.
        assert!(s.step(&[true])[0]);
        assert!(!s.step(&[false])[0]);
        assert_eq!(s.state(), &[false]);
    }

    #[test]
    fn reset_zeroes_state() {
        let c = counter(3);
        let mut s = SeqSim::new(&c);
        s.step(&[true]);
        s.reset();
        assert!(s.state().iter().all(|&b| !b));
    }
}
