//! Incremental circuit construction.

use std::collections::HashMap;

use crate::circuit::{Circuit, Dff, Driver, Gate, NetId};
use crate::{GateKind, NetlistError};

/// Builder for [`Circuit`] values.
///
/// The builder hands out [`NetId`]s as construction proceeds and performs
/// full validation (single drivers, no floating nets, no combinational
/// loops, legal arities) in [`CircuitBuilder::finish`].
///
/// # Example
///
/// ```
/// use netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("half_adder");
/// let x = b.input("x");
/// let y = b.input("y");
/// let s = b.gate(GateKind::Xor, &[x, y], "sum");
/// let c = b.gate(GateKind::And, &[x, y], "carry");
/// b.output(s);
/// b.output(c);
/// let ha = b.finish().unwrap();
/// assert_eq!(ha.num_gates(), 2);
/// ```
#[derive(Debug)]
pub struct CircuitBuilder {
    name: String,
    net_names: Vec<String>,
    name_index: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    /// Driver per net, `None` while still undriven.
    drivers: Vec<Option<Driver>>,
    errors: Vec<NetlistError>,
}

impl CircuitBuilder {
    /// Starts a new empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            net_names: Vec::new(),
            name_index: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            drivers: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Declares (or retrieves) a named net without driving it.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.name_index.get(&name) {
            return id;
        }
        let id = NetId(self.net_names.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.net_names.push(name);
        self.drivers.push(None);
        id
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        self.drive(id, Driver::Input);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output. A net may be both an
    /// internal signal and an output; marking twice is idempotent.
    pub fn output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Adds a gate driving a freshly named output net and returns that net.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], out_name: impl Into<String>) -> NetId {
        let out = self.net(out_name);
        self.gate_into(kind, inputs, out);
        out
    }

    /// Adds a gate driving an existing net.
    pub fn gate_into(&mut self, kind: GateKind, inputs: &[NetId], output: NetId) {
        if !kind.arity_ok(inputs.len()) {
            self.errors.push(NetlistError::BadArity {
                net: self.net_names[output.index()].clone(),
                kind,
                arity: inputs.len(),
            });
        }
        let idx = self.gates.len();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        self.drive(output, Driver::Gate(idx));
    }

    /// Adds a D flip-flop with data input `d`; returns the Q (state) net,
    /// which is named `name`.
    pub fn dff(&mut self, name: impl Into<String>, d: NetId) -> NetId {
        let q = self.net(name);
        self.dff_into(d, q);
        q
    }

    /// Adds a D flip-flop whose Q pin is an existing net.
    pub fn dff_into(&mut self, d: NetId, q: NetId) {
        self.dffs.push(Dff { d, q });
        self.drive(q, Driver::Dff);
    }

    /// Number of nets declared so far.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    fn drive(&mut self, net: NetId, driver: Driver) {
        match &mut self.drivers[net.index()] {
            slot @ None => *slot = Some(driver),
            Some(_) => self.errors.push(NetlistError::MultipleDrivers {
                net: self.net_names[net.index()].clone(),
            }),
        }
    }

    /// Validates and produces the final [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns the first construction error (multiple drivers, bad arity),
    /// undriven net, or combinational loop.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // every net must be driven
        let mut drivers = Vec::with_capacity(self.drivers.len());
        for (i, d) in self.drivers.iter().enumerate() {
            match d {
                Some(d) => drivers.push(*d),
                None => {
                    return Err(NetlistError::UndrivenNet {
                        net: self.net_names[i].clone(),
                    })
                }
            }
        }
        let mut circuit = Circuit {
            name: self.name,
            net_names: self.net_names,
            inputs: self.inputs,
            outputs: self.outputs,
            gates: self.gates,
            dffs: self.dffs,
            drivers,
            topo_order: Vec::new(),
        };
        circuit.topo_order = crate::topo::topo_order(&circuit)?;
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_combinational() {
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate(GateKind::And, &[x, y], "z");
        b.output(z);
        let c = b.finish().unwrap();
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.net_name(z), "z");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sequential_loop_through_dff_is_fine() {
        // q feeds its own D through an inverter: a toggle flop. Legal.
        let mut b = CircuitBuilder::new("toggle");
        let q = b.net("q");
        let nq = b.gate(GateKind::Not, &[q], "nq");
        b.dff_into(nq, q);
        b.output(q);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn combinational_loop_detected() {
        let mut b = CircuitBuilder::new("loop");
        let a = b.net("a");
        let bnet = b.gate(GateKind::Not, &[a], "b");
        b.gate_into(GateKind::Not, &[bnet], a);
        b.output(a);
        let err = b.finish().unwrap_err();
        assert!(
            matches!(err, NetlistError::CombinationalLoop { .. }),
            "{err}"
        );
    }

    #[test]
    fn undriven_net_detected() {
        let mut b = CircuitBuilder::new("float");
        let x = b.input("x");
        let ghost = b.net("ghost");
        let z = b.gate(GateKind::And, &[x, ghost], "z");
        b.output(z);
        let err = b.finish().unwrap_err();
        assert_eq!(
            err,
            NetlistError::UndrivenNet {
                net: "ghost".into()
            }
        );
    }

    #[test]
    fn double_driver_detected() {
        let mut b = CircuitBuilder::new("dd");
        let x = b.input("x");
        let z = b.gate(GateKind::Buf, &[x], "z");
        b.gate_into(GateKind::Not, &[x], z);
        b.output(z);
        let err = b.finish().unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers { net: "z".into() });
    }

    #[test]
    fn bad_arity_detected() {
        let mut b = CircuitBuilder::new("arity");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate(GateKind::Not, &[x, y], "z");
        b.output(z);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::BadArity { arity: 2, .. }
        ));
    }

    #[test]
    fn net_is_idempotent_by_name() {
        let mut b = CircuitBuilder::new("n");
        let a1 = b.net("a");
        let a2 = b.net("a");
        assert_eq!(a1, a2);
        assert_eq!(b.num_nets(), 1);
    }

    #[test]
    fn output_marking_idempotent() {
        let mut b = CircuitBuilder::new("o");
        let x = b.input("x");
        b.output(x);
        b.output(x);
        let c = b.finish().unwrap();
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut b = CircuitBuilder::new("t");
        let x = b.input("x");
        // build a chain z3 <- z2 <- z1 <- x declared in reverse order
        let z1 = b.net("z1");
        let z2 = b.net("z2");
        let z3 = b.gate(GateKind::Not, &[z2], "z3");
        b.gate_into(GateKind::Not, &[z1], z2);
        b.gate_into(GateKind::Not, &[x], z1);
        b.output(z3);
        let c = b.finish().unwrap();
        let order = c.topo_gates();
        let pos = |net: NetId| {
            order
                .iter()
                .position(|&gi| c.gates()[gi].output == net)
                .unwrap()
        };
        assert!(pos(z1) < pos(z2));
        assert!(pos(z2) < pos(z3));
    }

    #[test]
    fn dff_of_output_lookup() {
        let mut b = CircuitBuilder::new("d");
        let x = b.input("x");
        let q = b.dff("q", x);
        b.output(q);
        let c = b.finish().unwrap();
        assert!(c.is_dff_output(q));
        assert!(!c.is_dff_output(x));
        assert_eq!(c.dffs()[0].q, q);
        assert_eq!(c.inputs(), [x]);
    }

    #[test]
    fn fanin_cone_stops_at_state() {
        let mut b = CircuitBuilder::new("cone");
        let x = b.input("x");
        let q = b.dff("q", x);
        let y = b.gate(GateKind::And, &[q, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let cone = c.fanin_cone(&[y]);
        // cone = {y, q, x} — does not cross the flop into x-again
        assert_eq!(cone.len(), 3);
    }
}
