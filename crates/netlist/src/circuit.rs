//! The validated gate-level circuit IR.

use std::collections::HashMap;
use std::fmt;

use crate::{GateKind, NetlistError};

/// Identifier of a net (signal) inside one [`Circuit`].
///
/// Net ids are dense (`0..num_nets`), so per-net data can live in plain
/// vectors indexed by [`NetId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A combinational gate: `output = kind(inputs...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Boolean function computed by the gate.
    pub kind: GateKind,
    /// Input nets, in declaration order.
    pub inputs: Vec<NetId>,
    /// The single output net.
    pub output: NetId,
}

/// A D flip-flop: on each clock edge, `q` takes the value of `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Next-state (data) input net.
    pub d: NetId,
    /// State output net.
    pub q: NetId,
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// Primary input with the given position in `Circuit::inputs`.
    Input(usize),
    /// Output of gate `gates[i]`.
    Gate(usize),
    /// Q pin of flop `dffs[i]`.
    Dff(usize),
}

/// A validated gate-level sequential circuit.
///
/// Invariants (checked at construction by [`CircuitBuilder::finish`]):
///
/// * every net has exactly one driver (primary input, gate output, or DFF Q);
/// * every gate input / DFF D / primary output is a driven net;
/// * gate arities are legal for their kinds;
/// * the combinational core (gates only; DFFs cut the graph) is acyclic.
///
/// [`CircuitBuilder::finish`]: crate::CircuitBuilder::finish
#[derive(Clone)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) net_names: Vec<String>,
    pub(crate) name_index: HashMap<String, NetId>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) dffs: Vec<Dff>,
    pub(crate) drivers: Vec<Driver>,
    /// Gate indices in topological order (computed at validation).
    pub(crate) topo_order: Vec<usize>,
}

impl Circuit {
    /// The circuit's name (benchmark name for generated/parsed circuits).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of D flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The combinational gates (unordered; see [`Circuit::topo_gates`]).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The flip-flops, in declaration order. The scan chain uses this order
    /// unless a custom order is supplied.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Gate indices in a topological order of the combinational core
    /// (inputs and flop outputs are sources).
    pub fn topo_gates(&self) -> &[usize] {
        &self.topo_order
    }

    /// The name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.name_index.get(name).copied()
    }

    /// The gate driving `net`, if any.
    pub fn driving_gate(&self, net: NetId) -> Option<&Gate> {
        match self.drivers[net.index()] {
            Driver::Gate(i) => Some(&self.gates[i]),
            _ => None,
        }
    }

    /// Whether `net` is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        matches!(self.drivers[net.index()], Driver::Input(_))
    }

    /// Whether `net` is a flop output (state bit).
    pub fn is_dff_output(&self, net: NetId) -> bool {
        matches!(self.drivers[net.index()], Driver::Dff(_))
    }

    /// Index of the flop whose Q pin is `net`, if any.
    pub fn dff_of_output(&self, net: NetId) -> Option<usize> {
        match self.drivers[net.index()] {
            Driver::Dff(i) => Some(i),
            _ => None,
        }
    }

    /// The set of nets in the transitive fan-in cone of `roots`, including
    /// the roots themselves. The cone stops at primary inputs and flop
    /// outputs (sequential boundaries).
    pub fn fanin_cone(&self, roots: &[NetId]) -> Vec<NetId> {
        let mut seen = vec![false; self.num_nets()];
        let mut stack: Vec<NetId> = roots.to_vec();
        let mut cone = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            cone.push(n);
            if let Driver::Gate(i) = self.drivers[n.index()] {
                stack.extend(self.gates[i].inputs.iter().copied());
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Checks all structural invariants; used by tests and after
    /// transformations. Construction through the builder guarantees these,
    /// so a failure indicates a bug.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        // arity check
        for g in &self.gates {
            if !g.kind.arity_ok(g.inputs.len()) {
                return Err(NetlistError::BadArity {
                    net: self.net_name(g.output).to_string(),
                    kind: g.kind,
                    arity: g.inputs.len(),
                });
            }
        }
        // acyclicity is re-checked through topo
        crate::topo::topo_order(self).map(|_| ())
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Circuit({}: {} PI, {} PO, {} DFF, {} gates)",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.dffs.len(),
            self.gates.len()
        )
    }
}
