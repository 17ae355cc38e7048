//! Topological ordering of the combinational core.
//!
//! DFFs cut the graph: a flop's Q pin is a *source* (like a primary input)
//! and its D pin is a *sink* (like a primary output). Only paths through
//! combinational gates count for ordering and loop detection.

use crate::circuit::{Circuit, Driver};
use crate::NetlistError;

/// Computes a topological order of gate indices (Kahn's algorithm).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] naming one net on a cycle if
/// the combinational core is cyclic.
pub fn topo_order(circuit: &Circuit) -> Result<Vec<usize>, NetlistError> {
    let n = circuit.gates.len();
    // in-degree = number of inputs driven by other gates
    let mut indeg = vec![0usize; n];
    // adjacency: gate -> gates that consume its output
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, gate) in circuit.gates.iter().enumerate() {
        for &inp in &gate.inputs {
            if let Driver::Gate(src) = circuit.drivers[inp.index()] {
                indeg[gi] += 1;
                consumers[src].push(gi);
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(g) = queue.pop() {
        order.push(g);
        for &c in &consumers[g] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != n {
        // find a gate still blocked => on (or downstream of) a cycle
        let blocked = (0..n)
            .find(|&g| indeg[g] > 0)
            .expect("some gate must remain blocked when order is incomplete");
        return Err(NetlistError::CombinationalLoop {
            net: circuit.net_name(circuit.gates[blocked].output).to_string(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use crate::CircuitBuilder;

    #[test]
    fn empty_circuit_topo() {
        let mut b = CircuitBuilder::new("empty");
        let x = b.input("x");
        b.output(x);
        let circ = b.finish().unwrap();
        assert!(circ.topo_gates().is_empty());
    }
}
