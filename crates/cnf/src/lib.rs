//! Constraint encoding of [`netlist`] circuits onto the [`satsolver`]:
//! Tseitin clauses for gate logic, native GF(2) xor constraints for
//! parity.
//!
//! The bridge between the structural world (gates, nets, flops) and the
//! constraint world the solver lives in. One [`Encoder`] owns a
//! [`satsolver::Solver`] and incrementally appends structure to it as
//! clauses and native xor constraints:
//!
//! * [`Encoder::gate`] — one gate of any [`netlist::GateKind`], with
//!   constant folding and definition-variable introduction only where a
//!   gate genuinely needs one;
//! * [`Encoder::comb_in_place`] — a whole combinational frame: it turns
//!   the flop-output literals it is given into the next state's and
//!   writes the primary outputs' (time-unroll a sequential circuit by
//!   calling it once per clock);
//! * [`Encoder::parity`] — the XOR of any literals, the piece that lets
//!   the DynUnlock attack express a dependent mask bit over the free bits
//!   of the mask basis. Under the default [`XorMode::Native`] each parity
//!   is **one** wide xor constraint handled by the solver's GF(2) engine;
//!   [`XorMode::Tseitin`] keeps the classical clause expansion as a
//!   differential reference.
//!
//! Everything is *incremental*: encoding never resets the solver, so DIP
//! loops keep one warm instance and just keep adding cones and
//! constraints between [`solve_assuming`](satsolver::Solver::solve_assuming)
//! calls.
//!
//! # Example
//!
//! ```
//! use cnf::Encoder;
//! use netlist::generator::s208_like;
//! use satsolver::SolveResult;
//!
//! let c = s208_like();
//! let mut enc = Encoder::new();
//! let pis = enc.fresh_many(c.inputs().len());
//! let state = enc.fresh_many(c.num_dffs());
//! let (mut next, mut po) = (state.clone(), Vec::new());
//! enc.comb_in_place(&c, &pis, &mut next, &mut po);
//!
//! // Ask the solver for a stimulus that drives the primary output high.
//! assert_eq!(enc.solver_mut().solve_assuming(&[po[0]]), SolveResult::Sat);
//! let pi_vals: Vec<bool> = pis.iter().map(|&l| enc.solver().lit_model_value(l).unwrap()).collect();
//! let st_vals: Vec<bool> = state.iter().map(|&l| enc.solver().lit_model_value(l).unwrap()).collect();
//!
//! // The interpreter confirms the witness.
//! let mut ev = sim::Evaluator::new(&c);
//! ev.eval(&pi_vals, &st_vals);
//! assert!(ev.output_values()[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;

pub use encoder::{Encoder, XorMode};
