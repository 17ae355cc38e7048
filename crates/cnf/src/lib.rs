//! Constraint encoding of [`netlist`] circuits onto the [`satsolver`]:
//! Tseitin clauses for gate logic, native GF(2) xor constraints for
//! parity.
//!
//! The bridge between the structural world (gates, nets, flops) and the
//! constraint world the solver lives in. One [`Encoder`] owns a
//! [`satsolver::Solver`] and incrementally appends structure to it as a
//! stream of [`satsolver::Constraint`]s:
//!
//! * [`Encoder::gate`] — one gate of any [`netlist::GateKind`], with
//!   constant folding and definition-variable introduction only where a
//!   gate genuinely needs one;
//! * [`Encoder::comb`] — a whole combinational frame, returning a
//!   [`CombCone`] with a literal for every driven net (time-unroll a
//!   sequential circuit by chaining `next_state` into the next call);
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
//! let cone = enc.comb(&c, &pis, &state);
//!
//! // Ask the solver for a stimulus that drives the primary output high.
//! assert_eq!(enc.solver_mut().solve_assuming(&[cone.po[0]]), SolveResult::Sat);
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

pub use encoder::{CombCone, Encoder, XorMode};
