//! Error type for netlist construction, validation and parsing.

use std::fmt;

/// Errors produced while building, validating or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net is driven by more than one source.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// A net is used (as a gate/DFF input or primary output) but never driven.
    UndrivenNet {
        /// Name of the floating net.
        net: String,
    },
    /// The combinational core contains a cycle.
    CombinationalLoop {
        /// Name of one net on the cycle.
        net: String,
    },
    /// A gate was declared with an arity its kind does not allow.
    BadArity {
        /// Offending gate's output net name.
        net: String,
        /// Declared gate kind.
        kind: crate::GateKind,
        /// Number of inputs supplied.
        arity: usize,
    },
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::UndrivenNet { net } => write!(f, "net `{net}` is never driven"),
            NetlistError::CombinationalLoop { net } => {
                write!(f, "combinational loop through net `{net}`")
            }
            NetlistError::BadArity { net, kind, arity } => {
                write!(f, "gate `{net}`: {kind} cannot take {arity} inputs")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}
