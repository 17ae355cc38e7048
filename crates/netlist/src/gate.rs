//! Combinational gate kinds and their boolean semantics.

use std::fmt;

/// The combinational gate types of the ISCAS-89 `.bench` format.
///
/// `Const0`/`Const1` are not part of the original format but appear after
/// synthesis-style transformations (and in locked netlists), so the IR and
/// the writer support them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Identity of a single input.
    Buf,
    /// Negation of a single input.
    Not,
    /// N-ary AND.
    And,
    /// N-ary NAND.
    Nand,
    /// N-ary OR.
    Or,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (odd parity).
    Xor,
    /// N-ary XNOR (even parity).
    Xnor,
    /// Constant false.
    Const0,
    /// Constant true.
    Const1,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for iteration in tests and
    /// statistics).
    pub const ALL: [GateKind; 10] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// Evaluates the gate on its input values.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is invalid for the kind (see
    /// [`GateKind::arity_ok`]).
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(
            self.arity_ok(inputs.len()),
            "{self} cannot take {} inputs",
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
        }
    }

    /// Whether `n` inputs is a legal arity for this gate kind.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::Const0 | GateKind::Const1 => n == 0,
            _ => n >= 1,
        }
    }

    /// The `.bench` keyword for this gate kind.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Buf => "BUFF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive). `BUF` is accepted as an
    /// alias of `BUFF`.
    pub fn from_bench_name(s: &str) -> Option<GateKind> {
        Some(match s.to_ascii_uppercase().as_str() {
            "BUFF" | "BUF" => GateKind::Buf,
            "NOT" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_two_inputs() {
        let cases = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, table) in cases {
            for (i, expect) in table.iter().enumerate() {
                let a = i & 1 == 1;
                let b = i & 2 == 2;
                assert_eq!(kind.eval(&[a, b]), *expect, "{kind}({a},{b})");
            }
        }
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Buf.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Not.eval(&[false]));
    }

    #[test]
    fn constants() {
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Const1.eval(&[]));
    }

    #[test]
    fn wide_gates() {
        assert!(GateKind::And.eval(&[true; 5]));
        assert!(!GateKind::And.eval(&[true, true, false, true]));
        assert!(GateKind::Xor.eval(&[true, true, true])); // odd parity
        assert!(!GateKind::Xnor.eval(&[true, true, true]));
        assert!(GateKind::Or.eval(&[false, false, true, false]));
    }

    #[test]
    fn arity_validation() {
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::Const0.arity_ok(0));
        assert!(!GateKind::Const1.arity_ok(1));
        assert!(GateKind::And.arity_ok(1));
        assert!(GateKind::And.arity_ok(8));
        assert!(!GateKind::And.arity_ok(0));
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn eval_bad_arity_panics() {
        GateKind::Not.eval(&[true, false]);
    }

    #[test]
    fn bench_name_roundtrip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_bench_name(kind.bench_name()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_name("buf"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_name("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_name("DFF"), None); // DFFs are not gates
        assert_eq!(GateKind::from_bench_name("bogus"), None);
    }
}
