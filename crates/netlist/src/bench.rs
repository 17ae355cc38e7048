//! Reader and writer for the ISCAS-89 `.bench` netlist format.
//!
//! The format the paper's benchmarks ship in:
//!
//! ```text
//! # s27 (toy example)
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G0, G14)
//! G14 = NOT(G5)
//! G17 = NOR(G14, G0)
//! ```
//!
//! `parse` accepts the classic keywords (`AND`, `NAND`, `OR`, `NOR`, `XOR`,
//! `XNOR`, `NOT`, `BUFF`, `DFF`) case-insensitively plus `CONST0`/`CONST1`
//! extensions; `write` emits a file that `parse` reads back to an
//! equivalent circuit (round-trip tested).

use std::fmt::Write as _;

use crate::{Circuit, CircuitBuilder, GateKind, NetlistError};

/// Parses a `.bench` netlist.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a 1-based line number for syntax
/// errors, and the usual validation errors (undriven nets, loops, …) for
/// structurally broken netlists.
///
/// # Example
///
/// ```
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let c = netlist::bench::parse("inv", src).unwrap();
/// assert_eq!(c.num_gates(), 1);
/// ```
pub fn parse(name: impl Into<String>, source: &str) -> Result<Circuit, NetlistError> {
    let mut b = CircuitBuilder::new(name);
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line).map_err(|message| NetlistError::Parse {
            line: lineno + 1,
            message,
        })?;
    }
    b.finish()
}

fn parse_line(b: &mut CircuitBuilder, line: &str) -> Result<(), String> {
    // Either `INPUT(x)` / `OUTPUT(x)` or `lhs = KIND(a, b, ...)`.
    if let Some(rest) = strip_keyword(line, "INPUT") {
        let name = parse_parens(rest)?;
        if name.len() != 1 {
            return Err("INPUT takes exactly one name".into());
        }
        b.input(name[0]);
        return Ok(());
    }
    if let Some(rest) = strip_keyword(line, "OUTPUT") {
        let name = parse_parens(rest)?;
        if name.len() != 1 {
            return Err("OUTPUT takes exactly one name".into());
        }
        let net = b.net(name[0]);
        b.output(net);
        return Ok(());
    }
    let Some(eq) = line.find('=') else {
        return Err(format!("expected `lhs = GATE(...)`, got `{line}`"));
    };
    let lhs = line[..eq].trim();
    if lhs.is_empty() {
        return Err("empty left-hand side".into());
    }
    let rhs = line[eq + 1..].trim();
    let Some(open) = rhs.find('(') else {
        return Err(format!(
            "expected `GATE(...)` on right-hand side, got `{rhs}`"
        ));
    };
    let kind_str = rhs[..open].trim();
    let args = parse_parens(&rhs[open..])?;
    let out = b.net(lhs);
    if kind_str.eq_ignore_ascii_case("DFF") {
        if args.len() != 1 {
            return Err("DFF takes exactly one input".into());
        }
        let d = b.net(args[0]);
        b.dff_into(d, out);
        return Ok(());
    }
    let Some(kind) = GateKind::from_bench_name(kind_str) else {
        return Err(format!("unknown gate kind `{kind_str}`"));
    };
    let inputs: Vec<_> = args.iter().map(|a| b.net(*a)).collect();
    b.gate_into(kind, &inputs, out);
    Ok(())
}

fn strip_keyword<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let trimmed = line.trim_start();
    // `get` rather than slicing: a multi-byte character straddling
    // `kw.len()` means the line does not start with the keyword.
    if !trimmed.get(..kw.len())?.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = trimmed[kw.len()..].trim_start();
    rest.starts_with('(').then_some(rest)
}

/// Parses `"(a, b, c)"` (possibly with trailing junk-free whitespace) into
/// the list of comma-separated identifiers.
fn parse_parens(s: &str) -> Result<Vec<&str>, String> {
    let s = s.trim();
    if !s.starts_with('(') {
        return Err(format!("expected `(`, got `{s}`"));
    }
    let Some(close) = s.rfind(')') else {
        return Err("missing `)`".into());
    };
    if !s[close + 1..].trim().is_empty() {
        return Err(format!(
            "trailing characters after `)`: `{}`",
            &s[close + 1..]
        ));
    }
    let inner = &s[1..close];
    if inner.trim().is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for part in inner.split(',') {
        let id = part.trim();
        if id.is_empty() {
            return Err("empty identifier in argument list".into());
        }
        if id.contains(|c: char| c.is_whitespace() || c == '(' || c == ')') {
            return Err(format!("bad identifier `{id}`"));
        }
        out.push(id);
    }
    Ok(out)
}

/// Serializes a circuit to `.bench` text.
///
/// Gates are emitted in topological order, flops first — the file parses
/// back into an equivalent circuit regardless, since the format is
/// order-insensitive.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} DFFs, {} gates",
        circuit.inputs().len(),
        circuit.outputs().len(),
        circuit.num_dffs(),
        circuit.num_gates()
    );
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.net_name(i));
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.net_name(o));
    }
    for dff in circuit.dffs() {
        let _ = writeln!(
            out,
            "{} = DFF({})",
            circuit.net_name(dff.q),
            circuit.net_name(dff.d)
        );
    }
    // Gate-index order, the order `parse` numbers gates in, so re-writing
    // a parsed netlist reproduces it line for line.
    for gate in circuit.gates() {
        let args: Vec<&str> = gate.inputs.iter().map(|&n| circuit.net_name(n)).collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            circuit.net_name(gate.output),
            gate.kind.bench_name(),
            args.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "\
# a comment
INPUT(G0)
INPUT(G1)
OUTPUT(G17)

G5 = DFF(G10)
G10 = NAND(G0, G14)
G14 = NOT(G5)  # trailing comment
G17 = NOR(G14, G1)
";

    #[test]
    fn parse_toy() {
        let c = parse("toy", TOY).unwrap();
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 3);
        assert!(c.gates().iter().any(|g| c.net_name(g.output) == "G14"));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let c1 = parse("toy", TOY).unwrap();
        let text = write(&c1);
        let c2 = parse("toy", &text).unwrap();
        assert_eq!(c1.inputs().len(), c2.inputs().len());
        assert_eq!(c1.outputs().len(), c2.outputs().len());
        assert_eq!(c1.num_dffs(), c2.num_dffs());
        assert_eq!(c1.num_gates(), c2.num_gates());
        // same gate multiset by (kind, sorted input names, output name)
        let key = |c: &crate::Circuit| {
            let mut v: Vec<String> = c
                .gates()
                .iter()
                .map(|g| {
                    let mut ins: Vec<&str> = g.inputs.iter().map(|&n| c.net_name(n)).collect();
                    ins.sort_unstable();
                    format!("{}={}({})", c.net_name(g.output), g.kind, ins.join(","))
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&c1), key(&c2));
    }

    #[test]
    fn rewriting_a_parsed_netlist_is_a_fixpoint() {
        let c = crate::generator::GeneratorConfig::new("fix", 4, 3, 6, 24)
            .with_seed(7)
            .generate();
        assert_eq!(c.num_gates(), 24);
        let text = write(&c);
        let once = write(&parse(c.name(), &text).unwrap());
        assert_eq!(once, text, "first round trip");
        let twice = write(&parse(c.name(), &once).unwrap());
        assert_eq!(twice, text, "second round trip");
    }

    #[test]
    fn case_insensitive_keywords() {
        let src = "input(a)\noutput(y)\ny = nand(a, a)\n";
        let c = parse("ci", src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn whitespace_tolerance() {
        let src = "  INPUT ( a )\nOUTPUT(y)\n  y   =  NOT ( a )\n";
        // `INPUT ( a )` has a space before `(` — the classic format allows
        // `INPUT(a)`; we accept whitespace after keyword too.
        let c = parse("ws", src).unwrap();
        assert_eq!(c.inputs().len(), 1);
    }

    #[test]
    fn error_has_line_number() {
        let src = "INPUT(a)\nGARBAGE LINE\n";
        let err = parse("bad", src).unwrap_err();
        match err {
            NetlistError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn multibyte_char_at_keyword_end_is_a_parse_error() {
        // `é` straddles byte 5, the end of a would-be `INPUT` keyword.
        assert!(matches!(
            parse("utf8", "INPUé(a)\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn unknown_gate_kind_rejected() {
        let src = "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
        assert!(matches!(
            parse("bad", src),
            Err(NetlistError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn dff_wrong_arity_rejected() {
        let src = "INPUT(a)\nq = DFF(a, a)\nOUTPUT(q)\n";
        assert!(parse("bad", src).is_err());
    }

    #[test]
    fn undriven_output_rejected() {
        let src = "INPUT(a)\nOUTPUT(nowhere)\n";
        assert!(matches!(
            parse("bad", src),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn empty_arg_list_only_for_consts() {
        let src = "OUTPUT(y)\ny = CONST1()\n";
        let c = parse("const", src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn output_can_precede_driver() {
        let src = "OUTPUT(y)\nINPUT(a)\ny = BUFF(a)\n";
        assert!(parse("order", src).is_ok());
    }
}
