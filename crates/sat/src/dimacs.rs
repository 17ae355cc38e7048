//! DIMACS CNF reading and writing.
//!
//! The standard interchange format for SAT instances: a `p cnf <vars>
//! <clauses>` header followed by whitespace-separated literal lists, each
//! clause terminated by `0`. Comment lines start with `c`; a trailing `%`
//! section (as emitted by some SATLIB generators) is tolerated.
//!
//! The CryptoMiniSat **`x`-line XOR extension** is supported: a line
//! starting with `x` declares a parity constraint — `x1 2 -3 0` means
//! `x1 ⊕ x2 ⊕ ¬x3 = 1` (the XOR of the listed literals is *true*; a
//! negated literal flips the effective right-hand side). X-lines count
//! toward the header's clause total, matching CryptoMiniSat. This lets
//! native-xor instances be dumped and diffed with external solvers.
//!
//! # Example
//!
//! ```
//! use satsolver::dimacs::Cnf;
//! use satsolver::SolveResult;
//!
//! let cnf = Cnf::parse("p cnf 3 2\n1 2 0\nx1 2 -3 0\n").unwrap();
//! assert_eq!(cnf.xors.len(), 1);
//! let (mut solver, vars) = cnf.to_solver();
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(Cnf::parse(&cnf.to_dimacs()).unwrap(), cnf);
//! # let _ = vars;
//! ```

use std::fmt;

use crate::types::{Lit, Var};
use crate::xor::XorClause;
use crate::Solver;

/// Largest variable count a formula may declare: literals pack the
/// variable index and sign into one `u32` (`var << 1 | negated`), so
/// DIMACS variable numbers above `2^31` would silently wrap.
pub const MAX_VARS: usize = (u32::MAX >> 1) as usize + 1;

/// A CNF formula held as plain clause lists, plus native xor constraints
/// (the CryptoMiniSat `x`-line extension).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (indices `0..num_vars`); may exceed the highest
    /// variable that actually occurs.
    pub num_vars: usize,
    /// The clauses, each a disjunction of literals.
    pub clauses: Vec<Vec<Lit>>,
    /// Native parity constraints, written/read as `x`-lines.
    pub xors: Vec<XorClause>,
}

impl Cnf {
    /// An empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Cnf {
        Cnf {
            num_vars,
            clauses: Vec::new(),
            xors: Vec::new(),
        }
    }

    /// Appends a clause, growing `num_vars` to cover its literals.
    pub fn add_clause(&mut self, lits: impl Into<Vec<Lit>>) {
        let lits = lits.into();
        for l in &lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.clauses.push(lits);
    }

    /// Appends a parity constraint `⊕ lits = rhs`, growing `num_vars` to
    /// cover its literals. A trivially-true empty constraint (`⊕ ∅ = 0`)
    /// is dropped, because the `x`-line format has no spelling for it; an
    /// empty constraint with `rhs = true` is kept (it renders as `x 0`,
    /// an unsatisfiable line).
    pub fn add_xor(&mut self, lits: impl Into<Vec<Lit>>, rhs: bool) {
        let lits = lits.into();
        if lits.is_empty() && !rhs {
            return;
        }
        for l in &lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.xors.push(XorClause { lits, rhs });
    }

    /// Whether `assignment` (indexed by variable) satisfies every clause
    /// and every xor constraint.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        }) && self.xors.iter().all(|x| x.eval(assignment))
    }

    /// Parses DIMACS CNF text, including `x`-lines (see the module docs).
    ///
    /// The header is required. Fewer clauses than the header promises is an
    /// error; extra clauses are an error too (x-lines count toward the
    /// total). Literals must stay within the declared variable count. An
    /// `x` prefix opens a parity constraint — attached (`x1 2 0`) or
    /// standalone (`x 1 2 0`) — which may continue across lines like an
    /// ordinary clause.
    ///
    /// # Errors
    ///
    /// Returns the first [`DimacsError`] encountered.
    pub fn parse(input: &str) -> Result<Cnf, DimacsError> {
        let mut header: Option<(usize, usize)> = None;
        let mut cnf = Cnf::default();
        let mut current: Vec<Lit> = Vec::new();
        let mut in_xor = false;
        let mut done = false;
        // The 1-based line being read; after the loop, the last line.
        let mut at = 1;

        for (lineno, line) in input.lines().enumerate() {
            at = lineno + 1;
            let err = |msg: String| DimacsError { line: at, msg };
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('%') {
                done = true; // SATLIB end-of-file marker
                continue;
            }
            if done {
                // Tolerate the conventional lone "0" after the '%' marker.
                if line == "0" {
                    continue;
                }
                return Err(err("content after '%' end marker".into()));
            }
            if let Some(rest) = line.strip_prefix('p') {
                if header.is_some() {
                    return Err(err("duplicate 'p' header".into()));
                }
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let parsed = match fields.as_slice() {
                    ["cnf", v, c] => v.parse::<usize>().ok().zip(c.parse::<usize>().ok()),
                    _ => None,
                };
                let Some((v, c)) = parsed else {
                    return Err(err(
                        "malformed header (expected 'p cnf <vars> <clauses>')".into()
                    ));
                };
                if v > MAX_VARS {
                    return Err(err(format!(
                        "header declares {v} variables, more than the supported {MAX_VARS}"
                    )));
                }
                header = Some((v, c));
                cnf.num_vars = v;
                continue;
            }
            let Some((num_vars, num_clauses)) = header else {
                return Err(err("clause data before 'p cnf' header".into()));
            };
            for tok in line.split_whitespace() {
                let mut tok = tok;
                // An 'x' prefix at the start of a constraint opens an
                // xor clause; `x1` carries the first literal attached.
                if !in_xor && current.is_empty() {
                    if let Some(rest) = tok.strip_prefix('x') {
                        in_xor = true;
                        if rest.is_empty() {
                            continue;
                        }
                        tok = rest;
                    }
                }
                let code: i64 = tok
                    .parse()
                    .map_err(|_| err(format!("bad literal token {tok:?}")))?;
                if code == 0 {
                    if cnf.clauses.len() + cnf.xors.len() == num_clauses {
                        return Err(err("more clauses than the header declared".into()));
                    }
                    if in_xor {
                        // An x-line asserts XOR(listed literals) = true.
                        cnf.xors.push(XorClause {
                            lits: std::mem::take(&mut current),
                            rhs: true,
                        });
                        in_xor = false;
                    } else {
                        cnf.clauses.push(std::mem::take(&mut current));
                    }
                } else {
                    let var = code.unsigned_abs() as usize;
                    if var > num_vars {
                        return Err(err(format!(
                            "variable {var} exceeds declared count {num_vars}"
                        )));
                    }
                    current.push(Lit::from_dimacs(code));
                }
            }
        }

        let err = |msg: String| DimacsError { line: at, msg };
        let (_, num_clauses) = header.ok_or_else(|| err("no 'p cnf' header".into()))?;
        if !current.is_empty() || in_xor {
            return Err(err("file ends inside a clause (no '0')".into()));
        }
        let found = cnf.clauses.len() + cnf.xors.len();
        if found != num_clauses {
            return Err(err(format!(
                "header declared {num_clauses} clauses but file has {found}"
            )));
        }
        Ok(cnf)
    }

    /// Renders the formula as DIMACS CNF text (inverse of [`Cnf::parse`]).
    ///
    /// Xor constraints become `x`-lines. The format asserts the XOR of the
    /// listed literals is *true*, so a constraint with `rhs = false` is
    /// written with its first literal's sign flipped — logically identical,
    /// though re-parsing yields the sign-folded spelling (compare with
    /// [`XorClause::canonical`] when a structural round-trip is needed).
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "p cnf {} {}\n",
            self.num_vars,
            self.clauses.len() + self.xors.len()
        ));
        for c in &self.clauses {
            for l in c {
                out.push_str(&format!("{} ", l.to_dimacs()));
            }
            out.push_str("0\n");
        }
        for x in &self.xors {
            out.push('x');
            for (i, l) in x.lits.iter().enumerate() {
                let flip = i == 0 && !x.rhs;
                let code = if flip { -l.to_dimacs() } else { l.to_dimacs() };
                out.push_str(&format!("{code} "));
            }
            if x.lits.is_empty() {
                // `⊕ ∅ = 1`: an unsatisfiable empty x-line (`add_xor`
                // drops the trivially-true case, which has no spelling).
                debug_assert!(x.rhs);
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }

    /// Builds a fresh [`Solver`] loaded with this formula — clauses plus
    /// native xor constraints. Returns the solver and the [`Var`] handles,
    /// where `vars[i]` is DIMACS variable `i + 1`.
    pub fn to_solver(&self) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..self.num_vars).map(|_| s.new_var()).collect();
        for c in &self.clauses {
            s.add_clause(c);
        }
        for x in &self.xors {
            s.add_xor(&x.lits, x.rhs);
        }
        (s, vars)
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dimacs())
    }
}

/// Why [`Cnf::parse`] rejected its input. Errors found at the end of the
/// input (a missing header, an unterminated clause, too few clauses) name
/// its last line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DimacsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    /// Asserts that `text` is rejected at `line` with a message that
    /// contains `fragment`.
    fn rejects(text: &str, line: usize, fragment: &str) {
        let err = Cnf::parse(text).expect_err("must be rejected");
        assert_eq!(err.line, line, "{err}");
        assert!(err.msg.contains(fragment), "{err} lacks {fragment:?}");
    }

    #[test]
    fn parse_rejects_oversized_variable_count() {
        // 2^32 + 1 would wrap to variable 1 in the packed representation.
        rejects(
            "p cnf 4294967297 1\n4294967297 0\n",
            1,
            "4294967297 variables",
        );
        // The largest representable count is accepted.
        let cnf = Cnf::parse(&format!("p cnf {MAX_VARS} 1\n{MAX_VARS} 0\n")).unwrap();
        assert_eq!(cnf.num_vars, MAX_VARS);
        assert_eq!(cnf.clauses[0][0].var().index(), MAX_VARS - 1);
    }

    #[test]
    fn parse_simple() {
        let cnf = Cnf::parse("c comment\np cnf 3 2\n1 -2 3 0\n-1 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 3);
        assert_eq!(cnf.clauses[0][1], Lit::from_dimacs(-2));
    }

    #[test]
    fn parse_multiline_clause() {
        let cnf = Cnf::parse("p cnf 4 1\n1 2\n3 4 0\n").unwrap();
        assert_eq!(cnf.clauses[0].len(), 4);
    }

    #[test]
    fn parse_empty_clause() {
        let cnf = Cnf::parse("p cnf 1 1\n0\n").unwrap();
        assert!(cnf.clauses[0].is_empty());
        let (mut s, _) = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn parse_satlib_percent_footer() {
        let cnf = Cnf::parse("p cnf 2 1\n1 -2 0\n%\n0\n\n").unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        rejects("p cnf 2 1\n1 -2 0\n%\n1 0\n", 4, "after '%'");
    }

    #[test]
    fn roundtrip_identity() {
        let mut cnf = Cnf::new(5);
        cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(-3)]);
        cnf.add_clause(vec![Lit::from_dimacs(-5)]);
        cnf.add_clause(Vec::new());
        let text = cnf.to_dimacs();
        let back = Cnf::parse(&text).unwrap();
        assert_eq!(back, cnf);
        // And rendering again is a fixpoint.
        assert_eq!(back.to_dimacs(), text);
    }

    #[test]
    fn roundtrip_through_display() {
        let cnf = Cnf::parse("p cnf 3 2\n-1 2 0\n3 0\n").unwrap();
        assert_eq!(Cnf::parse(&cnf.to_string()).unwrap(), cnf);
    }

    #[test]
    fn error_missing_header() {
        rejects("1 2 0\n", 1, "before 'p cnf' header");
        // Found at the end of the input: the last line is named.
        rejects("", 1, "no 'p cnf' header");
        rejects("c one\nc two\n", 2, "no 'p cnf' header");
    }

    #[test]
    fn error_bad_header() {
        rejects("p cnf x 2\n", 1, "malformed header");
    }

    #[test]
    fn error_duplicate_header() {
        rejects("p cnf 1 0\np cnf 1 0\n", 2, "duplicate 'p' header");
    }

    #[test]
    fn error_bad_literal() {
        rejects("p cnf 2 1\n1 two 0\n", 2, "bad literal token \"two\"");
    }

    #[test]
    fn error_variable_out_of_range() {
        rejects(
            "p cnf 2 1\n1 -9 0\n",
            2,
            "variable 9 exceeds declared count 2",
        );
    }

    #[test]
    fn error_clause_count_mismatch() {
        rejects("p cnf 2 3\n1 0\n", 2, "declared 3 clauses but file has 1");
    }

    #[test]
    fn error_too_many_clauses() {
        rejects(
            "p cnf 2 1\n1 0\n2 0\n",
            3,
            "more clauses than the header declared",
        );
    }

    #[test]
    fn error_unterminated_clause() {
        rejects("p cnf 2 1\n1 2\n", 2, "inside a clause");
    }

    #[test]
    fn errors_display() {
        let err = Cnf::parse("p cnf 2 1\n1 two 0\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: bad literal token \"two\"");
    }

    #[test]
    fn parse_xor_lines() {
        let cnf = Cnf::parse("p cnf 4 3\n1 2 0\nx1 2 -3 0\nx 3 4 0\n").unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.xors.len(), 2);
        assert_eq!(
            cnf.xors[0],
            XorClause::new(
                vec![
                    Lit::from_dimacs(1),
                    Lit::from_dimacs(2),
                    Lit::from_dimacs(-3)
                ],
                true
            )
        );
        assert_eq!(
            cnf.xors[1],
            XorClause::new(vec![Lit::from_dimacs(3), Lit::from_dimacs(4)], true)
        );
    }

    #[test]
    fn parse_multiline_xor() {
        let cnf = Cnf::parse("p cnf 4 1\nx1 2\n3 4 0\n").unwrap();
        assert_eq!(cnf.xors.len(), 1);
        assert_eq!(cnf.xors[0].lits.len(), 4);
        assert!(cnf.xors[0].rhs);
    }

    #[test]
    fn xor_roundtrip_identity() {
        // Parsed x-lines always carry rhs = true, so parse ∘ to_dimacs is
        // the identity on parsed formulas.
        let text = "p cnf 5 3\n1 -5 0\nx1 2 -3 0\nx4 5 0\n";
        let cnf = Cnf::parse(text).unwrap();
        let rendered = cnf.to_dimacs();
        assert_eq!(Cnf::parse(&rendered).unwrap(), cnf);
        assert_eq!(rendered, text);
    }

    #[test]
    fn xor_roundtrip_folds_negative_rhs() {
        // rhs = false is spelled by flipping the first literal's sign;
        // the round trip is canonical-equal, not structurally equal.
        let mut cnf = Cnf::new(3);
        cnf.add_xor(vec![Lit::from_dimacs(1), Lit::from_dimacs(2)], false);
        cnf.add_xor(vec![Lit::from_dimacs(-2), Lit::from_dimacs(3)], true);
        let back = Cnf::parse(&cnf.to_dimacs()).unwrap();
        assert_eq!(back.xors.len(), 2);
        for (a, b) in back.xors.iter().zip(&cnf.xors) {
            assert_eq!(a.canonical(), b.canonical());
        }
        // And identical truth tables.
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(cnf.eval(&a), back.eval(&a), "assignment {a:?}");
        }
    }

    #[test]
    fn empty_xor_lines() {
        // Trivially-true `⊕ ∅ = 0` is dropped; `⊕ ∅ = 1` renders as an
        // unsatisfiable bare "x 0" line.
        let mut cnf = Cnf::new(1);
        cnf.add_xor(Vec::new(), false);
        assert!(cnf.xors.is_empty());
        cnf.add_xor(Vec::new(), true);
        assert_eq!(cnf.xors.len(), 1);
        let back = Cnf::parse(&cnf.to_dimacs()).unwrap();
        assert_eq!(back.xors, cnf.xors);
        let (mut s, _) = back.to_solver();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_lines_count_toward_header_total() {
        rejects("p cnf 2 1\n1 0\nx1 2 0\n", 3, "more clauses");
        rejects(
            "p cnf 2 3\n1 0\nx1 2 0\n",
            3,
            "declared 3 clauses but file has 2",
        );
    }

    #[test]
    fn unterminated_xor_is_an_error() {
        rejects("p cnf 2 1\nx1 2\n", 2, "inside a clause");
        rejects("p cnf 2 1\nx\n", 2, "inside a clause");
    }

    #[test]
    fn xor_variables_respect_declared_count() {
        rejects("p cnf 2 1\nx1 -9 0\n", 2, "variable 9 exceeds");
    }

    #[test]
    fn solve_parsed_xor_instance() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1 forces x2 = 0, x3 = 1.
        let cnf = Cnf::parse("p cnf 3 3\nx1 2 0\nx2 3 0\n1 0\n").unwrap();
        let (mut s, vars) = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(vars[0]), Some(true));
        assert_eq!(s.value(vars[1]), Some(false));
        assert_eq!(s.value(vars[2]), Some(true));
        let model: Vec<bool> = vars.iter().map(|&v| s.value(v).unwrap()).collect();
        assert!(cnf.eval(&model));
    }

    #[test]
    fn to_cnf_exports_xor_rows() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_xor(
            &[
                Lit::positive(vars[0]),
                Lit::positive(vars[1]),
                Lit::positive(vars[2]),
            ],
            true,
        );
        s.add_xor(
            &[
                Lit::positive(vars[1]),
                Lit::positive(vars[2]),
                Lit::positive(vars[3]),
            ],
            false,
        );
        let cnf = s.to_cnf();
        assert_eq!(cnf.xors.len(), 2);
        // The export is the RREF'd system: same solution set.
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let original = (a[0] ^ a[1] ^ a[2]) && !(a[1] ^ a[2] ^ a[3]);
            assert_eq!(cnf.eval(&a), original, "assignment {a:?}");
        }
        // And it survives a textual round trip.
        let back = Cnf::parse(&cnf.to_dimacs()).unwrap();
        for (a, b) in back.xors.iter().zip(&cnf.xors) {
            assert_eq!(a.canonical(), b.canonical());
        }
    }

    #[test]
    fn solve_parsed_instance() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c) forces b and c.
        let cnf = Cnf::parse("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n").unwrap();
        let (mut s, vars) = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(vars[1]), Some(true));
        assert_eq!(s.value(vars[2]), Some(true));
        let model: Vec<bool> = vars.iter().map(|&v| s.value(v).unwrap()).collect();
        assert!(cnf.eval(&model));
    }
}
