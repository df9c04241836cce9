//! CNF formulas and DIMACS I/O.

use std::fmt;

use crate::types::{Clause, Lit};

/// A propositional formula in conjunctive normal form.
///
/// ```
/// use reason_sat::Cnf;
/// let cnf = Cnf::from_clauses(3, vec![vec![1, -2], vec![2, 3]]);
/// assert_eq!(cnf.num_vars(), 3);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula (trivially satisfiable) over `num_vars`
    /// variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf { num_vars, clauses: Vec::new() }
    }

    /// Builds a formula from DIMACS-style signed-integer clauses.
    ///
    /// # Panics
    ///
    /// Panics if any literal is `0` or references a variable outside
    /// `1..=num_vars`.
    pub fn from_clauses(num_vars: usize, clauses: Vec<Vec<i32>>) -> Self {
        let mut cnf = Cnf::new(num_vars);
        for ints in clauses {
            cnf.add_clause(Clause::from_dimacs(&ints));
        }
        cnf
    }

    /// Adds a clause.
    ///
    /// # Panics
    ///
    /// Panics if the clause references a variable `>= num_vars`.
    pub fn add_clause(&mut self, clause: Clause) {
        for lit in clause.iter() {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit} out of range for {} variables",
                self.num_vars
            );
        }
        self.clauses.push(clause);
    }

    /// Adds a clause given as DIMACS signed integers.
    pub fn add_dimacs_clause(&mut self, ints: &[i32]) {
        self.add_clause(Clause::from_dimacs(ints));
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub(crate) fn num_literals(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// The clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Evaluates the whole formula under a complete model.
    ///
    /// # Panics
    ///
    /// Panics if `model.len() < num_vars`.
    pub fn eval(&self, model: &[bool]) -> bool {
        assert!(model.len() >= self.num_vars, "model too short");
        self.clauses.iter().all(|c| c.eval(model))
    }

    /// `true` when any clause is empty, which makes the formula
    /// unsatisfiable outright.
    pub(crate) fn has_empty_clause(&self) -> bool {
        self.clauses.iter().any(Clause::is_empty)
    }

    /// Removes tautological clauses and duplicate literals within clauses,
    /// returning the number of clauses removed. Satisfiability-preserving.
    pub(crate) fn normalize(&mut self) -> usize {
        let before = self.clauses.len();
        self.clauses.retain(|c| !c.is_tautology());
        for c in &mut self.clauses {
            c.dedup();
        }
        before - self.clauses.len()
    }

    /// An estimate of the memory footprint in bytes: one 32-bit word per
    /// literal occurrence plus one header word per clause. This is the
    /// metric used for the "memory reduction" column of paper Table IV.
    pub fn footprint_bytes(&self) -> usize {
        4 * (self.num_literals() + self.num_clauses())
    }

    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    ///
    /// Returns [`DimacsError`] on malformed headers, out-of-range literals,
    /// or garbage tokens. A header declaring more than `i32::MAX`
    /// variables is malformed: a DIMACS literal is an `i32`, so no clause
    /// could name the variables past it, yet every consumer would size
    /// its per-variable tables from the declared count. The declared
    /// clause count must be a number but is advisory (many generators
    /// emit inaccurate counts).
    ///
    /// ```
    /// use reason_sat::Cnf;
    /// let cnf = Cnf::parse_dimacs("c comment\np cnf 2 2\n1 -2 0\n2 0\n").unwrap();
    /// assert_eq!(cnf.num_vars(), 2);
    /// assert_eq!(cnf.num_clauses(), 2);
    /// ```
    pub fn parse_dimacs(text: &str) -> Result<Self, DimacsError> {
        let mut num_vars: Option<usize> = None;
        let mut clauses: Vec<Clause> = Vec::new();
        let mut current: Vec<Lit> = Vec::new();

        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "cnf" {
                    return Err(DimacsError::BadHeader { line: line_no + 1 });
                }
                let bad = DimacsError::BadHeader { line: line_no + 1 };
                let vars: usize = parts[1].parse().map_err(|_| bad.clone())?;
                if vars > i32::MAX as usize || parts[2].parse::<usize>().is_err() {
                    return Err(bad);
                }
                num_vars = Some(vars);
                continue;
            }
            let nv = num_vars.ok_or(DimacsError::MissingHeader)?;
            for tok in line.split_whitespace() {
                let val: i32 = tok.parse().map_err(|_| DimacsError::BadToken {
                    line: line_no + 1,
                    token: tok.to_string(),
                })?;
                if val == 0 {
                    clauses.push(Clause::new(std::mem::take(&mut current)));
                } else {
                    if val.unsigned_abs() as usize > nv {
                        return Err(DimacsError::LiteralOutOfRange {
                            line: line_no + 1,
                            literal: val,
                        });
                    }
                    current.push(Lit::from_dimacs(val));
                }
            }
        }
        if !current.is_empty() {
            clauses.push(Clause::new(current));
        }
        let num_vars = num_vars.ok_or(DimacsError::MissingHeader)?;
        Ok(Cnf { num_vars, clauses })
    }

    /// Renders the formula as DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("p cnf {} {}\n", self.num_vars, self.clauses.len()));
        for c in &self.clauses {
            for l in c.iter() {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a Clause;
    type IntoIter = std::slice::Iter<'a, Clause>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses.iter()
    }
}

/// Errors produced while parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsError {
    /// No `p cnf <vars> <clauses>` line before the first clause.
    MissingHeader,
    /// A malformed problem line.
    BadHeader {
        /// 1-based source line.
        line: usize,
    },
    /// A token that is not a signed integer.
    BadToken {
        /// 1-based source line.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A literal referencing a variable above the declared count.
    LiteralOutOfRange {
        /// 1-based source line.
        line: usize,
        /// The offending literal.
        literal: i32,
    },
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::MissingHeader => write!(f, "missing `p cnf` header"),
            DimacsError::BadHeader { line } => write!(f, "malformed problem line at line {line}"),
            DimacsError::BadToken { line, token } => {
                write!(f, "unexpected token `{token}` at line {line}")
            }
            DimacsError::LiteralOutOfRange { line, literal } => {
                write!(f, "literal {literal} out of declared range at line {line}")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2], vec![-1, 2]]);
        assert!(cnf.eval(&[true, true]));
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, false]));
    }

    #[test]
    fn dimacs_roundtrip() {
        let cnf = Cnf::from_clauses(3, vec![vec![1, -2], vec![2, 3], vec![-3]]);
        let text = cnf.to_dimacs();
        let back = Cnf::parse_dimacs(&text).unwrap();
        assert_eq!(cnf, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(Cnf::parse_dimacs("1 2 0"), Err(DimacsError::MissingHeader)));
        assert!(matches!(Cnf::parse_dimacs("p cnf x 2"), Err(DimacsError::BadHeader { .. })));
        assert!(matches!(
            Cnf::parse_dimacs("p cnf 2 1\n1 zebra 0"),
            Err(DimacsError::BadToken { .. })
        ));
        assert!(matches!(
            Cnf::parse_dimacs("p cnf 2 1\n1 5 0"),
            Err(DimacsError::LiteralOutOfRange { .. })
        ));
    }

    #[test]
    fn parse_rejects_more_variables_than_a_literal_can_name() {
        let too_many = "p cnf 4294967296 1\n1 0\n";
        assert_eq!(Cnf::parse_dimacs(too_many), Err(DimacsError::BadHeader { line: 1 }));
        let past_i32 = format!("p cnf {} 1\n1 0\n", i32::MAX as u64 + 1);
        assert_eq!(Cnf::parse_dimacs(&past_i32), Err(DimacsError::BadHeader { line: 1 }));
        // The largest nameable variable is fine, and so is its literal.
        let cnf = Cnf::parse_dimacs(&format!("p cnf {0} 1\n-{0} 0\n", i32::MAX)).unwrap();
        assert_eq!(cnf.num_vars(), i32::MAX as usize);
        // The clause count must still be a number.
        assert_eq!(Cnf::parse_dimacs("p cnf 2 x\n"), Err(DimacsError::BadHeader { line: 1 }));
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let cnf = Cnf::parse_dimacs("c hi\n\np cnf 1 1\nc mid\n1 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn normalize_removes_tautologies() {
        let mut cnf = Cnf::from_clauses(2, vec![vec![1, -1], vec![1, 1, 2]]);
        let removed = cnf.normalize();
        assert_eq!(removed, 1);
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clauses()[0].len(), 2);
    }

    #[test]
    fn footprint_counts_words() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2], vec![-1]]);
        assert_eq!(cnf.footprint_bytes(), 4 * (3 + 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_clause_checks_range() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause(&[2]);
    }
}
