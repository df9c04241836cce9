//! Propositional vocabulary: variables, literals, and clauses.
//!
//! Variables are dense `u32` indices starting at 0. Literals use the
//! MiniSat-style packed encoding `var << 1 | sign` so that a literal and its
//! negation differ only in the lowest bit, which makes watch lists and
//! implication graphs indexable by `Lit::code()`.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense 0-based index.
///
/// ```
/// use reason_sat::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its 0-based index.
    pub fn new(index: usize) -> Self {
        Var(index as u32)
    }

    /// The 0-based index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit::new(self, false)
    }

    /// The negative literal of this variable.
    // Not `std::ops::Neg`: this constructs a `Lit` from a `Var`, it does
    // not negate a `Var` into a `Var`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit::new(self, true)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, packed as `var << 1 | sign`.
///
/// The packed code of a literal (`code()`) is a dense index suitable for
/// watch lists and the binary implication graph: literal `x` and `!x` have
/// adjacent codes.
///
/// ```
/// use reason_sat::{Lit, Var};
/// let l = Var::new(2).pos();
/// assert_eq!((!l).var(), l.var());
/// assert!((!l).is_neg());
/// assert_eq!(!(!l), l);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var`, negated when `negated` is true.
    pub fn new(var: Var, negated: bool) -> Self {
        Lit(var.0 << 1 | u32::from(negated))
    }

    /// Reconstructs a literal from its packed code.
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Parses a DIMACS-style signed integer (`3` → x2, `-3` → ¬x2).
    ///
    /// # Panics
    ///
    /// Panics if `dimacs == 0`, which DIMACS reserves as a terminator.
    pub(crate) fn from_dimacs(dimacs: i32) -> Self {
        assert!(dimacs != 0, "DIMACS literal 0 is the clause terminator");
        let var = Var::new(dimacs.unsigned_abs() as usize - 1);
        Lit::new(var, dimacs < 0)
    }

    /// Renders this literal as a DIMACS signed integer.
    pub fn to_dimacs(self) -> i32 {
        let v = (self.0 >> 1) as i32 + 1;
        if self.is_neg() {
            -v
        } else {
            v
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` when this is the negated polarity of the variable.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The packed code (`var * 2 + sign`), a dense index.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Evaluates the literal under a truth value for its variable.
    pub(crate) fn eval(self, var_value: bool) -> bool {
        var_value ^ self.is_neg()
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// A disjunction of literals.
///
/// Clauses are plain literal vectors with helper queries; solvers keep their
/// own annotated clause arenas internally.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates a clause from literals.
    pub fn new(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }

    /// Creates a clause from DIMACS-style signed integers.
    ///
    /// # Panics
    ///
    /// Panics if any entry is `0`.
    pub fn from_dimacs(ints: &[i32]) -> Self {
        Clause::new(ints.iter().map(|&i| Lit::from_dimacs(i)).collect())
    }

    /// The literals of the clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` when the clause has no literals (the empty clause is false).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// `true` when the clause has exactly one literal.
    pub(crate) fn is_unit(&self) -> bool {
        self.lits.len() == 1
    }

    /// `true` when the clause contains both a literal and its negation.
    pub(crate) fn is_tautology(&self) -> bool {
        let mut sorted: Vec<Lit> = self.lits.clone();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == !w[1] || !w[0] == w[1])
    }

    /// `true` when the clause contains the literal.
    #[cfg(test)]
    fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Removes duplicate literals (preserving first occurrence order).
    pub(crate) fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.lits.retain(|l| seen.insert(*l));
    }

    /// Evaluates the clause under a complete model indexed by variable.
    pub(crate) fn eval(&self, model: &[bool]) -> bool {
        self.lits.iter().any(|l| l.eval(model[l.var().index()]))
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Self {
        Clause::new(lits)
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_packing_roundtrip() {
        for idx in 0..100 {
            let v = Var::new(idx);
            assert_eq!(v.pos().var(), v);
            assert_eq!(v.neg().var(), v);
            assert!(!v.pos().is_neg());
            assert!(v.neg().is_neg());
            assert_eq!(!v.pos(), v.neg());
            assert_eq!(Lit::from_code(v.pos().code()), v.pos());
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        for d in [-42, -1, 1, 7, 42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    #[should_panic(expected = "terminator")]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn lit_eval() {
        let v = Var::new(0);
        assert!(v.pos().eval(true));
        assert!(!v.pos().eval(false));
        assert!(!v.neg().eval(true));
        assert!(v.neg().eval(false));
    }

    #[test]
    fn clause_queries() {
        let c = Clause::from_dimacs(&[1, -2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(!c.is_unit());
        assert!(!c.is_tautology());
        assert!(c.contains(Lit::from_dimacs(-2)));
        assert!(!c.contains(Lit::from_dimacs(2)));

        let t = Clause::from_dimacs(&[1, -1]);
        assert!(t.is_tautology());
    }

    #[test]
    fn clause_eval_against_model() {
        let c = Clause::from_dimacs(&[1, -2]);
        assert!(c.eval(&[true, true]));
        assert!(c.eval(&[false, false]));
        assert!(!c.eval(&[false, true]));
    }

    #[test]
    fn clause_dedup() {
        let mut c = Clause::from_dimacs(&[1, 1, -2, 1]);
        c.dedup();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn display_forms() {
        let c = Clause::from_dimacs(&[1, -2]);
        assert_eq!(format!("{c}"), "(x0 | !x1)");
    }
}
