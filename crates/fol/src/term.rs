//! Terms, atoms, and substitutions.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A first-order term: a variable, or a function application (constants
/// are zero-arity applications).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable (uppercase identifier by convention).
    Var(String),
    /// A function application; constants have no arguments.
    App(String, Vec<Term>),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// A constant term.
    pub fn constant(name: impl Into<String>) -> Self {
        Term::App(name.into(), Vec::new())
    }

    /// A function application.
    pub fn app(name: impl Into<String>, args: Vec<Term>) -> Self {
        Term::App(name.into(), args)
    }

    /// Collects free variables into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// `true` when variable `v` occurs in this term.
    pub fn contains_var(&self, v: &str) -> bool {
        match self {
            Term::Var(x) => x == v,
            Term::App(_, args) => args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// Applies a substitution (deep, with path shortening through chained
    /// bindings).
    pub fn substitute(&self, subst: &HashMap<String, Term>) -> Term {
        match self {
            Term::Var(v) => match subst.get(v) {
                Some(t) => t.substitute(subst),
                None => self.clone(),
            },
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| a.substitute(subst)).collect())
            }
        }
    }

    /// The depth of the term (variables and constants have depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::App(name, args) => {
                write!(f, "{name}")?;
                if !args.is_empty() {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

/// An atomic formula: a predicate applied to terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Self {
        Atom { pred: pred.into(), args }
    }

    /// Collects free variables into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }

    /// Applies a substitution to all arguments.
    pub fn substitute(&self, subst: &HashMap<String, Term>) -> Atom {
        Atom {
            pred: self.pred.clone(),
            args: self.args.iter().map(|a| a.substitute(subst)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Term::App(self.pred.clone(), self.args.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round() {
        let t = Term::app("f", vec![Term::var("X"), Term::constant("a")]);
        assert_eq!(format!("{t}"), "f(X, a)");
        let atom = Atom::new("p", vec![t]);
        assert_eq!(format!("{atom}"), "p(f(X, a))");
    }

    #[test]
    fn substitution_is_deep() {
        let mut s = HashMap::new();
        s.insert("X".to_string(), Term::var("Y"));
        s.insert("Y".to_string(), Term::constant("a"));
        let t = Term::app("f", vec![Term::var("X")]);
        assert_eq!(t.substitute(&s), Term::app("f", vec![Term::constant("a")]));
    }

    #[test]
    fn collect_vars_and_ground() {
        let atom = Atom::new("p", vec![Term::var("X"), Term::app("f", vec![Term::var("Y")])]);
        let mut vars = BTreeSet::new();
        atom.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        let ground = Atom::new("p", vec![Term::constant("a")]);
        vars.clear();
        ground.collect_vars(&mut vars);
        assert!(vars.is_empty());
    }

    #[test]
    fn depth_and_contains() {
        let t = Term::app("f", vec![Term::app("g", vec![Term::var("X")])]);
        assert_eq!(t.depth(), 3);
        assert!(t.contains_var("X"));
        assert!(!t.contains_var("Y"));
    }
}
