//! Formula AST and finite-model semantics.

use std::collections::BTreeSet;
use std::fmt;

use crate::term::Atom;

/// A first-order formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// An atomic predicate application.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Material implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification.
    Forall(String, Box<Formula>),
    /// Existential quantification.
    Exists(String, Box<Formula>),
}

impl Formula {
    /// Convenience constructor for atoms.
    #[cfg(test)]
    fn atom(pred: impl Into<String>, args: Vec<crate::term::Term>) -> Self {
        Formula::Atom(Atom::new(pred, args))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Self {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    pub(crate) fn and(a: Formula, b: Formula) -> Self {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub(crate) fn or(a: Formula, b: Formula) -> Self {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub(crate) fn implies(a: Formula, b: Formula) -> Self {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Biconditional.
    pub(crate) fn iff(a: Formula, b: Formula) -> Self {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    /// Universal quantification.
    pub(crate) fn forall(var: impl Into<String>, f: Formula) -> Self {
        Formula::Forall(var.into(), Box::new(f))
    }

    /// Existential quantification.
    pub(crate) fn exists(var: impl Into<String>, f: Formula) -> Self {
        Formula::Exists(var.into(), Box::new(f))
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        fn go(f: &Formula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
            match f {
                Formula::Atom(a) => {
                    let mut vars = BTreeSet::new();
                    a.collect_vars(&mut vars);
                    for v in vars {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                }
                Formula::Not(x) => go(x, bound, out),
                Formula::And(a, b)
                | Formula::Or(a, b)
                | Formula::Implies(a, b)
                | Formula::Iff(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Formula::Forall(v, x) | Formula::Exists(v, x) => {
                    bound.push(v.clone());
                    go(x, bound, out);
                    bound.pop();
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Universally closes the formula over its free variables.
    pub(crate) fn universal_closure(&self) -> Formula {
        let mut f = self.clone();
        for v in self.free_vars().into_iter().rev() {
            f = Formula::forall(v, f);
        }
        f
    }

    /// All predicate names with their arities.
    #[cfg(test)]
    pub(crate) fn predicates(&self) -> BTreeSet<(String, usize)> {
        fn go(f: &Formula, out: &mut BTreeSet<(String, usize)>) {
            match f {
                Formula::Atom(a) => {
                    out.insert((a.pred.clone(), a.args.len()));
                }
                Formula::Not(x) | Formula::Forall(_, x) | Formula::Exists(_, x) => go(x, out),
                Formula::And(a, b)
                | Formula::Or(a, b)
                | Formula::Implies(a, b)
                | Formula::Iff(a, b) => {
                    go(a, out);
                    go(b, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// All constant and function names with arities (functions with arity
    /// > 0, constants with arity 0).
    #[cfg(test)]
    pub(crate) fn functions(&self) -> BTreeSet<(String, usize)> {
        fn term(t: &crate::term::Term, out: &mut BTreeSet<(String, usize)>) {
            if let crate::term::Term::App(f, args) = t {
                out.insert((f.clone(), args.len()));
                for a in args {
                    term(a, out);
                }
            }
        }
        fn go(f: &Formula, out: &mut BTreeSet<(String, usize)>) {
            match f {
                Formula::Atom(a) => {
                    for t in &a.args {
                        term(t, out);
                    }
                }
                Formula::Not(x) | Formula::Forall(_, x) | Formula::Exists(_, x) => go(x, out),
                Formula::And(a, b)
                | Formula::Or(a, b)
                | Formula::Implies(a, b)
                | Formula::Iff(a, b) => {
                    go(a, out);
                    go(b, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(x) => write!(f, "~{x}"),
            Formula::And(a, b) => write!(f, "({a} & {b})"),
            Formula::Or(a, b) => write!(f, "({a} | {b})"),
            Formula::Implies(a, b) => write!(f, "({a} -> {b})"),
            Formula::Iff(a, b) => write!(f, "({a} <-> {b})"),
            Formula::Forall(v, x) => write!(f, "forall {v}. {x}"),
            Formula::Exists(v, x) => write!(f, "exists {v}. {x}"),
        }
    }
}

/// Finite-model semantics: the oracle the formula and transformation
/// tests check truth values against.
#[cfg(test)]
pub(crate) mod semantics {
    use std::collections::HashMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::Formula;
    use crate::term::Term;

    /// A finite interpretation: a domain `{0, .., n-1}`, tables for constants
    /// and functions, and relations for predicates.
    ///
    /// The semantics oracle of the tests: logical transformations must
    /// preserve truth values under every interpretation (or satisfiability,
    /// for Skolemization).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Interpretation {
        domain_size: usize,
        /// `functions[(name, arity)]` maps argument tuples (mixed-radix index)
        /// to domain elements.
        functions: HashMap<(String, usize), Vec<usize>>,
        /// `predicates[(name, arity)]` holds the characteristic vector over
        /// argument tuples.
        predicates: HashMap<(String, usize), Vec<bool>>,
    }

    impl Interpretation {
        /// Creates an empty interpretation over a domain of the given size.
        ///
        /// # Panics
        ///
        /// Panics if `domain_size == 0`.
        pub(crate) fn new(domain_size: usize) -> Self {
            assert!(domain_size > 0, "domain must be non-empty");
            Interpretation { domain_size, functions: HashMap::new(), predicates: HashMap::new() }
        }

        /// Sets a function (or constant, with arity 0) table. The table length
        /// must be `domain_size^arity`.
        ///
        /// # Panics
        ///
        /// Panics on a length mismatch or out-of-domain value.
        pub(crate) fn set_function(
            &mut self,
            name: impl Into<String>,
            arity: usize,
            table: Vec<usize>,
        ) {
            assert_eq!(table.len(), self.domain_size.pow(arity as u32), "table length mismatch");
            assert!(table.iter().all(|&v| v < self.domain_size), "value out of domain");
            self.functions.insert((name.into(), arity), table);
        }

        /// Sets a predicate relation. The table length must be
        /// `domain_size^arity`.
        ///
        /// # Panics
        ///
        /// Panics on a length mismatch.
        pub(crate) fn set_predicate(
            &mut self,
            name: impl Into<String>,
            arity: usize,
            table: Vec<bool>,
        ) {
            assert_eq!(table.len(), self.domain_size.pow(arity as u32), "table length mismatch");
            self.predicates.insert((name.into(), arity), table);
        }

        /// Generates a random interpretation covering every symbol of
        /// `formula`, deterministically from `seed`.
        pub(crate) fn random_for(formula: &Formula, domain_size: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut interp = Interpretation::new(domain_size);
            for (name, arity) in formula.functions() {
                let len = domain_size.pow(arity as u32);
                let table: Vec<usize> = (0..len).map(|_| rng.gen_range(0..domain_size)).collect();
                interp.set_function(name, arity, table);
            }
            for (name, arity) in formula.predicates() {
                let len = domain_size.pow(arity as u32);
                let table: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                interp.set_predicate(name, arity, table);
            }
            interp
        }

        fn tuple_index(&self, args: &[usize]) -> usize {
            args.iter().fold(0, |acc, &a| acc * self.domain_size + a)
        }

        /// Evaluates a term under a variable environment.
        ///
        /// # Panics
        ///
        /// Panics on unbound variables or missing function tables.
        fn eval_term(&self, term: &Term, env: &HashMap<String, usize>) -> usize {
            match term {
                Term::Var(v) => *env.get(v).unwrap_or_else(|| panic!("unbound variable {v}")),
                Term::App(f, args) => {
                    let vals: Vec<usize> = args.iter().map(|a| self.eval_term(a, env)).collect();
                    let table = self
                        .functions
                        .get(&(f.clone(), args.len()))
                        .unwrap_or_else(|| panic!("no table for function {f}/{}", args.len()));
                    table[self.tuple_index(&vals)]
                }
            }
        }

        /// Evaluates a closed formula (or one whose free variables are bound by
        /// `env`).
        ///
        /// # Panics
        ///
        /// Panics on unbound variables or missing tables.
        fn eval(&self, formula: &Formula, env: &mut HashMap<String, usize>) -> bool {
            match formula {
                Formula::Atom(a) => {
                    let vals: Vec<usize> = a.args.iter().map(|t| self.eval_term(t, env)).collect();
                    let table =
                        self.predicates.get(&(a.pred.clone(), a.args.len())).unwrap_or_else(|| {
                            panic!("no table for predicate {}/{}", a.pred, a.args.len())
                        });
                    table[self.tuple_index(&vals)]
                }
                Formula::Not(x) => !self.eval(x, env),
                Formula::And(a, b) => self.eval(a, env) && self.eval(b, env),
                Formula::Or(a, b) => self.eval(a, env) || self.eval(b, env),
                Formula::Implies(a, b) => !self.eval(a, env) || self.eval(b, env),
                Formula::Iff(a, b) => self.eval(a, env) == self.eval(b, env),
                Formula::Forall(v, x) => {
                    let saved = env.get(v).copied();
                    let ok = (0..self.domain_size).all(|d| {
                        env.insert(v.clone(), d);
                        self.eval(x, env)
                    });
                    restore(env, v, saved);
                    ok
                }
                Formula::Exists(v, x) => {
                    let saved = env.get(v).copied();
                    let ok = (0..self.domain_size).any(|d| {
                        env.insert(v.clone(), d);
                        self.eval(x, env)
                    });
                    restore(env, v, saved);
                    ok
                }
            }
        }

        /// Evaluates a closed formula.
        pub(crate) fn eval_closed(&self, formula: &Formula) -> bool {
            self.eval(formula, &mut HashMap::new())
        }
    }

    fn restore(env: &mut HashMap<String, usize>, var: &str, saved: Option<usize>) {
        match saved {
            Some(v) => {
                env.insert(var.to_string(), v);
            }
            None => {
                env.remove(var);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::semantics::Interpretation;
    use super::*;
    use crate::term::Term;

    #[test]
    fn eval_quantifiers_over_finite_domain() {
        // p holds of element 0 only; domain {0, 1}.
        let mut interp = Interpretation::new(2);
        interp.set_predicate("p", 1, vec![true, false]);
        let exists = Formula::exists("X", Formula::atom("p", vec![Term::var("X")]));
        let forall = Formula::forall("X", Formula::atom("p", vec![Term::var("X")]));
        assert!(interp.eval_closed(&exists));
        assert!(!interp.eval_closed(&forall));
    }

    #[test]
    fn eval_functions_compose() {
        // f = successor mod 2; p = {1}. p(f(0)) holds.
        let mut interp = Interpretation::new(2);
        interp.set_function("f", 1, vec![1, 0]);
        interp.set_function("zero", 0, vec![0]);
        interp.set_predicate("p", 1, vec![false, true]);
        let f = Formula::atom("p", vec![Term::app("f", vec![Term::constant("zero")])]);
        assert!(interp.eval_closed(&f));
    }

    #[test]
    fn free_vars_respect_binding() {
        let f = Formula::forall(
            "X",
            Formula::or(
                Formula::atom("p", vec![Term::var("X")]),
                Formula::atom("q", vec![Term::var("Y")]),
            ),
        );
        let fv = f.free_vars();
        assert_eq!(fv, BTreeSet::from(["Y".to_string()]));
        assert!(f.universal_closure().free_vars().is_empty());
    }

    #[test]
    fn symbol_collection() {
        let f = Formula::implies(
            Formula::atom("p", vec![Term::app("f", vec![Term::constant("a")])]),
            Formula::atom("q", vec![]),
        );
        assert_eq!(f.predicates(), BTreeSet::from([("p".to_string(), 1), ("q".to_string(), 0)]));
        assert_eq!(f.functions(), BTreeSet::from([("f".to_string(), 1), ("a".to_string(), 0)]));
    }

    #[test]
    fn random_interpretation_is_deterministic_and_total() {
        let f = Formula::forall(
            "X",
            Formula::implies(
                Formula::atom("p", vec![Term::var("X")]),
                Formula::atom("q", vec![Term::app("f", vec![Term::var("X")])]),
            ),
        );
        let a = Interpretation::random_for(&f, 3, 7);
        let b = Interpretation::random_for(&f, 3, 7);
        assert_eq!(a, b);
        // Evaluation must not panic: all symbols are covered.
        let _ = a.eval_closed(&f);
    }

    #[test]
    fn display_forms() {
        let f = Formula::forall(
            "X",
            Formula::implies(
                Formula::atom("man", vec![Term::var("X")]),
                Formula::atom("mortal", vec![Term::var("X")]),
            ),
        );
        assert_eq!(format!("{f}"), "forall X. (man(X) -> mortal(X))");
    }
}
