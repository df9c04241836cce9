//! Robinson unification with occurs check.

use std::collections::HashMap;

use crate::term::{Atom, Term};

/// A substitution: a finite map from variable names to terms.
///
/// Bindings may chain (`X -> Y`, `Y -> a`); [`Substitution::apply`]
/// resolves chains fully.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: HashMap<String, Term>,
}

impl Substitution {
    /// The empty substitution.
    fn new() -> Self {
        Substitution::default()
    }

    /// Binds `var` to `term`.
    fn bind(&mut self, var: impl Into<String>, term: Term) {
        self.map.insert(var.into(), term);
    }

    /// Applies the substitution to a term (resolving chains).
    pub fn apply(&self, term: &Term) -> Term {
        term.substitute(&self.map)
    }

    /// Applies the substitution to an atom.
    pub(crate) fn apply_atom(&self, atom: &Atom) -> Atom {
        atom.substitute(&self.map)
    }

    /// Fully resolves a variable through chained bindings.
    fn walk(&self, term: &Term) -> Term {
        let mut t = term.clone();
        while let Term::Var(v) = &t {
            match self.map.get(v) {
                Some(next) => t = next.clone(),
                None => break,
            }
        }
        t
    }
}

/// Computes a most general unifier of two terms, extending `subst`.
///
/// Returns `false` (leaving `subst` in a partially extended state) when the
/// terms do not unify; callers should treat `subst` as poisoned on failure.
fn unify_into(a: &Term, b: &Term, subst: &mut Substitution) -> bool {
    let a = subst.walk(a);
    let b = subst.walk(b);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) | (t, Term::Var(x)) => {
            // Occurs check against the current substitution.
            if occurs(x, t, subst) {
                return false;
            }
            subst.bind(x.clone(), t.clone());
            true
        }
        (Term::App(f, fa), Term::App(g, ga)) => {
            f == g
                && fa.len() == ga.len()
                && fa.iter().zip(ga).all(|(x, y)| unify_into(x, y, subst))
        }
    }
}

fn occurs(var: &str, term: &Term, subst: &Substitution) -> bool {
    match subst.walk(term) {
        Term::Var(v) => v == var,
        Term::App(_, args) => args.iter().any(|a| occurs(var, a, subst)),
    }
}

/// Computes the most general unifier of two terms.
///
/// ```
/// use reason_fol::{unify_terms, Term};
/// let a = Term::app("f", vec![Term::var("X"), Term::constant("b")]);
/// let b = Term::app("f", vec![Term::constant("a"), Term::var("Y")]);
/// let s = unify_terms(&a, &b).unwrap();
/// assert_eq!(s.apply(&a), s.apply(&b));
/// ```
pub fn unify_terms(a: &Term, b: &Term) -> Option<Substitution> {
    let mut s = Substitution::new();
    if unify_into(a, b, &mut s) {
        Some(s)
    } else {
        None
    }
}

/// Computes the most general unifier of two atoms (same predicate and
/// arity required).
pub fn unify_atoms(a: &Atom, b: &Atom) -> Option<Substitution> {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return None;
    }
    let mut s = Substitution::new();
    for (x, y) in a.args.iter().zip(&b.args) {
        if !unify_into(x, y, &mut s) {
            return None;
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unifies_simple_variables() {
        let s = unify_terms(&Term::var("X"), &Term::constant("a")).unwrap();
        assert_eq!(s.apply(&Term::var("X")), Term::constant("a"));
    }

    #[test]
    fn unifier_actually_unifies() {
        let a = Term::app("f", vec![Term::var("X"), Term::app("g", vec![Term::var("X")])]);
        let b = Term::app("f", vec![Term::constant("c"), Term::var("Y")]);
        let s = unify_terms(&a, &b).unwrap();
        assert_eq!(s.apply(&a), s.apply(&b));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let a = Term::var("X");
        let b = Term::app("f", vec![Term::var("X")]);
        assert!(unify_terms(&a, &b).is_none());
        // Indirect cycle: X = f(Y), Y = X.
        let a = Term::app("p", vec![Term::var("X"), Term::var("Y")]);
        let b = Term::app("p", vec![Term::app("f", vec![Term::var("Y")]), Term::var("X")]);
        assert!(unify_terms(&a, &b).is_none());
    }

    #[test]
    fn mismatched_functions_fail() {
        assert!(unify_terms(&Term::constant("a"), &Term::constant("b")).is_none());
        let f = Term::app("f", vec![Term::var("X")]);
        let g = Term::app("g", vec![Term::var("X")]);
        assert!(unify_terms(&f, &g).is_none());
    }

    #[test]
    fn atom_unification() {
        let a = Atom::new("p", vec![Term::var("X"), Term::constant("b")]);
        let b = Atom::new("p", vec![Term::constant("a"), Term::var("Y")]);
        let s = unify_atoms(&a, &b).unwrap();
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
        // Different predicates never unify.
        let c = Atom::new("q", vec![Term::var("X"), Term::constant("b")]);
        assert!(unify_atoms(&a, &c).is_none());
    }

    #[test]
    fn chained_bindings_resolve() {
        let a = Term::app("f", vec![Term::var("X"), Term::var("X")]);
        let b = Term::app("f", vec![Term::var("Y"), Term::constant("a")]);
        let s = unify_terms(&a, &b).unwrap();
        assert_eq!(s.apply(&Term::var("X")), Term::constant("a"));
        assert_eq!(s.apply(&Term::var("Y")), Term::constant("a"));
    }
}
