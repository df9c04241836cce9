//! Formula normalization: NNF, prenex form, Skolemization, CNF.
//!
//! This is the paper's "Step-1 Normalization: predicates are transformed to
//! CNF, removing quantifiers and forming disjunctions of literals"
//! (Sec. IV-A). The pipeline is
//!
//! 1. universal closure of free variables,
//! 2. implication/biconditional elimination + negation normal form,
//! 3. standardization apart + prenex form,
//! 4. Skolemization of existentials,
//! 5. distribution of ∨ over ∧ into clauses.

use std::collections::HashMap;

use crate::formula::Formula;
use crate::resolution::{FolClause, FolLit};
use crate::term::Term;

/// Rewrites to negation normal form: no `->`/`<->`, negation only on atoms.
pub fn to_nnf(f: &Formula) -> Formula {
    fn pos(f: &Formula) -> Formula {
        match f {
            Formula::Atom(_) => f.clone(),
            Formula::Not(x) => neg(x),
            Formula::And(a, b) => Formula::and(pos(a), pos(b)),
            Formula::Or(a, b) => Formula::or(pos(a), pos(b)),
            Formula::Implies(a, b) => Formula::or(neg(a), pos(b)),
            Formula::Iff(a, b) => {
                Formula::and(Formula::or(neg(a), pos(b)), Formula::or(neg(b), pos(a)))
            }
            Formula::Forall(v, x) => Formula::forall(v.clone(), pos(x)),
            Formula::Exists(v, x) => Formula::exists(v.clone(), pos(x)),
        }
    }
    fn neg(f: &Formula) -> Formula {
        match f {
            Formula::Atom(_) => Formula::not(f.clone()),
            Formula::Not(x) => pos(x),
            Formula::And(a, b) => Formula::or(neg(a), neg(b)),
            Formula::Or(a, b) => Formula::and(neg(a), neg(b)),
            Formula::Implies(a, b) => Formula::and(pos(a), neg(b)),
            Formula::Iff(a, b) => {
                Formula::or(Formula::and(pos(a), neg(b)), Formula::and(pos(b), neg(a)))
            }
            Formula::Forall(v, x) => Formula::exists(v.clone(), neg(x)),
            Formula::Exists(v, x) => Formula::forall(v.clone(), neg(x)),
        }
    }
    pos(f)
}

/// A quantifier prefix entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Quant {
    Forall(String),
    Exists(String),
}

/// Converts to prenex form: all quantifiers pulled to an outer prefix over
/// a quantifier-free matrix. The input is closed (free variables are
/// universally closed first); bound variables are standardized apart.
pub fn to_prenex(f: &Formula) -> Formula {
    let nnf = to_nnf(&f.universal_closure());
    let mut counter = 0usize;
    let (prefix, matrix) = pull(&nnf, &mut HashMap::new(), &mut counter);
    let mut out = matrix;
    for q in prefix.into_iter().rev() {
        out = match q {
            Quant::Forall(v) => Formula::forall(v, out),
            Quant::Exists(v) => Formula::exists(v, out),
        };
    }
    out
}

fn fresh(counter: &mut usize) -> String {
    let name = format!("V{counter}");
    *counter += 1;
    name
}

fn pull(
    f: &Formula,
    rename: &mut HashMap<String, String>,
    counter: &mut usize,
) -> (Vec<Quant>, Formula) {
    match f {
        Formula::Atom(a) => {
            let subst: HashMap<String, Term> =
                rename.iter().map(|(k, v)| (k.clone(), Term::var(v.clone()))).collect();
            (Vec::new(), Formula::Atom(a.substitute(&subst)))
        }
        Formula::Not(x) => {
            // NNF: x is an atom.
            let (q, m) = pull(x, rename, counter);
            debug_assert!(q.is_empty(), "NNF negation wraps atoms only");
            (q, Formula::not(m))
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            let (mut qa, ma) = pull(a, rename, counter);
            let (qb, mb) = pull(b, rename, counter);
            qa.extend(qb);
            let m = if matches!(f, Formula::And(_, _)) {
                Formula::and(ma, mb)
            } else {
                Formula::or(ma, mb)
            };
            (qa, m)
        }
        Formula::Forall(v, x) => {
            let nv = fresh(counter);
            let saved = rename.insert(v.clone(), nv.clone());
            let (mut q, m) = pull(x, rename, counter);
            restore(rename, v, saved);
            q.insert(0, Quant::Forall(nv));
            (q, m)
        }
        Formula::Exists(v, x) => {
            let nv = fresh(counter);
            let saved = rename.insert(v.clone(), nv.clone());
            let (mut q, m) = pull(x, rename, counter);
            restore(rename, v, saved);
            q.insert(0, Quant::Exists(nv));
            (q, m)
        }
        Formula::Implies(_, _) | Formula::Iff(_, _) => {
            unreachable!("NNF removed implications")
        }
    }
}

fn restore(rename: &mut HashMap<String, String>, var: &str, saved: Option<String>) {
    match saved {
        Some(v) => {
            rename.insert(var.to_string(), v);
        }
        None => {
            rename.remove(var);
        }
    }
}

/// Skolemizes a formula: existential variables become Skolem functions of
/// the enclosing universals; the result keeps only universal quantifiers
/// (equisatisfiable with the input). `skolem_counter` provides globally
/// fresh function names across a multi-formula problem.
fn skolemize(f: &Formula, skolem_counter: &mut usize) -> Formula {
    let prenex = to_prenex(f);
    // Decompose the prefix.
    let mut prefix = Vec::new();
    let mut body = &prenex;
    loop {
        match body {
            Formula::Forall(v, x) => {
                prefix.push(Quant::Forall(v.clone()));
                body = x;
            }
            Formula::Exists(v, x) => {
                prefix.push(Quant::Exists(v.clone()));
                body = x;
            }
            _ => break,
        }
    }
    let mut universals: Vec<String> = Vec::new();
    let mut subst: HashMap<String, Term> = HashMap::new();
    for q in &prefix {
        match q {
            Quant::Forall(v) => universals.push(v.clone()),
            Quant::Exists(v) => {
                let name = format!("sk{}", *skolem_counter);
                *skolem_counter += 1;
                let args: Vec<Term> = universals.iter().map(|u| Term::var(u.clone())).collect();
                subst.insert(v.clone(), Term::app(name, args));
            }
        }
    }
    let matrix = substitute_formula(body, &subst);
    let mut out = matrix;
    for u in universals.into_iter().rev() {
        out = Formula::forall(u, out);
    }
    out
}

fn substitute_formula(f: &Formula, subst: &HashMap<String, Term>) -> Formula {
    match f {
        Formula::Atom(a) => Formula::Atom(a.substitute(subst)),
        Formula::Not(x) => Formula::not(substitute_formula(x, subst)),
        Formula::And(a, b) => {
            Formula::and(substitute_formula(a, subst), substitute_formula(b, subst))
        }
        Formula::Or(a, b) => {
            Formula::or(substitute_formula(a, subst), substitute_formula(b, subst))
        }
        Formula::Implies(a, b) => {
            Formula::implies(substitute_formula(a, subst), substitute_formula(b, subst))
        }
        Formula::Iff(a, b) => {
            Formula::iff(substitute_formula(a, subst), substitute_formula(b, subst))
        }
        Formula::Forall(v, x) => Formula::forall(v.clone(), substitute_formula(x, subst)),
        Formula::Exists(v, x) => Formula::exists(v.clone(), substitute_formula(x, subst)),
    }
}

/// Converts one formula to CNF clauses (paper "Step-1 Normalization").
///
/// `skolem_counter` must be shared across all formulas of one problem so
/// Skolem names stay distinct.
pub fn to_cnf_clauses(f: &Formula, skolem_counter: &mut usize) -> Vec<FolClause> {
    let sk = skolemize(f, skolem_counter);
    // Strip universal prefix.
    let mut body = &sk;
    while let Formula::Forall(_, x) = body {
        body = x;
    }
    distribute(body)
}

fn distribute(f: &Formula) -> Vec<FolClause> {
    match f {
        Formula::Atom(a) => vec![FolClause::new(vec![FolLit::pos(a.clone())])],
        Formula::Not(x) => match x.as_ref() {
            Formula::Atom(a) => vec![FolClause::new(vec![FolLit::neg(a.clone())])],
            _ => unreachable!("NNF matrix: negation wraps atoms only"),
        },
        Formula::And(a, b) => {
            let mut out = distribute(a);
            out.extend(distribute(b));
            out
        }
        Formula::Or(a, b) => {
            let ca = distribute(a);
            let cb = distribute(b);
            let mut out = Vec::with_capacity(ca.len() * cb.len());
            for x in &ca {
                for y in &cb {
                    let mut lits = x.lits.clone();
                    lits.extend(y.lits.clone());
                    out.push(FolClause::new(lits));
                }
            }
            out
        }
        _ => unreachable!("matrix is quantifier-free"),
    }
}

/// Clausifies a whole problem: every formula is normalized with a shared
/// Skolem counter, clause duplicates are removed, and tautologies dropped.
pub fn clausify(formulas: &[Formula]) -> Vec<FolClause> {
    let mut counter = 0usize;
    let mut out: Vec<FolClause> = Vec::new();
    for f in formulas {
        for c in to_cnf_clauses(f, &mut counter) {
            let c = c.normalized();
            if !c.is_tautology() && !out.contains(&c) {
                out.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::semantics::Interpretation;
    use crate::parser::parse_formula;

    fn check_equivalent(original: &str, seed_count: u64) {
        let f = parse_formula(original).unwrap();
        let nnf = to_nnf(&f);
        let prenex = to_prenex(&f);
        for seed in 0..seed_count {
            for domain in 1..=3 {
                let interp = Interpretation::random_for(&f, domain, seed);
                let expect = interp.eval_closed(&f.universal_closure());
                assert_eq!(
                    interp.eval_closed(&nnf.universal_closure()),
                    interp.eval_closed(&f.universal_closure()),
                    "NNF changed semantics of {original} (domain {domain}, seed {seed})"
                );
                assert_eq!(
                    interp.eval_closed(&prenex),
                    expect,
                    "prenex changed semantics of {original} (domain {domain}, seed {seed})"
                );
            }
        }
    }

    #[test]
    fn nnf_and_prenex_preserve_semantics() {
        check_equivalent("forall X. (p(X) -> exists Y. q(X, Y))", 8);
        check_equivalent("~(forall X. (p(X) & ~q(X)))", 8);
        check_equivalent("(a <-> b) -> (exists X. p(X))", 8);
        check_equivalent("forall X. exists Y. (p(X) | ~q(Y)) & r(X)", 6);
    }

    #[test]
    fn nnf_has_no_implications_or_deep_negations() {
        fn well_formed(f: &Formula) -> bool {
            match f {
                Formula::Atom(_) => true,
                Formula::Not(x) => matches!(x.as_ref(), Formula::Atom(_)),
                Formula::And(a, b) | Formula::Or(a, b) => well_formed(a) && well_formed(b),
                Formula::Forall(_, x) | Formula::Exists(_, x) => well_formed(x),
                Formula::Implies(_, _) | Formula::Iff(_, _) => false,
            }
        }
        let f = parse_formula("~(a -> (b <-> ~c))").unwrap();
        assert!(well_formed(&to_nnf(&f)));
    }

    #[test]
    fn prenex_is_prenex() {
        fn quantifier_free(f: &Formula) -> bool {
            match f {
                Formula::Forall(_, _) | Formula::Exists(_, _) => false,
                Formula::Atom(_) => true,
                Formula::Not(x) => quantifier_free(x),
                Formula::And(a, b) | Formula::Or(a, b) => quantifier_free(a) && quantifier_free(b),
                Formula::Implies(a, b) | Formula::Iff(a, b) => {
                    quantifier_free(a) && quantifier_free(b)
                }
            }
        }
        let f = parse_formula("(forall X. p(X)) & (exists Y. q(Y))").unwrap();
        let mut body = to_prenex(&f);
        while let Formula::Forall(_, x) | Formula::Exists(_, x) = body {
            body = *x;
        }
        assert!(quantifier_free(&body));
    }

    #[test]
    fn skolemization_implies_original() {
        // ∀-closure of the Skolemized form entails the original: check
        // skolemized ⊨ original on random interpretations of the
        // skolemized symbols.
        let inputs = [
            "forall X. exists Y. q(X, Y)",
            "exists Y. forall X. r(X, Y)",
            "forall X. (p(X) -> exists Y. (q(X, Y) & p(Y)))",
        ];
        for input in inputs {
            let f = parse_formula(input).unwrap();
            let mut counter = 0;
            let sk = skolemize(&f, &mut counter);
            for seed in 0..10 {
                for domain in 1..=3 {
                    let interp = Interpretation::random_for(&sk, domain, seed);
                    if interp.eval_closed(&sk) {
                        assert!(
                            interp.eval_closed(&f.universal_closure()),
                            "skolemized true but original false: {input} (domain {domain}, seed {seed})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn skolem_constants_for_outer_existentials() {
        let f = parse_formula("exists X. p(X)").unwrap();
        let mut counter = 0;
        let sk = skolemize(&f, &mut counter);
        // No universals in scope: Skolem term is a constant.
        assert_eq!(format!("{sk}"), "p(sk0)");
    }

    #[test]
    fn cnf_clauses_shape() {
        let f = parse_formula("forall X. (p(X) -> (q(X) & r(X)))").unwrap();
        let clauses = clausify(&[f]);
        // (~p | q) and (~p | r).
        assert_eq!(clauses.len(), 2);
        assert!(clauses.iter().all(|c| c.lits.len() == 2));
    }

    #[test]
    fn clausify_drops_tautologies_and_duplicates() {
        let f = parse_formula("(p | ~p) & (q | q)").unwrap();
        let clauses = clausify(&[f]);
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].lits.len(), 1);
    }
}
