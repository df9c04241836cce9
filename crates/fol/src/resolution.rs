//! Resolution theorem proving.
//!
//! A refutation prover in the style the paper attributes to its FOL
//! kernels: "formulas are encoded as DAGs where inference rules act as
//! graph transformation operators that derive contradictions" (Sec. IV-A).
//! The engine is a given-clause loop with binary resolution, factoring,
//! tautology deletion, forward subsumption, and a set-of-support strategy
//! seeded by the negated conjecture.

use std::collections::HashMap;

use crate::formula::Formula;
use crate::term::{Atom, Term};
use crate::transform::clausify;
use crate::unify::{unify_atoms, Substitution};

/// A signed atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FolLit {
    /// `true` for a positive literal.
    pub positive: bool,
    /// The atom.
    pub atom: Atom,
}

impl FolLit {
    /// A positive literal.
    pub(crate) fn pos(atom: Atom) -> Self {
        FolLit { positive: true, atom }
    }

    /// A negative literal.
    pub(crate) fn neg(atom: Atom) -> Self {
        FolLit { positive: false, atom }
    }

    /// The complementary literal.
    fn negated(&self) -> FolLit {
        FolLit { positive: !self.positive, atom: self.atom.clone() }
    }

    fn substitute(&self, s: &Substitution) -> FolLit {
        FolLit { positive: self.positive, atom: s.apply_atom(&self.atom) }
    }
}

impl std::fmt::Display for FolLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.positive {
            write!(f, "{}", self.atom)
        } else {
            write!(f, "~{}", self.atom)
        }
    }
}

/// A first-order clause: a disjunction of literals with implicitly
/// universally quantified variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FolClause {
    /// The literals.
    pub lits: Vec<FolLit>,
}

impl FolClause {
    /// Creates a clause.
    pub(crate) fn new(lits: Vec<FolLit>) -> Self {
        FolClause { lits }
    }

    /// `true` when this is the empty clause.
    fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// `true` when the clause contains complementary literals.
    pub(crate) fn is_tautology(&self) -> bool {
        self.lits.iter().any(|l| self.lits.contains(&l.negated()))
    }

    /// Sorts and deduplicates literals.
    pub(crate) fn normalized(&self) -> FolClause {
        let mut lits = self.lits.clone();
        lits.sort_by_key(|l| format!("{l}"));
        lits.dedup();
        FolClause { lits }
    }

    /// Renames all variables with a fresh suffix (standardizing apart
    /// before resolving).
    fn rename(&self, suffix: usize) -> FolClause {
        let mut vars = std::collections::BTreeSet::new();
        for l in &self.lits {
            l.atom.collect_vars(&mut vars);
        }
        let subst: HashMap<String, Term> = vars
            .into_iter()
            .map(|v| {
                let fresh = format!("{v}_{suffix}");
                (v, Term::var(fresh))
            })
            .collect();
        FolClause {
            lits: self
                .lits
                .iter()
                .map(|l| FolLit { positive: l.positive, atom: l.atom.substitute(&subst) })
                .collect(),
        }
    }

    /// Symbol-count weight for clause selection (lighter first).
    fn weight(&self) -> usize {
        fn term_weight(t: &Term) -> usize {
            match t {
                Term::Var(_) => 1,
                Term::App(_, args) => 1 + args.iter().map(term_weight).sum::<usize>(),
            }
        }
        self.lits.iter().map(|l| 1 + l.atom.args.iter().map(term_weight).sum::<usize>()).sum()
    }

    /// `true` when this clause subsumes `other`: some substitution maps
    /// every literal of `self` to a literal of `other`.
    fn subsumes(&self, other: &FolClause) -> bool {
        if self.lits.len() > other.lits.len() {
            return false;
        }
        fn matches(pattern: &Term, target: &Term, binding: &mut HashMap<String, Term>) -> bool {
            match (pattern, target) {
                (Term::Var(v), t) => match binding.get(v) {
                    Some(bound) => bound == t,
                    None => {
                        binding.insert(v.clone(), t.clone());
                        true
                    }
                },
                (Term::App(f, fa), Term::App(g, ga)) => {
                    f == g
                        && fa.len() == ga.len()
                        && fa.iter().zip(ga).all(|(p, t)| matches(p, t, binding))
                }
                _ => false,
            }
        }
        fn go(pattern: &[FolLit], target: &[FolLit], binding: &mut HashMap<String, Term>) -> bool {
            let Some(first) = pattern.first() else { return true };
            for t in target {
                if t.positive != first.positive || t.atom.pred != first.atom.pred {
                    continue;
                }
                if t.atom.args.len() != first.atom.args.len() {
                    continue;
                }
                let snapshot = binding.clone();
                if first.atom.args.iter().zip(&t.atom.args).all(|(p, g)| matches(p, g, binding))
                    && go(&pattern[1..], target, binding)
                {
                    return true;
                }
                *binding = snapshot;
            }
            false
        }
        go(&self.lits, &other.lits, &mut HashMap::new())
    }
}

impl std::fmt::Display for FolClause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// Outcome of a proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofResult {
    /// The goal follows from the axioms; `steps` clauses were generated.
    Proved {
        /// Clauses generated before finding the empty clause.
        steps: usize,
    },
    /// The search space was saturated without refutation: the goal does
    /// not follow (for a complete strategy).
    Saturated {
        /// Clauses retained at saturation.
        clauses: usize,
    },
    /// The step limit was exhausted before an answer.
    Exhausted {
        /// The configured limit.
        limit: usize,
    },
}

/// Attempts to prove `goal` from `axioms` by refutation, generating at
/// most `max_steps` clauses.
///
/// ```
/// use reason_fol::{parse_formula, prove, ProofResult};
/// let axioms = vec![parse_formula("forall X. (p(X) -> q(X))").unwrap(),
///                   parse_formula("p(a)").unwrap()];
/// let goal = parse_formula("q(a)").unwrap();
/// assert!(matches!(prove(&axioms, &goal, 500), ProofResult::Proved { .. }));
/// ```
pub fn prove(axioms: &[Formula], goal: &Formula, max_steps: usize) -> ProofResult {
    let mut formulas: Vec<Formula> = axioms.to_vec();
    formulas.push(Formula::not(goal.universal_closure()));
    let clauses = clausify(&formulas);
    refute(&clauses, max_steps)
}

/// Attempts to derive the empty clause from a clause set.
fn refute(clauses: &[FolClause], max_steps: usize) -> ProofResult {
    if clauses.iter().any(FolClause::is_empty) {
        return ProofResult::Proved { steps: 0 };
    }
    let mut usable: Vec<FolClause> = Vec::new();
    let mut sos: Vec<FolClause> = clauses.to_vec();
    // Lighter clauses first.
    sos.sort_by_key(FolClause::weight);
    let mut generated = 0usize;
    let mut rename_counter = 0usize;

    while let Some(pos) = pick_lightest(&sos) {
        let given = sos.remove(pos);
        rename_counter += 1;
        let given = given.rename(rename_counter);
        // Factoring of the given clause.
        let mut new_clauses: Vec<FolClause> = factors(&given);
        // Binary resolution against usable ∪ {given}.
        for other in usable.iter().chain(std::iter::once(&given)) {
            new_clauses.extend(resolvents(&given, other));
        }
        usable.push(given);

        for c in new_clauses {
            generated += 1;
            if generated > max_steps {
                return ProofResult::Exhausted { limit: max_steps };
            }
            let c = c.normalized();
            if c.is_empty() {
                return ProofResult::Proved { steps: generated };
            }
            if c.is_tautology() {
                continue;
            }
            if usable.iter().chain(sos.iter()).any(|u| u.subsumes(&c)) {
                continue;
            }
            sos.push(c);
        }
    }
    ProofResult::Saturated { clauses: usable.len() }
}

fn pick_lightest(sos: &[FolClause]) -> Option<usize> {
    sos.iter().enumerate().min_by_key(|(_, c)| c.weight()).map(|(i, _)| i)
}

/// All binary resolvents of two clauses (assumed standardized apart).
fn resolvents(a: &FolClause, b: &FolClause) -> Vec<FolClause> {
    let mut out = Vec::new();
    for (i, la) in a.lits.iter().enumerate() {
        for (j, lb) in b.lits.iter().enumerate() {
            if la.positive == lb.positive {
                continue;
            }
            let Some(subst) = unify_atoms(&la.atom, &lb.atom) else { continue };
            let mut lits: Vec<FolLit> = Vec::with_capacity(a.lits.len() + b.lits.len() - 2);
            for (k, l) in a.lits.iter().enumerate() {
                if k != i {
                    lits.push(l.substitute(&subst));
                }
            }
            for (k, l) in b.lits.iter().enumerate() {
                if k != j {
                    lits.push(l.substitute(&subst));
                }
            }
            out.push(FolClause::new(lits));
        }
    }
    out
}

/// All factors of a clause (unifying pairs of same-sign literals).
fn factors(c: &FolClause) -> Vec<FolClause> {
    let mut out = Vec::new();
    for i in 0..c.lits.len() {
        for j in (i + 1)..c.lits.len() {
            if c.lits[i].positive != c.lits[j].positive {
                continue;
            }
            let Some(subst) = unify_atoms(&c.lits[i].atom, &c.lits[j].atom) else { continue };
            let lits: Vec<FolLit> = c
                .lits
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, l)| l.substitute(&subst))
                .collect();
            out.push(FolClause::new(lits));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn f(s: &str) -> Formula {
        parse_formula(s).unwrap()
    }

    #[test]
    fn socrates() {
        let axioms = vec![f("forall X. (man(X) -> mortal(X))"), f("man(socrates)")];
        assert!(matches!(prove(&axioms, &f("mortal(socrates)"), 1000), ProofResult::Proved { .. }));
    }

    #[test]
    fn unprovable_goal_saturates() {
        let axioms = vec![f("man(socrates)")];
        let result = prove(&axioms, &f("mortal(socrates)"), 1000);
        assert!(matches!(result, ProofResult::Saturated { .. }), "got {result:?}");
    }

    #[test]
    fn transitivity_chain() {
        let axioms = vec![
            f("forall X. forall Y. forall Z. ((le(X, Y) & le(Y, Z)) -> le(X, Z))"),
            f("le(a, b)"),
            f("le(b, c)"),
            f("le(c, d)"),
        ];
        assert!(matches!(prove(&axioms, &f("le(a, d)"), 20_000), ProofResult::Proved { .. }));
    }

    #[test]
    fn existential_goal() {
        let axioms = vec![f("p(a)"), f("forall X. (p(X) -> q(f(X)))")];
        assert!(matches!(prove(&axioms, &f("exists Y. q(Y)"), 5000), ProofResult::Proved { .. }));
    }

    #[test]
    fn mentor_example_from_paper() {
        // "Every student has a mentor"; alice is a student, so someone is
        // alice's mentor.
        let axioms = vec![
            f("forall X. (student(X) -> exists Y. (mentor(Y) & has_mentor(X, Y)))"),
            f("student(alice)"),
        ];
        assert!(matches!(
            prove(&axioms, &f("exists Y. has_mentor(alice, Y)"), 5000),
            ProofResult::Proved { .. }
        ));
    }

    #[test]
    fn subsumption_basics() {
        let p_x = FolClause::new(vec![FolLit::pos(Atom::new("p", vec![Term::var("X")]))]);
        let p_a_or_q = FolClause::new(vec![
            FolLit::pos(Atom::new("p", vec![Term::constant("a")])),
            FolLit::pos(Atom::new("q", vec![])),
        ]);
        assert!(p_x.subsumes(&p_a_or_q));
        assert!(!p_a_or_q.subsumes(&p_x));
        // Consistency: p(X, X) does not subsume p(a, b).
        let pxx =
            FolClause::new(vec![FolLit::pos(Atom::new("p", vec![Term::var("X"), Term::var("X")]))]);
        let pab = FolClause::new(vec![FolLit::pos(Atom::new(
            "p",
            vec![Term::constant("a"), Term::constant("b")],
        ))]);
        assert!(!pxx.subsumes(&pab));
    }

    #[test]
    fn factoring_enables_proofs() {
        // p(X) | p(a) with ~p(a): needs factoring or double resolution.
        let clauses = vec![
            FolClause::new(vec![
                FolLit::pos(Atom::new("p", vec![Term::var("X")])),
                FolLit::pos(Atom::new("p", vec![Term::constant("a")])),
            ]),
            FolClause::new(vec![FolLit::neg(Atom::new("p", vec![Term::constant("a")]))]),
        ];
        assert!(matches!(refute(&clauses, 1000), ProofResult::Proved { .. }));
    }

    #[test]
    fn exhaustion_is_reported() {
        // A generative axiom set that never terminates: step limit hits.
        let axioms = vec![f("p(a)"), f("forall X. (p(X) -> p(f(X)))")];
        let result = prove(&axioms, &f("q(a)"), 50);
        assert!(
            matches!(result, ProofResult::Exhausted { .. } | ProofResult::Saturated { .. }),
            "got {result:?}"
        );
    }

    #[test]
    fn contradictory_axioms_prove_anything() {
        let axioms = vec![f("p(a)"), f("~p(a)")];
        assert!(matches!(prove(&axioms, &f("q(b)"), 1000), ProofResult::Proved { .. }));
    }
}
