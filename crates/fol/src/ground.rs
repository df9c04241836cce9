//! Finite-domain grounding of clause sets to propositional SAT.
//!
//! LINC-style pipelines (paper Table I) hand logical problems to
//! propositional solvers after grounding. Function-free clause sets over a
//! finite constant universe ground to [`reason_sat::Cnf`]; the resulting
//! formula feeds REASON's SAT machinery (and the unified DAG frontend).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use reason_sat::{Clause as PropClause, Cnf, Lit, Var};

use crate::resolution::FolClause;
use crate::term::{Atom, Term};

/// Errors raised during grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundError {
    /// A clause contains a proper function application; grounding requires
    /// function-free clause sets.
    FunctionSymbol {
        /// The offending function name.
        name: String,
    },
    /// No constants available to populate the domain.
    EmptyDomain,
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::FunctionSymbol { name } => {
                write!(f, "cannot ground function symbol `{name}`")
            }
            GroundError::EmptyDomain => write!(f, "no constants available for grounding"),
        }
    }
}

impl std::error::Error for GroundError {}

/// The result of grounding: a propositional formula plus the atom table
/// mapping propositional variables back to ground atoms.
#[derive(Debug, Clone)]
pub struct Grounding {
    /// The propositional formula.
    pub cnf: Cnf,
    /// `atoms[v]` is the ground atom of propositional variable `v`.
    pub atoms: Vec<Atom>,
}

/// Grounds a function-free clause set over the constants appearing in it
/// (plus `extra_constants`).
///
/// # Errors
///
/// Returns [`GroundError::FunctionSymbol`] when a proper function
/// application occurs, or [`GroundError::EmptyDomain`] when a clause has
/// variables but no constants exist.
pub fn ground_clauses(
    clauses: &[FolClause],
    extra_constants: &[String],
) -> Result<Grounding, GroundError> {
    // Collect the constant universe and check function-freeness.
    let mut constants: BTreeSet<String> = extra_constants.iter().cloned().collect();
    for c in clauses {
        for l in &c.lits {
            for t in &l.atom.args {
                collect_constants(t, &mut constants)?;
            }
        }
    }
    let constants: Vec<String> = constants.into_iter().collect();

    let mut atoms: Vec<Atom> = Vec::new();
    let mut index: HashMap<Atom, usize> = HashMap::new();
    let mut prop_clauses: Vec<Vec<Lit>> = Vec::new();

    for clause in clauses {
        let mut vars = BTreeSet::new();
        for l in &clause.lits {
            l.atom.collect_vars(&mut vars);
        }
        let vars: Vec<String> = vars.into_iter().collect();
        if !vars.is_empty() && constants.is_empty() {
            return Err(GroundError::EmptyDomain);
        }
        let mut assignment = vec![0usize; vars.len()];
        loop {
            // Instantiate.
            let subst: HashMap<String, Term> = vars
                .iter()
                .zip(&assignment)
                .map(|(v, &c)| (v.clone(), Term::constant(constants[c].clone())))
                .collect();
            let mut lits: Vec<Lit> = Vec::with_capacity(clause.lits.len());
            for l in &clause.lits {
                let ground = l.atom.substitute(&subst);
                let next = atoms.len();
                let id = *index.entry(ground.clone()).or_insert_with(|| {
                    atoms.push(ground);
                    next
                });
                lits.push(Lit::new(Var::new(id), !l.positive));
            }
            prop_clauses.push(lits);
            // Advance the mixed-radix counter.
            if vars.is_empty() {
                break;
            }
            let mut pos = 0;
            loop {
                assignment[pos] += 1;
                if assignment[pos] < constants.len() {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
                if pos == vars.len() {
                    break;
                }
            }
            if pos == vars.len() {
                break;
            }
        }
    }

    let mut cnf = Cnf::new(atoms.len());
    for lits in prop_clauses {
        cnf.add_clause(PropClause::new(lits));
    }
    Ok(Grounding { cnf, atoms })
}

fn collect_constants(term: &Term, out: &mut BTreeSet<String>) -> Result<(), GroundError> {
    match term {
        Term::Var(_) => Ok(()),
        Term::App(name, args) => {
            if args.is_empty() {
                out.insert(name.clone());
                Ok(())
            } else {
                Err(GroundError::FunctionSymbol { name: name.clone() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use crate::transform::clausify;
    use reason_sat::{CdclSolver, Solution};

    fn clauses_of(texts: &[&str]) -> Vec<FolClause> {
        let formulas: Vec<_> = texts.iter().map(|t| parse_formula(t).unwrap()).collect();
        clausify(&formulas)
    }

    #[test]
    fn socrates_by_grounding() {
        // Axioms + negated goal must be UNSAT after grounding.
        let clauses =
            clauses_of(&["forall X. (man(X) -> mortal(X))", "man(socrates)", "~mortal(socrates)"]);
        let g = ground_clauses(&clauses, &[]).unwrap();
        assert!(!CdclSolver::new(&g.cnf).solve().is_sat());
    }

    #[test]
    fn satisfiable_theory_grounds_to_sat() {
        let clauses = clauses_of(&["man(socrates)", "forall X. (man(X) -> mortal(X))"]);
        let g = ground_clauses(&clauses, &[]).unwrap();
        match CdclSolver::new(&g.cnf).solve() {
            Solution::Sat(model) => {
                // mortal(socrates) must hold in every model... check via
                // the atom map: man(socrates) true forces mortal(socrates).
                let man = Atom::new("man", vec![Term::constant("socrates")]);
                let mortal = Atom::new("mortal", vec![Term::constant("socrates")]);
                let var_of = |atom: &Atom| g.atoms.iter().position(|a| a == atom).unwrap();
                if model[var_of(&man)] {
                    assert!(model[var_of(&mortal)]);
                }
            }
            Solution::Unsat => panic!("theory is satisfiable"),
        }
    }

    #[test]
    fn grounding_enumerates_the_domain() {
        // p(X) over constants {a, b} gives two unit clauses.
        let clauses = clauses_of(&["forall X. p(X)", "q(a)", "q(b)"]);
        let g = ground_clauses(&clauses, &[]).unwrap();
        // Atoms: p(a), p(b), q(a), q(b).
        assert_eq!(g.atoms.len(), 4);
        assert_eq!(g.cnf.num_clauses(), 4);
    }

    #[test]
    fn extra_constants_extend_domain() {
        let clauses = clauses_of(&["forall X. p(X)"]);
        let g = ground_clauses(&clauses, &["a".into(), "b".into(), "c".into()]).unwrap();
        assert_eq!(g.atoms.len(), 3);
    }

    #[test]
    fn function_symbols_are_rejected() {
        let clauses = clauses_of(&["p(f(a))"]);
        assert!(matches!(ground_clauses(&clauses, &[]), Err(GroundError::FunctionSymbol { .. })));
    }

    #[test]
    fn variables_without_constants_error() {
        let clauses = clauses_of(&["forall X. p(X)"]);
        assert!(matches!(ground_clauses(&clauses, &[]), Err(GroundError::EmptyDomain)));
    }

    #[test]
    fn true_atoms_reads_models() {
        let clauses = clauses_of(&["p(a)"]);
        let g = ground_clauses(&clauses, &[]).unwrap();
        if let Solution::Sat(model) = CdclSolver::new(&g.cnf).solve() {
            let names: Vec<String> = g
                .atoms
                .iter()
                .zip(&model)
                .filter(|(_, &t)| t)
                .map(|(a, _)| format!("{a}"))
                .collect();
            assert_eq!(names, vec!["p(a)"]);
        } else {
            panic!("satisfiable");
        }
    }
}
