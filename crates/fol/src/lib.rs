//! First-order logic substrate for the REASON reproduction.
//!
//! FOL is the symbolic language of the paper's logical-reasoning kernels
//! (Sec. II-C): predicates, functions, constants, variables, and
//! quantifiers combined with the usual connectives. Systems like
//! AlphaGeometry and LINC (paper Table I) run deduction over such formulas;
//! REASON's compiler normalizes them to CNF before DAG construction
//! (Sec. IV-A, "Step-1 Normalization").
//!
//! Modules:
//!
//! * [`term`] — terms ([`Term`]) and atoms ([`Atom`]) with substitutions.
//! * [`formula`] — the formula AST. Its finite-model evaluation, the
//!   semantics oracle of the transformation tests, is test-only.
//! * [`transform`] — implication elimination, negation normal form, prenex
//!   form, Skolemization, and CNF distribution.
//! * [`unify`] — Robinson unification with occurs check.
//! * [`resolution`] — a refutation prover (given-clause loop with
//!   factoring, tautology deletion, and subsumption).
//! * [`ground`] — finite-domain grounding of function-free clause sets to
//!   propositional [`reason_sat::Cnf`].
//!
//! # Naming convention
//!
//! Prolog-style: identifiers starting with an uppercase letter are
//! variables; lowercase identifiers are constants, functions, and
//! predicates.
//!
//! # Example
//!
//! ```
//! use reason_fol::{parse_formula, prove, ProofResult};
//!
//! let axioms = vec![
//!     parse_formula("forall X. (man(X) -> mortal(X))").unwrap(),
//!     parse_formula("man(socrates)").unwrap(),
//! ];
//! let goal = parse_formula("mortal(socrates)").unwrap();
//! match prove(&axioms, &goal, 1000) {
//!     ProofResult::Proved { .. } => {}
//!     other => panic!("expected a proof, got {other:?}"),
//! }
//! ```

pub mod formula;
pub mod ground;
pub mod parser;
pub mod resolution;
pub mod term;
pub mod transform;
pub mod unify;

pub use formula::Formula;
pub use ground::{ground_clauses, GroundError, Grounding};
pub use parser::{parse_formula, ParseError};
pub use resolution::{prove, FolClause, FolLit, ProofResult};
pub use term::{Atom, Term};
pub use transform::{clausify, to_cnf_clauses, to_nnf, to_prenex};
pub use unify::{unify_atoms, unify_terms, Substitution};
