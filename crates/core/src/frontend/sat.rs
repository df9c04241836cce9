//! CNF → DAG lowering (paper Sec. IV-A (a)).
//!
//! Three layers, exactly as the paper describes: a *literal* node for each
//! literal occurrence (negations become `Not` over the variable input), a
//! *clause* node implementing disjunction (`Max` over 0/1 values), and a
//! *formula* node implementing conjunction (`Mul`). Evaluating the DAG at
//! a 0/1 assignment yields 1.0 iff the assignment satisfies the formula.

use reason_sat::Cnf;

use crate::dag::{Dag, DagBuilder, DagOp, NodeId, NodeKind};

/// Mapping metadata produced by [`dag_from_cnf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatDagMap {
    /// `clause_nodes[i]` is the DAG node of clause `i`.
    pub clause_nodes: Vec<NodeId>,
    /// Input slot of each variable (slot `v` holds variable `v`, 0 or 1).
    pub num_vars: usize,
}

/// Lowers a CNF formula into the unified DAG.
///
/// Input slot `v` carries the 0/1 value of variable `v`. The output node
/// evaluates to 1.0 exactly when the assignment satisfies the formula.
///
/// Empty formulas lower to the constant 1; empty clauses to the constant 0.
///
/// ```
/// use reason_core::dag_from_cnf;
/// use reason_sat::Cnf;
/// let cnf = Cnf::from_clauses(2, vec![vec![1, -2]]);
/// let (dag, _map) = dag_from_cnf(&cnf);
/// assert_eq!(dag.evaluate_output(&[1.0, 1.0]), 1.0);
/// assert_eq!(dag.evaluate_output(&[0.0, 1.0]), 0.0);
/// ```
pub fn dag_from_cnf(cnf: &Cnf) -> (Dag, SatDagMap) {
    let mut b = DagBuilder::new();
    // Upper bounds (before CSE): a `Not` per literal and a clause node per
    // clause, then the formula node or its constant.
    let literals: usize = cnf.iter().map(|clause| clause.len()).sum();
    b.reserve(cnf.num_vars() + literals + cnf.num_clauses() + 1, 2 * literals + cnf.num_clauses());
    let mut clause_nodes = Vec::with_capacity(cnf.num_clauses());
    // Materialize all variable inputs so slot count covers the universe.
    for v in 0..cnf.num_vars() {
        let _ = b.input(v as u32);
    }
    let mut lits: Vec<NodeId> = Vec::new();
    for clause in cnf.iter() {
        lits.clear();
        for l in clause.iter() {
            let input = b.input(l.var().index() as u32);
            lits.push(if l.is_neg() {
                b.node(DagOp::Not, &[input], NodeKind::Literal)
            } else {
                input
            });
        }
        let node = if lits.is_empty() {
            b.constant(0.0)
        } else {
            b.node(DagOp::Max, &lits, NodeKind::Clause)
        };
        clause_nodes.push(node);
    }
    let output = if clause_nodes.is_empty() {
        b.constant(1.0)
    } else {
        b.node(DagOp::Mul, &clause_nodes, NodeKind::Formula)
    };
    let dag = b.build(output).expect("CNF lowering emits valid DAGs");
    (dag, SatDagMap { clause_nodes, num_vars: cnf.num_vars() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_sat::gen::random_ksat;

    fn assignment_to_inputs(model: &[bool]) -> Vec<f64> {
        model.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()
    }

    #[test]
    fn dag_agrees_with_cnf_eval_exhaustively() {
        let cnf = Cnf::from_clauses(3, vec![vec![1, -2], vec![2, 3], vec![-1, -3]]);
        let (dag, _) = dag_from_cnf(&cnf);
        for bits in 0..8u32 {
            let model: Vec<bool> = (0..3).map(|v| bits >> v & 1 == 1).collect();
            let expect = if cnf.eval(&model) { 1.0 } else { 0.0 };
            assert_eq!(
                dag.evaluate_output(&assignment_to_inputs(&model)),
                expect,
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn random_formulas_agree() {
        for seed in 0..10 {
            let cnf = random_ksat(6, 18, 3, seed);
            let (dag, _) = dag_from_cnf(&cnf);
            for bits in 0..64u32 {
                let model: Vec<bool> = (0..6).map(|v| bits >> v & 1 == 1).collect();
                let expect = if cnf.eval(&model) { 1.0 } else { 0.0 };
                assert_eq!(dag.evaluate_output(&assignment_to_inputs(&model)), expect);
            }
        }
    }

    #[test]
    fn structure_follows_paper_layers() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, -2], vec![2]]);
        let (dag, map) = dag_from_cnf(&cnf);
        assert_eq!(map.clause_nodes.len(), 2);
        // Output is a Formula-kind product over clause nodes.
        let out = dag.node(dag.output());
        assert_eq!(out.kind, NodeKind::Formula);
        assert_eq!(out.children.len(), 2);
    }

    #[test]
    fn shared_literals_are_cse_deduplicated() {
        // !x0 appears in both clauses: one Not node.
        let cnf = Cnf::from_clauses(2, vec![vec![-1, 2], vec![-1, -2]]);
        let (dag, _) = dag_from_cnf(&cnf);
        let nots = dag
            .nodes()
            .filter(|n| matches!(n.op, DagOp::Not) && n.kind == NodeKind::Literal)
            .count();
        assert_eq!(nots, 2, "!x0 shared, !x1 separate");
    }

    #[test]
    fn degenerate_formulas() {
        let empty = Cnf::new(2);
        let (dag, _) = dag_from_cnf(&empty);
        assert_eq!(dag.evaluate_output(&[0.0, 0.0]), 1.0);

        let mut with_empty_clause = Cnf::new(1);
        with_empty_clause.add_clause(reason_sat::Clause::new(vec![]));
        let (dag, _) = dag_from_cnf(&with_empty_clause);
        assert_eq!(dag.evaluate_output(&[1.0]), 0.0);
    }
}
