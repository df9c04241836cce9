//! Exact-vs-approximate inference sweep (`reason-eval approx`).
//!
//! Across instance sizes, compile-and-evaluate the exact weighted
//! model count (`reason_pc::compile_cnf`) and run the anytime
//! importance-sampling estimator, reporting accuracy (relative error,
//! bound containment) and each side's deterministic cost: nodes of the
//! exact circuit beside samples drawn. No clock: wall-clock speed is
//! `benchmark/`'s job, and two runs at one seed are byte-identical.
//!
//! The sweep's shape records the compiler rewrite: the top-down
//! component-caching compiler builds fewer nodes than the estimator
//! draws samples on every rung through n = 40, and the ladder extends
//! to n = 60, where the exact circuit finally outgrows the estimator's
//! linear budget and the anytime trade re-emerges.

use std::fmt::Write as _;

use reason_approx::{approx_wmc, ApproxConfig, SampleConfig};
use reason_pc::{compile_cnf, Evidence};
use reason_sat::gen::random_ksat;

use super::registry::{Args, Output};
use super::replay::sweep_weights;
use crate::json::Json;

/// One instance size of the sweep.
#[derive(Debug, Clone, Copy)]
struct ApproxRow {
    /// Variable count.
    pub num_vars: usize,
    /// Clause count.
    pub num_clauses: usize,
    /// Exact weighted model count (compiled circuit evaluation).
    pub exact: f64,
    /// Approximate estimate.
    pub estimate: f64,
    /// Anytime lower bound.
    pub lower: f64,
    /// Anytime upper bound.
    pub upper: f64,
    /// `|estimate - exact| / exact`.
    pub rel_error: f64,
    /// Whether the final bracket contains the exact answer.
    pub contains: bool,
    /// Nodes of the exact compiled circuit.
    pub nodes: usize,
    /// Samples consumed by the estimator.
    pub samples: u64,
}

/// The sweep's instance ladder `(num_vars, num_clauses)`: clause count
/// grows slowly (`m = n + 24`) so the satisfying mass stays estimable.
const SWEEP_SIZES: [(usize, usize); 7] =
    [(12, 36), (16, 40), (20, 44), (24, 48), (28, 52), (40, 64), (60, 84)];

/// The estimator budget for an instance size: linear in the variable
/// count (`2048·n` samples), 16 anytime checkpoints.
fn sweep_config(num_vars: usize, seed: u64) -> ApproxConfig {
    let samples = 2048 * num_vars as u64;
    ApproxConfig {
        sampling: SampleConfig { samples, checkpoint: samples / 16, seed },
        ..ApproxConfig::default()
    }
}

/// Runs the sweep over an explicit size ladder: one satisfiable seeded
/// instance per size (seeds walk past UNSAT draws), exact and
/// approximate on the same instance.
fn approx_rows_for(sizes: &[(usize, usize)], seed: u64) -> Vec<ApproxRow> {
    sizes
        .iter()
        .map(|&(n, m)| {
            // Walk seeds until the instance is satisfiable (UNSAT rows
            // would make the accuracy columns vacuous).
            let mut instance_seed = seed;
            loop {
                let cnf = random_ksat(n, m, 3, instance_seed);
                let weights = sweep_weights(n);
                let compiled = compile_cnf(&cnf, &weights);
                let exact = compiled.as_ref().map(|c| (c.probability(&Evidence::empty(n)), c));
                match exact {
                    Some((exact, circuit)) if exact > 0.0 => {
                        let est = approx_wmc(&cnf, &weights, &sweep_config(n, seed));
                        return ApproxRow {
                            num_vars: n,
                            num_clauses: m,
                            exact,
                            estimate: est.estimate,
                            lower: est.lower,
                            upper: est.upper,
                            rel_error: est.rel_error(exact),
                            contains: est.contains(exact),
                            nodes: circuit.num_nodes(),
                            samples: est.samples,
                        };
                    }
                    _ => instance_seed += 1,
                }
            }
        })
        .collect()
}

/// The registry row: one run of the full ladder, both views.
pub(crate) fn run(args: &Args) -> Output {
    let rows = approx_rows_for(&SWEEP_SIZES, args.seed);
    Output::sweep(rows_to_text(&rows), rows_to_json(&rows, args.seed))
}

fn rows_to_text(rows: &[ApproxRow]) -> String {
    let mut out = String::from(
        "=== reason-approx: exact vs anytime approximate WMC (seeded random 3-SAT) ===\n",
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>9} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "vars", "clauses", "nodes", "samples", "exact Z", "estimate", "rel err", "in bnds"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>9} {:>9} {:>12.6} {:>12.6} {:>8.2}% {:>9}",
            r.num_vars,
            r.num_clauses,
            r.nodes,
            r.samples,
            r.exact,
            r.estimate,
            100.0 * r.rel_error,
            if r.contains { "yes" } else { "NO" },
        );
    }
    let exact_smaller = rows.iter().filter(|r| (r.nodes as u64) < r.samples).count();
    let _ = writeln!(
        out,
        "(importance sampling, model-seeded mixture proposal, budget = 2048 samples/var; \
         nodes = the exact circuit the top-down component-caching compiler builds, samples = \
         assignments the estimator draws: the exact circuit is the smaller of the two on \
         {exact_smaller} of {} rungs. Counts, not clocks: wall-clock lives in benchmark/)",
        rows.len()
    );
    out
}

fn rows_to_json(rows: &[ApproxRow], seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("approx".into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("num_vars".into(), Json::Num(r.num_vars as f64)),
                            ("num_clauses".into(), Json::Num(r.num_clauses as f64)),
                            ("exact".into(), Json::Num(r.exact)),
                            ("estimate".into(), Json::Num(r.estimate)),
                            ("lower".into(), Json::Num(r.lower)),
                            ("upper".into(), Json::Num(r.upper)),
                            ("rel_error".into(), Json::Num(r.rel_error)),
                            ("contains_exact".into(), Json::Bool(r.contains)),
                            ("nodes".into(), Json::Num(r.nodes as f64)),
                            ("samples".into(), Json::Num(r.samples as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn small_sweep_rows_are_accurate_and_bracketed() {
        // Only the cheap end of the ladder, to keep the test quick
        // under debug-profile `cargo test`.
        let rows = approx_rows_for(&SWEEP_SIZES[..2], 7);
        for r in &rows {
            assert!(r.contains, "bounds must contain exact: {r:?}");
        }
        let small = &rows[0];
        assert_eq!(small.num_vars, 12);
        assert!(small.rel_error < 0.05, "rel error {}", small.rel_error);
    }

    #[test]
    fn text_report_renders_every_row() {
        let rows = approx_rows_for(&SWEEP_SIZES[..2], 7);
        let text = rows_to_text(&rows);
        assert!(text.contains("exact vs anytime approximate WMC"));
        assert!(text.contains("component-caching compiler"));
        for r in &rows {
            assert!(text.contains(&format!("{:>6} {:>8}", r.num_vars, r.num_clauses)));
        }
    }

    #[test]
    fn json_output_parses_and_carries_the_sweep() {
        let rows = approx_rows_for(&SWEEP_SIZES[..2], 7);
        let text = rows_to_json(&rows, 7).render();
        let parsed = json::parse(&text).expect("sweep JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("approx"));
        let parsed_rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(parsed_rows.len(), 2);
        for row in parsed_rows {
            assert!(row.get("estimate").unwrap().as_f64().is_some());
            assert_eq!(row.get("contains_exact").unwrap().as_bool(), Some(true));
        }
    }
}
