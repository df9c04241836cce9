//! Knowledge-compilation scaling sweep (`reason-eval compile`).
//!
//! The experiment behind the top-down compiler rewrite: across a
//! ladder of random 3-SAT instances it sizes the component-caching
//! compiler ([`reason_pc::compile_cnf`]) head-to-head against the
//! legacy static-order Shannon baseline
//! ([`reason_pc::compile_cnf_shannon`]), asserting their weighted model
//! counts agree where both run, then extends *new-compiler-only* rungs
//! past the baseline's wall — random instances at n ≥ 40 and
//! structured instances (implication chains, graph-coloring encodings)
//! at n ≥ 60 — sizes the old compiler cannot touch.
//!
//! Every column is a count or an answer, so the report is
//! byte-identical per seed; compile *time* is `benchmark/`'s
//! `cold_ladder` `pc.compile.call_ms`.
//!
//! `reason-eval compile --json > BENCH_pc.json` regenerates the
//! committed bench baseline.

use std::fmt::Write as _;

use reason_pc::{compile_cnf_with, CompileOptions, CompileStats, Evidence};
use reason_sat::gen::{graph_coloring, random_ksat};
use reason_sat::{weighted_count, Cnf};

use super::registry::{Args, Output};
use super::replay::sweep_weights;
use crate::json::Json;

/// One instance of the compilation sweep.
#[derive(Debug, Clone)]
struct CompileRow {
    /// Instance family: `random3sat`, `chain`, or `coloring`.
    pub family: &'static str,
    /// Variable count.
    pub num_vars: usize,
    /// Clause count.
    pub num_clauses: usize,
    /// Seed the instance was generated from.
    pub seed: u64,
    /// Weighted model count from the top-down circuit.
    pub z: f64,
    /// Top-down compiler counters (nodes, decisions, cache traffic).
    pub stats: CompileStats,
    /// Legacy circuit node count, when the baseline ran.
    pub old_nodes: Option<usize>,
    /// Brute-enumeration agreement check (`None` above the
    /// enumeration limit).
    pub brute_ok: Option<bool>,
}

/// The random-3-SAT comparison ladder `(num_vars, num_clauses)` —
/// the `reason-eval approx` rungs, where the legacy compiler still
/// terminates (seconds at the top).
const COMPARE_SIZES: [(usize, usize); 5] = [(12, 36), (16, 40), (20, 44), (24, 48), (28, 52)];

/// Random-3-SAT rungs compiled by the top-down compiler only: the
/// legacy baseline is past its wall here (extrapolating its measured
/// growth, hours at n = 40).
const EXTENDED_SIZES: [(usize, usize); 2] = [(40, 64), (60, 84)];

/// An implication-chain rule set `x1 → x2 → … → xn` — the structured
/// shape safety-rule workloads produce, with massive subproblem
/// sharing.
fn chain_cnf(num_vars: usize) -> Cnf {
    let clauses: Vec<Vec<i32>> = (1..num_vars as i32).map(|i| vec![-i, i + 1]).collect();
    Cnf::from_clauses(num_vars, clauses)
}

/// Runs the top-down compiler on `cnf`, returning a row (without
/// baseline columns). Returns `None` for instances with no satisfying
/// mass — sweep loops walk seeds until one sticks, and the single
/// compilation doubles as the satisfiability probe.
fn try_topdown(family: &'static str, cnf: &Cnf, seed: u64) -> Option<CompileRow> {
    let n = cnf.num_vars();
    let weights = sweep_weights(n);
    let (circuit, stats) = compile_cnf_with(cnf, &weights, CompileOptions::default());
    let z = circuit?.probability(&Evidence::empty(n));
    if z <= 0.0 {
        return None;
    }
    // Cross-check against exhaustive enumeration where it is feasible.
    let brute_ok = (n <= 16).then(|| {
        let probs: Vec<f64> = (0..n).map(|v| weights.prob(v)).collect();
        (z - weighted_count(cnf, &probs)).abs() < 1e-9
    });
    Some(CompileRow {
        family,
        num_vars: n,
        num_clauses: cnf.num_clauses(),
        seed,
        z,
        stats,
        old_nodes: None,
        brute_ok,
    })
}

/// Adds the legacy-baseline node count to a row and asserts old/new WMC
/// agreement.
fn add_baseline(row: &mut CompileRow, cnf: &Cnf) {
    let weights = sweep_weights(cnf.num_vars());
    let old =
        reason_pc::compile_cnf_shannon(cnf, &weights).expect("baseline agrees on satisfiability");
    let z_old = old.probability(&Evidence::empty(cnf.num_vars()));
    row.old_nodes = Some(old.num_nodes());
    assert!(
        (z_old - row.z).abs() < 1e-9 * z_old.max(1.0),
        "compiler disagreement at n={}: topdown {} vs shannon {}",
        row.num_vars,
        row.z,
        z_old
    );
}

/// Runs the sweep: the comparison ladder (baseline attached up to
/// `baseline_max_vars` variables), the extended random rungs, and the
/// structured n ≥ 60 rungs. Random instances walk seeds until
/// satisfiable with positive mass, like the approx sweep.
fn compile_rows(seed: u64, baseline_max_vars: usize) -> Vec<CompileRow> {
    let mut rows = Vec::new();
    for &(n, m) in COMPARE_SIZES.iter().chain(&EXTENDED_SIZES) {
        let mut instance_seed = seed;
        let row = loop {
            let cnf = random_ksat(n, m, 3, instance_seed);
            if let Some(mut row) = try_topdown("random3sat", &cnf, instance_seed) {
                if n <= baseline_max_vars {
                    add_baseline(&mut row, &cnf);
                }
                break row;
            }
            instance_seed += 1;
        };
        rows.push(row);
    }
    // Structured rungs: implication chain and graph coloring, both past
    // n = 60. The chain is cheap for both compilers (shared suffixes),
    // so it keeps a baseline column as the structured node-count
    // comparison; the coloring instance is top-down-only.
    let chain = chain_cnf(64);
    let mut chain_row = try_topdown("chain", &chain, 0).expect("chains are satisfiable");
    add_baseline(&mut chain_row, &chain);
    rows.push(chain_row);
    let mut coloring_seed = seed;
    let coloring_row = loop {
        let cnf = graph_coloring(24, 36, 3, coloring_seed); // 72 variables
        if let Some(row) = try_topdown("coloring", &cnf, coloring_seed) {
            break row;
        }
        coloring_seed += 1;
    };
    rows.push(coloring_row);
    rows
}

fn rows_to_text(rows: &[CompileRow]) -> String {
    let mut out = String::from(
        "=== reason-pc: top-down component-caching compiler vs legacy Shannon baseline ===\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>5} {:>7} {:>8} {:>9} {:>7} {:>9}",
        "family", "vars", "clauses", "nodes", "decisions", "hit %", "old nds"
    );
    for r in rows {
        let old_nodes = r.old_nodes.map_or("-".to_string(), |n| n.to_string());
        let _ = writeln!(
            out,
            "{:>10} {:>5} {:>7} {:>8} {:>9} {:>7.1} {:>9}",
            r.family,
            r.num_vars,
            r.num_clauses,
            r.stats.nodes,
            r.stats.decisions,
            100.0 * r.stats.hit_rate(),
            old_nodes,
        );
    }
    let largest = rows.iter().map(|r| r.num_vars).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "(propagate → decompose → decide → cache; exact rungs up to n={largest}; node counts \
         never exceed the static-order Shannon baseline's on shared instances; compile time is \
         benchmark/'s cold_ladder pc.compile.call_ms)"
    );
    out
}

fn rows_to_json(rows: &[CompileRow], seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("compile".into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("family".into(), Json::Str(r.family.into())),
                            ("num_vars".into(), Json::Num(r.num_vars as f64)),
                            ("num_clauses".into(), Json::Num(r.num_clauses as f64)),
                            ("instance_seed".into(), Json::Num(r.seed as f64)),
                            ("z".into(), Json::Num(r.z)),
                            ("nodes".into(), Json::Num(r.stats.nodes as f64)),
                            ("edges".into(), Json::Num(r.stats.edges as f64)),
                            ("decisions".into(), Json::Num(r.stats.decisions as f64)),
                            ("propagations".into(), Json::Num(r.stats.propagations as f64)),
                            ("components".into(), Json::Num(r.stats.components as f64)),
                            ("cache_hits".into(), Json::Num(r.stats.cache_hits as f64)),
                            ("cache_misses".into(), Json::Num(r.stats.cache_misses as f64)),
                            ("cache_hit_rate".into(), Json::Num(r.stats.hit_rate())),
                            // 16 B/node + 8 B/edge, the Circuit
                            // footprint metric (paper Table IV).
                            (
                                "circuit_bytes".into(),
                                Json::Num((16 * r.stats.nodes + 8 * r.stats.edges) as f64),
                            ),
                        ];
                        if let Some(old_nodes) = r.old_nodes {
                            fields.push(("old_nodes".into(), Json::Num(old_nodes as f64)));
                        }
                        if let Some(ok) = r.brute_ok {
                            fields.push(("brute_ok".into(), Json::Bool(ok)));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The registry row: one sweep, both views. [`Args::baseline_cap`]
/// caps how far up the ladder the (slow) legacy baseline runs.
pub(crate) fn run(args: &Args) -> Output {
    let rows = compile_rows(args.seed, args.baseline_cap);
    Output::sweep(rows_to_text(&rows), rows_to_json(&rows, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A trimmed sweep for debug-profile tests: the cheap comparison
    /// rungs only, baseline capped at n = 12.
    fn small_rows() -> Vec<CompileRow> {
        let mut rows = Vec::new();
        for &(n, m) in &COMPARE_SIZES[..2] {
            let cnf = random_ksat(n, m, 3, 7);
            let mut row = try_topdown("random3sat", &cnf, 7).expect("seed 7 rungs are SAT");
            if n <= 12 {
                add_baseline(&mut row, &cnf);
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn rows_agree_with_brute_and_baseline() {
        let rows = small_rows();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.z > 0.0);
            assert_eq!(r.brute_ok, Some(true), "n={} disagrees with enumeration", r.num_vars);
        }
        let with_baseline = &rows[0];
        assert!(
            with_baseline.stats.nodes <= with_baseline.old_nodes.unwrap(),
            "top-down must not exceed the baseline's circuit size"
        );
    }

    #[test]
    fn structured_families_compile() {
        let chain = chain_cnf(64);
        let row = try_topdown("chain", &chain, 0).expect("chains are satisfiable");
        assert_eq!(row.num_vars, 64);
        assert!(row.z > 0.0);
        assert!(row.stats.nodes > 0);
    }

    #[test]
    fn text_report_renders_every_row() {
        let rows = small_rows();
        let text = rows_to_text(&rows);
        assert!(text.contains("top-down component-caching"));
        assert!(text.contains("old nds"));
        for r in &rows {
            assert!(text.contains(&format!("{:>5} {:>7}", r.num_vars, r.num_clauses)));
        }
    }

    #[test]
    fn json_output_parses_and_carries_the_sweep() {
        let text = rows_to_json(&small_rows(), 7).render();
        let parsed = json::parse(&text).expect("sweep JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("compile"));
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.get("nodes").unwrap().as_f64().is_some());
            assert_eq!(row.get("brute_ok").unwrap().as_bool(), Some(true));
            // Cache traffic and sizes are emitted raw, not just as a
            // rate: hits + misses and the circuit's byte footprint.
            assert!(row.get("cache_hits").unwrap().as_f64().is_some());
            assert!(row.get("cache_misses").unwrap().as_f64().unwrap() > 0.0);
            assert!(row.get("circuit_bytes").unwrap().as_f64().unwrap() > 0.0);
        }
        assert!(rows[0].get("old_nodes").is_some(), "baseline rung carries the Shannon size");
        assert!(rows[1].get("old_nodes").is_none(), "rungs past the cap carry no baseline");
    }

    #[test]
    fn compile_json_is_byte_identical_across_runs() {
        // Two sweeps render identical JSON for the same seed: every
        // column is a count or an answer, none a measured time.
        let a = rows_to_json(&small_rows(), 7).render();
        let b = rows_to_json(&small_rows(), 7).render();
        assert_eq!(a, b);
    }
}
