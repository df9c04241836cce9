//! `reason-benchmark compare A.json[,A2.json…] B.json[,B2.json…]` — the
//! two-sets check.
//!
//! Each side is one or more `run-all` result files of one seed (A is
//! the base). Prints one row per metric × workload: each side's median
//! over its runs, and B as a ratio of A. An end-to-end row is
//! `regressed` when B's median is worse than A's by more than the
//! metric's bound; `unresolved` when a side's spread is wider than the
//! bound — run-to-run spread (interquartile distance over median) for
//! a side of several runs, the run's own round-to-round spread for a
//! side of one — unless every run of B beats every run of A; else
//! `ok`. Inputs and the counts that must repeat exactly are compared
//! exactly across every run. Exits non-zero on a regression or an
//! exact mismatch.
//!
//! One run per side is a smoke check: on a shared host two back-to-back
//! runs of the same code can differ by more than the bound. Give each
//! side several runs, alternating sides, for a verdict.

use crate::layers::json::{parse, Json};
use crate::spec::{spec, Better, Metric};
use crate::stats::{median, spread};

/// Layer metrics that are counts or shares fixed by the inputs: two
/// runs of the same code on the same seed agree on them exactly.
/// Store evictions are *not* among them: the store's cost-aware policy
/// weighs measured recompile seconds, so its victims follow the clock.
const EXACT_LAYER_METRICS: [&str; 7] = [
    "fail_share",
    "wrong_answers",
    "sim_cycles",
    "pc.compile.nodes",
    "compiler.lower.instrs",
    "arch.vliw.sim_cycles",
    "arch.bcp.sim_cycles",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
    Same,
    Differs,
    Info,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Same => "same",
            Status::Differs => "DIFFERS",
            Status::Info => "",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Status::Regressed | Status::Differs)
    }
}

/// One side of a comparison: one metric's value in each of the side's
/// runs, and the widest round-to-round spread any of them reported.
#[derive(Debug, Clone, Default)]
pub struct Side {
    pub runs: Vec<f64>,
    pub round_spread: f64,
}

impl Side {
    pub fn value(&self) -> f64 {
        median(&self.runs)
    }

    /// Run-to-run spread when the side has several runs, else the one
    /// run's own round-to-round spread.
    pub fn spread(&self) -> f64 {
        if self.runs.len() > 1 {
            spread(&self.runs)
        } else {
            self.round_spread
        }
    }
}

/// Classifies one end-to-end metric given both sides, its direction
/// and its bound.
pub fn judge(base: &Side, new: &Side, better: Better, bound: f64) -> Status {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (new.value() - base.value()) / base.value().abs().max(f64::MIN_POSITIVE);
    let new_always_better = new.runs.iter().all(|n| base.runs.iter().all(|b| sign * (n - b) < 0.0));
    if base.spread().max(new.spread()) > bound && !new_always_better {
        Status::Unresolved
    } else if worsening > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn load(paths: &str) -> Result<Vec<Json>, String> {
    paths
        .split(',')
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |node, key| node.get(key))
}

fn row(workload: &str, metric: &str, unit: &str, base: f64, new: f64, note: &str) {
    let ratio = if base != 0.0 { format!("{:.4}", new / base) } else { "-".to_string() };
    println!("{workload:<15} {metric:<38} {base:>15.6} {new:>15.6} {unit:<12} {ratio:>8}  {note}");
}

pub fn run(paths_a: &str, paths_b: &str) -> Result<bool, String> {
    let (a, b) = (load(paths_a)?, load(paths_b)?);
    println!(
        "base A = {paths_a} ({} run(s))\nnew  B = {paths_b} ({} run(s))\n\
         values are medians over a side's runs; ratio = B / A\n",
        a.len(),
        b.len()
    );
    println!(
        "{:<15} {:<38} {:>15} {:>15} {:<12} {:>8}  status",
        "workload", "metric", "A", "B", "unit", "B/A"
    );
    let mut all_ok = true;
    let mut tally = |status: Status| {
        all_ok &= !status.fails();
        status
    };
    for workload in &spec().workloads {
        // Inputs and outcomes that every run of both sides must share.
        for key in ["input_digest", "failed", "wrong_answers"] {
            let seen: Vec<Option<String>> = a
                .iter()
                .chain(&b)
                .map(|doc| field(doc, &["workloads", workload, "untraced", key]).map(Json::render))
                .collect();
            let same = seen[0].is_some() && seen.iter().all(|v| *v == seen[0]);
            let status = tally(if same { Status::Same } else { Status::Differs });
            let show = |v: &Option<String>| v.clone().unwrap_or_else(|| "missing".into());
            println!(
                "{workload:<15} {key:<38} {:>15} {:>15} {:<12} {:>8}  {}",
                show(&seen[0]),
                show(&seen[a.len()]),
                "",
                "",
                status.as_str()
            );
        }
        let side = |docs: &[Json], run: &str, section: &str, m: &Metric| -> Option<Side> {
            let at = |doc, key| {
                field(doc, &["workloads", workload, run, section, &m.name, key])
                    .and_then(Json::as_f64)
            };
            let runs: Option<Vec<f64>> = docs.iter().map(|doc| at(doc, "value")).collect();
            let round_spread = docs.iter().filter_map(|doc| at(doc, "spread")).fold(0.0, f64::max);
            Some(Side { runs: runs?, round_spread })
        };
        for m in &spec().end_to_end {
            let (Some(sa), Some(sb)) =
                (side(&a, "untraced", "end_to_end", m), side(&b, "untraced", "end_to_end", m))
            else {
                tally(Status::Differs);
                println!("{workload:<15} {:<38} missing on one side", m.name);
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry bounds");
            let status = tally(judge(&sa, &sb, m.better, bound));
            let note = format!(
                "{}  (spread A {:.1}% B {:.1}%, bound {:.0}%)",
                status.as_str(),
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                bound * 100.0
            );
            row(workload, &m.name, &m.unit, sa.value(), sb.value(), &note);
        }
        for m in &spec().per_layer {
            let (Some(sa), Some(sb)) =
                (side(&a, "traced", "per_layer", m), side(&b, "traced", "per_layer", m))
            else {
                continue;
            };
            if sa.runs.iter().chain(&sb.runs).all(|&v| v == 0.0) {
                continue;
            }
            let status = if EXACT_LAYER_METRICS.contains(&m.name.as_str()) {
                let first = sa.runs[0];
                let same = sa.runs.iter().chain(&sb.runs).all(|&v| v == first);
                tally(if same { Status::Same } else { Status::Differs })
            } else {
                Status::Info
            };
            row(workload, &m.name, &m.unit, sa.value(), sb.value(), status.as_str());
        }
    }
    println!(
        "\n{}",
        if all_ok { "no regression beyond bounds" } else { "REGRESSED or DIFFERS rows above" }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(value: f64, round_spread: f64) -> Side {
        Side { runs: vec![value], round_spread }
    }

    #[test]
    fn judging_follows_direction_bound_and_spread() {
        let judge1 = |base, new, spread, better, bound| {
            judge(&one(base, spread), &one(new, 0.0), better, bound)
        };
        // Latency up 8 % against a 10 % bound: ok. Up 12 %: regressed.
        assert_eq!(judge1(200.0, 216.0, 0.02, Better::Lower, 0.1), Status::Ok);
        assert_eq!(judge1(200.0, 224.0, 0.02, Better::Lower, 0.1), Status::Regressed);
        // Getting better never regresses.
        assert_eq!(judge1(200.0, 100.0, 0.02, Better::Lower, 0.1), Status::Ok);
        // Throughput is better higher: down 12 % regresses, up does not.
        assert_eq!(judge1(5000.0, 4400.0, 0.0, Better::Higher, 0.1), Status::Regressed);
        assert_eq!(judge1(5000.0, 5600.0, 0.0, Better::Higher, 0.1), Status::Ok);
        // A spread wider than the bound leaves a worse or equal row
        // unresolved; a side that is better in every run is still ok.
        assert_eq!(judge1(200.0, 224.0, 0.11, Better::Lower, 0.1), Status::Unresolved);
        assert_eq!(judge1(200.0, 200.0, 0.11, Better::Lower, 0.1), Status::Unresolved);
        assert_eq!(judge1(200.0, 150.0, 0.11, Better::Lower, 0.1), Status::Ok);
    }

    #[test]
    fn sets_are_judged_by_their_medians_and_run_to_run_spread() {
        let set = |runs: &[f64]| Side { runs: runs.to_vec(), round_spread: 0.9 };
        // Medians 200 vs 206; run-to-run spreads are a few per cent, so
        // the (large) in-run spreads no longer matter.
        let base = set(&[196.0, 200.0, 204.0]);
        assert_eq!(judge(&base, &set(&[203.0, 206.0, 209.0]), Better::Lower, 0.1), Status::Ok);
        assert_eq!(
            judge(&base, &set(&[228.0, 230.0, 236.0]), Better::Lower, 0.1),
            Status::Regressed
        );
        // One side scattered beyond the bound: unresolved.
        assert_eq!(
            judge(&base, &set(&[150.0, 230.0, 300.0]), Better::Lower, 0.1),
            Status::Unresolved
        );
        assert!((base.spread() - 8.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn exact_metrics_name_real_layer_metrics() {
        for name in EXACT_LAYER_METRICS {
            assert!(spec().per_layer.iter().any(|m| m.name == name), "{name}");
        }
    }
}
