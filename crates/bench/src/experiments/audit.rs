//! The perf-regression sentinel (`reason-eval audit`): re-runs the
//! cheap sweeps behind every committed `BENCH_*.json` baseline and
//! compares the fresh reports field-by-field.
//!
//! Every leaf is compared at **band zero**. The audited sweeps are
//! deterministic by construction — seeded workloads, virtual clocks,
//! canonical orderings, no wall-clock column — so counts, availability,
//! modeled latencies, circuit shapes, and answers must match the
//! committed bytes exactly, and a drift of even one ULP is a reported
//! regression. Wall-clock speed is not this gate's business: it is
//! measured by `benchmark/` against the bounds in `BENCHMARK.json`.
//!
//! The verdict is machine-readable (`reason-eval audit --json`),
//! byte-deterministic when passing, and drives the process exit code
//! (`1` on any mismatch), which is what makes it a CI gate: the
//! workflow runs the audit twice, `cmp`s the two verdicts, and fails
//! the build on either a regression or nondeterminism.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};

/// One committed baseline file with its regeneration recipe.
#[derive(Debug, Clone, Copy)]
pub struct AuditRule {
    /// The committed file, relative to the baseline directory
    /// (normally the repo root).
    pub file: &'static str,
    /// The `reason-eval` experiment that regenerates it.
    pub experiment: &'static str,
}

/// Every committed baseline the sentinel re-derives. `BENCH_obs_trace.json`
/// (the Chrome-trace artifact) is exercised separately by the CI
/// byte-determinism check on `--trace-out`.
pub const RULES: &[AuditRule] = &[
    AuditRule { file: "BENCH_pc.json", experiment: "compile" },
    AuditRule { file: "BENCH_serve.json", experiment: "serve" },
    AuditRule { file: "BENCH_batch.json", experiment: "batch" },
    AuditRule { file: "BENCH_traffic.json", experiment: "traffic" },
    AuditRule { file: "BENCH_obs.json", experiment: "trace" },
    AuditRule { file: "BENCH_chaos.json", experiment: "chaos" },
    AuditRule { file: "BENCH_slo.json", experiment: "slo" },
];

/// The verdict for one baseline file.
#[derive(Debug, Clone)]
pub struct AuditCheck {
    /// The committed file.
    pub file: String,
    /// The experiment that was re-run.
    pub experiment: String,
    /// Seed read from the committed file (what the re-run used).
    pub seed: u64,
    /// Leaves compared at band zero.
    pub compared: usize,
    /// Human-readable mismatch descriptions (`path: committed vs
    /// fresh`). Empty iff the check passed.
    pub mismatches: Vec<String>,
}

impl AuditCheck {
    /// Whether the committed baseline reproduced exactly.
    pub fn pass(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Caps the mismatch list per file so one structural drift doesn't
/// produce a megabyte of verdict.
const MAX_MISMATCHES: usize = 20;

fn kind(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn push_mismatch(out: &mut Vec<String>, msg: String) {
    if out.len() < MAX_MISMATCHES {
        out.push(msg);
    }
}

fn walk(path: &str, committed: &Json, fresh: &Json, compared: &mut usize, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, av) in a {
                let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match b.iter().find(|(k, _)| k == key) {
                    Some((_, bv)) => walk(&sub, av, bv, compared, out),
                    None => push_mismatch(out, format!("{sub}: missing from the fresh report")),
                }
            }
            for (key, _) in b {
                if !a.iter().any(|(k, _)| k == key) {
                    let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    push_mismatch(out, format!("{sub}: not in the committed baseline"));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                push_mismatch(
                    out,
                    format!("{path}: length {} committed vs {} fresh", a.len(), b.len()),
                );
                return;
            }
            for (i, (av, bv)) in a.iter().zip(b).enumerate() {
                walk(&format!("{path}[{i}]"), av, bv, compared, out);
            }
        }
        (Json::Num(a), Json::Num(b)) => {
            *compared += 1;
            // Band zero means bit equality — a one-ULP drift in a
            // modeled latency is a real (if tiny) regression.
            if a.to_bits() != b.to_bits() {
                push_mismatch(out, format!("{path}: {a:?} committed vs {b:?} fresh"));
            }
        }
        (Json::Str(a), Json::Str(b)) => {
            *compared += 1;
            if a != b {
                push_mismatch(out, format!("{path}: {a:?} committed vs {b:?} fresh"));
            }
        }
        (Json::Bool(a), Json::Bool(b)) => {
            *compared += 1;
            if a != b {
                push_mismatch(out, format!("{path}: {a} committed vs {b} fresh"));
            }
        }
        (Json::Null, Json::Null) => *compared += 1,
        _ => push_mismatch(
            out,
            format!("{path}: {} committed vs {} fresh", kind(committed), kind(fresh)),
        ),
    }
}

/// Compares a fresh report against a committed baseline, every leaf at
/// band zero. Returns `(compared, mismatches)`; the check passes iff
/// `mismatches` is empty.
pub fn audit_compare(committed: &Json, fresh: &Json) -> (usize, Vec<String>) {
    let mut compared = 0;
    let mut out = Vec::new();
    walk("", committed, fresh, &mut compared, &mut out);
    (compared, out)
}

/// Regenerates the report a rule's baseline was committed from.
fn rerun(experiment: &str, seed: u64) -> Json {
    match experiment {
        // The compile sweep's second positional arg is the Shannon
        // baseline's variable cap; committed runs use the default 28.
        "compile" => super::compile_json(seed, 28),
        "serve" => super::serve_json(seed),
        "batch" => super::batch_json(seed),
        "traffic" => super::traffic_json(seed),
        "trace" => super::trace_json(seed),
        "chaos" => super::chaos_json(seed),
        "slo" => super::slo_json(seed),
        other => unreachable!("no audit recipe for experiment `{other}`"),
    }
}

fn check_rule(dir: &Path, rule: &AuditRule) -> AuditCheck {
    let path = dir.join(rule.file);
    let mut check = AuditCheck {
        file: rule.file.to_string(),
        experiment: rule.experiment.to_string(),
        seed: 0,
        compared: 0,
        mismatches: Vec::new(),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            check.mismatches.push(format!("unreadable baseline {}: {err}", path.display()));
            return check;
        }
    };
    let committed = match json::parse(&text) {
        Ok(v) => v,
        Err(err) => {
            check.mismatches.push(format!("unparseable baseline {}: {err}", path.display()));
            return check;
        }
    };
    let Some(seed) = committed.get("seed").and_then(Json::as_f64) else {
        check.mismatches.push(format!("{}: no `seed` field to re-run with", rule.file));
        return check;
    };
    check.seed = seed as u64;
    let fresh = rerun(rule.experiment, check.seed);
    (check.compared, check.mismatches) = audit_compare(&committed, &fresh);
    check
}

/// Runs every [`RULES`] entry against the baselines in `dir` (normally
/// the repo root). Returns the per-file checks and the overall
/// verdict: `true` iff every baseline reproduced.
pub fn audit_verdict(dir: &Path) -> (Vec<AuditCheck>, bool) {
    let checks: Vec<AuditCheck> = RULES.iter().map(|rule| check_rule(dir, rule)).collect();
    let pass = checks.iter().all(AuditCheck::pass);
    (checks, pass)
}

fn check_to_json(check: &AuditCheck) -> Json {
    Json::Obj(vec![
        ("file".into(), Json::Str(check.file.clone())),
        ("experiment".into(), Json::Str(check.experiment.clone())),
        ("seed".into(), Json::Num(check.seed as f64)),
        ("compared".into(), Json::Num(check.compared as f64)),
        (
            "mismatches".into(),
            Json::Arr(check.mismatches.iter().map(|m| Json::Str(m.clone())).collect()),
        ),
        ("pass".into(), Json::Bool(check.pass())),
    ])
}

/// Renders checks (from [`audit_verdict`]) as the machine-readable
/// verdict. Byte-deterministic whenever the audit passes (mismatch
/// messages may quote machine-local values).
pub fn audit_render_json(checks: &[AuditCheck]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("audit".into())),
        ("checks".into(), Json::Arr(checks.iter().map(check_to_json).collect())),
        ("pass".into(), Json::Bool(checks.iter().all(AuditCheck::pass))),
    ])
}

/// Machine-readable verdict over the baselines in `dir`.
pub fn audit_json(dir: &Path) -> Json {
    audit_render_json(&audit_verdict(dir).0)
}

/// Renders checks as the text verdict, one line per baseline plus
/// mismatch details.
pub fn audit_render_text(checks: &[AuditCheck]) -> String {
    let pass = checks.iter().all(AuditCheck::pass);
    let mut out = String::from("=== audit: committed baselines vs fresh re-runs ===\n");
    for check in checks {
        let _ = writeln!(
            out,
            "{:>5}  {:<18} ({:<7} seed {}) {} exact",
            if check.pass() { "ok" } else { "FAIL" },
            check.file,
            check.experiment,
            check.seed,
            check.compared,
        );
        for m in &check.mismatches {
            let _ = writeln!(out, "         {m}");
        }
    }
    out.push_str(if pass {
        "verdict: PASS — every baseline reproduced bit-for-bit\n"
    } else {
        "verdict: FAIL — regenerate with `reason-eval <exp> --json > BENCH_<file>` \
         if the change is intended\n"
    });
    out
}

/// Text verdict over the baselines in `dir`.
pub fn audit(dir: &Path) -> String {
    audit_render_text(&audit_verdict(dir).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn sample() -> Json {
        obj(vec![
            ("experiment", Json::Str("demo".into())),
            ("seed", Json::Num(42.0)),
            (
                "rows",
                Json::Arr(vec![
                    obj(vec![
                        ("nodes", Json::Num(61.0)),
                        ("z", Json::Num(0.0123)),
                        ("ok", Json::Bool(true)),
                    ]),
                    obj(vec![
                        ("nodes", Json::Num(85.0)),
                        ("z", Json::Num(0.0456)),
                        ("ok", Json::Bool(true)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn identical_reports_pass_with_zero_band() {
        let (compared, mismatches) = audit_compare(&sample(), &sample());
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(compared, 8, "experiment, seed, 2x(nodes, z, ok)");
    }

    /// Flips the `target`-th leaf (depth-first) of `v`; `seen` counts
    /// the leaves passed so far.
    fn flip_leaf(v: &mut Json, target: usize, seen: &mut usize) {
        match v {
            Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, c)| flip_leaf(c, target, seen)),
            Json::Arr(items) => items.iter_mut().for_each(|c| flip_leaf(c, target, seen)),
            leaf => {
                if *seen == target {
                    *leaf = match leaf {
                        Json::Num(x) => Json::Num(f64::from_bits(x.to_bits() ^ 1)),
                        Json::Bool(b) => Json::Bool(!*b),
                        Json::Str(s) => Json::Str(format!("{s}'")),
                        _ => Json::Bool(false),
                    };
                }
                *seen += 1;
            }
        }
    }

    #[test]
    fn injected_synthetic_regression_is_caught() {
        // The sentinel's core promise, with no key exempt: whichever
        // single leaf drifts — by one ULP for a number — fails the
        // audit, and the report names that leaf.
        let (leaves, _) = audit_compare(&sample(), &sample());
        for target in 0..leaves {
            let mut fresh = sample();
            flip_leaf(&mut fresh, target, &mut 0);
            let (compared, mismatches) = audit_compare(&sample(), &fresh);
            assert_eq!(compared, leaves);
            assert_eq!(mismatches.len(), 1, "leaf {target}: {mismatches:?}");
            if target == 5 {
                assert!(mismatches[0].starts_with("rows[1].nodes:"), "{}", mismatches[0]);
            }
        }
    }

    #[test]
    fn structural_drift_fails() {
        // Missing key.
        let mut fresh = sample();
        if let Json::Obj(top) = &mut fresh {
            top.retain(|(k, _)| k != "seed");
        }
        let (_, mismatches) = audit_compare(&sample(), &fresh);
        assert!(mismatches.iter().any(|m| m.starts_with("seed:")), "{mismatches:?}");

        // Extra row: array lengths are part of the contract.
        let mut fresh = sample();
        if let Json::Obj(top) = &mut fresh {
            if let Some((_, Json::Arr(rows))) = top.iter_mut().find(|(k, _)| k == "rows") {
                let extra = rows[0].clone();
                rows.push(extra);
            }
        }
        let (_, mismatches) = audit_compare(&sample(), &fresh);
        assert!(mismatches.iter().any(|m| m.contains("length 2 committed vs 3")), "{mismatches:?}");

        // Type change.
        let mut fresh = sample();
        if let Json::Obj(top) = &mut fresh {
            if let Some((_, v)) = top.iter_mut().find(|(k, _)| k == "seed") {
                *v = Json::Str("42".into());
            }
        }
        let (_, mismatches) = audit_compare(&sample(), &fresh);
        assert!(
            mismatches.iter().any(|m| m.contains("number committed vs string")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn mismatch_flood_is_capped() {
        let committed = Json::Arr((0..100).map(|i| Json::Num(i as f64)).collect());
        let fresh = Json::Arr((0..100).map(|i| Json::Num(i as f64 + 1.0)).collect());
        let (_, mismatches) = audit_compare(&committed, &fresh);
        assert_eq!(mismatches.len(), MAX_MISMATCHES);
    }

    #[test]
    fn rules_cover_every_committed_baseline() {
        for rule in RULES {
            assert!(rule.file.starts_with("BENCH_"));
            assert!(!rule.experiment.is_empty());
        }
    }
}
