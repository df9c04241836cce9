//! The perf-regression sentinel (`reason-eval audit`): re-runs the
//! sweep of every [`REGISTRY`] row that names a committed `BENCH_*.json`
//! baseline and compares the fresh report field-by-field.
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

use super::registry::{Args, Experiment, REGISTRY};
use crate::json::{self, Json};

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
fn audit_compare(committed: &Json, fresh: &Json) -> (usize, Vec<String>) {
    let mut compared = 0;
    let mut out = Vec::new();
    walk("", committed, fresh, &mut compared, &mut out);
    (compared, out)
}

/// The committed report in `dir/file` and the seed it records.
fn committed_baseline(dir: &Path, file: &str) -> Result<(Json, u64), String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("unreadable baseline {}: {err}", path.display()))?;
    let committed = json::parse(&text)
        .map_err(|err| format!("unparseable baseline {}: {err}", path.display()))?;
    let seed = committed
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{file}: no `seed` field to re-run with"))?;
    Ok((committed, seed as u64))
}

/// Re-derives `file`: `row` at the file's seed, defaults otherwise.
fn check_baseline(dir: &Path, file: &str, row: &Experiment) -> AuditCheck {
    let (file, experiment) = (file.to_string(), row.name.to_string());
    let mut check = AuditCheck { file, experiment, seed: 0, compared: 0, mismatches: Vec::new() };
    match committed_baseline(dir, &check.file) {
        Ok((committed, seed)) => {
            check.seed = seed;
            let fresh = (row.run)(&Args { seed, ..Args::default() })
                .json
                .expect("a row with a baseline renders native JSON");
            (check.compared, check.mismatches) = audit_compare(&committed, &fresh);
        }
        Err(unusable) => check.mismatches.push(unusable),
    }
    check
}

/// Checks every [`REGISTRY`] row that names a baseline against the
/// files in `dir` (normally the repo root). Returns the per-file checks
/// and the overall verdict: `true` iff every baseline reproduced.
pub fn audit_verdict(dir: &Path) -> (Vec<AuditCheck>, bool) {
    let checks: Vec<AuditCheck> =
        REGISTRY.iter().filter_map(|row| Some(check_baseline(dir, row.baseline?, row))).collect();
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
        // Which files those are is the registry's own test.
        let audited: Vec<&str> = REGISTRY.iter().filter_map(|row| row.baseline).collect();
        assert_eq!(audited.len(), 7);
        assert!(audited.iter().all(|file| file.starts_with("BENCH_")));
    }
}
