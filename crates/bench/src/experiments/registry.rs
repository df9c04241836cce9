//! The experiment registry: the one list `reason-eval` reads.
//!
//! Every experiment is one [`Experiment`] row of [`REGISTRY`]. Dispatch,
//! `--json`, `all`, the usage text and the `audit` gate all iterate this
//! table, so adding an experiment is adding a row. A row's [`Output`]
//! carries every view of **one** run: `reason-eval trace --json
//! --trace-out F` replays its sweep once.

use super::{approx, batch, chaos, compile, profile, serve, slo, trace, traffic};
use crate::json::Json;

/// What `reason-eval` parsed off its command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// First positional: tasks per dataset / batch size (default 4).
    pub tasks: usize,
    /// Second positional: `pipeline`'s symbolic workers (default 4).
    pub workers: usize,
    /// `--seed N` (default 42, the seed of every committed baseline).
    pub seed: u64,
    /// `compile`'s legacy-baseline variable cap: the first positional
    /// when given, else 28 (the top of the comparison ladder; the
    /// Shannon baseline takes seconds there).
    pub baseline_cap: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args { tasks: 4, workers: 4, seed: 42, baseline_cap: 28 }
    }
}

/// Every view of one experiment run.
#[derive(Debug, Clone)]
pub struct Output {
    /// The printable report.
    pub text: String,
    /// The native machine-readable report; `None` for the paper's
    /// tables and figures (`--json` wraps their text).
    pub json: Option<Json>,
    /// What the row's [`Experiment::artifact_flag`] writes.
    pub artifact: Option<String>,
}

impl Output {
    /// A text-only report.
    fn text_only(text: String) -> Self {
        Output { text, json: None, artifact: None }
    }

    /// A sweep's text and native JSON, rendered from one summary.
    pub fn sweep(text: String, json: Json) -> Self {
        Output { text, json: Some(json), artifact: None }
    }

    /// The same views plus the side artifact of the same run.
    pub fn with_artifact(self, artifact: String) -> Self {
        Output { artifact: Some(artifact), ..self }
    }
}

/// One `reason-eval` experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// The committed file `--json` regenerates and `audit` re-derives.
    pub baseline: Option<&'static str>,
    /// The flag whose `FILE` argument receives [`Output::artifact`].
    pub artifact_flag: Option<&'static str>,
    /// Runs the experiment once.
    pub run: fn(&Args) -> Output,
}

/// A row without an artifact flag.
const fn row(
    name: &'static str,
    baseline: Option<&'static str>,
    run: fn(&Args) -> Output,
) -> Experiment {
    Experiment { name, baseline, artifact_flag: None, run }
}

/// Every experiment, in `reason-eval all` order (`audit` and `all` are
/// gates over this table, not rows of it).
pub const REGISTRY: &[Experiment] = &[
    row("fig2", None, |_| Output::text_only(super::fig2())),
    row("fig3a", None, |_| Output::text_only(super::fig3a())),
    row("fig3b", None, |_| Output::text_only(super::fig3b())),
    row("fig3c", None, |_| Output::text_only(super::fig3c())),
    row("fig3d", None, |_| Output::text_only(super::fig3d())),
    row("table2", None, |_| Output::text_only(super::table2())),
    row("table3", None, |_| Output::text_only(super::table3())),
    row("table4", None, |a| Output::text_only(super::table4(a.tasks))),
    row("fig8", None, |_| Output::text_only(super::fig8())),
    row("fig9", None, |_| Output::text_only(super::fig9())),
    row("fig11", None, |a| Output::text_only(super::fig11(a.tasks))),
    row("fig12", None, |a| Output::text_only(super::fig12(a.tasks))),
    row("fig13", None, |_| Output::text_only(super::fig13())),
    row("table5", None, |a| Output::text_only(super::table5(a.tasks))),
    row("ablation", None, |_| Output::text_only(super::ablation())),
    row("dse", None, |_| Output::text_only(super::dse())),
    row("pipeline", None, |a| Output::text_only(super::pipeline(a.tasks, a.workers, a.seed))),
    row("approx", None, approx::run),
    row("compile", Some("BENCH_pc.json"), compile::run),
    row("serve", Some("BENCH_serve.json"), serve::run),
    row("batch", Some("BENCH_batch.json"), batch::run),
    row("traffic", Some("BENCH_traffic.json"), traffic::run),
    Experiment {
        artifact_flag: Some("--trace-out"),
        ..row("trace", Some("BENCH_obs.json"), trace::run)
    },
    row("chaos", Some("BENCH_chaos.json"), chaos::run),
    row("slo", Some("BENCH_slo.json"), slo::run),
    Experiment { artifact_flag: Some("--profile-out"), ..row("profile", None, profile::run) },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_none_shadows_a_gate() {
        for (i, row) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|r| r.name != row.name), "duplicate {}", row.name);
            assert!(row.name != "audit" && row.name != "all", "{} names a gate", row.name);
        }
    }

    #[test]
    fn baselines_are_exactly_the_committed_bench_files() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut named: Vec<String> =
            REGISTRY.iter().filter_map(|r| r.baseline).map(String::from).collect();
        for file in &named {
            assert!(root.join(file).is_file(), "{file} is not committed at the repo root");
        }
        // The Chrome-trace artifact of `trace --trace-out`: committed,
        // but pinned by CI's `cmp`, not by the audit.
        named.push("BENCH_obs_trace.json".into());
        named.sort();
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .expect("repo root")
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        committed.sort();
        assert_eq!(named, committed, "every BENCH_*.json needs a registry row (and vice versa)");
    }
}
