//! `reason-eval` — regenerates every table and figure of the REASON
//! paper's evaluation, plus the seeded sweeps behind the committed
//! `BENCH_*.json` baselines.
//!
//! ```text
//! reason-eval <experiment> [tasks] [workers] [--json] [--seed N]
//!             [--trace-out FILE] [--profile-out FILE]
//!             [--baseline-dir DIR]
//! ```
//!
//! The experiments are the rows of
//! [`reason_bench::experiments::REGISTRY`] (`reason-eval bogus` prints
//! their names; each sweep's module docs say what it measures and
//! guards). This binary parses flags, looks the name up, runs the row
//! **once** and prints the view asked for. Two names are gates over the
//! table, not rows of it: `all` (the default) runs every row in order;
//! `audit` re-runs the sweep behind every committed baseline in
//! `--baseline-dir` (default `.`) and compares every field bit-exact.
//!
//! `[tasks]` is tasks per dataset, `pipeline`'s batch size, or
//! `compile`'s legacy-baseline variable cap; `[workers]` is `pipeline`'s
//! symbolic workers. `--seed` seeds `pipeline` and every sweep; the
//! sweeps are byte-identical per seed (`approx` and `pipeline` keep a
//! wall clock; speed is `benchmark/run.sh`'s job). `--json` prints
//! native rows for the sweeps (`> BENCH_<file>` regenerates a baseline)
//! and a `{"experiment", "text"}` wrapper for the tables and figures.
//! `--trace-out` / `--profile-out` write `trace`'s Chrome `trace_event`
//! JSON / `profile`'s collapsed stacks, from the run that is printed.
//! Exit codes: `2` usage error, `1` audit drift or unwritable artifact,
//! `101` a sweep's own guard tripped.

use reason_bench::experiments::audit::{audit_render_json, audit_render_text, audit_verdict};
use reason_bench::experiments::{Args, REGISTRY};
use reason_bench::json::Json;

fn usage() -> ! {
    let artifact_flags: String = REGISTRY
        .iter()
        .filter_map(|row| row.artifact_flag)
        .map(|f| format!(" [{f} FILE]"))
        .collect();
    let names: Vec<&str> = REGISTRY.iter().map(|row| row.name).collect();
    eprintln!(
        "usage: reason-eval <experiment> [tasks] [workers] [--json] [--seed N]{artifact_flags} \
         [--baseline-dir DIR]\nexperiments: {} audit all",
        names.join(" ")
    );
    std::process::exit(2);
}

/// The value after `flag`, parsed; a usage error naming `what` the flag
/// wants when it is missing or malformed.
fn value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    argv.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires {what}");
        usage()
    })
}

fn main() {
    let mut which: Option<String> = None;
    let mut positional: Vec<usize> = Vec::new();
    let mut json = false;
    // `(flag, path)` per artifact flag given.
    let mut artifacts: Vec<(String, String)> = Vec::new();
    let mut baseline_dir = ".".to_string();
    let mut args = Args::default();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--seed" => args.seed = value(&mut argv, &arg, "an integer value"),
            "--baseline-dir" => baseline_dir = value(&mut argv, &arg, "a directory path"),
            flag if REGISTRY.iter().any(|row| row.artifact_flag == Some(flag)) => {
                let path = value(&mut argv, flag, "a file path");
                artifacts.push((arg, path));
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            _ if which.is_none() => which = Some(arg),
            _ => positional.push(arg.parse().unwrap_or_else(|_| {
                eprintln!("expected a number, got `{arg}`");
                usage()
            })),
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    if let Some(&t) = positional.first() {
        args.tasks = t;
        args.baseline_cap = t;
    }
    if let Some(&w) = positional.get(1) {
        args.workers = w;
    }

    for (flag, _) in &artifacts {
        let owner = REGISTRY.iter().find(|row| row.artifact_flag == Some(flag)).expect("parsed");
        if owner.name != which {
            eprintln!("{flag} only applies to the `{}` experiment", owner.name);
            usage();
        }
    }
    if which == "audit" {
        let (checks, pass) = audit_verdict(std::path::Path::new(&baseline_dir));
        let verdict =
            if json { audit_render_json(&checks).render() } else { audit_render_text(&checks) };
        println!("{verdict}");
        std::process::exit(if pass { 0 } else { 1 });
    }

    let all = which == "all";
    let rows: Vec<_> = REGISTRY.iter().filter(|row| all || row.name == which).collect();
    if rows.is_empty() {
        eprintln!("unknown experiment `{which}`");
        usage();
    }
    let mut reports = Vec::with_capacity(rows.len());
    for row in rows {
        let out = (row.run)(&args);
        for (_, path) in &artifacts {
            let artifact = out.artifact.as_ref().expect("a row with an artifact flag renders one");
            if let Err(err) = std::fs::write(path, artifact) {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(1);
            }
        }
        if json {
            // No native JSON: wrap as {"experiment": ..., "text": ...}.
            reports.push(out.json.unwrap_or_else(|| {
                Json::Obj(vec![
                    ("experiment".into(), Json::Str(row.name.into())),
                    ("text".into(), Json::Str(out.text)),
                ])
            }));
        } else {
            println!("{}", out.text);
        }
    }
    if json {
        let doc = if all { Json::Arr(reports) } else { reports.remove(0) };
        println!("{}", doc.render());
    }
}
