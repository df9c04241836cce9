//! `reason-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! reason-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! reason-benchmark run-all [--seed N] [--seconds S] [--quick] [--out FILE]
//! reason-benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! The first form is what the driver runs: one workload in this
//! process, a JSON result as the last line of standard output.
//! `run-all` runs every workload that way, each in its own process,
//! untraced and then traced, prints every metric with its unit and
//! writes one result file. Exit code 1 means a wrong answer or a
//! failed op; 2 means the command line was not understood.

mod bench;
mod checks;
mod compare;
mod gen;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use bench::{Args, Bench, Outcome};
use layers::json::{self, Json};
use spec::{spec, Metric};

/// Where traces and `run-all` results go, relative to the working
/// directory (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: reason-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      reason-benchmark run-all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]\n\
         \x20      reason-benchmark compare <A.json[,A2.json...]> <B.json[,B2.json...]>",
        spec().workloads.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("bad value `{raw}` for {key}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run-all") => run_all(&Flags(argv[1..].to_vec())),
        Some("compare") if argv.len() == 3 => compare::run(&argv[1], &argv[2]),
        Some(flag) if flag.starts_with("--") => run_one(&Flags(argv)),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("reason-benchmark: {message}");
            usage()
        }
    }
}

fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn metric_json(value: f64, unit: &str) -> Json {
    object([("value", Json::Num(value)), ("unit", text(unit))])
}

/// A layer metric the workload does not exercise reads 0.
fn layer_json(out: &Outcome, m: &Metric) -> Json {
    metric_json(out.per_layer.get(m.name.as_str()).copied().unwrap_or(0.0), &m.unit)
}

/// The driver's view of one run: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric untraced, every
/// per-layer metric traced.
fn driver_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<(&str, Json)> = if trace {
        spec().per_layer.iter().map(|m| (m.name.as_str(), layer_json(out, m))).collect()
    } else {
        spec()
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), metric_json(out.end_to_end[m.name.as_str()].0, &m.unit)))
            .collect()
    };
    object([
        ("correct", Json::Bool(out.wrong == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", object(metrics)),
    ])
    .render()
}

/// Everything `run-all` keeps of one run.
fn detail_json(args: &Args, out: &Outcome) -> Json {
    object([
        ("workload", text(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("input_digest", text(format!("{:016x}", out.input_digest))),
        ("rounds", Json::Num(out.rounds as f64)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("wrong_answers", Json::Num(out.wrong as f64)),
        (
            "end_to_end",
            object(spec().end_to_end.iter().map(|m| {
                let (value, spread) = out.end_to_end[m.name.as_str()];
                (
                    m.name.as_str(),
                    object([
                        ("value", Json::Num(value)),
                        ("unit", text(&m.unit)),
                        ("spread", Json::Num(spread)),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            object(spec().per_layer.iter().map(|m| (m.name.as_str(), layer_json(out, m)))),
        ),
    ])
}

/// One workload in this process (the driver's entry point).
fn run_one(flags: &Flags) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("missing --workload")?.to_string();
    if !spec().workloads.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let args = Args {
        workload,
        seed: flags.parsed("--seed", 42)?,
        seconds: flags.parsed("--seconds", spec().run_seconds)?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        quick: flags.has("--quick"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }

    let mut b = Bench::new(&args);
    workloads::run(&args.workload, &mut b)?;
    let out = b.finish();
    // `BENCHMARK.json` declares every metric; one reported under a name
    // it does not know would silently vanish from the result.
    let declared = |table: &[Metric], name: &str| {
        let known = table.iter().any(|m| m.name == name);
        assert!(known, "metric `{name}` is not declared in BENCHMARK.json");
    };
    out.end_to_end.keys().for_each(|name| declared(&spec().end_to_end, name));
    out.per_layer.keys().for_each(|name| declared(&spec().per_layer, name));

    println!("workload {}  seed {}  trace {}", args.workload, args.seed, u8::from(args.trace));
    println!(
        "input_digest {:016x}  rounds {}  attempted {}  failed {}  wrong_answers {}",
        out.input_digest, out.rounds, out.attempted, out.failed, out.wrong
    );
    if let Some(what) = &out.first_wrong {
        println!("first failure: {what}");
    }
    if let Some(trace) = &out.chrome_trace {
        let path = format!("{OUT_DIR}/trace_{}_{}.json", args.workload, args.seed);
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace {path}");
    }
    println!("detail {}", detail_json(&args, &out).render());
    println!("{}", driver_line(&out, args.trace));
    Ok(out.failed == 0)
}

/// Runs one workload in a child process and returns its `detail`
/// object, or `None` if the child printed none.
fn child_detail(args: &Args) -> Result<(Option<Json>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("cannot start {}: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .and_then(|text| json::parse(text).ok());
    if detail.is_none() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok((detail, output.status.success()))
}

/// Every workload, each in its own process, untraced then traced.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", 42)?;
    let seconds: f64 = flags.parsed("--seconds", spec().run_seconds)?;
    let quick = flags.has("--quick");
    let out_path = flags
        .value("--out")
        .map_or_else(|| format!("{OUT_DIR}/result_seed{seed}.json"), str::to_string);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    println!(
        "reason-benchmark run-all: seed {seed}, {seconds} s per run, nproc {nproc}{}",
        if quick { ", --quick" } else { "" }
    );
    let mut all_ok = true;
    let mut results: Vec<(&str, Json)> = Vec::new();
    for name in &spec().workloads {
        let args = Args { workload: name.clone(), seed, seconds, trace: false, quick };
        let (plain, ok) = child_detail(&args)?;
        all_ok &= ok;
        let Some(plain) = plain else {
            println!("\n== {name}: no result (the run failed before reporting)");
            all_ok = false;
            continue;
        };
        let text = |key: &str| plain.get(key).map_or(String::new(), Json::render);
        println!(
            "\n== {name}  input_digest {}  rounds {}  attempted {}  failed {}  wrong_answers {}",
            text("input_digest"),
            text("rounds"),
            text("attempted"),
            text("failed"),
            text("wrong_answers")
        );
        let failed = plain.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = plain.get("attempted").and_then(Json::as_f64).unwrap_or(1.0).max(1.0);
        println!("  {:<40} {:>16.6} ratio", "fail_share", failed / attempted);
        print_metrics(&plain, "end_to_end", &spec().end_to_end);

        let mut entry = vec![("untraced", plain)];
        let (layer, ok) = child_detail(&Args { trace: true, ..args })?;
        all_ok &= ok;
        match layer {
            Some(layer) => {
                print_metrics(&layer, "per_layer", &spec().per_layer);
                entry.push(("traced", layer));
            }
            None => all_ok = false,
        }
        results.push((name.as_str(), object(entry)));
    }

    let doc = object([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", object(results)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("\nresult {out_path}  ({})", if all_ok { "all answers correct" } else { "FAILURES" });
    Ok(all_ok)
}

fn print_metrics(detail: &Json, section: &str, table: &[Metric]) {
    for m in table {
        let Some(entry) = detail.get(section).and_then(|s| s.get(&m.name)) else { continue };
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        // A layer metric the workload does not exercise reads 0; leave
        // it out of the printed table (the result file keeps it).
        if section == "per_layer" && value == 0.0 {
            continue;
        }
        let spread = entry
            .get("spread")
            .and_then(Json::as_f64)
            .map_or(String::new(), |s| format!("  (round spread {:.1}%)", s * 100.0));
        println!("  {:<40} {value:>16.6} {}{spread}", m.name, m.unit);
    }
}
