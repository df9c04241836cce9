//! `reason-eval` — regenerates every table and figure of the REASON
//! paper's evaluation, plus the approximate-inference sweep.
//!
//! ```text
//! reason-eval <experiment> [tasks] [workers] [--json] [--seed N]
//!             [--trace-out FILE] [--profile-out FILE]
//!             [--baseline-dir DIR]
//!   experiments: fig2 fig3a fig3b fig3c fig3d table2 table3 table4
//!                fig8 fig9 fig11 fig12 fig13 table5 ablation dse
//!                pipeline approx compile serve batch traffic trace
//!                chaos slo profile audit all
//!   pipeline: runs [tasks] mixed SAT/PC/approx/exact-WMC/serve tasks
//!             on the threaded BatchExecutor with [workers] symbolic
//!             workers
//!   approx:   exact-vs-approximate WMC sweep (reason-approx)
//!   compile:  knowledge-compilation scaling sweep — node, decision
//!             and cache counts of the top-down component-caching
//!             compiler vs the legacy Shannon baseline's circuit size;
//!             [tasks] caps the baseline's variable count (default 28)
//!   serve:    knowledge-base serving sweep (reason-serve) — persistent
//!             circuit store, repeated queries held bit-exact to the
//!             oracle, router deadline fallbacks, incremental clause
//!             edits
//!   batch:    batched d-DNNF arena evaluation sweep — one traversal
//!             held bit-identical to per-query walks, and the
//!             compiled-kernel lowering onto the simulated accelerator
//!             (predicted vs measured cycles)
//!             (compile, serve and batch report counts and verdicts
//!             only, byte-identical per seed; wall-clock speed is
//!             measured by benchmark/run.sh)
//!   traffic:  sharded-cluster traffic harness — open-loop Poisson
//!             arrivals with Zipf tenant/query skew swept over offered
//!             QPS and shard count; p50/p99 modeled latency,
//!             deadline-miss/degrade/reject rates, bit-identity vs a
//!             single engine (byte-identical JSON per seed)
//!   trace:    deterministic observability replay — the traffic
//!             generator against a telemetry-instrumented cluster on a
//!             virtual clock; per-stage latency attribution
//!             (queue/compile/exec partitions the modeled latency
//!             bit-exactly per query), an allowlisted metric snapshot, per-tenant
//!             cost-model state, and a Perfetto/Chrome trace
//!             (--trace-out FILE writes it); --json is the committed
//!             BENCH_obs.json and is byte-identical per seed
//!   chaos:    fault-injection sweep over the sharded cluster — seeded
//!             crash / rolling-slowdown / cache-wipe fault plans
//!             replayed against the traffic workload; per-cell
//!             availability, p50/p99, degrade rate, retry/failover/
//!             breaker counters; guards zero lost queries and exact
//!             bit-identity vs the single-engine oracle (byte-identical
//!             JSON per seed)
//!   slo:      SLO burn-rate sweep — the default serving objectives
//!             (availability, deadline-miss, latency-quantile) evaluated
//!             live against a warmed cluster under the chaos fault
//!             plans; crash cells deterministically page the
//!             availability SLO while the no-fault baseline stays
//!             quiet; --json is the committed BENCH_slo.json and is
//!             byte-identical per seed
//!   profile:  continuous-profiling experiment — the span forest of a
//!             traffic replay folded into deterministic flame-graph
//!             profiles: top-k hotspots (self vs total time), a
//!             differential profile of the crash plan vs the no-fault
//!             baseline, and worst-query tail exemplars with full
//!             admit -> route -> compile -> eval span chains
//!   audit:    the regression sentinel — re-runs the sweep behind
//!             every committed BENCH_*.json baseline and compares
//!             every field bit-exact (no key is skipped); exits 1 on
//!             any mismatch, so it gates CI
//!   --seed N: seeds the seedable experiments (approx, pipeline,
//!             compile, serve, batch, traffic, trace, chaos, slo,
//!             profile)
//!   --trace-out FILE: with `trace`, writes the final cell's Chrome
//!             trace_event JSON to FILE (open in Perfetto)
//!   --profile-out FILE: with `profile`, writes the baseline cell's
//!             collapsed-stack profile to FILE (load in speedscope or
//!             feed to inferno-flamegraph)
//!   --baseline-dir DIR: with `audit`, the directory holding the
//!             committed BENCH_*.json files (default `.`)
//!   --json:   machine-readable output — native rows for approx,
//!             compile, serve, and batch, a {"experiment", "text"} wrapper for
//!             the table/figure experiments — so sweeps are scriptable
//! ```

use reason_bench::experiments;
use reason_bench::json::Json;

#[derive(Debug, Clone, Copy)]
struct EvalOpts {
    tasks: usize,
    workers: usize,
    seed: u64,
    json: bool,
    /// Baseline-compiler variable cap for the `compile` sweep: the
    /// first positional argument when given, else 28 (the top of the
    /// comparison ladder; the Shannon baseline takes seconds there).
    baseline_cap: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: reason-eval <experiment> [tasks] [workers] [--json] [--seed N] \
         [--trace-out FILE] [--profile-out FILE] [--baseline-dir DIR]\n\
         experiments: fig2 fig3a fig3b fig3c fig3d table2 table3 table4 fig8 fig9 \
         fig11 fig12 fig13 table5 ablation dse pipeline approx compile serve batch traffic \
         trace chaos slo profile audit all"
    );
    std::process::exit(2);
}

fn main() {
    let mut which: Option<String> = None;
    let mut positional: Vec<usize> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut baseline_dir = ".".to_string();
    let mut opts = EvalOpts { tasks: 4, workers: 4, seed: 42, json: false, baseline_cap: 28 };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => {
                    eprintln!("--seed requires an integer value");
                    usage();
                }
            },
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a file path");
                    usage();
                }
            },
            "--profile-out" => match args.next() {
                Some(path) => profile_out = Some(path),
                None => {
                    eprintln!("--profile-out requires a file path");
                    usage();
                }
            },
            "--baseline-dir" => match args.next() {
                Some(dir) => baseline_dir = dir,
                None => {
                    eprintln!("--baseline-dir requires a directory path");
                    usage();
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            _ if which.is_none() => which = Some(arg),
            _ => match arg.parse() {
                Ok(n) => positional.push(n),
                Err(_) => {
                    eprintln!("expected a number, got `{arg}`");
                    usage();
                }
            },
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    if let Some(&t) = positional.first() {
        opts.tasks = t;
        opts.baseline_cap = t;
    }
    if let Some(&w) = positional.get(1) {
        opts.workers = w;
    }

    let run = |name: &str| -> Option<String> {
        match name {
            "fig2" => Some(experiments::fig2()),
            "fig3a" => Some(experiments::fig3a()),
            "fig3b" => Some(experiments::fig3b()),
            "fig3c" => Some(experiments::fig3c()),
            "fig3d" => Some(experiments::fig3d()),
            "table2" => Some(experiments::table2()),
            "table3" => Some(experiments::table3()),
            "table4" => Some(experiments::table4(opts.tasks)),
            "fig8" => Some(experiments::fig8()),
            "fig9" => Some(experiments::fig9()),
            "fig11" => Some(experiments::fig11(opts.tasks)),
            "fig12" => Some(experiments::fig12(opts.tasks)),
            "fig13" => Some(experiments::fig13()),
            "table5" => Some(experiments::table5(opts.tasks)),
            "ablation" => Some(experiments::ablation()),
            "dse" => Some(experiments::dse()),
            "pipeline" => Some(experiments::pipeline(opts.tasks, opts.workers, opts.seed)),
            "approx" => Some(experiments::approx(opts.seed)),
            "compile" => Some(experiments::compile_report(opts.seed, opts.baseline_cap)),
            "serve" => Some(experiments::serve(opts.seed)),
            "batch" => Some(experiments::batch(opts.seed)),
            "traffic" => Some(experiments::traffic(opts.seed)),
            "trace" => Some(experiments::trace(opts.seed)),
            "chaos" => Some(experiments::chaos(opts.seed)),
            "slo" => Some(experiments::slo(opts.seed)),
            "profile" => Some(experiments::profile(opts.seed)),
            _ => None,
        }
    };

    // Experiments with native machine-readable output; everything else
    // is wrapped as {"experiment": ..., "text": ...} under --json.
    let run_json = |name: &str| -> Option<Json> {
        match name {
            "approx" => Some(experiments::approx_json(opts.seed)),
            "compile" => Some(experiments::compile_json(opts.seed, opts.baseline_cap)),
            "serve" => Some(experiments::serve_json(opts.seed)),
            "batch" => Some(experiments::batch_json(opts.seed)),
            "traffic" => Some(experiments::traffic_json(opts.seed)),
            "trace" => Some(experiments::trace_json(opts.seed)),
            "chaos" => Some(experiments::chaos_json(opts.seed)),
            "slo" => Some(experiments::slo_json(opts.seed)),
            "profile" => Some(experiments::profile_json(opts.seed)),
            _ => run(name).map(|text| {
                Json::Obj(vec![
                    ("experiment".into(), Json::Str(name.into())),
                    ("text".into(), Json::Str(text)),
                ])
            }),
        }
    };

    // `audit` is not part of `all`: it re-runs the other sweeps and
    // compares them against the committed files, so it is a gate over
    // the suite, not a member of it.
    let all = [
        "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "table2", "table3", "table4", "fig8", "fig9",
        "fig11", "fig12", "fig13", "table5", "ablation", "dse", "pipeline", "approx", "compile",
        "serve", "batch", "traffic", "trace", "chaos", "slo", "profile",
    ];
    if let Some(path) = &trace_out {
        if which != "trace" {
            eprintln!("--trace-out only applies to the `trace` experiment");
            usage();
        }
        let artifact = experiments::trace_artifact(opts.seed);
        if let Err(err) = std::fs::write(path, artifact) {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &profile_out {
        if which != "profile" {
            eprintln!("--profile-out only applies to the `profile` experiment");
            usage();
        }
        let artifact = experiments::profile_artifact(opts.seed);
        if let Err(err) = std::fs::write(path, artifact) {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
    if which == "audit" {
        let (checks, pass) = experiments::audit_verdict(std::path::Path::new(&baseline_dir));
        if opts.json {
            println!("{}", experiments::audit_render_json(&checks).render());
        } else {
            println!("{}", experiments::audit_render_text(&checks));
        }
        std::process::exit(if pass { 0 } else { 1 });
    }
    if which == "all" {
        if opts.json {
            let reports: Vec<Json> =
                all.iter().map(|n| run_json(n).expect("known experiment")).collect();
            println!("{}", Json::Arr(reports).render());
        } else {
            for name in all {
                println!("{}", run(name).expect("known experiment"));
            }
        }
    } else if opts.json {
        match run_json(&which) {
            Some(v) => println!("{}", v.render()),
            None => {
                eprintln!("unknown experiment `{which}`");
                usage();
            }
        }
    } else {
        match run(&which) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("unknown experiment `{which}`");
                usage();
            }
        }
    }
}
