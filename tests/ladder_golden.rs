//! Degrade-ladder golden: pinned digests of every answer the two
//! degraded rungs of `ServeEngine::serve` produce, and of every task a
//! seeded demo batch runs through `BatchExecutor`.
//!
//! A query whose deadline rules out the exact arena steps down the
//! ladder: to anytime Monte-Carlo bounds, or to one forward pass of the
//! knowledge base's trained prediction network. A 1 ns deadline rules
//! out every budgeted rung, so routing here depends on no clock:
//!
//! * with a predictor configured and the knowledge base warmed, `Wmc`,
//!   `Probability` and `Posterior` queries route `Predicted`, and their
//!   answer bits are pinned (training and the forward pass are pure
//!   functions of the arena, the weights and the schedule);
//! * without a predictor they take the `approx_floor` rung (512
//!   samples), and the `Bounds` bits are pinned, warmed (posteriors
//!   normalised by the compiled `Z`) and cold (posteriors as a joint
//!   over a base estimate);
//! * `BatchExecutor::run` on `demo_batch(8, seed)` pins every task's
//!   neural output bits and verdict bits, serial and on two lanes.
//!
//! Every serve batch is served twice on one engine, so the per-batch
//! seed derivation is pinned too. Like the other goldens, run it more
//! than once.

use std::time::Duration;

use reason::approx::PredictConfig;
use reason::pc::{compile_cnf, Evidence, WmcWeights};
use reason::sat::gen::random_ksat;
use reason::sat::Solution;
use reason::serve::{Answer, Query, QueryKind, Route, ServeConfig, ServeEngine};
use reason::system::{demo_batch, BatchExecutor, ExecutorConfig, Verdict};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// One pinned row: `(label, items hashed, digest)`.
type Row = (String, usize, u64);

/// The knowledge bases: `(n, seed)` pairs, each walked forward from its
/// seed to the first formula with mass.
const KBS: &[(usize, u64)] = &[(8, 11), (10, 3), (11, 27), (12, 40)];

/// A small training schedule, so the golden stays quick unoptimised.
const PREDICTOR: PredictConfig = PredictConfig { queries: 64, epochs: 40, hidden: 8 };

fn knowledge_base(n: usize, seed: u64) -> (reason::sat::Cnf, WmcWeights) {
    let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.04 * (v % 10) as f64).collect());
    let mut s = seed;
    loop {
        let cnf = random_ksat(n, 2 * n + 3, 3, s);
        if compile_cnf(&cnf, &weights).is_some() {
            return (cnf, weights);
        }
        s += 1;
    }
}

/// `Wmc`, then `Probability` and `Posterior` under three evidence
/// patterns, every query with a 1 ns deadline.
fn queries(n: usize) -> Vec<Query> {
    let mut kinds = vec![QueryKind::Wmc];
    for pattern in 0..3usize {
        let mut ev = Evidence::empty(n);
        for v in (pattern..n).step_by(3 + pattern) {
            ev.set(v, (v + pattern) % 2);
        }
        kinds.push(QueryKind::Probability(ev.clone()));
        kinds.push(QueryKind::Posterior(ev));
    }
    kinds.into_iter().map(|k| Query::with_deadline(k, Duration::from_nanos(1))).collect()
}

/// Serves the query batch twice on a fresh engine and digests every
/// route and answer; `expect` checks each route.
fn serve_row(
    label: String,
    config: ServeConfig,
    warm: bool,
    n: usize,
    seed: u64,
    expect: fn(Route) -> bool,
) -> Row {
    let (cnf, weights) = knowledge_base(n, seed);
    let mut engine = ServeEngine::new(config);
    let id = engine.register("kb", &cnf, weights);
    if warm {
        engine.warm(id).unwrap();
    }
    let batch = queries(n);
    let mut h = Fnv::new();
    let mut items = 0;
    for _ in 0..2 {
        let report = engine.serve(id, &batch).unwrap();
        for outcome in &report.outcomes {
            assert!(expect(outcome.route), "{label}: unexpected route {:?}", outcome.route);
            match outcome.route {
                Route::Exact => h.word(0),
                Route::Approx { samples } => {
                    h.word(1);
                    h.word(samples);
                }
                Route::Predicted => h.word(2),
            }
            match &outcome.answer {
                Answer::Predicted(p) => h.f64(*p),
                Answer::Bounds { estimate, lower, upper } => {
                    h.f64(*estimate);
                    h.f64(*lower);
                    h.f64(*upper);
                }
                other => panic!("{label}: a degraded route answered {other:?}"),
            }
            items += 1;
        }
    }
    (label, items, h.0)
}

fn serve_rows(rows: &mut Vec<Row>) {
    let predicted = |r: Route| r == Route::Predicted;
    let floor = |r: Route| r == Route::Approx { samples: 512 };
    for &(n, seed) in KBS {
        let with_net = ServeConfig { predictor: Some(PREDICTOR), ..ServeConfig::default() };
        rows.push(serve_row(format!("predicted/{n}-{seed}"), with_net, true, n, seed, predicted));
        let plain = ServeConfig::default();
        rows.push(serve_row(format!("floor-warm/{n}-{seed}"), plain, true, n, seed, floor));
        rows.push(serve_row(format!("floor-cold/{n}-{seed}"), plain, false, n, seed, floor));
    }
}

fn verdict_digest(h: &mut Fnv, verdict: &Verdict) {
    match verdict {
        Verdict::Sat(Solution::Sat(model)) => {
            h.word(0);
            h.word(model.len() as u64);
            for &b in model {
                h.word(u64::from(b));
            }
        }
        Verdict::Sat(Solution::Unsat) => h.word(1),
        Verdict::Wmc { estimate, lower, upper } => {
            h.word(2);
            h.f64(*estimate);
            h.f64(*lower);
            h.f64(*upper);
        }
        Verdict::Distribution(d) => {
            h.word(3);
            h.word(d.len() as u64);
            d.iter().for_each(|&p| h.f64(p));
        }
        Verdict::Assignment { assignment, log_prob } => {
            h.word(4);
            assignment.iter().for_each(|&x| h.word(x as u64));
            h.f64(*log_prob);
        }
        Verdict::Batch(lanes) => {
            h.word(5);
            h.word(lanes.len() as u64);
            lanes.iter().for_each(|v| verdict_digest(h, v));
        }
        Verdict::Failed { reason } => panic!("a demo task failed: {reason}"),
        Verdict::Done => h.word(6),
    }
}

fn executor_rows(rows: &mut Vec<Row>) {
    for seed in [1u64, 42] {
        let tasks = demo_batch(8, seed);
        let mut digests = Vec::new();
        for config in [ExecutorConfig::sequential(), ExecutorConfig::overlapped(2)] {
            let report = BatchExecutor::new(config).run(&tasks);
            let mut h = Fnv::new();
            for result in &report.results {
                h.word(result.neural_output.len() as u64);
                result.neural_output.iter().for_each(|&x| h.f64(x));
                verdict_digest(&mut h, &result.verdict);
            }
            digests.push((report.results.len(), h.0));
        }
        assert_eq!(digests[0], digests[1], "demo batch {seed}: lanes moved a bit");
        rows.push((format!("demo-batch/8-{seed}"), digests[0].0, digests[0].1));
    }
}

fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    serve_rows(&mut rows);
    executor_rows(&mut rows);
    rows
}

const PINS: &[(&str, usize, u64)] = &[
    ("predicted/8-11", 14, 0x8c4ffc3f3b4a4749),
    ("floor-warm/8-11", 14, 0x859f5336f155032b),
    ("floor-cold/8-11", 14, 0x4e1630f1a52d0351),
    ("predicted/10-3", 14, 0x1d0b172d0a2b281d),
    ("floor-warm/10-3", 14, 0xceb3205dc94d7c8c),
    ("floor-cold/10-3", 14, 0xf3b63f624c726d64),
    ("predicted/11-27", 14, 0x1f04d989a94f3b5d),
    ("floor-warm/11-27", 14, 0xed0fd65868af02dc),
    ("floor-cold/11-27", 14, 0xb30c8ba11f690530),
    ("predicted/12-40", 14, 0x97647c04db41461d),
    ("floor-warm/12-40", 14, 0x1c7e808919921fc0),
    ("floor-cold/12-40", 14, 0x466fdf4afc28ba1e),
    ("demo-batch/8-1", 8, 0x3c307b3ab62d31b1),
    ("demo-batch/8-42", 8, 0x888f2f303605306c),
];

#[test]
fn every_ladder_answer_is_pinned() {
    let rows = all_rows();
    let listing: Vec<String> = rows
        .iter()
        .map(|(label, items, digest)| format!("    (\"{label}\", {items}, {digest:#018x}),"))
        .collect();
    let got: Vec<(&str, usize, u64)> = rows.iter().map(|(l, n, d)| (l.as_str(), *n, *d)).collect();
    assert!(
        got == PINS,
        "ladder digests drifted from their pins; this run read:\n{}",
        listing.join("\n")
    );
}
