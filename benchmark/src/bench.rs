//! The measuring harness every workload runs inside: set-up timing,
//! the round loop on a `--seconds` budget, per-call latencies, answer
//! accounting, the layer ledger, and the final reduction to medians.
//!
//! A run is rounds of identical work repeated until the budget is
//! spent; every timing metric is the **median over rounds** of that
//! round's statistic, which keeps one descheduled round out of the
//! result. A `--trace 1` run spends the first quarter of its budget on
//! plain rounds and the rest on traced ones (each op replayed on twin
//! objects rung by rung); the difference between the two phases is the
//! tracing overhead, and end-to-end metrics never come from a traced
//! round.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gen::Digest;
use crate::layers::Timed;
use crate::stats::{median, percentile, sort};
use crate::trace::Recorder;

/// Span name → the layer metric its self time feeds, and how many of
/// the metric's units a nanosecond is. Spans are the only source of
/// self times: a metric here is the median, over traced ops, of the
/// summed self time of the op's spans of that name.
const SELF_TIME_METRICS: [(&str, &str, f64); 9] = [
    ("serve.cluster", "serve.cluster.self_us", 1e-3),
    ("serve.engine", "serve.engine.self_us", 1e-3),
    ("system.executor", "system.executor.self_us", 1e-3),
    ("pc.eval_batch", "pc.eval_batch.self_us", 1e-3),
    ("serve.engine.cold", "serve.engine.cold_self_ms", 1e-6),
    ("pc.compile.persistent", "pc.compile.persistent_call_ms", 1e-6),
    ("pc.flatten", "pc.flatten.call_us", 1e-3),
    ("serve.kb.edit+serve", "serve.kb.recompile_ms", 1e-6),
    ("serve.kb.edit", "serve.kb.edit_us", 1e-3),
];

/// Set-up repetitions per run, `setup_s` being their median: at least
/// `SETUP_REPS.0`, then more until `SETUP_FILL_S` seconds are spent or
/// `SETUP_REPS.1` are done, so a set-up of milliseconds is not reported
/// from three samples.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_FILL_S: f64 = 1.0;
/// Share of a traced run's budget spent on plain rounds first.
const UNTRACED_SHARE: f64 = 0.25;
/// A round whose throughput is further than this from the median
/// round's counts as noisy.
const NOISY_ROUND: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round at 1/20 of the counts; every answer check still runs.
    pub quick: bool,
}

#[derive(Debug, Default)]
struct Round {
    traced: bool,
    ops: u64,
    busy: Duration,
    call_us: Vec<f64>,
}

#[derive(Debug)]
pub struct Bench {
    pub seed: u64,
    quick: bool,
    tracing: bool,
    budget: Duration,
    clock: Option<Instant>,
    setup_s: Vec<f64>,
    done: Vec<Round>,
    cur: Option<Round>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_wrong: Option<String>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    recorder: Recorder,
    next_op: u64,
    pub digest: Digest,
}

/// A finished run, reduced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub rounds: usize,
    pub input_digest: u64,
    /// `name -> (value, spread over rounds)`.
    pub end_to_end: BTreeMap<&'static str, (f64, f64)>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub chrome_trace: Option<String>,
}

impl Bench {
    pub fn new(args: &Args) -> Self {
        Bench {
            seed: args.seed,
            quick: args.quick,
            tracing: args.trace,
            budget: Duration::from_secs_f64(args.seconds),
            clock: None,
            setup_s: Vec::new(),
            done: Vec::new(),
            cur: None,
            attempted: 0,
            failed: 0,
            wrong: 0,
            first_wrong: None,
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
            recorder: Recorder::default(),
            next_op: 0,
            digest: Digest::default(),
        }
    }

    /// A frozen count, or a twentieth of it (at least `floor`) in
    /// `--quick` mode.
    pub fn scaled(&self, count: usize, floor: usize) -> usize {
        if self.quick {
            (count / 20).max(floor)
        } else {
            count
        }
    }

    /// Runs the workload's set-up several times (see `SETUP_REPS`; once
    /// in `--quick` mode), timing each, and keeps the last state.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let (least, most) = if self.quick { (1, 1) } else { SETUP_REPS };
        let began = Instant::now();
        loop {
            let t0 = Instant::now();
            let state = build();
            self.setup_s.push(t0.elapsed().as_secs_f64());
            let reps = self.setup_s.len();
            if reps >= most || (reps >= least && began.elapsed().as_secs_f64() >= SETUP_FILL_S) {
                return state;
            }
        }
    }

    /// Closes the round in progress and says whether to run another.
    /// The measuring clock starts at the first call.
    pub fn next_round(&mut self) -> bool {
        let clock = *self.clock.get_or_insert_with(Instant::now);
        if let Some(round) = self.cur.take() {
            self.done.push(round);
        }
        let plain = self.done.iter().filter(|r| !r.traced).count();
        let traced = self.done.len() - plain;
        let (more, trace_it) = if self.quick {
            (plain == 0 || (self.tracing && traced == 0), plain > 0)
        } else {
            let spent = clock.elapsed();
            let trace_it =
                self.tracing && plain > 0 && spent >= self.budget.mul_f64(UNTRACED_SHARE);
            (spent < self.budget || (self.tracing && traced == 0), trace_it)
        };
        if more {
            self.cur = Some(Round { traced: trace_it, ..Round::default() });
        }
        more
    }

    /// `true` while the current round replays its ops on twins.
    pub fn traced_round(&self) -> bool {
        self.cur.as_ref().is_some_and(|r| r.traced)
    }

    /// `true` for a `--trace 1` run (its set-up builds the twins).
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Books one timed call through the real entry point that
    /// attempted `ops` ops.
    pub fn call(&mut self, dur: Duration, ops: u64) {
        self.attempted += ops;
        let round = self.cur.as_mut().expect("calls happen inside a round");
        round.ops += ops;
        round.busy += dur;
        round.call_us.push(dur.as_secs_f64() * 1e6);
    }

    /// Ops that returned an error or were refused.
    pub fn fail(&mut self, ops: u64, what: impl FnOnce() -> String) {
        if ops > 0 {
            self.failed += ops;
            self.first_wrong.get_or_insert_with(what);
        }
    }

    /// An answer check; a failed one is a wrong answer.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(what) = verdict {
            self.wrong += 1;
            self.first_wrong.get_or_insert(what);
        }
    }

    /// One sample of a layer metric reported as the median of its
    /// samples.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A layer metric that is a single count or share.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a rung's timed call as a span; returns its index for the
    /// rung below to name as parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        t: &Timed<T>,
    ) -> usize {
        self.recorder.record(name, parent, op, t.start, t.dur)
    }

    pub fn span_raw(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.recorder.record(name, parent, op, start, dur)
    }

    /// Closes a root span opened (with zero extent) before its
    /// children ran: `dur` is the op's summed call time.
    pub fn span_close(&mut self, index: usize, dur: Duration) {
        self.recorder.set_duration(index, dur);
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[crate::trace::Span] {
        self.recorder.spans()
    }

    pub fn finish(mut self) -> Outcome {
        if let Some(round) = self.cur.take() {
            self.done.push(round);
        }
        let plain: Vec<&Round> = self.done.iter().filter(|r| !r.traced && r.ops > 0).collect();
        let traced: Vec<&Round> = self.done.iter().filter(|r| r.traced && r.ops > 0).collect();

        let per_round = |rounds: &[&Round], f: &dyn Fn(&Round, &[f64]) -> f64| -> Vec<f64> {
            rounds
                .iter()
                .map(|r| {
                    let mut sorted = r.call_us.clone();
                    sort(&mut sorted);
                    f(r, &sorted)
                })
                .collect()
        };
        let throughput = per_round(&plain, &|r, _| r.ops as f64 / r.busy.as_secs_f64().max(1e-12));
        let p50 = per_round(&plain, &|_, s| percentile(s, 0.5));
        let p90 = per_round(&plain, &|_, s| percentile(s, 0.9));
        let p99 = per_round(&plain, &|_, s| percentile(s, 0.99));

        let mut end_to_end = BTreeMap::new();
        let mut put = |name, rounds: &[f64]| {
            end_to_end.insert(name, (median(rounds), crate::stats::spread(rounds)));
        };
        put("ops_per_s", &throughput);
        put("call_p50_us", &p50);
        put("setup_s", &self.setup_s);
        put("peak_rss_mb", &[peak_rss_mb()]);

        // Self times come from the spans alone: per op, each layer's
        // spans' self times summed; per layer, the median over ops.
        let spans = self.recorder.spans();
        debug_assert!(crate::trace::is_well_formed(spans));
        let mut op_self: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(crate::trace::self_times_ns(spans)) {
            if let Some((_, metric, per_ns)) = SELF_TIME_METRICS.iter().find(|m| m.0 == span.name) {
                *op_self.entry((metric, span.op)).or_default() += own as f64 * per_ns;
            }
        }
        for ((metric, _), value) in op_self {
            self.samples.entry(metric).or_default().push(value);
        }
        // How much of the traced rounds' median real call the median
        // self times add up to. Per op they sum to the call exactly;
        // medians need not, and a ratio far from 1 says the rungs are
        // not measuring the call they claim to decompose.
        let traced_calls: Vec<f64> =
            traced.iter().flat_map(|r| r.call_us.iter().copied()).collect();
        let rung_sum_us: f64 = SELF_TIME_METRICS
            .iter()
            .filter_map(|(_, metric, per_ns)| {
                Some(median(self.samples.get(metric)?) / per_ns * 1e-3)
            })
            .sum();

        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        if rung_sum_us != 0.0 && median(&traced_calls) > 0.0 {
            per_layer.insert("bench.rung_sum_over_call", rung_sum_us / median(&traced_calls));
        }
        for (name, samples) in &self.samples {
            per_layer.insert(name, median(samples));
        }
        per_layer.extend(self.values.iter().map(|(k, v)| (*k, *v)));
        let mid = median(&throughput);
        let noisy = throughput.iter().filter(|&&t| (t - mid).abs() > NOISY_ROUND * mid).count();
        per_layer.insert("client.noisy_rounds", noisy as f64);
        per_layer.insert("client.rounds", plain.len() as f64);
        per_layer.insert("client.call_p50_us", median(&p50));
        per_layer.insert("client.call_p90_us", median(&p90));
        per_layer.insert("client.call_p99_us", median(&p99));
        per_layer.insert("wrong_answers", self.wrong as f64);
        per_layer.insert("fail_share", self.failed as f64 / self.attempted.max(1) as f64);
        if !traced.is_empty() && median(&p50) > 0.0 {
            let traced_p50 = median(&per_round(&traced, &|_, s| percentile(s, 0.5)));
            per_layer.insert("bench.trace_overhead_share", traced_p50 / median(&p50) - 1.0);
        }

        Outcome {
            attempted: self.attempted,
            failed: self.failed + self.wrong,
            wrong: self.wrong,
            first_wrong: self.first_wrong,
            rounds: plain.len(),
            input_digest: self.digest.value(),
            end_to_end,
            per_layer,
            chrome_trace: (!spans.is_empty()).then(|| self.recorder.chrome_json(TRACE_FILE_SPANS)),
        }
    }
}

/// Spans written to the Chrome trace file (the first ops of the traced
/// phase; every span still feeds the ledger).
const TRACE_FILE_SPANS: usize = 4000;

/// `VmHWM` of this process in MiB; 0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool, quick: bool) -> Args {
        Args { workload: "test".into(), seed: 1, seconds: 0.05, trace, quick }
    }

    #[test]
    fn quick_runs_one_plain_round_and_one_traced_round_when_tracing() {
        let mut b = Bench::new(&args(false, true));
        let mut rounds = 0;
        while b.next_round() {
            assert!(!b.traced_round());
            b.call(Duration::from_micros(10), 1);
            rounds += 1;
        }
        assert_eq!(rounds, 1);

        let mut b = Bench::new(&args(true, true));
        let mut kinds = Vec::new();
        while b.next_round() {
            kinds.push(b.traced_round());
            b.call(Duration::from_micros(10), 1);
        }
        assert_eq!(kinds, [false, true]);
    }

    #[test]
    fn a_budgeted_run_reduces_rounds_to_medians() {
        let mut b = Bench::new(&args(false, false));
        assert_eq!(b.setup(|| 7), 7);
        let mut round = 0u64;
        while b.next_round() {
            round += 1;
            // Every round: a 100, a 200, a 300 and a 400 µs call of two
            // ops each; one extra slow call in the first round only.
            for k in 1..=4 {
                b.call(Duration::from_micros(100 * k), 2);
            }
            if round == 1 {
                b.call(Duration::from_millis(50), 2);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(round >= 3, "a 50 ms budget fits several 10 ms rounds");
        b.check(Ok(()));
        b.check(Err("bad".into()));
        b.fail(1, || "refused".into());
        let out = b.finish();
        assert_eq!(out.rounds as u64, round);
        assert_eq!(out.attempted, round * 8 + 2);
        assert_eq!((out.wrong, out.failed), (1, 2));
        assert_eq!(out.first_wrong.as_deref(), Some("bad"));
        // The slow first round does not move the median round.
        assert_eq!(out.end_to_end["call_p50_us"].0, 200.0);
        assert_eq!(out.per_layer["client.call_p90_us"], 400.0);
        assert!((out.end_to_end["ops_per_s"].0 - 8000.0).abs() < 1e-6);
        assert_eq!(out.end_to_end.len(), crate::spec::spec().end_to_end.len());
        assert_eq!(out.per_layer["client.noisy_rounds"], 1.0);
        assert!(out.chrome_trace.is_none());
    }
}
