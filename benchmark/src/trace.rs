//! The benchmark's own span recorder — never the program's telemetry.
//!
//! A traced op runs through the workload's real entry point and is then
//! replayed on twin objects one rung lower at a time. Each run is one
//! span; a lower rung's span names the rung above it as its parent and
//! shares its op id, so the spans of one op form a chain (or, where an
//! op is several calls in sequence, a root with one child per call).
//! A layer's self time is its span minus what its children cover.
//!
//! Spans stay in memory and are written once, as Chrome `trace_event`
//! JSON, when the run ends.

use std::time::{Duration, Instant};

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store on one monotonic clock.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    /// Records an interval measured by the caller (`start` from this
    /// process's monotonic clock) and returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Sets the extent of a span opened before its children ran.
    pub fn set_duration(&mut self, index: usize, dur: Duration) {
        let span = &mut self.spans[index];
        span.end_ns = span.start_ns + dur.as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON of the first `limit` spans: one
    /// complete (`"X"`) event each, the rung depth as the thread id so
    /// the chain of one op reads top-down, and the op id and parent
    /// index in `args`.
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                span.name, // the benchmark's own identifiers: nothing to escape
                depth(&self.spans, i),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.op,
                i,
                parent
            ));
        }
        out.push_str("]}");
        out
    }
}

fn depth(spans: &[Span], mut i: usize) -> usize {
    let mut d = 0;
    while let Some(p) = spans[i].parent {
        d += 1;
        i = p;
    }
    d
}

/// `true` when every parent precedes its child and shares its op id —
/// which also rules out cycles.
pub fn is_well_formed(spans: &[Span]) -> bool {
    spans.iter().enumerate().all(|(i, span)| match span.parent {
        None => true,
        Some(p) => p < i && spans[p].op == span.op,
    })
}

/// Self time per span, in signed nanoseconds: the span's duration minus
/// the durations of its direct children. A replayed child can outlast
/// its parent by noise, so a self time can be negative; over one tree
/// the self times always sum to the root's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.dur_ns() as i64;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op }
    }

    #[test]
    fn self_times_of_a_rung_chain_sum_to_the_root() {
        // Replayed rungs run after their parent, not inside it.
        let spans = vec![
            span("cluster", 0, 230, None, 1),
            span("engine", 300, 500, Some(0), 1),
            span("executor", 600, 770, Some(1), 1),
            span("eval", 800, 805, Some(2), 1),
        ];
        assert!(is_well_formed(&spans));
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![30, 30, 165, 5]);
        assert_eq!(own.iter().sum::<i64>(), 230);
    }

    #[test]
    fn self_times_of_a_root_with_siblings_sum_to_the_root() {
        let spans = vec![
            span("task", 0, 100, None, 7),
            span("pipeline", 5, 25, Some(0), 7),
            span("lower", 25, 85, Some(0), 7),
            span("execute", 85, 95, Some(0), 7),
            span("task", 200, 260, None, 8),
            span("pipeline", 210, 280, Some(4), 8), // child outlasts its parent
        ];
        assert!(is_well_formed(&spans));
        let own = self_times_ns(&spans);
        assert_eq!(own[..4].iter().sum::<i64>(), 100);
        assert_eq!(own[0], 10);
        assert_eq!(own[4], -10);
        assert_eq!(own[4] + own[5], 60);
    }

    #[test]
    fn malformed_forests_are_rejected() {
        let forward = vec![span("a", 0, 1, Some(1), 1), span("b", 0, 1, None, 1)];
        assert!(!is_well_formed(&forward));
        let cross_op = vec![span("a", 0, 1, None, 1), span("b", 0, 1, Some(0), 2)];
        assert!(!is_well_formed(&cross_op));
        let own_parent = vec![span("a", 0, 1, Some(0), 1)];
        assert!(!is_well_formed(&own_parent));
    }

    #[test]
    fn recorder_output_is_a_well_formed_forest_and_valid_json() {
        let mut rec = Recorder::default();
        let t = Instant::now();
        let root = rec.record("real", None, 3, t, Duration::from_micros(9));
        rec.record("twin", Some(root), 3, t + Duration::from_micros(10), Duration::from_micros(4));
        assert!(is_well_formed(rec.spans()));
        let json = rec.chrome_json(10);
        let parsed = crate::layers::json::parse(&json).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid").and_then(|t| t.as_f64()), Some(1.0));
        assert_eq!(rec.chrome_json(1).matches("\"ph\"").count(), 1);
    }
}
