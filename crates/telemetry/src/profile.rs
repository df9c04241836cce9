//! Deterministic flame-graph profiles folded from recorded span
//! forests.
//!
//! A [`Profile`] aggregates a [`SpanRecord`] forest (any output of
//! [`Tracer::finished`](crate::Tracer::finished)) into collapsed
//! stacks: each span contributes its *self time* — its own interval
//! minus its children's — to the stack of names from its root down to
//! itself. The result folds identical stacks across queries, tracks,
//! and cells, so a ten-thousand-query sweep collapses to a handful of
//! weighted lines.
//!
//! * [`Profile::collapsed`] renders the standard collapsed-stack text
//!   format (`frame;frame;leaf <weight>` per line) that `inferno`,
//!   speedscope, and `flamegraph.pl` all ingest. Weights are integer
//!   nanoseconds, stacks are emitted in lexicographic order, so equal
//!   span forests produce byte-identical text.
//! * [`Profile::hotspots`] ranks frames by self time with total
//!   (inclusive) time alongside — the top-k table a human reads first.
//! * [`Profile::diff`] subtracts a baseline profile stack-by-stack —
//!   the differential view that turns "the crash plan is slower" into
//!   "the regression is all under `serve.compile`".
//! * [`exemplars`] keeps the worst-latency root spans of a sweep with
//!   their full descendant chains — the tail queries worth reading in
//!   a trace viewer, found without eyeballing Perfetto.

use std::collections::BTreeMap;

use crate::trace::SpanRecord;

/// Rounds a span duration to integer nanoseconds — the collapsed-stack
/// weight unit. Microsecond-scale modeled latencies keep 3–4
/// significant digits; rounding is deterministic.
fn duration_ns(seconds: f64) -> u64 {
    if seconds <= 0.0 || !seconds.is_finite() {
        return 0;
    }
    (seconds * 1e9).round() as u64
}

/// Frame names are joined with `;` in collapsed output, so the
/// separator (and whitespace, which delimits the weight) must not
/// appear inside a frame.
fn sanitize_frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c if c.is_control() => '_',
            c => c,
        })
        .collect()
}

/// Self- and total-time weights of one collapsed stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackWeight {
    /// Nanoseconds attributed to exactly this stack (span time minus
    /// child time).
    pub self_ns: u64,
    /// Spans that folded into this stack.
    pub count: u64,
}

/// One row of the [`Profile::hotspots`] table: a frame name with its
/// aggregate attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// The frame (span) name.
    pub name: String,
    /// Nanoseconds spent in this frame itself, excluding children.
    pub self_ns: u64,
    /// Nanoseconds spent in this frame including children. Recursive
    /// occurrences are counted once (only spans with no same-named
    /// ancestor contribute), so `total_ns` never exceeds the profile's
    /// running time.
    pub total_ns: u64,
    /// Spans bearing this name.
    pub count: u64,
}

/// One row of a differential profile: a stack with its weight in the
/// baseline and candidate profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDelta {
    /// The collapsed stack, root first.
    pub stack: Vec<String>,
    /// Self nanoseconds in the baseline profile.
    pub baseline_ns: u64,
    /// Self nanoseconds in the candidate profile.
    pub candidate_ns: u64,
}

impl StackDelta {
    /// `candidate - baseline`, signed.
    pub fn delta_ns(&self) -> i64 {
        self.candidate_ns as i64 - self.baseline_ns as i64
    }
}

/// A folded flame-graph profile: collapsed stacks with deterministic
/// integer-nanosecond weights.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Self-time weights keyed by collapsed stack (root-first frame
    /// names). `BTreeMap` keeps every traversal in lexicographic stack
    /// order — the byte-determinism anchor of every export.
    stacks: BTreeMap<Vec<String>, StackWeight>,
}

impl Profile {
    /// Folds a span forest into a profile. Spans may come from any mix
    /// of tracks; stacks follow `parent` links, not track nesting, so
    /// explicitly recorded chains
    /// ([`Tracer::record_span_under`](crate::Tracer::record_span_under))
    /// fold exactly like guard-recorded ones.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        // Child time per parent id, for self-time attribution.
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += duration_ns(s.end_s - s.start_s);
            }
        }
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut stacks: BTreeMap<Vec<String>, StackWeight> = BTreeMap::new();
        for s in spans {
            let own = duration_ns(s.end_s - s.start_s);
            let self_ns = own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let mut stack = vec![sanitize_frame(&s.name)];
            let mut cursor = s.parent;
            while let Some(pid) = cursor {
                let Some(p) = by_id.get(&pid) else { break };
                stack.push(sanitize_frame(&p.name));
                cursor = p.parent;
            }
            stack.reverse();
            let w = stacks.entry(stack).or_default();
            w.self_ns += self_ns;
            w.count += 1;
        }
        Profile { stacks }
    }

    /// The folded stacks in lexicographic order.
    #[cfg(test)]
    fn stacks(&self) -> impl Iterator<Item = (&[String], StackWeight)> {
        self.stacks.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// Total self nanoseconds across every stack — the profile's
    /// running time (equal to the summed root-span durations, up to
    /// per-span rounding).
    pub fn total_ns(&self) -> u64 {
        self.stacks.values().map(|w| w.self_ns).sum()
    }

    /// The collapsed-stack text export: one
    /// `frame;frame;leaf <self_ns>` line per stack, lexicographic
    /// stack order, `\n`-terminated. Loadable by speedscope, inferno,
    /// and `flamegraph.pl`; byte-identical for equal span forests.
    /// Zero-weight stacks are kept (a marker span is still a frame).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, w) in &self.stacks {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&w.self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The top-`k` frames by self time (ties broken by name), with
    /// inclusive totals alongside. Recursion-safe: a span only adds to
    /// its name's `total_ns` when no ancestor frame shares the name.
    pub fn hotspots(&self, k: usize) -> Vec<Hotspot> {
        let mut by_name: BTreeMap<&str, Hotspot> = BTreeMap::new();
        for (stack, w) in &self.stacks {
            let leaf = stack.last().expect("stacks are non-empty").as_str();
            let entry = by_name.entry(leaf).or_insert_with(|| Hotspot {
                name: leaf.to_string(),
                self_ns: 0,
                total_ns: 0,
                count: 0,
            });
            entry.self_ns += w.self_ns;
            entry.count += w.count;
            // The stack's self time is inside every frame on it; charge
            // it to each name's total once, at the frame's first
            // (outermost) occurrence.
            let mut seen: Vec<&str> = Vec::with_capacity(stack.len());
            for frame in stack {
                if !seen.contains(&frame.as_str()) {
                    seen.push(frame);
                    by_name
                        .entry(frame)
                        .or_insert_with(|| Hotspot {
                            name: frame.clone(),
                            self_ns: 0,
                            total_ns: 0,
                            count: 0,
                        })
                        .total_ns += w.self_ns;
                }
            }
        }
        let mut rows: Vec<Hotspot> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        rows.truncate(k);
        rows
    }

    /// The differential profile `self - baseline`, one [`StackDelta`]
    /// per stack present in either side, sorted by decreasing absolute
    /// delta (ties lexicographic). Stacks whose weights are equal on
    /// both sides are omitted.
    pub fn diff(&self, baseline: &Profile) -> Vec<StackDelta> {
        let mut keys: Vec<&Vec<String>> = self.stacks.keys().collect();
        for k in baseline.stacks.keys() {
            if !self.stacks.contains_key(k) {
                keys.push(k);
            }
        }
        keys.sort();
        let mut rows: Vec<StackDelta> = keys
            .into_iter()
            .filter_map(|k| {
                let b = baseline.stacks.get(k).map_or(0, |w| w.self_ns);
                let c = self.stacks.get(k).map_or(0, |w| w.self_ns);
                (b != c).then(|| StackDelta { stack: k.clone(), baseline_ns: b, candidate_ns: c })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.delta_ns().abs().cmp(&a.delta_ns().abs()).then_with(|| a.stack.cmp(&b.stack))
        });
        rows
    }
}

/// One tail-latency exemplar: a worst-duration root span with its full
/// descendant chain, in `(start_s, id)` order — the admit → route →
/// compile → eval story of one slow query, ready for a trace viewer or
/// a collapsed-stack fold of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The root span (e.g. `cluster.query`).
    pub root: SpanRecord,
    /// The root plus every transitive child, sorted by `(start_s, id)`.
    pub chain: Vec<SpanRecord>,
}

impl Exemplar {
    /// The root span's duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.root.end_s - self.root.start_s
    }
}

/// The `k` worst-duration spans named `root_name`, each with its full
/// descendant chain. Ties break toward the earlier span id, so the
/// selection is deterministic. Spans under a differently-named root
/// (e.g. a `serve.compile` nested in `cluster.query`) are only
/// eligible via their named ancestor.
pub fn exemplars(spans: &[SpanRecord], root_name: &str, k: usize) -> Vec<Exemplar> {
    let mut roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == root_name).collect();
    roots.sort_by(|a, b| {
        (b.end_s - b.start_s)
            .partial_cmp(&(a.end_s - a.start_s))
            .expect("span times are finite")
            .then_with(|| a.id.cmp(&b.id))
    });
    roots.truncate(k);
    roots
        .into_iter()
        .map(|root| {
            let mut members = vec![root.id];
            let mut chain = vec![root.clone()];
            // Spans are a forest: repeatedly sweep for children of the
            // collected set. Chains are short (one query's spans), so
            // the quadratic sweep is irrelevant.
            let mut grew = true;
            while grew {
                grew = false;
                for s in spans {
                    if s.parent.is_some_and(|p| members.contains(&p)) && !members.contains(&s.id) {
                        members.push(s.id);
                        chain.push(s.clone());
                        grew = true;
                    }
                }
            }
            chain.sort_by(|a, b| {
                (a.start_s, a.id).partial_cmp(&(b.start_s, b.id)).expect("span times are finite")
            });
            Exemplar { root: root.clone(), chain }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::Tracer;

    /// One modeled query chain: root t0..t3 with compile t0..t1 and
    /// eval t1..t3 children.
    fn record_query(tracer: &Tracer, track: u64, t0: f64, t1: f64, t3: f64) {
        let root = tracer.record_span(track, "cluster.query", &[], t0, t3);
        tracer.record_span_under(track, "serve.compile", &[], t0, t1, root);
        tracer.record_span_under(track, "serve.eval", &[], t1, t3, root);
    }

    fn tracer() -> Tracer {
        Tracer::new(VirtualClock::shared())
    }

    #[test]
    fn self_time_excludes_children() {
        let t = tracer();
        // Root 0..10 µs, children cover 0..2 and 2..9: 1 µs self.
        record_query(&t, 1, 0.0, 2e-6, 9e-6);
        let spans = t.finished();
        // Stretch the root beyond its children.
        let mut spans = spans;
        spans[0].end_s = 10e-6;
        let p = Profile::from_spans(&spans);
        let stacks: Vec<_> = p.stacks().collect();
        assert_eq!(stacks.len(), 3);
        let root_self =
            stacks.iter().find(|(s, _)| *s == ["cluster.query".to_string()]).expect("root stack").1;
        assert_eq!(root_self.self_ns, 1_000, "10µs root minus 9µs of children");
        assert_eq!(p.total_ns(), 10_000, "self times sum back to the root duration");
    }

    #[test]
    fn collapsed_output_is_sorted_deterministic_and_parseable() {
        let t = tracer();
        record_query(&t, 1, 0.0, 2e-6, 9e-6);
        record_query(&t, 2, 1e-6, 1e-6, 4e-6); // warm: zero-length compile
        let p = Profile::from_spans(&t.finished());
        let text = p.collapsed();
        let again = Profile::from_spans(&t.finished()).collapsed();
        assert_eq!(text, again, "equal forests fold to identical bytes");
        let mut lines: Vec<&str> = text.lines().collect();
        let sorted = {
            let mut l = lines.clone();
            l.sort();
            l
        };
        assert_eq!(lines, sorted, "stacks are emitted in lexicographic order");
        // Every line is `frames <integer>` with `;`-separated frames.
        for line in &mut lines {
            let (stack, weight) = line.rsplit_once(' ').expect("line has a weight");
            assert!(weight.parse::<u64>().is_ok(), "weight {weight:?}");
            assert!(!stack.is_empty());
            assert!(stack.split(';').all(|f| !f.is_empty()));
        }
        // The two query chains folded onto shared stacks.
        assert!(text.contains("cluster.query;serve.eval "));
        assert!(text.contains("cluster.query;serve.compile "));
    }

    #[test]
    fn frames_with_separator_bytes_are_sanitized() {
        let t = tracer();
        t.record_span(0, "weird; name\twith space", &[], 0.0, 1e-6);
        let text = Profile::from_spans(&t.finished()).collapsed();
        let line = text.lines().next().expect("one stack");
        let (stack, _) = line.rsplit_once(' ').expect("weight");
        assert_eq!(stack, "weird:_name_with_space");
    }

    #[test]
    fn hotspots_rank_by_self_time_with_inclusive_totals() {
        let t = tracer();
        record_query(&t, 1, 0.0, 2e-6, 9e-6); // compile 2µs, eval 7µs
        record_query(&t, 2, 0.0, 1e-6, 3e-6); // compile 1µs, eval 2µs
        let p = Profile::from_spans(&t.finished());
        let top = p.hotspots(10);
        assert_eq!(top[0].name, "serve.eval");
        assert_eq!(top[0].self_ns, 9_000);
        assert_eq!(top[0].count, 2);
        let root = top.iter().find(|h| h.name == "cluster.query").expect("root frame");
        assert_eq!(root.self_ns, 0, "fully covered by children");
        assert_eq!(root.total_ns, 12_000, "inclusive total spans both queries");
        assert_eq!(p.hotspots(1).len(), 1, "k truncates");
    }

    #[test]
    fn recursive_frames_count_total_once() {
        let t = tracer();
        let outer = t.record_span(0, "f", &[], 0.0, 10e-6);
        let inner = t.record_span_under(0, "f", &[], 0.0, 6e-6, outer);
        t.record_span_under(0, "g", &[], 0.0, 1e-6, inner);
        let p = Profile::from_spans(&t.finished());
        let f = p.hotspots(10).into_iter().find(|h| h.name == "f").expect("frame f");
        assert_eq!(f.total_ns, 10_000, "recursion must not double-count totals");
        assert_eq!(f.self_ns, 9_000, "outer 4µs + inner 5µs");
    }

    #[test]
    fn diff_isolates_the_changed_stack() {
        let base = {
            let t = tracer();
            record_query(&t, 1, 0.0, 2e-6, 9e-6);
            Profile::from_spans(&t.finished())
        };
        let cand = {
            let t = tracer();
            record_query(&t, 1, 0.0, 5e-6, 12e-6); // compile grew 2→5µs
            Profile::from_spans(&t.finished())
        };
        let rows = cand.diff(&base);
        assert_eq!(rows.len(), 1, "only the compile stack changed: {rows:?}");
        assert_eq!(rows[0].stack, vec!["cluster.query", "serve.compile"]);
        assert_eq!(rows[0].delta_ns(), 3_000);
        assert!(cand.diff(&cand).is_empty(), "self-diff is empty");
        // Symmetric: the reverse diff negates.
        assert_eq!(base.diff(&cand)[0].delta_ns(), -3_000);
    }

    #[test]
    fn exemplars_pick_the_worst_roots_with_full_chains() {
        let t = tracer();
        record_query(&t, 1, 0.0, 2e-6, 9e-6); // 9 µs
        record_query(&t, 2, 0.0, 1e-6, 30e-6); // 30 µs — the tail
        record_query(&t, 3, 0.0, 1e-6, 4e-6); // 4 µs
        let spans = t.finished();
        let worst = exemplars(&spans, "cluster.query", 2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].root.track, 2);
        assert!((worst[0].duration_s() - 30e-6).abs() < 1e-12);
        assert_eq!(worst[1].root.track, 1);
        // The chain carries the whole story, in time order.
        let names: Vec<&str> = worst[0].chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["cluster.query", "serve.compile", "serve.eval"]);
        assert!(exemplars(&spans, "no.such.span", 3).is_empty());
    }
}
