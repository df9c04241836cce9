//! Hierarchical spans on an injectable clock.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s; each guard opens a span
//! at the clock's current time and closes it when dropped. Spans nest
//! per *track* (one track per shard / thread / logical lane): the open
//! spans of a track form a stack, and a guard that is dropped while
//! descendants are still open force-closes them at the same timestamp —
//! so any interleaving of guard drops yields a well-formed forest (every
//! span's interval is contained in its parent's, no crossings).
//!
//! Modeled sweeps that already know their timestamps (the cluster's
//! virtual-time admission loop) bypass guards and call
//! [`Tracer::record_span`] with explicit start/end times; the resulting
//! records are byte-deterministic per seed.

use std::sync::{Arc, Mutex};

use crate::clock::{Clock, WallClock};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `serve.compile`).
    pub name: String,
    /// Free-form labels (e.g. `shard`, `tenant`, `route`).
    pub labels: Vec<(String, String)>,
    /// Start time in clock seconds.
    pub start_s: f64,
    /// End time in clock seconds (`>= start_s`).
    pub end_s: f64,
    /// The track (shard / thread lane) the span ran on.
    pub track: u64,
    /// Nesting depth within the track at open time (roots are 0).
    pub depth: usize,
    /// Open-order id, unique within the tracer.
    pub id: u64,
    /// The id of the enclosing span, if any.
    pub parent: Option<u64>,
}

/// What [`Tracer::record_span`] hands back: the record's id and depth
/// travel with the caller, so parenting a child looks nothing up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    id: u64,
    depth: usize,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    labels: Vec<(String, String)>,
    start_s: f64,
    track: u64,
    id: u64,
    parent: Option<u64>,
}

#[derive(Debug, Default)]
struct TraceState {
    next_id: u64,
    /// Open-span stacks, keyed by track. Only [`Tracer::span_on`] adds
    /// an entry: one per track RAII guards ran on, however many
    /// per-query tracks explicit records use.
    open: Vec<(u64, Vec<OpenSpan>)>,
    done: Vec<SpanRecord>,
}

impl TraceState {
    /// The open spans of `track`, innermost last (a lookup, no insert).
    fn stack(&self, track: u64) -> &[OpenSpan] {
        self.open.iter().find(|(t, _)| *t == track).map_or(&[], |(_, stack)| stack)
    }

    fn stack_mut(&mut self, track: u64) -> &mut Vec<OpenSpan> {
        match self.open.iter().position(|(t, _)| *t == track) {
            Some(i) => &mut self.open[i].1,
            None => {
                self.open.push((track, Vec::new()));
                &mut self.open.last_mut().expect("just pushed").1
            }
        }
    }

    fn close_through(&mut self, track: u64, id: u64, end_s: f64) {
        // Everything above `id` on the stack is a still-open descendant:
        // force-close it at the same end time so intervals stay nested.
        loop {
            let stack = self.stack_mut(track);
            let Some(top) = stack.pop() else { return };
            let depth = stack.len();
            let done = top.id == id;
            self.done.push(SpanRecord {
                name: top.name,
                labels: top.labels,
                start_s: top.start_s,
                end_s: end_s.max(top.start_s),
                track: top.track,
                depth,
                id: top.id,
                parent: top.parent,
            });
            if done {
                return;
            }
        }
    }
}

/// The span collector. Clone-cheap (`Arc` inside); guards keep it
/// alive.
#[derive(Debug, Clone)]
pub struct Tracer {
    clock: Arc<dyn Clock>,
    state: Arc<Mutex<TraceState>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Arc::new(WallClock::new()))
    }
}

impl Tracer {
    /// A tracer reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Tracer { clock, state: Arc::new(Mutex::new(TraceState::default())) }
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The clock's current time in seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Opens a span on track 0. Closes when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_on(0, name, &[])
    }

    /// Opens a labeled span on the given track.
    pub fn span_on(&self, track: u64, name: &str, labels: &[(&str, &str)]) -> SpanGuard {
        let start_s = self.clock.now_s();
        let mut state = self.state.lock().expect("trace lock");
        let id = state.next_id;
        state.next_id += 1;
        let stack = state.stack_mut(track);
        let parent = stack.last().map(|s| s.id);
        stack.push(OpenSpan {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            start_s,
            track,
            id,
            parent,
        });
        SpanGuard { tracer: self.clone(), track, id, closed: false }
    }

    /// Records an already-timed span (modeled sweeps with explicit
    /// virtual timestamps). The span is attached under whatever span on
    /// `track` is open at call time; `end_s` is clamped to `>= start_s`.
    /// Returns the record's handle so callers can parent further spans
    /// via [`Tracer::record_span_under`].
    pub fn record_span(
        &self,
        track: u64,
        name: &str,
        labels: &[(&str, &str)],
        start_s: f64,
        end_s: f64,
    ) -> SpanHandle {
        self.record_span_inner(track, name, labels, start_s, end_s, None)
    }

    /// Records an already-timed span as a child of `parent` (a handle
    /// previously returned by [`Tracer::record_span`] or this method).
    pub fn record_span_under(
        &self,
        track: u64,
        name: &str,
        labels: &[(&str, &str)],
        start_s: f64,
        end_s: f64,
        parent: SpanHandle,
    ) -> SpanHandle {
        self.record_span_inner(track, name, labels, start_s, end_s, Some(parent))
    }

    fn record_span_inner(
        &self,
        track: u64,
        name: &str,
        labels: &[(&str, &str)],
        start_s: f64,
        end_s: f64,
        parent: Option<SpanHandle>,
    ) -> SpanHandle {
        let mut state = self.state.lock().expect("trace lock");
        let id = state.next_id;
        state.next_id += 1;
        let (parent, depth) = match parent {
            Some(p) => (Some(p.id), p.depth + 1),
            None => {
                let stack = state.stack(track);
                (stack.last().map(|s| s.id), stack.len())
            }
        };
        state.done.push(SpanRecord {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            start_s,
            end_s: end_s.max(start_s),
            track,
            depth,
            id,
            parent,
        });
        SpanHandle { id, depth }
    }

    /// Every closed span, sorted by `(track, start_s, id)` — the
    /// deterministic order the Chrome exporter emits.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let state = self.state.lock().expect("trace lock");
        let mut out = state.done.clone();
        out.sort_by(|a, b| {
            (a.track, a.start_s, a.id)
                .partial_cmp(&(b.track, b.start_s, b.id))
                .expect("span times are finite")
        });
        out
    }
}

/// RAII handle for an open span; dropping it closes the span at the
/// clock's then-current time.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    track: u64,
    id: u64,
    closed: bool,
}

impl SpanGuard {
    /// Closes the span now (idempotent; `drop` does the same).
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let end_s = self.tracer.clock.now_s();
        let mut state = self.tracer.state.lock().expect("trace lock");
        // The span may already be closed if an ancestor guard dropped
        // first (force-close); that is fine.
        let still_open = state.stack(self.track).iter().any(|s| s.id == self.id);
        if still_open {
            state.close_through(self.track, self.id, end_s);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// `true` iff `spans` form a well-formed forest: per track, spans
/// nest without crossing (any two intervals are disjoint or contained),
/// every child's interval lies within its parent's, and every parent id
/// exists on the same track.
pub fn is_well_formed_forest(spans: &[SpanRecord]) -> bool {
    let tracks: Vec<u64> = {
        let mut t: Vec<u64> = spans.iter().map(|s| s.track).collect();
        t.sort();
        t.dedup();
        t
    };
    for track in tracks {
        let on_track: Vec<&SpanRecord> = spans.iter().filter(|s| s.track == track).collect();
        for s in &on_track {
            if s.end_s < s.start_s {
                return false;
            }
            if let Some(pid) = s.parent {
                let Some(p) = on_track.iter().find(|c| c.id == pid) else {
                    return false; // orphan: parent missing from track
                };
                if s.start_s < p.start_s || s.end_s > p.end_s {
                    return false; // child escapes its parent
                }
            }
        }
        // No partial overlaps between any two spans on the track.
        for (i, a) in on_track.iter().enumerate() {
            for b in on_track.iter().skip(i + 1) {
                let disjoint = a.end_s <= b.start_s || b.end_s <= a.start_s;
                let a_in_b = b.start_s <= a.start_s && a.end_s <= b.end_s;
                let b_in_a = a.start_s <= b.start_s && b.end_s <= a.end_s;
                if !(disjoint || a_in_b || b_in_a) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn virtual_tracer() -> (Arc<VirtualClock>, Tracer) {
        let clock = VirtualClock::shared();
        let tracer = Tracer::new(clock.clone());
        (clock, tracer)
    }

    #[test]
    fn nested_guards_record_a_forest() {
        let (clock, tracer) = virtual_tracer();
        let root = tracer.span_on(3, "root", &[("shard", "3")]);
        clock.set(1.0);
        let child = tracer.span_on(3, "child", &[]);
        clock.set(2.0);
        child.end();
        clock.set(3.0);
        root.end();
        let spans = tracer.finished();
        assert_eq!(spans.len(), 2);
        assert!(is_well_formed_forest(&spans));
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((root.start_s, root.end_s, root.depth), (0.0, 3.0, 0));
        assert_eq!((child.start_s, child.end_s, child.depth), (1.0, 2.0, 1));
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn dropping_a_parent_force_closes_descendants() {
        let (clock, tracer) = virtual_tracer();
        let root = tracer.span("root");
        clock.set(1.0);
        let child = tracer.span("child");
        clock.set(2.0);
        drop(root); // child still open: force-closed at t = 2
        clock.set(5.0);
        drop(child); // already closed: no-op
        let spans = tracer.finished();
        assert!(is_well_formed_forest(&spans));
        let child_rec = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child_rec.end_s, 2.0, "force-closed with its parent, not at t = 5");
    }

    #[test]
    fn explicit_records_nest_under_parents() {
        let (_, tracer) = virtual_tracer();
        let q = tracer.record_span(1, "query", &[("tenant", "kb0")], 10.0, 12.0);
        tracer.record_span_under(1, "compile", &[], 10.0, 11.0, q);
        tracer.record_span_under(1, "eval", &[], 11.0, 12.0, q);
        let spans = tracer.finished();
        assert!(is_well_formed_forest(&spans));
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[1].depth, 1);
    }

    #[test]
    fn explicit_records_pin_depth_and_parent() {
        let (_, tracer) = virtual_tracer();
        let root = tracer.record_span(7, "root", &[], 0.0, 4.0);
        let child = tracer.record_span_under(7, "child", &[], 1.0, 3.0, root);
        let grandchild = tracer.record_span_under(7, "grandchild", &[], 1.0, 2.0, child);
        // An explicit root nests under an RAII span open on its own
        // track, and under nothing when the guard is on another track.
        let guard = tracer.span_on(8, "open", &[]);
        let under_guard = tracer.record_span(8, "under", &[], 0.0, 0.0);
        let elsewhere = tracer.record_span(9, "elsewhere", &[], 0.0, 0.0);
        guard.end();

        let spans = tracer.finished();
        assert!(is_well_formed_forest(&spans));
        let open_id = spans.iter().find(|s| s.name == "open").unwrap().id;
        let shape = |h: SpanHandle| {
            let s = spans.iter().find(|s| s.id == h.id).unwrap();
            (s.depth, h.depth, s.parent)
        };
        assert_eq!(shape(root), (0, 0, None));
        assert_eq!(shape(child), (1, 1, Some(root.id)));
        assert_eq!(shape(grandchild), (2, 2, Some(child.id)));
        assert_eq!(shape(under_guard), (1, 1, Some(open_id)));
        assert_eq!(shape(elsewhere), (0, 0, None));
    }

    #[test]
    fn explicit_chains_leave_no_open_stack_behind() {
        // The cluster records one six-span chain per query, each on a
        // track of its own. Counts, not clocks: no explicit record may
        // grow the open-stack table, or every later lookup scans it.
        let (_, tracer) = virtual_tracer();
        for track in 1..=10_000u64 {
            let t = track as f64;
            let root = tracer.record_span(track, "cluster.query", &[], t, t + 1.0);
            for name in ["admit", "route", "queue.wait", "store.probe", "serve.eval"] {
                tracer.record_span_under(track, name, &[], t, t + 1.0, root);
            }
        }
        let state = tracer.state.lock().unwrap();
        assert_eq!(state.done.len(), 60_000);
        assert!(state.open.is_empty(), "{} stacks left behind", state.open.len());
    }

    #[test]
    fn tracks_are_independent() {
        let (clock, tracer) = virtual_tracer();
        let a = tracer.span_on(0, "a", &[]);
        clock.set(1.0);
        let b = tracer.span_on(1, "b", &[]);
        clock.set(2.0);
        a.end(); // does not force-close b: different track
        clock.set(3.0);
        b.end();
        let spans = tracer.finished();
        assert!(is_well_formed_forest(&spans));
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.end_s, 3.0);
        assert_eq!(b.depth, 0);
    }
}
