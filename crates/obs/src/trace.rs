//! Span-based tracing with explicit start/end, parent links, and dual
//! clocks: every span records its position in **virtual scheduler-tick
//! time** (caller-supplied, deterministic) and in **wall time** (measured
//! internally with `Instant`, excluded from stable exports).
//!
//! Spans are exported as JSON-lines (one span per line) or as a
//! chrome://tracing `trace_event` array laid out on the virtual clock.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle to an in-flight or finished span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The numeric span id as recorded in [`SpanRecord::id`].
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One recorded span. `end_tick`/`wall` are `None` while in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span id, 1-based in start order.
    pub id: u64,
    /// Id of the enclosing span, `None` for roots.
    pub parent: Option<u64>,
    /// Span name, e.g. a pipeline stage.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Start order: deterministic tiebreaker for spans sharing a tick.
    pub seq: u64,
    /// Virtual scheduler tick the span started at.
    pub start_tick: u64,
    /// Virtual tick the span ended at, `None` while in flight.
    pub end_tick: Option<u64>,
    /// Wall-clock duration, set at `end`. Never part of stable exports.
    pub wall: Option<Duration>,
    /// Volatile spans carry wall-timing detail only (per-item operator
    /// spans recorded by [`Tracer::child_complete`]): they appear in full
    /// exports but are dropped — and the remaining ids renumbered — in
    /// stable exports, so execution strategies that differ only in how
    /// they split a stage stay byte-identical on the stable surface.
    pub volatile: bool,
}

struct ActiveSpan {
    record: SpanRecord,
    started: Instant,
}

#[derive(Default)]
struct TracerInner {
    /// Finished and in-flight spans, indexed by `id - 1`.
    spans: Vec<ActiveSpan>,
}

/// Collects spans for one run. Share via [`crate::Obs`].
///
/// # Example
///
/// ```
/// use seagull_obs::Tracer;
///
/// let tracer = Tracer::new();
/// let root = tracer.start("run-week", &[("region", "west")], 0);
/// let stage = tracer.child(root, "ingestion", &[], 2);
/// tracer.end(stage, 5);
/// tracer.end(root, 9);
///
/// let spans = tracer.spans();
/// assert_eq!(spans[1].parent, Some(spans[0].id));
/// assert_eq!((spans[1].start_tick, spans[1].end_tick), (2, Some(5)));
/// ```
#[derive(Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Start a root span at the given virtual tick.
    pub fn start(&self, name: &str, labels: &[(&str, &str)], start_tick: u64) -> SpanId {
        self.start_impl(name, labels, None, start_tick)
    }

    /// Start a span nested under `parent`.
    pub fn child(
        &self,
        parent: SpanId,
        name: &str,
        labels: &[(&str, &str)],
        start_tick: u64,
    ) -> SpanId {
        self.start_impl(name, labels, Some(parent.0), start_tick)
    }

    fn start_impl(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        parent: Option<u64>,
        start_tick: u64,
    ) -> SpanId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut inner = self.inner.lock().unwrap();
        let id = inner.spans.len() as u64 + 1;
        let seq = id - 1;
        inner.spans.push(ActiveSpan {
            record: SpanRecord {
                id,
                parent,
                name: name.to_string(),
                labels,
                seq,
                start_tick,
                end_tick: None,
                wall: None,
                volatile: false,
            },
            started: Instant::now(),
        });
        SpanId(id)
    }

    /// Record an already-completed span under `parent` with an explicit,
    /// externally measured wall duration.
    ///
    /// Parallel operators cannot call [`Tracer::child`]/[`Tracer::end`]
    /// directly without making span ids depend on thread interleaving, so
    /// the fused dataflow pipeline measures each per-server operator's wall
    /// time off-thread and commits the span *retroactively* at the serial
    /// absorb barrier, in server input order — span ids, seq, and structure
    /// stay deterministic across thread counts.
    ///
    /// The recorded span is [volatile](SpanRecord::volatile): per-item
    /// operator spans are wall-timing detail, visible in full exports and
    /// chrome traces but excluded from the stable export, whose span dump
    /// must not depend on how a stage was decomposed.
    pub fn child_complete(
        &self,
        parent: SpanId,
        name: &str,
        labels: &[(&str, &str)],
        start_tick: u64,
        end_tick: u64,
        wall: Duration,
    ) -> SpanId {
        let id = self.start_impl(name, labels, Some(parent.0), start_tick);
        let mut inner = self.inner.lock().unwrap();
        if let Some(active) = inner.spans.get_mut(id.0 as usize - 1) {
            active.record.end_tick = Some(end_tick.max(start_tick));
            active.record.wall = Some(wall);
            active.record.volatile = true;
        }
        id
    }

    /// Finish a span at the given virtual tick with an explicit, externally
    /// measured wall duration instead of this tracer's own clock. Used for
    /// stages whose cost is the sum of per-item operator walls measured
    /// inside a parallel region (e.g. the fused pipeline's featurize
    /// sub-stage). First end wins, like [`Tracer::end`].
    pub fn end_with_wall(&self, span: SpanId, end_tick: u64, wall: Duration) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(active) = inner.spans.get_mut(span.0 as usize - 1) {
            if active.record.end_tick.is_none() {
                active.record.end_tick = Some(end_tick.max(active.record.start_tick));
                active.record.wall = Some(wall);
            }
        }
    }

    /// Finish a span at the given virtual tick, capturing wall duration.
    /// Finishing twice is a no-op (first end wins).
    pub fn end(&self, span: SpanId, end_tick: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(active) = inner.spans.get_mut(span.0 as usize - 1) {
            if active.record.end_tick.is_none() {
                active.record.end_tick = Some(end_tick.max(active.record.start_tick));
                active.record.wall = Some(active.started.elapsed());
            }
        }
    }

    /// Wall-clock duration of a finished span.
    pub fn wall_duration(&self, span: SpanId) -> Option<Duration> {
        let inner = self.inner.lock().unwrap();
        inner
            .spans
            .get(span.0 as usize - 1)
            .and_then(|a| a.record.wall)
    }

    /// Snapshot of all spans in start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().unwrap();
        inner.spans.iter().map(|a| a.record.clone()).collect()
    }

    /// Append every span of `other`, remapping ids (and parent links) past
    /// this tracer's current range and reassigning `seq` to the new start
    /// order. Wall durations and ticks are preserved.
    ///
    /// The tracing half of determinism-by-merge: concurrent region runs
    /// trace into private scratch tracers, absorbed in region input order so
    /// span ids/seq in the merged export do not depend on interleaving.
    pub fn absorb(&self, other: &Tracer) {
        let mut inner = self.inner.lock().unwrap();
        let theirs = other.inner.lock().unwrap();
        let base = inner.spans.len() as u64;
        for active in &theirs.spans {
            let mut record = active.record.clone();
            record.id += base;
            record.parent = record.parent.map(|p| p + base);
            record.seq = record.id - 1;
            inner.spans.push(ActiveSpan {
                record,
                started: active.started,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_complete_records_finished_span_with_given_wall() {
        let t = Tracer::new();
        let root = t.start("run-week", &[], 0);
        let wall = Duration::from_millis(42);
        let op = t.child_complete(root, "fused-op", &[("server", "7")], 3, 3, wall);
        t.end(root, 9);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].name, "fused-op");
        assert_eq!(spans[1].end_tick, Some(3));
        assert_eq!(spans[1].wall, Some(wall));
        assert!(spans[1].volatile, "retroactive op spans are volatile");
        assert!(!spans[0].volatile);
        assert_eq!(t.wall_duration(op), Some(wall));
    }

    #[test]
    fn end_with_wall_overrides_the_tracer_clock() {
        let t = Tracer::new();
        let s = t.start("features", &[], 2);
        let wall = Duration::from_millis(7);
        t.end_with_wall(s, 2, wall);
        t.end_with_wall(s, 9, Duration::from_millis(99));
        let spans = t.spans();
        assert_eq!(spans[0].end_tick, Some(2), "first end wins");
        assert_eq!(spans[0].wall, Some(wall));
        assert!(!spans[0].volatile);
    }

    #[test]
    fn parent_links_and_ticks() {
        let t = Tracer::new();
        let root = t.start("run-week", &[("region", "west")], 0);
        let child = t.child(root, "ingestion", &[("region", "west")], 0);
        t.end(child, 3);
        t.end(root, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "run-week");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!((spans[1].start_tick, spans[1].end_tick), (0, Some(3)));
        assert_eq!((spans[0].start_tick, spans[0].end_tick), (0, Some(7)));
        assert!(spans.iter().all(|s| s.wall.is_some()));
    }

    #[test]
    fn double_end_keeps_first() {
        let t = Tracer::new();
        let s = t.start("stage", &[], 1);
        t.end(s, 2);
        t.end(s, 9);
        assert_eq!(t.spans()[0].end_tick, Some(2));
    }

    #[test]
    fn end_tick_never_precedes_start() {
        let t = Tracer::new();
        let s = t.start("stage", &[], 5);
        t.end(s, 3);
        assert_eq!(t.spans()[0].end_tick, Some(5));
    }

    #[test]
    fn absorb_remaps_ids_parents_and_seq() {
        let shared = Tracer::new();
        let existing = shared.start("main", &[], 0);
        shared.end(existing, 1);

        let scratch = Tracer::new();
        let root = scratch.start("run-week", &[("region", "b")], 0);
        let child = scratch.child(root, "ingestion", &[], 1);
        scratch.end(child, 2);
        scratch.end(root, 5);

        shared.absorb(&scratch);
        let spans = shared.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].id, 2);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].id, 3);
        assert_eq!(spans[2].parent, Some(2));
        assert!(spans.iter().enumerate().all(|(i, s)| s.seq == i as u64));
        assert_eq!((spans[2].start_tick, spans[2].end_tick), (1, Some(2)));
        assert!(spans[2].wall.is_some());
    }
}
