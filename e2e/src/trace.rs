//! Tracing from the harness's side of each layer boundary: an in-memory span
//! recorder, and wrappers around the two public traits the pipeline already
//! accepts (`Forecaster` / `FittedModel`, `DeploySink`). Nothing inside the
//! seagull crates gains a span, a counter or a switch.
//!
//! The forecaster wrapper overrides `name`, `fit` and `predict` only.
//! `fit_predict` and `fit_batch` keep their trait defaults, which route
//! through the wrapped `fit`, so every fit is seen; the cost is that a traced
//! pass fits one history at a time even where the wrapped model has a batched
//! kernel (results are bitwise the same by the trait's parity contract, and
//! the pass digest checks it). That keeps the harness from naming optional
//! trait methods a later change may delete.

use seagull_core::pipeline::{DeployEvent, DeploySink, PredictionDoc};
use seagull_forecast::{FittedModel, ForecastError, Forecaster};
use seagull_serve::DurableServeSink;
use seagull_timeseries::TimeSeries;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NO_SPAN: usize = usize::MAX;

/// One recorded interval. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The fleet pass the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The open harness span that new spans hang under.
    scope: AtomicUsize,
    pass: AtomicU32,
}

/// Closes its span, and reopens the enclosing one, when dropped.
pub struct Scope<'a> {
    rec: &'a Recorder,
    index: usize,
    outer: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            scope: AtomicUsize::new(NO_SPAN),
            pass: AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.scope.load(Ordering::SeqCst);
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: (parent != NO_SPAN).then_some(parent),
            pass: self.pass.load(Ordering::SeqCst),
        });
        spans.len() - 1
    }

    /// Called between passes, while no span is being recorded.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::SeqCst);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while it holds the span list")
    }

    /// Opens a span on the harness thread; spans recorded until the guard
    /// drops become its children.
    pub fn enter(&self, name: &'static str) -> Scope<'_> {
        let now = self.now_ns();
        let index = self.push(name, now, now);
        let outer = self.scope.swap(index, Ordering::SeqCst);
        Scope {
            rec: self,
            index,
            outer,
        }
    }

    /// Records a finished interval under the open harness span; callable
    /// from any thread.
    pub fn leaf(&self, name: &'static str, started: Instant) {
        let end = self.now_ns();
        let start = started.duration_since(self.origin).as_nanos() as u64;
        self.push(name, start, end);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.lock()[self.index].end_ns = end;
        self.rec.scope.store(self.outer, Ordering::SeqCst);
    }
}

/// Seconds and count of the spans called `name` in `pass`.
pub fn busy(spans: &[Span], name: &str, pass: u32) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.pass == pass && s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

/// Self time of the spans called `name` in `pass`: each span's length minus
/// the part of it that its children cover (children on two worker threads
/// overlap, so their union is taken, not their sum).
pub fn self_time(spans: &[Span], name: &str, pass: u32) -> f64 {
    let mut total = 0.0;
    for (i, span) in spans.iter().enumerate() {
        if span.pass != pass || span.name != name {
            continue;
        }
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        total += (span.end_ns - span.start_ns - covered) as f64 / 1e9;
    }
    total
}

/// `Forecaster` wrapper: times every fit, hands out wrapped models.
pub struct TracedForecaster {
    pub inner: Arc<dyn Forecaster>,
    pub rec: Arc<Recorder>,
    pub fit_errors: Arc<AtomicU64>,
}

struct TracedModel {
    inner: Box<dyn FittedModel>,
    rec: Arc<Recorder>,
}

impl Forecaster for TracedForecaster {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let started = Instant::now();
        let fitted = self.inner.fit(history);
        self.rec.leaf("forecast.fit", started);
        match fitted {
            Ok(inner) => Ok(Box::new(TracedModel {
                inner,
                rec: Arc::clone(&self.rec),
            })),
            Err(e) => {
                self.fit_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

impl FittedModel for TracedModel {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        let started = Instant::now();
        let predicted = self.inner.predict(horizon);
        self.rec.leaf("forecast.predict", started);
        predicted
    }
}

/// One deployment, owned: what a `DeployEvent` carried, minus the cache.
pub struct Deploy {
    pub region: String,
    pub version: u64,
    pub week_start_day: i64,
    pub model_name: String,
    pub predictions: Vec<PredictionDoc>,
}

impl Deploy {
    pub fn event(&self) -> DeployEvent<'_> {
        DeployEvent {
            region: &self.region,
            version: self.version,
            week_start_day: self.week_start_day,
            model_name: &self.model_name,
            predictions: &self.predictions,
            cache: None,
        }
    }
}

/// `DeploySink` wrapper around the durable sink: times each deploy when a
/// recorder is given, keeps an owned copy of each when asked to, counts
/// fallbacks always.
pub struct BoundarySink {
    pub inner: Arc<DurableServeSink>,
    pub rec: Option<Arc<Recorder>>,
    pub captured: Option<Mutex<Vec<Deploy>>>,
    pub fallbacks: AtomicU64,
}

impl DeploySink for BoundarySink {
    fn on_deploy(&self, event: &DeployEvent<'_>) {
        if let Some(captured) = &self.captured {
            captured
                .lock()
                .expect("no thread panics while it holds the captured deploys")
                .push(Deploy {
                    region: event.region.to_string(),
                    version: event.version,
                    week_start_day: event.week_start_day,
                    model_name: event.model_name.to_string(),
                    predictions: event.predictions.to_vec(),
                });
        }
        let started = Instant::now();
        self.inner.on_deploy(event);
        if let Some(rec) = &self.rec {
            rec.leaf("serve.on_deploy", started);
        }
    }

    fn on_fallback(&self, region: &str, week_start_day: i64) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.inner.on_fallback(region, week_start_day);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 1_000, None),
            span("fit", 100, 400, Some(0)),
            span("fit", 300, 600, Some(0)), // overlaps the first on another thread
            span("fit", 900, 1_200, Some(0)), // clipped to the parent
            span("other", 0, 50, None),
        ];
        let expect = (1_000.0 - 500.0 - 100.0) / 1e9;
        assert!((self_time(&spans, "run", 0) - expect).abs() < 1e-15);
        assert_eq!(busy(&spans, "fit", 0).1, 3);
        assert_eq!(busy(&spans, "fit", 1).1, 0);
    }

    #[test]
    fn scopes_nest_and_adopt_leaves() {
        let rec = Recorder::new();
        {
            let _pass = rec.enter("pass");
            {
                let _week = rec.enter("week");
                rec.leaf("fit", Instant::now());
            }
            rec.leaf("late", Instant::now());
        }
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
