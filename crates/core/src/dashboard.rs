//! The Application Insights substitute: run monitoring and summaries.
//!
//! "Application Insights Dashboard provides summarized view of the pipeline
//! runs to facilitate real-time monitoring and incident management"
//! (Section 2.2).
//!
//! The dashboard is a thin view over a [`seagull_obs::Registry`]:
//! [`Dashboard::record`] folds each run report into counters, gauges, and
//! per-stage histograms, and [`Dashboard::summary`] renders the aggregate
//! back out of the registry joined with the incident log. Sharing the
//! pipeline's [`Obs`] handle (via [`Dashboard::with_obs`]) makes the run
//! counters, breaker gauges, and dashboard aggregates land in one exportable
//! registry.
//!
//! Ordering in [`DashboardSummary`] is fully deterministic:
//! `mean_stage_duration` lists stages in canonical pipeline order (unknown
//! stages after, alphabetically) and `latest_accuracy` is sorted by region.

use crate::incident::{IncidentManager, Severity};
use crate::pipeline::PipelineRunReport;
use seagull_obs::{Obs, SampleValue, Stability};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Canonical pipeline stage order for summary rendering; stages not listed
/// here sort after these, alphabetically.
const STAGE_ORDER: [&str; 7] = [
    "ingestion",
    "validation",
    "features",
    "train-infer",
    "docstore-write",
    "deployment",
    "accuracy-eval",
];

fn stage_rank(stage: &str) -> usize {
    STAGE_ORDER
        .iter()
        .position(|s| *s == stage)
        .unwrap_or(STAGE_ORDER.len())
}

/// Aggregated view over recorded runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DashboardSummary {
    /// Pipeline runs recorded.
    pub runs: usize,
    /// Runs blocked before producing predictions.
    pub blocked_runs: usize,
    /// Prediction documents written across all runs.
    pub total_predictions: usize,
    /// Accuracy evaluations performed across all runs.
    pub total_evaluations: usize,
    /// Mean stage duration across runs, by stage name, in canonical
    /// pipeline order (unknown stages last, alphabetically).
    pub mean_stage_duration: Vec<(String, Duration)>,
    /// Latest accuracy per region, sorted by region:
    /// (region, window-correct %, load-accurate %).
    pub latest_accuracy: Vec<(String, f64, f64)>,
    /// Open Warning-severity incidents.
    pub open_warnings: usize,
    /// Open Critical-severity incidents.
    pub open_criticals: usize,
}

/// Collects run reports into a metrics registry and renders operator
/// summaries from it.
#[derive(Clone, Default)]
pub struct Dashboard {
    obs: Obs,
}

// Metric names the dashboard owns. Stage-duration histograms and the
// per-region accuracy gauges carry labels; the rest are unlabelled totals.
const RUNS: &str = "seagull_dashboard_runs_total";
const BLOCKED: &str = "seagull_dashboard_blocked_total";
const PREDICTIONS: &str = "seagull_dashboard_predictions_total";
const EVALUATIONS: &str = "seagull_dashboard_evaluations_total";
const STAGE_SECONDS: &str = "seagull_dashboard_stage_seconds";
const ACCURACY_WEEK: &str = "seagull_dashboard_accuracy_week";
const WINDOW_PCT: &str = "seagull_dashboard_window_correct_pct";
const LOAD_PCT: &str = "seagull_dashboard_load_accurate_pct";

impl Dashboard {
    /// Creates a dashboard over a private registry.
    pub fn new() -> Dashboard {
        Dashboard::default()
    }

    /// Creates a dashboard over a shared observability handle (typically
    /// the pipeline's, so one registry holds everything).
    pub fn with_obs(obs: Obs) -> Dashboard {
        Dashboard { obs }
    }

    /// The dashboard's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Records one run: counters for run/blocked/prediction/evaluation
    /// totals, per-stage duration histograms (volatile — wall time), and
    /// latest-week accuracy gauges per region.
    pub fn record(&self, report: PipelineRunReport) {
        let reg = self.obs.registry();
        reg.counter(RUNS, &[]).inc();
        // Unconditional add(0) so the counter exists after the first record:
        // metric presence must depend on the recorded data, never on whether
        // a summary was rendered in between (the read path get-or-creates).
        reg.counter(BLOCKED, &[]).add(u64::from(report.blocked));
        reg.counter(PREDICTIONS, &[])
            .add(report.predictions_written as u64);
        reg.counter(EVALUATIONS, &[]).add(report.evaluations as u64);
        for s in &report.stages {
            reg.histogram_with(STAGE_SECONDS, &[("stage", &s.stage)], Stability::Volatile)
                .observe(s.duration.as_secs_f64());
        }
        if let Some(acc) = &report.accuracy {
            // The week gauge stores week + 1 so its zero default reads as
            // "no accuracy recorded yet" (pipeline weeks are day indices,
            // never negative).
            let labels = [("region", report.region.as_str())];
            let week_gauge = reg.gauge(ACCURACY_WEEK, &labels);
            let incoming = (report.week_start_day + 1).max(0) as f64;
            if incoming > week_gauge.get() {
                week_gauge.set(incoming);
                reg.gauge(WINDOW_PCT, &labels).set(acc.window_correct_pct);
                reg.gauge(LOAD_PCT, &labels).set(acc.load_accurate_pct);
            }
        }
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.obs.registry().counter(RUNS, &[]).get() as usize
    }

    /// True if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the aggregate summary out of the registry, joining the
    /// incident log for the alert counters. Ordering is deterministic: see
    /// [`DashboardSummary`].
    pub fn summary(&self, incidents: &IncidentManager) -> DashboardSummary {
        let reg = self.obs.registry();
        let mut stages: Vec<(String, Duration)> = Vec::new();
        let mut accuracy: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for sample in reg.snapshot() {
            match (sample.id.name.as_str(), &sample.value) {
                (STAGE_SECONDS, SampleValue::Histogram(h)) if h.count > 0 => {
                    if let Some((_, stage)) = sample.id.labels.iter().find(|(k, _)| k == "stage") {
                        let mean = h.sum / h.count as f64;
                        stages.push((stage.clone(), Duration::from_secs_f64(mean)));
                    }
                }
                (WINDOW_PCT, SampleValue::Gauge(w)) => {
                    if let Some((_, region)) = sample.id.labels.iter().find(|(k, _)| k == "region")
                    {
                        accuracy.entry(region.clone()).or_insert((0.0, 0.0)).0 = *w;
                    }
                }
                (LOAD_PCT, SampleValue::Gauge(l)) => {
                    if let Some((_, region)) = sample.id.labels.iter().find(|(k, _)| k == "region")
                    {
                        accuracy.entry(region.clone()).or_insert((0.0, 0.0)).1 = *l;
                    }
                }
                _ => {}
            }
        }
        stages.sort_by(|(a, _), (b, _)| stage_rank(a).cmp(&stage_rank(b)).then(a.cmp(b)));
        DashboardSummary {
            runs: self.len(),
            blocked_runs: reg.counter(BLOCKED, &[]).get() as usize,
            total_predictions: reg.counter(PREDICTIONS, &[]).get() as usize,
            total_evaluations: reg.counter(EVALUATIONS, &[]).get() as usize,
            mean_stage_duration: stages,
            latest_accuracy: accuracy
                .into_iter()
                .map(|(region, (w, l))| (region, w, l))
                .collect(),
            open_warnings: incidents.open_count(Severity::Warning),
            open_criticals: incidents.open_count(Severity::Critical),
        }
    }

    /// Renders a plain-text operator view.
    pub fn render(&self, incidents: &IncidentManager) -> String {
        let s = self.summary(incidents);
        let mut out = String::new();
        let _ = writeln!(out, "=== Seagull pipeline dashboard ===");
        let _ = writeln!(
            out,
            "runs: {} ({} blocked) | predictions: {} | evaluations: {}",
            s.runs, s.blocked_runs, s.total_predictions, s.total_evaluations
        );
        let _ = writeln!(
            out,
            "open incidents: {} critical, {} warning",
            s.open_criticals, s.open_warnings
        );
        let _ = writeln!(out, "mean stage runtime:");
        for (stage, d) in &s.mean_stage_duration {
            let _ = writeln!(out, "  {stage:<14} {:>10.3} ms", d.as_secs_f64() * 1e3);
        }
        let _ = writeln!(out, "latest accuracy per region:");
        for (region, w, l) in &s.latest_accuracy {
            let _ = writeln!(
                out,
                "  {region:<14} LL windows {w:>6.2}% | in-window load {l:>6.2}%"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::AccuracySummary;
    use crate::pipeline::StageTiming;

    fn run(region: &str, week: i64, blocked: bool, acc: Option<(f64, f64)>) -> PipelineRunReport {
        PipelineRunReport {
            region: region.into(),
            week_start_day: week,
            input_bytes: 10,
            stages: vec![
                StageTiming {
                    stage: "ingestion".into(),
                    duration: Duration::from_millis(10),
                },
                StageTiming {
                    stage: "validation".into(),
                    duration: Duration::from_millis(30),
                },
            ],
            servers: 5,
            anomalies: 0,
            blocked,
            predictions_written: 5,
            evaluations: if acc.is_some() { 5 } else { 0 },
            accuracy: acc.map(|(w, l)| AccuracySummary {
                servers: 5,
                evaluated: 5,
                window_correct_pct: w,
                load_accurate_pct: l,
            }),
            deployed_version: Some(1),
            degraded: None,
        }
    }

    #[test]
    fn aggregates_runs() {
        let d = Dashboard::new();
        let inc = IncidentManager::new();
        assert!(d.is_empty());
        d.record(run("west", 100, false, None));
        d.record(run("west", 107, false, Some((99.0, 96.0))));
        d.record(run("east", 100, true, None));
        let s = d.summary(&inc);
        assert_eq!(s.runs, 3);
        assert_eq!(s.blocked_runs, 1);
        assert_eq!(s.total_predictions, 15);
        assert_eq!(s.total_evaluations, 5);
        // Mean of three 10 ms ingestion stages.
        let (stage, dur) = &s.mean_stage_duration[0];
        assert_eq!(stage, "ingestion");
        assert_eq!(*dur, Duration::from_millis(10));
        assert_eq!(s.latest_accuracy, vec![("west".to_string(), 99.0, 96.0)]);
    }

    #[test]
    fn latest_accuracy_wins_by_week() {
        let d = Dashboard::new();
        let inc = IncidentManager::new();
        d.record(run("west", 107, false, Some((90.0, 90.0))));
        d.record(run("west", 100, false, Some((50.0, 50.0))));
        let s = d.summary(&inc);
        assert_eq!(s.latest_accuracy[0].1, 90.0);
    }

    #[test]
    fn summary_ordering_is_canonical_and_deterministic() {
        // Stages arrive in a scrambled, non-alphabetical order; the summary
        // must pin canonical pipeline order with unknown stages last, and
        // sort accuracy rows by region.
        let d = Dashboard::new();
        let inc = IncidentManager::new();
        let mut r = run("zeta", 100, false, Some((80.0, 70.0)));
        r.stages = [
            "accuracy-eval",
            "deployment",
            "custom-export",
            "train-infer",
            "features",
            "validation",
            "ingestion",
        ]
        .iter()
        .map(|s| StageTiming {
            stage: (*s).into(),
            duration: Duration::from_millis(1),
        })
        .collect();
        d.record(r);
        d.record(run("alpha", 100, false, Some((60.0, 50.0))));
        let s = d.summary(&inc);
        let order: Vec<&str> = s
            .mean_stage_duration
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            order,
            vec![
                "ingestion",
                "validation",
                "features",
                "train-infer",
                "deployment",
                "accuracy-eval",
                "custom-export",
            ]
        );
        let regions: Vec<&str> = s
            .latest_accuracy
            .iter()
            .map(|(r, _, _)| r.as_str())
            .collect();
        assert_eq!(regions, vec!["alpha", "zeta"]);
        // Same inputs, same summary: the ordering never depends on
        // insertion order.
        let d2 = Dashboard::new();
        d2.record(run("alpha", 100, false, Some((60.0, 50.0))));
        let mut r2 = run("zeta", 100, false, Some((80.0, 70.0)));
        r2.stages = [
            "ingestion",
            "validation",
            "features",
            "train-infer",
            "deployment",
            "accuracy-eval",
            "custom-export",
        ]
        .iter()
        .map(|s| StageTiming {
            stage: (*s).into(),
            duration: Duration::from_millis(1),
        })
        .collect();
        d2.record(r2);
        let s2 = d2.summary(&inc);
        assert_eq!(s, s2);
    }

    #[test]
    fn dashboard_renders_from_shared_registry() {
        // Sharing the pipeline's Obs puts dashboard aggregates next to
        // pipeline metrics in one registry.
        let obs = Obs::new();
        let d = Dashboard::with_obs(obs.clone());
        d.record(run("west", 100, false, None));
        assert_eq!(
            obs.registry().counter(RUNS, &[]).get(),
            1,
            "dashboard counters live in the shared registry"
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn render_contains_key_lines() {
        let d = Dashboard::new();
        let inc = IncidentManager::new();
        inc.raise(Severity::Warning, "validation", "west", "x");
        d.record(run("west", 100, false, Some((99.0, 96.0))));
        let text = d.render(&inc);
        assert!(text.contains("Seagull pipeline dashboard"));
        assert!(text.contains("1 warning"));
        assert!(text.contains("west"));
        assert!(text.contains("99.00%"));
    }
}
