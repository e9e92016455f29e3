//! The Application Insights substitute: run monitoring and summaries.
//!
//! "Application Insights Dashboard provides summarized view of the pipeline
//! runs to facilitate real-time monitoring and incident management"
//! (Section 2.2).
//!
//! The dashboard keeps nothing of its own: [`summary`] reads the run reports
//! every pipeline run stores in the `RUNS` collection (blocked runs
//! included) and joins the incident log for the alert counters; [`render`]
//! prints that summary for an operator.
//!
//! Ordering in [`DashboardSummary`] is fully deterministic:
//! `mean_stage_duration` lists stages in canonical pipeline order (unknown
//! stages after, alphabetically) and `latest_accuracy` is sorted by region.

use crate::docstore::DocStore;
use crate::incident::{IncidentManager, Severity};
use crate::pipeline::{collections, PipelineRunReport};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Canonical pipeline stage order for summary rendering; stages not listed
/// here sort after these, alphabetically.
const STAGE_ORDER: [&str; 6] = [
    "ingestion",
    "validation",
    "features",
    "train-infer",
    "accuracy-eval",
    "deployment",
];

fn stage_rank(stage: &str) -> usize {
    STAGE_ORDER
        .iter()
        .position(|s| *s == stage)
        .unwrap_or(STAGE_ORDER.len())
}

/// Aggregated view over the stored runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DashboardSummary {
    /// Pipeline runs stored (one per region and week).
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

/// Builds the aggregate summary from the run reports stored in `docs`,
/// joining the incident log for the alert counters. Ordering is
/// deterministic: see [`DashboardSummary`].
pub fn summary(docs: &DocStore, incidents: &IncidentManager) -> DashboardSummary {
    // Only the pipeline writes `RUNS`, and only run reports.
    let runs: Vec<PipelineRunReport> = docs
        .scan(collections::RUNS)
        .expect("RUNS holds run reports");
    let mut stages: BTreeMap<&str, (Duration, u32)> = BTreeMap::new();
    // The latest scored week per region.
    let mut accuracy: BTreeMap<&str, (i64, f64, f64)> = BTreeMap::new();
    for run in &runs {
        for s in &run.stages {
            let (total, count) = stages.entry(&s.stage).or_default();
            *total += s.duration;
            *count += 1;
        }
        if let Some(acc) = &run.accuracy {
            let latest = accuracy.entry(&run.region).or_insert((i64::MIN, 0.0, 0.0));
            if run.week_start_day > latest.0 {
                *latest = (
                    run.week_start_day,
                    acc.window_correct_pct,
                    acc.load_accurate_pct,
                );
            }
        }
    }
    let mut mean_stage_duration: Vec<(String, Duration)> = stages
        .into_iter()
        .map(|(stage, (total, count))| (stage.to_string(), total / count))
        .collect();
    mean_stage_duration.sort_by_key(|(stage, _)| stage_rank(stage));
    DashboardSummary {
        runs: runs.len(),
        blocked_runs: runs.iter().filter(|r| r.blocked).count(),
        total_predictions: runs.iter().map(|r| r.predictions_written).sum(),
        total_evaluations: runs.iter().map(|r| r.evaluations).sum(),
        mean_stage_duration,
        latest_accuracy: accuracy
            .into_iter()
            .map(|(region, (_, w, l))| (region.to_string(), w, l))
            .collect(),
        open_warnings: incidents.open_count(Severity::Warning),
        open_criticals: incidents.open_count(Severity::Critical),
    }
}

/// Renders [`summary`] as a plain-text operator view.
pub fn render(docs: &DocStore, incidents: &IncidentManager) -> String {
    let s = summary(docs, incidents);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AccuracySummary, StageTiming};

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

    /// Stores `reports` as the pipeline's `store_run` does.
    fn stored(reports: impl IntoIterator<Item = PipelineRunReport>) -> DocStore {
        let docs = DocStore::new();
        for r in reports {
            let id = format!("{}/{}", r.region, r.week_start_day);
            docs.upsert(collections::RUNS, &id, &r);
        }
        docs
    }

    #[test]
    fn aggregates_runs() {
        let inc = IncidentManager::new();
        assert_eq!(summary(&DocStore::new(), &inc).runs, 0);
        let docs = stored([
            run("west", 100, false, None),
            run("west", 107, false, Some((99.0, 96.0))),
            run("east", 100, true, None),
        ]);
        let s = summary(&docs, &inc);
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
        let inc = IncidentManager::new();
        let docs = stored([
            run("west", 107, false, Some((90.0, 90.0))),
            run("west", 100, false, Some((50.0, 50.0))),
        ]);
        assert_eq!(summary(&docs, &inc).latest_accuracy[0].1, 90.0);
    }

    #[test]
    fn summary_ordering_is_canonical_and_deterministic() {
        // Stages arrive in a scrambled, non-alphabetical order; the summary
        // must pin canonical pipeline order with unknown stages last, and
        // sort accuracy rows by region.
        let inc = IncidentManager::new();
        let scrambled = |order: [&str; 7]| {
            let mut r = run("zeta", 100, false, Some((80.0, 70.0)));
            r.stages = order
                .iter()
                .map(|s| StageTiming {
                    stage: (*s).into(),
                    duration: Duration::from_millis(1),
                })
                .collect();
            r
        };
        let docs = stored([
            scrambled([
                "accuracy-eval",
                "deployment",
                "custom-export",
                "train-infer",
                "features",
                "validation",
                "ingestion",
            ]),
            run("alpha", 100, false, Some((60.0, 50.0))),
        ]);
        let s = summary(&docs, &inc);
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
                "accuracy-eval",
                "deployment",
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
        let docs2 = stored([
            run("alpha", 100, false, Some((60.0, 50.0))),
            scrambled([
                "ingestion",
                "validation",
                "features",
                "train-infer",
                "deployment",
                "accuracy-eval",
                "custom-export",
            ]),
        ]);
        assert_eq!(s, summary(&docs2, &inc));
    }

    #[test]
    fn render_contains_key_lines() {
        let inc = IncidentManager::new();
        inc.raise(Severity::Warning, "validation", "west", "x");
        let docs = stored([run("west", 100, false, Some((99.0, 96.0)))]);
        let text = render(&docs, &inc);
        assert!(text.contains("Seagull pipeline dashboard"));
        assert!(text.contains("1 warning"));
        assert!(text.contains("west"));
        assert!(text.contains("99.00%"));
    }
}
