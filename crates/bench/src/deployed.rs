//! Section 5.4 — the deployed model, fleet-wide: "correctly selected 99 % of
//! low load windows, accurately predicted the load during 96 % of all
//! windows, and classified 75 % of long-lived servers as predictable", read
//! from the production pipeline that deploys it.

use crate::fleets;
use seagull_backup::serve_weeks;
use seagull_core::pipeline::{collections, AccuracySummary, GateState, PredictionDoc};

/// Runs the production path ([`serve_weeks`]) over the long-lived servers
/// (Definition 3, unstable ones included) of
/// [`fleets::classification_fleet`]`(seed)` for its four weeks. Returns the
/// last week's run-report accuracy pooled over the regions, and the
/// percentage of that run's predictions whose Definition 9 gate is open.
pub fn deployment_accuracy(seed: u64) -> (AccuracySummary, f64) {
    let (fleet, spec) = fleets::classification_fleet(seed);
    let last_week = spec.start_day + 21;
    let long_lived: Vec<_> = fleet
        .into_iter()
        .filter(|s| s.meta.is_long_lived(last_week + 7))
        .collect();
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let weeks: Vec<i64> = (0..4).map(|w| spec.start_day + 7 * w).collect();
    let (_, pipeline, reports) = serve_weeks(&long_lived, &regions, &weeks);

    let scored: Vec<AccuracySummary> = reports
        .iter()
        .filter(|r| r.week_start_day == last_week)
        .filter_map(|r| r.accuracy)
        .collect();
    let evaluated: usize = scored.iter().map(|a| a.evaluated).sum();
    let pooled = |pct: fn(&AccuracySummary) -> f64| {
        let weighted: f64 = scored.iter().map(|a| pct(a) * a.evaluated as f64).sum();
        weighted / evaluated as f64
    };
    let predictions: Vec<PredictionDoc> = (pipeline.docs.scan(collections::PREDICTIONS))
        .expect("the predictions collection holds prediction documents");
    let gates: Vec<GateState> = (predictions.iter())
        .filter(|d| d.day >= last_week + 7)
        .map(|d| d.gate)
        .collect();
    let open = gates.iter().filter(|&&g| g == GateState::OPEN).count();
    let accuracy = AccuracySummary {
        servers: long_lived.len(),
        evaluated,
        window_correct_pct: pooled(|a| a.window_correct_pct),
        load_accurate_pct: pooled(|a| a.load_accurate_pct),
    };
    (accuracy, 100.0 * open as f64 / gates.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Section 5.4's claim on the deployed path: LL windows chosen correctly
    /// ≥ 95 %, their load accurate ≥ 90 %, and at least the paper's 75 % of
    /// long-lived servers predictable. About 6 s in the debug profile on a
    /// 2-vCPU machine: four pipeline weeks of 1,316 servers.
    #[test]
    fn deployed_pipeline_meets_section_5_4() {
        let (accuracy, predictable_pct) = deployment_accuracy(42);
        assert!(accuracy.servers > 1000, "{accuracy:?}");
        assert!(accuracy.window_correct_pct >= 95.0, "{accuracy:?}");
        assert!(accuracy.load_accurate_pct >= 90.0, "{accuracy:?}");
        assert!(predictable_pct >= 75.0, "{predictable_pct}");
    }
}
