//! The timed static-testability driver: every module cone in module
//! order on one [`FixpointScratch`], each cone timed for the
//! `"testability"` metrics section.
//!
//! The report is exactly [`lobist_lint::analyze_design`]'s; the
//! register-reachability analysis is a cheap walk over the allocation.
//! The cones run on the calling thread: there is one per used module
//! and the multiplier's dominates, so a per-cone fan-out over the pool
//! had little to overlap (DESIGN.md §4j).

use std::time::{Duration, Instant};

use lobist_lint::analysis::reach_report;
use lobist_lint::{analyze_cone, design_cones, FixpointScratch, LintUnit, TestabilityReport};

use crate::metric;
use crate::metrics::Metrics;

/// What one timed analysis run observed.
#[derive(Debug, Clone)]
pub struct AnalyzeRunStats {
    /// Wall time of each cone's analysis, in module order, keyed by the
    /// cone's display label.
    pub cones: Vec<(String, Duration)>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// Analyzes every used module cone of `unit`, timing each, and
/// assembles the canonical [`TestabilityReport`].
///
/// When `metrics` is given, the run is recorded into its
/// `"testability"` section (fault counters, per-cone timing histogram).
pub fn analyze_timed(
    unit: &LintUnit<'_>,
    metrics: Option<&Metrics>,
) -> (TestabilityReport, AnalyzeRunStats) {
    let start = Instant::now();
    let width = unit.area.width;
    let mut scratch = FixpointScratch::new();
    let mut timings = Vec::new();
    let cones = design_cones(unit)
        .iter()
        .map(|cone| {
            let t0 = Instant::now();
            let report = analyze_cone(cone, width, &mut scratch);
            timings.push((cone.label(), t0.elapsed()));
            report
        })
        .collect();
    let report = TestabilityReport { width, cones, reach: reach_report(unit) };
    let stats = AnalyzeRunStats {
        cones: timings,
        wall: start.elapsed(),
    };
    if let Some(m) = metrics {
        m.add(metric!("testability.runs"), 1);
        m.add(metric!("testability.cones"), report.cones.len() as u64);
        m.add(metric!("testability.faults"), report.total_faults() as u64);
        m.add(metric!("testability.hard"), report.total_hard() as u64);
        m.add(metric!("testability.redundant"), report.total_redundant() as u64);
        m.add(metric!("testability.unreachable"), report.total_unreachable() as u64);
        m.add_time(metric!("testability.wall_micros"), stats.wall);
        for (_, took) in &stats.cones {
            m.record(metric!("testability.cone_micros_log2"), *took);
        }
    }
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
    use lobist_dfg::benchmarks;

    #[test]
    fn matches_the_library_entry_point() {
        for bench in [benchmarks::ex1(), benchmarks::ex2()] {
            let opts = FlowOptions::testable();
            let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
            let unit = LintUnit::of_design(
                &bench.dfg,
                &bench.schedule,
                &design,
                bench.lifetime_options,
                &opts.area,
            );
            let (report, stats) = analyze_timed(&unit, None);
            let reference = lobist_lint::analyze_design(&unit, &mut FixpointScratch::new());
            assert!(!report.cones.is_empty());
            assert_eq!(report, reference);
            assert_eq!(report.to_json(false), reference.to_json(false));
            assert_eq!(report.to_json(true), reference.to_json(true));
            assert_eq!(report.render_text(), reference.render_text());
            // One timing per cone, in module order.
            let labels: Vec<String> = stats.cones.iter().map(|(l, _)| l.clone()).collect();
            let module_order: Vec<String> =
                report.cones.iter().map(|c| c.cone.label()).collect();
            assert_eq!(labels, module_order);
        }
    }

    #[test]
    fn run_is_recorded_into_metrics() {
        let bench = benchmarks::ex1();
        let opts = FlowOptions::testable();
        let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
        let unit = LintUnit::of_design(
            &bench.dfg,
            &bench.schedule,
            &design,
            bench.lifetime_options,
            &opts.area,
        );
        let metrics = Metrics::new();
        let (report, _) = analyze_timed(&unit, Some(&metrics));
        let snap = metrics.snapshot();
        assert_eq!(snap.get(metric!("testability.runs")), 1);
        assert_eq!(snap.get(metric!("testability.cones")), report.cones.len() as u64);
        assert_eq!(snap.get(metric!("testability.faults")), report.total_faults() as u64);
        let total_coned: u64 = snap.histogram(metric!("testability.cone_micros_log2")).iter().sum();
        assert_eq!(total_coned, report.cones.len() as u64);
        let json = snap.to_json();
        assert!(json.contains("\"testability\":{\"runs\":1"), "{json}");
    }
}
