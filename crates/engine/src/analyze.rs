//! Parallel static-testability driver: one pool task per design cone.
//!
//! Each cone's COP / constant-propagation fixpoints are independent of
//! every other cone's, so the fan-out unit is the cone. Every task owns
//! a private [`FixpointScratch`] (reused across the forward and backward
//! solves inside [`analyze_cone`]); the register-reachability analysis
//! is a cheap walk over the allocation and runs inline on the caller.
//!
//! [`run_jobs`] returns results in submission order, and submission
//! order is module order, so the assembled [`TestabilityReport`] — and
//! therefore its JSON and text renderings — is byte-identical for any
//! worker count.

use std::time::{Duration, Instant};

use lobist_lint::analysis::reach_report;
use lobist_lint::{analyze_cone, design_cones, FixpointScratch, LintUnit, TestabilityReport};

use crate::metric;
use crate::metrics::Metrics;
use crate::pool::run_jobs;

/// What one parallel analysis run observed.
#[derive(Debug, Clone)]
pub struct AnalyzeRunStats {
    /// Wall time of each cone's analysis, in module order, keyed by the
    /// cone's display label.
    pub cones: Vec<(String, Duration)>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

/// Analyzes every used module cone of `unit` on `workers` threads and
/// assembles the canonical [`TestabilityReport`].
///
/// When `metrics` is given, the run is recorded into its
/// `"testability"` section (fault counters, per-cone timing histogram).
///
/// # Panics
///
/// Panics if `workers` is zero, or if a cone analysis itself panics (it
/// is a pure function of the allocation; a panic is a bug).
pub fn analyze_parallel(
    unit: &LintUnit<'_>,
    workers: usize,
    metrics: Option<&Metrics>,
) -> (TestabilityReport, AnalyzeRunStats) {
    assert!(workers > 0, "analyze_parallel needs at least one worker");
    let start = Instant::now();
    let width = unit.area.width;
    let tasks: Vec<_> = design_cones(unit)
        .into_iter()
        .map(|cone| {
            move || {
                let mut scratch = FixpointScratch::new();
                let t0 = Instant::now();
                let report = analyze_cone(&cone, width, &mut scratch);
                (report, t0.elapsed())
            }
        })
        .collect();
    let (results, pool) = run_jobs(workers, tasks);

    let mut cones = Vec::with_capacity(results.len());
    let mut timings = Vec::with_capacity(results.len());
    for result in results {
        let (cone, took) = result.expect("cone analysis panicked");
        timings.push((cone.cone.label(), took));
        cones.push(cone);
    }
    let report = TestabilityReport { width, cones, reach: reach_report(unit) };
    let stats = AnalyzeRunStats {
        cones: timings,
        wall: start.elapsed(),
        workers: pool.workers,
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
        m.record_pool(&pool);
    }
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
    use lobist_dfg::benchmarks;

    #[test]
    fn report_is_byte_stable_across_worker_counts() {
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
        let (serial, serial_stats) = analyze_parallel(&unit, 1, None);
        assert!(!serial.cones.is_empty());
        assert_eq!(serial_stats.cones.len(), serial.cones.len());
        for workers in [2, 4, 7] {
            let (parallel, stats) = analyze_parallel(&unit, workers, None);
            assert_eq!(serial, parallel, "workers={workers}");
            assert_eq!(
                serial.to_json(false),
                parallel.to_json(false),
                "workers={workers}"
            );
            assert_eq!(serial.to_json(true), parallel.to_json(true));
            assert_eq!(serial.render_text(), parallel.render_text());
            let labels: Vec<&str> = stats.cones.iter().map(|(l, _)| l.as_str()).collect();
            let serial_labels: Vec<&str> =
                serial_stats.cones.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, serial_labels, "workers={workers}");
        }
    }

    #[test]
    fn matches_the_serial_library_entry_point() {
        let bench = benchmarks::ex2();
        let opts = FlowOptions::testable();
        let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
        let unit = LintUnit::of_design(
            &bench.dfg,
            &bench.schedule,
            &design,
            bench.lifetime_options,
            &opts.area,
        );
        let (parallel, _) = analyze_parallel(&unit, 3, None);
        let mut scratch = FixpointScratch::new();
        let serial = lobist_lint::analyze_design(&unit, &mut scratch);
        assert_eq!(parallel, serial);
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
        let (report, _) = analyze_parallel(&unit, 2, Some(&metrics));
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
