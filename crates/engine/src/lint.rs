//! Parallel lint driver: contiguous chunks of registry passes fanned
//! out over the pool.
//!
//! Passes are independent read-only analyses over one [`LintUnit`], so
//! they parallelize trivially — but the report must not depend on the
//! worker count. The registry's pass list is split into contiguous
//! chunks (one per worker at most); [`run_jobs`] returns per-chunk
//! results in submission order, the driver flattens them back into
//! registry order, and [`Report::new`] sorts into the canonical
//! (code, span) order; the rendered text and JSON are therefore
//! byte-identical for any `workers`.
//!
//! Chunking (rather than one task per pass) is what lets each task own
//! a single [`LintScratch`] reused across every pass it runs — the same
//! per-worker scratch-reuse discipline the diffsim engine applies, so
//! gate regeneration and fixpoint worklists stop reallocating per pass.

use std::time::{Duration, Instant};

use lobist_lint::{LintScratch, LintUnit, PassRegistry, Report};

use crate::metric;
use crate::metrics::{Key, Metrics};
use crate::pool::run_jobs;

/// What one parallel lint run observed.
#[derive(Debug, Clone)]
pub struct LintRunStats {
    /// Wall time of each pass, in registry order.
    pub passes: Vec<(&'static str, Duration)>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

/// Runs every pass of `registry` over `unit` on `workers` threads and
/// merges the findings into one canonical [`Report`].
///
/// When `metrics` is given, the run is recorded into its `"lint"`
/// section (run counter, finding counters, per-pass timing histograms).
///
/// # Panics
///
/// Panics if `workers` is zero, or if a lint pass itself panics (a pass
/// is a pure function of the unit; a panic is a bug, not a finding).
pub fn lint_parallel(
    unit: &LintUnit<'_>,
    registry: &PassRegistry,
    workers: usize,
    metrics: Option<&Metrics>,
) -> (Report, LintRunStats) {
    assert!(workers > 0, "lint_parallel needs at least one worker");
    let start = Instant::now();
    let n_passes = registry.passes().len();
    let chunk_size = n_passes.div_ceil(workers.max(1)).max(1);
    let tasks: Vec<_> = registry
        .passes()
        .chunks(chunk_size)
        .map(|chunk| {
            let unit = *unit;
            move || {
                let mut scratch = LintScratch::new();
                chunk
                    .iter()
                    .map(|pass| {
                        let t0 = Instant::now();
                        let diags = pass.run_with(&unit, &mut scratch);
                        (pass.name(), diags, t0.elapsed())
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let (results, pool) = run_jobs(workers, tasks);

    let mut diagnostics = Vec::new();
    let mut passes = Vec::with_capacity(n_passes);
    for result in results {
        for (name, diags, took) in result.expect("lint pass panicked") {
            diagnostics.extend(diags);
            passes.push((name, took));
        }
    }
    let report = Report::new(diagnostics);
    let stats = LintRunStats {
        passes,
        wall: start.elapsed(),
        workers: pool.workers,
    };
    if let Some(m) = metrics {
        m.add(metric!("lint.runs"), 1);
        m.add(metric!("lint.errors"), report.error_count() as u64);
        m.add(metric!("lint.warnings"), report.warning_count() as u64);
        m.add_time(metric!("lint.wall_micros"), stats.wall);
        for &(name, took) in &stats.passes {
            if let Some(key) = pass_histogram(name) {
                m.record(key, took);
            }
        }
        m.record_pool(&pool);
    }
    (report, stats)
}

/// The metrics histogram of a shipped pass; a pass registered from
/// outside this workspace has none and is not recorded.
fn pass_histogram(name: &str) -> Option<Key> {
    Some(match name {
        "binding" => metric!("lint.pass_micros_log2_histograms.binding"),
        "bist-legality" => metric!("lint.pass_micros_log2_histograms.bist-legality"),
        "coloring" => metric!("lint.pass_micros_log2_histograms.coloring"),
        "gates" => metric!("lint.pass_micros_log2_histograms.gates"),
        "lemma2-audit" => metric!("lint.pass_micros_log2_histograms.lemma2-audit"),
        "structure" => metric!("lint.pass_micros_log2_histograms.structure"),
        "testability-const" => metric!("lint.pass_micros_log2_histograms.testability-const"),
        "testability-cop" => metric!("lint.pass_micros_log2_histograms.testability-cop"),
        "testability-reach" => metric!("lint.pass_micros_log2_histograms.testability-reach"),
        _ => return None,
    })
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
        let registry = PassRegistry::default_registry();
        let (serial, serial_stats) = lint_parallel(&unit, &registry, 1, None);
        assert_eq!(serial_stats.passes.len(), registry.passes().len());
        for workers in [2, 4, 7] {
            let (parallel, stats) = lint_parallel(&unit, &registry, workers, None);
            assert_eq!(serial.to_json(), parallel.to_json(), "workers={workers}");
            assert_eq!(serial.render_text(), parallel.render_text());
            // Chunking must not lose or reorder per-pass timings.
            assert_eq!(stats.passes.len(), registry.passes().len());
            let names: Vec<&str> = stats.passes.iter().map(|(n, _)| *n).collect();
            let serial_names: Vec<&str> = serial_stats.passes.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, serial_names, "workers={workers}");
        }
        // And identical to the serial registry entry point.
        assert_eq!(serial.to_json(), registry.lint(&unit).to_json());
    }

    #[test]
    fn full_registry_is_also_byte_stable() {
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
        let registry = PassRegistry::full_registry();
        let (serial, _) = lint_parallel(&unit, &registry, 1, None);
        for workers in [2, 7] {
            let (parallel, _) = lint_parallel(&unit, &registry, workers, None);
            assert_eq!(serial.to_json(), parallel.to_json(), "workers={workers}");
        }
        assert_eq!(serial.to_json(), registry.lint(&unit).to_json());
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
        let registry = PassRegistry::default_registry();
        let (report, _) = lint_parallel(&unit, &registry, 2, Some(&metrics));
        assert!(report.is_clean(), "{}", report.render_text());
        let snap = metrics.snapshot();
        assert_eq!(snap.get(metric!("lint.runs")), 1);
        assert_eq!(snap.get(metric!("lint.errors")), 0);
        let json = snap.to_json();
        assert!(json.contains("\"lint\":{\"runs\":1"), "{json}");
        assert!(json.contains("\"structure\":["), "{json}");
        assert!(json.contains("\"lemma2-audit\":["), "{json}");
    }
}
