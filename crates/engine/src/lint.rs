//! The timed lint driver: the registry's passes in registry order on
//! one [`LintScratch`], each pass timed for `lint --json` and the
//! `"lint"` metrics section.
//!
//! The report is exactly [`PassRegistry::lint`]'s: the passes are
//! independent, and [`Report::new`] sorts the findings into the
//! canonical (code, span) order. The passes run on the calling thread.
//! One long pass, `gates`, takes most of a run, so a split of the pass
//! list across two threads could save only the short passes' time,
//! under half a millisecond on the seed-1 corpus, and measured no
//! faster than one thread (DESIGN.md §4e).

use std::time::{Duration, Instant};

use lobist_lint::{LintScratch, LintUnit, PassRegistry, Report};

use crate::metric;
use crate::metrics::{Key, Metrics};

/// What one timed lint run observed.
#[derive(Debug, Clone)]
pub struct LintRunStats {
    /// Wall time of each pass, in registry order.
    pub passes: Vec<(&'static str, Duration)>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// Runs every pass of `registry` over `unit`, timing each, and merges
/// the findings into one canonical [`Report`].
///
/// When `metrics` is given, the run is recorded into its `"lint"`
/// section (run counter, finding counters, per-pass timing histograms).
///
/// # Panics
///
/// A pass is a pure function of the unit, so a panic inside one is a
/// bug, not a finding: it propagates to the caller.
pub fn lint_timed(
    unit: &LintUnit<'_>,
    registry: &PassRegistry,
    metrics: Option<&Metrics>,
) -> (Report, LintRunStats) {
    let start = Instant::now();
    let mut scratch = LintScratch::new();
    let mut diagnostics = Vec::new();
    let passes = registry
        .passes()
        .iter()
        .map(|pass| {
            let t0 = Instant::now();
            let diags = pass.run_with(unit, &mut scratch);
            let took = t0.elapsed();
            diagnostics.extend(diags);
            (pass.name(), took)
        })
        .collect();
    let report = Report::new(diagnostics);
    let stats = LintRunStats {
        passes,
        wall: start.elapsed(),
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
    fn report_equals_the_registry_entry_point() {
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
        let (report, stats) = lint_timed(&unit, &registry, None);
        assert_eq!(report.to_json(), registry.lint(&unit).to_json());
        assert_eq!(report.render_text(), registry.lint(&unit).render_text());
        // One timing per pass, in registry order.
        let names: Vec<&str> = stats.passes.iter().map(|(n, _)| *n).collect();
        let registry_names: Vec<&str> = registry.passes().iter().map(|p| p.name()).collect();
        assert_eq!(names, registry_names);
    }

    #[test]
    fn full_registry_also_equals_the_registry_entry_point() {
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
        let (report, stats) = lint_timed(&unit, &registry, None);
        assert_eq!(report.to_json(), registry.lint(&unit).to_json());
        assert_eq!(stats.passes.len(), registry.passes().len());
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
        let (report, _) = lint_timed(&unit, &registry, Some(&metrics));
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
