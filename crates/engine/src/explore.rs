//! Parallel design-space exploration and the shared sweep report.
//!
//! [`explore_parallel`] fans `lobist_alloc::explore`'s candidate list
//! out over an [`Engine`] and reassembles the outcome with the same
//! pure [`assemble`] step the serial path uses, so for any worker count
//! it returns a result identical to `lobist_alloc::explore::explore` —
//! the engine's integration tests assert byte equality of the rendered
//! reports.

use std::sync::Arc;

use lobist_alloc::explore::{assemble, enumerate_candidates, ExploreConfig, ExploreResult};
use lobist_dfg::Dfg;

use crate::engine::{provenance, Engine, Job};

/// Explores the design space of `dfg` under `config` on `engine` with
/// `workers` threads. Produces exactly what
/// `lobist_alloc::explore::explore` produces, in the same order, plus
/// the [`provenance`] of the candidates' answers.
pub fn explore_parallel(
    dfg: &Dfg,
    config: &ExploreConfig,
    engine: &Engine,
    workers: usize,
) -> (ExploreResult, &'static str) {
    let (candidates, mut failures) = enumerate_candidates(dfg, config);
    let shared = Arc::new(dfg.clone());
    let jobs: Vec<Job> = candidates
        .into_iter()
        .map(|candidate| Job {
            dfg: Arc::clone(&shared),
            label: candidate.modules.to_string(),
            candidate,
            flow: config.flow.clone(),
        })
        .collect();
    let outcomes = engine.run_with_workers(jobs, workers);
    let served = provenance(&outcomes);
    let mut points = Vec::new();
    for outcome in outcomes {
        match outcome.result {
            Ok(p) => points.push(p),
            Err(f) => failures.push(f),
        }
    }
    (assemble(points, failures), served)
}

/// Renders an exploration result as the sweep table the CLI prints:
/// one row per feasible point (Pareto members starred), then one line
/// per infeasible candidate.
pub fn render_report(result: &ExploreResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>12} {:>10} {:>5}  on Pareto front",
        "modules", "latency", "func gates", "BIST gates", "regs"
    );
    for (i, p) in result.points.iter().enumerate() {
        let star = if result.pareto.contains(&i) { "*" } else { "" };
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>12} {:>10} {:>5}  {star}",
            p.modules.to_string(),
            p.latency,
            p.functional_gates.get(),
            p.bist_gates.get(),
            p.registers
        );
    }
    for (m, e) in &result.failures {
        let _ = writeln!(out, "infeasible {m}: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_alloc::explore::explore;
    use lobist_dfg::benchmarks;
    use lobist_dfg::modules::ModuleSet;

    #[test]
    fn parallel_matches_serial_on_paulin() {
        let bench = benchmarks::paulin();
        let candidates: Vec<ModuleSet> = ["1+,1*,1-", "1+,2*,1-", "2+,2*,2-"]
            .iter()
            .map(|s| s.parse().expect("valid"))
            .collect();
        let mut config = ExploreConfig::new(candidates);
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        let serial = explore(&bench.dfg, &config);
        let engine = Engine::new(4);
        let (parallel, _) = explore_parallel(&bench.dfg, &config, &engine, 4);
        assert_eq!(render_report(&serial), render_report(&parallel));
        assert_eq!(serial.pareto, parallel.pareto);
    }
}
