//! Golden snapshots of an engine's `--metrics` JSON: the key paths, the
//! key order and every deterministic count, with timing values masked
//! (see `support/metrics_golden.rs`).
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test metrics_golden
//! ```

use std::sync::Arc;

use lobist::alloc::explore::Candidate;
use lobist::alloc::flow::synthesize;
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::{Dfg, Schedule};
use lobist::engine::{
    analyze_timed, anneal_multichain, fault_sim_modules, lint_timed, load_design, Engine, Job,
    JobSpec,
};
use lobist::lint::{LintUnit, PassRegistry};

#[path = "support/metrics_golden.rs"]
mod golden;

const MODULES: &str = "2+,2*,2-";

/// Every shipped design, then `ex1.dfg` once more (an exact repeat);
/// `ex1_renamed.dfg` is its isomorphic twin.
const BATCH: [&str; 6] = [
    "diffeq.dfg",
    "ex1.dfg",
    "ex1_renamed.dfg",
    "polynomial.dfg",
    "quickstart.dfg",
    "ex1.dfg",
];

fn golden_path(name: &str) -> String {
    format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/metrics/{}.json"),
        name
    )
}

fn load(name: &str) -> (Dfg, Schedule) {
    let path = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/designs/{}"), name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let modules: ModuleSet = MODULES.parse().expect("a module set");
    load_design(&text, &modules).unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

/// A one-worker engine (so the exact/isomorphic split of the hits is
/// fixed) after one batch of [`BATCH`].
fn batch_engine() -> Engine {
    let engine = Engine::new(1);
    let modules: ModuleSet = MODULES.parse().expect("a module set");
    let flow = JobSpec::default().flow_options();
    let jobs = BATCH
        .iter()
        .map(|name| {
            let (dfg, schedule) = load(name);
            Job {
                dfg: Arc::new(dfg),
                candidate: Candidate {
                    modules: modules.clone(),
                    schedule,
                },
                flow: flow.clone(),
                label: (*name).to_owned(),
            }
        })
        .collect();
    let outcomes = engine.run(jobs);
    assert!(outcomes.iter().all(|o| o.result.is_ok()), "every shipped design synthesizes");
    engine
}

#[test]
fn batch_metrics_golden() {
    golden::check(&golden_path("batch"), &batch_engine().metrics().to_json());
}

#[test]
fn workload_metrics_golden() {
    let engine = batch_engine();
    let modules: ModuleSet = MODULES.parse().expect("a module set");
    let spec = JobSpec::default();
    let flow = spec.flow_options();
    let (width, opts) = spec.fault_sim(1).expect("default width");
    for name in ["ex1.dfg", "polynomial.dfg", "quickstart.dfg"] {
        let (dfg, schedule) = load(name);
        let d = synthesize(&dfg, &schedule, &modules, &flow).expect("synthesizes");
        let unit = LintUnit::of_design(&dfg, &schedule, &d, flow.lifetime_options, &flow.area);
        let registry = PassRegistry::default_registry();
        lint_timed(&unit, &registry, Some(engine.metrics_handle()));
        analyze_timed(&unit, Some(engine.metrics_handle()));
        fault_sim_modules(&dfg, &d.module_assignment, width, opts, &engine);
    }
    // One annealing run recorded the way `lobist anneal --metrics` does.
    let (dfg, schedule) = load("ex1.dfg");
    let ma = lobist::alloc::module_assign::assign_modules(&dfg, &schedule, &modules)
        .expect("assigns");
    let config = lobist::alloc::anneal::AnnealConfig {
        iterations: 60,
        ..Default::default()
    };
    let (result, stats) =
        anneal_multichain(&dfg, &schedule, flow.lifetime_options, &ma, &flow, &config, 1, 1)
            .expect("anneals");
    engine.metrics_handle().record_anneal(&result, &stats);
    golden::check(&golden_path("workloads"), &engine.metrics().to_json());
}
