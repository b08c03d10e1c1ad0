//! The engine's `"synthesis"` work counters: exact per design, and a
//! function of the batch's content alone, whatever the worker count.

use std::sync::Arc;

use lobist_alloc::explore::Candidate;
use lobist_alloc::flow::FlowOptions;
use lobist_alloc::work::SearchWork;
use lobist_dfg::benchmarks::{self, Benchmark};
use lobist_dfg::corpus::{generate, KINDS};
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::scheduling::list_schedule;
use lobist_engine::{metric, Engine, Job};

fn job(bench: &Benchmark) -> Job {
    Job {
        dfg: Arc::new(bench.dfg.clone()),
        candidate: Candidate {
            modules: bench.module_allocation.clone(),
            schedule: bench.schedule.clone(),
        },
        flow: FlowOptions::testable().with_lifetimes(bench.lifetime_options),
        label: bench.name.to_owned(),
    }
}

/// The work one fresh engine records for `jobs` on `workers` threads.
fn work_of(jobs: Vec<Job>, workers: usize) -> SearchWork {
    let engine = Engine::new(workers);
    engine.run(jobs);
    let snap = engine.metrics();
    SearchWork {
        pves_tests: snap.get(metric!("synthesis.pves_tests")),
        lemma2_evaluations: snap.get(metric!("synthesis.lemma2_evaluations")),
        label_nodes: snap.get(metric!("synthesis.label_nodes")),
        embeddings: snap.get(metric!("synthesis.embeddings")),
        bnb_nodes: snap.get(metric!("synthesis.bnb_nodes")),
    }
}

fn work(pves: u64, lemma2: u64, labels: u64, embeddings: u64, bnb: u64) -> SearchWork {
    SearchWork {
        pves_tests: pves,
        lemma2_evaluations: lemma2,
        label_nodes: labels,
        embeddings,
        bnb_nodes: bnb,
    }
}

#[test]
fn ex1_counts_are_exact() {
    let w = work_of(vec![job(&benchmarks::ex1())], 1);
    assert_eq!(w, work(11, 6, 20, 6, 3));
}

#[test]
fn paper_suite_counts_are_exact() {
    let expected = [
        ("ex1", work(11, 6, 20, 6, 3)),
        ("ex2", work(20, 12, 74, 20, 7)),
        ("Tseng1", work(24, 14, 56, 10, 8)),
        ("Tseng2", work(23, 10, 60, 20, 25)),
        ("Paulin", work(31, 11, 126, 36, 6)),
    ];
    let suite = benchmarks::paper_suite();
    assert_eq!(suite.len(), expected.len());
    let mut total = SearchWork::default();
    for (bench, (name, want)) in suite.iter().zip(expected) {
        assert_eq!(bench.name, name);
        assert_eq!(work_of(vec![job(bench)], 1), want, "{name}");
        total += want;
    }
    // One engine over the whole suite sums the per-design counts.
    assert_eq!(work_of(suite.iter().map(job).collect(), 2), total);
}

#[test]
fn corpus_batch_totals_do_not_depend_on_the_worker_count() {
    let modules: ModuleSet = "1+,1*,1-".parse().expect("a module set");
    let mut jobs = Vec::new();
    for kind in KINDS {
        for size in [8, 16, 24] {
            let dfg = generate(kind, size, 1);
            let schedule = list_schedule(&dfg, &modules).expect("corpus designs schedule");
            jobs.push(Job {
                dfg: Arc::new(dfg),
                candidate: Candidate {
                    modules: modules.clone(),
                    schedule,
                },
                flow: FlowOptions::testable(),
                label: format!("{}_n{size}", kind.name()),
            });
        }
    }
    // Every design twice: the repeat is a cache hit and does no work.
    let doubled: Vec<Job> = jobs.iter().chain(&jobs).cloned().collect();
    let serial = work_of(jobs.clone(), 1);
    assert!(
        serial.label_nodes > 0 && serial.bnb_nodes > 0 && serial.embeddings > 0,
        "{serial:?}"
    );
    assert_eq!(work_of(jobs, 2), serial);
    assert_eq!(work_of(doubled, 2), serial);
}
