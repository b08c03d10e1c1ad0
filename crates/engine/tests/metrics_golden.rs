//! Golden snapshot of the `"store"` section: an engine answered from a
//! durable store another engine wrote (timing values masked; see
//! `tests/support/metrics_golden.rs` at the repository root).
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p lobist-engine --test metrics_golden
//! ```

use std::sync::Arc;

use lobist_alloc::explore::Candidate;
use lobist_alloc::flow::FlowOptions;
use lobist_dfg::benchmarks;
use lobist_engine::{Engine, Job, ResultStore};
use lobist_store::{DiskStore, DiskStoreConfig};

#[path = "../../../tests/support/metrics_golden.rs"]
mod golden;

fn job() -> Job {
    let bench = benchmarks::ex1();
    Job {
        dfg: Arc::new(bench.dfg.clone()),
        candidate: Candidate {
            modules: bench.module_allocation.clone(),
            schedule: bench.schedule.clone(),
        },
        flow: FlowOptions::testable().with_lifetimes(bench.lifetime_options),
        label: bench.module_allocation.to_string(),
    }
}

#[test]
fn store_metrics_golden() {
    let dir = std::env::temp_dir().join("lobist-engine-metrics-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("store.log");
    let _ = std::fs::remove_file(&path);
    let open = || -> Arc<dyn ResultStore> {
        Arc::new(DiskStore::open(&path, DiskStoreConfig::default()).expect("open store"))
    };
    // The first engine evaluates and writes through.
    Engine::new(1).with_store(open()).run(vec![job()]);
    // A fresh engine on the reopened store: a store hit, then a memory
    // hit of the promoted entry.
    let engine = Engine::new(1).with_store(open());
    engine.run(vec![job()]);
    engine.run(vec![job()]);
    golden::check(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/metrics/store.json"),
        &engine.metrics().to_json(),
    );
}
