//! Criterion benchmarks for the parallel batch synthesis engine: sweep
//! throughput at 1, 2 and N workers, and the cache hit path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_alloc::explore::{explore, ExploreConfig};
use lobist_dfg::benchmarks;
use lobist_dfg::modules::ModuleSet;
use lobist_engine::{explore_parallel, Engine};

fn sweep_config() -> (lobist_dfg::Dfg, ExploreConfig) {
    let bench = benchmarks::paulin();
    let candidates: Vec<ModuleSet> = ["1+,1*,1-", "1+,2*,1-", "2+,2*,2-", "1+,3ALU"]
        .iter()
        .map(|s| s.parse().expect("valid"))
        .collect();
    let mut config = ExploreConfig::new(candidates);
    config.flow = config.flow.with_lifetimes(bench.lifetime_options);
    (bench.dfg, config)
}

fn bench_sweep_workers(c: &mut Criterion) {
    let (dfg, config) = sweep_config();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut group = c.benchmark_group("engine_sweep");
    group.bench_function("serial_reference", |b| b.iter(|| explore(&dfg, &config)));
    let mut workers = vec![1usize, 2];
    if cores > 2 {
        workers.push(cores);
    }
    for w in workers {
        group.bench_with_input(BenchmarkId::new("workers", w), &w, |b, &w| {
            // A fresh engine per iteration: this measures evaluation
            // throughput, not the cache.
            b.iter(|| explore_parallel(&dfg, &config, &Engine::new(w), w))
        });
    }
    group.finish();
}

fn bench_cache_hit_path(c: &mut Criterion) {
    let (dfg, config) = sweep_config();
    let mut group = c.benchmark_group("engine_cache");
    let warm = Engine::new(2);
    let _ = explore_parallel(&dfg, &config, &warm, 2);
    group.bench_function("warm_sweep", |b| {
        b.iter(|| explore_parallel(&dfg, &config, &warm, 2))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_workers, bench_cache_hit_path);
criterion_main!(benches);
