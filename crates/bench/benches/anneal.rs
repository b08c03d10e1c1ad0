//! Criterion benchmarks for the annealing search engine: the
//! memoized-oracle serial chain on two paper designs and in the cold
//! regime of fir(8), independent chains at 1, 2 and N workers, and the
//! heap-based clique partitioner against its naive reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_alloc::anneal::{anneal_registers, AnnealConfig};
use lobist_alloc::flow::FlowOptions;
use lobist_alloc::module_assign::assign_modules;
use lobist_datapath::ModuleAssignment;
use lobist_dfg::benchmarks::{self, Benchmark};
use lobist_graph::clique_partition::{partition_weighted, partition_weighted_naive};
use lobist_graph::UGraph;

fn setup(bench: &Benchmark) -> (FlowOptions, ModuleAssignment) {
    let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
    let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
        .expect("module assignment");
    (flow, ma)
}

fn bench_chain(c: &mut Criterion, group: &str, id: &str, bench: &Benchmark, cfg: &AnnealConfig) {
    let (flow, ma) = setup(bench);
    let mut group = c.benchmark_group(group);
    group.bench_with_input(BenchmarkId::new(id, &bench.name), bench, |b, bench| {
        b.iter(|| {
            anneal_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                cfg,
            )
            .expect("anneal")
        })
    });
    group.finish();
}

fn bench_serial_oracle(c: &mut Criterion) {
    let cfg = AnnealConfig {
        iterations: 400,
        ..Default::default()
    };
    for bench in [benchmarks::ex1(), benchmarks::paulin()] {
        bench_chain(c, "anneal_serial", "memoized_after", &bench, &cfg);
    }
}

/// The cold (converged) phase of fir(8), where one BIST solve costs
/// ~170 µs; the same configuration as the `anneal_parallel` rows kept
/// in BENCH_anneal.json, so the numbers stay comparable.
fn bench_cold_chain(c: &mut Criterion) {
    let cfg = AnnealConfig {
        iterations: 120,
        initial_temperature: 0.5,
        ..Default::default()
    };
    bench_chain(c, "anneal_cold", "serial_chain", &benchmarks::fir(8), &cfg);
}

fn bench_multichain(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut group = c.benchmark_group("anneal_multichain");
    let bench = benchmarks::fir(8);
    let (flow, ma) = setup(&bench);
    let cfg = AnnealConfig { iterations: 60, ..Default::default() };
    let chains = 4usize;
    let mut workers = vec![1usize, 2];
    if !workers.contains(&cores.min(chains)) {
        workers.push(cores.min(chains));
    }
    for w in workers {
        group.bench_with_input(BenchmarkId::new("chains4_workers", w), &w, |b, &w| {
            b.iter(|| {
                lobist_engine::anneal_multichain(
                    &bench.dfg,
                    &bench.schedule,
                    bench.lifetime_options,
                    &ma,
                    &flow,
                    &cfg,
                    chains,
                    w,
                )
                .expect("anneal")
            })
        });
    }
    group.finish();
}

fn clique_graph(n: usize) -> UGraph {
    let mut g = UGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if (u * 31 + v * 17) % 3 != 0 {
                g.add_edge(u, v);
            }
        }
    }
    g
}

fn bench_clique_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("clique_partition");
    for n in [32usize, 96] {
        let g = clique_graph(n);
        let w = |u: usize, v: usize| ((u.min(v) * 13 + u.max(v) * 5) % 11) as i64 - 3;
        group.bench_with_input(BenchmarkId::new("naive", n), &g, |b, g| {
            b.iter(|| partition_weighted_naive(g, w))
        });
        group.bench_with_input(BenchmarkId::new("heap", n), &g, |b, g| {
            b.iter(|| partition_weighted(g, w))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_oracle,
    bench_cold_chain,
    bench_multichain,
    bench_clique_partition
);
criterion_main!(benches);
