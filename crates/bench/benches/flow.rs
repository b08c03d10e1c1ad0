//! Criterion benchmarks for the incremental flow cache: cache-miss
//! move-evaluation latency — the cost of pricing a coloring the oracle
//! has never seen — with warm stage caches against the from-scratch
//! reference pipeline (interconnect binding + data-path assembly + BIST
//! solve + netlist statistics). The headline numbers land in
//! BENCH_flow.json.
//!
//! A second group times full synthesis of the two heaviest designs of
//! the seed-1 corpus sweep (BENCH_synthesis.json).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_alloc::baseline_regalloc::{self, BaselineAlgorithm};
use lobist_alloc::flow::FlowOptions;
use lobist_alloc::flowcache::FlowCache;
use lobist_alloc::module_assign::assign_modules;
use lobist_datapath::ModuleAssignment;
use lobist_dfg::benchmarks::{self, Benchmark};
use lobist_dfg::lifetime::Lifetimes;
use lobist_dfg::VarId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct colorings from an annealing-style random walk (one variable
/// to another conflict-free register per step) — the exact population a
/// cache-missing oracle lookup prices during a search.
fn walk_colorings(bench: &Benchmark, steps: usize, seed: u64) -> Vec<Vec<Vec<VarId>>> {
    let lifetimes = Lifetimes::compute(&bench.dfg, &bench.schedule, bench.lifetime_options);
    let initial = baseline_regalloc::allocate_registers(
        &bench.dfg,
        &bench.schedule,
        bench.lifetime_options,
        BaselineAlgorithm::LeftEdge,
    )
    .expect("left-edge coloring");
    let mut classes: Vec<Vec<VarId>> = initial.classes().to_vec();
    let mut reg_of = vec![usize::MAX; bench.dfg.num_vars()];
    for (r, c) in classes.iter().enumerate() {
        for &v in c {
            reg_of[v.index()] = r;
        }
    }
    let reg_vars = lifetimes.reg_vars().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![classes.clone()];
    'walk: while out.len() < steps {
        for _ in 0..64 {
            let v = reg_vars[rng.gen_range(0..reg_vars.len())];
            let from = reg_of[v.index()];
            let to = rng.gen_range(0..classes.len());
            let ok = to != from
                && classes[from].len() > 1
                && !classes[to].iter().any(|&u| lifetimes.conflicts(u, v));
            if ok {
                classes[from].retain(|&u| u != v);
                classes[to].push(v);
                reg_of[v.index()] = to;
                out.push(classes.clone());
                continue 'walk;
            }
        }
        break;
    }
    out
}

fn setup(bench: &Benchmark) -> (FlowOptions, ModuleAssignment) {
    let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
    let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
        .expect("module assignment");
    (flow, ma)
}

/// One evaluation per iteration, cycling through the walk's colorings so
/// every call prices a state the coloring-level (L1) cache would miss.
fn bench_move_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_move_eval");
    for bench in [benchmarks::ex1(), benchmarks::paulin(), benchmarks::diffeq_unrolled(2)] {
        let (flow, ma) = setup(&bench);
        let colorings = walk_colorings(&bench, 64, 0xF10C + bench.dfg.num_ops() as u64);
        let mut cache = FlowCache::new(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
        );
        // Warm the stage caches once: the steady-state regime of a search,
        // where shapes and connectivities repeat across colorings.
        for classes in &colorings {
            let _ = cache.evaluate(classes);
        }
        group.bench_with_input(
            BenchmarkId::new("uncached_before", &bench.name),
            &colorings,
            |b, colorings| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % colorings.len();
                    cache.evaluate_uncached(&colorings[i]).expect("feasible coloring")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("flowcache_after", &bench.name),
            &colorings,
            |b, colorings| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % colorings.len();
                    cache.evaluate(&colorings[i]).expect("feasible coloring")
                })
            },
        );
    }
    group.finish();
}

/// `flow::synthesize` on the canonical form of the sweep's heavy tails
/// under `1+,1*,1-`: matmul of dimension 6 (PVES and the Lemma-2 veto
/// over hundreds of variables) and diffeq at size 56 (long embedding
/// lists for the branch-and-bound).
fn bench_synthesis_tails(c: &mut Criterion) {
    use lobist_alloc::flow::synthesize;
    use lobist_dfg::canon::canonize;
    use lobist_dfg::corpus::{generate, CorpusKind};
    use lobist_dfg::modules::ModuleSet;
    use lobist_dfg::scheduling::list_schedule;

    let modules: ModuleSet = "1+,1*,1-".parse().expect("a module set");
    let flow = FlowOptions::testable();
    let mut group = c.benchmark_group("synthesis_tails");
    for (name, kind, size) in [
        ("matmul_d6", CorpusKind::Matmul, 36),
        ("diffeq_n56", CorpusKind::Diffeq, 56),
    ] {
        let dfg = generate(kind, size, 1);
        let schedule = list_schedule(&dfg, &modules).expect("corpus designs schedule");
        let canon = canonize(&dfg, &schedule);
        group.bench_with_input(BenchmarkId::new("synthesize", name), &name, |b, _| {
            b.iter(|| {
                synthesize(&canon.dfg, &canon.schedule, &modules, &flow).expect("synthesizes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_move_eval, bench_synthesis_tails);
criterion_main!(benches);
