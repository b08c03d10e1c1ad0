//! Criterion micro-benchmarks for the per-design front end: parsing an
//! unscheduled design, list-scheduling it, canonizing it and hashing
//! its origin fingerprint — the work every job pays before a cache
//! probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_dfg::benchmarks;
use lobist_dfg::canon::canonize;
use lobist_dfg::corpus::{generate, CorpusKind};
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::{parse_unscheduled_dfg, to_text_unscheduled};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{Dfg, Schedule};
use lobist_engine::origin_fingerprint;

/// The largest designs of each corpus family in the `sweep-cold`
/// workload, as unscheduled text, parsed graph and list schedule under
/// its module set.
fn corpus() -> Vec<(String, String, Dfg, Schedule)> {
    let modules: ModuleSet = "1+,1*,1-".parse().expect("a module set");
    [
        (CorpusKind::Fir, 64, "fir_n64"),
        (CorpusKind::Iir, 64, "iir_n64"),
        (CorpusKind::Diffeq, 56, "diffeq_n56"),
        (CorpusKind::Matmul, 36, "matmul_d6"),
    ]
    .into_iter()
    .map(|(kind, size, name)| {
        let text = to_text_unscheduled(&generate(kind, size, 1));
        let dfg = parse_unscheduled_dfg(&text).expect("corpus text parses");
        let schedule = list_schedule(&dfg, &modules).expect("corpus designs schedule");
        (name.to_owned(), text, dfg, schedule)
    })
    .collect()
}

/// Raw canonizer latency: WL refinement + tie-breaking + encoding.
fn bench_canonize(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonize");
    for bench in benchmarks::paper_suite() {
        group.bench_with_input(BenchmarkId::new("paper", &bench.name), &bench, |b, bench| {
            b.iter(|| canonize(&bench.dfg, &bench.schedule))
        });
    }
    let big = benchmarks::diffeq_unrolled(4);
    group.bench_with_input(BenchmarkId::new("large", &big.name), &big, |b, bench| {
        b.iter(|| canonize(&bench.dfg, &bench.schedule))
    });
    for (name, _, dfg, schedule) in corpus() {
        group.bench_function(BenchmarkId::new("corpus", &name), |b| {
            b.iter(|| canonize(&dfg, &schedule))
        });
    }
    group.finish();
}

/// The loader's half of the front end, and the fingerprint that tells
/// an exact cache hit from an isomorphic one.
fn bench_front_end(c: &mut Criterion) {
    let corpus = corpus();
    let modules: ModuleSet = "1+,1*,1-".parse().expect("a module set");
    let mut group = c.benchmark_group("parse_unscheduled_dfg");
    for (name, text, _, _) in &corpus {
        group.bench_function(name.as_str(), |b| b.iter(|| parse_unscheduled_dfg(text)));
    }
    group.finish();
    let mut group = c.benchmark_group("list_schedule");
    for (name, _, dfg, _) in &corpus {
        group.bench_function(name.as_str(), |b| b.iter(|| list_schedule(dfg, &modules)));
    }
    group.finish();
    let mut group = c.benchmark_group("origin_fingerprint");
    for (name, _, dfg, schedule) in &corpus {
        group.bench_function(name.as_str(), |b| b.iter(|| origin_fingerprint(dfg, schedule)));
    }
    group.finish();
}

criterion_group!(benches, bench_canonize, bench_front_end);
criterion_main!(benches);
