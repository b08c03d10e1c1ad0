//! Quick-mode smoke test for the annealing search engine: a small
//! iteration budget on one paper benchmark, exercising the memoized
//! oracle and the multi-chain driver end to end. Kept fast enough for
//! the tier-1 `cargo test -q` gate.

use lobist::alloc::anneal::{anneal_registers, AnnealConfig, AnnealResult};
use lobist::alloc::flow::FlowOptions;
use lobist::alloc::flowcache::StageStats;
use lobist::alloc::module_assign::assign_modules;
use lobist::dfg::benchmarks;
use lobist::engine::anneal_multichain;

/// A run's work counters (the flow cache's timing histogram is
/// wall-clock, so only its sample count is compared).
fn work(r: &AnnealResult) -> (u64, u64, StageStats, u64, u64) {
    let fc = &r.flow_cache;
    (
        r.oracle_hits,
        r.oracle_misses,
        fc.interconnect,
        fc.warm_starts,
        fc.delta_micros.iter().sum(),
    )
}

#[test]
fn quick_anneal_smoke() {
    let bench = benchmarks::ex1();
    let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
    let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
        .expect("module assignment");
    let config = AnnealConfig {
        iterations: 40,
        ..Default::default()
    };

    let serial = anneal_registers(
        &bench.dfg,
        &bench.schedule,
        bench.lifetime_options,
        &ma,
        &flow,
        &config,
    )
    .expect("serial anneal");
    assert!(serial.overhead <= serial.initial_overhead);
    assert_eq!(serial.evaluated + serial.stalled, config.iterations);

    for workers in [1, 2, 8] {
        let (chain, stats) = anneal_multichain(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &config,
            1,
            workers,
        )
        .expect("one-chain anneal");
        assert_eq!(
            serial.fingerprint(),
            chain.fingerprint(),
            "workers={workers}"
        );
        assert_eq!(work(&serial), work(&chain), "workers={workers}");
        assert_eq!(stats.chains, 1);
    }

    let (multi, mstats) = anneal_multichain(
        &bench.dfg,
        &bench.schedule,
        bench.lifetime_options,
        &ma,
        &flow,
        &config,
        2,
        2,
    )
    .expect("multichain anneal");
    assert_eq!(mstats.chain_overheads.len(), 2);
    assert!(multi.overhead <= serial.overhead, "best-of includes the serial chain");
}
