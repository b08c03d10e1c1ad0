//! The multi-chain driver for the simulated-annealing register search.
//!
//! [`anneal_multichain`] runs N independent chains (seeds derived
//! deterministically from the base seed; chain 0 keeps it verbatim, so
//! one chain is the serial run) over the engine thread pool and merges
//! them by a deterministic best-of rule: lowest overhead, ties to the
//! lowest chain index. Each chain is one serial
//! `lobist_alloc::anneal::anneal_registers` walk that owns its cost
//! oracle, so the result — counters included — is the same for any
//! worker count, and no worker evaluates a move that is thrown away.

use std::time::{Duration, Instant};

use lobist_alloc::anneal::{anneal_registers, AnnealConfig, AnnealResult};
use lobist_alloc::flow::{FlowError, FlowOptions};
use lobist_datapath::ModuleAssignment;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::{Dfg, Schedule};

use crate::pool;

/// What an annealing run observed (alongside the [`AnnealResult`]
/// itself).
#[derive(Debug, Clone)]
pub struct AnnealStats {
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads the run used: the requested count, capped at one
    /// per chain.
    pub workers: usize,
    /// Chains run.
    pub chains: usize,
    /// Every chain's best overhead, in chain order.
    pub chain_overheads: Vec<u64>,
    /// Index of the winning chain.
    pub best_chain: usize,
}

impl AnnealStats {
    /// Move throughput of the winning chain (evaluated moves per second
    /// of the run's wall time).
    pub fn moves_per_sec(&self, result: &AnnealResult) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            f64::from(result.evaluated) / secs
        }
    }
}

/// Derives chain `i`'s seed. Chain 0 keeps the base seed verbatim so a
/// one-chain run reproduces the serial annealer exactly.
fn chain_seed(base: u64, chain: usize) -> u64 {
    base ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `chains` independent annealing chains across the pool and keeps
/// the deterministic best: lowest overhead, ties to the lowest chain
/// index. Each chain is serial (the parallelism is across chains), so
/// the merge is reproducible for any worker count. The run uses
/// `min(workers, chains)` workers of [`pool::run_jobs`], which runs a
/// one-worker drain in order on the calling thread.
///
/// # Errors
///
/// Returns the real [`FlowError`] if the initial coloring cannot be
/// synthesized and solved (every chain starts from the same left-edge
/// coloring, so one chain's initial failure is every chain's).
///
/// # Panics
///
/// Panics if `chains` is zero.
#[allow(clippy::too_many_arguments)]
pub fn anneal_multichain(
    dfg: &Dfg,
    schedule: &Schedule,
    lt_opts: LifetimeOptions,
    ma: &ModuleAssignment,
    flow: &FlowOptions,
    config: &AnnealConfig,
    chains: usize,
    workers: usize,
) -> Result<(AnnealResult, AnnealStats), FlowError> {
    assert!(chains >= 1, "need at least one chain");
    let start = Instant::now();
    let workers = workers.clamp(1, chains);
    let chain = |i: usize| {
        let cfg = AnnealConfig { seed: chain_seed(config.seed, i), ..*config };
        anneal_registers(dfg, schedule, lt_opts, ma, flow, &cfg)
    };
    let tasks: Vec<_> = (0..chains).map(|i| move || chain(i)).collect();
    let (outcomes, _) = pool::run_jobs(workers, tasks);
    let mut results: Vec<AnnealResult> = outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|m| panic!("anneal chain panicked: {m}")))
        .collect::<Result<_, _>>()?;
    let chain_overheads: Vec<u64> = results.iter().map(|r| r.overhead).collect();
    let best_chain = chain_overheads
        .iter()
        .enumerate()
        .min_by_key(|&(i, &o)| (o, i))
        .expect("at least one chain")
        .0;
    let stats = AnnealStats {
        wall: start.elapsed(),
        workers,
        chains,
        chain_overheads,
        best_chain,
    };
    Ok((results.swap_remove(best_chain), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;
    use lobist_alloc::flow::FlowOptions;
    use lobist_alloc::module_assign::assign_modules;
    use lobist_dfg::benchmarks;

    fn quick_config() -> AnnealConfig {
        AnnealConfig {
            iterations: 60,
            ..Default::default()
        }
    }

    #[test]
    fn chain_zero_keeps_the_base_seed() {
        assert_eq!(chain_seed(0xA11EA1, 0), 0xA11EA1);
        assert_ne!(chain_seed(0xA11EA1, 1), 0xA11EA1);
    }

    #[test]
    fn multichain_best_of_is_no_worse_than_any_chain() {
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let (result, stats) = anneal_multichain(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &quick_config(),
            3,
            2,
        )
        .unwrap();
        assert_eq!(stats.chains, 3);
        assert_eq!(stats.chain_overheads.len(), 3);
        assert_eq!(result.overhead, *stats.chain_overheads.iter().min().unwrap());
        assert_eq!(stats.chain_overheads[stats.best_chain], result.overhead);

        // The run's accounting lands in the engine metrics JSON.
        let metrics = crate::Metrics::new();
        metrics.record_anneal(&result, &stats);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(metric!("anneal.runs")), 1);
        assert_eq!(snap.get(metric!("anneal.chains")), 3);
        assert_eq!(
            snap.get(metric!("anneal.moves_evaluated")),
            u64::from(result.evaluated)
        );
        let json = snap.to_json();
        assert!(json.contains("\"anneal\":{\"runs\":1,\"chains\":3"), "{json}");

        // The incremental layer's label-cache counters ride along: the
        // winning chain evaluated moves, so the cache saw lookups, and
        // repeated problem shapes must have hit.
        assert!(snap.get(metric!("flow_cache.interconnect.misses")) > 0, "{json}");
        assert!(snap.get(metric!("flow_cache.interconnect.hits")) > 0, "{json}");
        assert!(json.contains("\"flow_cache\":{\"interconnect\":{\"hits\":"), "{json}");
        assert!(json.contains("\"delta_micros_log2\":["), "{json}");
    }

    #[test]
    fn one_chain_reproduces_the_serial_annealer() {
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let cfg = quick_config();
        let serial = lobist_alloc::anneal::anneal_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &cfg,
        )
        .unwrap();
        let (multi, _) = anneal_multichain(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &cfg,
            1,
            4,
        )
        .unwrap();
        assert_eq!(serial.fingerprint(), multi.fingerprint());
    }
}
