//! Parallel drivers for the simulated-annealing register search.
//!
//! Two orthogonal axes of parallelism, both with a guaranteed
//! deterministic outcome:
//!
//! * [`anneal_parallel`] — one annealing chain whose speculative
//!   candidate batches ([`AnnealConfig::batch`]) are evaluated on the
//!   engine thread pool via [`PoolEvaluator`]. The core's
//!   sequential-acceptance replay makes the committed trajectory
//!   byte-identical to the serial annealer for any worker count.
//! * [`anneal_multichain`] — N independent chains (seeds derived
//!   deterministically from the base seed; chain 0 keeps it verbatim, so
//!   one chain reproduces the serial run) drained over the pool, merged
//!   by a deterministic best-of rule: lowest overhead, ties to the
//!   lowest chain index.

use std::time::{Duration, Instant};

use lobist_alloc::anneal::{
    anneal_registers_with, AnnealConfig, AnnealResult, BatchEvaluator, Coloring, CostOracle,
    SerialEvaluator,
};
use lobist_alloc::flow::{FlowError, FlowOptions};
use lobist_datapath::ModuleAssignment;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::{Dfg, Schedule};

use crate::pool;

/// Evaluates speculative candidate batches on the engine thread pool.
/// All workers feed the one shared [`CostOracle`] cache; results come
/// back in submission order, so replay sees exactly what the serial
/// evaluator would.
pub struct PoolEvaluator {
    /// Worker threads for batch evaluation (≤ 1 degrades to in-thread).
    pub workers: usize,
}

impl BatchEvaluator for PoolEvaluator {
    fn evaluate(&self, oracle: &CostOracle<'_>, trials: &[Coloring]) -> Vec<Result<u64, FlowError>> {
        if self.workers <= 1 || trials.len() <= 1 {
            return trials.iter().map(|t| oracle.cost(t)).collect();
        }
        let tasks: Vec<_> = trials.iter().map(|t| move || oracle.cost(t)).collect();
        let (results, _) = pool::run_jobs(self.workers, tasks);
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|m| panic!("anneal cost evaluation panicked: {m}")))
            .collect()
    }
}

/// What a parallel annealing run observed (alongside the
/// [`AnnealResult`] itself).
#[derive(Debug, Clone)]
pub struct AnnealStats {
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads requested.
    pub workers: usize,
    /// Chains run (1 for [`anneal_parallel`]).
    pub chains: usize,
    /// Every chain's best overhead, in chain order.
    pub chain_overheads: Vec<u64>,
    /// Index of the winning chain.
    pub best_chain: usize,
}

impl AnnealStats {
    /// Committed-trajectory move throughput (evaluated moves per
    /// second of wall time), the headline number of the PR's bench.
    pub fn moves_per_sec(&self, result: &AnnealResult) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            f64::from(result.evaluated) / secs
        }
    }
}

/// One annealing chain with pool-backed speculative batch evaluation.
/// Byte-identical to `lobist_alloc::anneal::anneal_registers` for every
/// `workers` and `config.batch` value.
///
/// # Errors
///
/// Returns the real [`FlowError`] if the initial coloring cannot be
/// synthesized and solved.
pub fn anneal_parallel(
    dfg: &Dfg,
    schedule: &Schedule,
    lt_opts: LifetimeOptions,
    ma: &ModuleAssignment,
    flow: &FlowOptions,
    config: &AnnealConfig,
    workers: usize,
) -> Result<(AnnealResult, AnnealStats), FlowError> {
    let start = Instant::now();
    let evaluator = PoolEvaluator { workers };
    let result = anneal_registers_with(dfg, schedule, lt_opts, ma, flow, config, &evaluator)?;
    let stats = AnnealStats {
        wall: start.elapsed(),
        workers,
        chains: 1,
        chain_overheads: vec![result.overhead],
        best_chain: 0,
    };
    Ok((result, stats))
}

/// Derives chain `i`'s seed. Chain 0 keeps the base seed verbatim so a
/// one-chain run reproduces the serial annealer exactly.
fn chain_seed(base: u64, chain: usize) -> u64 {
    base ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `chains` independent annealing chains across the pool and keeps
/// the deterministic best: lowest overhead, ties to the lowest chain
/// index. Each chain evaluates serially (the parallelism is across
/// chains), so the merge is reproducible for any worker count.
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
    let tasks: Vec<_> = (0..chains)
        .map(|i| {
            let cfg = AnnealConfig { seed: chain_seed(config.seed, i), ..*config };
            move || anneal_registers_with(dfg, schedule, lt_opts, ma, flow, &cfg, &SerialEvaluator)
        })
        .collect();
    let (outcomes, _) = pool::run_jobs(workers.max(1), tasks);
    let mut results = Vec::with_capacity(chains);
    for outcome in outcomes {
        results.push(outcome.unwrap_or_else(|m| panic!("anneal chain panicked: {m}"))?);
    }
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
        AnnealConfig { iterations: 60, batch: 8, ..Default::default() }
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

        // The incremental layer's stage counters ride along: the winning
        // chain evaluated moves, so each stage saw lookups, and repeated
        // problem shapes / module connectivities must have hit.
        assert!(snap.get(metric!("flow_cache.interconnect.misses")) > 0, "{json}");
        assert!(snap.get(metric!("flow_cache.interconnect.hits")) > 0, "{json}");
        assert!(snap.get(metric!("flow_cache.embeddings.hits")) > 0, "{json}");
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
