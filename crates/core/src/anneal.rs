//! Simulated-annealing register assignment: a search-based yardstick for
//! the paper's constructive heuristic.
//!
//! The paper claims its PVES/ΔSD/Lemma-2 ordering finds low-BIST-overhead
//! colorings without search. This module provides the comparison point:
//! anneal over *proper minimum colorings* of the conflict graph with the
//! true objective — the minimal-area BIST cost of the resulting data
//! path, as judged by the exact solver — and see how much headroom the
//! heuristic leaves.
//!
//! The walk is one serial Metropolis chain, and its hot path is built
//! for throughput:
//!
//! * a [`CostOracle`] content-addresses canonical colorings (FNV-1a-128)
//!   so revisited states — common under geometric cooling — skip the
//!   interconnect binding and BIST solve entirely;
//! * an incremental `var → register` index replaces the per-move linear
//!   scan over the classes.
//!
//! Each chain owns its oracle, so the counters are a pure function of
//! the seed and the move budget. Parallelism lives one level up, across
//! independent chains (`lobist-engine`'s `anneal_multichain`).
//!
//! Two independent RNG streams (move generation, acceptance) are derived
//! from the one seed: accept draws are consumed only for uphill moves.
//! Merging them would change every trajectory, so both stay.

use std::collections::HashMap;

use lobist_datapath::{ModuleAssignment, RegisterAssignment};
use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::{Dfg, Schedule, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::baseline_regalloc::{self, BaselineAlgorithm};
use crate::flow::{FlowError, FlowOptions};
use crate::flowcache::{fnv_sep, fnv_word, FlowCache, FlowCacheStats, FNV_OFFSET};

/// A register coloring: one variable list per register.
pub type Coloring = Vec<Vec<VarId>>;

/// Annealer configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Evaluated moves to perform (stalls — steps where no feasible move
    /// could be proposed within [`AnnealConfig::max_retries`] — also
    /// consume an iteration so the walk always terminates).
    pub iterations: u32,
    /// Initial temperature (in gate-count units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per move.
    pub cooling: f64,
    /// RNG seed (the annealer is deterministic given the seed).
    pub seed: u64,
    /// Move-proposal retries within one iteration before declaring a
    /// stall (self-moves, conflicts and register-emptying picks retry
    /// instead of wasting the iteration).
    pub max_retries: u32,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 400,
            initial_temperature: 40.0,
            cooling: 0.99,
            seed: 0xA11EA1,
            max_retries: 64,
        }
    }
}

/// The annealer's outcome.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// The best register assignment found.
    pub registers: RegisterAssignment,
    /// Its BIST overhead in gates.
    pub overhead: u64,
    /// The initial (left-edge) coloring's BIST overhead.
    pub initial_overhead: u64,
    /// Moves accepted.
    pub accepted: u32,
    /// Moves evaluated.
    pub evaluated: u32,
    /// Move proposals retried within steps (self-move, conflict, or
    /// register-emptying picks).
    pub skipped: u32,
    /// Steps that exhausted [`AnnealConfig::max_retries`] without a
    /// feasible proposal.
    pub stalled: u32,
    /// Evaluated moves whose data path failed to synthesize or solve
    /// (rejected without an acceptance draw).
    pub infeasible: u32,
    /// Cost-oracle cache hits.
    pub oracle_hits: u64,
    /// Cost-oracle cache misses (incremental flow evaluations).
    pub oracle_misses: u64,
    /// Stage-level counters of the oracle's incremental evaluation
    /// layer. Depends on cache capacities; not part of the trajectory.
    pub flow_cache: FlowCacheStats,
}

impl AnnealResult {
    /// The trajectory fingerprint: the best coloring and every move
    /// count. The oracle counters and the flow-cache stats are
    /// excluded — they are work accounting, and the flow-cache stats
    /// carry wall-clock timings.
    pub fn fingerprint(&self) -> (Vec<Vec<VarId>>, u64, u64, u32, u32, u32, u32, u32) {
        (
            self.registers.classes().to_vec(),
            self.overhead,
            self.initial_overhead,
            self.accepted,
            self.evaluated,
            self.skipped,
            self.stalled,
            self.infeasible,
        )
    }
}

/// Content address of a coloring, invariant under class reordering and
/// within-class variable order: the cost depends only on which variables
/// share a register, not on register numbering (interconnect binding
/// interns sources in operation order and the exact BIST solve is
/// invariant under data-path isomorphism), so canonicalizing maximizes
/// cache reuse.
fn canonical_key(classes: &[Vec<VarId>]) -> u128 {
    let mut canon: Vec<Vec<u32>> = classes
        .iter()
        .map(|c| {
            let mut v: Vec<u32> = c.iter().map(|x| x.0).collect();
            v.sort_unstable();
            v
        })
        .collect();
    canon.sort_unstable();
    let mut h = FNV_OFFSET;
    for class in &canon {
        for &v in class {
            h = fnv_word(h, u64::from(v));
        }
        h = fnv_sep(h);
    }
    h
}

/// Memoizing cost oracle: coloring → exact BIST overhead of the
/// synthesized data path, content-addressed by `canonical_key`.
/// Owned by one annealing chain, so lookups take `&mut self` and need
/// no locks.
///
/// Misses don't re-run the full pipeline: they go through an L2, the
/// incremental [`FlowCache`], which memoizes the pipeline *stages*
/// (interconnect shapes, per-module embeddings, warm-started selection)
/// so a one-variable move only recomputes what it touched.
pub struct CostOracle<'a> {
    flow_cache: FlowCache<'a>,
    cache: HashMap<u128, Result<u64, FlowError>>,
    hits: u64,
    misses: u64,
}

impl<'a> CostOracle<'a> {
    /// Builds an oracle over one design's fixed module assignment.
    pub fn new(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        lt_opts: LifetimeOptions,
        ma: &'a ModuleAssignment,
        flow: &'a FlowOptions,
    ) -> Self {
        Self {
            flow_cache: FlowCache::new(dfg, schedule, lt_opts, ma, flow),
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The memoized cost of a coloring.
    ///
    /// # Errors
    ///
    /// Returns the pipeline stage's real [`FlowError`] when the coloring
    /// cannot be synthesized or solved (errors are cached too).
    pub fn cost(&mut self, classes: &[Vec<VarId>]) -> Result<u64, FlowError> {
        let key = canonical_key(classes);
        if let Some(r) = self.cache.get(&key) {
            self.hits += 1;
            return r.clone();
        }
        let r = self.flow_cache.evaluate(classes).map(|eval| eval.overhead);
        self.misses += 1;
        self.cache.insert(key, r.clone());
        r
    }

    /// The from-scratch cost: register assignment → interconnect binding
    /// → data-path assembly → exact BIST solve. No cache involved; the
    /// property tests compare [`CostOracle::cost`] against this.
    ///
    /// # Errors
    ///
    /// Returns the failing stage's [`FlowError`].
    pub fn cost_uncached(&mut self, classes: &[Vec<VarId>]) -> Result<u64, FlowError> {
        self.flow_cache.evaluate_uncached(classes).map(|e| e.overhead)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (full solves) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct colorings cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` if nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The incremental evaluation layer behind cache misses.
    pub fn flow_cache(&self) -> &FlowCache<'a> {
        &self.flow_cache
    }
}

/// Offset between the move-generation and acceptance RNG streams.
const ACCEPT_STREAM_SALT: u64 = 0xACCE_97ED_5EED_0001;

/// Proposes one move, retrying (bounded) past self-moves, conflicts and
/// register-emptying picks. Returns the move and the number of retries
/// consumed; `None` means a stall.
#[allow(clippy::type_complexity)]
fn propose(
    classes: &Coloring,
    reg_of: &[usize],
    reg_vars: &[VarId],
    lifetimes: &Lifetimes,
    rng: &mut StdRng,
    max_retries: u32,
) -> (Option<(VarId, usize, usize)>, u32) {
    let mut skips = 0u32;
    while skips <= max_retries {
        let v = reg_vars[rng.gen_range(0..reg_vars.len())];
        let from = reg_of[v.index()];
        let to = rng.gen_range(0..classes.len());
        let ok = to != from
            && classes[from].len() > 1 // hold the register count fixed
            && !classes[to].iter().any(|&u| lifetimes.conflicts(u, v));
        if ok {
            return (Some((v, from, to)), skips);
        }
        skips += 1;
    }
    (None, skips - 1)
}

/// Anneals over proper colorings with the solved BIST overhead as the
/// objective. The move set re-assigns one variable to another
/// compatible register (register count is held at the initial
/// coloring's, so the comparison against the heuristic is
/// area-for-area). The result — trajectory and counters alike —
/// depends only on the design and `config`.
///
/// # Errors
///
/// Returns the real [`FlowError`] if the initial (left-edge) coloring
/// cannot be synthesized and solved.
pub fn anneal_registers(
    dfg: &Dfg,
    schedule: &Schedule,
    lt_opts: LifetimeOptions,
    ma: &ModuleAssignment,
    flow: &FlowOptions,
    config: &AnnealConfig,
) -> Result<AnnealResult, FlowError> {
    let lifetimes = Lifetimes::compute(dfg, schedule, lt_opts);
    let initial = baseline_regalloc::allocate_registers(
        dfg,
        schedule,
        lt_opts,
        BaselineAlgorithm::LeftEdge,
    )?;
    let mut classes: Coloring = initial.classes().to_vec();
    let mut oracle = CostOracle::new(dfg, schedule, lt_opts, ma, flow);
    let mut cost = oracle.cost(&classes)?;
    let initial_overhead = cost;
    let mut best = (classes.clone(), cost);

    let reg_vars: Vec<VarId> = lifetimes.reg_vars().to_vec();
    // Incremental var → register index (replaces the per-move linear
    // scan over classes).
    let mut reg_of = vec![usize::MAX; dfg.num_vars()];
    for (r, c) in classes.iter().enumerate() {
        for &v in c {
            reg_of[v.index()] = r;
        }
    }

    let mut move_rng = StdRng::seed_from_u64(config.seed);
    let mut accept_rng = StdRng::seed_from_u64(config.seed ^ ACCEPT_STREAM_SALT);
    let mut temperature = config.initial_temperature;
    let (mut accepted, mut evaluated, mut skipped) = (0u32, 0u32, 0u32);
    let (mut stalled, mut infeasible) = (0u32, 0u32);

    let movable = !reg_vars.is_empty() && classes.len() >= 2;
    let steps = if movable { config.iterations } else { 0 };
    for _ in 0..steps {
        temperature *= config.cooling;
        let (m, skips) = propose(
            &classes,
            &reg_of,
            &reg_vars,
            &lifetimes,
            &mut move_rng,
            config.max_retries,
        );
        skipped += skips;
        let Some((v, from, to)) = m else {
            // A stall consumes the iteration, so the walk terminates.
            stalled += 1;
            continue;
        };
        evaluated += 1;
        let mut trial = classes.clone();
        trial[from].retain(|&u| u != v);
        trial[to].push(v);
        let trial_cost = match oracle.cost(&trial) {
            Ok(c) => c,
            Err(_) => {
                infeasible += 1;
                continue;
            }
        };
        let delta = trial_cost as f64 - cost as f64;
        let accept = delta <= 0.0
            || (temperature > 1e-9 && accept_rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            classes = trial;
            reg_of[v.index()] = to;
            cost = trial_cost;
            accepted += 1;
            if cost < best.1 {
                best = (classes.clone(), cost);
            }
        }
    }

    Ok(AnnealResult {
        registers: RegisterAssignment::new(dfg, best.0)?,
        overhead: best.1,
        initial_overhead,
        accepted,
        evaluated,
        skipped,
        stalled,
        infeasible,
        oracle_hits: oracle.hits(),
        oracle_misses: oracle.misses(),
        flow_cache: oracle.flow_cache().stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{synthesize_benchmark, FlowOptions};
    use crate::module_assign::assign_modules;
    use lobist_dfg::benchmarks;

    #[test]
    fn annealer_never_beats_heuristic_by_much_on_the_suite() {
        // The paper's claim, quantified: the constructive heuristic is
        // close to what costly search finds at the same register count.
        let mut heuristic_total = 0u64;
        let mut annealed_total = 0u64;
        for bench in benchmarks::paper_suite() {
            let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
            let d = synthesize_benchmark(&bench, &FlowOptions::testable()).unwrap();
            let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
                .unwrap();
            let result = anneal_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                &AnnealConfig {
                    iterations: 200,
                    ..Default::default()
                },
            )
            .unwrap();
            heuristic_total += d.bist.overhead.get();
            annealed_total += result.overhead;
            assert!(result.evaluated > 0, "{}", bench.name);
        }
        // Across the suite the heuristic must stay within 25% of the
        // annealed search (in practice it ties or wins on most designs).
        assert!(
            heuristic_total as f64 <= annealed_total as f64 * 1.25,
            "heuristic {heuristic_total} vs annealed {annealed_total}"
        );
    }

    #[test]
    fn annealing_improves_or_ties_the_left_edge_start() {
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let start = baseline_regalloc::allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            BaselineAlgorithm::LeftEdge,
        )
        .unwrap();
        let result = anneal_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &AnnealConfig::default(),
        )
        .unwrap();
        assert!(result.overhead <= result.initial_overhead);
        assert_eq!(result.registers.num_registers(), start.num_registers());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let run = || {
            anneal_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                &AnnealConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            (a.oracle_hits, a.oracle_misses),
            (b.oracle_hits, b.oracle_misses)
        );
    }

    #[test]
    fn iterations_mean_evaluated_moves() {
        // The old move generator consumed an iteration on every
        // self-move/conflict pick; the bounded-retry generator must not.
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let result = anneal_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            &AnnealConfig { iterations: 100, ..Default::default() },
        )
        .unwrap();
        assert_eq!(result.evaluated + result.stalled, 100);
    }

    #[test]
    fn oracle_cache_agrees_with_uncached_on_the_walk() {
        // Property (a): the memoized oracle must report exactly the
        // from-scratch cost on every coloring a random walk visits.
        let bench = benchmarks::ex1();
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma =
            assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let lifetimes =
            Lifetimes::compute(&bench.dfg, &bench.schedule, bench.lifetime_options);
        let initial = baseline_regalloc::allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            BaselineAlgorithm::LeftEdge,
        )
        .unwrap();
        let mut oracle = CostOracle::new(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
        );
        let mut classes: Coloring = initial.classes().to_vec();
        let mut reg_of = vec![usize::MAX; bench.dfg.num_vars()];
        for (r, c) in classes.iter().enumerate() {
            for &v in c {
                reg_of[v.index()] = r;
            }
        }
        let reg_vars = lifetimes.reg_vars().to_vec();
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut moved = 0;
        for _ in 0..300 {
            let (m, _) = propose(&classes, &reg_of, &reg_vars, &lifetimes, &mut rng, 64);
            let Some((v, from, to)) = m else { continue };
            classes[from].retain(|&u| u != v);
            classes[to].push(v);
            reg_of[v.index()] = to;
            assert_eq!(oracle.cost(&classes), oracle.cost_uncached(&classes));
            // Revisit under a permuted class order: same canonical key,
            // and the cost really is permutation-invariant.
            let mut permuted = classes.clone();
            permuted.rotate_left(1);
            assert_eq!(oracle.cost(&permuted), oracle.cost_uncached(&classes));
            moved += 1;
        }
        assert!(moved > 50, "walk barely moved ({moved})");
        assert!(oracle.hits() > 0, "permuted revisits must hit the cache");
    }

    #[test]
    fn initial_failure_reports_the_real_error() {
        use lobist_dfg::modules::ModuleSet;
        use lobist_dfg::{DfgBuilder, OpKind, Schedule};
        // t = x*x, u = t + y: the multiplier's ports both see only x's
        // register, so the design is untestable — the annealer must
        // surface the solver's own error, not a fabricated placeholder.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let t = b.op(OpKind::Mul, "t", x.into(), x.into());
        let u = b.op(OpKind::Add, "u", t.into(), y.into());
        b.mark_output(u);
        let dfg = b.build().unwrap();
        let schedule = Schedule::new(&dfg, vec![1, 2]).unwrap();
        let modules: ModuleSet = "1*,1+".parse().unwrap();
        let flow = FlowOptions::testable();
        let ma = assign_modules(&dfg, &schedule, &modules).unwrap();
        let err = anneal_registers(
            &dfg,
            &schedule,
            flow.lifetime_options,
            &ma,
            &flow,
            &AnnealConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Bist(_)), "got {err:?}");
    }
}
