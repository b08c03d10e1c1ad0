//! Incremental flow evaluation: the stage-level cache beneath the
//! annealer's coloring-level memo.
//!
//! The [`CostOracle`](crate::anneal::CostOracle) content-addresses whole
//! colorings, so revisiting a coloring is free — but every *new*
//! coloring still pays for interconnect binding, embedding enumeration
//! and the exact BIST solve. A single annealing move touches one
//! variable, so [`FlowCache`] skips the work a move leaves unchanged
//! where that pays:
//!
//! * **Interconnect** — each module's port partition depends only on the
//!   module's *problem shape*: the interned operand-pair constraint rows
//!   and the sharing-degree vector ([`ModuleProblem`]), with no register
//!   identities. Moves that leave a module's operand structure intact
//!   reuse its solved `Vec<PortLabel>` verbatim from a bounded
//!   [`FifoMap`]. Every label list is a pure function of its key, so
//!   eviction can never change a result — only the hit counters.
//! * **Embeddings** — enumerated per module with
//!   [`enumerate_from_connectivity`] from the port connectivity the
//!   area term collects anyway, with no data path built.
//! * **Selection** — the exact branch-and-bound is warm-started with the
//!   previous solution's cost as the initial incumbent bound whenever
//!   every module's previous pick is still a candidate (provably
//!   returning the identical choice).
//! * **Area** — functional gate counts come from per-component sums
//!   (constant register/module terms plus mux terms from the fan-ins
//!   already at hand) instead of building a [`DataPath`] netlist and
//!   re-running full statistics.
//!
//! Memoizing the embedding lists or whole selections too would cost
//! more to key and look up than the enumeration and the warm-started
//! search it skips (measured in DESIGN.md §4d).
//!
//! The slow path survives as [`FlowCache::evaluate_uncached`], the
//! executable reference: property tests drive both paths along random
//! annealing walks and require equal costs, gate counts, chosen
//! embeddings and errors.
//!
//! A [`FlowCache`] has one owner, the annealing chain behind its
//! [`CostOracle`](crate::anneal::CostOracle), so evaluation takes
//! `&mut self`: the label cache, the warm-start incumbent and the
//! counters are plain fields, and the counters depend only on the
//! sequence of colorings evaluated.

use std::collections::BTreeSet;
use std::time::Instant;

use lobist_bist::{
    choice_cost, enumerate_from_connectivity, select_embeddings, BistError, Embedding,
};
use lobist_datapath::{
    DataPath, DataPathError, ModuleId, PortSide, RegisterAssignment, RegisterId, SourceRef,
};
use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::{Dfg, Operand, Schedule, VarId};

use crate::fifo::FifoMap;
use crate::flow::{FlowError, FlowOptions};
use crate::interconnect::{assign_interconnect, ModuleProblem, PortLabel};
use crate::variable_sets::SharingContext;
use lobist_datapath::ModuleAssignment;

pub(crate) const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
pub(crate) const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
/// Separator between hashed chunks, so adjacent sequences don't collide.
pub(crate) const SEP: u8 = 0x1f;

pub(crate) fn fnv_word(mut h: u128, word: u64) -> u128 {
    for b in word.to_le_bytes() {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn fnv_sep(h: u128) -> u128 {
    (h ^ u128::from(SEP)).wrapping_mul(FNV_PRIME)
}

/// Buckets of a log2-microsecond timing histogram: bucket `i` counts
/// samples taking `[2^i, 2^(i+1))` microseconds, the last bucket
/// absorbing everything slower (~8.4 s and beyond). The flow cache's
/// evaluation profile and every histogram of the engine's metrics
/// share this shape.
pub const NUM_BUCKETS: usize = 24;

/// The histogram bucket of a sample of `micros` microseconds.
pub fn bucket_micros(micros: u128) -> usize {
    let floor_log2 = (127 - micros.max(1).leading_zeros()) as usize;
    floor_log2.min(NUM_BUCKETS - 1)
}

/// Entries kept by the interconnect label cache (problem shapes).
/// Purely a performance / memory trade-off: results never depend on
/// it, which the capacity-1 eviction walk in the tests pins down.
const INTERCONNECT_CAPACITY: usize = 4096;

/// Hit/miss/eviction counters of one stage cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

/// A point-in-time copy of a [`FlowCache`]'s counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Interconnect label cache (keyed by module problem shape).
    pub interconnect: StageStats,
    /// Selections solved with a warm incumbent bound from the previous
    /// solution.
    pub warm_starts: u64,
    /// log2-microsecond histogram of incremental ([`FlowCache::evaluate`])
    /// evaluations.
    pub delta_micros: [u64; NUM_BUCKETS],
}

/// One full evaluation of a coloring: what the reference pipeline's
/// data-path + BIST solve reports, computed (on the fast path) without
/// either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEval {
    /// BIST overhead in gates (the annealer's objective).
    pub overhead: u64,
    /// Functional (pre-BIST) gate count of the data path.
    pub functional: u64,
    /// The chosen embedding per module, in module-id order.
    pub choice: Vec<Embedding>,
}

/// The incremental evaluation layer over one design's fixed module
/// assignment, owned by one annealing chain.
pub struct FlowCache<'a> {
    dfg: &'a Dfg,
    schedule: &'a Schedule,
    lt_opts: LifetimeOptions,
    ma: &'a ModuleAssignment,
    flow: &'a FlowOptions,
    ctx: SharingContext,
    lifetimes: Lifetimes,
    /// The first module-assignment error [`DataPath::build`] would
    /// report — class-independent, so checked once.
    module_error: Option<DataPathError>,
    /// Σ module gate counts — class-independent area term.
    module_area: u64,
    /// Gate count of one plain register.
    register_area_each: u64,
    /// Solved port labels by module problem shape.
    labels: FifoMap<u128, Vec<PortLabel>>,
    label_stats: StageStats,
    /// Last selected choice — the warm-start incumbent for the next
    /// selection.
    warm: Option<Vec<Embedding>>,
    warm_starts: u64,
    /// log2-microsecond histogram of [`FlowCache::evaluate`] calls.
    timings: [u64; NUM_BUCKETS],
}

impl<'a> FlowCache<'a> {
    /// Builds the cache over one design's fixed module assignment.
    pub fn new(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        lt_opts: LifetimeOptions,
        ma: &'a ModuleAssignment,
        flow: &'a FlowOptions,
    ) -> Self {
        Self::with_capacity(dfg, schedule, lt_opts, ma, flow, INTERCONNECT_CAPACITY)
    }

    /// Builds the cache with the interconnect label cache bounded to
    /// `capacity` entries (the tests' eviction walk shrinks it).
    pub(crate) fn with_capacity(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        lt_opts: LifetimeOptions,
        ma: &'a ModuleAssignment,
        flow: &'a FlowOptions,
        capacity: usize,
    ) -> Self {
        let module_area = ma
            .module_ids()
            .map(|m| match ma.class(m) {
                ModuleClass::Alu => flow.area.alu_with_kinds(&ma.kinds_of(dfg, m)).get(),
                class => flow.area.module(class).get(),
            })
            .sum();
        Self {
            dfg,
            schedule,
            lt_opts,
            ma,
            flow,
            ctx: SharingContext::new(dfg, ma),
            lifetimes: Lifetimes::compute(dfg, schedule, lt_opts),
            module_error: precheck_modules(dfg, schedule, ma),
            module_area,
            register_area_each: flow.area.register().get(),
            labels: FifoMap::new(capacity),
            label_stats: StageStats::default(),
            warm: None,
            warm_starts: 0,
            timings: [0; NUM_BUCKETS],
        }
    }

    /// Evaluates a coloring on the incremental fast path: memoized
    /// interconnect labels, embeddings enumerated from port
    /// connectivity, warm-started selection and component-delta area —
    /// no [`DataPath`] is built.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`FlowCache::evaluate_uncached`] reports, in
    /// the same stage order.
    pub fn evaluate(&mut self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
        let start = Instant::now();
        let r = self.evaluate_inner(classes);
        self.timings[bucket_micros(start.elapsed().as_micros())] += 1;
        r
    }

    /// Counters so far.
    pub fn stats(&self) -> FlowCacheStats {
        FlowCacheStats {
            interconnect: self.label_stats,
            warm_starts: self.warm_starts,
            delta_micros: self.timings,
        }
    }

    /// The from-scratch reference: register assignment → interconnect →
    /// data-path assembly → exact BIST solve → full netlist statistics.
    /// Property tests compare [`FlowCache::evaluate`] against this.
    ///
    /// # Errors
    ///
    /// Returns the failing stage's [`FlowError`].
    pub fn evaluate_uncached(&self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
        let ra = RegisterAssignment::new(self.dfg, classes.to_vec())?;
        let (ic, _) = assign_interconnect(
            self.dfg,
            self.ma,
            &ra,
            &self.ctx,
            self.flow.bist_aware_interconnect,
        );
        let dp = DataPath::build(self.dfg, self.schedule, self.lt_opts, self.ma, &ra, &ic)?;
        let sol = lobist_bist::solve(&dp, &self.flow.area, &self.flow.solver)?;
        Ok(FlowEval {
            overhead: sol.overhead.get(),
            functional: self.flow.area.functional_area(&dp).get(),
            choice: sol.embeddings,
        })
    }

    fn evaluate_inner(&mut self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
        let ra = RegisterAssignment::new(self.dfg, classes.to_vec())?;

        // Validation, replicating DataPath::build's order exactly so the
        // fast path reports the identical error.
        for &v in self.lifetimes.reg_vars() {
            if ra.register_of(v).is_none() {
                return Err(DataPathError::UnassignedVariable(v).into());
            }
        }
        for (r, class) in ra.classes().iter().enumerate() {
            for (i, &u) in class.iter().enumerate() {
                for &v in &class[i + 1..] {
                    if self.lifetimes.conflicts(u, v) {
                        return Err(DataPathError::RegisterConflict {
                            u,
                            v,
                            register: RegisterId(r as u32),
                        }
                        .into());
                    }
                }
            }
        }
        if let Some(e) = &self.module_error {
            return Err(FlowError::DataPath(e.clone()));
        }

        // Stage 1: port labels per module, memoized by problem shape.
        let mut lhs_side = vec![PortSide::Left; self.dfg.num_ops()];
        for m in self.ma.module_ids() {
            let problem = ModuleProblem::collect(self.dfg, self.ma, &ra, &self.ctx, m);
            let key = shape_key(&problem);
            let labels = match self.labels.get(&key) {
                Some(labels) => {
                    self.label_stats.hits += 1;
                    labels.clone()
                }
                None => {
                    self.label_stats.misses += 1;
                    let labels = problem.solve_labels(self.flow.bist_aware_interconnect);
                    self.label_stats.evictions += self.labels.insert(key, labels.clone());
                    labels
                }
            };
            problem.orient(&labels, &mut lhs_side);
        }

        // Connectivity — the sets DataPath::build would derive, with its
        // connection-loop validation folded in.
        let nm = self.ma.num_modules();
        let nr = ra.num_registers();
        let mut port_sources: Vec<[BTreeSet<SourceRef>; 2]> = (0..nm)
            .map(|_| [BTreeSet::new(), BTreeSet::new()])
            .collect();
        let mut output_dests: Vec<BTreeSet<RegisterId>> = vec![BTreeSet::new(); nm];
        let mut register_sources: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nr];
        let mut external_loads = vec![false; nr];
        let source_of = |operand: Operand| -> SourceRef {
            match operand {
                Operand::Const(c) => SourceRef::Constant(c),
                Operand::Var(v) => match ra.register_of(v) {
                    Some(r) => SourceRef::Register(r),
                    None => SourceRef::ExternalInput(v),
                },
            }
        };
        for op in self.dfg.op_ids() {
            let info = self.dfg.op(op);
            let m = self.ma.module_of(op);
            let side = lhs_side[op.index()];
            debug_assert!(
                info.kind.is_commutative() || side == PortSide::Left,
                "assign_interconnect never swaps non-commutative operands"
            );
            let (li, ri) = match side {
                PortSide::Left => (0, 1),
                PortSide::Right => (1, 0),
            };
            port_sources[m.index()][li].insert(source_of(info.lhs));
            port_sources[m.index()][ri].insert(source_of(info.rhs));
            let out = ra
                .register_of(info.out)
                .ok_or(DataPathError::UnassignedVariable(info.out))?;
            output_dests[m.index()].insert(out);
            register_sources[out.index()].insert(m.0);
        }
        for v in self.dfg.primary_inputs() {
            if let Some(r) = ra.register_of(v) {
                external_loads[r.index()] = true;
            }
        }

        // Area from per-component deltas: constant register/module terms
        // plus mux terms from the fan-ins just collected — no netlist.
        let model = &self.flow.area;
        let mut functional = nr as u64 * self.register_area_each + self.module_area;
        for sides in &port_sources {
            for side in sides {
                functional += model.mux(side.len()).get();
            }
        }
        for (sources, &ext) in register_sources.iter().zip(&external_loads) {
            functional += model.mux(sources.len() + usize::from(ext)).get();
        }

        // Stage 2: embeddings per module, from the connectivity just
        // collected. Modules are checked in id order so the first
        // failure matches the reference solver's.
        let mut embs: Vec<Vec<Embedding>> = Vec::with_capacity(nm);
        for (mi, (sides, dests)) in port_sources.iter().zip(&output_dests).enumerate() {
            let list = enumerate_from_connectivity(&sides[0], &sides[1], dests);
            if list.is_empty() {
                return Err(FlowError::Bist(BistError::NoEmbedding {
                    module: ModuleId(mi as u32),
                }));
            }
            embs.push(list);
        }

        // Stage 3: selection, warm-started with the previous solution's
        // cost. The bound must be achievable against the *current*
        // lists: every module's previous pick must still be a candidate.
        let warm_upper = self.warm.as_ref().and_then(|prev| {
            (prev.len() == embs.len() && prev.iter().zip(&embs).all(|(e, list)| list.contains(e)))
                .then(|| choice_cost(nr, model, prev))
        });
        if warm_upper.is_some() {
            self.warm_starts += 1;
        }
        let choice = select_embeddings(nr, model, &self.flow.solver, &embs, warm_upper);
        let overhead = choice_cost(nr, model, &choice).get();
        self.warm = Some(choice.clone());

        Ok(FlowEval {
            overhead,
            functional,
            choice,
        })
    }
}

/// The class-independent module-assignment errors [`DataPath::build`]
/// reports (incapable module, double-booked step), in its order.
fn precheck_modules(
    dfg: &Dfg,
    schedule: &Schedule,
    ma: &ModuleAssignment,
) -> Option<DataPathError> {
    for op in dfg.op_ids() {
        let m = ma.module_of(op);
        if !ma.class(m).supports(dfg.op(op).kind) {
            return Some(DataPathError::IncapableModule { op, module: m });
        }
    }
    for m in ma.module_ids() {
        let mut steps: Vec<u32> = ma.ops_of(m).iter().map(|&op| schedule.step(op)).collect();
        steps.sort_unstable();
        for w in steps.windows(2) {
            if w[0] == w[1] {
                return Some(DataPathError::ModuleOverlap {
                    module: m,
                    step: w[0],
                });
            }
        }
    }
    None
}

/// Register-id-free key of one module's interconnect problem: source
/// count, constraint rows and the sharing-degree vector — exactly what
/// [`ModuleProblem::solve_labels`] reads.
fn shape_key(problem: &ModuleProblem) -> u128 {
    let mut h = fnv_word(FNV_OFFSET, problem.num_sources() as u64);
    for (lhs, rhs, fixed) in problem.constraint_rows() {
        h = fnv_word(h, lhs as u64);
        h = fnv_word(h, rhs as u64);
        h = fnv_word(h, u64::from(fixed));
    }
    h = fnv_sep(h);
    for &sd in problem.sharing_degrees() {
        h = fnv_word(h, sd as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_regalloc::{self, BaselineAlgorithm};
    use crate::module_assign::assign_modules;
    use lobist_dfg::benchmarks::{self, Benchmark};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random annealing-style walk: move one variable to another
    /// conflict-free register, never emptying a register. Mirrors the
    /// annealer's move set so the walk visits realistic colorings.
    struct Walk {
        classes: Vec<Vec<VarId>>,
        reg_of: Vec<usize>,
        reg_vars: Vec<VarId>,
        lifetimes: Lifetimes,
        rng: StdRng,
    }

    impl Walk {
        fn new(bench: &Benchmark, ma: &ModuleAssignment, seed: u64) -> Self {
            let _ = ma;
            let lifetimes = Lifetimes::compute(&bench.dfg, &bench.schedule, bench.lifetime_options);
            let initial = baseline_regalloc::allocate_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                BaselineAlgorithm::LeftEdge,
            )
            .unwrap();
            let classes: Vec<Vec<VarId>> = initial.classes().to_vec();
            let mut reg_of = vec![usize::MAX; bench.dfg.num_vars()];
            for (r, c) in classes.iter().enumerate() {
                for &v in c {
                    reg_of[v.index()] = r;
                }
            }
            let reg_vars = lifetimes.reg_vars().to_vec();
            Walk {
                classes,
                reg_of,
                reg_vars,
                lifetimes,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        /// Attempts one move; `true` if the coloring changed.
        fn step(&mut self) -> bool {
            for _ in 0..64 {
                let v = self.reg_vars[self.rng.gen_range(0..self.reg_vars.len())];
                let from = self.reg_of[v.index()];
                let to = self.rng.gen_range(0..self.classes.len());
                let ok = to != from
                    && self.classes[from].len() > 1
                    && !self.classes[to]
                        .iter()
                        .any(|&u| self.lifetimes.conflicts(u, v));
                if ok {
                    self.classes[from].retain(|&u| u != v);
                    self.classes[to].push(v);
                    self.reg_of[v.index()] = to;
                    return true;
                }
            }
            false
        }
    }

    fn check_walk(bench: &Benchmark, capacity: usize, steps: usize, seed: u64) {
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::with_capacity(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            capacity,
        );
        let mut walk = Walk::new(bench, &ma, seed);
        let mut visited: Vec<Vec<Vec<VarId>>> = vec![walk.classes.clone()];
        let mut moved = 0;
        for _ in 0..steps {
            if !walk.step() {
                continue;
            }
            moved += 1;
            let fast = cache.evaluate(&walk.classes);
            let slow = cache.evaluate_uncached(&walk.classes);
            assert_eq!(fast, slow, "classes {:?}", walk.classes);
            visited.push(walk.classes.clone());
        }
        assert!(moved > steps / 4, "walk barely moved ({moved})");
        // Revisit everything (in reverse, maximizing eviction churn under
        // a tiny capacity): still byte-equal to the reference.
        for classes in visited.iter().rev() {
            assert_eq!(cache.evaluate(classes), cache.evaluate_uncached(classes));
        }
        let stats = cache.stats();
        assert!(stats.interconnect.hits + stats.interconnect.misses > 0);
        // A 1-entry cache legitimately thrashes (two modules alternate
        // shapes), so only roomy configurations must show reuse.
        if capacity > 1 {
            assert!(stats.interconnect.hits > 0, "{stats:?}");
        }
    }

    #[test]
    fn incremental_matches_reference_on_ex1_walk() {
        check_walk(&benchmarks::ex1(), INTERCONNECT_CAPACITY, 150, 0xF10C);
    }

    #[test]
    fn incremental_matches_reference_on_paulin_walk() {
        check_walk(&benchmarks::paulin(), INTERCONNECT_CAPACITY, 120, 0xCAFE);
    }

    #[test]
    fn eviction_revisits_stay_correct_under_tiny_capacities() {
        // A one-entry label cache evicts on nearly every new shape, so
        // revisits keep recomputing — results must not change.
        let bench = benchmarks::ex1();
        check_walk(&bench, 1, 100, 0xE71C);
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::with_capacity(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            1,
        );
        let mut walk = Walk::new(&bench, &ma, 0xE71C);
        for _ in 0..60 {
            if walk.step() {
                cache.evaluate(&walk.classes).ok();
            }
        }
        let stats = cache.stats();
        assert!(
            stats.interconnect.evictions > 0,
            "a tiny capacity must evict: {stats:?}"
        );
    }

    #[test]
    fn warm_start_fires_and_preserves_results() {
        // Every selection after the first is bounded by the previous
        // solution whenever its picks are still candidates.
        let bench = benchmarks::paulin();
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::new(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
        );
        let mut walk = Walk::new(&bench, &ma, 0x3A3A);
        for _ in 0..80 {
            if walk.step() {
                let fast = cache.evaluate(&walk.classes);
                assert_eq!(fast, cache.evaluate_uncached(&walk.classes));
            }
        }
        assert!(cache.stats().warm_starts > 0, "{:?}", cache.stats());
    }

    #[test]
    fn errors_match_the_reference_pipeline() {
        // An unassigned register variable must surface the same error on
        // both paths.
        let bench = benchmarks::ex1();
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::new(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
        );
        let initial = baseline_regalloc::allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            BaselineAlgorithm::LeftEdge,
        )
        .unwrap();
        // Drop one variable.
        let mut missing: Vec<Vec<VarId>> = initial.classes().to_vec();
        let dropped = missing.iter_mut().find(|c| !c.is_empty()).unwrap().pop();
        assert!(dropped.is_some());
        let fast = cache.evaluate(&missing).unwrap_err();
        assert_eq!(fast, cache.evaluate_uncached(&missing).unwrap_err());
        // Merge two conflicting classes.
        let full: Vec<Vec<VarId>> = initial.classes().to_vec();
        let mut merged = full.clone();
        let moved = merged[1].drain(..).collect::<Vec<_>>();
        merged[0].extend(moved);
        let fast = cache.evaluate(&merged).unwrap_err();
        assert_eq!(fast, cache.evaluate_uncached(&merged).unwrap_err());
        // Duplicate a variable across classes.
        let mut dup = full;
        let v = dup[0][0];
        dup[1].push(v);
        let fast = cache.evaluate(&dup).unwrap_err();
        assert_eq!(fast, cache.evaluate_uncached(&dup).unwrap_err());
    }

    #[test]
    fn timing_buckets_are_log2_micros() {
        assert_eq!(bucket_micros(0), 0);
        assert_eq!(bucket_micros(1), 0);
        assert_eq!(bucket_micros(2), 1);
        assert_eq!(bucket_micros(3), 1);
        assert_eq!(bucket_micros(1024), 10);
        assert_eq!(bucket_micros(u128::MAX), NUM_BUCKETS - 1);
    }
}
