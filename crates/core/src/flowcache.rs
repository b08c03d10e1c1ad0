//! Incremental flow evaluation: the stage-level cache beneath the
//! annealer's coloring-level memo.
//!
//! The [`CostOracle`](crate::anneal::CostOracle) content-addresses whole
//! colorings, so revisiting a coloring is free — but every *new*
//! coloring still pays for the full pipeline: interconnect binding,
//! data-path assembly, embedding enumeration and the exact BIST solve.
//! A single annealing move touches one variable, leaving most of that
//! work byte-identical to the previous evaluation. [`FlowCache`] is the
//! layer that exploits it, memoizing each pipeline stage by what the
//! stage actually reads:
//!
//! * **Interconnect** — each module's port partition depends only on the
//!   module's *problem shape*: the interned operand-pair constraint rows
//!   and the sharing-degree vector ([`ModuleProblem`]), with no register
//!   identities. Moves that leave a module's operand structure intact
//!   reuse its solved `Vec<PortLabel>` verbatim.
//! * **Embeddings** — each module's BIST embeddings depend only on the
//!   registers/inputs on its port I-paths and its output-destination
//!   registers. Unchanged modules reuse their `Vec<Embedding>` via
//!   [`enumerate_from_connectivity`].
//! * **Selection** — the exact branch-and-bound is warm-started with the
//!   previous solution's cost as the initial incumbent bound (provably
//!   returning the identical choice), and complete embedding-list
//!   inputs are memoized outright.
//! * **Area** — functional gate counts come from per-component sums
//!   (constant register/module terms plus mux terms from the fan-ins
//!   already at hand) instead of building a [`DataPath`] netlist and
//!   re-running full statistics.
//!
//! The slow path survives as [`FlowCache::evaluate_uncached`], the
//! executable reference: property tests drive both paths along random
//! annealing walks and require equal costs, gate counts, chosen
//! embeddings and errors. All stage caches are bounded (FIFO eviction);
//! because every cached value is a pure function of its key, eviction
//! can never change a result — only the hit counters.
//!
//! A [`FlowCache`] has one owner, the annealing chain behind its
//! [`CostOracle`](crate::anneal::CostOracle), so evaluation takes
//! `&mut self`: the stage caches, the warm-start incumbent and the
//! counters are plain fields, and the counters depend only on the
//! sequence of colorings evaluated.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use lobist_bist::embedding::PatternSource;
use lobist_bist::{
    choice_cost, enumerate_from_connectivity, select_embeddings, BistError, Embedding,
};
use lobist_datapath::{
    DataPath, DataPathError, ModuleId, PortSide, RegisterAssignment, RegisterId, SourceRef,
};
use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::{Dfg, Operand, Schedule, VarId};

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
/// delta/full profiles and every histogram of the engine's metrics
/// share this shape.
pub const NUM_BUCKETS: usize = 24;

/// The histogram bucket of a sample of `micros` microseconds.
pub fn bucket_micros(micros: u128) -> usize {
    let floor_log2 = (127 - micros.max(1).leading_zeros()) as usize;
    floor_log2.min(NUM_BUCKETS - 1)
}

// Entries kept by each stage cache. Purely a performance / memory
// trade-off: results never depend on capacity (each cached value is a
// pure function of its key), which the capacity-1 eviction walks in
// the tests pin down.
/// Entries in the interconnect label cache (problem shapes).
const INTERCONNECT_CAPACITY: usize = 4096;
/// Entries in the per-module embedding-list cache.
const EMBEDDING_CAPACITY: usize = 4096;
/// Entries in the embedding-selection memo.
const SELECTION_CAPACITY: usize = 1024;

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
    /// Per-module embedding-list cache (keyed by port connectivity).
    pub embeddings: StageStats,
    /// Embedding-selection memo (keyed by the full candidate lists).
    pub selection: StageStats,
    /// Selection misses solved with a warm incumbent bound from the
    /// previous solution.
    pub warm_starts: u64,
    /// log2-microsecond histogram of incremental ([`FlowCache::evaluate`])
    /// evaluations.
    pub delta_micros: [u64; NUM_BUCKETS],
    /// log2-microsecond histogram of reference
    /// ([`FlowCache::evaluate_uncached`]) evaluations.
    pub full_micros: [u64; NUM_BUCKETS],
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

/// A bounded FIFO memo with hit/miss/eviction accounting.
struct StageCache<V> {
    map: HashMap<u128, V>,
    order: VecDeque<u128>,
    capacity: usize,
    stats: StageStats,
}

impl<V: Clone> StageCache<V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: StageStats::default(),
        }
    }

    /// The value cached under `key`, or `compute()`'s, cached on the
    /// way out (evicting the oldest entry when full).
    fn get_or_compute(&mut self, key: u128, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.map.get(&key) {
            self.stats.hits += 1;
            return v.clone();
        }
        self.stats.misses += 1;
        let value = compute();
        if self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key, value.clone());
        self.order.push_back(key);
        value
    }
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
    interconnect: StageCache<Vec<PortLabel>>,
    embeddings: StageCache<Vec<Embedding>>,
    selection: StageCache<(Vec<Embedding>, u64)>,
    /// Last selected choice — the warm-start incumbent for the next
    /// selection miss.
    warm: Option<Vec<Embedding>>,
    warm_starts: u64,
    /// `[0]` = incremental (delta) evaluations, `[1]` = reference (full).
    timings: [[u64; NUM_BUCKETS]; 2],
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
        let capacities = [INTERCONNECT_CAPACITY, EMBEDDING_CAPACITY, SELECTION_CAPACITY];
        Self::with_capacities(dfg, schedule, lt_opts, ma, flow, capacities)
    }

    /// Builds the cache with the interconnect, embedding and selection
    /// stages bounded to `capacities` entries (the tests' eviction
    /// walks shrink them).
    pub(crate) fn with_capacities(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        lt_opts: LifetimeOptions,
        ma: &'a ModuleAssignment,
        flow: &'a FlowOptions,
        [interconnect, embeddings, selection]: [usize; 3],
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
            interconnect: StageCache::new(interconnect),
            embeddings: StageCache::new(embeddings),
            selection: StageCache::new(selection),
            warm: None,
            warm_starts: 0,
            timings: [[0; NUM_BUCKETS]; 2],
        }
    }

    /// Evaluates a coloring on the incremental fast path: stage-cached
    /// interconnect labels, per-module embedding reuse, warm-started
    /// selection and component-delta area — no [`DataPath`] is built.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`FlowCache::evaluate_uncached`] reports, in
    /// the same stage order.
    pub fn evaluate(&mut self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
        let start = Instant::now();
        let r = self.evaluate_inner(classes);
        self.record(0, start.elapsed());
        r
    }

    /// The from-scratch reference: register assignment → interconnect →
    /// data-path assembly → exact BIST solve → full netlist statistics.
    /// Property tests compare [`FlowCache::evaluate`] against this.
    ///
    /// # Errors
    ///
    /// Returns the failing stage's [`FlowError`].
    pub fn evaluate_uncached(&mut self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
        let start = Instant::now();
        let r = self.evaluate_reference(classes);
        self.record(1, start.elapsed());
        r
    }

    /// Counters so far.
    pub fn stats(&self) -> FlowCacheStats {
        FlowCacheStats {
            interconnect: self.interconnect.stats,
            embeddings: self.embeddings.stats,
            selection: self.selection.stats,
            warm_starts: self.warm_starts,
            delta_micros: self.timings[0],
            full_micros: self.timings[1],
        }
    }

    fn record(&mut self, which: usize, elapsed: Duration) {
        self.timings[which][bucket_micros(elapsed.as_micros())] += 1;
    }

    fn evaluate_reference(&self, classes: &[Vec<VarId>]) -> Result<FlowEval, FlowError> {
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
            let labels = self.interconnect.get_or_compute(shape_key(&problem), || {
                problem.solve_labels(self.flow.bist_aware_interconnect)
            });
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

        // Stage 2: embeddings per module, memoized by *canonical* port
        // connectivity: register and input ids are densely relabelled in
        // sorted order before keying, so two modules whose connectivity
        // differs only in labels — across moves, across modules, even
        // across designs sharing one cache — hit the same entry. The
        // cached list is in canonical labels; each consumer remaps it
        // back through its own label tables. Sound because
        // [`enumerate_from_connectivity`] is equivariant under monotone
        // relabeling (it iterates sorted sets and compares ids only for
        // equality), so remapping the canonical list is byte-identical
        // to enumerating directly. Modules are checked in id order so
        // the first failure matches the reference solver's.
        let mut embs: Vec<Vec<Embedding>> = Vec::with_capacity(nm);
        for (mi, (sides, dests)) in port_sources.iter().zip(&output_dests).enumerate() {
            let shape = ConnectivityShape::new(sides, dests);
            let key = connectivity_key(&shape.sides, &shape.dests);
            let canonical = self.embeddings.get_or_compute(key, || {
                enumerate_from_connectivity(&shape.sides[0], &shape.sides[1], &shape.dests)
            });
            if canonical.is_empty() {
                return Err(FlowError::Bist(BistError::NoEmbedding {
                    module: ModuleId(mi as u32),
                }));
            }
            embs.push(shape.remap(&canonical));
        }

        // Stage 3: selection — memoized on the full candidate lists,
        // warm-started with the previous solution's cost otherwise.
        let (choice, overhead) = self.selection.get_or_compute(selection_key(nr, &embs), || {
            // The bound must be achievable against the *current* lists:
            // every module's previous pick must still be a candidate.
            let warm_upper = self.warm.as_ref().and_then(|prev| {
                (prev.len() == embs.len()
                    && prev.iter().zip(&embs).all(|(e, list)| list.contains(e)))
                .then(|| choice_cost(nr, model, prev))
            });
            if warm_upper.is_some() {
                self.warm_starts += 1;
            }
            let choice = select_embeddings(nr, model, &self.flow.solver, &embs, warm_upper);
            let overhead = choice_cost(nr, model, &choice).get();
            (choice, overhead)
        });
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

fn source_word(s: SourceRef) -> (u64, u64) {
    match s {
        SourceRef::Register(r) => (0, u64::from(r.0)),
        SourceRef::ExternalInput(v) => (1, u64::from(v.0)),
        SourceRef::Constant(c) => (2, c as u64),
    }
}

/// One module's port connectivity in canonical labels: registers and
/// external-input variables are densely renumbered in sorted order
/// (constants keep their literal values — they are semantics, not
/// labels). The tables remember the original id of each canonical rank
/// so a cached canonical embedding list can be remapped back.
struct ConnectivityShape {
    sides: [BTreeSet<SourceRef>; 2],
    dests: BTreeSet<RegisterId>,
    /// Canonical register rank → original id.
    regs: Vec<RegisterId>,
    /// Canonical input rank → original id.
    inputs: Vec<VarId>,
}

impl ConnectivityShape {
    fn new(sides: &[BTreeSet<SourceRef>; 2], dests: &BTreeSet<RegisterId>) -> Self {
        let mut regs: BTreeSet<RegisterId> = dests.clone();
        let mut inputs: BTreeSet<VarId> = BTreeSet::new();
        for side in sides {
            for &s in side {
                match s {
                    SourceRef::Register(r) => {
                        regs.insert(r);
                    }
                    SourceRef::ExternalInput(v) => {
                        inputs.insert(v);
                    }
                    SourceRef::Constant(_) => {}
                }
            }
        }
        let regs: Vec<RegisterId> = regs.into_iter().collect();
        let inputs: Vec<VarId> = inputs.into_iter().collect();
        let reg_rank = |r: RegisterId| -> RegisterId {
            RegisterId(regs.binary_search(&r).expect("collected above") as u32)
        };
        let input_rank = |v: VarId| -> VarId {
            VarId(inputs.binary_search(&v).expect("collected above") as u32)
        };
        let canon_side = |side: &BTreeSet<SourceRef>| -> BTreeSet<SourceRef> {
            side.iter()
                .map(|&s| match s {
                    SourceRef::Register(r) => SourceRef::Register(reg_rank(r)),
                    SourceRef::ExternalInput(v) => SourceRef::ExternalInput(input_rank(v)),
                    c @ SourceRef::Constant(_) => c,
                })
                .collect()
        };
        Self {
            sides: [canon_side(&sides[0]), canon_side(&sides[1])],
            dests: dests.iter().map(|&r| reg_rank(r)).collect(),
            regs,
            inputs,
        }
    }

    /// Translates a canonical-label embedding list into this module's
    /// original labels.
    fn remap(&self, canonical: &[Embedding]) -> Vec<Embedding> {
        let source = |p: PatternSource| -> PatternSource {
            match p {
                PatternSource::Register(r) => PatternSource::Register(self.regs[r.index()]),
                PatternSource::Input(v) => PatternSource::Input(self.inputs[v.index()]),
            }
        };
        canonical
            .iter()
            .map(|e| Embedding {
                left: source(e.left),
                right: source(e.right),
                sa: self.regs[e.sa.index()],
            })
            .collect()
    }
}

/// Key of one module's embedding inputs: the two port source sets and
/// the output-destination registers.
fn connectivity_key(sides: &[BTreeSet<SourceRef>; 2], dests: &BTreeSet<RegisterId>) -> u128 {
    let mut h = FNV_OFFSET;
    for side in sides {
        for &s in side {
            let (tag, word) = source_word(s);
            h = fnv_word(h, tag);
            h = fnv_word(h, word);
        }
        h = fnv_sep(h);
    }
    for &r in dests {
        h = fnv_word(h, u64::from(r.0));
    }
    h
}

fn pattern_word(p: PatternSource) -> (u64, u64) {
    match p {
        PatternSource::Register(r) => (0, u64::from(r.0)),
        PatternSource::Input(v) => (1, u64::from(v.0)),
    }
}

/// Key of a complete selection problem: register count plus every
/// module's candidate list, in order.
fn selection_key(num_registers: usize, embs: &[Vec<Embedding>]) -> u128 {
    let mut h = fnv_word(FNV_OFFSET, num_registers as u64);
    for list in embs {
        for e in list {
            for (tag, word) in [
                pattern_word(e.left),
                pattern_word(e.right),
                (2, u64::from(e.sa.0)),
            ] {
                h = fnv_word(h, tag);
                h = fnv_word(h, word);
            }
        }
        h = fnv_sep(h);
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

    const DEFAULT_CAPACITIES: [usize; 3] =
        [INTERCONNECT_CAPACITY, EMBEDDING_CAPACITY, SELECTION_CAPACITY];

    fn check_walk(bench: &Benchmark, capacities: [usize; 3], steps: usize, seed: u64) {
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::with_capacities(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            capacities,
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
        // tiny capacities): still byte-equal to the reference.
        for classes in visited.iter().rev() {
            assert_eq!(cache.evaluate(classes), cache.evaluate_uncached(classes));
        }
        let stats = cache.stats();
        assert!(stats.interconnect.hits + stats.interconnect.misses > 0);
        // A 1-entry cache legitimately thrashes (two modules alternate
        // shapes), so only roomy configurations must show reuse.
        if capacities[0] > 1 {
            assert!(stats.interconnect.hits > 0, "{stats:?}");
            assert!(stats.embeddings.hits > 0, "{stats:?}");
        }
    }

    #[test]
    fn canonical_connectivity_shapes_hit_across_labelings() {
        // Two modules whose connectivity differs only by a monotone
        // register/input relabeling must share one canonical shape (and
        // hence one embedding-cache entry), and the remapped canonical
        // list must be byte-identical to enumerating directly.
        let sides = |rs: [(u32, bool); 3]| -> BTreeSet<SourceRef> {
            rs.iter()
                .map(|&(id, reg)| {
                    if reg {
                        SourceRef::Register(RegisterId(id))
                    } else {
                        SourceRef::ExternalInput(VarId(id))
                    }
                })
                .collect()
        };
        let left = sides([(3, true), (9, true), (4, false)]);
        let right = sides([(9, true), (17, true), (11, false)]);
        let dests: BTreeSet<RegisterId> = [RegisterId(3), RegisterId(21)].into();
        // Shift every register id by +10 and every input id by +5:
        // monotone, so the canonical shape is unchanged.
        let shift = |s: &BTreeSet<SourceRef>| -> BTreeSet<SourceRef> {
            s.iter()
                .map(|&x| match x {
                    SourceRef::Register(r) => SourceRef::Register(RegisterId(r.0 + 10)),
                    SourceRef::ExternalInput(v) => SourceRef::ExternalInput(VarId(v.0 + 5)),
                    c => c,
                })
                .collect()
        };
        let shifted_dests: BTreeSet<RegisterId> =
            dests.iter().map(|r| RegisterId(r.0 + 10)).collect();
        let a = ConnectivityShape::new(&[left.clone(), right.clone()], &dests);
        let b = ConnectivityShape::new(&[shift(&left), shift(&right)], &shifted_dests);
        assert_eq!(a.sides, b.sides);
        assert_eq!(a.dests, b.dests);
        assert_eq!(
            connectivity_key(&a.sides, &a.dests),
            connectivity_key(&b.sides, &b.dests)
        );
        // Remapping the canonical enumeration reproduces the direct one.
        let canonical = enumerate_from_connectivity(&a.sides[0], &a.sides[1], &a.dests);
        let direct = enumerate_from_connectivity(&left, &right, &dests);
        assert_eq!(a.remap(&canonical), direct);
        let shifted_direct =
            enumerate_from_connectivity(&shift(&left), &shift(&right), &shifted_dests);
        assert_eq!(b.remap(&canonical), shifted_direct);
    }

    #[test]
    fn incremental_matches_reference_on_ex1_walk() {
        check_walk(&benchmarks::ex1(), DEFAULT_CAPACITIES, 150, 0xF10C);
    }

    #[test]
    fn incremental_matches_reference_on_paulin_walk() {
        check_walk(&benchmarks::paulin(), DEFAULT_CAPACITIES, 120, 0xCAFE);
    }

    #[test]
    fn eviction_revisits_stay_correct_under_tiny_capacities() {
        // Capacity 1 per stage forces an eviction on nearly every new
        // shape, so revisits keep recomputing — results must not change.
        let capacities = [1, 1, 1];
        let bench = benchmarks::ex1();
        check_walk(&bench, capacities, 100, 0xE71C);
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::with_capacities(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            capacities,
        );
        let mut walk = Walk::new(&bench, &ma, 0xE71C);
        for _ in 0..60 {
            if walk.step() {
                cache.evaluate(&walk.classes).ok();
            }
        }
        let stats = cache.stats();
        assert!(
            stats.interconnect.evictions > 0 || stats.embeddings.evictions > 0,
            "tiny capacities must evict: {stats:?}"
        );
    }

    #[test]
    fn warm_start_fires_and_preserves_results() {
        // Selection capacity 1 keeps forcing fresh solves; once two
        // colorings alternate, the warm incumbent from one solve bounds
        // the next.
        let bench = benchmarks::paulin();
        let flow = crate::flow::FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let mut cache = FlowCache::with_capacities(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &flow,
            [INTERCONNECT_CAPACITY, EMBEDDING_CAPACITY, 1],
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
    fn stage_cache_fifo_eviction_is_bounded() {
        let mut c: StageCache<u32> = StageCache::new(2);
        assert_eq!(c.get_or_compute(1, || 10), 10);
        assert_eq!(c.get_or_compute(2, || 20), 20);
        assert_eq!(c.get_or_compute(3, || 30), 30); // evicts key 1
        assert_eq!(c.map.len(), 2);
        // A cached key is never recomputed.
        assert_eq!(c.get_or_compute(2, || 99), 20);
        assert_eq!(c.get_or_compute(3, || 99), 30);
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 3);
        // The evicted key computes afresh, evicting the next oldest.
        assert_eq!(c.get_or_compute(1, || 11), 11);
        assert_eq!(c.stats.evictions, 2);
        assert!(!c.map.contains_key(&2));
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
