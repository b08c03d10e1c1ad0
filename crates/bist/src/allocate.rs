//! Global minimal-area selection of BIST embeddings and register styles.
//!
//! Given one embedding per module, each register's required style is
//! determined: a register that is TPG and SA *for the same module* must
//! be a CBILBO; TPG for some modules and SA for others needs a BILBO;
//! otherwise a TPG or SA suffices. The solver searches the cross product
//! of per-module embeddings for the choice minimizing total upgrade area.
//!
//! Styles only ever move *up* the capability lattice as more roles
//! accumulate, so partial cost is a valid lower bound — the exact solver
//! is a depth-first branch-and-bound over modules ordered by fewest
//! embeddings first. For large designs a greedy pass (cheapest
//! incremental embedding per module) with local re-optimization is used
//! instead.

use std::cell::Cell;
use std::fmt;

use lobist_datapath::area::{AreaModel, BistStyle, GateCount};
use lobist_datapath::ipath::IPathAnalysis;
use lobist_datapath::{DataPath, ModuleId, RegisterId};

use crate::embedding::{enumerate, Embedding};
use crate::report::BistSolution;
use crate::session;

/// Errors from the BIST solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BistError {
    /// A module has no BIST embedding: some port has no register I-path
    /// or both ports are fed by one register only. Such a data path
    /// cannot be made self-testable without structural changes.
    NoEmbedding {
        /// The untestable module.
        module: ModuleId,
    },
}

impl fmt::Display for BistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BistError::NoEmbedding { module } => {
                write!(f, "module {module} has no BIST embedding (insufficient I-paths)")
            }
        }
    }
}

impl std::error::Error for BistError {}

/// Search strategy for the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Exact branch-and-bound if the design is small enough, greedy
    /// otherwise (the threshold is [`SolverConfig::exact_module_limit`]).
    #[default]
    Auto,
    /// Always exact branch-and-bound (exponential worst case).
    Exact,
    /// Always greedy with local improvement.
    Greedy,
}

/// Solver configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// The strategy.
    pub mode: SolverMode,
    /// In [`SolverMode::Auto`], use exact search up to this many modules.
    pub exact_module_limit: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            mode: SolverMode::Auto,
            exact_module_limit: 10,
        }
    }
}

/// Reusable scratch table of per-register test styles with a running
/// upgrade cost. Candidate ranking applies an embedding, reads the
/// cost, and undoes it — no per-candidate clone, no O(R) cost rescan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RoleTable {
    /// Styles per register index.
    styles: Vec<BistStyle>,
    /// Running `Σ style_extra(styles[r])` (Normal costs zero).
    extra: u64,
}

/// The touched registers' prior styles for one applied embedding, in
/// application order. An embedding upgrades at most three registers
/// (left TPG, right TPG, SA — a forced CBILBO collapses two of them).
#[derive(Debug, Clone, Copy, Default)]
struct RoleUndo {
    entries: [(u32, BistStyle); 4],
    len: u8,
}

impl RoleTable {
    fn new(num_registers: usize) -> Self {
        Self {
            styles: vec![BistStyle::Normal; num_registers],
            extra: 0,
        }
    }

    /// Joins `style` into one register's slot, logging the change.
    fn upgrade(&mut self, r: RegisterId, style: BistStyle, model: &AreaModel, undo: &mut RoleUndo) {
        let slot = &mut self.styles[r.index()];
        let joined = slot.join(style);
        if joined != *slot {
            undo.entries[undo.len as usize] = (r.0, *slot);
            undo.len += 1;
            self.extra += model.style_extra(joined).get() - model.style_extra(*slot).get();
            *slot = joined;
        }
    }

    /// Applies one module's embedding, upgrading register styles.
    /// Returns the undo record restoring the prior state.
    fn apply(&mut self, e: &Embedding, model: &AreaModel) -> RoleUndo {
        let mut undo = RoleUndo::default();
        if let Some(c) = e.cbilbo_register() {
            self.upgrade(c, BistStyle::Cbilbo, model, &mut undo);
        }
        for tpg in e.tpg_registers() {
            self.upgrade(tpg, BistStyle::Tpg, model, &mut undo);
        }
        self.upgrade(e.sa, BistStyle::Sa, model, &mut undo);
        undo
    }

    /// Reverts one [`apply`](Self::apply). Undos must be popped in
    /// reverse application order.
    fn undo(&mut self, undo: RoleUndo, model: &AreaModel) {
        for &(r, old) in undo.entries[..undo.len as usize].iter().rev() {
            let slot = &mut self.styles[r as usize];
            self.extra -= model.style_extra(*slot).get() - model.style_extra(old).get();
            *slot = old;
        }
    }

    /// Cost of an embedding were it applied now, without mutating.
    fn cost_with(&mut self, e: &Embedding, model: &AreaModel) -> GateCount {
        let undo = self.apply(e, model);
        let c = self.cost();
        self.undo(undo, model);
        c
    }

    fn cost(&self) -> GateCount {
        GateCount(self.extra)
    }
}

fn embeddings_per_module(
    dp: &DataPath,
    ipaths: &IPathAnalysis,
) -> Result<Vec<Vec<Embedding>>, BistError> {
    let mut all = Vec::with_capacity(dp.num_modules());
    for m in dp.module_ids() {
        let embs = enumerate(ipaths, m);
        if embs.is_empty() {
            return Err(BistError::NoEmbedding { module: m });
        }
        all.push(embs);
    }
    Ok(all)
}

fn finish(
    dp: &DataPath,
    model: &AreaModel,
    choice: Vec<Embedding>,
) -> BistSolution {
    let mut roles = RoleTable::new(dp.num_registers());
    for e in &choice {
        roles.apply(e, model);
    }
    let overhead = roles.cost();
    let functional = model.functional_area(dp);
    let sessions = session::schedule(dp, &choice, &roles.styles);
    BistSolution::new(
        roles.styles,
        choice,
        sessions,
        overhead,
        overhead.percent_of(functional),
    )
}

/// Finds a minimal-area BIST configuration for `dp`.
///
/// # Errors
///
/// Returns [`BistError::NoEmbedding`] if some module cannot be tested at
/// all on this data path.
pub fn solve(
    dp: &DataPath,
    model: &AreaModel,
    cfg: &SolverConfig,
) -> Result<BistSolution, BistError> {
    let ipaths = IPathAnalysis::of(dp);
    let embs = embeddings_per_module(dp, &ipaths)?;
    let choice = select_embeddings(dp.num_registers(), model, cfg, &embs, None);
    Ok(finish(dp, model, choice))
}

/// Selects one embedding per module minimizing total register-style
/// upgrade area, from the per-module candidate lists alone — no data
/// path needed, which is how the incremental flow cache re-solves after
/// a single-register move.
///
/// `warm_upper` optionally supplies a *known-achievable* cost (e.g. the
/// previous move's choice re-costed against the current lists). The
/// exact search then starts from the incumbent bound `warm_upper + 1`
/// instead of infinity, pruning most of the tree on near-identical
/// inputs while provably returning the identical choice: the first
/// minimum-cost leaf in depth-first order is never pruned (every prefix
/// of it costs at most the minimum, which is strictly below the bound),
/// and no other leaf can replace it under strict-improvement updates.
///
/// # Panics
///
/// Panics if some module's list is empty, or if `warm_upper` is below
/// the true minimum (it must come from a feasible choice).
pub fn select_embeddings(
    num_registers: usize,
    model: &AreaModel,
    cfg: &SolverConfig,
    embs: &[Vec<Embedding>],
    warm_upper: Option<GateCount>,
) -> Vec<Embedding> {
    let exact = match cfg.mode {
        SolverMode::Exact => true,
        SolverMode::Greedy => false,
        SolverMode::Auto => embs.len() <= cfg.exact_module_limit,
    };
    if exact {
        branch_and_bound(num_registers, model, embs, warm_upper)
    } else {
        // Greedy is deterministic in the lists alone; a warm bound
        // cannot change (or speed up) its outcome.
        greedy(num_registers, model, embs)
    }
}

/// Total register-style upgrade area of a complete embedding choice —
/// the BIST overhead the paper minimizes, computed without a data path.
pub fn choice_cost(
    num_registers: usize,
    model: &AreaModel,
    choice: &[Embedding],
) -> GateCount {
    let mut roles = RoleTable::new(num_registers);
    for e in choice {
        roles.apply(e, model);
    }
    roles.cost()
}

/// Brute-force reference solver: full cross-product enumeration, no
/// pruning. Exponential; intended for validating [`solve`] on small
/// designs in tests.
///
/// # Errors
///
/// Returns [`BistError::NoEmbedding`] if some module cannot be tested.
///
/// # Panics
///
/// Panics if the cross product exceeds 10⁷ combinations.
pub fn solve_exhaustive(dp: &DataPath, model: &AreaModel) -> Result<BistSolution, BistError> {
    let ipaths = IPathAnalysis::of(dp);
    let embs = embeddings_per_module(dp, &ipaths)?;
    let combos: usize = embs.iter().map(|e| e.len()).product();
    assert!(combos <= 10_000_000, "design too large for exhaustive search");
    let mut best: Option<(GateCount, Vec<Embedding>)> = None;
    let mut idx = vec![0usize; embs.len()];
    loop {
        let choice: Vec<Embedding> = idx.iter().zip(&embs).map(|(&i, e)| e[i]).collect();
        let cost = choice_cost(dp.num_registers(), model, &choice);
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, choice));
        }
        // Odometer.
        let mut k = 0;
        loop {
            if k == idx.len() {
                let (_, choice) = best.expect("at least one combination exists");
                return Ok(finish(dp, model, choice));
            }
            idx[k] += 1;
            if idx[k] < embs[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// The exact search: depth-first over modules ordered by fewest
/// embeddings first, children cheapest-first.
///
/// Each child is costed once. The children are entered in `(cost, index)`
/// order while their cost is below the incumbent: one pass over the
/// cached costs per distinct cost, lowest first, enters the children of
/// that cost in index order and finds the next cost up. A child costs the
/// node's cost plus the upgrades of at most three registers, each one of
/// the few style-to-style increments, so the children take few distinct
/// costs however long the list, and the passes stay few. The costs take
/// 8 bytes a child and nothing is sorted: lists of tens of thousands of
/// embeddings (large `matmul` designs) set the process's peak memory.
///
/// This returns exactly the choice of `branch_and_bound_reference` (the
/// original search, kept in tests), which sorts every child by cost
/// (stably) and enters each one:
///
/// * the reference returns at once from a child whose cost is not below
///   the incumbent, so skipping that child changes nothing;
/// * `(cost, index)` order is the reference's stable cheapest-first
///   order, and the incumbent only falls while the costs only rise along
///   that order, so once a cost is not below the incumbent no later child
///   is either.
///
/// Styles only move up the lattice, so a child's cost is a lower bound
/// on every leaf below it: the cut removes only subtrees that could never
/// replace the incumbent, the same argument as
/// [`select_embeddings`]' `warm_upper`.
fn branch_and_bound(
    num_registers: usize,
    model: &AreaModel,
    embs: &[Vec<Embedding>],
    warm_upper: Option<GateCount>,
) -> Vec<Embedding> {
    let order = modules_tightest_first(embs);
    let mut search = Search {
        embs,
        model,
        roles: RoleTable::new(num_registers),
        current: vec![None; embs.len()],
        best_cost: initial_bound(warm_upper),
        best: None,
        nodes: 0,
    };
    search.descend(&order);
    add_search_nodes(search.nodes);
    search
        .best
        .expect("every module has at least one embedding and the warm bound is achievable")
}

/// Modules by ascending embedding count: tight choices first.
fn modules_tightest_first(embs: &[Vec<Embedding>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..embs.len()).collect();
    order.sort_by_key(|&m| embs[m].len());
    order
}

/// The incumbent bound a search starts from. A warm start's `U + 1`
/// admits exactly the leaves costing at most the known-achievable `U`,
/// so the search still lands on the same first minimum-cost leaf a cold
/// run finds, just with far fewer expansions.
fn initial_bound(warm_upper: Option<GateCount>) -> GateCount {
    warm_upper.map_or(GateCount(u64::MAX), |u| {
        GateCount(u.get().saturating_add(1))
    })
}

/// The state of one [`branch_and_bound`] run.
struct Search<'a> {
    embs: &'a [Vec<Embedding>],
    model: &'a AreaModel,
    roles: RoleTable,
    current: Vec<Option<Embedding>>,
    best_cost: GateCount,
    best: Option<Vec<Embedding>>,
    /// Nodes entered (the work counter).
    nodes: u64,
}

impl Search<'_> {
    /// Enters the node that chooses the embeddings of the modules in
    /// `rest`; the modules before them are already applied to `roles`.
    fn descend(&mut self, rest: &[usize]) {
        self.nodes += 1;
        let cost = self.roles.cost();
        if cost >= self.best_cost {
            return; // roles only upgrade; cost can only grow
        }
        let Some((&m, rest)) = rest.split_first() else {
            self.best_cost = cost;
            self.best = Some(
                self.current
                    .iter()
                    .map(|e| e.expect("complete choice"))
                    .collect(),
            );
            return;
        };
        let embs = self.embs;
        let costs: Vec<GateCount> = embs[m]
            .iter()
            .map(|e| self.roles.cost_with(e, self.model))
            .collect();
        // One pass per cost level, lowest first: enter the children at
        // this level in index order and find the next level up.
        let mut level = costs.iter().min().copied();
        while let Some(l) = level.filter(|&l| l < self.best_cost) {
            level = None;
            for (e, &c) in embs[m].iter().zip(&costs) {
                if c == l && c < self.best_cost {
                    let undo = self.roles.apply(e, self.model);
                    self.current[m] = Some(*e);
                    self.descend(rest);
                    self.current[m] = None;
                    self.roles.undo(undo, self.model);
                } else if c > l && level.is_none_or(|next| c < next) {
                    level = Some(c);
                }
            }
        }
    }
}

/// The original exact search, kept as the executable reference for
/// [`branch_and_bound`]: it sorts every child by cost, re-costing an
/// embedding on each comparison, and enters every child.
#[cfg(test)]
fn branch_and_bound_reference(
    num_registers: usize,
    model: &AreaModel,
    embs: &[Vec<Embedding>],
    warm_upper: Option<GateCount>,
) -> Vec<Embedding> {
    let order = modules_tightest_first(embs);
    let mut best_cost = initial_bound(warm_upper);
    let mut best: Option<Vec<Embedding>> = None;
    let mut current: Vec<Option<Embedding>> = vec![None; embs.len()];
    let mut nodes = 0u64;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        depth: usize,
        order: &[usize],
        embs: &[Vec<Embedding>],
        model: &AreaModel,
        roles: &mut RoleTable,
        current: &mut Vec<Option<Embedding>>,
        best_cost: &mut GateCount,
        best: &mut Option<Vec<Embedding>>,
        nodes: &mut u64,
    ) {
        *nodes += 1;
        if roles.cost() >= *best_cost {
            return; // roles only upgrade; cost can only grow
        }
        if depth == order.len() {
            let cost = roles.cost();
            if cost < *best_cost {
                *best_cost = cost;
                *best = Some(current.iter().map(|e| e.expect("complete choice")).collect());
            }
            return;
        }
        let m = order[depth];
        // Explore embeddings cheapest-first for faster convergence.
        let mut ranked: Vec<&Embedding> = embs[m].iter().collect();
        ranked.sort_by_key(|e| roles.cost_with(e, model));
        for e in ranked {
            let undo = roles.apply(e, model);
            current[m] = Some(*e);
            rec(depth + 1, order, embs, model, roles, current, best_cost, best, nodes);
            current[m] = None;
            roles.undo(undo, model);
        }
    }

    let mut roles = RoleTable::new(num_registers);
    rec(
        0,
        &order,
        embs,
        model,
        &mut roles,
        &mut current,
        &mut best_cost,
        &mut best,
        &mut nodes,
    );
    add_search_nodes(nodes);
    best.expect("every module has at least one embedding and the warm bound is achievable")
}

thread_local! {
    static SEARCH_NODES: Cell<u64> = const { Cell::new(0) };
}

fn add_search_nodes(n: u64) {
    SEARCH_NODES.with(|c| c.set(c.get() + n));
}

/// How many branch-and-bound nodes the exact search has entered on the
/// calling thread so far: a deterministic work counter. Callers take the
/// difference of two readings around the work they measure.
pub fn search_nodes() -> u64 {
    SEARCH_NODES.with(Cell::get)
}

fn greedy(num_registers: usize, model: &AreaModel, embs: &[Vec<Embedding>]) -> Vec<Embedding> {
    // Seed: process modules tightest-first, picking the embedding with the
    // smallest incremental cost.
    let mut order: Vec<usize> = (0..embs.len()).collect();
    order.sort_by_key(|&m| embs[m].len());
    let mut roles = RoleTable::new(num_registers);
    let mut choice: Vec<Option<Embedding>> = vec![None; embs.len()];
    for &m in &order {
        let pick = *embs[m]
            .iter()
            .min_by_key(|e| roles.cost_with(e, model))
            .expect("non-empty embedding list");
        roles.apply(&pick, model);
        choice[m] = Some(pick);
    }
    // Local improvement: re-pick each module's embedding with the others
    // fixed until no change lowers the cost.
    let mut improved = true;
    while improved {
        improved = false;
        for m in 0..embs.len() {
            let mut base = RoleTable::new(num_registers);
            for (i, e) in choice.iter().enumerate() {
                if i != m {
                    base.apply(&e.expect("seeded"), model);
                }
            }
            let current_cost = base.cost_with(&choice[m].expect("seeded"), model);
            for e in &embs[m] {
                if base.cost_with(e, model) < current_cost {
                    choice[m] = Some(*e);
                    improved = true;
                    break;
                }
            }
        }
    }
    choice.into_iter().map(|e| e.expect("seeded")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_datapath::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use lobist_dfg::benchmarks;

    fn ex1_dp(groups: &[Vec<&str>], swaps: &[&str]) -> DataPath {
        let bench = benchmarks::ex1();
        let regs = RegisterAssignment::from_names(&bench.dfg, groups).unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let mut ic = InterconnectAssignment::straight(&bench.dfg);
        for s in swaps {
            ic.swap(bench.dfg.op_by_name(s).unwrap());
        }
        DataPath::build(&bench.dfg, &bench.schedule, bench.lifetime_options, &modules, &regs, &ic)
            .unwrap()
    }

    /// The paper's testable data path for ex1. Straight interconnect
    /// already exposes the shared I-paths: the multiplier's left port
    /// sees {R3 (e), R1 (c)} and its right port {R2 (g), R3 (e)}.
    fn testable() -> DataPath {
        ex1_dp(
            &[vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
            &[],
        )
    }

    #[test]
    fn ex1_testable_reaches_paper_minimum() {
        // Paper (Table II, ex1 testable): exactly 1 CBILBO + 1 TPG —
        // R1 generates for both modules' left ports, R2 is a CBILBO
        // (TPG for the right ports and SA for both modules).
        let sol = solve(&testable(), &AreaModel::default(), &SolverConfig::default()).unwrap();
        assert_eq!(sol.count(BistStyle::Cbilbo), 1);
        assert_eq!(sol.count(BistStyle::Tpg), 1);
        assert_eq!(sol.count(BistStyle::Bilbo), 0);
        assert_eq!(sol.count(BistStyle::Sa), 0);
        assert_eq!(sol.num_test_registers(), 2);
    }

    #[test]
    fn exact_matches_exhaustive_on_ex1() {
        let dp = testable();
        let model = AreaModel::default();
        let exact = solve(&dp, &model, &SolverConfig { mode: SolverMode::Exact, ..Default::default() })
            .unwrap();
        let brute = solve_exhaustive(&dp, &model).unwrap();
        assert_eq!(exact.overhead, brute.overhead);
    }

    #[test]
    fn greedy_is_feasible_and_close_on_ex1() {
        let dp = testable();
        let model = AreaModel::default();
        let greedy = solve(&dp, &model, &SolverConfig { mode: SolverMode::Greedy, ..Default::default() })
            .unwrap();
        let exact = solve_exhaustive(&dp, &model).unwrap();
        assert!(greedy.overhead >= exact.overhead);
        // Greedy should be within 2x on this tiny design.
        assert!(greedy.overhead.get() <= exact.overhead.get() * 2);
    }

    #[test]
    fn no_embedding_reported() {
        // Single-op DFG with both operands in one register.
        use lobist_dfg::{DfgBuilder, OpKind, Schedule};
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.op(OpKind::Add, "t", x.into(), x.into());
        b.mark_output(t);
        let dfg = b.build().unwrap();
        let schedule = Schedule::new(&dfg, vec![1]).unwrap();
        let modules: lobist_dfg::modules::ModuleSet = "1+".parse().unwrap();
        let ma = ModuleAssignment::from_op_names(&dfg, &modules, &[("t_op", 0)]).unwrap();
        let ra = RegisterAssignment::from_names(&dfg, &[vec!["x"], vec!["t"]]).unwrap();
        let ic = InterconnectAssignment::straight(&dfg);
        let dp = DataPath::build(
            &dfg,
            &schedule,
            lobist_dfg::lifetime::LifetimeOptions::registered_inputs(),
            &ma,
            &ra,
            &ic)
        .unwrap();
        let err = solve(&dp, &AreaModel::default(), &SolverConfig::default()).unwrap_err();
        assert!(matches!(err, BistError::NoEmbedding { .. }));
        assert!(err.to_string().contains("no BIST embedding"));
    }

    #[test]
    fn solver_is_optimal_on_multiple_assignments() {
        // Whatever the register assignment, the default solver must match
        // the brute-force optimum (these colorings are all proper for ex1).
        let model = AreaModel::default();
        let cfg = SolverConfig::default();
        for groups in [
            vec![vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
            vec![vec!["e", "f"], vec!["g", "a", "c", "h"], vec!["b", "d"]],
            vec![vec!["e", "h"], vec!["g", "a", "c", "f"], vec!["b", "d"]],
        ] {
            let dp = ex1_dp(&groups, &[]);
            let sol = solve(&dp, &model, &cfg).unwrap();
            let brute = solve_exhaustive(&dp, &model).unwrap();
            assert_eq!(sol.overhead, brute.overhead, "groups {groups:?}");
        }
    }

    #[test]
    fn warm_start_returns_the_identical_choice() {
        let dp = testable();
        let model = AreaModel::default();
        let ipaths = IPathAnalysis::of(&dp);
        let embs = embeddings_per_module(&dp, &ipaths).unwrap();
        let cfg = SolverConfig { mode: SolverMode::Exact, ..Default::default() };
        let cold = select_embeddings(dp.num_registers(), &model, &cfg, &embs, None);
        let u = choice_cost(dp.num_registers(), &model, &cold);
        let warm = select_embeddings(dp.num_registers(), &model, &cfg, &embs, Some(u));
        assert_eq!(cold, warm, "tight warm bound must not change the choice");
        let loose = GateCount(u.get() + 100);
        let warm2 = select_embeddings(dp.num_registers(), &model, &cfg, &embs, Some(loose));
        assert_eq!(cold, warm2, "loose warm bound must not change the choice");
    }

    #[test]
    fn role_table_undo_restores_state_and_cost() {
        let model = AreaModel::default();
        let mut t = RoleTable::new(3);
        let before = t.clone();
        // An embedding whose SA doubles as a TPG (forces a CBILBO) plus a
        // separate TPG exercises every upgrade path.
        let e = Embedding::with_registers(RegisterId(0), RegisterId(1), RegisterId(0));
        let undo = t.apply(&e, &model);
        assert!(t.cost() > before.cost());
        assert_eq!(t.styles[0], BistStyle::Cbilbo);
        t.undo(undo, &model);
        assert_eq!(t, before);
    }

    #[test]
    fn solution_styles_cover_every_module() {
        let sol = solve(&testable(), &AreaModel::default(), &SolverConfig::default()).unwrap();
        for e in &sol.embeddings {
            for t in e.tpg_registers() {
                assert!(sol.style(t).can_generate());
            }
            assert!(sol.style(e.sa).can_analyze());
            if let Some(c) = e.cbilbo_register() {
                assert!(sol.style(c).can_do_both_concurrently());
            }
        }
    }
}

#[cfg(test)]
mod differential {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::embedding::PatternSource;
    use lobist_datapath::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use lobist_dfg::corpus::{self, KINDS};
    use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
    use lobist_dfg::modules::ModuleSet;
    use lobist_dfg::scheduling::list_schedule;
    use lobist_dfg::VarId;
    use lobist_graph::coloring::left_edge;

    /// Asserts the pruned search returns the reference's choice cold,
    /// under a tight warm bound and under a loose one.
    fn assert_same(num_registers: usize, model: &AreaModel, embs: &[Vec<Embedding>]) {
        let cold = branch_and_bound(num_registers, model, embs, None);
        assert_eq!(
            cold,
            branch_and_bound_reference(num_registers, model, embs, None)
        );
        let u = choice_cost(num_registers, model, &cold);
        for warm in [u, GateCount(u.get() + 7)] {
            assert_eq!(
                branch_and_bound(num_registers, model, embs, Some(warm)),
                branch_and_bound_reference(num_registers, model, embs, Some(warm)),
            );
            assert_eq!(
                branch_and_bound(num_registers, model, embs, Some(warm)),
                cold
            );
        }
    }

    /// Random lists over few registers, so costs tie often; some
    /// sources are free primary inputs and some SAs double as TPGs.
    fn random_lists(rng: &mut StdRng) -> (usize, Vec<Vec<Embedding>>) {
        let num_registers = rng.gen_range(2usize..7);
        let reg = |rng: &mut StdRng| RegisterId(rng.gen_range(0..num_registers as u32));
        let modules = rng.gen_range(1usize..6);
        let lists = (0..modules)
            .map(|_| {
                let len = rng.gen_range(1usize..12);
                let mut list: Vec<Embedding> = (0..len)
                    .map(|_| {
                        let source = |rng: &mut StdRng| {
                            if rng.gen_bool(0.2) {
                                PatternSource::Input(VarId(rng.gen_range(0u32..3)))
                            } else {
                                PatternSource::Register(reg(rng))
                            }
                        };
                        let left = source(rng);
                        let right = source(rng);
                        Embedding {
                            left,
                            right,
                            sa: reg(rng),
                        }
                    })
                    .filter(|e| e.left != e.right)
                    .collect();
                if list.is_empty() {
                    list.push(Embedding::with_registers(
                        RegisterId(0),
                        RegisterId(1),
                        RegisterId(0),
                    ));
                }
                list
            })
            .collect();
        (num_registers, lists)
    }

    #[test]
    fn matches_the_reference_on_random_lists_with_ties() {
        let mut rng = StdRng::seed_from_u64(16);
        for width in [1, 8] {
            let model = AreaModel::with_width(width);
            for _ in 0..300 {
                let (n, embs) = random_lists(&mut rng);
                assert_same(n, &model, &embs);
            }
        }
    }

    /// One embedding list per module of a corpus design, bound first-fit
    /// per step, registers by left edge, interconnect straight.
    fn corpus_lists(
        kind: corpus::CorpusKind,
        size: u32,
        modules: &ModuleSet,
    ) -> Option<(usize, Vec<Vec<Embedding>>)> {
        let dfg = corpus::generate(kind, size, 1);
        let schedule = list_schedule(&dfg, modules).ok()?;
        let mut used = std::collections::HashMap::new();
        let module_of: Vec<usize> = dfg
            .op_ids()
            .map(|op| {
                let kind = dfg.op(op).kind;
                let nth = used.entry((schedule.step(op), kind)).or_insert(0);
                *nth += 1;
                modules
                    .supporting(kind)
                    .nth(*nth - 1)
                    .expect("the schedule fits the modules")
            })
            .collect();
        // Keep only the modules some operation landed on.
        let mut used: Vec<usize> = module_of.clone();
        used.sort_unstable();
        used.dedup();
        let kept = ModuleSet::new(used.iter().map(|&m| modules.class(m)).collect());
        let module_of = module_of
            .iter()
            .map(|m| used.binary_search(m).expect("used"))
            .collect();
        let ma = ModuleAssignment::new(&dfg, &kept, module_of).ok()?;
        let lt_opts = LifetimeOptions::registered_inputs();
        let lt = Lifetimes::compute(&dfg, &schedule, lt_opts);
        let spans: Vec<_> = lt
            .reg_vars()
            .iter()
            .map(|&v| lt.interval(v).expect("a register"))
            .collect();
        let colors = left_edge(&spans);
        let mut classes = vec![Vec::new(); colors.iter().max().map_or(0, |c| c + 1)];
        for (&v, &c) in lt.reg_vars().iter().zip(&colors) {
            classes[c].push(v);
        }
        let ra = RegisterAssignment::new(&dfg, classes).ok()?;
        let ic = InterconnectAssignment::straight(&dfg);
        let dp = DataPath::build(&dfg, &schedule, lt_opts, &ma, &ra, &ic).ok()?;
        let embs = embeddings_per_module(&dp, &IPathAnalysis::of(&dp)).ok()?;
        Some((dp.num_registers(), embs))
    }

    #[test]
    fn matches_the_reference_on_corpus_lists() {
        let model = AreaModel::default();
        let mut compared = 0;
        for modules in ["1+,1*,1-", "2+,2*,2-"] {
            let modules: ModuleSet = modules.parse().expect("a module set");
            for kind in KINDS {
                for size in [8, 16, 24] {
                    if let Some((n, embs)) = corpus_lists(kind, size, &modules) {
                        assert_same(n, &model, &embs);
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared >= 12, "only {compared} designs compared");
    }

    #[test]
    fn cut_off_enters_fewer_nodes_than_the_reference() {
        let model = AreaModel::default();
        let modules: ModuleSet = "1+,1*,1-".parse().expect("a module set");
        let (n, embs) = corpus_lists(corpus::CorpusKind::Diffeq, 16, &modules).expect("diffeq");
        let at = search_nodes();
        branch_and_bound(n, &model, &embs, None);
        let pruned = search_nodes() - at;
        branch_and_bound_reference(n, &model, &embs, None);
        let reference = search_nodes() - at - pruned;
        assert!(pruned >= 1 && pruned < reference, "{pruned} vs {reference}");
    }
}
