//! Interconnect (operand→port) assignment — Section IV.
//!
//! For a module `M_k`, each input register (or external source) is
//! connected to the left port only, the right port only, or both: the
//! partition `IR_k = IR_k^L ∪ IR_k^R ∪ IR_k^{LR}`. Pangrle showed minimum
//! connectivity minimizes `|IR_k^{LR}|` — the paper models this as double
//! clique partitioning of the input-register compatibility graph. On top
//! of minimality, the paper *directs* the choice so registers with high
//! sharing degrees land in `IR^{LR}`: an LR register can serve as TPG for
//! either port, improving the BIST optimizer's options.
//!
//! Sources per module are few, so up to ten sources we solve each
//! module's partition exactly, with a pruned depth-first search over
//! labelings scoring `(|LR| asc, Σ_{r∈LR} SD(r) desc)` when
//! BIST-aware and `(|LR| asc)` otherwise; double clique partitioning
//! covers larger fan-ins.

use std::cell::Cell;
use std::collections::BTreeMap;

use lobist_datapath::{
    InterconnectAssignment, ModuleAssignment, ModuleId, PortSide, RegisterAssignment, SourceRef,
};
use lobist_dfg::{Dfg, OpId, Operand};

use crate::variable_sets::SharingContext;

/// Which ports a source is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortLabel {
    /// Left port only.
    Left,
    /// Right port only.
    Right,
    /// Both ports (`IR^{LR}`).
    Both,
}

/// The solved partition for one module (exported for reporting and the
/// Fig. 6 experiment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortPartition {
    /// The module.
    pub module: ModuleId,
    /// Label per source.
    pub labels: BTreeMap<SourceRef, PortLabel>,
}

impl PortPartition {
    /// Sources in `IR^{LR}` (wired to both ports).
    pub fn both_ports(&self) -> Vec<SourceRef> {
        self.labels
            .iter()
            .filter(|(_, &l)| l == PortLabel::Both)
            .map(|(&s, _)| s)
            .collect()
    }
}

fn source_of(ra: &RegisterAssignment, operand: Operand) -> SourceRef {
    match operand {
        Operand::Const(c) => SourceRef::Constant(c),
        Operand::Var(v) => match ra.register_of(v) {
            Some(r) => SourceRef::Register(r),
            None => SourceRef::ExternalInput(v),
        },
    }
}

/// One operand-pair constraint: the two sources of an op instance must
/// reach opposite ports; `fixed` is set for non-commutative kinds (lhs
/// must be Left).
struct InstanceConstraint {
    op: OpId,
    lhs: usize,
    rhs: usize,
    fixed: bool,
}

impl InstanceConstraint {
    /// `true` if `labels` (read at `lhs` and `rhs` only) let the two
    /// operands reach opposite ports, with a fixed lhs on the left.
    fn satisfied(&self, labels: &[PortLabel]) -> bool {
        let (a, b) = (labels[self.lhs], labels[self.rhs]);
        if self.lhs == self.rhs {
            a == PortLabel::Both
        } else if self.fixed {
            a != PortLabel::Right && b != PortLabel::Left
        } else {
            a != b || a == PortLabel::Both
        }
    }
}

/// Modules with at most this many distinct sources get the exact label
/// search; larger ones get double clique partitioning.
const EXACT_SOURCE_LIMIT: usize = 10;

/// One module's port-partition problem with its sources interned in
/// first-use (op) order: the per-instance constraints and sharing
/// degrees reference sources by index only, so two modules whose
/// operand structure and SD profile coincide — even under different
/// register numberings — pose the *same* problem. The flow cache keys
/// its per-module label memo on exactly this shape.
pub struct ModuleProblem {
    /// Distinct sources in first-use order.
    sources: Vec<SourceRef>,
    /// Operand-pair constraints, one per instance in op order.
    constraints: Vec<InstanceConstraint>,
    /// Sharing degree per interned source (0 for non-registers).
    sd: Vec<usize>,
}

impl ModuleProblem {
    /// Collects module `m`'s sources, instance constraints and sharing
    /// degrees from the current register assignment.
    pub fn collect(
        dfg: &Dfg,
        ma: &ModuleAssignment,
        ra: &RegisterAssignment,
        ctx: &SharingContext,
        m: ModuleId,
    ) -> ModuleProblem {
        let mut sources: Vec<SourceRef> = Vec::new();
        let mut index: BTreeMap<SourceRef, usize> = BTreeMap::new();
        let mut intern = |s: SourceRef, sources: &mut Vec<SourceRef>| -> usize {
            *index.entry(s).or_insert_with(|| {
                sources.push(s);
                sources.len() - 1
            })
        };
        let mut constraints: Vec<InstanceConstraint> = Vec::new();
        for &op in ma.ops_of(m) {
            let info = dfg.op(op);
            let l = intern(source_of(ra, info.lhs), &mut sources);
            let r = intern(source_of(ra, info.rhs), &mut sources);
            constraints.push(InstanceConstraint {
                op,
                lhs: l,
                rhs: r,
                fixed: !info.kind.is_commutative(),
            });
        }
        let sd: Vec<usize> = sources
            .iter()
            .map(|s| match s {
                SourceRef::Register(r) => {
                    let mask = ctx.register_mask(ra.classes()[r.index()].iter().copied());
                    ctx.sd_register(mask)
                }
                _ => 0,
            })
            .collect();
        ModuleProblem { sources, constraints, sd }
    }

    /// Number of distinct sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The interned sources in first-use order.
    pub fn sources(&self) -> &[SourceRef] {
        &self.sources
    }

    /// Per-source sharing degrees, parallel to [`sources`](Self::sources).
    pub fn sharing_degrees(&self) -> &[usize] {
        &self.sd
    }

    /// The register-id-free constraint rows `(lhs index, rhs index,
    /// fixed)`, one per instance in op order. Together with the SD
    /// vector this is the whole solve input — the flow cache hashes it
    /// as the stage key.
    pub fn constraint_rows(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        self.constraints.iter().map(|c| (c.lhs, c.rhs, c.fixed))
    }

    /// Solves the port partition for this module: exact for up to ten
    /// sources, double clique partitioning beyond. Pure in the problem
    /// shape — no register identities are consulted — so the result may
    /// be memoized by shape.
    pub fn solve_labels(&self, bist_aware: bool) -> Vec<PortLabel> {
        let n = self.sources.len();
        if n <= EXACT_SOURCE_LIMIT {
            search_labels(&self.constraints, &self.sd, bist_aware)
        } else {
            // The paper's formulation for bigger instances: double clique
            // partitioning of the source compatibility graph.
            double_clique_labels(n, &self.constraints, &self.sd, bist_aware)
        }
    }

    /// Orients every instance of the module from a solved labeling,
    /// writing the per-op lhs side.
    pub fn orient(&self, labels: &[PortLabel], lhs_side: &mut [PortSide]) {
        for c in &self.constraints {
            let side = if c.fixed {
                PortSide::Left
            } else {
                match (labels[c.lhs], labels[c.rhs]) {
                    (PortLabel::Left, _) => PortSide::Left,
                    (PortLabel::Right, _) => PortSide::Right,
                    (PortLabel::Both, PortLabel::Left) => PortSide::Right,
                    (PortLabel::Both, PortLabel::Right) => PortSide::Left,
                    (PortLabel::Both, PortLabel::Both) => PortSide::Left,
                }
            };
            lhs_side[c.op.index()] = side;
        }
    }

    /// The solved partition paired with its sources, for reporting.
    pub fn into_partition(self, m: ModuleId, labels: Vec<PortLabel>) -> PortPartition {
        PortPartition {
            module: m,
            labels: self.sources.into_iter().zip(labels).collect(),
        }
    }
}

/// Computes the full interconnect assignment for a data path.
///
/// `bist_aware` enables the paper's weighting (high-SD registers into
/// `IR^{LR}`); without it, ties are broken arbitrarily (the traditional
/// flow).
///
/// # Examples
///
/// ```
/// use lobist_alloc::interconnect::assign_interconnect;
/// use lobist_alloc::module_assign::assign_modules;
/// use lobist_alloc::variable_sets::SharingContext;
/// use lobist_datapath::RegisterAssignment;
/// use lobist_dfg::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = benchmarks::ex1();
/// let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)?;
/// let ra = RegisterAssignment::from_names(
///     &bench.dfg,
///     &[vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
/// )?;
/// let ctx = SharingContext::new(&bench.dfg, &ma);
/// let (ic, partitions) = assign_interconnect(&bench.dfg, &ma, &ra, &ctx, true);
/// assert_eq!(partitions.len(), 2); // one partition per module
/// # let _ = ic;
/// # Ok(())
/// # }
/// ```
pub fn assign_interconnect(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    ra: &RegisterAssignment,
    ctx: &SharingContext,
    bist_aware: bool,
) -> (InterconnectAssignment, Vec<PortPartition>) {
    let mut lhs_side = vec![PortSide::Left; dfg.num_ops()];
    let mut partitions = Vec::with_capacity(ma.num_modules());
    for m in ma.module_ids() {
        let partition = solve_module(dfg, ma, ra, ctx, m, bist_aware, &mut lhs_side);
        partitions.push(partition);
    }
    let ic = InterconnectAssignment::new(dfg, lhs_side).expect("length matches by construction");
    (ic, partitions)
}

fn solve_module(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    ra: &RegisterAssignment,
    ctx: &SharingContext,
    m: ModuleId,
    bist_aware: bool,
    lhs_side: &mut [PortSide],
) -> PortPartition {
    let problem = ModuleProblem::collect(dfg, ma, ra, ctx, m);
    let labels = problem.solve_labels(bist_aware);
    problem.orient(&labels, lhs_side);
    problem.into_partition(m, labels)
}

/// The exact label search: a depth-first walk over labelings, sources
/// in index order, each tried Left, Right, Both, keeping the first
/// labeling of minimum score `(|LR|, −Σ_{LR} SD)` (the second term is 0
/// when not `bist_aware`).
///
/// A constraint is checked when its later endpoint gets a label, and a
/// prefix is pruned when its bound `(|LR| so far, −(SD in LR so far +
/// SD of every unlabeled source))` is already at least the incumbent's
/// score. This returns exactly what scoring every feasible leaf does (the
/// `exhaustive_labels` reference): leaves are reached in the same
/// order, the incumbent is replaced only by a strictly better score, and
/// a pruned prefix holds no feasible leaf scoring strictly below the
/// incumbent of that moment — a failed constraint makes every leaf below
/// it infeasible, and no leaf below scores under the bound — so the
/// search ends on the same first minimum.
fn search_labels(
    constraints: &[InstanceConstraint],
    sd: &[usize],
    bist_aware: bool,
) -> Vec<PortLabel> {
    let n = sd.len();
    let mut closing: Vec<Vec<&InstanceConstraint>> = vec![Vec::new(); n];
    for c in constraints {
        closing[c.lhs.max(c.rhs)].push(c);
    }
    // The SD a source adds to the score's second term when labeled Both.
    let weight: Vec<i64> = sd
        .iter()
        .map(|&s| if bist_aware { s as i64 } else { 0 })
        .collect();
    let mut weight_rest = vec![0i64; n + 1];
    for i in (0..n).rev() {
        weight_rest[i] = weight_rest[i + 1] + weight[i];
    }
    let mut search = LabelSearch {
        closing,
        weight,
        weight_rest,
        labels: vec![PortLabel::Left; n],
        lr: 0,
        weight_lr: 0,
        best: None,
        nodes: 0,
    };
    search.visit(0);
    LABEL_NODES.with(|c| c.set(c.get() + search.nodes));
    search
        .best
        .map(|(_, l)| l)
        .unwrap_or_else(|| vec![PortLabel::Both; n]) // all-Both is always feasible
}

/// The state of one [`search_labels`] run.
struct LabelSearch<'a> {
    /// Constraints by their later endpoint.
    closing: Vec<Vec<&'a InstanceConstraint>>,
    /// Per source: its SD, or 0 when not BIST-aware.
    weight: Vec<i64>,
    /// `weight_rest[i]`: the weight of sources `i..`.
    weight_rest: Vec<i64>,
    labels: Vec<PortLabel>,
    /// Sources labeled Both so far, and their weight.
    lr: usize,
    weight_lr: i64,
    best: Option<((usize, i64), Vec<PortLabel>)>,
    /// Nodes entered (the work counter).
    nodes: u64,
}

impl LabelSearch<'_> {
    /// Enters the node whose sources `..i` are labeled.
    fn visit(&mut self, i: usize) {
        self.nodes += 1;
        let bound = (self.lr, -(self.weight_lr + self.weight_rest[i]));
        if self.best.as_ref().is_some_and(|(b, _)| bound >= *b) {
            return;
        }
        if i == self.labels.len() {
            // At a leaf the bound is the score itself.
            self.best = Some((bound, self.labels.clone()));
            return;
        }
        for l in [PortLabel::Left, PortLabel::Right, PortLabel::Both] {
            self.labels[i] = l;
            if !self.closing[i].iter().all(|c| c.satisfied(&self.labels)) {
                continue;
            }
            let both = l == PortLabel::Both;
            let weight = if both { self.weight[i] } else { 0 };
            self.lr += usize::from(both);
            self.weight_lr += weight;
            self.visit(i + 1);
            self.lr -= usize::from(both);
            self.weight_lr -= weight;
        }
    }
}

thread_local! {
    static LABEL_NODES: Cell<u64> = const { Cell::new(0) };
}

/// How many nodes the exact label search has entered on the calling
/// thread so far: a deterministic work counter. Callers take the
/// difference of two readings around the work they measure.
pub(crate) fn label_nodes() -> u64 {
    LABEL_NODES.with(Cell::get)
}

/// The paper's Section IV formulation: build the source *compatibility*
/// graph (an edge where two sources may share a port, i.e. no instance
/// uses them as an operand pair), find two disjoint cliques via weighted
/// clique partitioning, assign them to the left and right ports, and put
/// the remaining sources on both ports. Weights steer low-SD sources
/// into the single-port cliques so high-SD registers stay in `IR^{LR}`
/// (when `bist_aware`).
fn double_clique_labels(
    n: usize,
    constraints: &[InstanceConstraint],
    sd: &[usize],
    bist_aware: bool,
) -> Vec<PortLabel> {
    use lobist_graph::clique_partition::partition_weighted;
    use lobist_graph::UGraph;
    let mut compat = UGraph::new(n);
    let mut incompatible = vec![false; n * n];
    let mut self_paired = vec![false; n];
    for c in constraints {
        if c.lhs == c.rhs {
            self_paired[c.lhs] = true;
        } else {
            incompatible[c.lhs * n + c.rhs] = true;
            incompatible[c.rhs * n + c.lhs] = true;
        }
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if !incompatible[u * n + v] && !self_paired[u] && !self_paired[v] {
                compat.add_edge(u, v);
            }
        }
    }
    // Weight merges by how little sharing degree they lock onto a single
    // port (BIST-aware) — the partition then prefers cliques of low-SD
    // sources, leaving high-SD ones for IR^{LR}.
    let big = 1 + sd.iter().copied().max().unwrap_or(0) as i64;
    let p = partition_weighted(&compat, |u, v| {
        if bist_aware {
            2 * big - sd[u] as i64 - sd[v] as i64
        } else {
            1
        }
    });
    // Two largest cliques become the dedicated ports.
    let mut order: Vec<usize> = (0..p.cliques.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(p.cliques[i].len()));
    let mut labels = vec![PortLabel::Both; n];
    if let Some(&li) = order.first() {
        for &v in &p.cliques[li] {
            labels[v] = PortLabel::Left;
        }
    }
    if let Some(&ri) = order.get(1) {
        for &v in &p.cliques[ri] {
            labels[v] = PortLabel::Right;
        }
    }
    // Honor non-commutative orientation: a fixed lhs must not sit in the
    // right-only clique (and vice versa). Try the swapped orientation if
    // it violates less; demote stragglers to Both.
    let violations = |labels: &[PortLabel]| -> usize {
        constraints
            .iter()
            .filter(|c| c.fixed)
            .map(|c| {
                usize::from(labels[c.lhs] == PortLabel::Right)
                    + usize::from(labels[c.rhs] == PortLabel::Left)
            })
            .sum()
    };
    let swapped: Vec<PortLabel> = labels
        .iter()
        .map(|l| match l {
            PortLabel::Left => PortLabel::Right,
            PortLabel::Right => PortLabel::Left,
            PortLabel::Both => PortLabel::Both,
        })
        .collect();
    let mut best = if violations(&swapped) < violations(&labels) {
        swapped
    } else {
        labels
    };
    for c in constraints.iter().filter(|c| c.fixed) {
        if best[c.lhs] == PortLabel::Right {
            best[c.lhs] = PortLabel::Both;
        }
        if best[c.rhs] == PortLabel::Left {
            best[c.rhs] = PortLabel::Both;
        }
    }
    // Sources feeding both operands of one instance must reach both
    // ports regardless of which clique picked them up.
    for (v, &self_pair) in self_paired.iter().enumerate() {
        if self_pair {
            best[v] = PortLabel::Both;
        }
    }
    best
}

/// The original search, kept as the executable reference: all `3ⁿ`
/// labelings, the full feasibility check at every leaf.
#[cfg(test)]
fn exhaustive_labels(problem: &ModuleProblem, bist_aware: bool) -> Vec<PortLabel> {
    let n = problem.sources.len();
    let feasible = |labels: &[PortLabel]| -> bool {
        problem.constraints.iter().all(|c| {
            if c.lhs == c.rhs {
                return labels[c.lhs] == PortLabel::Both;
            }
            let (a, b) = (labels[c.lhs], labels[c.rhs]);
            if c.fixed {
                a != PortLabel::Right && b != PortLabel::Left
            } else {
                // Some orientation must put them on opposite ports.
                !(a == b && a != PortLabel::Both)
                    || matches!((a, b), (PortLabel::Both, _) | (_, PortLabel::Both))
            }
        })
    };

    // Score: fewer LR sources first; then (BIST-aware) more SD in LR.
    let score = |labels: &[PortLabel]| -> (usize, i64) {
        let lr = labels.iter().filter(|&&l| l == PortLabel::Both).count();
        let sd_in_lr: i64 = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == PortLabel::Both)
            .map(|(i, _)| problem.sd[i] as i64)
            .sum();
        (lr, if bist_aware { -sd_in_lr } else { 0 })
    };

    const OPTIONS: [PortLabel; 3] = [PortLabel::Left, PortLabel::Right, PortLabel::Both];
    let mut best: Option<((usize, i64), Vec<PortLabel>)> = None;
    let mut labels = vec![PortLabel::Left; n];
    fn rec(
        i: usize,
        n: usize,
        labels: &mut Vec<PortLabel>,
        feasible: &dyn Fn(&[PortLabel]) -> bool,
        score: &dyn Fn(&[PortLabel]) -> (usize, i64),
        best: &mut Option<((usize, i64), Vec<PortLabel>)>,
        options: &[PortLabel; 3],
    ) {
        if i == n {
            if feasible(labels) {
                let s = score(labels);
                if best.as_ref().is_none_or(|(b, _)| s < *b) {
                    *best = Some((s, labels.clone()));
                }
            }
            return;
        }
        for &l in options {
            labels[i] = l;
            rec(i + 1, n, labels, feasible, score, best, options);
        }
    }
    rec(0, n, &mut labels, &feasible, &score, &mut best, &OPTIONS);
    best.map(|(_, l)| l)
        .unwrap_or_else(|| vec![PortLabel::Both; n]) // all-Both is always feasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module_assign::assign_modules;
    use crate::testable_regalloc::{allocate_registers, TestableAllocOptions};
    use lobist_datapath::DataPath;
    use lobist_dfg::benchmarks;

    fn full_pipeline(bench: &lobist_dfg::benchmarks::Benchmark, bist_aware: bool) -> DataPath {
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let alloc = allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &TestableAllocOptions::default(),
        )
        .unwrap();
        let ctx = SharingContext::new(&bench.dfg, &ma);
        let (ic, _) = assign_interconnect(&bench.dfg, &ma, &alloc.registers, &ctx, bist_aware);
        DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &alloc.registers,
            &ic)
        .unwrap()
    }

    #[test]
    fn interconnect_builds_on_all_paper_benchmarks() {
        for bench in benchmarks::paper_suite() {
            let dp = full_pipeline(&bench, true);
            assert_eq!(dp.num_registers(), bench.expected_min_registers, "{}", bench.name);
        }
    }

    #[test]
    fn noncommutative_operands_never_swap() {
        // Paulin has subtractions; Tseng has sub, div.
        for bench in [benchmarks::paulin(), benchmarks::tseng()] {
            let ma =
                assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
            let alloc = allocate_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &TestableAllocOptions::default(),
            )
            .unwrap();
            let ctx = SharingContext::new(&bench.dfg, &ma);
            let (ic, _) = assign_interconnect(&bench.dfg, &ma, &alloc.registers, &ctx, true);
            for op in bench.dfg.op_ids() {
                if !bench.dfg.op(op).kind.is_commutative() {
                    assert_eq!(ic.lhs_side(op), PortSide::Left);
                }
            }
        }
    }

    #[test]
    fn minimizes_mux_legs_vs_straight() {
        // The partition should never use more mux legs than the naive
        // lhs→L binding on the paper suite.
        for bench in benchmarks::paper_suite() {
            let ma =
                assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
            let alloc = allocate_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &TestableAllocOptions::default(),
            )
            .unwrap();
            let ctx = SharingContext::new(&bench.dfg, &ma);
            let (ic, _) = assign_interconnect(&bench.dfg, &ma, &alloc.registers, &ctx, false);
            let dp_opt = DataPath::build(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &alloc.registers,
                &ic)
            .unwrap();
            let dp_straight = DataPath::build(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &alloc.registers,
                &InterconnectAssignment::straight(&bench.dfg))
            .unwrap();
            assert!(
                dp_opt.total_mux_legs() <= dp_straight.total_mux_legs(),
                "{}: {} vs {}",
                bench.name,
                dp_opt.total_mux_legs(),
                dp_straight.total_mux_legs()
            );
        }
    }

    #[test]
    fn same_source_both_operands_goes_lr() {
        use lobist_dfg::{DfgBuilder, OpKind, Schedule};
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.op(OpKind::Mul, "t", x.into(), x.into());
        b.mark_output(t);
        let dfg = b.build().unwrap();
        let schedule = Schedule::new(&dfg, vec![1]).unwrap();
        let modules: lobist_dfg::modules::ModuleSet = "1*".parse().unwrap();
        let ma = assign_modules(&dfg, &schedule, &modules).unwrap();
        let ra = RegisterAssignment::from_names(&dfg, &[vec!["x"], vec!["t"]]).unwrap();
        let ctx = SharingContext::new(&dfg, &ma);
        let (_, parts) = assign_interconnect(&dfg, &ma, &ra, &ctx, true);
        assert_eq!(parts[0].both_ports().len(), 1);
    }

    #[test]
    fn bist_aware_prefers_high_sd_in_lr() {
        // On ex1 the multiplier reads e (SD-1 register) and c (register
        // with higher SD). When a source must straddle or ties exist, the
        // BIST-aware weighting must never put *less* total SD into LR
        // than the unaware one at equal LR cardinality.
        let bench = benchmarks::ex1();
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let alloc = allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            &TestableAllocOptions::default(),
        )
        .unwrap();
        let ctx = SharingContext::new(&bench.dfg, &ma);
        let (_, aware) = assign_interconnect(&bench.dfg, &ma, &alloc.registers, &ctx, true);
        let (_, unaware) = assign_interconnect(&bench.dfg, &ma, &alloc.registers, &ctx, false);
        for (p_a, p_u) in aware.iter().zip(&unaware) {
            assert_eq!(
                p_a.both_ports().len(),
                p_u.both_ports().len(),
                "weighting must not sacrifice minimality"
            );
        }
    }
}

#[cfg(test)]
mod double_clique_tests {
    use super::*;
    use crate::module_assign::assign_modules;
    use crate::variable_sets::SharingContext;
    use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};

    /// On small modules (where the exhaustive optimum runs), the double
    /// clique partition must produce a *feasible* labeling with an LR set
    /// no larger than optimal + 1 (it is a heuristic, but Pangrle-style
    /// partitions are near-minimal on operand structures this small).
    #[test]
    fn double_clique_is_feasible_and_near_minimal_on_random_designs() {
        let cfg = RandomDfgConfig {
            num_ops: 12,
            num_inputs: 4,
            max_ops_per_step: 3,
            ..RandomDfgConfig::default()
        };
        let mut compared = 0usize;
        for seed in 0..25u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            let modules: lobist_dfg::modules::ModuleSet = "2+,2-,2*,2&".parse().unwrap();
            let Ok(ma) = assign_modules(&dfg, &schedule, &modules) else { continue };
            let Ok(ra) = crate::baseline_regalloc::allocate_registers(
                &dfg,
                &schedule,
                lobist_dfg::lifetime::LifetimeOptions::registered_inputs(),
                crate::baseline_regalloc::BaselineAlgorithm::LeftEdge,
            ) else { continue };
            let ctx = SharingContext::new(&dfg, &ma);
            // The production path (exhaustive at these sizes).
            let (_ic, parts) = assign_interconnect(&dfg, &ma, &ra, &ctx, true);
            // Rebuild each module's inputs and compare against the
            // double-clique labeling driven through a synthetic large-n
            // path by calling it directly.
            for part in &parts {
                let m = part.module;
                let problem = ModuleProblem::collect(&dfg, &ma, &ra, &ctx, m);
                let constraints = &problem.constraints;
                let dc =
                    double_clique_labels(problem.num_sources(), constraints, &problem.sd, true);
                // Feasibility: every constraint satisfiable.
                for c in constraints {
                    if c.lhs == c.rhs {
                        assert_eq!(dc[c.lhs], PortLabel::Both, "seed {seed} {m}");
                        continue;
                    }
                    let (a, b) = (dc[c.lhs], dc[c.rhs]);
                    assert!(
                        a != b || a == PortLabel::Both,
                        "seed {seed} {m}: same-port operand pair"
                    );
                    if c.fixed {
                        assert_ne!(a, PortLabel::Right, "seed {seed} {m}: fixed lhs on R");
                        assert_ne!(b, PortLabel::Left, "seed {seed} {m}: fixed rhs on L");
                    }
                }
                // Near-minimality vs the exhaustive production labels.
                let optimal_lr = part
                    .labels
                    .values()
                    .filter(|&&l| l == PortLabel::Both)
                    .count();
                let dc_lr = dc.iter().filter(|&&l| l == PortLabel::Both).count();
                // The greedy clique partition is a heuristic: allow a
                // bounded gap to the exhaustive optimum.
                assert!(
                    dc_lr <= optimal_lr + 2 || dc_lr <= 2 * optimal_lr.max(1),
                    "seed {seed} {m}: {dc_lr} vs optimal {optimal_lr}"
                );
                compared += 1;
            }
        }
        assert!(compared >= 30, "only {compared} modules compared");
    }
}

#[cfg(test)]
mod label_search_differential {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use lobist_datapath::RegisterId;

    /// A random problem over `n` sources: commutative and fixed
    /// constraints, self-pairs, and SDs drawn from a small range so they
    /// tie.
    fn random_problem(rng: &mut StdRng, n: usize) -> ModuleProblem {
        let instances = if n == 0 {
            0
        } else {
            rng.gen_range(1usize..2 * n + 2)
        };
        let constraints = (0..instances)
            .map(|i| {
                let lhs = rng.gen_range(0..n);
                let rhs = if rng.gen_bool(0.1) {
                    lhs
                } else {
                    rng.gen_range(0..n)
                };
                InstanceConstraint {
                    op: OpId(i as u32),
                    lhs,
                    rhs,
                    fixed: rng.gen_bool(0.3),
                }
            })
            .collect();
        ModuleProblem {
            sources: (0..n)
                .map(|r| SourceRef::Register(RegisterId(r as u32)))
                .collect(),
            constraints,
            sd: (0..n).map(|_| rng.gen_range(0usize..4)).collect(),
        }
    }

    #[test]
    fn pruned_search_matches_the_exhaustive_reference() {
        let mut rng = StdRng::seed_from_u64(16);
        for n in 0..=EXACT_SOURCE_LIMIT {
            let cases = if n <= 7 { 60 } else { 6 };
            for _ in 0..cases {
                let problem = random_problem(&mut rng, n);
                for bist_aware in [false, true] {
                    assert_eq!(
                        problem.solve_labels(bist_aware),
                        exhaustive_labels(&problem, bist_aware),
                        "n {n}, bist_aware {bist_aware}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_search_matches_on_the_paper_suite() {
        use crate::module_assign::assign_modules;
        use crate::testable_regalloc::{allocate_registers, TestableAllocOptions};
        for bench in lobist_dfg::benchmarks::paper_suite() {
            let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
            let ra = allocate_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &TestableAllocOptions::default(),
            )
            .unwrap()
            .registers;
            let ctx = SharingContext::new(&bench.dfg, &ma);
            for m in ma.module_ids() {
                let problem = ModuleProblem::collect(&bench.dfg, &ma, &ra, &ctx, m);
                for bist_aware in [false, true] {
                    assert_eq!(
                        problem.solve_labels(bist_aware),
                        exhaustive_labels(&problem, bist_aware),
                        "{} {m}",
                        bench.name
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_enters_far_fewer_nodes_than_three_to_the_n() {
        let mut rng = StdRng::seed_from_u64(3);
        let problem = random_problem(&mut rng, EXACT_SOURCE_LIMIT);
        let before = label_nodes();
        problem.solve_labels(true);
        let nodes = label_nodes() - before;
        assert!(
            (1..3u64.pow(EXACT_SOURCE_LIMIT as u32)).contains(&nodes),
            "{nodes}"
        );
    }
}
