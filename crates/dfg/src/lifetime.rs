//! Variable lifetimes and the variable conflict graph.
//!
//! Two variables may share a register exactly when their lifetimes do not
//! overlap. Because the behavioural descriptions considered here are
//! straight-line (no mutual exclusion, no loops), the conflict graph is an
//! interval graph and minimum register allocation is a polynomial-time
//! coloring problem (Springer & Thomas).
//!
//! Conventions (see DESIGN.md):
//!
//! * A computed variable is born at its producer's control step and dies
//!   at its last consumer's step (half-open interval).
//! * A primary output stays live through `max_step + 1` so it can be
//!   sampled after the computation completes.
//! * Primary inputs either occupy registers — born one step before first
//!   use ("lazy" arrival) — or are *port-resident* and never allocated,
//!   selected by [`LifetimeOptions::inputs_in_registers`]. Both styles
//!   appear in the HLS-for-testability literature; the paper's `ex1`
//!   conflict graph registers its inputs while the Paulin comparison
//!   (Table III) matches the port-resident convention.

use lobist_graph::interval::{self, Interval};
use lobist_graph::UGraph;

use crate::dfg::Dfg;
use crate::schedule::Schedule;
use crate::types::VarId;

/// Conventions controlling which variables occupy registers and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeOptions {
    /// If `true`, primary inputs are stored in registers from one step
    /// before their first use; if `false` they are read directly from
    /// input ports and never allocated.
    pub inputs_in_registers: bool,
}

impl LifetimeOptions {
    /// Primary inputs occupy registers (the `ex1`/`ex2`/Tseng convention).
    pub fn registered_inputs() -> Self {
        Self {
            inputs_in_registers: true,
        }
    }

    /// Primary inputs are port-resident (the Paulin/Table III convention).
    pub fn port_inputs() -> Self {
        Self {
            inputs_in_registers: false,
        }
    }
}

impl Default for LifetimeOptions {
    fn default() -> Self {
        Self::registered_inputs()
    }
}

/// Lifetime intervals for every variable of a scheduled DFG, plus a dense
/// index over the variables that require registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifetimes {
    intervals: Vec<Option<Interval>>,
    reg_vars: Vec<VarId>,
    dense: Vec<Option<usize>>,
}

impl Lifetimes {
    /// Computes lifetimes for `dfg` under `schedule` and `opts`.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` was not built for `dfg` (length mismatch).
    pub fn compute(dfg: &Dfg, schedule: &Schedule, opts: LifetimeOptions) -> Self {
        assert_eq!(
            schedule.len(),
            dfg.num_ops(),
            "schedule does not match the DFG"
        );
        // Outputs live until `smax + 1`, which cannot overflow:
        // `Schedule::new` caps steps at `MAX_STEP`.
        let smax = schedule.max_step();
        let mut intervals: Vec<Option<Interval>> = Vec::with_capacity(dfg.num_vars());
        for v in dfg.var_ids() {
            let info = dfg.var(v);
            let last_use = info
                .consumers
                .iter()
                .map(|&op| schedule.step(op))
                .max();
            let iv = match info.producer {
                Some(p) => {
                    let birth = schedule.step(p);
                    let death = if info.is_output {
                        smax + 1
                    } else {
                        last_use.expect("non-output variables have consumers (validated)")
                    };
                    Some(Interval::new(birth, death.max(birth)))
                }
                None => {
                    if opts.inputs_in_registers {
                        // An input with no consumers can only be a pass-through
                        // primary output (validated); it is live from step 0.
                        let first = info
                            .consumers
                            .iter()
                            .map(|&op| schedule.step(op))
                            .min()
                            .unwrap_or(1);
                        let death = if info.is_output {
                            smax + 1
                        } else {
                            last_use.expect("non-output inputs have consumers (validated)")
                        };
                        Some(Interval::new(first - 1, death.max(first - 1)))
                    } else {
                        None
                    }
                }
            };
            intervals.push(iv);
        }
        let mut reg_vars = Vec::new();
        let mut dense = vec![None; dfg.num_vars()];
        for v in dfg.var_ids() {
            if intervals[v.index()].is_some() {
                dense[v.index()] = Some(reg_vars.len());
                reg_vars.push(v);
            }
        }
        Self {
            intervals,
            reg_vars,
            dense,
        }
    }

    /// The lifetime of `v`, or `None` for port-resident inputs.
    pub fn interval(&self, v: VarId) -> Option<Interval> {
        self.intervals[v.index()]
    }

    /// Variables that occupy registers, in id order. Indices into this
    /// slice are the vertex numbers of [`conflict_graph`](Self::conflict_graph).
    pub fn reg_vars(&self) -> &[VarId] {
        &self.reg_vars
    }

    /// Dense index of `v` among register variables, if it has one.
    pub fn reg_index(&self, v: VarId) -> Option<usize> {
        self.dense[v.index()]
    }

    /// `true` if `u` and `v` cannot share a register.
    pub fn conflicts(&self, u: VarId, v: VarId) -> bool {
        match (self.interval(u), self.interval(v)) {
            (Some(a), Some(b)) => u != v && a.overlaps(&b),
            _ => false,
        }
    }

    /// The variable conflict graph over register variables (vertex `i`
    /// is `self.reg_vars()[i]`).
    pub fn conflict_graph(&self) -> UGraph {
        let spans: Vec<Interval> = self
            .reg_vars
            .iter()
            .map(|&v| self.intervals[v.index()].expect("reg vars have intervals"))
            .collect();
        interval::conflict_graph(&spans)
    }

    /// Minimum number of registers (the maximum number of simultaneously
    /// live register variables).
    pub fn min_registers(&self) -> usize {
        let spans: Vec<Interval> = self
            .reg_vars
            .iter()
            .map(|&v| self.intervals[v.index()].expect("reg vars have intervals"))
            .collect();
        interval::max_overlap(&spans)
    }

    /// The paper's `MCS` statistic per register variable: the size of the
    /// largest clique each variable belongs to, indexed like
    /// [`reg_vars`](Self::reg_vars).
    pub fn max_clique_sizes(&self) -> Vec<usize> {
        let spans: Vec<Interval> = self
            .reg_vars
            .iter()
            .map(|&v| self.intervals[v.index()].expect("reg vars have intervals"))
            .collect();
        interval::max_clique_sizes(&spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgBuilder;
    use crate::types::OpKind;

    /// d = (a + b) * c over three steps.
    fn small() -> (Dfg, Schedule) {
        let mut b = DfgBuilder::new();
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let s = b.op(OpKind::Add, "s", a.into(), bb.into());
        let d = b.op(OpKind::Mul, "d", s.into(), c.into());
        b.mark_output(d);
        let dfg = b.build().unwrap();
        let sched = Schedule::new(&dfg, vec![1, 2]).unwrap();
        (dfg, sched)
    }

    #[test]
    fn registered_inputs_get_intervals() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let a = dfg.var_by_name("a").unwrap();
        let c = dfg.var_by_name("c").unwrap();
        // a used at step 1 only: [0, 1). c used at step 2: [1, 2).
        assert_eq!(lt.interval(a), Some(Interval::new(0, 1)));
        assert_eq!(lt.interval(c), Some(Interval::new(1, 2)));
        assert_eq!(lt.reg_vars().len(), 5);
    }

    #[test]
    fn port_inputs_are_excluded() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::port_inputs());
        let a = dfg.var_by_name("a").unwrap();
        assert_eq!(lt.interval(a), None);
        assert_eq!(lt.reg_vars().len(), 2); // s and d
        assert_eq!(lt.reg_index(a), None);
    }

    #[test]
    fn computed_variable_lifetime() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let s = dfg.var_by_name("s").unwrap();
        // Born at step 1 (producer), dies at step 2 (only consumer).
        assert_eq!(lt.interval(s), Some(Interval::new(1, 2)));
    }

    #[test]
    fn outputs_persist_past_the_schedule() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let d = dfg.var_by_name("d").unwrap();
        assert_eq!(lt.interval(d), Some(Interval::new(2, 3))); // max_step+1 = 3
    }

    #[test]
    fn conflict_graph_and_min_registers() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let g = lt.conflict_graph();
        assert_eq!(g.len(), 5);
        // a and b overlap at [0,1); c and s overlap at [1,2).
        let idx = |name: &str| lt.reg_index(dfg.var_by_name(name).unwrap()).unwrap();
        assert!(g.has_edge(idx("a"), idx("b")));
        assert!(g.has_edge(idx("c"), idx("s")));
        assert!(!g.has_edge(idx("a"), idx("d")));
        assert_eq!(lt.min_registers(), 2);
    }

    #[test]
    fn conflicts_predicate_matches_graph() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let a = dfg.var_by_name("a").unwrap();
        let b = dfg.var_by_name("b").unwrap();
        let d = dfg.var_by_name("d").unwrap();
        assert!(lt.conflicts(a, b));
        assert!(!lt.conflicts(a, d));
        assert!(!lt.conflicts(a, a));
    }

    #[test]
    fn mcs_matches_conflict_graph_cliques() {
        let (dfg, sched) = small();
        let lt = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let mcs = lt.max_clique_sizes();
        assert_eq!(mcs.len(), lt.reg_vars().len());
        assert!(mcs.iter().all(|&m| (1..=2).contains(&m)));
    }

    #[test]
    fn port_inputs_reduce_register_pressure() {
        let (dfg, sched) = small();
        let with = Lifetimes::compute(&dfg, &sched, LifetimeOptions::registered_inputs());
        let without = Lifetimes::compute(&dfg, &sched, LifetimeOptions::port_inputs());
        assert!(without.min_registers() <= with.min_registers());
    }
}
