//! Operation → module assignment (testability-blind).
//!
//! The paper performs module assignment first, with existing
//! area-oriented algorithms and *no* testability consideration: "there is
//! little flexibility within the module assignment solution space for
//! improving testability" (Section III). We implement the standard
//! first-fit binding: walk control steps in order and give each operation
//! the lowest-indexed free module that can execute it, preferring
//! dedicated units over ALUs so ALUs remain available for the kinds only
//! they can serve.

use std::fmt;

use lobist_datapath::{AssignmentError, ModuleAssignment};
use lobist_dfg::modules::{ModuleClass, ModuleSet};
use lobist_dfg::{Dfg, OpId, Schedule};

/// Errors from module assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleAssignError {
    /// More operations of some kind in one step than capable modules.
    Overcommitted {
        /// The control step.
        step: u32,
        /// The operation that could not be placed.
        op: OpId,
    },
    /// Carrier-type validation failed (should not happen for assignments
    /// produced here).
    Invalid(AssignmentError),
}

impl fmt::Display for ModuleAssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleAssignError::Overcommitted { step, op } => {
                write!(f, "no free module for operation {op} in step {step}")
            }
            ModuleAssignError::Invalid(e) => write!(f, "invalid module assignment: {e}"),
        }
    }
}

impl std::error::Error for ModuleAssignError {}

impl From<AssignmentError> for ModuleAssignError {
    fn from(e: AssignmentError) -> Self {
        ModuleAssignError::Invalid(e)
    }
}

/// First-fit module assignment over the schedule.
///
/// Deterministic: operations within a step are processed in id order;
/// each gets the lowest-indexed free capable module, dedicated units
/// before ALUs.
///
/// # Errors
///
/// Returns [`ModuleAssignError::Overcommitted`] if some step needs more
/// modules of a kind than the set provides.
pub fn assign_modules(
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
) -> Result<ModuleAssignment, ModuleAssignError> {
    let mut module_of = vec![usize::MAX; dfg.num_ops()];
    let mut load = vec![0usize; modules.len()];
    // Visit only the occupied steps, ascending, each in op id order (the
    // stable sort keeps id order within a step): an empty step binds
    // nothing, so the run time follows the op count, not the largest
    // step number.
    let mut by_step: Vec<OpId> = dfg.op_ids().collect();
    by_step.sort_by_key(|&op| schedule.step(op));
    for ops in by_step.chunk_by(|&a, &b| schedule.step(a) == schedule.step(b)) {
        let mut free = vec![true; modules.len()];
        // Two passes: first give dedicated units to the ops they match,
        // then fill remaining ops with ALUs. Within a pass, id order;
        // among equally capable free modules, the least-loaded one wins
        // (plain round-robin balancing, standard for area-driven binding).
        for dedicated_pass in [true, false] {
            for &op in ops {
                if module_of[op.index()] != usize::MAX {
                    continue;
                }
                let kind = dfg.op(op).kind;
                let choice = modules
                    .supporting(kind)
                    .filter(|&m| free[m])
                    .filter(|&m| match modules.class(m) {
                        ModuleClass::Op(_) => dedicated_pass,
                        ModuleClass::Alu => !dedicated_pass,
                    })
                    .min_by_key(|&m| (load[m], m));
                if let Some(m) = choice {
                    free[m] = false;
                    module_of[op.index()] = m;
                    load[m] += 1;
                }
            }
        }
        if let Some(&op) = ops.iter().find(|op| module_of[op.index()] == usize::MAX) {
            return Err(ModuleAssignError::Overcommitted {
                step: schedule.step(op),
                op,
            });
        }
    }
    // Drop modules no operation landed on: they would not be instantiated
    // in the data path (and an empty module has no BIST embedding).
    let mut used: Vec<usize> = module_of.clone();
    used.sort_unstable();
    used.dedup();
    if used.len() < modules.len() {
        let classes: Vec<_> = used.iter().map(|&m| modules.class(m)).collect();
        let reduced = ModuleSet::new(classes);
        let remap: Vec<usize> = (0..modules.len())
            .map(|m| used.binary_search(&m).unwrap_or(usize::MAX))
            .collect();
        let module_of: Vec<usize> = module_of.into_iter().map(|m| remap[m]).collect();
        return Ok(ModuleAssignment::new(dfg, &reduced, module_of)?);
    }
    Ok(ModuleAssignment::new(dfg, modules, module_of)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_datapath::ModuleId;
    use lobist_dfg::benchmarks;

    #[test]
    fn ex1_assignment_groups_by_kind() {
        let b = benchmarks::ex1();
        let ma = assign_modules(&b.dfg, &b.schedule, &b.module_allocation).unwrap();
        // Module 0 is the adder, module 1 the multiplier.
        let adder_ops: Vec<String> = ma
            .ops_of(ModuleId(0))
            .iter()
            .map(|&o| b.dfg.op(o).name.clone())
            .collect();
        assert_eq!(adder_ops, vec!["add1", "add2"]);
        let mult_ops: Vec<String> = ma
            .ops_of(ModuleId(1))
            .iter()
            .map(|&o| b.dfg.op(o).name.clone())
            .collect();
        assert_eq!(mult_ops, vec!["mul1", "mul2"]);
    }

    #[test]
    fn every_paper_benchmark_assigns() {
        for b in benchmarks::paper_suite() {
            let ma = assign_modules(&b.dfg, &b.schedule, &b.module_allocation)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_eq!(ma.num_modules(), b.module_allocation.len());
            // Temporal exclusivity per module.
            for m in ma.module_ids() {
                let mut steps: Vec<u32> =
                    ma.ops_of(m).iter().map(|&o| b.schedule.step(o)).collect();
                steps.sort_unstable();
                steps.dedup();
                assert_eq!(steps.len(), ma.ops_of(m).len(), "{}: {m} double-booked", b.name);
            }
        }
    }

    #[test]
    fn alus_get_leftovers() {
        let b = benchmarks::tseng2(); // 1+, 3 ALU
        let ma = assign_modules(&b.dfg, &b.schedule, &b.module_allocation).unwrap();
        // Step 1 has two adds: one on the dedicated adder, one on an ALU.
        let step1 = b.schedule.ops_in_step(1);
        let mods: Vec<usize> = step1.iter().map(|&o| ma.module_of(o).index()).collect();
        assert!(mods.contains(&0), "dedicated adder used first");
        assert!(mods.iter().any(|&m| m > 0), "second add overflows to an ALU");
    }

    #[test]
    fn overcommit_detected() {
        let b = benchmarks::ex2();
        let small: ModuleSet = "1/,1*,2+,1&".parse().unwrap(); // one mult too few
        let err = assign_modules(&b.dfg, &b.schedule, &small).unwrap_err();
        assert!(matches!(err, ModuleAssignError::Overcommitted { step: 1, .. }));
    }

    #[test]
    fn large_step_numbers_cost_nothing() {
        // One op at a huge step: only occupied steps are visited.
        let text = "input a b\ny = a + b @ 4000000000\noutput y\n";
        let (dfg, schedule) = lobist_dfg::parse::parse_dfg(text).unwrap();
        let ma = assign_modules(&dfg, &schedule, &"1+".parse().unwrap()).unwrap();
        assert_eq!(ma.num_modules(), 1);
    }
}
