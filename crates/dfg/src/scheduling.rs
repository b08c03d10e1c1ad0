//! ASAP, ALAP and resource-constrained list scheduling.
//!
//! The paper assumes a schedule is given; these standard schedulers make
//! the library usable end-to-end from an unscheduled DFG and feed the
//! random-design experiments. All operations take one control step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dfg::Dfg;
use crate::modules::ModuleSet;
use crate::schedule::Schedule;
use crate::types::{OpId, OpKind, Operand};

/// As-soon-as-possible schedule: every operation runs one step after its
/// latest-producing predecessor (inputs are available from step 0).
pub fn asap(dfg: &Dfg) -> Schedule {
    let mut steps = vec![0u32; dfg.num_ops()];
    for op in dfg.topo_order() {
        let ready = dfg
            .op(op)
            .input_vars()
            .filter_map(|v| dfg.var(v).producer)
            .map(|p| steps[p.index()])
            .max()
            .unwrap_or(0);
        steps[op.index()] = ready + 1;
    }
    Schedule::new(dfg, steps).expect("ASAP schedules satisfy all dependencies")
}

/// As-late-as-possible schedule for a given overall `latency` (in control
/// steps). Returns `None` if `latency` is smaller than the critical path.
pub fn alap(dfg: &Dfg, latency: u32) -> Option<Schedule> {
    let critical = asap(dfg).max_step();
    if latency < critical {
        return None;
    }
    let mut steps = vec![latency; dfg.num_ops()];
    let order = dfg.topo_order();
    for &op in order.iter().rev() {
        // The earliest consumer of this op's result bounds it from above.
        let out = dfg.op(op).out;
        let bound = dfg
            .var(out)
            .consumers
            .iter()
            .map(|c| steps[c.index()] - 1)
            .min()
            .unwrap_or(latency);
        steps[op.index()] = bound;
    }
    Some(Schedule::new(dfg, steps).expect("ALAP with latency >= critical path is valid"))
}

/// Error from resource-constrained list scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListScheduleError {
    /// No module in the set can execute an operation of this kind.
    NoCapableModule {
        /// The unsupported operation kind.
        kind: OpKind,
    },
}

impl std::fmt::Display for ListScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListScheduleError::NoCapableModule { kind } => {
                write!(f, "no module in the set can execute `{kind}` operations")
            }
        }
    }
}

impl std::error::Error for ListScheduleError {}

/// Resource-constrained list scheduling: at every step, ready operations
/// are started in order of decreasing urgency (smallest ALAP mobility
/// first, lowest id breaking ties) as long as a capable module is free.
///
/// Dedicated units are claimed before ALUs so ALUs stay free for the
/// kinds nothing else can serve.
///
/// The scheduler is event-driven: an operation joins its kind's ready
/// queue once its last producer has run, and each step pops the most
/// urgent head among the kinds that still have a free capable module.
/// Every kind whose head finds no module is closed for the step, since
/// modules only get taken within a step. The cost is about linear in
/// the operations, however many steps the modules force.
///
/// # Errors
///
/// Returns [`ListScheduleError::NoCapableModule`] if some operation kind
/// has no capable module at all.
pub fn list_schedule(dfg: &Dfg, modules: &ModuleSet) -> Result<Schedule, ListScheduleError> {
    for op in dfg.op_ids() {
        let kind = dfg.op(op).kind;
        if modules.supporting(kind).next().is_none() {
            return Err(ListScheduleError::NoCapableModule { kind });
        }
    }
    let n = dfg.num_ops();
    let (mobility, latency) = mobility(dfg);
    // Operand reads still waiting on an unscheduled producer.
    let mut pending: Vec<u32> = dfg
        .op_ids()
        .map(|op| {
            let info = dfg.op(op);
            info.input_vars().filter(|&v| dfg.var(v).producer.is_some()).count() as u32
        })
        .collect();
    let mut ready: [BinaryHeap<Reverse<(u32, u32)>>; KINDS] = Default::default();
    let enqueue = |ready: &mut [BinaryHeap<Reverse<(u32, u32)>>; KINDS], op: OpId| {
        ready[dfg.op(op).kind as usize].push(Reverse((mobility[op.index()], op.0)));
    };
    for op in dfg.op_ids().filter(|op| pending[op.index()] == 0) {
        enqueue(&mut ready, op);
    }

    let mut steps = vec![0u32; n];
    let mut free = vec![true; modules.len()];
    let mut started: Vec<OpId> = Vec::new();
    let mut step = 0u32;
    while started.len() < n {
        step += 1;
        // A module is free until claimed this step.
        free.fill(true);
        let mut open = [true; KINDS];
        let first = started.len();
        // The most urgent ready op of a kind that may still find a module.
        while let Some((kind, Reverse((_, id)))) = (0..KINDS)
            .filter(|&k| open[k])
            .filter_map(|k| ready[k].peek().map(|&head| (k, head)))
            .min_by_key(|&(_, Reverse(head))| head)
        {
            // Prefer dedicated units; fall back to a free ALU.
            let choice = modules
                .supporting(OpKind::ALL[kind])
                .filter(|&m| free[m])
                .min_by_key(|&m| match modules.class(m) {
                    crate::modules::ModuleClass::Op(_) => (0, m),
                    crate::modules::ModuleClass::Alu => (1, m),
                });
            match choice {
                Some(m) => {
                    free[m] = false;
                    ready[kind].pop();
                    steps[id as usize] = step;
                    started.push(OpId(id));
                }
                None => open[kind] = false,
            }
        }
        // Consumers of this step's ops become ready for the next one.
        for &op in &started[first..] {
            let out = dfg.op(op).out;
            for &c in &dfg.var(out).consumers {
                let reader = dfg.op(c);
                let reads = u32::from(reader.lhs == Operand::Var(out))
                    + u32::from(reader.rhs == Operand::Var(out));
                pending[c.index()] -= reads;
                if pending[c.index()] == 0 {
                    enqueue(&mut ready, c);
                }
            }
        }
        assert!(
            u64::from(step) <= (n as u64 + 1) * (u64::from(latency) + 1),
            "list scheduler failed to make progress"
        );
    }
    Ok(Schedule::new(dfg, steps).expect("list schedule respects dependencies by construction"))
}

/// One ready queue per operation kind, indexed by `kind as usize`.
const KINDS: usize = OpKind::ALL.len();

/// Each op's ALAP-minus-ASAP slack at the critical-path latency, and
/// that latency. Op ids are a topological order, so one forward and one
/// backward sweep compute both schedules.
fn mobility(dfg: &Dfg) -> (Vec<u32>, u32) {
    let mut asap = vec![0u32; dfg.num_ops()];
    for op in dfg.op_ids() {
        let ready = dfg
            .op(op)
            .input_vars()
            .filter_map(|v| dfg.var(v).producer)
            .map(|p| asap[p.index()])
            .max()
            .unwrap_or(0);
        asap[op.index()] = ready + 1;
    }
    let latency = asap.iter().copied().max().unwrap_or(0);
    let mut slack = vec![0u32; dfg.num_ops()];
    for op in (0..dfg.num_ops() as u32).rev().map(OpId) {
        let alap = dfg
            .var(dfg.op(op).out)
            .consumers
            .iter()
            .map(|c| asap[c.index()] + slack[c.index()] - 1)
            .min()
            .unwrap_or(latency);
        slack[op.index()] = alap - asap[op.index()];
    }
    (slack, latency)
}

/// The executable reference [`list_schedule`] is differentially tested
/// against: every step rescans all operations for the ready ones and
/// sorts them by mobility.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::*;

    pub(crate) fn list_schedule(dfg: &Dfg, modules: &ModuleSet) -> Result<Schedule, ListScheduleError> {
        for op in dfg.op_ids() {
            let kind = dfg.op(op).kind;
            if modules.supporting(kind).next().is_none() {
                return Err(ListScheduleError::NoCapableModule { kind });
            }
        }
        let asap_s = asap(dfg);
        let latency = asap_s.max_step();
        let alap_s = alap(dfg, latency).expect("latency equals critical path");
        let mobility: HashMap<OpId, u32> = dfg
            .op_ids()
            .map(|op| (op, alap_s.step(op) - asap_s.step(op)))
            .collect();

        let mut steps = vec![0u32; dfg.num_ops()];
        let mut done = vec![false; dfg.num_ops()];
        let mut remaining = dfg.num_ops();
        let mut step = 0u32;
        while remaining > 0 {
            step += 1;
            // A module is free until claimed this step.
            let mut free: Vec<bool> = vec![true; modules.len()];
            // Ready = all producing predecessors finished in earlier steps.
            let mut ready: Vec<OpId> = dfg
                .op_ids()
                .filter(|&op| !done[op.index()])
                .filter(|&op| {
                    dfg.op(op)
                        .input_vars()
                        .filter_map(|v| dfg.var(v).producer)
                        .all(|p| done[p.index()] && steps[p.index()] < step)
                })
                .collect();
            ready.sort_by_key(|&op| (mobility[&op], op.index()));
            for op in ready {
                let kind = dfg.op(op).kind;
                // Prefer dedicated units; fall back to a free ALU.
                let choice = modules
                    .supporting(kind)
                    .filter(|&m| free[m])
                    .min_by_key(|&m| match modules.class(m) {
                        crate::modules::ModuleClass::Op(_) => (0, m),
                        crate::modules::ModuleClass::Alu => (1, m),
                    });
                if let Some(m) = choice {
                    free[m] = false;
                    steps[op.index()] = step;
                    done[op.index()] = true;
                    remaining -= 1;
                }
            }
            assert!(
                step <= (dfg.num_ops() as u32 + 1) * (latency + 1),
                "list scheduler failed to make progress"
            );
        }
        Ok(Schedule::new(dfg, steps).expect("list schedule respects dependencies by construction"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgBuilder;

    fn ladder() -> Dfg {
        // Four independent adds feeding two mults feeding one final add.
        let mut b = DfgBuilder::new();
        let ins: Vec<_> = (0..8).map(|i| b.input(&format!("x{i}"))).collect();
        let a0 = b.op(OpKind::Add, "a0", ins[0].into(), ins[1].into());
        let a1 = b.op(OpKind::Add, "a1", ins[2].into(), ins[3].into());
        let a2 = b.op(OpKind::Add, "a2", ins[4].into(), ins[5].into());
        let a3 = b.op(OpKind::Add, "a3", ins[6].into(), ins[7].into());
        let m0 = b.op(OpKind::Mul, "m0", a0.into(), a1.into());
        let m1 = b.op(OpKind::Mul, "m1", a2.into(), a3.into());
        let r = b.op(OpKind::Add, "r", m0.into(), m1.into());
        b.mark_output(r);
        b.build().unwrap()
    }

    #[test]
    fn asap_gives_critical_path() {
        let g = ladder();
        let s = asap(&g);
        assert_eq!(s.max_step(), 3);
        assert_eq!(s.step(g.op_by_name("a0_op").unwrap()), 1);
        assert_eq!(s.step(g.op_by_name("m0_op").unwrap()), 2);
        assert_eq!(s.step(g.op_by_name("r_op").unwrap()), 3);
    }

    #[test]
    fn alap_pushes_ops_late() {
        let g = ladder();
        let s = alap(&g, 5).unwrap();
        assert_eq!(s.step(g.op_by_name("r_op").unwrap()), 5);
        assert_eq!(s.step(g.op_by_name("m0_op").unwrap()), 4);
        assert_eq!(s.step(g.op_by_name("a0_op").unwrap()), 3);
    }

    #[test]
    fn alap_rejects_too_tight_latency() {
        let g = ladder();
        assert!(alap(&g, 2).is_none());
        assert!(alap(&g, 3).is_some());
    }

    #[test]
    fn list_schedule_respects_resources() {
        let g = ladder();
        let modules: ModuleSet = "1+,1*".parse().unwrap();
        let s = list_schedule(&g, &modules).unwrap();
        // Only one adder: the four adds occupy four distinct steps.
        for step in 1..=s.max_step() {
            let adds = s
                .ops_in_step(step)
                .into_iter()
                .filter(|&o| g.op(o).kind == OpKind::Add)
                .count();
            let muls = s
                .ops_in_step(step)
                .into_iter()
                .filter(|&o| g.op(o).kind == OpKind::Mul)
                .count();
            assert!(adds <= 1, "step {step} has {adds} adds");
            assert!(muls <= 1, "step {step} has {muls} muls");
        }
    }

    #[test]
    fn list_schedule_uses_parallel_resources() {
        let g = ladder();
        let wide: ModuleSet = "4+,2*".parse().unwrap();
        let s = list_schedule(&g, &wide).unwrap();
        assert_eq!(s.max_step(), 3, "ample resources recover the ASAP latency");
    }

    #[test]
    fn list_schedule_alu_fallback() {
        let g = ladder();
        let modules: ModuleSet = "1*,2ALU".parse().unwrap();
        let s = list_schedule(&g, &modules).unwrap();
        // 2 ALUs + 1 mult: adds go to ALUs.
        assert!(s.max_step() >= 3);
        for step in 1..=s.max_step() {
            assert!(s.ops_in_step(step).len() <= 3);
        }
    }

    #[test]
    fn list_schedule_missing_module_kind() {
        let g = ladder();
        let modules: ModuleSet = "2+".parse().unwrap();
        assert_eq!(
            list_schedule(&g, &modules).unwrap_err(),
            ListScheduleError::NoCapableModule { kind: OpKind::Mul }
        );
    }

    #[test]
    fn ready_queues_index_kinds_in_all_order() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn event_driven_scheduler_matches_the_reference() {
        use crate::corpus::{generate, KINDS};
        use crate::random::{random_scheduled_dfg, RandomDfgConfig};
        let sets: Vec<ModuleSet> = [
            "1+,1*,1-",
            "2+,2*,2-",
            "1*,2ALU",
            "1+,3ALU",
            "1ALU",
            "2+,1*,1-,1ALU",
            "1ALU,1+,2*",
            "1+,1*,1-,1/,1&,1|,1^,1<",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let mut designs: Vec<Dfg> = Vec::new();
        for size in [1, 2, 4, 7, 12, 20, 33] {
            for kind in KINDS {
                designs.push(generate(kind, size, 11));
            }
        }
        for seed in 0..60u64 {
            let cfg = RandomDfgConfig {
                num_ops: 1 + (seed as usize * 7) % 45,
                num_inputs: 1 + seed as usize % 6,
                max_ops_per_step: 1 + seed as usize % 4,
                kinds: if seed % 2 == 0 {
                    &[OpKind::Add, OpKind::Sub, OpKind::Mul]
                } else {
                    &OpKind::ALL
                },
            };
            designs.push(random_scheduled_dfg(seed, &cfg).0);
        }
        let mut scheduled = 0;
        for dfg in &designs {
            for modules in &sets {
                let fast = list_schedule(dfg, modules);
                assert_eq!(fast, reference::list_schedule(dfg, modules), "{modules}");
                scheduled += usize::from(fast.is_ok());
            }
        }
        assert!(scheduled > designs.len() * 3, "{scheduled}");
    }
}
