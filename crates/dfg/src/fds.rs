//! Force-directed scheduling (Paulin & Knight, 1989).
//!
//! The paper's Paulin benchmark originates from the force-directed
//! scheduling work it cites as \[15\]; this module provides that scheduler
//! so unscheduled designs can be brought into the allocation flow with
//! balanced resource usage rather than the greedy list schedule.
//!
//! The algorithm fixes one operation per iteration: for every
//! not-yet-fixed operation and every control step in its mobility window
//! (between its ASAP and ALAP times), it computes the *force* — the
//! change in the expected concurrency of its operation kind, plus the
//! implied forces on predecessors and successors whose windows shrink —
//! and commits the (operation, step) pair of minimum force. Balancing
//! expected concurrency minimizes the number of functional units needed
//! for the target latency.

use std::collections::HashMap;

use crate::dfg::Dfg;
use crate::schedule::Schedule;
use crate::scheduling::asap;
use crate::types::{OpId, OpKind};

/// Error: the requested latency is below the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTooSmall {
    /// The critical-path length (minimum feasible latency).
    pub critical_path: u32,
}

impl std::fmt::Display for LatencyTooSmall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency below the critical path ({} steps required)",
            self.critical_path
        )
    }
}

impl std::error::Error for LatencyTooSmall {}

/// Mobility windows under partial fixing.
#[derive(Debug, Clone)]
struct Windows {
    early: Vec<u32>,
    late: Vec<u32>,
}

impl Windows {
    fn width(&self, op: OpId) -> u32 {
        self.late[op.index()] - self.early[op.index()] + 1
    }
}

fn recompute_windows(dfg: &Dfg, latency: u32, fixed: &[Option<u32>]) -> Windows {
    let order = dfg.topo_order();
    let mut early = vec![1u32; dfg.num_ops()];
    for &op in &order {
        let ready = dfg
            .op(op)
            .input_vars()
            .filter_map(|v| dfg.var(v).producer)
            .map(|p| early[p.index()] + 1)
            .max()
            .unwrap_or(1);
        early[op.index()] = match fixed[op.index()] {
            Some(s) => s,
            None => ready,
        };
    }
    let mut late = vec![latency; dfg.num_ops()];
    for &op in order.iter().rev() {
        let bound = dfg
            .var(dfg.op(op).out)
            .consumers
            .iter()
            .map(|c| late[c.index()] - 1)
            .min()
            .unwrap_or(latency);
        late[op.index()] = match fixed[op.index()] {
            Some(s) => s,
            None => bound,
        };
    }
    Windows { early, late }
}

/// Distribution graphs: expected concurrency per kind per step.
fn distribution(dfg: &Dfg, latency: u32, w: &Windows) -> HashMap<OpKind, Vec<f64>> {
    let mut dg: HashMap<OpKind, Vec<f64>> = HashMap::new();
    for op in dfg.op_ids() {
        let kind = dfg.op(op).kind;
        let entry = dg.entry(kind).or_insert_with(|| vec![0.0; latency as usize + 1]);
        let width = w.width(op) as f64;
        for s in w.early[op.index()]..=w.late[op.index()] {
            entry[s as usize] += 1.0 / width;
        }
    }
    dg
}

/// Self force of placing `op` at `step` given the current distribution.
fn self_force(dfg: &Dfg, op: OpId, step: u32, w: &Windows, dg: &HashMap<OpKind, Vec<f64>>) -> f64 {
    let kind = dfg.op(op).kind;
    let d = &dg[&kind];
    let width = w.width(op) as f64;
    let mut force = 0.0;
    for s in w.early[op.index()]..=w.late[op.index()] {
        let x = if s == step { 1.0 } else { 0.0 };
        force += d[s as usize] * (x - 1.0 / width);
    }
    force
}

/// Total force of fixing `op` at `step`: self force plus the self forces
/// implied on every other operation whose window shrinks.
fn total_force(
    dfg: &Dfg,
    latency: u32,
    fixed: &[Option<u32>],
    w: &Windows,
    dg: &HashMap<OpKind, Vec<f64>>,
    op: OpId,
    step: u32,
) -> f64 {
    let mut force = self_force(dfg, op, step, w, dg);
    // Tentatively fix and see how neighbors' windows move.
    let mut trial: Vec<Option<u32>> = fixed.to_vec();
    trial[op.index()] = Some(step);
    let tw = recompute_windows(dfg, latency, &trial);
    for other in dfg.op_ids() {
        if other == op || fixed[other.index()].is_some() {
            continue;
        }
        let (e0, l0) = (w.early[other.index()], w.late[other.index()]);
        let (e1, l1) = (tw.early[other.index()], tw.late[other.index()]);
        if (e0, l0) == (e1, l1) {
            continue;
        }
        // Force change: expected distribution contribution difference.
        let kind = dfg.op(other).kind;
        let d = &dg[&kind];
        let w0 = (l0 - e0 + 1) as f64;
        let w1 = (l1 - e1 + 1) as f64;
        let mut before = 0.0;
        for s in e0..=l0 {
            before += d[s as usize] / w0;
        }
        let mut after = 0.0;
        for s in e1..=l1 {
            after += d[s as usize] / w1;
        }
        force += after - before;
    }
    force
}

/// Schedules `dfg` in at most `latency` control steps with force-directed
/// scheduling.
///
/// # Examples
///
/// ```
/// use lobist_dfg::benchmarks;
/// use lobist_dfg::fds::{force_directed_schedule, peak_usage};
/// use lobist_dfg::OpKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = benchmarks::paulin();
/// let schedule = force_directed_schedule(&bench.dfg, 4)?;
/// // The classic HAL result: two multipliers suffice at the critical path.
/// assert!(peak_usage(&bench.dfg, &schedule)[&OpKind::Mul] <= 2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`LatencyTooSmall`] if `latency` is below the critical path.
pub fn force_directed_schedule(dfg: &Dfg, latency: u32) -> Result<Schedule, LatencyTooSmall> {
    force_directed_schedule_traced(dfg, latency).map(|(s, _)| s)
}

/// One committed scheduling decision: `(operation, step, force)`.
pub type FdsDecision = (OpId, u32, f64);

/// As [`force_directed_schedule`], also returning the decisions in the
/// order they were committed (for inspection and tests).
///
/// # Errors
///
/// Returns [`LatencyTooSmall`] if `latency` is below the critical path.
pub fn force_directed_schedule_traced(
    dfg: &Dfg,
    latency: u32,
) -> Result<(Schedule, Vec<FdsDecision>), LatencyTooSmall> {
    let critical = asap(dfg).max_step();
    if latency < critical {
        return Err(LatencyTooSmall {
            critical_path: critical,
        });
    }
    let mut trace: Vec<FdsDecision> = Vec::new();
    let mut fixed: Vec<Option<u32>> = vec![None; dfg.num_ops()];
    loop {
        let w = recompute_windows(dfg, latency, &fixed);
        // Ops with singleton windows are implicitly fixed.
        for op in dfg.op_ids() {
            if fixed[op.index()].is_none() && w.width(op) == 1 {
                fixed[op.index()] = Some(w.early[op.index()]);
            }
        }
        let w = recompute_windows(dfg, latency, &fixed);
        let dg = distribution(dfg, latency, &w);
        let mut best: Option<(f64, OpId, u32)> = None;
        for op in dfg.op_ids() {
            if fixed[op.index()].is_some() {
                continue;
            }
            for step in w.early[op.index()]..=w.late[op.index()] {
                let f = total_force(dfg, latency, &fixed, &w, &dg, op, step);
                let better = match best {
                    None => true,
                    Some((bf, bop, bstep)) => {
                        f < bf - 1e-12
                            || ((f - bf).abs() <= 1e-12 && (op.index(), step) < (bop.index(), bstep))
                    }
                };
                if better {
                    best = Some((f, op, step));
                }
            }
        }
        match best {
            Some((f, op, step)) => {
                fixed[op.index()] = Some(step);
                trace.push((op, step, f));
            }
            None => break,
        }
    }
    let steps: Vec<u32> = fixed.into_iter().map(|s| s.expect("all fixed")).collect();
    let schedule = Schedule::new(dfg, steps).expect("FDS respects dependencies by construction");
    Ok((schedule, trace))
}

/// The per-kind peak concurrency of a schedule: how many units of each
/// kind it needs.
pub fn peak_usage(dfg: &Dfg, schedule: &Schedule) -> HashMap<OpKind, usize> {
    let mut peak: HashMap<OpKind, usize> = HashMap::new();
    let ops = schedule.ops_by_step();
    for step in ops.chunk_by(|&a, &b| schedule.step(a) == schedule.step(b)) {
        let mut counts: HashMap<OpKind, usize> = HashMap::new();
        for &op in step {
            *counts.entry(dfg.op(op).kind).or_insert(0) += 1;
        }
        for (k, c) in counts {
            let e = peak.entry(k).or_insert(0);
            *e = (*e).max(c);
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn latency_below_critical_path_rejected() {
        let bench = benchmarks::paulin();
        let err = force_directed_schedule(&bench.dfg, 2).unwrap_err();
        assert_eq!(err.critical_path, 4);
        assert!(err.to_string().contains("4 steps"));
    }

    #[test]
    fn paulin_at_critical_latency_needs_two_multipliers() {
        // The classic FDS result on HAL: at the 4-step critical path the
        // five multiplications balance into at most two per step.
        let bench = benchmarks::paulin();
        let s = force_directed_schedule(&bench.dfg, 4).unwrap();
        assert_eq!(s.max_step(), 4);
        let peak = peak_usage(&bench.dfg, &s);
        assert!(peak[&OpKind::Mul] <= 2, "peak mults {}", peak[&OpKind::Mul]);
        assert!(peak[&OpKind::Add] <= 2);
    }

    #[test]
    fn relaxed_latency_never_increases_peaks() {
        // With more steps available, FDS spreads work out. (Like the
        // original heuristic, the one-step lookahead cannot always reach
        // the single-multiplier optimum at relaxed latencies — two
        // predecessors squeezed by one decision are penalized
        // individually, not pairwise — so the guarantee is monotonicity,
        // not optimality.)
        let bench = benchmarks::paulin();
        let tight = force_directed_schedule(&bench.dfg, 4).unwrap();
        let relaxed = force_directed_schedule(&bench.dfg, 7).unwrap();
        let pt = peak_usage(&bench.dfg, &tight);
        let pr = peak_usage(&bench.dfg, &relaxed);
        assert!(pr[&OpKind::Mul] <= pt[&OpKind::Mul]);
        assert!(pr[&OpKind::Mul] <= 2, "{pr:?}");
        assert_eq!(pr[&OpKind::Add], 1);
        assert_eq!(pr[&OpKind::Sub], 1);
    }

    #[test]
    fn trace_reports_committed_decisions() {
        let bench = benchmarks::paulin();
        let (s, trace) = force_directed_schedule_traced(&bench.dfg, 5).unwrap();
        for (op, step, _force) in &trace {
            assert_eq!(s.step(*op), *step);
        }
        // Every op is either in the trace or was window-forced.
        assert!(trace.len() <= bench.dfg.num_ops());
    }

    #[test]
    fn schedules_are_valid_across_benchmarks() {
        for bench in benchmarks::paper_suite() {
            let critical = asap(&bench.dfg).max_step();
            for extra in [0, 1, 3] {
                let s = force_directed_schedule(&bench.dfg, critical + extra)
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
                assert!(s.max_step() <= critical + extra, "{}", bench.name);
            }
        }
    }

    #[test]
    fn fds_never_needs_more_units_than_list_led_allocations() {
        // FDS at the list schedule's latency should need no more
        // multipliers than the benchmark's declared module set provides.
        let bench = benchmarks::paulin();
        let s = force_directed_schedule(&bench.dfg, bench.schedule.max_step()).unwrap();
        let peak = peak_usage(&bench.dfg, &s);
        use crate::modules::ModuleClass;
        for (kind, count) in peak {
            let available = bench.module_allocation.count(ModuleClass::Op(kind));
            assert!(
                count <= available.max(1),
                "{kind}: needs {count}, set has {available}"
            );
        }
    }

    #[test]
    fn peak_usage_visits_occupied_steps_only() {
        let text = "input a b\ns = a + b @ 1\nt = a + b @ 1\ny = s * t @ 4000000000\noutput y\n";
        let (dfg, schedule) = crate::parse::parse_dfg(text).expect("parses");
        let peak = peak_usage(&dfg, &schedule);
        assert_eq!(peak[&OpKind::Add], 2);
        assert_eq!(peak[&OpKind::Mul], 1);
    }
}
