//! Design-space exploration: the paper's motivating use case.
//!
//! "Considering testability at an earlier stage in a design can lead to a
//! more efficient exploration of the design space" (Section I). This
//! module automates that exploration: given an unscheduled DFG and a
//! library of candidate module allocations, it schedules each candidate
//! (force-directed, over a range of latencies), synthesizes it with the
//! BIST-aware flow, and returns the Pareto-optimal designs over
//! `(latency, functional gates, BIST overhead gates)`.
//!
//! The sweep is factored into three phases so serial and parallel
//! drivers share one code path and provably agree:
//!
//! 1. [`enumerate_candidates`] — cheap, order-stable expansion of the
//!    config into `(module set, schedule)` pairs;
//! 2. [`evaluate_candidate`] — the expensive per-candidate synthesis
//!    (one independent job; `lobist-engine` fans these out);
//! 3. [`assemble`] — Pareto filtering and the deterministic result
//!    ordering, a pure function of the evaluation outcomes.
//!
//! [`explore`] composes the three serially.

use lobist_bist::embedding::PatternSource;
use lobist_bist::BistSolution;
use lobist_datapath::area::GateCount;
use lobist_dfg::canon::{canonize, permute_scheduled, CanonForm};
use lobist_dfg::fds::force_directed_schedule;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::scheduling::{asap, list_schedule};
use lobist_dfg::{Dfg, Schedule};

use crate::flow::{synthesize_timed, FlowOptions, StageTimings};

/// One explored design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The module allocation tried.
    pub modules: ModuleSet,
    /// The schedule latency.
    pub latency: u32,
    /// Functional gate count (registers + modules + muxes).
    pub functional_gates: GateCount,
    /// BIST upgrade gate count.
    pub bist_gates: GateCount,
    /// Registers used.
    pub registers: usize,
    /// The BIST solution.
    pub bist: BistSolution,
    /// The schedule that produced this point.
    pub schedule: Schedule,
}

/// The objective vector a [`DesignPoint`] is judged by: latency,
/// functional gates, BIST overhead gates — all minimized.
pub type Objectives = (u32, GateCount, GateCount);

/// `true` if `a` dominates `b`: no worse on every axis, strictly better
/// on at least one.
pub fn dominates(a: Objectives, b: Objectives) -> bool {
    let le = a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2;
    let lt = a.0 < b.0 || a.1 < b.1 || a.2 < b.2;
    le && lt
}

/// Indices of the Pareto-optimal entries of `objectives`, sorted by the
/// objective vector itself (latency, then functional gates, then BIST
/// gates) with the index as final tiebreak, so the frontier's order
/// never depends on evaluation order.
pub fn pareto_front(objectives: &[Objectives]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..objectives.len())
        .filter(|&i| !objectives.iter().any(|&o| dominates(o, objectives[i])))
        .collect();
    front.sort_by_key(|&i| (objectives[i], i));
    front
}

impl DesignPoint {
    /// The point's objective vector.
    pub fn objectives(&self) -> Objectives {
        (self.latency, self.functional_gates, self.bist_gates)
    }

    /// `true` if `self` dominates `other`: no worse on latency,
    /// functional area and BIST overhead, and strictly better on at
    /// least one.
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        dominates(self.objectives(), other.objectives())
    }
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Candidate module allocations.
    pub module_candidates: Vec<ModuleSet>,
    /// Extra latency slack values to try beyond each candidate's
    /// resource-feasible minimum (0 = as fast as possible).
    pub latency_slacks: Vec<u32>,
    /// Flow options used for every candidate (strategy, area model, ...).
    pub flow: FlowOptions,
}

impl ExploreConfig {
    /// A default exploration: the given candidates, slacks {0, 1, 2},
    /// testable flow.
    pub fn new(module_candidates: Vec<ModuleSet>) -> Self {
        Self {
            module_candidates,
            latency_slacks: vec![0, 1, 2],
            flow: FlowOptions::testable(),
        }
    }
}

/// One schedulable `(module set, schedule)` pair awaiting synthesis.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The module allocation.
    pub modules: ModuleSet,
    /// A feasible schedule under that allocation.
    pub schedule: Schedule,
}

/// Expands `config` into the ordered candidate list plus the module sets
/// that could not be scheduled at all.
///
/// The order is deterministic: candidates appear grouped by module set
/// (in config order), the resource-constrained list schedule first, then
/// feasible force-directed schedules by increasing latency.
pub fn enumerate_candidates(
    dfg: &Dfg,
    config: &ExploreConfig,
) -> (Vec<Candidate>, Vec<(String, String)>) {
    let critical = asap(dfg).max_step();
    let mut candidates = Vec::new();
    let mut failures = Vec::new();
    for modules in &config.module_candidates {
        // The resource-constrained list schedule is always feasible for a
        // capable module set and anchors the candidate's latency range;
        // force-directed schedules that respect the capacity add
        // (usually better-balanced) alternatives.
        let Ok(anchor) = list_schedule(dfg, modules) else {
            failures.push((
                modules.to_string(),
                "no feasible schedule (missing unit kind?)".to_owned(),
            ));
            continue;
        };
        let max_slack = config.latency_slacks.iter().copied().max().unwrap_or(0);
        let mut schedules: Vec<Schedule> = vec![anchor.clone()];
        for latency in critical..=anchor.max_step() + max_slack {
            if let Some(s) = fitting_schedule(dfg, modules, latency) {
                if !schedules.contains(&s) {
                    schedules.push(s);
                }
            }
        }
        candidates.extend(schedules.into_iter().map(|schedule| Candidate {
            modules: modules.clone(),
            schedule,
        }));
    }
    (candidates, failures)
}

/// Synthesizes one candidate — the unit of work a parallel driver
/// distributes. Errors are rendered to the failure text [`assemble`]
/// records.
pub fn evaluate_candidate(
    dfg: &Dfg,
    candidate: &Candidate,
    flow: &FlowOptions,
) -> Result<DesignPoint, (String, String)> {
    evaluate_candidate_timed(dfg, candidate, flow).0
}

/// As [`evaluate_candidate`], also reporting per-stage wall time (zero
/// for the stages a failing flow never reached).
///
/// Evaluation always goes through the *canonical form* of the design:
/// the candidate is canonized, the canonical relabeling is synthesized,
/// and the result is remapped back into the requester's coordinates.
/// Synthesis tie-breaks on variable/operation id order, so synthesizing
/// the canonical design is what makes the result a pure function of the
/// design's *structure* — the property the engine's isomorphism-level
/// cache (and its byte-identity guarantees) rest on.
pub fn evaluate_candidate_timed(
    dfg: &Dfg,
    candidate: &Candidate,
    flow: &FlowOptions,
) -> (Result<DesignPoint, (String, String)>, StageTimings) {
    let canon = canonize(dfg, &candidate.schedule);
    let (result, timings) = evaluate_canonical_timed(&canon, &candidate.modules, flow);
    (remap_point(result, &canon, candidate), timings)
}

/// Synthesizes the canonical form of a candidate — the engine's unit of
/// work under the structural cache. The returned point is in canonical
/// coordinates (canonical schedule, canonical input ids in BIST
/// embeddings); [`remap_point`] translates it into a requester's names
/// and schedule.
pub fn evaluate_canonical_timed(
    canon: &CanonForm,
    modules: &ModuleSet,
    flow: &FlowOptions,
) -> (Result<DesignPoint, (String, String)>, StageTimings) {
    let first = match synthesize_timed(&canon.dfg, &canon.schedule, modules, flow) {
        Ok((d, timings)) => {
            return (
                Ok(DesignPoint {
                    modules: modules.clone(),
                    latency: canon.schedule.max_step(),
                    functional_gates: d.stats.functional_gates,
                    bist_gates: d.bist.overhead,
                    registers: d.data_path.num_registers(),
                    bist: d.bist,
                    schedule: canon.schedule.clone(),
                }),
                timings,
            )
        }
        Err(e) => e,
    };
    // The register allocator and interconnect tie-break on id order, so
    // a BIST embedding that exists under one labeling can be missed
    // under the canonical one (Paulin's 1+,2*,1- is the concrete case).
    // Recover by retrying seeded reorderings *of the canonical form* —
    // each a pure function of the canonical form, so evaluation stays a
    // function of the design's structure and every byte-identity
    // property is preserved. Only embedding failures are retried; the
    // other flow errors are label-invariant.
    if matches!(first, crate::flow::FlowError::Bist(_)) {
        for seed in 0..FEASIBILITY_RECOVERY_SEEDS {
            let (twin, twin_schedule, var_map) =
                permute_scheduled(&canon.dfg, &canon.schedule, seed);
            if let Ok((d, timings)) = synthesize_timed(&twin, &twin_schedule, modules, flow) {
                let mut bist = d.bist;
                // Translate the twin's primary-input ids back into
                // canonical coordinates; register ids are labels of the
                // twin's own allocation and carry over as-is.
                let mut canonical_of = vec![lobist_dfg::VarId(0); var_map.len()];
                for (orig, &new) in var_map.iter().enumerate() {
                    canonical_of[new.index()] = lobist_dfg::VarId(orig as u32);
                }
                for e in &mut bist.embeddings {
                    for side in [&mut e.left, &mut e.right] {
                        if let PatternSource::Input(v) = side {
                            *v = canonical_of[v.index()];
                        }
                    }
                }
                return (
                    Ok(DesignPoint {
                        modules: modules.clone(),
                        latency: canon.schedule.max_step(),
                        functional_gates: d.stats.functional_gates,
                        bist_gates: bist.overhead,
                        registers: d.data_path.num_registers(),
                        bist,
                        schedule: canon.schedule.clone(),
                    }),
                    timings,
                );
            }
        }
    }
    (
        Err((modules.to_string(), first.to_string())),
        StageTimings::default(),
    )
}

/// How many deterministic reorderings of the canonical form
/// [`evaluate_canonical_timed`] tries when the canonical-order synthesis
/// fails BIST embedding before accepting the failure.
const FEASIBILITY_RECOVERY_SEEDS: u64 = 4;

/// Translates a canonical-coordinate result into the requester's
/// coordinates: the schedule and latency become the requester's own,
/// and BIST pattern sources naming canonical primary inputs are mapped
/// back through the inverse variable permutation. Register ids are
/// abstract labels of the canonical allocation and carry over
/// unchanged; error entries are already rendered text and pass through.
///
/// Everything else in a point is invariant under a uniform schedule
/// shift (`tests/shift_invariance.rs`), so a result produced by any
/// shifted twin of the requester remaps to the requester's own result.
pub fn remap_point(
    result: Result<DesignPoint, (String, String)>,
    canon: &CanonForm,
    candidate: &Candidate,
) -> Result<DesignPoint, (String, String)> {
    result.map(|mut p| {
        p.latency = candidate.schedule.max_step();
        p.schedule = candidate.schedule.clone();
        for e in &mut p.bist.embeddings {
            for side in [&mut e.left, &mut e.right] {
                if let PatternSource::Input(v) = side {
                    *v = canon.original_var(*v);
                }
            }
        }
        p
    })
}

/// The exploration outcome: every feasible point plus the Pareto front.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// All feasible points, in evaluation order.
    pub points: Vec<DesignPoint>,
    /// Indices into `points` of the Pareto-optimal designs, sorted by
    /// (latency, functional gates, BIST gates).
    pub pareto: Vec<usize>,
    /// Candidates that failed and why (module set string, error text).
    pub failures: Vec<(String, String)>,
}

/// Computes the Pareto front over evaluated points and packages the
/// result. Pure: two runs that produce the same points and failures (in
/// the same order) yield identical results, regardless of how the
/// evaluations were scheduled.
pub fn assemble(points: Vec<DesignPoint>, failures: Vec<(String, String)>) -> ExploreResult {
    let objectives: Vec<Objectives> = points.iter().map(DesignPoint::objectives).collect();
    let pareto = pareto_front(&objectives);
    ExploreResult {
        points,
        pareto,
        failures,
    }
}

/// Explores the design space of `dfg` under `config`, serially.
///
/// Each candidate is scheduled with force-directed scheduling at its
/// resource-feasible latency plus each slack, then synthesized; BIST
/// failures (untestable structures) are recorded, not fatal. For a
/// multi-threaded sweep over the same candidates with identical results,
/// see `lobist_engine::explore_parallel`.
pub fn explore(dfg: &Dfg, config: &ExploreConfig) -> ExploreResult {
    let (candidates, mut failures) = enumerate_candidates(dfg, config);
    let mut points = Vec::new();
    for candidate in &candidates {
        match evaluate_candidate(dfg, candidate, &config.flow) {
            Ok(p) => points.push(p),
            Err(f) => failures.push(f),
        }
    }
    assemble(points, failures)
}

/// The FDS schedule at `latency`, if it respects the per-step capacity
/// of `modules` (checked by running the scheduler and verifying usage).
fn fitting_schedule(dfg: &Dfg, modules: &ModuleSet, latency: u32) -> Option<Schedule> {
    // Every kind must be executable at all.
    for op in dfg.op_ids() {
        modules.supporting(dfg.op(op).kind).next()?;
    }
    let schedule = force_directed_schedule(dfg, latency).ok()?;
    for step in 1..=schedule.max_step() {
        // Greedy capacity check, dedicated units first (the same rule as
        // module assignment uses).
        let mut free = vec![true; modules.len()];
        let mut placed = 0usize;
        for dedicated_pass in [true, false] {
            for op in schedule.ops_in_step(step) {
                let kind = dfg.op(op).kind;
                let pick = modules.supporting(kind).filter(|&m| free[m]).find(|&m| {
                    match modules.class(m) {
                        lobist_dfg::modules::ModuleClass::Op(_) => dedicated_pass,
                        lobist_dfg::modules::ModuleClass::Alu => !dedicated_pass,
                    }
                });
                if let Some(m) = pick {
                    free[m] = false;
                    placed += 1;
                }
            }
        }
        if placed < schedule.ops_in_step(step).len() {
            return None;
        }
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;
    use proptest::prelude::*;

    fn paulin_candidates() -> Vec<ModuleSet> {
        ["1+,1*,1-", "1+,2*,1-", "2+,2*,2-", "1+,3ALU"]
            .iter()
            .map(|s| s.parse().expect("valid"))
            .collect()
    }

    #[test]
    fn exploration_finds_multiple_feasible_points() {
        let bench = benchmarks::paulin();
        let mut config = ExploreConfig::new(paulin_candidates());
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        let result = explore(&bench.dfg, &config);
        assert!(result.points.len() >= 4, "{} points", result.points.len());
        assert!(!result.pareto.is_empty());
        // Every Pareto point is actually non-dominated.
        for &i in &result.pareto {
            assert!(!result.points.iter().any(|p| p.dominates(&result.points[i])));
        }
    }

    #[test]
    fn serial_designs_trade_latency_for_area() {
        let bench = benchmarks::paulin();
        let mut config = ExploreConfig::new(paulin_candidates());
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        let result = explore(&bench.dfg, &config);
        // The front must contain at least two distinct latencies (serial
        // and parallel corners).
        let mut latencies: Vec<u32> = result
            .pareto
            .iter()
            .map(|&i| result.points[i].latency)
            .collect();
        latencies.dedup();
        assert!(latencies.len() >= 2, "{latencies:?}");
        // And along the front, a slower point must win on some other
        // axis — otherwise the faster one would dominate it.
        let first = &result.points[result.pareto[0]];
        let last = &result.points[*result.pareto.last().expect("non-empty")];
        if first.latency < last.latency {
            assert!(
                last.functional_gates < first.functional_gates
                    || last.bist_gates < first.bist_gates,
                "slower Pareto point wins nowhere: {first:?} vs {last:?}"
            );
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let bench = benchmarks::paulin();
        let mut config = ExploreConfig::new(paulin_candidates());
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        let result = explore(&bench.dfg, &config);
        for a in &result.points {
            assert!(!a.dominates(a));
        }
        for a in &result.points {
            for b in &result.points {
                assert!(!(a.dominates(b) && b.dominates(a)));
            }
        }
    }

    #[test]
    fn infeasible_candidates_are_reported() {
        let bench = benchmarks::paulin();
        let mut config = ExploreConfig::new(vec!["2+".parse().expect("valid")]);
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        let result = explore(&bench.dfg, &config);
        assert!(result.points.is_empty());
        assert_eq!(result.failures.len(), 1);
        assert!(result.failures[0].1.contains("missing unit kind"));
    }

    #[test]
    fn frontier_order_is_by_objectives_not_evaluation_order() {
        let bench = benchmarks::paulin();
        let mut config = ExploreConfig::new(paulin_candidates());
        config.flow = config.flow.with_lifetimes(bench.lifetime_options);
        // Reversing the candidate order must not change the *sequence* of
        // objective vectors along the frontier.
        let forward = explore(&bench.dfg, &config);
        config.module_candidates.reverse();
        let backward = explore(&bench.dfg, &config);
        let objs = |r: &ExploreResult| -> Vec<Objectives> {
            r.pareto.iter().map(|&i| r.points[i].objectives()).collect()
        };
        assert_eq!(objs(&forward), objs(&backward));
        // And the frontier is sorted.
        let o = objs(&forward);
        assert!(o.windows(2).all(|w| w[0] <= w[1]), "{o:?}");
    }

    fn g(n: u64) -> GateCount {
        GateCount(n)
    }

    #[test]
    fn dominates_edge_cases() {
        // Equal points never dominate each other.
        assert!(!dominates((4, g(100), g(10)), (4, g(100), g(10))));
        // A strict improvement on a single axis dominates.
        assert!(dominates((3, g(100), g(10)), (4, g(100), g(10))));
        assert!(dominates((4, g(99), g(10)), (4, g(100), g(10))));
        assert!(dominates((4, g(100), g(9)), (4, g(100), g(10))));
        // ... and only in that direction.
        assert!(!dominates((4, g(100), g(10)), (3, g(100), g(10))));
        // A trade-off (better on one axis, worse on another) is
        // incomparable both ways.
        assert!(!dominates((3, g(120), g(10)), (4, g(100), g(10))));
        assert!(!dominates((4, g(100), g(10)), (3, g(120), g(10))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn frontier_members_never_dominate_each_other(
            raw in prop::collection::vec((0u32..6, 0u64..5, 0u64..5), 1..24)
        ) {
            let objectives: Vec<Objectives> =
                raw.into_iter().map(|(l, f, b)| (l, g(f), g(b))).collect();
            let front = pareto_front(&objectives);
            prop_assert!(!front.is_empty());
            for &i in &front {
                for &j in &front {
                    prop_assert!(
                        i == j || !dominates(objectives[i], objectives[j]),
                        "front member {:?} dominates front member {:?}",
                        objectives[i],
                        objectives[j]
                    );
                }
            }
            // Completeness: everything off the front is dominated.
            for (k, &o) in objectives.iter().enumerate() {
                if !front.contains(&k) {
                    prop_assert!(
                        objectives.iter().any(|&p| dominates(p, o)),
                        "{o:?} excluded but undominated"
                    );
                }
            }
            // Order: sorted by the objective vector.
            let seq: Vec<Objectives> = front.iter().map(|&i| objectives[i]).collect();
            prop_assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
        }
    }
}
