//! The paper's BIST-aware register allocator (Sections III-A and III-B).
//!
//! The variable conflict graph of a straight-line scheduled DFG is an
//! interval graph; minimum coloring is achieved by coloring greedily in
//! reverse perfect-vertex-elimination-scheme order. The paper keeps that
//! skeleton but:
//!
//! 1. **chooses the PVES deliberately** — among simplicial candidates,
//!    eliminate variables with *small* sharing degree (tie: small MCS)
//!    first, so high-sharing variables are colored early, while choice is
//!    greatest;
//! 2. **chooses colors by `ΔSD`** — a variable joins the compatible
//!    register whose sharing degree it raises most, with ties broken by
//!    register sharing degree, then interconnect affinity;
//! 3. **applies the Case 1 / Case 2 overrides** — prefer a register that
//!    already holds an output (input) variable of the same module when
//!    that register's final sharing degree beats the `ΔSD` winner's;
//! 4. **avoids merges that force CBILBOs** — each candidate is vetted
//!    against Lemma 2 ([`crate::cbilbo`]); forcing merges are skipped
//!    unless every candidate forces (then the assignment is allowed, as
//!    the paper does, rather than spending an extra register). The veto
//!    reads per-module counts that are updated on each merge, so a
//!    trial rescores only the modules the variable belongs to.

use std::cell::Cell;

use lobist_datapath::{ModuleAssignment, RegisterAssignment};
use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::{Dfg, Schedule, VarId};
use lobist_graph::pves::{pves_by_key, NotChordalError};

use crate::cbilbo::Lemma2Tracker;
use crate::trace::{AllocTrace, CandidateInfo, ChoiceReason, TraceStep};
use crate::variable_sets::{RegisterMask, SharingContext};

/// Feature toggles for the allocator (all on by default; the ablation
/// bench switches them individually).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestableAllocOptions {
    /// Order the PVES by `(SD, MCS)` rather than arbitrarily.
    pub sd_ordering: bool,
    /// Apply the Case 1 / Case 2 overrides.
    pub case_overrides: bool,
    /// Veto merges that force CBILBOs (Lemma 2).
    pub lemma2_check: bool,
}

impl Default for TestableAllocOptions {
    fn default() -> Self {
        Self {
            sd_ordering: true,
            case_overrides: true,
            lemma2_check: true,
        }
    }
}

/// The allocator's result: a register assignment plus its decision trace.
#[derive(Debug, Clone)]
pub struct TestableAllocation {
    /// The computed assignment.
    pub registers: RegisterAssignment,
    /// Step-by-step decisions (the paper's Fig. 4 walk-through).
    pub trace: AllocTrace,
}

/// Runs the testable register allocator.
///
/// # Examples
///
/// ```
/// use lobist_alloc::module_assign::assign_modules;
/// use lobist_alloc::testable_regalloc::{allocate_registers, TestableAllocOptions};
/// use lobist_dfg::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = benchmarks::ex1();
/// let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)?;
/// let alloc = allocate_registers(
///     &bench.dfg,
///     &bench.schedule,
///     bench.lifetime_options,
///     &ma,
///     &TestableAllocOptions::default(),
/// )?;
/// assert_eq!(alloc.registers.num_registers(), 3); // the known minimum
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NotChordalError`] if the conflict graph is not chordal
/// (cannot happen for lifetimes from a straight-line schedule; the error
/// is surfaced for robustness).
pub fn allocate_registers(
    dfg: &Dfg,
    schedule: &Schedule,
    lifetime_options: LifetimeOptions,
    modules: &ModuleAssignment,
    options: &TestableAllocOptions,
) -> Result<TestableAllocation, NotChordalError> {
    let lifetimes = Lifetimes::compute(dfg, schedule, lifetime_options);
    let ctx = SharingContext::new(dfg, modules);
    let graph = lifetimes.conflict_graph();
    let reg_vars = lifetimes.reg_vars();
    let mcs = lifetimes.max_clique_sizes();
    let sd: Vec<usize> = reg_vars.iter().map(|&v| ctx.sd_var(v)).collect();

    // 1. PVES ordered by (SD asc, MCS asc, index) — or plain index order
    //    when SD ordering is disabled (the ablation baseline).
    let elimination = if options.sd_ordering {
        pves_by_key(&graph, |v| (sd[v], mcs[v], v))?
    } else {
        pves_by_key(&graph, |v| v)?
    };
    let coloring_order: Vec<usize> = elimination.into_iter().rev().collect();

    // 2–4. Color in reverse PVES order.
    let mut classes: Vec<Vec<VarId>> = Vec::new();
    let mut masks: Vec<RegisterMask> = Vec::new();
    let mut class_of: Vec<Option<usize>> = vec![None; reg_vars.len()]; // per dense vertex
    let mut conflicts: Vec<bool> = Vec::new(); // per class, for the current vertex
    let mut scratch = ChoiceScratch::default();
    let mut lemma2 = Lemma2Tracker::new(dfg, modules);
    let mut trace = AllocTrace::default();

    for (position, &dense) in coloring_order.iter().enumerate() {
        let vid = reg_vars[dense];
        // A class is compatible unless it holds a neighbour of `dense`.
        conflicts.clear();
        conflicts.resize(classes.len(), false);
        for &u in graph.neighbors(dense) {
            if let Some(r) = class_of[u] {
                conflicts[r] = true;
            }
        }
        let candidates: Vec<CandidateInfo> = (0..classes.len())
            .filter(|&r| !conflicts[r])
            .map(|r| CandidateInfo {
                register: r,
                sd_before: ctx.sd_register(masks[r]),
                sd_after: ctx.sd_register_with(masks[r], vid),
            })
            .collect();

        let (chosen, reason) = if candidates.is_empty() {
            classes.push(Vec::new());
            masks.push(ctx.empty_register());
            (classes.len() - 1, ChoiceReason::NewRegister)
        } else {
            choose_register(
                &ctx,
                &masks,
                &lemma2,
                vid,
                &candidates,
                options,
                &mut scratch,
            )
        };

        classes[chosen].push(vid);
        ctx.add_to_register(&mut masks[chosen], vid);
        class_of[dense] = Some(chosen);
        lemma2.assign(chosen, vid);

        trace.steps.push(TraceStep {
            position,
            variable: vid,
            variable_name: dfg.var(vid).name.clone(),
            sd: sd[dense],
            mcs: mcs[dense],
            candidates,
            chosen,
            reason,
        });
    }

    let registers = RegisterAssignment::new(dfg, classes)
        .expect("allocator assigns each variable exactly once");
    Ok(TestableAllocation { registers, trace })
}

thread_local! {
    static VETO_EVALUATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many Lemma-2 veto evaluations (one per `(variable, candidate)`
/// vetted) the allocator has run on the calling thread so far: a
/// deterministic work counter. Callers take the difference of two
/// readings around the work they measure.
pub(crate) fn veto_evaluations() -> u64 {
    VETO_EVALUATIONS.with(Cell::get)
}

/// A candidate's rank under the base rule: `ΔSD`, then the register's
/// sharing degree, then interconnect affinity (the number of module
/// memberships `v` and the register share: common source or destination
/// modules mean fewer new mux legs, Fig. 6 cases 3–5), then the lower
/// register index. Larger is better; the index makes every key distinct.
type BaseKey = (usize, usize, usize, usize);

fn base_key(c: &CandidateInfo, sd_var: usize) -> BaseKey {
    (
        c.delta(),
        c.sd_before,
        affinity(c, sd_var),
        usize::MAX - c.register,
    )
}

/// `|memberships(v) ∩ memberships(R)| = SD(v) + SD(R) − SD(R, v)`.
fn affinity(c: &CandidateInfo, sd_var: usize) -> usize {
    sd_var + c.sd_before - c.sd_after
}

/// The per-step buffers of [`choose_register`], reused across the steps
/// of one allocation. Each is indexed like the step's candidates.
#[derive(Debug, Default)]
struct ChoiceScratch {
    /// Each candidate's base-rule key, computed once.
    keys: Vec<BaseKey>,
    /// Whether the candidate already has a place in the preference order.
    taken: Vec<bool>,
    /// The Case 1 / Case 2 overrides, best first, one per candidate.
    overrides: Vec<(usize, ChoiceReason)>,
}

impl ChoiceScratch {
    /// The best candidate by base key that is not yet taken.
    fn best_untaken(&self) -> Option<usize> {
        (0..self.keys.len())
            .filter(|&i| !self.taken[i])
            .max_by_key(|&i| self.keys[i])
    }
}

/// Picks `vid`'s register among `candidates` (non-empty).
///
/// The preference order is the Case 1 / Case 2 overrides, best first,
/// then every other candidate by descending base key, each labelled
/// `MaxDeltaSd`. The candidates are vetted against Lemma 2 in that order
/// and the first that forces no new CBILBO wins. Each key is computed
/// once and nothing is sorted but the overrides: the rest of the order is
/// found on demand, the next-best untaken candidate only when Lemma 2 has
/// vetoed the one before, because a veto is rare (on the seed-1 sweep one
/// candidate is vetted per step). This returns the choice, the reason and
/// the veto count of `reference::choose_register`, which builds the whole
/// order by sorting first.
fn choose_register(
    ctx: &SharingContext,
    masks: &[RegisterMask],
    lemma2: &Lemma2Tracker,
    vid: VarId,
    candidates: &[CandidateInfo],
    options: &TestableAllocOptions,
    scratch: &mut ChoiceScratch,
) -> (usize, ChoiceReason) {
    let sd_var = ctx.sd_var(vid);
    scratch.keys.clear();
    scratch
        .keys
        .extend(candidates.iter().map(|c| base_key(c, sd_var)));
    scratch.taken.clear();
    scratch.taken.resize(candidates.len(), false);
    let base = scratch.best_untaken().expect("candidates non-empty");
    let base_after = candidates[base].sd_after;

    let overrides = &mut scratch.overrides;
    overrides.clear();
    if options.case_overrides {
        // Case 1: vid is an output variable of module j; candidates that
        // already hold an output variable of j and whose current SD beats
        // the base register's post-merge SD.
        for j in 0..ctx.num_modules() {
            if !ctx.is_output_of(vid, j) {
                continue;
            }
            for (i, c) in candidates.iter().enumerate() {
                if masks[c.register].holds_output_of(j) && c.sd_before > base_after {
                    overrides.push((i, ChoiceReason::Case1Override));
                }
            }
        }
        // Case 2: vid is an input variable of module j and at least two
        // registers already hold inputs of j (a binary module needs two
        // TPGs, so vid's own contribution as a new head is redundant).
        for j in 0..ctx.num_modules() {
            if !ctx.is_input_of(vid, j) {
                continue;
            }
            let holders = masks.iter().filter(|m| m.holds_input_of(j)).count();
            if holders < 2 {
                continue;
            }
            for (i, c) in candidates.iter().enumerate() {
                if masks[c.register].holds_input_of(j) && c.sd_before > base_after {
                    overrides.push((i, ChoiceReason::Case2Override));
                }
            }
        }
        // Among overrides: highest resulting sharing degree, then
        // affinity, then lowest index. The sort is stable, so a
        // candidate listed twice keeps its first case.
        overrides.sort_by_key(|&(i, _)| {
            let c = &candidates[i];
            (
                usize::MAX - c.sd_after,
                usize::MAX - affinity(c, sd_var),
                c.register,
            )
        });
        overrides.dedup_by_key(|(i, _)| *i);
        for &(i, _) in overrides.iter() {
            scratch.taken[i] = true;
        }
    }
    let (first, first_reason) = scratch
        .overrides
        .first()
        .cloned()
        .unwrap_or((base, ChoiceReason::MaxDeltaSd));

    if !options.lemma2_check {
        return (candidates[first].register, first_reason);
    }
    let mut position = 0;
    loop {
        let (i, reason) = match scratch.overrides.get(position) {
            Some(o) => o.clone(),
            None => match scratch.best_untaken() {
                Some(i) => {
                    scratch.taken[i] = true;
                    (i, ChoiceReason::MaxDeltaSd)
                }
                // Every candidate forces a CBILBO: allow the preferred one.
                None => return (candidates[first].register, ChoiceReason::Lemma2Unavoidable),
            },
        };
        VETO_EVALUATIONS.with(|c| c.set(c.get() + 1));
        if !lemma2.creates_new_forced(candidates[i].register, vid) {
            let reason = if position == 0 {
                reason
            } else {
                ChoiceReason::Lemma2Avoidance
            };
            return (candidates[i].register, reason);
        }
        position += 1;
    }
}

/// The original register choice, kept as the executable reference for
/// [`choose_register`]: it sorts every candidate into the full
/// preference order before vetting the first.
#[cfg(test)]
mod reference {
    use super::*;

    /// Interconnect affinity of merging `v` into a register: the number of
    /// module memberships they share (common source or destination modules
    /// mean fewer new mux legs — Fig. 6 cases 3–5).
    fn affinity(ctx: &SharingContext, mask: RegisterMask, v: VarId) -> usize {
        ctx.sd_var(v) + ctx.sd_register(mask) - ctx.sd_register_with(mask, v)
    }

    pub(super) fn choose_register(
        ctx: &SharingContext,
        masks: &[RegisterMask],
        lemma2: &Lemma2Tracker,
        vid: VarId,
        candidates: &[CandidateInfo],
        options: &TestableAllocOptions,
    ) -> (usize, ChoiceReason) {
        // Base rule: max ΔSD; ties by register SD, then affinity, then index.
        let base_key = |c: &CandidateInfo| {
            (
                c.delta(),
                c.sd_before,
                affinity(ctx, masks[c.register], vid),
                usize::MAX - c.register,
            )
        };
        let base = candidates
            .iter()
            .max_by_key(|c| base_key(c))
            .expect("candidates non-empty");
        let mut preference: Vec<(usize, ChoiceReason)> = Vec::new();

        if options.case_overrides {
            let mut overrides: Vec<(&CandidateInfo, ChoiceReason)> = Vec::new();
            // Case 1: vid is an output variable of module j; candidates that
            // already hold an output variable of j and whose current SD beats
            // the base register's post-merge SD.
            for j in 0..ctx.num_modules() {
                if !ctx.is_output_of(vid, j) {
                    continue;
                }
                for c in candidates {
                    if masks[c.register].holds_output_of(j) && c.sd_before > base.sd_after {
                        overrides.push((c, ChoiceReason::Case1Override));
                    }
                }
            }
            // Case 2: vid is an input variable of module j and at least two
            // registers already hold inputs of j (a binary module needs two
            // TPGs, so vid's own contribution as a new head is redundant).
            for j in 0..ctx.num_modules() {
                if !ctx.is_input_of(vid, j) {
                    continue;
                }
                let holders = masks.iter().filter(|m| m.holds_input_of(j)).count();
                if holders < 2 {
                    continue;
                }
                for c in candidates {
                    if masks[c.register].holds_input_of(j) && c.sd_before > base.sd_after {
                        overrides.push((c, ChoiceReason::Case2Override));
                    }
                }
            }
            // Among overrides: highest resulting sharing degree, then
            // affinity, then lowest index.
            overrides.sort_by_key(|(c, _)| {
                (
                    usize::MAX - c.sd_after,
                    usize::MAX - affinity(ctx, masks[c.register], vid),
                    c.register,
                )
            });
            overrides.dedup_by_key(|(c, _)| c.register);
            for (c, case) in overrides {
                preference.push((c.register, case));
            }
        }

        // Base choice and remaining candidates, best-first.
        let mut rest: Vec<&CandidateInfo> = candidates.iter().collect();
        rest.sort_by_key(|c| {
            let (a, b, c2, d) = base_key(c);
            (
                usize::MAX - a,
                usize::MAX - b,
                usize::MAX - c2,
                usize::MAX - d,
            )
        });
        for c in rest {
            if !preference.iter().any(|(r, _)| *r == c.register) {
                preference.push((c.register, ChoiceReason::MaxDeltaSd));
            }
        }

        if options.lemma2_check {
            for (i, (r, reason)) in preference.iter().enumerate() {
                VETO_EVALUATIONS.with(|c| c.set(c.get() + 1));
                if !lemma2.creates_new_forced(*r, vid) {
                    let reason = if i == 0 {
                        reason.clone()
                    } else {
                        ChoiceReason::Lemma2Avoidance
                    };
                    return (*r, reason);
                }
            }
            // Every candidate forces a CBILBO: allow the preferred one.
            let (r, _) = preference[0];
            (r, ChoiceReason::Lemma2Unavoidable)
        } else {
            let (r, reason) = preference.into_iter().next().expect("non-empty");
            (r, reason)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module_assign::assign_modules;
    use lobist_dfg::benchmarks;

    fn run(
        bench: &lobist_dfg::benchmarks::Benchmark,
        opts: &TestableAllocOptions,
    ) -> TestableAllocation {
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &ma,
            opts,
        )
        .unwrap()
    }

    #[test]
    fn uses_minimum_registers_on_all_paper_benchmarks() {
        for bench in benchmarks::paper_suite() {
            let alloc = run(&bench, &TestableAllocOptions::default());
            assert_eq!(
                alloc.registers.num_registers(),
                bench.expected_min_registers,
                "{}",
                bench.name
            );
        }
    }

    #[test]
    fn assignment_is_proper() {
        for bench in benchmarks::paper_suite() {
            let alloc = run(&bench, &TestableAllocOptions::default());
            let lt = Lifetimes::compute(&bench.dfg, &bench.schedule, bench.lifetime_options);
            for class in alloc.registers.classes() {
                for (i, &u) in class.iter().enumerate() {
                    for &v in &class[i + 1..] {
                        assert!(!lt.conflicts(u, v), "{}: {u} vs {v}", bench.name);
                    }
                }
            }
            // Every register variable is assigned.
            for &v in lt.reg_vars() {
                assert!(alloc.registers.register_of(v).is_some());
            }
        }
    }

    #[test]
    fn trace_covers_every_variable() {
        let bench = benchmarks::ex1();
        let alloc = run(&bench, &TestableAllocOptions::default());
        assert_eq!(alloc.trace.len(), 8);
        let mut names: Vec<&str> = alloc
            .trace
            .steps
            .iter()
            .map(|s| s.variable_name.as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "c", "d", "e", "f", "g", "h"]);
    }

    #[test]
    fn high_sharing_variables_colored_early() {
        // With SD ordering, the first colored vertex of ex1 is one of the
        // SD-2 variables (b, c, d), mirroring the paper's trace which
        // starts at c, d.
        let bench = benchmarks::ex1();
        let alloc = run(&bench, &TestableAllocOptions::default());
        let first = &alloc.trace.steps[0];
        assert_eq!(first.sd, 2, "first colored variable has max SD");
    }

    #[test]
    fn options_toggle_changes_behaviour_somewhere() {
        // The ablation switches must be observable: across the suite, at
        // least one benchmark allocates differently without the
        // testability heuristics.
        let all_on = TestableAllocOptions::default();
        let all_off = TestableAllocOptions {
            sd_ordering: false,
            case_overrides: false,
            lemma2_check: false,
        };
        let mut any_diff = false;
        for bench in benchmarks::paper_suite() {
            let a = run(&bench, &all_on);
            let b = run(&bench, &all_off);
            if a.registers.classes() != b.registers.classes() {
                any_diff = true;
            }
        }
        assert!(any_diff, "heuristics should change at least one allocation");
    }

    #[test]
    fn ex1_groups_sharing_variables() {
        // The defining property of the paper's ex1 outcome: some register
        // serves as a shared TPG head for both modules — i.e. holds both
        // an I_M1 and an I_M2 variable.
        let bench = benchmarks::ex1();
        let alloc = run(&bench, &TestableAllocOptions::default());
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation).unwrap();
        let ctx = SharingContext::new(&bench.dfg, &ma);
        let shared_head = alloc.registers.classes().iter().any(|class| {
            let m = ctx.register_mask(class.iter().copied());
            // SD of the register counts distinct I/O sets; a register
            // intersecting both input sets has both x-bits.
            class.iter().any(|&v| ctx.is_input_of(v, 0))
                && class.iter().any(|&v| ctx.is_input_of(v, 1))
                && ctx.sd_register(m) >= 2
        });
        assert!(
            shared_head,
            "expected a register heading I-paths to both modules"
        );
    }
}

#[cfg(test)]
mod veto_differential {
    use super::*;
    use crate::cbilbo::creates_new_forced_cbilbo;
    use crate::module_assign::assign_modules;
    use lobist_dfg::corpus::{self, KINDS};
    use lobist_dfg::modules::ModuleSet;
    use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};
    use lobist_dfg::scheduling::list_schedule;

    /// Replays one allocation and asserts, before every merge, that the
    /// tracker's veto matches the rebuild-everything reference for every
    /// candidate register of the variable. Returns the pairs compared.
    fn replay(dfg: &Dfg, schedule: &Schedule, modules: &ModuleSet) -> usize {
        let Ok(ma) = assign_modules(dfg, schedule, modules) else {
            return 0;
        };
        let lt = LifetimeOptions::registered_inputs();
        let Ok(alloc) =
            allocate_registers(dfg, schedule, lt, &ma, &TestableAllocOptions::default())
        else {
            return 0;
        };
        let mut classes: Vec<Vec<VarId>> = Vec::new();
        let mut tracker = Lemma2Tracker::new(dfg, &ma);
        let mut compared = 0;
        for step in &alloc.trace.steps {
            let v = step.variable;
            for c in &step.candidates {
                assert_eq!(
                    tracker.creates_new_forced(c.register, v),
                    creates_new_forced_cbilbo(dfg, &ma, &classes, c.register, v),
                    "variable {v}, register {}",
                    c.register
                );
                compared += 1;
            }
            if step.chosen == classes.len() {
                classes.push(Vec::new());
            }
            classes[step.chosen].push(v);
            tracker.assign(step.chosen, v);
        }
        compared
    }

    #[test]
    fn tracker_matches_the_reference_on_the_paper_suite() {
        let mut compared = 0;
        for bench in lobist_dfg::benchmarks::paper_suite() {
            compared += replay(&bench.dfg, &bench.schedule, &bench.module_allocation);
        }
        assert!(compared > 20, "only {compared} pairs compared");
    }

    #[test]
    fn tracker_matches_the_reference_on_the_seed_1_corpus() {
        let mut compared = 0;
        for modules in ["1+,1*,1-", "2+,2*,2-"] {
            let modules: ModuleSet = modules.parse().expect("a module set");
            for kind in KINDS {
                for size in (8..=32).step_by(8) {
                    let dfg = corpus::generate(kind, size, 1);
                    let schedule = list_schedule(&dfg, &modules).expect("corpus kinds are covered");
                    compared += replay(&dfg, &schedule, &modules);
                }
            }
        }
        assert!(compared > 1000, "only {compared} pairs compared");
    }

    #[test]
    fn tracker_matches_the_reference_on_random_designs() {
        let cfg = RandomDfgConfig {
            num_ops: 14,
            num_inputs: 4,
            max_ops_per_step: 3,
            ..RandomDfgConfig::default()
        };
        let modules: ModuleSet = "2+,2-,2*,2&".parse().expect("a module set");
        let mut compared = 0;
        for seed in 0..60u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            compared += replay(&dfg, &schedule, &modules);
        }
        assert!(compared > 200, "only {compared} pairs compared");
    }
}

#[cfg(test)]
mod choice_differential {
    use super::*;
    use crate::module_assign::assign_modules;
    use lobist_dfg::corpus::{self, KINDS};
    use lobist_dfg::modules::ModuleSet;
    use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};
    use lobist_dfg::scheduling::list_schedule;

    /// Each toggle switched off in turn, after the default.
    fn option_sets() -> [TestableAllocOptions; 4] {
        let on = TestableAllocOptions::default();
        [
            on,
            TestableAllocOptions {
                sd_ordering: false,
                ..on
            },
            TestableAllocOptions {
                case_overrides: false,
                ..on
            },
            TestableAllocOptions {
                lemma2_check: false,
                ..on
            },
        ]
    }

    /// Replays one allocation and asserts, at every step with candidates,
    /// that the choice matches the reference's in register, reason and
    /// number of Lemma-2 evaluations. Counts the steps compared by the
    /// reason chosen, in `seen`.
    fn replay(
        dfg: &Dfg,
        schedule: &Schedule,
        modules: &ModuleSet,
        lifetimes: LifetimeOptions,
        seen: &mut [usize; 6],
    ) {
        let Ok(ma) = assign_modules(dfg, schedule, modules) else {
            return;
        };
        let ctx = SharingContext::new(dfg, &ma);
        for options in option_sets() {
            let Ok(alloc) = allocate_registers(dfg, schedule, lifetimes, &ma, &options) else {
                return;
            };
            let mut masks: Vec<RegisterMask> = Vec::new();
            let mut tracker = Lemma2Tracker::new(dfg, &ma);
            // One scratch for the whole replay, as in the allocator.
            let mut scratch = ChoiceScratch::default();
            for step in &alloc.trace.steps {
                let v = step.variable;
                if !step.candidates.is_empty() {
                    let c = &step.candidates;
                    let at = veto_evaluations();
                    let fast =
                        choose_register(&ctx, &masks, &tracker, v, c, &options, &mut scratch);
                    let fast_vetoes = veto_evaluations() - at;
                    let slow = reference::choose_register(&ctx, &masks, &tracker, v, c, &options);
                    let slow_vetoes = veto_evaluations() - at - fast_vetoes;
                    assert_eq!(fast, slow, "variable {v}, {options:?}");
                    assert_eq!(fast_vetoes, slow_vetoes, "variable {v}, {options:?}");
                    assert_eq!((step.chosen, &step.reason), (fast.0, &fast.1));
                    let reason = [
                        ChoiceReason::MaxDeltaSd,
                        ChoiceReason::Case1Override,
                        ChoiceReason::Case2Override,
                        ChoiceReason::Lemma2Avoidance,
                        ChoiceReason::Lemma2Unavoidable,
                    ]
                    .iter()
                    .position(|r| *r == fast.1)
                    .expect("a register was chosen among candidates");
                    seen[reason] += 1;
                    seen[5] += fast_vetoes.saturating_sub(1) as usize;
                }
                if step.chosen == masks.len() {
                    masks.push(ctx.empty_register());
                }
                ctx.add_to_register(&mut masks[step.chosen], v);
                tracker.assign(step.chosen, v);
            }
        }
    }

    /// Every reason occurs, and some step vets more than one candidate.
    fn assert_covered(seen: &[usize; 6]) {
        assert!(
            seen.iter().all(|&n| n > 0),
            "steps by reason and extra vetoes: {seen:?}"
        );
    }

    #[test]
    fn matches_the_reference_on_the_paper_suite() {
        let mut seen = [0; 6];
        for bench in lobist_dfg::benchmarks::paper_suite() {
            replay(
                &bench.dfg,
                &bench.schedule,
                &bench.module_allocation,
                bench.lifetime_options,
                &mut seen,
            );
        }
        assert!(seen[..3].iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn matches_the_reference_on_the_seed_1_corpus() {
        let mut seen = [0; 6];
        for modules in ["1+,1*,1-", "2+,2*,2-"] {
            let modules: ModuleSet = modules.parse().expect("a module set");
            for kind in KINDS {
                for size in (8..=32).step_by(8) {
                    let dfg = corpus::generate(kind, size, 1);
                    let schedule = list_schedule(&dfg, &modules).expect("corpus kinds are covered");
                    let lt = LifetimeOptions::registered_inputs();
                    replay(&dfg, &schedule, &modules, lt, &mut seen);
                }
            }
        }
        assert_covered(&seen);
    }

    #[test]
    fn matches_the_reference_on_random_designs() {
        let cfg = RandomDfgConfig {
            num_ops: 14,
            num_inputs: 4,
            max_ops_per_step: 3,
            ..RandomDfgConfig::default()
        };
        let modules: ModuleSet = "2+,2-,2*,2&".parse().expect("a module set");
        let mut seen = [0; 6];
        for seed in 0..60u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            let lt = LifetimeOptions::registered_inputs();
            replay(&dfg, &schedule, &modules, lt, &mut seen);
        }
        assert_covered(&seen);
    }
}
