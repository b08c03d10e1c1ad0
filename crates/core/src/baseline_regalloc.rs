//! Traditional (testability-blind) register allocation.
//!
//! The paper's comparison point: a minimum coloring of the variable
//! conflict graph obtained "without regard for testability". Two standard
//! algorithms are provided — the left-edge algorithm over lifetime
//! intervals and greedy coloring in reverse arbitrary-PVES order. Both
//! use the minimum number of registers; they differ only in which of the
//! many optimal colorings they pick (and thus in how testable the
//! resulting data path happens to be).

use lobist_datapath::RegisterAssignment;
use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::{Dfg, Schedule, VarId};
use lobist_graph::coloring::{greedy_in_order, left_edge};
use lobist_graph::interval::Interval;
use lobist_graph::pves::{pves, NotChordalError};

/// Which traditional algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaselineAlgorithm {
    /// Left-edge over lifetime intervals (the classic track assignment).
    #[default]
    LeftEdge,
    /// Greedy coloring in reverse arbitrary-PVES order (the paper's
    /// description of the optimal coloring algorithm it modifies).
    GreedyPves,
}

/// Runs a traditional register allocation.
///
/// # Errors
///
/// Returns [`NotChordalError`] from the PVES variant if the conflict
/// graph is not chordal (impossible for straight-line schedules).
pub fn allocate_registers(
    dfg: &Dfg,
    schedule: &Schedule,
    lifetime_options: LifetimeOptions,
    algorithm: BaselineAlgorithm,
) -> Result<RegisterAssignment, NotChordalError> {
    let lifetimes = Lifetimes::compute(dfg, schedule, lifetime_options);
    let reg_vars = lifetimes.reg_vars();
    let colors: Vec<usize> = match algorithm {
        BaselineAlgorithm::LeftEdge => {
            let spans: Vec<Interval> = reg_vars
                .iter()
                .map(|&v| lifetimes.interval(v).expect("register variable"))
                .collect();
            left_edge(&spans)
        }
        BaselineAlgorithm::GreedyPves => {
            let graph = lifetimes.conflict_graph();
            let order = pves(&graph)?;
            let rev: Vec<usize> = order.into_iter().rev().collect();
            greedy_in_order(&graph, &rev).into_vec()
        }
    };
    let num = colors.iter().copied().max().map_or(0, |m| m + 1);
    let mut classes: Vec<Vec<VarId>> = vec![Vec::new(); num];
    for (i, &v) in reg_vars.iter().enumerate() {
        classes[colors[i]].push(v);
    }
    Ok(RegisterAssignment::new(dfg, classes).expect("coloring assigns each variable once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;

    #[test]
    fn both_algorithms_hit_the_minimum() {
        for bench in benchmarks::paper_suite() {
            for alg in [BaselineAlgorithm::LeftEdge, BaselineAlgorithm::GreedyPves] {
                let ra =
                    allocate_registers(&bench.dfg, &bench.schedule, bench.lifetime_options, alg)
                        .unwrap();
                assert_eq!(
                    ra.num_registers(),
                    bench.expected_min_registers,
                    "{} with {alg:?}",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn colorings_are_proper() {
        for bench in benchmarks::paper_suite() {
            let lt = Lifetimes::compute(&bench.dfg, &bench.schedule, bench.lifetime_options);
            for alg in [BaselineAlgorithm::LeftEdge, BaselineAlgorithm::GreedyPves] {
                let ra =
                    allocate_registers(&bench.dfg, &bench.schedule, bench.lifetime_options, alg)
                        .unwrap();
                for class in ra.classes() {
                    for (i, &u) in class.iter().enumerate() {
                        for &v in &class[i + 1..] {
                            assert!(!lt.conflicts(u, v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ex1_left_edge_known_grouping() {
        // Deterministic: left-edge on ex1 packs ({e,f}, {g,a,c,h}, {b,d})
        // (sorted by lifetime starts e,g,a,b,c,d,f,h).
        let bench = benchmarks::ex1();
        let ra = allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            BaselineAlgorithm::LeftEdge,
        )
        .unwrap();
        let names: Vec<Vec<String>> = ra
            .classes()
            .iter()
            .map(|c| c.iter().map(|&v| bench.dfg.var(v).name.clone()).collect())
            .collect();
        assert_eq!(names.len(), 3);
        // `e` starts at 0; whichever register it lands in must also pick
        // up a step-3 variable (f or h) — the signature of left-edge
        // packing with no testability awareness.
        let e_class = names.iter().find(|c| c.contains(&"e".to_owned())).unwrap();
        assert!(e_class.iter().any(|n| n == "f" || n == "h"));
    }
}
