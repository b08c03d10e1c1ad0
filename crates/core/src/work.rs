//! Deterministic work counters of the synthesis searches.
//!
//! Each search counts its own steps on the calling thread: the PVES
//! simplicial tests ([`lobist_graph::pves::simplicial_tests`]), the
//! Lemma-2 veto evaluations (`testable_regalloc::veto_evaluations`), the
//! port-label search nodes (`interconnect::label_nodes`), the BIST
//! embeddings enumerated ([`lobist_bist::embedding::embeddings_enumerated`])
//! and the branch-and-bound nodes entered
//! ([`lobist_bist::allocate::search_nodes`]).
//! A synthesis runs on one thread, so the difference of two
//! running-total readings around it is exactly its work: a
//! function of the design alone, whatever else other threads run.

use std::ops::AddAssign;

/// Work done by the synthesis searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// PVES simplicial tests.
    pub pves_tests: u64,
    /// Lemma-2 veto evaluations, one per `(variable, candidate)` vetted.
    pub lemma2_evaluations: u64,
    /// Port-label search nodes entered.
    pub label_nodes: u64,
    /// BIST embeddings enumerated.
    pub embeddings: u64,
    /// Branch-and-bound nodes entered.
    pub bnb_nodes: u64,
}

impl SearchWork {
    /// The running totals of the calling thread.
    fn current() -> Self {
        Self {
            pves_tests: lobist_graph::pves::simplicial_tests(),
            lemma2_evaluations: crate::testable_regalloc::veto_evaluations(),
            label_nodes: crate::interconnect::label_nodes(),
            embeddings: lobist_bist::embedding::embeddings_enumerated(),
            bnb_nodes: lobist_bist::allocate::search_nodes(),
        }
    }

    /// Runs `f` and returns its result with the work it did on this
    /// thread.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Self) {
        let before = Self::current();
        let out = f();
        let after = Self::current();
        (
            out,
            Self {
                pves_tests: after.pves_tests - before.pves_tests,
                lemma2_evaluations: after.lemma2_evaluations - before.lemma2_evaluations,
                label_nodes: after.label_nodes - before.label_nodes,
                embeddings: after.embeddings - before.embeddings,
                bnb_nodes: after.bnb_nodes - before.bnb_nodes,
            },
        )
    }
}

impl AddAssign for SearchWork {
    fn add_assign(&mut self, rhs: Self) {
        self.pves_tests += rhs.pves_tests;
        self.lemma2_evaluations += rhs.lemma2_evaluations;
        self.label_nodes += rhs.label_nodes;
        self.embeddings += rhs.embeddings;
        self.bnb_nodes += rhs.bnb_nodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{synthesize_benchmark, FlowOptions};
    use lobist_dfg::benchmarks;

    #[test]
    fn measures_only_the_closure_and_repeats_exactly() {
        let bench = benchmarks::ex1();
        let run = || SearchWork::measure(|| synthesize_benchmark(&bench, &FlowOptions::testable()));
        let (design, first) = run();
        design.expect("ex1 synthesizes");
        assert!(
            first.pves_tests > 0 && first.label_nodes > 0 && first.bnb_nodes > 0,
            "{first:?}"
        );
        assert_eq!(run().1, first);
        assert_eq!(SearchWork::measure(|| ()).1, SearchWork::default());
    }
}
