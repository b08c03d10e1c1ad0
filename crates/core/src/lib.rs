//! The DAC'95 allocation algorithms: BIST-aware register and interconnect
//! assignment for scheduled data flow graphs.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`module_assign`] — testability-blind operation→module assignment
//!   (Section III: "module assignment is done without any testability
//!   consideration").
//! * [`variable_sets`] — input/output variable sets, sharing degrees
//!   `SD(v)`, `SD(R)` and the increment `ΔSD` (Definitions 3–5).
//! * [`testable_regalloc`] — the paper's register allocator: a perfect
//!   vertex elimination scheme ordered by `(SD, MCS)`, reverse-order
//!   coloring maximizing `ΔSD`, the Case 1/Case 2 overrides and the
//!   Lemma 2 CBILBO-avoidance check (Sections III-A and III-B).
//! * [`baseline_regalloc`] — traditional allocation (left-edge / greedy
//!   PVES) used as the paper's comparison point.
//! * [`cbilbo`] — Lemma 1 and Lemma 2 as executable predicates.
//! * [`interconnect`] — minimum-mux operand binding: an exact label
//!   search for modules with up to ten sources, weighted double clique
//!   partitioning beyond, directed so high-sharing registers reach both
//!   ports (Section IV).
//! * [`flow`] — the end-to-end synthesis flow producing a
//!   [`flow::Design`] with its data path and minimal-area BIST solution.
//! * [`flowcache`] — the incremental evaluation layer used by the
//!   annealer: per-stage memoization (interconnect shapes, module
//!   embeddings, warm-started selection) beneath the coloring-level
//!   cost cache.
//! * [`trace`] — step-by-step decision traces (regenerates the paper's
//!   Fig. 4 worked example).
//! * [`work`] — deterministic work counters of the synthesis searches.
//!
//! # Examples
//!
//! ```
//! use lobist_alloc::flow::{synthesize, FlowOptions};
//! use lobist_dfg::benchmarks;
//!
//! let bench = benchmarks::ex1();
//! let testable = synthesize(&bench.dfg, &bench.schedule,
//!                           &bench.module_allocation, &FlowOptions::testable())?;
//! let traditional = synthesize(&bench.dfg, &bench.schedule,
//!                              &bench.module_allocation, &FlowOptions::traditional())?;
//! assert!(testable.bist.overhead <= traditional.bist.overhead);
//! # Ok::<(), lobist_alloc::flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod baseline_regalloc;
pub mod cbilbo;
pub mod explore;
pub mod flow;
pub mod flowcache;
pub mod interconnect;
pub mod metrics;
pub mod module_assign;
pub mod testable_regalloc;
pub mod trace;
pub mod variable_sets;
pub mod work;
