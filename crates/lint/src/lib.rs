//! `lobist-lint` — a pass-based static verifier for netlists, register
//! allocations and BIST plans.
//!
//! Dynamic simulation samples behaviour; this crate proves structure. A
//! [`PassRegistry`] runs typed, deterministic passes over three artifact
//! layers:
//!
//! * **netlist structure** (`L0xx`) — single-driver discipline,
//!   combinational-loop detection via SCC, interface widths, dangling
//!   mux inputs, unreachable and dead registers;
//! * **allocation invariants** (`A1xx`) — the register assignment is a
//!   proper coloring of the lifetime interval graph, modules are never
//!   double-booked, every operand binding is realised by a mux leg;
//! * **BIST legality** (`B2xx`) — embeddings drawn from real I-paths,
//!   styles covering their roles, conflict-free sessions, honest
//!   overhead accounting, and a Lemma-2 audit that each emitted CBILBO
//!   is earned and each forced CBILBO is present.
//!
//! Every diagnostic carries a stable [`Code`], a [`Severity`] and a
//! [`Span`]; reports sort canonically so text and JSON output are
//! byte-stable regardless of pass order or worker count. The BIST checks
//! are the *same functions* [`lobist_bist::verify::verify`] composes —
//! one source of truth for legality.
//!
//! A fourth, **opt-in** layer — the `T3xx` testability analyses in
//! [`analysis`] — estimates per-fault detection probabilities (COP),
//! proves faults redundant (constant propagation) and checks test-mode
//! register reachability. Its findings are advisory warnings describing
//! test cost, not defects, so they live in
//! [`PassRegistry::analysis_registry`] rather than the default set.
//!
//! # Examples
//!
//! ```
//! use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
//! use lobist_dfg::benchmarks;
//! use lobist_lint::{lint, LintUnit};
//!
//! let bench = benchmarks::ex1();
//! let opts = FlowOptions::testable();
//! let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
//! let unit = LintUnit::of_design(
//!     &bench.dfg,
//!     &bench.schedule,
//!     &design,
//!     bench.lifetime_options,
//!     &opts.area,
//! );
//! let report = lint(&unit);
//! assert!(report.is_clean(), "{}", report.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod analysis;
pub mod bist;
pub mod context;
pub mod diag;
pub mod registry;
pub mod structural;

pub use analysis::{
    analyze_cone, analyze_design, design_cones, t301_detect_threshold, ConeReport, DesignCone,
    FaultScore, FixpointScratch, ReachReport, TestabilityReport, RANDOM_PATTERN_BUDGET,
};
pub use context::LintUnit;
pub use diag::{json_escape, Code, Diagnostic, LintPolicy, Report, Severity, Span, ALL_CODES};
pub use registry::{LintScratch, Pass, PassRegistry};
pub use structural::{lint_network, NetworkInterface};

/// Runs the default pass registry over `unit` serially.
pub fn lint(unit: &LintUnit<'_>) -> Report {
    PassRegistry::default_registry().lint(unit)
}
