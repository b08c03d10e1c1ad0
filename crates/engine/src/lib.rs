//! Parallel batch synthesis engine.
//!
//! The synthesis flow is embarrassingly parallel across candidates —
//! each `(DFG, module set, schedule, flow options)` job is a pure
//! function — but naïve threading destroys the one property a design
//! sweep must keep: the report has to come out identical no matter how
//! many workers ran it. This crate provides:
//!
//! * [`pool`] — a std-only thread pool (scoped threads, a shared atomic
//!   job index, per-job panic isolation) that returns results in
//!   submission order, and runs a one-worker drain on the calling
//!   thread instead of spawning one;
//! * [`cache`] — a content-addressed result cache keyed on a stable
//!   128-bit FNV-1a hash of the job's shift-normalized canonical
//!   encoding;
//! * [`metrics`] — one registry of named counters and log2-µs
//!   histograms (job counters, cache tiers, per-stage wall times,
//!   worker utilization, fault-sim, annealing, lint and daemon work),
//!   rendered as one JSON object, plus optional JSON-lines progress
//!   events;
//! * [`Engine`] — the queue that ties the three together;
//! * [`explore_parallel`] / [`render_report`] — the design-space sweep
//!   of `lobist_alloc::explore`, parallelized with a guaranteed
//!   byte-identical result;
//! * [`faultsim`] — the BIST-session fault simulation of
//!   `lobist_gatesim`, partitioned across the same pool with a
//!   deterministic merge (and optional structural fault collapsing),
//!   plus [`fault_sim_modules`], the per-module BIST session driver
//!   that answers repeated sessions from the engine's session memo;
//! * [`anneal`] — the multi-chain driver for the simulated-annealing
//!   register search of `lobist_alloc::anneal`: independent serial
//!   chains over the pool, merged best-of, identical for any worker
//!   count;
//! * [`lint`] / [`analyze`] — the static-verifier passes and the
//!   testability analysis of `lobist_lint`, run on the calling thread
//!   with per-pass and per-cone timing histograms in the metrics;
//! * [`spec`] — the one job specification the CLI and the daemon both
//!   parse into (field defaults and checks), and the one job runner
//!   both call: the design loader, the synthesis, and each job
//!   command's compute, failing with one [`JobError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod anneal;
pub mod cache;
mod engine;
pub mod faultsim;
pub mod lint;
pub mod metrics;
pub mod pool;
pub mod spec;

mod explore;

pub use analyze::{analyze_timed, AnalyzeRunStats};
pub use anneal::{anneal_multichain, AnnealStats};
pub use cache::{
    canonical_job_key, failure_key, origin_fingerprint, JobResult, ResultCache,
    DEFAULT_CACHE_CAPACITY,
};
pub use engine::{provenance, Engine, Job, JobOutcome, ProgressSink};
pub use explore::{explore_parallel, render_report};
pub use faultsim::{
    bist_session_parallel, fault_sim_modules, FaultSimOptions, FaultSimStats, LaneSelect,
    SessionWidth,
};
pub use lint::{lint_timed, LintRunStats};
pub use lobist_store::{ResultStore, StoreStats};
pub use metrics::{bucket_micros, Metrics, MetricsSnapshot, NUM_BUCKETS};
pub use pool::{run_jobs, PoolStats};
pub use spec::{load_design, FlowKind, JobError, JobSpec, LoadError};
