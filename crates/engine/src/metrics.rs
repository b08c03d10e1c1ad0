//! Engine instrumentation: job counters, cache hit rates, per-stage
//! wall-time histograms and worker utilization.
//!
//! Counters accumulate across every batch an [`Engine`] runs, so a
//! repeated sweep shows its cache hits in the same snapshot as the
//! first sweep's misses. Snapshots render to a single JSON object
//! (hand-rolled — the schema is small and the crate stays
//! dependency-free, like the CLI's JSON output).
//!
//! [`Engine`]: crate::Engine

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use lobist_alloc::anneal::AnnealResult;
use lobist_alloc::flow::StageTimings;
use lobist_alloc::flowcache::{FlowCacheStats, StageStats};
use lobist_store::StoreStats;

use crate::anneal::AnnealStats;
use crate::faultsim::FaultSimStats;
use crate::lint::LintRunStats;
use crate::pool::PoolStats;

/// Histogram buckets per stage: bucket `i` counts jobs whose stage took
/// `[2^i, 2^(i+1))` microseconds; the last bucket absorbs everything
/// slower (~8.4 s and beyond).
pub const NUM_BUCKETS: usize = 24;

/// The flow stages a histogram is kept for, in pipeline order (matching
/// [`StageTimings::stages`]).
pub const STAGE_NAMES: [&str; 5] = [
    "module_assign",
    "register_alloc",
    "interconnect",
    "data_path",
    "bist",
];

/// The histogram bucket for a duration of `micros` microseconds
/// (log2 bucketing, saturating at [`NUM_BUCKETS`]` - 1`). Public so the
/// server can bucket request wall times into the same shape.
pub fn bucket_micros(micros: u128) -> usize {
    let floor_log2 = (127 - micros.max(1).leading_zeros()) as usize;
    floor_log2.min(NUM_BUCKETS - 1)
}

fn bucket(micros: u128) -> usize {
    bucket_micros(micros)
}

/// Live counters owned by an engine.
#[derive(Debug, Default)]
pub struct Metrics {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    store_hits: AtomicU64,
    coalesced: AtomicU64,
    panics: AtomicU64,
    busy_nanos: AtomicU64,
    // Pool capacity = wall × workers, the denominator of utilization.
    capacity_nanos: AtomicU64,
    histograms: Mutex<[[u64; NUM_BUCKETS]; STAGE_NAMES.len()]>,
    // Fault-simulation work (crate::faultsim runs).
    fs_batches_loaded: AtomicU64,
    fs_faults_simulated: AtomicU64,
    fs_cone_evals: AtomicU64,
    fs_events_propagated: AtomicU64,
    fs_collapsed_away: AtomicU64,
    fs_wall_nanos: AtomicU64,
    // Per-lane-width fault-sim tallies; index 0/1 ↔ 64/256 lanes.
    fs_runs_by_lanes: [AtomicU64; 2],
    fs_batches_by_lanes: [AtomicU64; 2],
    // Session-memo lookups (crate::faultsim::SessionMemo).
    fs_memo_hits: AtomicU64,
    fs_memo_misses: AtomicU64,
    // Annealing-search work (crate::anneal runs).
    an_runs: AtomicU64,
    an_chains: AtomicU64,
    an_evaluated: AtomicU64,
    an_accepted: AtomicU64,
    an_stalled: AtomicU64,
    an_wasted: AtomicU64,
    an_oracle_hits: AtomicU64,
    an_oracle_misses: AtomicU64,
    an_wall_nanos: AtomicU64,
    // Incremental flow-cache work beneath the oracle (lobist_alloc::flowcache).
    fc: Mutex<FlowCacheStats>,
    // Canonization work (the structural result cache in crate::engine).
    canon_exact_hits: AtomicU64,
    canon_iso_hits: AtomicU64,
    canon_remaps: AtomicU64,
    canon_bailouts: AtomicU64,
    canon_hist: Mutex<[u64; NUM_BUCKETS]>,
    // Lint runs (crate::lint drives).
    lint_runs: AtomicU64,
    lint_errors: AtomicU64,
    lint_warnings: AtomicU64,
    lint_wall_nanos: AtomicU64,
    // Per-pass log2-µs histograms, keyed by pass name (BTreeMap so the
    // JSON section is deterministically ordered).
    lint_hist: Mutex<BTreeMap<&'static str, [u64; NUM_BUCKETS]>>,
    // Static testability analysis (crate::analyze drives).
    ta_runs: AtomicU64,
    ta_cones: AtomicU64,
    ta_faults: AtomicU64,
    ta_hard: AtomicU64,
    ta_redundant: AtomicU64,
    ta_unreachable: AtomicU64,
    ta_wall_nanos: AtomicU64,
    // Per-cone analysis wall time, one aggregated log2-µs histogram
    // (cone labels are per-design strings, so no static keying).
    ta_hist: Mutex<[u64; NUM_BUCKETS]>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_submitted(&self, n: u64) {
        self.jobs_submitted.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn job_done(&self, cache_hit: bool) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A job answered by the durable store tier (missed the in-memory
    /// cache, found on disk, promoted).
    pub(crate) fn job_done_from_store(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        // A store hit is still a miss for the in-memory tier.
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A job found an identical job already in flight and waited for its
    /// result instead of evaluating (single-flight deduplication).
    pub(crate) fn coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_panicked(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stages(&self, timings: &StageTimings) {
        let mut h = self.histograms.lock().expect("histogram lock");
        for (i, (_, d)) in timings.stages().iter().enumerate() {
            h[i][bucket(d.as_micros())] += 1;
        }
    }

    pub(crate) fn record_pool(&self, stats: &PoolStats) {
        let busy: u64 = stats.busy.iter().map(|d| d.as_nanos() as u64).sum();
        self.busy_nanos.fetch_add(busy, Ordering::Relaxed);
        self.capacity_nanos.fetch_add(
            stats.wall.as_nanos() as u64 * stats.workers as u64,
            Ordering::Relaxed,
        );
    }

    /// Accumulates the work accounting of one fault-simulation run
    /// ([`crate::faultsim`]).
    pub fn record_fault_sim(&self, stats: &FaultSimStats) {
        self.fs_batches_loaded
            .fetch_add(stats.counters.batches_loaded, Ordering::Relaxed);
        self.fs_faults_simulated
            .fetch_add(stats.counters.faults_simulated, Ordering::Relaxed);
        self.fs_cone_evals
            .fetch_add(stats.counters.cone_evals, Ordering::Relaxed);
        self.fs_events_propagated
            .fetch_add(stats.counters.events_propagated, Ordering::Relaxed);
        self.fs_collapsed_away
            .fetch_add(stats.collapsed_away as u64, Ordering::Relaxed);
        self.fs_wall_nanos
            .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
        let idx = lane_index(stats.lanes);
        self.fs_runs_by_lanes[idx].fetch_add(1, Ordering::Relaxed);
        self.fs_batches_by_lanes[idx].fetch_add(stats.counters.batches_loaded, Ordering::Relaxed);
    }

    /// One session-memo lookup: a hit skipped the simulation (and
    /// records no simulator counters), a miss ran it.
    pub(crate) fn record_session_memo(&self, hit: bool) {
        if hit {
            self.fs_memo_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fs_memo_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulates the work accounting of one annealing run
    /// ([`crate::anneal`]).
    pub fn record_anneal(&self, result: &AnnealResult, stats: &AnnealStats) {
        self.an_runs.fetch_add(1, Ordering::Relaxed);
        self.an_chains
            .fetch_add(stats.chains as u64, Ordering::Relaxed);
        self.an_evaluated
            .fetch_add(u64::from(result.evaluated), Ordering::Relaxed);
        self.an_accepted
            .fetch_add(u64::from(result.accepted), Ordering::Relaxed);
        self.an_stalled
            .fetch_add(u64::from(result.stalled), Ordering::Relaxed);
        self.an_wasted
            .fetch_add(u64::from(result.wasted), Ordering::Relaxed);
        self.an_oracle_hits
            .fetch_add(result.oracle_hits, Ordering::Relaxed);
        self.an_oracle_misses
            .fetch_add(result.oracle_misses, Ordering::Relaxed);
        self.an_wall_nanos
            .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
        let mut fc = self.fc.lock().expect("flow-cache lock");
        accumulate_stage(&mut fc.interconnect, &result.flow_cache.interconnect);
        accumulate_stage(&mut fc.embeddings, &result.flow_cache.embeddings);
        accumulate_stage(&mut fc.selection, &result.flow_cache.selection);
        fc.warm_starts += result.flow_cache.warm_starts;
        for (acc, &n) in fc
            .delta_micros
            .iter_mut()
            .zip(&result.flow_cache.delta_micros)
        {
            *acc += n;
        }
        for (acc, &n) in fc
            .full_micros
            .iter_mut()
            .zip(&result.flow_cache.full_micros)
        {
            *acc += n;
        }
    }

    /// One canonization performed: its wall time lands in the log2-µs
    /// histogram, and a search that hit its leaf budget (falling back to
    /// a deterministic but not label-invariant order) counts a bailout.
    pub(crate) fn record_canonization(&self, took: Duration, bailed: bool) {
        let mut h = self.canon_hist.lock().expect("canon histogram lock");
        h[bucket(took.as_micros())] += 1;
        drop(h);
        if bailed {
            self.canon_bailouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A structural-cache hit, classified by origin fingerprint: `iso`
    /// when the stored result came from a differently-labelled
    /// isomorphic submission, exact otherwise.
    pub(crate) fn canon_hit(&self, iso: bool) {
        if iso {
            self.canon_iso_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.canon_exact_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A stored canonical-coordinate result was translated back into a
    /// requester's own names.
    pub(crate) fn canon_remap(&self) {
        self.canon_remaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates the outcome and per-pass timings of one lint run
    /// ([`crate::lint::lint_parallel`]).
    pub fn record_lint(&self, report: &lobist_lint::Report, stats: &LintRunStats) {
        self.lint_runs.fetch_add(1, Ordering::Relaxed);
        self.lint_errors
            .fetch_add(report.error_count() as u64, Ordering::Relaxed);
        self.lint_warnings
            .fetch_add(report.warning_count() as u64, Ordering::Relaxed);
        self.lint_wall_nanos
            .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
        let mut hist = self.lint_hist.lock().expect("lint histogram lock");
        for &(name, took) in &stats.passes {
            hist.entry(name).or_insert([0; NUM_BUCKETS])[bucket(took.as_micros())] += 1;
        }
    }

    /// Accumulates the outcome and per-cone timings of one static
    /// testability analysis run ([`crate::analyze::analyze_parallel`]).
    pub fn record_analysis(
        &self,
        report: &lobist_lint::TestabilityReport,
        stats: &crate::analyze::AnalyzeRunStats,
    ) {
        self.ta_runs.fetch_add(1, Ordering::Relaxed);
        self.ta_cones
            .fetch_add(report.cones.len() as u64, Ordering::Relaxed);
        self.ta_faults
            .fetch_add(report.total_faults() as u64, Ordering::Relaxed);
        self.ta_hard
            .fetch_add(report.total_hard() as u64, Ordering::Relaxed);
        self.ta_redundant
            .fetch_add(report.total_redundant() as u64, Ordering::Relaxed);
        self.ta_unreachable
            .fetch_add(report.total_unreachable() as u64, Ordering::Relaxed);
        self.ta_wall_nanos
            .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
        let mut hist = self.ta_hist.lock().expect("testability histogram lock");
        for (_, took) in &stats.cones {
            hist[bucket(took.as_micros())] += 1;
        }
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            capacity: Duration::from_nanos(self.capacity_nanos.load(Ordering::Relaxed)),
            histograms: *self.histograms.lock().expect("histogram lock"),
            fault_sim: FaultSimSnapshot {
                batches_loaded: self.fs_batches_loaded.load(Ordering::Relaxed),
                faults_simulated: self.fs_faults_simulated.load(Ordering::Relaxed),
                cone_evals: self.fs_cone_evals.load(Ordering::Relaxed),
                events_propagated: self.fs_events_propagated.load(Ordering::Relaxed),
                collapsed_away: self.fs_collapsed_away.load(Ordering::Relaxed),
                wall: Duration::from_nanos(self.fs_wall_nanos.load(Ordering::Relaxed)),
                runs_by_lanes: self
                    .fs_runs_by_lanes
                    .each_ref()
                    .map(|c| c.load(Ordering::Relaxed)),
                batches_by_lanes: self
                    .fs_batches_by_lanes
                    .each_ref()
                    .map(|c| c.load(Ordering::Relaxed)),
                session_memo_hits: self.fs_memo_hits.load(Ordering::Relaxed),
                session_memo_misses: self.fs_memo_misses.load(Ordering::Relaxed),
            },
            anneal: AnnealSnapshot {
                runs: self.an_runs.load(Ordering::Relaxed),
                chains: self.an_chains.load(Ordering::Relaxed),
                moves_evaluated: self.an_evaluated.load(Ordering::Relaxed),
                moves_accepted: self.an_accepted.load(Ordering::Relaxed),
                stalls: self.an_stalled.load(Ordering::Relaxed),
                speculative_waste: self.an_wasted.load(Ordering::Relaxed),
                oracle_hits: self.an_oracle_hits.load(Ordering::Relaxed),
                oracle_misses: self.an_oracle_misses.load(Ordering::Relaxed),
                wall: Duration::from_nanos(self.an_wall_nanos.load(Ordering::Relaxed)),
            },
            flow_cache: self.fc.lock().expect("flow-cache lock").clone(),
            canon: CanonSnapshot {
                exact_hits: self.canon_exact_hits.load(Ordering::Relaxed),
                iso_hits: self.canon_iso_hits.load(Ordering::Relaxed),
                remaps: self.canon_remaps.load(Ordering::Relaxed),
                bailouts: self.canon_bailouts.load(Ordering::Relaxed),
                canon_micros_log2: *self.canon_hist.lock().expect("canon histogram lock"),
            },
            lint: LintSnapshot {
                runs: self.lint_runs.load(Ordering::Relaxed),
                errors: self.lint_errors.load(Ordering::Relaxed),
                warnings: self.lint_warnings.load(Ordering::Relaxed),
                wall: Duration::from_nanos(self.lint_wall_nanos.load(Ordering::Relaxed)),
                pass_histograms: self.lint_hist.lock().expect("lint histogram lock").clone(),
            },
            testability: TestabilitySnapshot {
                runs: self.ta_runs.load(Ordering::Relaxed),
                cones: self.ta_cones.load(Ordering::Relaxed),
                faults: self.ta_faults.load(Ordering::Relaxed),
                hard: self.ta_hard.load(Ordering::Relaxed),
                redundant: self.ta_redundant.load(Ordering::Relaxed),
                unreachable: self.ta_unreachable.load(Ordering::Relaxed),
                wall: Duration::from_nanos(self.ta_wall_nanos.load(Ordering::Relaxed)),
                cone_micros_log2: *self.ta_hist.lock().expect("testability histogram lock"),
            },
            result_cache: None,
            cache_capacity: 0,
            store: None,
            server: None,
        }
    }
}

/// The lane widths the per-width fault-sim tallies distinguish,
/// indexing [`FaultSimSnapshot::runs_by_lanes`].
pub const LANE_WIDTHS: [u32; 2] = [64, 256];

fn lane_index(lanes: u32) -> usize {
    usize::from(lanes == 256)
}

fn accumulate_stage(acc: &mut StageStats, s: &StageStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.evictions += s.evictions;
}

/// Accumulated annealing-search work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnealSnapshot {
    /// Annealing runs recorded.
    pub runs: u64,
    /// Chains across all runs.
    pub chains: u64,
    /// Committed-trajectory moves evaluated.
    pub moves_evaluated: u64,
    /// Moves accepted.
    pub moves_accepted: u64,
    /// Steps that found no feasible move within the retry budget.
    pub stalls: u64,
    /// Speculative evaluations discarded by an earlier acceptance.
    pub speculative_waste: u64,
    /// Cost-oracle cache hits.
    pub oracle_hits: u64,
    /// Cost-oracle cache misses (full interconnect + BIST solves).
    pub oracle_misses: u64,
    /// Wall time of all annealing runs.
    pub wall: Duration,
}

impl AnnealSnapshot {
    /// Oracle hits as a fraction of lookups (0.0 when none).
    pub fn oracle_hit_rate(&self) -> f64 {
        let total = self.oracle_hits + self.oracle_misses;
        if total == 0 {
            0.0
        } else {
            self.oracle_hits as f64 / total as f64
        }
    }
}

/// Accumulated fault-simulation work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSimSnapshot {
    /// Golden 64-pattern batch evaluations.
    pub batches_loaded: u64,
    /// Faults propagated through their cones.
    pub faults_simulated: u64,
    /// Gate re-evaluations inside fault cones.
    pub cone_evals: u64,
    /// Net-change events that survived a gate.
    pub events_propagated: u64,
    /// Faults eliminated by structural collapsing.
    pub collapsed_away: u64,
    /// Wall time of all fault-simulation runs.
    pub wall: Duration,
    /// Runs per lane width, indexed by [`LANE_WIDTHS`].
    pub runs_by_lanes: [u64; 2],
    /// Batches loaded per lane width, indexed by [`LANE_WIDTHS`].
    pub batches_by_lanes: [u64; 2],
    /// Sessions answered from the session memo.
    pub session_memo_hits: u64,
    /// Sessions simulated after a memo miss.
    pub session_memo_misses: u64,
}

/// Accumulated lint work, as carried in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintSnapshot {
    /// Lint runs recorded.
    pub runs: u64,
    /// Error-severity findings across all runs.
    pub errors: u64,
    /// Warning-severity findings across all runs.
    pub warnings: u64,
    /// Wall time of all lint runs.
    pub wall: Duration,
    /// Per-pass log2-microsecond histograms (same bucketing as the
    /// flow-stage histograms), keyed by pass name.
    pub pass_histograms: BTreeMap<&'static str, [u64; NUM_BUCKETS]>,
}

/// Accumulated static-testability-analysis work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestabilitySnapshot {
    /// Analysis runs recorded.
    pub runs: u64,
    /// Module cones analyzed.
    pub cones: u64,
    /// Faults scored.
    pub faults: u64,
    /// `T301` (random-pattern-resistant) flags.
    pub hard: u64,
    /// `T303` (redundant) flags.
    pub redundant: u64,
    /// `T302` (unreachable-in-test-mode) flags.
    pub unreachable: u64,
    /// Wall time of all analysis runs.
    pub wall: Duration,
    /// Log2-microsecond histogram of per-cone analysis wall time (same
    /// bucketing as the flow-stage histograms).
    pub cone_micros_log2: [u64; NUM_BUCKETS],
}

impl Default for TestabilitySnapshot {
    fn default() -> Self {
        Self {
            runs: 0,
            cones: 0,
            faults: 0,
            hard: 0,
            redundant: 0,
            unreachable: 0,
            wall: Duration::ZERO,
            cone_micros_log2: [0; NUM_BUCKETS],
        }
    }
}

/// Accumulated canonization work of the structural result cache, as
/// carried in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonSnapshot {
    /// Cache/store hits whose origin fingerprint matched the request —
    /// the same rendered design resubmitted.
    pub exact_hits: u64,
    /// Cache/store hits answered across an isomorphism class — a
    /// renamed or reordered twin of an already-synthesized design.
    pub iso_hits: u64,
    /// Stored canonical-coordinate results translated back into a
    /// requester's own names.
    pub remaps: u64,
    /// Canonizations whose refinement search hit its leaf budget (the
    /// key stays sound; hits may be missed for that design).
    pub bailouts: u64,
    /// Log2-microsecond histogram of canonization wall time (same
    /// bucketing as the flow-stage histograms).
    pub canon_micros_log2: [u64; NUM_BUCKETS],
}

impl Default for CanonSnapshot {
    fn default() -> Self {
        Self {
            exact_hits: 0,
            iso_hits: 0,
            remaps: 0,
            bailouts: 0,
            canon_micros_log2: [0; NUM_BUCKETS],
        }
    }
}

impl CanonSnapshot {
    /// Isomorphic hits as a fraction of all structural-cache hits
    /// (0.0 when none) — how much of the hit rate only canonization
    /// could have delivered.
    pub fn iso_share(&self) -> f64 {
        let total = self.exact_hits + self.iso_hits;
        if total == 0 {
            0.0
        } else {
            self.iso_hits as f64 / total as f64
        }
    }
}

/// Accumulated daemon-side request accounting, as carried in a
/// [`MetricsSnapshot`]. The server fills this in before rendering; a
/// plain engine leaves it `None` and the JSON omits the section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Requests accepted onto the queue.
    pub requests: u64,
    /// Requests that ran to completion (even if the job itself failed
    /// to synthesize — that is still a well-formed response).
    pub completed: u64,
    /// Requests that died with a protocol or I/O error.
    pub failed: u64,
    /// Requests refused by policy (malformed, over limits, shutdown).
    pub rejected: u64,
    /// Requests currently running.
    pub active: u64,
    /// Requests currently waiting for an admission slot.
    pub queue_depth: u64,
    /// High-water mark of the wait queue.
    pub peak_queue_depth: u64,
    /// Wall time spent inside request handling, summed.
    pub wall: Duration,
    /// Log2-microsecond histogram of per-request wall time (same
    /// bucketing as the flow-stage histograms).
    pub request_micros_log2: [u64; NUM_BUCKETS],
}

impl Default for ServerSnapshot {
    fn default() -> Self {
        Self {
            requests: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            active: 0,
            queue_depth: 0,
            peak_queue_depth: 0,
            wall: Duration::ZERO,
            request_micros_log2: [0; NUM_BUCKETS],
        }
    }
}

/// A point-in-time copy of an engine's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the engine so far.
    pub jobs_submitted: u64,
    /// Jobs finished (evaluated, served from cache, or panicked).
    pub jobs_completed: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs that had to run the flow (or were served by the durable
    /// store after missing the in-memory cache).
    pub cache_misses: u64,
    /// Jobs answered from the durable store tier.
    pub store_hits: u64,
    /// Jobs that waited for an identical in-flight job instead of
    /// evaluating (single-flight deduplication).
    pub coalesced: u64,
    /// Jobs that panicked (isolated; reported as failures).
    pub panics: u64,
    /// Total time workers spent running jobs.
    pub busy: Duration,
    /// Total pool capacity (wall time × workers, summed over batches).
    pub capacity: Duration,
    /// Per-stage log2-microsecond histograms, indexed like
    /// [`STAGE_NAMES`].
    pub histograms: [[u64; NUM_BUCKETS]; STAGE_NAMES.len()],
    /// Accumulated fault-simulation work.
    pub fault_sim: FaultSimSnapshot,
    /// Accumulated annealing-search work.
    pub anneal: AnnealSnapshot,
    /// Accumulated incremental flow-cache work (stage-level hits /
    /// misses / evictions plus delta-vs-full evaluation timing
    /// histograms), summed over every recorded annealing run.
    pub flow_cache: FlowCacheStats,
    /// Accumulated lint work.
    pub lint: LintSnapshot,
    /// Accumulated static testability analysis work.
    pub testability: TestabilitySnapshot,
    /// Accumulated canonization work of the structural result cache.
    pub canon: CanonSnapshot,
    /// Live counters of the in-memory result cache (its own
    /// hit/miss/eviction view; attached by [`Engine::metrics`]).
    ///
    /// [`Engine::metrics`]: crate::Engine::metrics
    pub result_cache: Option<StoreStats>,
    /// Configured bound of the in-memory result cache (0 when not
    /// attached).
    pub cache_capacity: u64,
    /// Live counters of the durable store, when one is attached.
    pub store: Option<StoreStats>,
    /// Daemon request accounting, when rendered by `lobist serve`.
    pub server: Option<ServerSnapshot>,
}

impl MetricsSnapshot {
    /// Cache hits as a fraction of completed non-panicking jobs
    /// (0.0 when nothing completed).
    pub fn cache_hit_rate(&self) -> f64 {
        let served = self.cache_hits + self.cache_misses;
        if served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / served as f64
        }
    }

    /// Fraction of pool capacity spent running jobs.
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.capacity.as_secs_f64();
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        // Trim trailing empty buckets so the lines stay readable.
        fn trim_row(row: &[u64]) -> String {
            let last = row.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
            let cells: Vec<String> = row[..last].iter().map(u64::to_string).collect();
            cells.join(",")
        }
        fn stage_json(s: &StageStats) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
                s.hits,
                s.misses,
                s.evictions,
                s.hit_rate()
            )
        }
        let mut hist = String::new();
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                hist.push(',');
            }
            let _ = write!(hist, "\"{name}\":[{}]", trim_row(&self.histograms[i]));
        }
        let mut lint_hist = String::new();
        for (i, (name, row)) in self.lint.pass_histograms.iter().enumerate() {
            if i > 0 {
                lint_hist.push(',');
            }
            let _ = write!(lint_hist, "\"{name}\":[{}]", trim_row(row));
        }
        fn store_json(s: &StoreStats) -> String {
            format!(
                concat!(
                    "{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4},",
                    "\"insertions\":{},\"evictions\":{},\"entries\":{},",
                    "\"payload_bytes\":{},\"bytes_read\":{},\"bytes_written\":{},",
                    "\"compactions\":{},\"recovered_drops\":{},\"write_errors\":{},",
                    "\"version_skips\":{}}}"
                ),
                s.hits,
                s.misses,
                s.hit_rate(),
                s.insertions,
                s.evictions,
                s.entries,
                s.payload_bytes,
                s.bytes_read,
                s.bytes_written,
                s.compactions,
                s.recovered_drops,
                s.write_errors,
                s.version_skips,
            )
        }
        // Optional gauges inside the "cache" section: present once the
        // engine attaches the live cache view.
        let mut cache_extra = format!(
            ",\"store_hits\":{},\"coalesced\":{}",
            self.store_hits, self.coalesced
        );
        if let Some(rc) = &self.result_cache {
            let _ = write!(
                cache_extra,
                ",\"evictions\":{},\"entries\":{},\"capacity\":{}",
                rc.evictions, rc.entries, self.cache_capacity
            );
        }
        // Optional trailing sections for the durable store and the
        // daemon.
        let mut tail = String::new();
        if let Some(store) = &self.store {
            let _ = write!(tail, ",\"store\":{}", store_json(store));
        }
        if let Some(sv) = &self.server {
            let _ = write!(
                tail,
                concat!(
                    ",\"server\":{{\"requests\":{},\"completed\":{},",
                    "\"failed\":{},\"rejected\":{},\"active\":{},",
                    "\"queue_depth\":{},\"peak_queue_depth\":{},",
                    "\"wall_micros\":{},\"request_micros_log2\":[{}]}}"
                ),
                sv.requests,
                sv.completed,
                sv.failed,
                sv.rejected,
                sv.active,
                sv.queue_depth,
                sv.peak_queue_depth,
                sv.wall.as_micros(),
                trim_row(&sv.request_micros_log2),
            );
        }
        format!(
            concat!(
                "{{\"jobs\":{{\"submitted\":{sub},\"completed\":{done},\"panicked\":{pan}}},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{rate:.4}",
                "{cache_extra}}},",
                "\"pool\":{{\"busy_micros\":{busy},\"capacity_micros\":{cap},",
                "\"utilization\":{util:.4}}},",
                "\"fault_sim\":{{\"batches_loaded\":{fs_batches},",
                "\"faults_simulated\":{fs_faults},\"cone_evals\":{fs_cone},",
                "\"events_propagated\":{fs_events},\"collapsed_away\":{fs_coll},",
                "\"lanes\":{{{fs_lanes}}},\"session_memo\":{{\"hits\":{fs_memo_hits},",
                "\"misses\":{fs_memo_misses}}},\"wall_micros\":{fs_wall}}},",
                "\"anneal\":{{\"runs\":{an_runs},\"chains\":{an_chains},",
                "\"moves_evaluated\":{an_eval},\"moves_accepted\":{an_acc},",
                "\"stalls\":{an_stall},\"speculative_waste\":{an_waste},",
                "\"oracle_hits\":{an_hits},\"oracle_misses\":{an_misses},",
                "\"oracle_hit_rate\":{an_rate:.4},\"wall_micros\":{an_wall}}},",
                "\"flow_cache\":{{\"interconnect\":{fc_ic},\"embeddings\":{fc_emb},",
                "\"selection\":{fc_sel},\"warm_starts\":{fc_warm},",
                "\"delta_micros_log2\":[{fc_delta}],\"full_micros_log2\":[{fc_full}]}},",
                "\"lint\":{{\"runs\":{li_runs},\"errors\":{li_err},",
                "\"warnings\":{li_warn},\"wall_micros\":{li_wall},",
                "\"pass_micros_log2_histograms\":{{{li_hist}}}}},",
                "\"testability\":{{\"runs\":{ta_runs},\"cones\":{ta_cones},",
                "\"faults\":{ta_faults},\"hard\":{ta_hard},",
                "\"redundant\":{ta_red},\"unreachable\":{ta_unreach},",
                "\"wall_micros\":{ta_wall},\"cone_micros_log2\":[{ta_hist}]}},",
                "\"canon\":{{\"exact_hits\":{cn_exact},\"iso_hits\":{cn_iso},",
                "\"iso_share\":{cn_share:.4},\"remaps\":{cn_remaps},",
                "\"bailouts\":{cn_bail},\"canon_micros_log2\":[{cn_hist}]}},",
                "\"stage_micros_log2_histograms\":{{{hist}}}{tail}}}"
            ),
            sub = self.jobs_submitted,
            done = self.jobs_completed,
            pan = self.panics,
            hits = self.cache_hits,
            misses = self.cache_misses,
            rate = self.cache_hit_rate(),
            busy = self.busy.as_micros(),
            cap = self.capacity.as_micros(),
            util = self.worker_utilization(),
            fs_batches = self.fault_sim.batches_loaded,
            fs_faults = self.fault_sim.faults_simulated,
            fs_cone = self.fault_sim.cone_evals,
            fs_events = self.fault_sim.events_propagated,
            fs_coll = self.fault_sim.collapsed_away,
            fs_lanes = LANE_WIDTHS
                .iter()
                .enumerate()
                .map(|(i, w)| format!(
                    "\"{w}\":{{\"runs\":{},\"batches_loaded\":{}}}",
                    self.fault_sim.runs_by_lanes[i], self.fault_sim.batches_by_lanes[i]
                ))
                .collect::<Vec<_>>()
                .join(","),
            fs_memo_hits = self.fault_sim.session_memo_hits,
            fs_memo_misses = self.fault_sim.session_memo_misses,
            fs_wall = self.fault_sim.wall.as_micros(),
            an_runs = self.anneal.runs,
            an_chains = self.anneal.chains,
            an_eval = self.anneal.moves_evaluated,
            an_acc = self.anneal.moves_accepted,
            an_stall = self.anneal.stalls,
            an_waste = self.anneal.speculative_waste,
            an_hits = self.anneal.oracle_hits,
            an_misses = self.anneal.oracle_misses,
            an_rate = self.anneal.oracle_hit_rate(),
            an_wall = self.anneal.wall.as_micros(),
            fc_ic = stage_json(&self.flow_cache.interconnect),
            fc_emb = stage_json(&self.flow_cache.embeddings),
            fc_sel = stage_json(&self.flow_cache.selection),
            fc_warm = self.flow_cache.warm_starts,
            fc_delta = trim_row(&self.flow_cache.delta_micros),
            fc_full = trim_row(&self.flow_cache.full_micros),
            li_runs = self.lint.runs,
            li_err = self.lint.errors,
            li_warn = self.lint.warnings,
            li_wall = self.lint.wall.as_micros(),
            li_hist = lint_hist,
            ta_runs = self.testability.runs,
            ta_cones = self.testability.cones,
            ta_faults = self.testability.faults,
            ta_hard = self.testability.hard,
            ta_red = self.testability.redundant,
            ta_unreach = self.testability.unreachable,
            ta_wall = self.testability.wall.as_micros(),
            ta_hist = trim_row(&self.testability.cone_micros_log2),
            cn_exact = self.canon.exact_hits,
            cn_iso = self.canon.iso_hits,
            cn_share = self.canon.iso_share(),
            cn_remaps = self.canon.remaps,
            cn_bail = self.canon.bailouts,
            cn_hist = trim_row(&self.canon.canon_micros_log2),
            hist = hist,
            cache_extra = cache_extra,
            tail = tail,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_micros() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(u128::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.add_submitted(3);
        m.job_done(false);
        m.job_done(true);
        m.job_panicked();
        m.record_stages(&StageTimings {
            module_assign: Duration::from_micros(3),
            register_alloc: Duration::from_micros(900),
            ..Default::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.jobs_submitted, 3);
        assert_eq!(snap.jobs_completed, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.panics, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(snap.histograms[0][1], 1); // 3 µs → bucket 1
        assert_eq!(snap.histograms[1][9], 1); // 900 µs → bucket 9
        let json = snap.to_json();
        assert!(json.contains("\"submitted\":3"), "{json}");
        assert!(json.contains("\"hit_rate\":0.5000"), "{json}");
        assert!(
            json.contains("\"register_alloc\":[0,0,0,0,0,0,0,0,0,1]"),
            "{json}"
        );
    }

    #[test]
    fn fault_sim_counters_accumulate_and_render() {
        use lobist_gatesim::diffsim::SimCounters;
        let m = Metrics::new();
        m.record_fault_sim(&FaultSimStats {
            counters: SimCounters {
                batches_loaded: 4,
                faults_simulated: 100,
                cone_evals: 700,
                events_propagated: 300,
            },
            total_faults: 120,
            simulated_faults: 100,
            collapsed_away: 20,
            workers: 2,
            lanes: 256,
            wall: Duration::from_micros(1500),
        });
        let snap = m.snapshot();
        assert_eq!(snap.fault_sim.faults_simulated, 100);
        assert_eq!(snap.fault_sim.collapsed_away, 20);
        assert_eq!(snap.fault_sim.runs_by_lanes, [0, 1]);
        assert_eq!(snap.fault_sim.batches_by_lanes, [0, 4]);
        let json = snap.to_json();
        assert!(
            json.contains("\"fault_sim\":{\"batches_loaded\":4"),
            "{json}"
        );
        assert!(json.contains("\"cone_evals\":700"), "{json}");
        assert!(json.contains("\"wall_micros\":1500"), "{json}");
        assert!(
            json.contains(concat!(
                "\"lanes\":{\"64\":{\"runs\":0,\"batches_loaded\":0},",
                "\"256\":{\"runs\":1,\"batches_loaded\":4}},",
                "\"session_memo\":{\"hits\":0,\"misses\":0}"
            )),
            "{json}"
        );
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let m = Metrics::new();
        m.record_pool(&PoolStats {
            workers: 2,
            wall: Duration::from_millis(10),
            busy: vec![Duration::from_millis(10), Duration::from_millis(5)],
        });
        let snap = m.snapshot();
        assert!((snap.worker_utilization() - 0.75).abs() < 1e-6);
    }
}
