//! Parallel, deterministic BIST-session fault simulation.
//!
//! Fault simulation is embarrassingly parallel across faults — every
//! fault's detection outcome is independent of the rest of the list —
//! so each session's fault list is split into chunks of whole stem
//! groups, one chunk per pool worker, and each task runs the session's
//! stem-shared walks ([`SessionContext::detect_flags`]) over one chunk
//! with its own scratch buffers. The sessions of one call share one
//! pool drain: every `(session, chunk)` pair is one task, so a call
//! spawns its workers once however many sessions it simulates.
//! Merging stitches per-chunk results back by original fault index and
//! sums counters per session, so the result is **byte-identical** to a
//! serial run no matter the worker count:
//!
//! * per-fault session detect flags are independent, so placing each
//!   chunk result back at its fault's original index reproduces the
//!   serial vector exactly;
//! * every task reads its session's one prepared context (a pure
//!   function of the seeds), so a fault sees identical patterns in any
//!   chunk;
//! * a stem group is never split, so each stem is walked once per
//!   batch at any worker count, and the `faults_simulated`,
//!   `cone_evals` and `events_propagated` counters are the same too.
//!
//! Random-pattern coverage outside a BIST session is the serial
//! [`lobist_gatesim::coverage::random_pattern_coverage`].
//!
//! The driver is also generic over the simulation lane width
//! ([`LaneSelect`]): the same partition is used at every width and the
//! per-fault results are width-invariant, so reports are
//! byte-identical across lanes × workers (test-asserted).
//!
//! Optionally the universe is first collapsed into structural
//! equivalence classes ([`lobist_gatesim::collapse`]); only class
//! representatives are simulated and the report is expanded back, which
//! is again exact because equivalent faults have identical faulty
//! response streams.
//!
//! [`fault_sim_designs`] is the one per-module session loop the CLI
//! and the daemon share; [`fault_sim_modules`] is its one-design call,
//! and [`bist_session_parallel`] runs one session outside any design.
//! A session's report is a pure function of its `SessionKey` — the
//! unit, its controls, width, pattern budget and seeds — and never of
//! the rest of the design, so repeated sessions are answered from the
//! engine's `SessionMemo`, and the rest of a call's sessions are
//! simulated in its one drain.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use lobist_alloc::fifo::FifoMap;
use lobist_datapath::ModuleAssignment;
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::{Dfg, OpKind};
use lobist_gatesim::bist_mode::{SessionContext, SessionReport};
use lobist_gatesim::collapse::collapse_faults;
use lobist_gatesim::coverage::enumerate_faults;
use lobist_gatesim::diffsim::{DiffSim, SimCounters};
use lobist_gatesim::lanes::{auto_width, LaneWord, W256};
use lobist_gatesim::lfsr::max_useful_patterns;
use lobist_gatesim::modules::module_unit;
use lobist_gatesim::net::{Fault, GateNetwork};

use crate::cache::lock_ok;
use crate::metrics::Metrics;
use crate::{metric, pool, Engine};

/// Simulation lane width: how many patterns one simulator word packs.
/// Every job surface runs `Auto`; tests and benches pin a width to
/// check that results do not depend on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LaneSelect {
    /// The widest *profitable* width for the session: 256 lanes for
    /// runs of ≥192 patterns, 64 below
    /// ([`lobist_gatesim::lanes::auto_width`]).
    #[default]
    Auto,
    /// 64 lanes per `u64` word — the executable reference path.
    W64,
    /// 256 lanes per `[u64; 4]` word.
    W256,
}

impl LaneSelect {
    /// The concrete lane count for a session pattern budget (resolves
    /// `Auto` via [`lobist_gatesim::lanes::auto_width`]).
    pub fn width(self, patterns: u64) -> u32 {
        match self {
            Self::Auto => auto_width(patterns),
            Self::W64 => 64,
            Self::W256 => 256,
        }
    }
}

/// Knobs of a parallel fault-simulation run.
#[derive(Debug, Clone, Copy)]
pub struct FaultSimOptions {
    /// Worker threads (1 = serial; results are identical either way).
    pub workers: usize,
    /// Collapse the fault universe into structural equivalence classes
    /// and simulate one representative per class.
    pub collapse: bool,
    /// Lane width (results are identical at every width).
    pub lanes: LaneSelect,
}

impl Default for FaultSimOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            collapse: true,
            lanes: LaneSelect::Auto,
        }
    }
}

/// Work accounting of one simulated BIST session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimStats {
    /// Simulator work counters, summed over all workers.
    /// `batches_loaded` shrinks as `lanes` grows; detection results do
    /// not change.
    pub counters: SimCounters,
    /// Faults eliminated by structural collapsing.
    pub collapsed_away: usize,
    /// Concrete lane width the run simulated at (64 or 256).
    pub lanes: u32,
    /// Wall time of the drain that simulated the session (prepare +
    /// simulate + merge); the sessions of one drain share it.
    pub wall: Duration,
}

/// Partition over *stem groups*: the faults whose sites share a stem
/// ([`SessionContext::stem_order`]) stay in one chunk, so one walk per
/// stem serves them all, and groups are dealt round-robin in stem
/// order. Stems are ordered by net depth, so contiguous chunks
/// would give the first worker all the large input cones; dealing
/// balances depth across workers. Each chunk carries its faults'
/// original indices; results are scattered back by those, so the
/// outcome is independent of the partition shape — and the partition
/// itself is a pure function of the fault list and the network,
/// identical at every lane width.
fn stem_partition<W: LaneWord>(
    faults: &[Fault],
    ctx: &SessionContext<'_, W>,
    workers: usize,
) -> Vec<(Vec<Fault>, Vec<u32>)> {
    let stem = |i: &usize| ctx.stem_of(faults[*i].net);
    let order = ctx.stem_order(faults);
    let groups = order.chunk_by(|a, b| stem(a) == stem(b));
    let w = workers.max(1).min(groups.clone().count().max(1));
    let mut parts = vec![(Vec::new(), Vec::new()); w];
    for (k, group) in groups.enumerate() {
        let (chunk, indices) = &mut parts[k % w];
        chunk.extend(group.iter().map(|&i| faults[i]));
        indices.extend(group.iter().map(|&i| i as u32));
    }
    parts
}

/// Scatters per-chunk results back to full-list order.
fn scatter<T: Copy + Default>(parts: &[(Vec<T>, &[u32])], len: usize) -> Vec<T> {
    let mut out = vec![T::default(); len];
    for (values, indices) in parts {
        for (&v, &i) in values.iter().zip(*indices) {
            out[i as usize] = v;
        }
    }
    out
}

/// One BIST session of a drain: a module network, the control inputs
/// it holds, and its `(TPG, MISR)` seeds.
struct Session<'a> {
    net: &'a GateNetwork,
    controls: &'a [bool],
    seeds: (u64, u64),
}

/// Simulates `sessions`, each `width` bits wide with a budget of
/// `patterns`, over each network's whole fault universe in one pool
/// drain, and returns each session's report and work accounting.
/// Every session's stats carry the wall time of the whole drain.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or a network's input count is not
/// its `controls.len() + 2 * width`.
fn simulate_sessions(
    sessions: &[Session<'_>],
    width: u32,
    patterns: u64,
    opts: FaultSimOptions,
) -> Vec<(SessionReport, FaultSimStats)> {
    match opts.lanes.width(patterns) {
        256 => simulate_at::<W256>(sessions, width, patterns, opts),
        _ => simulate_at::<u64>(sessions, width, patterns, opts),
    }
}

fn simulate_at<W: LaneWord>(
    sessions: &[Session<'_>],
    width: u32,
    patterns: u64,
    opts: FaultSimOptions,
) -> Vec<(SessionReport, FaultSimStats)> {
    assert!(opts.workers >= 1, "need at least one worker");
    let start = Instant::now();
    let prepared: Vec<_> = sessions
        .iter()
        .map(|s| {
            let ctx = SessionContext::<W>::prepare(s.net, s.controls, width, patterns, s.seeds);
            let collapsed = opts.collapse.then(|| collapse_faults(s.net));
            let chunks = match &collapsed {
                Some(c) => stem_partition(c.representatives(), &ctx, opts.workers),
                None => stem_partition(&enumerate_faults(s.net), &ctx, opts.workers),
            };
            (ctx, collapsed, chunks)
        })
        .collect();

    let tasks: Vec<_> = prepared
        .iter()
        .flat_map(|(ctx, _, chunks)| {
            chunks.iter().map(move |(chunk, _)| {
                move || {
                    let mut sim = DiffSim::<W>::new(ctx.network());
                    let flags = ctx.detect_flags(&mut sim, chunk);
                    (flags, sim.counters())
                }
            })
        })
        .collect();
    let (results, _) = pool::run_jobs(opts.workers, tasks);

    let mut results = results.into_iter();
    let mut out: Vec<_> = prepared
        .iter()
        .map(|(ctx, collapsed, chunks)| {
            let mut counters = SimCounters::default();
            let parts: Vec<_> = chunks
                .iter()
                .map(|(_, indices)| {
                    let (flags, c) = results
                        .next()
                        .expect("one result per task")
                        .expect("fault-sim worker panicked");
                    counters.merge(&c);
                    (flags, &indices[..])
                })
                .collect();
            let simulated = parts.iter().map(|(flags, _)| flags.len()).sum();
            let flags = scatter(&parts, simulated);
            let flags = match collapsed {
                Some(c) => c.expand_detect_flags(&flags),
                None => flags,
            };
            let stats = FaultSimStats {
                counters,
                collapsed_away: collapsed.as_ref().map_or(0, |c| c.collapsed_away()),
                lanes: W::LANES as u32,
                wall: Duration::ZERO,
            };
            (ctx.report_from_flags(&flags), stats)
        })
        .collect();
    let wall = start.elapsed();
    for (_, stats) in &mut out {
        stats.wall = wall;
    }
    out
}

/// Emulates a full BIST session (LFSR → module → MISR) over the whole
/// fault universe of `net`, with the faults partitioned across the
/// pool: the one-session call of the engine's session drain.
/// Byte-identical to
/// [`lobist_gatesim::bist_mode::run_session_with_controls`] for every
/// worker count, collapse setting and lane width.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or the network's input count is not
/// `controls.len() + 2 * width`.
pub fn bist_session_parallel(
    net: &GateNetwork,
    controls: &[bool],
    width: u32,
    patterns: u64,
    seeds: (u64, u64),
    opts: FaultSimOptions,
) -> (SessionReport, FaultSimStats) {
    let session = Session {
        net,
        controls,
        seeds,
    };
    simulate_sessions(&[session], width, patterns, opts)
        .pop()
        .expect("one result per session")
}

/// The data-path width of a BIST session, validated to `2..=20`.
/// Callers build one before synthesis, so an out-of-range request fails
/// before any work runs. The LFSR/MISR range is `2..=32`, but a session
/// holds all `2^width - 1` patterns packed at once, and every two more
/// bits cost about six times the time and, once the patterns dominate,
/// four times the memory: width 20 takes seconds and tens of megabytes
/// on a multiplier, width 32 would ask for tens of gigabytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionWidth(u32);

impl SessionWidth {
    /// Validates `width`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted range when `width` is
    /// outside `2..=20`.
    pub fn new(width: u32) -> Result<Self, String> {
        if (2..=20).contains(&width) {
            Ok(Self(width))
        } else {
            Err(format!(
                "fault-simulation width {width} is out of range (expected 2..=20)"
            ))
        }
    }

    /// The width in bits.
    pub fn get(self) -> u32 {
        self.0
    }

    /// Patterns per session: the full period of a maximal-length LFSR
    /// of this width.
    pub fn patterns(self) -> u64 {
        max_useful_patterns(self.0)
    }
}

/// The functional unit a BIST session exercises: a module's class and
/// its operation kinds ([`ModuleAssignment::kinds_of`]), which name an
/// ALU's functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SessionUnit {
    class: ModuleClass,
    kinds: Vec<OpKind>,
}

impl SessionUnit {
    fn network(&self, width: u32) -> GateNetwork {
        module_unit(self.class, &self.kinds, width)
    }

    /// The session's control inputs: none for a dedicated unit; an ALU
    /// selects its first function.
    fn controls(&self) -> Vec<bool> {
        match self.class {
            ModuleClass::Op(_) => Vec::new(),
            ModuleClass::Alu => (0..self.kinds.len()).map(|i| i == 0).collect(),
        }
    }
}

/// Everything a session's report depends on. Lane width, worker count
/// and collapsing are absent on purpose: the report is byte-identical
/// across all three.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SessionKey {
    /// The unit under test.
    unit: SessionUnit,
    /// Control-input values held for the session.
    controls: Vec<bool>,
    /// Data-path width in bits.
    width: u32,
    /// Pattern budget.
    patterns: u64,
    /// `(TPG, MISR)` seeds.
    seeds: (u64, u64),
}

impl SessionKey {
    /// The session of the module with 0-based index `index`: its seeds
    /// are derived from the index, so the same unit at the same index
    /// gets the same report in every design.
    pub(crate) fn for_module(unit: SessionUnit, width: SessionWidth, index: usize) -> Self {
        Self {
            controls: unit.controls(),
            unit,
            width: width.get(),
            patterns: width.patterns(),
            seeds: (0xACE1 + index as u64, 0x1BAD + index as u64),
        }
    }
}

/// Bound on the session memo. A session report is five integers, so a
/// full memo is a few tens of kilobytes.
const SESSION_MEMO_CAPACITY: usize = 1024;

/// A thread-safe, bounded map from [`SessionKey`] to its report, with
/// the same FIFO eviction as [`crate::ResultCache`].
///
/// The lock is never held while simulating: two concurrent misses on
/// one key may both compute, and both produce the same report.
#[derive(Debug)]
pub(crate) struct SessionMemo {
    inner: Mutex<FifoMap<SessionKey, SessionReport>>,
}

impl Default for SessionMemo {
    fn default() -> Self {
        Self::with_capacity(SESSION_MEMO_CAPACITY)
    }
}

impl SessionMemo {
    /// An empty memo bounded to `capacity` entries (at least 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(FifoMap::new(capacity)),
        }
    }

    /// Number of reports held.
    #[cfg(test)]
    fn len(&self) -> usize {
        lock_ok(&self.inner).len()
    }

    /// The reports of sessions `keys`, in order: memoized ones from the
    /// memo, the rest simulated in one pool drain and then memoized.
    /// Every key counts as a memo hit or miss; a key that an earlier
    /// key of the same call already missed on is a hit, because its
    /// session is simulated once. `metrics` also records each simulated
    /// session's work, and the drain's wall time once.
    ///
    /// # Panics
    ///
    /// Panics if the missed sessions differ in width or pattern budget:
    /// one drain simulates at one lane width.
    pub(crate) fn reports(
        &self,
        keys: &[SessionKey],
        opts: FaultSimOptions,
        metrics: &Metrics,
    ) -> Vec<SessionReport> {
        // Each key is answered by its report or by its index in `missed`.
        let mut missed: Vec<&SessionKey> = Vec::new();
        let answers: Vec<Result<SessionReport, usize>> = {
            let memo = lock_ok(&self.inner);
            keys.iter()
                .map(|key| match memo.get(key) {
                    Some(report) => Ok(report.clone()),
                    None => Err(missed.iter().position(|k| *k == key).unwrap_or_else(|| {
                        missed.push(key);
                        missed.len() - 1
                    })),
                })
                .collect()
        };
        metrics.add(
            metric!("fault_sim.session_memo.hits"),
            (keys.len() - missed.len()) as u64,
        );
        metrics.add(
            metric!("fault_sim.session_memo.misses"),
            missed.len() as u64,
        );
        let simulated = match missed.first() {
            Some(first) => {
                assert!(
                    missed
                        .iter()
                        .all(|k| (k.width, k.patterns) == (first.width, first.patterns)),
                    "one drain simulates sessions of one width and budget"
                );
                let nets: Vec<GateNetwork> =
                    missed.iter().map(|k| k.unit.network(k.width)).collect();
                let sessions: Vec<Session<'_>> = missed
                    .iter()
                    .zip(&nets)
                    .map(|(k, net)| Session {
                        net,
                        controls: &k.controls,
                        seeds: k.seeds,
                    })
                    .collect();
                let results = simulate_sessions(&sessions, first.width, first.patterns, opts);
                metrics.add_time(metric!("fault_sim.wall_micros"), results[0].1.wall);
                let mut memo = lock_ok(&self.inner);
                results
                    .into_iter()
                    .zip(&missed)
                    .map(|((report, stats), key)| {
                        metrics.record_session_work(&stats);
                        memo.insert((*key).clone(), report.clone());
                        report
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|i| simulated[i].clone()))
            .collect()
    }
}

/// Runs the BIST session of every module in each design's module
/// binding, answering repeated sessions from `engine`'s memo and
/// simulating the rest in one pool drain, and records the work on its
/// metrics. A session reads only each module's class and operation
/// kinds, so the binding suffices: a synthesized design's
/// [`lobist_alloc::flow::Design::module_assignment`], or
/// [`lobist_alloc::module_assign::assign_modules`] on the design's
/// schedule. Returns one row list per design, each `(module label,
/// session report)` rows in module order; the rows are identical for
/// any worker count, lane width, memo state and grouping of designs
/// into calls.
pub fn fault_sim_designs(
    designs: &[(&Dfg, &ModuleAssignment)],
    width: SessionWidth,
    opts: FaultSimOptions,
    engine: &Engine,
) -> Vec<Vec<(String, SessionReport)>> {
    let mut labels = Vec::new();
    let mut keys = Vec::new();
    for (dfg, modules) in designs {
        for m in modules.module_ids() {
            let class = modules.class(m);
            let unit = SessionUnit {
                class,
                kinds: modules.kinds_of(dfg, m),
            };
            keys.push(SessionKey::for_module(unit, width, m.index()));
            labels.push(format!("M{} ({class})", m.index() + 1));
        }
    }
    let reports = engine
        .sessions
        .reports(&keys, opts, engine.metrics_handle());
    let mut rows = labels.into_iter().zip(reports);
    designs
        .iter()
        .map(|(_, modules)| rows.by_ref().take(modules.num_modules()).collect())
        .collect()
}

/// [`fault_sim_designs`] of one design.
pub fn fault_sim_modules(
    dfg: &Dfg,
    modules: &ModuleAssignment,
    width: SessionWidth,
    opts: FaultSimOptions,
    engine: &Engine,
) -> Vec<(String, SessionReport)> {
    fault_sim_designs(&[(dfg, modules)], width, opts, engine)
        .pop()
        .expect("one row list per design")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_gatesim::bist_mode::run_session;
    use lobist_gatesim::modules::{array_multiplier, ripple_adder};

    #[test]
    fn parallel_session_is_byte_identical_to_serial() {
        let net = ripple_adder(8);
        let faults = enumerate_faults(&net);
        let serial = run_session(&net, 8, 255, (0xACE1, 0x1BAD), &faults);
        for workers in [1, 2, 5] {
            for collapse in [false, true] {
                for lanes in [LaneSelect::W64, LaneSelect::W256] {
                    let (report, stats) = bist_session_parallel(
                        &net,
                        &[],
                        8,
                        255,
                        (0xACE1, 0x1BAD),
                        FaultSimOptions {
                            workers,
                            collapse,
                            lanes,
                        },
                    );
                    assert_eq!(
                        report, serial,
                        "workers={workers} collapse={collapse} lanes={lanes:?}"
                    );
                    assert!(stats.counters.faults_simulated > 0);
                }
            }
        }
    }

    #[test]
    fn wider_lanes_load_fewer_batches() {
        // A 512-pattern session walks every batch: 8 at 64 lanes, 2 at
        // 256.
        let net = ripple_adder(4);
        let run = |lanes| {
            bist_session_parallel(
                &net,
                &[],
                4,
                512,
                (0xACE1, 0x1BAD),
                FaultSimOptions {
                    workers: 1,
                    collapse: false,
                    lanes,
                },
            )
            .1
        };
        let narrow = run(LaneSelect::W64);
        let wide = run(LaneSelect::W256);
        assert_eq!((narrow.lanes, wide.lanes), (64, 256));
        assert!(wide.counters.batches_loaded < narrow.counters.batches_loaded);
        assert!(narrow.counters.faults_simulated > 0);
    }

    #[test]
    fn corpus_module_rows_are_the_same_at_64_and_256_lanes() {
        // The seed-1 corpus at sizes 8 and 16 under `1+,1*,1-`, as
        // `batch --faultsim` simulates it: each width on a fresh engine,
        // so no session memo answers one width from the other.
        use lobist_alloc::module_assign::assign_modules;
        use lobist_dfg::corpus::{generate, KINDS};
        use lobist_dfg::scheduling::list_schedule;
        let modules: lobist_dfg::modules::ModuleSet = "1+,1*,1-".parse().expect("a module set");
        let width = SessionWidth::new(8).expect("in range");
        let rows = |lanes| {
            let engine = Engine::new(1);
            let opts = FaultSimOptions {
                lanes,
                ..FaultSimOptions::default()
            };
            let mut rows = Vec::new();
            for size in [8, 16] {
                for kind in KINDS {
                    let dfg = generate(kind, size, 1);
                    let schedule = list_schedule(&dfg, &modules).expect("schedulable");
                    let binding = assign_modules(&dfg, &schedule, &modules).expect("bound");
                    rows.extend(fault_sim_modules(&dfg, &binding, width, opts, &engine));
                }
            }
            rows
        };
        let narrow = rows(LaneSelect::W64);
        assert_eq!(narrow.len(), 18, "one row per bound module");
        assert_eq!(narrow, rows(LaneSelect::W256));
    }

    #[test]
    fn lane_select_resolves() {
        assert_eq!(LaneSelect::Auto.width(100), 64);
        assert_eq!(LaneSelect::Auto.width(256), 256);
        assert_eq!(LaneSelect::Auto.width(4096), 256);
        assert_eq!(LaneSelect::W64.width(4096), 64);
    }

    #[test]
    fn session_width_accepts_only_the_runnable_range() {
        for bad in [0, 1, 21, 32, 33, 40, 64] {
            let err = SessionWidth::new(bad).expect_err("out of range");
            assert!(
                err.contains(&bad.to_string()) && err.contains("2..=20"),
                "{err}"
            );
        }
        let w = SessionWidth::new(5).expect("in range");
        assert_eq!((w.get(), w.patterns()), (5, 31));
        assert!(SessionWidth::new(2).is_ok() && SessionWidth::new(20).is_ok());
    }

    fn fresh(key: &SessionKey, opts: FaultSimOptions) -> SessionReport {
        let net = key.unit.network(key.width);
        bist_session_parallel(
            &net,
            &key.controls,
            key.width,
            key.patterns,
            key.seeds,
            opts,
        )
        .0
    }

    fn opts(lanes: LaneSelect, workers: usize) -> FaultSimOptions {
        FaultSimOptions {
            workers,
            collapse: true,
            lanes,
        }
    }

    /// One session's report through [`SessionMemo::reports`].
    fn report(
        memo: &SessionMemo,
        key: &SessionKey,
        o: FaultSimOptions,
        metrics: &Metrics,
    ) -> SessionReport {
        memo.reports(std::slice::from_ref(key), o, metrics)
            .remove(0)
    }

    fn memo_counts(metrics: &Metrics) -> (u64, u64) {
        let snap = metrics.snapshot();
        (
            snap.get(metric!("fault_sim.session_memo.hits")),
            snap.get(metric!("fault_sim.session_memo.misses")),
        )
    }

    fn op_unit(kind: OpKind) -> SessionUnit {
        SessionUnit {
            class: ModuleClass::Op(kind),
            kinds: vec![kind],
        }
    }

    fn alu_unit(kinds: &[OpKind]) -> SessionUnit {
        SessionUnit {
            class: ModuleClass::Alu,
            kinds: kinds.to_vec(),
        }
    }

    #[test]
    fn memoized_sessions_equal_fresh_ones_across_lanes_and_workers() {
        use OpKind::{Add, Sub};
        let width = SessionWidth::new(6).expect("in range");
        let memo = SessionMemo::default();
        let metrics = Metrics::new();
        for unit in [op_unit(Add), alu_unit(&[Add, Sub])] {
            let key = SessionKey::for_module(unit, width, 1);
            for lanes in [LaneSelect::W64, LaneSelect::W256] {
                for workers in [1, 2] {
                    let o = opts(lanes, workers);
                    assert_eq!(report(&memo, &key, o, &metrics), fresh(&key, o), "{key:?}");
                }
            }
        }
        assert_eq!(memo_counts(&metrics), (6, 2), "one miss per unit");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn alus_with_different_kinds_never_share_an_entry() {
        use OpKind::{Add, Mul, Sub};
        let width = SessionWidth::new(4).expect("in range");
        let a = SessionKey::for_module(alu_unit(&[Add, Sub]), width, 0);
        let b = SessionKey::for_module(alu_unit(&[Add, Mul]), width, 0);
        assert_eq!((&a.controls, a.seeds), (&b.controls, b.seeds));
        assert_ne!(a, b);
        let memo = SessionMemo::default();
        let metrics = Metrics::new();
        let o = opts(LaneSelect::Auto, 1);
        assert_eq!(report(&memo, &a, o, &metrics), fresh(&a, o));
        assert_eq!(report(&memo, &b, o, &metrics), fresh(&b, o));
        assert_eq!(memo_counts(&metrics), (0, 2));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn a_capacity_one_memo_evicts_and_still_answers_exactly() {
        let width = SessionWidth::new(5).expect("in range");
        let a = SessionKey::for_module(op_unit(OpKind::Add), width, 0);
        let b = SessionKey::for_module(op_unit(OpKind::Sub), width, 0);
        let memo = SessionMemo::with_capacity(1);
        let metrics = Metrics::new();
        let o = opts(LaneSelect::Auto, 2);
        let first = report(&memo, &a, o, &metrics);
        assert_eq!(report(&memo, &b, o, &metrics), fresh(&b, o));
        assert_eq!(memo.len(), 1, "b evicted a");
        assert_eq!(report(&memo, &a, o, &metrics), first);
        assert_eq!(report(&memo, &a, o, &metrics), first);
        assert_eq!(memo_counts(&metrics), (1, 3));
    }

    #[test]
    fn a_repeat_within_one_call_is_a_hit_simulated_once() {
        let width = SessionWidth::new(5).expect("in range");
        let a = SessionKey::for_module(op_unit(OpKind::Add), width, 0);
        let b = SessionKey::for_module(op_unit(OpKind::Sub), width, 1);
        let o = opts(LaneSelect::Auto, 2);
        let want = [fresh(&a, o), fresh(&b, o)];
        for capacity in [1, SESSION_MEMO_CAPACITY] {
            let memo = SessionMemo::with_capacity(capacity);
            let metrics = Metrics::new();
            let keys = [a.clone(), b.clone(), a.clone(), a.clone(), b.clone()];
            let reports = memo.reports(&keys, o, &metrics);
            let expected: Vec<_> = [0, 1, 0, 0, 1].map(|i| want[i].clone()).into();
            assert_eq!(reports, expected, "capacity {capacity}");
            assert_eq!(memo_counts(&metrics), (3, 2), "capacity {capacity}");
            assert_eq!(memo.len(), capacity.min(2), "capacity {capacity}");
            let snap = metrics.snapshot();
            assert_eq!(snap.get(metric!("fault_sim.lanes.64.runs")), 2);
        }
    }

    #[test]
    fn one_call_over_many_designs_equals_per_design_calls_and_per_session_work() {
        // The seed-1 corpus at sizes 8 and 16, as `batch --faultsim`
        // hands it over in one call. Each design's rows must equal a
        // one-design call on a fresh engine, and the call's work
        // counters and memo counts must equal those of simulating each
        // distinct session alone, in order of first use.
        use lobist_alloc::module_assign::assign_modules;
        use lobist_dfg::corpus::{generate, KINDS};
        use lobist_dfg::modules::ModuleSet;
        use lobist_dfg::scheduling::list_schedule;
        let width = SessionWidth::new(8).expect("in range");
        for set in ["1+,1*,1-", "1+,1*,1ALU"] {
            let modules: ModuleSet = set.parse().expect("a module set");
            let designs: Vec<(Dfg, ModuleAssignment)> = [8, 16]
                .into_iter()
                .flat_map(|size| KINDS.map(|kind| generate(kind, size, 1)))
                .filter_map(|dfg| {
                    let schedule = list_schedule(&dfg, &modules).ok()?;
                    let binding = assign_modules(&dfg, &schedule, &modules).ok()?;
                    Some((dfg, binding))
                })
                .collect();
            assert!(designs.len() >= 6, "{set}: {} designs bound", designs.len());
            let designs: Vec<(&Dfg, &ModuleAssignment)> =
                designs.iter().map(|(d, b)| (d, b)).collect();
            for workers in [1, 2, 3] {
                let o = opts(LaneSelect::Auto, workers);
                let engine = Engine::new(workers);
                let rows = fault_sim_designs(&designs, width, o, &engine);
                assert_eq!(rows.len(), designs.len());
                for (&(dfg, binding), rows) in designs.iter().zip(&rows) {
                    let alone = fault_sim_modules(dfg, binding, width, o, &Engine::new(1));
                    assert_eq!(*rows, alone, "{set} at {workers} workers");
                }
                let mut seen = Vec::new();
                let mut hits = 0;
                let mut work = [0; 3];
                for &(dfg, binding) in &designs {
                    for m in binding.module_ids() {
                        let unit = SessionUnit {
                            class: binding.class(m),
                            kinds: binding.kinds_of(dfg, m),
                        };
                        let key = SessionKey::for_module(unit, width, m.index());
                        if seen.contains(&key) {
                            hits += 1;
                            continue;
                        }
                        let net = key.unit.network(key.width);
                        let (_, stats) = bist_session_parallel(
                            &net,
                            &key.controls,
                            key.width,
                            key.patterns,
                            key.seeds,
                            o,
                        );
                        let c = stats.counters;
                        work[0] += c.faults_simulated;
                        work[1] += c.cone_evals;
                        work[2] += c.events_propagated;
                        seen.push(key);
                    }
                }
                assert!(hits > 0, "{set}: the designs share sessions");
                let snap = engine.metrics();
                let counted = [
                    snap.get(metric!("fault_sim.faults_simulated")),
                    snap.get(metric!("fault_sim.cone_evals")),
                    snap.get(metric!("fault_sim.events_propagated")),
                ];
                assert_eq!(counted, work, "{set} at {workers} workers");
                assert_eq!(
                    memo_counts(engine.metrics_handle()),
                    (hits, seen.len() as u64),
                    "{set} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn a_panic_while_holding_the_memo_lock_does_not_poison_lookups() {
        let width = SessionWidth::new(4).expect("in range");
        let key = SessionKey::for_module(op_unit(OpKind::Add), width, 2);
        let memo = std::sync::Arc::new(SessionMemo::default());
        let metrics = Metrics::new();
        let o = opts(LaneSelect::Auto, 1);
        let before = report(&memo, &key, o, &metrics);
        let held = std::sync::Arc::clone(&memo);
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().expect("first locker");
            panic!("panics while holding the memo lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(memo.inner.is_poisoned());
        assert_eq!(report(&memo, &key, o, &metrics), before);
        let other = SessionKey::for_module(op_unit(OpKind::Sub), width, 2);
        assert_eq!(report(&memo, &other, o, &metrics), fresh(&other, o));
        assert_eq!(memo_counts(&metrics), (1, 2));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn more_workers_than_faults_is_fine() {
        let net = ripple_adder(2);
        let faults = enumerate_faults(&net);
        let serial = run_session(&net, 2, 3, (0xACE1, 0x1BAD), &faults);
        let (report, stats) = bist_session_parallel(
            &net,
            &[],
            2,
            3,
            (0xACE1, 0x1BAD),
            FaultSimOptions {
                workers: 64,
                collapse: false,
                lanes: LaneSelect::Auto,
            },
        );
        assert!(faults.len() < 64);
        assert_eq!(report, serial);
        // One 3-pattern batch: each fault is simulated once.
        assert_eq!(stats.counters.faults_simulated, faults.len() as u64);
        assert_eq!(stats.collapsed_away, 0);
    }

    #[test]
    fn reports_and_work_counters_are_the_same_at_every_worker_count() {
        use lobist_gatesim::modules::{alu, restoring_divider};
        use OpKind::{Add, Mul, Sub};
        // The divider's deep stems are what a split group would walk
        // twice.
        for (name, net, controls, width, patterns) in [
            ("mul6", array_multiplier(6), vec![], 6u32, 63u64),
            ("div5", restoring_divider(5), vec![], 5, 31),
            (
                "alu5",
                alu(&[Add, Sub, Mul], 5),
                vec![false, false, true],
                5,
                300,
            ),
        ] {
            for collapse in [true, false] {
                for lanes in [LaneSelect::W64, LaneSelect::W256] {
                    let run = |workers| {
                        let opts = FaultSimOptions {
                            workers,
                            collapse,
                            lanes,
                        };
                        let (report, stats) = bist_session_parallel(
                            &net,
                            &controls,
                            width,
                            patterns,
                            (0xACE1, 0x1BAD),
                            opts,
                        );
                        let c = stats.counters;
                        (
                            report,
                            [c.faults_simulated, c.cone_evals, c.events_propagated],
                        )
                    };
                    let want = run(1);
                    assert!(want.1.iter().all(|&c| c > 0), "{name}: {:?}", want.1);
                    for workers in [2, 3, 7] {
                        assert_eq!(
                            run(workers),
                            want,
                            "{name} collapse={collapse} lanes={lanes:?} workers={workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_partition_never_splits_a_stem_group() {
        use lobist_gatesim::net::NetId;
        use std::collections::HashMap;
        let net = array_multiplier(4);
        let ctx = SessionContext::<u64>::prepare(&net, &[], 4, 15, (1, 2));
        let universe = enumerate_faults(&net);
        let collapsed = collapse_faults(&net);
        for faults in [&universe[..], collapsed.representatives()] {
            let mut stems: Vec<NetId> = faults.iter().map(|f| ctx.stem_of(f.net)).collect();
            stems.sort();
            stems.dedup();
            assert!(stems.len() > 1 && stems.len() < faults.len());
            for workers in [1, 2, 3, 7, 64] {
                let parts = stem_partition(faults, &ctx, workers);
                assert_eq!(parts.len(), workers.min(stems.len()));
                let mut owner = HashMap::new();
                let mut seen = vec![false; faults.len()];
                for (k, (chunk, indices)) in parts.iter().enumerate() {
                    assert!(!chunk.is_empty());
                    for (f, &i) in chunk.iter().zip(indices) {
                        assert_eq!(*f, faults[i as usize]);
                        assert!(!std::mem::replace(&mut seen[i as usize], true));
                        let stem = ctx.stem_of(f.net);
                        assert_eq!(*owner.entry(stem).or_insert(k), k, "stem {stem} split");
                    }
                }
                assert!(seen.iter().all(|&s| s), "every fault dealt once");
            }
        }
    }

    #[test]
    fn collapsing_reduces_simulated_work() {
        let net = array_multiplier(4);
        let run = |collapse| {
            bist_session_parallel(
                &net,
                &[],
                4,
                15,
                (0xACE1, 0x1BAD),
                FaultSimOptions {
                    workers: 1,
                    collapse,
                    lanes: LaneSelect::Auto,
                },
            )
        };
        let (full_report, full) = run(false);
        let (coll_report, coll) = run(true);
        assert_eq!(coll_report, full_report);
        assert!(coll.counters.faults_simulated < full.counters.faults_simulated);
        assert!(coll.collapsed_away > 0);
        // One 15-pattern batch: each simulated fault counts once.
        assert_eq!(full.collapsed_away, 0);
        assert_eq!(
            full.counters.faults_simulated,
            full_report.total_faults as u64
        );
        assert_eq!(
            coll.counters.faults_simulated + coll.collapsed_away as u64,
            full.counters.faults_simulated
        );
    }
}
