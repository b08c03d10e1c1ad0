//! Engine instrumentation: one registry of named counters and log2-µs
//! histograms, rendered as one JSON object.
//!
//! `TABLE` lists every key of the rendered JSON, in order, by its
//! dotted path: `"cache.hits"` renders as `{"cache":{"hits":…}}`, so a
//! section is nothing but a name prefix. Each entry has a kind:
//! counters and histograms accumulate in the registry, a ratio is
//! declared once from its counters, and live entries are read from
//! their owners (the result cache, the durable store) when
//! [`Engine::metrics`] takes a snapshot. Counters accumulate across
//! every batch an engine runs, so a repeated sweep shows its cache hits
//! in the same snapshot as the first sweep's misses.
//!
//! Adding a counter takes one `TABLE` line and one
//! `metrics.add(metric!("section.name"), n)` call: [`metric!`] resolves
//! the name at compile time (a misspelled name fails the build), and
//! recording is one relaxed atomic add — no lock, no allocation, no
//! name lookup.
//!
//! [`Engine::metrics`]: crate::Engine::metrics
//! [`metric!`]: crate::metric

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lobist_alloc::anneal::AnnealResult;
pub use lobist_alloc::flowcache::{bucket_micros, NUM_BUCKETS};

use crate::anneal::AnnealStats;
use crate::faultsim::FaultSimStats;
use crate::pool::PoolStats;

/// How a [`TABLE`] entry gets its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A `u64` accumulated with [`Metrics::add`] (or held with
    /// [`Metrics::set`] / [`Metrics::max`]). A name ending in `_micros`
    /// accumulates nanoseconds ([`Metrics::add_time`]) and renders whole
    /// microseconds.
    Count,
    /// A log2-µs histogram ([`Metrics::record`]): bucket `i` counts
    /// samples of `[2^i, 2^(i+1))` µs, rendered up to the last nonzero
    /// bucket.
    Hist,
    /// A [`Kind::Hist`] left out while empty (the per-pass lint
    /// histograms list only the passes that ran).
    SparseHist,
    /// `numerator / Σ denominator`, rendered with four decimals: 0 when
    /// the denominator is 0, at most 1. The operands are entries of the
    /// ratio's own section, named by their last segment; the ratio
    /// renders when its numerator does.
    Ratio(&'static str, &'static [&'static str]),
    /// A value read from its owner when the snapshot is taken
    /// ([`MetricsSnapshot::set_live`]); left out when it has no owner.
    Live,
}

use Kind::{Count, Hist, Live, Ratio, SparseHist};

/// Every key of the metrics JSON, in rendering order. Entries sharing a
/// prefix must be contiguous.
const TABLE: &[(&str, Kind)] = &[
    ("jobs.submitted", Count),
    ("jobs.completed", Count),
    ("jobs.panicked", Count),
    ("cache.hits", Count),
    ("cache.misses", Count),
    ("cache.hit_rate", Ratio("hits", &["hits", "misses"])),
    ("cache.store_hits", Count),
    ("cache.coalesced", Count),
    ("cache.evictions", Live),
    ("cache.entries", Live),
    ("cache.capacity", Live),
    ("pool.busy_micros", Count),
    ("pool.capacity_micros", Count),
    ("pool.utilization", Ratio("busy_micros", &["capacity_micros"])),
    ("fault_sim.batches_loaded", Count),
    ("fault_sim.faults_simulated", Count),
    ("fault_sim.cone_evals", Count),
    ("fault_sim.events_propagated", Count),
    ("fault_sim.collapsed_away", Count),
    ("fault_sim.lanes.64.runs", Count),
    ("fault_sim.lanes.64.batches_loaded", Count),
    ("fault_sim.lanes.256.runs", Count),
    ("fault_sim.lanes.256.batches_loaded", Count),
    ("fault_sim.session_memo.hits", Count),
    ("fault_sim.session_memo.misses", Count),
    ("fault_sim.wall_micros", Count),
    ("anneal.runs", Count),
    ("anneal.chains", Count),
    ("anneal.moves_evaluated", Count),
    ("anneal.moves_accepted", Count),
    ("anneal.stalls", Count),
    ("anneal.oracle_hits", Count),
    ("anneal.oracle_misses", Count),
    ("anneal.oracle_hit_rate", Ratio("oracle_hits", &["oracle_hits", "oracle_misses"])),
    ("anneal.wall_micros", Count),
    ("flow_cache.interconnect.hits", Count),
    ("flow_cache.interconnect.misses", Count),
    ("flow_cache.interconnect.evictions", Count),
    ("flow_cache.interconnect.hit_rate", Ratio("hits", &["hits", "misses"])),
    ("flow_cache.warm_starts", Count),
    ("flow_cache.delta_micros_log2", Hist),
    ("lint.runs", Count),
    ("lint.errors", Count),
    ("lint.warnings", Count),
    ("lint.wall_micros", Count),
    // One per shipped pass, in name order.
    ("lint.pass_micros_log2_histograms.binding", SparseHist),
    ("lint.pass_micros_log2_histograms.bist-legality", SparseHist),
    ("lint.pass_micros_log2_histograms.coloring", SparseHist),
    ("lint.pass_micros_log2_histograms.gates", SparseHist),
    ("lint.pass_micros_log2_histograms.lemma2-audit", SparseHist),
    ("lint.pass_micros_log2_histograms.structure", SparseHist),
    ("lint.pass_micros_log2_histograms.testability-const", SparseHist),
    ("lint.pass_micros_log2_histograms.testability-cop", SparseHist),
    ("lint.pass_micros_log2_histograms.testability-reach", SparseHist),
    ("testability.runs", Count),
    ("testability.cones", Count),
    ("testability.faults", Count),
    ("testability.hard", Count),
    ("testability.redundant", Count),
    ("testability.unreachable", Count),
    ("testability.wall_micros", Count),
    ("testability.cone_micros_log2", Hist),
    ("canon.exact_hits", Count),
    ("canon.iso_hits", Count),
    ("canon.iso_share", Ratio("iso_hits", &["exact_hits", "iso_hits"])),
    ("canon.remaps", Count),
    ("canon.bailouts", Count),
    ("canon.canon_micros_log2", Hist),
    ("synthesis.pves_tests", Count),
    ("synthesis.lemma2_evaluations", Count),
    ("synthesis.label_nodes", Count),
    ("synthesis.embeddings", Count),
    ("synthesis.bnb_nodes", Count),
    ("stage_micros_log2_histograms.module_assign", Hist),
    ("stage_micros_log2_histograms.register_alloc", Hist),
    ("stage_micros_log2_histograms.interconnect", Hist),
    ("stage_micros_log2_histograms.data_path", Hist),
    ("stage_micros_log2_histograms.bist", Hist),
    ("store.hits", Live),
    ("store.misses", Live),
    ("store.hit_rate", Ratio("hits", &["hits", "misses"])),
    ("store.insertions", Live),
    ("store.evictions", Live),
    ("store.entries", Live),
    ("store.payload_bytes", Live),
    ("store.bytes_read", Live),
    ("store.bytes_written", Live),
    ("store.compactions", Live),
    ("store.recovered_drops", Live),
    ("store.write_errors", Live),
    ("store.version_skips", Live),
    // The daemon's request accounting, shown by the daemon's snapshots
    // only (MetricsSnapshot::show_server).
    ("server.requests", Count),
    ("server.completed", Count),
    ("server.failed", Count),
    ("server.rejected", Count),
    ("server.active", Count),
    ("server.queue_depth", Count),
    ("server.peak_queue_depth", Count),
    ("server.wall_micros", Count),
    ("server.request_micros_log2", Hist),
];

const ENTRIES: usize = TABLE.len();

const SERVER: &str = "server.";

/// An entry of the metrics table, named at compile time with
/// [`metric!`].
///
/// [`metric!`]: crate::metric
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(usize);

impl Key {
    /// The entry named `name`. Panics if there is none, which inside
    /// [`metric!`] is a compile error.
    ///
    /// [`metric!`]: crate::metric
    pub const fn of(name: &str) -> Key {
        let mut i = 0;
        while i < ENTRIES {
            let entry = TABLE[i].0.as_bytes();
            if entry.len() == name.len() && same(name.as_bytes(), entry, 0, entry.len()) {
                return Key(i);
            }
            i += 1;
        }
        panic!("no metrics entry by that name");
    }

    /// The entry `name` in this entry's section.
    const fn sibling(self, name: &str) -> Key {
        let own = TABLE[self.0].0.as_bytes();
        let mut section = own.len();
        while own[section - 1] != b'.' {
            section -= 1;
        }
        let mut i = 0;
        while i < ENTRIES {
            let other = TABLE[i].0.as_bytes();
            if other.len() == section + name.len()
                && same(own, other, 0, section)
                && same(name.as_bytes(), other, section, name.len())
            {
                return Key(i);
            }
            i += 1;
        }
        panic!("no metrics entry by that name in the ratio's section");
    }

    fn kind(self) -> Kind {
        TABLE[self.0].1
    }
}

/// Whether `b[at..at + len]` equals `a[..len]` (`b` long enough).
const fn same(a: &[u8], b: &[u8], at: usize, len: usize) -> bool {
    let mut i = 0;
    while i < len {
        if a[i] != b[at + i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The [`Key`] of a metrics table entry, resolved at compile time.
#[macro_export]
macro_rules! metric {
    ($name:literal) => {
        const { $crate::metrics::Key::of($name) }
    };
}

/// Each entry's first cell: a histogram takes [`NUM_BUCKETS`] cells,
/// every other entry one.
const OFFSETS: [usize; ENTRIES + 1] = {
    let mut offsets = [0; ENTRIES + 1];
    let mut i = 0;
    while i < ENTRIES {
        let width = match TABLE[i].1 {
            Hist | SparseHist => NUM_BUCKETS,
            _ => 1,
        };
        offsets[i + 1] = offsets[i] + width;
        // Ratio operands must name entries (checked at compile time).
        if let Ratio(num, den) = TABLE[i].1 {
            Key(i).sibling(num);
            let mut d = 0;
            while d < den.len() {
                Key(i).sibling(den[d]);
                d += 1;
            }
        }
        i += 1;
    }
    offsets
};

const CELLS: usize = OFFSETS[ENTRIES];

/// The live registry owned by an engine (or by a CLI command that runs
/// lint, analysis or annealing without one).
#[derive(Debug)]
pub struct Metrics {
    cells: [AtomicU64; CELLS],
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            cells: [const { AtomicU64::new(0) }; CELLS],
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, key: Key) -> &AtomicU64 {
        &self.cells[OFFSETS[key.0]]
    }

    /// Adds `n` to a counter.
    pub fn add(&self, key: Key, n: u64) {
        debug_assert_eq!(key.kind(), Count, "{}", TABLE[key.0].0);
        self.cell(key).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a duration to a `_micros` counter.
    pub fn add_time(&self, key: Key, took: Duration) {
        debug_assert!(TABLE[key.0].0.ends_with("_micros"), "{}", TABLE[key.0].0);
        self.add(key, took.as_nanos() as u64);
    }

    /// Sets a counter that holds a current level.
    pub fn set(&self, key: Key, value: u64) {
        debug_assert_eq!(key.kind(), Count, "{}", TABLE[key.0].0);
        self.cell(key).store(value, Ordering::Relaxed);
    }

    /// Raises a counter that holds a high-water mark to `value`.
    pub fn max(&self, key: Key, value: u64) {
        debug_assert_eq!(key.kind(), Count, "{}", TABLE[key.0].0);
        self.cell(key).fetch_max(value, Ordering::Relaxed);
    }

    /// Counts one sample of `took` in a histogram.
    pub fn record(&self, key: Key, took: Duration) {
        self.add_buckets_at(key, bucket_micros(took.as_micros()), 1);
    }

    /// Adds a whole histogram's bucket counts into a histogram.
    pub fn add_buckets(&self, key: Key, buckets: &[u64; NUM_BUCKETS]) {
        for (bucket, &n) in buckets.iter().enumerate() {
            if n > 0 {
                self.add_buckets_at(key, bucket, n);
            }
        }
    }

    fn add_buckets_at(&self, key: Key, bucket: usize, n: u64) {
        debug_assert!(matches!(key.kind(), Hist | SparseHist), "{}", TABLE[key.0].0);
        self.cells[OFFSETS[key.0] + bucket].fetch_add(n, Ordering::Relaxed);
    }

    /// Accumulates one pool drain: busy time against capacity
    /// (wall × workers), the two terms of `pool.utilization`.
    pub(crate) fn record_pool(&self, stats: &PoolStats) {
        self.add_time(metric!("pool.busy_micros"), stats.busy.iter().sum());
        self.add_time(
            metric!("pool.capacity_micros"),
            stats.wall * stats.workers as u32,
        );
    }

    /// Accumulates the work accounting of one fault-simulation run
    /// ([`crate::faultsim`]), its wall time included.
    pub fn record_fault_sim(&self, stats: &FaultSimStats) {
        self.record_session_work(stats);
        self.add_time(metric!("fault_sim.wall_micros"), stats.wall);
    }

    /// [`record_fault_sim`](Self::record_fault_sim) without the wall
    /// time, which the sessions of one drain share.
    pub(crate) fn record_session_work(&self, stats: &FaultSimStats) {
        let c = &stats.counters;
        self.add(metric!("fault_sim.batches_loaded"), c.batches_loaded);
        self.add(metric!("fault_sim.faults_simulated"), c.faults_simulated);
        self.add(metric!("fault_sim.cone_evals"), c.cone_evals);
        self.add(metric!("fault_sim.events_propagated"), c.events_propagated);
        self.add(metric!("fault_sim.collapsed_away"), stats.collapsed_away as u64);
        let (runs, batches) = match stats.lanes {
            256 => (
                metric!("fault_sim.lanes.256.runs"),
                metric!("fault_sim.lanes.256.batches_loaded"),
            ),
            _ => (
                metric!("fault_sim.lanes.64.runs"),
                metric!("fault_sim.lanes.64.batches_loaded"),
            ),
        };
        self.add(runs, 1);
        self.add(batches, c.batches_loaded);
    }

    /// Accumulates the work accounting of one annealing run
    /// ([`crate::anneal`]) and of the flow cache beneath its oracle.
    pub fn record_anneal(&self, result: &AnnealResult, stats: &AnnealStats) {
        self.add(metric!("anneal.runs"), 1);
        self.add(metric!("anneal.chains"), stats.chains as u64);
        self.add(metric!("anneal.moves_evaluated"), result.evaluated.into());
        self.add(metric!("anneal.moves_accepted"), result.accepted.into());
        self.add(metric!("anneal.stalls"), result.stalled.into());
        self.add(metric!("anneal.oracle_hits"), result.oracle_hits);
        self.add(metric!("anneal.oracle_misses"), result.oracle_misses);
        self.add_time(metric!("anneal.wall_micros"), stats.wall);
        let fc = &result.flow_cache;
        self.add(metric!("flow_cache.interconnect.hits"), fc.interconnect.hits);
        self.add(metric!("flow_cache.interconnect.misses"), fc.interconnect.misses);
        self.add(metric!("flow_cache.interconnect.evictions"), fc.interconnect.evictions);
        self.add(metric!("flow_cache.warm_starts"), fc.warm_starts);
        self.add_buckets(metric!("flow_cache.delta_micros_log2"), &fc.delta_micros);
    }

    /// A point-in-time copy of every entry the registry holds. Live
    /// entries and the daemon's `server` section are left out until
    /// their owner supplies or shows them.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cells: std::array::from_fn(|c| self.cells[c].load(Ordering::Relaxed)),
            shown: std::array::from_fn(|i| {
                TABLE[i].1 != Live && !TABLE[i].0.starts_with(SERVER)
            }),
        }
    }
}

/// A point-in-time copy of an engine's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    cells: [u64; CELLS],
    shown: [bool; ENTRIES],
}

impl MetricsSnapshot {
    /// A counter's or live entry's value (a `_micros` counter in
    /// nanoseconds).
    pub fn get(&self, key: Key) -> u64 {
        self.cells[OFFSETS[key.0]]
    }

    /// A histogram's bucket counts.
    pub fn histogram(&self, key: Key) -> &[u64] {
        &self.cells[OFFSETS[key.0]..OFFSETS[key.0 + 1]]
    }

    /// A ratio's value.
    pub fn ratio(&self, key: Key) -> f64 {
        let Ratio(num, den) = key.kind() else {
            panic!("{} is not a ratio", TABLE[key.0].0);
        };
        let den: u64 = den.iter().map(|&d| self.get(key.sibling(d))).sum();
        if den == 0 {
            0.0
        } else {
            (self.get(key.sibling(num)) as f64 / den as f64).min(1.0)
        }
    }

    /// Supplies a live entry's value, read from its owner.
    pub fn set_live(&mut self, key: Key, value: u64) {
        debug_assert_eq!(key.kind(), Live, "{}", TABLE[key.0].0);
        self.cells[OFFSETS[key.0]] = value;
        self.shown[key.0] = true;
    }

    /// Shows the daemon's `server` section.
    pub fn show_server(&mut self) {
        for (i, (name, _)) in TABLE.iter().enumerate() {
            self.shown[i] |= name.starts_with(SERVER);
        }
    }

    fn is_shown(&self, i: usize) -> bool {
        match TABLE[i].1 {
            Ratio(num, _) => self.shown[Key(i).sibling(num).0],
            _ => self.shown[i],
        }
    }

    /// Renders every shown entry as one JSON object, nesting the dotted
    /// names: the sections follow the table's order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        // The objects currently open, and whether the innermost one
        // still has no member.
        let mut open: Vec<&str> = Vec::new();
        let mut first = true;
        for (i, &(name, kind)) in TABLE.iter().enumerate() {
            if !self.is_shown(i) {
                continue;
            }
            let (path, leaf) = name.rsplit_once('.').expect("every entry is in a section");
            let path: Vec<&str> = path.split('.').collect();
            let common = open.iter().zip(&path).take_while(|(a, b)| a == b).count();
            if open.len() > common {
                out.extend(std::iter::repeat_n('}', open.len() - common));
                open.truncate(common);
                first = false;
            }
            for &section in &path[common..] {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{section}\":{{");
                open.push(section);
                first = true;
            }
            let value = match kind {
                Count if leaf.ends_with("_micros") => (self.get(Key(i)) / 1000).to_string(),
                Count | Live => self.get(Key(i)).to_string(),
                Ratio(..) => format!("{:.4}", self.ratio(Key(i))),
                Hist | SparseHist => {
                    let row = self.histogram(Key(i));
                    let used = row.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
                    if used == 0 && kind == SparseHist {
                        continue;
                    }
                    let cells: Vec<String> = row[..used].iter().map(u64::to_string).collect();
                    format!("[{}]", cells.join(","))
                }
            };
            if !first {
                out.push(',');
            }
            let _ = write!(out, "\"{leaf}\":{value}");
            first = false;
        }
        out.extend(std::iter::repeat_n('}', open.len() + 1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.add(metric!("jobs.submitted"), 3);
        m.add(metric!("jobs.completed"), 3);
        m.add(metric!("cache.misses"), 1);
        m.add(metric!("cache.hits"), 1);
        m.add(metric!("jobs.panicked"), 1);
        m.record(
            metric!("stage_micros_log2_histograms.module_assign"),
            Duration::from_micros(3),
        );
        m.record(
            metric!("stage_micros_log2_histograms.register_alloc"),
            Duration::from_micros(900),
        );
        let snap = m.snapshot();
        assert_eq!(snap.get(metric!("jobs.submitted")), 3);
        assert_eq!(snap.get(metric!("jobs.completed")), 3);
        assert_eq!(snap.get(metric!("cache.hits")), 1);
        assert_eq!(snap.get(metric!("jobs.panicked")), 1);
        assert!((snap.ratio(metric!("cache.hit_rate")) - 0.5).abs() < 1e-9);
        // 3 µs → bucket 1, 900 µs → bucket 9.
        assert_eq!(snap.histogram(metric!("stage_micros_log2_histograms.module_assign"))[1], 1);
        assert_eq!(snap.histogram(metric!("stage_micros_log2_histograms.register_alloc"))[9], 1);
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
            collapsed_away: 20,
            lanes: 256,
            wall: Duration::from_micros(1500),
        });
        let snap = m.snapshot();
        assert_eq!(snap.get(metric!("fault_sim.faults_simulated")), 100);
        assert_eq!(snap.get(metric!("fault_sim.collapsed_away")), 20);
        assert_eq!(snap.get(metric!("fault_sim.lanes.64.runs")), 0);
        assert_eq!(snap.get(metric!("fault_sim.lanes.256.runs")), 1);
        assert_eq!(snap.get(metric!("fault_sim.lanes.64.batches_loaded")), 0);
        assert_eq!(snap.get(metric!("fault_sim.lanes.256.batches_loaded")), 4);
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
        assert!((snap.ratio(metric!("pool.utilization")) - 0.75).abs() < 1e-6);
    }
}
