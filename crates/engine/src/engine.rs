//! The engine proper: a job queue drained by a thread pool, fronted by
//! the content-addressed cache and instrumented by the metrics layer.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use lobist_alloc::explore::{evaluate_canonical_timed, remap_point, Candidate};
use lobist_alloc::flow::{FlowOptions, StageTimings};
use lobist_alloc::work::SearchWork;
use lobist_dfg::canon::canonize;
use lobist_dfg::Dfg;
use lobist_lint::json_escape;

use lobist_store::{ResultStore, StoredResult};

use crate::cache::{
    canonical_job_key, failure_key, lock_ok, origin_fingerprint, JobResult, ResultCache,
};
use crate::faultsim::SessionMemo;
use crate::metric;
use crate::metrics::{Key, Metrics, MetricsSnapshot};
use crate::pool;

/// The per-stage wall-time histograms, in [`StageTimings::stages`] order.
const STAGE_HISTOGRAMS: [Key; 5] = [
    metric!("stage_micros_log2_histograms.module_assign"),
    metric!("stage_micros_log2_histograms.register_alloc"),
    metric!("stage_micros_log2_histograms.interconnect"),
    metric!("stage_micros_log2_histograms.data_path"),
    metric!("stage_micros_log2_histograms.bist"),
];

/// A progress sink: called with one JSON line per event.
pub type ProgressSink = Arc<dyn Fn(&str) + Send + Sync>;

/// One unit of work: synthesize `candidate` on `dfg` under `flow`.
#[derive(Debug, Clone)]
pub struct Job {
    /// The (shared) data-flow graph.
    pub dfg: Arc<Dfg>,
    /// The module set and schedule to synthesize.
    pub candidate: Candidate,
    /// Flow options.
    pub flow: FlowOptions,
    /// Display label for progress lines and panic reports (by
    /// convention the module-set string, matching the explore report's
    /// failure entries).
    pub label: String,
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's label, echoed back.
    pub label: String,
    /// The design point, or the `(module set, error)` failure entry.
    pub result: JobResult,
    /// `true` if the result came from the in-memory cache.
    pub cache_hit: bool,
    /// `true` if the result came from the durable store (and was
    /// promoted into the in-memory cache on the way out).
    pub store_hit: bool,
    /// `true` if the hit was *isomorphic*: the stored result was
    /// produced by a renamed, reordered or uniformly schedule-shifted
    /// twin of this design and was remapped into this job's
    /// coordinates. Always `false` on misses.
    pub iso_hit: bool,
    /// Per-stage wall time (zero on cache hits and failures-before-BIST).
    pub timings: StageTimings,
}

/// Which cache tier answered `outcomes`: `"iso"` when every job was a
/// hit and at least one was isomorphic (a renamed, reordered or
/// schedule-shifted twin's result, remapped), `"memory"` or `"store"`
/// when every job came from that tier (`"store"` for a mix of the two),
/// `"fresh"` when any job was evaluated or there were none.
pub fn provenance(outcomes: &[JobOutcome]) -> &'static str {
    if outcomes.is_empty() || !outcomes.iter().all(|o| o.cache_hit || o.store_hit) {
        "fresh"
    } else if outcomes.iter().any(|o| o.iso_hit) {
        "iso"
    } else if outcomes.iter().all(|o| o.cache_hit) {
        "memory"
    } else {
        "store"
    }
}

/// A parallel batch-synthesis engine.
///
/// One engine owns one worker budget, one result cache, one BIST
/// session memo and one metrics ledger; batches run through
/// [`Engine::run`] and fault simulations run through
/// [`crate::fault_sim_designs`] share them, so a repeated sweep is
/// answered from cache and a long campaign accumulates one coherent
/// profile.
///
/// # Determinism
///
/// [`Engine::run`] returns outcomes in submission order regardless of
/// worker count or scheduling: every job is pure (a function of its
/// content only) and results are written into per-job slots, never
/// appended in completion order. Batch output is therefore
/// byte-for-byte identical between `workers = 1` and `workers = N`.
pub struct Engine {
    workers: usize,
    cache: ResultCache,
    /// BIST session reports shared by every [`crate::fault_sim_designs`]
    /// call on this engine.
    pub(crate) sessions: SessionMemo,
    store: Option<Arc<dyn ResultStore>>,
    metrics: Metrics,
    progress: Option<ProgressSink>,
    inflight: Mutex<HashMap<u128, Arc<Inflight>>>,
}

/// One in-flight evaluation other workers can block on (single-flight
/// dedup of identical concurrent jobs).
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Removes the in-flight entry and wakes followers — on the normal exit
/// *and* when the leader's evaluation panics (via `Drop` during unwind),
/// so a follower can retry leadership instead of waiting forever.
struct InflightGuard<'a> {
    engine: &'a Engine,
    key: u128,
    slot: Arc<Inflight>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock_ok(&self.engine.inflight).remove(&self.key);
        *lock_ok(&self.slot.done) = true;
        self.slot.cv.notify_all();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("cached", &self.cache.len())
            .field("store", &self.store.as_ref().map(|s| s.len()))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Engine {
    /// An engine with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (the CLI rejects `--jobs 0` before
    /// getting here).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "engine needs at least one worker");
        Self {
            workers,
            cache: ResultCache::new(),
            sessions: SessionMemo::default(),
            store: None,
            metrics: Metrics::new(),
            progress: None,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a durable second-tier result store (builder style).
    ///
    /// Lookups check the in-memory cache first, then the store; a store
    /// hit is promoted into the cache, and every fresh evaluation is
    /// written through to both. The store outlives the engine, so a
    /// restarted daemon answers repeated jobs from disk.
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<dyn ResultStore>> {
        self.store.as_ref()
    }

    /// Installs a progress sink receiving one JSON line per job and
    /// batch event (builder style).
    pub fn with_progress(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(sink));
        self
    }

    /// The worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The live metrics recorder, for callers that drive work outside
    /// [`Engine::run`] (fault simulation, annealing, lint) but want it
    /// accounted in this engine's snapshot — the daemon does this.
    pub fn metrics_handle(&self) -> &Metrics {
        &self.metrics
    }

    /// Point-in-time metrics (accumulated over every batch so far),
    /// with the live cache and store gauges attached.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.cache.stats();
        snap.set_live(metric!("cache.evictions"), cache.evictions);
        snap.set_live(metric!("cache.entries"), cache.entries);
        snap.set_live(metric!("cache.capacity"), self.cache.capacity() as u64);
        if let Some(store) = &self.store {
            let s = store.stats();
            snap.set_live(metric!("store.hits"), s.hits);
            snap.set_live(metric!("store.misses"), s.misses);
            snap.set_live(metric!("store.insertions"), s.insertions);
            snap.set_live(metric!("store.evictions"), s.evictions);
            snap.set_live(metric!("store.entries"), s.entries);
            snap.set_live(metric!("store.payload_bytes"), s.payload_bytes);
            snap.set_live(metric!("store.bytes_read"), s.bytes_read);
            snap.set_live(metric!("store.bytes_written"), s.bytes_written);
            snap.set_live(metric!("store.compactions"), s.compactions);
            snap.set_live(metric!("store.recovered_drops"), s.recovered_drops);
            snap.set_live(metric!("store.write_errors"), s.write_errors);
            snap.set_live(metric!("store.version_skips"), s.version_skips);
        }
        snap
    }

    /// Flushes the durable store, if one is attached.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O error.
    pub fn flush_store(&self) -> std::io::Result<()> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    fn emit(&self, line: &str) {
        if let Some(sink) = &self.progress {
            sink(line);
        }
    }

    /// Runs a batch, returning one outcome per job **in submission
    /// order**. A panicking job is isolated: it becomes a failure entry
    /// `(label, "job panicked: ...")` and the rest of the batch is
    /// unaffected.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        self.run_with_workers(jobs, self.workers)
    }

    /// [`Engine::run`] with an explicit worker budget for this batch
    /// (clamped to at least 1). The daemon uses this to honor a
    /// per-request `jobs` limit while sharing one engine, cache and
    /// store across every client.
    pub fn run_with_workers(&self, jobs: Vec<Job>, workers: usize) -> Vec<JobOutcome> {
        let workers = workers.max(1);
        let n = jobs.len();
        self.metrics.add(metric!("jobs.submitted"), n as u64);
        self.emit(&format!(
            "{{\"event\":\"batch\",\"jobs\":{n},\"workers\":{workers}}}"
        ));
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let tasks: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| move || self.run_one(i, job))
            .collect();
        let (results, stats) = pool::run_jobs(workers, tasks);
        self.metrics.record_pool(&stats);
        let outcomes: Vec<JobOutcome> = results
            .into_iter()
            .zip(labels)
            .enumerate()
            .map(|(i, (result, label))| match result {
                Ok(outcome) => outcome,
                Err(panic_msg) => {
                    self.metrics.add(metric!("jobs.completed"), 1);
                    self.metrics.add(metric!("jobs.panicked"), 1);
                    self.emit(&format!(
                        "{{\"event\":\"job\",\"index\":{i},\"label\":\"{}\",\"panicked\":true}}",
                        json_escape(&label)
                    ));
                    JobOutcome {
                        result: Err((label.clone(), format!("job panicked: {panic_msg}"))),
                        label,
                        cache_hit: false,
                        store_hit: false,
                        iso_hit: false,
                        timings: StageTimings::default(),
                    }
                }
            })
            .collect();
        let snap = self.metrics.snapshot();
        self.emit(&format!(
            "{{\"event\":\"batch_done\",\"jobs\":{n},\"cache_hits\":{},\"utilization\":{:.4}}}",
            snap.get(metric!("cache.hits")),
            snap.ratio(metric!("pool.utilization"))
        ));
        outcomes
    }

    fn run_one(&self, index: usize, job: Job) -> JobOutcome {
        // Canonize first (cheap, microseconds against a synthesis of
        // milliseconds): the shift-normalized canonical encoding keys
        // the cache, and a miss synthesizes the canonical form anyway.
        let t0 = Instant::now();
        let canon = canonize(&job.dfg, &job.candidate.schedule);
        self.metrics.record(metric!("canon.canon_micros_log2"), t0.elapsed());
        if canon.bailed {
            // The search hit its leaf budget: the key stays sound, but
            // this design's isomorphic twins may miss.
            self.metrics.add(metric!("canon.bailouts"), 1);
        }
        let origin = origin_fingerprint(&job.dfg, &job.candidate.schedule);
        let modules = &job.candidate.modules;
        let (key, shift) = canonical_job_key(&canon.encoding, modules, &job.flow);
        // A failure's text can name absolute steps, so a shifted design's
        // failure lives under its exact key — hashed only when needed.
        let exact = OnceCell::new();
        let exact_key = || {
            *exact.get_or_init(|| match shift {
                0 => key,
                _ => failure_key(&canon.encoding, modules, &job.flow),
            })
        };
        // One tier's answer: a success under the shift-normalized key,
        // or a failure recorded at exactly this shift.
        let probe = |tier: &dyn ResultStore| -> Option<(u128, StoredResult)> {
            match tier.get(key) {
                Some(stored) if shift == 0 || stored.result.is_ok() => Some((key, stored)),
                _ if shift == 0 => None,
                _ => tier.get(exact_key()).map(|stored| (exact_key(), stored)),
            }
        };
        let unpack = |stored: StoredResult| -> (JobResult, bool) {
            let iso = stored.origin != origin;
            let hit = if iso {
                metric!("canon.iso_hits")
            } else {
                metric!("canon.exact_hits")
            };
            self.metrics.add(hit, 1);
            self.metrics.add(metric!("canon.remaps"), 1);
            (remap_point(stored.result, &canon, &job.candidate), iso)
        };
        // Single-flight loop: check both cache tiers, then either become
        // the leader for this key (and fall through to evaluate) or wait
        // for the in-flight leader and re-check the caches.
        let _guard = loop {
            if let Some((_, stored)) = probe(&self.cache) {
                let (result, iso_hit) = unpack(stored);
                self.metrics.add(metric!("jobs.completed"), 1);
                self.metrics.add(metric!("cache.hits"), 1);
                self.emit(&format!(
                    concat!(
                        "{{\"event\":\"job\",\"index\":{index},\"label\":\"{label}\",",
                        "\"cache_hit\":true,\"iso\":{iso},\"ok\":{ok}}}"
                    ),
                    index = index,
                    label = json_escape(&job.label),
                    iso = iso_hit,
                    ok = result.is_ok()
                ));
                return JobOutcome {
                    label: job.label,
                    result,
                    cache_hit: true,
                    store_hit: false,
                    iso_hit,
                    timings: StageTimings::default(),
                };
            }
            if let Some(store) = &self.store {
                if let Some((hit_key, stored)) = probe(store.as_ref()) {
                    // Promote the durable hit into the in-memory tier so a
                    // rerun within this process skips the disk read.
                    self.cache.insert(hit_key, stored.clone());
                    let (result, iso_hit) = unpack(stored);
                    // A store hit is still a miss for the in-memory tier.
                    self.metrics.add(metric!("jobs.completed"), 1);
                    self.metrics.add(metric!("cache.store_hits"), 1);
                    self.metrics.add(metric!("cache.misses"), 1);
                    self.emit(&format!(
                        concat!(
                            "{{\"event\":\"job\",\"index\":{index},\"label\":\"{label}\",",
                            "\"cache_hit\":false,\"store_hit\":true,\"iso\":{iso},\"ok\":{ok}}}"
                        ),
                        index = index,
                        label = json_escape(&job.label),
                        iso = iso_hit,
                        ok = result.is_ok()
                    ));
                    return JobOutcome {
                        label: job.label,
                        result,
                        cache_hit: false,
                        store_hit: true,
                        iso_hit,
                        timings: StageTimings::default(),
                    };
                }
            }
            // Miss in both tiers: either claim leadership of this key or
            // coalesce onto the worker already evaluating it.
            let claimed = {
                let mut map = lock_ok(&self.inflight);
                match map.get(&key) {
                    Some(slot) => Err(Arc::clone(slot)),
                    None => {
                        let slot = Arc::new(Inflight {
                            done: Mutex::new(false),
                            cv: Condvar::new(),
                        });
                        map.insert(key, Arc::clone(&slot));
                        Ok(slot)
                    }
                }
            };
            match claimed {
                Ok(slot) => {
                    break InflightGuard {
                        engine: self,
                        key,
                        slot,
                    }
                }
                Err(slot) => {
                    // Identical job already running: block on its
                    // completion, then loop back to the caches. If the
                    // leader panicked (or its entry was evicted before we
                    // woke), the re-check misses and we claim leadership
                    // ourselves — never a wrong result, at worst a second
                    // evaluation of a pure function.
                    self.metrics.add(metric!("cache.coalesced"), 1);
                    let mut done = lock_ok(&slot.done);
                    while !*done {
                        done = slot.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // The expensive part runs outside any lock, so a panic here
        // (caught at the pool's job boundary) cannot poison the cache or
        // the metrics. Store in canonical coordinates, return in the
        // requester's: every isomorphic or shifted requester — this one
        // included — gets the identical remapped bytes.
        let ((canonical, timings), work) =
            SearchWork::measure(|| evaluate_canonical_timed(&canon, modules, &job.flow));
        self.metrics.add(metric!("synthesis.pves_tests"), work.pves_tests);
        self.metrics.add(metric!("synthesis.lemma2_evaluations"), work.lemma2_evaluations);
        self.metrics.add(metric!("synthesis.label_nodes"), work.label_nodes);
        self.metrics.add(metric!("synthesis.embeddings"), work.embeddings);
        self.metrics.add(metric!("synthesis.bnb_nodes"), work.bnb_nodes);
        let store_key = if canonical.is_ok() { key } else { exact_key() };
        let stored = StoredResult {
            origin,
            result: canonical,
        };
        self.metrics.add(metric!("canon.remaps"), 1);
        let result = remap_point(stored.result.clone(), &canon, &job.candidate);
        self.cache.insert(store_key, stored.clone());
        if let Some(store) = &self.store {
            store.put(store_key, &stored);
        }
        self.metrics.add(metric!("jobs.completed"), 1);
        self.metrics.add(metric!("cache.misses"), 1);
        for (key, (_, took)) in STAGE_HISTOGRAMS.into_iter().zip(timings.stages()) {
            self.metrics.record(key, took);
        }
        self.emit(&format!(
            "{{\"event\":\"job\",\"index\":{index},\"label\":\"{}\",\"cache_hit\":false,\"ok\":{},\"micros\":{}}}",
            json_escape(&job.label),
            result.is_ok(),
            timings.total().as_micros()
        ));
        JobOutcome {
            label: job.label,
            result,
            cache_hit: false,
            store_hit: false,
            iso_hit: false,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;
    use std::sync::Mutex;

    fn ex1_job(flow: FlowOptions) -> Job {
        let bench = benchmarks::ex1();
        Job {
            dfg: Arc::new(bench.dfg.clone()),
            candidate: Candidate {
                modules: bench.module_allocation.clone(),
                schedule: bench.schedule.clone(),
            },
            flow: flow.with_lifetimes(bench.lifetime_options),
            label: bench.module_allocation.to_string(),
        }
    }

    #[test]
    fn repeated_jobs_hit_the_cache() {
        let engine = Engine::new(2);
        let first = engine.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!first[0].cache_hit);
        let point = first[0].result.as_ref().expect("synthesizes").clone();
        let again = engine.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(again[0].cache_hit);
        let cached = again[0].result.as_ref().expect("synthesizes");
        assert_eq!(point.latency, cached.latency);
        assert_eq!(point.functional_gates, cached.functional_gates);
        assert_eq!(point.bist_gates, cached.bist_gates);
        let snap = engine.metrics();
        assert_eq!(snap.get(metric!("cache.hits")), 1);
        assert_eq!(snap.get(metric!("cache.misses")), 1);
    }

    #[test]
    fn different_flows_do_not_share_cache_entries() {
        let engine = Engine::new(1);
        engine.run(vec![ex1_job(FlowOptions::testable())]);
        let other = engine.run(vec![ex1_job(FlowOptions::traditional())]);
        assert!(!other[0].cache_hit);
    }

    #[test]
    fn store_tier_answers_a_fresh_engine() {
        let dir = std::env::temp_dir().join("lobist-engine-store-tier");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tier.log");
        let _ = std::fs::remove_file(&path);
        let store: Arc<dyn ResultStore> = Arc::new(
            lobist_store::DiskStore::open(&path, lobist_store::DiskStoreConfig::default())
                .expect("open store"),
        );
        // First engine evaluates and writes through to the store.
        let first = Engine::new(1).with_store(Arc::clone(&store));
        let warm = first.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!warm[0].cache_hit && !warm[0].store_hit);
        let point = warm[0].result.as_ref().expect("synthesizes").clone();
        // A fresh engine (empty in-memory cache) sharing the store is
        // answered from disk — the restarted-daemon case.
        let second = Engine::new(1).with_store(Arc::clone(&store));
        let served = second.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!served[0].cache_hit, "memory tier was empty");
        assert!(served[0].store_hit, "disk tier must answer");
        let from_disk = served[0].result.as_ref().expect("synthesizes");
        assert_eq!(point.latency, from_disk.latency);
        assert_eq!(point.functional_gates, from_disk.functional_gates);
        assert_eq!(point.bist_gates, from_disk.bist_gates);
        let snap = second.metrics();
        assert_eq!(snap.get(metric!("cache.store_hits")), 1);
        assert!(
            snap.to_json().contains("\"store\":{"),
            "metrics carry the store section"
        );
        // The hit was promoted: a rerun on the same engine is a memory
        // hit, not another disk read.
        let third = second.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(third[0].cache_hit && !third[0].store_hit);
        let json = second.metrics().to_json();
        assert!(json.contains("\"store\":{"), "{json}");
        assert!(json.contains("\"store_hits\":1"), "{json}");
    }

    #[test]
    fn identical_concurrent_jobs_coalesce_to_one_evaluation() {
        // Four identical jobs in one parallel batch: exactly one may
        // evaluate. A follower either coalesces onto the in-flight
        // leader or arrives after the insert and hits the cache — both
        // paths end at misses == 1, hits == 3, deterministically.
        let engine = Engine::new(4);
        let outcomes = engine.run(vec![
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
        ]);
        assert_eq!(outcomes.len(), 4);
        let baseline = outcomes[0].result.as_ref().expect("synthesizes");
        for o in &outcomes {
            let point = o.result.as_ref().expect("synthesizes");
            assert_eq!(point.latency, baseline.latency);
            assert_eq!(point.functional_gates, baseline.functional_gates);
            assert_eq!(point.bist_gates, baseline.bist_gates);
        }
        let snap = engine.metrics();
        assert_eq!(snap.get(metric!("cache.misses")), 1, "single evaluation for the batch");
        assert_eq!(snap.get(metric!("cache.hits")), 3);
        let json = snap.to_json();
        assert!(json.contains("\"coalesced\":"), "{json}");
    }

    #[test]
    fn shifted_twins_are_answered_from_cache_with_their_own_latency() {
        let engine = Engine::new(1);
        let base = ex1_job(FlowOptions::testable());
        let mut moved = base.clone();
        let steps: Vec<u32> = base.candidate.schedule.as_slice().iter().map(|s| s + 2).collect();
        moved.candidate.schedule =
            lobist_dfg::Schedule::new(&base.dfg, steps).expect("uniform shift");
        let outcomes = engine.run(vec![base, moved]);
        assert!(!outcomes[0].cache_hit);
        assert!(outcomes[1].cache_hit, "the shifted twin shares the key");
        assert!(outcomes[1].iso_hit, "a different design text is an iso hit");
        let (p, q) = (
            outcomes[0].result.as_ref().expect("synthesizes"),
            outcomes[1].result.as_ref().expect("synthesizes"),
        );
        assert_eq!(q.latency, p.latency + 2);
        assert_eq!(q.schedule.max_step(), q.latency);
        assert_eq!(p.bist_gates, q.bist_gates);
        assert!(!engine.metrics().to_json().contains("\"subcanon\""));
    }

    #[test]
    fn progress_lines_are_json_events() {
        let lines: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&lines);
        let engine =
            Engine::new(2).with_progress(move |l| sink.lock().expect("lock").push(l.to_owned()));
        engine.run(vec![ex1_job(FlowOptions::testable())]);
        let lines = lines.lock().expect("lock");
        assert!(lines.iter().any(|l| l.contains("\"event\":\"batch\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"job\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"batch_done\"")));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
