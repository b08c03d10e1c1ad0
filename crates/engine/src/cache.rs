//! Content-addressed result cache.
//!
//! Jobs are keyed by what actually determines their outcome — the
//! design's shift-normalized canonical encoding, the module set, and
//! the flow options ([`lobist_store::key`], re-exported here). Two jobs
//! with the same content share one synthesis, and so do designs that
//! differ only in names, statement order, or a uniform shift of their
//! schedule: [`canonical_job_key`] gives all of them one key. Failures
//! are the exception: their text can name absolute steps, so a failure
//! is stored under [`failure_key`], the key of the design's own
//! un-rebased encoding.
//!
//! [`ResultCache`] is the in-memory tier: a bounded FIFO map
//! ([`FifoMap`], the annealer's label cache's map too) with
//! hit/miss/eviction accounting. It implements
//! [`lobist_store::ResultStore`], the interface it shares with the
//! durable on-disk [`lobist_store::DiskStore`], so the engine can stack
//! the two as L1/L2.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lobist_alloc::fifo::FifoMap;
use lobist_dfg::parse::write_text;
use lobist_dfg::{Dfg, Schedule};
use lobist_store::{ResultStore, StoreStats, StoredResult};

pub use lobist_store::key::{canonical_job_key, failure_key, flow_bytes};
pub use lobist_store::JobResult;

/// Default bound on the in-memory cache: plenty for any one campaign,
/// small enough that a long-lived daemon cannot grow without limit
/// (the durable tier keeps the history).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Poison-tolerant lock: every critical section below leaves the map
/// consistent, so a panic elsewhere while the lock was held must not
/// cascade into every later job.
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The [`StoredResult::origin`] fingerprint that classifies a hit as
/// exact (same rendered design text) or isomorphic (same structure,
/// different names): the 64-bit FNV-1a of
/// `lobist_dfg::parse::to_text(dfg, schedule)`, with the text streamed
/// into the hash instead of built.
pub fn origin_fingerprint(dfg: &Dfg, schedule: &Schedule) -> u64 {
    let mut h = Fnv64::default();
    write_text(dfg, schedule, &mut h).expect("hashing never fails");
    h.0
}

/// A running 64-bit FNV-1a hash that text can be written into.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

#[derive(Debug)]
struct CacheInner {
    map: FifoMap<u128, StoredResult>,
    stats: StoreStats,
}

/// A thread-safe, bounded map from job key to completed result.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// An empty cache with the default capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (at least 1). When
    /// full, the oldest-inserted entry is evicted first.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: FifoMap::new(capacity),
                stats: StoreStats::default(),
            }),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        lock_ok(&self.inner).map.capacity()
    }

    /// Returns the cached result for `key`, if any.
    pub fn get(&self, key: u128) -> Option<StoredResult> {
        let mut inner = lock_ok(&self.inner);
        let result = inner.map.get(&key).cloned();
        if result.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        result
    }

    /// Stores `result` under `key`, evicting the oldest entry if the
    /// cache is full. Last write wins; concurrent writers for the same
    /// key hold identical results (evaluation is deterministic), so the
    /// race is benign.
    pub fn insert(&self, key: u128, result: StoredResult) {
        let mut inner = lock_ok(&self.inner);
        inner.stats.insertions += 1;
        inner.stats.evictions += inner.map.insert(key, result);
        inner.stats.entries = inner.map.len() as u64;
    }

    /// Number of distinct results held.
    pub fn len(&self) -> usize {
        lock_ok(&self.inner).map.len()
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        lock_ok(&self.inner).map.is_empty()
    }

    /// Point-in-time hit/miss/eviction counters.
    pub fn stats(&self) -> StoreStats {
        lock_ok(&self.inner).stats
    }
}

impl ResultStore for ResultCache {
    fn get(&self, key: u128) -> Option<StoredResult> {
        ResultCache::get(self, key)
    }

    fn put(&self, key: u128, result: &StoredResult) {
        ResultCache::insert(self, key, result.clone());
    }

    fn len(&self) -> usize {
        ResultCache::len(self)
    }

    fn stats(&self) -> StoreStats {
        ResultCache::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored_err(m: &str, e: &str) -> StoredResult {
        StoredResult {
            origin: 0,
            result: Err((m.to_owned(), e.to_owned())),
        }
    }

    #[test]
    fn a_panic_while_holding_the_lock_does_not_poison_the_cache() {
        let cache = std::sync::Arc::new(ResultCache::with_capacity(4));
        cache.insert(1, stored_err("m", "before"));
        let held = std::sync::Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().expect("first locker");
            panic!("handler panics while holding the cache lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        assert!(cache.get(1).is_some());
        cache.insert(2, stored_err("m", "after"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().insertions, 2);
        let store: &dyn ResultStore = &*cache;
        store.put(3, &stored_err("m", "via trait"));
        assert!(store.flush().is_ok());
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn cache_round_trips() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), DEFAULT_CACHE_CAPACITY);
        cache.insert(7, stored_err("1+", "boom"));
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.get(7).map(|s| s.result), Some(Err((m, e))) if m == "1+" && e == "boom"));
        assert!(cache.get(8).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        // The eviction order is `FifoMap`'s, tested in `lobist_alloc::fifo`;
        // this checks the cache's accounting of it.
        let cache = ResultCache::with_capacity(3);
        for i in 0..5u128 {
            cache.insert(i, stored_err("m", &format!("entry {i}")));
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        // Overwriting a key evicts nothing, and the last write wins.
        cache.insert(2, stored_err("m", "updated"));
        assert!(matches!(cache.get(2).map(|s| s.result), Some(Err((_, e))) if e == "updated"));
        let stats = cache.stats();
        assert_eq!(stats.insertions, 6);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn trait_object_view_matches_inherent_api() {
        let cache = ResultCache::with_capacity(4);
        let store: &dyn ResultStore = &cache;
        store.put(9, &stored_err("1+", "via trait"));
        assert_eq!(store.len(), 1);
        assert!(matches!(store.get(9).map(|s| s.result), Some(Err((_, e))) if e == "via trait"));
        assert!(store.flush().is_ok());
    }

    #[test]
    fn origin_fingerprint_hashes_the_rendered_text() {
        use lobist_dfg::benchmarks;
        use lobist_dfg::parse::to_text;
        for bench in benchmarks::paper_suite() {
            let mut text = Fnv64::default();
            text.eat(to_text(&bench.dfg, &bench.schedule).as_bytes());
            assert_eq!(origin_fingerprint(&bench.dfg, &bench.schedule), text.0, "{}", bench.name);
        }
        // FNV-1a-64 test vectors.
        let mut h = Fnv64::default();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.eat(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
