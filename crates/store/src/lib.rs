//! Durable content-addressed storage for synthesis results.
//!
//! The engine's in-memory result cache answers a repeated job within
//! one process; this crate makes the same content-addressed mapping
//! survive the process. [`ResultStore`] is the interface both share —
//! the engine's bounded in-memory cache and this crate's [`DiskStore`]
//! implement it, so the engine can stack them as L1/L2 without caring
//! which is which. Because every job result is a pure function of its
//! 128-bit content key (the serial==parallel byte-identity discipline
//! of `lobist-engine`), a stored response is trustworthy at any
//! concurrency and across daemon restarts.
//!
//! * [`key`] — the content-key schema: one shift-normalized canonical
//!   key per result, exact keys for failures;
//! * [`codec`] — a versioned, byte-stable binary encoding of
//!   [`JobResult`];
//! * [`disk`] — the append-only record log: CRC-checked records, crash
//!   recovery by replay with tail truncation, bounded size with
//!   LRU-ordered compaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod disk;
pub mod key;

use lobist_alloc::explore::DesignPoint;

pub use disk::{DiskStore, DiskStoreConfig};

/// What a synthesis job evaluates to: a design point, or the rendered
/// failure `(module set, error text)` the explore report records.
///
/// This is the same type `lobist-engine` caches in memory; it lives
/// here so the store does not depend on the engine.
pub type JobResult = Result<DesignPoint, (String, String)>;

/// A cached job result plus the provenance of the submission that
/// produced it.
///
/// Since the canonical-key schema, results are stored in *canonical*
/// coordinates (the engine remaps them into each requester's names on a
/// hit). `origin` is the FNV-1a-64 fingerprint of the producing
/// submission's rendered design text: a later requester whose
/// fingerprint matches got an **exact** hit, any other requester got an
/// **isomorphic** hit — same canonical design, different names.
#[derive(Debug, Clone)]
pub struct StoredResult {
    /// FNV-1a-64 of the producing submission's design text.
    pub origin: u64,
    /// The result, in canonical coordinates.
    pub result: JobResult,
}

/// Point-in-time counters of one result store.
///
/// All fields are cumulative since the store was opened (or created),
/// except [`entries`](StoreStats::entries) and
/// [`payload_bytes`](StoreStats::payload_bytes), which are gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results written (including overwrites of an existing key).
    pub insertions: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Distinct keys currently held.
    pub entries: u64,
    /// Bytes of live payload currently held.
    pub payload_bytes: u64,
    /// Payload bytes read back on hits.
    pub bytes_read: u64,
    /// Payload bytes appended (before any compaction reclaimed them).
    pub bytes_written: u64,
    /// Log compactions performed (0 for in-memory stores).
    pub compactions: u64,
    /// Records dropped during crash recovery — a truncated or
    /// corrupted log tail (0 for in-memory stores).
    pub recovered_drops: u64,
    /// Writes that failed at the I/O layer and were dropped (the store
    /// degrades to a cache instead of failing the job).
    pub write_errors: u64,
    /// Records skipped because they belong to a retired format: payloads
    /// of an older codec version (dropped on first read rather than
    /// misread) and fragment records (skipped at replay). 0 for
    /// in-memory stores.
    pub version_skips: u64,
}

/// The shared interface of the engine's in-memory result cache and the
/// on-disk store: a thread-safe map from 128-bit content key to
/// completed [`StoredResult`].
///
/// Implementations must be last-write-wins under concurrent insertion;
/// because evaluation is deterministic, racing writers for one key hold
/// identical results and the race is benign.
pub trait ResultStore: Send + Sync {
    /// Returns the stored result for `key`, if any.
    fn get(&self, key: u128) -> Option<StoredResult>;

    /// Stores `result` under `key`.
    fn put(&self, key: u128, result: &StoredResult);

    /// Number of distinct results held.
    fn len(&self) -> usize;

    /// `true` if nothing is stored yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    fn stats(&self) -> StoreStats;

    /// Makes every stored result durable (no-op for in-memory stores).
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// Retired with the fragment tier: no store persists fragment
    /// sightings, so this always answers `None`. Kept for
    /// implementations that still forward it.
    fn get_fragment(&self, _key: u128) -> Option<codec::FragmentRecord> {
        None
    }

    /// Retired with the fragment tier: a no-op. Kept for
    /// implementations that still forward it.
    fn put_fragment(&self, _key: u128, _rec: &codec::FragmentRecord) {}
}
