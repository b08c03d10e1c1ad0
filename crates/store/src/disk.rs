//! The on-disk content-addressed store: an append-only record log.
//!
//! # Format
//!
//! ```text
//! file   := header record*
//! header := magic (8 bytes, b"LOBST001" — name + format version)
//! record := key (u128 LE) len (u32 LE) crc (u32 LE) payload (len bytes)
//! ```
//!
//! `payload` is the [`codec`] encoding of one
//! [`JobResult`](crate::JobResult); `crc` is CRC-32 (IEEE) over `key ‖ len ‖ payload`.
//! The log is replayed at open to rebuild the in-memory index
//! (key → offset); a later record for the same key shadows an earlier
//! one, so overwrites are appends. Replay order doubles as recency
//! order, which survives restarts because compaction rewrites records
//! least-recently-used first. Fragment records from older logs are
//! skipped at replay (counted in [`StoreStats::version_skips`]) and
//! dropped by the next compaction.
//!
//! # Crash safety
//!
//! Each record is appended in one positioned write, but a crash can
//! still leave a partial record at the tail. Replay stops at the first
//! record that is truncated or fails its CRC and truncates the file
//! back to the last good byte — everything before it is intact by
//! construction.
//! Compaction writes the survivor records to a sibling temp file and
//! atomically renames it over the log, so a crash mid-compaction
//! leaves either the old complete log or the new complete log.
//!
//! # Bounds
//!
//! The log is bounded by [`DiskStoreConfig::max_bytes`]. When an
//! append pushes the file past the budget, the store compacts: live
//! records are kept most-recently-used first until three quarters of
//! the budget is filled, and the rest are evicted (counted in
//! [`StoreStats::evictions`]).
//!
//! One store must be owned by one process at a time; the daemon is the
//! single writer. Concurrent threads within the process are fine — the
//! store is a `Mutex` around the file and index. The lock is
//! poison-tolerant: every critical section leaves the index consistent
//! with the file, so one panicking request cannot disable the store
//! for the daemon's lifetime.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::codec::{self, CodecError};
use crate::{ResultStore, StoreStats, StoredResult};

/// File magic: store name plus format version. Bump the trailing
/// digits on any incompatible layout change.
pub const MAGIC: [u8; 8] = *b"LOBST001";

const RECORD_HEADER_LEN: u64 = 16 + 4 + 4;

/// Replay reads the log through a buffer this large instead of
/// slurping the whole file: open-time memory stays flat no matter how
/// big the log grew.
const REPLAY_BUF_LEN: usize = 64 << 10;

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), bitwise — records are
/// small enough that a table buys nothing measurable.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for chunk in chunks {
        for &b in *chunk {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
    }
    !crc
}

/// Tuning knobs of a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct DiskStoreConfig {
    /// Log size budget in bytes. An append that pushes the file past
    /// this triggers a compaction down to ~3/4 of the budget. The
    /// newest record is always kept, so a single oversized result
    /// never wedges the store.
    pub max_bytes: u64,
}

impl Default for DiskStoreConfig {
    fn default() -> Self {
        // Generous for result records (a few hundred bytes each) while
        // still bounded: ~64 MiB holds on the order of 10^5 results.
        Self {
            max_bytes: 64 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Offset of the record header (not the payload).
    offset: u64,
    payload_len: u32,
    /// Monotonic recency stamp; larger = used more recently.
    tick: u64,
}

#[derive(Debug)]
struct Inner {
    path: PathBuf,
    file: File,
    index: HashMap<u128, Entry>,
    end: u64,
    tick: u64,
    max_bytes: u64,
    stats: StoreStats,
}

/// The durable content-addressed result store. See the module docs for
/// the format and guarantees.
#[derive(Debug)]
pub struct DiskStore {
    inner: Mutex<Inner>,
}

impl DiskStore {
    /// Opens (or creates) the store at `path`, replaying the log to
    /// rebuild the index. A truncated or corrupted tail is cut off and
    /// counted in [`StoreStats::recovered_drops`].
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or created, or if
    /// it exists but does not start with this store's magic (it is some
    /// other file — refusing beats silently clobbering it).
    pub fn open(path: impl AsRef<Path>, config: DiskStoreConfig) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut stats = StoreStats::default();
        let len = file.metadata()?.len();
        let mut index = HashMap::new();
        let mut tick = 0u64;
        let end = if len == 0 {
            file.write_all(&MAGIC)?;
            file.sync_all()?;
            MAGIC.len() as u64
        } else {
            file.seek(SeekFrom::Start(0))?;
            let pos = {
                // Stream the replay through a fixed-size buffer; only
                // one record's payload is ever resident at a time.
                let mut reader = BufReader::with_capacity(REPLAY_BUF_LEN, &mut file);
                let mut magic = [0u8; MAGIC.len()];
                if read_fill(&mut reader, &mut magic)? != MAGIC.len() || magic != MAGIC {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{} is not a lobist store (bad magic)", path.display()),
                    ));
                }
                let mut pos = MAGIC.len() as u64;
                let mut header = [0u8; RECORD_HEADER_LEN as usize];
                loop {
                    let got = read_fill(&mut reader, &mut header)?;
                    if got == 0 {
                        break; // clean end of log
                    }
                    if got < header.len() {
                        break; // torn header at the tail
                    }
                    let key = u128::from_le_bytes(header[..16].try_into().expect("16 bytes"));
                    let payload_len =
                        u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
                    let crc = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
                    // A corrupt length field could otherwise demand an
                    // absurd allocation; the record cannot extend past
                    // the file, so cap it there before trusting it.
                    if pos + RECORD_HEADER_LEN + payload_len as u64 > len {
                        break;
                    }
                    let mut payload = vec![0u8; payload_len as usize];
                    if read_fill(&mut reader, &mut payload)? < payload.len() {
                        break; // torn payload at the tail
                    }
                    if crc32(&[&header[..20], &payload]) != crc {
                        break; // corrupt record
                    }
                    if codec::is_fragment(&payload) {
                        // A record of the retired fragment tier: never
                        // a result, so it is not indexed.
                        stats.version_skips += 1;
                        pos += RECORD_HEADER_LEN + payload_len as u64;
                        continue;
                    }
                    tick += 1;
                    index.insert(
                        key,
                        Entry {
                            offset: pos,
                            payload_len,
                            tick,
                        },
                    );
                    pos += RECORD_HEADER_LEN + payload_len as u64;
                }
                pos
            };
            if pos < len {
                // Partial or corrupt tail: cut it off.
                file.set_len(pos)?;
                file.sync_all()?;
                stats.recovered_drops += 1;
            }
            pos
        };
        stats.entries = index.len() as u64;
        stats.payload_bytes = index.values().map(|e| e.payload_len as u64).sum();
        Ok(Self {
            inner: Mutex::new(Inner {
                path,
                file,
                index,
                end,
                tick,
                max_bytes: config.max_bytes.max(1),
                stats,
            }),
        })
    }

    /// The log file path.
    pub fn path(&self) -> PathBuf {
        lock_ok(&self.inner).path.clone()
    }
}

/// Fills `buf` from `reader` as far as the stream allows, returning the
/// number of bytes read. Unlike `read_exact`, a short count is an
/// answer (the log ends mid-record — torn tail), not an error; only
/// real I/O failures propagate.
fn read_fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl Inner {
    fn read_payload(&self, entry: Entry) -> std::io::Result<Vec<u8>> {
        let mut payload = vec![0u8; entry.payload_len as usize];
        self.file
            .read_exact_at(&mut payload, entry.offset + RECORD_HEADER_LEN)?;
        Ok(payload)
    }

    /// Appends one record at `end` in one positioned write: the file is
    /// not opened for appending, so the offset is the one written.
    fn append(&mut self, key: u128, payload: &[u8]) -> std::io::Result<()> {
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32(&[&record, payload]);
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(payload);
        let offset = self.end;
        self.file.write_all_at(&record, offset)?;
        self.end = offset + record.len() as u64;
        self.tick += 1;
        let previous = self.index.insert(
            key,
            Entry {
                offset,
                payload_len: payload.len() as u32,
                tick: self.tick,
            },
        );
        if let Some(prev) = previous {
            self.stats.payload_bytes -= prev.payload_len as u64;
        }
        self.stats.payload_bytes += payload.len() as u64;
        self.stats.entries = self.index.len() as u64;
        self.stats.bytes_written += payload.len() as u64;
        if self.end > self.max_bytes {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the log with only the records that fit the budget,
    /// most-recently-used entries surviving first.
    fn compact(&mut self) -> std::io::Result<()> {
        let budget = (self.max_bytes / 4 * 3).max(1);
        let mut live: Vec<(u128, Entry)> = self.index.iter().map(|(&k, &e)| (k, e)).collect();
        // Most recent first for the keep decision...
        live.sort_by_key(|(_, e)| std::cmp::Reverse(e.tick));
        let mut kept_bytes = 0u64;
        let mut keep: Vec<(u128, Entry)> = Vec::with_capacity(live.len());
        for (key, entry) in live {
            let record_len = RECORD_HEADER_LEN + entry.payload_len as u64;
            if keep.is_empty() || kept_bytes + record_len <= budget {
                kept_bytes += record_len;
                keep.push((key, entry));
            } else {
                self.stats.evictions += 1;
            }
        }
        // ...but written oldest-first so replay reproduces the recency
        // order.
        keep.sort_by_key(|(_, e)| e.tick);
        let tmp_path = self.path.with_extension("log.tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        let mut new_index = HashMap::with_capacity(keep.len());
        let mut pos = MAGIC.len() as u64;
        for (i, (key, entry)) in keep.iter().enumerate() {
            let payload = self.read_payload(*entry)?;
            let mut header = [0u8; RECORD_HEADER_LEN as usize];
            header[..16].copy_from_slice(&key.to_le_bytes());
            header[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            let crc = crc32(&[&header[..20], &payload]);
            header[20..24].copy_from_slice(&crc.to_le_bytes());
            tmp.write_all(&header)?;
            tmp.write_all(&payload)?;
            new_index.insert(
                *key,
                Entry {
                    offset: pos,
                    payload_len: entry.payload_len,
                    tick: (i + 1) as u64,
                },
            );
            pos += RECORD_HEADER_LEN + payload.len() as u64;
        }
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.end = pos;
        self.tick = new_index.len() as u64;
        self.index = new_index;
        self.stats.entries = self.index.len() as u64;
        self.stats.payload_bytes = self.index.values().map(|e| e.payload_len as u64).sum();
        self.stats.compactions += 1;
        Ok(())
    }
}

impl ResultStore for DiskStore {
    fn get(&self, key: u128) -> Option<StoredResult> {
        let mut inner = lock_ok(&self.inner);
        let Some(entry) = inner.index.get(&key).copied() else {
            inner.stats.misses += 1;
            return None;
        };
        let payload = match inner.read_payload(entry) {
            Ok(p) => p,
            Err(_) => {
                // Unreadable record: forget it rather than erroring every
                // future lookup.
                inner.index.remove(&key);
                inner.stats.entries = inner.index.len() as u64;
                inner.stats.recovered_drops += 1;
                inner.stats.misses += 1;
                return None;
            }
        };
        match codec::decode(&payload) {
            Ok(result) => {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(e) = inner.index.get_mut(&key) {
                    e.tick = tick;
                }
                inner.stats.hits += 1;
                inner.stats.bytes_read += payload.len() as u64;
                Some(result)
            }
            Err(e) => {
                // Replay only CRC-checks, so a pre-canonization record
                // can sit in the index until first read; drop it here —
                // counted separately from corruption — rather than
                // misreading it under the new schema.
                inner.index.remove(&key);
                inner.stats.entries = inner.index.len() as u64;
                if matches!(e, CodecError::UnknownVersion(_)) {
                    inner.stats.version_skips += 1;
                } else {
                    inner.stats.recovered_drops += 1;
                }
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn put(&self, key: u128, result: &StoredResult) {
        let payload = codec::encode(result);
        let mut inner = lock_ok(&self.inner);
        inner.stats.insertions += 1;
        if inner.append(key, &payload).is_err() {
            inner.stats.write_errors += 1;
        }
    }

    fn len(&self) -> usize {
        lock_ok(&self.inner).index.len()
    }

    fn stats(&self) -> StoreStats {
        lock_ok(&self.inner).stats
    }

    fn flush(&self) -> std::io::Result<()> {
        lock_ok(&self.inner).file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lobist-store-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn err_result(m: &str, e: &str) -> StoredResult {
        StoredResult {
            origin: 0xFEED,
            result: Err((m.to_owned(), e.to_owned())),
        }
    }

    fn err_text(s: &StoredResult) -> &str {
        match &s.result {
            Err((_, e)) => e,
            Ok(_) => panic!("expected an error entry"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
    }

    #[test]
    fn reopen_preserves_entries() {
        let path = temp_path("reopen.log");
        {
            let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
            store.put(1, &err_result("1+", "first"));
            store.put(2, &err_result("2*", "second"));
            store.put(1, &err_result("1+", "updated"));
            store.flush().expect("flush");
        }
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(err_text(&store.get(1).expect("key 1")), "updated");
        assert_eq!(err_text(&store.get(2).expect("key 2")), "second");
        assert!(store.get(3).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recovered_drops, 0);
    }

    #[test]
    fn a_panic_while_holding_the_lock_does_not_poison_the_store() {
        let path = temp_path("poison.log");
        let store =
            std::sync::Arc::new(DiskStore::open(&path, DiskStoreConfig::default()).expect("open"));
        store.put(1, &err_result("1+", "before"));
        let held = std::sync::Arc::clone(&store);
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().expect("first locker");
            panic!("handler panics while holding the store lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(store.inner.is_poisoned());
        assert_eq!(err_text(&store.get(1).expect("key 1")), "before");
        store.put(2, &err_result("1+", "after"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().insertions, 2);
        store.flush().expect("flush");
        assert_eq!(store.path(), path);
    }

    #[test]
    fn compaction_keeps_recent_entries_and_bounds_the_file() {
        let path = temp_path("compact.log");
        let store = DiskStore::open(&path, DiskStoreConfig { max_bytes: 2048 }).expect("open");
        for i in 0..200u128 {
            store.put(i, &err_result("1+", &format!("entry number {i}")));
        }
        let stats = store.stats();
        assert!(stats.compactions > 0, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(store.len() < 200);
        assert!(std::fs::metadata(&path).expect("meta").len() <= 2048);
        // The newest entry always survives.
        assert!(store.get(199).is_some());
    }

    #[test]
    fn recently_read_entries_survive_compaction_over_stale_ones() {
        let path = temp_path("lru.log");
        let store = DiskStore::open(&path, DiskStoreConfig { max_bytes: 4096 }).expect("open");
        store.put(7, &err_result("1+", "keep me"));
        let mut i = 100u128;
        // Fill until the first compaction, touching key 7 between writes
        // so it stays the most recently used entry.
        while store.stats().compactions == 0 {
            assert!(store.get(7).is_some(), "key 7 evicted before compaction");
            store.put(i, &err_result("1+", &format!("filler {i}")));
            i += 1;
        }
        assert_eq!(err_text(&store.get(7).expect("key 7")), "keep me");
    }

    #[test]
    fn pre_canonization_logs_reopen_and_skip_old_records() {
        let path = temp_path("v1compat.log");
        // Craft a version-1-era log by hand: magic plus one CRC-clean
        // record whose payload uses codec version 1 (no origin word).
        let mut v1_payload = vec![1u8, 1u8]; // codec v1, TAG_ERR
        for s in ["1+", "stale pre-canonization entry"] {
            v1_payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
            v1_payload.extend_from_slice(s.as_bytes());
        }
        let mut file = MAGIC.to_vec();
        let mut header = [0u8; RECORD_HEADER_LEN as usize];
        header[..16].copy_from_slice(&7u128.to_le_bytes());
        header[16..20].copy_from_slice(&(v1_payload.len() as u32).to_le_bytes());
        let crc = crc32(&[&header[..20], &v1_payload]);
        header[20..24].copy_from_slice(&crc.to_le_bytes());
        file.extend_from_slice(&header);
        file.extend_from_slice(&v1_payload);
        std::fs::write(&path, &file).expect("write v1 log");

        // Replay is CRC-only, so the old record opens cleanly...
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("v1 log reopens");
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().recovered_drops, 0);
        // ...but reading it skips instead of misreading: no stale hit,
        // counted as a version skip, not as corruption.
        assert!(store.get(7).is_none());
        let stats = store.stats();
        assert_eq!(stats.version_skips, 1);
        assert_eq!(stats.recovered_drops, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(store.len(), 0);
        // The same key is fully writable under the new schema.
        store.put(7, &err_result("1+", "fresh"));
        assert_eq!(err_text(&store.get(7).expect("fresh entry")), "fresh");
        assert_eq!(store.stats().version_skips, 1, "skip counted once");
    }

    #[test]
    fn non_store_files_are_refused() {
        let path = temp_path("not-a-store.log");
        std::fs::write(&path, b"#!/bin/sh\necho hello\n").expect("write");
        let err = DiskStore::open(&path, DiskStoreConfig::default()).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // And the file is untouched.
        assert!(std::fs::read(&path)
            .expect("read")
            .starts_with(b"#!/bin/sh"));
    }
}
