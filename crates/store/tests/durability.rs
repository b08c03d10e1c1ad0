//! Durability acceptance tests for the on-disk store: write → drop →
//! reopen must return byte-identical results (property-tested over
//! randomized job results, plus a real synthesized design point), and a
//! truncated or corrupted log must recover to its intact prefix.

use std::path::PathBuf;

use proptest::prelude::*;

use lobist_alloc::explore::{evaluate_candidate_timed, Candidate, DesignPoint};
use lobist_alloc::flow::FlowOptions;
use lobist_bist::embedding::PatternSource;
use lobist_bist::{BistSolution, Embedding};
use lobist_datapath::area::{BistStyle, GateCount};
use lobist_datapath::RegisterId;
use lobist_dfg::canon::canonize;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::{benchmarks, Schedule, VarId};
use lobist_store::{codec, key, DiskStore, DiskStoreConfig, ResultStore, StoredResult};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lobist-store-durability");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A synthesized result from the real flow — the exact value the
/// engine caches.
fn real_result() -> StoredResult {
    let bench = benchmarks::ex1();
    let candidate = Candidate {
        modules: bench.module_allocation.clone(),
        schedule: bench.schedule.clone(),
    };
    let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
    let (result, _) = evaluate_candidate_timed(&bench.dfg, &candidate, &flow);
    assert!(result.is_ok(), "ex1 must synthesize");
    StoredResult {
        origin: 0x000A_11CE,
        result,
    }
}

fn stored_err(m: &str, e: &str) -> StoredResult {
    StoredResult {
        origin: 0xBEEF,
        result: Err((m.to_owned(), e.to_owned())),
    }
}

#[test]
fn real_design_point_survives_reopen_byte_identically() {
    let path = temp_path("real.log");
    let original = real_result();
    let original_bytes = codec::encode(&original);
    {
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
        store.put(42, &original);
        store.flush().expect("flush");
    }
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("reopen");
    let restored = store.get(42).expect("entry survived the restart");
    assert_eq!(codec::encode(&restored), original_bytes);
    assert_eq!(restored.origin, original.origin);
    // Spot-check the semantic fields too, not just the encoding.
    let (a, b) = (original.result.expect("ok"), restored.result.expect("ok"));
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.registers, b.registers);
    assert_eq!(a.functional_gates, b.functional_gates);
    assert_eq!(a.bist_gates, b.bist_gates);
    assert_eq!(a.bist.styles, b.bist.styles);
    assert_eq!(a.bist.sessions, b.bist.sessions);
    assert_eq!(a.schedule.as_slice(), b.schedule.as_slice());
}

/// A randomized, structurally valid-enough job result. The store never
/// interprets the semantics, so arbitrary ids and steps exercise the
/// codec just as well as real flows do — except the module set, which
/// must re-parse, so it is drawn from real sets.
fn result_strategy() -> impl Strategy<Value = StoredResult> {
    let modules = prop::sample::select(vec!["1+", "1+,1*", "1+,2*,1-", "2+,3ALU"]);
    let source = (any::<bool>(), 0u32..32).prop_map(|(reg, id)| {
        if reg {
            PatternSource::Register(RegisterId(id))
        } else {
            PatternSource::Input(VarId(id))
        }
    });
    let embedding = (source.clone(), source, 0u32..32).prop_map(|(left, right, sa)| Embedding {
        left,
        right,
        sa: RegisterId(sa),
    });
    let style = (0u8..5).prop_map(|b| match b {
        0 => BistStyle::Normal,
        1 => BistStyle::Tpg,
        2 => BistStyle::Sa,
        3 => BistStyle::Bilbo,
        _ => BistStyle::Cbilbo,
    });
    let ok = (
        modules,
        (1u32..20, 0u64..100_000, 0u64..10_000, 0usize..40),
        (
            prop::collection::vec(style, 0..16),
            prop::collection::vec(embedding, 0..8),
            prop::collection::vec(0u32..4, 0..8),
        ),
        (0u64..10_000, 0u64..1_000_000),
        prop::collection::vec(1u32..20, 0..24),
    )
        .prop_map(
            |(
                m,
                (latency, func, bist, regs),
                (styles, embeddings, sessions),
                (ov, pctm),
                steps,
            )| {
                Ok(DesignPoint {
                    modules: m.parse().expect("known-good set"),
                    latency,
                    functional_gates: GateCount(func),
                    bist_gates: GateCount(bist),
                    registers: regs,
                    bist: BistSolution {
                        styles,
                        embeddings,
                        sessions,
                        overhead: GateCount(ov),
                        overhead_percent: pctm as f64 / 1024.0,
                    },
                    schedule: Schedule::from_trusted_steps(steps),
                })
            },
        );
    let err = ("[a-z+*,0-9]{0,12}", "[ -~]{0,40}").prop_map(|(m, e)| Err((m, e)));
    // One in five results is a failure entry (the shim has no
    // `prop_oneof!`, so draw both and select).
    let result = (0u8..5, ok, err).prop_map(|(sel, ok, err)| if sel == 0 { err } else { ok });
    (any::<u64>(), result).prop_map(|(origin, result)| StoredResult { origin, result })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_drop_reopen_returns_byte_identical_results(
        results in prop::collection::vec(result_strategy(), 1..12)
    ) {
        let path = temp_path("property.log");
        let encoded: Vec<Vec<u8>> = results.iter().map(codec::encode).collect();
        {
            let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
            for (i, r) in results.iter().enumerate() {
                store.put(i as u128 + 1, r);
            }
            store.flush().expect("flush");
            // Drop without any explicit close beyond flush.
        }
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("reopen");
        prop_assert_eq!(store.len(), results.len());
        for (i, bytes) in encoded.iter().enumerate() {
            let restored = store.get(i as u128 + 1).expect("entry survived");
            prop_assert_eq!(&codec::encode(&restored), bytes);
        }
    }
}

#[test]
fn truncated_tail_recovers_to_the_intact_prefix() {
    let path = temp_path("truncated.log");
    let first = real_result();
    let first_bytes = codec::encode(&first);
    {
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
        store.put(1, &first);
        store.put(2, &stored_err("1*", "second entry"));
        store.flush().expect("flush");
    }
    // Chop bytes off the tail, cutting record 2 mid-payload — a
    // mid-append crash.
    let full = std::fs::read(&path).expect("read log");
    std::fs::write(&path, &full[..full.len() - 7]).expect("truncate");
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("recovering open");
    assert_eq!(store.len(), 1, "partial record must be dropped");
    assert_eq!(store.stats().recovered_drops, 1);
    let restored = store.get(1).expect("intact record survives");
    assert_eq!(codec::encode(&restored), first_bytes);
    assert!(store.get(2).is_none());
    // The truncated file is valid again: new writes and reopen work.
    store.put(3, &stored_err("1+", "after recovery"));
    store.flush().expect("flush");
    drop(store);
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("clean reopen");
    assert_eq!(store.stats().recovered_drops, 0);
    assert_eq!(store.len(), 2);
}

/// CRC-32 (IEEE), as the log format specifies it.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// One log record built from raw bytes: key, length, CRC, payload.
fn raw_record(key: u128, payload: &[u8]) -> Vec<u8> {
    let mut rec = key.to_le_bytes().to_vec();
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&[&rec[..], payload].concat());
    rec.extend_from_slice(&crc.to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// The result key before shift normalization (`canon2`): FNV-1a-128
/// over the domain tag, the un-rebased canonical encoding, the module
/// set and the flow bytes, each field ended by 0x1f.
fn canon2_key(encoding: &[u8], modules: &ModuleSet, flow: &FlowOptions) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let (modules, flow) = (modules.to_string(), key::flow_bytes(flow));
    let fields: [&[u8]; 4] = [b"canon2", encoding, modules.as_bytes(), &flow];
    for field in fields {
        for &b in field.iter().chain(&[0x1f]) {
            h ^= u128::from(b);
            h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    }
    h
}

/// A fragment record as the retired fragment tier wrote it: codec
/// version 2, origin word, tag 2, then size/inputs/outputs/consts.
fn fragment_payload(origin: u64) -> Vec<u8> {
    let mut p = vec![codec::FORMAT_VERSION];
    p.extend_from_slice(&origin.to_le_bytes());
    p.push(2);
    for field in [6u32, 3, 1, 2] {
        p.extend_from_slice(&field.to_le_bytes());
    }
    p
}

#[test]
fn logs_with_canon2_results_and_fragment_records_stay_compatible() {
    let path = temp_path("canon2-fragments.log");
    let bench = benchmarks::ex1();
    let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
    let modules = bench.module_allocation.clone();
    let base = canonize(&bench.dfg, &bench.schedule).encoding;
    let steps: Vec<u32> = bench.schedule.as_slice().iter().map(|s| s + 2).collect();
    let moved_schedule = Schedule::new(&bench.dfg, steps).expect("uniform shift");
    let moved = canonize(&bench.dfg, &moved_schedule).encoding;
    // A pre-change log: two canon2 result records (the shifted twin's is
    // a stale entry a lookup must never return) interleaved with two
    // fragment records under the fragment tier's namespaced keys.
    let old_ok = real_result();
    let old_err = stored_err("1+,1*", "stale canon2 entry");
    let mut log = lobist_store::disk::MAGIC.to_vec();
    log.extend(raw_record(
        canon2_key(&base, &modules, &flow),
        &codec::encode(&old_ok),
    ));
    const FRAGMENT_KEY_NS: u128 = 0x4652_4147_4652_4147_4652_4147_4652_4147;
    log.extend(raw_record(FRAGMENT_KEY_NS ^ 11, &fragment_payload(0xFEED)));
    log.extend(raw_record(
        canon2_key(&moved, &modules, &flow),
        &codec::encode(&old_err),
    ));
    log.extend(raw_record(FRAGMENT_KEY_NS ^ 12, &fragment_payload(0xF00D)));
    std::fs::write(&path, &log).expect("write the pre-change log");

    // It opens and replays: results indexed, fragments skipped and
    // counted, nothing treated as corruption.
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("old log opens");
    assert_eq!(store.len(), 2, "fragment records are not indexed");
    let stats = store.stats();
    assert_eq!(stats.version_skips, 2);
    assert_eq!(stats.recovered_drops, 0);
    // Old records never answer under the new keys...
    let (new_key, shift) = key::canonical_job_key(&moved, &modules, &flow);
    assert_eq!(shift, 2);
    assert_eq!(new_key, key::canonical_job_key(&base, &modules, &flow).0);
    assert!(store.get(new_key).is_none());
    assert!(store
        .get(key::failure_key(&moved, &modules, &flow))
        .is_none());
    // ...and are never misread: under their own keys they decode to
    // exactly the bytes that were written.
    let kept = store
        .get(canon2_key(&base, &modules, &flow))
        .expect("old record");
    assert_eq!(codec::encode(&kept), codec::encode(&old_ok));
    assert!(store.get_fragment(11).is_none());

    // New puts survive a reopen next to the old records.
    let fresh = real_result();
    store.put(new_key, &fresh);
    store.flush().expect("flush");
    drop(store);
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("reopen");
    assert_eq!(store.len(), 3);
    assert_eq!(store.stats().version_skips, 2);
    let restored = store.get(new_key).expect("new record survived");
    assert_eq!(codec::encode(&restored), codec::encode(&fresh));
}

#[test]
fn pre_fragment_logs_reopen_unchanged() {
    // A log written before fragment records existed (results only) must
    // reopen exactly as before — same entries, same bytes, no drops.
    let path = temp_path("pre-fragment.log");
    let result = real_result();
    let result_bytes = codec::encode(&result);
    {
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
        store.put(1, &result);
        store.put(2, &stored_err("1+", "plain"));
        store.flush().expect("flush");
    }
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("reopen");
    assert_eq!(store.len(), 2);
    assert_eq!(store.stats().recovered_drops, 0);
    assert_eq!(codec::encode(&store.get(1).expect("result")), result_bytes);
    assert_eq!(store.stats().version_skips, 0);
}

#[test]
fn corrupted_record_recovers_to_the_intact_prefix() {
    let path = temp_path("corrupt.log");
    {
        let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("open");
        store.put(1, &stored_err("1+", "good"));
        store.put(2, &stored_err("2*", "will be flipped"));
        store.flush().expect("flush");
    }
    // Flip one payload byte of the last record: its CRC no longer
    // matches, so replay must stop before it.
    let mut bytes = std::fs::read(&path).expect("read log");
    let last = bytes.len() - 3;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    let store = DiskStore::open(&path, DiskStoreConfig::default()).expect("recovering open");
    assert_eq!(store.len(), 1);
    assert_eq!(store.stats().recovered_drops, 1);
    assert!(matches!(store.get(1).map(|s| s.result), Some(Err((_, e))) if e == "good"));
    assert!(store.get(2).is_none());
}
