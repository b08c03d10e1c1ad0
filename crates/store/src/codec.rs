//! A versioned, byte-stable binary encoding of [`StoredResult`].
//!
//! The encoding is hand-rolled (the workspace is dependency-free) and
//! deliberately boring: little-endian fixed-width integers, `u32`
//! length-prefixed byte strings, one tag byte per enum. Floats are
//! stored as their IEEE-754 bit pattern, so a decode → re-encode round
//! trip is byte-identical — the property the store's durability tests
//! and the daemon's repeated-request guarantee both rest on.
//!
//! Every payload starts with a one-byte format version; decoding an
//! unknown version fails cleanly instead of misreading the bytes, so a
//! future format change invalidates old records rather than corrupting
//! them. Version 2 (the canonical-key schema) added the producing
//! submission's origin fingerprint after the version byte; version-1
//! records from pre-canonization stores are rejected as
//! [`CodecError::UnknownVersion`] and skipped by the disk store.

use std::fmt;

use lobist_alloc::explore::DesignPoint;
use lobist_bist::embedding::PatternSource;
use lobist_bist::{BistSolution, Embedding};
use lobist_datapath::area::{BistStyle, GateCount};
use lobist_datapath::RegisterId;
use lobist_dfg::{Schedule, VarId};

use crate::{JobResult, StoredResult};

/// Codec format version (the first payload byte).
pub const FORMAT_VERSION: u8 = 2;

const TAG_OK: u8 = 0;
const TAG_ERR: u8 = 1;
/// Record kind written by the retired fragment tier: the payload
/// described a canonical DFG fragment sighting, not a job result. Still
/// format version 2, with the tag in the position result records use.
/// Nothing writes it any more; [`is_fragment`] lets replay skip the
/// records older logs still hold.
const TAG_FRAG: u8 = 2;
/// Offset of the result tag: after the version byte and the origin word.
const TAG_OFFSET: usize = 1 + 8;

const SOURCE_REGISTER: u8 = 0;
const SOURCE_INPUT: u8 = 1;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload's version byte is not [`FORMAT_VERSION`].
    UnknownVersion(u8),
    /// The payload ended before the structure did.
    Truncated,
    /// The payload decoded fully but left trailing bytes.
    TrailingBytes(usize),
    /// A tag byte had no defined meaning.
    BadTag(&'static str, u8),
    /// A stored string was not valid UTF-8.
    BadUtf8,
    /// The stored module-set string no longer parses.
    BadModuleSet(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnknownVersion(v) => write!(f, "unknown codec version {v}"),
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s)"),
            CodecError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            CodecError::BadUtf8 => write!(f, "string is not UTF-8"),
            CodecError::BadModuleSet(s) => write!(f, "stored module set `{s}` does not parse"),
        }
    }
}

impl std::error::Error for CodecError {}

fn style_to_u8(s: BistStyle) -> u8 {
    match s {
        BistStyle::Normal => 0,
        BistStyle::Tpg => 1,
        BistStyle::Sa => 2,
        BistStyle::Bilbo => 3,
        BistStyle::Cbilbo => 4,
    }
}

fn style_from_u8(b: u8) -> Result<BistStyle, CodecError> {
    Ok(match b {
        0 => BistStyle::Normal,
        1 => BistStyle::Tpg,
        2 => BistStyle::Sa,
        3 => BistStyle::Bilbo,
        4 => BistStyle::Cbilbo,
        other => return Err(CodecError::BadTag("bist style", other)),
    })
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
    fn source(&mut self, s: PatternSource) {
        match s {
            PatternSource::Register(r) => {
                self.u8(SOURCE_REGISTER);
                self.u32(r.0);
            }
            PatternSource::Input(v) => {
                self.u8(SOURCE_INPUT);
                self.u32(v.0);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// A `u32` item count, checked against the bytes left before anything
    /// is allocated for it: each item takes at least `min_bytes`, so a
    /// count the payload cannot hold is a truncation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    fn string(&mut self) -> Result<String, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }
    fn source(&mut self) -> Result<PatternSource, CodecError> {
        match self.u8()? {
            SOURCE_REGISTER => Ok(PatternSource::Register(RegisterId(self.u32()?))),
            SOURCE_INPUT => Ok(PatternSource::Input(VarId(self.u32()?))),
            other => Err(CodecError::BadTag("pattern source", other)),
        }
    }
}

/// A fragment sighting as the retired fragment tier described it. No
/// store reads or writes these any more; the type remains only because
/// [`ResultStore::get_fragment`](crate::ResultStore::get_fragment) and
/// [`ResultStore::put_fragment`](crate::ResultStore::put_fragment) (both
/// default no-ops) name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentRecord {
    /// Origin fingerprint of the first design exhibiting the fragment.
    pub origin: u64,
    /// Operations in the fragment.
    pub size: u32,
    /// External values feeding the fragment.
    pub inputs: u32,
    /// Values produced inside and visible outside.
    pub outputs: u32,
    /// Inline constant operands.
    pub consts: u32,
}

/// `true` if `payload` is a fragment record an older log holds: the
/// current format version with the fragment tag where result records
/// keep theirs. Replay skips these instead of indexing them.
pub fn is_fragment(payload: &[u8]) -> bool {
    payload.first() == Some(&FORMAT_VERSION) && payload.get(TAG_OFFSET) == Some(&TAG_FRAG)
}

/// Serializes one stored result as a self-describing byte payload.
pub fn encode(stored: &StoredResult) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(128));
    w.u8(FORMAT_VERSION);
    w.u64(stored.origin);
    match &stored.result {
        Ok(p) => {
            w.u8(TAG_OK);
            w.bytes(p.modules.to_string().as_bytes());
            w.u32(p.latency);
            w.u64(p.functional_gates.get());
            w.u64(p.bist_gates.get());
            w.u64(p.registers as u64);
            w.u32(p.bist.styles.len() as u32);
            for &s in &p.bist.styles {
                w.u8(style_to_u8(s));
            }
            w.u32(p.bist.embeddings.len() as u32);
            for e in &p.bist.embeddings {
                w.source(e.left);
                w.source(e.right);
                w.u32(e.sa.0);
            }
            w.u32(p.bist.sessions.len() as u32);
            for &s in &p.bist.sessions {
                w.u32(s);
            }
            w.u64(p.bist.overhead.get());
            w.u64(p.bist.overhead_percent.to_bits());
            w.u32(p.schedule.len() as u32);
            for &s in p.schedule.as_slice() {
                w.u32(s);
            }
        }
        Err((modules, error)) => {
            w.u8(TAG_ERR);
            w.bytes(modules.as_bytes());
            w.bytes(error.as_bytes());
        }
    }
    w.0
}

/// Reconstructs a stored result from a payload produced by [`encode`].
///
/// # Errors
///
/// Returns [`CodecError`] if the payload is from an unknown format
/// version, truncated, carries trailing bytes, or contains a value no
/// current type maps to.
pub fn decode(payload: &[u8]) -> Result<StoredResult, CodecError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnknownVersion(version));
    }
    let origin = r.u64()?;
    let result: JobResult = match r.u8()? {
        TAG_OK => {
            let modules_text = r.string()?;
            let modules = modules_text
                .parse()
                .map_err(|_| CodecError::BadModuleSet(modules_text))?;
            let latency = r.u32()?;
            let functional_gates = GateCount(r.u64()?);
            let bist_gates = GateCount(r.u64()?);
            let registers = r.u64()? as usize;
            let n = r.count(1)?;
            let mut styles = Vec::with_capacity(n);
            for _ in 0..n {
                styles.push(style_from_u8(r.u8()?)?);
            }
            // Two tagged pattern sources and a register: 14 bytes.
            let n = r.count(14)?;
            let mut embeddings = Vec::with_capacity(n);
            for _ in 0..n {
                let left = r.source()?;
                let right = r.source()?;
                let sa = RegisterId(r.u32()?);
                embeddings.push(Embedding { left, right, sa });
            }
            let n = r.count(4)?;
            let mut sessions = Vec::with_capacity(n);
            for _ in 0..n {
                sessions.push(r.u32()?);
            }
            let overhead = GateCount(r.u64()?);
            let overhead_percent = f64::from_bits(r.u64()?);
            let n = r.count(4)?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(r.u32()?);
            }
            Ok(DesignPoint {
                modules,
                latency,
                functional_gates,
                bist_gates,
                registers,
                bist: BistSolution {
                    styles,
                    embeddings,
                    sessions,
                    overhead,
                    overhead_percent,
                },
                schedule: Schedule::from_trusted_steps(steps),
            })
        }
        TAG_ERR => Err((r.string()?, r.string()?)),
        other => return Err(CodecError::BadTag("result", other)),
    };
    if r.pos != payload.len() {
        return Err(CodecError::TrailingBytes(payload.len() - r.pos));
    }
    Ok(StoredResult { origin, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> DesignPoint {
        DesignPoint {
            modules: "1+,2*".parse().expect("valid"),
            latency: 4,
            functional_gates: GateCount(1234),
            bist_gates: GateCount(56),
            registers: 5,
            bist: BistSolution {
                styles: vec![
                    BistStyle::Tpg,
                    BistStyle::Normal,
                    BistStyle::Sa,
                    BistStyle::Bilbo,
                    BistStyle::Cbilbo,
                ],
                embeddings: vec![
                    Embedding::with_registers(RegisterId(0), RegisterId(1), RegisterId(2)),
                    Embedding {
                        left: PatternSource::Input(VarId(3)),
                        right: PatternSource::Register(RegisterId(4)),
                        sa: RegisterId(0),
                    },
                ],
                sessions: vec![0, 1],
                overhead: GateCount(78),
                overhead_percent: 6.3125,
            },
            schedule: Schedule::from_trusted_steps(vec![1, 1, 2, 3]),
        }
    }

    fn stored(result: JobResult) -> StoredResult {
        StoredResult {
            origin: 0x0123_4567_89AB_CDEF,
            result,
        }
    }

    #[test]
    fn ok_round_trip_is_byte_identical() {
        let original = stored(Ok(sample_point()));
        let bytes = encode(&original);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(encode(&decoded), bytes);
        assert_eq!(decoded.origin, original.origin);
        let p = decoded.result.expect("ok");
        assert_eq!(p.modules.to_string(), "1+,2*");
        assert_eq!(p.latency, 4);
        assert_eq!(p.registers, 5);
        assert_eq!(p.bist.styles.len(), 5);
        assert_eq!(p.bist.overhead_percent, 6.3125);
        assert_eq!(p.schedule.as_slice(), &[1, 1, 2, 3]);
    }

    #[test]
    fn err_round_trip_is_byte_identical() {
        let original = stored(Err(("1+,1*".into(), "no BIST embedding for M2".into())));
        let bytes = encode(&original);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(encode(&decoded), bytes);
        assert_eq!(decoded.origin, original.origin);
        assert!(matches!(decoded.result, Err((m, e))
            if m == "1+,1*" && e == "no BIST embedding for M2"));
    }

    #[test]
    fn truncation_anywhere_fails_cleanly() {
        let bytes = encode(&stored(Ok(sample_point())));
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("truncated payload must not decode");
            assert!(
                matches!(err, CodecError::Truncated | CodecError::UnknownVersion(_)),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&stored(Ok(sample_point())));
        bytes.push(0);
        let err = decode(&bytes).expect_err("trailing bytes must fail");
        assert_eq!(err, CodecError::TrailingBytes(1));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = encode(&stored(Err(("m".into(), "e".into()))));
        bytes[0] = 99;
        let err = decode(&bytes).expect_err("unknown version must fail");
        assert_eq!(err, CodecError::UnknownVersion(99));
    }

    #[test]
    fn pre_canonization_v1_payloads_are_rejected_not_misread() {
        // A version-1 payload (no origin word): version byte, TAG_ERR,
        // two length-prefixed strings. Must fail with UnknownVersion(1),
        // never decode as garbage.
        let mut v1 = vec![1u8, TAG_ERR];
        for s in ["1+", "stale entry"] {
            v1.extend_from_slice(&(s.len() as u32).to_le_bytes());
            v1.extend_from_slice(s.as_bytes());
        }
        let err = decode(&v1).expect_err("v1 must be rejected");
        assert_eq!(err, CodecError::UnknownVersion(1));
    }

    #[test]
    fn fragment_payloads_are_recognized_and_never_decode_as_results() {
        // The layout the retired fragment tier wrote: version, origin,
        // tag, then four u32 fields.
        let mut frag = vec![FORMAT_VERSION];
        frag.extend_from_slice(&1u64.to_le_bytes());
        frag.push(TAG_FRAG);
        for field in [2u32, 3, 1, 0] {
            frag.extend_from_slice(&field.to_le_bytes());
        }
        assert!(is_fragment(&frag));
        assert_eq!(
            decode(&frag).expect_err("result decoder must refuse fragments"),
            CodecError::BadTag("result", TAG_FRAG)
        );
        assert!(!is_fragment(&encode(&stored(Err(("m".into(), "e".into()))))));
        assert!(!is_fragment(&encode(&stored(Ok(sample_point())))));
        assert!(!is_fragment(&frag[..TAG_OFFSET]));
    }

    #[test]
    fn a_count_the_payload_cannot_hold_is_truncation_not_an_allocation() {
        // Version, origin, the ok tag, a valid module set, the scalar
        // fields, no styles, then u32::MAX embeddings: 52 bytes that once
        // asked for an 85 GB vector and aborted the process.
        let mut p = vec![FORMAT_VERSION];
        p.extend_from_slice(&0u64.to_le_bytes());
        p.push(TAG_OK);
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(b"1+");
        p.extend_from_slice(&1u32.to_le_bytes());
        for _ in 0..3 {
            p.extend_from_slice(&1u64.to_le_bytes());
        }
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(p.len(), 52);
        assert_eq!(decode(&p).expect_err("cannot hold"), CodecError::Truncated);
    }

    #[test]
    fn mutated_payloads_decode_or_fail_without_aborting() {
        let ok = encode(&stored(Ok(sample_point())));
        let err = encode(&stored(Err(("1+,1*".into(), "no BIST embedding".into()))));
        // Offsets of the four item counts in `ok`: after the version,
        // origin, tag, the module-set string "1+,2*" and the four scalar
        // fields; then past 5 styles, 2 embeddings of 14 bytes, and 2
        // sessions plus the overhead and its percentage.
        let styles = 1 + 8 + 1 + (4 + 5) + 4 + 8 + 8 + 8;
        let embeddings = styles + 4 + 5;
        let sessions = embeddings + 4 + 2 * 14;
        let steps = sessions + 4 + 2 * 4 + 8 + 8;
        let counts = [styles, embeddings, sessions, steps];
        assert_eq!(ok[steps..steps + 4], 4u32.to_le_bytes(), "four schedule steps");
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for case in 0..12_000 {
            let mut p = if case % 4 == 3 { err.clone() } else { ok.clone() };
            match case % 3 {
                0 => {
                    for _ in 0..=next(3) {
                        let at = next(p.len());
                        p[at] ^= 1 << next(8);
                    }
                }
                1 if p.len() == ok.len() => {
                    let at = counts[next(counts.len())];
                    let large = [u32::MAX, 1 << 31, 1 << 20, next(1 << 16) as u32 + 5];
                    p[at..at + 4].copy_from_slice(&large[next(large.len())].to_le_bytes());
                }
                _ => p.truncate(next(p.len())),
            }
            // Either outcome is fine; an abort or a panic fails the test.
            let _ = decode(&p);
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut bytes = encode(&stored(Err(("m".into(), "e".into()))));
        bytes[TAG_OFFSET] = 7;
        let err = decode(&bytes).expect_err("bad tag must fail");
        assert_eq!(err, CodecError::BadTag("result", 7));
    }
}
