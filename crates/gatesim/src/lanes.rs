//! Configurable lane widths for parallel-pattern fault simulation.
//!
//! The differential simulator packs one pattern per bit lane. A plain
//! `u64` gives 64 lanes; [`W256`] widens a net's value to a fixed-size
//! array of four `u64` words (256 lanes), quartering the number of
//! golden passes and cone walks per pattern budget. All bitwise
//! operations are `#[inline]` loops over the array, written so the
//! compiler auto-vectorizes the branchless `GateOp::eval` chain into
//! SIMD registers on targets that have them — no unstable features,
//! no intrinsics, and the crate stays std-only
//! (`std::simd` is nightly-only as of this writing; see DESIGN.md §4g).
//!
//! `u64` implements [`LaneWord`] too and remains the executable
//! reference: the wide word is property-tested byte-identical to the
//! 64-lane path, so width selection is purely a performance knob.

use std::fmt::Debug;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// One simulation word: a fixed number of pattern lanes with the
/// bitwise operations the branchless gate evaluation needs.
///
/// Lane `l` lives in bit `l % 64` of word `l / 64`; a batch covers
/// [`LANES`](Self::LANES) consecutive patterns in lane order, so
/// pattern streams packed word-by-word consume the *same* global `u64`
/// sequence at every width (the cross-width byte-identity anchor).
pub trait LaneWord:
    Copy
    + Eq
    + Debug
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// Pattern lanes per word (64 × [`WORDS`](Self::WORDS)).
    const LANES: u64;
    /// `u64` words per lane word.
    const WORDS: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;

    /// Broadcasts one `u64` into every 64-lane group (used for the
    /// all-zero/all-one gate masks and stuck-at words).
    fn splat(word: u64) -> Self;

    /// The first `k` lanes set (`k == LANES` gives [`ONES`](Self::ONES));
    /// clips the final batch of a pattern budget.
    ///
    /// # Panics
    ///
    /// Panics if `k > Self::LANES`.
    fn lane_mask(k: u64) -> Self;

    /// Builds a word from [`WORDS`](Self::WORDS) consecutive `u64`
    /// words pulled from `next` in lane order.
    fn from_words(next: impl FnMut() -> u64) -> Self;

    /// The `i`-th 64-lane group.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::WORDS`.
    fn word(self, i: usize) -> u64;

    /// `true` when no lane is set.
    fn is_zero(self) -> bool;

    /// Index of the lowest set lane, if any — the *pattern offset* of
    /// the first detection inside a batch.
    fn first_lane(self) -> Option<u64>;
}

impl LaneWord for u64 {
    const LANES: u64 = 64;
    const WORDS: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline]
    fn splat(word: u64) -> Self {
        word
    }

    #[inline]
    fn lane_mask(k: u64) -> Self {
        assert!(k <= 64, "lane count {k} exceeds width 64");
        if k == 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    #[inline]
    fn from_words(mut next: impl FnMut() -> u64) -> Self {
        next()
    }

    #[inline]
    fn word(self, i: usize) -> u64 {
        assert_eq!(i, 0, "u64 has a single word");
        self
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn first_lane(self) -> Option<u64> {
        (self != 0).then(|| u64::from(self.trailing_zeros()))
    }
}

/// A 256-lane simulation word (`[u64; 4]`) with auto-vectorizable
/// bitwise ops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub struct W256(pub [u64; 4]);

impl W256 {
    #[inline]
    fn zip(self, rhs: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let mut out = self.0;
        for (d, s) in out.iter_mut().zip(&rhs.0) {
            *d = f(*d, *s);
        }
        Self(out)
    }
}

impl BitAnd for W256 {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a & b)
    }
}

impl BitOr for W256 {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a | b)
    }
}

impl BitXor for W256 {
    type Output = Self;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a ^ b)
    }
}

impl Not for W256 {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        Self(self.0.map(|w| !w))
    }
}

impl LaneWord for W256 {
    const LANES: u64 = 256;
    const WORDS: usize = 4;
    const ZERO: Self = Self([0; 4]);
    const ONES: Self = Self([u64::MAX; 4]);

    #[inline]
    fn splat(word: u64) -> Self {
        Self([word; 4])
    }

    #[inline]
    fn lane_mask(k: u64) -> Self {
        assert!(
            k <= Self::LANES,
            "lane count {k} exceeds width {}",
            Self::LANES
        );
        let mut out = [0u64; 4];
        for (i, w) in out.iter_mut().enumerate() {
            let lo = 64 * i as u64;
            *w = <u64 as LaneWord>::lane_mask(k.clamp(lo, lo + 64) - lo);
        }
        Self(out)
    }

    #[inline]
    fn from_words(mut next: impl FnMut() -> u64) -> Self {
        Self(std::array::from_fn(|_| next()))
    }

    #[inline]
    fn word(self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    #[inline]
    fn first_lane(self) -> Option<u64> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|i| 64 * i as u64 + u64::from(self.0[i].trailing_zeros()))
    }
}

/// The widest *profitable* lane width (64 or 256) for a **full-walk**
/// pattern budget — BIST session emulation, where every stem walks its
/// whole cone every batch so batch count is the cost driver. From 192
/// patterns up, one 256-lane batch replaces three or four narrow
/// batches and wins even after paying for the wider words (measured
/// 1.92–2.47× within run on `session_lanes_*8`, `BENCH_gatesim.json`
/// `stem_walks`); below that the padding lanes' extra walk cost eats
/// the saving. No wider word is offered: a 512-lane `[u64; 8]` word
/// measured *slower* than 256 on every session workload tried, its
/// scratch doubling the per-net footprint past the cache sweet spot.
///
/// This policy is only used for session-style runs. The random-coverage
/// loop resolves `auto` to 64 lanes instead: its walks early-exit and
/// drop detected faults, which makes cone visits width-invariant
/// (measured: identical `cone_evals` at every width), so a wider word
/// strictly adds bytes per visit there (see
/// [`crate::coverage::random_pattern_coverage_of`]).
pub fn auto_width(patterns: u64) -> u32 {
    if patterns >= 3 * 64 {
        256
    } else {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // `pat ^ pat == 0` is the identity under test
    fn check_width<W: LaneWord>() {
        assert_eq!(W::LANES, 64 * W::WORDS as u64);
        assert!(W::ZERO.is_zero());
        assert!(!W::ONES.is_zero());
        assert_eq!(W::ZERO.first_lane(), None);
        assert_eq!(W::ONES.first_lane(), Some(0));
        assert_eq!(W::lane_mask(0), W::ZERO);
        assert_eq!(W::lane_mask(W::LANES), W::ONES);
        // Identities the gate evaluation relies on.
        let pat = W::from_words({
            let mut s = 0x9E3779B97F4A7C15u64;
            move || {
                s = s.rotate_left(17).wrapping_mul(0xD1B54A32D192ED03);
                s
            }
        });
        assert_eq!(pat & W::ONES, pat);
        assert_eq!(pat | W::ZERO, pat);
        assert_eq!(pat ^ pat, W::ZERO);
        assert_eq!(!(!pat), pat);
        assert_eq!(pat & !pat, W::ZERO);
        // lane_mask(k) sets exactly lanes 0..k, in word-major order.
        for k in [1u64, 63, 64, 65, W::LANES - 1] {
            if k > W::LANES {
                continue;
            }
            let m = W::lane_mask(k);
            let ones: u32 = (0..W::WORDS).map(|i| m.word(i).count_ones()).sum();
            assert_eq!(u64::from(ones), k, "lane_mask({k})");
            assert_eq!(m.first_lane(), Some(0));
            // Lane k itself is clear.
            if k < W::LANES {
                assert_eq!((m.word(k as usize / 64) >> (k % 64)) & 1, 0);
            }
        }
        // splat repeats the word per 64-lane group.
        let s = W::splat(0xAB);
        for i in 0..W::WORDS {
            assert_eq!(s.word(i), 0xAB);
        }
    }

    #[test]
    fn all_widths_satisfy_the_lane_algebra() {
        check_width::<u64>();
        check_width::<W256>();
    }

    #[test]
    fn auto_width_picks_wide_only_past_three_narrow_batches() {
        assert_eq!(auto_width(0), 64);
        assert_eq!(auto_width(191), 64);
        assert_eq!(auto_width(192), 256);
        assert_eq!(auto_width(255), 256);
        assert_eq!(auto_width(100_000), 256);
    }

    #[test]
    fn first_lane_crosses_word_boundaries() {
        let mut w = [0u64; 4];
        w[2] = 1 << 9;
        assert_eq!(W256(w).first_lane(), Some(128 + 9));
        let mut w = [0u64; 4];
        w[3] = 1 << 63;
        assert_eq!(W256(w).first_lane(), Some(255));
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn oversized_lane_mask_panics() {
        let _ = W256::lane_mask(257);
    }

    #[test]
    fn from_words_preserves_stream_order() {
        let mut n = 0u64;
        let w = W256::from_words(|| {
            n += 1;
            n
        });
        assert_eq!(w.0, [1, 2, 3, 4]);
    }
}
