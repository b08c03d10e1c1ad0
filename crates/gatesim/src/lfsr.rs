//! Maximal-length LFSR pattern generators and MISR signature analyzers.
//!
//! Tap positions follow the standard table of primitive polynomials
//! (Xilinx XAPP052): an `n`-bit Fibonacci LFSR with these taps cycles
//! through all `2^n − 1` non-zero states. The MISR uses the same
//! feedback structure with the parallel response word XORed into the
//! state each cycle — the canonical BILBO signature-analysis mode.

/// XAPP052 tap positions (1-based, MSB = width) for widths 2..=32.
const TAPS: [&[u32]; 31] = [
    &[2, 1],           // 2
    &[3, 2],           // 3
    &[4, 3],           // 4
    &[5, 3],           // 5
    &[6, 5],           // 6
    &[7, 6],           // 7
    &[8, 6, 5, 4],     // 8
    &[9, 5],           // 9
    &[10, 7],          // 10
    &[11, 9],          // 11
    &[12, 6, 4, 1],    // 12
    &[13, 4, 3, 1],    // 13
    &[14, 5, 3, 1],    // 14
    &[15, 14],         // 15
    &[16, 15, 13, 4],  // 16
    &[17, 14],         // 17
    &[18, 11],         // 18
    &[19, 6, 2, 1],    // 19
    &[20, 17],         // 20
    &[21, 19],         // 21
    &[22, 21],         // 22
    &[23, 18],         // 23
    &[24, 23, 22, 17], // 24
    &[25, 22],         // 25
    &[26, 6, 2, 1],    // 26
    &[27, 5, 2, 1],    // 27
    &[28, 25],         // 28
    &[29, 27],         // 29
    &[30, 6, 4, 1],    // 30
    &[31, 28],         // 31
    &[32, 22, 2, 1],   // 32
];

/// The XAPP052 primitive-polynomial tap mask for `width` (bit `i` set =
/// feedback tap at stage `i + 1`). Public so other backends (e.g. the
/// Verilog BIST wrapper) can be checked for consistency against it.
///
/// # Panics
///
/// Panics if `width` is outside `2..=32`.
pub fn tap_mask(width: u32) -> u64 {
    assert!(
        (2..=32).contains(&width),
        "LFSR width must be in 2..=32, got {width}"
    );
    TAPS[(width - 2) as usize]
        .iter()
        .fold(0u64, |m, &t| m | (1u64 << (t - 1)))
}

fn state_mask(width: u32) -> u64 {
    (1u64 << width) - 1
}

/// A Fibonacci LFSR producing maximal-length pseudo-random words.
///
/// # Examples
///
/// ```
/// use lobist_gatesim::lfsr::Lfsr;
///
/// let mut l = Lfsr::new(8, 1);
/// let first = l.next_word();
/// assert_ne!(first, l.next_word());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    state: u64,
    taps: u64,
}

impl Lfsr {
    /// Creates an LFSR. A zero `seed` is replaced by 1 (the all-zero
    /// state is the lock-up state of an XOR LFSR).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32`.
    pub fn new(width: u32, seed: u64) -> Self {
        let taps = tap_mask(width);
        let state = {
            let s = seed & state_mask(width);
            if s == 0 {
                1
            } else {
                s
            }
        };
        Self { width, state, taps }
    }

    /// The LFSR width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current state without advancing.
    pub fn peek(&self) -> u64 {
        self.state
    }

    /// Advances one clock and returns the new state word.
    pub fn next_word(&mut self) -> u64 {
        let feedback = (self.state & self.taps).count_ones() & 1;
        self.state = ((self.state << 1) | u64::from(feedback)) & state_mask(self.width);
        self.state
    }

    /// The register's bit stream over `steps` clocks, packed 64 bits per
    /// word: bit `b` of the state after `k` clocks (the current state at
    /// `k = 0`) is stream bit `width - 1 + k - b`. A clock shifts the
    /// state up one bit and feeds the tap parity in at bit 0, so all the
    /// states are windows of this one stream. Every bit of every
    /// returned word is a stream bit, so the stream runs on past
    /// `width + steps` bits to the end of its last word. The register
    /// itself does not advance.
    ///
    /// The stream obeys `x[i] = ⊕_t x[i - 1 - t]` over the taps `t`, and
    /// squaring its characteristic polynomial six times over GF(2) gives
    /// `x[i] = ⊕_t x[i - 64(1 + t)]`: past the first `width` words, each
    /// word is the XOR of earlier words, with no clock per bit.
    pub(crate) fn stream(&self, steps: u64) -> Vec<u64> {
        let n = self.width as usize;
        let words = (n + steps as usize).div_ceil(64);
        let mut bits = vec![0u64; words];
        for j in 0..n {
            bits[0] |= ((self.state >> j) & 1) << (n - 1 - j);
        }
        let mut clocked = self.clone();
        for i in n..words.min(n) * 64 {
            bits[i / 64] |= (clocked.next_word() & 1) << (i % 64);
        }
        for q in n..words {
            bits[q] = (0..n)
                .filter(|t| (self.taps >> t) & 1 == 1)
                .fold(0, |w, t| w ^ bits[q - 1 - t]);
        }
        bits
    }

    /// The sequence period (for testing): number of steps to return to
    /// the initial state.
    ///
    /// # Panics
    ///
    /// Panics if the period exceeds `2^width` (impossible for a valid
    /// LFSR).
    pub fn period(&self) -> u64 {
        let mut copy = self.clone();
        let start = copy.peek();
        let limit = 1u64 << self.width;
        for i in 1..=limit {
            if copy.next_word() == start {
                return i;
            }
        }
        panic!("LFSR period exceeded 2^width");
    }
}

/// The number of useful patterns a `width`-bit LFSR TPG can supply: its
/// period `2^w − 1`. Sessions longer than this replay the sequence; worse,
/// a replay count that is even cancels *all* replayed error contributions
/// in a same-polynomial MISR (because `x^period ≡ 1` mod the feedback
/// polynomial), silently inflating aliasing. Keep sessions at or below
/// this length.
pub fn max_useful_patterns(width: u32) -> u64 {
    assert!((2..=32).contains(&width), "LFSR width must be in 2..=32");
    (1u64 << width) - 1
}

/// A multiple-input signature register: compacts a stream of response
/// words into a `width`-bit signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    width: u32,
    state: u64,
    taps: u64,
}

impl Misr {
    /// Creates a MISR with an all-zero initial signature.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32`.
    pub fn new(width: u32) -> Self {
        Self::with_signature(width, 0)
    }

    /// Creates a MISR resuming from a previously captured signature —
    /// used by the session emulator to walk the zero-word powers of a
    /// basis state.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32` or `state` has bits beyond
    /// `width`.
    pub fn with_signature(width: u32, state: u64) -> Self {
        let taps = tap_mask(width);
        assert_eq!(state & !state_mask(width), 0, "state exceeds MISR width");
        Self { width, state, taps }
    }

    /// Absorbs one response word.
    pub fn absorb(&mut self, word: u64) {
        let feedback = (self.state & self.taps).count_ones() & 1;
        self.state = (((self.state << 1) | u64::from(feedback)) ^ word) & state_mask(self.width);
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_periods_are_maximal_for_small_widths() {
        for width in 2..=16u32 {
            let l = Lfsr::new(width, 1);
            assert_eq!(l.period(), (1u64 << width) - 1, "width {width}");
        }
    }

    #[test]
    fn every_state_is_a_window_of_the_stream() {
        // Past `64 * width` bits the words come from the word
        // recurrence, so budgets run well past it at every width.
        for width in 2..=32u32 {
            for (seed, steps) in [
                (1u64, 0u64),
                (0xACE1, 63),
                (0x1BAD, 64 * u64::from(width) + 300),
            ] {
                let mut l = Lfsr::new(width, seed);
                let stream = l.stream(steps);
                let n = width as u64;
                assert_eq!(stream.len() as u64, (n + steps).div_ceil(64));
                let bit = |i: u64| (stream[(i / 64) as usize] >> (i % 64)) & 1;
                for k in 0..=steps {
                    let state = if k == 0 { l.peek() } else { l.next_word() };
                    let window = (0..n).fold(0, |s, b| s | bit(n - 1 + k - b) << b);
                    assert_eq!(window, state, "width {width}, seed {seed:#x}, clock {k}");
                }
                // The stream runs on to the end of its last word.
                for i in n + steps..64 * stream.len() as u64 {
                    let state = l.next_word();
                    assert_eq!(bit(i), state & 1, "width {width}, stream bit {i}");
                }
            }
        }
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let l = Lfsr::new(8, 0);
        assert_ne!(l.peek(), 0);
        let mut l2 = Lfsr::new(8, 256); // masks to 0 → fixed to 1
        assert_eq!(l2.peek(), 1);
        assert_ne!(l2.next_word(), 0);
    }

    #[test]
    fn lfsr_never_reaches_zero() {
        let mut l = Lfsr::new(6, 5);
        for _ in 0..200 {
            assert_ne!(l.next_word(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 2..=32")]
    fn width_bounds_checked() {
        Lfsr::new(1, 1);
    }

    #[test]
    fn misr_distinguishes_streams() {
        let mut a = Misr::new(16);
        let mut b = Misr::new(16);
        for i in 0..100u64 {
            a.absorb(i & 0xFFFF);
            b.absorb((i ^ u64::from(i == 50)) & 0xFFFF); // one-bit difference at step 50
        }
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn misr_is_deterministic() {
        let run = || {
            let mut m = Misr::new(8);
            for i in 0..32u64 {
                m.absorb(i * 7 % 256);
            }
            m.signature()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aliasing_probability_is_low() {
        // Random error streams collide with the golden signature at rate
        // ≈ 2^-w; over 500 random corruptions of a stream, a 16-bit MISR
        // should alias rarely (expected 500/65536 ≈ 0.008 cases).
        let golden = {
            let mut m = Misr::new(16);
            for i in 0..64u64 {
                m.absorb(i.wrapping_mul(2654435761) & 0xFFFF);
            }
            m.signature()
        };
        let mut aliases = 0;
        let mut x = 0x12345678u64;
        for _ in 0..500 {
            // xorshift to pick a corruption position and nonzero value
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bad_step = x % 64;
            let bad_value = ((x >> 8) & 0xFFFF) | 1;
            let mut m = Misr::new(16);
            for i in 0..64u64 {
                let corrupt = if i == bad_step { bad_value } else { 0 };
                m.absorb((i.wrapping_mul(2654435761) ^ corrupt) & 0xFFFF);
            }
            if m.signature() == golden {
                aliases += 1;
            }
        }
        assert!(aliases <= 5, "{aliases} aliases in 500 corrupted streams");
    }
}
