//! Full BIST-session emulation: LFSR pattern sources drive the module,
//! a MISR compacts its responses, and a fault is *BIST-detected* when the
//! faulty final signature differs from the golden one.
//!
//! The difference between ideal detection (any output mismatch on any
//! pattern) and signature detection is the MISR's *aliasing* — the
//! quality cost the paper's single-signature methodology accepts in
//! exchange for area.
//!
//! Sessions are simulated differentially: the pattern schedule, golden
//! signature and per-batch MISR maps are prepared once per module
//! ([`SessionContext::prepare`]), and each fault only propagates
//! difference words through its cone ([`crate::diffsim::DiffSim`]). A
//! MISR step is affine over GF(2), so a fault's state after a batch is
//! the batch's clean (golden-stream) map applied to its state, XOR an
//! error term that depends only on the fault's output difference words.
//! Bit `j` of that term is the parity of the difference lanes under a
//! precomputed lane mask per output position ([`SessionContext::detect_flags`]),
//! so a batch costs one basis-XOR plus, when the fault reaches an
//! output, at most `misr_width²` masked word XORs — never one MISR step
//! per pattern.

use crate::collapse::CollapsedFaults;
use crate::diffsim::DiffSim;
use crate::lanes::LaneWord;
use crate::lfsr::{Lfsr, Misr};
use crate::net::{Fault, GateNetwork};

/// The outcome of one emulated BIST session over a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Faults considered.
    pub total_faults: usize,
    /// Faults observable at the outputs on at least one pattern.
    pub detected_ideal: usize,
    /// Faults whose final MISR signature differs from the golden one.
    pub detected_signature: usize,
    /// Patterns applied.
    pub patterns: u64,
    /// The golden signature.
    pub golden_signature: u64,
}

impl SessionReport {
    /// Signature-based coverage in `0.0..=1.0`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected_signature as f64 / self.total_faults as f64
        }
    }

    /// Faults lost to signature aliasing (ideal-detected but signature
    /// identical).
    pub fn aliased(&self) -> usize {
        self.detected_ideal - self.detected_signature
    }
}

/// Per-fault session outcome: `(ideal, signature)` detection flags.
pub type DetectFlags = (bool, bool);

fn pack_outputs<W: LaneWord>(lanes: &[W], lane: u32) -> u64 {
    lanes.iter().enumerate().fold(0u64, |acc, (i, &w)| {
        acc | (((w.word(lane as usize / 64) >> (lane % 64)) & 1) << i)
    })
}

/// Parity of the number of set lanes in `w`.
fn parity<W: LaneWord>(w: W) -> u64 {
    u64::from((0..W::WORDS).fold(0u64, |p, i| p ^ w.word(i)).count_ones() & 1)
}

/// One `W::LANES`-pattern batch of a session.
#[derive(Debug, Clone)]
struct Batch<W> {
    /// Input lane words: the controls, then operand a bits, then operand
    /// b bits, one lane per pattern.
    lanes: Vec<W>,
    /// Patterns applied; the lanes past them are zero padding.
    used: usize,
    /// MISR state after absorbing the batch's golden words from state 0:
    /// the affine constant of the batch's clean transfer map.
    ff_const: u64,
    /// Index of the batch's [`BatchMap`] in [`SessionContext`]'s `maps`.
    map: usize,
}

/// The fault-independent MISR maps of every batch of one length.
///
/// Absorbing is affine over GF(2): `state' = L(state) ^ word`, with
/// `L(s) = s << 1 | parity(s & taps)` linear (one zero-word step).
/// Over a batch of `used` words `w_l` that is
/// `s -> L^used(s) ^ ⊕_l L^(used-1-l)(w_l)`. A faulty word is the golden
/// word XOR a difference word `d_l`, so the faulty state is the clean
/// map's result XOR the error `⊕_l L^(used-1-l)(d_l)`, which is linear
/// in the difference bits and independent of the state.
#[derive(Debug, Clone)]
struct BatchMap<W> {
    /// The batch length these maps serve.
    used: usize,
    /// `basis[j] = L^used(e_j)`: the linear part of the clean map.
    basis: Vec<u64>,
    /// `fold[pos * misr_width + j]`: lane `l` is set iff bit `j` of
    /// `L^(used-1-l)(e_pos)` is set — the lanes whose difference at
    /// output position `pos` flips MISR bit `j` by the batch's end.
    /// Lanes at or past `used` are clear, so padding never reaches the
    /// MISR.
    fold: Vec<W>,
}

impl<W: LaneWord> BatchMap<W> {
    fn new(misr_width: u32, used: usize) -> Self {
        let mw = misr_width as usize;
        // `v, L(v), L²(v), …`: zero-word steps of a MISR loaded with `v`.
        let powers = |v: u64| {
            let mut m = Misr::with_signature(misr_width, v);
            std::iter::once(v).chain(std::iter::repeat_with(move || {
                m.absorb(0);
                m.signature()
            }))
        };
        let basis = (0..mw)
            .map(|j| powers(1 << j).nth(used).expect("powers never end"))
            .collect();
        let mut words = vec![0u64; mw * mw * W::WORDS];
        for pos in 0..mw {
            // Lane `used - 1 - k` is absorbed `k` steps before the
            // batch ends.
            for (k, image) in powers(1 << pos).take(used).enumerate() {
                let lane = used - 1 - k;
                let mut bits = image;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    words[(pos * mw + j) * W::WORDS + lane / 64] |= 1 << (lane % 64);
                    bits &= bits - 1;
                }
            }
        }
        let mut words = words.into_iter();
        let fold = (0..mw * mw)
            .map(|_| W::from_words(|| words.next().expect("one word per lane group")))
            .collect();
        Self { used, basis, fold }
    }

    /// The clean map: `L^used(state) ^ constant`.
    fn advance(&self, constant: u64, state: u64) -> u64 {
        let mut s = constant;
        let mut bits = state;
        while bits != 0 {
            s ^= self.basis[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        s
    }

    /// The error term of difference words `diffs` (indexed by output
    /// position, non-zero only at the `touched` positions, each listed
    /// once): bit `j` is the parity of `⊕_pos diffs[pos] & fold[pos][j]`.
    /// Positions at or past the MISR width are masked off by every
    /// absorb, so they contribute nothing.
    fn error(&self, diffs: &[W], touched: &[u32]) -> u64 {
        let mw = self.basis.len();
        let mut acc = [W::ZERO; 32];
        for &pos in touched {
            let pos = pos as usize;
            if pos < mw {
                let d = diffs[pos];
                for (a, &f) in acc.iter_mut().zip(&self.fold[pos * mw..(pos + 1) * mw]) {
                    *a = *a ^ (d & f);
                }
            }
        }
        acc[..mw]
            .iter()
            .enumerate()
            .fold(0, |e, (j, &a)| e | parity(a) << j)
    }
}

/// The fault-independent part of a BIST session: the packed pattern
/// batches, the golden signature, and the MISR maps of each batch.
/// Prepared once per module and shared (read-only) by every fault
/// partition of a parallel run.
///
/// Generic over the lane width `W` (default `u64`): the wide word packs
/// 256 patterns per batch, so the per-fault session loop runs 4× fewer
/// cone walks. The pattern sequence and golden signature are identical
/// at every width, and each batch's maps are exact for its own length,
/// so the per-fault states — hence the flags — are byte-identical at
/// every width.
#[derive(Debug, Clone)]
pub struct SessionContext<'n, W: LaneWord = u64> {
    net: &'n GateNetwork,
    batches: Vec<Batch<W>>,
    /// One entry per distinct batch length: the full batches share one,
    /// a short trailing batch gets its own.
    maps: Vec<BatchMap<W>>,
    golden_signature: u64,
    patterns: u64,
}

impl<'n, W: LaneWord> SessionContext<'n, W> {
    /// Prepares a session over `net` with leading control inputs held at
    /// `controls`: generates the LFSR operand streams, packs them into
    /// `W::LANES`-lane batches, computes the golden signature, and
    /// builds each batch's MISR maps.
    ///
    /// Pattern counts beyond [`crate::lfsr::max_useful_patterns`] replay
    /// the TPG sequence; an even replay count makes the replayed errors
    /// cancel in the MISR and *increases* aliasing — keep sessions
    /// within one TPG period, as real BIST controllers do.
    ///
    /// # Panics
    ///
    /// Panics if the network's input count is not
    /// `controls.len() + 2 * width`.
    pub fn prepare(
        net: &'n GateNetwork,
        controls: &[bool],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
    ) -> Self {
        assert_eq!(
            net.inputs().len(),
            controls.len() + 2 * width as usize,
            "module must take {} controls plus two {width}-bit operands",
            controls.len()
        );
        let misr_width = width.clamp(2, 32);
        // Generate the full pattern sequence once (both operand streams)
        // and pack it into `W::LANES`-pattern lane batches so each
        // network evaluation covers that many clocks. Pattern `p` lands
        // in bit `p % 64` of 64-lane group `p / 64`, so the packed
        // streams line up across widths.
        let mut tpg_a = Lfsr::new(misr_width, seeds.0);
        let mut tpg_b = Lfsr::new(misr_width, seeds.1);
        let sequence: Vec<(u64, u64)> = (0..patterns)
            .map(|_| (tpg_a.next_word(), tpg_b.next_word()))
            .collect();
        let control_lanes: Vec<W> = controls
            .iter()
            .map(|&c| if c { W::ONES } else { W::ZERO })
            .collect();
        let pack_bit = |chunk: &[(u64, u64)], bit: u32, second: bool| -> W {
            let mut group = 0usize;
            W::from_words(|| {
                let lo = 64 * group;
                group += 1;
                let mut w = 0u64;
                for (lane, &(a, b)) in chunk.iter().enumerate().skip(lo).take(64) {
                    let v = if second { b } else { a };
                    w |= ((v >> bit) & 1) << (lane - lo);
                }
                w
            })
        };

        // Golden pass: each batch's output words feed both the session
        // signature and the batch's affine constant (absorbed from 0,
        // since L^used(0) = 0).
        let mut golden_misr = Misr::new(misr_width);
        let mut batches = Vec::new();
        let mut maps: Vec<BatchMap<W>> = Vec::new();
        let mut values: Vec<W> = Vec::new();
        let mut out: Vec<W> = Vec::new();
        for chunk in sequence.chunks(W::LANES as usize) {
            let mut lanes = control_lanes.clone();
            for bit in 0..width {
                lanes.push(pack_bit(chunk, bit, false));
            }
            for bit in 0..width {
                lanes.push(pack_bit(chunk, bit, true));
            }
            net.eval_all_nets_into(&lanes, &mut values);
            out.clear();
            out.extend(net.outputs().iter().map(|o| values[o.index()]));
            let used = chunk.len();
            let mut batch_misr = Misr::new(misr_width);
            for lane in 0..used {
                let word = pack_outputs(&out, lane as u32);
                golden_misr.absorb(word);
                batch_misr.absorb(word);
            }
            let map = match maps.iter().position(|m| m.used == used) {
                Some(i) => i,
                None => {
                    maps.push(BatchMap::new(misr_width, used));
                    maps.len() - 1
                }
            };
            batches.push(Batch {
                lanes,
                used,
                ff_const: batch_misr.signature(),
                map,
            });
        }

        Self {
            net,
            batches,
            maps,
            golden_signature: golden_misr.signature(),
            patterns,
        }
    }

    /// The session's module network.
    pub fn network(&self) -> &'n GateNetwork {
        self.net
    }

    /// Patterns the session applies.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// The golden (fault-free) final signature.
    pub fn golden_signature(&self) -> u64 {
        self.golden_signature
    }

    /// Simulates every fault through the whole session and returns its
    /// `(ideal, signature)` detection flags, in fault-list order. The
    /// flags of each fault are independent of the rest of the list, so
    /// partitioning `faults` and concatenating per-partition results is
    /// byte-identical to one call over the full list.
    ///
    /// Per batch, a fault's MISR state takes the batch's clean affine
    /// step, XOR the error term of its output differences: one masked
    /// parity per MISR bit over the difference words, with no per-pattern
    /// MISR step. A fault that reaches no output in the batch has no
    /// error term.
    ///
    /// `sim` must simulate [`network`](Self::network); its scratch
    /// buffers are reused across all faults and batches.
    ///
    /// # Panics
    ///
    /// Panics if `sim` simulates a network with a different output
    /// count.
    pub fn detect_flags(&self, sim: &mut DiffSim<'_, W>, faults: &[Fault]) -> Vec<DetectFlags> {
        assert_eq!(
            sim.network().outputs().len(),
            self.net.outputs().len(),
            "simulator does not match the session network"
        );
        let mut states = vec![0u64; faults.len()];
        let mut ideal = vec![false; faults.len()];
        if faults.is_empty() {
            return Vec::new();
        }
        for batch in &self.batches {
            sim.load_batch(&batch.lanes);
            let used_mask = W::lane_mask(batch.used as u64);
            let map = &self.maps[batch.map];
            for (fi, &fault) in faults.iter().enumerate() {
                let mut error = 0;
                // Lanes beyond `used` are padding (all-zero operands),
                // not applied patterns: differences there neither detect
                // nor reach the MISR.
                if sim.fault_output_diffs(fault) {
                    let diffs = sim.out_diffs();
                    let touched = sim.touched_output_positions();
                    if touched
                        .iter()
                        .any(|&pos| !(diffs[pos as usize] & used_mask).is_zero())
                    {
                        ideal[fi] = true;
                        error = map.error(diffs, touched);
                    }
                }
                states[fi] = map.advance(batch.ff_const, states[fi]) ^ error;
            }
        }
        faults
            .iter()
            .enumerate()
            .map(|(fi, _)| (ideal[fi], states[fi] != self.golden_signature))
            .collect()
    }

    /// Builds the session report from per-fault detection flags.
    pub fn report_from_flags(&self, flags: &[DetectFlags]) -> SessionReport {
        SessionReport {
            total_faults: flags.len(),
            detected_ideal: flags.iter().filter(|f| f.0).count(),
            detected_signature: flags.iter().filter(|f| f.1).count(),
            patterns: self.patterns,
            golden_signature: self.golden_signature,
        }
    }
}

impl CollapsedFaults {
    /// Expands per-representative session flags to the full fault
    /// universe: equivalent faults produce identical faulty response
    /// streams, hence identical ideal and signature outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `rep_flags` was not measured over exactly the
    /// representative list.
    pub fn expand_detect_flags(&self, rep_flags: &[DetectFlags]) -> Vec<DetectFlags> {
        assert_eq!(
            rep_flags.len(),
            self.representatives().len(),
            "flags do not cover the representative list"
        );
        (0..self.total_faults())
            .map(|i| rep_flags[self.class_of(i)])
            .collect()
    }
}

/// Emulates a BIST session on a two-operand module network of the given
/// operand width: two LFSRs generate the operand streams, one MISR of
/// the output width compacts the responses.
///
/// The network's inputs must be exactly the two operand words (use the
/// dedicated-unit generators; for an ALU use
/// [`run_session_with_controls`]).
///
/// # Panics
///
/// Panics if the network's input count is not `2 * width`.
pub fn run_session(
    net: &GateNetwork,
    width: u32,
    patterns: u64,
    seeds: (u64, u64),
    faults: &[Fault],
) -> SessionReport {
    run_session_with_controls(net, &[], width, patterns, seeds, faults)
}

/// As [`run_session`], for networks with leading control inputs (e.g.
/// the ALU's one-hot select lines), held at `controls` for the whole
/// session.
///
/// # Panics
///
/// Panics if the network's input count is not `controls.len() + 2 * width`.
pub fn run_session_with_controls(
    net: &GateNetwork,
    controls: &[bool],
    width: u32,
    patterns: u64,
    seeds: (u64, u64),
    faults: &[Fault],
) -> SessionReport {
    let ctx = SessionContext::<u64>::prepare(net, controls, width, patterns, seeds);
    let mut sim = DiffSim::new(net);
    let flags = ctx.detect_flags(&mut sim, faults);
    ctx.report_from_flags(&flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse_faults;
    use crate::coverage::enumerate_faults;
    use crate::modules::{alu, array_multiplier, ripple_adder, subtractor};
    use crate::net::NetworkBuilder;

    /// The pre-diffsim textbook session: golden and faulty responses by
    /// full re-evaluation ([`GateNetwork::eval_lanes_with`]) of the
    /// session's 64-pattern batches, and one MISR absorption per
    /// pattern. Oracle for byte-identity tests: returns the per-fault
    /// `(ideal, signature)` flags and the golden signature.
    fn run_session_reference(
        net: &GateNetwork,
        controls: &[bool],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
        faults: &[Fault],
    ) -> (Vec<DetectFlags>, u64) {
        let ctx = SessionContext::<u64>::prepare(net, controls, width, patterns, seeds);
        let session = |fault: Option<Fault>| {
            let mut misr = Misr::new(width.clamp(2, 32));
            let mut words = Vec::new();
            for batch in &ctx.batches {
                let out = net.eval_lanes_with(&batch.lanes, fault);
                for lane in 0..batch.used {
                    let word = pack_outputs(&out, lane as u32);
                    misr.absorb(word);
                    words.push(word);
                }
            }
            (words, misr.signature())
        };
        let (golden_words, golden_signature) = session(None);
        let flags = faults
            .iter()
            .map(|&fault| {
                let (words, signature) = session(Some(fault));
                (words != golden_words, signature != golden_signature)
            })
            .collect();
        (flags, golden_signature)
    }

    #[test]
    fn signature_detection_tracks_ideal_detection() {
        let net = ripple_adder(4);
        let faults = enumerate_faults(&net);
        let report = run_session(&net, 4, 128, (0xA5, 0x5A), &faults);
        // Signature detection can only lose to aliasing, never gain.
        assert!(report.detected_signature <= report.detected_ideal);
        // With 128 patterns and a 4-bit MISR, aliasing is possible but
        // most faults must survive compaction.
        assert!(
            report.detected_signature as f64 >= 0.8 * report.detected_ideal as f64,
            "{report:?}"
        );
        assert!(report.coverage() > 0.8, "{report:?}");
    }

    #[test]
    fn more_patterns_do_not_hurt_ideal_detection() {
        let net = ripple_adder(4);
        let faults = enumerate_faults(&net);
        let short = run_session(&net, 4, 32, (1, 2), &faults);
        let long = run_session(&net, 4, 256, (1, 2), &faults);
        assert!(long.detected_ideal >= short.detected_ideal);
    }

    #[test]
    fn fault_free_session_has_zero_detections() {
        let net = ripple_adder(4);
        let report = run_session(&net, 4, 16, (3, 4), &[]);
        assert_eq!(report.total_faults, 0);
        assert_eq!(report.aliased(), 0);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_seeds_give_distinct_signatures() {
        // An 8-bit MISR collides with probability ~1/256 per pair; use
        // several seed pairs and require at least one distinct outcome
        // per comparison partner.
        let net = ripple_adder(8);
        let a = run_session(&net, 8, 128, (1, 2), &[]);
        let b = run_session(&net, 8, 128, (7, 11), &[]);
        let c = run_session(&net, 8, 128, (99, 3), &[]);
        let signatures = [a.golden_signature, b.golden_signature, c.golden_signature];
        assert!(
            signatures.iter().any(|&s| s != signatures[0]),
            "all seeds produced signature {signatures:?}"
        );
    }

    /// Two 3-bit operands, eight outputs: the bitwise XOR, then five
    /// AND/OR outputs at positions 3..8, past a 3-bit MISR.
    fn more_outputs_than_misr() -> GateNetwork {
        let mut b = NetworkBuilder::new();
        let x = b.input_word(3);
        let y = b.input_word(3);
        let mut outputs: Vec<_> = (0..3).map(|i| b.xor(x[i], y[i])).collect();
        outputs.extend((0..3).map(|i| b.and(x[i], y[i])));
        outputs.push(b.or(x[0], y[2]));
        outputs.push(b.or(x[2], y[0]));
        b.finish(outputs)
    }

    #[test]
    fn differential_session_is_byte_identical_to_reference() {
        use crate::lanes::W256;
        use lobist_dfg::OpKind;
        fn fast<W: LaneWord>(
            net: &GateNetwork,
            controls: &[bool],
            width: u32,
            patterns: u64,
            faults: &[Fault],
        ) -> (Vec<DetectFlags>, u64) {
            let ctx =
                SessionContext::<W>::prepare(net, controls, width, patterns, (0xACE1, 0x1BAD));
            let mut sim = DiffSim::<W>::new(net);
            (ctx.detect_flags(&mut sim, faults), ctx.golden_signature())
        }
        let alu4 = alu(&[OpKind::Add, OpKind::And, OpKind::Xor, OpKind::Sub], 4);
        for (name, net, controls, width) in [
            ("adder4", ripple_adder(4), vec![], 4u32),
            ("sub4", subtractor(4), vec![], 4),
            ("mul4", array_multiplier(4), vec![], 4),
            ("alu4", alu4, vec![true, false, false, false], 4),
            ("wide3", more_outputs_than_misr(), vec![], 3),
        ] {
            let faults = enumerate_faults(&net);
            // 100 and 300 clip the final batch at both lane widths, 128
            // is exact at 64 lanes, 515 leaves a 3-pattern tail.
            for patterns in [100u64, 128, 300, 515] {
                let want = run_session_reference(
                    &net,
                    &controls,
                    width,
                    patterns,
                    (0xACE1, 0x1BAD),
                    &faults,
                );
                let at = |lanes| format!("{name} at {patterns} patterns, {lanes} lanes");
                assert_eq!(
                    fast::<u64>(&net, &controls, width, patterns, &faults),
                    want,
                    "{}",
                    at(64)
                );
                assert_eq!(
                    fast::<W256>(&net, &controls, width, patterns, &faults),
                    want,
                    "{}",
                    at(256)
                );
                if name == "wide3" {
                    // Faults seen only at positions 3..8 are detected
                    // ideally but never reach the 3-bit MISR.
                    assert!(want.0.contains(&(true, false)), "{}", at(64));
                }
            }
        }
    }

    #[test]
    fn collapsed_session_flags_expand_to_uncollapsed() {
        for (name, net, width) in [
            ("adder8", ripple_adder(8), 8u32),
            ("mul4", array_multiplier(4), 4),
        ] {
            let collapsed = collapse_faults(&net);
            let ctx = SessionContext::<u64>::prepare(&net, &[], width, 128, (0xACE1, 0x1BAD));
            let mut sim = DiffSim::new(&net);
            let full_flags = ctx.detect_flags(&mut sim, collapsed.faults());
            let rep_flags = ctx.detect_flags(&mut sim, collapsed.representatives());
            let expanded = collapsed.expand_detect_flags(&rep_flags);
            assert_eq!(expanded, full_flags, "{name}");
            assert_eq!(
                ctx.report_from_flags(&expanded),
                ctx.report_from_flags(&full_flags),
                "{name}"
            );
        }
    }

    #[test]
    fn partitioned_flags_concatenate_to_whole() {
        let net = array_multiplier(4);
        let faults = enumerate_faults(&net);
        let ctx = SessionContext::<u64>::prepare(&net, &[], 4, 128, (3, 7));
        let mut sim = DiffSim::new(&net);
        let whole = ctx.detect_flags(&mut sim, &faults);
        let mid = faults.len() / 2;
        let mut parts = ctx.detect_flags(&mut sim, &faults[..mid]);
        parts.extend(ctx.detect_flags(&mut sim, &faults[mid..]));
        assert_eq!(parts, whole);
    }
}

#[cfg(test)]
mod period_tests {
    use super::*;
    use crate::coverage::enumerate_faults;
    use crate::lfsr::max_useful_patterns;
    use crate::modules::ripple_adder;

    #[test]
    fn even_period_replay_inflates_aliasing() {
        // A session of exactly one TPG period compacts cleanly; a session
        // of four periods replays every error stream four times, and the
        // replayed contributions cancel in the same-polynomial MISR
        // (x^period ≡ 1), so aliasing can only grow.
        let net = ripple_adder(8);
        let faults = enumerate_faults(&net);
        let period = max_useful_patterns(8);
        let one = run_session(&net, 8, period, (0xACE1, 0x1BAD), &faults);
        let four = run_session(&net, 8, 4 * period + 4, (0xACE1, 0x1BAD), &faults);
        assert!(
            one.aliased() <= four.aliased(),
            "{} vs {}",
            one.aliased(),
            four.aliased()
        );
        // And within one period, an 8-bit MISR aliases at most a few
        // faults out of a hundred.
        assert!(one.aliased() <= 3, "one-period aliasing {}", one.aliased());
    }
}
