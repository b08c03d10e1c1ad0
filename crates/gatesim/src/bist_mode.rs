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
//! response stream and signature are prepared once per module
//! ([`SessionContext::prepare`]), and each fault only propagates
//! difference words through its cone ([`crate::diffsim::DiffSim`]). For
//! the common batch where a fault produces *no* output difference, its
//! MISR state is advanced by a precomputed linear fast-forward (the MISR
//! step is linear over GF(2), so 64 absorptions collapse into one
//! basis-XOR) instead of 64 word absorptions.

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

/// The fault-independent part of a BIST session: the packed pattern
/// batches, the golden response stream and signature, and the per-batch
/// MISR fast-forward tables. Prepared once per module and shared
/// (read-only) by every fault partition of a parallel run.
///
/// Generic over the lane width `W` (default `u64`): the wide word packs
/// 256 patterns per batch, so the per-fault session loop runs 4× fewer
/// cone walks. The pattern sequence, golden words, signature and
/// fast-forward tables are identical at every width; wider batches are
/// merely less often "clean" (the fast-forward shortcut applies only
/// when *all* of a batch's lanes are undisturbed), so the flags stay
/// byte-identical while the work shifts between the two arms.
#[derive(Debug, Clone)]
pub struct SessionContext<'n, W: LaneWord = u64> {
    net: &'n GateNetwork,
    /// `(input lane words, patterns used)` per `W::LANES`-pattern batch.
    batches: Vec<(Vec<W>, usize)>,
    /// Golden packed output word per pattern, across all batches.
    golden_words: Vec<u64>,
    /// Start of each batch's span in `golden_words`.
    batch_word_offsets: Vec<usize>,
    golden_signature: u64,
    misr_width: u32,
    /// Per batch: MISR state after absorbing the batch's golden words
    /// from state 0 (the affine constant of the batch transfer map).
    ff_const: Vec<u64>,
    /// Per batch: image of each state basis vector under the batch's
    /// word-free MISR steps (the linear part of the transfer map).
    ff_basis: Vec<Vec<u64>>,
    patterns: u64,
}

impl<'n, W: LaneWord> SessionContext<'n, W> {
    /// Prepares a session over `net` with leading control inputs held at
    /// `controls`: generates the LFSR operand streams, packs them into
    /// `W::LANES`-lane batches, records the golden response stream and
    /// signature, and builds the MISR fast-forward tables.
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
        let batches: Vec<(Vec<W>, usize)> = sequence
            .chunks(W::LANES as usize)
            .map(|chunk| {
                let mut lanes = control_lanes.clone();
                // Operand a bits, then operand b bits, one lane per
                // pattern.
                for bit in 0..width {
                    lanes.push(pack_bit(chunk, bit, false));
                }
                for bit in 0..width {
                    lanes.push(pack_bit(chunk, bit, true));
                }
                (lanes, chunk.len())
            })
            .collect();

        // Golden pass: output word per pattern plus signature.
        let mut golden_words: Vec<u64> = Vec::with_capacity(sequence.len());
        let mut batch_word_offsets = Vec::with_capacity(batches.len());
        let mut golden_misr = Misr::new(misr_width);
        let mut values: Vec<W> = Vec::new();
        let mut out: Vec<W> = Vec::new();
        for (lanes, used) in &batches {
            batch_word_offsets.push(golden_words.len());
            net.eval_all_nets_into(lanes, &mut values);
            out.clear();
            out.extend(net.outputs().iter().map(|o| values[o.index()]));
            for lane in 0..*used {
                let word = pack_outputs(&out, lane as u32);
                golden_words.push(word);
                golden_misr.absorb(word);
            }
        }
        let golden_signature = golden_misr.signature();

        // MISR fast-forward tables. Absorbing is affine over GF(2):
        // state' = L(state) ^ w, with L(s) = (s << 1 | parity(s & taps))
        // linear. Over one batch of u golden words the map is
        // s -> L^u(s) ^ c with c fixed, so per basis vector e_j we
        // record L^u(e_j) (absorb u zero words from e_j) and per batch
        // the constant c (absorb the golden words from 0, since
        // L^u(0) = 0).
        let mut ff_const = Vec::with_capacity(batches.len());
        let mut ff_basis = Vec::with_capacity(batches.len());
        for (bi, (_, used)) in batches.iter().enumerate() {
            let base = batch_word_offsets[bi];
            let mut m = Misr::new(misr_width);
            for lane in 0..*used {
                m.absorb(golden_words[base + lane]);
            }
            ff_const.push(m.signature());
            let mut basis = Vec::with_capacity(misr_width as usize);
            for j in 0..misr_width {
                let mut m = Misr::with_signature(misr_width, 1u64 << j);
                for _ in 0..*used {
                    m.absorb(0);
                }
                basis.push(m.signature());
            }
            ff_basis.push(basis);
        }

        Self {
            net,
            batches,
            golden_words,
            batch_word_offsets,
            golden_signature,
            misr_width,
            ff_const,
            ff_basis,
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
        for (bi, (lanes, used)) in self.batches.iter().enumerate() {
            sim.load_batch(lanes);
            let used_mask = W::lane_mask(*used as u64);
            let base = self.batch_word_offsets[bi];
            for (fi, &fault) in faults.iter().enumerate() {
                let any = sim.fault_output_diffs(fault);
                // Lanes beyond `used` are padding (all-zero operands),
                // not applied patterns: differences there neither detect
                // nor reach the MISR.
                if any && sim.out_diffs().iter().any(|&d| !(d & used_mask).is_zero()) {
                    ideal[fi] = true;
                    // Fold only the outputs the fault actually reached:
                    // the faulty word is the golden word with the
                    // touched positions' difference bits flipped in.
                    let diffs = sim.out_diffs();
                    let touched = sim.touched_output_positions();
                    let mut m = Misr::with_signature(self.misr_width, states[fi]);
                    for lane in 0..*used {
                        let (group, bit) = (lane / 64, lane as u32 % 64);
                        let mut d = 0u64;
                        for &pos in touched {
                            d |= ((diffs[pos as usize].word(group) >> bit) & 1) << pos;
                        }
                        m.absorb(self.golden_words[base + lane] ^ d);
                    }
                    states[fi] = m.signature();
                } else {
                    // No in-session output difference: the faulty words
                    // equal the golden words, so apply the batch's
                    // affine transfer map directly.
                    let mut s = self.ff_const[bi];
                    let mut bits = states[fi];
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        s ^= self.ff_basis[bi][j];
                        bits &= bits - 1;
                    }
                    states[fi] = s;
                }
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

    /// The pre-diffsim textbook session: full faulty re-evaluation and
    /// per-lane MISR absorption for every fault. Oracle for
    /// byte-identity tests.
    fn run_session_reference(
        net: &GateNetwork,
        controls: &[bool],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
        faults: &[Fault],
    ) -> SessionReport {
        let ctx = SessionContext::prepare(net, controls, width, patterns, seeds);
        let mut detected_ideal = 0;
        let mut detected_signature = 0;
        for &fault in faults {
            let mut misr = Misr::new(ctx.misr_width);
            let mut ideal = false;
            let mut cursor = 0usize;
            for (lanes, used) in &ctx.batches {
                let out = net.eval_lanes_with(lanes, Some(fault));
                for lane in 0..*used {
                    let word = pack_outputs(&out, lane as u32);
                    if word != ctx.golden_words[cursor] {
                        ideal = true;
                    }
                    misr.absorb(word);
                    cursor += 1;
                }
            }
            if ideal {
                detected_ideal += 1;
            }
            if misr.signature() != ctx.golden_signature {
                detected_signature += 1;
            }
        }
        SessionReport {
            total_faults: faults.len(),
            detected_ideal,
            detected_signature,
            patterns,
            golden_signature: ctx.golden_signature,
        }
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

    #[test]
    fn differential_session_is_byte_identical_to_reference() {
        for (name, net, width) in [
            ("adder4", ripple_adder(4), 4u32),
            ("sub4", subtractor(4), 4),
            ("mul4", array_multiplier(4), 4),
        ] {
            let faults = enumerate_faults(&net);
            // 100 exercises a clipped final batch, 128 exact batches.
            for patterns in [100u64, 128] {
                let fast = run_session(&net, width, patterns, (0xACE1, 0x1BAD), &faults);
                let slow = run_session_reference(
                    &net,
                    &[],
                    width,
                    patterns,
                    (0xACE1, 0x1BAD),
                    &faults,
                );
                assert_eq!(fast, slow, "{name} at {patterns} patterns");
            }
        }
    }

    #[test]
    fn alu_session_matches_reference_with_controls() {
        use lobist_dfg::OpKind;
        let net = alu(&[OpKind::Add, OpKind::And, OpKind::Xor, OpKind::Sub], 4);
        let controls = [true, false, false, false];
        let faults = enumerate_faults(&net);
        let fast = run_session_with_controls(&net, &controls, 4, 96, (5, 9), &faults);
        let slow = run_session_reference(&net, &controls, 4, 96, (5, 9), &faults);
        assert_eq!(fast, slow);
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

    #[test]
    fn wide_sessions_match_the_u64_reference() {
        use crate::lanes::W256;
        // The whole session — golden signature, per-fault ideal and
        // signature flags — must be byte-identical when the batches pack
        // 256 patterns instead of 64, for budgets aligned and
        // misaligned with every width.
        for (name, net, width) in [
            ("adder4", ripple_adder(4), 4u32),
            ("mul4", array_multiplier(4), 4),
        ] {
            let faults = enumerate_faults(&net);
            for patterns in [100u64, 128, 300, 515] {
                let seeds = (0xACE1, 0x1BAD);
                let ctx64 = SessionContext::<u64>::prepare(&net, &[], width, patterns, seeds);
                let ctx256 = SessionContext::<W256>::prepare(&net, &[], width, patterns, seeds);
                assert_eq!(ctx64.golden_signature(), ctx256.golden_signature(), "{name}");
                let mut sim64 = DiffSim::new(&net);
                let mut sim256 = DiffSim::new(&net);
                let flags = ctx64.detect_flags(&mut sim64, &faults);
                assert_eq!(
                    ctx256.detect_flags(&mut sim256, &faults),
                    flags,
                    "{name} at {patterns} patterns (W256)"
                );
                assert_eq!(
                    ctx256.report_from_flags(&flags),
                    ctx64.report_from_flags(&flags),
                    "{name}"
                );
            }
        }
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
        assert!(one.aliased() <= four.aliased(), "{} vs {}", one.aliased(), four.aliased());
        // And within one period, an 8-bit MISR aliases at most a few
        // faults out of a hundred.
        assert!(one.aliased() <= 3, "one-period aliasing {}", one.aliased());
    }
}
