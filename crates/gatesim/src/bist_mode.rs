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
//! signature, per-batch MISR maps and the network's stems are prepared
//! once per module ([`SessionContext::prepare`]), and difference words
//! propagate only through cones ([`crate::diffsim::DiffSim`]). A MISR
//! step is affine over GF(2), so a fault's state after a batch is the
//! batch's clean (golden-stream) map applied to its state, XOR an error
//! term that depends only on the fault's output difference words. Bit
//! `j` of that term is the parity of the difference lanes under a
//! precomputed lane mask per output position, so a batch never costs
//! one MISR step per pattern.
//!
//! One cone walk per batch serves every fault behind a *stem* (a net
//! with two or more consumer gates, a primary output, or no consumer):
//! each other net reaches the outputs only through its one consumer
//! gate, so its faults' output differences are the stem walk's,
//! masked to the lanes where the fault is excited and reaches the stem
//! ([`SessionContext::detect_flags`]).

use crate::collapse::CollapsedFaults;
use crate::diffsim::DiffSim;
use crate::fanout::Fanout;
use crate::lanes::LaneWord;
use crate::lfsr::{tap_mask, Lfsr, Misr};
use crate::net::{eval_gate, Fault, GateNetwork, NetId};

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

/// Bits `at..` of the packed bit string `bits`, bit `at + l` in lane
/// `l`; lanes at or past `used`, and bits past the string's end, are
/// clear.
fn lanes_at<W: LaneWord>(bits: &[u64], at: usize, used: usize) -> W {
    let word = |i: usize| bits.get(i).copied().unwrap_or(0);
    let mut at = at;
    W::from_words(|| {
        let (i, s) = (at / 64, at % 64);
        at += 64;
        match s {
            0 => word(i),
            _ => word(i) >> s | word(i + 1) << (64 - s),
        }
    }) & W::lane_mask(used as u64)
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
    /// the affine constant of the batch's clean transfer map. It is the
    /// error term of the golden words read as differences
    /// ([`BatchMap::constant`]).
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
    /// The maps of a batch of `used >= 1` patterns, from one walk of
    /// `e_0`'s zero-word powers.
    ///
    /// A zero-word step shifts the state up one bit and feeds the tap
    /// parity in at bit 0, so bit `j` of `L^k(v)` is bit 0 of
    /// `L^(k-j)(v)` (bit `j - k` of `v` while `k < j`): all the powers of
    /// `v` are windows of one bit stream `z_v`. Stored in reverse, bit
    /// `i` being `z_v[top - i]` for `top = used + mw - 1`, lane `l` of
    /// `fold[pos][j]` is bit `mw + l + j` of `e_pos`'s stream, and bit
    /// `j` of `basis[pos] = L^used(e_pos)` is its bit `mw - 1 + j`. For
    /// `pos >= 1`, `e_pos = L(e_(pos-1)) ^ t e_0` with `t` the tap bit
    /// `pos - 1`, so `e_pos`'s stream is the previous one shifted up a
    /// bit, XOR `t` times `e_0`'s. Each shift spoils one more bit at the
    /// bottom, but the bits read start at `mw - 1 >= pos`.
    fn new(misr_width: u32, used: usize) -> Self {
        let mw = misr_width as usize;
        let top = used + mw - 1;
        let mut first = vec![0u64; (top + mw).div_ceil(64)];
        let mut misr = Misr::with_signature(misr_width, 1);
        first[top / 64] |= 1 << (top % 64);
        for k in 1..=top {
            misr.absorb(0);
            first[(top - k) / 64] |= (misr.signature() & 1) << ((top - k) % 64);
        }
        let taps = tap_mask(misr_width);
        let mut stream = first.clone();
        let mut basis = Vec::with_capacity(mw);
        let mut fold = Vec::with_capacity(mw * mw);
        for pos in 0..mw {
            if pos > 0 {
                let t = 0u64.wrapping_sub((taps >> (pos - 1)) & 1);
                let mut carry = 0;
                for (w, &f) in stream.iter_mut().zip(&first) {
                    (*w, carry) = ((*w << 1 | carry) ^ (f & t), *w >> 63);
                }
            }
            basis.push(lanes_at::<u64>(&stream, mw - 1, mw));
            fold.extend((0..mw).map(|j| lanes_at::<W>(&stream, mw + j, used)));
        }
        Self { used, basis, fold }
    }

    /// The batch's affine constant: its golden output words `out`
    /// absorbed from state 0. That state is `⊕_l L^(used-1-l)(w_l)`, the
    /// error term of the golden words read as differences, so it is
    /// their fold over every lane. `positions` lists every output
    /// position once.
    fn constant(&self, out: &[W], positions: &[u32], acc: &mut Vec<W>) -> u64 {
        acc.resize(self.basis.len(), W::ZERO);
        self.fold_into(out, positions, acc);
        error_bits(acc, W::ONES)
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

    /// Folds difference words `diffs` (indexed by output position,
    /// non-zero only at the `touched` positions, each listed once) into
    /// `acc[j] = ⊕_pos diffs[pos] & fold[pos][j]`, one word per MISR
    /// bit. The error term of the differences in lanes `m` has bit `j`
    /// equal to `parity(acc[j] & m)` ([`error_bits`]). Positions at or
    /// past the MISR width are masked off by every absorb, so they
    /// contribute nothing.
    fn fold_into(&self, diffs: &[W], touched: &[u32], acc: &mut [W]) {
        let mw = self.basis.len();
        acc.fill(W::ZERO);
        for &pos in touched {
            let pos = pos as usize;
            if pos < mw {
                let d = diffs[pos];
                for (a, &f) in acc.iter_mut().zip(&self.fold[pos * mw..(pos + 1) * mw]) {
                    *a = *a ^ (d & f);
                }
            }
        }
    }
}

/// The MISR error term of the folded differences `acc` restricted to
/// lanes `m`: bit `j` is `parity(acc[j] & m)`.
fn error_bits<W: LaneWord>(acc: &[W], m: W) -> u64 {
    acc.iter()
        .enumerate()
        .fold(0, |e, (j, &a)| e | parity(a & m) << j)
}

/// `stem_gate` entry of a stem: it has no single consumer to follow.
const STEM: u32 = u32::MAX;

/// [`SessionContext::stem_order`] over a stem table; not generic, so
/// every lane width shares one sort.
fn group_by_stem(stem: &[u32], faults: &[Fault]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&fi| stem[faults[fi].net.index()]);
    order
}

/// A fault list grouped by stem, built once per
/// [`SessionContext::detect_flags`] call.
struct StemPlan {
    /// Fault-list indices grouped by stem, stems ascending, list order
    /// within a group.
    order: Vec<usize>,
    /// The fanout-free nets whose reach masks the groups need: the nets
    /// on the chains from each fault site up to its stem, descending
    /// within a group so that a net's consumer output comes first.
    chain: Vec<usize>,
    /// Per group: its stem and the ends of its runs in `order` and
    /// `chain`.
    groups: Vec<(usize, usize, usize)>,
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
    /// Per net: the stem its chain of single consumers leads to (the
    /// net itself when it is a stem).
    stem: Vec<u32>,
    /// Per net: its one consumer gate, or [`STEM`].
    stem_gate: Vec<u32>,
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
        // Pack both operand streams into `W::LANES`-pattern lane batches
        // so each network evaluation covers that many clocks. Pattern
        // `p` lands in bit `p % 64` of 64-lane group `p / 64`, so the
        // packed streams line up across widths. Pattern `p` is a TPG's
        // state after `p + 1` clocks, so its bit `b` is stream bit
        // `n + p - b` (`Lfsr::stream`), and a batch's lane word for bit
        // `b` is a window of that stream.
        let n = misr_width as usize;
        let streams = [seeds.0, seeds.1].map(|s| Lfsr::new(misr_width, s).stream(patterns));
        let control_lanes: Vec<W> = controls
            .iter()
            .map(|&c| if c { W::ONES } else { W::ZERO })
            .collect();
        let positions: Vec<u32> = (0..net.outputs().len() as u32).collect();

        // Golden pass: each batch's constant is its golden output words'
        // fold, and the session signature chains the batches' clean
        // maps from state 0.
        let mut golden_signature = 0;
        let mut batches = Vec::new();
        let mut maps: Vec<BatchMap<W>> = Vec::new();
        let mut values: Vec<W> = Vec::new();
        let mut out: Vec<W> = Vec::new();
        let mut acc = Vec::new();
        for start in (0..patterns).step_by(W::LANES as usize) {
            let used = (patterns - start).min(W::LANES) as usize;
            let mut lanes = control_lanes.clone();
            for stream in &streams {
                // A TPG word has `n` bits; wider operand bits stay 0.
                lanes.extend((0..width as usize).map(|b| {
                    if b < n {
                        lanes_at(stream, n + start as usize - b, used)
                    } else {
                        W::ZERO
                    }
                }));
            }
            net.eval_all_nets_into(&lanes, &mut values);
            out.clear();
            out.extend(net.outputs().iter().map(|o| values[o.index()]));
            let map = match maps.iter().position(|m| m.used == used) {
                Some(i) => i,
                None => {
                    maps.push(BatchMap::new(misr_width, used));
                    maps.len() - 1
                }
            };
            let ff_const = maps[map].constant(&out, &positions, &mut acc);
            golden_signature = maps[map].advance(ff_const, golden_signature);
            batches.push(Batch {
                lanes,
                used,
                ff_const,
                map,
            });
        }

        // Stems, by descending net index: a gate's out net is numbered
        // after its operands, so a net's consumer output is resolved
        // first.
        let fanout = Fanout::new(net);
        let mut stem: Vec<u32> = (0..net.num_nets() as u32).collect();
        let mut stem_gate = vec![STEM; net.num_nets()];
        for n in (0..net.num_nets()).rev() {
            let id = NetId(n as u32);
            if let &[g] = fanout.consumers(id) {
                if !fanout.is_output(id) {
                    let out = net.gates()[g as usize].out.index();
                    debug_assert!(out > n, "operand nets precede the out net");
                    stem[n] = stem[out];
                    stem_gate[n] = g;
                }
            }
        }

        Self {
            net,
            batches,
            maps,
            golden_signature,
            patterns,
            stem,
            stem_gate,
        }
    }

    /// The stem of `net`: the net itself when it drives two or more
    /// consumer gates, drives a primary output or drives nothing;
    /// otherwise the stem its chain of single consumers leads to. Every
    /// path from `net` to an output passes through its stem.
    pub fn stem_of(&self, net: NetId) -> NetId {
        NetId(self.stem[net.index()])
    }

    /// Indices into `faults` grouped by stem: stems ascending, list
    /// order within a group.
    pub fn stem_order(&self, faults: &[Fault]) -> Vec<usize> {
        group_by_stem(&self.stem, faults)
    }

    /// Groups `faults` by stem and lists the fanout-free nets whose
    /// reach masks the groups need.
    fn plan(&self, faults: &[Fault]) -> StemPlan {
        let stem_of = |fi: &usize| self.stem[faults[*fi].net.index()];
        let order = group_by_stem(&self.stem, faults);
        let mut chain = Vec::new();
        let mut groups = Vec::new();
        let mut needed = vec![false; self.net.num_nets()];
        let mut end = 0;
        for run in order.chunk_by(|a, b| stem_of(a) == stem_of(b)) {
            let stem = stem_of(&run[0]) as usize;
            let start = chain.len();
            for &fi in run {
                let mut n = faults[fi].net.index();
                while n != stem && !needed[n] {
                    needed[n] = true;
                    chain.push(n);
                    n = self.net.gates()[self.stem_gate[n] as usize].out.index();
                }
            }
            chain[start..].sort_unstable_by(|a, b| b.cmp(a));
            end += run.len();
            groups.push((stem, end, chain.len()));
        }
        StemPlan {
            order,
            chain,
            groups,
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

    /// Fills `reach[n]` for the fanout-free nets `nets` (descending, each
    /// net's consumer output already filled): the lanes in which
    /// flipping `n` alone flips its consumer gate's output, within that
    /// output's own reach mask. One gate evaluation per net.
    fn reach_masks(&self, golden: &[W], nets: &[usize], reach: &mut [W]) {
        for &n in nets {
            let g = self.net.gates()[self.stem_gate[n] as usize];
            let operand = |x: NetId| {
                if x.index() == n {
                    !golden[n]
                } else {
                    golden[x.index()]
                }
            };
            let out = g.out.index();
            reach[n] = (eval_gate(g.kind, operand(g.a), operand(g.b)) ^ golden[out]) & reach[out];
        }
    }

    /// Simulates every fault through the whole session and returns its
    /// `(ideal, signature)` detection flags, in fault-list order. The
    /// flags of each fault are independent of the rest of the list, so
    /// partitioning `faults` and concatenating per-partition results is
    /// byte-identical to one call over the full list.
    ///
    /// Per batch, each stem of the list is walked once
    /// ([`DiffSim::flip_output_diffs`]), flipping the lanes in which
    /// some fault of its group is excited and reaches it, and the
    /// walk's output differences `D_pos` are folded once into one word
    /// per MISR bit. A fault on net `n` is excited in the lanes where
    /// the golden value differs from its stuck value; it reaches the
    /// stem in the lanes of `n`'s reach mask: all used lanes for the
    /// stem itself, else the lanes in which flipping `n` flips its
    /// consumer's output, within that output's own reach mask. With
    /// `M_f` = excitation & reach, the fault's output differences are
    /// exactly `D_pos & M_f`: lanes are independent patterns, and every
    /// path from `n` to an output passes through its consumer's output.
    /// So the fault is ideally detected when some `D_pos & M_f` is
    /// non-zero, and bit `j` of its MISR error term is the parity of
    /// the folded word `j` in lanes `M_f` (the fold is linear). Its
    /// state takes the batch's clean affine step, XOR that error term.
    ///
    /// `sim` must simulate [`network`](Self::network); its scratch
    /// buffers are reused across all walks and batches.
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
        let plan = self.plan(faults);
        let mut reach = vec![W::ZERO; self.net.num_nets()];
        let mut masks = Vec::new();
        let mut acc = Vec::new();
        for batch in &self.batches {
            sim.load_batch(&batch.lanes);
            sim.count_faults(faults.len());
            // Lanes beyond `used` are padding (all-zero operands), not
            // applied patterns: the reach masks never include them.
            let used = W::lane_mask(batch.used as u64);
            let map = &self.maps[batch.map];
            acc.resize(map.basis.len(), W::ZERO);
            for s in &mut states {
                *s = map.advance(batch.ff_const, *s);
            }
            let (mut order_at, mut chain_at) = (0, 0);
            for &(stem, order_end, chain_end) in &plan.groups {
                let group = &plan.order[order_at..order_end];
                let nets = &plan.chain[chain_at..chain_end];
                (order_at, chain_at) = (order_end, chain_end);
                let golden = sim.golden_values();
                reach[stem] = used;
                self.reach_masks(golden, nets, &mut reach);
                masks.clear();
                masks.extend(group.iter().map(|&fi| {
                    let n = faults[fi].net.index();
                    let excited = if faults[fi].stuck_at_one {
                        !golden[n]
                    } else {
                        golden[n]
                    };
                    excited & reach[n]
                }));
                let lanes = masks.iter().fold(W::ZERO, |u, &m| u | m);
                if lanes.is_zero() || !sim.flip_output_diffs(NetId(stem as u32), lanes) {
                    continue;
                }
                let diffs = sim.out_diffs();
                let touched = sim.touched_output_positions();
                let seen = touched
                    .iter()
                    .fold(W::ZERO, |d, &pos| d | diffs[pos as usize]);
                map.fold_into(diffs, touched, &mut acc);
                for (&fi, &m) in group.iter().zip(&masks) {
                    if !(seen & m).is_zero() {
                        ideal[fi] = true;
                        states[fi] ^= error_bits(&acc, m);
                    }
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
    use crate::net::NetworkBuilder;

    /// The MISR word of pattern `lane`: bit `i` is output `i`'s value.
    fn pack_outputs<W: LaneWord>(lanes: &[W], lane: u32) -> u64 {
        lanes.iter().enumerate().fold(0u64, |acc, (i, &w)| {
            acc | (((w.word(lane as usize / 64) >> (lane % 64)) & 1) << i)
        })
    }

    /// The per-pattern preparation that [`SessionContext::prepare`]
    /// replaced: both TPG words of every pattern, packed into the batch
    /// lanes bit by bit, and one MISR absorb per golden pattern for the
    /// batch constant and again for the session signature. Returns each
    /// batch's `(lanes, used, constant)` and the golden signature.
    #[allow(clippy::type_complexity)]
    fn prepare_reference<W: LaneWord>(
        net: &GateNetwork,
        controls: &[bool],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
    ) -> (Vec<(Vec<W>, usize, u64)>, u64) {
        let misr_width = width.clamp(2, 32);
        let mut tpg_a = Lfsr::new(misr_width, seeds.0);
        let mut tpg_b = Lfsr::new(misr_width, seeds.1);
        let sequence: Vec<(u64, u64)> = (0..patterns)
            .map(|_| (tpg_a.next_word(), tpg_b.next_word()))
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
        let mut golden = Misr::new(misr_width);
        let mut batches = Vec::new();
        for chunk in sequence.chunks(W::LANES as usize) {
            let mut lanes: Vec<W> = controls
                .iter()
                .map(|&c| if c { W::ONES } else { W::ZERO })
                .collect();
            for second in [false, true] {
                lanes.extend((0..width).map(|bit| pack_bit(chunk, bit, second)));
            }
            let mut values = Vec::new();
            net.eval_all_nets_into(&lanes, &mut values);
            let out: Vec<W> = net.outputs().iter().map(|o| values[o.index()]).collect();
            let mut batch = Misr::new(misr_width);
            for lane in 0..chunk.len() {
                let word = pack_outputs(&out, lane as u32);
                golden.absorb(word);
                batch.absorb(word);
            }
            batches.push((lanes, chunk.len(), batch.signature()));
        }
        (batches, golden.signature())
    }

    /// The two-walk [`BatchMap::new`] it replaced: `basis[j]` by `used`
    /// zero-word steps from `e_j`, and each fold mask bit set from the
    /// set bits of every power. Returns `(basis, fold)`.
    fn batch_map_reference<W: LaneWord>(misr_width: u32, used: usize) -> (Vec<u64>, Vec<W>) {
        let mw = misr_width as usize;
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
        (basis, fold)
    }

    /// [`SessionContext::prepare`] against [`prepare_reference`] and
    /// [`batch_map_reference`] at lane width `W`.
    fn check_prepare<W: LaneWord>(
        net: &GateNetwork,
        controls: &[bool],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
    ) {
        let what = format!("{} lanes, width {width}, {patterns} patterns", W::LANES);
        let ctx = SessionContext::<W>::prepare(net, controls, width, patterns, seeds);
        let (batches, golden) = prepare_reference::<W>(net, controls, width, patterns, seeds);
        assert_eq!(ctx.golden_signature, golden, "golden signature at {what}");
        assert_eq!(ctx.batches.len(), batches.len(), "batches at {what}");
        for (i, (batch, (lanes, used, constant))) in ctx.batches.iter().zip(&batches).enumerate() {
            assert_eq!(&batch.lanes, lanes, "batch {i} lanes at {what}");
            assert_eq!(batch.used, *used, "batch {i} length at {what}");
            assert_eq!(batch.ff_const, *constant, "batch {i} constant at {what}");
            assert_eq!(ctx.maps[batch.map].used, *used, "batch {i} map at {what}");
        }
        for map in &ctx.maps {
            let (basis, fold) = batch_map_reference::<W>(width.clamp(2, 32), map.used);
            assert_eq!(map.basis, basis, "{}-pattern basis at {what}", map.used);
            assert_eq!(map.fold, fold, "{}-pattern fold at {what}", map.used);
        }
    }

    #[test]
    fn prepare_matches_the_per_pattern_reference() {
        use crate::lanes::W256;
        use crate::lfsr::max_useful_patterns;
        use lobist_dfg::OpKind;
        // Budgets at and around both lane widths, past the MISR period
        // for the narrow widths, and one full TPG period; at width 32 a
        // period is 2^32 - 1 patterns, more than a test can run.
        for width in [2u32, 5, 8, 12, 17, 32] {
            let net = ripple_adder(width);
            let mut budgets = vec![1u64, 63, 64, 65, 255, 256, 300];
            if width < 32 {
                budgets.push(max_useful_patterns(width));
            }
            for patterns in budgets {
                let seeds = (0xACE1 + u64::from(width), 0x1BAD);
                check_prepare::<u64>(&net, &[], width, patterns, seeds);
                check_prepare::<W256>(&net, &[], width, patterns, seeds);
            }
        }
        let alu5 = alu(&[OpKind::Add, OpKind::Sub, OpKind::Mul], 5);
        for controls in [[true, false, false], [false, false, true]] {
            for patterns in [1, 31, 64, 65, 300] {
                check_prepare::<u64>(&alu5, &controls, 5, patterns, (3, 7));
                check_prepare::<W256>(&alu5, &controls, 5, patterns, (3, 7));
            }
        }
        // More outputs than the MISR absorbs.
        let wide = more_outputs_than_misr();
        check_prepare::<u64>(&wide, &[], 3, 100, (1, 2));
        check_prepare::<W256>(&wide, &[], 3, 300, (1, 2));
    }

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

    /// The per-fault session loop that [`SessionContext::detect_flags`]
    /// replaced: one whole-cone walk per fault per batch
    /// ([`DiffSim::fault_output_diffs`]) and one fold of its output
    /// differences. Oracle for the stem-shared walk.
    fn detect_flags_per_fault<W: LaneWord>(
        ctx: &SessionContext<'_, W>,
        sim: &mut DiffSim<'_, W>,
        faults: &[Fault],
    ) -> Vec<DetectFlags> {
        let mut states = vec![0u64; faults.len()];
        let mut ideal = vec![false; faults.len()];
        let mut acc = Vec::new();
        for batch in &ctx.batches {
            sim.load_batch(&batch.lanes);
            let used_mask = W::lane_mask(batch.used as u64);
            let map = &ctx.maps[batch.map];
            acc.resize(map.basis.len(), W::ZERO);
            for (fi, &fault) in faults.iter().enumerate() {
                let mut error = 0;
                if sim.fault_output_diffs(fault) {
                    let diffs = sim.out_diffs();
                    let touched = sim.touched_output_positions();
                    if touched
                        .iter()
                        .any(|&pos| !(diffs[pos as usize] & used_mask).is_zero())
                    {
                        ideal[fi] = true;
                        map.fold_into(diffs, touched, &mut acc);
                        error = error_bits(&acc, W::ONES);
                    }
                }
                states[fi] = map.advance(batch.ff_const, states[fi]) ^ error;
            }
        }
        ideal
            .into_iter()
            .zip(states)
            .map(|(ideal, state)| (ideal, state != ctx.golden_signature))
            .collect()
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

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A random network over `inputs` inputs: every gate consumes
    /// earlier nets, so it has reconvergent fanout, Not/Buf and
    /// same-operand gates, dead gates, inputs wired to outputs, outputs
    /// that also feed gates and duplicated outputs. Up to `3 * width +
    /// 4` outputs, more than a `width`-bit MISR absorbs.
    fn random_session_network(seed: u64, inputs: usize, width: u32) -> GateNetwork {
        use crate::net::GateKind;
        const KINDS: [GateKind; 7] = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let mut s = seed;
        let mut b = NetworkBuilder::new();
        let mut nets: Vec<_> = (0..inputs).map(|_| b.input()).collect();
        for _ in 0..1 + splitmix(&mut s) % 48 {
            let kind = KINDS[(splitmix(&mut s) % KINDS.len() as u64) as usize];
            let a = nets[(splitmix(&mut s) % nets.len() as u64) as usize];
            let x = nets[(splitmix(&mut s) % nets.len() as u64) as usize];
            let out = match kind {
                GateKind::Not | GateKind::Buf => b.gate(kind, a, a),
                _ => b.gate(kind, a, x),
            };
            nets.push(out);
        }
        // Half the outputs among the last nets, so most gates are live.
        let outputs = (0..1 + splitmix(&mut s) % u64::from(3 * width + 4))
            .map(|_| {
                let r = splitmix(&mut s);
                let back = if r & 1 == 0 { (r >> 1) % 4 } else { r >> 1 };
                nets[nets.len() - 1 - (back % nets.len() as u64) as usize]
            })
            .collect();
        b.finish(outputs)
    }

    /// A random session: width 2–5, up to two held controls, a budget
    /// of 1–700 patterns (most clip the last batch at both lane widths)
    /// and random seeds.
    struct RandomSession {
        net: GateNetwork,
        controls: Vec<bool>,
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
    }

    fn random_session(s: &mut u64) -> RandomSession {
        let width = 2 + (splitmix(s) % 4) as u32;
        let controls: Vec<bool> = (0..splitmix(s) % 3).map(|_| splitmix(s) & 1 == 1).collect();
        let inputs = controls.len() + 2 * width as usize;
        RandomSession {
            net: random_session_network(splitmix(s), inputs, width),
            controls,
            width,
            patterns: 1 + splitmix(s) % 700,
            seeds: (1 + splitmix(s) % 4096, 1 + splitmix(s) % 4096),
        }
    }

    /// The stem-shared walk and the per-fault loop at lane width `W`,
    /// both checked against the re-evaluation reference's flags.
    fn check_session<W: LaneWord>(r: &RandomSession, faults: &[Fault], want: &[DetectFlags]) {
        let ctx = SessionContext::<W>::prepare(&r.net, &r.controls, r.width, r.patterns, r.seeds);
        let mut sim = DiffSim::<W>::new(&r.net);
        let what = format!("{} lanes, {} patterns, {:?}", W::LANES, r.patterns, r.net);
        assert_eq!(
            ctx.detect_flags(&mut sim, faults),
            want,
            "stem walk at {what}"
        );
        assert_eq!(
            detect_flags_per_fault(&ctx, &mut sim, faults),
            want,
            "per-fault loop at {what}"
        );
    }

    #[test]
    fn stem_walk_matches_both_references_on_random_networks() {
        use crate::lanes::W256;
        use std::collections::HashMap;
        let mut s = 0x5E55_1014;
        let (mut ffr_detected, mut past_misr, mut aliased) = (0, 0, 0);
        for _ in 0..300 {
            let r = random_session(&mut s);
            let universe = enumerate_faults(&r.net);
            let (want, _) =
                run_session_reference(&r.net, &r.controls, r.width, r.patterns, r.seeds, &universe);
            let index: HashMap<Fault, usize> =
                universe.iter().enumerate().map(|(i, &f)| (f, i)).collect();
            let collapsed = collapse_faults(&r.net);
            let reps = collapsed.representatives();
            let want_reps: Vec<DetectFlags> = reps.iter().map(|f| want[index[f]]).collect();
            for (faults, want) in [(&universe[..], &want[..]), (reps, &want_reps[..])] {
                check_session::<u64>(&r, faults, want);
                check_session::<W256>(&r, faults, want);
            }
            let ctx = SessionContext::<u64>::prepare(&r.net, &r.controls, r.width, 1, r.seeds);
            for (f, &(ideal, signature)) in universe.iter().zip(&want) {
                ffr_detected += usize::from(ideal && ctx.stem_of(f.net) != f.net);
                past_misr += usize::from(ideal && !signature);
                aliased += usize::from(signature && !ideal);
            }
        }
        // The generator reaches the paths under test: faults detected
        // through a fanout-free chain, and faults seen only at outputs
        // past the MISR or lost to aliasing.
        assert!(
            ffr_detected > 0 && past_misr > 0,
            "{ffr_detected} {past_misr}"
        );
        // A signature never differs without an output difference.
        assert_eq!(aliased, 0);
    }

    /// Every net's value with net `flip` inverted in every lane, by full
    /// re-evaluation.
    fn eval_flipped(net: &GateNetwork, lanes: &[u64], flip: usize) -> Vec<u64> {
        let mut v = vec![0u64; net.num_nets()];
        for (i, n) in net.inputs().iter().enumerate() {
            v[n.index()] = lanes[i];
        }
        if !net.gates().iter().any(|g| g.out.index() == flip) {
            v[flip] = !v[flip];
        }
        for g in net.gates() {
            let out = g.out.index();
            v[out] = eval_gate(g.kind, v[g.a.index()], v[g.b.index()]);
            if out == flip {
                v[out] = !v[out];
            }
        }
        v
    }

    #[test]
    fn reach_masks_match_full_reevaluation() {
        let mut s = 0x4EAC_0001;
        let mut chain_nets = 0;
        for _ in 0..200 {
            let r = random_session(&mut s);
            let ctx =
                SessionContext::<u64>::prepare(&r.net, &r.controls, r.width, r.patterns, r.seeds);
            let universe = enumerate_faults(&r.net);
            let plan = ctx.plan(&universe);
            for batch in &ctx.batches {
                let mut golden = Vec::new();
                r.net.eval_all_nets_into(&batch.lanes, &mut golden);
                let used = u64::lane_mask(batch.used as u64);
                let mut reach = vec![0u64; r.net.num_nets()];
                let mut chain_at = 0;
                for &(stem, _, chain_end) in &plan.groups {
                    let nets = &plan.chain[chain_at..chain_end];
                    chain_at = chain_end;
                    reach[stem] = used;
                    ctx.reach_masks(&golden, nets, &mut reach);
                    for &n in nets {
                        assert_eq!(ctx.stem_of(NetId(n as u32)).index(), stem);
                        let flipped = eval_flipped(&r.net, &batch.lanes, n);
                        assert_eq!(
                            reach[n],
                            (flipped[stem] ^ golden[stem]) & used,
                            "net {n} behind stem {stem} of {:?}",
                            r.net
                        );
                        chain_nets += 1;
                    }
                }
            }
            // Every fault site is its group's stem or on its chain.
            let mut chain_at = 0;
            let mut order_at = 0;
            for &(stem, order_end, chain_end) in &plan.groups {
                for &fi in &plan.order[order_at..order_end] {
                    let n = universe[fi].net.index();
                    assert!(n == stem || plan.chain[chain_at..chain_end].contains(&n));
                }
                (order_at, chain_at) = (order_end, chain_end);
            }
        }
        assert!(chain_nets > 1000, "{chain_nets}");
    }

    #[test]
    fn stems_end_fanout_free_chains() {
        let mut b = NetworkBuilder::new();
        let x = b.input(); // two consumers: a stem
        let y = b.input();
        let z = b.input();
        let w = b.input();
        let a = b.and(x, y);
        let n = b.not(a);
        let c = b.or(x, z);
        let o = b.xor(n, c); // a primary output: a stem
        let q = b.and(w, w); // drives nothing: a stem; `w` feeds it once
        let net = b.finish(vec![o]);
        let ctx = SessionContext::<u64>::prepare(&net, &[], 2, 4, (1, 2));
        let stems: Vec<NetId> = [x, y, z, w, a, n, c, o, q]
            .iter()
            .map(|&net| ctx.stem_of(net))
            .collect();
        assert_eq!(stems, [x, o, o, q, o, o, o, o, q]);
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
