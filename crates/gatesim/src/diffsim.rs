//! Cone-limited differential fault simulation.
//!
//! The reference PPSFP loop ([`GateNetwork::eval_lanes_with`]) pays
//! O(gates) plus a fresh allocation for *every* fault in *every*
//! 64-pattern batch. [`DiffSim`] instead evaluates the fault-free
//! network once per batch (the *golden* pass) and then, per fault,
//! propagates lane-parallel *difference* words event-driven from the
//! fault site: only gates whose inputs actually changed are
//! re-evaluated, and propagation stops the moment the difference
//! frontier dies out. On the paper's module library most faults either
//! fail to be excited (the golden value at the site already equals the
//! stuck value in all lanes) or reach an output within a small fraction
//! of the gate list, which is where the speedup comes from.
//!
//! The simulator is generic over the lane width
//! ([`crate::lanes::LaneWord`]): the default `u64` packs 64 patterns
//! per batch and is the executable reference; [`crate::lanes::W256`]
//! packs 256 patterns per batch, turning
//! the branchless [`GateOp`] evaluation into straight-line array code
//! the compiler auto-vectorizes. Results are byte-identical across
//! widths (property-tested) — width is purely a throughput knob.
//!
//! Propagation is a *bounded linear walk*: the builder guarantees a
//! gate's consumers always have larger indices, so scanning the gate
//! list upward from the fault site's first consumer visits the cone in
//! topological order, and the scan stops at the largest gate index any
//! changed net feeds (advanced as changes occur) — the exact point
//! where the difference frontier is dead. A linear scan touches more
//! gates than a pointer-chasing event queue, but every step is a short
//! branch-free dependency chain over sequential memory, which is
//! several times faster per gate and a net win on shallow, wide cones.
//! Net values live in a mirror of the golden values; the few nets a
//! fault actually disturbs are recorded and restored afterwards, so
//! per-fault setup cost is proportional to the disturbance, not the
//! network.

use crate::lanes::LaneWord;
use crate::net::{Fault, GateKind, GateNetwork, NetId};

/// Work counters accumulated by a [`DiffSim`] (and summed across the
/// partitions of a parallel run).
///
/// Counters are defined in *walk* units, not pattern units: a wider
/// lane word loads fewer batches and walks fewer (but heavier) cones
/// for the same pattern budget, so `batches_loaded` scales as
/// `ceil(patterns / LANES)` while detection results stay identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Golden (fault-free) batch evaluations.
    pub batches_loaded: u64,
    /// Faults propagated (excited or not).
    pub faults_simulated: u64,
    /// Gate re-evaluations inside fault cones (the cone-limited work;
    /// the reference path would have done `faults × gates`).
    pub cone_evals: u64,
    /// Net-change events scheduled (difference words that survived a
    /// gate).
    pub events_propagated: u64,
}

impl SimCounters {
    /// Adds `other` into `self` (used for the deterministic merge of
    /// parallel fault partitions).
    pub fn merge(&mut self, other: &SimCounters) {
        self.batches_loaded += other.batches_loaded;
        self.faults_simulated += other.faults_simulated;
        self.cone_evals += other.cone_evals;
        self.events_propagated += other.events_propagated;
    }
}

/// The 64-lane block holding the lowest set lane of `w`, if any
/// (always 0 for a nonzero `u64`).
#[inline]
fn first_block<W: LaneWord>(w: W) -> Option<u32> {
    w.first_lane().map(|l| (l / 64) as u32)
}

/// One gate in branchless form, sized to fit three per cache pair
/// (48 bytes).
///
/// Every two-input kind is `((a ^ inv) OP (b ^ inv)) ^ inv_o` with `OP`
/// selected between AND and XOR by a mask, so the walk evaluates any
/// gate with the same handful of word operations — no per-kind branch
/// to mispredict on the irregular, fault-dependent visit order. The
/// masks stay `u64` regardless of lane width; evaluation broadcasts
/// them with [`LaneWord::splat`] (the identity for `u64`, a register
/// splat the vectorizer hoists for wide words).
#[derive(Debug, Clone, Copy)]
struct GateOp {
    a: u32,
    b: u32,
    out: u32,
    /// Largest gate index consuming the out net (0 when none): when the
    /// out net changes, the walk's upper bound advances to this.
    ub_next: u32,
    /// Input inversion (both operands; `Not`/`Buf` duplicate `a`).
    inv: u64,
    inv_o: u64,
    /// All-ones when the core op is XOR, zero when it is AND.
    xor_sel: u64,
    /// All-ones when the out net drives a primary-output position —
    /// lets detection test as `diff & out_sel` without an extra branch.
    out_sel: u64,
}

impl GateOp {
    fn new(g: &crate::net::Gate, is_out: bool, ub_next: u32) -> Self {
        // And: a&b. Or: !(!a & !b). Nand: !(a&b). Nor: !a & !b.
        // Not (b==a): !(a&a). Buf: a&a. Xor: a^b.
        let (inv, inv_o, xor_sel) = match g.kind {
            GateKind::And => (0, 0, 0),
            GateKind::Or => (u64::MAX, u64::MAX, 0),
            GateKind::Nand => (0, u64::MAX, 0),
            GateKind::Nor => (u64::MAX, 0, 0),
            GateKind::Not => (0, u64::MAX, 0),
            GateKind::Buf => (0, 0, 0),
            GateKind::Xor => (0, 0, u64::MAX),
        };
        Self {
            a: g.a.index() as u32,
            b: g.b.index() as u32,
            out: g.out.index() as u32,
            ub_next,
            inv,
            inv_o,
            xor_sel,
            out_sel: if is_out { u64::MAX } else { 0 },
        }
    }

    #[inline]
    fn eval<W: LaneWord>(&self, a: W, b: W) -> W {
        let x = a ^ W::splat(self.inv);
        let y = b ^ W::splat(self.inv);
        let xor_sel = W::splat(self.xor_sel);
        (((x & y) & !xor_sel) | ((x ^ y) & xor_sel)) ^ W::splat(self.inv_o)
    }
}

/// An event-driven differential fault simulator over one network,
/// generic over the lane width `W` (default `u64` = 64 patterns per
/// batch; see [`crate::lanes`]).
///
/// Usage: [`load_batch`](Self::load_batch) with `W::LANES` patterns of
/// input lanes, then any number of [`detect_block`](Self::detect_block) /
/// [`fault_output_diffs`](Self::fault_output_diffs) calls, then the next
/// batch.
#[derive(Debug)]
pub struct DiffSim<'n, W: LaneWord = u64> {
    net: &'n GateNetwork,
    /// CSR offsets into `out_positions`, one slot per net plus one.
    out_offsets: Vec<u32>,
    /// Positions in `GateNetwork::outputs()` driven by each net.
    out_positions: Vec<u32>,
    /// Branchless per-gate evaluation table, indexed by gate index.
    ops: Vec<GateOp>,
    /// Golden value of every net for the current batch.
    golden: Vec<W>,
    /// Working net values: equal to `golden` between propagations; a
    /// propagation writes the disturbed nets and restores them before
    /// returning.
    val: Vec<W>,
    /// Nets currently differing from golden in `val` (the undo list).
    touched_nets: Vec<u32>,
    /// Per net: `[first, last]` consumer gate index (`[u32::MAX, 0]`
    /// when the net has no consumers) — the seed of the walk span.
    span: Vec<[u32; 2]>,
    /// Per net, `nwords` words each: bitset over gate indices of the
    /// net's full output cone. The walk scans only set bits, so gates
    /// inside the span that cannot be reached from the site are never
    /// evaluated.
    cone: Vec<u64>,
    /// Words per cone row (`num_gates / 64`, rounded up).
    nwords: usize,
    /// Per-output difference words of the last `fault_output_diffs`.
    out_diff: Vec<W>,
    touched_outputs: Vec<u32>,
    /// Lanes of the current batch that count toward detection (all of
    /// them unless the pattern budget clips the final batch).
    lane_mask: W,
    batch_loaded: bool,
    counters: SimCounters,
}

impl<'n, W: LaneWord> DiffSim<'n, W> {
    /// A simulator for `net`. Construction is a handful of linear
    /// passes over the gate and output lists — deliberately *not* a full
    /// [`crate::fanout::Fanout`] index, since the walk only needs each
    /// net's first/last consumer and the output positions.
    pub fn new(net: &'n GateNetwork) -> Self {
        let n = net.num_nets();
        // Output-position CSR (a net may drive several positions).
        let mut out_offsets = vec![0u32; n + 1];
        for o in net.outputs() {
            out_offsets[o.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor = out_offsets.clone();
        let mut out_positions = vec![0u32; out_offsets[n] as usize];
        for (pos, o) in net.outputs().iter().enumerate() {
            let c = &mut cursor[o.index()];
            out_positions[*c as usize] = pos as u32;
            *c += 1;
        }
        // First/last consumer of every net in one forward pass (gate
        // indices ascend, so first = first touch, last = last touch; a
        // duplicated Not/Buf operand is harmless).
        let mut span = vec![[u32::MAX, 0u32]; n];
        for (gi, g) in net.gates().iter().enumerate() {
            for nid in [g.a, g.b] {
                let s = &mut span[nid.index()];
                if s[0] == u32::MAX {
                    s[0] = gi as u32;
                }
                s[1] = gi as u32;
            }
        }
        let ops: Vec<GateOp> = net
            .gates()
            .iter()
            .map(|g| {
                let out = g.out.index();
                GateOp::new(g, out_offsets[out + 1] > out_offsets[out], span[out][1])
            })
            .collect();
        // Cone bitsets by reverse-topological accumulation: a net's
        // cone is each consumer gate plus that gate's output cone. The
        // builder allocates a gate's out net after its operand nets, so
        // `split_at_mut` at the out row cleanly separates source from
        // destinations.
        let nwords = net.num_gates().div_ceil(64);
        let mut cone = vec![0u64; net.num_nets() * nwords];
        for (gi, g) in net.gates().iter().enumerate().rev() {
            let (a, b, out) = (g.a.index(), g.b.index(), g.out.index());
            debug_assert!(a < out && b < out, "operand nets precede the out net");
            let (operand_rows, rest) = cone.split_at_mut(out * nwords);
            let out_row = &rest[..nwords];
            let (bit_w, bit) = (gi / 64, 1u64 << (gi % 64));
            for &n in &[a, b][..if b == a { 1 } else { 2 }] {
                let row = &mut operand_rows[n * nwords..(n + 1) * nwords];
                for (d, s) in row.iter_mut().zip(out_row) {
                    *d |= s;
                }
                row[bit_w] |= bit;
            }
        }
        Self {
            net,
            out_offsets,
            out_positions,
            ops,
            golden: Vec::new(),
            val: Vec::new(),
            touched_nets: Vec::new(),
            span,
            cone,
            nwords,
            out_diff: vec![W::ZERO; net.outputs().len()],
            touched_outputs: Vec::new(),
            lane_mask: W::ONES,
            batch_loaded: false,
            counters: SimCounters::default(),
        }
    }

    /// The simulated network.
    pub fn network(&self) -> &'n GateNetwork {
        self.net
    }

    /// Work counters accumulated so far.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Loads a `W::LANES`-pattern batch: runs the golden pass over
    /// every net.
    ///
    /// # Panics
    ///
    /// Panics if `input_lanes.len() != network.inputs().len()`.
    pub fn load_batch(&mut self, input_lanes: &[W]) {
        self.load_batch_masked(input_lanes, W::ONES);
    }

    /// As [`load_batch`](Self::load_batch), but only lanes set in `mask`
    /// count toward detection — used to clip the final batch of a
    /// pattern budget that is not a multiple of the lane width.
    ///
    /// # Panics
    ///
    /// Panics if `input_lanes.len() != network.inputs().len()`.
    pub fn load_batch_masked(&mut self, input_lanes: &[W], mask: W) {
        self.net.eval_all_nets_into(input_lanes, &mut self.golden);
        self.val.clear();
        self.val.extend_from_slice(&self.golden);
        self.lane_mask = mask;
        self.batch_loaded = true;
        self.counters.batches_loaded += 1;
    }

    /// The first 64-lane *block* of the current batch in which `fault`
    /// flips some output (`None` when undetected in the in-budget
    /// lanes).
    ///
    /// This is the width-invariant detection query the coverage loop
    /// uses for first-detection stamps: lane `l` lives in block
    /// `l / 64`, and blocks align with the 64-pattern batches of the
    /// `u64` reference, so the returned block index is the same at
    /// every lane width. The walk stops as soon as a detection lands in
    /// block 0 (no earlier block exists — for `u64` that is exactly the
    /// "any detection" exit), and only the rare fault whose first
    /// detection sits in a later block pays for a full cone walk to
    /// make the minimum exact.
    ///
    /// # Panics
    ///
    /// Panics if no batch is loaded.
    pub fn detect_block(&mut self, fault: Fault) -> Option<u32> {
        assert!(self.batch_loaded, "load a batch first");
        self.counters.faults_simulated += 1;
        let start = W::splat(fault.stuck_word());
        first_block(self.propagate::<true>(fault.net.index(), start, |det| det.word(0) != 0))
    }

    /// Per-polarity first detecting 64-lane blocks of one net with a
    /// single cone walk: `(stuck-at-0 block, stuck-at-1 block)`, equal
    /// to two [`detect_block`](Self::detect_block) calls.
    ///
    /// The walk flips every lane of the site at once, which exercises,
    /// per lane, exactly the one stuck-at fault excited in that lane
    /// (stuck-at-0 where the golden value is 1, stuck-at-1 where it is
    /// 0). Lanes are independent, so each lane of the accumulated output
    /// difference equals the same lane of that fault's own propagation,
    /// and splitting the word by the golden value answers both faults
    /// with one walk over the union of their frontiers. It stops once
    /// every excited polarity has a detection in block 0.
    ///
    /// # Panics
    ///
    /// Panics if no batch is loaded.
    pub fn detect_block_both(&mut self, site_net: NetId) -> (Option<u32>, Option<u32>) {
        assert!(self.batch_loaded, "load a batch first");
        self.counters.faults_simulated += 2;
        let site = site_net.index();
        let g0 = self.golden[site];
        let excited0 = !(g0 & self.lane_mask).is_zero();
        let excited1 = !(!g0 & self.lane_mask).is_zero();
        let g = g0.word(0);
        let det = self.propagate::<true>(site, !g0, |det| {
            let d = det.word(0);
            (d & g != 0 || !excited0) && (d & !g != 0 || !excited1)
        });
        (first_block(det & g0), first_block(det & !g0))
    }

    /// Propagates `fault` through its whole cone and records the
    /// difference word of every output ([`out_diffs`](Self::out_diffs)).
    /// Returns `true` if any output lane differs. Unlike
    /// [`detect_block`](Self::detect_block) the lane mask is *not*
    /// applied — the caller (the BIST session emulator) consumes exact
    /// per-lane words.
    ///
    /// # Panics
    ///
    /// Panics if no batch is loaded.
    pub fn fault_output_diffs(&mut self, fault: Fault) -> bool {
        assert!(self.batch_loaded, "load a batch first");
        self.counters.faults_simulated += 1;
        self.propagate::<false>(fault.net.index(), W::splat(fault.stuck_word()), |_| false);
        !self.touched_outputs.is_empty()
    }

    /// Flips `lanes` at `site` and propagates the difference through
    /// the whole cone, recording [`out_diffs`](Self::out_diffs) as
    /// [`fault_output_diffs`](Self::fault_output_diffs) does. Returns
    /// `true` if any output lane differs.
    ///
    /// Flipping every lane a stuck-at fault is excited in simulates that
    /// fault; flipping more lanes simulates several faults at once,
    /// because lanes are independent. So this counts no fault: the
    /// caller counts the faults the walk serves
    /// ([`count_faults`](Self::count_faults)).
    ///
    /// # Panics
    ///
    /// Panics if no batch is loaded.
    pub(crate) fn flip_output_diffs(&mut self, site: NetId, lanes: W) -> bool {
        assert!(self.batch_loaded, "load a batch first");
        let start = self.golden[site.index()] ^ lanes;
        self.propagate::<false>(site.index(), start, |_| false);
        !self.touched_outputs.is_empty()
    }

    /// Adds `n` to the `faults_simulated` counter, for callers that
    /// answer faults from [`flip_output_diffs`](Self::flip_output_diffs)
    /// walks.
    pub(crate) fn count_faults(&mut self, n: usize) {
        self.counters.faults_simulated += n as u64;
    }

    /// Golden value of every net for the current batch, indexed by net.
    ///
    /// # Panics
    ///
    /// Panics if no batch is loaded.
    pub(crate) fn golden_values(&self) -> &[W] {
        assert!(self.batch_loaded, "load a batch first");
        &self.golden
    }

    /// Per-output difference words of the last
    /// [`fault_output_diffs`](Self::fault_output_diffs) call
    /// (`faulty ^ golden`, indexed like `network.outputs()`).
    pub fn out_diffs(&self) -> &[W] {
        &self.out_diff
    }

    /// Output positions with a non-zero word in
    /// [`out_diffs`](Self::out_diffs) after the last
    /// [`fault_output_diffs`](Self::fault_output_diffs) call, each listed
    /// once (every net changes at most once per walk) — lets callers fold
    /// only the outputs the fault actually reached.
    pub fn touched_output_positions(&self) -> &[u32] {
        &self.touched_outputs
    }

    /// The one cone sweep: net `site` takes the word `start` and the
    /// difference propagates through its cone.
    ///
    /// `EARLY` (coverage mode) ORs the masked output differences into
    /// one detection word and returns it as soon as `stop` accepts it —
    /// the stop rules of [`detect_block`](Self::detect_block) and
    /// [`detect_block_both`](Self::detect_block_both) — so the word is
    /// first-block-accurate, not lane-exact. Otherwise (session mode)
    /// `stop` is never asked: the whole cone is propagated, per-output
    /// difference words are recorded ([`out_diffs`](Self::out_diffs)),
    /// and the returned word is zero.
    fn propagate<const EARLY: bool>(
        &mut self,
        site: usize,
        start: W,
        stop: impl Fn(W) -> bool,
    ) -> W {
        // Split `self` into disjoint borrows: with every buffer behind
        // its own (`&`/`&mut`) binding the compiler knows they cannot
        // alias, so slice pointers and lengths stay in registers across
        // the stores inside the sweep instead of being reloaded from
        // `self` after each one.
        let Self {
            out_offsets,
            out_positions,
            ops,
            golden,
            val,
            touched_nets,
            span,
            cone,
            nwords,
            out_diff,
            touched_outputs,
            counters,
            lane_mask,
            ..
        } = self;
        let ops = &ops[..];
        let golden = &golden[..];
        let lane_mask = *lane_mask;
        let nwords = *nwords;
        if !EARLY {
            for pos in touched_outputs.drain(..) {
                out_diff[pos as usize] = W::ZERO;
            }
        }
        if start == golden[site] {
            return W::ZERO; // not excited in any lane
        }
        let mut det = W::ZERO;
        let site_diff = start ^ golden[site];
        let site_outputs =
            &out_positions[out_offsets[site] as usize..out_offsets[site + 1] as usize];
        if EARLY {
            if !site_outputs.is_empty() {
                det = site_diff & lane_mask;
            }
            if stop(det) {
                return det;
            }
        } else {
            for &pos in site_outputs {
                out_diff[pos as usize] = site_diff;
                touched_outputs.push(pos);
            }
        }
        val[site] = start;
        touched_nets.push(site as u32);
        // Walk the site's cone bitset in index order up to a running
        // upper bound: `ub` is the largest gate index any changed net
        // feeds, so once the scan passes it the difference frontier is
        // provably dead and the walk stops. The builder is topological
        // (a gate's consumers always have larger indices), so each gate
        // is visited after all its producers are final; cone gates
        // whose inputs did not change (a sibling branch died) evaluate
        // back to their own value and are skipped by the change check.
        // Unlike a dynamic event queue the scan iterates *static* mask
        // words — no pushes, no queue state, and no serial dependency
        // between one gate's result and finding the next — which is
        // several times faster per gate and a net win even though it
        // may visit a few dead cone gates.
        let [first, seed_ub] = span[site];
        let mut ub = seed_ub as usize;
        let mut cone_evals = 0u64;
        let mut events = 0u64;
        if first != u32::MAX {
            let row = &cone[site * nwords..(site + 1) * nwords];
            let mut w = first as usize >> 6;
            let mut bits = row[w] & (!0u64 << (first as usize & 63));
            'walk: loop {
                while bits != 0 {
                    let gi = (w << 6) | bits.trailing_zeros() as usize;
                    if gi > ub {
                        break 'walk;
                    }
                    bits &= bits - 1;
                    cone_evals += 1;
                    let g = ops[gi];
                    let v = g.eval(val[g.a as usize], val[g.b as usize]);
                    let out = g.out as usize;
                    if v == val[out] {
                        continue; // inputs unchanged: the frontier died
                    }
                    let diff = v ^ golden[out];
                    val[out] = v;
                    touched_nets.push(out as u32);
                    events += 1;
                    if EARLY {
                        det = det | (diff & W::splat(g.out_sel) & lane_mask);
                        if stop(det) {
                            break 'walk;
                        }
                    } else if g.out_sel != 0 {
                        let (lo, hi) = (out_offsets[out] as usize, out_offsets[out + 1] as usize);
                        for &pos in &out_positions[lo..hi] {
                            out_diff[pos as usize] = diff;
                            touched_outputs.push(pos);
                        }
                    }
                    ub = ub.max(g.ub_next as usize);
                }
                w += 1;
                if w >= nwords || (w << 6) > ub {
                    break;
                }
                bits = row[w];
            }
        }
        counters.cone_evals += cone_evals;
        counters.events_propagated += events;
        for &n in touched_nets.iter() {
            val[n as usize] = golden[n as usize];
        }
        touched_nets.clear();
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::W256;
    use crate::net::NetworkBuilder;

    fn two_bit_adder() -> GateNetwork {
        let mut b = NetworkBuilder::new();
        let a = b.input_word(2);
        let x = b.input_word(2);
        let (s0, c0) = b.half_adder(a[0], x[0]);
        let (s1, _c1) = b.full_adder(a[1], x[1], c0);
        b.finish(vec![s0, s1])
    }

    /// The OR of the per-output difference words of the last session
    /// walk: the exact lanes in which some output differs.
    fn output_lanes<W: LaneWord>(sim: &DiffSim<'_, W>) -> W {
        let diffs = sim.out_diffs();
        sim.touched_output_positions()
            .iter()
            .fold(W::ZERO, |acc, &pos| acc | diffs[pos as usize])
    }

    /// Per-polarity detection lanes of net `n` from one flip of every
    /// lane: `(stuck-at-0 lanes, stuck-at-1 lanes)`.
    fn flip_lanes<W: LaneWord>(sim: &mut DiffSim<'_, W>, n: NetId) -> (W, W) {
        sim.flip_output_diffs(n, W::ONES);
        let (g, lanes) = (sim.golden_values()[n.index()], output_lanes(sim));
        (lanes & g, lanes & !g)
    }

    #[test]
    fn agrees_with_reference_on_every_fault() {
        let net = two_bit_adder();
        let lanes: Vec<u64> = (0..4)
            .map(|i| 0xDEAD_BEEF_CAFE_F00D_u64.rotate_left(i))
            .collect();
        let golden = net.eval_lanes(&lanes);
        let mut sim = DiffSim::new(&net);
        sim.load_batch(&lanes);
        for n in 0..net.num_nets() as u32 {
            let mut single = [None; 2];
            let mut single_lanes = [0u64; 2];
            for stuck in [false, true] {
                let fault = Fault {
                    net: NetId(n),
                    stuck_at_one: stuck,
                };
                let reference = net.eval_lanes_with(&lanes, Some(fault));
                let any = sim.fault_output_diffs(fault);
                let diffs = sim.out_diffs().to_vec();
                for (pos, (&r, &g)) in reference.iter().zip(&golden).enumerate() {
                    assert_eq!(r ^ g, diffs[pos], "{fault} output {pos}");
                }
                assert_eq!(any, reference != golden, "{fault}");
                // The exact detection lanes are the OR of the reference
                // per-output diffs.
                let want: u64 = reference
                    .iter()
                    .zip(&golden)
                    .map(|(&r, &g)| r ^ g)
                    .fold(0, |a, d| a | d);
                assert_eq!(output_lanes(&sim), want, "{fault}");
                // One 64-lane batch is block 0.
                let block = (reference != golden).then_some(0);
                assert_eq!(sim.detect_block(fault), block, "{fault}");
                single[usize::from(stuck)] = block;
                single_lanes[usize::from(stuck)] = want;
            }
            // The paired walk answers both polarities identically.
            assert_eq!(
                sim.detect_block_both(NetId(n)),
                (single[0], single[1]),
                "net {n}"
            );
            assert_eq!(
                flip_lanes(&mut sim, NetId(n)),
                (single_lanes[0], single_lanes[1]),
                "net {n} lanes"
            );
        }
    }

    #[test]
    fn wide_words_replicate_the_u64_answers() {
        // Feeding the same 64 patterns into every 64-lane group of a
        // W256 batch must replicate the u64 detection words per group —
        // the gate algebra is lane-local.
        let net = two_bit_adder();
        let lanes: Vec<u64> = (0..4)
            .map(|i| 0xDEAD_BEEF_CAFE_F00D_u64.rotate_left(i))
            .collect();
        let wide: Vec<W256> = lanes.iter().map(|&w| W256([w; 4])).collect();
        let mut sim = DiffSim::new(&net);
        let mut wsim = DiffSim::<W256>::new(&net);
        sim.load_batch(&lanes);
        wsim.load_batch(&wide);
        for n in 0..net.num_nets() as u32 {
            for stuck in [false, true] {
                let fault = Fault {
                    net: NetId(n),
                    stuck_at_one: stuck,
                };
                sim.fault_output_diffs(fault);
                wsim.fault_output_diffs(fault);
                assert_eq!(
                    output_lanes(&wsim),
                    W256([output_lanes(&sim); 4]),
                    "{fault}"
                );
                assert_eq!(wsim.detect_block(fault), sim.detect_block(fault), "{fault}");
            }
            assert_eq!(
                wsim.detect_block_both(NetId(n)),
                sim.detect_block_both(NetId(n)),
                "net {n}"
            );
            let (n0, n1) = flip_lanes(&mut sim, NetId(n));
            assert_eq!(
                flip_lanes(&mut wsim, NetId(n)),
                (W256([n0; 4]), W256([n1; 4])),
                "net {n}"
            );
        }
    }

    #[test]
    fn detection_blocks_are_the_first_detecting_64_lane_groups() {
        // x reaches the output through an AND with y. x is 1 in block 0
        // only and y in blocks 0 and 2, so stuck-at-0 on x shows in
        // block 0 and stuck-at-1 only in block 2: the paired walk must
        // keep going after block 0 resolves one polarity.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let o = b.and(x, y);
        let net = b.finish(vec![o]);
        let mut sim = DiffSim::<W256>::new(&net);
        let lanes = [W256([u64::MAX, 0, 0, 0]), W256([u64::MAX, 0, u64::MAX, 0])];
        sim.load_batch(&lanes);
        let sa0 = Fault {
            net: x,
            stuck_at_one: false,
        };
        let sa1 = Fault {
            net: x,
            stuck_at_one: true,
        };
        assert_eq!(sim.detect_block(sa0), Some(0));
        assert_eq!(sim.detect_block(sa1), Some(2));
        assert_eq!(sim.detect_block_both(x), (Some(0), Some(2)));
        // Clipping the batch to 128 lanes hides block 2.
        sim.load_batch_masked(&lanes, W256::lane_mask(128));
        assert_eq!(sim.detect_block(sa1), None);
        assert_eq!(sim.detect_block_both(x), (Some(0), None));
    }

    #[test]
    fn unexcited_fault_costs_nothing() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let net = b.finish(vec![a]);
        let mut sim = DiffSim::new(&net);
        sim.load_batch(&[u64::MAX, u64::MAX]);
        let before = sim.counters();
        // x is all-ones, so SA1 on x is not excited: no cone work at all.
        assert_eq!(
            sim.detect_block(Fault {
                net: x,
                stuck_at_one: true
            }),
            None
        );
        let after = sim.counters();
        assert_eq!(after.cone_evals, before.cone_evals);
        assert_eq!(after.faults_simulated, before.faults_simulated + 1);
    }

    #[test]
    fn frontier_death_terminates_early() {
        // x feeds an AND whose other input is 0: the difference dies at
        // that gate and the OR behind it is never evaluated.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let z = b.input(); // held at 0
        let a = b.and(x, z);
        let o = b.or(a, z);
        let net = b.finish(vec![o]);
        let mut sim = DiffSim::new(&net);
        sim.load_batch(&[u64::MAX, 0]);
        assert_eq!(
            sim.detect_block(Fault {
                net: x,
                stuck_at_one: false
            }),
            None
        );
        // One gate evaluated (the AND); the OR was never scheduled.
        assert_eq!(sim.counters().cone_evals, 1);
        assert_eq!(sim.counters().events_propagated, 0);
    }

    #[test]
    fn lane_mask_clips_detection() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let o = b.not(x);
        let net = b.finish(vec![o]);
        let mut sim = DiffSim::new(&net);
        // SA1 flips lane 1 only; with a mask of lane 0 it goes unseen,
        // while SA0 (lane 0) is seen under both masks.
        let sa1 = Fault {
            net: x,
            stuck_at_one: true,
        };
        sim.load_batch_masked(&[0b01], 0b01);
        assert_eq!(sim.detect_block(sa1), None);
        assert_eq!(sim.detect_block_both(x), (Some(0), None));
        sim.load_batch_masked(&[0b01], 0b11);
        assert_eq!(sim.detect_block(sa1), Some(0));
        assert_eq!(sim.detect_block_both(x), (Some(0), Some(0)));
        // The session walk ignores the mask: every lane where x is 0
        // differs.
        assert!(sim.fault_output_diffs(sa1));
        assert_eq!(output_lanes(&sim), !0b01);
    }

    #[test]
    fn early_exit_leaves_clean_state() {
        // An input fault detected at the first output must not leak
        // pending queue bits or disturbed values into the next query on
        // a far-apart cone (index distance > 64 forces multi-word
        // bitset state).
        use crate::net::GateKind;
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let o1 = b.not(x); // detected instantly through output 0
        let mut chain = y;
        for _ in 0..130 {
            chain = b.gate(GateKind::Buf, chain, chain);
        }
        let net = b.finish(vec![o1, chain]);
        let mut sim = DiffSim::new(&net);
        sim.load_batch(&[0, 0]);
        assert_eq!(
            sim.detect_block(Fault {
                net: x,
                stuck_at_one: true
            }),
            Some(0)
        );
        // The x fault fans out into gate 0 only; its early exit must not
        // corrupt the y-fault's propagation through the long chain.
        assert_eq!(
            sim.detect_block(Fault {
                net: y,
                stuck_at_one: true
            }),
            Some(0)
        );
        assert_eq!(
            sim.detect_block(Fault {
                net: y,
                stuck_at_one: false
            }),
            None
        );
    }

    #[test]
    fn counters_merge() {
        let mut a = SimCounters {
            batches_loaded: 1,
            faults_simulated: 2,
            cone_evals: 3,
            events_propagated: 4,
        };
        let b = SimCounters {
            batches_loaded: 10,
            faults_simulated: 20,
            cone_evals: 30,
            events_propagated: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SimCounters {
                batches_loaded: 11,
                faults_simulated: 22,
                cone_evals: 33,
                events_propagated: 44
            }
        );
    }

    #[test]
    #[should_panic(expected = "load a batch first")]
    fn detect_requires_a_batch() {
        let net = two_bit_adder();
        let mut sim = DiffSim::<u64>::new(&net);
        sim.detect_block(Fault {
            net: NetId(0),
            stuck_at_one: false,
        });
    }
}
