//! Deterministic DFG canonization for structural (isomorphism-level)
//! cache keys.
//!
//! [`canonize`] maps a scheduled DFG to a **canonical form**: a relabeled
//! copy of the graph (inputs `i0, i1, ...`, operation results
//! `t0, t1, ...`) whose byte [`CanonForm::encoding`] is identical for any
//! two designs that differ only in variable/operation names or
//! declaration order. Two designs with equal encodings are genuinely
//! isomorphic — the encoding fully determines the canonical graph and
//! schedule, so equal encodings rebuild the *same* design — which is what
//! lets the engine's result cache answer a renamed resubmission without
//! risking a wrong hit.
//!
//! The algorithm is the classic two-stage scheme:
//!
//! 1. **Color refinement** (Weisfeiler–Leman style): every node — one per
//!    operation plus one per primary input — starts with a color built
//!    from invariants (op kind, schedule step, operand shapes, constant
//!    values, output marking) and is iteratively re-colored by the sorted
//!    multiset of `(port role, neighbor color)` pairs until the partition
//!    stops splitting. Port roles distinguish left from right operands,
//!    so `a - b` and `b - a` never collide.
//! 2. **Individualization–refinement**: if symmetric nodes remain, the
//!    smallest ambiguous color class is split one member at a time and
//!    refinement re-runs, recursing until every class is a singleton.
//!    Each discrete leaf yields one candidate labeling; the
//!    lexicographically smallest encoding wins, making the result
//!    independent of which symmetric twin came first in the input.
//!
//! The search is bounded by a leaf budget ([`LEAF_BUDGET`]). Designs too
//! symmetric to finish inside the budget keep the best leaf found and set
//! [`CanonForm::bailed`]; the result is still deterministic for that
//! input and still a valid relabeling, but two isomorphic inputs may then
//! canonize differently — costing a cache hit, never correctness.
//!
//! Initial colors include the schedule step, and refinement only ever
//! *refines* the existing order (each signature starts with the node's
//! previous color), so the canonical operation order is step-major and
//! therefore topological: the canonical graph and schedule always
//! validate.
//!
//! [`permute`] is the adversary: a seeded random renaming/reordering that
//! produces an isomorphic twin, used by property tests
//! (`canon(permute(g)) == canon(g)`) and by `lobist corpus --permute` to
//! build iso-duplicate workloads.
//!
//! ## Shift-normalized encodings
//!
//! [`visit_rebased`] streams an encoding with every schedule step moved
//! so the earliest step is 1 ([`rebase_encoding`] collects the same
//! bytes). Two designs share a rebased encoding **iff** they are
//! isomorphic up to a uniform schedule shift: the refinement order is
//! step-major and shift-invariant, so the relabeling is unchanged and
//! only the absolute step bytes differ. Synthesis reads the schedule
//! only through lifetime overlaps, which a uniform shift preserves, so
//! the rebased encoding keys every result except the latency and the
//! schedule themselves — and those are the requester's own.

use crate::dfg::{Dfg, DfgBuilder, OpInfo, VarInfo};
use crate::schedule::Schedule;
use crate::types::{OpId, OpKind, Operand, VarId};

/// Maximum individualization leaves explored before bailing out with the
/// best labeling found so far.
pub const LEAF_BUDGET: usize = 64;

/// The canonical form of a scheduled DFG.
#[derive(Debug, Clone)]
pub struct CanonForm {
    /// The relabeled graph: inputs `i0..`, results `t0..`, declared in
    /// canonical order.
    pub dfg: Dfg,
    /// The schedule expressed over the canonical operation order (same
    /// per-operation steps as the original).
    pub schedule: Schedule,
    /// Canonical byte encoding: equal bytes ⟺ isomorphic designs
    /// (modulo [`bailed`](Self::bailed) under-approximation).
    pub encoding: Vec<u8>,
    /// `op_perm[original op index]` = canonical position of that op.
    pub op_perm: Vec<u32>,
    /// `var_perm[original var index]` = canonical [`VarId`] index.
    pub var_perm: Vec<u32>,
    /// `var_inverse[canonical var index]` = original [`VarId`] index.
    pub var_inverse: Vec<u32>,
    /// `true` if the symmetry search exhausted [`LEAF_BUDGET`]; the form
    /// is still valid and deterministic, but isomorphic inputs are no
    /// longer guaranteed to collide.
    pub bailed: bool,
}

impl CanonForm {
    /// Maps an original variable to its canonical id.
    pub fn canonical_var(&self, v: VarId) -> VarId {
        VarId(self.var_perm[v.index()])
    }

    /// Maps a canonical variable back to the original id.
    pub fn original_var(&self, v: VarId) -> VarId {
        VarId(self.var_inverse[v.index()])
    }
}

/// Edge roles in refinement signatures. Left and right ports are kept
/// distinct so non-commutative operand order is structural.
const ROLE_LHS_PRODUCER: u64 = 0;
const ROLE_LHS_INPUT: u64 = 1;
const ROLE_RHS_PRODUCER: u64 = 2;
const ROLE_RHS_INPUT: u64 = 3;
const ROLE_CONSUMED_LHS: u64 = 4;
const ROLE_CONSUMED_RHS: u64 = 5;

/// A refinement edge or signature entry: the role in the high half, a
/// node (edge) or its rank (signature) in the low half, so comparing
/// entries compares `(role, rank)` pairs.
const ROLE_SHIFT: u32 = 32;
const LOW: u64 = (1 << ROLE_SHIFT) - 1;

/// Node layout inside the refinement: ops first (node `i` = `OpId(i)`),
/// then primary inputs in original id order.
struct Ctx<'a> {
    dfg: &'a Dfg,
    schedule: &'a Schedule,
    /// Primary inputs in original id order.
    inputs: Vec<VarId>,
    /// `input_node[var index]` = node index for input vars, `usize::MAX`
    /// otherwise.
    input_node: Vec<usize>,
    /// Every node's refinement edges, `(role << 32) | neighbor node`:
    /// node `v`'s are `edges[edge_start[v]..edge_start[v + 1]]`.
    edges: Vec<u64>,
    edge_start: Vec<usize>,
}

impl<'a> Ctx<'a> {
    fn new(dfg: &'a Dfg, schedule: &'a Schedule) -> Self {
        let inputs: Vec<VarId> = dfg.primary_inputs().collect();
        let mut input_node = vec![usize::MAX; dfg.num_vars()];
        for (j, &v) in inputs.iter().enumerate() {
            input_node[v.index()] = dfg.num_ops() + j;
        }
        let mut ctx = Self {
            dfg,
            schedule,
            inputs,
            input_node,
            edges: Vec::new(),
            edge_start: Vec::new(),
        };
        // Ranks stay below twice the node count, and both fit the low
        // half of an edge or signature entry.
        debug_assert!(2 * ctx.num_nodes() < 1 << ROLE_SHIFT);
        (ctx.edges, ctx.edge_start) = ctx.adjacency();
        ctx
    }

    fn num_nodes(&self) -> usize {
        self.dfg.num_ops() + self.inputs.len()
    }

    /// The node carrying a variable operand: its producer op, or its
    /// input node.
    fn var_node(&self, v: VarId) -> usize {
        match self.dfg.var(v).producer {
            Some(p) => p.index(),
            None => self.input_node[v.index()],
        }
    }

    /// The refinement adjacency, built once: an op's operand edges
    /// (producer or input, per port), then for every node the ports that
    /// consume its variable.
    fn adjacency(&self) -> (Vec<u64>, Vec<usize>) {
        let dfg = self.dfg;
        let mut edges = Vec::with_capacity(4 * dfg.num_ops());
        let mut edge_start = Vec::with_capacity(self.num_nodes() + 1);
        let consumed = |v: VarId, edges: &mut Vec<u64>| {
            for &c in &dfg.var(v).consumers {
                let op = dfg.op(c);
                if op.lhs == Operand::Var(v) {
                    edges.push(ROLE_CONSUMED_LHS << ROLE_SHIFT | c.index() as u64);
                }
                if op.rhs == Operand::Var(v) {
                    edges.push(ROLE_CONSUMED_RHS << ROLE_SHIFT | c.index() as u64);
                }
            }
        };
        for op in dfg.op_ids() {
            edge_start.push(edges.len());
            let info = dfg.op(op);
            for (operand, producer_role, input_role) in [
                (info.lhs, ROLE_LHS_PRODUCER, ROLE_LHS_INPUT),
                (info.rhs, ROLE_RHS_PRODUCER, ROLE_RHS_INPUT),
            ] {
                if let Operand::Var(v) = operand {
                    let role = if dfg.var(v).producer.is_some() {
                        producer_role
                    } else {
                        input_role
                    };
                    edges.push(role << ROLE_SHIFT | self.var_node(v) as u64);
                }
            }
            consumed(info.out, &mut edges);
        }
        for &v in &self.inputs {
            edge_start.push(edges.len());
            consumed(v, &mut edges);
        }
        edge_start.push(edges.len());
        (edges, edge_start)
    }

    /// Initial invariant colors as dense ranks. An op's color is
    /// `(0, step, kind, lhs shape, rhs shape, is_output)` with a shape
    /// `(0, 0)` for a produced variable, `(1, 0)` for an input and
    /// `(2, value)` for a constant; an input's is `(1, is_output)`. The
    /// fixed width orders exactly as the variable-length tuples the
    /// reference sorts, where only a constant adds its value.
    fn initial_ranks(&self) -> Vec<usize> {
        let n = self.dfg.num_ops();
        let colors: Vec<[u64; 8]> = (0..self.num_nodes())
            .map(|node| {
                if node < n {
                    let op = self.dfg.op(OpId(node as u32));
                    let shape = |operand: Operand| match operand {
                        Operand::Var(v) if self.dfg.var(v).producer.is_some() => (0, 0),
                        Operand::Var(_) => (1, 0),
                        Operand::Const(k) => (2, k as u64),
                    };
                    let (lt, lv) = shape(op.lhs);
                    let (rt, rv) = shape(op.rhs);
                    [
                        0,
                        u64::from(self.schedule.step(OpId(node as u32))),
                        kind_index(op.kind),
                        lt,
                        lv,
                        rt,
                        rv,
                        u64::from(self.dfg.var(op.out).is_output),
                    ]
                } else {
                    let v = self.inputs[node - n];
                    [1, u64::from(self.dfg.var(v).is_output), 0, 0, 0, 0, 0, 0]
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..colors.len()).collect();
        order.sort_unstable_by_key(|&node| colors[node]);
        let mut ranks = vec![0usize; colors.len()];
        for i in 1..order.len() {
            let step = usize::from(colors[order[i]] != colors[order[i - 1]]);
            ranks[order[i]] = ranks[order[i - 1]] + step;
        }
        ranks
    }

    /// Refines `ranks` until the partition stops splitting: every pass
    /// re-ranks nodes by `(old rank, sorted (role, neighbor rank) pairs)`.
    /// Leading with the old rank makes it a strict refinement — class
    /// order is preserved, classes only split — so the nodes are
    /// bucketed by old rank and only classes of two or more are sorted.
    /// On return the ranks are dense.
    fn refine(&self, ranks: &mut [usize], scratch: &mut Scratch) {
        let nodes = self.num_nodes();
        let Scratch {
            sig,
            order,
            count,
            next,
        } = scratch;
        loop {
            for node in 0..nodes {
                let span = self.edge_start[node]..self.edge_start[node + 1];
                for (s, &e) in sig[span.clone()].iter_mut().zip(&self.edges[span.clone()]) {
                    *s = (e & !LOW) | ranks[(e & LOW) as usize] as u64;
                }
                sig[span].sort_unstable();
            }
            let tail = |node: usize| &sig[self.edge_start[node]..self.edge_start[node + 1]];
            // Bucket by old rank (ranks may be sparse after branching).
            count.clear();
            count.resize(ranks.iter().max().map_or(0, |&r| r + 2), 0);
            for &r in ranks.iter() {
                count[r + 1] += 1;
            }
            let before = count.iter().filter(|&&c| c > 0).count();
            for r in 1..count.len() {
                count[r] += count[r - 1];
            }
            order.resize(nodes, 0);
            for node in 0..nodes {
                let slot = &mut count[ranks[node]];
                order[*slot] = node;
                *slot += 1;
            }
            let mut lo = 0;
            while lo < nodes {
                let mut hi = lo + 1;
                while hi < nodes && ranks[order[hi]] == ranks[order[lo]] {
                    hi += 1;
                }
                if hi - lo > 1 {
                    order[lo..hi].sort_unstable_by(|&a, &b| tail(a).cmp(tail(b)));
                }
                lo = hi;
            }
            next.resize(nodes, 0);
            let mut rank = 0;
            for i in 0..nodes {
                let (node, prev) = (order[i], order[i.saturating_sub(1)]);
                if i > 0 && (ranks[node] != ranks[prev] || tail(node) != tail(prev)) {
                    rank += 1;
                }
                next[node] = rank;
            }
            ranks.copy_from_slice(&next[..nodes]);
            let after = if nodes == 0 { 0 } else { rank + 1 };
            if after == before {
                return;
            }
        }
    }

    /// Serializes the canonical design under a discrete ranking into
    /// `out`. The bytes fully determine the canonical graph and
    /// schedule, so equal encodings imply isomorphic originals.
    fn encode(&self, ranks: &[usize], out: &mut Vec<u8>) {
        let n = self.dfg.num_ops();
        let m = self.inputs.len();
        // Discrete ranks: ops occupy 0..n (step-major), inputs n..n+m.
        let mut op_at = vec![0usize; n];
        let mut input_at = vec![0usize; m];
        for (node, &r) in ranks.iter().enumerate() {
            if node < n {
                op_at[r] = node;
            } else {
                input_at[r - n] = node - n;
            }
        }
        let canonical_var = |v: VarId| -> u32 {
            match self.dfg.var(v).producer {
                Some(p) => (m + ranks[p.index()]) as u32,
                None => (ranks[self.input_node[v.index()]] - n) as u32,
            }
        };
        out.clear();
        out.reserve(16 + 24 * n + 2 * m);
        out.extend_from_slice(&(m as u32).to_le_bytes());
        for &j in &input_at {
            out.push(u8::from(self.dfg.var(self.inputs[j]).is_output));
        }
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for &i in &op_at {
            let op = self.dfg.op(OpId(i as u32));
            out.push(kind_index(op.kind) as u8);
            out.extend_from_slice(&self.schedule.step(OpId(i as u32)).to_le_bytes());
            for operand in [op.lhs, op.rhs] {
                match operand {
                    Operand::Var(v) => {
                        out.push(0);
                        out.extend_from_slice(&canonical_var(v).to_le_bytes());
                    }
                    Operand::Const(k) => {
                        out.push(1);
                        out.extend_from_slice(&k.to_le_bytes());
                    }
                }
            }
            out.push(u8::from(self.dfg.var(op.out).is_output));
        }
    }
}

fn kind_index(kind: OpKind) -> u64 {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL") as u64
}

/// Buffers reused by every refinement pass of one canonization.
#[derive(Default)]
struct Scratch {
    /// Signature entries, laid out like [`Ctx::edges`].
    sig: Vec<u64>,
    /// Nodes in signature order.
    order: Vec<usize>,
    /// Per-rank counts: bucket offsets, class sizes.
    count: Vec<usize>,
    /// The ranks being assigned.
    next: Vec<usize>,
}

struct Search<'a> {
    ctx: &'a Ctx<'a>,
    scratch: Scratch,
    leaf: Vec<u8>,
    best: Option<(Vec<u8>, Vec<usize>)>,
    leaves: usize,
    bailed: bool,
}

impl Search<'_> {
    fn descend(&mut self, mut ranks: Vec<usize>) {
        if self.leaves >= LEAF_BUDGET {
            self.bailed = true;
            return;
        }
        self.ctx.refine(&mut ranks, &mut self.scratch);
        // Smallest non-singleton class, lowest rank breaking ties; the
        // refined ranks are dense, so sizes are counts by rank.
        let sizes = &mut self.scratch.count;
        sizes.clear();
        sizes.resize(ranks.len(), 0);
        for &r in &ranks {
            sizes[r] += 1;
        }
        let target = (0..sizes.len())
            .filter(|&r| sizes[r] > 1)
            .min_by_key(|&r| (sizes[r], r));
        let Some(target_rank) = target else {
            // Discrete: one candidate labeling.
            self.leaves += 1;
            self.ctx.encode(&ranks, &mut self.leaf);
            if self.best.as_ref().is_none_or(|(best, _)| self.leaf < *best) {
                self.best = Some((self.leaf.clone(), ranks));
            }
            return;
        };
        let members: Vec<usize> = (0..ranks.len())
            .filter(|&node| ranks[node] == target_rank)
            .collect();
        for &chosen in &members {
            let branched: Vec<usize> = (0..ranks.len())
                .map(|node| {
                    2 * ranks[node]
                        + usize::from(ranks[node] == target_rank && node != chosen)
                })
                .collect();
            self.descend(branched);
            if self.leaves >= LEAF_BUDGET {
                self.bailed = true;
                return;
            }
        }
    }
}

/// Canonizes a scheduled DFG. Pure and deterministic: the same design
/// always yields the same [`CanonForm`], and isomorphic designs yield
/// byte-identical encodings unless the symmetry search
/// [bails out](CanonForm::bailed).
pub fn canonize(dfg: &Dfg, schedule: &Schedule) -> CanonForm {
    let ctx = Ctx::new(dfg, schedule);
    let ranks = ctx.initial_ranks();
    let mut search = Search {
        ctx: &ctx,
        scratch: Scratch {
            sig: vec![0; ctx.edges.len()],
            ..Scratch::default()
        },
        leaf: Vec::new(),
        best: None,
        leaves: 0,
        bailed: false,
    };
    search.descend(ranks);
    let (encoding, ranks) = search.best.expect("at least one leaf is always reached");
    build_form(&ctx, encoding, &ranks, search.bailed)
}

/// The canonical relabeling of a validated graph: inputs `i0..`, op
/// results `t0..` (ops `t0_op..`) in canonical order, assembled
/// directly — exactly what [`DfgBuilder`] would build, without its
/// checks, which a relabeling passes by construction.
fn build_form(ctx: &Ctx<'_>, encoding: Vec<u8>, ranks: &[usize], bailed: bool) -> CanonForm {
    let dfg = ctx.dfg;
    let n = dfg.num_ops();
    let m = ctx.inputs.len();
    let mut op_perm = vec![0u32; n];
    let mut op_at = vec![OpId(0); n];
    for i in 0..n {
        op_perm[i] = ranks[i] as u32;
        op_at[ranks[i]] = OpId(i as u32);
    }
    let mut var_perm = vec![0u32; dfg.num_vars()];
    for v in dfg.var_ids() {
        var_perm[v.index()] = match dfg.var(v).producer {
            Some(p) => (m + ranks[p.index()]) as u32,
            None => (ranks[ctx.input_node[v.index()]] - n) as u32,
        };
    }
    let mut var_inverse = vec![0u32; dfg.num_vars()];
    for (orig, &canon) in var_perm.iter().enumerate() {
        var_inverse[canon as usize] = orig as u32;
    }

    let map_operand = |o: Operand| -> Operand {
        match o {
            Operand::Var(v) => Operand::Var(VarId(var_perm[v.index()])),
            c @ Operand::Const(_) => c,
        }
    };
    let mut vars: Vec<VarInfo> = var_inverse
        .iter()
        .enumerate()
        .map(|(canon, &orig)| VarInfo {
            name: if canon < m {
                numbered("i", canon, "")
            } else {
                numbered("t", canon - m, "")
            },
            producer: (canon >= m).then(|| OpId((canon - m) as u32)),
            consumers: Vec::new(),
            is_output: dfg.var(VarId(orig)).is_output,
        })
        .collect();
    let mut ops = Vec::with_capacity(n);
    let mut steps = Vec::with_capacity(n);
    for (p, &old) in op_at.iter().enumerate() {
        let op = dfg.op(old);
        let (lhs, rhs) = (map_operand(op.lhs), map_operand(op.rhs));
        for v in [lhs, rhs].into_iter().filter_map(Operand::var) {
            let consumers = &mut vars[v.index()].consumers;
            if consumers.last() != Some(&OpId(p as u32)) {
                consumers.push(OpId(p as u32));
            }
        }
        ops.push(OpInfo {
            name: numbered("t", p, "_op"),
            kind: op.kind,
            lhs,
            rhs,
            out: VarId((m + p) as u32),
        });
        steps.push(ctx.schedule.step(old));
    }
    let canon_dfg = Dfg::from_valid_parts(vars, ops);
    let canon_schedule = Schedule::new(&canon_dfg, steps)
        .expect("canonical op order is step-major, hence topological");
    CanonForm {
        dfg: canon_dfg,
        schedule: canon_schedule,
        encoding,
        op_perm,
        var_perm,
        var_inverse,
        bailed,
    }
}

/// `{prefix}{index}{suffix}`, written without the formatting
/// machinery: a canonical graph names every variable and operation, and
/// `format!` was a fifth of the canonizer's time on the sweep designs.
fn numbered(prefix: &str, index: usize, suffix: &str) -> String {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = index;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut name = String::with_capacity(prefix.len() + digits.len() - at + suffix.len());
    name.push_str(prefix);
    name.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    name.push_str(suffix);
    name
}

/// Calls `at` with the byte offset of every per-op schedule step inside
/// a canonical encoding; `None` if the bytes do not follow the
/// [`CanonForm::encoding`] layout.
fn visit_steps(encoding: &[u8], mut at: impl FnMut(usize, u32)) -> Option<()> {
    let take_u32 = |pos: &mut usize| -> Option<u32> {
        let bytes = encoding.get(*pos..pos.checked_add(4)?)?;
        *pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    };
    let mut pos = 0usize;
    let m = take_u32(&mut pos)? as usize;
    pos = pos.checked_add(m)?; // per-input is_output flags
    let n = take_u32(&mut pos)?;
    for _ in 0..n {
        pos = pos.checked_add(1)?; // op kind
        let step_at = pos;
        at(step_at, take_u32(&mut pos)?);
        for _ in 0..2 {
            let tag = *encoding.get(pos)?;
            pos += 1;
            match tag {
                0 => pos = pos.checked_add(4)?, // canonical var id
                1 => pos = pos.checked_add(8)?, // inline constant
                _ => return None,
            }
        }
        pos = pos.checked_add(1)?; // is_output flag
    }
    (pos == encoding.len()).then_some(())
}

/// Streams a canonical encoding to `sink` with every schedule step
/// lowered so the earliest is 1, as chunks whose concatenation is the
/// rebased encoding — callers hash it without copying it. Returns the
/// shift that was removed (0 when the earliest step already is 1), or
/// `None` without calling `sink` if the bytes do not parse as a
/// [`CanonForm::encoding`] (never the case for encodings produced by
/// this module).
pub fn visit_rebased(encoding: &[u8], mut sink: impl FnMut(&[u8])) -> Option<u32> {
    let mut earliest = u32::MAX;
    visit_steps(encoding, |_, step| earliest = earliest.min(step))?;
    let shift = match earliest {
        u32::MAX => 0, // no operations
        s => s.checked_sub(1)?,
    };
    let mut done = 0;
    visit_steps(encoding, |pos, step| {
        sink(&encoding[done..pos]);
        sink(&(step - shift).to_le_bytes());
        done = pos + 4;
    })?;
    sink(&encoding[done..]);
    Some(shift)
}

/// The rebased encoding [`visit_rebased`] streams, collected.
pub fn rebase_encoding(encoding: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(encoding.len());
    visit_rebased(encoding, |chunk| out.extend_from_slice(chunk))?;
    Some(out)
}

/// The simulator's splitmix64 step, reused for seeded permutations.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Produces a seeded isomorphic twin of `dfg`: primary inputs are
/// re-declared in shuffled order, operations are emitted in a random
/// topological order, and every name is rewritten to a seed-tagged
/// fresh one. Returns the twin plus the op map (`ops[i]` = new [`OpId`]
/// of original op `i`) and the var map (`vars[i]` = new [`VarId`] of
/// original var `i`).
pub fn permute_dfg(dfg: &Dfg, seed: u64) -> (Dfg, Vec<OpId>, Vec<VarId>) {
    let mut rng = seed ^ 0x5bf0_3635;
    let tag = splitmix64(&mut rng) % 1000;
    let mut b = DfgBuilder::new();
    let mut new_var = vec![VarId(0); dfg.num_vars()];

    let mut inputs: Vec<VarId> = dfg.primary_inputs().collect();
    shuffle(&mut inputs, &mut rng);
    for (j, &v) in inputs.iter().enumerate() {
        new_var[v.index()] = b.input(&format!("p{tag}_{j}"));
    }

    // Random topological order: repeatedly emit a random ready op.
    let n = dfg.num_ops();
    let mut pending: Vec<usize> = Vec::with_capacity(n);
    let mut indeg = vec![0usize; n];
    for op in dfg.op_ids() {
        // Count *distinct* produced inputs: `consumers` lists an op once
        // per variable (not per operand), so an op reading the same var
        // on both sides gets exactly one ready-decrement for it.
        let mut ins: Vec<VarId> = dfg
            .op(op)
            .input_vars()
            .filter(|&v| dfg.var(v).producer.is_some())
            .collect();
        ins.dedup();
        indeg[op.index()] = ins.len();
        if indeg[op.index()] == 0 {
            pending.push(op.index());
        }
    }
    let mut op_map = vec![OpId(0); n];
    let mut emitted = 0usize;
    while !pending.is_empty() {
        let pick = (splitmix64(&mut rng) % pending.len() as u64) as usize;
        let i = pending.swap_remove(pick);
        let op = dfg.op(OpId(i as u32));
        let map_operand = |o: Operand| -> Operand {
            match o {
                Operand::Var(v) => Operand::Var(new_var[v.index()]),
                c @ Operand::Const(_) => c,
            }
        };
        op_map[i] = OpId(emitted as u32);
        new_var[op.out.index()] = b.op(
            op.kind,
            &format!("q{tag}_{emitted}"),
            map_operand(op.lhs),
            map_operand(op.rhs),
        );
        emitted += 1;
        for &c in &dfg.var(op.out).consumers {
            indeg[c.index()] -= 1;
            if indeg[c.index()] == 0 {
                pending.push(c.index());
            }
        }
    }
    debug_assert_eq!(emitted, n, "validated DFGs are acyclic");
    for v in dfg.var_ids() {
        if dfg.var(v).is_output {
            b.mark_output(new_var[v.index()]);
        }
    }
    (
        b.build().expect("permutation preserves validity"),
        op_map,
        new_var,
    )
}

/// As [`permute_dfg`], also carrying the schedule over (each operation
/// keeps its step, so the twin's schedule is valid and step-identical).
pub fn permute(dfg: &Dfg, schedule: &Schedule, seed: u64) -> (Dfg, Schedule) {
    let (twin, schedule, _) = permute_scheduled(dfg, schedule, seed);
    (twin, schedule)
}

/// As [`permute`], also returning the var map (`vars[i]` = twin
/// [`VarId`] of original var `i`) so callers can translate results
/// computed on the twin back into the original's coordinates.
pub fn permute_scheduled(dfg: &Dfg, schedule: &Schedule, seed: u64) -> (Dfg, Schedule, Vec<VarId>) {
    let (twin, op_map, var_map) = permute_dfg(dfg, seed);
    let mut steps = vec![0u32; dfg.num_ops()];
    for op in dfg.op_ids() {
        steps[op_map[op.index()].index()] = schedule.step(op);
    }
    let schedule = Schedule::new(&twin, steps).expect("steps are per-op invariants");
    (twin, schedule, var_map)
}

/// The executable reference [`canonize`] is differentially tested
/// against: initial colors and per-pass signatures as one `Vec` per
/// node, each pass sorting all of them, class sizes in a map, and the
/// canonical graph rebuilt through [`DfgBuilder`].
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::*;

    fn initial_color(ctx: &Ctx<'_>, node: usize) -> Vec<u64> {
        let n = ctx.dfg.num_ops();
        if node < n {
            let op = ctx.dfg.op(OpId(node as u32));
            let mut c = vec![
                0,
                u64::from(ctx.schedule.step(OpId(node as u32))),
                kind_index(op.kind),
            ];
            for operand in [op.lhs, op.rhs] {
                match operand {
                    Operand::Var(v) if ctx.dfg.var(v).producer.is_some() => c.push(0),
                    Operand::Var(_) => c.push(1),
                    Operand::Const(k) => {
                        c.push(2);
                        c.push(k as u64);
                    }
                }
            }
            c.push(u64::from(ctx.dfg.var(op.out).is_output));
            c
        } else {
            let v = ctx.inputs[node - n];
            vec![1, u64::from(ctx.dfg.var(v).is_output)]
        }
    }

    fn edges(ctx: &Ctx<'_>, node: usize) -> Vec<(u64, usize)> {
        let n = ctx.dfg.num_ops();
        let mut e = Vec::new();
        let consumed_edges = |v: VarId, e: &mut Vec<(u64, usize)>| {
            for &c in &ctx.dfg.var(v).consumers {
                let op = ctx.dfg.op(c);
                if op.lhs == Operand::Var(v) {
                    e.push((ROLE_CONSUMED_LHS, c.index()));
                }
                if op.rhs == Operand::Var(v) {
                    e.push((ROLE_CONSUMED_RHS, c.index()));
                }
            }
        };
        if node < n {
            let op = ctx.dfg.op(OpId(node as u32));
            for (operand, producer_role, input_role) in [
                (op.lhs, ROLE_LHS_PRODUCER, ROLE_LHS_INPUT),
                (op.rhs, ROLE_RHS_PRODUCER, ROLE_RHS_INPUT),
            ] {
                if let Operand::Var(v) = operand {
                    let role = if ctx.dfg.var(v).producer.is_some() {
                        producer_role
                    } else {
                        input_role
                    };
                    e.push((role, ctx.var_node(v)));
                }
            }
            consumed_edges(op.out, &mut e);
        } else {
            consumed_edges(ctx.inputs[node - n], &mut e);
        }
        e
    }

    fn refine(ctx: &Ctx<'_>, ranks: &mut [usize]) {
        loop {
            let before = distinct(ranks);
            let mut sigs: Vec<(Vec<u64>, usize)> = (0..ctx.num_nodes())
                .map(|node| {
                    let mut sig = vec![ranks[node] as u64];
                    let mut nb: Vec<(u64, u64)> = edges(ctx, node)
                        .into_iter()
                        .map(|(role, n)| (role, ranks[n] as u64))
                        .collect();
                    nb.sort_unstable();
                    for (role, r) in nb {
                        sig.push(role);
                        sig.push(r);
                    }
                    (sig, node)
                })
                .collect();
            rerank(&mut sigs, ranks);
            if distinct(ranks) == before {
                return;
            }
        }
    }

    fn distinct(ranks: &[usize]) -> usize {
        let mut seen: Vec<usize> = ranks.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    fn rerank(sigs: &mut [(Vec<u64>, usize)], ranks: &mut [usize]) {
        sigs.sort_unstable();
        let mut rank = 0usize;
        for i in 0..sigs.len() {
            if i > 0 && sigs[i].0 != sigs[i - 1].0 {
                rank += 1;
            }
            ranks[sigs[i].1] = rank;
        }
    }

    struct Search<'a> {
        ctx: &'a Ctx<'a>,
        best: Option<(Vec<u8>, Vec<usize>)>,
        leaves: usize,
        bailed: bool,
    }

    impl Search<'_> {
        fn descend(&mut self, mut ranks: Vec<usize>) {
            if self.leaves >= LEAF_BUDGET {
                self.bailed = true;
                return;
            }
            refine(self.ctx, &mut ranks);
            let mut class_size: HashMap<usize, usize> = HashMap::new();
            for &r in &ranks {
                *class_size.entry(r).or_insert(0) += 1;
            }
            let target = class_size
                .iter()
                .filter(|&(_, &size)| size > 1)
                .map(|(&r, &size)| (size, r))
                .min();
            let Some((_, target_rank)) = target else {
                self.leaves += 1;
                let mut encoding = Vec::new();
                self.ctx.encode(&ranks, &mut encoding);
                if self.best.as_ref().is_none_or(|(best, _)| encoding < *best) {
                    self.best = Some((encoding, ranks));
                }
                return;
            };
            let members: Vec<usize> = (0..ranks.len())
                .filter(|&node| ranks[node] == target_rank)
                .collect();
            for &chosen in &members {
                let branched: Vec<usize> = (0..ranks.len())
                    .map(|node| {
                        2 * ranks[node]
                            + usize::from(ranks[node] == target_rank && node != chosen)
                    })
                    .collect();
                self.descend(branched);
                if self.leaves >= LEAF_BUDGET {
                    self.bailed = true;
                    return;
                }
            }
        }
    }

    pub(crate) fn canonize(dfg: &Dfg, schedule: &Schedule) -> CanonForm {
        let ctx = Ctx::new(dfg, schedule);
        let mut sigs: Vec<(Vec<u64>, usize)> = (0..ctx.num_nodes())
            .map(|node| (initial_color(&ctx, node), node))
            .collect();
        let mut ranks = vec![0usize; ctx.num_nodes()];
        rerank(&mut sigs, &mut ranks);
        let mut search = Search {
            ctx: &ctx,
            best: None,
            leaves: 0,
            bailed: false,
        };
        search.descend(ranks);
        let (encoding, ranks) = search.best.expect("at least one leaf is always reached");
        build_form(&ctx, encoding, &ranks, search.bailed)
    }

    fn build_form(ctx: &Ctx<'_>, encoding: Vec<u8>, ranks: &[usize], bailed: bool) -> CanonForm {
        let dfg = ctx.dfg;
        let n = dfg.num_ops();
        let m = ctx.inputs.len();
        let mut op_perm = vec![0u32; n];
        let mut op_at = vec![OpId(0); n];
        for i in 0..n {
            op_perm[i] = ranks[i] as u32;
            op_at[ranks[i]] = OpId(i as u32);
        }
        let mut var_perm = vec![0u32; dfg.num_vars()];
        for v in dfg.var_ids() {
            var_perm[v.index()] = match dfg.var(v).producer {
                Some(p) => (m + ranks[p.index()]) as u32,
                None => (ranks[ctx.input_node[v.index()]] - n) as u32,
            };
        }
        let mut var_inverse = vec![0u32; dfg.num_vars()];
        for (orig, &canon) in var_perm.iter().enumerate() {
            var_inverse[canon as usize] = orig as u32;
        }

        let mut b = DfgBuilder::new();
        let mut canon_vars: Vec<VarId> = Vec::with_capacity(dfg.num_vars());
        for j in 0..m {
            canon_vars.push(b.input(&format!("i{j}")));
        }
        let map_operand = |o: Operand| -> Operand {
            match o {
                Operand::Var(v) => Operand::Var(VarId(var_perm[v.index()])),
                c @ Operand::Const(_) => c,
            }
        };
        let mut steps = Vec::with_capacity(n);
        for (p, &old) in op_at.iter().enumerate() {
            let op = dfg.op(old);
            let out = b.op(op.kind, &format!("t{p}"), map_operand(op.lhs), map_operand(op.rhs));
            canon_vars.push(out);
            steps.push(ctx.schedule.step(old));
        }
        for v in dfg.var_ids() {
            if dfg.var(v).is_output {
                b.mark_output(canon_vars[var_perm[v.index()] as usize]);
            }
        }
        let canon_dfg = b.build().expect("canonical relabeling preserves validity");
        let canon_schedule = Schedule::new(&canon_dfg, steps)
            .expect("canonical op order is step-major, hence topological");
        CanonForm {
            dfg: canon_dfg,
            schedule: canon_schedule,
            encoding,
            op_perm,
            var_perm,
            var_inverse,
            bailed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::parse::to_text;

    fn all_benches() -> Vec<(Dfg, Schedule)> {
        benchmarks::paper_suite()
            .into_iter()
            .map(|b| (b.dfg, b.schedule))
            .collect()
    }

    #[test]
    fn canonization_is_idempotent() {
        for (dfg, schedule) in all_benches() {
            let c1 = canonize(&dfg, &schedule);
            let c2 = canonize(&c1.dfg, &c1.schedule);
            assert_eq!(c1.encoding, c2.encoding);
            assert_eq!(
                to_text(&c1.dfg, &c1.schedule),
                to_text(&c2.dfg, &c2.schedule)
            );
        }
    }

    #[test]
    fn permuted_twins_share_the_encoding() {
        for (dfg, schedule) in all_benches() {
            let base = canonize(&dfg, &schedule);
            assert!(!base.bailed, "paper suite fits the leaf budget");
            for seed in 0..8 {
                let (twin, twin_schedule) = permute(&dfg, &schedule, seed);
                assert_ne!(
                    to_text(&dfg, &schedule),
                    to_text(&twin, &twin_schedule),
                    "permutation must actually rename"
                );
                let c = canonize(&twin, &twin_schedule);
                assert_eq!(base.encoding, c.encoding, "seed {seed}");
                assert_eq!(
                    to_text(&base.dfg, &base.schedule),
                    to_text(&c.dfg, &c.schedule)
                );
            }
        }
    }

    #[test]
    fn permutations_are_bijections() {
        for (dfg, schedule) in all_benches() {
            let c = canonize(&dfg, &schedule);
            let mut seen_ops = vec![false; dfg.num_ops()];
            for &p in &c.op_perm {
                assert!(!seen_ops[p as usize]);
                seen_ops[p as usize] = true;
            }
            for v in dfg.var_ids() {
                assert_eq!(c.original_var(c.canonical_var(v)), v);
            }
        }
    }

    #[test]
    fn canonical_form_preserves_structure() {
        for (dfg, schedule) in all_benches() {
            let c = canonize(&dfg, &schedule);
            assert_eq!(c.dfg.num_ops(), dfg.num_ops());
            assert_eq!(c.dfg.num_vars(), dfg.num_vars());
            assert_eq!(c.schedule.max_step(), schedule.max_step());
            for op in dfg.op_ids() {
                let canon_op = OpId(c.op_perm[op.index()]);
                assert_eq!(c.dfg.op(canon_op).kind, dfg.op(op).kind);
                assert_eq!(c.schedule.step(canon_op), schedule.step(op));
                assert_eq!(
                    c.dfg.var(c.dfg.op(canon_op).out).is_output,
                    dfg.var(dfg.op(op).out).is_output
                );
            }
        }
    }

    #[test]
    fn operand_order_is_structural() {
        let build = |flip: bool| {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let y = b.input("y");
            let d = if flip {
                b.op(OpKind::Sub, "d", y.into(), x.into())
            } else {
                b.op(OpKind::Sub, "d", x.into(), y.into())
            };
            let e = b.op(OpKind::Add, "e", d.into(), x.into());
            b.mark_output(e);
            let dfg = b.build().unwrap();
            let schedule = Schedule::new(&dfg, vec![1, 2]).unwrap();
            canonize(&dfg, &schedule).encoding
        };
        assert_ne!(build(false), build(true), "x - y is not y - x");
    }

    #[test]
    fn distinct_designs_get_distinct_encodings() {
        let build = |kind: OpKind| {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let y = b.input("y");
            let t = b.op(kind, "t", x.into(), y.into());
            b.mark_output(t);
            let dfg = b.build().unwrap();
            let schedule = Schedule::new(&dfg, vec![1]).unwrap();
            canonize(&dfg, &schedule).encoding
        };
        assert_ne!(build(OpKind::Add), build(OpKind::Mul));
    }

    #[test]
    fn symmetric_twins_are_broken_deterministically() {
        // Two interchangeable multiply trees feeding one add: refinement
        // alone cannot split them; individualization must, and the result
        // must not depend on declaration order.
        let build = |swap: bool| {
            let mut b = DfgBuilder::new();
            let a = b.input("a");
            let c = b.input("c");
            let d = b.input("d");
            let e = b.input("e");
            let (p, q) = if swap { ((d, e), (a, c)) } else { ((a, c), (d, e)) };
            let m1 = b.op(OpKind::Mul, "m1", p.0.into(), p.1.into());
            let m2 = b.op(OpKind::Mul, "m2", q.0.into(), q.1.into());
            let s = b.op(OpKind::Add, "s", m1.into(), m2.into());
            b.mark_output(s);
            let dfg = b.build().unwrap();
            let schedule = Schedule::new(&dfg, vec![1, 1, 2]).unwrap();
            canonize(&dfg, &schedule)
        };
        let c1 = build(false);
        let c2 = build(true);
        assert!(!c1.bailed);
        assert_eq!(c1.encoding, c2.encoding);
        assert_eq!(
            to_text(&c1.dfg, &c1.schedule),
            to_text(&c2.dfg, &c2.schedule)
        );
    }

    fn shifted(dfg: &Dfg, schedule: &Schedule, k: u32) -> Schedule {
        let steps: Vec<u32> = schedule.as_slice().iter().map(|s| s + k).collect();
        Schedule::new(dfg, steps).expect("uniform shifts stay topological")
    }

    #[test]
    fn rebase_is_identity_on_unshifted_schedules() {
        for (dfg, schedule) in all_benches() {
            let canon = canonize(&dfg, &schedule);
            assert_eq!(rebase_encoding(&canon.encoding), Some(canon.encoding.clone()));
            assert_eq!(visit_rebased(&canon.encoding, |_| {}), Some(0));
        }
    }

    #[test]
    fn rebase_collapses_uniform_shifts() {
        use crate::corpus::{generate, CorpusKind};
        use crate::scheduling::asap;
        let dfg = generate(CorpusKind::Fir, 12, 7);
        let schedule = asap(&dfg);
        let base = canonize(&dfg, &schedule);
        for k in [1u32, 3, 17] {
            let moved = canonize(&dfg, &shifted(&dfg, &schedule, k));
            assert_ne!(base.encoding, moved.encoding, "absolute steps differ at k={k}");
            assert_eq!(
                rebase_encoding(&base.encoding).unwrap(),
                rebase_encoding(&moved.encoding).unwrap(),
                "rebased encodings collide at k={k}"
            );
            assert_eq!(visit_rebased(&moved.encoding, |_| {}), Some(k));
            assert_eq!(base.op_perm, moved.op_perm, "relabeling is shift-invariant");
            assert_eq!(base.var_perm, moved.var_perm);
        }
    }

    #[test]
    fn rebase_rejects_garbage_without_emitting() {
        let mut emitted = 0;
        assert_eq!(visit_rebased(&[1, 2, 3], |_| emitted += 1), None);
        let bench = benchmarks::ex1();
        let mut truncated = canonize(&bench.dfg, &bench.schedule).encoding;
        truncated.pop();
        assert_eq!(visit_rebased(&truncated, |_| emitted += 1), None);
        assert!(rebase_encoding(&truncated).is_none());
        assert_eq!(emitted, 0, "invalid encodings never reach the sink");
    }

    #[test]
    fn encoding_equality_implies_identical_canonical_text() {
        // The encoding determines the canonical design, so two equal
        // encodings must rebuild the same text — spot-check on a corpus
        // family against its own permutation.
        use crate::corpus::{generate, CorpusKind};
        use crate::scheduling::asap;
        let dfg = generate(CorpusKind::Fir, 8, 3);
        let schedule = asap(&dfg);
        let c1 = canonize(&dfg, &schedule);
        let (twin, twin_schedule) = permute(&dfg, &schedule, 17);
        let c2 = canonize(&twin, &twin_schedule);
        assert_eq!(c1.encoding, c2.encoding);
        assert_eq!(
            to_text(&c1.dfg, &c1.schedule),
            to_text(&c2.dfg, &c2.schedule)
        );
    }

    fn assert_same_form(a: &CanonForm, b: &CanonForm, what: &str) {
        assert_eq!(a.encoding, b.encoding, "{what}: encoding");
        assert_eq!(a.op_perm, b.op_perm, "{what}: op_perm");
        assert_eq!(a.var_perm, b.var_perm, "{what}: var_perm");
        assert_eq!(a.var_inverse, b.var_inverse, "{what}: var_inverse");
        assert_eq!(a.bailed, b.bailed, "{what}: bailed");
        assert_eq!(a.dfg, b.dfg, "{what}: canonical graph");
        assert_eq!(a.schedule, b.schedule, "{what}: canonical schedule");
    }

    /// `count` independent ops of one kind in one step, plus `tail`
    /// ops chaining their results: refinement alone cannot order the
    /// independent ones, so the search individualizes (and past
    /// `count = 5` or so, exhausts its leaf budget).
    fn symmetric(count: usize, tail: usize) -> (Dfg, Schedule) {
        let mut b = DfgBuilder::new();
        let mut outs = Vec::new();
        for i in 0..count {
            let x = b.input(&format!("a{i}"));
            let y = b.input(&format!("b{i}"));
            outs.push(b.op(OpKind::Mul, &format!("m{i}"), x.into(), y.into()));
        }
        let mut steps = vec![1; count];
        let mut acc = outs[0];
        for (i, &o) in outs.iter().enumerate().skip(1).take(tail) {
            acc = b.op(OpKind::Add, &format!("s{i}"), acc.into(), o.into());
            steps.push(1 + i as u32);
        }
        for v in outs.iter().skip(1 + tail).chain([&acc]) {
            b.mark_output(*v);
        }
        let dfg = b.build().unwrap();
        let schedule = Schedule::new(&dfg, steps).unwrap();
        (dfg, schedule)
    }

    #[test]
    fn flat_refinement_matches_the_reference() {
        use crate::corpus::{generate, KINDS};
        use crate::random::{random_scheduled_dfg, RandomDfgConfig};
        use crate::scheduling::{asap, list_schedule};
        let mut designs: Vec<(String, Dfg, Schedule)> = all_benches()
            .into_iter()
            .enumerate()
            .map(|(i, (d, s))| (format!("paper {i}"), d, s))
            .collect();
        let sets: Vec<crate::modules::ModuleSet> =
            ["1+,1*,1-", "2+,2*,2-"].iter().map(|s| s.parse().unwrap()).collect();
        for size in [1, 3, 8, 16, 24] {
            for kind in KINDS {
                let dfg = generate(kind, size, 1);
                for seed in [0, 7] {
                    let (twin, _, _) = permute_dfg(&dfg, seed);
                    for modules in &sets {
                        let schedule = list_schedule(&twin, modules).unwrap();
                        designs.push((format!("{kind:?} {size} {seed} {modules}"), twin.clone(), schedule));
                    }
                    let schedule = asap(&twin);
                    designs.push((format!("{kind:?} {size} {seed} asap"), twin.clone(), schedule));
                }
            }
        }
        for seed in 0..40u64 {
            let cfg = RandomDfgConfig {
                num_ops: 1 + (seed as usize * 5) % 40,
                num_inputs: 1 + seed as usize % 5,
                max_ops_per_step: 1 + seed as usize % 4,
                kinds: &OpKind::ALL,
            };
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            designs.push((format!("random {seed}"), dfg, schedule));
        }
        for (count, tail) in [(2, 0), (3, 1), (4, 0), (5, 2), (6, 0), (9, 3), (12, 0)] {
            let (dfg, schedule) = symmetric(count, tail);
            designs.push((format!("symmetric {count} {tail}"), dfg, schedule));
        }
        let empty = DfgBuilder::new().build().unwrap();
        let none = Schedule::new(&empty, vec![]).unwrap();
        designs.push(("empty".into(), empty, none));
        let mut bailed = 0;
        for (what, dfg, schedule) in &designs {
            let fast = canonize(dfg, schedule);
            assert_same_form(&fast, &reference::canonize(dfg, schedule), what);
            bailed += usize::from(fast.bailed);
        }
        assert!(bailed >= 2, "the symmetric designs exhaust the leaf budget");
    }
}
