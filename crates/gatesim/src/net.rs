//! A small combinational gate-network IR with 64-way parallel pattern
//! evaluation.
//!
//! Nets are numbered densely; gates are stored in topological order by
//! construction (a gate's operands must already exist when it is added).
//! Evaluation computes every net for 64 input patterns at once, one
//! pattern per bit lane — the classic parallel-pattern single-fault
//! propagation arrangement, which makes whole-module fault simulation
//! cheap enough for the test suite.

use crate::lanes::LaneWord;
use std::fmt;

/// Identifier of a net (wire) in a gate network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Primitive gate kinds (two-input plus inverter/buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input XOR.
    Xor,
    /// Two-input NAND.
    Nand,
    /// Two-input NOR.
    Nor,
    /// Inverter (second operand ignored).
    Not,
    /// Buffer (second operand ignored).
    Buf,
}

/// One gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The function.
    pub kind: GateKind,
    /// First operand net.
    pub a: NetId,
    /// Second operand net (same as `a` for `Not`/`Buf`).
    pub b: NetId,
    /// Output net.
    pub out: NetId,
}

/// A single stuck-at fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// `true` = stuck-at-1, `false` = stuck-at-0.
    pub stuck_at_one: bool,
}

impl Fault {
    /// The value the faulty net is stuck at, replicated across all 64
    /// lanes (`u64::MAX` for SA1, `0` for SA0).
    pub fn stuck_word(self) -> u64 {
        if self.stuck_at_one {
            u64::MAX
        } else {
            0
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/SA{}", self.net, u8::from(self.stuck_at_one))
    }
}

/// Evaluates one gate function on two lane-word operands (any
/// [`LaneWord`] width — `u64` for the 64-lane reference path).
#[inline]
pub(crate) fn eval_gate<W: LaneWord>(kind: GateKind, a: W, b: W) -> W {
    match kind {
        GateKind::And => a & b,
        GateKind::Or => a | b,
        GateKind::Xor => a ^ b,
        GateKind::Nand => !(a & b),
        GateKind::Nor => !(a | b),
        GateKind::Not => !a,
        GateKind::Buf => a,
    }
}

/// A combinational gate network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateNetwork {
    num_nets: usize,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
}

impl GateNetwork {
    /// Assembles a network directly from its parts, **without** the
    /// topological-order and single-driver guarantees [`NetworkBuilder`]
    /// enforces. Net ids must still be in range (`< num_nets`); everything
    /// else — undriven nets, multiply-driven nets, combinational loops,
    /// dangling outputs — is accepted as-is.
    ///
    /// This exists for the structural linter and its mutation tests, which
    /// need to represent *broken* netlists that the builder cannot create.
    /// Evaluating a network with violated invariants gives meaningless
    /// values (a forward reference reads a not-yet-computed net), so run
    /// the linter before simulating anything built this way.
    ///
    /// # Panics
    ///
    /// Panics if any input, output, or gate operand/output net id is
    /// `>= num_nets`.
    pub fn from_parts(
        num_nets: usize,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
        gates: Vec<Gate>,
    ) -> Self {
        let check = |net: NetId, what: &str| {
            assert!(net.index() < num_nets, "{what} net {net} out of range");
        };
        for &n in &inputs {
            check(n, "input");
        }
        for &n in &outputs {
            check(n, "output");
        }
        for g in &gates {
            check(g.a, "gate operand");
            check(g.b, "gate operand");
            check(g.out, "gate output");
        }
        Self {
            num_nets,
            inputs,
            outputs,
            gates,
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Evaluates 64 patterns at once. `input_lanes[i]` carries the 64
    /// values of input `i`, one per bit lane. Returns one lane word per
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `input_lanes.len() != self.inputs().len()`.
    pub fn eval_lanes(&self, input_lanes: &[u64]) -> Vec<u64> {
        self.eval_lanes_with(input_lanes, None)
    }

    /// As [`eval_lanes`](Self::eval_lanes) but with an optional stuck-at
    /// fault injected.
    ///
    /// This is the *reference* fault simulator: it re-evaluates the whole
    /// network. The production path ([`crate::diffsim::DiffSim`]) only
    /// re-evaluates gates in the fault's output cone; the test suite
    /// asserts the two agree on every fault.
    ///
    /// # Panics
    ///
    /// Panics if `input_lanes.len() != self.inputs().len()`.
    pub fn eval_lanes_with(&self, input_lanes: &[u64], fault: Option<Fault>) -> Vec<u64> {
        assert_eq!(
            input_lanes.len(),
            self.inputs.len(),
            "wrong number of input lanes"
        );
        let mut value = vec![0u64; self.num_nets];
        let apply_fault = |net: NetId, v: u64| -> u64 {
            match fault {
                Some(f) if f.net == net => f.stuck_word(),
                _ => v,
            }
        };
        for (i, &net) in self.inputs.iter().enumerate() {
            value[net.index()] = apply_fault(net, input_lanes[i]);
        }
        for g in &self.gates {
            let v = eval_gate(g.kind, value[g.a.index()], value[g.b.index()]);
            value[g.out.index()] = apply_fault(g.out, v);
        }
        self.outputs.iter().map(|o| value[o.index()]).collect()
    }

    /// Fault-free evaluation of **every** net into a caller-owned scratch
    /// buffer (resized to `num_nets`), avoiding the per-call allocation
    /// of [`eval_lanes`](Self::eval_lanes). This is the golden pass the
    /// differential fault simulator diffs against; it is generic over the
    /// lane width (`u64` = 64 patterns per call, [`crate::lanes::W256`]
    /// = 256).
    ///
    /// # Panics
    ///
    /// Panics if `input_lanes.len() != self.inputs().len()`.
    pub fn eval_all_nets_into<W: LaneWord>(&self, input_lanes: &[W], values: &mut Vec<W>) {
        assert_eq!(
            input_lanes.len(),
            self.inputs.len(),
            "wrong number of input lanes"
        );
        values.clear();
        values.resize(self.num_nets, W::ZERO);
        for (i, &net) in self.inputs.iter().enumerate() {
            values[net.index()] = input_lanes[i];
        }
        for g in &self.gates {
            values[g.out.index()] = eval_gate(g.kind, values[g.a.index()], values[g.b.index()]);
        }
    }

    /// Convenience single-pattern boolean evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs().len()`.
    pub fn eval_bool(&self, inputs: &[bool]) -> Vec<bool> {
        let lanes: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_lanes(&lanes)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Evaluates the network on integer operands: the inputs are split
    /// into consecutive groups (one per word in `words`, LSB first) and
    /// the outputs are reassembled into a single integer (LSB first).
    /// Used by the module generators' verification tests.
    ///
    /// # Panics
    ///
    /// Panics if the group widths do not sum to the input count.
    pub fn eval_words(&self, words: &[(u64, u32)]) -> u64 {
        let mut bits = Vec::new();
        for &(w, width) in words {
            for i in 0..width {
                bits.push((w >> i) & 1 == 1);
            }
        }
        assert_eq!(bits.len(), self.inputs.len(), "operand widths mismatch");
        let out = self.eval_bool(&bits);
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }
}

/// Incremental builder for [`GateNetwork`].
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    num_nets: usize,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh(&mut self) -> NetId {
        let id = NetId(self.num_nets as u32);
        self.num_nets += 1;
        id
    }

    /// Declares a primary input net.
    pub fn input(&mut self) -> NetId {
        let id = self.fresh();
        self.inputs.push(id);
        id
    }

    /// Declares `width` primary inputs (LSB first).
    pub fn input_word(&mut self, width: u32) -> Vec<NetId> {
        (0..width).map(|_| self.input()).collect()
    }

    /// Adds a two-input gate, returning its output net.
    ///
    /// # Panics
    ///
    /// Panics if an operand net does not exist yet.
    pub fn gate(&mut self, kind: GateKind, a: NetId, b: NetId) -> NetId {
        assert!(
            a.index() < self.num_nets && b.index() < self.num_nets,
            "operand net does not exist"
        );
        let out = self.fresh();
        self.gates.push(Gate { kind, a, b, out });
        out
    }

    /// AND gate.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::And, a, b)
    }

    /// OR gate.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Or, a, b)
    }

    /// XOR gate.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xor, a, b)
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Not, a, a)
    }

    /// A constant-0 net (built as `a XOR a` from the first input).
    ///
    /// # Panics
    ///
    /// Panics if no input has been declared yet.
    pub fn zero(&mut self) -> NetId {
        let a = *self.inputs.first().expect("declare an input before zero()");
        self.xor(a, a)
    }

    /// A constant-1 net.
    ///
    /// # Panics
    ///
    /// Panics if no input has been declared yet.
    pub fn one(&mut self) -> NetId {
        let z = self.zero();
        self.not(z)
    }

    /// 2:1 multiplexer: `sel ? t : f`.
    pub fn mux(&mut self, sel: NetId, t: NetId, f: NetId) -> NetId {
        let nsel = self.not(sel);
        let picked_t = self.and(sel, t);
        let picked_f = self.and(nsel, f);
        self.or(picked_t, picked_f)
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let axb_c = self.and(axb, cin);
        let carry = self.or(ab, axb_c);
        (sum, carry)
    }

    /// Half adder (carry-in 0): returns `(sum, carry)` without the dead
    /// gates a constant-zero carry-in would create.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        let sum = self.xor(a, b);
        let carry = self.and(a, b);
        (sum, carry)
    }

    /// Adder cell with carry-in hard-wired to 1 (the first cell of a
    /// two's-complement subtractor): computes `a + b + 1`.
    pub fn full_adder_cin1(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        // sum = a ^ b ^ 1 = !(a ^ b); carry = a | b.
        let axb = self.xor(a, b);
        let sum = self.not(axb);
        let carry = self.or(a, b);
        (sum, carry)
    }

    /// Just the sum bit of a full adder (for the most significant
    /// position, where the carry-out would be dead logic).
    pub fn sum_only(&mut self, a: NetId, b: NetId, cin: NetId) -> NetId {
        let axb = self.xor(a, b);
        self.xor(axb, cin)
    }

    /// Declares the primary outputs and finishes the network.
    pub fn finish(mut self, outputs: Vec<NetId>) -> GateNetwork {
        self.outputs = outputs;
        GateNetwork {
            num_nets: self.num_nets,
            inputs: self.inputs,
            outputs: self.outputs,
            gates: self.gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let or = b.or(x, y);
        let xor = b.xor(x, y);
        let not = b.not(x);
        let net = b.finish(vec![and, or, xor, not]);
        assert_eq!(
            net.eval_bool(&[false, false]),
            vec![false, false, false, true]
        );
        assert_eq!(
            net.eval_bool(&[true, false]),
            vec![false, true, true, false]
        );
        assert_eq!(net.eval_bool(&[true, true]), vec![true, true, false, false]);
    }

    #[test]
    fn lanes_carry_independent_patterns() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let net = b.finish(vec![and]);
        // Lane 0: (0,0); lane 1: (1,0); lane 2: (0,1); lane 3: (1,1).
        let out = net.eval_lanes(&[0b1010, 0b1100]);
        assert_eq!(out[0], 0b1000);
    }

    #[test]
    fn fault_injection_flips_outputs() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let net = b.finish(vec![and]);
        let healthy = net.eval_bool(&[true, true]);
        assert_eq!(healthy, vec![true]);
        let faulty = net.eval_lanes_with(
            &[u64::MAX, u64::MAX],
            Some(Fault {
                net: and,
                stuck_at_one: false,
            }),
        );
        assert_eq!(faulty[0], 0);
        // Stuck-at on an input net.
        let faulty_in = net.eval_lanes_with(
            &[u64::MAX, u64::MAX],
            Some(Fault {
                net: x,
                stuck_at_one: false,
            }),
        );
        assert_eq!(faulty_in[0], 0);
    }

    #[test]
    fn mux_selects() {
        let mut b = NetworkBuilder::new();
        let sel = b.input();
        let t = b.input();
        let f = b.input();
        let m = b.mux(sel, t, f);
        let net = b.finish(vec![m]);
        assert_eq!(net.eval_bool(&[true, true, false]), vec![true]);
        assert_eq!(net.eval_bool(&[false, true, false]), vec![false]);
    }

    #[test]
    fn full_adder_truth_table() {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let (s, co) = b.full_adder(a, x, c);
        let net = b.finish(vec![s, co]);
        for bits in 0..8u32 {
            let (a, x, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let total = u32::from(a) + u32::from(x) + u32::from(c);
            let out = net.eval_bool(&[a, x, c]);
            assert_eq!(out[0], total & 1 == 1, "sum at {bits}");
            assert_eq!(out[1], total >= 2, "carry at {bits}");
        }
    }

    #[test]
    fn constants() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let z = b.zero();
        let o = b.one();
        let keep = b.or(x, z);
        let net = b.finish(vec![z, o, keep]);
        assert_eq!(net.eval_bool(&[true]), vec![false, true, true]);
        assert_eq!(net.eval_bool(&[false]), vec![false, true, false]);
    }

    #[test]
    fn eval_words_packs_operands() {
        // 2-bit adder out of full adders, checked as integers.
        let mut b = NetworkBuilder::new();
        let a = b.input_word(2);
        let x = b.input_word(2);
        let z = b.zero();
        let (s0, c0) = b.full_adder(a[0], x[0], z);
        let (s1, _c1) = b.full_adder(a[1], x[1], c0);
        let net = b.finish(vec![s0, s1]);
        for i in 0..4u64 {
            for j in 0..4u64 {
                assert_eq!(net.eval_words(&[(i, 2), (j, 2)]), (i + j) & 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand net does not exist")]
    fn forward_reference_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        b.gate(GateKind::And, x, NetId(99));
    }

    #[test]
    fn from_parts_roundtrips_a_built_network() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let net = b.finish(vec![and]);
        let rebuilt = GateNetwork::from_parts(
            net.num_nets(),
            net.inputs().to_vec(),
            net.outputs().to_vec(),
            net.gates().to_vec(),
        );
        assert_eq!(rebuilt, net);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_out_of_range_nets() {
        GateNetwork::from_parts(1, vec![NetId(0)], vec![NetId(5)], vec![]);
    }

    #[test]
    fn display_of_fault() {
        let f = Fault {
            net: NetId(3),
            stuck_at_one: true,
        };
        assert_eq!(f.to_string(), "n3/SA1");
    }
}
