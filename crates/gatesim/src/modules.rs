//! Gate-level generators for the data path's functional-unit classes.
//!
//! Every generator produces a [`GateNetwork`] whose inputs are the two
//! operand words (LSB first, `a` then `b`, plus select lines for the
//! ALU) and whose outputs are the result word. Each is verified against
//! [`lobist_dfg::interp::apply`] — exhaustively at 4 bits, by sampling at
//! 8 bits.

use lobist_dfg::modules::ModuleClass;
use lobist_dfg::OpKind;

use crate::net::{GateNetwork, NetId, NetworkBuilder};

/// Ripple-carry adder: `out = (a + b) mod 2^w`.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn ripple_adder(width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width adder");
    let w = width as usize;
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    let mut out = Vec::with_capacity(w);
    if w == 1 {
        out.push(b.xor(a[0], x[0]));
        return b.finish(out);
    }
    let (s0, mut carry) = b.half_adder(a[0], x[0]);
    out.push(s0);
    for i in 1..w - 1 {
        let (s, c) = b.full_adder(a[i], x[i], carry);
        out.push(s);
        carry = c;
    }
    out.push(b.sum_only(a[w - 1], x[w - 1], carry));
    b.finish(out)
}

/// Subtractor: `out = (a - b) mod 2^w`, built as `a + !b + 1`.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn subtractor(width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width subtractor");
    let w = width as usize;
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    let mut out = Vec::with_capacity(w);
    if w == 1 {
        out.push(b.xor(a[0], x[0]));
        return b.finish(out);
    }
    let nx0 = b.not(x[0]);
    let (s0, mut carry) = b.full_adder_cin1(a[0], nx0);
    out.push(s0);
    for i in 1..w - 1 {
        let nx = b.not(x[i]);
        let (s, c) = b.full_adder(a[i], nx, carry);
        out.push(s);
        carry = c;
    }
    let nx = b.not(x[w - 1]);
    out.push(b.sum_only(a[w - 1], nx, carry));
    b.finish(out)
}

/// Array multiplier keeping the low `w` bits: `out = (a * b) mod 2^w`.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn array_multiplier(width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width multiplier");
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    let acc = build_multiplier(&mut b, &a, &x, width);
    b.finish(acc)
}

/// Shared multiplier construction: row 0 is the plain AND of `a` with
/// `x₀`; each later row adds its partial products with half/full adders
/// and no dead final carry.
fn build_multiplier(b: &mut NetworkBuilder, a: &[NetId], x: &[NetId], width: u32) -> Vec<NetId> {
    let w = width as usize;
    let mut acc: Vec<NetId> = a.iter().map(|&ai| b.and(ai, x[0])).collect();
    for j in 1..w {
        let cols = w - j; // columns this row contributes to
        let mut carry: Option<NetId> = None;
        for i in 0..cols {
            let pp = b.and(a[i], x[j]);
            let last = i == cols - 1;
            match carry {
                None => {
                    if last {
                        acc[i + j] = b.xor(acc[i + j], pp);
                    } else {
                        let (s, c) = b.half_adder(acc[i + j], pp);
                        acc[i + j] = s;
                        carry = Some(c);
                    }
                }
                Some(cin) => {
                    if last {
                        acc[i + j] = b.sum_only(acc[i + j], pp, cin);
                    } else {
                        let (s, c) = b.full_adder(acc[i + j], pp, cin);
                        acc[i + j] = s;
                        carry = Some(c);
                    }
                }
            }
        }
    }
    acc
}

/// Bitwise logic unit for `&`, `|` or `^`.
///
/// # Panics
///
/// Panics if `width == 0` or `kind` is not a bitwise kind.
pub fn logic_unit(kind: OpKind, width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width logic unit");
    let gk = match kind {
        OpKind::And => crate::net::GateKind::And,
        OpKind::Or => crate::net::GateKind::Or,
        OpKind::Xor => crate::net::GateKind::Xor,
        other => panic!("{other} is not a bitwise kind"),
    };
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    let out: Vec<NetId> = (0..width as usize)
        .map(|i| b.gate(gk, a[i], x[i]))
        .collect();
    b.finish(out)
}

/// Unsigned comparator: `out = (a < b) ? 1 : 0` on `w` bits (bit 0 holds
/// the result, the rest are constant zero).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn comparator_lt(width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width comparator");
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    // a < b iff the subtraction a - b borrows: borrow chain.
    // borrow_{i+1} = (!a_i & b_i) | ((!a_i | b_i) & borrow_i)
    let mut borrow = b.zero();
    for i in 0..width as usize {
        let na = b.not(a[i]);
        let t1 = b.and(na, x[i]);
        let t2 = b.or(na, x[i]);
        let t3 = b.and(t2, borrow);
        borrow = b.or(t1, t3);
    }
    let zero = b.zero();
    let mut out = vec![zero; width as usize];
    out[0] = borrow;
    b.finish(out)
}

/// Restoring array divider: `out = a / b` (unsigned quotient), with the
/// hardware convention `a / 0 = 2^w - 1` (all quotient bits restore).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn restoring_divider(width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width divider");
    let w = width as usize;
    let mut b = NetworkBuilder::new();
    let a = b.input_word(width);
    let x = b.input_word(width);
    // Remainder register of w+1 bits (to absorb the comparison).
    let zero = b.zero();
    let mut rem: Vec<NetId> = vec![zero; w + 1];
    let mut quotient = vec![zero; w];
    for step in (0..w).rev() {
        // rem = (rem << 1) | a[step]
        let mut shifted = Vec::with_capacity(w + 1);
        shifted.push(a[step]);
        shifted.extend(rem[..w].iter().copied());
        // diff = shifted - x (x zero-extended to w+1 bits)
        let mut carry = b.one();
        let mut diff = Vec::with_capacity(w + 1);
        for i in 0..=w {
            let xi = if i < w { x[i] } else { zero };
            let nx = b.not(xi);
            let (s, c) = b.full_adder(shifted[i], nx, carry);
            diff.push(s);
            carry = c;
        }
        // carry == 1 means no borrow: shifted >= x, quotient bit 1.
        let q = carry;
        quotient[step] = q;
        if step > 0 {
            // rem = q ? diff : shifted (skipped after the final stage —
            // the remainder is not an output).
            rem = (0..=w).map(|i| b.mux(q, diff[i], shifted[i])).collect();
        }
    }
    b.finish(quotient)
}

/// One-hot-selected multi-function ALU: the first `kinds.len()` inputs
/// are select lines (exactly one should be high), followed by the two
/// operand words. `out = kinds[i](a, b)` for the asserted select `i`.
///
/// # Panics
///
/// Panics if `width == 0` or `kinds` is empty.
pub fn alu(kinds: &[OpKind], width: u32) -> GateNetwork {
    assert!(width > 0, "zero-width ALU");
    assert!(!kinds.is_empty(), "ALU needs at least one function");
    let w = width as usize;
    let mut b = NetworkBuilder::new();
    let selects: Vec<NetId> = (0..kinds.len()).map(|_| b.input()).collect();
    let a = b.input_word(width);
    let x = b.input_word(width);

    // Build each function inline over the shared operand nets.
    let mut candidate_outputs: Vec<Vec<NetId>> = Vec::new();
    for &kind in kinds {
        let outs: Vec<NetId> = match kind {
            OpKind::Add => {
                let mut outs = Vec::with_capacity(w);
                if w == 1 {
                    outs.push(b.xor(a[0], x[0]));
                } else {
                    let (s0, mut carry) = b.half_adder(a[0], x[0]);
                    outs.push(s0);
                    for i in 1..w - 1 {
                        let (s, c) = b.full_adder(a[i], x[i], carry);
                        outs.push(s);
                        carry = c;
                    }
                    outs.push(b.sum_only(a[w - 1], x[w - 1], carry));
                }
                outs
            }
            OpKind::Sub => {
                let mut outs = Vec::with_capacity(w);
                if w == 1 {
                    outs.push(b.xor(a[0], x[0]));
                } else {
                    let nx0 = b.not(x[0]);
                    let (s0, mut carry) = b.full_adder_cin1(a[0], nx0);
                    outs.push(s0);
                    for i in 1..w - 1 {
                        let nx = b.not(x[i]);
                        let (s, c) = b.full_adder(a[i], nx, carry);
                        outs.push(s);
                        carry = c;
                    }
                    let nx = b.not(x[w - 1]);
                    outs.push(b.sum_only(a[w - 1], nx, carry));
                }
                outs
            }
            OpKind::And => (0..w).map(|i| b.and(a[i], x[i])).collect(),
            OpKind::Or => (0..w).map(|i| b.or(a[i], x[i])).collect(),
            OpKind::Xor => (0..w).map(|i| b.xor(a[i], x[i])).collect(),
            OpKind::Lt => {
                let mut borrow = b.zero();
                for i in 0..w {
                    let na = b.not(a[i]);
                    let t1 = b.and(na, x[i]);
                    let t2 = b.or(na, x[i]);
                    let t3 = b.and(t2, borrow);
                    borrow = b.or(t1, t3);
                }
                let zero = b.zero();
                let mut outs = vec![zero; w];
                outs[0] = borrow;
                outs
            }
            OpKind::Mul => build_multiplier(&mut b, &a, &x, width),
            OpKind::Div => {
                let zero = b.zero();
                let mut rem: Vec<NetId> = vec![zero; w + 1];
                let mut quotient = vec![zero; w];
                for step in (0..w).rev() {
                    let mut shifted = Vec::with_capacity(w + 1);
                    shifted.push(a[step]);
                    shifted.extend(rem[..w].iter().copied());
                    let mut carry = b.one();
                    let mut diff = Vec::with_capacity(w + 1);
                    for i in 0..=w {
                        let xi = if i < w { x[i] } else { zero };
                        let nx = b.not(xi);
                        let (s, c) = b.full_adder(shifted[i], nx, carry);
                        diff.push(s);
                        carry = c;
                    }
                    let q = carry;
                    quotient[step] = q;
                    if step > 0 {
                        rem = (0..=w).map(|i| b.mux(q, diff[i], shifted[i])).collect();
                    }
                }
                quotient
            }
        };
        candidate_outputs.push(outs);
    }

    // One-hot select: out_i = OR_k (sel_k AND cand_k_i).
    let zero = b.zero();
    let mut outs = Vec::with_capacity(w);
    for i in 0..w {
        let mut acc = zero;
        for (k, cand) in candidate_outputs.iter().enumerate() {
            let gated = b.and(selects[k], cand[i]);
            acc = b.or(acc, gated);
        }
        outs.push(acc);
    }
    b.finish(outs)
}

/// Builds the gate network for a dedicated functional unit of the given
/// operation kind.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn unit_for(kind: OpKind, width: u32) -> GateNetwork {
    match kind {
        OpKind::Add => ripple_adder(width),
        OpKind::Sub => subtractor(width),
        OpKind::Mul => array_multiplier(width),
        OpKind::Div => restoring_divider(width),
        OpKind::And | OpKind::Or | OpKind::Xor => logic_unit(kind, width),
        OpKind::Lt => comparator_lt(width),
    }
}

/// Builds the gate network of a data-path module: the dedicated unit of
/// an operator class, or the [`alu`] over `kinds`, the module's
/// operation kinds (sorted and deduplicated; read only for an ALU).
///
/// # Panics
///
/// Panics if `width == 0`, or if `class` is an ALU and `kinds` is empty.
pub fn module_unit(class: ModuleClass, kinds: &[OpKind], width: u32) -> GateNetwork {
    match class {
        ModuleClass::Op(kind) => unit_for(kind, width),
        ModuleClass::Alu => alu(kinds, width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::interp::apply;

    fn check_exhaustive(kind: OpKind, width: u32) {
        let net = unit_for(kind, width);
        let max = 1u64 << width;
        for a in 0..max {
            for b in 0..max {
                let got = net.eval_words(&[(a, width), (b, width)]);
                let want = apply(kind, a, b, width);
                assert_eq!(got, want, "{kind} {a},{b} at width {width}");
            }
        }
    }

    #[test]
    fn adder_exhaustive_4bit() {
        check_exhaustive(OpKind::Add, 4);
    }

    #[test]
    fn subtractor_exhaustive_4bit() {
        check_exhaustive(OpKind::Sub, 4);
    }

    #[test]
    fn multiplier_exhaustive_4bit() {
        check_exhaustive(OpKind::Mul, 4);
    }

    #[test]
    fn divider_exhaustive_4bit() {
        check_exhaustive(OpKind::Div, 4);
    }

    #[test]
    fn logic_exhaustive_3bit() {
        check_exhaustive(OpKind::And, 3);
        check_exhaustive(OpKind::Or, 3);
        check_exhaustive(OpKind::Xor, 3);
    }

    #[test]
    fn comparator_exhaustive_4bit() {
        check_exhaustive(OpKind::Lt, 4);
    }

    #[test]
    fn eight_bit_units_sampled() {
        let samples = [
            (0u64, 0u64),
            (1, 255),
            (255, 255),
            (170, 85),
            (200, 7),
            (13, 13),
        ];
        for kind in OpKind::ALL {
            let net = unit_for(kind, 8);
            for &(a, b) in &samples {
                assert_eq!(
                    net.eval_words(&[(a, 8), (b, 8)]),
                    apply(kind, a, b, 8),
                    "{kind} {a},{b}"
                );
            }
        }
    }

    #[test]
    fn alu_selects_functions() {
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::And, OpKind::Mul];
        let net = alu(&kinds, 4);
        for (k, &kind) in kinds.iter().enumerate() {
            let sel = 1u64 << k;
            for (a, b) in [(3u64, 5u64), (15, 15), (9, 2)] {
                let got = net.eval_words(&[(sel, kinds.len() as u32), (a, 4), (b, 4)]);
                assert_eq!(got, apply(kind, a, b, 4), "{kind} {a},{b}");
            }
        }
    }

    #[test]
    fn gate_counts_scale_as_modeled() {
        // The area model charges mul/div per bit² and add per bit: the
        // gate-level generators should reproduce that shape.
        let add8 = ripple_adder(8).num_gates();
        let add16 = ripple_adder(16).num_gates();
        assert!(add16 <= add8 * 2 + 8, "adder is linear ({add8} -> {add16})");
        let mul4 = array_multiplier(4).num_gates();
        let mul8 = array_multiplier(8).num_gates();
        assert!(
            mul8 >= mul4 * 3,
            "multiplier is superlinear ({mul4} -> {mul8})"
        );
    }
}
