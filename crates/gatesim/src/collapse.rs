//! Structural fault collapsing: input-to-output stuck-at equivalence.
//!
//! Two stuck-at faults are *equivalent* when the faulty networks compute
//! the same function on every output — detecting one detects the other
//! under any pattern source, so one representative per equivalence class
//! suffices for simulation. The classic structural rules collapse a
//! gate-input fault into the gate-output fault:
//!
//! | gate  | input fault | ≡ output fault |
//! |-------|-------------|----------------|
//! | AND   | SA0         | SA0            |
//! | NAND  | SA0         | SA1            |
//! | OR    | SA1         | SA1            |
//! | NOR   | SA1         | SA0            |
//! | BUF   | SA0 / SA1   | SA0 / SA1      |
//! | NOT   | SA0 / SA1   | SA1 / SA0      |
//!
//! (XOR admits no input/output stuck-at equivalence.) The rule is only
//! sound when the input net drives *nothing else*: a fault sits on the
//! whole net, so a net with fanout ≥ 2 — or one that is also a primary
//! output — is observable beyond the gate and must keep its own faults.
//!
//! Classes are closed transitively with a union–find, so a buffer chain
//! collapses end to end. The representative chosen for each class is its
//! member closest to the outputs (highest net index — gate outputs are
//! always numbered after their operands), which also gives the
//! differential simulator the smallest cone. The representative list is
//! ordered by `(net, stuck value)`, so the two polarities of one net sit
//! adjacent — letting the coverage loop answer both with a single
//! paired cone walk ([`crate::diffsim::DiffSim::detect_block_both`]).
//! Reports are expanded back to the full fault universe by
//! [`CollapsedFaults::expand_coverage`], so collapsed and uncollapsed
//! measurements are byte-identical.

use crate::coverage::{enumerate_faults, CoverageReport};
use crate::fanout::Fanout;
use crate::net::{Fault, GateKind, GateNetwork, NetId};

/// The collapsed view of a network's fault universe.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    /// The uncollapsed universe, exactly [`enumerate_faults`] order.
    faults: Vec<Fault>,
    /// Per-universe-fault index into `representatives`.
    rep_of: Vec<usize>,
    /// One representative per equivalence class, ordered by
    /// `(net, stuck value)`.
    representatives: Vec<Fault>,
    /// Universe faults per class, parallel to `representatives`.
    class_sizes: Vec<usize>,
}

fn fault_key(net: NetId, stuck_at_one: bool) -> usize {
    net.index() * 2 + usize::from(stuck_at_one)
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        // Root at the higher key so the representative (deepest net)
        // is simply the class root.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[lo as usize] = hi;
    }
}

/// Collapses the single-stuck-at universe of `net` into equivalence
/// classes.
pub fn collapse_faults(net: &GateNetwork) -> CollapsedFaults {
    collapse_faults_with(net, &Fanout::new(net), enumerate_faults(net))
}

/// As [`collapse_faults`], reusing a prebuilt fanout index and taking
/// ownership of the fault universe (which must be exactly
/// [`enumerate_faults`] order) — callers that need both anyway (the
/// coverage and session drivers) skip rebuilding them.
pub fn collapse_faults_with(
    net: &GateNetwork,
    fanout: &Fanout,
    faults: Vec<Fault>,
) -> CollapsedFaults {
    let mut parent: Vec<u32> = (0..net.num_nets() as u32 * 2).collect();
    let mut live = vec![false; net.num_nets() * 2];
    for f in &faults {
        live[fault_key(f.net, f.stuck_at_one)] = true;
    }
    for g in net.gates() {
        // Equivalence needs both sides in the live universe (a dead gate
        // output has no enumerated faults to merge into).
        let collapsible = |input: NetId| {
            fanout.fanout_count(input) == 1
                && !fanout.is_output(input)
                && live[fault_key(g.out, false)]
        };
        // (input stuck value, output stuck value) pairs per gate kind.
        let rules: &[(bool, bool)] = match g.kind {
            GateKind::And => &[(false, false)],
            GateKind::Nand => &[(false, true)],
            GateKind::Or => &[(true, true)],
            GateKind::Nor => &[(true, false)],
            GateKind::Buf => &[(false, false), (true, true)],
            GateKind::Not => &[(false, true), (true, false)],
            GateKind::Xor => &[],
        };
        let operands: &[NetId] = if g.b == g.a {
            &[g.a][..]
        } else {
            &[g.a, g.b][..]
        };
        for &input in operands {
            if !collapsible(input) {
                continue;
            }
            for &(in_v, out_v) in rules {
                union(
                    &mut parent,
                    fault_key(input, in_v) as u32,
                    fault_key(g.out, out_v) as u32,
                );
            }
        }
    }

    // Classes are numbered by ascending root key, so the representative
    // list comes out sorted by `(net, stuck value)` and the two
    // polarities of one net are adjacent whenever both are roots. Every
    // union is between live keys, so each class root is itself a live
    // fault and scanning live roots finds exactly the classes.
    let mut class_index: Vec<u32> = vec![u32::MAX; parent.len()];
    let mut representatives = Vec::with_capacity(faults.len());
    let mut class_sizes = Vec::with_capacity(faults.len());
    for key in 0..parent.len() as u32 {
        if live[key as usize] && find(&mut parent, key) == key {
            class_index[key as usize] = representatives.len() as u32;
            representatives.push(Fault {
                net: NetId(key / 2),
                stuck_at_one: key % 2 == 1,
            });
            class_sizes.push(0);
        }
    }
    let mut rep_of = Vec::with_capacity(faults.len());
    for f in &faults {
        let root = find(&mut parent, fault_key(f.net, f.stuck_at_one) as u32) as usize;
        let ci = class_index[root] as usize;
        class_sizes[ci] += 1;
        rep_of.push(ci);
    }
    CollapsedFaults {
        faults,
        rep_of,
        representatives,
        class_sizes,
    }
}

impl CollapsedFaults {
    /// One representative fault per class — the list to actually
    /// simulate.
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// Universe faults per class, parallel to
    /// [`representatives`](Self::representatives).
    pub fn class_sizes(&self) -> &[usize] {
        &self.class_sizes
    }

    /// The uncollapsed fault universe (exactly [`enumerate_faults`]).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of equivalence classes (faults to simulate).
    pub fn num_classes(&self) -> usize {
        self.representatives.len()
    }

    /// Size of the uncollapsed universe.
    pub fn total_faults(&self) -> usize {
        self.faults.len()
    }

    /// Faults eliminated from simulation by collapsing.
    pub fn collapsed_away(&self) -> usize {
        self.faults.len() - self.representatives.len()
    }

    /// Class index of universe fault `i`.
    pub fn class_of(&self, i: usize) -> usize {
        self.rep_of[i]
    }

    /// Expands a coverage report measured over
    /// [`representatives`](Self::representatives) back to the full
    /// universe: every fault inherits its class representative's
    /// detection (equivalent faults are detected by exactly the same
    /// patterns), so the result is byte-identical to an uncollapsed
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if `rep_report` was not measured over exactly the
    /// representative list.
    pub fn expand_coverage(&self, rep_report: &CoverageReport) -> CoverageReport {
        assert_eq!(
            rep_report.total_faults,
            self.representatives.len(),
            "report does not cover the representative list"
        );
        let first_detection: Vec<Option<u64>> = self
            .rep_of
            .iter()
            .map(|&ci| rep_report.first_detection[ci])
            .collect();
        let detected = first_detection.iter().filter(|d| d.is_some()).count();
        CoverageReport {
            total_faults: self.faults.len(),
            detected,
            patterns_applied: rep_report.patterns_applied,
            first_detection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkBuilder;

    #[test]
    fn buffer_chain_collapses_end_to_end() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let b1 = b.gate(GateKind::Buf, x, x);
        let b2 = b.gate(GateKind::Buf, b1, b1);
        let b3 = b.gate(GateKind::Buf, b2, b2);
        let net = b.finish(vec![b3]);
        let c = collapse_faults(&net);
        // 4 live nets × 2 faults, all SA0 equivalent and all SA1
        // equivalent → 2 classes.
        assert_eq!(c.total_faults(), 8);
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.collapsed_away(), 6);
        assert_eq!(c.class_sizes(), &[4, 4]);
        // Representatives sit on the deepest net (the output).
        for r in c.representatives() {
            assert_eq!(r.net, b3);
        }
    }

    #[test]
    fn and_gate_collapses_controlling_faults() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let net = b.finish(vec![a]);
        let c = collapse_faults(&net);
        // Universe: 6 faults. x/SA0 ≡ y/SA0 ≡ a/SA0 → one class of 3;
        // x/SA1, y/SA1, a/SA1 stay singletons.
        assert_eq!(c.total_faults(), 6);
        assert_eq!(c.num_classes(), 4);
        let mut sizes = c.class_sizes().to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1, 3]);
    }

    #[test]
    fn fanout_blocks_collapsing() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let a1 = b.and(x, y); // x and y each fan out to both gates
        let a2 = b.and(x, y);
        let net = b.finish(vec![a1, a2]);
        let c = collapse_faults(&net);
        // No input is collapsible; all 8 faults are their own class.
        assert_eq!(c.num_classes(), c.total_faults());
    }

    #[test]
    fn primary_output_net_keeps_its_faults() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let n = b.not(x);
        // x is also observed directly as an output.
        let net = b.finish(vec![n, x]);
        let c = collapse_faults(&net);
        assert_eq!(c.num_classes(), c.total_faults());
    }

    #[test]
    fn expansion_restores_universe_indexing() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let net = b.finish(vec![a]);
        let c = collapse_faults(&net);
        // Pretend every class was detected at pattern 64.
        let rep_report = CoverageReport {
            total_faults: c.num_classes(),
            detected: c.num_classes(),
            patterns_applied: 64,
            first_detection: vec![Some(64); c.num_classes()],
        };
        let full = c.expand_coverage(&rep_report);
        assert_eq!(full.total_faults, 6);
        assert_eq!(full.detected, 6);
        assert!(full.first_detection.iter().all(|d| *d == Some(64)));
    }
}
