//! Property tests for the gate-level substrate: every module generator
//! agrees with the arithmetic reference on random operands and widths,
//! lane-parallel evaluation agrees with scalar evaluation, and fault
//! injection behaves like a real defect (healthy evaluation unchanged,
//! at most the faulty cone affected).

use proptest::prelude::*;

use lobist_dfg::interp::apply;
use lobist_dfg::OpKind;
use lobist_gatesim::collapse::collapse_faults;
use lobist_gatesim::coverage::{
    enumerate_faults, random_pattern_coverage_of, random_pattern_coverage_with,
};
use lobist_gatesim::diffsim::DiffSim;
use lobist_gatesim::lanes::{LaneWord, W256};
use lobist_gatesim::modules::{alu, unit_for};
use lobist_gatesim::net::{Fault, GateKind, GateNetwork, NetworkBuilder};

fn mask(x: u64, w: u32) -> u64 {
    x & ((1u64 << w) - 1)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A random combinational network: every gate consumes earlier nets, so
/// any topology the builder accepts can appear — including shared
/// fanout, dead gates, inputs wired straight to outputs and duplicated
/// output nets.
fn random_network(seed: u64, num_inputs: usize, num_gates: usize) -> GateNetwork {
    let mut s = seed;
    let mut b = NetworkBuilder::new();
    let mut nets: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    const KINDS: [GateKind; 7] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for _ in 0..num_gates {
        let kind = KINDS[(splitmix(&mut s) % KINDS.len() as u64) as usize];
        let a = nets[(splitmix(&mut s) % nets.len() as u64) as usize];
        let x = nets[(splitmix(&mut s) % nets.len() as u64) as usize];
        let out = match kind {
            GateKind::Not | GateKind::Buf => b.gate(kind, a, a),
            _ => b.gate(kind, a, x),
        };
        nets.push(out);
    }
    let num_outputs = 1 + (splitmix(&mut s) % 4) as usize;
    let outputs = (0..num_outputs)
        .map(|_| nets[(splitmix(&mut s) % nets.len() as u64) as usize])
        .collect();
    b.finish(outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn units_match_reference(a in any::<u64>(), b in any::<u64>(), w in 2u32..10) {
        let (a, b) = (mask(a, w), mask(b, w));
        for kind in OpKind::ALL {
            let net = unit_for(kind, w);
            prop_assert_eq!(
                net.eval_words(&[(a, w), (b, w)]),
                apply(kind, a, b, w),
                "{} {} {} at width {}", kind, a, b, w
            );
        }
    }

    #[test]
    fn alu_matches_reference(a in any::<u64>(), b in any::<u64>(), w in 2u32..8) {
        let (a, b) = (mask(a, w), mask(b, w));
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div, OpKind::Lt, OpKind::Xor];
        let net = alu(&kinds, w);
        for (k, &kind) in kinds.iter().enumerate() {
            let sel = 1u64 << k;
            prop_assert_eq!(
                net.eval_words(&[(sel, kinds.len() as u32), (a, w), (b, w)]),
                apply(kind, a, b, w),
                "ALU {} {} {} at width {}", kind, a, b, w
            );
        }
    }

    #[test]
    fn lanes_agree_with_scalar(a0 in any::<u64>(), b0 in any::<u64>(), a1 in any::<u64>(), b1 in any::<u64>(), w in 2u32..8) {
        // Pack two different patterns into lanes 0/1 and compare against
        // individual scalar evaluations.
        let net = unit_for(OpKind::Mul, w);
        let (a0, b0, a1, b1) = (mask(a0, w), mask(b0, w), mask(a1, w), mask(b1, w));
        let mut lanes = Vec::new();
        for i in 0..w {
            lanes.push(((a0 >> i) & 1) | (((a1 >> i) & 1) << 1));
        }
        for i in 0..w {
            lanes.push(((b0 >> i) & 1) | (((b1 >> i) & 1) << 1));
        }
        let out = net.eval_lanes(&lanes);
        let pack = |lane: u32| -> u64 {
            out.iter().enumerate().fold(0u64, |acc, (i, &word)| {
                acc | (((word >> lane) & 1) << i)
            })
        };
        prop_assert_eq!(pack(0), apply(OpKind::Mul, a0, b0, w));
        prop_assert_eq!(pack(1), apply(OpKind::Mul, a1, b1, w));
    }

    #[test]
    fn no_fault_means_no_change(a in any::<u64>(), b in any::<u64>(), w in 2u32..8) {
        let net = unit_for(OpKind::Sub, w);
        let (a, b) = (mask(a, w), mask(b, w));
        let mut lanes = Vec::new();
        for i in 0..w {
            lanes.push(if (a >> i) & 1 == 1 { u64::MAX } else { 0 });
        }
        for i in 0..w {
            lanes.push(if (b >> i) & 1 == 1 { u64::MAX } else { 0 });
        }
        prop_assert_eq!(net.eval_lanes(&lanes), net.eval_lanes_with(&lanes, None));
    }

    #[test]
    fn fault_on_output_net_is_always_detectable_somewhere(w in 2u32..7, fault_sel in any::<u64>()) {
        // A stuck-at fault on a primary-output net must flip that output
        // for at least one input pattern (outputs of these units are
        // never constant). Exhaustively scan the small operand space.
        let net = unit_for(OpKind::Add, w);
        let outs = net.outputs();
        let target = outs[(fault_sel % outs.len() as u64) as usize];
        for stuck in [false, true] {
            let fault = Fault { net: target, stuck_at_one: stuck };
            let mut detected = false;
            'scan: for a in 0..(1u64 << w) {
                for b in 0..(1u64 << w) {
                    let mut bits = Vec::new();
                    for i in 0..w {
                        bits.push((a >> i) & 1 == 1);
                    }
                    for i in 0..w {
                        bits.push((b >> i) & 1 == 1);
                    }
                    let lanes: Vec<u64> = bits.iter().map(|&x| u64::from(x)).collect();
                    let g = net.eval_lanes(&lanes);
                    let f = net.eval_lanes_with(&lanes, Some(fault));
                    if g.iter().zip(&f).any(|(x, y)| (x & 1) != (y & 1)) {
                        detected = true;
                        break 'scan;
                    }
                }
            }
            prop_assert!(detected, "output fault {fault} undetectable at width {w}");
        }
    }

    #[test]
    fn diffsim_agrees_with_reference_on_random_networks(
        seed in any::<u64>(),
        num_inputs in 2usize..6,
        num_gates in 1usize..48,
        lane_seed in any::<u64>(),
    ) {
        // The differential cone simulator must match the full-resim
        // reference on EVERY fault of an arbitrary network, across two
        // consecutive batches (exercising the epoch-stamped scratch
        // reuse), for both the early-exit detection query and the full
        // per-output difference words.
        let net = random_network(seed, num_inputs, num_gates);
        let mut sim = DiffSim::new(&net);
        let mut ls = lane_seed;
        for _batch in 0..2 {
            let lanes: Vec<u64> = (0..num_inputs).map(|_| splitmix(&mut ls)).collect();
            let golden = net.eval_lanes(&lanes);
            sim.load_batch(&lanes);
            for n in 0..net.num_nets() as u32 {
                let mut single = [None; 2];
                for stuck in [false, true] {
                    let fault = Fault { net: lobist_gatesim::net::NetId(n), stuck_at_one: stuck };
                    let reference = net.eval_lanes_with(&lanes, Some(fault));
                    let any = sim.fault_output_diffs(fault);
                    for (pos, (&r, &g)) in reference.iter().zip(&golden).enumerate() {
                        prop_assert_eq!(r ^ g, sim.out_diffs()[pos], "{} output {}", fault, pos);
                    }
                    prop_assert_eq!(any, reference != golden, "{}", fault);
                    // A 64-lane batch is one block: block 0 or nothing.
                    let block = (reference != golden).then_some(0);
                    prop_assert_eq!(sim.detect_block(fault), block, "{}", fault);
                    single[usize::from(stuck)] = block;
                }
                prop_assert_eq!(
                    sim.detect_block_both(lobist_gatesim::net::NetId(n)),
                    (single[0], single[1]),
                    "paired walk on net {}", n
                );
            }
        }
    }

    #[test]
    fn coverage_is_byte_identical_across_lane_widths(
        seed in any::<u64>(),
        num_inputs in 2usize..6,
        num_gates in 1usize..48,
        patterns in 1u64..600,
    ) {
        // The lane width is a throughput knob: on an arbitrary network
        // and ANY pattern budget — including budgets that leave a
        // partial (lane-masked) trailing batch at every width — the
        // full coverage report (counts, budget consumed, and each
        // fault's first-detecting pattern index) must match the 64-lane
        // reference exactly. The work counters are width-relative:
        // wider lanes may only load fewer golden batches and walk fewer
        // fault cones.
        let net = random_network(seed, num_inputs, num_gates);
        let faults = enumerate_faults(&net);
        let stream = seed ^ 0xC0FFEE;
        let mut narrow = DiffSim::<u64>::new(&net);
        let reference = random_pattern_coverage_with(&mut narrow, &faults, patterns, stream);
        prop_assert!(reference.patterns_applied <= patterns);
        for stamp in reference.first_detection.iter().flatten() {
            prop_assert!((1..=patterns).contains(stamp));
        }

        let mut sim256 = DiffSim::<W256>::new(&net);
        let wide256 = random_pattern_coverage_with(&mut sim256, &faults, patterns, stream);
        prop_assert_eq!(&reference, &wide256, "W256 diverged at {} patterns", patterns);

        let narrow = narrow.counters();
        prop_assert_eq!(narrow.batches_loaded, reference.patterns_applied.div_ceil(64));
        let wide = sim256.counters();
        prop_assert!(wide.batches_loaded <= patterns.div_ceil(W256::LANES));
        prop_assert!(wide.batches_loaded <= narrow.batches_loaded);
        prop_assert!(wide.faults_simulated <= narrow.faults_simulated);
    }

    #[test]
    fn collapsed_coverage_equals_uncollapsed_on_modules(seed in any::<u64>(), w in 2u32..7) {
        // Simulating one representative per structural equivalence class
        // and expanding must be byte-identical to simulating the full
        // universe, on every paper module class and any pattern seed.
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::And] {
            let net = unit_for(kind, w);
            let collapsed = collapse_faults(&net);
            // (Tiny widths may collapse nothing — e.g. the 2-bit adder's
            // operand nets all share fanout; expansion must still be
            // exact. Unit tests pin down that width 8 does collapse.)
            prop_assert!(collapsed.num_classes() <= collapsed.total_faults());
            let full = random_pattern_coverage_of(&net, &enumerate_faults(&net), 192, seed);
            let reps = random_pattern_coverage_of(&net, collapsed.representatives(), 192, seed);
            prop_assert_eq!(collapsed.expand_coverage(&reps), full, "{} w{}", kind, w);
        }
    }

    #[test]
    fn fault_list_covers_live_nets_twice(w in 2u32..8) {
        for kind in [OpKind::Add, OpKind::Mul, OpKind::And] {
            let net = unit_for(kind, w);
            let faults = enumerate_faults(&net);
            prop_assert!(faults.len().is_multiple_of(2));
            prop_assert!(faults.len() >= 2 * net.inputs().len());
            prop_assert!(faults.len() <= 2 * net.num_nets());
        }
    }
}
