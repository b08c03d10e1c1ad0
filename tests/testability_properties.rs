//! Property-based tests over the static testability analysis: the COP
//! estimates must be probabilities for *every* generated cone, the
//! backward observability solve must be monotone under cone truncation
//! (the soundness basis of the `T301` flag — analyzing a cone in
//! isolation never under-reports how visible its faults are), and the
//! engine's timed analysis driver must be byte-identical to
//! `analyze_design`.

use proptest::prelude::*;

use lobist::alloc::flow::{synthesize, FlowOptions};
use lobist::dfg::lifetime::LifetimeOptions;
use lobist::dfg::random::{random_scheduled_dfg, RandomDfgConfig};
use lobist::dfg::OpKind;
use lobist::gatesim::modules::unit_for;
use lobist::gatesim::net::{GateNetwork, NetId};
use lobist::lint::analysis::cop::{observabilities, signal_probabilities};
use lobist::lint::{analyze_design, FixpointScratch, LintUnit};

const KINDS: [OpKind; 8] = [
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Div,
    OpKind::And,
    OpKind::Or,
    OpKind::Xor,
    OpKind::Lt,
];

fn cone_strategy() -> impl Strategy<Value = (OpKind, u32)> {
    (prop::sample::select(KINDS.to_vec()), 2u32..11)
}

/// Truncates `net` after its first `keep` gates: the kept prefix is
/// still topologically ordered (builder networks list gates in def
/// order), and every net the prefix drives that fed a *removed* gate —
/// plus any original output the prefix still drives — is promoted to a
/// primary output. This is exactly "analyze the sub-cone in isolation".
fn truncate(net: &GateNetwork, keep: usize) -> GateNetwork {
    let gates = net.gates()[..keep].to_vec();
    let mut driven = vec![false; net.num_nets()];
    for i in net.inputs() {
        driven[i.index()] = true;
    }
    for g in &gates {
        driven[g.out.index()] = true;
    }
    let mut promoted = vec![false; net.num_nets()];
    let mut outputs = Vec::new();
    let mut promote = |n: NetId, outputs: &mut Vec<NetId>| {
        if driven[n.index()] && !promoted[n.index()] {
            promoted[n.index()] = true;
            outputs.push(n);
        }
    };
    for o in net.outputs() {
        promote(*o, &mut outputs);
    }
    for g in &net.gates()[keep..] {
        promote(g.a, &mut outputs);
        promote(g.b, &mut outputs);
    }
    GateNetwork::from_parts(net.num_nets(), net.inputs().to_vec(), outputs, gates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cop_estimates_are_probabilities((kind, width) in cone_strategy()) {
        let net = unit_for(kind, width);
        let mut scratch = FixpointScratch::new();
        let p1 = signal_probabilities(&net, &mut scratch);
        let obs = observabilities(&net, &p1, &mut scratch);
        prop_assert_eq!(p1.len(), net.num_nets());
        prop_assert_eq!(obs.len(), net.num_nets());
        for i in 0..net.num_nets() {
            prop_assert!((0.0..=1.0).contains(&p1[i]), "p1[{i}]={}", p1[i]);
            prop_assert!((0.0..=1.0).contains(&obs[i]), "obs[{i}]={}", obs[i]);
        }
        // Primary outputs are directly visible.
        for o in net.outputs() {
            prop_assert!(obs[o.index()] == 1.0);
        }
    }

    #[test]
    fn cop_is_monotone_under_cone_truncation(
        (kind, width) in cone_strategy(),
        cut_pct in 10u32..90,
    ) {
        let net = unit_for(kind, width);
        let keep = (net.num_gates() * cut_pct as usize / 100).max(1);
        let sub = truncate(&net, keep);
        let mut scratch = FixpointScratch::new();
        let p1_full = signal_probabilities(&net, &mut scratch);
        let obs_full = observabilities(&net, &p1_full, &mut scratch);
        let p1_sub = signal_probabilities(&sub, &mut scratch);
        let obs_sub = observabilities(&sub, &p1_sub, &mut scratch);
        // Forward: the kept prefix computes the same probabilities.
        for i in net.inputs() {
            prop_assert_eq!(p1_sub[i.index()], p1_full[i.index()]);
        }
        for g in sub.gates() {
            let i = g.out.index();
            prop_assert_eq!(p1_sub[i], p1_full[i], "net {i}");
        }
        // Backward: isolating the sub-cone (cut nets become outputs)
        // can only raise observability — never lower it.
        for g in sub.gates() {
            let i = g.out.index();
            prop_assert!(
                obs_sub[i] >= obs_full[i] - 1e-12,
                "net {i}: sub {} < full {}", obs_sub[i], obs_full[i]
            );
        }
    }

}

proptest! {
    // Each case synthesizes a whole design, so fewer cases than the
    // pure-math properties above.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engine_analysis_is_byte_identical_to_analyze_design(
        (seed, num_ops, num_inputs) in (any::<u64>(), 4usize..20, 2usize..6),
    ) {
        let cfg = RandomDfgConfig {
            num_ops,
            num_inputs,
            ..RandomDfgConfig::default()
        };
        let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
        let modules: lobist::dfg::modules::ModuleSet = "3+,3-,3*,3&".parse().expect("valid");
        let opts = FlowOptions::testable().with_lifetimes(LifetimeOptions::registered_inputs());
        let Ok(d) = synthesize(&dfg, &schedule, &modules, &opts) else {
            // Some random designs are legitimately unsynthesizable
            // (e.g. untestable modules); they are not analysis inputs.
            return Ok(());
        };
        let unit = LintUnit::of_design(&dfg, &schedule, &d, opts.lifetime_options, &opts.area);
        let mut scratch = FixpointScratch::new();
        let reference = analyze_design(&unit, &mut scratch);
        let (report, _) = lobist::engine::analyze_timed(&unit, None);
        prop_assert_eq!(&report, &reference);
        prop_assert_eq!(report.to_json(true), reference.to_json(true));
        prop_assert_eq!(report.render_text(), reference.render_text());
    }
}
