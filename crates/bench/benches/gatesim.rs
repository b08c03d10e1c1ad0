//! Criterion benchmarks: gate-level evaluation and fault simulation.
//!
//! `coverage_256` is the headline case for the cone-limited differential
//! simulator (before/after numbers live in `BENCH_gatesim.json` at the
//! repo root); `faults_dropped` shows how the cost of one batch falls as
//! detected faults leave the undetected list; `session_*8_parallel4`
//! exercises the engine's partitioned session driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_dfg::OpKind;
use lobist_engine::{bist_session_parallel, FaultSimOptions, LaneSelect};
use lobist_gatesim::bist_mode::{run_session, SessionContext};
use lobist_gatesim::collapse::collapse_faults;
use lobist_gatesim::coverage::{
    enumerate_faults, random_pattern_coverage, random_pattern_coverage_with,
};
use lobist_gatesim::diffsim::DiffSim;
use lobist_gatesim::lanes::{LaneWord, W256};
use lobist_gatesim::lfsr::max_useful_patterns;
use lobist_gatesim::modules::unit_for;
use lobist_gatesim::net::{Fault, GateNetwork};

/// One serial coverage run pinned to lane width `W` (the public entry
/// points auto-select; benchmarking the knob needs it explicit).
fn coverage_at<W: LaneWord>(net: &GateNetwork, faults: &[Fault], patterns: u64) -> u64 {
    let mut sim = DiffSim::<W>::new(net);
    random_pattern_coverage_with(&mut sim, faults, patterns, 7).patterns_applied
}

fn bench_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    for kind in [OpKind::Add, OpKind::Mul] {
        for width in [4u32, 8, 16, 32] {
            let net = unit_for(kind, width);
            let id = format!("{kind}{width}");
            group.bench_with_input(BenchmarkId::new("coverage_256", &id), &id, |b, _| {
                b.iter(|| random_pattern_coverage(&net, 256, 7))
            });
        }
    }
    // The same 256-pattern budget pinned to each lane width. On this
    // early-exit loop the cone visits are width-invariant (detected
    // faults drop out after block 0), so wide lanes pay for bytes they
    // never use and `l64` wins — these cases document that measurement
    // and guard it; the wide win lives in the full-walk session cases
    // (`bist_session/session_lanes_*`). `auto` resolves to 64 here.
    for width in [16u32, 32] {
        let net = unit_for(OpKind::Mul, width);
        let faults = enumerate_faults(&net);
        let id = |lanes: u32| format!("*{width}_l{lanes}");
        group.bench_function(BenchmarkId::new("coverage_256_lanes", id(64)), |b| {
            b.iter(|| coverage_at::<u64>(&net, &faults, 256))
        });
        group.bench_function(BenchmarkId::new("coverage_256_lanes", id(256)), |b| {
            b.iter(|| coverage_at::<W256>(&net, &faults, 256))
        });
    }
    // Pattern-budget scaling on the hardest unit: each batch retires
    // detected faults, so cost per extra batch shrinks as the
    // undetected list dries up.
    let net = unit_for(OpKind::Mul, 8);
    for patterns in [64u64, 256, 1024, 4096] {
        group.bench_with_input(
            BenchmarkId::new("faults_dropped_mul8", patterns),
            &patterns,
            |b, &patterns| b.iter(|| random_pattern_coverage(&net, patterns, 7)),
        );
    }
    group.finish();
}

fn bench_bist_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("bist_session");
    for kind in [OpKind::Add, OpKind::Mul] {
        let net = unit_for(kind, 8);
        let faults = enumerate_faults(&net);
        group.bench_function(format!("session_{kind}8"), |b| {
            b.iter(|| run_session(&net, 8, 255, (1, 2), &faults))
        });
    }
    // Session emulation pinned to each lane width: every stem walks
    // its whole cone every batch (the MISR signature needs every
    // pattern, so there is no early exit), which makes batch count the
    // cost driver — the workload where wide lanes genuinely win.
    fn session_at<W: LaneWord>(
        net: &GateNetwork,
        faults: &[Fault],
        width: u32,
        patterns: u64,
        seeds: (u64, u64),
    ) -> usize {
        let ctx = SessionContext::<W>::prepare(net, &[], width, patterns, seeds);
        let mut sim = DiffSim::<W>::new(net);
        ctx.detect_flags(&mut sim, faults)
            .iter()
            .filter(|f| f.1)
            .count()
    }
    // The `faultsim` end-to-end workload's own sessions: width 12, one
    // full TPG period, 256 lanes, collapsed representatives, module 0's
    // seeds — serial, so the rows time the session itself.
    for kind in [OpKind::Add, OpKind::Mul] {
        let net = unit_for(kind, 12);
        let reps = collapse_faults(&net).representatives().to_vec();
        let patterns = max_useful_patterns(12);
        group.bench_function(format!("session_{kind}12"), |b| {
            b.iter(|| session_at::<W256>(&net, &reps, 12, patterns, (0xACE1, 0x1BAD)))
        });
        // The session's fixed cost alone: pattern batches, golden
        // signature, MISR maps and stems.
        group.bench_function(format!("prepare_{kind}12"), |b| {
            b.iter(|| {
                SessionContext::<W256>::prepare(&net, &[], 12, patterns, (0xACE1, 0x1BAD))
                    .golden_signature()
            })
        });
    }
    let net = unit_for(OpKind::Mul, 8);
    let faults = enumerate_faults(&net);
    group.bench_function("session_lanes_*8_l64", |b| {
        b.iter(|| session_at::<u64>(&net, &faults, 8, 255, (1, 2)))
    });
    group.bench_function("session_lanes_*8_l256", |b| {
        b.iter(|| session_at::<W256>(&net, &faults, 8, 255, (1, 2)))
    });
    group.bench_function("session_*8_parallel4", |b| {
        let opts = FaultSimOptions {
            workers: 4,
            collapse: true,
            lanes: LaneSelect::Auto,
        };
        b.iter(|| bist_session_parallel(&net, &[], 8, 255, (1, 2), opts))
    });
    group.finish();
}

criterion_group!(benches, bench_fault_sim, bench_bist_session);
criterion_main!(benches);
