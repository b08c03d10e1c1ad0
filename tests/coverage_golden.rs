//! Golden pins of the random-pattern coverage loop: uniform
//! pseudo-random patterns into a gate-level module, one first-detection
//! stamp per stuck-at fault, detected faults dropped batch by batch.
//!
//! For every run this pins:
//!
//! - the `CoverageReport` of `random_pattern_coverage_with`: faults,
//!   detections, `patterns_applied` and an FNV-1a digest of the
//!   per-fault `first_detection` stamps, which must be the same at 64
//!   and 256 lanes (and equal to `random_pattern_coverage_of`);
//! - the simulator's `SimCounters` at each lane width (batches loaded,
//!   faults simulated, cone evaluations, events propagated), which fix
//!   the walks' early-exit points.
//!
//! Runs: every `unit_for` kind at widths 4 and 8 and two ALUs, over
//! the full fault universe (both polarities of a net adjacent, so the
//! loop pairs them into one walk) and over the collapsed class
//! representatives, at pattern budgets below one 64-lane batch, at one
//! 64-lane batch, at one 256-lane batch and above it.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test coverage_golden
//! ```

use std::fmt::Write as _;

use lobist::dfg::OpKind;
use lobist::gatesim::collapse::collapse_faults;
use lobist::gatesim::coverage::{
    enumerate_faults, random_pattern_coverage_of, random_pattern_coverage_with, CoverageReport,
};
use lobist::gatesim::diffsim::{DiffSim, SimCounters};
use lobist::gatesim::lanes::{LaneWord, W256};
use lobist::gatesim::modules::{alu, unit_for};
use lobist::gatesim::net::{Fault, GateNetwork};

const SEED: u64 = 7;
const BUDGETS: [u64; 4] = [40, 64, 256, 1000];

/// FNV-1a over one little-endian `u64` per fault: 0 for undetected,
/// the stamp plus one otherwise.
fn stamps_digest(stamps: &[Option<u64>]) -> u64 {
    stamps.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        s.map_or(0, |p| p + 1)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn counters_text(c: &SimCounters) -> String {
    format!(
        "[{},{},{},{}]",
        c.batches_loaded, c.faults_simulated, c.cone_evals, c.events_propagated
    )
}

fn run_at<W: LaneWord>(
    net: &GateNetwork,
    faults: &[Fault],
    patterns: u64,
) -> (CoverageReport, SimCounters) {
    let mut sim = DiffSim::<W>::new(net);
    let report = random_pattern_coverage_with(&mut sim, faults, patterns, SEED);
    (report, sim.counters())
}

fn render_net(out: &mut String, title: &str, net: &GateNetwork) {
    let universe = enumerate_faults(net);
    let collapsed = collapse_faults(net);
    for (list, faults) in [
        ("universe", &universe[..]),
        ("collapsed", collapsed.representatives()),
    ] {
        for patterns in BUDGETS {
            let (report, narrow) = run_at::<u64>(net, faults, patterns);
            let (wide_report, wide) = run_at::<W256>(net, faults, patterns);
            let at = format!("{title} {list} p={patterns}");
            assert_eq!(wide_report, report, "{at}: 64 vs 256 lanes");
            assert_eq!(
                random_pattern_coverage_of(net, faults, patterns, SEED),
                report,
                "{at}: default entry point"
            );
            let _ = writeln!(
                out,
                "{at}: faults={} detected={} applied={} stamps={:016x} l64={} l256={}",
                report.total_faults,
                report.detected,
                report.patterns_applied,
                stamps_digest(&report.first_detection),
                counters_text(&narrow),
                counters_text(&wide)
            );
        }
    }
}

fn golden_text() -> String {
    let mut out = String::new();
    let alus: [&[OpKind]; 2] = [
        &[OpKind::Add, OpKind::Sub, OpKind::Mul],
        &[OpKind::Sub, OpKind::And, OpKind::Xor, OpKind::Lt],
    ];
    for width in [4u32, 8] {
        for kind in OpKind::ALL {
            render_net(&mut out, &format!("unit {kind} w={width}"), &unit_for(kind, width));
        }
        for kinds in alus {
            let names: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
            let title = format!("alu [{}] w={width}", names.join(""));
            render_net(&mut out, &title, &alu(kinds, width));
        }
    }
    out
}

#[test]
fn coverage_golden() {
    let actual = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/coverage/coverage.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().expect("a parent"))
            .expect("golden directory");
        std::fs::write(path, &actual).expect("golden written");
        return;
    }
    let expected =
        std::fs::read_to_string(path).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count");
}
