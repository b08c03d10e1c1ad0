//! Golden pins of the BIST session fault simulator: LFSR patterns into
//! a gate-level module, its responses into a MISR, one verdict per
//! stuck-at fault.
//!
//! For every session this pins:
//!
//! - the `SessionReport` of `bist_session_parallel` (faults, ideal and
//!   signature detections, patterns, golden signature), which must be
//!   the same at every lane width, worker count and collapse setting;
//! - `faults_simulated` of each of those runs: each simulated fault
//!   counts once per pattern batch;
//! - an FNV-1a digest of the per-fault `(ideal, signature)` flags of
//!   `SessionContext::detect_flags` over the full fault universe, equal
//!   at 64 and 256 lanes.
//!
//! Sessions: every `unit_for` kind at widths 4 and 8 and two ALUs with
//! one-hot controls, at the full TPG period and at a clipped budget of
//! 300 patterns; the `+`, `-` and `*` units at width 12 (the `faultsim`
//! workload's sessions) at 256 lanes on one worker; and the
//! `fault_sim_modules` rows of the seed-1 corpus at sizes 8 and 16
//! under `1+,1*,1-` and `1+,1*,1ALU`, at widths 8 and 12.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test faultsim_golden
//! ```

use std::fmt::Write as _;

use lobist::alloc::module_assign::assign_modules;
use lobist::dfg::corpus::{generate, KINDS};
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::scheduling::list_schedule;
use lobist::dfg::OpKind;
use lobist::engine::{
    bist_session_parallel, fault_sim_modules, Engine, FaultSimOptions, LaneSelect, SessionWidth,
};
use lobist::gatesim::bist_mode::{DetectFlags, SessionContext, SessionReport};
use lobist::gatesim::coverage::enumerate_faults;
use lobist::gatesim::diffsim::DiffSim;
use lobist::gatesim::lanes::{LaneWord, W256};
use lobist::gatesim::lfsr::max_useful_patterns;
use lobist::gatesim::modules::{alu, unit_for};
use lobist::gatesim::net::GateNetwork;

const SEEDS: (u64, u64) = (0xACE1, 0x1BAD);

fn report_text(r: &SessionReport) -> String {
    format!(
        "faults={} ideal={} signature={} patterns={} golden={:#x}",
        r.total_faults, r.detected_ideal, r.detected_signature, r.patterns, r.golden_signature
    )
}

/// FNV-1a over one byte per fault: bit 0 ideal, bit 1 signature.
fn flags_digest(flags: &[DetectFlags]) -> u64 {
    flags.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(ideal, signature)| {
        (h ^ u64::from(u8::from(ideal) | u8::from(signature) << 1)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn universe_flags<W: LaneWord>(
    net: &GateNetwork,
    controls: &[bool],
    width: u32,
    patterns: u64,
) -> (Vec<DetectFlags>, SessionReport) {
    let ctx = SessionContext::<W>::prepare(net, controls, width, patterns, SEEDS);
    let mut sim = DiffSim::<W>::new(net);
    let flags = ctx.detect_flags(&mut sim, &enumerate_faults(net));
    let report = ctx.report_from_flags(&flags);
    (flags, report)
}

/// One session under every `(lanes, workers, collapse)` variant: the
/// reports must agree; the report, each run's `faults_simulated` and
/// the universe flag digest are pinned.
#[allow(clippy::too_many_arguments)]
fn render_session(
    out: &mut String,
    title: &str,
    net: &GateNetwork,
    controls: &[bool],
    width: u32,
    patterns: u64,
    variants: &[(LaneSelect, usize, bool)],
    narrow_digest: bool,
) {
    let mut report: Option<SessionReport> = None;
    let mut simulated = Vec::new();
    for &(lanes, workers, collapse) in variants {
        let opts = FaultSimOptions {
            workers,
            collapse,
            lanes,
        };
        let (r, stats) = bist_session_parallel(net, controls, width, patterns, SEEDS, opts);
        match &report {
            Some(first) => assert_eq!(&r, first, "{title} under {opts:?}"),
            None => report = Some(r),
        }
        simulated.push(stats.counters.faults_simulated.to_string());
    }
    let report = report.expect("at least one variant");
    let (flags, universe) = universe_flags::<W256>(net, controls, width, patterns);
    assert_eq!(universe, report, "{title}: universe flags");
    if narrow_digest {
        let (narrow, _) = universe_flags::<u64>(net, controls, width, patterns);
        assert_eq!(narrow, flags, "{title}: 64 vs 256 lanes");
    }
    let _ = writeln!(
        out,
        "{title} p={patterns}: {} flags={:016x} simulated=[{}]",
        report_text(&report),
        flags_digest(&flags),
        simulated.join(",")
    );
}

fn unit_sessions(out: &mut String) {
    let mut variants = Vec::new();
    for lanes in [LaneSelect::W64, LaneSelect::W256] {
        for workers in [1, 3] {
            for collapse in [true, false] {
                variants.push((lanes, workers, collapse));
            }
        }
    }
    let alus: [&[OpKind]; 2] = [
        &[OpKind::Add, OpKind::Sub, OpKind::Mul],
        &[OpKind::Sub, OpKind::And, OpKind::Xor, OpKind::Lt],
    ];
    for width in [4u32, 8] {
        let budgets = [max_useful_patterns(width), 300];
        for kind in OpKind::ALL {
            let net = unit_for(kind, width);
            for patterns in budgets {
                let title = format!("unit {kind} w={width}");
                render_session(out, &title, &net, &[], width, patterns, &variants, true);
            }
        }
        for kinds in alus {
            let net = alu(kinds, width);
            let names: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
            for select in [0, kinds.len() - 1] {
                let controls: Vec<bool> = (0..kinds.len()).map(|i| i == select).collect();
                for patterns in budgets {
                    let title = format!("alu [{}] select={select} w={width}", names.join(""));
                    render_session(out, &title, &net, &controls, width, patterns, &variants, true);
                }
            }
        }
    }
    // The `faultsim` workload's own sessions.
    for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul] {
        let net = unit_for(kind, 12);
        let patterns = max_useful_patterns(12);
        let title = format!("unit {kind} w=12");
        let variants = [(LaneSelect::W256, 1, true)];
        render_session(out, &title, &net, &[], 12, patterns, &variants, false);
    }
}

fn design_sessions(out: &mut String) {
    let engine = Engine::new(1);
    for set in ["1+,1*,1-", "1+,1*,1ALU"] {
        let modules: ModuleSet = set.parse().expect("a module set");
        for width in [8u32, 12] {
            let width = SessionWidth::new(width).expect("in range");
            for size in [8u32, 16] {
                for kind in KINDS {
                    let dfg = generate(kind, size, 1);
                    let title = format!(
                        "corpus/{}_n{size}_s1 [{set}] w={}",
                        kind.name(),
                        width.get()
                    );
                    let binding = list_schedule(&dfg, &modules)
                        .map_err(|e| e.to_string())
                        .and_then(|s| {
                            assign_modules(&dfg, &s, &modules).map_err(|e| e.to_string())
                        });
                    let binding = match binding {
                        Ok(b) => b,
                        Err(e) => {
                            let _ = writeln!(out, "{title}: error: {e}");
                            continue;
                        }
                    };
                    let opts = FaultSimOptions::default();
                    for (module, report) in fault_sim_modules(&dfg, &binding, width, opts, &engine)
                    {
                        let _ = writeln!(out, "{title}: {module} {}", report_text(&report));
                    }
                }
            }
        }
    }
}

fn golden_text() -> String {
    let mut out = String::new();
    unit_sessions(&mut out);
    design_sessions(&mut out);
    out
}

#[test]
fn faultsim_golden() {
    let actual = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/faultsim/sessions.txt");
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
