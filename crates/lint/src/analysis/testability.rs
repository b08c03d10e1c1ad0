//! Per-cone testability scoring: the three analyses composed into a
//! design-level report and the `T3xx` lint passes.
//!
//! For every used module the design-width gate netlist is regenerated
//! (the same cone the `gates` pass lints and the diffsim validator
//! simulates), COP probabilities/observabilities and constant facts are
//! computed, and each stuck-at fault of [`enumerate_faults`] gets a
//! detection-probability estimate. Faults split three ways:
//!
//! * **redundant** (`T303`) — untestable by construction (constant
//!   excitation or structurally unobservable); no pattern source of any
//!   kind covers them, so they are excluded from coverage expectations;
//! * **hard** (`T301`) — testable but with `p_detect` at or below
//!   [`t301_detect_threshold`], i.e. a ≥ 50 % chance of escaping the
//!   [`RANDOM_PATTERN_BUDGET`]-pattern pseudorandom session; these are
//!   the deterministic-top-up candidates a hybrid-BIST scheme needs;
//! * everything else — expected to fall to pseudorandom patterns.
//!
//! The report is a pure function of the [`LintUnit`]: no simulation
//! runs.

use lobist_datapath::ModuleId;
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::OpKind;
use lobist_gatesim::coverage::enumerate_faults;
use lobist_gatesim::modules::module_unit;
use lobist_gatesim::net::{Fault, GateNetwork};

use crate::context::LintUnit;
use crate::diag::{Code, Diagnostic, Span};
use crate::registry::{LintScratch, Pass};

use super::constprop::{constants, is_redundant, structural_observability, ConstVal};
use super::cop::{observabilities, signal_probabilities};
use super::fixpoint::FixpointScratch;
use super::reach::{reach_report, ReachReport};

/// The pseudorandom pattern budget the `T301` flag is calibrated
/// against — the same 256 patterns the diffsim validation applies.
pub const RANDOM_PATTERN_BUDGET: u64 = 256;

/// Buckets of the `-log2(p_detect)` histogram; the last bucket absorbs
/// everything at or below `2^-15` (including exact zeros).
pub const DETECT_HIST_BUCKETS: usize = 16;

/// The `T301` flag threshold: the detection probability at which the
/// escape probability after [`RANDOM_PATTERN_BUDGET`] independent
/// patterns is exactly ½, i.e. `1 − 0.5^(1/256) ≈ 2.7e-3`. A fault at
/// or below it is more likely than not to survive the pseudorandom
/// session.
pub fn t301_detect_threshold() -> f64 {
    1.0 - 0.5f64.powf(1.0 / RANDOM_PATTERN_BUDGET as f64)
}

/// One fault's static scores.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScore {
    /// The fault.
    pub fault: Fault,
    /// COP probability of a 1 on the faulty net.
    pub p_one: f64,
    /// COP observability of the faulty net.
    pub observability: f64,
    /// Estimated per-pattern detection probability
    /// (excitation × observability).
    pub p_detect: f64,
    /// Untestable by construction (`T303`).
    pub redundant: bool,
    /// Random-pattern resistant (`T301`); never set for redundant
    /// faults.
    pub hard: bool,
}

/// The full static-analysis result for one gate network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTestability {
    /// `p1` per net.
    pub p_one: Vec<f64>,
    /// `O` per net.
    pub observability: Vec<f64>,
    /// Constant facts per net.
    pub consts: Vec<ConstVal>,
    /// Structural observability per net.
    pub observable: Vec<bool>,
    /// One score per fault of [`enumerate_faults`], in fault order.
    pub scores: Vec<FaultScore>,
}

/// Analyzes one network: both fixpoint pairs plus per-fault scoring.
pub fn analyze_network(net: &GateNetwork, scratch: &mut FixpointScratch) -> NetworkTestability {
    let p_one = signal_probabilities(net, scratch);
    let observability = observabilities(net, &p_one, scratch);
    let consts = constants(net, scratch);
    let observable = structural_observability(net, &consts, scratch);
    let threshold = t301_detect_threshold();
    let scores = enumerate_faults(net)
        .into_iter()
        .map(|fault| {
            let i = fault.net.index();
            let excitation = if fault.stuck_at_one { 1.0 - p_one[i] } else { p_one[i] };
            let p_detect = excitation * observability[i];
            let redundant = is_redundant(fault, &consts, &observable);
            FaultScore {
                fault,
                p_one: p_one[i],
                observability: observability[i],
                p_detect,
                redundant,
                hard: !redundant && p_detect <= threshold,
            }
        })
        .collect();
    NetworkTestability { p_one, observability, consts, observable, scores }
}

/// One module cone of a design: what to regenerate and analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignCone {
    /// The module.
    pub module: ModuleId,
    /// Its class.
    pub class: ModuleClass,
    /// The distinct operation kinds bound to it, sorted.
    pub kinds: Vec<OpKind>,
}

impl DesignCone {
    /// The cone's display label (`"m0:+"`, `"m2:ALU[+,*]"`).
    pub fn label(&self) -> String {
        match self.class {
            ModuleClass::Op(k) => format!("{}:{}", self.module, k),
            ModuleClass::Alu => {
                let kinds: Vec<String> = self.kinds.iter().map(|k| k.to_string()).collect();
                format!("{}:ALU[{}]", self.module, kinds.join(","))
            }
        }
    }

    /// Regenerates the cone's gate netlist at `width` bits.
    pub fn build_network(&self, width: u32) -> GateNetwork {
        module_unit(self.class, &self.kinds, width)
    }
}

/// The used module cones of a design, in module order — the same
/// enumeration the `gates` pass and the fault-simulation command use.
pub fn design_cones(unit: &LintUnit<'_>) -> Vec<DesignCone> {
    let mut cones = Vec::new();
    for m in unit.modules.module_ids() {
        let ops = unit.modules.ops_of(m);
        if ops.is_empty() {
            continue;
        }
        let kinds = unit.modules.kinds_of(unit.dfg, m);
        cones.push(DesignCone { module: m, class: unit.modules.class(m), kinds });
    }
    cones
}

/// The analyzed result for one cone.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeReport {
    /// Which cone.
    pub cone: DesignCone,
    /// Gate count of the regenerated netlist.
    pub gates: usize,
    /// Net count.
    pub nets: usize,
    /// Per-fault scores, in fault order.
    pub scores: Vec<FaultScore>,
    /// Histogram of `-log2(p_detect)` over non-redundant faults.
    pub detect_hist: [u32; DETECT_HIST_BUCKETS],
}

impl ConeReport {
    /// Number of faults scored.
    pub fn faults(&self) -> usize {
        self.scores.len()
    }

    /// Number of `T301` (hard) faults.
    pub fn hard(&self) -> usize {
        self.scores.iter().filter(|s| s.hard).count()
    }

    /// Number of `T303` (redundant) faults.
    pub fn redundant(&self) -> usize {
        self.scores.iter().filter(|s| s.redundant).count()
    }
}

/// Analyzes one cone at `width` bits.
pub fn analyze_cone(cone: &DesignCone, width: u32, scratch: &mut FixpointScratch) -> ConeReport {
    let net = cone.build_network(width);
    let t = analyze_network(&net, scratch);
    let mut detect_hist = [0u32; DETECT_HIST_BUCKETS];
    for s in &t.scores {
        if s.redundant {
            continue;
        }
        detect_hist[detect_bucket(s.p_detect)] += 1;
    }
    ConeReport {
        cone: cone.clone(),
        gates: net.num_gates(),
        nets: net.num_nets(),
        scores: t.scores,
        detect_hist,
    }
}

/// The histogram bucket of a detection probability: `floor(-log2(p))`
/// clamped to the bucket range (bucket 0 = easiest, last = hardest).
pub fn detect_bucket(p_detect: f64) -> usize {
    if p_detect <= 0.0 {
        return DETECT_HIST_BUCKETS - 1;
    }
    let b = (-p_detect.log2()).floor();
    (b.max(0.0) as usize).min(DETECT_HIST_BUCKETS - 1)
}

/// The design-level report: every cone plus register reachability.
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityReport {
    /// Design bit width the cones were generated at.
    pub width: u32,
    /// Per-cone results, in module order.
    pub cones: Vec<ConeReport>,
    /// Register reachability over the allocation.
    pub reach: ReachReport,
}

/// Analyzes every cone of the design serially.
pub fn analyze_design(unit: &LintUnit<'_>, scratch: &mut FixpointScratch) -> TestabilityReport {
    let width = unit.area.width;
    let cones = design_cones(unit)
        .iter()
        .map(|c| analyze_cone(c, width, scratch))
        .collect();
    TestabilityReport { width, cones, reach: reach_report(unit) }
}

fn fault_label(f: Fault) -> String {
    format!("n{}/sa{}", f.net.0, if f.stuck_at_one { 1 } else { 0 })
}

fn trim_hist(h: &[u32]) -> &[u32] {
    let n = h.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    &h[..n]
}

fn hist_json(h: &[u32]) -> String {
    let cells: Vec<String> = trim_hist(h).iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(","))
}

fn score_json(s: &FaultScore) -> String {
    let code = if s.redundant { "T303" } else { "T301" };
    format!(
        "{{\"fault\": \"{}\", \"code\": \"{}\", \"p_one\": {:.6}, \"observability\": {:.6}, \"p_detect\": {:.6}}}",
        fault_label(s.fault),
        code,
        s.p_one,
        s.observability,
        s.p_detect
    )
}

impl TestabilityReport {
    /// Total fault count.
    pub fn total_faults(&self) -> usize {
        self.cones.iter().map(|c| c.faults()).sum()
    }

    /// Total `T301` count.
    pub fn total_hard(&self) -> usize {
        self.cones.iter().map(|c| c.hard()).sum()
    }

    /// Total `T303` count.
    pub fn total_redundant(&self) -> usize {
        self.cones.iter().map(|c| c.redundant()).sum()
    }

    /// Total `T302` count.
    pub fn total_unreachable(&self) -> usize {
        self.reach.diagnostics().len()
    }

    /// Deterministic JSON rendering. With `full` every fault's scores
    /// are listed; otherwise only the flagged (`T301`/`T303`) faults.
    /// Byte-identical for identical reports — the worker-count
    /// invariance test byte-compares this.
    pub fn to_json(&self, full: bool) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"width\": {},\n", self.width));
        s.push_str(&format!("  \"patterns\": {},\n", RANDOM_PATTERN_BUDGET));
        s.push_str(&format!("  \"threshold\": {:.6},\n", t301_detect_threshold()));
        s.push_str("  \"cones\": [");
        for (i, c) in self.cones.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"cone\": \"{}\", \"gates\": {}, \"nets\": {}, \"faults\": {}, \"hard\": {}, \"redundant\": {}, \"detect_log2_hist\": {}",
                c.cone.label(),
                c.gates,
                c.nets,
                c.faults(),
                c.hard(),
                c.redundant(),
                hist_json(&c.detect_hist)
            ));
            let listed: Vec<&FaultScore> = if full {
                c.scores.iter().collect()
            } else {
                c.scores.iter().filter(|f| f.hard || f.redundant).collect()
            };
            let key = if full { "scores" } else { "flagged" };
            s.push_str(&format!(", \"{key}\": ["));
            for (j, f) in listed.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\n      {}", score_json(f)));
            }
            if !listed.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str("]}");
        }
        if !self.cones.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"reach\": [");
        for (i, r) in self.reach.modules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"module\": \"{}\", \"left_sources\": {}, \"right_sources\": {}, \"sa_candidates\": {}, \"embedding\": {}}}",
                r.module, r.left_sources, r.right_sources, r.sa_candidates, r.has_embedding
            ));
        }
        if !self.reach.modules.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"summary\": {{\"cones\": {}, \"faults\": {}, \"hard\": {}, \"redundant\": {}, \"unreachable\": {}}}\n}}",
            self.cones.len(),
            self.total_faults(),
            self.total_hard(),
            self.total_redundant(),
            self.total_unreachable()
        ));
        s
    }

    /// Human-readable rendering: one line per cone plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for c in &self.cones {
            out.push_str(&format!(
                "{:<14} {:>5} gates {:>5} faults  hard {:>4}  redundant {:>3}\n",
                c.cone.label(),
                c.gates,
                c.faults(),
                c.hard(),
                c.redundant()
            ));
        }
        for d in self.reach.diagnostics() {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str(&format!(
            "analyze: {} cone(s), {} fault(s): {} hard (T301), {} redundant (T303), {} unreachable (T302) at width {}\n",
            self.cones.len(),
            self.total_faults(),
            self.total_hard(),
            self.total_redundant(),
            self.total_unreachable(),
            self.width
        ));
        out
    }

    /// The report as lint diagnostics (`T301`/`T302`/`T303`).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = self.reach.diagnostics();
        for c in &self.cones {
            let module = Some(c.cone.module);
            for f in &c.scores {
                let span = Span::Net { module, net: f.fault.net.0 };
                let sa = if f.fault.stuck_at_one { 1 } else { 0 };
                if f.redundant {
                    // COP probabilities are exact on folded constants,
                    // so zero excitation identifies the stuck-at-own-
                    // value case; everything else is an observability
                    // block.
                    let excitation =
                        if f.fault.stuck_at_one { 1.0 - f.p_one } else { f.p_one };
                    let cause = if excitation <= 0.0 {
                        "the net constantly carries the stuck value"
                    } else {
                        "no structurally live path to an output"
                    };
                    out.push(Diagnostic::new(
                        Code::T303ConstantRedundant,
                        span,
                        format!("stuck-at-{sa} is untestable by construction: {cause}"),
                    ));
                } else if f.hard {
                    out.push(Diagnostic::new(
                        Code::T301RandomPatternResistant,
                        span,
                        format!(
                            "stuck-at-{sa} is random-pattern resistant: p_detect {:.6} <= {:.6} ({}-pattern escape >= 50%)",
                            f.p_detect,
                            t301_detect_threshold(),
                            RANDOM_PATTERN_BUDGET
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `T301`: per-fault random-pattern-resistance flags.
pub struct CopPass;

impl Pass for CopPass {
    fn name(&self) -> &'static str {
        "testability-cop"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::T301RandomPatternResistant]
    }

    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic> {
        let mut scratch = LintScratch::new();
        self.run_with(unit, &mut scratch)
    }

    fn run_with(&self, unit: &LintUnit<'_>, scratch: &mut LintScratch) -> Vec<Diagnostic> {
        let report = analyze_design(unit, &mut scratch.fixpoint);
        report
            .diagnostics()
            .into_iter()
            .filter(|d| d.code == Code::T301RandomPatternResistant)
            .collect()
    }
}

/// `T303`: constant/redundant fault flags.
pub struct ConstPass;

impl Pass for ConstPass {
    fn name(&self) -> &'static str {
        "testability-const"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::T303ConstantRedundant]
    }

    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic> {
        let mut scratch = LintScratch::new();
        self.run_with(unit, &mut scratch)
    }

    fn run_with(&self, unit: &LintUnit<'_>, scratch: &mut LintScratch) -> Vec<Diagnostic> {
        let report = analyze_design(unit, &mut scratch.fixpoint);
        report
            .diagnostics()
            .into_iter()
            .filter(|d| d.code == Code::T303ConstantRedundant)
            .collect()
    }
}

/// `T302`: test-mode reachability flags.
pub struct ReachPass;

impl Pass for ReachPass {
    fn name(&self) -> &'static str {
        "testability-reach"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::T302UnreachableInTestMode]
    }

    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic> {
        reach_report(unit).diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
    use lobist_dfg::benchmarks;

    fn ex1_report() -> TestabilityReport {
        let bench = benchmarks::ex1();
        let opts = FlowOptions::testable();
        let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
        let unit = crate::LintUnit::of_design(
            &bench.dfg,
            &bench.schedule,
            &design,
            bench.lifetime_options,
            &opts.area,
        );
        let mut scratch = FixpointScratch::new();
        analyze_design(&unit, &mut scratch)
    }

    #[test]
    fn threshold_is_the_half_escape_point() {
        let t = t301_detect_threshold();
        let escape = (1.0 - t).powf(RANDOM_PATTERN_BUDGET as f64);
        assert!((escape - 0.5).abs() < 1e-9, "escape at threshold = {escape}");
        assert!(t > 0.002 && t < 0.003, "threshold = {t}");
    }

    #[test]
    fn ex1_report_is_sane_and_deterministic() {
        let a = ex1_report();
        let b = ex1_report();
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_eq!(a.to_json(true), b.to_json(true));
        assert!(!a.cones.is_empty());
        assert!(a.total_faults() > 0);
        for c in &a.cones {
            for s in &c.scores {
                assert!((0.0..=1.0).contains(&s.p_one));
                assert!((0.0..=1.0).contains(&s.observability));
                assert!((0.0..=1.0).contains(&s.p_detect));
                assert!(!(s.hard && s.redundant));
            }
        }
        let text = a.render_text();
        assert!(text.contains("analyze:"), "{text}");
    }

    #[test]
    fn comparator_cone_has_redundant_faults() {
        // The comparator pads its result word with constant-zero bits
        // (`x ^ x` idiom): their SA0 faults have no excitation and must
        // come out T303-redundant, never T301-hard.
        use lobist_gatesim::modules::unit_for;
        let net = unit_for(OpKind::Lt, 4);
        let mut scratch = FixpointScratch::new();
        let t = analyze_network(&net, &mut scratch);
        let redundant: Vec<&FaultScore> = t.scores.iter().filter(|s| s.redundant).collect();
        assert!(!redundant.is_empty());
        assert!(redundant
            .iter()
            .any(|s| !s.fault.stuck_at_one && s.p_one == 0.0));
        assert!(t.scores.iter().all(|s| !(s.hard && s.redundant)));
    }

    #[test]
    fn detect_buckets_partition_correctly() {
        assert_eq!(detect_bucket(1.0), 0);
        assert_eq!(detect_bucket(0.5), 1);
        assert_eq!(detect_bucket(0.26), 1);
        assert_eq!(detect_bucket(0.25), 2);
        assert_eq!(detect_bucket(0.0), DETECT_HIST_BUCKETS - 1);
        assert_eq!(detect_bucket(1e-30), DETECT_HIST_BUCKETS - 1);
    }

    #[test]
    fn full_json_lists_every_fault() {
        let r = ex1_report();
        let full = r.to_json(true);
        let brief = r.to_json(false);
        assert!(full.len() > brief.len());
        assert!(full.contains("\"scores\": ["));
        assert!(brief.contains("\"flagged\": ["));
        assert!(full.matches("\"fault\":").count() == r.total_faults());
    }
}
