//! Test-mode register reachability over the allocation.
//!
//! The paper's BIST embedding needs, for every module under test, two
//! *distinct* pattern sources with I-paths into its ports (the PRPG
//! side) and at least one register fed by its output (the MISR side);
//! Lemma 2 adds that a register serving both roles for one module must
//! be a CBILBO. [`lobist_datapath::ipath::IPathAnalysis`] already
//! computes the candidate sets from the assembled netlist; this
//! analysis re-reads them as a reachability problem and reports *which
//! cones are untestable in test mode and why* — before any style
//! assignment or session scheduling is attempted.

use lobist_datapath::ipath::IPathAnalysis;
use lobist_datapath::{ModuleId, Port, PortSide};

use crate::context::LintUnit;
use crate::diag::{Code, Diagnostic, Span};

/// Reachability facts for one used module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleReach {
    /// The module.
    pub module: ModuleId,
    /// Pattern sources (registers + external inputs) reaching the left
    /// port.
    pub left_sources: usize,
    /// Pattern sources reaching the right port.
    pub right_sources: usize,
    /// Registers that can capture the module's output (MISR
    /// candidates).
    pub sa_candidates: usize,
    /// Whether a legal (two distinct tagged sources + a signature
    /// register) embedding exists.
    pub has_embedding: bool,
}

/// Reachability facts for every used module, in module order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachReport {
    /// Per-module facts.
    pub modules: Vec<ModuleReach>,
}

/// Computes the reach report. Empty when the unit has no assembled
/// data path (nothing to reach over).
pub fn reach_report(unit: &LintUnit<'_>) -> ReachReport {
    let Some(dp) = unit.data_path else {
        return ReachReport::default();
    };
    let ipaths = IPathAnalysis::of(dp);
    let mut modules = Vec::new();
    for m in dp.module_ids() {
        if dp.module_ops(m).is_empty() {
            continue;
        }
        let sources = |side: PortSide| {
            ipaths.tpg_candidates(m, side).len() + ipaths.input_candidates(m, side).len()
        };
        modules.push(ModuleReach {
            module: m,
            left_sources: sources(PortSide::Left),
            right_sources: sources(PortSide::Right),
            sa_candidates: ipaths.sa_candidates(m).len(),
            has_embedding: ipaths.has_embedding(m),
        });
    }
    ReachReport { modules }
}

impl ReachReport {
    /// T302 diagnostics: one per unreachable port, signature-less
    /// module, or module whose candidate sets are individually nonempty
    /// but admit no legal combined embedding.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for r in &self.modules {
            let mut port_starved = false;
            for (side, n) in [(PortSide::Left, r.left_sources), (PortSide::Right, r.right_sources)]
            {
                if n == 0 {
                    port_starved = true;
                    out.push(Diagnostic::new(
                        Code::T302UnreachableInTestMode,
                        Span::Port(Port { module: r.module, side }),
                        "no pattern source has an I-path to this port in test mode".to_string(),
                    ));
                }
            }
            if r.sa_candidates == 0 {
                port_starved = true;
                out.push(Diagnostic::new(
                    Code::T302UnreachableInTestMode,
                    Span::Module(r.module),
                    "no register can capture this module's responses (no MISR candidate)"
                        .to_string(),
                ));
            }
            if !r.has_embedding && !port_starved {
                out.push(Diagnostic::new(
                    Code::T302UnreachableInTestMode,
                    Span::Module(r.module),
                    "pattern and signature candidates exist but no two distinct sources \
                     cover both ports (Lemma 2 admits no legal embedding)"
                        .to_string(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
    use lobist_dfg::benchmarks;

    #[test]
    fn testable_flow_designs_reach_everywhere() {
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
        let report = reach_report(&unit);
        assert!(!report.modules.is_empty());
        for m in &report.modules {
            assert!(m.has_embedding, "{:?}", m);
            assert!(m.left_sources > 0 && m.right_sources > 0 && m.sa_candidates > 0);
        }
        assert!(report.diagnostics().is_empty());
    }

    #[test]
    fn no_data_path_reports_nothing() {
        let bench = benchmarks::ex1();
        let opts = FlowOptions::testable();
        let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
        let mut unit = crate::LintUnit::of_design(
            &bench.dfg,
            &bench.schedule,
            &design,
            bench.lifetime_options,
            &opts.area,
        );
        unit.data_path = None;
        assert_eq!(reach_report(&unit), ReachReport::default());
    }
}
