//! The pass trait and registry.
//!
//! A pass is a pure function from a [`LintUnit`] to diagnostics; the
//! registry owns the shipped pass sets and runs them. Passes are
//! independent by contract — no pass reads another's output — so a
//! driver may run them in any order or in parallel and the sorted
//! [`Report`] comes out identical.
//!
//! Two registries ship:
//!
//! * [`PassRegistry::default_registry`] — the *verifier* passes
//!   (`L`/`A`/`B` codes). These gate CI (`--deny all`) and must stay
//!   clean on every shipped design.
//! * [`PassRegistry::analysis_registry`] — the *advisory* testability
//!   analyses (`T3xx` codes, always warnings). They flag faults and
//!   cones that are hard or impossible to test, which is information,
//!   not a defect; keeping them out of the default set keeps the CI
//!   gate and the lint goldens meaningful.
//!
//! [`PassRegistry::full_registry`] concatenates both.
//!
//! Drivers hand every pass one shared [`LintScratch`] via
//! [`Pass::run_with`], so the allocation-heavy passes (gate regeneration,
//! fixpoint worklists) reuse buffers across passes instead of
//! reallocating per pass — the same discipline the diffsim engine uses
//! for its per-worker scratch.

use crate::analysis::fixpoint::FixpointScratch;
use crate::context::LintUnit;
use crate::diag::{Code, Diagnostic, Report};

/// Reusable buffers shared by every pass a driver runs on one thread.
#[derive(Debug, Default)]
pub struct LintScratch {
    /// Worklist/adjacency buffers for the fixpoint analyses.
    pub fixpoint: FixpointScratch,
    /// Per-net driver census for the network checker.
    pub drivers: Vec<u32>,
}

impl LintScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One static-analysis pass.
pub trait Pass: Send + Sync {
    /// Stable pass name (used in metrics and `--metrics` output).
    fn name(&self) -> &'static str;

    /// The codes this pass can emit.
    fn codes(&self) -> &'static [Code];

    /// Runs the pass. Must be deterministic and must not depend on other
    /// passes having run.
    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic>;

    /// Runs the pass with shared scratch buffers. The default ignores
    /// the scratch; allocation-heavy passes override this and must
    /// return exactly what [`Pass::run`] returns.
    fn run_with(&self, unit: &LintUnit<'_>, scratch: &mut LintScratch) -> Vec<Diagnostic> {
        let _ = scratch;
        self.run(unit)
    }
}

/// An ordered collection of passes.
pub struct PassRegistry {
    passes: Vec<Box<dyn Pass>>,
}

impl PassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { passes: Vec::new() }
    }

    /// The default registry: every shipped verifier pass, in layer
    /// order.
    pub fn default_registry() -> Self {
        let mut r = Self::new();
        r.register(Box::new(crate::structural::StructurePass));
        r.register(Box::new(crate::structural::GatesPass));
        r.register(Box::new(crate::allocation::ColoringPass));
        r.register(Box::new(crate::allocation::BindingPass));
        r.register(Box::new(crate::bist::BistLegalityPass));
        r.register(Box::new(crate::bist::Lemma2AuditPass));
        r
    }

    /// The advisory testability analyses (`T3xx`).
    pub fn analysis_registry() -> Self {
        let mut r = Self::new();
        r.register(Box::new(crate::analysis::CopPass));
        r.register(Box::new(crate::analysis::ReachPass));
        r.register(Box::new(crate::analysis::ConstPass));
        r
    }

    /// Verifier passes followed by the testability analyses.
    pub fn full_registry() -> Self {
        let mut r = Self::default_registry();
        for p in Self::analysis_registry().passes {
            r.register(p);
        }
        r
    }

    /// Appends a pass.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The registered passes.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Runs every pass serially — through one shared scratch — and
    /// collects the sorted report.
    pub fn lint(&self, unit: &LintUnit<'_>) -> Report {
        let mut scratch = LintScratch::new();
        let mut diags = Vec::new();
        for p in &self.passes {
            diags.extend(p.run_with(unit, &mut scratch));
        }
        Report::new(diags)
    }
}

impl Default for PassRegistry {
    fn default() -> Self {
        Self::default_registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_has_all_layers() {
        let r = PassRegistry::default_registry();
        let names: Vec<&str> = r.passes().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "structure",
                "gates",
                "coloring",
                "binding",
                "bist-legality",
                "lemma2-audit"
            ]
        );
        // The default passes own exactly the verifier codes...
        let mut owned: Vec<Code> = r.passes().iter().flat_map(|p| p.codes()).copied().collect();
        owned.sort();
        let mut verifier: Vec<Code> = crate::diag::ALL_CODES
            .into_iter()
            .filter(|c| !c.as_str().starts_with('T'))
            .collect();
        verifier.sort();
        assert_eq!(owned, verifier);
        // ...and the full registry covers every code exactly once.
        let full = PassRegistry::full_registry();
        let mut owned: Vec<Code> =
            full.passes().iter().flat_map(|p| p.codes()).copied().collect();
        owned.sort();
        let mut all = crate::diag::ALL_CODES.to_vec();
        all.sort();
        assert_eq!(owned, all);
    }

    #[test]
    fn analysis_registry_is_advisory_only() {
        let r = PassRegistry::analysis_registry();
        for p in r.passes() {
            for c in p.codes() {
                assert_eq!(
                    c.severity(),
                    crate::diag::Severity::Warning,
                    "{c} must stay advisory"
                );
            }
        }
    }
}
