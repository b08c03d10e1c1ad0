//! Human-readable decision traces of the testable register allocator.
//!
//! Each coloring step records the candidate registers, their sharing
//! degrees and increments, which override (if any) fired, and the final
//! choice — enough to replay the paper's Fig. 4 worked example.

use std::fmt;

use lobist_dfg::VarId;

/// Why the allocator placed a variable where it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChoiceReason {
    /// The variable conflicted with every existing register.
    NewRegister,
    /// Chosen by the maximum sharing-degree increment `ΔSD`.
    MaxDeltaSd,
    /// Case 1 override: joined a register already holding an output
    /// variable of the same module.
    Case1Override,
    /// Case 2 override: joined a register already holding an input
    /// variable of the same module (two such registers existed).
    Case2Override,
    /// The preferred register would have created a forced CBILBO
    /// (Lemma 2); a later candidate was used instead.
    Lemma2Avoidance,
    /// All candidates created forced CBILBOs; the assignment was allowed
    /// anyway (the paper permits this rather than adding a register).
    Lemma2Unavoidable,
}

impl fmt::Display for ChoiceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChoiceReason::NewRegister => "new register (conflicts with all)",
            ChoiceReason::MaxDeltaSd => "max ΔSD",
            ChoiceReason::Case1Override => "case 1 override (shared output register)",
            ChoiceReason::Case2Override => "case 2 override (shared input registers)",
            ChoiceReason::Lemma2Avoidance => "lemma 2 avoidance (skipped forcing choice)",
            ChoiceReason::Lemma2Unavoidable => "lemma 2 unavoidable (allowed)",
        };
        write!(f, "{s}")
    }
}

/// One candidate register considered at a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateInfo {
    /// Register index.
    pub register: usize,
    /// Sharing degree before the merge.
    pub sd_before: usize,
    /// Sharing degree after the hypothetical merge.
    pub sd_after: usize,
}

impl CandidateInfo {
    /// The increment `ΔSD`.
    pub fn delta(&self) -> usize {
        self.sd_after - self.sd_before
    }
}

/// One step of the coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Position in the reverse-PVES coloring order (0-based).
    pub position: usize,
    /// The variable colored.
    pub variable: VarId,
    /// Its name.
    pub variable_name: String,
    /// Its sharing degree.
    pub sd: usize,
    /// Its maximum clique size.
    pub mcs: usize,
    /// Non-conflicting registers and their (SD, SD-after) figures.
    pub candidates: Vec<CandidateInfo>,
    /// The chosen register index.
    pub chosen: usize,
    /// The rationale.
    pub reason: ChoiceReason,
}

/// A full allocation trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocTrace {
    /// The coloring steps in order.
    pub steps: Vec<TraceStep>,
}

impl AllocTrace {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no step was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl fmt::Display for AllocTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(
                f,
                "{:>3}. {} (SD={}, MCS={}): ",
                s.position + 1,
                s.variable_name,
                s.sd,
                s.mcs
            )?;
            if s.candidates.is_empty() {
                write!(f, "no compatible register")?;
            } else {
                let parts: Vec<String> = s
                    .candidates
                    .iter()
                    .map(|c| format!("R{}(SD {}→{})", c.register + 1, c.sd_before, c.sd_after))
                    .collect();
                write!(f, "candidates {}", parts.join(", "))?;
            }
            writeln!(f, " → R{} [{}]", s.chosen + 1, s.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_delta() {
        let c = CandidateInfo {
            register: 0,
            sd_before: 2,
            sd_after: 4,
        };
        assert_eq!(c.delta(), 2);
    }

    #[test]
    fn display_formats_steps() {
        let trace = AllocTrace {
            steps: vec![TraceStep {
                position: 0,
                variable: VarId(1),
                variable_name: "c".into(),
                sd: 2,
                mcs: 3,
                candidates: vec![],
                chosen: 0,
                reason: ChoiceReason::NewRegister,
            }],
        };
        let text = trace.to_string();
        assert!(text.contains("c (SD=2, MCS=3)"));
        assert!(text.contains("new register"));
        assert!(text.contains("→ R1"));
        assert_eq!(trace.len(), 1);
        assert!(!trace.is_empty());
    }

    #[test]
    fn reasons_display() {
        for r in [
            ChoiceReason::NewRegister,
            ChoiceReason::MaxDeltaSd,
            ChoiceReason::Case1Override,
            ChoiceReason::Case2Override,
            ChoiceReason::Lemma2Avoidance,
            ChoiceReason::Lemma2Unavoidable,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
