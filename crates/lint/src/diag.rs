//! Typed diagnostics: stable codes, severities, spans, reports and the
//! deny/allow policy.
//!
//! Every finding the linter can produce has a **stable code** — `L0xx`
//! for netlist structure, `A1xx` for allocation invariants, `B2xx` for
//! BIST legality — so scripts, CI gates and golden snapshots can match on
//! codes instead of message text. Reports sort diagnostics by
//! `(code, span, severity, message)`, which makes both the text and JSON
//! renderings byte-stable regardless of pass execution order or worker
//! count.

use std::collections::BTreeSet;
use std::fmt;

use lobist_datapath::{ModuleId, Port, RegisterId};
use lobist_dfg::{OpId, VarId};

/// A stable diagnostic code.
///
/// Declaration order is report order: structural (`L0xx`), then
/// allocation (`A1xx`), then BIST (`B2xx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A net is read (by a gate or an output) but never driven.
    L001UndrivenNet,
    /// A net has more than one driver.
    L002MultiplyDrivenNet,
    /// A combinational cycle (non-trivial SCC of the signal graph).
    L003CombinationalLoop,
    /// A module netlist's input/output count disagrees with its
    /// declared interface at the design width.
    L004WidthMismatch,
    /// A module input port with an empty source set (a mux with no legs).
    L005DanglingPort,
    /// A register that stores values but is driven by nothing.
    L006UnreachableRegister,
    /// A register whose contents nothing ever reads.
    L007DeadRegister,
    /// A connection references a register, module or variable that does
    /// not exist.
    L008SourceOutOfRange,
    /// Two variables with overlapping lifetimes share a register — the
    /// register assignment is not a proper coloring.
    A101RegisterConflict,
    /// A variable that needs a register has none.
    A102UnassignedVariable,
    /// Two operations on one module are scheduled in the same step.
    A103ModuleOverlap,
    /// A non-commutative operation's left operand is bound to the right
    /// port.
    A104NonCommutativeSwap,
    /// An operation's operand source is missing from its port's mux —
    /// the netlist does not realise the bindings.
    A105PortBindingMismatch,
    /// An embedding's pattern source has no I-path to its port.
    B201NoSuchIPath,
    /// An embedding's SA register does not receive the module's output.
    B202NoSuchSaPath,
    /// Both ports of an embedding are fed by the same pattern source.
    B203DuplicateTpg,
    /// A register's style lacks a capability its TPG/SA role demands.
    B204InsufficientStyle,
    /// Two module tests in one session contend for a register.
    B205SessionConflict,
    /// The recorded BIST overhead differs from the sum of style extras.
    B206OverheadMismatch,
    /// The solution's vectors do not match the data path's shape.
    B207ShapeMismatch,
    /// A register serving as TPG and SA of one embedding (the Lemma-2
    /// forced-CBILBO situation) is not styled CBILBO.
    B208MissingForcedCbilbo,
    /// A register styled CBILBO that neither an embedding demands nor
    /// Lemma 2 forces.
    B209UnforcedCbilbo,
    /// A fault whose COP-estimated detection probability is so low that
    /// it is more likely than not to survive the pseudorandom pattern
    /// budget.
    T301RandomPatternResistant,
    /// A module port or output no test-mode pattern/signature register
    /// can reach under the allocation's I-paths.
    T302UnreachableInTestMode,
    /// A fault that is untestable by construction: constant excitation
    /// or no structurally live path to an output.
    T303ConstantRedundant,
}

/// Every code, in report order.
pub const ALL_CODES: [Code; 25] = [
    Code::L001UndrivenNet,
    Code::L002MultiplyDrivenNet,
    Code::L003CombinationalLoop,
    Code::L004WidthMismatch,
    Code::L005DanglingPort,
    Code::L006UnreachableRegister,
    Code::L007DeadRegister,
    Code::L008SourceOutOfRange,
    Code::A101RegisterConflict,
    Code::A102UnassignedVariable,
    Code::A103ModuleOverlap,
    Code::A104NonCommutativeSwap,
    Code::A105PortBindingMismatch,
    Code::B201NoSuchIPath,
    Code::B202NoSuchSaPath,
    Code::B203DuplicateTpg,
    Code::B204InsufficientStyle,
    Code::B205SessionConflict,
    Code::B206OverheadMismatch,
    Code::B207ShapeMismatch,
    Code::B208MissingForcedCbilbo,
    Code::B209UnforcedCbilbo,
    Code::T301RandomPatternResistant,
    Code::T302UnreachableInTestMode,
    Code::T303ConstantRedundant,
];

impl Code {
    /// The stable textual code (`"A101"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::L001UndrivenNet => "L001",
            Code::L002MultiplyDrivenNet => "L002",
            Code::L003CombinationalLoop => "L003",
            Code::L004WidthMismatch => "L004",
            Code::L005DanglingPort => "L005",
            Code::L006UnreachableRegister => "L006",
            Code::L007DeadRegister => "L007",
            Code::L008SourceOutOfRange => "L008",
            Code::A101RegisterConflict => "A101",
            Code::A102UnassignedVariable => "A102",
            Code::A103ModuleOverlap => "A103",
            Code::A104NonCommutativeSwap => "A104",
            Code::A105PortBindingMismatch => "A105",
            Code::B201NoSuchIPath => "B201",
            Code::B202NoSuchSaPath => "B202",
            Code::B203DuplicateTpg => "B203",
            Code::B204InsufficientStyle => "B204",
            Code::B205SessionConflict => "B205",
            Code::B206OverheadMismatch => "B206",
            Code::B207ShapeMismatch => "B207",
            Code::B208MissingForcedCbilbo => "B208",
            Code::B209UnforcedCbilbo => "B209",
            Code::T301RandomPatternResistant => "T301",
            Code::T302UnreachableInTestMode => "T302",
            Code::T303ConstantRedundant => "T303",
        }
    }

    /// Short human title of the invariant.
    pub fn title(self) -> &'static str {
        match self {
            Code::L001UndrivenNet => "undriven net",
            Code::L002MultiplyDrivenNet => "multiply-driven net",
            Code::L003CombinationalLoop => "combinational loop",
            Code::L004WidthMismatch => "width mismatch",
            Code::L005DanglingPort => "dangling port",
            Code::L006UnreachableRegister => "unreachable register",
            Code::L007DeadRegister => "dead register",
            Code::L008SourceOutOfRange => "source out of range",
            Code::A101RegisterConflict => "register conflict",
            Code::A102UnassignedVariable => "unassigned variable",
            Code::A103ModuleOverlap => "module overlap",
            Code::A104NonCommutativeSwap => "non-commutative swap",
            Code::A105PortBindingMismatch => "port binding mismatch",
            Code::B201NoSuchIPath => "no such I-path",
            Code::B202NoSuchSaPath => "no such SA path",
            Code::B203DuplicateTpg => "duplicate TPG",
            Code::B204InsufficientStyle => "insufficient style",
            Code::B205SessionConflict => "session conflict",
            Code::B206OverheadMismatch => "overhead mismatch",
            Code::B207ShapeMismatch => "shape mismatch",
            Code::B208MissingForcedCbilbo => "missing forced CBILBO",
            Code::B209UnforcedCbilbo => "unforced CBILBO",
            Code::T301RandomPatternResistant => "random-pattern-resistant fault",
            Code::T302UnreachableInTestMode => "unreachable in test mode",
            Code::T303ConstantRedundant => "constant/redundant fault",
        }
    }

    /// The severity a finding of this code carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::L007DeadRegister
            | Code::B209UnforcedCbilbo
            | Code::T301RandomPatternResistant
            | Code::T302UnreachableInTestMode
            | Code::T303ConstantRedundant => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Parses a textual code (`"A101"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not structurally broken.
    Warning,
    /// A violated invariant.
    Error,
}

impl Severity {
    /// Lowercase label (`"warning"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: the offending artifact element.
///
/// The derived order (declaration order, then fields) is the report
/// order within one code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Span {
    /// The design as a whole.
    Design,
    /// A net of a module's gate netlist (`None` = a standalone network).
    Net {
        /// The module whose generated netlist contains the net.
        module: Option<ModuleId>,
        /// The net id.
        net: u32,
    },
    /// A DFG operation.
    Op(OpId),
    /// A DFG variable.
    Var(VarId),
    /// A data-path register.
    Register(RegisterId),
    /// An operator module.
    Module(ModuleId),
    /// A module input port.
    Port(Port),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Design => write!(f, "design"),
            Span::Net {
                module: Some(m),
                net,
            } => write!(f, "{m}.n{net}"),
            Span::Net { module: None, net } => write!(f, "n{net}"),
            Span::Op(op) => write!(f, "{op}"),
            Span::Var(v) => write!(f, "{v}"),
            Span::Register(r) => write!(f, "{r}"),
            Span::Module(m) => write!(f, "{m}"),
            Span::Port(p) => write!(f, "{p}"),
        }
    }
}

/// One finding. The derived `Ord` — code, then span, then severity, then
/// message — is the canonical report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// What it points at.
    pub span: Span,
    /// Severity (always `code.severity()` for registry passes).
    pub severity: Severity,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Self {
            code,
            span,
            severity: code.severity(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// A sorted, deduplicated collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report: sorts into canonical order and drops exact
    /// duplicates (two passes may legitimately notice the same fact).
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort();
        diagnostics.dedup();
        Self { diagnostics }
    }

    /// The findings in canonical order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` if nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// The distinct codes present, in code order.
    pub fn codes(&self) -> Vec<Code> {
        let set: BTreeSet<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        set.into_iter().collect()
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str("lint: clean\n");
        } else {
            out.push_str(&format!(
                "lint: {} error(s), {} warning(s)\n",
                self.error_count(),
                self.warning_count()
            ));
        }
        out
    }

    /// JSON rendering. Deterministic: diagnostics are already in
    /// canonical order, so equal reports render byte-identically.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"span\": \"{}\", \"message\": \"{}\"}}",
                d.code,
                d.severity,
                json_escape(&d.span.to_string()),
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {}\n}}",
            self.error_count(),
            self.warning_count()
        ));
        s
    }
}

/// Escapes `s` for embedding inside a JSON string literal: quote,
/// backslash, `\n`, `\t` and `\r` get their short escapes, every other
/// control character a `\uXXXX` escape, and everything else passes
/// through. Lint reports, the engine's progress events and the daemon
/// protocol all escape with it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Which findings fail the build.
///
/// By default every error-severity finding is denied and warnings pass.
/// `deny all` (the CI setting) denies warnings too; `allow CODE` exempts
/// a code from any deny rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintPolicy {
    /// Deny every finding regardless of severity.
    pub deny_all: bool,
    /// Codes denied even at warning severity.
    pub deny: BTreeSet<Code>,
    /// Codes never denied (overrides everything else).
    pub allow: BTreeSet<Code>,
}

impl LintPolicy {
    /// The default policy: deny errors, allow warnings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CI policy: deny everything.
    pub fn deny_all() -> Self {
        Self {
            deny_all: true,
            ..Self::default()
        }
    }

    /// `true` if this finding fails the build under the policy.
    pub fn is_denied(&self, d: &Diagnostic) -> bool {
        if self.allow.contains(&d.code) {
            return false;
        }
        self.deny_all || self.deny.contains(&d.code) || d.severity == Severity::Error
    }

    /// How many findings of `report` the policy denies.
    pub fn denied_count(&self, report: &Report) -> usize {
        report
            .diagnostics()
            .iter()
            .filter(|d| self.is_denied(d))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parse_back() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_lowercase()), Some(c));
        }
        assert_eq!(Code::parse("Z999"), None);
        // Declaration order matches lexical code order within each layer
        // and L < A < B across layers.
        let strs: Vec<&str> = ALL_CODES.iter().map(|c| c.as_str()).collect();
        let mut by_layer = strs.clone();
        by_layer.sort_by_key(|s| {
            let layer = match s.as_bytes()[0] {
                b'L' => 0,
                b'A' => 1,
                b'B' => 2,
                _ => 3,
            };
            (layer, s.to_string())
        });
        assert_eq!(strs, by_layer);
    }

    #[test]
    fn report_sorts_and_dedups() {
        let a = Diagnostic::new(Code::A101RegisterConflict, Span::Design, "x");
        let b = Diagnostic::new(Code::L001UndrivenNet, Span::Design, "y");
        let r = Report::new(vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(r.diagnostics(), &[b, a]);
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn severity_defaults() {
        assert_eq!(Code::L007DeadRegister.severity(), Severity::Warning);
        assert_eq!(Code::B209UnforcedCbilbo.severity(), Severity::Warning);
        assert_eq!(Code::A101RegisterConflict.severity(), Severity::Error);
    }

    #[test]
    fn policy_denies_errors_by_default() {
        let p = LintPolicy::new();
        let err = Diagnostic::new(Code::A101RegisterConflict, Span::Design, "x");
        let warn = Diagnostic::new(Code::L007DeadRegister, Span::Design, "y");
        assert!(p.is_denied(&err));
        assert!(!p.is_denied(&warn));
        assert!(LintPolicy::deny_all().is_denied(&warn));
        let mut allow = LintPolicy::deny_all();
        allow.allow.insert(Code::A101RegisterConflict);
        assert!(!allow.is_denied(&err));
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = Diagnostic::new(Code::L001UndrivenNet, Span::Design, "say \"hi\"");
        let r = Report::new(vec![d]);
        let json = r.to_json();
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("\"errors\": 1"));
        let clean = Report::new(vec![]);
        assert!(clean.to_json().contains("\"diagnostics\": []"));
        assert!(clean.render_text().contains("lint: clean"));
    }
}
