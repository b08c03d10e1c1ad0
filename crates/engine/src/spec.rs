//! One job specification for every `lobist` surface.
//!
//! The CLI (`lobist synth d.dfg --modules 1+,1* --width 16`) and the
//! daemon (`{"cmd":"synth","design":…,"modules":"1+,1*","width":16}`)
//! accept the same eleven job fields. [`JobSpec`] is the one place that
//! defines them: each field's default, the values it accepts
//! ([`JobSpec::set`], the checked way in for outside input), and the
//! drivers both surfaces run on a checked spec — the flow options, the
//! design loader, the fault-simulation knobs and the annealing run. A
//! surface keeps only its syntax (argv tokens, JSON types), its error
//! wording, and its deployment policy: how an unset `jobs` resolves to
//! a worker count.

use lobist_alloc::anneal::{AnnealConfig, AnnealResult};
use lobist_alloc::flow::{FlowError, FlowOptions};
use lobist_alloc::module_assign::assign_modules;
use lobist_datapath::area::AreaModel;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg, ParseDfgError};
use lobist_dfg::scheduling::{list_schedule, ListScheduleError};
use lobist_dfg::{Dfg, Schedule};

use crate::anneal::{anneal_multichain, AnnealStats};
use crate::faultsim::{FaultSimOptions, LaneSelect, SessionWidth};

/// The most annealing chains one job may ask for. Every chain is a pool
/// task of its own, so an unbounded count is an unbounded allocation.
pub const MAX_CHAINS: usize = 256;

/// Which allocation flow a job runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlowKind {
    /// The paper's BIST-aware flow.
    #[default]
    Testable,
    /// The traditional comparison flow.
    Traditional,
}

impl FlowKind {
    /// The flow's name, as both surfaces spell it.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Testable => "testable",
            FlowKind::Traditional => "traditional",
        }
    }
}

/// The type of a job field's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// On or off: a bare CLI switch, a JSON boolean.
    Switch,
    /// A non-negative integer.
    Int,
    /// Text.
    Text,
}

/// One job field.
#[derive(Debug)]
pub struct Field {
    /// The protocol key; the CLI flag is `--` plus the key with `-`
    /// for `_`.
    pub key: &'static str,
    /// The type of its value.
    pub kind: Kind,
    /// What a rejected value is called, e.g. `bad width`.
    pub what: &'static str,
    /// The values the field accepts, e.g. `2..=64`.
    pub expects: &'static str,
}

const fn field(key: &'static str, kind: Kind, what: &'static str, expects: &'static str) -> Field {
    Field {
        key,
        kind,
        what,
        expects,
    }
}

/// Every job field, in protocol order.
#[rustfmt::skip]
pub const FIELDS: [Field; 11] = [
    field("modules", Kind::Text, "bad module set", "a string"),
    field("candidates", Kind::Text, "bad candidate list", "a string"),
    field("flow", Kind::Text, "unknown flow", "testable | traditional"),
    field("width", Kind::Int, "bad width", "2..=64"),
    field("port_inputs", Kind::Switch, "bad port-inputs switch", "true or false"),
    field("repair", Kind::Switch, "bad repair switch", "true or false"),
    field("jobs", Kind::Int, "bad job count", "at least 1"),
    field("lanes", Kind::Text, "bad lane width", LaneSelect::EXPECTED),
    field("iterations", Kind::Int, "bad iteration count", "0..=4294967295"),
    field("seed", Kind::Int, "bad seed", "a non-negative integer"),
    field("chains", Kind::Int, "bad chain count", "1..=256"),
];

/// A field value as a surface read it, before [`JobSpec::set`] checks
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A switch or JSON boolean.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// Text.
    Text(&'a str),
}

/// What one job asks for. Unset anneal fields take their defaults in
/// [`JobSpec::anneal`]; an unset `jobs` is resolved by the surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Module set, e.g. `"1+,1*"`.
    pub modules: Option<String>,
    /// Semicolon-separated module sets for `explore`.
    pub candidates: Option<String>,
    /// The allocation flow.
    pub flow: FlowKind,
    /// Data-path bit width.
    pub width: u32,
    /// Primary inputs live on ports instead of registers.
    pub port_inputs: bool,
    /// Insert test points for otherwise-untestable modules.
    pub repair: bool,
    /// Worker budget.
    pub jobs: Option<usize>,
    /// Fault-simulation lane width. Results are byte-identical at every
    /// width, so it never enters a job key.
    pub lanes: LaneSelect,
    /// Annealing moves (default 400).
    pub iterations: Option<u32>,
    /// Annealing seed (default `0xA11EA1`).
    pub seed: Option<u64>,
    /// Annealing chains (default 1).
    pub chains: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            modules: None,
            candidates: None,
            flow: FlowKind::Testable,
            width: 8,
            port_inputs: false,
            repair: false,
            jobs: None,
            lanes: LaneSelect::Auto,
            iterations: None,
            seed: None,
            chains: None,
        }
    }
}

impl JobSpec {
    /// Checks `value` and stores it in `field`.
    ///
    /// # Errors
    ///
    /// Returns `field` itself when the value has the wrong type or is
    /// out of range; its `what` and `expects` say why.
    pub fn set(&mut self, field: &'static Field, value: Value<'_>) -> Result<(), &'static Field> {
        use Value::{Bool, Int, Text};
        match (field.key, value) {
            ("modules", Text(s)) => self.modules = Some(s.to_owned()),
            ("candidates", Text(s)) => self.candidates = Some(s.to_owned()),
            ("flow", Text("testable")) => self.flow = FlowKind::Testable,
            ("flow", Text("traditional")) => self.flow = FlowKind::Traditional,
            ("width", Int(n @ 2..=64)) => self.width = n as u32,
            ("port_inputs", Bool(b)) => self.port_inputs = b,
            ("repair", Bool(b)) => self.repair = b,
            ("jobs", Int(n @ 1..)) => self.jobs = Some(usize::try_from(n).map_err(|_| field)?),
            ("lanes", Text(s)) => self.lanes = LaneSelect::parse(s).ok_or(field)?,
            ("lanes", Int(n)) => self.lanes = LaneSelect::parse(&n.to_string()).ok_or(field)?,
            ("iterations", Int(n)) => self.iterations = Some(u32::try_from(n).map_err(|_| field)?),
            ("seed", Int(n)) => self.seed = Some(n),
            ("chains", Int(n)) if (1..=MAX_CHAINS as u64).contains(&n) => {
                self.chains = Some(n as usize);
            }
            _ => return Err(field),
        }
        Ok(())
    }

    /// The spec as field values, the inverse of [`JobSpec::set`]: every
    /// field but the unset optional ones.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, Value<'_>)> {
        let lanes = self
            .lanes
            .fixed()
            .map_or(Value::Text("auto"), |w| Value::Int(w.into()));
        [
            ("modules", self.modules.as_deref().map(Value::Text)),
            ("candidates", self.candidates.as_deref().map(Value::Text)),
            ("flow", Some(Value::Text(self.flow.name()))),
            ("width", Some(Value::Int(self.width.into()))),
            ("port_inputs", Some(Value::Bool(self.port_inputs))),
            ("repair", Some(Value::Bool(self.repair))),
            ("jobs", self.jobs.map(|n| Value::Int(n as u64))),
            ("lanes", Some(lanes)),
            ("iterations", self.iterations.map(|n| Value::Int(n.into()))),
            ("seed", self.seed.map(Value::Int)),
            ("chains", self.chains.map(|n| Value::Int(n as u64))),
        ]
        .into_iter()
        .filter_map(|(key, value)| Some((key, value?)))
    }

    /// The synthesis flow options the spec selects.
    pub fn flow_options(&self) -> FlowOptions {
        let mut f = match self.flow {
            FlowKind::Testable => FlowOptions::testable(),
            FlowKind::Traditional => FlowOptions::traditional(),
        };
        f.area = AreaModel::with_width(self.width);
        f.lifetime_options = if self.port_inputs {
            LifetimeOptions::port_inputs()
        } else {
            LifetimeOptions::registered_inputs()
        };
        f.repair_untestable = self.repair;
        f
    }

    /// The fault-simulation knobs for `workers` threads: the session
    /// width, checked against the LFSR/MISR range `2..=32` (narrower
    /// than a data path may be), and the simulator options. Faults are
    /// collapsed into structural equivalence classes; reports are
    /// byte-identical to a serial, uncollapsed, 64-lane run for any
    /// worker count or lane width.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted range when the width is
    /// outside `2..=32`.
    pub fn fault_sim(&self, workers: usize) -> Result<(SessionWidth, FaultSimOptions), String> {
        let width = SessionWidth::new(self.width)?;
        let lanes = self.lanes;
        Ok((
            width,
            FaultSimOptions {
                workers,
                collapse: true,
                lanes,
            },
        ))
    }

    /// Runs the annealing register search on a scheduled design: the
    /// spec's serial chains across at most `workers` threads, merged
    /// best-of. The result is byte-identical for any `workers`. Returns
    /// the configuration it ran with, the result and the run's
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns the [`FlowError`] of a failed module assignment or of an
    /// initial coloring that cannot be synthesized.
    pub fn anneal(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        modules: &ModuleSet,
        workers: usize,
    ) -> Result<(AnnealConfig, AnnealResult, AnnealStats), FlowError> {
        let flow = self.flow_options();
        let ma = assign_modules(dfg, schedule, modules)?;
        let config = AnnealConfig {
            iterations: self.iterations.unwrap_or(400),
            seed: self.seed.unwrap_or(0xA11EA1),
            ..Default::default()
        };
        let chains = self.chains.unwrap_or(1);
        let lt = flow.lifetime_options;
        let (result, stats) =
            anneal_multichain(dfg, schedule, lt, &ma, &flow, &config, chains, workers)?;
        Ok((config, result, stats))
    }
}

/// Why [`load_design`] rejected a design text.
#[derive(Debug)]
pub enum LoadError {
    /// The text does not parse (as a scheduled design, if it carries
    /// any `@ step` annotation).
    Parse(ParseDfgError),
    /// An unannotated design has no list schedule under the module set.
    Schedule(ListScheduleError),
    /// The design has no operations, so there is no data path to
    /// synthesize (and no functional area to relate BIST area to).
    Empty,
}

/// Loads a design text the way every job command does. Text with any
/// `@ step` annotation must parse as a scheduled design: a partial or
/// dependency-breaking schedule is an error, never silently replaced.
/// Text with none gets the resource-constrained list schedule under
/// `modules`.
///
/// # Errors
///
/// Returns [`LoadError::Parse`] for text that does not parse,
/// [`LoadError::Empty`] for a design without operations and
/// [`LoadError::Schedule`] when an unannotated design uses an operator
/// no module in `modules` executes.
pub fn load_design(text: &str, modules: &ModuleSet) -> Result<(Dfg, Schedule), LoadError> {
    let annotated = text
        .lines()
        .any(|line| line.split('#').next().unwrap_or("").contains('@'));
    let (dfg, schedule) = if annotated {
        parse_dfg(text).map_err(LoadError::Parse)?
    } else {
        let dfg = parse_unscheduled_dfg(text).map_err(LoadError::Parse)?;
        let schedule = list_schedule(&dfg, modules).map_err(LoadError::Schedule)?;
        (dfg, schedule)
    };
    if dfg.num_ops() == 0 {
        return Err(LoadError::Empty);
    }
    Ok((dfg, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modules() -> ModuleSet {
        "1+,1*".parse().expect("valid module set")
    }

    #[test]
    fn set_round_trips_through_values() {
        let spec = JobSpec {
            modules: Some("1+,1*".into()),
            flow: FlowKind::Traditional,
            repair: true,
            lanes: LaneSelect::W256,
            seed: Some(u64::MAX),
            chains: Some(MAX_CHAINS),
            ..JobSpec::default()
        };
        let mut back = JobSpec::default();
        for (key, value) in spec.values() {
            let field = FIELDS.iter().find(|f| f.key == key).expect("a job field");
            back.set(field, value).expect(key);
        }
        assert_eq!(back, spec);
    }

    #[test]
    fn set_rejects_wrong_types_and_out_of_range_values() {
        let field = |key: &str| FIELDS.iter().find(|f| f.key == key).expect("a job field");
        for (key, value) in [
            ("modules", Value::Int(7)),
            ("flow", Value::Text("magic")),
            ("width", Value::Int(1)),
            ("width", Value::Int(65)),
            ("repair", Value::Text("yes")),
            ("port_inputs", Value::Int(1)),
            ("jobs", Value::Int(0)),
            ("lanes", Value::Int(512)),
            ("iterations", Value::Int(u64::from(u32::MAX) + 2)),
            ("chains", Value::Int(0)),
            ("chains", Value::Int(MAX_CHAINS as u64 + 1)),
            ("seed", Value::Text("0x1")),
        ] {
            let mut spec = JobSpec::default();
            let err = spec.set(field(key), value).expect_err(key);
            assert_eq!(err.key, key);
            assert_eq!(
                spec,
                JobSpec::default(),
                "{key}: a rejected value is not stored"
            );
        }
    }

    #[test]
    fn loader_schedules_only_unannotated_text() {
        // A schedule that breaks a dependency is an error, not replaced.
        let broken = "input a b\ns = a + b @ 2\ny = s + a @ 1\noutput y\n";
        let err = load_design(broken, &modules()).expect_err("broken schedule");
        assert!(
            matches!(err, LoadError::Parse(ParseDfgError::Schedule(_))),
            "{err:?}"
        );
        // So is a partial one, reported on the unannotated line.
        let partial = "input a b\ns = a + b @ 1\ny = s * a\noutput y\n";
        let err = load_design(partial, &modules()).expect_err("partial schedule");
        assert!(
            matches!(err, LoadError::Parse(ParseDfgError::Syntax { line: 3, .. })),
            "{err:?}"
        );
        // An `@` inside a comment is not an annotation.
        let plain = "input a b  # @ step annotations optional\ns = a + b\ny = s * a\noutput y\n";
        let (_, schedule) = load_design(plain, &modules()).expect("list-scheduled");
        assert_eq!(schedule.max_step(), 2);
        let err = load_design(plain, &"1+".parse().expect("valid")).expect_err("no multiplier");
        assert!(matches!(err, LoadError::Schedule(_)), "{err:?}");
    }

    #[test]
    fn a_design_without_operations_is_rejected() {
        for text in ["# nothing here\n", "", "input a\noutput a\n"] {
            let err = load_design(text, &modules()).expect_err("no operations");
            assert!(matches!(err, LoadError::Empty), "{text:?}: {err:?}");
        }
    }

    #[test]
    fn the_largest_step_loads_and_one_more_is_rejected() {
        let at = |step: u64| format!("input a b\ny = a + b @ {step}\noutput y\n");
        let (_, schedule) = load_design(&at(4_000_000_000), &modules()).expect("a large step");
        assert_eq!(schedule.max_step(), 4_000_000_000);
        let err = load_design(&at(u64::from(u32::MAX)), &modules()).expect_err("past MAX_STEP");
        assert!(
            matches!(err, LoadError::Parse(ParseDfgError::Schedule(_))),
            "{err:?}"
        );
    }
}
