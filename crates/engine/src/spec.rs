//! One job specification and one job runner for every `lobist`
//! surface.
//!
//! The CLI (`lobist synth d.dfg --modules 1+,1* --width 16`) and the
//! daemon (`{"cmd":"synth","design":…,"modules":"1+,1*","width":16}`)
//! accept the same ten job fields. [`JobSpec`] is the one place that
//! defines them: each field's default and the values it accepts
//! ([`JobSpec::set`], the checked way in for outside input). It also
//! runs every job step both surfaces share, once: load the design
//! ([`JobSpec::load`]), synthesize it ([`JobSpec::synthesize`]), and
//! each job command's compute ([`JobSpec::synth`], `explore`,
//! `anneal`, `simulate` for `faultsim`, `lint`, `analyze`), failing
//! with one [`JobError`]. A
//! surface keeps only its syntax (argv tokens and files, JSON types),
//! its error wording, its rendering, and its deployment policy: how an
//! unset `jobs` resolves to a worker count.

use std::sync::Arc;

use lobist_alloc::anneal::{AnnealConfig, AnnealResult};
use lobist_alloc::explore::{Candidate, ExploreConfig, ExploreResult};
use lobist_alloc::flow::{self, Design, FlowError, FlowOptions};
use lobist_alloc::module_assign::assign_modules;
use lobist_datapath::area::AreaModel;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::{ModuleSet, ParseModuleSetError};
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg, ParseDfgError};
use lobist_dfg::scheduling::{list_schedule, ListScheduleError};
use lobist_dfg::{Dfg, Schedule};
use lobist_gatesim::bist_mode::SessionReport;
use lobist_lint::{LintUnit, PassRegistry, Report, TestabilityReport};

use crate::analyze::{analyze_timed, AnalyzeRunStats};
use crate::anneal::{anneal_multichain, AnnealStats};
use crate::engine::{provenance, Engine, Job, JobOutcome};
use crate::explore::explore_parallel;
use crate::faultsim::{fault_sim_modules, FaultSimOptions, SessionWidth};
use crate::lint::{lint_timed, LintRunStats};
use crate::metrics::Metrics;

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
pub const FIELDS: [Field; 10] = [
    field("modules", Kind::Text, "bad module set", "a string"),
    field("candidates", Kind::Text, "bad candidate list", "a string"),
    field("flow", Kind::Text, "unknown flow", "testable | traditional"),
    field("width", Kind::Int, "bad width", "2..=64"),
    field("port_inputs", Kind::Switch, "bad port-inputs switch", "true or false"),
    field("repair", Kind::Switch, "bad repair switch", "true or false"),
    field("jobs", Kind::Int, "bad job count", "at least 1"),
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
        [
            ("modules", self.modules.as_deref().map(Value::Text)),
            ("candidates", self.candidates.as_deref().map(Value::Text)),
            ("flow", Some(Value::Text(self.flow.name()))),
            ("width", Some(Value::Int(self.width.into()))),
            ("port_inputs", Some(Value::Bool(self.port_inputs))),
            ("repair", Some(Value::Bool(self.repair))),
            ("jobs", self.jobs.map(|n| Value::Int(n as u64))),
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
    /// width, checked against the range a session can run, `2..=20`
    /// (narrower than a data path may be), and the simulator options. Faults are
    /// collapsed into structural equivalence classes and the lane width
    /// follows the pattern count; reports are byte-identical to a
    /// serial, uncollapsed, 64-lane run for any worker count.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted range when the width is
    /// outside `2..=20`.
    pub fn fault_sim(&self, workers: usize) -> Result<(SessionWidth, FaultSimOptions), String> {
        let width = SessionWidth::new(self.width)?;
        Ok((
            width,
            FaultSimOptions {
                workers,
                ..FaultSimOptions::default()
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

    /// The `modules` field as a module set.
    pub fn module_set(&self) -> Result<ModuleSet, JobError> {
        let text = self.modules.as_deref().ok_or(JobError::Missing("modules"));
        text?.parse().map_err(JobError::Modules)
    }

    /// Loads `design` under the spec's module set with [`load_design`].
    pub fn load(&self, design: Option<&str>) -> Result<(Arc<Dfg>, Schedule, ModuleSet), JobError> {
        let design = design.ok_or(JobError::Missing("design"))?;
        let modules = self.module_set()?;
        let (dfg, schedule) = load_design(design, &modules).map_err(JobError::Load)?;
        Ok((Arc::new(dfg), schedule, modules))
    }

    /// Synthesizes a loaded design under the spec's flow, in the
    /// requester's labels: the one direct synthesis of every surface.
    pub fn synthesize(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        modules: &ModuleSet,
    ) -> Result<Design, FlowError> {
        flow::synthesize(dfg, schedule, modules, &self.flow_options())
    }

    /// Loads `design` and synthesizes it in full: [`JobSpec::load`], then
    /// [`JobSpec::synthesize`].
    pub fn synthesized(
        &self,
        design: Option<&str>,
    ) -> Result<(Arc<Dfg>, Schedule, Design), JobError> {
        let (dfg, schedule, modules) = self.load(design)?;
        let d = self.synthesize(&dfg, &schedule, &modules)?;
        Ok((dfg, schedule, d))
    }

    /// Loads `design` and answers it as one engine job on `workers`
    /// threads: the outcome and its [`provenance`].
    pub fn synth(
        &self,
        design: Option<&str>,
        engine: &Engine,
        workers: usize,
    ) -> Result<(JobOutcome, &'static str), JobError> {
        let (dfg, schedule, modules) = self.load(design)?;
        let job = Job {
            dfg,
            label: modules.to_string(),
            candidate: Candidate { modules, schedule },
            flow: self.flow_options(),
        };
        let mut outcomes = engine.run_with_workers(vec![job], workers);
        let served = provenance(&outcomes);
        Ok((outcomes.pop().expect("one job, one outcome"), served))
    }

    /// Explores `design`, read unscheduled, over the `candidates` module
    /// sets on `engine`: the graph, the sweep and its [`provenance`].
    pub fn explore(
        &self,
        design: Option<&str>,
        engine: &Engine,
        workers: usize,
    ) -> Result<(Dfg, ExploreResult, &'static str), JobError> {
        let design = design.ok_or(JobError::Missing("design"))?;
        let Some(list) = &self.candidates else {
            return Err(JobError::Missing("candidates"));
        };
        let dfg = parse_unscheduled_dfg(design).map_err(|e| JobError::Load(LoadError::Parse(e)))?;
        if dfg.num_ops() == 0 {
            return Err(JobError::Load(LoadError::Empty));
        }
        let candidates = list
            .split(';')
            .map(|s| s.trim().parse().map_err(JobError::Candidates))
            .collect::<Result<_, _>>()?;
        let mut config = ExploreConfig::new(candidates);
        config.flow = self.flow_options();
        let (result, served) = explore_parallel(&dfg, &config, engine, workers);
        Ok((dfg, result, served))
    }

    /// Checks the width, then fault-simulates the BIST sessions of
    /// `design` on `engine`. No engine answer vouches for the design, so
    /// it is synthesized in full, and one the flow rejects fails here.
    pub fn simulate(
        &self,
        design: Option<&str>,
        engine: &Engine,
        workers: usize,
    ) -> Result<(SessionWidth, Vec<(String, SessionReport)>), JobError> {
        let (width, opts) = self.fault_sim(workers).map_err(JobError::Width)?;
        let (dfg, _, d) = self.synthesized(design)?;
        let reports = fault_sim_modules(&dfg, &d.module_assignment, width, opts, engine);
        Ok((width, reports))
    }

    /// Lints a synthesized design with the default pass registry.
    pub fn lint(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        design: &Design,
        metrics: Option<&Metrics>,
    ) -> (Report, LintRunStats) {
        let flow = self.flow_options();
        let unit = LintUnit::of_design(dfg, schedule, design, flow.lifetime_options, &flow.area);
        lint_timed(&unit, &PassRegistry::default_registry(), metrics)
    }

    /// Runs the static testability analysis on a synthesized design.
    pub fn analyze(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        design: &Design,
        metrics: Option<&Metrics>,
    ) -> (TestabilityReport, AnalyzeRunStats) {
        let flow = self.flow_options();
        let unit = LintUnit::of_design(dfg, schedule, design, flow.lifetime_options, &flow.area);
        analyze_timed(&unit, metrics)
    }
}

/// Why a job failed before its answer; each surface words it.
#[derive(Debug)]
pub enum JobError {
    /// A required field is unset: `design`, `modules` or `candidates`.
    Missing(&'static str),
    /// The module set does not parse.
    Modules(ParseModuleSetError),
    /// A candidate module set does not parse.
    Candidates(ParseModuleSetError),
    /// The design does not load.
    Load(LoadError),
    /// The fault-simulation width is outside `2..=20`.
    Width(String),
    /// Synthesis or annealing failed.
    Flow(FlowError),
}

impl From<FlowError> for JobError {
    fn from(e: FlowError) -> Self {
        JobError::Flow(e)
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
    fn the_runner_checks_a_request_in_one_order() {
        let engine = Engine::new(1);
        let spec = JobSpec::default();
        let missing = |r: Result<_, JobError>| match r {
            Err(JobError::Missing(key)) => key,
            other => panic!("{:?}", other.err()),
        };
        // The design first, then the module set or the candidate list.
        assert_eq!(missing(spec.load(None).map(|_| ())), "design");
        assert_eq!(
            missing(spec.load(Some("# no design")).map(|_| ())),
            "modules"
        );
        let explore = |spec: &JobSpec, design| spec.explore(design, &engine, 1).map(|_| ());
        assert_eq!(missing(explore(&spec, None)), "design");
        assert_eq!(missing(explore(&spec, Some("not a design"))), "candidates");
        // A design without operations is rejected before any candidate
        // is parsed or run.
        let sweep = JobSpec {
            candidates: Some("1+;1x".into()),
            ..JobSpec::default()
        };
        let err = explore(&sweep, Some("input a\noutput a\n")).expect_err("no operations");
        assert!(matches!(err, JobError::Load(LoadError::Empty)), "{err:?}");
        // The fault-simulation width is checked before the design.
        let wide = JobSpec {
            width: 40,
            ..JobSpec::default()
        };
        let err = wide
            .simulate(None, &engine, 1)
            .expect_err("width out of range");
        assert!(matches!(err, JobError::Width(_)), "{err:?}");
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
