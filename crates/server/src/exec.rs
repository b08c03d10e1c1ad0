//! Request execution: turns a parsed [`Request`] into the `result`
//! event payload, running on the server's shared engine.
//!
//! The payload string must be a pure function of the job's result —
//! never of timing, worker count, or cache provenance — so that a
//! request answered from the durable store is byte-identical to the
//! original evaluation. Anything that legitimately varies (wall time,
//! cache tier) is reported on the `done` event by the caller.

use std::sync::Arc;

use lobist_alloc::explore::{Candidate, DesignPoint, ExploreConfig};
use lobist_alloc::flow::{synthesize, Design, FlowOptions};
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::parse_unscheduled_dfg;
use lobist_dfg::{Dfg, Schedule};
use lobist_engine::{load_design, provenance, Job, LoadError};
use lobist_lint::{LintUnit, PassRegistry};

use crate::json::{compact, escape};
use crate::proto::{Command, Request};
use crate::server::Shared;

/// The outcome of a job-running request.
pub(crate) struct JobBody {
    /// `true` when the underlying job succeeded (a lint run with
    /// findings is still `ok`: the response is well-formed).
    pub ok: bool,
    /// Cache provenance: `"memory"`, `"store"`, or `"fresh"` for
    /// engine-cached commands; `"iso"` when the hit was isomorphic (a
    /// renamed, reordered or schedule-shifted twin answered from the
    /// canonical cache and remapped); `"none"` for commands that always
    /// run.
    pub cache: &'static str,
    /// The `result` event body: `"key":value` pairs without the
    /// surrounding braces or the `event`/`id` fields.
    pub payload: String,
}

/// Executes one admitted request.
pub(crate) fn execute(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    match request.cmd {
        Command::Synth => synth(request, shared),
        Command::Explore => explore(request, shared),
        Command::Anneal => anneal(request, shared),
        Command::FaultSim => faultsim(request, shared),
        Command::Lint => lint(request, shared),
        Command::Analyze => analyze(request, shared),
        _ => Err("not a job command".into()),
    }
}

/// The per-request worker budget: the request's `jobs` clamped by
/// policy, defaulting to the engine's own worker count.
fn effective_jobs(request: &Request, shared: &Shared) -> usize {
    request
        .spec
        .jobs
        .unwrap_or(shared.config.workers)
        .min(shared.config.max_request_jobs)
        .max(1)
}

fn require<'a>(field: &'a Option<String>, name: &str) -> Result<&'a str, String> {
    field
        .as_deref()
        .ok_or_else(|| format!("missing field `{name}`"))
}

/// The request's design, loaded under its module set by the loader
/// every job command shares.
fn load(request: &Request) -> Result<(Dfg, Schedule, ModuleSet), String> {
    let design = require(&request.design, "design")?;
    let modules: ModuleSet = require(&request.spec.modules, "modules")?
        .parse()
        .map_err(|e| format!("modules: {e}"))?;
    let (dfg, schedule) = load_design(design, &modules).map_err(|e| match e {
        LoadError::Parse(e) => format!("design: {e}"),
        LoadError::Schedule(e) => format!("cannot schedule design: {e}"),
        LoadError::Empty => "design has no operations".to_owned(),
    })?;
    Ok((dfg, schedule, modules))
}

/// The request's design, loaded and synthesized in full.
fn load_and_synthesize(request: &Request) -> Result<(Dfg, Schedule, Design, FlowOptions), String> {
    let (dfg, schedule, modules) = load(request)?;
    let flow = request.spec.flow_options();
    let d = synthesize(&dfg, &schedule, &modules, &flow).map_err(|e| format!("synthesis: {e}"))?;
    Ok((dfg, schedule, d, flow))
}

/// Renders one design point as the deterministic `result` payload.
fn point_json(p: &DesignPoint) -> String {
    let styles: Vec<String> = p
        .bist
        .styles
        .iter()
        .map(|s| format!("\"{}\"", s.label()))
        .collect();
    let sessions: Vec<String> = p.bist.sessions.iter().map(u32::to_string).collect();
    format!(
        concat!(
            "\"point\":{{\"modules\":\"{modules}\",\"latency\":{latency},",
            "\"registers\":{regs},\"functional_gates\":{func},",
            "\"bist_gates\":{bist},\"overhead_gates\":{ov},",
            "\"overhead_percent\":{pct:.4},\"styles\":[{styles}],",
            "\"sessions\":[{sessions}]}}"
        ),
        modules = escape(&p.modules.to_string()),
        latency = p.latency,
        regs = p.registers,
        func = p.functional_gates.get(),
        bist = p.bist_gates.get(),
        ov = p.bist.overhead.get(),
        pct = p.bist.overhead_percent,
        styles = styles.join(","),
        sessions = sessions.join(","),
    )
}

fn synth(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let (dfg, schedule, modules) = load(request)?;
    let job = Job {
        dfg: Arc::new(dfg),
        label: modules.to_string(),
        candidate: Candidate { modules, schedule },
        flow: request.spec.flow_options(),
    };
    let jobs = effective_jobs(request, shared);
    let mut outcomes = shared.engine.run_with_workers(vec![job], jobs);
    let cache = provenance(&outcomes);
    let outcome = outcomes.pop().expect("one job, one outcome");
    match &outcome.result {
        Ok(p) => Ok(JobBody {
            ok: true,
            cache,
            payload: point_json(p),
        }),
        Err((m, e)) => Ok(JobBody {
            ok: false,
            cache,
            payload: format!(
                "\"failure\":{{\"modules\":\"{}\",\"error\":\"{}\"}}",
                escape(m),
                escape(e)
            ),
        }),
    }
}

fn explore(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let design = require(&request.design, "design")?;
    let text = require(&request.spec.candidates, "candidates")?;
    let dfg = parse_unscheduled_dfg(design).map_err(|e| format!("design: {e}"))?;
    let candidates: Vec<ModuleSet> = text
        .split(';')
        .map(|s| s.trim().parse().map_err(|e| format!("candidates: {e}")))
        .collect::<Result<_, _>>()?;
    let mut config = ExploreConfig::new(candidates);
    config.flow = request.spec.flow_options();
    let workers = effective_jobs(request, shared);
    let (result, served) = lobist_engine::explore_parallel(&dfg, &config, &shared.engine, workers);
    let report = lobist_engine::render_report(&result);
    let pareto: Vec<String> = result.pareto.iter().map(usize::to_string).collect();
    Ok(JobBody {
        ok: result.failures.is_empty(),
        cache: served,
        payload: format!(
            "\"points\":{},\"pareto\":[{}],\"failures\":{},\"report\":\"{}\"",
            result.points.len(),
            pareto.join(","),
            result.failures.len(),
            escape(&report)
        ),
    })
}

fn anneal(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let (dfg, schedule, modules) = load(request)?;
    let workers = effective_jobs(request, shared);
    let (config, result, stats) = request
        .spec
        .anneal(&dfg, &schedule, &modules, workers)
        .map_err(|e| format!("anneal: {e}"))?;
    shared.engine.metrics_handle().record_anneal(&result, &stats);
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!(
            concat!(
                "\"anneal\":{{\"iterations\":{iters},\"seed\":{seed},",
                "\"chains\":{chains},\"initial_overhead\":{init},",
                "\"overhead\":{best},\"evaluated\":{eval},\"accepted\":{acc},",
                "\"stalled\":{stall},\"best_chain\":{bc}}}"
            ),
            iters = config.iterations,
            seed = config.seed,
            chains = stats.chains,
            init = result.initial_overhead,
            best = result.overhead,
            eval = result.evaluated,
            acc = result.accepted,
            stall = result.stalled,
            bc = stats.best_chain,
        ),
    })
}

fn faultsim(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let (width, sim_opts) = request.spec.fault_sim(effective_jobs(request, shared))?;
    // The sessions need only the module binding, but no engine answer
    // vouches for this design, so it is synthesized in full and a
    // design the flow rejects fails here.
    let (dfg, _, d, _) = load_and_synthesize(request)?;
    let binding = &d.module_assignment;
    let rows: Vec<String> =
        lobist_engine::fault_sim_modules(&dfg, binding, width, sim_opts, &shared.engine)
            .into_iter()
            .map(|(label, report)| {
                format!(
                    "{{\"module\":\"{label}\",\"faults\":{},\"coverage\":{:.4},\"aliased\":{}}}",
                    report.total_faults,
                    report.coverage(),
                    report.aliased(),
                )
            })
            .collect();
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!(
            "\"faultsim\":{{\"width\":{},\"patterns\":{},\"modules\":[{}]}}",
            width.get(),
            width.patterns(),
            rows.join(",")
        ),
    })
}

fn lint(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let (dfg, schedule, d, flow) = load_and_synthesize(request)?;
    let unit = LintUnit::of_design(&dfg, &schedule, &d, flow.lifetime_options, &flow.area);
    let registry = PassRegistry::default_registry();
    let (report, _) =
        lobist_engine::lint_timed(&unit, &registry, Some(shared.engine.metrics_handle()));
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!(
            "\"lint\":{{\"clean\":{},\"errors\":{},\"warnings\":{},\"text\":\"{}\"}}",
            report.is_clean(),
            report.error_count(),
            report.warning_count(),
            escape(&report.render_text()),
        ),
    })
}

fn analyze(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let (dfg, schedule, d, flow) = load_and_synthesize(request)?;
    let unit = LintUnit::of_design(&dfg, &schedule, &d, flow.lifetime_options, &flow.area);
    let (report, _) = lobist_engine::analyze_timed(&unit, Some(shared.engine.metrics_handle()));
    // The payload is a pure function of the report, so a store-served
    // replay is byte-identical to the original run. The report renders
    // pretty-printed for the CLI; the protocol carries one line.
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!("\"analyze\":{}", compact(&report.to_json(false))),
    })
}
