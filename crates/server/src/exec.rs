//! Request execution: runs a parsed [`Request`] through the job
//! runner of [`lobist_engine::spec`] on the server's shared engine and
//! renders the `result` event payload. This file keeps only the
//! daemon's worker policy, its error wording and its payloads.
//!
//! The payload string must be a pure function of the job's result —
//! never of timing, worker count, or cache provenance — so that a
//! request answered from the durable store is byte-identical to the
//! original evaluation. Anything that legitimately varies (wall time,
//! cache tier) is reported on the `done` event by the caller.

use std::sync::Arc;

use lobist_alloc::explore::DesignPoint;
use lobist_engine::{JobError, LoadError};

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
    let run = match request.cmd {
        Command::Synth => synth,
        Command::Explore => explore,
        Command::Anneal => anneal,
        Command::FaultSim => faultsim,
        Command::Lint => lint,
        Command::Analyze => analyze,
        _ => return Err("not a job command".into()),
    };
    run(request, shared).map_err(|e| wording(request.cmd, e))
}

/// A job error as the protocol words it.
fn wording(cmd: Command, e: JobError) -> String {
    match e {
        JobError::Missing(key) => format!("missing field `{key}`"),
        JobError::Modules(e) => format!("modules: {e}"),
        JobError::Candidates(e) => format!("candidates: {e}"),
        JobError::Load(LoadError::Parse(e)) => format!("design: {e}"),
        JobError::Load(LoadError::Schedule(e)) => format!("cannot schedule design: {e}"),
        JobError::Load(LoadError::Empty) => "design has no operations".to_owned(),
        JobError::Width(message) => message,
        JobError::Flow(e) if cmd == Command::Anneal => format!("anneal: {e}"),
        JobError::Flow(e) => format!("synthesis: {e}"),
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

fn synth(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let (design, jobs) = (request.design.as_deref(), effective_jobs(request, shared));
    let (outcome, cache) = request.spec.synth(design, &shared.engine, jobs)?;
    Ok(match &outcome.result {
        Ok(p) => JobBody {
            ok: true,
            cache,
            payload: point_json(p),
        },
        Err((m, e)) => JobBody {
            ok: false,
            cache,
            payload: format!(
                "\"failure\":{{\"modules\":\"{}\",\"error\":\"{}\"}}",
                escape(m),
                escape(e)
            ),
        },
    })
}

fn explore(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let (design, jobs) = (request.design.as_deref(), effective_jobs(request, shared));
    let (_, result, served) = request.spec.explore(design, &shared.engine, jobs)?;
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

fn anneal(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let spec = &request.spec;
    let (dfg, schedule, modules) = spec.load(request.design.as_deref())?;
    let workers = effective_jobs(request, shared);
    let (config, result, stats) = spec.anneal(&dfg, &schedule, &modules, workers)?;
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

fn faultsim(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let (design, jobs) = (request.design.as_deref(), effective_jobs(request, shared));
    let (width, reports) = request.spec.simulate(design, &shared.engine, jobs)?;
    let rows: Vec<String> = reports
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

fn lint(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let spec = &request.spec;
    let (dfg, schedule, d) = spec.synthesized(request.design.as_deref())?;
    let (report, _) = spec.lint(&dfg, &schedule, &d, Some(shared.engine.metrics_handle()));
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

fn analyze(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, JobError> {
    let spec = &request.spec;
    let (dfg, schedule, d) = spec.synthesized(request.design.as_deref())?;
    let (report, _) = spec.analyze(&dfg, &schedule, &d, Some(shared.engine.metrics_handle()));
    // The payload is a pure function of the report, so a store-served
    // replay is byte-identical to the original run. The report renders
    // pretty-printed for the CLI; the protocol carries one line.
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!("\"analyze\":{}", compact(&report.to_json(false))),
    })
}
