//! Request execution: turns a parsed [`Request`] into the `result`
//! event payload, running on the server's shared engine.
//!
//! The payload string must be a pure function of the job's result —
//! never of timing, worker count, or cache provenance — so that a
//! request answered from the durable store is byte-identical to the
//! original evaluation. Anything that legitimately varies (wall time,
//! cache tier) is reported on the `done` event by the caller.

use std::sync::Arc;

use lobist_alloc::anneal::AnnealConfig;
use lobist_alloc::explore::{assemble, enumerate_candidates, Candidate, DesignPoint, ExploreConfig};
use lobist_alloc::flow::{synthesize, FlowOptions};
use lobist_datapath::area::AreaModel;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg};
use lobist_dfg::{Dfg, Schedule};
use lobist_engine::{FaultSimOptions, Job, SessionWidth};
use lobist_lint::{LintUnit, PassRegistry};

use crate::json::escape;
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
        .jobs
        .unwrap_or(shared.config.workers)
        .min(shared.config.max_request_jobs)
        .max(1)
}

fn flow_options(request: &Request) -> FlowOptions {
    let mut f = if request.flow == "traditional" {
        FlowOptions::traditional()
    } else {
        FlowOptions::testable()
    };
    f.area = AreaModel::with_width(request.width);
    f.lifetime_options = if request.port_inputs {
        LifetimeOptions::port_inputs()
    } else {
        LifetimeOptions::registered_inputs()
    };
    f.repair_untestable = request.repair;
    f
}

fn require<'a>(field: &'a Option<String>, name: &str) -> Result<&'a str, String> {
    field
        .as_deref()
        .ok_or_else(|| format!("missing field `{name}`"))
}

/// Parses the inline design, scheduled or not — unscheduled designs get
/// a resource-constrained list schedule under the module set (the same
/// fallback the CLI's `batch` and `lint` commands use).
fn load_design(text: &str, modules: &ModuleSet) -> Result<(Dfg, Schedule), String> {
    match parse_dfg(text) {
        Ok(parsed) => Ok(parsed),
        Err(_) => {
            let dfg = parse_unscheduled_dfg(text).map_err(|e| format!("design: {e}"))?;
            let schedule = lobist_dfg::scheduling::list_schedule(&dfg, modules)
                .map_err(|e| format!("cannot schedule design: {e}"))?;
            Ok((dfg, schedule))
        }
    }
}

fn parse_modules(request: &Request) -> Result<ModuleSet, String> {
    require(&request.modules, "modules")?
        .parse()
        .map_err(|e| format!("modules: {e}"))
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
    let design = require(&request.design, "design")?;
    let modules = parse_modules(request)?;
    let (dfg, schedule) = load_design(design, &modules)?;
    let flow = flow_options(request);
    let job = Job {
        dfg: Arc::new(dfg),
        candidate: Candidate {
            modules: modules.clone(),
            schedule,
        },
        flow,
        label: modules.to_string(),
    };
    let jobs = effective_jobs(request, shared);
    let mut outcomes = shared.engine.run_with_workers(vec![job], jobs);
    let outcome = outcomes.pop().expect("one job, one outcome");
    let cache = if outcome.iso_hit {
        // An isomorphic twin answered from the canonical cache: the
        // caller's exact design was never synthesized, only remapped.
        "iso"
    } else if outcome.cache_hit {
        "memory"
    } else if outcome.store_hit {
        "store"
    } else {
        "fresh"
    };
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
    let text = require(&request.candidates, "candidates")?;
    let dfg = parse_unscheduled_dfg(design).map_err(|e| format!("design: {e}"))?;
    let candidates: Vec<ModuleSet> = text
        .split(';')
        .map(|s| s.trim().parse().map_err(|e| format!("candidates: {e}")))
        .collect::<Result<_, _>>()?;
    let mut config = ExploreConfig::new(candidates);
    config.flow = flow_options(request);
    // The same fan-out as `lobist_engine::explore_parallel`, but with
    // the per-request worker budget instead of the engine default.
    let (candidates, mut failures) = enumerate_candidates(&dfg, &config);
    let shared_dfg = Arc::new(dfg);
    let jobs: Vec<Job> = candidates
        .into_iter()
        .map(|candidate| Job {
            dfg: Arc::clone(&shared_dfg),
            label: candidate.modules.to_string(),
            candidate,
            flow: config.flow.clone(),
        })
        .collect();
    let outcomes = shared
        .engine
        .run_with_workers(jobs, effective_jobs(request, shared));
    let served_from = cache_provenance(&outcomes);
    let mut points = Vec::new();
    for outcome in outcomes {
        match outcome.result {
            Ok(p) => points.push(p),
            Err(f) => failures.push(f),
        }
    }
    let result = assemble(points, failures);
    let report = lobist_engine::render_report(&result);
    let pareto: Vec<String> = result.pareto.iter().map(usize::to_string).collect();
    Ok(JobBody {
        ok: result.failures.is_empty(),
        cache: served_from,
        payload: format!(
            "\"points\":{},\"pareto\":[{}],\"failures\":{},\"report\":\"{}\"",
            result.points.len(),
            pareto.join(","),
            result.failures.len(),
            escape(&report)
        ),
    })
}

/// Summarizes a batch's cache provenance: `"iso"` when every job was a
/// hit and at least one was isomorphic, `"memory"`/`"store"` only when
/// every job came from that tier, `"fresh"` otherwise.
fn cache_provenance(outcomes: &[lobist_engine::JobOutcome]) -> &'static str {
    if outcomes.is_empty() {
        return "fresh";
    }
    let all_hits = outcomes.iter().all(|o| o.cache_hit || o.store_hit);
    if all_hits && outcomes.iter().any(|o| o.iso_hit) {
        "iso"
    } else if outcomes.iter().all(|o| o.cache_hit) {
        "memory"
    } else if all_hits {
        "store"
    } else {
        "fresh"
    }
}

fn anneal(request: &Request, shared: &Arc<Shared>) -> Result<JobBody, String> {
    let design = require(&request.design, "design")?;
    let modules = parse_modules(request)?;
    let (dfg, schedule) = load_design(design, &modules)?;
    let flow = flow_options(request);
    let ma = lobist_alloc::module_assign::assign_modules(&dfg, &schedule, &modules)
        .map_err(|e| format!("module assignment: {e}"))?;
    let config = AnnealConfig {
        iterations: request.iterations.unwrap_or(400),
        seed: request.seed.unwrap_or(0xA11EA1),
        batch: request.batch.unwrap_or(16),
        ..Default::default()
    };
    let workers = effective_jobs(request, shared);
    let chains = request.chains.unwrap_or(1);
    if chains == 0 {
        return Err("field `chains` must be at least 1".into());
    }
    let (result, stats) = if chains > 1 {
        lobist_engine::anneal_multichain(
            &dfg,
            &schedule,
            flow.lifetime_options,
            &ma,
            &flow,
            &config,
            chains,
            workers,
        )
    } else {
        lobist_engine::anneal_parallel(
            &dfg,
            &schedule,
            flow.lifetime_options,
            &ma,
            &flow,
            &config,
            workers,
        )
    }
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
            chains = chains,
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
    let width = SessionWidth::new(request.width)?;
    let design = require(&request.design, "design")?;
    let modules = parse_modules(request)?;
    let (dfg, schedule) = load_design(design, &modules)?;
    let flow = flow_options(request);
    // The sessions need only the module binding, but no engine answer
    // vouches for this design, so it is synthesized in full and a
    // design the flow rejects fails here.
    let binding = synthesize(&dfg, &schedule, &modules, &flow)
        .map_err(|e| format!("synthesis: {e}"))?
        .module_assignment;
    let sim_opts = FaultSimOptions {
        workers: effective_jobs(request, shared),
        collapse: true,
        lanes: request.lanes,
    };
    let rows: Vec<String> =
        lobist_engine::fault_sim_modules(&dfg, &binding, width, sim_opts, &shared.engine)
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
    let design = require(&request.design, "design")?;
    let modules = parse_modules(request)?;
    let (dfg, schedule) = load_design(design, &modules)?;
    let flow = flow_options(request);
    let d = synthesize(&dfg, &schedule, &modules, &flow).map_err(|e| format!("synthesis: {e}"))?;
    let unit = LintUnit::of_design(&dfg, &schedule, &d, flow.lifetime_options, &flow.area);
    let registry = PassRegistry::default_registry();
    let (report, _) = lobist_engine::lint_parallel(
        &unit,
        &registry,
        effective_jobs(request, shared),
        Some(shared.engine.metrics_handle()),
    );
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
    let design = require(&request.design, "design")?;
    let modules = parse_modules(request)?;
    let (dfg, schedule) = load_design(design, &modules)?;
    let flow = flow_options(request);
    let d = synthesize(&dfg, &schedule, &modules, &flow).map_err(|e| format!("synthesis: {e}"))?;
    let unit = LintUnit::of_design(&dfg, &schedule, &d, flow.lifetime_options, &flow.area);
    let (report, _) = lobist_engine::analyze_parallel(
        &unit,
        effective_jobs(request, shared),
        Some(shared.engine.metrics_handle()),
    );
    // The payload is a pure function of the report, so a store-served
    // replay is byte-identical to the original run.
    Ok(JobBody {
        ok: true,
        cache: "none",
        payload: format!("\"analyze\":{}", report.to_json(false)),
    })
}
