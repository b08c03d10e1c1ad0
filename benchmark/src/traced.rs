//! The traced run: the same generated inputs replayed in-process, with
//! a span around every call the benchmark makes into a layer.
//!
//! Each request goes through the real engine exactly as the CLI or the
//! daemon would run it (`engine.run`; the durable store behind a
//! forwarding wrapper that records `store.get`/`store.put`). Whenever
//! the engine actually synthesized, the job is then replayed on its
//! canonical form by calling the flow's public stage functions in flow
//! order, which attributes the engine's miss time to the stages. The
//! replay is instrumentation: it is excluded from the traced wall time,
//! and the first few replays per run are checked equal to
//! `flow::synthesize`.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lobist_alloc::explore::Candidate;
use lobist_alloc::flow::{synthesize, Design, FlowError, FlowOptions, RegAllocStrategy};
use lobist_alloc::interconnect::assign_interconnect;
use lobist_alloc::module_assign::assign_modules;
use lobist_alloc::testable_regalloc::allocate_registers;
use lobist_alloc::variable_sets::SharingContext;
use lobist_bist::BistSolution;
use lobist_datapath::area::AreaModel;
use lobist_datapath::stats::DataPathStats;
use lobist_datapath::DataPath;
use lobist_dfg::canon::canonize;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::{ModuleClass, ModuleSet};
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{Dfg, Schedule};
use lobist_engine::{
    bist_session_parallel, Engine, FaultSimOptions, Job, JobResult, LaneSelect, Metrics,
};
use lobist_store::codec::FragmentRecord;
use lobist_store::{DiskStore, DiskStoreConfig, ResultStore, StoreStats, StoredResult};

use crate::gen::{self, Expect, ServeInputs, Sweep};
use crate::report::{add_counters, Counters, Metric, Report};
use crate::trace::{self_times, write_jsonl, Span, Tracer};
use crate::{Ctx, Workload};

/// Replays checked against `flow::synthesize` per run.
const REPLAY_CHECKS: usize = 8;

/// The durable store behind a wrapper that records a span around every
/// call and forwards every trait method.
struct TracedStore {
    inner: DiskStore,
    tracer: Arc<Tracer>,
}

impl ResultStore for TracedStore {
    fn get(&self, key: u128) -> Option<StoredResult> {
        self.tracer.leaf("store.get", || self.inner.get(key))
    }

    fn put(&self, key: u128, result: &StoredResult) {
        self.tracer
            .leaf("store.put", || self.inner.put(key, result));
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn flush(&self) -> std::io::Result<()> {
        self.tracer.leaf("store.flush", || self.inner.flush())
    }

    fn get_fragment(&self, key: u128) -> Option<FragmentRecord> {
        self.tracer
            .leaf("store.get", || self.inner.get_fragment(key))
    }

    fn put_fragment(&self, key: u128, rec: &FragmentRecord) {
        self.tracer
            .leaf("store.put", || self.inner.put_fragment(key, rec));
    }
}

/// Flow options as the CLI and the daemon build them.
fn flow_options(width: u32) -> FlowOptions {
    let mut f = FlowOptions::testable();
    f.area = AreaModel::with_width(width);
    f.lifetime_options = LifetimeOptions::registered_inputs();
    f
}

/// Parses and schedules a design into the job `batch` and the daemon
/// would run: scheduled text as is, otherwise a list schedule under the
/// modules.
fn load_job(
    tracer: &Tracer,
    op: u64,
    text: &str,
    modules: &ModuleSet,
    flow: &FlowOptions,
    label: String,
) -> Result<Job, String> {
    let parsed = tracer.span("dfg.parse", op, || match parse_dfg(text) {
        Ok((dfg, schedule)) => Ok((dfg, Some(schedule))),
        Err(_) => parse_unscheduled_dfg(text).map(|dfg| (dfg, None)),
    });
    let (dfg, schedule) = match parsed.map_err(|e| e.to_string())? {
        (dfg, Some(schedule)) => (dfg, schedule),
        (dfg, None) => {
            let schedule = tracer
                .span("dfg.schedule", op, || list_schedule(&dfg, modules))
                .map_err(|e| e.to_string())?;
            (dfg, schedule)
        }
    };
    Ok(Job {
        dfg: Arc::new(dfg),
        candidate: Candidate {
            modules: modules.clone(),
            schedule,
        },
        flow: flow.clone(),
        label,
    })
}

/// What a replay produced: registers, functional gates, BIST solution.
type Synthesized = Result<(usize, u64, BistSolution), String>;

fn summary(d: Result<Design, FlowError>) -> Synthesized {
    d.map(|d| {
        (
            d.data_path.num_registers(),
            d.stats.functional_gates.get(),
            d.bist,
        )
    })
    .map_err(|e| e.to_string())
}

/// The flow's stages in flow order, one span each.
fn stages(
    tracer: &Tracer,
    op: u64,
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    flow: &FlowOptions,
) -> Synthesized {
    let RegAllocStrategy::Testable(opts) = flow.strategy else {
        return Err("the benchmark replays the testable flow only".into());
    };
    let lt = flow.lifetime_options;
    let run = || -> Result<(usize, u64, BistSolution), FlowError> {
        let ma = tracer.span("core.module_assign", op, || {
            assign_modules(dfg, schedule, modules)
        })?;
        let alloc = tracer.span("core.register_alloc", op, || {
            allocate_registers(dfg, schedule, lt, &ma, &opts)
        })?;
        let (ic, _) = tracer.span("core.interconnect", op, || {
            let ctx = SharingContext::new(dfg, &ma);
            assign_interconnect(
                dfg,
                &ma,
                &alloc.registers,
                &ctx,
                flow.bist_aware_interconnect,
            )
        });
        let dp = tracer.span("datapath.build", op, || {
            DataPath::build(dfg, schedule, lt, &ma, &alloc.registers, &ic)
        })?;
        tracer.span("bist.solve", op, || {
            let bist = lobist_bist::solve(&dp, &flow.area, &flow.solver)?;
            let stats = DataPathStats::of(&dp, &flow.area);
            Ok((dp.num_registers(), stats.functional_gates.get(), bist))
        })
    };
    run().map_err(|e| e.to_string())
}

/// Renders the fields a daemon `result` payload is made of, for the
/// identity checks between a request and its first evaluation.
fn render(result: &JobResult) -> String {
    match result {
        Ok(p) => {
            let styles: Vec<&str> = p.bist.styles.iter().map(|s| s.label()).collect();
            format!(
                "{} {} {} {} {} {:.4} {:?} {:?}",
                p.modules,
                p.latency,
                p.registers,
                p.functional_gates.get(),
                p.bist_gates.get(),
                p.bist.overhead_percent,
                styles,
                p.bist.sessions
            )
        }
        Err((m, e)) => format!("failure {m}: {e}"),
    }
}

/// The inputs of one workload, generated once per run.
enum Inputs {
    Batch {
        sweep: Sweep,
        faultsim: bool,
    },
    Serve {
        inputs: ServeInputs,
        primed: Vec<String>,
    },
}

/// One pass over the inputs.
struct Pass {
    wall: Duration,
    spans: Vec<Span>,
    counters: Counters,
    problems: Vec<String>,
    attempted: u64,
}

/// Per-pass state shared by the request handlers.
struct Runner<'a> {
    tracer: &'a Arc<Tracer>,
    replay: bool,
    checks_left: usize,
    problems: Vec<String>,
    attempted: u64,
}

impl Runner<'_> {
    /// Runs one job through the engine, then (tracing) replays its
    /// synthesis by stage.
    fn job(&mut self, engine: &Engine, op: u64, job: &Job) -> JobResult {
        self.attempted += 1;
        let outcome = self
            .tracer
            .span("engine.run", op, || {
                engine.run_with_workers(vec![job.clone()], 2)
            })
            .pop()
            .expect("one job, one outcome");
        if self.replay && outcome.timings.total() > Duration::ZERO {
            let t = self.tracer;
            t.span("replay", op, || {
                let canon = t.span("dfg.canon", op, || {
                    canonize(&job.dfg, &job.candidate.schedule)
                });
                let staged = t.span("core.synthesize", op, || {
                    stages(
                        t,
                        op,
                        &canon.dfg,
                        &canon.schedule,
                        &job.candidate.modules,
                        &job.flow,
                    )
                });
                if self.checks_left > 0 {
                    self.checks_left -= 1;
                    let direct = summary(synthesize(
                        &canon.dfg,
                        &canon.schedule,
                        &job.candidate.modules,
                        &job.flow,
                    ));
                    if direct != staged {
                        self.problems.push(format!(
                            "op {op}: stage replay differs from flow::synthesize"
                        ));
                    }
                }
            });
        }
        outcome.result
    }
}

fn batch_pass(r: &mut Runner, sweep: &Sweep, faultsim: bool) -> Counters {
    let modules: ModuleSet = gen::BATCH_MODULES.parse().expect("module set parses");
    let width = if faultsim { gen::FAULTSIM_WIDTH } else { 8 };
    let flow = flow_options(width);
    let designs = &sweep.designs;
    let mut counters = Counters::new();
    for chunk in &sweep.chunks {
        // One fresh engine per chunk: each chunk is one CLI process.
        let engine = Engine::new(2);
        for &i in chunk {
            let op = i as u64;
            let (text, name) = (&designs[i].text, &designs[i].name);
            let job = match load_job(r.tracer, op, text, &modules, &flow, name.clone()) {
                Ok(job) => job,
                Err(e) => {
                    r.problems.push(format!("{name}: {e}"));
                    continue;
                }
            };
            let result = r.job(&engine, op, &job);
            if faultsim && result.is_ok() {
                let d = r.tracer.span("core.flow", op, || {
                    synthesize(&job.dfg, &job.candidate.schedule, &modules, &flow)
                });
                match d {
                    Ok(d) => fault_sim(r.tracer, op, &job.dfg, &d, width, engine.metrics_handle()),
                    Err(e) => r.problems.push(format!("{name}: {e}")),
                }
            }
        }
        if let Err(e) = add_counters(&mut counters, &engine.metrics().to_json()) {
            r.problems.push(e);
        }
    }
    counters
}

/// The CLI's `batch --faultsim` per-module BIST sessions.
fn fault_sim(tracer: &Tracer, op: u64, dfg: &Dfg, d: &Design, width: u32, metrics: &Metrics) {
    let patterns = lobist_gatesim::lfsr::max_useful_patterns(width);
    let opts = FaultSimOptions {
        workers: 2,
        collapse: true,
        lanes: LaneSelect::Auto,
    };
    for m in d.data_path.module_ids() {
        let seeds = (0xACE1 + m.index() as u64, 0x1BAD + m.index() as u64);
        let (_, stats) = tracer.span("gatesim.session", op, || {
            match d.data_path.module_class(m) {
                ModuleClass::Op(kind) => {
                    let net = lobist_gatesim::modules::unit_for(kind, width);
                    bist_session_parallel(&net, &[], width, patterns, seeds, opts)
                }
                ModuleClass::Alu => {
                    let mut kinds: Vec<_> = d
                        .data_path
                        .module_ops(m)
                        .iter()
                        .map(|&o| dfg.op(o).kind)
                        .collect();
                    kinds.sort();
                    kinds.dedup();
                    let net = lobist_gatesim::modules::alu(&kinds, width);
                    let mut controls = vec![false; kinds.len()];
                    controls[0] = true;
                    bist_session_parallel(&net, &controls, width, patterns, seeds, opts)
                }
            }
        });
        metrics.record_fault_sim(&stats);
    }
}

fn open_store(tracer: &Arc<Tracer>, path: &Path) -> std::io::Result<Arc<dyn ResultStore>> {
    let inner = tracer.span("store.open", 0, || {
        DiskStore::open(path, DiskStoreConfig::default())
    })?;
    Ok(Arc::new(TracedStore {
        inner,
        tracer: Arc::clone(tracer),
    }))
}

fn synth_job(
    r: &mut Runner,
    engine: &Engine,
    op: u64,
    text: &str,
    modules: &ModuleSet,
) -> Result<JobResult, String> {
    // The daemon's defaults: width 8, the module set as the label.
    let flow = flow_options(8);
    let job = load_job(r.tracer, op, text, modules, &flow, modules.to_string())?;
    Ok(r.job(engine, op, &job))
}

fn serve_pass(
    r: &mut Runner,
    inputs: &ServeInputs,
    primed: &[String],
    store_path: &Path,
    pristine: &Path,
) -> Counters {
    let modules: ModuleSet = gen::SERVE_MODULES.parse().expect("module set parses");
    let _ = std::fs::remove_file(store_path);
    if !primed.is_empty() {
        if let Err(e) = std::fs::copy(pristine, store_path) {
            r.problems
                .push(format!("cannot copy the primed store: {e}"));
            return Counters::new();
        }
    }
    let store = match open_store(r.tracer, store_path) {
        Ok(s) => s,
        Err(e) => {
            r.problems.push(format!("store: {e}"));
            return Counters::new();
        }
    };
    let engine = Engine::new(2).with_store(store);
    // The clients' requests never share keys across clients, so running
    // them one client after the other does the daemon's work.
    for (c, client) in inputs.clients.iter().enumerate() {
        let mut rendered: Vec<String> = Vec::with_capacity(client.len());
        for (i, req) in client.iter().enumerate() {
            let op = ((c as u64) << 32) | i as u64;
            let result = match synth_job(r, &engine, op, &req.text, &modules) {
                Ok(result) => render(&result),
                Err(e) => {
                    r.problems.push(format!("client {c} request {i}: {e}"));
                    String::new()
                }
            };
            let expected = match req.expect {
                Expect::First => None,
                Expect::SameAs(j) => Some(&rendered[j]),
                Expect::Primed(p) => Some(&primed[p]),
            };
            if expected.is_some_and(|e| *e != result) {
                r.problems.push(format!(
                    "client {c} request {i}: result differs from its first evaluation"
                ));
            }
            rendered.push(result);
        }
    }
    if let Err(e) = engine.flush_store() {
        r.problems.push(format!("store flush: {e}"));
    }
    let mut counters = Counters::new();
    if let Err(e) = add_counters(&mut counters, &engine.metrics().to_json()) {
        r.problems.push(e);
    }
    counters
}

/// Fills the pristine store in-process (untimed, untraced) and returns
/// every primed design's rendered result.
fn prime(inputs: &ServeInputs, pristine: &Path) -> Result<Vec<String>, String> {
    let _ = std::fs::remove_file(pristine);
    let tracer = Arc::new(Tracer::new(false));
    let store = open_store(&tracer, pristine).map_err(|e| format!("store: {e}"))?;
    let engine = Engine::new(2).with_store(store);
    let modules: ModuleSet = gen::SERVE_MODULES.parse().expect("module set parses");
    let mut r = Runner {
        tracer: &tracer,
        replay: false,
        checks_left: 0,
        problems: Vec::new(),
        attempted: 0,
    };
    let mut out = Vec::with_capacity(inputs.prime.len());
    for (p, text) in inputs.prime.iter().enumerate() {
        out.push(render(&synth_job(
            &mut r, &engine, p as u64, text, &modules,
        )?));
    }
    engine
        .flush_store()
        .map_err(|e| format!("store flush: {e}"))?;
    Ok(out)
}

fn pass(ctx: &Ctx, inputs: &Inputs, traced: bool, checks: usize) -> Pass {
    let tracer = Arc::new(Tracer::new(traced));
    let mut r = Runner {
        tracer: &tracer,
        replay: traced,
        checks_left: checks,
        problems: Vec::new(),
        attempted: 0,
    };
    let t0 = Instant::now();
    let counters = match inputs {
        Inputs::Batch { sweep, faultsim } => batch_pass(&mut r, sweep, *faultsim),
        Inputs::Serve { inputs, primed } => serve_pass(
            &mut r,
            inputs,
            primed,
            &ctx.dir.join("traced.store"),
            &ctx.dir.join("pristine.store"),
        ),
    };
    let wall = t0.elapsed();
    let (problems, attempted) = (r.problems, r.attempted);
    Pass {
        wall,
        spans: tracer.take(),
        counters,
        problems,
        attempted,
    }
}

impl Pass {
    /// Wall time outside the replay, ns.
    fn measured_ns(&self) -> u64 {
        let replay: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "replay")
            .map(Span::dur)
            .sum();
        (self.wall.as_nanos() as u64).saturating_sub(replay)
    }
}

/// Per-layer totals over traced passes.
#[derive(Default)]
struct Layers {
    /// name → (calls, self ns, duration ns)
    by_name: HashMap<&'static str, (u64, u64, u64)>,
    /// Traced wall time minus replay time, ns.
    wall_ns: u64,
    /// Time inside top-level spans other than the replay, ns.
    covered_ns: u64,
    /// Self time of `engine.run` calls whose job was replayed, ns.
    engine_replayed_ns: u64,
}

impl Layers {
    fn add(&mut self, pass: &Pass) {
        let st = self_times(&pass.spans);
        self.wall_ns += pass.measured_ns();
        let replayed: HashSet<u64> = pass
            .spans
            .iter()
            .filter(|s| s.name == "replay")
            .map(|s| s.op)
            .collect();
        for s in &pass.spans {
            if s.parent == 0 && s.name != "replay" {
                self.covered_ns += s.dur();
            }
            let e = self.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += st[&s.id];
            e.2 += s.dur();
            if s.name == "engine.run" && replayed.contains(&s.op) {
                self.engine_replayed_ns += st[&s.id];
            }
        }
    }

    fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    fn dur_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.2)
    }

    /// Self time as a share of the traced wall time, percent.
    fn share(&self, names: &[&str]) -> f64 {
        let t: u64 = names.iter().map(|n| self.self_ns(n)).sum();
        100.0 * t as f64 / self.wall_ns.max(1) as f64
    }

    /// Mean duration per call, microseconds.
    fn mean_us(&self, name: &str) -> f64 {
        self.dur_ns(name) as f64 / 1e3 / self.calls(name).max(1) as f64
    }

    /// Span time outside the replay, over the traced wall time.
    fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Runs one workload traced: pairs of (untraced, traced) in-process
/// passes until the time is up; per-layer metrics from the traced ones.
pub fn run(ctx: &Ctx, workload: Workload) -> Report {
    let mut report = Report::new(workload);
    let inputs = match workload {
        Workload::SweepCold | Workload::Faultsim => {
            let faultsim = workload == Workload::Faultsim;
            let sweep = if faultsim {
                gen::faultsim(ctx.seed, ctx.smoke)
            } else {
                gen::sweep(ctx.seed, ctx.smoke)
            };
            Inputs::Batch { sweep, faultsim }
        }
        Workload::ServeMix => Inputs::Serve {
            inputs: gen::serve_mix(ctx.seed, ctx.smoke),
            primed: Vec::new(),
        },
        Workload::ServeRestart => {
            let inputs = gen::serve_restart(ctx.seed, ctx.smoke);
            match prime(&inputs, &ctx.dir.join("pristine.store")) {
                Ok(primed) => Inputs::Serve { inputs, primed },
                Err(e) => {
                    report.fail(e);
                    return report;
                }
            }
        }
    };
    let mut layers = Layers::default();
    let mut overheads = Vec::new();
    let mut first: Option<Pass> = None;
    let start = Instant::now();
    while first.is_none() || start.elapsed() < ctx.seconds {
        let plain = pass(ctx, &inputs, false, 0);
        let traced = pass(
            ctx,
            &inputs,
            true,
            if first.is_none() { REPLAY_CHECKS } else { 0 },
        );
        for p in [&plain, &traced] {
            report.attempted += p.attempted;
            for problem in &p.problems {
                report.fail(problem.clone());
            }
        }
        layers.add(&traced);
        let ratio = traced.measured_ns() as f64 / plain.measured_ns().max(1) as f64;
        overheads.push(100.0 * (ratio - 1.0));
        if first.is_none() {
            first = Some(traced);
        }
    }
    let first = first.expect("at least one traced pass");
    let path = ctx.root.join(format!("trace-{}.jsonl", workload.name()));
    match write_jsonl(&path, &first.spans) {
        Ok(()) => report.notes.push(format!(
            "spans of the first traced pass: {}",
            path.display()
        )),
        Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
    }
    report.notes.push(format!(
        "{} traced pass(es); wall {:.1} s",
        overheads.len(),
        start.elapsed().as_secs_f64()
    ));
    report.counters = first.counters.clone();
    report.metrics = per_layer(&layers, &first, &overheads);
    report
}

fn per_layer(l: &Layers, first: &Pass, overheads: &[f64]) -> Vec<Metric> {
    let c = |name: &str| first.counters.get(name).copied().unwrap_or(0) as f64;
    let count = |name: &'static str, v: f64| Metric::new(name, "count", v, "first traced pass");
    let share = |name: &'static str, layers: &[&str]| {
        Metric::new(name, "%", l.share(layers), "self time / traced wall")
    };
    let synth_ns = l.dur_ns("core.synthesize").max(1) as f64;
    let stage = |name: &'static str, span: &str| {
        Metric::new(
            name,
            "%",
            100.0 * l.dur_ns(span) as f64 / synth_ns,
            "of replayed synthesis",
        )
    };
    let mean = |name: &'static str, span: &str| {
        Metric::new(
            name,
            "us",
            l.mean_us(span),
            format!("{} calls", l.calls(span)),
        )
    };
    let synthesized = first
        .spans
        .iter()
        .filter(|s| s.name == "core.synthesize")
        .count();
    let hits = c("cache_hits");
    let lookups = hits + c("cache_misses");
    vec![
        share("dfg.parse.share_pct", &["dfg.parse"]),
        share("dfg.schedule.share_pct", &["dfg.schedule"]),
        share("engine.run.share_pct", &["engine.run"]),
        share(
            "store.share_pct",
            &["store.open", "store.get", "store.put", "store.flush"],
        ),
        share("core.flow.share_pct", &["core.flow"]),
        share("gatesim.session.share_pct", &["gatesim.session"]),
        mean("dfg.parse.mean_us", "dfg.parse"),
        mean("dfg.canon.mean_us", "dfg.canon"),
        mean("engine.run.mean_us", "engine.run"),
        mean("core.synthesize.mean_us", "core.synthesize"),
        stage("core.module_assign.share_pct", "core.module_assign"),
        stage("core.register_alloc.share_pct", "core.register_alloc"),
        stage("core.interconnect.share_pct", "core.interconnect"),
        stage("datapath.build.share_pct", "datapath.build"),
        stage("bist.solve.share_pct", "bist.solve"),
        Metric::new(
            "engine.overhead_pct",
            "%",
            100.0 * (1.0 - l.dur_ns("core.synthesize") as f64 / l.engine_replayed_ns.max(1) as f64),
            "1 - replayed synthesis / engine.run self time, over synthesized jobs",
        ),
        Metric::new(
            "engine.cache.hit_ratio",
            "ratio",
            hits / lookups.max(1.0),
            "first traced pass",
        ),
        count("engine.cache.hits", hits),
        count("engine.cache.misses", c("cache_misses")),
        count("engine.canon.iso_hits", c("iso_hits")),
        count("engine.canon.bailouts", c("canon_bailouts")),
        count("engine.core_memo.hits", c("core_memo_hits")),
        count("core.synthesize.calls", synthesized as f64),
        count("store.hits", c("store_hits")),
        Metric::new(
            "store.bytes_written",
            "B",
            c("store_bytes_written"),
            "first traced pass",
        ),
        count("gatesim.cone_evals", c("cone_evals")),
        count("gatesim.events_propagated", c("events_propagated")),
        count("gatesim.faults_simulated", c("faults_simulated")),
        Metric::new(
            "trace.coverage",
            "ratio",
            l.coverage(),
            "span time / traced wall",
        ),
        Metric::median("trace.overhead_pct", "%", overheads.to_vec()),
    ]
}
