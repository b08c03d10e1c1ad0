//! Command-line interface for BIST-aware data path synthesis.
//!
//! ```text
//! lobist synth <design.dfg> --modules "1+,1*" [--flow testable|traditional]
//!        [--width N] [--port-inputs] [--netlist] [--trace]
//! lobist compare <design.dfg> --modules "1+,1*" [--width N] [--port-inputs]
//! lobist suite
//! ```
//!
//! The design file uses the text format of [`lobist_dfg::parse`]. All
//! command logic lives in [`run`], which returns the output as a string
//! so the test suite can drive it without a subprocess.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use lobist_alloc::flow::{synthesize, FlowError, FlowOptions};
use lobist_dfg::modules::ModuleSet;
use lobist_engine::spec::{Kind, Value, FIELDS};
use lobist_engine::{load_design, Engine, FlowKind, JobError, JobSpec, LoadError};
use lobist_gatesim::bist_mode::SessionReport;
use lobist_lint::{Code, LintPolicy, Report};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Could not read the design file.
    Io(String, std::io::Error),
    /// The design file failed to parse.
    Parse(lobist_dfg::parse::ParseDfgError),
    /// The module set string failed to parse.
    Modules(lobist_dfg::modules::ParseModuleSetError),
    /// Synthesis failed.
    Flow(FlowError),
    /// Lint findings were denied by the active policy. Carries the full
    /// report text so the binary can still print it before exiting
    /// nonzero.
    Lint {
        /// Everything the command produced up to and including the
        /// report (belongs on stdout).
        output: String,
        /// How many findings the policy denied.
        denied: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(path, e) => write!(f, "cannot read `{path}`: {e}"),
            CliError::Parse(e) => write!(f, "design file: {e}"),
            CliError::Modules(e) => write!(f, "--modules: {e}"),
            CliError::Flow(e) => write!(f, "synthesis failed: {e}"),
            CliError::Lint { denied, .. } => {
                write!(f, "lint: {denied} finding(s) denied by policy")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
lobist — BIST-aware data path synthesis (DAC'95 reproduction)

USAGE:
  lobist synth <design.dfg> --modules <SET> [OPTIONS]
  lobist compare <design.dfg> --modules <SET> [OPTIONS]
  lobist schedule <design.dfg> --latency <N>
  lobist faultsim <design.dfg> --modules <SET> [--jobs <N>] [--metrics]
                  [OPTIONS]
  lobist explore <design.dfg> --candidates <SET;SET;...> [--jobs <N>] [--metrics]
                 [OPTIONS]
  lobist batch [<design.dfg>... | -] --modules <SET> [--faultsim] [--jobs <N>]
               [--metrics]
  lobist corpus [--sizes <N,N,...>] [--seed <S>] [--permute <S>]
                [--twin-kernels <S>] [--out <DIR>]
  lobist anneal <design.dfg> --modules <SET> [--iterations <N>] [--seed <S>]
                [--chains <C>] [--jobs <N>] [--metrics] [OPTIONS]
  lobist lint <design.dfg> --modules <SET> [--deny <CODE|all>] [--allow <CODE>]
              [--json] [--metrics] [OPTIONS]
  lobist analyze <design.dfg> --modules <SET> [--json] [--full] [--metrics]
              [OPTIONS]
  lobist serve [--tcp <ADDR>] [--unix <PATH>] [--store <FILE>] [--jobs <N>]
               [--max-request-jobs <N>] [--max-active <N>] [--metrics]
  lobist submit [<design.dfg>] [--cmd <C>] [--tcp <ADDR> | --unix <PATH>]
                [--modules <SET>] [OPTIONS]
  lobist suite

COMMANDS:
  synth     synthesize one design and report its BIST solution
  compare   run the testable and traditional flows side by side
  schedule  force-directed-schedule an unscheduled design (steps optional)
  faultsim  gate-level stuck-at fault simulation of the BIST sessions
  explore   Pareto exploration over candidate module allocations
  batch     synthesize many design files in one parallel run; reads a
            path list from stdin when no files are given (or with `-`),
            so `lobist corpus ... | lobist batch ...` composes
  corpus    emit the parametric scaling corpus (seeded, size-swept
            fir/iir/matmul/diffeq instances) and print one design path
            per line
  anneal    simulated-annealing register search (yardstick for the
            constructive heuristic); deterministic for any --jobs value
  lint      synthesize, then run the static verifier passes (netlist
            structure L0xx, allocation invariants A1xx, BIST legality
            B2xx); exits nonzero if the policy denies any finding
  analyze   synthesize, then run the static testability analyses (COP
            detection probabilities, constant/redundant faults, test-mode
            register reachability) over every module cone — no
            simulation; advisory, always exits zero
  serve     run the persistent synthesis daemon: line-delimited JSON
            over TCP and/or a Unix socket, request queue onto the shared
            engine, optional on-disk content-addressed result store
  submit    send one request to a running daemon and print its streamed
            JSONL response
  suite     run the five paper benchmarks (Table I summary)

OPTIONS:
  --modules <SET>   functional units, e.g. \"1+,2*,1-\" or \"1+,3ALU\"
  --flow <F>        testable (default) | traditional
  --width <N>       data-path bit width (default 8; 2..=20 for
                    `faultsim` and `batch --faultsim`)
  --port-inputs     primary inputs live on ports (not registers)
  --netlist         print the structural netlist
  --trace           print the allocator's decision trace (testable flow)
  --verilog         emit the synthesized design as Verilog RTL
  --json            machine-readable output for `synth` and `compare`
  --full            `analyze`: list every fault score, not just the
                    flagged ones
  --repair          insert test points for otherwise-untestable modules
  --latency <N>     target latency for `schedule` (default: critical path)
  --candidates <L>  semicolon-separated module sets for `explore`
  --iterations <N>  evaluated moves for `anneal` (default 400)
  --seed <S>        RNG seed for `anneal` (decimal or 0x hex)
  --chains <C>      independent `anneal` chains, merged best-of
                    (default 1, at most 256; chain 0 reproduces the
                    serial run)
  --deny <C|all>    deny a lint code (repeatable) on top of the default
                    policy (errors denied, warnings allowed); `all`
                    denies every finding including warnings
  --allow <CODE>    never deny a lint code (repeatable; overrides any
                    deny rule)
  --lint            after `explore`/`batch`, lint every synthesized
                    design and fail if the policy denies a finding
  --faultsim        after `batch`, fault-simulate the BIST sessions of
                    every synthesized design and append coverage lines
                    (a session shared by several designs runs once)
  --sizes <L>       comma-separated size sweep for `corpus`
                    (default 8,16)
  --permute <S>     `corpus`: also emit a seeded isomorphic twin of
                    every design (names rewritten, declarations
                    reordered) — structurally identical, textually
                    disjoint, so a canonical-cache batch answers the
                    twins as iso hits
  --twin-kernels <S>  `corpus`: also emit a scheduled sibling of every
                    design, permute-renamed and schedule-shifted by one
                    step — isomorphic up to a uniform schedule shift, so
                    a batch over the list (with matching --modules) is
                    answered from the shift-normalized result cache
  --out <DIR>       output directory for `corpus` (default
                    lobist-corpus)
  --jobs <N>        worker threads for `explore`/`batch`/`faultsim`,
                    and for `anneal`'s chains, at most one per chain
                    (default: all cores; at least 1); `lint`, `analyze`
                    and `--lint` run on one thread
  --tcp <ADDR>      daemon TCP address: listen address for `serve`
                    (default 127.0.0.1:7420 unless --unix is given),
                    connect address for `submit`
  --unix <PATH>     daemon Unix socket path (listen for `serve`,
                    connect for `submit`)
  --store <FILE>    `serve`: durable content-addressed result store
                    (append-only log; repeated jobs are answered from
                    disk across restarts, byte-identically)
  --store-max-bytes <N>  `serve`: store size budget before compaction
  --max-request-jobs <N> `serve`: ceiling on any request's `jobs` field
  --max-active <N>  `serve`: requests allowed to execute concurrently
  --cmd <C>         `submit` command: synth | explore | anneal |
                    faultsim | lint | analyze | ping | metrics | shutdown
                    (default synth)
  --progress        `batch`: stream engine progress as JSONL (flushed
                    per event) and append a terminal done record
  --metrics         print engine metrics as JSON after `explore`/`batch`/
                    `faultsim`/`anneal`/`lint` (fault-sim counters: cone
                    evaluations, events propagated, faults collapsed,
                    session-memo hits and misses;
                    anneal counters: moves, stalls, oracle hit rate;
                    lint counters: runs, findings, per-pass timings;
                    synthesis counters: PVES tests, Lemma-2 veto
                    evaluations, label-search nodes, embeddings,
                    branch-and-bound nodes)

DESIGN FILE FORMAT (one statement per line):
  input a b c
  s = a + b @ 1      # result = lhs OP rhs @ control-step
  y = s * c @ 2      # operators: + - * / & | ^ <
  output y
Annotate every operation with `@ step` or none: a design with no
annotation is list-scheduled under --modules (`explore` and `schedule`
schedule it themselves).
";

#[derive(Default)]
struct Options {
    spec: JobSpec,
    netlist: bool,
    trace: bool,
    verilog: bool,
    json: bool,
    full: bool,
    latency: Option<u32>,
    metrics: bool,
    deny: Vec<String>,
    allow: Vec<String>,
    lint: bool,
    tcp: Option<String>,
    unix_sock: Option<String>,
    store: Option<String>,
    store_max_bytes: Option<u64>,
    max_request_jobs: Option<usize>,
    max_active: Option<usize>,
    cmd: Option<String>,
    progress: bool,
    faultsim: bool,
    sizes: Option<String>,
    out_dir: Option<String>,
    permute: Option<u64>,
    twin_kernels: Option<u64>,
    positional: Vec<String>,
}

/// A seed token: decimal or `0x` hex.
fn parse_seed(v: &str) -> Option<u64> {
    v.strip_prefix("0x")
        .map_or_else(|| v.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
}

/// A count token: an integer above zero.
fn parse_count<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::from(0))
}

/// A flag's value token as `parse` reads it, or the usage error
/// `bad {what} `v``.
fn flag_value<T>(v: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, CliError> {
    parse(v).ok_or_else(|| CliError::Usage(format!("bad {what} `{v}`")))
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // The token after the flag, which needs `what`.
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{arg} needs {what}")))
        };
        // A job field's flag is `--` plus its key with `-` for `_`.
        let field = FIELDS
            .iter()
            .find(|f| *arg == format!("--{}", f.key.replace('_', "-")));
        if let Some(field) = field {
            let token = match field.kind {
                Kind::Switch => "",
                _ => value("a value")?,
            };
            let value = match field.kind {
                Kind::Switch => Some(Value::Bool(true)),
                Kind::Int if field.key == "seed" => parse_seed(token).map(Value::Int),
                Kind::Int => token.parse().ok().map(Value::Int),
                Kind::Text => Some(Value::Text(token)),
            };
            value
                .ok_or(field)
                .and_then(|value| o.spec.set(field, value))
                .map_err(|f| {
                    CliError::Usage(format!(
                        "{arg} {token}: {} (expected {})",
                        f.what, f.expects
                    ))
                })?;
            continue;
        }
        match arg.as_str() {
            "--netlist" => o.netlist = true,
            "--trace" => o.trace = true,
            "--verilog" => o.verilog = true,
            "--json" => o.json = true,
            "--full" => o.full = true,
            "--metrics" => o.metrics = true,
            "--deny" => o.deny.push(value("a value")?.clone()),
            "--allow" => o.allow.push(value("a value")?.clone()),
            "--lint" => o.lint = true,
            "--progress" => o.progress = true,
            "--faultsim" => o.faultsim = true,
            "--permute" => {
                o.permute = Some(flag_value(value("a seed")?, "permute seed", parse_seed)?)
            }
            "--twin-kernels" => {
                let v = value("a seed")?;
                o.twin_kernels = Some(flag_value(v, "twin-kernels seed", parse_seed)?);
            }
            "--sizes" => o.sizes = Some(value("a value")?.clone()),
            "--out" => o.out_dir = Some(value("a directory")?.clone()),
            "--tcp" => o.tcp = Some(value("an address")?.clone()),
            "--unix" => o.unix_sock = Some(value("a path")?.clone()),
            "--store" => o.store = Some(value("a path")?.clone()),
            "--store-max-bytes" => {
                let v = value("a value")?;
                o.store_max_bytes = Some(flag_value(v, "store budget", parse_count)?);
            }
            "--max-request-jobs" => {
                let v = value("a value")?;
                o.max_request_jobs = Some(flag_value(v, "request-job ceiling", parse_count)?);
            }
            "--max-active" => {
                let v = value("a value")?;
                o.max_active = Some(flag_value(v, "active-request count", parse_count)?);
            }
            "--cmd" => o.cmd = Some(value("a value")?.clone()),
            "--latency" => {
                let v = value("a value")?;
                o.latency = Some(flag_value(v, "latency", |v| v.parse().ok())?);
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option `{other}`")))
            }
            other => o.positional.push(other.to_owned()),
        }
    }
    Ok(o)
}

/// The engine worker budget: `--jobs` if given, otherwise every
/// available core.
fn worker_count(o: &Options) -> usize {
    o.spec.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))
}

/// A job error as the CLI words it; `path` names the design file.
fn job_error(path: &str, e: JobError) -> CliError {
    match e {
        JobError::Missing(key) => CliError::Usage(format!("missing --{key}")),
        JobError::Modules(e) | JobError::Candidates(e) => CliError::Modules(e),
        JobError::Load(LoadError::Parse(e)) => CliError::Parse(e),
        JobError::Load(LoadError::Schedule(e)) => {
            CliError::Usage(format!("{path}: cannot schedule: {e}"))
        }
        JobError::Load(LoadError::Empty) => {
            CliError::Usage(format!("{path}: design has no operations"))
        }
        JobError::Width(message) => CliError::Usage(message),
        JobError::Flow(e) => CliError::Flow(e),
    }
}

/// Renders one synthesized design as a JSON object (hand-rolled: the
/// schema is tiny and the crate stays dependency-free).
fn design_json(flow: &str, d: &lobist_alloc::flow::Design) -> String {
    use lobist_datapath::area::BistStyle;
    let styles: Vec<String> = d
        .bist
        .styles
        .iter()
        .map(|s| format!("\"{}\"", s.label()))
        .collect();
    let sessions: Vec<String> = d.bist.sessions.iter().map(u32::to_string).collect();
    format!(
        concat!(
            "{{\"flow\":\"{flow}\",\"registers\":{regs},\"muxes\":{muxes},",
            "\"functional_gates\":{func},\"bist\":{{\"overhead_gates\":{ov},",
            "\"overhead_percent\":{pct:.4},\"mix\":\"{mix}\",",
            "\"cbilbos\":{cb},\"styles\":[{styles}],\"sessions\":[{sessions}]}}}}"
        ),
        flow = flow,
        regs = d.data_path.num_registers(),
        muxes = d.data_path.num_muxes(),
        func = d.stats.functional_gates.get(),
        ov = d.bist.overhead.get(),
        pct = d.bist.overhead_percent,
        mix = d.bist.mix(),
        cb = d.bist.count(BistStyle::Cbilbo),
        styles = styles.join(","),
        sessions = sessions.join(","),
    )
}

/// Builds the lint policy from the repeatable `--deny`/`--allow` flags.
/// The baseline (no flags) denies errors and allows warnings.
fn lint_policy(o: &Options) -> Result<LintPolicy, CliError> {
    let mut policy = LintPolicy::new();
    for name in &o.deny {
        if name == "all" {
            policy.deny_all = true;
        } else {
            let code = Code::parse(name)
                .ok_or_else(|| CliError::Usage(format!("--deny: unknown lint code `{name}`")))?;
            policy.deny.insert(code);
        }
    }
    for name in &o.allow {
        let code = Code::parse(name)
            .ok_or_else(|| CliError::Usage(format!("--allow: unknown lint code `{name}`")))?;
        policy.allow.insert(code);
    }
    Ok(policy)
}

/// The `"timing"` object spliced into `lint --json` output: run wall
/// time plus a per-pass log2-microsecond histogram (same bucketing as
/// the engine metrics), so a saved report is self-contained.
fn lint_timing_json(stats: &lobist_engine::LintRunStats) -> String {
    use std::fmt::Write as _;
    let mut passes = String::new();
    for (i, (name, took)) in stats.passes.iter().enumerate() {
        if i > 0 {
            passes.push(',');
        }
        let mut hist = vec![0u64; lobist_engine::bucket_micros(took.as_micros()) + 1];
        *hist.last_mut().expect("nonempty histogram") = 1;
        let cells: Vec<String> = hist.iter().map(u64::to_string).collect();
        let _ = write!(passes, "\"{}\": [{}]", name, cells.join(","));
    }
    format!(
        "{{\"wall_micros\": {}, \"pass_micros_log2_histograms\": {{{passes}}}}}",
        stats.wall.as_micros(),
    )
}

/// One `batch --faultsim` line: a module's BIST session in a design.
fn faultsim_row(design: &str, module: &str, report: &SessionReport) -> String {
    format!(
        "faultsim {design}: {module} {} faults, {:.1}% coverage, {} aliased",
        report.total_faults,
        report.coverage() * 100.0,
        report.aliased()
    )
}

/// Appends one design's lint verdict to `out` (the `--lint` gate format).
fn append_lint_verdict(out: &mut String, label: &str, report: &Report) {
    use std::fmt::Write as _;
    if report.is_clean() {
        let _ = writeln!(out, "lint {label}: clean");
    } else {
        let _ = writeln!(
            out,
            "lint {label}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        out.push_str(&report.render_text());
    }
}

/// Executes a CLI invocation, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unreadable or invalid design
/// files, and synthesis failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let o = parse_args(args)?;
    let command = o.positional.first().map(String::as_str).unwrap_or("help");
    // A single-design command's design text, and its job errors.
    let path = o.positional.get(1).map(String::as_str);
    let text = || read_file(path.ok_or_else(|| CliError::Usage("missing design file".into()))?);
    let job = |e| job_error(path.unwrap_or(""), e);
    let mut out = String::new();
    match command {
        "help" | "--help" | "-h" => out.push_str(USAGE),
        "synth" => {
            let (dfg, schedule, d) = o.spec.synthesized(Some(&text()?)).map_err(job)?;
            let flow = o.spec.flow.name();
            if o.json {
                let _ = writeln!(out, "{}", design_json(flow, &d));
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{} flow: {} registers, {} muxes, {} functional gates",
                flow,
                d.data_path.num_registers(),
                d.data_path.num_muxes(),
                d.stats.functional_gates.get()
            );
            let _ = write!(out, "{}", d.bist);
            if o.netlist {
                let _ = writeln!(out, "\nNetlist:");
                let _ = write!(
                    out,
                    "{}",
                    lobist_datapath::stats::describe(&d.data_path, &dfg)
                );
            }
            if o.trace {
                if let Some(trace) = &d.trace {
                    let _ = writeln!(out, "\nAllocator trace:");
                    let _ = write!(out, "{trace}");
                } else {
                    let _ = writeln!(out, "\n(no trace: traditional flow)");
                }
            }
            if o.verilog {
                let _ = writeln!(out, "\n// ---- Verilog ----");
                let _ = write!(
                    out,
                    "{}",
                    lobist_datapath::verilog::to_verilog(
                        &d.data_path,
                        &dfg,
                        &schedule,
                        "lobist_design",
                        o.spec.width,
                    )
                );
            }
        }
        "compare" => {
            let (dfg, schedule, modules) = o.spec.load(Some(&text()?)).map_err(job)?;
            let mut rows = Vec::new();
            for flow in [FlowKind::Testable, FlowKind::Traditional] {
                let spec = JobSpec {
                    flow,
                    ..o.spec.clone()
                };
                let d = spec.synthesize(&dfg, &schedule, &modules);
                rows.push((flow.name(), d.map_err(CliError::Flow)?));
            }
            if o.json {
                let items: Vec<String> = rows.iter().map(|(l, d)| design_json(l, d)).collect();
                let _ = writeln!(out, "[{}]", items.join(","));
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{:<12} {:>4} {:>5} {:>12} {:>22} {:>8}",
                "flow", "reg", "mux", "func gates", "BIST mix", "BIST %"
            );
            for (label, d) in &rows {
                let _ = writeln!(
                    out,
                    "{:<12} {:>4} {:>5} {:>12} {:>22} {:>7.2}%",
                    label,
                    d.data_path.num_registers(),
                    d.data_path.num_muxes(),
                    d.stats.functional_gates.get(),
                    d.bist.mix(),
                    d.bist.overhead_percent
                );
            }
            let (_, t) = &rows[0];
            let (_, tr) = &rows[1];
            if tr.bist.overhead.get() > 0 {
                let red = 100.0 * (tr.bist.overhead.get() as f64 - t.bist.overhead.get() as f64)
                    / tr.bist.overhead.get() as f64;
                let _ = writeln!(out, "BIST area reduction: {red:.1}%");
            }
        }
        "schedule" => {
            let dfg =
                lobist_dfg::parse::parse_unscheduled_dfg(&text()?).map_err(CliError::Parse)?;
            let critical = lobist_dfg::scheduling::asap(&dfg).max_step();
            let latency = o.latency.unwrap_or(critical);
            let schedule = lobist_dfg::fds::force_directed_schedule(&dfg, latency)
                .map_err(|e| CliError::Usage(e.to_string()))?;
            let _ = writeln!(
                out,
                "force-directed schedule, latency {latency} (critical path {critical}):"
            );
            for step in 1..=schedule.max_step() {
                let ops: Vec<String> = schedule
                    .ops_in_step(step)
                    .iter()
                    .map(|&op| dfg.var(dfg.op(op).out).name.clone())
                    .collect();
                let _ = writeln!(out, "  step {step}: {}", ops.join(", "));
            }
            let peaks = lobist_dfg::fds::peak_usage(&dfg, &schedule);
            let mut peaks: Vec<(String, usize)> =
                peaks.into_iter().map(|(k, c)| (k.to_string(), c)).collect();
            peaks.sort();
            let summary: Vec<String> = peaks.into_iter().map(|(k, c)| format!("{c}{k}")).collect();
            let _ = writeln!(out, "peak units: {}", summary.join(","));
            let _ = writeln!(out, "{}", lobist_dfg::parse::to_text(&dfg, &schedule));
        }
        "faultsim" => {
            let engine = Engine::new(worker_count(&o));
            let (width, reports) = o
                .spec
                .simulate(Some(&text()?), &engine, engine.workers())
                .map_err(job)?;
            let _ = writeln!(
                out,
                "{:<10} {:>7} {:>9} {:>11} {:>8}",
                "module", "faults", "ideal", "signature", "aliased"
            );
            for (label, report) in reports {
                let _ = writeln!(
                    out,
                    "{:<10} {:>7} {:>8.1}% {:>10.1}% {:>8}",
                    label,
                    report.total_faults,
                    report.detected_ideal as f64 * 100.0 / report.total_faults.max(1) as f64,
                    report.coverage() * 100.0,
                    report.aliased()
                );
            }
            let _ = writeln!(
                out,
                "({} patterns per session, width {})",
                width.patterns(),
                width.get()
            );
            if o.metrics {
                let _ = writeln!(out, "{}", engine.metrics().to_json());
            }
        }
        "explore" => {
            let engine = Engine::new(worker_count(&o));
            let (dfg, result, _) = o
                .spec
                .explore(Some(&text()?), &engine, engine.workers())
                .map_err(job)?;
            out.push_str(&lobist_engine::render_report(&result));
            if o.lint {
                let policy = lint_policy(&o)?;
                let mut denied = 0;
                for p in &result.points {
                    let d = o
                        .spec
                        .synthesize(&dfg, &p.schedule, &p.modules)
                        .map_err(CliError::Flow)?;
                    let (report, _) = o.spec.lint(&dfg, &p.schedule, &d, None);
                    append_lint_verdict(
                        &mut out,
                        &format!("{} latency {}", p.modules, p.latency),
                        &report,
                    );
                    denied += policy.denied_count(&report);
                }
                if denied > 0 {
                    return Err(CliError::Lint {
                        output: out,
                        denied,
                    });
                }
            }
            if o.metrics {
                let _ = writeln!(out, "{}", engine.metrics().to_json());
            }
        }
        "batch" => {
            // Design list: positional paths, or — with `-` or an empty
            // list on a pipe — one path per stdin line, so
            // `lobist corpus ... | lobist batch ...` composes.
            let mut design_paths: Vec<String> = o.positional[1..].to_vec();
            let dash = design_paths == ["-"];
            if dash || design_paths.is_empty() {
                use std::io::{IsTerminal as _, Read as _};
                let mut stdin = std::io::stdin();
                if !dash && stdin.is_terminal() {
                    return Err(CliError::Usage(
                        "batch needs at least one design file (or a path list on stdin)".into(),
                    ));
                }
                let mut buf = String::new();
                stdin
                    .read_to_string(&mut buf)
                    .map_err(|e| CliError::Io("stdin".into(), e))?;
                design_paths = buf
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(str::to_owned)
                    .collect();
                if design_paths.is_empty() {
                    return Err(CliError::Usage(
                        "batch needs at least one design file (stdin listed none)".into(),
                    ));
                }
            }
            let modules = o.spec.module_set().map_err(job)?;
            let fault_sim = o
                .faultsim
                .then(|| o.spec.fault_sim(worker_count(&o)))
                .transpose()
                .map_err(CliError::Usage)?;
            let flow = o.spec.flow_options();
            let mut jobs = Vec::new();
            let mut parsed = Vec::new();
            for path in &design_paths {
                let (dfg, schedule) = load_design(&read_file(path)?, &modules)
                    .map_err(|e| job_error(path, JobError::Load(e)))?;
                let dfg = std::sync::Arc::new(dfg);
                jobs.push(lobist_engine::Job {
                    dfg: dfg.clone(),
                    candidate: lobist_alloc::explore::Candidate {
                        modules: modules.clone(),
                        schedule: schedule.clone(),
                    },
                    flow: flow.clone(),
                    label: path.clone(),
                });
                parsed.push((dfg, schedule));
            }
            let mut engine = Engine::new(worker_count(&o));
            if o.progress {
                // Stream each engine event as its own flushed JSONL
                // line so a pipe consumer sees progress live, not at
                // exit.
                engine = engine.with_progress(|line| {
                    use std::io::Write as _;
                    let mut stdout = std::io::stdout().lock();
                    let _ = writeln!(stdout, "{line}");
                    let _ = stdout.flush();
                });
            }
            let outcomes = engine.run(jobs);
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>5} {:>12} {:>10} {:>8}",
                "design", "latency", "regs", "func gates", "BIST gates", "BIST %"
            );
            for outcome in &outcomes {
                match &outcome.result {
                    Ok(p) => {
                        let _ = writeln!(
                            out,
                            "{:<28} {:>7} {:>5} {:>12} {:>10} {:>7.2}%",
                            outcome.label,
                            p.latency,
                            p.registers,
                            p.functional_gates.get(),
                            p.bist_gates.get(),
                            p.bist.overhead_percent
                        );
                    }
                    Err((_, e)) => {
                        let _ = writeln!(out, "failed {}: {e}", outcome.label);
                    }
                }
            }
            if o.progress {
                let failed = outcomes.iter().filter(|x| x.result.is_err()).count();
                let _ = writeln!(
                    out,
                    "{{\"event\":\"done\",\"designs\":{},\"ok\":{},\"failed\":{}}}",
                    outcomes.len(),
                    outcomes.len() - failed,
                    failed
                );
            }
            if let Some((width, sim_opts)) = fault_sim {
                // Fault-simulate each answered design's BIST sessions on
                // the engine, which answers sessions the designs share
                // from its memo and records the counters so `--metrics`
                // reports them. A session reads only the module binding,
                // so only the flow's first stage runs here, and designs
                // the engine answered through its feasibility-recovery
                // ladder (which direct synthesis rejects) are simulated
                // too. Every binding comes first, so that one call
                // simulates the sessions of all designs in one drain.
                let bound: Vec<_> = outcomes
                    .iter()
                    .zip(&parsed)
                    .filter(|(outcome, _)| outcome.result.is_ok())
                    .map(|(outcome, (dfg, schedule))| {
                        let binding =
                            lobist_alloc::module_assign::assign_modules(dfg, schedule, &modules);
                        (&outcome.label, &**dfg, binding)
                    })
                    .collect();
                let designs: Vec<_> = bound
                    .iter()
                    .filter_map(|(_, dfg, binding)| Some((*dfg, binding.as_ref().ok()?)))
                    .collect();
                let mut rows = lobist_engine::fault_sim_designs(&designs, width, sim_opts, &engine)
                    .into_iter();
                for (label, _, binding) in &bound {
                    match binding {
                        Ok(_) => {
                            for (module, report) in rows.next().expect("rows per bound design") {
                                let _ = writeln!(out, "{}", faultsim_row(label, &module, &report));
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(out, "faultsim {label}: failed: {e}");
                        }
                    }
                }
            }
            if o.lint {
                let policy = lint_policy(&o)?;
                let mut denied = 0;
                for (outcome, (dfg, schedule)) in outcomes.iter().zip(&parsed) {
                    if outcome.result.is_err() {
                        continue;
                    }
                    let d = match o.spec.synthesize(dfg, schedule, &modules) {
                        Ok(d) => d,
                        Err(e) => {
                            let _ = writeln!(out, "lint {}: failed: {e}", outcome.label);
                            continue;
                        }
                    };
                    let (report, _) = o.spec.lint(dfg, schedule, &d, None);
                    append_lint_verdict(&mut out, &outcome.label, &report);
                    denied += policy.denied_count(&report);
                }
                if denied > 0 {
                    return Err(CliError::Lint {
                        output: out,
                        denied,
                    });
                }
            }
            if o.metrics {
                let _ = writeln!(out, "{}", engine.metrics().to_json());
            }
        }
        "corpus" => {
            let sizes: Vec<u32> =
                o.sizes
                    .as_deref()
                    .unwrap_or("8,16")
                    .split(',')
                    .map(|s| {
                        s.trim().parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                            CliError::Usage(format!("bad corpus size `{}`", s.trim()))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            let seed = o.spec.seed.unwrap_or(1);
            let dir = std::path::PathBuf::from(o.out_dir.as_deref().unwrap_or("lobist-corpus"));
            std::fs::create_dir_all(&dir)
                .map_err(|e| CliError::Io(dir.display().to_string(), e))?;
            // One path per line and nothing else, so the output pipes
            // straight into `lobist batch -`.
            for &size in &sizes {
                for kind in lobist_dfg::corpus::KINDS {
                    let dfg = lobist_dfg::corpus::generate(kind, size, seed);
                    let text = lobist_dfg::parse::to_text_unscheduled(&dfg);
                    let path = dir.join(format!("{}_n{size}_s{seed}.dfg", kind.name()));
                    std::fs::write(&path, text)
                        .map_err(|e| CliError::Io(path.display().to_string(), e))?;
                    let _ = writeln!(out, "{}", path.display());
                    // With `--permute`, a seeded isomorphic twin rides
                    // along: same structure, every name rewritten and
                    // every declaration reordered. A batch over the
                    // list then exercises the canonical cache — the
                    // twins are answered as iso hits.
                    if let Some(pseed) = o.permute {
                        let (twin, _, _) = lobist_dfg::canon::permute_dfg(&dfg, pseed);
                        let twin_text = lobist_dfg::parse::to_text_unscheduled(&twin);
                        let twin_path =
                            dir.join(format!("{}_n{size}_s{seed}_p{pseed}.dfg", kind.name()));
                        std::fs::write(&twin_path, twin_text)
                            .map_err(|e| CliError::Io(twin_path.display().to_string(), e))?;
                        let _ = writeln!(out, "{}", twin_path.display());
                    }
                    // With `--twin-kernels`, a *scheduled* sibling rides
                    // along: permute-renamed and shifted one control
                    // step later. It is isomorphic to the base up to a
                    // uniform schedule shift, so both share one
                    // shift-normalized job key — a batch over the list
                    // (with matching --modules) answers it from cache.
                    if let Some(kseed) = o.twin_kernels {
                        let modules: ModuleSet = o
                            .spec
                            .modules
                            .as_deref()
                            .unwrap_or("1+,1*,1-")
                            .parse()
                            .map_err(CliError::Modules)?;
                        let schedule = lobist_dfg::scheduling::list_schedule(&dfg, &modules)
                            .map_err(|e| {
                                CliError::Usage(format!(
                                    "corpus design does not schedule under `{modules}`: {e}"
                                ))
                            })?;
                        let (twin, twin_schedule, _) =
                            lobist_dfg::canon::permute_scheduled(&dfg, &schedule, kseed);
                        let steps: Vec<u32> =
                            twin_schedule.as_slice().iter().map(|s| s + 1).collect();
                        let moved = lobist_dfg::Schedule::new(&twin, steps)
                            .expect("uniform shifts stay topological");
                        let twin_text = lobist_dfg::parse::to_text(&twin, &moved);
                        let twin_path =
                            dir.join(format!("{}_n{size}_s{seed}_k{kseed}.dfg", kind.name()));
                        std::fs::write(&twin_path, twin_text)
                            .map_err(|e| CliError::Io(twin_path.display().to_string(), e))?;
                        let _ = writeln!(out, "{}", twin_path.display());
                    }
                }
            }
        }
        "anneal" => {
            let (dfg, schedule, modules) = o.spec.load(Some(&text()?)).map_err(job)?;
            let (config, result, stats) = o
                .spec
                .anneal(&dfg, &schedule, &modules, worker_count(&o))
                .map_err(CliError::Flow)?;
            let heuristic = o
                .spec
                .synthesize(&dfg, &schedule, &modules)
                .map(|d| d.bist.overhead.get())
                .ok();
            let _ = writeln!(
                out,
                "annealed search: {} iterations, seed 0x{:X}, {} chain(s), {} worker(s)",
                config.iterations, config.seed, stats.chains, stats.workers
            );
            let _ = writeln!(
                out,
                "initial (left-edge) overhead: {} gates",
                result.initial_overhead
            );
            let _ = writeln!(
                out,
                "annealed best overhead:       {} gates",
                result.overhead
            );
            if let Some(h) = heuristic {
                let _ = writeln!(out, "constructive heuristic:       {h} gates");
            }
            if stats.chains > 1 {
                let per: Vec<String> = stats.chain_overheads.iter().map(u64::to_string).collect();
                let _ = writeln!(
                    out,
                    "chains: [{}] gates, best from chain {}",
                    per.join(", "),
                    stats.best_chain
                );
            }
            let _ = writeln!(
                out,
                "moves: {} evaluated, {} accepted, {} skipped, {} stalled, {} infeasible",
                result.evaluated,
                result.accepted,
                result.skipped,
                result.stalled,
                result.infeasible
            );
            let _ = writeln!(
                out,
                "oracle: {} hits / {} misses ({:.1}% hit rate), {:.0} moves/s",
                result.oracle_hits,
                result.oracle_misses,
                100.0 * result.oracle_hits as f64
                    / (result.oracle_hits + result.oracle_misses).max(1) as f64,
                stats.moves_per_sec(&result)
            );
            if o.metrics {
                let metrics = lobist_engine::Metrics::new();
                metrics.record_anneal(&result, &stats);
                let _ = writeln!(out, "{}", metrics.snapshot().to_json());
            }
        }
        "lint" => {
            let policy = lint_policy(&o)?;
            let (dfg, schedule, d) = o.spec.synthesized(Some(&text()?)).map_err(job)?;
            let metrics = o.metrics.then(lobist_engine::Metrics::new);
            let (report, stats) = o.spec.lint(&dfg, &schedule, &d, metrics.as_ref());
            if o.json {
                // Splice the run timing in as the report's last key so
                // `lint --json` output is self-contained; the report
                // body itself is a pure function of the design.
                let json = report.to_json();
                let body = json
                    .strip_suffix("\n}")
                    .expect("report JSON ends with a closing brace");
                let _ = writeln!(
                    out,
                    "{body},\n  \"timing\": {}\n}}",
                    lint_timing_json(&stats)
                );
            } else if report.is_clean() {
                let _ = writeln!(
                    out,
                    "lint: clean ({} registers, {} modules audited)",
                    d.data_path.num_registers(),
                    d.data_path.num_modules()
                );
            } else {
                out.push_str(&report.render_text());
                let _ = writeln!(
                    out,
                    "lint: {} error(s), {} warning(s)",
                    report.error_count(),
                    report.warning_count()
                );
            }
            if let Some(m) = &metrics {
                let _ = writeln!(out, "{}", m.snapshot().to_json());
            }
            let denied = policy.denied_count(&report);
            if denied > 0 {
                return Err(CliError::Lint {
                    output: out,
                    denied,
                });
            }
        }
        "analyze" => {
            let (dfg, schedule, d) = o.spec.synthesized(Some(&text()?)).map_err(job)?;
            let metrics = o.metrics.then(lobist_engine::Metrics::new);
            let (report, _) = o.spec.analyze(&dfg, &schedule, &d, metrics.as_ref());
            if o.json {
                let _ = writeln!(out, "{}", report.to_json(o.full));
            } else {
                out.push_str(&report.render_text());
            }
            if let Some(m) = &metrics {
                let _ = writeln!(out, "{}", m.snapshot().to_json());
            }
        }
        "serve" => {
            use std::path::PathBuf;
            let workers = worker_count(&o);
            let unix = o.unix_sock.as_ref().map(PathBuf::from);
            // Default to loopback TCP unless the user asked for
            // Unix-only; both listeners run when both flags are given.
            let tcp = match (&o.tcp, &unix) {
                (Some(addr), _) => Some(addr.clone()),
                (None, Some(_)) => None,
                (None, None) => Some("127.0.0.1:7420".to_owned()),
            };
            let defaults = lobist_server::ServerConfig::default();
            let config = lobist_server::ServerConfig {
                tcp,
                unix,
                workers,
                max_request_jobs: o.max_request_jobs.unwrap_or(workers.max(1)),
                max_active: o.max_active.unwrap_or(defaults.max_active),
                store: o.store.as_ref().map(PathBuf::from),
                store_max_bytes: o.store_max_bytes.unwrap_or(defaults.store_max_bytes),
                ..defaults
            };
            let server =
                lobist_server::Server::bind(config).map_err(|e| CliError::Io("serve".into(), e))?;
            // Announce the endpoints on stdout immediately (before the
            // blocking run), so scripts binding an ephemeral `:0` port
            // can discover it and connect.
            {
                use std::io::Write as _;
                let tcp = server
                    .tcp_addr()
                    .map_or_else(|| "null".to_owned(), |a| format!("\"{a}\""));
                let unix = server
                    .unix_path()
                    .map_or_else(|| "null".to_owned(), |p| {
                        format!("\"{}\"", lobist_server::json::escape(&p.display().to_string()))
                    });
                let mut stdout = std::io::stdout().lock();
                let _ = writeln!(
                    stdout,
                    "{{\"event\":\"listening\",\"tcp\":{tcp},\"unix\":{unix}}}"
                );
                let _ = stdout.flush();
            }
            let handle = server.handle();
            server.run().map_err(|e| CliError::Io("serve".into(), e))?;
            let _ = writeln!(out, "{{\"event\":\"stopped\"}}");
            if o.metrics {
                let _ = writeln!(out, "{}", handle.metrics_json());
            }
        }
        "submit" => {
            let endpoint = if let Some(path) = &o.unix_sock {
                lobist_server::Endpoint::Unix(path.into())
            } else {
                lobist_server::Endpoint::Tcp(
                    o.tcp.clone().unwrap_or_else(|| "127.0.0.1:7420".to_owned()),
                )
            };
            let design = o.positional.get(1).map(|p| read_file(p)).transpose()?;
            let request = lobist_server::proto::render_request(
                o.cmd.as_deref().unwrap_or("synth"),
                design.as_deref(),
                &o.spec,
            );
            let events = lobist_server::submit(&endpoint, &request)
                .map_err(|e| CliError::Io(endpoint.to_string(), e))?;
            for line in events {
                let _ = writeln!(out, "{line}");
            }
        }
        "suite" => {
            let _ = writeln!(
                out,
                "{:<8} {:<20} {:>4} {:>12} {:>12} {:>10}",
                "design", "modules", "reg", "trad BIST%", "test BIST%", "reduction"
            );
            for bench in lobist_dfg::benchmarks::paper_suite() {
                // The paper's flows at `--width`, under each benchmark's
                // own lifetime conventions.
                let mk = |flow| FlowOptions {
                    lifetime_options: bench.lifetime_options,
                    ..JobSpec {
                        flow,
                        width: o.spec.width,
                        ..JobSpec::default()
                    }
                    .flow_options()
                };
                let t = synthesize(
                    &bench.dfg,
                    &bench.schedule,
                    &bench.module_allocation,
                    &mk(FlowKind::Testable),
                )
                .map_err(CliError::Flow)?;
                let tr = synthesize(
                    &bench.dfg,
                    &bench.schedule,
                    &bench.module_allocation,
                    &mk(FlowKind::Traditional),
                )
                .map_err(CliError::Flow)?;
                let red = 100.0 * (tr.bist.overhead.get() as f64 - t.bist.overhead.get() as f64)
                    / tr.bist.overhead.get() as f64;
                let _ = writeln!(
                    out,
                    "{:<8} {:<20} {:>4} {:>11.2}% {:>11.2}% {:>9.1}%",
                    bench.name,
                    bench.module_allocation.to_string(),
                    t.data_path.num_registers(),
                    tr.bist.overhead_percent,
                    t.bist.overhead_percent,
                    red
                );
            }
        }
        other => {
            return Err(CliError::Usage(format!("unknown command `{other}`")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).expect("temp file");
        path.to_string_lossy().into_owned()
    }

    const DESIGN: &str = "input a b c d\n\
                          s1 = a + b @ 1\n\
                          s2 = c + d @ 2\n\
                          y = s1 * s2 @ 3\n\
                          output y\n";

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn synth_reports_bist_solution() {
        let path = write_temp("lobist_cli_synth.dfg", DESIGN);
        let out = run(&argv(&[
            "synth",
            &path,
            "--modules",
            "1+,1*",
            "--netlist",
            "--trace",
        ]))
        .unwrap();
        assert!(out.contains("testable flow: 3 registers"), "{out}");
        assert!(out.contains("BIST solution:"));
        assert!(out.contains("Netlist:"));
        assert!(out.contains("Allocator trace:"));
    }

    #[test]
    fn compare_shows_reduction() {
        let path = write_temp("lobist_cli_compare.dfg", DESIGN);
        let out = run(&argv(&["compare", &path, "--modules", "1+,1*"])).unwrap();
        assert!(out.contains("testable"));
        assert!(out.contains("traditional"));
        assert!(out.contains("BIST area reduction"), "{out}");
    }

    #[test]
    fn suite_lists_five_benchmarks() {
        let out = run(&argv(&["suite"])).unwrap();
        for name in ["ex1", "ex2", "Tseng1", "Tseng2", "Paulin"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn width_option_changes_costs() {
        let path = write_temp("lobist_cli_width.dfg", DESIGN);
        let narrow = run(&argv(&[
            "synth",
            &path,
            "--modules",
            "1+,1*",
            "--width",
            "4",
        ]))
        .unwrap();
        let wide = run(&argv(&[
            "synth",
            &path,
            "--modules",
            "1+,1*",
            "--width",
            "16",
        ]))
        .unwrap();
        assert_ne!(narrow, wide);
    }

    #[test]
    fn width_bounds_are_enforced() {
        let path = write_temp("lobist_cli_width_bounds.dfg", DESIGN);
        for bad in ["0", "1", "65", "-4", "wide"] {
            let err = run(&argv(&[
                "synth",
                &path,
                "--modules",
                "1+,1*",
                "--width",
                bad,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("bad width"), "{bad}: {err}");
        }
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run(&argv(&["synth"])), Err(CliError::Usage(_))));
        let path = write_temp("lobist_cli_err.dfg", DESIGN);
        assert!(matches!(
            run(&argv(&["synth", &path])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["synth", &path, "--modules", "9?"])),
            Err(CliError::Modules(_))
        ));
        assert!(matches!(run(&argv(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["synth", "/nonexistent/x.dfg", "--modules", "1+"])),
            Err(CliError::Io(..))
        ));
        let err = run(&argv(&[
            "synth",
            &path,
            "--flow",
            "magic",
            "--modules",
            "1+",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown flow"));
    }

    #[test]
    fn anneal_command_reports_the_search() {
        let path = write_temp("lobist_cli_anneal.dfg", DESIGN);
        let out = run(&argv(&[
            "anneal",
            &path,
            "--modules",
            "1+,1*",
            "--iterations",
            "40",
            "--seed",
            "0xBEEF",
        ]))
        .unwrap();
        assert!(
            out.contains("annealed search: 40 iterations, seed 0xBEEF"),
            "{out}"
        );
        assert!(out.contains("initial (left-edge) overhead:"), "{out}");
        assert!(out.contains("annealed best overhead:"), "{out}");
        assert!(out.contains("constructive heuristic:"), "{out}");
        assert!(out.contains("oracle:"), "{out}");
    }

    #[test]
    fn anneal_report_is_identical_for_any_jobs_value() {
        let path = write_temp("lobist_cli_anneal_jobs.dfg", DESIGN);
        let base = argv(&["anneal", &path, "--modules", "1+,1*", "--iterations", "30"]);
        let strip_rates = |s: String| {
            // Drop the header (it echoes the worker count) and mask the
            // oracle line's wall-clock rate. Everything else — the
            // trajectory and the oracle's counters — must not move.
            s.lines()
                .skip(1)
                .map(|l| match l.rfind(", ") {
                    Some(i) if l.starts_with("oracle:") && l.ends_with(" moves/s") => &l[..i],
                    _ => l,
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let mut reference: Option<String> = None;
        for jobs in ["1", "2", "8"] {
            let mut args = base.clone();
            args.extend(argv(&["--jobs", jobs]));
            let out = strip_rates(run(&args).unwrap());
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "--jobs {jobs} changed the report"),
            }
        }
    }

    #[test]
    fn anneal_multichain_runs_and_reports_chains() {
        let path = write_temp("lobist_cli_anneal_mc.dfg", DESIGN);
        let out = run(&argv(&[
            "anneal",
            &path,
            "--modules",
            "1+,1*",
            "--iterations",
            "20",
            "--chains",
            "3",
            "--jobs",
            "2",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("3 chain(s)"), "{out}");
        assert!(out.contains("best from chain"), "{out}");
        assert!(out.contains("\"anneal\":{\"runs\":1,\"chains\":3"), "{out}");
    }

    #[test]
    fn anneal_metrics_report_flow_cache_hits() {
        // The differential-equation benchmark the paper anneals (Paulin),
        // as parser text; 200 moves is plenty for the incremental layer's
        // label cache to see repeated shapes.
        let paulin = "input x u dx y\n\
                      t1 = 3 * x @ 1\n\
                      t2 = u * dx @ 1\n\
                      xl = x + dx @ 1\n\
                      t3 = t1 * t2 @ 2\n\
                      t4 = 3 * y @ 2\n\
                      yl = y + t2 @ 2\n\
                      t5 = t4 * dx @ 3\n\
                      t6 = u - t3 @ 3\n\
                      ul = t6 - t5 @ 4\n\
                      output xl yl ul\n";
        let path = write_temp("lobist_cli_anneal_fc.dfg", paulin);
        let out = run(&argv(&[
            "anneal",
            &path,
            "--modules",
            "1+,2*,1-",
            "--iterations",
            "200",
            "--metrics",
        ]))
        .unwrap();
        let json = out.lines().last().expect("metrics line");
        let fc = json
            .split("\"flow_cache\":")
            .nth(1)
            .expect("flow_cache section in metrics JSON");
        // First stage counter in the section is the interconnect cache's.
        let hits: u64 = fc
            .split("\"hits\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .expect("interconnect hits counter");
        assert!(hits > 0, "flow-cache hit rate must be nonzero: {json}");
    }

    #[test]
    fn anneal_flag_validation() {
        let path = write_temp("lobist_cli_anneal_bad.dfg", DESIGN);
        for bad in [
            vec!["anneal", &path, "--modules", "1+,1*", "--chains", "0"],
            vec!["anneal", &path, "--modules", "1+,1*", "--chains", "257"],
            vec!["anneal", &path, "--modules", "1+,1*", "--seed", "zzz"],
            vec![
                "anneal",
                &path,
                "--modules",
                "1+,1*",
                "--iterations",
                "many",
            ],
            vec!["anneal", &path],
        ] {
            assert!(
                matches!(run(&argv(&bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn schedule_command_runs_fds() {
        let path = write_temp(
            "lobist_cli_sched.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&["schedule", &path, "--latency", "3"])).unwrap();
        assert!(out.contains("force-directed schedule"), "{out}");
        assert!(out.contains("step 3"), "{out}");
        assert!(out.contains("peak units"), "{out}");
        assert!(out.contains("@ "), "round-trip text emitted: {out}");
        // Too-tight latency reports the critical path.
        let err = run(&argv(&["schedule", &path, "--latency", "1"])).unwrap_err();
        assert!(err.to_string().contains("critical path"), "{err}");
    }

    #[test]
    fn repair_flag_rescues_untestable_designs() {
        let path = write_temp(
            "lobist_cli_repair.dfg",
            "input x y\nt = x * x @ 1\nu = t + y @ 2\noutput u\n",
        );
        let err = run(&argv(&["synth", &path, "--modules", "1*,1+"])).unwrap_err();
        assert!(err.to_string().contains("no BIST embedding"), "{err}");
        let out = run(&argv(&["synth", &path, "--modules", "1*,1+", "--repair"])).unwrap();
        assert!(out.contains("BIST solution:"), "{out}");
    }

    #[test]
    fn json_output_is_parseable_shape() {
        let path = write_temp("lobist_cli_json.dfg", DESIGN);
        let out = run(&argv(&["synth", &path, "--modules", "1+,1*", "--json"])).unwrap();
        let line = out.trim();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"flow\":\"testable\"",
            "\"registers\":3",
            "\"overhead_gates\"",
            "\"styles\":[",
            "\"sessions\":[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('[').count(), line.matches(']').count());
        let both = run(&argv(&["compare", &path, "--modules", "1+,1*", "--json"])).unwrap();
        let line = both.trim();
        assert!(line.starts_with('[') && line.ends_with(']'), "{line}");
        assert!(line.contains("\"flow\":\"traditional\""), "{line}");
    }

    #[test]
    fn explore_lists_pareto_front() {
        let path = write_temp(
            "lobist_cli_explore.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&["explore", &path, "--candidates", "1+,1*;2+,1*"])).unwrap();
        assert!(out.contains("Pareto front"), "{out}");
        assert!(out.contains('*'), "{out}");
        assert!(out.contains("1+,1*"), "{out}");
    }

    #[test]
    fn explore_output_is_identical_across_worker_counts() {
        let path = write_temp(
            "lobist_cli_explore_jobs.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let base = argv(&["explore", &path, "--candidates", "1+,1*;2+,1*;1+,2*"]);
        let serial = run(&[base.clone(), argv(&["--jobs", "1"])].concat()).unwrap();
        let parallel = run(&[base.clone(), argv(&["--jobs", "4"])].concat()).unwrap();
        let default = run(&base).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, default);
    }

    #[test]
    fn jobs_zero_is_rejected_with_a_clear_error() {
        let path = write_temp("lobist_cli_jobs0.dfg", DESIGN);
        let err = run(&argv(&[
            "explore",
            &path,
            "--candidates",
            "1+,1*",
            "--jobs",
            "0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("--jobs 0"), "{err}");
        let err = run(&argv(&[
            "explore",
            &path,
            "--candidates",
            "1+,1*",
            "--jobs",
            "many",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("bad job count"), "{err}");
    }

    #[test]
    fn batch_synthesizes_multiple_designs() {
        let scheduled = write_temp("lobist_cli_batch_a.dfg", DESIGN);
        let unscheduled = write_temp(
            "lobist_cli_batch_b.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&[
            "batch",
            &scheduled,
            &unscheduled,
            "--modules",
            "1+,1*",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("design"), "{out}");
        assert!(out.contains(&scheduled), "{out}");
        assert!(out.contains(&unscheduled), "{out}");
        // Both designs synthesize: two data rows with a BIST percentage.
        assert_eq!(
            out.matches('%').count() - usize::from(out.contains("BIST %")),
            2,
            "{out}"
        );
    }

    #[test]
    fn batch_requires_modules() {
        // Without design files `batch` reads a path list from stdin, so
        // that case runs on the binary (`tests/binary.rs`).
        let path = write_temp("lobist_cli_batch_nomod.dfg", DESIGN);
        let err = run(&argv(&["batch", &path])).unwrap_err();
        assert!(err.to_string().contains("missing --modules"), "{err}");
    }

    #[test]
    fn metrics_flag_appends_engine_json() {
        let path = write_temp("lobist_cli_metrics.dfg", DESIGN);
        let out = run(&argv(&[
            "batch",
            &path,
            "--modules",
            "1+,1*",
            "--jobs",
            "2",
            "--metrics",
        ]))
        .unwrap();
        let json = out.lines().last().expect("metrics line");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"jobs\":",
            "\"cache\":",
            "\"utilization\":",
            "\"stage_micros_log2_histograms\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn faultsim_reports_coverage() {
        let path = write_temp("lobist_cli_faultsim.dfg", DESIGN);
        let out = run(&argv(&[
            "faultsim",
            &path,
            "--modules",
            "1+,1*",
            "--width",
            "6",
        ]))
        .unwrap();
        assert!(out.contains("signature"), "{out}");
        assert!(out.contains("M1 (+)"), "{out}");
        assert!(out.contains("M2 (*)"), "{out}");
        assert!(out.contains("63 patterns per session, width 6"), "{out}");
    }

    #[test]
    fn faultsim_output_is_identical_across_worker_counts() {
        let path = write_temp("lobist_cli_faultsim_jobs.dfg", DESIGN);
        let runs: Vec<String> = ["1", "2", "5"]
            .iter()
            .map(|jobs| {
                run(&argv(&[
                    "faultsim",
                    &path,
                    "--modules",
                    "1+,1*",
                    "--width",
                    "5",
                    "--jobs",
                    jobs,
                ]))
                .unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn faultsim_metrics_flag_appends_fault_sim_json() {
        let path = write_temp("lobist_cli_faultsim_metrics.dfg", DESIGN);
        let out = run(&argv(&[
            "faultsim",
            &path,
            "--modules",
            "1+,1*",
            "--width",
            "5",
            "--metrics",
        ]))
        .unwrap();
        let json = out.lines().last().expect("metrics line");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"fault_sim\":",
            "\"cone_evals\":",
            "\"events_propagated\":",
            "\"collapsed_away\":",
            "\"wall_micros\":",
            // One design's two modules are two distinct sessions.
            "\"session_memo\":{\"hits\":0,\"misses\":2}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Both modules ran real differential work and collapsing bit.
        assert!(!json.contains("\"cone_evals\":0,"), "{json}");
        assert!(!json.contains("\"collapsed_away\":0,"), "{json}");
    }

    #[test]
    fn verilog_flag_emits_rtl() {
        let path = write_temp("lobist_cli_verilog.dfg", DESIGN);
        let out = run(&argv(&["synth", &path, "--modules", "1+,1*", "--verilog"])).unwrap();
        assert!(out.contains("module lobist_design ("), "{out}");
        assert!(out.contains("endmodule"), "{out}");
    }

    #[test]
    fn parse_errors_surface_line_numbers() {
        let path = write_temp("lobist_cli_bad.dfg", "input a\nthis is wrong\n");
        let err = run(&argv(&["synth", &path, "--modules", "1+"])).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn lint_reports_clean_on_a_shipped_design() {
        let path = write_temp("lobist_cli_lint.dfg", DESIGN);
        let out = run(&argv(&["lint", &path, "--modules", "1+,1*"])).unwrap();
        assert!(
            out.contains("lint: clean (3 registers, 2 modules audited)"),
            "{out}"
        );
        // `--deny all` also passes: the design really has no findings.
        let out = run(&argv(&[
            "lint",
            &path,
            "--modules",
            "1+,1*",
            "--deny",
            "all",
        ]))
        .unwrap();
        assert!(out.contains("lint: clean"), "{out}");
    }

    #[test]
    fn lint_accepts_unscheduled_designs() {
        let path = write_temp(
            "lobist_cli_lint_unsched.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&["lint", &path, "--modules", "1+,1*"])).unwrap();
        assert!(out.contains("lint: clean"), "{out}");
    }

    #[test]
    fn lint_json_lists_the_diagnostics_array() {
        let path = write_temp("lobist_cli_lint_json.dfg", DESIGN);
        let out = run(&argv(&["lint", &path, "--modules", "1+,1*", "--json"])).unwrap();
        assert!(out.contains("\"diagnostics\": []"), "{out}");
    }

    #[test]
    fn lint_output_is_identical_across_worker_counts() {
        let path = write_temp("lobist_cli_lint_jobs.dfg", DESIGN);
        let base = argv(&["lint", &path, "--modules", "1+,1*", "--json"]);
        let serial = run(&[base.clone(), argv(&["--jobs", "1"])].concat()).unwrap();
        let parallel = run(&[base, argv(&["--jobs", "4"])].concat()).unwrap();
        // Wall times differ run to run, so compare the report body —
        // everything before the spliced `"timing"` key.
        let body = |s: &str| s.split("\"timing\"").next().unwrap().to_owned();
        assert_eq!(body(&serial), body(&parallel));
    }

    #[test]
    fn lint_json_carries_per_pass_timing() {
        let path = write_temp("lobist_cli_lint_timing.dfg", DESIGN);
        let out = run(&argv(&["lint", &path, "--modules", "1+,1*", "--json"])).unwrap();
        assert!(out.contains("\"timing\": {\"wall_micros\": "), "{out}");
        assert!(!out.contains("\"workers\""), "{out}");
        assert!(out.contains("\"pass_micros_log2_histograms\""), "{out}");
        // Every default-registry pass reports a one-entry histogram.
        for pass in ["structure", "gates", "coloring", "binding", "bist-legality", "lemma2-audit"] {
            assert!(out.contains(&format!("\"{pass}\": [")), "{pass}: {out}");
        }
    }

    #[test]
    fn lint_rejects_unknown_codes() {
        let path = write_temp("lobist_cli_lint_bad.dfg", DESIGN);
        let err = run(&argv(&[
            "lint",
            &path,
            "--modules",
            "1+,1*",
            "--deny",
            "Z999",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown lint code `Z999`"),
            "{err}"
        );
        let err = run(&argv(&[
            "lint",
            &path,
            "--modules",
            "1+,1*",
            "--allow",
            "nope",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown lint code `nope`"),
            "{err}"
        );
        // Real codes parse, case-insensitively.
        let out = run(&argv(&[
            "lint",
            &path,
            "--modules",
            "1+,1*",
            "--deny",
            "b208",
            "--allow",
            "L007",
        ]))
        .unwrap();
        assert!(out.contains("lint: clean"), "{out}");
    }

    #[test]
    fn analyze_reports_testability_without_simulation() {
        let path = write_temp("lobist_cli_analyze.dfg", DESIGN);
        let out = run(&argv(&["analyze", &path, "--modules", "1+,1*"])).unwrap();
        assert!(out.contains("analyze: 2 cone(s)"), "{out}");
        assert!(out.contains("hard (T301)"), "{out}");
    }

    #[test]
    fn analyze_json_is_identical_across_worker_counts() {
        let path = write_temp("lobist_cli_analyze_jobs.dfg", DESIGN);
        let base = argv(&["analyze", &path, "--modules", "1+,1*", "--json"]);
        let serial = run(&[base.clone(), argv(&["--jobs", "1"])].concat()).unwrap();
        for jobs in ["2", "4", "7"] {
            let parallel = run(&[base.clone(), argv(&["--jobs", jobs])].concat()).unwrap();
            assert_eq!(serial, parallel, "--jobs {jobs}");
        }
        assert!(serial.contains("\"summary\""), "{serial}");
    }

    #[test]
    fn analyze_full_lists_every_fault_score() {
        let path = write_temp("lobist_cli_analyze_full.dfg", DESIGN);
        let brief = run(&argv(&["analyze", &path, "--modules", "1+,1*", "--json"])).unwrap();
        let full = run(&argv(&[
            "analyze", &path, "--modules", "1+,1*", "--json", "--full",
        ]))
        .unwrap();
        assert!(full.len() > brief.len(), "full should be strictly larger");
        assert!(full.contains("\"scores\""), "{full}");
    }

    #[test]
    fn analyze_metrics_prints_the_testability_section() {
        let path = write_temp("lobist_cli_analyze_metrics.dfg", DESIGN);
        let out = run(&argv(&[
            "analyze", &path, "--modules", "1+,1*", "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("\"testability\":{\"runs\":1"), "{out}");
    }

    #[test]
    fn lint_metrics_flag_appends_lint_json() {
        let path = write_temp("lobist_cli_lint_metrics.dfg", DESIGN);
        let out = run(&argv(&["lint", &path, "--modules", "1+,1*", "--metrics"])).unwrap();
        let json = out.lines().last().expect("metrics line");
        assert!(
            json.contains("\"lint\":{\"runs\":1,\"errors\":0,\"warnings\":0"),
            "{json}"
        );
        assert!(json.contains("\"pass_micros_log2_histograms\":"), "{json}");
        for pass in [
            "structure",
            "gates",
            "coloring",
            "binding",
            "bist-legality",
            "lemma2-audit",
        ] {
            assert!(
                json.contains(&format!("\"{pass}\":[")),
                "missing {pass} in {json}"
            );
        }
    }

    #[test]
    fn batch_lint_gate_audits_every_design() {
        let scheduled = write_temp("lobist_cli_batch_lint_a.dfg", DESIGN);
        let unscheduled = write_temp(
            "lobist_cli_batch_lint_b.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&[
            "batch",
            &scheduled,
            &unscheduled,
            "--modules",
            "1+,1*",
            "--lint",
            "--deny",
            "all",
        ]))
        .unwrap();
        assert!(out.contains(&format!("lint {scheduled}: clean")), "{out}");
        assert!(out.contains(&format!("lint {unscheduled}: clean")), "{out}");
    }

    #[test]
    fn explore_lint_gate_audits_every_point() {
        let path = write_temp(
            "lobist_cli_explore_lint.dfg",
            "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
        );
        let out = run(&argv(&[
            "explore",
            &path,
            "--candidates",
            "1+,1*;2+,1*",
            "--lint",
        ]))
        .unwrap();
        assert!(out.contains("lint 1+,1* latency"), "{out}");
        assert!(out.contains(": clean"), "{out}");
    }

    #[test]
    fn lint_error_carries_the_report_for_stdout() {
        let err = CliError::Lint {
            output: "the report\n".into(),
            denied: 3,
        };
        assert_eq!(err.to_string(), "lint: 3 finding(s) denied by policy");
    }

    #[test]
    fn overcommitted_modules_fail_cleanly() {
        let path = write_temp(
            "lobist_cli_over.dfg",
            "input a b c d\ns1 = a + b @ 1\ns2 = c + d @ 1\ny = s1 * s2 @ 2\noutput y\n",
        );
        let err = run(&argv(&["synth", &path, "--modules", "1+,1*"])).unwrap_err();
        assert!(matches!(err, CliError::Flow(_)));
        assert!(err.to_string().contains("synthesis failed"));
    }
    #[test]
    fn batch_progress_streams_and_ends_with_a_done_record() {
        let a = write_temp("lobist_cli_prog_a.dfg", DESIGN);
        let b = write_temp(
            "lobist_cli_prog_b.dfg",
            "input a b\ny = a + b @ 1\noutput y\n",
        );
        let out = run(&argv(&[
            "batch",
            &a,
            &b,
            "--modules",
            "1+,1*",
            "--progress",
        ]))
        .unwrap();
        assert!(
            out.contains("{\"event\":\"done\",\"designs\":2,\"ok\":2,\"failed\":0}"),
            "{out}"
        );
    }

    #[test]
    fn serve_and_submit_round_trip_over_a_unix_socket() {
        let sock = std::env::temp_dir().join("lobist_cli_serve.sock");
        let store = std::env::temp_dir().join("lobist_cli_serve.store");
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_file(&store);
        let sock_arg = sock.to_string_lossy().into_owned();
        let store_arg = store.to_string_lossy().into_owned();
        let serve_args = argv(&[
            "serve",
            "--unix",
            &sock_arg,
            "--store",
            &store_arg,
            "--jobs",
            "2",
            "--metrics",
        ]);
        let daemon = std::thread::spawn(move || run(&serve_args));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never listened"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let design = write_temp("lobist_cli_submit.dfg", DESIGN);
        let first = run(&argv(&[
            "submit",
            &design,
            "--unix",
            &sock_arg,
            "--modules",
            "1+,1*",
        ]))
        .unwrap();
        assert!(first.contains("\"event\":\"result\""), "{first}");
        assert!(first.contains("\"cache\":\"fresh\""), "{first}");
        let second = run(&argv(&[
            "submit",
            &design,
            "--unix",
            &sock_arg,
            "--modules",
            "1+,1*",
        ]))
        .unwrap();
        assert!(second.contains("\"cache\":\"memory\""), "{second}");

        let pong = run(&argv(&["submit", "--unix", &sock_arg, "--cmd", "ping"])).unwrap();
        assert!(pong.contains("\"event\":\"pong\""), "{pong}");

        let bye = run(&argv(&["submit", "--unix", &sock_arg, "--cmd", "shutdown"])).unwrap();
        assert!(bye.contains("\"event\":\"shutdown\""), "{bye}");
        let summary = daemon.join().expect("serve thread").unwrap();
        assert!(summary.contains("{\"event\":\"stopped\"}"), "{summary}");
        assert!(summary.contains("\"store\":{"), "{summary}");
        assert!(store.exists(), "store file persists after shutdown");
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn the_lane_width_is_not_an_option() {
        // The simulator picks its lane width from the pattern count.
        let path = write_temp("lobist_cli_lanes_gone.dfg", DESIGN);
        for cmd in ["faultsim", "batch"] {
            let args = [cmd, &path, "--modules", "1+,1*", "--lanes", "64"];
            let err = run(&argv(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: {err}");
            assert!(
                err.to_string().contains("unknown option `--lanes`"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn fault_sim_width_is_validated_before_synthesis() {
        // An unschedulable design: synthesis would fail, so a width
        // error proves the check ran first.
        let path = write_temp("lobist_cli_fs_width.dfg", "input a\ny = a / a @ 1\noutput y\n");
        for args in [
            argv(&["faultsim", &path, "--modules", "1+", "--width", "40"]),
            argv(&[
                "batch",
                &path,
                "--modules",
                "1+",
                "--faultsim",
                "--width",
                "33",
            ]),
        ] {
            let err = run(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            let msg = err.to_string();
            assert!(msg.contains("out of range (expected 2..=20)"), "{msg}");
        }
        // Synthesis alone still accepts wide data paths.
        let ok = write_temp("lobist_cli_fs_width_ok.dfg", DESIGN);
        run(&argv(&[
            "batch",
            &ok,
            "--modules",
            "1+,1*",
            "--width",
            "40",
        ]))
        .unwrap();
    }

    #[test]
    fn batch_faultsim_shares_sessions_across_designs_byte_identically() {
        let dir = std::env::temp_dir().join("lobist_cli_session_memo");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        let listing = run(&argv(&[
            "corpus", "--sizes", "8", "--seed", "1", "--out", &dir_arg,
        ]))
        .unwrap();
        let paths: Vec<&str> = listing.lines().take(3).collect();
        let batch = |paths: &[&str]| {
            let mut args = argv(&["batch"]);
            args.extend(paths.iter().map(|p| p.to_string()));
            args.extend(argv(&[
                "--modules",
                "1+,1*,1-",
                "--faultsim",
                "--width",
                "6",
                "--jobs",
                "2",
                "--metrics",
            ]));
            run(&args).unwrap()
        };
        let faultsim_lines = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.starts_with("faultsim "))
                .map(str::to_owned)
                .collect()
        };
        let together = batch(&paths);
        let separate: Vec<String> = paths
            .iter()
            .flat_map(|p| faultsim_lines(&batch(&[p])))
            .collect();
        assert!(separate.len() >= 3, "{separate:?}");
        assert_eq!(faultsim_lines(&together), separate);
        let json = together.lines().last().expect("metrics line");
        let hits: u64 = json
            .split_once("\"session_memo\":{\"hits\":")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no session_memo hits in {json}"));
        assert!(hits > 0, "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faultsim_metrics_tally_runs_under_the_resolved_width() {
        let path = write_temp("lobist_cli_faultsim_lanes_m.dfg", DESIGN);
        let out = run(&argv(&[
            "faultsim",
            &path,
            "--modules",
            "1+,1*",
            "--width",
            "8",
            "--metrics",
        ]))
        .unwrap();
        let json = out.lines().last().expect("metrics line");
        assert!(json.contains("\"lanes\":{\"64\":{\"runs\":0,"), "{json}");
        // Both modules' 255-pattern sessions ran at 256 lanes.
        assert!(json.contains("\"256\":{\"runs\":2,"), "{json}");
    }

    #[test]
    fn corpus_emits_seeded_instances_that_batch_fault_simulates() {
        let dir = std::env::temp_dir().join("lobist_cli_corpus");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        let out = run(&argv(&[
            "corpus", "--sizes", "8,16", "--seed", "1", "--out", &dir_arg,
        ]))
        .unwrap();
        // One path per line and nothing else, so the output pipes
        // straight into `lobist batch -`.
        let paths: Vec<&str> = out.lines().collect();
        assert_eq!(paths.len(), 8, "{out}");
        for (kind, path) in ["fir", "iir", "matmul", "diffeq"].iter().zip(&paths) {
            assert!(path.ends_with(&format!("{kind}_n8_s1.dfg")), "{path}");
            assert!(std::path::Path::new(path).exists(), "{path}");
        }
        // Regenerating with the same seed is byte-identical; a new seed
        // moves the coefficients.
        let text = std::fs::read_to_string(paths[0]).unwrap();
        run(&argv(&[
            "corpus", "--sizes", "8,16", "--seed", "1", "--out", &dir_arg,
        ]))
        .unwrap();
        assert_eq!(text, std::fs::read_to_string(paths[0]).unwrap());

        // The whole corpus drives through batch with in-loop fault
        // simulation; diffeq needs the `-` module. Every instance must
        // synthesize: short-lived operands can starve a module of
        // distinct I-path registers (the original fir generator failed
        // exactly this way at 16 taps), so the sweep covers two sizes.
        let mut args = argv(&["batch"]);
        args.extend(paths.iter().map(|p| p.to_string()));
        args.extend(argv(&["--modules", "1+,1*,1-", "--faultsim", "--progress"]));
        let out = run(&args).unwrap();
        assert!(
            out.contains("\"event\":\"done\",\"designs\":8,\"ok\":8,\"failed\":0"),
            "{out}"
        );
        assert!(out.contains("faultsim"), "{out}");
        assert!(out.contains("% coverage"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_permute_twins_batch_as_iso_hits() {
        let dir = std::env::temp_dir().join("lobist_cli_corpus_permute");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        let out = run(&argv(&[
            "corpus",
            "--sizes",
            "8",
            "--seed",
            "1",
            "--permute",
            "11",
            "--out",
            &dir_arg,
        ]))
        .unwrap();
        // Each design is followed by its isomorphic twin.
        let paths: Vec<&str> = out.lines().collect();
        assert_eq!(paths.len(), 8, "{out}");
        for pair in paths.chunks(2) {
            assert!(pair[0].ends_with("_s1.dfg"), "{}", pair[0]);
            assert!(pair[1].ends_with("_s1_p11.dfg"), "{}", pair[1]);
            // Twins are textually disjoint from their originals (every
            // name is rewritten) but structurally identical.
            let base = std::fs::read_to_string(pair[0]).unwrap();
            let twin = std::fs::read_to_string(pair[1]).unwrap();
            assert_ne!(base, twin);
            assert_eq!(base.lines().count(), twin.lines().count());
        }
        // A canonical-cache batch over the list answers twins from
        // cache as iso hits (where the list scheduler lands both on the
        // same structural schedule), and reports them under `canon`.
        let mut args = argv(&["batch"]);
        args.extend(paths.iter().map(|p| p.to_string()));
        args.extend(argv(&["--modules", "1+,1*,1-", "--metrics"]));
        let canon_on = run(&args).unwrap();
        let json = canon_on.lines().last().expect("metrics line");
        let iso_hits: u64 = json
            .split("\"iso_hits\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no canon section in {json}"));
        assert!(iso_hits > 0, "no iso hits over permuted twins: {json}");
        // Every reported design row is byte-identical to a cold,
        // one-design batch: canonization is a cache strategy, never a
        // result change.
        assert_eq!(rows(&canon_on)[1..], cold_rows(&paths, "1+,1*,1-")[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch's design rows (everything but JSON lines).
    fn rows(out: &str) -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with('{'))
            .map(str::to_owned)
            .collect()
    }

    /// Each design's row from its own fresh `batch` process state — a
    /// cold engine per design, so nothing is answered from cache.
    fn cold_rows(paths: &[&str], modules: &str) -> Vec<String> {
        paths
            .iter()
            .map(|p| {
                let out = run(&argv(&["batch", p, "--modules", modules])).unwrap();
                rows(&out).pop().expect("one design row")
            })
            .collect()
    }

    #[test]
    fn removed_cache_toggles_and_bad_seeds_are_rejected() {
        let path = write_temp("lobist_cli_canon_bad.dfg", DESIGN);
        for flag in ["--canon", "--subcanon"] {
            let err = run(&argv(&["batch", &path, "--modules", "1+,1*", flag, "on"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)));
            assert!(err.to_string().contains("unknown option"), "{err}");
        }
        let err = run(&argv(&["corpus", "--permute", "x"])).unwrap_err();
        assert!(err.to_string().contains("bad permute seed"), "{err}");
        let err = run(&argv(&["corpus", "--twin-kernels", "x"])).unwrap_err();
        assert!(err.to_string().contains("bad twin-kernels seed"), "{err}");
    }

    #[test]
    fn corpus_twin_kernels_batch_from_the_shift_normalized_cache() {
        let dir = std::env::temp_dir().join("lobist_cli_corpus_twin_kernels");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        let out = run(&argv(&[
            "corpus",
            "--sizes",
            "8",
            "--seed",
            "1",
            "--twin-kernels",
            "9",
            "--modules",
            "1+,1*,1-",
            "--out",
            &dir_arg,
        ]))
        .unwrap();
        // Each design is followed by its scheduled, shifted sibling.
        let paths: Vec<&str> = out.lines().collect();
        assert_eq!(paths.len(), 8, "{out}");
        for pair in paths.chunks(2) {
            assert!(pair[0].ends_with("_s1.dfg"), "{}", pair[0]);
            assert!(pair[1].ends_with("_s1_k9.dfg"), "{}", pair[1]);
            // The sibling is scheduled (carries `@ step` annotations);
            // the base is not.
            let base = std::fs::read_to_string(pair[0]).unwrap();
            let twin = std::fs::read_to_string(pair[1]).unwrap();
            assert!(!base.contains('@'), "{}", pair[0]);
            assert!(twin.contains('@'), "{}", pair[1]);
        }
        // A batch over the list (same --modules as corpus scheduling)
        // answers every shifted sibling from cache: it shares the
        // shift-normalized key of the design before it.
        let mut args = argv(&["batch"]);
        args.extend(paths.iter().map(|p| p.to_string()));
        args.extend(argv(&["--modules", "1+,1*,1-", "--metrics"]));
        let out = run(&args).unwrap();
        let json = out.lines().last().expect("metrics line");
        assert!(json.contains("\"cache\":{\"hits\":4,\"misses\":4"), "{json}");
        assert!(!json.contains("\"subcanon\""), "{json}");
        // Each sibling's row (its own, one step longer, latency) is what
        // a cold engine computes for it alone.
        assert_eq!(rows(&out)[1..], cold_rows(&paths, "1+,1*,1-")[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Taps of the corpus FIR (seed 1) that the engine synthesizes under
    /// `2+,2*,2-` only through its feasibility-recovery ladder.
    const RECOVERED_FIR: u32 = 4;

    #[test]
    fn batch_reports_designs_direct_synthesis_rejects_and_continues() {
        // Under 2+,2*,2- the engine answers this FIR only through its
        // feasibility-recovery ladder, and direct synthesis rejects it.
        // --lint re-synthesizes, so it reports the rejection per design
        // and goes on with the rest of the batch. --faultsim needs only
        // the design's module binding, so it simulates every module.
        let dir = std::env::temp_dir().join("lobist_cli_recovered_fir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fir = dir.join("fir.dfg");
        let dfg = lobist_dfg::corpus::generate(lobist_dfg::corpus::CorpusKind::Fir, RECOVERED_FIR, 1);
        std::fs::write(&fir, lobist_dfg::parse::to_text_unscheduled(&dfg)).unwrap();
        let fir = fir.to_string_lossy().into_owned();
        let ok = write_temp("lobist_cli_recovered_ok.dfg", DESIGN);
        let batch =
            |flag| run(&argv(&["batch", &fir, &ok, "--modules", "2+,2*,2-", flag])).unwrap();

        let out = batch("--lint");
        assert!(
            out.contains(&format!("lint {fir}: failed: ")),
            "no per-design failure line in {out}"
        );
        assert!(
            out.contains(&format!("lint {ok}: clean")),
            "batch stopped early: {out}"
        );

        let out = batch("--faultsim");
        assert!(!out.contains("failed:"), "{out}");
        for module in ["M1 (+)", "M2 (+)", "M3 (*)", "M4 (*)"] {
            assert!(
                out.contains(&format!("faultsim {fir}: {module} ")),
                "no {module} row in {out}"
            );
        }
        assert!(out.contains(&format!("faultsim {ok}: M1 ")), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_faultsim_rows_equal_sessions_of_the_synthesized_binding() {
        // `batch --faultsim` derives each design's module binding
        // without synthesizing it again; for every design direct
        // synthesis accepts, its rows must equal the sessions of the
        // synthesized design's own binding.
        let dir = std::env::temp_dir().join("lobist_cli_binding_rows");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        let listing = run(&argv(&[
            "corpus", "--sizes", "8,16", "--seed", "1", "--out", &dir_arg,
        ]))
        .unwrap();
        let paths: Vec<&str> = listing.lines().collect();
        let mut args = argv(&["batch"]);
        args.extend(paths.iter().map(|p| p.to_string()));
        args.extend(argv(&[
            "--modules",
            "1+,1*,1-",
            "--faultsim",
            "--width",
            "12",
            "--jobs",
            "2",
        ]));
        let rows: Vec<String> = run(&args)
            .unwrap()
            .lines()
            .filter(|l| l.starts_with("faultsim "))
            .map(str::to_owned)
            .collect();

        let o = parse_args(&args).unwrap();
        let modules: ModuleSet = "1+,1*,1-".parse().unwrap();
        let flow = o.spec.flow_options();
        let (width, sim_opts) = o.spec.fault_sim(worker_count(&o)).unwrap();
        let engine = lobist_engine::Engine::new(1);
        let mut want = Vec::new();
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            let dfg = lobist_dfg::parse::parse_unscheduled_dfg(&text).unwrap();
            let schedule = lobist_dfg::scheduling::list_schedule(&dfg, &modules).unwrap();
            let d = synthesize(&dfg, &schedule, &modules, &flow).unwrap();
            for (module, report) in lobist_engine::fault_sim_modules(
                &dfg,
                &d.module_assignment,
                width,
                sim_opts,
                &engine,
            ) {
                want.push(faultsim_row(path, &module, &report));
            }
        }
        assert_eq!(paths.len(), 8);
        assert_eq!(rows, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_rejects_bad_sizes() {
        for bad in ["0", "8,x", ""] {
            let err = run(&argv(&["corpus", "--sizes", bad])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}");
            assert!(err.to_string().contains("bad corpus size"), "{bad}: {err}");
        }
    }

    #[test]
    fn submit_reports_an_unreachable_daemon() {
        let err = run(&argv(&[
            "submit",
            "--unix",
            "/nonexistent/lobist-nowhere.sock",
            "--cmd",
            "ping",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_, _)));
        assert!(err.to_string().contains("lobist-nowhere"), "{err}");
    }

    #[test]
    fn cli_and_daemon_parse_the_same_job_specs() {
        use lobist_server::proto::{parse_request, render_request};
        // Every valid spec reads the same from argv and from the request
        // line `submit` sends for it.
        for args in [
            "",
            "--modules 1+,2* --flow traditional --width 64 --repair",
            "--candidates 1+;2+ --port-inputs --jobs 3",
            "--width 2 --iterations 0 --seed 0",
            "--iterations 4294967295 --seed 0xFFFFFFFFFFFFFFFF",
            "--chains 256",
            "--chains 1 --flow testable",
        ] {
            let args: Vec<&str> = args.split_whitespace().collect();
            let cli = parse_args(&argv(&args)).unwrap().spec;
            let line = render_request("anneal", None, &cli);
            let daemon = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(cli, daemon.spec, "{args:?} sent as {line}");
        }
        // Every bad value is rejected by both: (flag, CLI token, JSON value).
        for (flag, token, json) in [
            ("--flow", "magic", r#""magic""#),
            ("--width", "1", "1"),
            ("--width", "65", "65"),
            ("--jobs", "0", "0"),
            ("--iterations", "4294967296", "4294967296"),
            ("--seed", "-1", "-1"),
            ("--chains", "0", "0"),
            ("--chains", "257", "257"),
            ("--chains", "1000000000000000", "1000000000000000"),
        ] {
            let err = parse_args(&argv(&[flag, token])).err();
            assert!(matches!(err, Some(CliError::Usage(_))), "{flag} {token}");
            let key = flag[2..].replace('-', "_");
            let line = format!(r#"{{"cmd":"anneal","{key}":{json}}}"#);
            assert!(parse_request(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn annotated_schedules_are_checked_never_replaced() {
        // `s` is scheduled after its consumer `y`.
        let broken = write_temp(
            "lobist_cli_broken_schedule.dfg",
            "input a b\ns = a + b @ 2\ny = s + a @ 1\noutput y\n",
        );
        let partial = write_temp(
            "lobist_cli_partial_schedule.dfg",
            "input a b\ns = a + b @ 1\ny = s + a\noutput y\n",
        );
        for cmd in ["synth", "batch", "lint", "analyze", "faultsim", "anneal"] {
            let err = run(&argv(&[cmd, &broken, "--modules", "1+"])).unwrap_err();
            assert!(matches!(err, CliError::Parse(_)), "{cmd}: {err}");
            assert!(
                err.to_string().contains("same or an earlier step"),
                "{cmd}: {err}"
            );
            let err = run(&argv(&[cmd, &partial, "--modules", "1+"])).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 3: operation `y` has no `@ step`"),
                "{cmd}: {msg}"
            );
        }
    }

    #[test]
    fn synth_list_schedules_an_unscheduled_design() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs/diffeq.dfg");
        let text = std::fs::read_to_string(path).unwrap();
        let modules: ModuleSet = "1+,2*,1-".parse().unwrap();
        let dfg = lobist_dfg::parse::parse_unscheduled_dfg(&text).unwrap();
        let schedule = lobist_dfg::scheduling::list_schedule(&dfg, &modules).unwrap();
        let listed = write_temp(
            "lobist_cli_diffeq_listed.dfg",
            &lobist_dfg::parse::to_text(&dfg, &schedule),
        );
        let synth = |p: &str| run(&argv(&["synth", p, "--modules", "1+,2*,1-"])).unwrap();
        assert_eq!(synth(path), synth(&listed));
    }

    #[test]
    fn explore_and_anneal_honor_the_flow_flag() {
        // Paulin's differential equation, where the two flows' BIST
        // overheads differ.
        let paulin = "input x u dx y\n\
                      t1 = 3 * x @ 1\n\
                      t2 = u * dx @ 1\n\
                      xl = x + dx @ 1\n\
                      t3 = t1 * t2 @ 2\n\
                      t4 = 3 * y @ 2\n\
                      yl = y + t2 @ 2\n\
                      t5 = t4 * dx @ 3\n\
                      t6 = u - t3 @ 3\n\
                      ul = t6 - t5 @ 4\n\
                      output xl yl ul\n";
        let path = write_temp("lobist_cli_flow_flag.dfg", paulin);
        let base = ["--modules", "1+,2*,1-", "--flow"];
        let gates = |out: &str, after: &str| -> String {
            let rest = out.split(after).nth(1).unwrap_or_else(|| panic!("{out}"));
            rest.trim_start().chars().take_while(char::is_ascii_digit).collect()
        };
        let mut heuristics = Vec::new();
        for flow in ["testable", "traditional"] {
            let synth = run(&argv(&[&["synth", &path, "--json"], &base[..], &[flow]].concat()));
            let anneal = run(&argv(
                &[&["anneal", &path, "--iterations", "5"], &base[..], &[flow]].concat(),
            ));
            let heuristic = gates(&anneal.unwrap(), "constructive heuristic:");
            assert_eq!(heuristic, gates(&synth.unwrap(), "\"overhead_gates\":"), "{flow}");
            heuristics.push(heuristic);
        }
        assert_ne!(heuristics[0], heuristics[1]);
        let explore = |flow| {
            run(&argv(&[
                "explore",
                &path,
                "--candidates",
                "1+,2*,1-;2+,2*,2-",
                "--flow",
                flow,
            ]))
            .unwrap()
        };
        assert_ne!(explore("testable"), explore("traditional"));
    }
}
