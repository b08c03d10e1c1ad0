//! `lobist-e2e`: the end-to-end benchmark of lobist.
//!
//! Four workloads drive the real `lobist` code — CLI sweeps in fresh
//! processes and closed-loop clients of the daemon — from inputs
//! generated from a seed. An untraced run prints every end-to-end metric
//! and checks the outputs; a traced run replays the same inputs
//! in-process with a span around every call into a layer and prints the
//! per-layer metrics. See `benchmark/README.md`.

mod child;
mod digest;
mod e2e;
mod gen;
mod json;
mod probe;
mod report;
mod stats;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::{gated, Report};

const USAGE: &str = "\
usage: lobist-e2e [run|trace] [--workload NAME|all] [--seed N] [--seconds S]
                  [--trace 0|1] [--smoke] [--bless]

  run            untraced end-to-end run (the default)
  trace          traced in-process run: per-layer metrics, span files
  --workload     sweep-cold | faultsim | serve-mix | serve-restart | all
                 (default all)
  --seed N       input seed (default 1)
  --seconds S    how long each workload measures (default 20)
  --trace 0|1    same as `run` / `trace`
  --smoke        small inputs, one pass per workload; digests and work
                 counters must equal goldens/<workload>.smoke.digest
  --bless        rewrite the goldens of this seed (1) and size

The last stdout line is one JSON object: correct, attempted, failed,
metrics.";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct corpus designs through fresh `lobist batch` processes.
    SweepCold,
    /// Corpus designs through `lobist batch --faultsim`.
    Faultsim,
    /// Two closed-loop clients of a daemon with a fresh store.
    ServeMix,
    /// Two closed-loop clients of a daemon restarted on a primed store.
    ServeRestart,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::Faultsim,
        Workload::ServeMix,
        Workload::ServeRestart,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::Faultsim => "faultsim",
            Workload::ServeMix => "serve-mix",
            Workload::ServeRestart => "serve-restart",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Settings of one workload run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time; the first pass or cycle always completes.
    pub seconds: Duration,
    /// Small inputs, one pass.
    pub smoke: bool,
    /// Scratch directory of this run and workload.
    pub dir: PathBuf,
    /// Where artifacts that outlive the run go (span files).
    pub root: PathBuf,
}

impl Ctx {
    /// The daemon's Unix socket.
    pub fn socket(&self) -> PathBuf {
        self.dir.join("d.sock")
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    match it.peek() {
        Some(&"run") => {
            it.next();
        }
        Some(&"trace") => {
            it.next();
            o.trace = true;
        }
        _ => {}
    }
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg {
            "--workload" => {
                let v = value()?;
                o.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.bless && (o.seed != 1 || o.trace) {
        return Err("--bless rewrites the seed-1 goldens of an untraced run".into());
    }
    Ok(o)
}

/// `$CARGO_TARGET_DIR/e2e` (or `target/e2e`), relative to the working
/// directory when it lies below it, which keeps socket paths short.
fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let root = target.join("e2e");
    match std::env::current_dir() {
        Ok(cwd) => root
            .strip_prefix(&cwd)
            .map(Path::to_path_buf)
            .unwrap_or(root),
        Err(_) => root,
    }
}

fn golden_path(workload: Workload, smoke: bool) -> PathBuf {
    let size = if smoke { "smoke" } else { "seed1" };
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{}.{size}.digest", workload.name()))
}

/// Compares a seed-1 run with its golden digest and counters, or
/// rewrites the golden with `bless`. A digest mismatch is a failure; a
/// counter mismatch fails only the smoke gate and is reported otherwise.
fn check_golden(report: &mut Report, smoke: bool, bless: bool) {
    let Some(digest) = report.digest else { return };
    let mut actual = format!("digest {}\n", digest.hex());
    for (name, value) in gated(&report.counters) {
        actual.push_str(&format!("{name} {value}\n"));
    }
    let path = golden_path(report.workload, smoke);
    if bless {
        match std::fs::write(&path, &actual) {
            Ok(()) => report.notes.push(format!("blessed {}", path.display())),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
        return;
    }
    let Ok(golden) = std::fs::read_to_string(&path) else {
        report
            .notes
            .push(format!("no golden at {}", path.display()));
        return;
    };
    let mut lines = golden.lines();
    if lines.next() != actual.lines().next() {
        report.fail(format!("digest differs from {}", path.display()));
    }
    let want: Vec<&str> = lines.collect();
    let got: Vec<&str> = actual.lines().skip(1).collect();
    if want != got {
        let msg = format!(
            "work counters differ from {}: {}",
            path.display(),
            got.join(", ")
        );
        if smoke {
            report.fail(msg);
        } else {
            report.notes.push(msg);
        }
    } else {
        report
            .notes
            .push("digest and counters match the golden".into());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("cli") {
        child::cli_main(&args[1..]);
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let root = work_root();
    let run_dir = root.join(format!("run-{}", std::process::id()));
    let mut reports = Vec::new();
    for &workload in &opts.workloads {
        let ctx = Ctx {
            seed: opts.seed,
            seconds: Duration::from_secs_f64(if opts.smoke { 0.0 } else { opts.seconds }),
            smoke: opts.smoke,
            dir: run_dir.join(workload.name()),
            root: root.clone(),
        };
        let mut report = match std::fs::create_dir_all(&ctx.dir) {
            Err(e) => {
                let mut r = Report::new(workload);
                r.fail(format!("cannot create {}: {e}", ctx.dir.display()));
                r
            }
            Ok(()) if opts.trace => traced::run(&ctx, workload),
            Ok(()) => e2e::run(&ctx, workload),
        };
        if !opts.trace && opts.seed == 1 {
            check_golden(&mut report, opts.smoke, opts.bless);
        }
        eprint!("{}", report.render());
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", report::result_line(&reports, reports.len() > 1));
    let ok = reports.iter().all(Report::correct);
    std::process::exit(if ok { 0 } else { 1 });
}
