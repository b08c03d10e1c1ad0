//! The untraced end-to-end runs: CLI sweeps in fresh processes and
//! closed-loop daemon clients. Every number here is what a user of the
//! `lobist` binary would see.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::child::{run_cli, Daemon};
use crate::digest::{normalize_cli_line, strip_id, Digest};
use crate::gen::{self, Design, Expect, Request, ServeInputs};
use crate::json::escape;
use crate::probe;
use crate::report::{add_counters, gated, Counters, Metric, Report};
use crate::stats;
use crate::{Ctx, Workload};

/// Runs one workload untraced.
pub fn run(ctx: &Ctx, workload: Workload) -> Report {
    match workload {
        Workload::SweepCold | Workload::Faultsim => batch(ctx, workload),
        Workload::ServeMix | Workload::ServeRestart => serve(ctx, workload),
    }
}

/// One cycle: a pass over a sweep's processes, or one daemon lifetime.
/// Every cycle of a run does identical work.
struct Cycle {
    /// Designs or requests per second of wall time.
    throughput: f64,
    /// Per call: one CLI process, or one daemon request.
    latency_ms: Vec<f64>,
    /// Host slowdown around the cycle (mean of the probes before and
    /// after it).
    slowdown: f64,
}

/// Samples behind the end-to-end metrics.
#[derive(Default)]
struct Samples {
    /// Complete cycles.
    cycles: Vec<Cycle>,
    /// Set-up repetitions, already scaled to nominal host speed.
    setup_s: Vec<f64>,
    /// Peak RSS of each process (KiB).
    rss_kb: Vec<u64>,
    /// BIST overhead of each distinct design answered (one pass).
    overhead_pct: Vec<f64>,
}

impl Samples {
    /// Every timing is scaled by its cycle's host slowdown (see
    /// `probe`), so the numbers read as on a quiet host.
    fn into_metrics(self) -> Vec<Metric> {
        let throughput: Vec<f64> = self
            .cycles
            .iter()
            .map(|c| c.throughput * c.slowdown)
            .collect();
        let latency: Vec<f64> = self
            .cycles
            .iter()
            .flat_map(|c| c.latency_ms.iter().map(move |l| l / c.slowdown))
            .collect();
        let n = latency.len();
        let p = stats::tail_percentile(n);
        let slowdowns: Vec<f64> = self.cycles.iter().map(|c| c.slowdown).collect();
        let scaled = format!("host slowdown {:.2}", stats::median(&slowdowns));
        let designs = self.overhead_pct.len();
        let mean_overhead = self.overhead_pct.iter().sum::<f64>() / designs.max(1) as f64;
        let peak = self.rss_kb.iter().copied().max().unwrap_or(0);
        vec![
            Metric {
                how: format!("median of {} cycles, {scaled}", throughput.len()),
                ..Metric::median("throughput_per_s", "1/s", throughput)
            },
            Metric::new(
                "latency_p50_ms",
                "ms",
                stats::median(&latency),
                format!("median of {n} calls"),
            ),
            Metric::new(
                "latency_tail_ms",
                "ms",
                stats::percentile(&latency, p),
                format!("p{p} of {n} calls"),
            ),
            Metric::median("setup_s", "s", self.setup_s),
            Metric::new(
                "peak_rss_mb",
                "MB",
                peak as f64 / 1024.0,
                format!("max of {} processes", self.rss_kb.len()),
            ),
            Metric::new(
                "bist_overhead_pct",
                "%",
                mean_overhead,
                format!("mean over {designs} distinct designs"),
            ),
        ]
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One parsed `lobist batch` stdout.
struct BatchOutput {
    /// Normalized result lines (the metrics snapshot excluded).
    lines: Vec<String>,
    /// Design rows plus `failed` rows.
    answered: usize,
    overheads: Vec<f64>,
    coverages: Vec<f64>,
    metrics: String,
}

fn parse_batch(stdout: &str) -> BatchOutput {
    let mut out = BatchOutput {
        lines: Vec::new(),
        answered: 0,
        overheads: Vec::new(),
        coverages: Vec::new(),
        metrics: String::new(),
    };
    for line in stdout.lines() {
        if line.starts_with('{') {
            out.metrics = line.to_owned();
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first() {
            None | Some(&"design") => {}
            Some(&"failed") => out.answered += 1,
            Some(&"faultsim") => {
                // faultsim <label>: M1 (+) <n> faults, <x>% coverage, <k> aliased
                if let Some(i) = tokens.iter().position(|t| *t == "coverage,") {
                    if let Some(x) = tokens[i - 1].strip_suffix('%').and_then(|x| x.parse().ok()) {
                        out.coverages.push(x);
                    }
                }
            }
            Some(_) => {
                out.answered += 1;
                if let Some(x) = tokens.last().and_then(|t| t.strip_suffix('%')) {
                    if let Ok(x) = x.parse() {
                        out.overheads.push(x);
                    }
                }
            }
        }
        out.lines.push(normalize_cli_line(line));
    }
    out
}

/// `sweep-cold` and `faultsim`: chunks of distinct designs, each chunk
/// one fresh `lobist batch` process, cycled until the time is up.
fn batch(ctx: &Ctx, workload: Workload) -> Report {
    let mut report = Report::new(workload);
    let mut samples = Samples::default();
    let faultsim = workload == Workload::Faultsim;
    let make = if faultsim { gen::faultsim } else { gen::sweep };
    // Set-up: generate the designs. Each of nine samples repeats the
    // generation for at least 100 ms right after a probe (the host
    // changes speed within a second). Writing the files is left out of
    // the timing: overwriting hundreds of small files costs 5–90 ms of
    // pure file-system noise.
    let mut sweep = None;
    let mut texts = None;
    for _ in 0..9 {
        let slowdown = probe::slowdown();
        let t0 = Instant::now();
        let mut generated = 0;
        while generated == 0 || t0.elapsed() < Duration::from_millis(100) {
            let s = make(ctx.seed, ctx.smoke);
            let digest = texts_digest(&s);
            if texts.is_some_and(|t| t != digest) {
                report.fail("input generation is not deterministic");
            }
            texts = Some(digest);
            sweep = Some(s);
            generated += 1;
        }
        samples
            .setup_s
            .push(secs(t0.elapsed()) / f64::from(generated) / slowdown);
    }
    let gen::Sweep {
        designs,
        chunks: parts,
    } = sweep.expect("set-up ran");
    let input_dir = ctx.dir.join("in");
    if let Err(e) = write_designs(&input_dir, &designs) {
        report.fail(format!("cannot write inputs: {e}"));
        return report;
    }
    let lists: Vec<String> = parts
        .iter()
        .map(|p| {
            p.iter()
                .map(|&i| design_path(&input_dir, &designs[i]))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    let width = gen::FAULTSIM_WIDTH.to_string();
    let mut args = vec![
        "batch",
        "-",
        "--modules",
        gen::BATCH_MODULES,
        "--jobs",
        "2",
        "--metrics",
    ];
    if faultsim {
        args.extend(["--faultsim", "--width", &width]);
    }

    let mut first: Vec<Option<Vec<String>>> = vec![None; parts.len()];
    let mut first_counters: Option<Counters> = None;
    let mut coverages = Vec::new();
    let start = Instant::now();
    let mut probe = probe::slowdown();
    let mut pass = 0;
    'passes: loop {
        let mut counters = Counters::new();
        let mut pass_wall = Duration::ZERO;
        let mut latency_ms = Vec::with_capacity(lists.len());
        for (c, list) in lists.iter().enumerate() {
            if pass > 0 && start.elapsed() >= ctx.seconds {
                break 'passes;
            }
            let n = parts[c].len();
            report.attempted += n as u64;
            let run = match run_cli(&args, list) {
                Ok(run) if run.status.success() => run,
                Ok(run) => {
                    report.failed += n as u64 - 1;
                    report.fail(format!("chunk {c}: {} {}", run.status, run.stderr.trim()));
                    continue;
                }
                Err(e) => {
                    report.failed += n as u64 - 1;
                    report.fail(format!("chunk {c}: cannot run the CLI: {e}"));
                    continue;
                }
            };
            pass_wall += run.wall;
            latency_ms.push(1e3 * secs(run.wall));
            samples.rss_kb.push(run.hwm_kb);
            let out = parse_batch(&run.stdout);
            if out.answered != n {
                report.fail(format!(
                    "chunk {c}: {} of {n} designs answered",
                    out.answered
                ));
            }
            if let Err(e) = add_counters(&mut counters, &out.metrics) {
                report.fail(format!("chunk {c}: {e}"));
            }
            match &first[c] {
                None => {
                    samples.overhead_pct.extend(&out.overheads);
                    coverages.extend(out.coverages);
                    first[c] = Some(out.lines);
                }
                Some(lines) if *lines != out.lines => {
                    report.fail(format!("chunk {c}: output changed in pass {pass}"));
                }
                Some(_) => {}
            }
        }
        let next = probe::slowdown();
        samples.cycles.push(Cycle {
            throughput: designs.len() as f64 / secs(pass_wall),
            latency_ms,
            slowdown: (probe + next) / 2.0,
        });
        probe = next;
        check_cycle_counters(&mut report, &mut first_counters, counters, pass);
        pass += 1;
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    let mut digest = Digest::default();
    for line in first.iter().flatten().flatten() {
        digest.line(line);
    }
    report.digest = Some(digest);
    report.notes.push(format!(
        "{} designs in {} processes per pass; {pass} pass(es) in {:.1} s",
        designs.len(),
        parts.len(),
        secs(start.elapsed())
    ));
    if !coverages.is_empty() {
        report.notes.push(format!(
            "fault coverage {:.3}% (mean over {} module sessions)",
            coverages.iter().sum::<f64>() / coverages.len() as f64,
            coverages.len()
        ));
    }
    report.metrics = samples.into_metrics();
    report
}

fn design_path(dir: &Path, d: &Design) -> String {
    dir.join(format!("{}.dfg", d.name)).display().to_string()
}

fn write_designs(dir: &Path, designs: &[Design]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for d in designs {
        std::fs::write(design_path(dir, d), &d.text)?;
    }
    Ok(())
}

/// Digest of a sweep's design texts in chunk order.
fn texts_digest(s: &gen::Sweep) -> Digest {
    let mut d = Digest::default();
    for &i in s.chunks.iter().flatten() {
        d.line(&s.designs[i].text);
    }
    d
}

/// Records the first cycle's counters; later cycles must repeat them
/// (a difference is reported, not failed: counters are evidence about
/// work done, outputs are what must not change).
fn check_cycle_counters(
    report: &mut Report,
    first: &mut Option<Counters>,
    counters: Counters,
    cycle: usize,
) {
    match first {
        None => {
            report.counters = counters.clone();
            *first = Some(counters);
        }
        Some(f) if gated(f) != gated(&counters) => {
            report.notes.push(format!(
                "counters of cycle {cycle} differ from cycle 0: {:?}",
                gated(&counters)
            ));
        }
        Some(_) => {}
    }
}

fn synth_line(text: &str) -> String {
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"modules\":\"{}\"}}",
        escape(text),
        gen::SERVE_MODULES
    )
}

/// One answered daemon request.
struct Answer {
    latency: Duration,
    /// The `result` event without its `id`.
    payload: String,
    /// `done.wall_micros`.
    server_micros: u64,
}

/// Runs one closed-loop client over its request lines.
fn client(daemon: &Daemon, lines: &[String]) -> Vec<Result<Answer, String>> {
    let mut conn = match daemon.connect() {
        Ok(c) => c,
        Err(e) => return lines.iter().map(|_| Err(format!("connect: {e}"))).collect(),
    };
    lines
        .iter()
        .map(|line| {
            let t0 = Instant::now();
            let events = conn.request(line).map_err(|e| format!("transport: {e}"))?;
            let latency = t0.elapsed();
            let done = events.last().expect("request returns at least one event");
            if !done.starts_with("{\"event\":\"done\"") {
                return Err(format!("daemon: {done}"));
            }
            let result = events
                .iter()
                .find(|e| e.starts_with("{\"event\":\"result\""))
                .ok_or("no result event")?;
            Ok(Answer {
                latency,
                payload: strip_id(result),
                server_micros: number_after(done, "\"wall_micros\":").unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

fn number_after(s: &str, key: &str) -> Option<f64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs both clients concurrently; answers per client, and the wall
/// time of the whole cycle.
fn drive(
    daemon: &Daemon,
    lines: &[Vec<String>; 2],
) -> ([Vec<Result<Answer, String>>; 2], Duration) {
    let t0 = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles = lines.each_ref().map(|l| s.spawn(|| client(daemon, l)));
        handles.map(|h| h.join().expect("client thread"))
    });
    (answers, t0.elapsed())
}

fn spawn(socket: &Path, store: &Path) -> std::io::Result<Daemon> {
    let store = store.display().to_string();
    Daemon::spawn(
        socket,
        &["--store", &store, "--jobs", "2", "--max-active", "2"],
    )
}

/// Primes a store by sending every design once (two clients); returns
/// the payloads by prime index.
fn prime(ctx: &Ctx, inputs: &ServeInputs, store: &Path) -> Result<Vec<String>, String> {
    let daemon = spawn(&ctx.socket(), store).map_err(|e| format!("priming daemon: {e}"))?;
    let lines: [Vec<String>; 2] = [0, 1].map(|c| {
        inputs
            .prime
            .iter()
            .skip(c)
            .step_by(2)
            .map(|t| synth_line(t))
            .collect()
    });
    let (answers, _) = drive(&daemon, &lines);
    daemon
        .shutdown()
        .map_err(|e| format!("priming daemon: {e}"))?;
    let mut payloads = vec![String::new(); inputs.prime.len()];
    for (c, list) in answers.into_iter().enumerate() {
        for (k, a) in list.into_iter().enumerate() {
            payloads[c + 2 * k] = a.map_err(|e| format!("priming: {e}"))?.payload;
        }
    }
    Ok(payloads)
}

/// `serve-mix` and `serve-restart`: a daemon per cycle and two
/// closed-loop clients, cycled until the time is up.
fn serve(ctx: &Ctx, workload: Workload) -> Report {
    let mut report = Report::new(workload);
    let mut samples = Samples::default();
    let restart = workload == Workload::ServeRestart;
    let inputs = if restart {
        gen::serve_restart(ctx.seed, ctx.smoke)
    } else {
        gen::serve_mix(ctx.seed, ctx.smoke)
    };
    let lines: [Vec<String>; 2] = inputs
        .clients
        .each_ref()
        .map(|c| c.iter().map(|r| synth_line(&r.text)).collect());
    let requests: usize = lines.iter().map(Vec::len).sum();
    let store = ctx.dir.join("cycle.store");
    let pristine = ctx.dir.join("pristine.store");
    let mut primed = Vec::new();
    if restart {
        let t0 = Instant::now();
        match prime(ctx, &inputs, &pristine) {
            Ok(p) => primed = p,
            Err(e) => {
                report.fail(e);
                return report;
            }
        }
        samples.overhead_pct = primed.iter().filter_map(|p| overhead_of(p)).collect();
        report.notes.push(format!(
            "store primed with {} designs in {:.2} s (untimed)",
            primed.len(),
            secs(t0.elapsed())
        ));
    }

    let mut first_payloads: Option<[Vec<String>; 2]> = None;
    let mut first_counters = None;
    let mut server_overhead_us = Vec::new();
    let start = Instant::now();
    let mut probe = probe::slowdown();
    let mut cycle = 0;
    while cycle == 0 || start.elapsed() < ctx.seconds {
        let _ = std::fs::remove_file(&store);
        if restart {
            if let Err(e) = std::fs::copy(&pristine, &store) {
                report.fail(format!("cannot copy the primed store: {e}"));
                return report;
            }
        }
        report.attempted += requests as u64;
        let daemon = match spawn(&ctx.socket(), &store) {
            Ok(d) => d,
            Err(e) => {
                report.failed += requests as u64 - 1;
                report.fail(format!("cycle {cycle}: {e}"));
                break;
            }
        };
        let ready = secs(daemon.ready);
        let (answers, wall) = drive(&daemon, &lines);
        let mut counters = Counters::new();
        match daemon.metrics() {
            Ok(m) => {
                if let Err(e) = add_counters(&mut counters, &m) {
                    report.fail(e);
                }
            }
            Err(e) => report.fail(format!("cycle {cycle}: metrics: {e}")),
        }
        samples.rss_kb.push(daemon.hwm_kb());
        if let Err(e) = daemon.shutdown() {
            report.fail(format!("cycle {cycle}: {e}"));
        }
        let next = probe::slowdown();
        let mut cycle_stats = Cycle {
            throughput: requests as f64 / secs(wall),
            latency_ms: Vec::with_capacity(requests),
            slowdown: (probe + next) / 2.0,
        };
        probe = next;
        samples.setup_s.push(ready / cycle_stats.slowdown);
        let payloads = answers.each_ref().map(|list| {
            list.iter()
                .map(|a| {
                    a.as_ref()
                        .map_or_else(|_| String::new(), |a| a.payload.clone())
                })
                .collect::<Vec<String>>()
        });
        for (c, list) in answers.iter().enumerate() {
            for (i, a) in list.iter().enumerate() {
                let a = match a {
                    Ok(a) => a,
                    Err(e) => {
                        report.fail(format!("cycle {cycle} client {c} request {i}: {e}"));
                        continue;
                    }
                };
                cycle_stats.latency_ms.push(1e3 * secs(a.latency));
                server_overhead_us
                    .push((a.latency.as_micros() as f64 - a.server_micros as f64).max(0.0));
                let expected = match inputs.clients[c][i].expect {
                    Expect::First => None,
                    Expect::SameAs(j) => Some(&payloads[c][j]),
                    Expect::Primed(p) => Some(&primed[p]),
                };
                if expected.is_some_and(|e| *e != a.payload) {
                    report.fail(format!(
                        "cycle {cycle} client {c} request {i}: result differs from its first evaluation"
                    ));
                }
            }
        }
        match &first_payloads {
            None => {
                if !restart {
                    samples.overhead_pct = fresh_overheads(&inputs.clients, &payloads);
                }
                first_payloads = Some(payloads);
            }
            Some(f) if *f != payloads => {
                report.fail(format!("cycle {cycle}: results differ from cycle 0"));
            }
            Some(_) => {}
        }
        samples.cycles.push(cycle_stats);
        check_cycle_counters(&mut report, &mut first_counters, counters, cycle);
        cycle += 1;
    }
    let _ = std::fs::remove_file(&store);
    let mut digest = Digest::default();
    for line in first_payloads.iter().flatten().flatten() {
        digest.line(line);
    }
    report.digest = Some(digest);
    let p = stats::tail_percentile(server_overhead_us.len());
    report.notes.push(format!(
        "{requests} requests per cycle; {cycle} cycle(s) in {:.1} s; server overhead \
         (client latency - done.wall_micros) p50 {:.0} us, p{p} {:.0} us",
        secs(start.elapsed()),
        stats::median(&server_overhead_us),
        stats::percentile(&server_overhead_us, p)
    ));
    report.metrics = samples.into_metrics();
    report
}

/// `overhead_percent` of a `point` payload (`None` for a failure).
fn overhead_of(payload: &str) -> Option<f64> {
    number_after(payload, "\"overhead_percent\":")
}

fn fresh_overheads(clients: &[Vec<Request>; 2], payloads: &[Vec<String>; 2]) -> Vec<f64> {
    clients
        .iter()
        .zip(payloads)
        .flat_map(|(reqs, pays)| {
            reqs.iter()
                .zip(pays)
                .filter(|(r, _)| r.fresh)
                .filter_map(|(_, p)| overhead_of(p))
        })
        .collect()
}
