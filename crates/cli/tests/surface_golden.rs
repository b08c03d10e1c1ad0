//! Golden pin of both surfaces' job commands: every byte the CLI prints
//! through [`lobist_cli::run`] and every `result` or `error` event the
//! daemon sends over a socket, for the same inputs.
//!
//! Inputs: every `designs/*.dfg` under its CI lint module set, and the
//! seed-1 corpus FIR and IIR at size 8 under `1+,1*,1-` and `2+,2*,2-`
//! (direct synthesis fails under the second), each under both flows.
//! Then one fault per request on both surfaces, pinned by the first
//! line of its error text, and each CLI flag's usage errors.
//!
//! Masked: the daemon's request `id`, the anneal move rate and
//! `lint --json`'s `"timing"` object (the only wall-clock values these
//! outputs carry), and the scratch directory the inputs are copied to.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p lobist-cli --test surface_golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lobist_dfg::corpus::{generate, CorpusKind};
use lobist_dfg::parse::to_text_unscheduled;
use lobist_server::json::escape;
use lobist_server::{client, Endpoint, Server, ServerConfig};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/surface/surface.txt"
);

const CANDIDATES: &str = "1+,1*;2+,2*;1+,2*,1-";
const FLOWS: [&str; 2] = ["testable", "traditional"];
const EMPTY: &str = "# a comment and nothing else\n";
const BROKEN: &str = "input a b\ns = a + b @ 2\ny = s + a @ 1\noutput y\n";
/// Unannotated, with a multiplication no `1+` module executes.
const UNSCHEDULABLE: &str = "input a b\ns = a + b\ny = s * a\noutput y\n";

/// One design under one module set: its file name in the scratch
/// directory, its text and the extra flags it always runs with.
struct Input {
    file: String,
    text: String,
    modules: &'static str,
    port_inputs: bool,
}

fn inputs() -> Vec<Input> {
    let shipped = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs/");
    let mut inputs: Vec<Input> = [
        ("diffeq.dfg", "1+,2*,1-", true),
        ("ex1.dfg", "1+,1*", false),
        ("ex1_renamed.dfg", "1+,1*", false),
        ("polynomial.dfg", "1+,1*", false),
        ("quickstart.dfg", "1+,1*", false),
    ]
    .into_iter()
    .map(|(file, modules, port_inputs)| Input {
        file: file.to_owned(),
        text: std::fs::read_to_string(format!("{shipped}{file}")).expect("shipped design"),
        modules,
        port_inputs,
    })
    .collect();
    for kind in [CorpusKind::Fir, CorpusKind::Iir] {
        for modules in ["1+,1*,1-", "2+,2*,2-"] {
            inputs.push(Input {
                file: format!("{}_n8_s1.dfg", kind.name()),
                text: to_text_unscheduled(&generate(kind, 8, 1)),
                modules,
                port_inputs: false,
            });
        }
    }
    inputs
}

/// A fresh scratch directory for this test's input files.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("lobist-surface-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn write(dir: &Path, file: &str, text: &str) -> String {
    let path = dir.join(file);
    std::fs::write(&path, text).expect("input written");
    path.display().to_string()
}

/// The output of one CLI invocation: its stdout, or the report and the
/// denial of a `--lint` gate, or the first line of its error.
fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
    match lobist_cli::run(&argv) {
        Ok(out) => out,
        Err(lobist_cli::CliError::Lint { output, denied }) => {
            format!("{output}(exit: {denied} finding(s) denied)\n")
        }
        Err(e) => format!("error: {}\n", e.to_string().lines().next().unwrap_or("")),
    }
}

/// Masks the wall-clock values of CLI output.
fn mask_cli(out: &str) -> String {
    let mut masked = String::new();
    for line in out.lines() {
        if line.starts_with("  \"timing\": ") {
            masked.push_str("  \"timing\": _");
        } else if let Some(head) = line.strip_suffix(" moves/s") {
            let rate = head.rfind(' ').map_or(0, |i| i + 1);
            let _ = write!(masked, "{}_ moves/s", &head[..rate]);
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    masked
}

/// The `result` or `error` event of one daemon request, `id` masked.
fn daemon(endpoint: &Endpoint, request: &str) -> String {
    let events = client::submit(endpoint, request).expect("submit");
    let line = events
        .iter()
        .find(|l| l.contains("\"event\":\"result\"") || l.contains("\"event\":\"error\""))
        .unwrap_or_else(|| panic!("no result or error event in {events:?}"));
    let start = line.find("\"id\":").expect("an id") + "\"id\":".len();
    let end = start + line[start..].find(',').expect("fields after the id");
    format!("{}_{}\n", &line[..start], &line[end..])
}

/// A daemon request line: `cmd`, the design if any, then `fields`.
fn request(cmd: &str, design: Option<&str>, fields: &str) -> String {
    let design = design.map_or(String::new(), |d| format!(",\"design\":\"{}\"", escape(d)));
    format!("{{\"cmd\":\"{cmd}\"{design}{fields}}}")
}

const JOB_COMMANDS: [&str; 6] = ["synth", "explore", "anneal", "faultsim", "lint", "analyze"];

fn cli_outputs(out: &mut String, dir: &str, inputs: &[Input]) {
    for input in inputs {
        let path = format!("{dir}/{}", input.file);
        let base = [path.as_str(), "--modules", input.modules];
        let port: &[&str] = if input.port_inputs {
            &["--port-inputs"]
        } else {
            &[]
        };
        let mut run = |args: &[&str]| {
            let argv: Vec<&str> = args.iter().chain(port).copied().collect();
            let _ = writeln!(out, "$ lobist {}", argv.join(" "));
            out.push_str(&mask_cli(&cli(&argv)));
        };
        run(&["compare", base[0], base[1], base[2]]);
        run(&["compare", base[0], base[1], base[2], "--json"]);
        for flow in FLOWS {
            let with = |cmd: &'static str, extra: &[&'static str]| -> Vec<&str> {
                let mut argv = vec![cmd];
                argv.extend(base);
                argv.extend(["--flow", flow]);
                argv.extend(extra);
                argv
            };
            run(&with("synth", &[]));
            run(&with("synth", &["--json"]));
            run(&with("synth", &["--netlist", "--trace"]));
            run(&with("faultsim", &["--width", "6"]));
            run(&with("explore", &["--candidates", CANDIDATES, "--lint"]));
            run(&with(
                "anneal",
                &["--iterations", "50", "--chains", "2", "--jobs", "2"],
            ));
            run(&with("lint", &[]));
            run(&with("lint", &["--json"]));
            run(&with("analyze", &[]));
            run(&with("analyze", &["--json", "--full"]));
            run(&with("batch", &["--lint", "--faultsim"]));
        }
    }
    let _ = writeln!(out, "$ lobist suite");
    out.push_str(&cli(&["suite"]));
}

fn daemon_outputs(out: &mut String, endpoint: &Endpoint, inputs: &[Input]) {
    for input in inputs {
        for flow in FLOWS {
            let _ = writeln!(out, "# {} under {} ({flow})", input.file, input.modules);
            let port = if input.port_inputs {
                ",\"port_inputs\":true"
            } else {
                ""
            };
            let fields = |extra: &str| {
                format!(
                    ",\"modules\":\"{}\",\"flow\":\"{flow}\"{port}{extra}",
                    input.modules
                )
            };
            let text = Some(input.text.as_str());
            for (cmd, extra) in [
                ("synth", String::new()),
                ("explore", format!(",\"candidates\":\"{CANDIDATES}\"")),
                (
                    "anneal",
                    ",\"iterations\":50,\"chains\":2,\"jobs\":2".to_owned(),
                ),
                ("faultsim", ",\"width\":6".to_owned()),
                ("lint", String::new()),
                ("analyze", String::new()),
            ] {
                out.push_str(&daemon(endpoint, &request(cmd, text, &fields(&extra))));
            }
        }
    }
}

/// One fault per request: the CLI's error line for each command it
/// applies to.
fn cli_errors(out: &mut String, dir: &str) {
    let file = |name: &str, text: &str| write(Path::new(dir), name, text);
    let good = file("good.dfg", "input a b\ns = a + b @ 1\ny = s * a @ 2\noutput y\n");
    let broken = file("broken.dfg", BROKEN);
    let empty = file("empty.dfg", EMPTY);
    let unschedulable = file("unschedulable.dfg", UNSCHEDULABLE);
    let commands = [
        "synth", "compare", "faultsim", "explore", "anneal", "lint", "analyze", "batch",
    ];
    let mut run = |args: &[&str]| {
        let _ = writeln!(out, "$ lobist {}", args.join(" "));
        out.push_str(&mask_cli(&cli(args)));
    };
    for cmd in commands {
        if cmd != "batch" {
            // `batch` without files reads a path list from stdin.
            run(&[cmd, "--modules", "1+,1*", "--candidates", "1+,1*"]);
        }
        if cmd == "explore" {
            run(&[cmd, &good]);
            run(&[cmd, &good, "--candidates", "1+,1*;1x"]);
        } else {
            run(&[cmd, &good]);
            run(&[cmd, &good, "--modules", "1x"]);
        }
        let with = |path: &str, modules: &str| {
            let argv = [cmd, path, "--modules", modules, "--candidates", modules];
            argv.map(str::to_owned)
        };
        for (path, modules) in [
            ("no/such/design.dfg", "1+,1*"),
            (&broken, "1+,1*"),
            (&unschedulable, "1+"),
        ] {
            run(&with(path, modules).each_ref().map(String::as_str));
        }
        // `explore` on a design without operations is pinned apart.
        if cmd != "explore" {
            run(&with(&empty, "1+,1*").each_ref().map(String::as_str));
        }
    }
    run(&["faultsim", &good, "--modules", "1+,1*", "--width", "40"]);
    run(&[
        "batch", &good, "--modules", "1+,1*", "--faultsim", "--width", "40",
    ]);
    run(&["lint", &good, "--modules", "1+,1*", "--deny", "Q999"]);
    run(&["lint", &good, "--modules", "1+,1*", "--allow", "Q999"]);
    for flag in [
        "--modules",
        "--candidates",
        "--flow",
        "--width",
        "--jobs",
        "--iterations",
        "--seed",
        "--chains",
        "--deny",
        "--allow",
        "--permute",
        "--twin-kernels",
        "--sizes",
        "--out",
        "--tcp",
        "--unix",
        "--store",
        "--store-max-bytes",
        "--max-request-jobs",
        "--max-active",
        "--cmd",
        "--latency",
    ] {
        run(&["synth", &good, flag]);
    }
    for (flag, value) in [
        ("--flow", "magic"),
        ("--width", "1"),
        ("--width", "x"),
        ("--jobs", "0"),
        ("--iterations", "4294967296"),
        ("--seed", "0xZZ"),
        ("--chains", "0"),
        ("--chains", "257"),
        ("--permute", "x"),
        ("--twin-kernels", "x"),
        ("--store-max-bytes", "0"),
        ("--max-request-jobs", "0"),
        ("--max-active", "x"),
        ("--latency", "x"),
        ("--bogus", "1"),
    ] {
        run(&["synth", &good, "--modules", "1+,1*", flag, value]);
    }
    run(&["corpus", "--sizes", "8,x", "--out", dir]);
    run(&["levitate"]);
}

/// One fault per request: the daemon's error event for each job
/// command it applies to.
fn daemon_errors(out: &mut String, endpoint: &Endpoint) {
    let good = "input a b\ns = a + b @ 1\ny = s * a @ 2\noutput y\n";
    let all = ",\"modules\":\"1+,1*\",\"candidates\":\"1+,1*\"";
    let mut send = |line: String| {
        let _ = writeln!(out, "> {line}");
        out.push_str(&daemon(endpoint, &line));
    };
    for cmd in JOB_COMMANDS {
        send(request(cmd, None, all));
        if cmd == "explore" {
            send(request(cmd, Some(good), ""));
            send(request(cmd, Some(good), ",\"candidates\":\"1+,1*;1x\""));
        } else {
            send(request(cmd, Some(good), ""));
            send(request(cmd, Some(good), ",\"modules\":\"1x\""));
        }
        send(request(cmd, Some(BROKEN), all));
        send(request(
            cmd,
            Some(UNSCHEDULABLE),
            ",\"modules\":\"1+\",\"candidates\":\"1+\"",
        ));
        // `explore` on a design without operations is pinned apart.
        if cmd != "explore" {
            send(request(cmd, Some(EMPTY), all));
        }
    }
    send(request("faultsim", Some(good), ",\"modules\":\"1+,1*\",\"width\":40"));
}

#[test]
fn surface_outputs_match_their_golden() {
    let dir = scratch();
    let inputs = inputs();
    for input in &inputs {
        write(&dir, &input.file, &input.text);
    }
    let dir_text = dir.display().to_string();
    let mut out = String::from("## CLI\n");
    cli_outputs(&mut out, &dir_text, &inputs);
    out.push_str("## CLI errors\n");
    cli_errors(&mut out, &dir_text);

    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServerConfig {
        tcp: None,
        unix: Some(socket.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let endpoint = Endpoint::Unix(socket);
    out.push_str("## daemon\n");
    daemon_outputs(&mut out, &endpoint, &inputs);
    out.push_str("## daemon errors\n");
    daemon_errors(&mut out, &endpoint);
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");

    let actual = out.replace(&dir_text, "$DIR");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(Path::new(GOLDEN).parent().expect("a parent"))
            .expect("golden directory");
        std::fs::write(GOLDEN, &actual).expect("golden written");
        return;
    }
    let expected =
        std::fs::read_to_string(GOLDEN).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden line count"
    );
}
