//! End-to-end daemon tests over real sockets: sequential clients share
//! the cache and store (byte-identical `result` events), concurrent
//! clients see deterministic results, both transports round-trip, and
//! a restart answers from the durable store.

use std::path::PathBuf;

use lobist_server::json::Json;
use lobist_server::{client, Endpoint, Server, ServerConfig};

const DESIGN: &str = "input a b c d\n\
                      s1 = a + b @ 1\n\
                      s2 = c + d @ 2\n\
                      y = s1 * s2 @ 3\n\
                      output y\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lobist-server-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Binds a server, runs it on a background thread, returns the TCP
/// endpoint and the run-thread handle.
fn start(config: ServerConfig) -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.tcp_addr().expect("tcp enabled").to_string();
    let thread = std::thread::spawn(move || server.run());
    (Endpoint::Tcp(addr), thread)
}

fn synth_request() -> String {
    format!(
        r#"{{"cmd":"synth","design":"{}","modules":"1+,1*"}}"#,
        lobist_server::json::escape(DESIGN)
    )
}

fn event<'a>(events: &'a [String], name: &str) -> &'a String {
    let needle = format!("\"event\":\"{name}\"");
    events
        .iter()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no {name} event in {events:?}"))
}

fn shutdown(endpoint: &Endpoint) {
    let events = client::submit(endpoint, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    assert!(event(&events, "shutdown").contains("\"event\":\"shutdown\""));
}

#[test]
fn sequential_clients_share_cache_and_restart_hits_the_store() {
    let dir = temp_dir("restart");
    let store = dir.join("results.log");
    let config = ServerConfig {
        store: Some(store.clone()),
        ..ServerConfig::default()
    };
    let (endpoint, thread) = start(config.clone());

    // First client: fresh evaluation, written through to the store.
    let first = client::submit(&endpoint, &synth_request()).expect("first submit");
    let first_result = event(&first, "result").clone();
    assert!(
        event(&first, "done").contains("\"cache\":\"fresh\""),
        "{first:?}"
    );
    assert!(first_result.contains("\"point\":{"), "{first_result}");

    // Second client, same daemon: answered from memory, byte-identical
    // result event (ids differ; the payload must not).
    let second = client::submit(&endpoint, &synth_request()).expect("second submit");
    assert!(
        event(&second, "done").contains("\"cache\":\"memory\""),
        "{second:?}"
    );
    assert_eq!(
        payload_of(&first_result),
        payload_of(event(&second, "result")),
        "repeated request must render the identical result payload"
    );

    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
    assert!(store.exists(), "store survives shutdown");

    // Restarted daemon, cold in-memory cache: the store answers, and
    // the payload is still byte-identical.
    let (endpoint, thread) = start(config);
    let third = client::submit(&endpoint, &synth_request()).expect("post-restart submit");
    assert!(
        event(&third, "done").contains("\"cache\":\"store\""),
        "{third:?}"
    );
    assert_eq!(
        payload_of(&first_result),
        payload_of(event(&third, "result"))
    );

    // The metrics JSON reports the store section with the hit.
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(line.contains("\"store\":{"), "{line}");
    assert!(line.contains("\"store_hits\":1"), "{line}");
    assert!(line.contains("\"server\":{"), "{line}");
    assert!(line.contains("\"completed\":"), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn permuted_twin_is_answered_as_an_iso_hit() {
    // The same design as DESIGN with every name changed and the two
    // adds' lines swapped: structurally isomorphic, textually disjoint.
    let twin: &str = "input p q r t\n\
                      t2 = r + t @ 2\n\
                      t1 = p + q @ 1\n\
                      z = t1 * t2 @ 3\n\
                      output z\n";
    let (endpoint, thread) = start(ServerConfig::default());

    let first = client::submit(&endpoint, &synth_request()).expect("first submit");
    assert!(
        event(&first, "done").contains("\"cache\":\"fresh\""),
        "{first:?}"
    );
    let first_result = event(&first, "result").clone();

    // The twin never synthesizes: the canonical cache answers it as an
    // isomorphic hit, remapped — and the rendered point is identical
    // byte for byte (every reported quantity is label-invariant).
    let req = format!(
        r#"{{"cmd":"synth","design":"{}","modules":"1+,1*"}}"#,
        lobist_server::json::escape(twin)
    );
    let second = client::submit(&endpoint, &req).expect("twin submit");
    assert!(
        event(&second, "done").contains("\"cache\":\"iso\""),
        "{second:?}"
    );
    assert_eq!(
        payload_of(&first_result),
        payload_of(event(&second, "result"))
    );

    // The metrics JSON carries the canon section with the iso hit.
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(line.contains("\"canon\":{"), "{line}");
    assert!(line.contains("\"iso_hits\":1"), "{line}");
    assert!(line.contains("\"canon_micros_log2\":["), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

/// Strips the varying `"id":N` field, keeping everything else byte-for-
/// byte (the payload follows the id).
fn payload_of(result_line: &str) -> String {
    let rest = result_line
        .split_once(",\"point\":")
        .or_else(|| result_line.split_once(",\"failure\":"))
        .map(|(_, payload)| payload)
        .unwrap_or_else(|| panic!("no payload in {result_line}"));
    rest.to_owned()
}

#[test]
fn concurrent_clients_get_identical_results() {
    let (endpoint, thread) = start(ServerConfig::default());
    let mut workers = Vec::new();
    for _ in 0..4 {
        let endpoint = endpoint.clone();
        workers.push(std::thread::spawn(move || {
            client::submit(&endpoint, &synth_request()).expect("submit")
        }));
    }
    let runs: Vec<Vec<String>> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let reference = payload_of(event(&runs[0], "result"));
    for run in &runs[1..] {
        assert_eq!(reference, payload_of(event(run, "result")));
        assert!(event(run, "done").contains("\"ok\":true"));
    }
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_evaluation() {
    // Wide-open admission so identical requests genuinely overlap. The
    // engine's single-flight layer guarantees exactly one evaluation:
    // a follower either coalesces onto the in-flight leader or arrives
    // after the insert and hits the cache — both end at misses == 1,
    // hits == 3, deterministically, with identical payloads.
    let config = ServerConfig {
        workers: 4,
        max_active: 8,
        max_request_jobs: 8,
        ..ServerConfig::default()
    };
    let (endpoint, thread) = start(config);
    let mut workers = Vec::new();
    for _ in 0..4 {
        let endpoint = endpoint.clone();
        workers.push(std::thread::spawn(move || {
            client::submit(&endpoint, &synth_request()).expect("submit")
        }));
    }
    let runs: Vec<Vec<String>> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let reference = payload_of(event(&runs[0], "result"));
    for run in &runs[1..] {
        assert_eq!(reference, payload_of(event(run, "result")));
    }
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(
        line.contains("\"cache\":{\"hits\":3,\"misses\":1"),
        "single-flight must leave one miss and three hits: {line}"
    );
    // The coalesced counter is rendered (its exact value depends on
    // timing: a late follower hits the cache without ever waiting).
    assert!(line.contains("\"coalesced\":"), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn restarted_daemon_answers_a_shifted_twin_from_the_store() {
    // DESIGN renamed, reordered and moved two control steps later.
    let shifted: &str = "input p q r t\n\
                         t2 = r + t @ 4\n\
                         t1 = p + q @ 3\n\
                         z = t1 * t2 @ 5\n\
                         output z\n";
    let shifted_request = format!(
        r#"{{"cmd":"synth","design":"{}","modules":"1+,1*"}}"#,
        lobist_server::json::escape(shifted)
    );
    // Reference: the twin synthesized cold, on a daemon without a store.
    let (endpoint, thread) = start(ServerConfig::default());
    let cold = client::submit(&endpoint, &shifted_request).expect("cold submit");
    assert!(event(&cold, "done").contains("\"cache\":\"fresh\""), "{cold:?}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");

    let dir = temp_dir("shifted");
    let config = ServerConfig {
        store: Some(dir.join("results.log")),
        ..ServerConfig::default()
    };
    let (endpoint, thread) = start(config.clone());
    client::submit(&endpoint, &synth_request()).expect("prime the store");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");

    let (endpoint, thread) = start(config);
    let twin = client::submit(&endpoint, &shifted_request).expect("twin submit");
    assert!(event(&twin, "done").contains("\"cache\":\"iso\""), "{twin:?}");
    assert_eq!(
        payload_of(event(&cold, "result")),
        payload_of(event(&twin, "result")),
        "the store answer must match the twin's own cold synthesis"
    );
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(line.contains("\"store_hits\":1"), "{line}");
    assert!(!line.contains("\"subcanon\""), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn unix_socket_round_trips_every_command_kind() {
    let dir = temp_dir("unix");
    let sock = dir.join("lobist.sock");
    let config = ServerConfig {
        tcp: None,
        unix: Some(sock.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    assert!(server.tcp_addr().is_none());
    let thread = std::thread::spawn(move || server.run());
    let endpoint = Endpoint::Unix(sock.clone());

    let pong = client::submit(&endpoint, r#"{"cmd":"ping"}"#).expect("ping");
    assert!(event(&pong, "pong").contains("\"event\":\"pong\""));

    let synth = client::submit(&endpoint, &synth_request()).expect("synth");
    assert!(event(&synth, "result").contains("\"point\":{"));
    assert!(event(&synth, "accepted").contains("\"queue_depth\":"));

    let explore = client::submit(
        &endpoint,
        &format!(
            r#"{{"cmd":"explore","design":"{}","candidates":"1+,1*;2+,1*"}}"#,
            lobist_server::json::escape(
                "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n"
            )
        ),
    )
    .expect("explore");
    assert!(
        event(&explore, "result").contains("\"pareto\":["),
        "{explore:?}"
    );

    let lint = client::submit(
        &endpoint,
        &format!(
            r#"{{"cmd":"lint","design":"{}","modules":"1+,1*"}}"#,
            lobist_server::json::escape(DESIGN)
        ),
    )
    .expect("lint");
    assert!(
        event(&lint, "result").contains("\"clean\":true"),
        "{lint:?}"
    );

    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn malformed_and_oversized_requests_are_rejected() {
    let config = ServerConfig {
        max_design_bytes: 64,
        ..ServerConfig::default()
    };
    let (endpoint, thread) = start(config);

    let bad = client::submit(&endpoint, "this is not json").expect("submit");
    assert!(event(&bad, "error").contains("invalid JSON"), "{bad:?}");

    let unknown = client::submit(&endpoint, r#"{"cmd":"levitate"}"#).expect("submit");
    assert!(
        event(&unknown, "error").contains("unknown command"),
        "{unknown:?}"
    );

    let oversized = client::submit(&endpoint, &synth_request()).expect("submit");
    assert!(
        event(&oversized, "error").contains("design too large"),
        "{oversized:?}"
    );

    let missing = client::submit(&endpoint, r#"{"cmd":"synth","modules":"1+"}"#).expect("submit");
    assert!(
        event(&missing, "error").contains("missing field `design`"),
        "{missing:?}"
    );

    // Rejections are counted, and the daemon still works afterwards.
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    assert!(
        event(&metrics, "metrics").contains("\"rejected\":"),
        "{metrics:?}"
    );
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

/// Submits one `faultsim` request and returns its payload (everything
/// after the varying `"id":N`).
fn faultsim_payload(endpoint: &Endpoint, design: &str, extra: &str) -> String {
    let req = format!(
        r#"{{"cmd":"faultsim","design":"{}","modules":"1+,1*","width":5{extra}}}"#,
        lobist_server::json::escape(design)
    );
    let events = client::submit(endpoint, &req).expect("faultsim submit");
    assert!(
        event(&events, "done").contains("\"cache\":\"none\""),
        "{events:?}"
    );
    let line = event(&events, "result");
    line.split_once(",\"faultsim\":")
        .unwrap_or_else(|| panic!("no faultsim payload in {line}"))
        .1
        .to_owned()
}

#[test]
fn a_retired_lanes_field_leaves_the_faultsim_result_unchanged() {
    // One fresh daemon per request, so the session memo cannot answer
    // one from the other: each run simulates, and the payloads must
    // match byte for byte. Any `lanes` value is ignored, even one the
    // field once rejected.
    let fresh_run = |extra: &str| {
        let (endpoint, thread) = start(ServerConfig::default());
        let payload = faultsim_payload(&endpoint, DESIGN, extra);
        shutdown(&endpoint);
        thread.join().expect("run thread").expect("clean shutdown");
        payload
    };
    let plain = fresh_run("");
    for lanes in ["64", "256", r#""auto""#, "512"] {
        assert_eq!(
            plain,
            fresh_run(&format!(r#","lanes":{lanes}"#)),
            "lanes {lanes}"
        );
    }

    // The metrics JSON tallies the runs under their concrete widths:
    // width 5 gives 31-pattern sessions, which run at 64 lanes.
    let (endpoint, thread) = start(ServerConfig::default());
    faultsim_payload(&endpoint, DESIGN, "");
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(line.contains("\"lanes\":{"), "{line}");
    assert!(line.contains("\"64\":{\"runs\":2,"), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn anneal_and_faultsim_run_on_the_daemon() {
    let (endpoint, thread) = start(ServerConfig::default());
    let anneal = client::submit(
        &endpoint,
        &format!(
            r#"{{"cmd":"anneal","design":"{}","modules":"1+,1*","iterations":30,"seed":48879}}"#,
            lobist_server::json::escape(DESIGN)
        ),
    )
    .expect("anneal");
    let line = event(&anneal, "result");
    assert!(
        line.contains("\"anneal\":{\"iterations\":30,\"seed\":48879"),
        "{line}"
    );
    assert!(line.contains("\"overhead\":"), "{line}");

    let fs = client::submit(
        &endpoint,
        &format!(
            r#"{{"cmd":"faultsim","design":"{}","modules":"1+,1*","width":5}}"#,
            lobist_server::json::escape(DESIGN)
        ),
    )
    .expect("faultsim");
    let line = event(&fs, "result");
    assert!(line.contains("\"faultsim\":{\"width\":5"), "{line}");
    assert!(line.contains("\"coverage\":"), "{line}");

    // Both recorded work into the shared engine metrics.
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(line.contains("\"anneal\":{\"runs\":1"), "{line}");
    assert!(!line.contains("\"faults_simulated\":0,"), "{line}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn faultsim_sessions_are_shared_across_requests_byte_identically() {
    // DESIGN with its adders fed differently: another design, but the
    // same module kinds at the same indices, so the same BIST sessions.
    let other: &str = "input a b c d\n\
                       s1 = a + c @ 1\n\
                       s2 = b + d @ 2\n\
                       y = s2 * s1 @ 3\n\
                       output y\n";
    let (endpoint, thread) = start(ServerConfig::default());
    let reference = faultsim_payload(&endpoint, other, "");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");

    let (endpoint, thread) = start(ServerConfig::default());
    faultsim_payload(&endpoint, DESIGN, "");
    assert_eq!(
        faultsim_payload(&endpoint, other, ""),
        reference,
        "a memo-answered payload must match a fresh daemon's"
    );
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    let line = event(&metrics, "metrics");
    assert!(
        line.contains("\"session_memo\":{\"hits\":2,\"misses\":2}"),
        "{line}"
    );
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn faultsim_rejects_an_out_of_range_width_before_synthesis() {
    let (endpoint, thread) = start(ServerConfig::default());
    let req = format!(
        r#"{{"cmd":"faultsim","design":"{}","modules":"1+","width":40}}"#,
        lobist_server::json::escape(DESIGN)
    );
    // `1+` cannot synthesize DESIGN's multiplication: the width error
    // proves the check ran first.
    let events = client::submit(&endpoint, &req).expect("submit");
    let error = event(&events, "error");
    assert!(error.contains("out of range (expected 2..=20)"), "{error}");
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn hostile_job_fields_and_broken_schedules_get_errors_and_the_daemon_serves_on() {
    let (endpoint, thread) = start(ServerConfig::default());
    let request = |fields: &str, design: &str| {
        let line = format!(
            r#"{{"design":"{}","modules":"1+,1*",{fields}}}"#,
            lobist_server::json::escape(design)
        );
        client::submit(&endpoint, &line).expect("submit")
    };
    // A chain count past the ceiling would allocate one task per chain.
    let huge = request(r#""cmd":"anneal","chains":1000000000000000"#, DESIGN);
    assert!(event(&huge, "error").contains("`chains`"), "{huge:?}");
    // An annotated schedule is checked, never replaced by a list
    // schedule: `s` runs after its consumer `y`, and `t` has no step.
    let broken = "input a b\ns = a + b @ 2\ny = s + a @ 1\noutput y\n";
    let events = request(r#""cmd":"synth""#, broken);
    let error = event(&events, "error");
    assert!(error.contains("same or an earlier step"), "{events:?}");
    let partial = "input a b\ns = a + b @ 1\nt = s + a\noutput t\n";
    let events = request(r#""cmd":"synth""#, partial);
    let error = event(&events, "error");
    assert!(
        error.contains("line 3: operation `t` has no `@ step`"),
        "{events:?}"
    );

    let pong = client::submit(&endpoint, r#"{"cmd":"ping"}"#).expect("ping");
    assert!(event(&pong, "pong").contains("\"event\":\"pong\""));
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn empty_designs_and_out_of_range_steps_get_errors_and_the_daemon_serves_on() {
    let (endpoint, thread) = start(ServerConfig::default());
    let request = |cmd: &str, design: &str| {
        let line = format!(
            r#"{{"cmd":"{cmd}","design":"{}","modules":"1+,1*"}}"#,
            lobist_server::json::escape(design)
        );
        client::submit(&endpoint, &line).expect("submit")
    };
    for cmd in ["synth", "lint"] {
        let events = request(cmd, "# a comment and nothing else\n");
        assert!(
            event(&events, "error").contains("no operations"),
            "{cmd}: {events:?}"
        );
    }
    let events = request("synth", "input a b\ny = a + b @ 4294967295\noutput y\n");
    assert!(
        event(&events, "error").contains("largest supported"),
        "{events:?}"
    );
    let events = request("synth", "input a b\ny = a + b @ 4000000000\noutput y\n");
    assert!(
        event(&events, "result").contains("\"latency\":4000000000"),
        "{events:?}"
    );

    let pong = client::submit(&endpoint, r#"{"cmd":"ping"}"#).expect("ping");
    assert!(event(&pong, "pong").contains("\"event\":\"pong\""));
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn explore_rejects_a_design_without_operations() {
    let (endpoint, thread) = start(ServerConfig::default());
    for design in ["# a comment and nothing else\n", "input a\noutput a\n"] {
        let line = format!(
            r#"{{"cmd":"explore","design":"{}","candidates":"1+"}}"#,
            lobist_server::json::escape(design)
        );
        let events = client::submit(&endpoint, &line).expect("submit");
        assert_eq!(
            message(event(&events, "error")),
            "design has no operations",
            "{design:?}: {events:?}"
        );
    }
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

#[path = "../../../tests/support/metrics_golden.rs"]
mod golden;

/// The daemon's `metrics` reply after a fixed, sequential request
/// sequence, against its golden (timing values masked). Regenerate with
/// `UPDATE_GOLDENS=1 cargo test -p lobist-server --test e2e daemon_metrics_golden`.
#[test]
fn daemon_metrics_golden() {
    let dir = temp_dir("metrics-golden");
    let (endpoint, thread) = start(ServerConfig {
        store: Some(dir.join("results.log")),
        ..ServerConfig::default()
    });
    let twin: &str = "input p q r t\n\
                      t2 = r + t @ 2\n\
                      t1 = p + q @ 1\n\
                      z = t1 * t2 @ 3\n\
                      output z\n";
    let request = |cmd: &str, design: &str, extra: &str| {
        let line = format!(
            r#"{{"cmd":"{cmd}","design":"{}","modules":"1+,1*","jobs":1{extra}}}"#,
            lobist_server::json::escape(design)
        );
        client::submit(&endpoint, &line).expect("submit")
    };
    client::submit(&endpoint, r#"{"cmd":"ping"}"#).expect("ping");
    request("synth", DESIGN, "");
    request("synth", DESIGN, "");
    request("synth", twin, "");
    request("lint", DESIGN, "");
    request("analyze", DESIGN, "");
    request("faultsim", DESIGN, r#","width":5"#);
    request("anneal", DESIGN, r#","iterations":30,"seed":48879"#);
    client::submit(&endpoint, r#"{"cmd":"levitate"}"#).expect("submit");
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    golden::check(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/metrics/daemon.json"),
        event(&metrics, "metrics"),
    );
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

/// The `message` of a daemon event line, which must parse as JSON.
fn message(line: &str) -> String {
    let event = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    event.get("message").and_then(Json::as_str).expect("a message").to_owned()
}

#[test]
fn error_events_are_json_for_any_message_text() {
    let (endpoint, thread) = start(ServerConfig::default());
    // An escape character in the command name: Rust's `{:?}` writes it
    // as `\u{1b}`, which no JSON parser accepts.
    let events = client::submit(&endpoint, r#"{"cmd":"\u001bx"}"#).expect("submit");
    assert_eq!(message(event(&events, "error")), "unknown command `\u{1b}x`");
    // A result name ending in a zero-width space (`\u{200b}` under `{:?}`).
    let design = "input a b\nx\u{200b} = a + b @ 1\noutput x\u{200b}\n";
    let line = format!(
        r#"{{"cmd":"synth","design":"{}","modules":"1+"}}"#,
        lobist_server::json::escape(design)
    );
    let events = client::submit(&endpoint, &line).expect("submit");
    assert_eq!(
        message(event(&events, "error")),
        "design: line 2: bad result name `x\u{200b}`"
    );
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}

/// The protocol is one JSON object per line: every line of every
/// response parses, for each command, a ping and an error event. The
/// `analyze` report, pretty-printed for the CLI, travels as one line.
#[test]
fn every_response_line_parses_as_json() {
    let (endpoint, thread) = start(ServerConfig::default());
    let design = lobist_server::json::escape(DESIGN);
    let unscheduled = lobist_server::json::escape(
        "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n",
    );
    let requests = [
        ("synth", synth_request()),
        (
            "lint",
            format!(r#"{{"cmd":"lint","design":"{design}","modules":"1+,1*"}}"#),
        ),
        (
            "analyze",
            format!(r#"{{"cmd":"analyze","design":"{design}","modules":"1+,1*"}}"#),
        ),
        (
            "faultsim",
            format!(r#"{{"cmd":"faultsim","design":"{design}","modules":"1+,1*","width":5}}"#),
        ),
        (
            "anneal",
            format!(r#"{{"cmd":"anneal","design":"{design}","modules":"1+,1*","iterations":30}}"#),
        ),
        (
            "explore",
            format!(r#"{{"cmd":"explore","design":"{unscheduled}","candidates":"1+,1*;2+,1*"}}"#),
        ),
        ("metrics", r#"{"cmd":"metrics"}"#.to_owned()),
        ("ping", r#"{"cmd":"ping"}"#.to_owned()),
        (
            "error",
            r#"{"cmd":"synth","design":"input a\n","modules":"1+"}"#.to_owned(),
        ),
    ];
    for (name, request) in requests {
        let events = client::submit(&endpoint, &request).expect("submit");
        for line in &events {
            let event = Json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            assert!(
                event.get("event").and_then(Json::as_str).is_some(),
                "{name}: {line}"
            );
        }
        let terminal = match name {
            "metrics" | "error" => name,
            "ping" => "pong",
            _ => "done",
        };
        event(&events, terminal);
        if name == "analyze" {
            let result = Json::parse(event(&events, "result")).expect("parsed above");
            let report = result.get("analyze").expect("an analyze payload");
            assert!(
                report.get("summary").and_then(|s| s.get("cones")).is_some(),
                "{events:?}"
            );
        }
    }
    shutdown(&endpoint);
    thread.join().expect("run thread").expect("clean shutdown");
}
