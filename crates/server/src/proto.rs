//! The wire protocol: one JSON object per line, in both directions.
//!
//! A request names a command and carries the design text inline —
//! the daemon never touches the client's filesystem, and the store's
//! content addressing keys on exactly what was sent:
//!
//! ```json
//! {"cmd":"synth","design":"input a b\n...","modules":"1+,1*"}
//! {"cmd":"explore","design":"...","candidates":"1+,1*;2+,1*"}
//! {"cmd":"anneal","design":"...","modules":"1+,1*","iterations":100}
//! {"cmd":"faultsim","design":"...","modules":"1+,1*","width":6}
//! {"cmd":"lint","design":"...","modules":"1+,1*"}
//! {"cmd":"analyze","design":"...","modules":"1+,1*"}
//! {"cmd":"ping"}   {"cmd":"metrics"}   {"cmd":"shutdown"}
//! ```
//!
//! A request's job fields are exactly [`FIELDS`], checked by
//! [`JobSpec::set`]; keys outside them are ignored, so a field an older
//! client still sends (such as the retired anneal `batch` or
//! fault-simulation `lanes`) is harmless.
//!
//! The response is a stream of JSONL events: `accepted` (queue
//! position), then `result` (the payload — rendered only from the
//! job's result, so a store-served replay is byte-identical to the
//! original), then the terminal `done` record (timing and cache
//! provenance, which legitimately vary between runs). Failures end with
//! a terminal `error` event instead. Each event is written whole, line
//! and newline together: `accepted` is flushed on admission, before the
//! job runs, and `result` and `done` go out together in one write.

use lobist_engine::spec::{Value, FIELDS};
use lobist_engine::JobSpec;

use crate::json::{escape, Json};

/// The commands a request line can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Synthesize one design.
    Synth,
    /// Pareto exploration over candidate module sets.
    Explore,
    /// Simulated-annealing register search.
    Anneal,
    /// Gate-level stuck-at fault simulation of the BIST sessions.
    FaultSim,
    /// Static verifier passes over the synthesized design.
    Lint,
    /// Static testability analysis (COP probabilities, redundant
    /// faults, test-mode reachability) — no simulation.
    Analyze,
    /// Liveness probe.
    Ping,
    /// Engine + store + server metrics snapshot.
    Metrics,
    /// Graceful shutdown: drain in-flight work, flush the store.
    Shutdown,
}

impl Command {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "synth" => Command::Synth,
            "explore" => Command::Explore,
            "anneal" => Command::Anneal,
            "faultsim" => Command::FaultSim,
            "lint" => Command::Lint,
            "analyze" => Command::Analyze,
            "ping" => Command::Ping,
            "metrics" => Command::Metrics,
            "shutdown" => Command::Shutdown,
            _ => return None,
        })
    }

    /// `true` for commands that run synthesis work and therefore pass
    /// through the admission queue (the others are answered inline).
    pub fn is_job(self) -> bool {
        matches!(
            self,
            Command::Synth
                | Command::Explore
                | Command::Anneal
                | Command::FaultSim
                | Command::Lint
                | Command::Analyze
        )
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The command.
    pub cmd: Command,
    /// Inline design text (the `.dfg` file contents).
    pub design: Option<String>,
    /// The job fields; a request's `jobs` is clamped by server policy.
    pub spec: JobSpec,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown command, or a job field of the wrong type or out of range.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let cmd_name = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field `cmd`")?;
    let cmd = Command::parse(cmd_name).ok_or_else(|| format!("unknown command `{cmd_name}`"))?;
    let design = match v.get("design") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("field `design` must be a string".into()),
    };
    let mut spec = JobSpec::default();
    for field in &FIELDS {
        let value = match v.get(field.key) {
            None | Some(Json::Null) => continue,
            Some(Json::Bool(b)) => Some(Value::Bool(*b)),
            Some(Json::Str(s)) => Some(Value::Text(s)),
            Some(n) => n.as_u64().map(Value::Int),
        };
        value
            .ok_or(field)
            .and_then(|value| spec.set(field, value))
            .map_err(|f| format!("{}: field `{}` must be {}", f.what, f.key, f.expects))?;
    }
    Ok(Request { cmd, design, spec })
}

/// Renders the request line `lobist submit` sends, the inverse of
/// [`parse_request`]: the daemon reads back exactly `spec`.
pub fn render_request(cmd: &str, design: Option<&str>, spec: &JobSpec) -> String {
    let mut fields = vec![format!("\"cmd\":\"{}\"", escape(cmd))];
    fields.extend(design.map(|text| format!("\"design\":\"{}\"", escape(text))));
    fields.extend(spec.values().map(|(key, value)| match value {
        Value::Bool(b) => format!("\"{key}\":{b}"),
        Value::Int(n) => format!("\"{key}\":{n}"),
        Value::Text(s) => format!("\"{key}\":\"{}\"", escape(s)),
    }));
    format!("{{{}}}", fields.join(","))
}

/// `true` if a response line is a terminal event — the last line the
/// server sends for one request.
pub fn is_terminal_event(line: &str) -> bool {
    ["done", "error", "pong", "metrics", "shutdown"]
        .iter()
        .any(|e| line.contains(&format!("\"event\":\"{e}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synth_request() {
        let r = parse_request(
            r#"{"cmd":"synth","design":"input a\n","modules":"1+","flow":"traditional","width":16,"jobs":2,"repair":true}"#,
        )
        .expect("valid");
        assert_eq!(r.cmd, Command::Synth);
        assert!(r.cmd.is_job());
        assert_eq!(r.design.as_deref(), Some("input a\n"));
        assert_eq!(r.spec.modules.as_deref(), Some("1+"));
        assert_eq!(r.spec.flow.name(), "traditional");
        assert_eq!(r.spec.width, 16);
        assert_eq!(r.spec.jobs, Some(2));
        assert!(r.spec.repair);
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse_request(r#"{"cmd":"ping"}"#).expect("valid");
        assert_eq!(r.cmd, Command::Ping);
        assert!(!r.cmd.is_job());
        assert_eq!(r.spec.flow.name(), "testable");
        assert_eq!(r.spec.width, 8);
        assert_eq!(r.spec.jobs, None);
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"design":"x"}"#, "missing string field `cmd`"),
            (r#"{"cmd":"fly"}"#, "unknown command"),
            (r#"{"cmd":"synth","flow":"magic"}"#, "unknown flow"),
            (r#"{"cmd":"synth","width":1}"#, "`width`"),
            (r#"{"cmd":"synth","jobs":0}"#, "`jobs`"),
            (r#"{"cmd":"synth","modules":7}"#, "`modules` must be a string"),
            (
                r#"{"cmd":"anneal","iterations":4294967297}"#,
                "`iterations`",
            ),
            (r#"{"cmd":"anneal","chains":0}"#, "`chains`"),
            (r#"{"cmd":"anneal","chains":1000000000000000}"#, "`chains`"),
            (r#"{"cmd":"synth","repair":"yes"}"#, "`repair`"),
            (r#"{"cmd":"synth","port_inputs":1}"#, "`port_inputs`"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        // The anneal `batch` field was retired; an old client may still
        // send it, even a value it once rejected.
        let r = parse_request(r#"{"cmd":"anneal","batch":0,"chains":2}"#).expect("valid");
        assert_eq!(r.cmd, Command::Anneal);
        assert_eq!(
            r.spec,
            JobSpec {
                chains: Some(2),
                ..JobSpec::default()
            }
        );
        // So was `lanes`: the simulator picks its own lane width.
        for lanes in ["64", r#""auto""#, "512", "true"] {
            let line = format!(r#"{{"cmd":"faultsim","lanes":{lanes}}}"#);
            assert_eq!(
                parse_request(&line).expect("valid").spec,
                JobSpec::default(),
                "{line}"
            );
        }
    }

    #[test]
    fn parses_an_analyze_request() {
        let r = parse_request(r#"{"cmd":"analyze","design":"input a
","modules":"1+"}"#)
            .expect("parses");
        assert_eq!(r.cmd, Command::Analyze);
        assert!(r.cmd.is_job());
    }

    #[test]
    fn terminal_events_are_recognized() {
        assert!(is_terminal_event(r#"{"event":"done","id":1}"#));
        assert!(is_terminal_event(r#"{"event":"error","id":1}"#));
        assert!(is_terminal_event(r#"{"event":"pong","id":1}"#));
        assert!(!is_terminal_event(r#"{"event":"accepted","id":1}"#));
        assert!(!is_terminal_event(r#"{"event":"result","id":1}"#));
    }
}
