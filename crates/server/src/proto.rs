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
//! The response is a stream of JSONL events, flushed per line:
//! `accepted` (queue position), then `result` (the payload — rendered
//! only from the job's result, so a store-served replay is
//! byte-identical to the original), then the terminal `done` record
//! (timing and cache provenance, which legitimately vary between
//! runs). Failures end with a terminal `error` event instead.

use lobist_engine::LaneSelect;

use crate::json::Json;

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
    /// Module set, e.g. `"1+,1*"`.
    pub modules: Option<String>,
    /// Semicolon-separated module sets for `explore`.
    pub candidates: Option<String>,
    /// `"testable"` (default) or `"traditional"`.
    pub flow: String,
    /// Data-path bit width (default 8).
    pub width: u32,
    /// Insert test points for otherwise-untestable modules.
    pub repair: bool,
    /// Primary inputs live on ports instead of registers.
    pub port_inputs: bool,
    /// Per-request worker budget (clamped by server policy).
    pub jobs: Option<usize>,
    /// Annealing iterations.
    pub iterations: Option<u32>,
    /// Annealing seed.
    pub seed: Option<u64>,
    /// Annealing speculative batch size.
    pub batch: Option<u32>,
    /// Annealing chain count.
    pub chains: Option<usize>,
    /// Fault-simulation lane width (64, 256 or `"auto"`).
    /// Results are byte-identical at every width; this is a
    /// performance knob only, so it never enters the job key.
    pub lanes: LaneSelect,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown command, or ill-typed fields.
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
    let str_field = |key: &str| -> Result<Option<String>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(format!("field `{key}` must be a string")),
        }
    };
    let flow = str_field("flow")?.unwrap_or_else(|| "testable".to_owned());
    if flow != "testable" && flow != "traditional" {
        return Err(format!("unknown flow `{flow}`"));
    }
    let width = match v.get("width") {
        None | Some(Json::Null) => 8,
        Some(n) => n
            .as_u32()
            .filter(|w| (2..=64).contains(w))
            .ok_or("field `width` must be an integer in 2..=64")?,
    };
    let num = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
        }
    };
    let jobs = num("jobs")?.map(|n| n as usize);
    if jobs == Some(0) {
        return Err("field `jobs` must be at least 1".into());
    }
    let lanes_err = || format!("field `lanes` must be {}", LaneSelect::EXPECTED);
    let lanes = match v.get("lanes") {
        None | Some(Json::Null) => LaneSelect::Auto,
        Some(Json::Str(s)) => LaneSelect::parse(s).ok_or_else(lanes_err)?,
        Some(n) => n
            .as_u64()
            .and_then(|w| LaneSelect::parse(&w.to_string()))
            .ok_or_else(lanes_err)?,
    };
    Ok(Request {
        cmd,
        design: str_field("design")?,
        modules: str_field("modules")?,
        candidates: str_field("candidates")?,
        flow,
        width,
        repair: v.get("repair").and_then(Json::as_bool).unwrap_or(false),
        port_inputs: v.get("port_inputs").and_then(Json::as_bool).unwrap_or(false),
        jobs,
        iterations: num("iterations")?.map(|n| n as u32),
        seed: num("seed")?,
        batch: num("batch")?.map(|n| n as u32),
        chains: num("chains")?.map(|n| n as usize),
        lanes,
    })
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
        assert_eq!(r.modules.as_deref(), Some("1+"));
        assert_eq!(r.flow, "traditional");
        assert_eq!(r.width, 16);
        assert_eq!(r.jobs, Some(2));
        assert!(r.repair);
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse_request(r#"{"cmd":"ping"}"#).expect("valid");
        assert_eq!(r.cmd, Command::Ping);
        assert!(!r.cmd.is_job());
        assert_eq!(r.flow, "testable");
        assert_eq!(r.width, 8);
        assert_eq!(r.jobs, None);
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
            (r#"{"cmd":"faultsim","lanes":128}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":"wide"}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":1024}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":512}"#, "64 | 256 | auto"),
            (r#"{"cmd":"faultsim","lanes":"512"}"#, "64 | 256 | auto"),
            (r#"{"cmd":"faultsim","lanes":true}"#, "`lanes`"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
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
    fn lanes_accept_numbers_and_auto() {
        for (line, want) in [
            (r#"{"cmd":"faultsim"}"#, LaneSelect::Auto),
            (r#"{"cmd":"faultsim","lanes":null}"#, LaneSelect::Auto),
            (r#"{"cmd":"faultsim","lanes":"auto"}"#, LaneSelect::Auto),
            (r#"{"cmd":"faultsim","lanes":64}"#, LaneSelect::W64),
            (r#"{"cmd":"faultsim","lanes":"256"}"#, LaneSelect::W256),
        ] {
            assert_eq!(parse_request(line).expect(line).lanes, want, "{line}");
        }
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
