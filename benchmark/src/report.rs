//! What one workload run produces, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::digest::Digest;
use crate::json::Json;
use crate::stats;
use crate::Workload;

/// Deterministic work counters gated exactly against the goldens: each
/// repeats exactly for a given seed and workload size.
pub const GATED: [(&str, &[&str]); 9] = [
    ("cache_hits", &["cache", "hits"]),
    ("cache_misses", &["cache", "misses"]),
    ("store_hits", &["cache", "store_hits"]),
    ("iso_hits", &["canon", "iso_hits"]),
    ("canon_bailouts", &["canon", "bailouts"]),
    ("core_memo_hits", &["subcanon", "core_hits"]),
    ("cone_evals", &["fault_sim", "cone_evals"]),
    ("events_propagated", &["fault_sim", "events_propagated"]),
    ("faults_simulated", &["fault_sim", "faults_simulated"]),
];

/// Counters reported next to the gated ones but never gated:
/// `coalesced` depends on timing, and the store's byte count on the
/// record format.
const REPORTED: [(&str, &[&str]); 2] = [
    ("coalesced", &["cache", "coalesced"]),
    ("store_bytes_written", &["store", "bytes_written"]),
];

/// Counters keyed by name; absent sections read as 0.
pub type Counters = BTreeMap<&'static str, u64>;

/// Adds the counters of one engine metrics snapshot to `into`.
pub fn add_counters(into: &mut Counters, metrics_json: &str) -> Result<(), String> {
    let j =
        Json::parse(metrics_json).ok_or_else(|| format!("unparsable metrics: {metrics_json}"))?;
    for (name, path) in GATED.iter().chain(&REPORTED) {
        *into.entry(name).or_default() += j.num(path).unwrap_or(0.0) as u64;
    }
    Ok(())
}

/// The gated subset of `c`, in `GATED` order.
pub fn gated(c: &Counters) -> Vec<(&'static str, u64)> {
    GATED
        .iter()
        .map(|(name, _)| (*name, c.get(name).copied().unwrap_or(0)))
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples the value summarizes (empty for single numbers).
    pub samples: Vec<f64>,
    /// How the value was derived.
    pub how: String,
}

impl Metric {
    /// A metric with its derivation note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, how: impl Into<String>) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
            how: how.into(),
        }
    }

    /// The median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        let how = format!("median of {}", samples.len());
        Metric {
            value: stats::median(&samples),
            samples,
            ..Metric::new(name, unit, 0.0, how)
        }
    }
}

/// The result of running one workload.
#[derive(Debug)]
pub struct Report {
    /// Which workload.
    pub workload: Workload,
    /// Operations attempted (designs or requests).
    pub attempted: u64,
    /// Operations that failed: error events, nonzero exits, transport
    /// failures and result mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Work counters of one pass over the inputs.
    pub counters: Counters,
    /// Digest of one pass's normalized result payloads.
    pub digest: Option<Digest>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload) -> Self {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            counters: Counters::new(),
            digest: None,
            notes: Vec::new(),
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg.into());
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} == {} attempted, {} failed",
            self.workload.name(),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let spread = if m.samples.len() > 1 {
                format!("spread {:5.1}%", 100.0 * stats::spread(&m.samples))
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>10.4} {:<6} {:<14} {}",
                m.name, m.value, m.unit, spread, m.how
            );
        }
        if let Some(d) = self.digest {
            let _ = writeln!(out, "  digest {}", d.hex());
        }
        if !self.counters.is_empty() {
            let cells: Vec<String> = self
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(out, "  counters {}", cells.join(" "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
        out
    }

    /// The metrics as a JSON object body, names prefixed by `prefix`.
    pub fn metrics_json(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect()
    }
}

/// A finite JSON number with every digit (non-finite values read as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// The final result line over one or more reports.
pub fn result_line(reports: &[Report], prefixed: bool) -> String {
    let correct = reports.iter().all(Report::correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            let prefix = if prefixed {
                format!("{}.", r.workload.name())
            } else {
                String::new()
            };
            r.metrics_json(&prefix)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}
