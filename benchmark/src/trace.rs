//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! and written out when the run ends. One thread drives the replay and
//! owns the span stack; a span opened on another thread (the store
//! wrapper runs on the engine's pool threads) takes the replaying
//! thread's innermost open span as its parent.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Parent span id, 0 for a top-level span.
    pub parent: u64,
    /// The request or design this span served.
    pub op: u64,
    /// Layer name, e.g. `core.register_alloc`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder; disabled tracers only run the closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    /// Open spans of the driving thread: `(id, op)`.
    stack: Mutex<Vec<(u64, u64)>>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            stack: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn top(&self) -> (u64, u64) {
        let stack = self.stack.lock().expect("span stack lock");
        stack.last().copied().unwrap_or((0, 0))
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Runs `f` inside a span on the driving thread; spans opened while
    /// `f` runs become its children.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stack = self.stack.lock().expect("span stack lock");
            let parent = stack.last().map_or(0, |&(id, _)| id);
            stack.push((id, op));
            parent
        };
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.stack.lock().expect("span stack lock").pop();
        self.record(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs `f` inside a leaf span from any thread, parented to the
    /// replaying thread's innermost open span.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = self.top();
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.record(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Takes the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so overlapping parallel
/// children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes spans as JSON lines (`id, parent, op, name, start_ns,
/// end_ns`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; parallel children 10..40 and 30..60 overlap on
        // 30..40, plus 80..120 which runs past the parent's end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 80, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 20);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&4], 40);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 0, 10),
            span(3, 1, 20, 30),
            span(4, 3, 21, 29),
            span(5, 1, 25, 28),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 10 - 10);
        assert_eq!(st[&3], 2);
        assert_eq!(st[&5], 3);
    }

    #[test]
    fn recorder_links_parents_and_leaves() {
        let t = Tracer::new(true);
        t.span("outer", 7, || {
            t.span("inner", 7, || ());
            std::thread::scope(|s| {
                s.spawn(|| t.leaf("worker", || ()));
            });
        });
        let spans = t.take();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent, 0);
        for name in ["inner", "worker"] {
            let s = spans.iter().find(|s| s.name == name).expect(name);
            assert_eq!(s.parent, outer.id, "{name}");
            assert!(s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns);
        }
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert!(off.take().is_empty());
    }
}
