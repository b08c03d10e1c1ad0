//! Intervals, interval conflict graphs and sweep-based clique analysis.
//!
//! Variable lifetimes in a scheduled data flow graph are half-open integer
//! intervals `[start, end)`. Two variables *conflict* (cannot share a
//! register) exactly when their intervals overlap, so the conflict graph of
//! a straight-line behavioural description is an interval graph.

use crate::UGraph;

/// A half-open integer interval `[start, end)`.
///
/// Used to model variable lifetimes measured in control steps. An empty
/// interval (`start == end`) conflicts with nothing.
///
/// # Examples
///
/// ```
/// use lobist_graph::interval::Interval;
///
/// let a = Interval::new(0, 2);
/// let b = Interval::new(1, 3);
/// let c = Interval::new(2, 4);
/// assert!(a.overlaps(&b));
/// assert!(!a.overlaps(&c)); // half-open: [0,2) and [2,4) only touch
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive start (the control step at which the value becomes live).
    pub start: u32,
    /// Exclusive end (the first control step at which the value is dead).
    pub end: u32,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(end >= start, "interval end {end} before start {start}");
        Self { start, end }
    }

    /// Length of the interval in control steps.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// `true` if the interval covers no control steps.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` if the two half-open intervals intersect.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start.max(other.start) < self.end.min(other.end)
    }

    /// `true` if `point` lies inside `[start, end)`.
    pub fn contains(&self, point: u32) -> bool {
        self.start <= point && point < self.end
    }
}

/// Builds the conflict graph of a set of lifetimes: vertex per interval,
/// edge where two intervals overlap. The sweep that [`overlapping_pairs`]
/// runs visits only overlapping pairs; here it sets each pair's two bits
/// in the graph's adjacency rows, and the sorted neighbour lists are read
/// off the rows. No pair list is built or sorted.
///
/// # Examples
///
/// ```
/// use lobist_graph::interval::{conflict_graph, Interval};
///
/// let g = conflict_graph(&[Interval::new(0, 3), Interval::new(2, 4), Interval::new(3, 5)]);
/// assert!(g.has_edge(0, 1));
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 2));
/// ```
pub fn conflict_graph(intervals: &[Interval]) -> UGraph {
    let n = intervals.len();
    let words = n.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    for_each_overlap(intervals, |i, j| {
        rows[i * words + j / 64] |= 1 << (j % 64);
        rows[j * words + i / 64] |= 1 << (i % 64);
    });
    UGraph::from_rows(n, rows)
}

/// The maximum number of simultaneously live intervals — the size of the
/// largest clique of the conflict graph, and therefore the minimum number
/// of registers required.
///
/// # Examples
///
/// ```
/// use lobist_graph::interval::{max_overlap, Interval};
///
/// let spans = [Interval::new(0, 2), Interval::new(1, 3), Interval::new(1, 4)];
/// assert_eq!(max_overlap(&spans), 3);
/// ```
pub fn max_overlap(intervals: &[Interval]) -> usize {
    let mut events: Vec<(u32, i32)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        if !iv.is_empty() {
            events.push((iv.start, 1));
            events.push((iv.end, -1));
        }
    }
    // Process departures before arrivals at the same time point so that
    // half-open touching intervals do not count as overlapping.
    events.sort_unstable_by_key(|&(t, d)| (t, d));
    let mut live = 0i32;
    let mut best = 0i32;
    for (_, d) in events {
        live += d;
        best = best.max(live);
    }
    best as usize
}

/// For each interval, the size of the largest clique it belongs to in the
/// conflict graph — i.e. the maximum number of intervals simultaneously
/// live at some control step within it.
///
/// This is the paper's `MCS(v)` statistic used to order the perfect vertex
/// elimination scheme: a variable in a large clique has few registers it
/// can go to, so it is colored early.
///
/// Empty intervals belong only to the trivial clique of themselves and get
/// `MCS = 1`.
///
/// # Examples
///
/// ```
/// use lobist_graph::interval::{max_clique_sizes, Interval};
///
/// let spans = [Interval::new(0, 2), Interval::new(1, 3), Interval::new(1, 4), Interval::new(5, 6)];
/// assert_eq!(max_clique_sizes(&spans), vec![3, 3, 3, 1]);
/// ```
pub fn max_clique_sizes(intervals: &[Interval]) -> Vec<usize> {
    // Interval graphs have the Helly property, so every maximal clique
    // is the set of intervals live at some interval's start. Count the
    // live intervals at each distinct start (starts so far minus ends so
    // far, empty intervals left out: they contain no point), then take
    // each interval's maximum over the starts it contains.
    let non_empty = || intervals.iter().filter(|iv| !iv.is_empty());
    let mut starts: Vec<u32> = non_empty().map(|iv| iv.start).collect();
    let mut ends: Vec<u32> = non_empty().map(|iv| iv.end).collect();
    starts.sort_unstable();
    ends.sort_unstable();
    let mut points = starts.clone();
    points.dedup();
    let live: Vec<usize> = points
        .iter()
        .map(|&t| starts.partition_point(|&s| s <= t) - ends.partition_point(|&e| e <= t))
        .collect();
    intervals
        .iter()
        .map(|iv| {
            let lo = points.partition_point(|&t| t < iv.start);
            let hi = points.partition_point(|&t| t < iv.end);
            live[lo..hi].iter().copied().max().unwrap_or(1).max(1)
        })
        .collect()
}

/// All pairs of overlapping intervals, as `(i, j)` index pairs with
/// `i < j`, sorted lexicographically.
///
/// This is the edge list of [`conflict_graph`] computed by a sweep over
/// interval endpoints instead of the quadratic all-pairs scan, so callers
/// that only need the conflicting pairs (e.g. a lint pass auditing a
/// register assignment) avoid materialising the dense graph.
///
/// # Examples
///
/// ```
/// use lobist_graph::interval::{overlapping_pairs, Interval};
///
/// let spans = [Interval::new(0, 3), Interval::new(2, 4), Interval::new(3, 5)];
/// assert_eq!(overlapping_pairs(&spans), vec![(0, 1), (1, 2)]);
/// ```
pub fn overlapping_pairs(intervals: &[Interval]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for_each_overlap(intervals, |i, j| pairs.push((i.min(j), i.max(j))));
    pairs.sort_unstable();
    pairs
}

/// Calls `f(i, j)` once for every overlapping pair, `i` the later
/// arrival. Sweeps arrivals in start order; an arriving interval overlaps
/// exactly the active intervals whose end is past its start (half-open).
fn for_each_overlap(intervals: &[Interval], mut f: impl FnMut(usize, usize)) {
    let mut order: Vec<usize> = (0..intervals.len())
        .filter(|&i| !intervals[i].is_empty())
        .collect();
    order.sort_unstable_by_key(|&i| (intervals[i].start, intervals[i].end, i));
    let mut active: Vec<usize> = Vec::new();
    for &i in &order {
        let iv = &intervals[i];
        active.retain(|&j| intervals[j].end > iv.start);
        for &j in &active {
            f(i, j);
        }
        active.push(i);
    }
}

/// The distinct maximal cliques of an interval conflict graph, each as a
/// sorted vertex list. Returned in increasing order of the time point that
/// witnesses them.
pub fn maximal_cliques(intervals: &[Interval]) -> Vec<Vec<usize>> {
    let mut points: Vec<u32> = intervals
        .iter()
        .filter(|iv| !iv.is_empty())
        .map(|iv| iv.start)
        .collect();
    points.sort_unstable();
    points.dedup();
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    for t in points {
        let live: Vec<usize> = intervals
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.contains(t))
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            continue;
        }
        // Keep only maximal sets: drop subsets of an already-found clique
        // and cliques subsumed by this one.
        if cliques
            .iter()
            .any(|c| live.iter().all(|v| c.binary_search(v).is_ok()))
        {
            continue;
        }
        cliques.retain(|c| !c.iter().all(|v| live.binary_search(v).is_ok()));
        cliques.push(live);
    }
    cliques
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_interval_overlaps_nothing() {
        let e = Interval::new(2, 2);
        assert!(e.is_empty());
        assert!(!e.overlaps(&Interval::new(0, 5)));
        assert!(!Interval::new(0, 5).overlaps(&e));
    }

    #[test]
    #[should_panic(expected = "before start")]
    fn backwards_interval_panics() {
        Interval::new(3, 2);
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        assert!(!Interval::new(0, 2).overlaps(&Interval::new(2, 4)));
        assert!(Interval::new(0, 3).overlaps(&Interval::new(2, 4)));
    }

    #[test]
    fn contains_respects_half_open_bounds() {
        let iv = Interval::new(1, 3);
        assert!(!iv.contains(0));
        assert!(iv.contains(1));
        assert!(iv.contains(2));
        assert!(!iv.contains(3));
    }

    #[test]
    fn conflict_graph_matches_pairwise_overlap() {
        let spans = [
            Interval::new(0, 2),
            Interval::new(1, 4),
            Interval::new(3, 5),
            Interval::new(5, 6),
        ];
        let g = conflict_graph(&spans);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 3));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn max_overlap_handles_touching_endpoints() {
        let spans = [Interval::new(0, 2), Interval::new(2, 4), Interval::new(4, 6)];
        assert_eq!(max_overlap(&spans), 1);
    }

    #[test]
    fn max_overlap_empty_input() {
        assert_eq!(max_overlap(&[]), 0);
    }

    #[test]
    fn max_clique_sizes_of_nested_intervals() {
        // One long interval containing two short disjoint ones.
        let spans = [Interval::new(0, 10), Interval::new(1, 2), Interval::new(5, 6)];
        assert_eq!(max_clique_sizes(&spans), vec![2, 2, 2]);
    }

    #[test]
    fn max_clique_sizes_isolated_vertex() {
        let spans = [Interval::new(0, 1), Interval::new(2, 3)];
        assert_eq!(max_clique_sizes(&spans), vec![1, 1]);
    }

    #[test]
    fn maximal_cliques_of_staircase() {
        let spans = [Interval::new(0, 3), Interval::new(2, 5), Interval::new(4, 7)];
        let cliques = maximal_cliques(&spans);
        assert_eq!(cliques, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn maximal_cliques_dedup_subsets() {
        // All three live at step 1; pairwise-only sets must not appear.
        let spans = [Interval::new(0, 2), Interval::new(1, 3), Interval::new(1, 2)];
        let cliques = maximal_cliques(&spans);
        assert_eq!(cliques, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn overlapping_pairs_matches_conflict_graph() {
        let spans = [
            Interval::new(0, 4),
            Interval::new(1, 3),
            Interval::new(2, 6),
            Interval::new(5, 8),
            Interval::new(7, 9),
            Interval::new(3, 3), // empty: conflicts with nothing
        ];
        assert_eq!(overlapping_pairs(&spans), all_pairs(&spans));
        let g = conflict_graph(&spans);
        assert_eq!(g.edges().collect::<Vec<_>>(), all_pairs(&spans));
    }

    /// The definition: every pair that overlaps, by the quadratic scan.
    fn all_pairs(spans: &[Interval]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, a) in spans.iter().enumerate() {
            for (j, b) in spans.iter().enumerate().skip(i + 1) {
                if a.overlaps(b) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    #[test]
    fn conflict_graph_matches_the_definition_on_random_families() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        // Short spans over few start points: many empty, touching and
        // nested intervals. Sizes past 64 exercise multi-word bit rows.
        for n in (0..60).chain([64, 65, 130]) {
            let spans: Vec<Interval> = (0..n)
                .map(|_| {
                    let s = rng.gen_range(0u32..12);
                    Interval::new(s, s + rng.gen_range(0u32..5))
                })
                .collect();
            let g = conflict_graph(&spans);
            // The definition (all pairs, one `add_edge` each) and the
            // kept pair sweep (`overlapping_pairs` into `from_edges`).
            let mut expected = UGraph::new(n);
            for &(i, j) in &all_pairs(&spans) {
                expected.add_edge(i, j);
            }
            assert_eq!(g, expected, "{spans:?}");
            assert_eq!(
                g,
                UGraph::from_edges(n, &overlapping_pairs(&spans)),
                "{spans:?}"
            );
            for (u, a) in spans.iter().enumerate() {
                for (v, b) in spans.iter().enumerate() {
                    assert_eq!(
                        g.has_edge(u, v),
                        u != v && a.overlaps(b),
                        "{u} {v} in {spans:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapping_pairs_empty_and_disjoint() {
        assert_eq!(overlapping_pairs(&[]), Vec::new());
        let spans = [Interval::new(0, 2), Interval::new(2, 4)];
        assert_eq!(overlapping_pairs(&spans), Vec::new());
    }

    #[test]
    fn mcs_is_consistent_with_max_overlap() {
        let spans = [
            Interval::new(0, 4),
            Interval::new(1, 3),
            Interval::new(2, 6),
            Interval::new(5, 8),
            Interval::new(7, 9),
        ];
        let mcs = max_clique_sizes(&spans);
        let global = max_overlap(&spans);
        assert_eq!(mcs.iter().copied().max().unwrap(), global);
        // Every vertex's MCS is at least 1 + its ... no: at least 1.
        assert!(mcs.iter().all(|&m| m >= 1 && m <= global));
    }
}
