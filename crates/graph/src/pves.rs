//! Perfect vertex elimination schemes (PVES) with pluggable priorities.
//!
//! A PVES is an ordering `v1, ..., vn` in which each `vi` is simplicial in
//! the graph induced by the not-yet-eliminated vertices. Chordal graphs
//! always have one, and coloring greedily in *reverse* PVES order uses the
//! minimum number of colors.
//!
//! An interval graph typically has many PVESs. The DAC'95 allocator picks
//! among simplicial candidates using a *priority key* — variables with
//! small sharing degree (and, among ties, small max-clique size) are
//! eliminated first, so that when coloring runs in reverse, high-sharing
//! variables are colored while the most flexibility remains.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::UGraph;

/// Error returned when a PVES is requested for a non-chordal graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotChordalError {
    /// A vertex at which elimination got stuck (no simplicial vertex among
    /// the remaining ones).
    pub remaining: Vec<usize>,
}

impl std::fmt::Display for NotChordalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph is not chordal: no simplicial vertex among remaining vertices {:?}",
            self.remaining
        )
    }
}

impl std::error::Error for NotChordalError {}

/// Computes a PVES choosing, at every step, the simplicial vertex with the
/// **smallest** key (ties broken by the lowest vertex index, making the
/// result deterministic).
///
/// The returned vector lists vertices in *elimination order*; color in the
/// reverse of this order for a minimum coloring.
///
/// Each vertex is tested for simpliciality once up front. A test that
/// fails keeps its proof, two live neighbours that are not adjacent, and
/// the vertex is tested again only when one of those two is eliminated;
/// a vertex's key is computed once, when it first turns simplicial. This
/// returns exactly what re-testing every live vertex at every step would
/// (the `naive` reference):
///
/// * a simplicial vertex stays simplicial as others are eliminated (its
///   live neighbourhood only shrinks, and a subset of a clique is a
///   clique), so a vertex once found simplicial is never re-tested;
/// * a vertex whose two non-adjacent neighbours are both still live is
///   not simplicial, so skipping its test changes nothing;
/// * the keys are pure, so a cached key equals a recomputed one, and the
///   simplicial vertices wait in a min-heap on `(key, index)`, so ties
///   still go to the lowest index. The same vertex therefore wins at
///   every step, and a non-chordal graph fails at the same step with the
///   same `remaining`.
///
/// # Errors
///
/// Returns [`NotChordalError`] if at some step no remaining vertex is
/// simplicial, i.e. the graph is not chordal.
///
/// # Examples
///
/// ```
/// use lobist_graph::{pves::pves_by_key, UGraph};
///
/// let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// // Keys make vertex 2 most attractive to eliminate first.
/// let order = pves_by_key(&g, |v| std::cmp::Reverse(v)).expect("path is chordal");
/// assert_eq!(order[0], 2);
/// ```
pub fn pves_by_key<K, F>(g: &UGraph, mut key: F) -> Result<Vec<usize>, NotChordalError>
where
    K: Ord,
    F: FnMut(usize) -> K,
{
    let n = g.len();
    let mut rows = BitRows::new(g);
    // Per vertex not yet known simplicial: two live non-adjacent
    // neighbours. The simplicial live vertices wait in a min-heap.
    let mut proof: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut ready = BinaryHeap::new();
    for (v, p) in proof.iter_mut().enumerate() {
        *p = rows.non_adjacent_neighbours(v);
        if p.is_none() {
            ready.push(Reverse((key(v), v)));
        }
    }
    let mut tests = n as u64;
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Some(Reverse((_, v))) = ready.pop() else {
            add_simplicial_tests(tests);
            return Err(NotChordalError {
                remaining: (0..n).filter(|&v| rows.is_live(v)).collect(),
            });
        };
        rows.eliminate(v);
        order.push(v);
        // Only a neighbour of `v` can have had `v` in its proof.
        for &u in g.neighbors(v) {
            if rows.is_live(u) && matches!(proof[u], Some((a, b)) if a == v || b == v) {
                tests += 1;
                proof[u] = rows.non_adjacent_neighbours(u);
                if proof[u].is_none() {
                    ready.push(Reverse((key(u), u)));
                }
            }
        }
    }
    add_simplicial_tests(tests);
    Ok(order)
}

/// The graph's adjacency as one bit row per vertex, plus the set of
/// live vertices, so a simplicial test costs `O(degree × n / 64)` word
/// operations.
struct BitRows {
    words: usize,
    adjacency: Vec<u64>,
    live: Vec<u64>,
    /// The live neighbourhood of the vertex under test.
    scratch: Vec<u64>,
}

impl BitRows {
    fn new(g: &UGraph) -> Self {
        let n = g.len();
        let words = n.div_ceil(64);
        let mut adjacency = vec![0u64; n * words];
        for u in 0..n {
            for &w in g.neighbors(u) {
                adjacency[u * words + w / 64] |= 1 << (w % 64);
            }
        }
        let mut live = vec![!0u64; words];
        if !n.is_multiple_of(64) {
            live[words - 1] = (1 << (n % 64)) - 1;
        }
        Self {
            words,
            adjacency,
            live,
            scratch: vec![0; words],
        }
    }

    fn eliminate(&mut self, v: usize) {
        self.live[v / 64] &= !(1 << (v % 64));
    }

    fn is_live(&self, v: usize) -> bool {
        self.live[v / 64] >> (v % 64) & 1 == 1
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.adjacency[u * self.words..(u + 1) * self.words]
    }

    /// Two live neighbours of `u` that are not adjacent, or `None` when
    /// `u`'s live neighbours form a clique (`u` is simplicial).
    fn non_adjacent_neighbours(&mut self, u: usize) -> Option<(usize, usize)> {
        let mut nb = std::mem::take(&mut self.scratch);
        for (i, w) in nb.iter_mut().enumerate() {
            *w = self.row(u)[i] & self.live[i];
        }
        let mut found = None;
        'members: for (i, &word) in nb.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let a = i * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                for (j, (&m, &r)) in nb.iter().zip(self.row(a)).enumerate() {
                    // `a` is no neighbour of itself: leave its own bit out.
                    let own = if j == i { 1 << (a % 64) } else { 0 };
                    let missing = m & !r & !own;
                    if missing != 0 {
                        found = Some((a, j * 64 + missing.trailing_zeros() as usize));
                        break 'members;
                    }
                }
            }
        }
        self.scratch = nb;
        found
    }
}

thread_local! {
    static SIMPLICIAL_TESTS: Cell<u64> = const { Cell::new(0) };
}

fn add_simplicial_tests(n: u64) {
    SIMPLICIAL_TESTS.with(|c| c.set(c.get() + n));
}

/// How many simplicial tests [`pves_by_key`] has run on the calling
/// thread so far: a deterministic work counter. Callers take the
/// difference of two readings around the work they measure.
pub fn simplicial_tests() -> u64 {
    SIMPLICIAL_TESTS.with(Cell::get)
}

/// A PVES with the default priority (lowest vertex index first among
/// simplicial candidates).
///
/// # Errors
///
/// Returns [`NotChordalError`] if the graph is not chordal.
pub fn pves(g: &UGraph) -> Result<Vec<usize>, NotChordalError> {
    pves_by_key(g, |v| v)
}

/// Verifies that `order` is a valid PVES of `g` (same predicate as a
/// perfect elimination ordering).
pub fn is_pves(g: &UGraph, order: &[usize]) -> bool {
    crate::chordal::is_perfect_elimination_ordering(g, order)
}

/// The original search, kept as the executable reference: every step
/// re-tests every live vertex and recomputes the keys of the simplicial
/// ones. [`pves_by_key`] must return exactly what this returns.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    pub fn pves_by_key<K, F>(g: &UGraph, mut key: F) -> Result<Vec<usize>, NotChordalError>
    where
        K: Ord,
        F: FnMut(usize) -> K,
    {
        let n = g.len();
        let mut alive = vec![true; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best: Option<(K, usize)> = None;
            for v in 0..n {
                if !alive[v] || !g.is_simplicial_in(v, &alive) {
                    continue;
                }
                let k = key(v);
                match &best {
                    None => best = Some((k, v)),
                    Some((bk, _)) if k < *bk => best = Some((k, v)),
                    _ => {}
                }
            }
            match best {
                Some((_, v)) => {
                    alive[v] = false;
                    order.push(v);
                }
                None => {
                    return Err(NotChordalError {
                        remaining: (0..n).filter(|&v| alive[v]).collect(),
                    })
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{conflict_graph, Interval};

    #[test]
    fn pves_of_path_is_valid() {
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
    }

    #[test]
    fn pves_fails_on_cycle() {
        let c4 = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let err = pves(&c4).unwrap_err();
        assert_eq!(err.remaining.len(), 4);
        assert!(err.to_string().contains("not chordal"));
    }

    #[test]
    fn key_steers_elimination_order() {
        // Path 0-1-2-3: both endpoints are simplicial initially.
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let asc = pves_by_key(&g, |v| v).unwrap();
        assert_eq!(asc[0], 0);
        let desc = pves_by_key(&g, std::cmp::Reverse).unwrap();
        assert_eq!(desc[0], 3);
        assert!(is_pves(&g, &asc));
        assert!(is_pves(&g, &desc));
    }

    #[test]
    fn pves_on_interval_graph_always_exists() {
        let spans = [
            Interval::new(0, 5),
            Interval::new(1, 2),
            Interval::new(1, 4),
            Interval::new(3, 7),
            Interval::new(6, 8),
        ];
        let g = conflict_graph(&spans);
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn empty_graph_has_empty_pves() {
        let g = UGraph::new(0);
        assert_eq!(pves(&g).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn complete_graph_any_order_works() {
        let mut g = UGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
    }
}

#[cfg(test)]
mod differential {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::interval::{conflict_graph, Interval};

    /// Random interval conflict graph (always chordal).
    fn interval_graph(rng: &mut StdRng, n: usize) -> UGraph {
        let spans: Vec<Interval> = (0..n)
            .map(|_| {
                let s = rng.gen_range(0..2 * n as u32);
                Interval::new(s, s + rng.gen_range(1u32..6))
            })
            .collect();
        conflict_graph(&spans)
    }

    /// Random chordal graph: each new vertex joins a clique of earlier
    /// vertices (the reverse of the insertion order is a PVES), then the
    /// vertex ids are shuffled so the order is not the identity.
    fn chordal_graph(rng: &mut StdRng, n: usize) -> UGraph {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        let mut g = UGraph::new(n);
        for v in 1..n {
            let anchor = rng.gen_range(0..v);
            let mut clique = vec![anchor];
            for &u in g.neighbors(perm[anchor]).to_vec().iter() {
                let u = perm.iter().position(|&p| p == u).expect("a vertex");
                if u < v
                    && rng.gen_bool(0.6)
                    && clique.iter().all(|&w| g.has_edge(perm[w], perm[u]))
                {
                    clique.push(u);
                }
            }
            if rng.gen_bool(0.9) {
                for u in clique {
                    g.add_edge(perm[u], perm[v]);
                }
            }
        }
        g
    }

    /// Random graph with a chordless cycle planted on its first vertices.
    fn non_chordal_graph(rng: &mut StdRng, n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        let cycle = 4 + rng.gen_range(0..n - 3);
        for i in 0..cycle {
            g.add_edge(i, (i + 1) % cycle);
        }
        for u in cycle..n {
            for v in 0..u {
                if rng.gen_bool(0.3) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Asserts the pruned and the reference search agree under a tied
    /// key, a salted key and the plain index key.
    fn assert_same(g: &UGraph, salt: u64) {
        let tied = |v: usize| (v as u64).wrapping_mul(salt | 1) % 3;
        assert_eq!(pves_by_key(g, tied), naive::pves_by_key(g, tied), "{g:?}");
        let salted = |v: usize| ((v as u64) ^ salt) % 7;
        assert_eq!(
            pves_by_key(g, salted),
            naive::pves_by_key(g, salted),
            "{g:?}"
        );
        assert_eq!(pves_by_key(g, |v| v), naive::pves_by_key(g, |v| v), "{g:?}");
    }

    #[test]
    fn matches_the_reference_on_interval_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        // Sizes past 64 exercise multi-word bit rows.
        for n in (0..40).chain([63, 64, 65, 100, 130]) {
            let g = interval_graph(&mut rng, n);
            assert_same(&g, rng.gen());
        }
    }

    #[test]
    fn matches_the_reference_on_chordal_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in (1..40).chain([64, 65, 129]) {
            let g = chordal_graph(&mut rng, n);
            assert!(pves_by_key(&g, |v| v).is_ok(), "{g:?}");
            assert_same(&g, rng.gen());
        }
    }

    #[test]
    fn matches_the_reference_error_on_non_chordal_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in (4..30).chain([70, 128]) {
            let g = non_chordal_graph(&mut rng, n);
            assert!(pves_by_key(&g, |v| v).is_err(), "{g:?}");
            assert_same(&g, rng.gen());
        }
    }

    #[test]
    fn counts_one_test_per_vertex_on_an_edgeless_graph() {
        let before = simplicial_tests();
        pves(&UGraph::new(5)).unwrap();
        assert_eq!(simplicial_tests() - before, 5);
    }
}
