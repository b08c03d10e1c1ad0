//! A small, dense, undirected simple graph.

use std::fmt;

/// An undirected simple graph over vertices `0..n`.
///
/// Designed for the modest graph sizes that arise in data-path allocation
/// (tens to a few hundred variables). Adjacency is stored both as one bit
/// row per vertex (O(1) edge queries, word-wide set operations) and as
/// sorted neighbor lists (fast iteration).
///
/// # Examples
///
/// ```
/// use lobist_graph::UGraph;
///
/// let mut g = UGraph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(1, 0));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct UGraph {
    n: usize,
    /// Words per bit row: `⌈n / 64⌉`.
    words: usize,
    /// Adjacency bit rows, `n * words` words: bit `v` of row `u` is set
    /// iff `{u, v}` is an edge.
    rows: Vec<u64>,
    /// Sorted adjacency lists, kept in sync with `rows`.
    neighbors: Vec<Vec<usize>>,
    edges: usize,
}

impl UGraph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            n,
            words,
            rows: vec![0; n * words],
            neighbors: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds a graph from its bit rows (`n * ⌈n / 64⌉` words, symmetric,
    /// no self-loops, padding bits clear). Each neighbour list is read off
    /// its row in vertex order, so it comes out sorted.
    pub(crate) fn from_rows(n: usize, rows: Vec<u64>) -> Self {
        let words = n.div_ceil(64);
        assert_eq!(rows.len(), n * words, "one row of {words} words per vertex");
        let mut degrees = 0;
        let neighbors: Vec<Vec<usize>> = rows
            .chunks_exact(words.max(1))
            .map(|row| {
                let degree: u32 = row.iter().map(|w| w.count_ones()).sum();
                let mut list = Vec::with_capacity(degree as usize);
                for (i, &word) in row.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        list.push(i * 64 + rest.trailing_zeros() as usize);
                        rest &= rest - 1;
                    }
                }
                degrees += list.len();
                list
            })
            .collect();
        let g = Self {
            n,
            words,
            rows,
            neighbors,
            edges: degrees / 2,
        };
        debug_assert!((0..n).all(|u| g.neighbors(u).iter().all(|&v| v < n && g.has_edge(v, u))));
        g
    }

    /// Builds a graph from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u != v, "self-loops are not allowed (vertex {u})");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range 0..{}", self.n);
        if self.has_edge(u, v) {
            return;
        }
        self.rows[u * self.words + v / 64] |= 1 << (v % 64);
        self.rows[v * self.words + u / 64] |= 1 << (u % 64);
        let pos = self.neighbors[u].binary_search(&v).unwrap_err();
        self.neighbors[u].insert(pos, v);
        let pos = self.neighbors[v].binary_search(&u).unwrap_err();
        self.neighbors[v].insert(pos, u);
        self.edges += 1;
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && u < self.n && v < self.n && self.row(u)[v / 64] >> (v % 64) & 1 == 1
    }

    /// The adjacency bit row of `u`: `⌈n / 64⌉` words, bit `v` set iff
    /// `{u, v}` is an edge.
    pub(crate) fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }

    /// Sorted neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.neighbors[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors[u].len()
    }

    /// Iterates over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors[u]
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Returns `true` if `vertices` induces a clique.
    pub fn is_clique(&self, vertices: &[usize]) -> bool {
        vertices
            .iter()
            .enumerate()
            .all(|(i, &u)| vertices[i + 1..].iter().all(|&v| self.has_edge(u, v)))
    }

    /// Returns `true` if `vertices` is an independent set (no internal edges).
    pub fn is_independent_set(&self, vertices: &[usize]) -> bool {
        vertices
            .iter()
            .enumerate()
            .all(|(i, &u)| vertices[i + 1..].iter().all(|&v| !self.has_edge(u, v)))
    }

    /// The complement graph (edges become non-edges and vice versa).
    pub fn complement(&self) -> UGraph {
        let mut g = UGraph::new(self.n);
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// The subgraph induced by `vertices`, with vertices renumbered to
    /// `0..vertices.len()` in the given order.
    pub fn induced(&self, vertices: &[usize]) -> UGraph {
        let mut g = UGraph::new(vertices.len());
        for (i, &u) in vertices.iter().enumerate() {
            for (j, &v) in vertices.iter().enumerate().skip(i + 1) {
                if self.has_edge(u, v) {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Returns `true` if `u` is *simplicial*: its neighborhood induces a
    /// clique. Simplicial vertices are the pivots of perfect elimination
    /// schemes on chordal graphs.
    pub fn is_simplicial(&self, u: usize) -> bool {
        self.is_clique(&self.neighbors[u])
    }

    /// As [`is_simplicial`](Self::is_simplicial) but restricted to the
    /// subgraph induced by the vertices for which `alive` is `true`.
    pub fn is_simplicial_in(&self, u: usize, alive: &[bool]) -> bool {
        let nbrs: Vec<usize> = self.neighbors[u]
            .iter()
            .copied()
            .filter(|&v| alive[v])
            .collect();
        self.is_clique(&nbrs)
    }

    /// A simple greedy maximal clique containing `u` (not necessarily
    /// maximum). Useful as a lower bound seed.
    pub fn greedy_clique_around(&self, u: usize) -> Vec<usize> {
        let mut clique = vec![u];
        for &v in &self.neighbors[u] {
            if clique.iter().all(|&w| self.has_edge(v, w)) {
                clique.push(v);
            }
        }
        clique.sort_unstable();
        clique
    }
}

impl fmt::Debug for UGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UGraph(n={}, m={}, edges=[", self.n, self.edges)?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = UGraph::new(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 0);
        for u in 0..5 {
            assert_eq!(g.degree(u), 0);
        }
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = UGraph::new(3);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = UGraph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = UGraph::new(2);
        g.add_edge(0, 2);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn clique_and_independent_set_checks() {
        let g = UGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_independent_set(&[3]));
        assert!(g.is_independent_set(&[0, 3]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn complement_inverts_edges() {
        let g = UGraph::from_edges(3, &[(0, 1)]);
        let c = g.complement();
        assert!(!c.has_edge(0, 1));
        assert!(c.has_edge(0, 2));
        assert!(c.has_edge(1, 2));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = UGraph::from_edges(5, &[(0, 1), (1, 3), (3, 4)]);
        let h = g.induced(&[1, 3, 4]);
        assert_eq!(h.len(), 3);
        assert!(h.has_edge(0, 1)); // 1-3
        assert!(h.has_edge(1, 2)); // 3-4
        assert!(!h.has_edge(0, 2));
    }

    #[test]
    fn simplicial_detection() {
        // Path 0-1-2: endpoints are simplicial, middle is not... actually
        // the middle vertex of a path has neighbors {0,2} which are not
        // adjacent, so it is not simplicial.
        let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.is_simplicial(0));
        assert!(!g.is_simplicial(1));
        assert!(g.is_simplicial(2));
    }

    #[test]
    fn simplicial_in_subgraph() {
        let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
        // Once vertex 2 is eliminated, vertex 1 becomes simplicial.
        let alive = [true, true, false];
        assert!(g.is_simplicial_in(1, &alive));
    }

    #[test]
    fn greedy_clique_contains_seed() {
        let g = UGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let c = g.greedy_clique_around(0);
        assert!(c.contains(&0));
        assert!(g.is_clique(&c));
        assert_eq!(c, vec![0, 1, 2]);
    }

    /// Every bit of every row, by the definition: set iff `has_edge`
    /// and iff the neighbour list holds the vertex; padding bits clear.
    fn assert_rows_agree(g: &UGraph) {
        for u in 0..g.len() {
            let row = g.row(u);
            assert_eq!(row.len(), g.len().div_ceil(64));
            for v in 0..row.len() * 64 {
                let bit = row[v / 64] >> (v % 64) & 1 == 1;
                assert_eq!(bit, g.has_edge(u, v), "row {u}, bit {v}");
                assert_eq!(
                    bit,
                    g.neighbors(u).binary_search(&v).is_ok(),
                    "row {u}, bit {v}"
                );
            }
        }
        let degrees: usize = (0..g.len()).map(|u| g.degree(u)).sum();
        assert_eq!(degrees, 2 * g.edge_count());
    }

    #[test]
    fn bit_rows_agree_with_neighbors_and_has_edge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        // Sizes around word boundaries exercise the padding bits.
        for n in (0..12).chain([63, 64, 65, 127, 128, 130]) {
            let mut g = UGraph::new(n);
            for _ in 0..3 * n {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    g.add_edge(u, v);
                }
            }
            assert_rows_agree(&g);
            assert_rows_agree(&g.complement());
            assert_eq!(UGraph::from_rows(n, g.rows.clone()), g);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let g = UGraph::from_edges(2, &[(0, 1)]);
        let s = format!("{g:?}");
        assert!(s.contains("0-1"));
    }
}
