//! Undirected graphs for QAOA max-cut workloads (Fig. 18 of the paper).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A simple undirected graph on `n` vertices, edge-list representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: u16,
    edges: Vec<(u16, u16)>,
}

impl Graph {
    /// Build from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or endpoints `>= n`.
    pub fn from_edges(n: u16, edges: &[(u16, u16)]) -> Self {
        let mut normalized: Vec<(u16, u16)> = edges
            .iter()
            .map(|&(a, b)| {
                assert!(a != b, "self-loop on vertex {a}");
                assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
                (a.min(b), a.max(b))
            })
            .collect();
        normalized.sort_unstable();
        let before = normalized.len();
        normalized.dedup();
        assert_eq!(before, normalized.len(), "duplicate edges");
        Graph {
            n,
            edges: normalized,
        }
    }

    /// Complete graph K_n.
    pub fn complete(n: u16) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Graph { n, edges }
    }

    /// Star graph: vertex 0 connected to all others.
    pub fn star(n: u16) -> Self {
        assert!(n >= 2, "star graph needs at least 2 vertices");
        Graph {
            n,
            edges: (1..n).map(|b| (0, b)).collect(),
        }
    }

    /// Cycle graph C_n.
    pub fn cycle(n: u16) -> Self {
        assert!(n >= 3, "cycle graph needs at least 3 vertices");
        let mut edges: Vec<(u16, u16)> = (0..n - 1).map(|a| (a, a + 1)).collect();
        edges.push((0, n - 1));
        Graph { n, edges }
    }

    /// Erdős–Rényi G(n, m): exactly `m` distinct edges chosen uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the number of possible edges.
    pub fn random_gnm(n: u16, m: usize, seed: u64) -> Self {
        let max = n as usize * (n as usize - 1) / 2;
        assert!(m <= max, "G({n},{m}): at most {max} edges possible");
        let mut all: Vec<(u16, u16)> = Vec::with_capacity(max);
        for a in 0..n {
            for b in a + 1..n {
                all.push((a, b));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        all.truncate(m);
        Graph::from_edges(n, &all)
    }

    /// Random d-regular graph via the pairing model (with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n * d` is odd or `d >= n`.
    pub fn random_regular(n: u16, d: u16, seed: u64) -> Self {
        assert!(d < n, "degree {d} too large for {n} vertices");
        assert!(
            (n as usize * d as usize).is_multiple_of(2),
            "n*d must be even"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        'outer: for _attempt in 0..1000 {
            let mut stubs: Vec<u16> = Vec::with_capacity(n as usize * d as usize);
            for v in 0..n {
                stubs.extend(std::iter::repeat_n(v, d as usize));
            }
            stubs.shuffle(&mut rng);
            let mut edges: Vec<(u16, u16)> = Vec::with_capacity(stubs.len() / 2);
            for pair in stubs.chunks_exact(2) {
                let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                if a == b || edges.contains(&(a, b)) {
                    continue 'outer; // reject multigraph, retry
                }
                edges.push((a, b));
            }
            return Graph::from_edges(n, &edges);
        }
        panic!("failed to sample a simple {d}-regular graph on {n} vertices");
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> u16 {
        self.n
    }

    /// The edge list (normalized: `a < b`, sorted for constructed graphs).
    pub fn edges(&self) -> &[(u16, u16)] {
        &self.edges
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Max-cut objective of an assignment: number of edges whose endpoints
    /// fall on opposite sides of `bits` (bit `v` of `bits` = side of vertex v).
    pub fn cut_value(&self, bits: u64) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| (bits >> a) & 1 != (bits >> b) & 1)
            .count()
    }

    /// The maximum cut over all assignments — exhaustive, for testing small
    /// instances only.
    ///
    /// # Panics
    ///
    /// Panics for graphs with more than 24 vertices.
    pub fn max_cut_brute_force(&self) -> usize {
        assert!(self.n <= 24, "brute force limited to 24 vertices");
        (0u64..1 << self.n)
            .map(|bits| self.cut_value(bits))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_edge_count() {
        let g = Graph::complete(6);
        assert_eq!(g.n_edges(), 15);
    }

    #[test]
    fn star_cut() {
        let g = Graph::star(5);
        assert_eq!(g.n_edges(), 4);
        // Center on one side, leaves on the other: all edges cut.
        assert_eq!(g.cut_value(0b11110), 4);
        assert_eq!(g.max_cut_brute_force(), 4);
    }

    #[test]
    fn cycle_max_cut() {
        // Even cycle: max cut = n.
        assert_eq!(Graph::cycle(6).max_cut_brute_force(), 6);
        // Odd cycle: max cut = n - 1.
        assert_eq!(Graph::cycle(5).max_cut_brute_force(), 4);
    }

    #[test]
    fn gnm_has_exactly_m_edges_and_is_deterministic() {
        let a = Graph::random_gnm(9, 24, 7);
        let b = Graph::random_gnm(9, 24, 7);
        assert_eq!(a, b);
        assert_eq!(a.n_edges(), 24);
        let c = Graph::random_gnm(9, 24, 8);
        assert_ne!(a, c, "different seeds should give different graphs");
    }

    #[test]
    fn regular_graph_degrees() {
        let g = Graph::random_regular(16, 3, 42);
        let mut deg = vec![0usize; 16];
        for &(a, b) in g.edges() {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d == 3), "degrees: {deg:?}");
    }

    #[test]
    fn from_edges_rejects_duplicates() {
        let r = std::panic::catch_unwind(|| Graph::from_edges(3, &[(0, 1), (1, 0)]));
        assert!(r.is_err());
    }

    #[test]
    fn cut_value_counts_cut_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        // Triangle: best cut = 2.
        assert_eq!(g.max_cut_brute_force(), 2);
        assert_eq!(g.cut_value(0b001), 2);
        assert_eq!(g.cut_value(0b000), 0);
    }
}
