//! The three compute-intensive SeBS kernels the paper benchmarks
//! (§V-D): breadth-first search, minimum spanning tree and PageRank.
//! These run for real — Fig. 7's comparison measures genuine CPU work.

use crate::graph::Graph;

/// BFS from `source`: returns `(levels, visited_count)`; unreachable
/// vertices get `u32::MAX`.
pub fn bfs(g: &Graph, source: u32) -> (Vec<u32>, usize) {
    let mut level = vec![u32::MAX; g.n];
    let mut frontier = vec![source];
    level[source as usize] = 0;
    let mut visited = 1usize;
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for v in frontier {
            for &w in g.neighbors(v) {
                if level[w as usize] == u32::MAX {
                    level[w as usize] = depth;
                    visited += 1;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    (level, visited)
}

/// Disjoint-set union with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Kruskal MST: returns `(total_weight, edges_in_tree)`. On a connected
/// graph the tree has `n - 1` edges.
pub fn mst(g: &Graph) -> (f64, usize) {
    let mut order: Vec<u32> = (0..g.edges.len() as u32).collect();
    order.sort_unstable_by(|a, b| {
        g.edges[*a as usize]
            .2
            .partial_cmp(&g.edges[*b as usize].2)
            .expect("weights are finite")
            .then(a.cmp(b))
    });
    let mut uf = UnionFind::new(g.n);
    let mut total = 0.0f64;
    let mut count = 0usize;
    for ei in order {
        let (u, v, w) = g.edges[ei as usize];
        if uf.union(u, v) {
            total += w as f64;
            count += 1;
            if count == g.n - 1 {
                break;
            }
        }
    }
    (total, count)
}

/// PageRank by power iteration (damping 0.85) until the L1 change drops
/// below `tol` or `max_iters` is hit. Returns `(ranks, iterations)`.
pub fn pagerank(g: &Graph, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    const D: f64 = 0.85;
    let n = g.n;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let inv_deg: Vec<f64> = (0..n as u32)
        .map(|v| {
            let d = g.degree(v);
            if d > 0 {
                1.0 / d as f64
            } else {
                0.0
            }
        })
        .collect();
    for it in 1..=max_iters {
        // Dangling mass (degree-0 vertices) redistributes uniformly.
        let dangling: f64 = (0..n)
            .filter(|v| g.degree(*v as u32) == 0)
            .map(|v| rank[v])
            .sum();
        let base = (1.0 - D) / n as f64 + D * dangling / n as f64;
        for (v, slot) in next.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &w in g.neighbors(v as u32) {
                sum += rank[w as usize] * inv_deg[w as usize];
            }
            *slot = base + D * sum;
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < tol {
            return (rank, it);
        }
    }
    (rank, max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bfs_levels_on_path_graph() {
        // 0 - 1 - 2 - 3
        let g = Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let (levels, visited) = bfs(&g, 0);
        assert_eq!(levels, vec![0, 1, 2, 3]);
        assert_eq!(visited, 4);
        let (levels, _) = bfs(&g, 2);
        assert_eq!(levels, vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let (levels, visited) = bfs(&g, 0);
        assert_eq!(visited, 2);
        assert_eq!(levels[2], u32::MAX);
        assert_eq!(levels[3], u32::MAX);
    }

    #[test]
    fn mst_known_graph() {
        // Square with diagonal: MST picks the three lightest edges that
        // do not close a cycle.
        let g = Graph::from_edges(
            4,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (0, 3, 4.0),
                (0, 2, 5.0),
            ],
        );
        let (w, count) = mst(&g);
        assert_eq!(count, 3);
        assert!((w - 6.0).abs() < 1e-9);
    }

    #[test]
    fn mst_spans_connected_graph() {
        let g = Graph::barabasi_albert(500, 3, 4);
        let (w, count) = mst(&g);
        assert_eq!(count, 499);
        assert!(w > 0.0);
    }

    /// Prim's algorithm as an independent oracle.
    fn prim_weight(g: &Graph) -> f64 {
        let mut in_tree = vec![false; g.n];
        let mut best = vec![f64::INFINITY; g.n];
        best[0] = 0.0;
        let mut total = 0.0;
        for _ in 0..g.n {
            let mut v = usize::MAX;
            let mut vb = f64::INFINITY;
            for u in 0..g.n {
                if !in_tree[u] && best[u] < vb {
                    vb = best[u];
                    v = u;
                }
            }
            if v == usize::MAX {
                break; // disconnected remainder
            }
            in_tree[v] = true;
            total += vb;
            for (u, w, wt) in g.edges.iter().map(|(a, b, w)| (*a, *b, *w)) {
                let (a, b) = (u as usize, w as usize);
                if a == v && !in_tree[b] {
                    best[b] = best[b].min(wt as f64);
                } else if b == v && !in_tree[a] {
                    best[a] = best[a].min(wt as f64);
                }
            }
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Kruskal and Prim agree on random connected graphs.
        #[test]
        fn prop_mst_matches_prim(n in 3usize..40, extra in 0usize..60, seed in 0u64..500) {
            let g = Graph::random_connected(n, extra, seed);
            let (kw, count) = mst(&g);
            prop_assert_eq!(count, n - 1);
            let pw = prim_weight(&g);
            prop_assert!((kw - pw).abs() < 1e-6, "kruskal {} vs prim {}", kw, pw);
        }

        /// BFS levels change by at most 1 across any edge.
        #[test]
        fn prop_bfs_lipschitz(n in 3usize..40, extra in 0usize..60, seed in 0u64..500) {
            let g = Graph::random_connected(n, extra, seed);
            let (levels, visited) = bfs(&g, 0);
            prop_assert_eq!(visited, n);
            for (u, v, _) in &g.edges {
                let a = levels[*u as usize] as i64;
                let b = levels[*v as usize] as i64;
                prop_assert!((a - b).abs() <= 1);
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_converges() {
        let g = Graph::barabasi_albert(1_000, 3, 5);
        let (ranks, iters) = pagerank(&g, 1e-9, 200);
        assert!(iters < 200, "should converge, took {iters}");
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(ranks.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn pagerank_ranks_hub_highest_on_star() {
        // Star: vertex 0 is the hub.
        let edges = (1..20u32).map(|v| (0, v, 1.0)).collect();
        let g = Graph::from_edges(20, edges);
        let (ranks, _) = pagerank(&g, 1e-10, 500);
        let hub = ranks[0];
        assert!(ranks[1..].iter().all(|r| *r < hub));
    }

    #[test]
    fn pagerank_handles_isolated_vertices() {
        // Vertex 3 is isolated: dangling mass redistributes, the sum
        // stays 1.
        let g = Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let (ranks, _) = pagerank(&g, 1e-10, 500);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(ranks[3] > 0.0);
    }
}
