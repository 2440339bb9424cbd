//! Benchmark runner: measures the kernels for real (Fig. 7).

use crate::graph::Graph;
use crate::kernels::{bfs, mst, pagerank};
use std::time::Instant;

/// Which SeBS kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Breadth-first search from vertex 0.
    Bfs,
    /// Kruskal minimum spanning tree.
    Mst,
    /// PageRank power iteration.
    Pagerank,
}

impl Kernel {
    /// All three, in the paper's Fig. 7 order.
    pub const ALL: [Kernel; 3] = [Kernel::Bfs, Kernel::Mst, Kernel::Pagerank];

    /// SeBS benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bfs => "bfs",
            Kernel::Mst => "mst",
            Kernel::Pagerank => "pagerank",
        }
    }

    /// Execute once; returns a checksum-ish value so the optimizer
    /// cannot elide the work.
    pub fn run(&self, g: &Graph) -> f64 {
        match self {
            Kernel::Bfs => {
                let (levels, visited) = bfs(g, 0);
                visited as f64 + levels.iter().filter(|l| **l != u32::MAX).sum::<u32>() as f64
            }
            Kernel::Mst => {
                let (w, count) = mst(g);
                w + count as f64
            }
            Kernel::Pagerank => {
                let (ranks, iters) = pagerank(g, 1e-8, 100);
                ranks[0] + iters as f64
            }
        }
    }
}

/// Summary of repeated measurements (seconds).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The kernel.
    pub kernel: Kernel,
    /// Per-repetition wall times, sorted ascending.
    pub times_secs: Vec<f64>,
    /// Anti-elision checksum.
    pub checksum: f64,
}

impl Measurement {
    /// Median wall time.
    pub fn median_secs(&self) -> f64 {
        self.times_secs[self.times_secs.len() / 2]
    }
}

/// Run `kernel` on `g`, `reps` times after `warmup` discarded runs —
/// the paper's "warm performance" methodology (200 invocations, cold
/// starts excluded, §V-D).
pub fn measure(kernel: Kernel, g: &Graph, warmup: usize, reps: usize) -> Measurement {
    assert!(reps >= 1);
    let mut checksum = 0.0;
    for _ in 0..warmup {
        checksum += kernel.run(g);
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        checksum += kernel.run(g);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    Measurement {
        kernel,
        times_secs: times,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_shapes() {
        let g = Graph::barabasi_albert(2_000, 3, 11);
        let m = measure(Kernel::Bfs, &g, 1, 5);
        assert_eq!(m.times_secs.len(), 5);
        assert!(m.median_secs() >= 0.0);
        assert!(m.checksum > 0.0);
        // Sorted ascending.
        for w in m.times_secs.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn all_kernels_produce_nonzero_work() {
        let g = Graph::barabasi_albert(1_000, 3, 12);
        for k in Kernel::ALL {
            assert!(k.run(&g) > 0.0, "{} returned 0", k.name());
        }
    }
}
