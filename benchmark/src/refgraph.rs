//! The benchmark's private copy of the graph and the frozen reference
//! kernel that runs over it.
//!
//! Nothing here calls product code. The bidirectional BFS below serves
//! twice: as the **oracle** that every reply's distance is checked
//! against, and as the **calibration block** whose time per query (one
//! "ref-op") every gated timing is divided by. It must therefore never
//! change: a faster kernel would make every `_rel` metric look worse.

use std::time::Instant;

use qbs_graph::Graph;

use crate::clock::thread_cpu_ns;

/// Seed of the calibration pairs. Not `--seed`: the reference work must be
/// the same in every run.
pub const CALIBRATION_SEED: u64 = 0x0CA1_1B8A_7E00_2021;

pub const UNREACHABLE: u32 = u32::MAX;

/// CSR adjacency with `u32` offsets.
pub struct RefGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl RefGraph {
    pub fn from_graph(graph: &Graph) -> Self {
        let offsets = graph
            .csr_offsets()
            .iter()
            .map(|&o| u32::try_from(o).expect("benchmark graphs have fewer than 2^32 arcs"))
            .collect();
        RefGraph {
            offsets,
            neighbors: graph.csr_neighbors().to_vec(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// FNV-1a over the CSR arrays (little-endian), the pinned identity of
    /// a workload's graph.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for word in self.offsets.iter().chain(&self.neighbors) {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Plain BFS distances from `source` (`UNREACHABLE` where there is no
    /// path).
    pub fn bfs(&self, source: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; self.num_vertices()];
        let mut queue = vec![source];
        dist[source as usize] = 0;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &w in self.neighbors(v) {
                if dist[w as usize] == UNREACHABLE {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push(w);
                }
            }
        }
        dist
    }
}

/// One search direction: epoch-stamped distances, so a query touches only
/// what it visits.
struct Side {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    depth: u32,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            stamp: vec![0; n],
            dist: vec![0; n],
            frontier: Vec::new(),
            next: Vec::new(),
            depth: 0,
        }
    }

    fn start(&mut self, v: u32, epoch: u32) {
        self.frontier.clear();
        self.frontier.push(v);
        self.stamp[v as usize] = epoch;
        self.dist[v as usize] = 0;
        self.depth = 0;
    }
}

/// Level-synchronous bidirectional BFS, smaller frontier first.
pub struct BiBfs {
    sides: [Side; 2],
    epoch: u32,
}

impl BiBfs {
    pub fn new(n: usize) -> Self {
        BiBfs {
            sides: [Side::new(n), Side::new(n)],
            epoch: 0,
        }
    }

    pub fn distance(&mut self, g: &RefGraph, u: u32, v: u32) -> u32 {
        if u == v {
            return 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.sides[0].start(u, epoch);
        self.sides[1].start(v, epoch);
        loop {
            let a = usize::from(self.sides[1].frontier.len() < self.sides[0].frontier.len());
            let (lo, hi) = self.sides.split_at_mut(1);
            let (side, other) = if a == 0 {
                (&mut lo[0], &hi[0])
            } else {
                (&mut hi[0], &lo[0])
            };
            if side.frontier.is_empty() {
                return UNREACHABLE;
            }
            // Expand one whole level; the best meeting seen in it is exact.
            let mut best = UNREACHABLE;
            side.next.clear();
            side.depth += 1;
            for &x in &side.frontier {
                for &w in g.neighbors(x) {
                    let wi = w as usize;
                    if side.stamp[wi] == epoch {
                        continue;
                    }
                    side.stamp[wi] = epoch;
                    side.dist[wi] = side.depth;
                    if other.stamp[wi] == epoch {
                        best = best.min(side.depth + other.dist[wi]);
                    }
                    side.next.push(w);
                }
            }
            if best != UNREACHABLE {
                return best;
            }
            std::mem::swap(&mut side.frontier, &mut side.next);
        }
    }
}

/// Time of one calibration block.
#[derive(Clone, Copy, Debug)]
pub struct RefOp {
    /// Wall nanoseconds per reference query.
    pub wall_ns: f64,
    /// CPU nanoseconds per reference query.
    pub cpu_ns: f64,
}

/// One thread's share of the calibration block.
struct Lane {
    pairs: Vec<(u32, u32)>,
    search: BiBfs,
    checksum: u64,
}

impl Lane {
    fn sum(&mut self, g: &RefGraph) -> u64 {
        let mut sum = 0u64;
        for &(u, v) in &self.pairs {
            sum += u64::from(self.search.distance(g, u, v));
        }
        sum
    }

    /// One pass over the lane's pairs; the calling thread's CPU time.
    fn pass(&mut self, g: &RefGraph) -> u64 {
        let cpu0 = thread_cpu_ns();
        let sum = std::hint::black_box(self.sum(g));
        assert_eq!(
            sum, self.checksum,
            "calibration kernel is not deterministic"
        );
        thread_cpu_ns() - cpu0
    }
}

/// The calibration block: fixed lists of pairs answered by [`BiBfs`], one
/// list per lane, the lanes running side by side.
///
/// The block is frozen, but it is cut to the workload's shape so that the
/// machine's weather hits both alike: as many lanes as the workload keeps
/// CPUs busy, and pairs drawn (under a fixed seed) from the workload's own
/// endpoint distribution, so a skewed workload is calibrated by searches
/// with the same locality.
pub struct Calibrator {
    lanes: Vec<Lane>,
}

impl Calibrator {
    /// `pairs` are dealt round-robin to `lanes` lanes.
    pub fn new(g: &RefGraph, pairs: &[(u32, u32)], lanes: usize) -> Self {
        let lanes = (0..lanes)
            .map(|lane| {
                let mut lane = Lane {
                    pairs: pairs.iter().copied().skip(lane).step_by(lanes).collect(),
                    search: BiBfs::new(g.num_vertices()),
                    checksum: 0,
                };
                lane.checksum = lane.sum(g);
                lane
            })
            .collect();
        Calibrator { lanes }
    }

    /// Every lane once, side by side; wall time and summed CPU time.
    fn pass(&mut self, g: &RefGraph) -> (f64, f64) {
        let t0 = Instant::now();
        let cpu: u64 = match self.lanes.as_mut_slice() {
            [only] => only.pass(g),
            lanes => std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .iter_mut()
                    .map(|lane| scope.spawn(move || lane.pass(g)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration lane panicked"))
                    .sum()
            }),
        };
        (t0.elapsed().as_nanos() as f64, cpu as f64)
    }

    /// Runs the block twice and returns the second pass's time per
    /// reference query. The first pass is there to pull the kernel's own
    /// working set back into the caches: without it the block also times
    /// how much of that the product's round evicted, which is the
    /// product's footprint, not the machine's speed.
    pub fn run(&mut self, g: &RefGraph) -> RefOp {
        self.pass(g);
        let (wall, cpu) = self.pass(g);
        let ops = self.lanes.iter().map(|l| l.pairs.len()).sum::<usize>() as f64;
        RefOp {
            wall_ns: wall / ops,
            cpu_ns: cpu / ops,
        }
    }
}

/// True distances. Pairs with an endpoint among the `hot` vertices are
/// answered from a precomputed BFS row, the rest by [`BiBfs`].
pub struct Oracle {
    search: BiBfs,
    row_of: Vec<u32>,
    rows: Vec<Vec<u8>>,
}

impl Oracle {
    pub fn new(g: &RefGraph, hot: &[u32]) -> Self {
        let mut row_of = vec![u32::MAX; g.num_vertices()];
        let mut rows = Vec::with_capacity(hot.len());
        for &v in hot {
            if row_of[v as usize] != u32::MAX {
                continue;
            }
            row_of[v as usize] = rows.len() as u32;
            rows.push(
                g.bfs(v)
                    .into_iter()
                    .map(|d| match d {
                        UNREACHABLE => u8::MAX,
                        d => u8::try_from(d)
                            .ok()
                            .filter(|&d| d < u8::MAX)
                            .expect("benchmark graphs are shallow"),
                    })
                    .collect(),
            );
        }
        Oracle {
            search: BiBfs::new(g.num_vertices()),
            row_of,
            rows,
        }
    }

    pub fn distance(&mut self, g: &RefGraph, u: u32, v: u32) -> u32 {
        for (a, b) in [(u, v), (v, u)] {
            let row = self.row_of[a as usize];
            if row != u32::MAX {
                return match self.rows[row as usize][b as usize] {
                    u8::MAX => UNREACHABLE,
                    d => u32::from(d),
                };
            }
        }
        self.search.distance(g, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::{figure3_graph, figure4_graph};

    #[test]
    fn reference_searches_agree_with_qbs_graph_on_the_fixtures() {
        for graph in [figure3_graph(), figure4_graph()] {
            let g = RefGraph::from_graph(&graph);
            assert_eq!(g.num_vertices(), graph.num_vertices());
            assert_eq!(g.num_edges(), graph.num_edges());
            let mut bi = BiBfs::new(g.num_vertices());
            let hot: Vec<u32> = vec![1, 2];
            let mut oracle = Oracle::new(&g, &hot);
            for u in 0..g.num_vertices() as u32 {
                let expected = qbs_graph::traversal::bfs_distances(&graph, u);
                let mine = g.bfs(u);
                for v in 0..g.num_vertices() as u32 {
                    let want = expected[v as usize];
                    assert_eq!(mine[v as usize], want, "bfs {u}->{v}");
                    assert_eq!(bi.distance(&g, u, v), want, "bibfs {u}->{v}");
                    assert_eq!(oracle.distance(&g, u, v), want, "oracle {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_tells_graphs_apart_and_repeats() {
        let a = RefGraph::from_graph(&figure3_graph());
        let b = RefGraph::from_graph(&figure4_graph());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            RefGraph::from_graph(&figure3_graph()).fingerprint()
        );
    }

    #[test]
    fn calibration_block_repeats_its_checksum() {
        let g = RefGraph::from_graph(&figure4_graph());
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i % 15, (i * 7 + 3) % 15)).collect();
        for lanes in [1, 2] {
            let mut cal = Calibrator::new(&g, &pairs, lanes);
            let op = cal.run(&g);
            assert!(op.wall_ns > 0.0 && op.cpu_ns > 0.0);
            cal.run(&g);
        }
    }
}
