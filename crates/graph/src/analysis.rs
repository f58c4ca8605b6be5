//! Graph analysis helpers used by the experiment harnesses: BFS distances,
//! exact and estimated diameter, and structural statistics.
//!
//! These run *outside* the distributed model (the harness may inspect the
//! whole graph; the simulated nodes may not).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance label meaning "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// Reusable breadth-first search state: visit marks stamped with a
/// per-pass epoch (so a pass never clears an `n`-sized array) and a flat
/// queue with room for every node (so a pass never allocates).
struct Bfs {
    mark: Vec<u32>,
    epoch: u32,
    /// Nodes in visit order, i.e. by distance from the last source.
    queue: Vec<NodeId>,
    /// Start of the last level in `queue`: the nodes farthest from the
    /// last source.
    last_level: usize,
}

impl Bfs {
    fn new(n: usize) -> Bfs {
        Bfs {
            mark: vec![0; n],
            epoch: 0,
            queue: Vec::with_capacity(n),
            last_level: 0,
        }
    }

    /// One pass from `src`, calling `visit(v, d)` on every reached node in
    /// order of distance `d`. Returns the eccentricity of `src` within its
    /// component.
    fn run(&mut self, g: &Graph, src: NodeId, mut visit: impl FnMut(NodeId, u32)) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let (mark, queue) = (&mut self.mark, &mut self.queue);
        queue.clear();
        queue.push(src);
        mark[src] = epoch;
        let (mut head, mut depth) = (0, 0);
        loop {
            let level_start = head;
            let level_end = queue.len();
            while head < level_end {
                let v = queue[head];
                head += 1;
                visit(v, depth);
                for &u in g.neighbors_of(v) {
                    if mark[u] != epoch {
                        mark[u] = epoch;
                        queue.push(u);
                    }
                }
            }
            if queue.len() == level_end {
                self.last_level = level_start;
                return depth;
            }
            depth += 1;
        }
    }

    /// Whether the last pass reached all `n` nodes.
    fn reached_all(&self) -> bool {
        self.queue.len() == self.mark.len()
    }
}

/// BFS distances from `src`; unreachable nodes get [`UNREACHED`].
///
/// # Examples
///
/// ```
/// use ule_graph::{analysis, gen};
///
/// let g = gen::path(5)?;
/// assert_eq!(analysis::bfs_distances(&g, 0)[4], 4);
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.len()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for &u in g.neighbors_of(v) {
            if dist[u] == UNREACHED {
                dist[u] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// BFS parents from `src` (parent of `src` is itself); unreachable nodes map
/// to `usize::MAX`.
pub fn bfs_tree(g: &Graph, src: NodeId) -> Vec<NodeId> {
    let mut parent = vec![usize::MAX; g.len()];
    let mut queue = VecDeque::new();
    parent[src] = src;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors_of(v) {
            if parent[u] == usize::MAX {
                parent[u] = v;
                queue.push_back(u);
            }
        }
    }
    parent
}

/// Eccentricity of `src`: the maximum BFS distance to any node.
///
/// Returns `None` if some node is unreachable.
pub fn eccentricity(g: &Graph, src: NodeId) -> Option<u32> {
    let mut bfs = Bfs::new(g.len());
    let ecc = bfs.run(g, src, |_, _| {});
    bfs.reached_all().then_some(ecc)
}

/// Exact diameter, computed at most once per graph.
///
/// The first call on a [`Graph`] computes the diameter and stores it in
/// the graph; every later call — on the graph, or on a clone or
/// [`Graph::shuffle_ports`] copy made after it — is a load. The memo is a
/// [`std::sync::OnceLock`]: concurrent first calls from several threads
/// compute once and all return that value.
///
/// The computation bounds eccentricities (Takes and Kosters, "Determining
/// the diameter of small world networks", CIKM 2011). Each BFS from a
/// candidate `v` gives every node `w` the bounds
/// `max(ecc(v) − d, d) ≤ ecc(w) ≤ ecc(v) + d`, with `d = d(v, w)`. A
/// candidate whose upper bound is at most the largest eccentricity found
/// so far cannot raise the diameter and is dropped; the search ends when
/// no candidate is left or when that eccentricity meets `2·ecc(v)` for
/// some `v`. Sources alternate between the candidate with the largest
/// upper bound and the one with the smallest lower bound, starting from a
/// node of highest degree. Each BFS costs `O(n + m)` and reuses one set of
/// buffers; a few dozen suffice on sparse random graphs. On
/// vertex-transitive graphs such as cycles and tori every eccentricity is
/// `D`, nothing prunes, and once the bounding has cost more than it saved
/// the remaining candidates are swept without it: `n` passes, as many as
/// [`diameter_all_pairs`] runs, never more.
///
/// Returns `None` for disconnected graphs.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    *g.diameter_memo().get_or_init(|| bounding_diameter(g).0)
}

/// The diameter computation behind [`diameter_exact`], plus the number
/// of BFS passes it ran.
fn bounding_diameter(g: &Graph) -> (Option<u32>, usize) {
    let n = g.len();
    let mut bfs = Bfs::new(n);
    let mut dist = vec![0u32; n];
    // Per-node eccentricity bounds, valid for every node; only the
    // candidates' are kept current.
    let mut lo = vec![0u32; n];
    let mut hi = vec![u32::MAX; n];
    let mut candidates: Vec<NodeId> = (0..n).collect();
    // The diameter lies in `[d_lo, d_hi]`: the largest eccentricity seen,
    // and twice the smallest.
    let (mut d_lo, mut d_hi) = (0u32, u32::MAX);
    // Work, in node visits: a pass costs about `n + 2m`, a bounding scan
    // about 2 per candidate. Scans are paid for by the passes their pruning
    // saves, with a thirty-second of the all-pairs cost (at least two
    // passes) advanced; once they have spent more than that, bounding
    // stops and the remaining candidates are swept. So on graphs where
    // nothing prunes the cost stays within a few percent of `n` passes.
    let pass_cost = (n + 2 * g.edge_count()) as i64;
    let mut credit = pass_cost * (n as i64 / 32).max(2);
    let mut next = (0..n).max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)));
    let (mut passes, mut take_low) = (0, true);
    while let Some(v) = next {
        let sweeping = credit < 0;
        let ecc = if sweeping {
            bfs.run(g, v, |_, _| {})
        } else {
            bfs.run(g, v, |w, d| dist[w] = d)
        };
        passes += 1;
        if !bfs.reached_all() {
            return (None, passes);
        }
        d_lo = d_lo.max(ecc);
        d_hi = d_hi.min(2 * ecc);
        if d_lo == d_hi {
            break;
        }
        if sweeping {
            // `v` is the last candidate.
            candidates.pop();
            next = candidates.last().copied();
            continue;
        }
        // Tighten, prune, and rank the survivors in one scan. A candidate
        // whose upper bound is at most `d_lo` cannot raise the diameter.
        let before = candidates.len();
        let mut high: Option<(u128, NodeId)> = None;
        let mut low = high;
        candidates.retain(|&w| {
            let d = dist[w];
            lo[w] = lo[w].max(ecc - d).max(d);
            hi[w] = hi[w].min(ecc + d);
            if hi[w] <= d_lo {
                return false;
            }
            // Largest upper bound (a likely peripheral node) or smallest
            // lower bound (a likely central one); ties go to the larger
            // lower or the smaller upper bound, then to the higher degree,
            // then to the lower index.
            let deg = g.degree(w) as u128;
            let key = u128::from(hi[w]) << 64 | u128::from(lo[w]) << 32 | deg;
            if high.map_or(true, |(k, _)| key > k) {
                high = Some((key, w));
            }
            let key = u128::from(!lo[w]) << 64 | u128::from(!hi[w]) << 32 | deg;
            if low.map_or(true, |(k, _)| key > k) {
                low = Some((key, w));
            }
            true
        });
        // The source itself would have been swept anyway.
        let saved = (before - candidates.len()) as i64 - 1;
        credit += saved * pass_cost - 2 * before as i64;
        next = if credit < 0 {
            candidates.last().copied()
        } else if take_low {
            low.map(|(_, w)| w)
        } else {
            high.map(|(_, w)| w)
        };
        take_low = !take_low;
    }
    (Some(d_lo), passes)
}

/// Exact diameter as the largest of all `n` eccentricities — one BFS per
/// node, `O(n·m)`, recomputed on every call. The reference
/// [`diameter_exact`] is tested against; no production path calls it.
///
/// Returns `None` for disconnected graphs.
pub fn diameter_all_pairs(g: &Graph) -> Option<u32> {
    let mut diam = 0;
    for v in g.nodes() {
        for d in bfs_distances(g, v) {
            if d == UNREACHED {
                return None;
            }
            diam = diam.max(d);
        }
    }
    Some(diam)
}

/// Double-sweep lower bound on the diameter: BFS from `src`, then from the
/// farthest node found (the highest-indexed one on ties). Exact on trees;
/// a fast, usually tight estimate elsewhere.
pub fn diameter_double_sweep(g: &Graph, src: NodeId) -> Option<u32> {
    let mut bfs = Bfs::new(g.len());
    bfs.run(g, src, |_, _| {});
    if !bfs.reached_all() {
        return None;
    }
    let far = *bfs.queue[bfs.last_level..].iter().max()?;
    Some(bfs.run(g, far, |_, _| {}))
}

/// Summary statistics used in experiment reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Exact diameter (`None` when disconnected).
    pub diameter: Option<u32>,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Computes all statistics (the diameter through [`diameter_exact`]).
    pub fn compute(g: &Graph) -> GraphStats {
        GraphStats {
            n: g.len(),
            m: g.edge_count(),
            diameter: diameter_exact(g),
            min_degree: g.nodes().map(|v| g.degree(v)).min().unwrap_or(0),
            max_degree: g.max_degree(),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} D={} deg=[{},{}]",
            self.n,
            self.m,
            self.diameter.map_or("∞".into(), |d| d.to_string()),
            self.min_degree,
            self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(6).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d2 = bfs_distances(&g, 3);
        assert_eq!(d2, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_tree_parents() {
        let g = gen::star(5).unwrap();
        let p = bfs_tree(&g, 0);
        assert_eq!(p[0], 0);
        for &parent in &p[1..5] {
            assert_eq!(parent, 0);
        }
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter_exact(&gen::path(10).unwrap()), Some(9));
        assert_eq!(diameter_exact(&gen::cycle(10).unwrap()), Some(5));
        assert_eq!(diameter_exact(&gen::cycle(11).unwrap()), Some(5));
        assert_eq!(diameter_exact(&gen::complete(7).unwrap()), Some(1));
        assert_eq!(diameter_exact(&gen::star(8).unwrap()), Some(2));
        assert_eq!(diameter_exact(&gen::path(1).unwrap()), Some(0));
    }

    #[test]
    fn bounding_prunes_where_it_can_and_sweeps_where_it_cannot() {
        use gen::Family;
        for (family, max_passes) in [
            (Family::SparseRandom, 128),
            (Family::Grid, 16),
            (Family::Path, 8),
            (Family::Lollipop, 8),
            (Family::Cycle, 512),
            (Family::Torus, 529),
        ] {
            let g = gen::workload_graph(1, family, 512).unwrap();
            let (d, passes) = bounding_diameter(&g);
            assert_eq!(d, diameter_all_pairs(&g), "{family:?}");
            assert!(passes <= max_passes, "{family:?}: {passes} passes");
        }
    }

    #[test]
    fn bfs_reuse_matches_fresh_distances() {
        let g = gen::workload_graph(2, gen::Family::SparseRandom, 200).unwrap();
        let mut bfs = Bfs::new(g.len());
        for src in [0, 17, 199, 0] {
            let mut dist = vec![UNREACHED; g.len()];
            let ecc = bfs.run(&g, src, |v, d| dist[v] = d);
            let want = bfs_distances(&g, src);
            assert_eq!(dist, want);
            assert_eq!(Some(ecc), want.iter().copied().max());
            assert!(bfs.reached_all());
            assert_eq!(eccentricity(&g, src), Some(ecc));
        }
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = crate::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(diameter_all_pairs(&g), None);
        assert_eq!(diameter_double_sweep(&g, 0), None);
        assert_eq!(eccentricity(&g, 0), None);
        assert_eq!(bfs_distances(&g, 0)[2], UNREACHED);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        let g = gen::path(17).unwrap();
        assert_eq!(diameter_double_sweep(&g, 8), Some(16));
        let t = gen::balanced_tree(2, 4).unwrap();
        assert_eq!(diameter_double_sweep(&t, 0), diameter_exact(&t));
    }

    #[test]
    fn double_sweep_restarts_from_the_highest_indexed_farthest_node() {
        for family in [
            gen::Family::SparseRandom,
            gen::Family::Grid,
            gen::Family::Expander,
        ] {
            let g = gen::workload_graph(4, family, 300).unwrap();
            for src in [0, 150, g.len() - 1] {
                let d1 = bfs_distances(&g, src);
                let (far, _) = d1.iter().enumerate().max_by_key(|&(_, d)| d).unwrap();
                let want = bfs_distances(&g, far).into_iter().max();
                assert_eq!(
                    diameter_double_sweep(&g, src),
                    want,
                    "{family:?} from {src}"
                );
            }
        }
    }

    #[test]
    fn stats_display() {
        let s = GraphStats::compute(&gen::cycle(6).unwrap());
        assert_eq!(s.n, 6);
        assert_eq!(s.m, 6);
        assert_eq!(s.diameter, Some(3));
        assert_eq!(s.min_degree, 2);
        assert!(format!("{s}").contains("D=3"));
    }
}
