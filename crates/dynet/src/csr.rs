//! The CSR adjacency snapshot: the round driver's reusable, flat view of the
//! adversary's per-round topology.
//!
//! The adversary hands the simulator a fresh [`Graph`] every round, but
//! consecutive dynamic-network topologies usually share most of their
//! edges (that observation is the whole `.dct` trace format). The
//! snapshot therefore works in edge-delta terms, reusing the
//! [`trace`](crate::trace) flip machinery: each round the incoming graph's
//! sorted [`edge_id`] list is diffed against the previous round's, and
//!
//! * **zero flips** — every round inside a T-stable window, every
//!   repeated round of a replayed trace — keeps the existing
//!   offsets/targets arrays untouched;
//! * **any flips** trigger one O(n + m) refill of the arrays, with no
//!   heap growth after warmup (the buffers are reused).

use crate::graph::Graph;
use crate::trace::edge_id;

/// A compressed-sparse-row adjacency snapshot with delta-driven reuse.
#[derive(Debug)]
pub struct CsrTopology {
    n: usize,
    /// Sorted edge ids of the current snapshot (the diff base).
    ids: Vec<u64>,
    /// Reused buffer for the incoming round's edge ids.
    scratch: Vec<u64>,
    /// `offsets[u]..offsets[u + 1]` indexes `targets` with `u`'s
    /// neighbors, ascending.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    rounds_reused: u64,
    rounds_rebuilt: u64,
}

/// Number of elements in the symmetric difference of two sorted,
/// duplicate-free id lists — the flip count of [`trace`](crate::trace)'s
/// delta encoding, computed without materializing the flip list.
fn flip_count(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut flips) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                flips += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                flips += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    flips + (a.len() - i) + (b.len() - j)
}

impl CsrTopology {
    /// An empty snapshot for graphs on `n` nodes.
    pub fn new(n: usize) -> Self {
        CsrTopology {
            n,
            ids: Vec::new(),
            scratch: Vec::new(),
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            rounds_reused: 0,
            rounds_rebuilt: 0,
        }
    }

    /// Loads the round's topology: diffs `g`'s edge ids against the
    /// current snapshot and refills the CSR arrays only when edges
    /// actually flipped.
    ///
    /// # Panics
    /// Panics if `g` is not on `n` nodes.
    pub fn load(&mut self, g: &Graph) {
        assert_eq!(g.num_nodes(), self.n, "graph size mismatch");
        // Gather sorted edge ids: iterating the higher endpoint ascending
        // (and its sorted lower neighbors) emits ids in increasing order.
        self.scratch.clear();
        for hi in 0..self.n {
            for &lo in g.neighbors(hi) {
                if lo < hi {
                    self.scratch.push(edge_id(lo, hi));
                }
            }
        }
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]));
        if flip_count(&self.ids, &self.scratch) == 0 && self.rounds_rebuilt > 0 {
            self.rounds_reused += 1;
            return;
        }
        std::mem::swap(&mut self.ids, &mut self.scratch);
        self.targets.clear();
        self.offsets[0] = 0;
        for u in 0..self.n {
            for &v in g.neighbors(u) {
                self.targets.push(v as u32);
            }
            self.offsets[u + 1] = self.targets.len() as u32;
        }
        self.rounds_rebuilt += 1;
    }

    /// Overwrites the snapshot with an externally-planned **directed**
    /// adjacency (CSR offsets + targets) — the delivery layer's per-round
    /// delivered-sender plan, where `neighbors(u)` becomes "the senders
    /// receiver `u` hears". No delta reuse (a plan changes every round),
    /// and the delta base is invalidated so a later [`CsrTopology::load`]
    /// rebuilds; keep plan snapshots in their own instance when the
    /// adversary snapshot's reuse counter matters.
    ///
    /// # Panics
    /// Panics if `offsets` is not an (n + 1)-row CSR bound list.
    pub fn load_plan(&mut self, offsets: &[u32], targets: &[u32]) {
        assert_eq!(
            offsets.len(),
            self.n + 1,
            "plan offsets must have n + 1 rows"
        );
        self.ids.clear();
        self.offsets.copy_from_slice(offsets);
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.rounds_rebuilt += 1;
    }

    /// The neighbors of `u` in the current snapshot, ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges in the current snapshot.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// How many `load` calls were served without a rebuild (the T-stable
    /// / replay win), for instrumentation.
    pub fn rounds_reused(&self) -> u64 {
        self.rounds_reused
    }
}

impl dyncode_delivery::NeighborView for CsrTopology {
    fn for_each_neighbor(&self, u: usize, visit: &mut dyn FnMut(usize)) {
        for &v in self.neighbors(u) {
            visit(v as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::ShuffledPathAdversary;
    use crate::adversary::{Adversary, KnowledgeView, TStable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches(csr: &CsrTopology, g: &Graph) {
        assert_eq!(csr.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() {
            let want: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
            assert_eq!(csr.neighbors(u), &want[..], "node {u}");
        }
    }

    #[test]
    fn snapshot_tracks_changing_topologies() {
        let mut adv = ShuffledPathAdversary;
        let view = KnowledgeView::blank(11, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut csr = CsrTopology::new(11);
        for round in 0..12 {
            let g = adv.topology(round, &view, &mut rng);
            csr.load(&g);
            assert_matches(&csr, &g);
        }
    }

    #[test]
    fn unchanged_rounds_are_reused() {
        let mut adv = TStable::new(ShuffledPathAdversary, 4);
        let view = KnowledgeView::blank(9, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut csr = CsrTopology::new(9);
        for round in 0..12 {
            let g = adv.topology(round, &view, &mut rng);
            csr.load(&g);
            assert_matches(&csr, &g);
        }
        // 12 rounds at T = 4: at most 3 rebuilds (paths may even repeat).
        assert!(
            csr.rounds_reused() >= 8,
            "expected ≥ 8 delta-free rounds, got {}",
            csr.rounds_reused()
        );
    }

    #[test]
    fn flip_count_matches_symm_diff() {
        use crate::trace::symm_diff;
        let a = vec![1u64, 3, 5, 9];
        let b = vec![3u64, 4, 9, 11];
        assert_eq!(flip_count(&a, &b), symm_diff(&a, &b).len());
        assert_eq!(flip_count(&a, &a), 0);
        assert_eq!(flip_count(&[], &a), 4);
    }
}
