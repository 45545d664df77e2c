//! The CSR adjacency snapshot: the round driver's reusable, flat view of the
//! adversary's per-round topology.
//!
//! The adversary hands the simulator a fresh [`Graph`] every round, but
//! consecutive dynamic-network topologies are often the *same* graph
//! (every round inside a T-stable window, every repeated round of a
//! replayed trace). [`CsrTopology::load`] therefore compares the incoming
//! adjacency lists against its own arrays, node by node, and
//!
//! * **no difference** keeps the offsets/targets arrays untouched and
//!   counts the round as reused;
//! * **the first difference**, at node `u`, ends the comparison and
//!   refills the arrays from `u` on (everything before `u` was just found
//!   equal), with no heap growth after warmup (the buffers are reused).
//!
//! `load` reports which of the two happened, which is what lets the
//! driver search each *distinct* topology for connectivity once
//! ([`CsrTopology::is_connected`], on these arrays, with its scratch kept
//! here) instead of every round's `Graph`.

use crate::graph::Graph;

/// A compressed-sparse-row adjacency snapshot, reused across equal rounds.
#[derive(Debug)]
pub struct CsrTopology {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` indexes `targets` with `u`'s
    /// neighbors, ascending.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Do the arrays hold a graph put there by [`CsrTopology::load`]?
    /// False before the first load and after a `load_plan`, when there is
    /// nothing a round could be equal to.
    holds_graph: bool,
    rounds_reused: u64,
    /// Scratch of [`CsrTopology::is_connected`]: visited flags and the
    /// search stack, empty until the first search.
    seen: Vec<bool>,
    stack: Vec<u32>,
}

impl CsrTopology {
    /// An empty snapshot for graphs on `n` nodes.
    pub fn new(n: usize) -> Self {
        CsrTopology {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            holds_graph: false,
            rounds_reused: 0,
            seen: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Does node `u` have exactly the neighbors `want` in the snapshot?
    fn row_is(&self, u: usize, want: &[usize]) -> bool {
        let have = self.neighbors(u);
        have.len() == want.len() && have.iter().zip(want).all(|(&a, &b)| a as usize == b)
    }

    /// Loads the round's topology: compares `g` against the current
    /// snapshot and refills the CSR arrays from the first node whose
    /// neighbors differ. Returns whether anything was refilled — `false`
    /// means `g` is the graph already held (a reused round). The first
    /// load, and the first after a [`CsrTopology::load_plan`], always
    /// refill.
    ///
    /// # Panics
    /// Panics if `g` is not on `n` nodes.
    pub fn load(&mut self, g: &Graph) -> bool {
        assert_eq!(g.num_nodes(), self.n, "graph size mismatch");
        let first_diff = if self.holds_graph {
            (0..self.n).find(|&u| !self.row_is(u, g.neighbors(u)))
        } else {
            Some(0)
        };
        let Some(from) = first_diff else {
            self.rounds_reused += 1;
            return false;
        };
        self.offsets[0] = 0;
        self.targets.truncate(self.offsets[from] as usize);
        for u in from..self.n {
            self.targets
                .extend(g.neighbors(u).iter().map(|&v| v as u32));
            self.offsets[u + 1] = self.targets.len() as u32;
        }
        self.holds_graph = true;
        true
    }

    /// Is the snapshot connected, reading every row as undirected
    /// adjacency? (As [`Graph::is_connected`]: zero or one node is.) The
    /// driver asks this of every topology `load` accepted as new.
    pub fn is_connected(&mut self) -> bool {
        if self.n <= 1 {
            return true;
        }
        self.seen.clear();
        self.seen.resize(self.n, false);
        self.seen[0] = true;
        self.stack.clear();
        self.stack.reserve(self.n); // each node is pushed at most once
        self.stack.push(0);
        let mut reached = 1;
        while let Some(u) = self.stack.pop() {
            let row = self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize;
            for &v in &self.targets[row] {
                if !self.seen[v as usize] {
                    self.seen[v as usize] = true;
                    reached += 1;
                    self.stack.push(v);
                }
            }
        }
        reached == self.n
    }

    /// Overwrites the snapshot with an externally-planned **directed**
    /// adjacency (CSR offsets + targets) — the delivery layer's per-round
    /// delivered-sender plan, where `neighbors(u)` becomes "the senders
    /// receiver `u` hears". No reuse (a plan changes every round), and a
    /// later [`CsrTopology::load`] refills whatever it is handed; keep
    /// plan snapshots in their own instance when the adversary
    /// snapshot's reuse counter matters.
    ///
    /// # Panics
    /// Panics if `offsets` is not an (n + 1)-row CSR bound list.
    pub fn load_plan(&mut self, offsets: &[u32], targets: &[u32]) {
        assert_eq!(
            offsets.len(),
            self.n + 1,
            "plan offsets must have n + 1 rows"
        );
        self.offsets.copy_from_slice(offsets);
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.holds_graph = false;
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

    /// What the edge-id diff this comparison replaced counted, on the
    /// same 64 rounds (literal recorded before it was deleted).
    #[test]
    fn rounds_reused_counts_what_the_edge_id_diff_counted() {
        let mut adv = TStable::new(ShuffledPathAdversary, 4);
        let view = KnowledgeView::blank(24, 0);
        let mut rng = StdRng::seed_from_u64(18);
        let mut csr = CsrTopology::new(24);
        let mut rebuilt = 0;
        for round in 0..64 {
            let g = adv.topology(round, &view, &mut rng);
            rebuilt += u64::from(csr.load(&g));
            assert_matches(&csr, &g);
        }
        assert_eq!(csr.rounds_reused(), 48);
        assert_eq!(rebuilt, 64 - 48, "load reports exactly the rebuilds");
    }

    #[test]
    fn first_load_and_load_after_a_plan_always_rebuild() {
        let g = crate::generators::cycle(6);
        let mut csr = CsrTopology::new(6);
        // An empty graph equals the fresh snapshot's zeroed arrays; the
        // first load still is not a reuse.
        assert!(CsrTopology::new(6).load(&Graph::empty(6)));
        assert!(csr.load(&g), "first load rebuilds");
        assert!(!csr.load(&g), "the same graph again is reused");
        assert_eq!(csr.rounds_reused(), 1);
        // A plan that happens to equal the adjacency still invalidates it.
        let (offsets, targets) = (csr.offsets.clone(), csr.targets.clone());
        csr.load_plan(&offsets, &targets);
        assert!(csr.load(&g), "a load after load_plan rebuilds");
        assert_matches(&csr, &g);
        assert_eq!(csr.rounds_reused(), 1);
    }

    #[test]
    fn a_change_in_a_late_row_refills_only_the_tail_correctly() {
        let mut g = crate::generators::path(8);
        let mut csr = CsrTopology::new(8);
        csr.load(&g);
        g.add_edge(5, 7);
        assert!(csr.load(&g));
        assert_matches(&csr, &g);
        // Same degrees, different neighbors: a length check alone would
        // call these two equal.
        let a = Graph::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let b = Graph::from_edges(4, &[(0, 2), (1, 3), (1, 2)]);
        csr = CsrTopology::new(4);
        csr.load(&a);
        assert!(csr.load(&b));
        assert_matches(&csr, &b);
    }

    #[test]
    fn connectivity_on_the_arrays_agrees_with_the_graph() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0usize, 1, 2, 7] {
            let mut csr = CsrTopology::new(n);
            csr.load(&Graph::empty(n));
            assert_eq!(csr.is_connected(), n <= 1, "empty graph on {n}");
        }
        let mut csr = CsrTopology::new(9);
        for extra in 0..12 {
            let mut g = crate::generators::random_connected(9, extra % 3, &mut rng);
            csr.load(&g);
            assert!(csr.is_connected());
            // Cut node 8 off: drop its edges by rebuilding without them.
            let kept: Vec<_> = g.edges().into_iter().filter(|&(_, v)| v != 8).collect();
            g = Graph::from_edges(9, &kept);
            csr.load(&g);
            assert_eq!(csr.is_connected(), g.is_connected());
            assert!(!csr.is_connected());
        }
    }
}
