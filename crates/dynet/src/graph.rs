//! Undirected graphs on `0..n`, the per-round topologies of the dynamic
//! network model.
//!
//! The KLO model (Section 4.1) requires every per-round communication graph
//! to be connected; [`Graph::is_connected`] is the check the simulator
//! enforces on every adversary.

/// A node identifier (index in `0..n`).
pub type NodeId = usize;

/// A simple undirected graph over nodes `0..n`, adjacency-list backed.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl core::fmt::Debug for Graph {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.num_nodes(), self.num_edges)
    }
}

impl Graph {
    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = Graph::empty(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Bulk constructor: the graph on `n` nodes whose edges are `pairs`,
    /// each `(lo, hi)` with `lo < hi < n`, strictly ascending by
    /// `(hi, lo)` — the order of ascending [`edge_id`](crate::trace::edge_id)s,
    /// which the caller has checked. The iterator is walked twice: once
    /// to count degrees, once to fill exact-capacity lists with plain
    /// pushes. That order already leaves every list sorted — node `u`
    /// gets its lower neighbors (ascending) while `hi = u`, its higher
    /// ones (ascending) afterwards — so the result equals the
    /// [`add_edge`](Graph::add_edge) loop's, without its search and shift
    /// per edge.
    pub(crate) fn from_ascending_pairs(
        n: usize,
        pairs: impl Iterator<Item = (NodeId, NodeId)> + Clone,
    ) -> Self {
        let mut degree = vec![0usize; n];
        let mut num_edges = 0;
        for (lo, hi) in pairs.clone() {
            degree[lo] += 1;
            degree[hi] += 1;
            num_edges += 1;
        }
        let mut adj: Vec<Vec<NodeId>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (lo, hi) in pairs {
            adj[hi].push(lo);
            adj[lo].push(hi);
        }
        debug_assert!(adj.iter().all(|ns| ns.windows(2).all(|w| w[0] < w[1])));
        Graph { adj, num_edges }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Adjacency lists are kept **sorted**, so the graph is a canonical
    /// function of its edge set: equality, neighbor iteration (and hence
    /// simulator delivery order) never depend on insertion order — which
    /// is what lets a delta-decoded replay reproduce a run exactly.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let n = self.num_nodes();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        assert_ne!(u, v, "self-loop at {u}");
        let iu = self.adj[u].binary_search(&v).err();
        assert!(iu.is_some(), "duplicate edge ({u},{v})");
        let iv = self.adj[v].binary_search(&u).err();
        self.adj[u].insert(iu.expect("just checked"), v);
        self.adj[v].insert(iv.expect("mirror of checked edge"), u);
        self.num_edges += 1;
    }

    /// Is `{u, v}` an edge?
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u].binary_search(&v).is_ok()
    }

    /// The neighbors of `u`, in increasing id order.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// The degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// All edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, ns) in self.adj.iter().enumerate() {
            for &v in ns {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// BFS distances from `src`; `usize::MAX` marks unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<usize> {
        let n = self.num_nodes();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Is the graph connected? (The empty graph on 0 nodes is connected;
    /// a single node is connected.)
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// The graph diameter.
    ///
    /// # Panics
    /// Panics if the graph is disconnected or empty.
    pub fn diameter(&self) -> usize {
        assert!(self.num_nodes() > 0, "diameter of empty graph");
        let mut best = 0;
        for u in 0..self.num_nodes() {
            let d = self.bfs_distances(u);
            let far = *d.iter().max().unwrap();
            assert_ne!(far, usize::MAX, "diameter of disconnected graph");
            best = best.max(far);
        }
        best
    }

    /// The `d`-th power graph G^d: an edge between every pair at distance
    /// in `1..=d` (Section 8.1 patches are built on G^D).
    pub fn power(&self, d: usize) -> Graph {
        let n = self.num_nodes();
        let mut g = Graph::empty(n);
        for u in 0..n {
            let dist = self.bfs_distances(u);
            for (v, &dv) in dist.iter().enumerate() {
                if v > u && dv >= 1 && dv <= d {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// A BFS spanning tree rooted at `root`, as `(parent, depth)` vectors;
    /// `parent[root]` is `None`, unreachable nodes keep depth `usize::MAX`.
    pub fn bfs_tree(&self, root: NodeId) -> (Vec<Option<NodeId>>, Vec<usize>) {
        let n = self.num_nodes();
        let mut parent = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        depth[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        (parent, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn basic_edge_ops() {
        let mut g = Graph::empty(4);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = Graph::empty(3);
        g.add_edge(1, 1);
    }

    #[test]
    fn connectivity() {
        assert!(path(5).is_connected());
        let mut g = Graph::empty(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(!Graph::empty(2).is_connected());
    }

    #[test]
    fn distances_and_diameter() {
        let g = path(6);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(g.diameter(), 5);
        let mut cycle = path(6);
        cycle.add_edge(0, 5);
        assert_eq!(cycle.diameter(), 3);
    }

    #[test]
    fn power_graph_connects_within_distance() {
        let g = path(6);
        let g2 = g.power(2);
        assert!(g2.has_edge(0, 2));
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g2.diameter(), 3); // path of 6 nodes, stride-2 hops
                                      // G^(n) of a connected graph is complete.
        let gn = g.power(5);
        assert_eq!(gn.num_edges(), 6 * 5 / 2);
    }

    #[test]
    fn bfs_tree_depths_match_distances() {
        let g = path(5);
        let (parent, depth) = g.bfs_tree(2);
        assert_eq!(depth, vec![2, 1, 0, 1, 2]);
        assert_eq!(parent[2], None);
        assert_eq!(parent[1], Some(2));
        assert_eq!(parent[0], Some(1));
        assert_eq!(parent[3], Some(2));
    }
}
