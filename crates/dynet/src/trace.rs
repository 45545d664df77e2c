//! Topology trace recording and replay, delta-encoded.
//!
//! Deterministic replays make adversarial schedules reproducible across
//! protocols: record the topologies one protocol saw, then run another
//! protocol against the identical schedule (useful for paired comparisons
//! and for the omniscient-adversary experiments, where a schedule is
//! searched for offline and then replayed).
//!
//! Traces are stored as **edge deltas**, not full graphs: consecutive
//! dynamic-network topologies typically share most of their edges, so a
//! round is represented by the sorted list of *flipped* edge ids
//! ([`edge_id`]) relative to the previous round (round 0 flips against the
//! empty graph). Recording a round costs one diff (no `Graph` clone), and
//! a million-round trace is a few flip lists, not a million adjacency
//! structures. The same encoding, framed with varints, is the on-disk
//! `.dct` format of `dyncode-scenarios`.

use crate::adversary::{Adversary, KnowledgeView};
use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// The canonical id of the undirected edge `{u, v}`: index into the
/// upper-triangular pair enumeration, `id = max·(max−1)/2 + min`. Ids are
/// dense in `0..n(n−1)/2` and independent of `n`, so a flip list is just
/// a sorted integer sequence.
///
/// # Panics
/// Panics on a self-loop.
pub fn edge_id(u: NodeId, v: NodeId) -> u64 {
    assert_ne!(u, v, "self-loop has no edge id");
    let (lo, hi) = if u < v {
        (u as u64, v as u64)
    } else {
        (v as u64, u as u64)
    };
    hi * (hi - 1) / 2 + lo
}

/// How many edge ids a graph on `n` nodes can use: `n(n−1)/2`, the ids
/// being `0..num_edge_ids(n)` (none for `n ≤ 1`).
pub fn num_edge_ids(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// Inverse of [`edge_id`]: the `(min, max)` endpoints of an edge id.
pub fn id_to_edge(id: u64) -> (NodeId, NodeId) {
    // hi is the largest v with v(v−1)/2 ≤ id; solve the quadratic and
    // correct any float error.
    let mut hi = (((8.0 * id as f64 + 1.0).sqrt() + 1.0) / 2.0) as u64;
    while hi >= 1 && hi * (hi - 1) / 2 > id {
        hi -= 1;
    }
    while (hi + 1) * hi / 2 <= id {
        hi += 1;
    }
    let lo = id - hi * (hi - 1) / 2;
    (lo as NodeId, hi as NodeId)
}

/// The sorted edge ids of a graph.
pub fn edge_ids(g: &Graph) -> Vec<u64> {
    let mut ids: Vec<u64> = g.edges().iter().map(|&(u, v)| edge_id(u, v)).collect();
    ids.sort_unstable();
    ids
}

/// Symmetric difference of two sorted, duplicate-free id lists.
///
/// This single operation is both the delta *encoder* (diff two rounds'
/// edge sets → flip list) and the delta *decoder* (apply a flip list to
/// an edge set → next edge set), because flipping is an involution.
pub fn symm_diff(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Materializes a graph on `n` nodes from sorted edge ids.
///
/// Ascending ids walk the higher endpoint and then the lower one
/// ascending, so one running `(hi, base = hi(hi−1)/2)` decodes the whole
/// list without [`id_to_edge`]'s square root per id.
///
/// # Panics
/// Panics unless `ids` is strictly ascending and below
/// [`num_edge_ids`]`(n)`.
pub fn graph_from_ids(n: usize, ids: &[u64]) -> Graph {
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "edge ids must be strictly ascending"
    );
    if let Some(&last) = ids.last() {
        assert!(
            last < num_edge_ids(n),
            "edge id {last} out of range for n={n}"
        );
    }
    let (mut hi, mut base) = (1u64, 0u64);
    Graph::from_ascending_pairs(
        n,
        ids.iter().map(move |&id| {
            while id >= base + hi {
                base += hi;
                hi += 1;
            }
            ((id - base) as NodeId, hi as NodeId)
        }),
    )
}

/// A delta-encoded topology trace: per round, the sorted list of edge ids
/// that flipped relative to the previous round (round 0 flips against the
/// empty graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaTrace {
    n: usize,
    rounds: Vec<Vec<u64>>,
    /// Edge ids after the last pushed round (the encoder's diff base).
    last: Vec<u64>,
}

impl DeltaTrace {
    /// An empty trace for graphs on `n` nodes. (`n = 0` adopts the node
    /// count of the first pushed graph.)
    pub fn new(n: usize) -> Self {
        DeltaTrace {
            n,
            rounds: Vec::new(),
            last: Vec::new(),
        }
    }

    /// Node count of the recorded graphs.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The flip list of `round` (sorted edge ids toggled vs the previous
    /// round).
    pub fn flips(&self, round: usize) -> &[u64] {
        &self.rounds[round]
    }

    /// Appends a pre-computed flip list (used by streaming decoders; the
    /// list must be sorted and duplicate-free).
    pub fn push_flips(&mut self, flips: Vec<u64>) {
        debug_assert!(flips.windows(2).all(|w| w[0] < w[1]), "flips not sorted");
        self.last = symm_diff(&self.last, &flips);
        self.rounds.push(flips);
    }

    /// Records `g` as the next round, storing only its delta.
    ///
    /// # Panics
    /// Panics if `g` has a different node count than the trace.
    pub fn push(&mut self, g: &Graph) {
        if self.n == 0 && self.rounds.is_empty() {
            self.n = g.num_nodes();
        }
        assert_eq!(g.num_nodes(), self.n, "graph size mismatch");
        let ids = edge_ids(g);
        let flips = symm_diff(&self.last, &ids);
        self.rounds.push(flips);
        self.last = ids;
    }

    /// Total flips across all rounds (the compressed size driver).
    pub fn total_flips(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Iterates the recorded graphs in order, materializing each round
    /// incrementally (O(flips + edges) per round, never the whole trace).
    pub fn graphs(&self) -> Graphs<'_> {
        Graphs {
            trace: self,
            edges: Vec::new(),
            next: 0,
        }
    }
}

/// Iterator over a [`DeltaTrace`]'s materialized rounds.
pub struct Graphs<'a> {
    trace: &'a DeltaTrace,
    edges: Vec<u64>,
    next: usize,
}

impl Iterator for Graphs<'_> {
    type Item = Graph;

    fn next(&mut self) -> Option<Graph> {
        if self.next >= self.trace.len() {
            return None;
        }
        self.edges = symm_diff(&self.edges, self.trace.flips(self.next));
        self.next += 1;
        Some(graph_from_ids(self.trace.num_nodes(), &self.edges))
    }
}

/// A shared, growable topology trace (delta-encoded).
pub type SharedTrace = Rc<RefCell<DeltaTrace>>;

/// Wraps an adversary, recording every topology it emits as an edge delta
/// (no per-round `Graph` clones — the recorder diffs against the previous
/// round's edge ids).
pub struct RecordingAdversary<A> {
    inner: A,
    trace: SharedTrace,
}

impl<A: Adversary> RecordingAdversary<A> {
    /// Wraps `inner`; returns the wrapper and a handle to the trace being
    /// recorded.
    pub fn new(inner: A) -> (Self, SharedTrace) {
        let trace: SharedTrace = Rc::new(RefCell::new(DeltaTrace::new(0)));
        (
            RecordingAdversary {
                inner,
                trace: trace.clone(),
            },
            trace,
        )
    }
}

impl<A: Adversary> Adversary for RecordingAdversary<A> {
    fn name(&self) -> String {
        format!("recorded({})", self.inner.name())
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let g = self.inner.topology(round, view, rng);
        self.trace.borrow_mut().push(&g);
        g
    }

    fn needs_view(&self) -> bool {
        self.inner.needs_view()
    }
}

/// Replays a fixed topology sequence; past the end it cycles (so longer
/// protocols can still run against the recorded schedule).
///
/// The trace is stored delta-encoded and decoded incrementally behind a
/// cursor: sequential access (what the simulator does) costs one flip
/// application per round; a backward jump (the cycling wrap) restarts the
/// decode from round 0.
pub struct ReplayAdversary {
    trace: DeltaTrace,
    /// Edge ids after applying flips of rounds `0..played`.
    edges: Vec<u64>,
    played: usize,
}

impl ReplayAdversary {
    /// Replays `trace`.
    ///
    /// # Panics
    /// Panics if `trace` is empty.
    pub fn new(trace: DeltaTrace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        ReplayAdversary {
            trace,
            edges: Vec::new(),
            played: 0,
        }
    }

    /// Replays an explicit graph sequence (delta-encoding it once).
    ///
    /// # Panics
    /// Panics if `graphs` is empty.
    pub fn from_graphs(graphs: &[Graph]) -> Self {
        let mut trace = DeltaTrace::new(0);
        for g in graphs {
            trace.push(g);
        }
        ReplayAdversary::new(trace)
    }

    /// Replays a previously recorded shared trace, **taking ownership**:
    /// when this is the last handle (the usual case — the recorder has
    /// been dropped), the trace moves without any copy; otherwise the
    /// compact delta representation is cloned once.
    ///
    /// # Panics
    /// Panics if the trace is empty.
    pub fn from_shared(trace: SharedTrace) -> Self {
        let owned = match Rc::try_unwrap(trace) {
            Ok(cell) => cell.into_inner(),
            Err(shared) => shared.borrow().clone(),
        };
        ReplayAdversary::new(owned)
    }

    /// The recorded length.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Is the trace empty? (Never true for constructed values.)
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Decodes forward (restarting on a backward jump) until the cursor
    /// sits on `idx`, then materializes that round's graph.
    fn graph_at(&mut self, idx: usize) -> Graph {
        if self.played > idx + 1 {
            self.edges.clear();
            self.played = 0;
        }
        while self.played <= idx {
            self.edges = symm_diff(&self.edges, self.trace.flips(self.played));
            self.played += 1;
        }
        graph_from_ids(self.trace.num_nodes(), &self.edges)
    }
}

impl Adversary for ReplayAdversary {
    fn name(&self) -> String {
        format!("replay({} rounds)", self.trace.len())
    }

    fn topology(&mut self, round: usize, _view: &KnowledgeView, _rng: &mut StdRng) -> Graph {
        let idx = round % self.trace.len();
        self.graph_at(idx)
    }

    fn needs_view(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::ShuffledPathAdversary;
    use rand::SeedableRng;

    #[test]
    fn edge_id_round_trips() {
        let mut seen = std::collections::HashSet::new();
        for v in 1..40usize {
            for u in 0..v {
                let id = edge_id(u, v);
                assert_eq!(id_to_edge(id), (u, v));
                assert_eq!(edge_id(v, u), id, "undirected");
                assert!(seen.insert(id), "ids must be unique");
            }
        }
        // Dense: 40 nodes have exactly 40·39/2 ids.
        assert_eq!(seen.len(), 40 * 39 / 2);
        assert_eq!(*seen.iter().max().unwrap(), 40 * 39 / 2 - 1);
    }

    #[test]
    fn edge_id_count_saturates_at_no_nodes() {
        assert_eq!([0, 1, 2, 3, 40].map(num_edge_ids), [0, 0, 1, 3, 780]);
    }

    // The bulk build relies on ascending, in-range ids and cannot put an
    // unsorted list right, so `graph_from_ids` refuses all three.
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn graph_from_ids_rejects_unsorted_ids() {
        graph_from_ids(5, &[0, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn graph_from_ids_rejects_duplicate_ids() {
        graph_from_ids(5, &[0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "edge id 10 out of range for n=5")]
    fn graph_from_ids_rejects_out_of_range_ids() {
        graph_from_ids(5, &[0, 2, 10]);
    }

    #[test]
    fn symm_diff_is_involutive_delta() {
        let a = vec![1u64, 3, 5, 9];
        let b = vec![3u64, 4, 9, 11];
        let d = symm_diff(&a, &b);
        assert_eq!(d, vec![1, 4, 5, 11]);
        assert_eq!(symm_diff(&a, &d), b, "applying the delta decodes");
        assert_eq!(symm_diff(&b, &d), a, "flipping is an involution");
        assert!(symm_diff(&a, &a).is_empty());
    }

    #[test]
    fn delta_trace_round_trips_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let view = KnowledgeView::blank(9, 2);
        let mut adv = ShuffledPathAdversary;
        let originals: Vec<Graph> = (0..8).map(|r| adv.topology(r, &view, &mut rng)).collect();
        let mut trace = DeltaTrace::new(0);
        for g in &originals {
            trace.push(g);
        }
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.num_nodes(), 9);
        let back: Vec<Graph> = trace.graphs().collect();
        assert_eq!(back, originals);
    }

    #[test]
    fn repeated_graph_has_empty_delta() {
        let g = crate::generators::path(6);
        let mut trace = DeltaTrace::new(6);
        trace.push(&g);
        trace.push(&g);
        assert_eq!(trace.flips(0).len(), 5);
        assert!(trace.flips(1).is_empty(), "identical round must cost zero");
    }

    #[test]
    fn record_then_replay_reproduces_topologies() {
        let (mut rec, trace) = RecordingAdversary::new(ShuffledPathAdversary);
        let view = KnowledgeView::blank(10, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let originals: Vec<Graph> = (0..6).map(|r| rec.topology(r, &view, &mut rng)).collect();
        assert_eq!(trace.borrow().len(), 6);

        drop(rec); // last recorder handle gone: from_shared moves, no copy
        let mut replay = ReplayAdversary::from_shared(trace);
        let mut rng2 = StdRng::seed_from_u64(999); // replay ignores rng
        for (r, g) in originals.iter().enumerate() {
            assert_eq!(&replay.topology(r, &view, &mut rng2), g);
        }
        // Cycles past the end (a backward jump of the decode cursor).
        assert_eq!(&replay.topology(6, &view, &mut rng2), &originals[0]);
        assert_eq!(&replay.topology(7, &view, &mut rng2), &originals[1]);
    }

    #[test]
    fn replay_serves_arbitrary_round_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let view = KnowledgeView::blank(7, 1);
        let mut adv = ShuffledPathAdversary;
        let originals: Vec<Graph> = (0..5).map(|r| adv.topology(r, &view, &mut rng)).collect();
        let mut replay = ReplayAdversary::from_graphs(&originals);
        let mut rng2 = StdRng::seed_from_u64(0);
        for &r in &[4usize, 0, 3, 3, 1, 2, 9] {
            assert_eq!(&replay.topology(r, &view, &mut rng2), &originals[r % 5]);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_rejected() {
        let _ = ReplayAdversary::new(DeltaTrace::new(4));
    }
}
