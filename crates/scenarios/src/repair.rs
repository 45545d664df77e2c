//! Connectivity repair: the pass that upholds the KLO model's standing
//! requirement (every per-round communication graph is connected) on top
//! of stochastic evolving-graph models, which have no reason to be
//! connected on their own.
//!
//! The rule: compute connected components, order them by their smallest
//! node id, and chain consecutive components with one edge between
//! uniformly random endpoints. A graph with `C` components gains exactly
//! `C − 1` edges — the minimum possible — so the stochastic model's edge
//! statistics are perturbed as little as connectivity allows. Repair
//! edges are *ephemeral*: models that carry edge state across rounds
//! (edge-Markov) do **not** fold them back into their chain state, so the
//! underlying process stays the pure model and the repair is a per-round
//! overlay.
//!
//! Components are *labels*, not lists: scanning start nodes in ascending
//! order numbers each component at its smallest member, which is the
//! chain order ([`component_labels`]); a counting sort over the labels
//! then lays the members out component by component, ascending within
//! each, which is the order the endpoint draws index. Four flat arrays a
//! call, however many components there are.

use dyncode_dynet::graph::Graph;
use rand::rngs::StdRng;
use rand::RngExt;

/// Labels every node with the index of its connected component,
/// components numbered in order of their smallest member; returns the
/// labels and the component count.
pub fn component_labels(g: &Graph) -> (Vec<usize>, usize) {
    const UNSEEN: usize = usize::MAX;
    let mut label = vec![UNSEEN; g.num_nodes()];
    let mut stack = Vec::with_capacity(g.num_nodes());
    let mut count = 0;
    for start in 0..g.num_nodes() {
        if label[start] != UNSEEN {
            continue;
        }
        label[start] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if label[v] == UNSEEN {
                    label[v] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Makes `g` connected by chaining its components with uniformly random
/// endpoint pairs; returns the number of edges added (`components − 1`).
pub fn connect_components(g: &mut Graph, rng: &mut StdRng) -> usize {
    let (label, count) = component_labels(g);
    if count <= 1 {
        return 0;
    }
    // Counting sort by label: `members[end[c − 1]..end[c]]` is component
    // `c`, ascending because nodes are placed in ascending order.
    let mut end = vec![0usize; count];
    for &c in &label {
        end[c] += 1;
    }
    let mut first = 0;
    for e in &mut end {
        first += std::mem::replace(e, first);
    }
    let mut members = vec![0; label.len()];
    for (u, &c) in label.iter().enumerate() {
        members[end[c]] = u;
        end[c] += 1;
    }
    let mut pick = |c: usize| {
        let comp = &members[if c == 0 { 0 } else { end[c - 1] }..end[c]];
        comp[rng.random_range(0..comp.len())]
    };
    for c in 1..count {
        let (u, v) = (pick(c - 1), pick(c));
        g.add_edge(u, v);
    }
    count - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn repair_adds_minimum_edges() {
        let mut rng = StdRng::seed_from_u64(1);
        // 3 islands: {0,1}, {2}, {3,4,5}.
        let mut g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]);
        assert_eq!(component_labels(&g), (vec![0, 0, 1, 2, 2, 2], 3));
        let added = connect_components(&mut g, &mut rng);
        assert_eq!(added, 2);
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn labels_number_components_by_smallest_member() {
        // {0, 4}, {1, 3, 5}, {2}: numbered where the scan first meets them,
        // whichever way the search inside a component runs.
        let g = Graph::from_edges(6, &[(0, 4), (3, 5), (1, 5)]);
        assert_eq!(component_labels(&g), (vec![0, 1, 2, 1, 0, 1], 3));
        assert_eq!(component_labels(&Graph::empty(0)), (vec![], 0));
    }

    #[test]
    fn empty_graph_repairs_to_a_chain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Graph::empty(7);
        let added = connect_components(&mut g, &mut rng);
        assert_eq!(added, 6);
        assert!(g.is_connected());
    }

    #[test]
    fn connected_graph_is_untouched() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(connect_components(&mut g, &mut rng), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn trivial_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g0 = Graph::empty(0);
        assert_eq!(connect_components(&mut g0, &mut rng), 0);
        let mut g1 = Graph::empty(1);
        assert_eq!(connect_components(&mut g1, &mut rng), 0);
        assert!(g1.is_connected());
    }
}
