//! Random-waypoint mobility on the unit square: each node walks toward a
//! uniformly chosen waypoint at constant speed, redrawing a fresh
//! waypoint on arrival; the round's communication graph is the unit-disk
//! graph of the positions (an edge whenever two nodes are within the
//! communication radius). The classic MANET mobility model.
//!
//! Unit-disk graphs disconnect routinely at small radii, so the emitted
//! topology gets a *geometric* connectivity repair: while more than one
//! component remains, the globally closest pair of nodes in different
//! components is bridged — the minimal-length cable that an operator
//! would string.

use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use rand::rngs::StdRng;
use rand::RngExt;

/// The random-waypoint adversary. Oblivious: ignores node knowledge.
pub struct WaypointAdversary {
    radius: f64,
    speed: f64,
    pos: Vec<[f64; 2]>,
    dst: Vec<[f64; 2]>,
}

impl WaypointAdversary {
    /// Creates the model with communication `radius` and per-round
    /// movement `speed`, both in unit-square lengths.
    ///
    /// # Panics
    /// Panics unless `radius > 0` and `speed > 0`.
    pub fn new(radius: f64, speed: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(speed > 0.0, "speed must be positive");
        WaypointAdversary {
            radius,
            speed,
            pos: Vec::new(),
            dst: Vec::new(),
        }
    }

    /// Current node positions (empty before the first round).
    pub fn positions(&self) -> &[[f64; 2]] {
        &self.pos
    }

    fn rand_point(rng: &mut StdRng) -> [f64; 2] {
        [rng.random::<f64>(), rng.random::<f64>()]
    }

    fn step(&mut self, rng: &mut StdRng) {
        for i in 0..self.pos.len() {
            let [px, py] = self.pos[i];
            let [dx, dy] = self.dst[i];
            let (vx, vy) = (dx - px, dy - py);
            let dist = (vx * vx + vy * vy).sqrt();
            if dist <= self.speed {
                self.pos[i] = self.dst[i];
                self.dst[i] = Self::rand_point(rng);
            } else {
                let scale = self.speed / dist;
                self.pos[i] = [px + vx * scale, py + vy * scale];
            }
        }
    }

    /// Bridges components by their globally closest cross-component node
    /// pair until the graph is connected.
    fn geometric_repair(&self, g: &mut Graph) {
        loop {
            let (comp_of, count) = crate::repair::component_labels(g);
            if count <= 1 {
                return;
            }
            let mut best: Option<(f64, usize, usize)> = None;
            for u in 0..g.num_nodes() {
                for v in (u + 1)..g.num_nodes() {
                    if comp_of[u] == comp_of[v] {
                        continue;
                    }
                    let (ax, ay) = (self.pos[u][0], self.pos[u][1]);
                    let (bx, by) = (self.pos[v][0], self.pos[v][1]);
                    let d2 = (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
                    if best.is_none_or(|(bd, _, _)| d2 < bd) {
                        best = Some((d2, u, v));
                    }
                }
            }
            let (_, u, v) = best.expect("≥2 components have a cross pair");
            g.add_edge(u, v);
        }
    }
}

impl Adversary for WaypointAdversary {
    fn name(&self) -> String {
        format!("waypoint({},{})", self.radius, self.speed)
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if self.pos.len() != n {
            self.pos = (0..n).map(|_| Self::rand_point(rng)).collect();
            self.dst = (0..n).map(|_| Self::rand_point(rng)).collect();
        } else {
            self.step(rng);
        }
        let mut g = Graph::empty(n);
        let r2 = self.radius * self.radius;
        for u in 0..n {
            for v in (u + 1)..n {
                let (ax, ay) = (self.pos[u][0], self.pos[u][1]);
                let (bx, by) = (self.pos[v][0], self.pos[v][1]);
                if (ax - bx) * (ax - bx) + (ay - by) * (ay - by) <= r2 {
                    g.add_edge(u, v);
                }
            }
        }
        self.geometric_repair(&mut g);
        g
    }

    fn needs_view(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn always_connected_even_at_tiny_radius() {
        let mut adv = WaypointAdversary::new(0.05, 0.02);
        let view = KnowledgeView::blank(16, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for round in 0..30 {
            let g = adv.topology(round, &view, &mut rng);
            assert!(g.is_connected(), "round {round}");
            assert_eq!(g.num_nodes(), 16);
        }
    }

    #[test]
    fn positions_move_at_most_speed_per_round() {
        let mut adv = WaypointAdversary::new(0.3, 0.04);
        let view = KnowledgeView::blank(10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        adv.topology(0, &view, &mut rng);
        let before = adv.positions().to_vec();
        adv.topology(1, &view, &mut rng);
        for (a, b) in before.iter().zip(adv.positions()) {
            let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
            assert!(d <= 0.04 + 1e-12, "moved {d} > speed");
        }
    }

    #[test]
    fn large_radius_gives_dense_graphs() {
        let mut adv = WaypointAdversary::new(1.5, 0.05); // covers the square
        let view = KnowledgeView::blank(8, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let g = adv.topology(0, &view, &mut rng);
        assert_eq!(g.num_edges(), 8 * 7 / 2, "diameter √2 < 1.5 ⇒ complete");
    }

    #[test]
    fn topology_changes_over_time() {
        let mut adv = WaypointAdversary::new(0.4, 0.1);
        let view = KnowledgeView::blank(14, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let a = adv.topology(0, &view, &mut rng);
        let mut changed = false;
        for round in 1..20 {
            if adv.topology(round, &view, &mut rng) != a {
                changed = true;
                break;
            }
        }
        assert!(changed, "mobility must eventually rewire the graph");
    }
}
