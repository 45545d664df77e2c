//! The fast round loop: [`FastCell`] is the arena-backed counterpart of
//! `dyncode_dynet::simulator::Protocol`, batched per round instead of per
//! node, and [`run_fast`] is the counterpart of `simulator::run`.
//!
//! The loop replays the reference round structure *exactly* — adversary
//! view, topology validation, neighbor-blind compose, anonymous delivery,
//! end-of-round hook, history row — and draws from the same two RNG
//! streams (`seed` for the protocol, [`adversary_rng`] for the
//! adversary), which is what makes the fast `RunResult` bit-identical to
//! the reference one for every eligible cell (the contract
//! `tests/kernel_equivalence.rs` locks).

use crate::csr::CsrTopology;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::simulator::{adversary_rng, RoundRecord, RunResult, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One protocol family running on the fast backend.
///
/// Unlike `Protocol`, the surface is *batched*: one `compose_all` and one
/// `deliver_all` per round over internal arenas, so the round loop does
/// no per-node allocation. Implementations must preserve the reference
/// semantics: compose per node in ascending node order (drawing exactly
/// the coins the reference protocol draws), deliver per node from
/// ascending neighbors, and report the same views and statistics.
pub trait FastCell {
    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Composes every node's broadcast for `round` into the message
    /// arena, enforcing `bit_limit` per message when set. Returns
    /// `(bits broadcast this round, largest message this round)`.
    fn compose_all(&mut self, round: usize, rng: &mut StdRng, bit_limit: Option<u64>)
        -> (u64, u64);

    /// Delivers the composed messages along `topo` (per node, ascending
    /// neighbor order — the reference inbox order).
    fn deliver_all(&mut self, topo: &CsrTopology, round: usize, rng: &mut StdRng);

    /// Did `node` compose a message this round? Valid between
    /// `compose_all` and `deliver_all`; must equal
    /// `compose(node) == Some(_)` in the reference protocol, because the
    /// delivery layer draws its radio/erasure coins per *speaking* node —
    /// a mismatch would desynchronize the private delivery RNG stream
    /// between the two backends.
    fn spoke(&self, node: usize) -> bool;

    /// Global end-of-round hook (phase counters); defaults to a no-op.
    fn round_end(&mut self, _round: usize, _rng: &mut StdRng) {}

    /// Have all nodes locally terminated?
    fn all_done(&self) -> bool;

    /// The adversary/statistics view — must equal the reference
    /// protocol's `view()` element for element (adaptive adversaries
    /// branch on it).
    fn view(&self) -> KnowledgeView;

    /// `(min_dim, max_dim, total_tokens, done)` of the current state, for
    /// a history row (the reference derives these from `view()`).
    fn history_stats(&self) -> (usize, usize, usize, usize);

    /// Does every node know every token (the dissemination
    /// postcondition asserted after a completed run)?
    fn fully_disseminated(&self) -> bool;
}

/// Runs `cell` against `adversary` from `seed` until every node is done
/// or `config.max_rounds` elapse — `simulator::run`, specialized to the
/// arena-backed cells.
///
/// # Panics
/// Panics if the adversary produces a disconnected or wrongly-sized
/// graph, or (in strict mode) if a message exceeds the bit limit — the
/// same conditions, with the same messages, as the reference loop.
pub fn run_fast(
    cell: &mut dyn FastCell,
    adversary: &mut dyn Adversary,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    let n = cell.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adv_rng = adversary_rng(seed);
    let mut csr = CsrTopology::new(n);
    // Non-reliable delivery: the planner draws the same coins over the
    // same topology view as the reference loop, and the resulting
    // directed plan is materialized into its own CSR snapshot so the
    // adversary snapshot's delta reuse is untouched.
    let mut delivery = config.delivery.model(seed);
    let mut masked = delivery.as_ref().map(|_| CsrTopology::new(n));
    let mut speaks: Vec<bool> = Vec::new();
    let mut total_bits = 0u64;
    let mut max_message_bits = 0u64;
    let mut history = Vec::new();

    crate::phase::elim_reset();
    let (mut t_view, mut t_compose, mut t_deliver) = (
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
    );
    let mut round = 0usize;
    let mut completed = cell.all_done();
    while !completed && round < config.max_rounds {
        let t0 = std::time::Instant::now();
        // 1. Adversary commits a topology from the current state.
        let view = cell.view();
        let graph = adversary.topology(round, &view, &mut adv_rng);
        assert_eq!(
            graph.num_nodes(),
            n,
            "adversary {} produced a graph of the wrong size",
            adversary.name()
        );
        assert!(
            graph.is_connected(),
            "adversary {} produced a disconnected graph at round {round}",
            adversary.name()
        );
        csr.load(&graph);

        let t1 = std::time::Instant::now();
        // 2. Nodes speak, neighbor-blind.
        let (round_bits, round_max) = cell.compose_all(round, &mut rng, config.bit_limit);
        total_bits += round_bits;
        max_message_bits = max_message_bits.max(round_max);

        let t2 = std::time::Instant::now();
        // 3. Anonymous broadcast delivery: along the committed topology,
        // or along the delivery model's per-round masked plan.
        match (&mut delivery, &mut masked) {
            (Some(model), Some(plan)) => {
                speaks.clear();
                speaks.extend((0..n).map(|u| cell.spoke(u)));
                model.plan_round(&speaks, &csr);
                plan.load_plan(model.offsets(), model.senders());
                cell.deliver_all(plan, round, &mut rng);
            }
            _ => cell.deliver_all(&csr, round, &mut rng),
        }
        cell.round_end(round, &mut rng);
        let t3 = std::time::Instant::now();
        t_view += t1 - t0;
        t_compose += t2 - t1;
        t_deliver += t3 - t2;

        if config.record_history {
            let (min_dim, max_dim, total_tokens, done) = cell.history_stats();
            history.push(RoundRecord {
                round,
                edges: graph.num_edges(),
                bits: round_bits,
                min_dim,
                max_dim,
                total_tokens,
                done,
            });
        }

        round += 1;
        completed = cell.all_done();
    }
    // Per-run phase totals as aggregate span events. `kernel.eliminate`
    // is what the cells accumulated around their `insert` calls;
    // `kernel.gather` is the rest of delivery (copy/unpack + inbox walk).
    let elim_ns = crate::phase::elim_take();
    if crate::phase::active() {
        let fields = |extra: Vec<(String, dyncode_obs::Value)>| {
            let mut f = vec![
                ("n".to_string(), dyncode_obs::Value::from(n)),
                ("rounds".to_string(), dyncode_obs::Value::from(round)),
            ];
            f.extend(extra);
            f
        };
        let deliver_ns = t_deliver.as_nanos() as u64;
        for ev in [
            dyncode_obs::Event::span_total("kernel.csr", t_view.as_nanos() as u64, fields(vec![])),
            dyncode_obs::Event::span_total(
                "kernel.compose",
                t_compose.as_nanos() as u64,
                fields(vec![]),
            ),
            dyncode_obs::Event::span_total(
                "kernel.gather",
                deliver_ns.saturating_sub(elim_ns),
                fields(vec![]),
            ),
            dyncode_obs::Event::span_total("kernel.eliminate", elim_ns, fields(vec![])),
        ] {
            dyncode_obs::emit(&ev);
        }
    }

    RunResult {
        rounds: round,
        completed,
        total_bits,
        max_message_bits,
        adversary: adversary.name(),
        history,
    }
}
