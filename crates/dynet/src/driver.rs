//! The round driver: the model's round structure (Section 4.1) as one
//! function. [`run_fast`] is the only round loop in the workspace —
//! adversary view (for adversaries that read one), topology, size check,
//! CSR load, connectivity search of every topology the load found new,
//! neighbor-blind compose, delivery planning, anonymous delivery,
//! end-of-round hook, history row, termination test — and [`FastCell`]
//! is the state layout it drives,
//! batched per round instead of per node: an arena-backed cell of
//! `dyncode-kernel`, or any per-node `Protocol` behind
//! [`PerNode`](crate::simulator::PerNode), which is how `simulator::run`
//! and every registry-built protocol get here.
//!
//! The protocol draws from `seed` and the adversary from
//! [`adversary_rng`] whatever the layout, so an arena cell and the state
//! machine it mirrors return bit-identical `RunResult`s (locked by
//! `tests/kernel_equivalence.rs`); `tests/driver_golden.rs` pins the loop.

use crate::adversary::{Adversary, KnowledgeView};
use crate::csr::CsrTopology;
use crate::phase;
use crate::simulator::{adversary_rng, RoundRecord, RunResult, SimConfig};
use dyncode_obs::{Event, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The state of all n nodes, as the round driver sees it.
///
/// Unlike `Protocol`, the surface is *batched*: one `compose_all` and one
/// `deliver_all` per round over internal arenas, so the round loop does
/// no per-node allocation. Implementations must preserve the per-node
/// semantics: compose per node in ascending node order (drawing exactly
/// the coins the reference protocol draws), deliver per node from
/// ascending neighbors, and report the same views and statistics.
pub trait FastCell {
    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Composes every node's broadcast for `round` into the message
    /// arena, passing each message's size through [`check_budget`].
    /// Returns `(bits broadcast this round, largest message this round)`.
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
    /// a history row. The default derives them from `view()`; arena cells
    /// answer from their own counters.
    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let v = self.view();
        (
            v.dims.iter().copied().min().unwrap_or(0),
            v.dims.iter().copied().max().unwrap_or(0),
            v.tokens.iter().map(|t| t.len()).sum(),
            v.done.iter().filter(|&&d| d).count(),
        )
    }
}

/// The strict O(b) accounting mode: every composed message's size goes
/// through here, in compose order.
///
/// # Panics
/// Panics if `limit` is set and `bits` exceeds it.
#[inline]
pub fn check_budget(node: usize, round: usize, bits: u64, limit: Option<u64>) {
    if let Some(limit) = limit {
        assert!(
            bits <= limit,
            "node {node} exceeded the message budget at round {round}: {bits} > {limit} bits"
        );
    }
}

/// Runs `cell` against `adversary` from `seed` until every node is done
/// or `config.max_rounds` elapse.
///
/// The adversary draws from its **own** RNG stream (derived from `seed`
/// but domain-separated from the protocol's): topologies and protocol
/// coins are independent functions of the seed. This is what makes
/// recorded schedules exactly replayable — substituting a replay
/// adversary (which draws nothing) for the original stochastic one leaves
/// the protocol's random stream untouched, so the whole `RunResult` is
/// reproduced bit-for-bit.
///
/// # Panics
/// Panics if the adversary produces a disconnected or wrongly-sized
/// graph, or (in strict mode) if a message exceeds the bit limit.
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
    // `None` for reliable delivery: no delivery coins are ever drawn.
    // Otherwise the planner's directed per-round plan is materialized
    // into its own CSR snapshot, so the adversary snapshot's reuse is
    // untouched.
    let mut delivery = config
        .delivery
        .model(seed)
        .map(|m| (m, CsrTopology::new(n)));
    // An oblivious adversary reads only the view's node count: it gets
    // this one all run long and the cell is never asked to build its own.
    let needs_view = adversary.needs_view();
    let blank = KnowledgeView::blank(n, 0);
    let mut speaks: Vec<bool> = Vec::new();
    let mut total_bits = 0u64;
    let mut max_message_bits = 0u64;
    let mut history = Vec::new();

    phase::elim_reset();
    // Time spent in [view + topology + csr, compose, deliver + round_end].
    let mut spent = [Duration::ZERO; 3];
    let mut round = 0usize;
    let mut completed = cell.all_done();
    while !completed && round < config.max_rounds {
        let t0 = Instant::now();
        // 1. Adversary commits a topology from the current state. The
        // model requires it connected; a graph equal to the one already
        // loaded was searched when it was loaded, so only a rebuild is.
        let cell_view;
        let view = if needs_view {
            cell_view = cell.view();
            &cell_view
        } else {
            &blank
        };
        let graph = adversary.topology(round, view, &mut adv_rng);
        assert_eq!(
            graph.num_nodes(),
            n,
            "adversary {} produced a graph of the wrong size",
            adversary.name()
        );
        if csr.load(&graph) {
            assert!(
                csr.is_connected(),
                "adversary {} produced a disconnected graph at round {round}",
                adversary.name()
            );
        }

        let t1 = Instant::now();
        // 2. Nodes speak, neighbor-blind.
        let (round_bits, round_max) = cell.compose_all(round, &mut rng, config.bit_limit);
        total_bits += round_bits;
        max_message_bits = max_message_bits.max(round_max);

        let t2 = Instant::now();
        // 3. Anonymous broadcast delivery: along the committed topology,
        // or along the delivery model's per-round masked plan.
        match &mut delivery {
            Some((model, plan)) => {
                speaks.clear();
                speaks.extend((0..n).map(|u| cell.spoke(u)));
                model.plan_round(&speaks, &csr);
                plan.load_plan(model.offsets(), model.senders());
                cell.deliver_all(plan, round, &mut rng);
            }
            None => cell.deliver_all(&csr, round, &mut rng),
        }
        cell.round_end(round, &mut rng);
        let t3 = Instant::now();
        for (total, lap) in spent.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
            *total += lap;
        }

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
    let elim_ns = phase::elim_take();
    if phase::active() {
        let [csr_ns, compose_ns, deliver_ns] = spent.map(|d| d.as_nanos() as u64);
        for (name, ns) in [
            ("kernel.csr", csr_ns),
            ("kernel.compose", compose_ns),
            ("kernel.gather", deliver_ns.saturating_sub(elim_ns)),
            ("kernel.eliminate", elim_ns),
        ] {
            let fields = vec![
                ("n".to_string(), Value::from(n)),
                ("rounds".to_string(), Value::from(round)),
            ];
            dyncode_obs::emit(&Event::span_total(name, ns, fields));
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
