//! The word-level token-forwarding cell: both Theorem 2.1 schedules
//! (baseline and T-stable pipelined) over flat `u64` arenas.
//!
//! Each node's state is a row of `wpr = ⌈k/64⌉` words, and each role is
//! one `n × wpr` arena: the tokens the node knows, the batch tokens it
//! already broadcast this window (pipelined mode only), and its current
//! message — a token mask that is zero outside its recorded word span.
//!
//! * **Compose.** A popcount select finds the end of the retired prefix
//!   (whole words skipped by popcount, then the low bits of the word it
//!   lands in cleared). The next `batch` known bits are the candidate
//!   window; pipelined mode drops the ones already sent (`& !sent`); the
//!   first ⌊b/d⌋ left are the message, charged popcount × d bits. The
//!   window counts already-sent tokens before the filter drops them, as
//!   the reference's `take(batch)` does.
//! * **Deliver.** Each receiver ORs every neighbour's span words into its
//!   row: no per-token work, no bounds check per token.
//! * **View.** `BitSet`s are built only when asked — by view-reading
//!   adversaries and by tracers.
//!
//! The schedule logic (prefix completion, window filter, phase/window
//! resets) is the reference `TokenForwarding`'s, which draws no
//! randomness, so equivalence is purely structural.

use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use rand::rngs::StdRng;

/// The word-arena forwarding state for all n nodes.
pub struct ForwardCell {
    n: usize,
    k: usize,
    /// Token size in bits (each forwarded token costs d bits).
    d: usize,
    /// Tokens per message, ⌊b/d⌋.
    per_msg: usize,
    /// Tokens retired per phase.
    batch: usize,
    /// Rounds per phase.
    phase_rounds: usize,
    /// Stability window of the pipelining rule; `None` = baseline.
    window: Option<usize>,
    /// Retired-prefix length on the public schedule.
    completed: usize,
    /// Words per node row, ⌈k/64⌉.
    wpr: usize,
    /// Known tokens: node `u`'s row is `known[u * wpr..(u + 1) * wpr]`.
    known: Vec<u64>,
    /// Batch tokens already broadcast this window, same layout
    /// (pipelined mode only; empty in baseline mode).
    sent: Vec<u64>,
    /// This round's messages as token masks, same layout.
    msg: Vec<u64>,
    /// Per node: the words `[lo, hi)` of its message row that may be
    /// nonzero; empty for a silent node.
    span: Vec<(u32, u32)>,
}

impl ForwardCell {
    /// A fresh cell for the given schedule. `holders[i]` lists the nodes
    /// initially knowing token `i`; `per_msg` is ⌊b/d⌋ (at least 1).
    ///
    /// # Panics
    /// Panics on an out-of-range holder or zero schedule constants.
    #[allow(clippy::too_many_arguments)] // the schedule's full parameter set
    pub fn new(
        n: usize,
        k: usize,
        d: usize,
        per_msg: usize,
        batch: usize,
        phase_rounds: usize,
        window: Option<usize>,
        holders: &[Vec<usize>],
    ) -> Self {
        assert!(
            k >= 1 && per_msg >= 1 && batch >= 1 && phase_rounds >= 1,
            "bad schedule"
        );
        let wpr = k.div_ceil(64);
        let mut known = vec![0u64; n * wpr];
        for (i, hs) in holders.iter().enumerate() {
            for &u in hs {
                assert!(i < k && u < n, "holder {u} of token {i} out of range");
                known[u * wpr + i / 64] |= 1 << (i % 64);
            }
        }
        ForwardCell {
            n,
            k,
            d,
            per_msg,
            batch,
            phase_rounds,
            window,
            completed: 0,
            wpr,
            known,
            sent: if window.is_some() {
                vec![0; n * wpr]
            } else {
                Vec::new()
            },
            msg: vec![0; n * wpr],
            span: vec![(0, 0); n],
        }
    }

    /// The retired-prefix length (test surface).
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The known-token rows, node by node.
    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.known.chunks_exact(self.wpr)
    }

    /// Is a node knowing `count` tokens locally done?
    fn done_at(&self, count: usize) -> bool {
        self.completed >= self.k && count == self.k
    }
}

/// Number of set bits in a row.
fn count(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// The `r` lowest set bits of `x` (all of them if it has no more than
/// `r`), and how many that is.
#[inline]
fn take_low(x: u64, r: usize) -> (u64, usize) {
    let all = x.count_ones() as usize;
    if all <= r {
        return (x, all);
    }
    let mut rest = x;
    for _ in 0..r {
        rest &= rest - 1;
    }
    (x ^ rest, r)
}

/// `x` without its `r` lowest set bits, for `r` below its popcount.
#[inline]
fn clear_low(x: u64, r: usize) -> u64 {
    // Under prefix completion the skipped tokens are usually the word's
    // low `r` bits: one mask then does it.
    let low = (1u64 << r) - 1;
    if x & low == low {
        x & !low
    } else {
        x ^ take_low(x, r).0
    }
}

/// Writes into `out` (zero on entry) the message of a node whose known
/// row is `known`: past the `completed` smallest known tokens, the next
/// `batch` known ones, minus `sent` when given, at most `per_msg` of
/// them; the chosen tokens are then added to `sent`. Returns how many
/// were chosen and the word span `[lo, hi)` they occupy (empty when none
/// were).
fn compose_row(
    known: &[u64],
    mut sent: Option<&mut [u64]>,
    completed: usize,
    batch: usize,
    per_msg: usize,
    out: &mut [u64],
) -> (usize, (u32, u32)) {
    // Select: the word holding the first token past the retired prefix,
    // and how many known tokens of that word still belong to the prefix.
    let mut skip = completed;
    let mut start = 0;
    while start < known.len() {
        let c = known[start].count_ones() as usize;
        if skip < c {
            break;
        }
        skip -= c;
        start += 1;
    }
    let (mut window_left, mut msg_left) = (batch, per_msg);
    let (mut lo, mut hi) = (0, 0);
    for w in start..known.len() {
        if window_left == 0 || msg_left == 0 {
            break;
        }
        let word = if w == start {
            clear_low(known[w], skip)
        } else {
            known[w]
        };
        let (candidates, seen) = take_low(word, window_left);
        window_left -= seen;
        let fresh = sent.as_deref().map_or(candidates, |s| candidates & !s[w]);
        let (chosen, taken) = take_low(fresh, msg_left);
        msg_left -= taken;
        if chosen != 0 {
            if hi == 0 {
                lo = w;
            }
            hi = w + 1;
            out[w] = chosen;
            if let Some(s) = sent.as_deref_mut() {
                s[w] |= chosen;
            }
        }
    }
    (per_msg - msg_left, (lo as u32, hi as u32))
}

impl FastCell for ForwardCell {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn spoke(&self, node: usize) -> bool {
        // A nonempty span ⇔ the reference compose returned a nonempty
        // batch ⇔ `Some(chosen)`.
        let (lo, hi) = self.span[node];
        hi > lo
    }

    fn compose_all(
        &mut self,
        round: usize,
        _rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let wpr = self.wpr;
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        for u in 0..self.n {
            let row = u * wpr..(u + 1) * wpr;
            let (lo, hi) = self.span[u];
            self.msg[row.start + lo as usize..row.start + hi as usize].fill(0);
            let sent = self.window.map(|_| &mut self.sent[row.clone()]);
            let (chosen, span) = compose_row(
                &self.known[row.clone()],
                sent,
                self.completed,
                self.batch,
                self.per_msg,
                &mut self.msg[row],
            );
            self.span[u] = span;
            if chosen > 0 {
                let bits = (chosen * self.d) as u64;
                check_budget(u, round, bits, bit_limit);
                round_bits += bits;
                round_max = round_max.max(bits);
            }
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let wpr = self.wpr;
        for (u, row) in self.known.chunks_exact_mut(wpr).enumerate() {
            for &v in topo.neighbors(u) {
                let v = v as usize;
                let (lo, hi) = (self.span[v].0 as usize, self.span[v].1 as usize);
                let words = &self.msg[v * wpr + lo..v * wpr + hi];
                for (a, b) in row[lo..hi].iter_mut().zip(words) {
                    *a |= b;
                }
            }
        }
    }

    fn round_end(&mut self, round: usize, _rng: &mut StdRng) {
        let window_end = self.window.is_some_and(|t| (round + 1).is_multiple_of(t));
        let phase_end = (round + 1).is_multiple_of(self.phase_rounds);
        if phase_end {
            self.completed = (self.completed + self.batch).min(self.k);
        }
        if window_end || phase_end {
            self.sent.fill(0);
        }
    }

    fn all_done(&self) -> bool {
        self.completed >= self.k && self.rows().all(|r| count(r) == self.k)
    }

    fn view(&self) -> KnowledgeView {
        let dims: Vec<usize> = self.rows().map(count).collect();
        KnowledgeView {
            tokens: self.rows().map(|r| BitSet::from_words(r, self.k)).collect(),
            done: dims.iter().map(|&c| self.done_at(c)).collect(),
            dims,
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let (mut min_dim, mut max_dim, mut total_tokens, mut done) = (usize::MAX, 0, 0, 0);
        for c in self.rows().map(count) {
            min_dim = min_dim.min(c);
            max_dim = max_dim.max(c);
            total_tokens += c;
            done += usize::from(self.done_at(c));
        }
        // `min(max)`: the minimum, or 0 with no rows, as the default's.
        (min_dim.min(max_dim), max_dim, total_tokens, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Node `u`'s message this round, as ascending token indices.
    fn msg(c: &ForwardCell, u: usize) -> Vec<usize> {
        BitSet::from_words(&c.msg[u * c.wpr..(u + 1) * c.wpr], c.k)
            .iter()
            .collect()
    }

    /// Node 0 knows everything, batch 4, 2 tokens per message, window 4:
    /// the hand-computed schedule of the reference window-rule test.
    #[test]
    fn window_rule_matches_reference_schedule() {
        let holders: Vec<Vec<usize>> = (0..8).map(|_| vec![0]).collect();
        let mut cell = ForwardCell::new(8, 8, 4, 2, 4, 100, Some(4), &holders);
        let mut rng = StdRng::seed_from_u64(1);
        cell.compose_all(0, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![0, 1]);
        cell.compose_all(1, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![2, 3]);
        cell.compose_all(2, &mut rng, None);
        assert!(msg(&cell, 0).is_empty(), "batch exhausted");
        assert!(!cell.spoke(0));
        for r in 2..4 {
            cell.round_end(r, &mut rng);
        }
        cell.compose_all(4, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![0, 1], "window reset re-enables");
    }

    #[test]
    fn phase_end_retires_the_batch() {
        let holders: Vec<Vec<usize>> = (0..4).map(|u| vec![u]).collect();
        let mut cell = ForwardCell::new(4, 4, 4, 2, 2, 3, None, &holders);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cell.completed(), 0);
        cell.round_end(1, &mut rng);
        assert_eq!(cell.completed(), 0, "mid-phase");
        cell.round_end(2, &mut rng);
        assert_eq!(cell.completed(), 2, "phase of 3 rounds retires batch 2");
        cell.round_end(5, &mut rng);
        assert_eq!(cell.completed(), 4);
        assert!(!cell.all_done(), "nodes still missing tokens");
    }

    #[test]
    fn history_stats_agree_with_the_view() {
        // Three words per row, node 1 past the first word boundary.
        let holders: Vec<Vec<usize>> = (0..130).map(|i| vec![i % 3]).collect();
        let cell = ForwardCell::new(3, 130, 8, 8, 8, 10, None, &holders);
        let v = cell.view();
        assert_eq!(v.dims, vec![44, 43, 43]);
        assert!(v.tokens[1].contains(127) && !v.tokens[1].contains(128));
        let (min_dim, max_dim, total, done) = cell.history_stats();
        assert_eq!((min_dim, max_dim, total, done), (43, 44, 130, 0));
    }

    /// A known set over `k` tokens from per-token draws in 0..4: absent on
    /// 0, so runs and gaps cross word boundaries; `prefix` makes the first
    /// `completed` tokens all known, the prefix-completion invariant.
    fn known_set(k: usize, draws: &[u8], completed: usize, prefix: bool) -> BitSet {
        let mut s = BitSet::new(k);
        for (i, &x) in draws.iter().enumerate().take(k) {
            if x != 0 || (prefix && i < completed) {
                s.insert(i);
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The select-based window equals the reference compose:
        /// `iter().skip(completed).take(batch)`, then the sent filter,
        /// then at most `per_msg`.
        #[test]
        fn compose_row_equals_skip_take_filter(
            k in 1usize..260,
            draws in proptest::collection::vec(0u8..4, 260),
            sent_draws in proptest::collection::vec(any::<bool>(), 260),
            completed_pct in 0usize..111,
            prefix in any::<bool>(),
            batch in 1usize..80,
            per_msg in 1usize..40,
            pipelined in any::<bool>(),
        ) {
            let completed = (k * completed_pct / 100).min(k);
            let known = known_set(k, &draws, completed, prefix);
            let mut sent = BitSet::new(k);
            for i in (0..k).filter(|&i| sent_draws[i]) {
                sent.insert(i);
            }
            let expected: Vec<usize> = known
                .iter()
                .skip(completed)
                .take(batch)
                .filter(|&i| !pipelined || !sent.contains(i))
                .take(per_msg)
                .collect();
            let wpr = k.div_ceil(64);
            let words = |s: &BitSet| -> Vec<u64> {
                let mut w = vec![0u64; wpr];
                for i in s.iter() {
                    w[i / 64] |= 1 << (i % 64);
                }
                w
            };
            let (known_w, mut sent_w) = (words(&known), words(&sent));
            let mut out = vec![0u64; wpr];
            let (chosen, (lo, hi)) = compose_row(
                &known_w,
                pipelined.then_some(&mut sent_w[..]),
                completed,
                batch,
                per_msg,
                &mut out,
            );
            let got: Vec<usize> = BitSet::from_words(&out, k).iter().collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(chosen, expected.len());
            if pipelined {
                for &i in &expected {
                    sent.insert(i);
                }
            }
            prop_assert_eq!(BitSet::from_words(&sent_w, k), sent);
            match (expected.first(), expected.last()) {
                (Some(&a), Some(&b)) => {
                    prop_assert_eq!((lo as usize, hi as usize), (a / 64, b / 64 + 1));
                }
                _ => prop_assert_eq!(lo, hi),
            }
        }
    }
}
