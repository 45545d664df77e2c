//! Allocation budgets of the adversary step, as exact counts: what one
//! edge-Markov `topology` call, one CSR load with its connectivity search,
//! and one whole driver round against an oblivious adversary ask of the
//! allocator once their buffers are warm.
//!
//! Counts, not times — they repeat exactly, and they are what keeps the
//! step's scratch in the structs that own it (`EdgeMarkovAdversary`,
//! `CsrTopology`) instead of in per-round `Vec`s.
//!
//! Uses a counting global allocator (the `crates/obs/tests/no_alloc.rs`
//! pattern); this is an integration test (its own crate), so the
//! library's `#![forbid(unsafe_code)]` does not apply to the shim. The
//! count is per thread, so the tests of this file may run side by side.

use dyncode_core::params::{Instance, Params, Placement};
use dyncode_core::runner::build_fast_cell;
use dyncode_core::spec::ProtocolSpec;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::run_fast;
use dyncode_dynet::graph::Graph;
use dyncode_dynet::simulator::SimConfig;
use dyncode_scenarios::EdgeMarkovAdversary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator neither allocates nor outlives the thread's storage.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

const N: usize = 64;
const ROUNDS: usize = 64;

/// The workload of all three budgets: a sparse chain (mean degree ≈ 4,
/// the benchmark's density) that needs a repair edge most rounds.
fn edge_markov() -> EdgeMarkovAdversary {
    EdgeMarkovAdversary::new(0.02, 0.25)
}

#[test]
fn edge_markov_topology_allocates_the_graph_and_little_else() {
    let view = KnowledgeView::blank(N, 0);
    let mut adv = edge_markov();
    let mut rng = StdRng::seed_from_u64(1);
    // Warm-up: the chain's two state buffers reach their working size.
    for round in 0..ROUNDS {
        adv.topology(round, &view, &mut rng);
    }
    let mut worst = 0;
    for round in ROUNDS..2 * ROUNDS {
        let before = alloc_count();
        let g = adv.topology(round, &view, &mut rng);
        worst = worst.max(alloc_count() - before);
        drop(g);
    }
    // The returned graph's n lists and their spine, the degree counts,
    // the repair's four arrays, and a list regrown per repair endpoint.
    assert!(
        worst <= N as u64 + 8,
        "one topology() allocated {worst} times, budget {}",
        N + 8
    );
}

#[test]
fn csr_load_and_connectivity_search_allocate_nothing_once_warm() {
    let view = KnowledgeView::blank(N, 0);
    let mut adv = edge_markov();
    let mut rng = StdRng::seed_from_u64(2);
    let graphs: Vec<Graph> = (0..ROUNDS)
        .map(|round| adv.topology(round, &view, &mut rng))
        .collect();
    let mut csr = CsrTopology::new(N);
    // Warm-up on the same sequence: `targets` reaches its high-water
    // capacity, the search its scratch.
    for g in &graphs {
        assert!(csr.load(g) && csr.is_connected());
    }
    let before = alloc_count();
    for g in &graphs {
        assert!(csr.load(g) && csr.is_connected());
    }
    assert_eq!(alloc_count() - before, 0);
}

/// Notes the allocation count at every `topology` call: the difference of
/// two consecutive notes is one whole driver round, adversary step
/// included.
struct RoundMarks {
    inner: EdgeMarkovAdversary,
    marks: Vec<u64>,
}

impl Adversary for RoundMarks {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        assert!(
            self.marks.len() < self.marks.capacity(),
            "marks must not grow"
        );
        self.marks.push(alloc_count());
        self.inner.topology(round, view, rng)
    }

    fn needs_view(&self) -> bool {
        self.inner.needs_view()
    }
}

#[test]
fn a_driver_round_against_an_oblivious_adversary_builds_no_view() {
    /// What rounds 8..40 of this very run allocated (191 a round) when
    /// the driver built `cell.view()` every round (n token sets and three
    /// spines), searched every graph with fresh scratch, and the
    /// adversary step had neither budget above.
    const BEFORE: u64 = 6127;
    let params = Params::new(N, N, 16, 128);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 3);
    let spec = ProtocolSpec::parse("token-forwarding").unwrap();
    let mut cell = build_fast_cell(&spec, &inst, 1).unwrap();
    let mut adv = RoundMarks {
        inner: edge_markov(),
        marks: Vec::with_capacity(41),
    };
    let r = run_fast(cell.as_mut(), &mut adv, &SimConfig::with_max_rounds(41), 3);
    assert_eq!(r.rounds, 41, "the run must outlast the measured rounds");
    let measured = adv.marks[40] - adv.marks[8];
    assert!(
        measured + 32 * N as u64 <= BEFORE,
        "32 rounds allocated {measured} times, {BEFORE} before: less than n = {N} a round saved"
    );
}
