//! Experiment-facing run helpers: seed sweeps and completion verification
//! — over concrete protocol types ([`run_one`], [`sweep_seeds`]) or
//! registry specs ([`run_spec`], [`sweep_seeds_spec`]). Statistics over a
//! sweep are `dyncode_engine::SeedStats::from_runs`.
//!
//! Every run is one sequence — build a cell, drive it with
//! `dyncode_dynet::driver::run_fast`, verify the postcondition — and a
//! [`Kernel`] ([`run_spec_kernel`]) only picks the cell's state layout:
//! `Reference` is the registry's per-node state machine behind
//! [`PerNode`], `Fast` the family's `dyncode-kernel` arena cell, `Auto`
//! the arena cell where one exists ([`fast_eligible`]). The contract,
//! locked by `tests/kernel_equivalence.rs`: for every eligible spec ×
//! adversary × seed, both layouts return bit-identical `RunResult`s,
//! per-round histories included.

use crate::params::Instance;
use crate::protocols::field_broadcast::symbol_payloads;
use crate::protocols::patch::{patch_dissemination, PatchParams};
use crate::protocols::token_forwarding::ForwardingConfig;
use crate::spec::{registry, FieldKind, ProtocolSpec};
use crate::term::{TerminationPredicate, TOKEN_COMPLETION};
use dyncode_dynet::adversary::Adversary;
use dyncode_dynet::driver::{run_fast, FastCell};
use dyncode_dynet::simulator::{PerNode, Protocol, RunResult, SimConfig};
use dyncode_gf::{Gf256, Gf257, Mersenne61};
use dyncode_kernel::{
    CodingCell, DenseCell, ForwardCell, Gf256Cell, Gf2Cell, Gf2ViewMode, QuorumCell, RowAlgebra,
};
use dyncode_obs::spec::list;
use std::borrow::Borrow;

pub use dyncode_kernel::Kernel;

/// Checks that a protocol's view reports every token at every node — the
/// dissemination postcondition.
pub fn fully_disseminated<P: Protocol>(p: &P) -> bool {
    let v = p.view();
    v.tokens.iter().all(|t| t.len() == p.num_tokens())
}

/// Runs one freshly built `(protocol, adversary)` cell under `config` from
/// `seed`, verifying the dissemination postcondition
/// ([`TOKEN_COMPLETION`]) on completion.
///
/// This is the single-cell primitive every sweep goes through: the serial
/// [`sweep_seeds`] below and the parallel `dyncode-engine` executor both
/// delegate here, which is what makes `--threads N` output identical to
/// serial output — a cell's result depends only on `(build, adv, config,
/// seed)`, never on which thread or in which order it ran.
///
/// Concrete protocols with a different meaning of done (e.g. the quorum
/// family) go through [`run_one_term`] with their own predicate; spec
/// runs ([`run_spec`]) pick the predicate from the registry.
pub fn run_one<P, FB, FA>(build: &FB, adv: &FA, config: &SimConfig, seed: u64) -> RunResult
where
    P: Protocol,
    FB: Fn() -> P,
    FA: Fn() -> Box<dyn Adversary>,
{
    run_one_term(build, adv, config, seed, &TOKEN_COMPLETION)
}

/// [`run_one`] under an explicit [`TerminationPredicate`]: the completed
/// run's final knowledge view is verified against `term` instead of the
/// token-completion default. The predicate only checks the postcondition
/// — it never alters the run itself, so results are bit-identical across
/// predicates.
pub fn run_one_term<P, FB, FA>(
    build: &FB,
    adv: &FA,
    config: &SimConfig,
    seed: u64,
    term: &dyn TerminationPredicate,
) -> RunResult
where
    P: Protocol,
    FB: Fn() -> P,
    FA: Fn() -> Box<dyn Adversary>,
{
    run_cell(
        || {
            let p = build();
            let k = p.num_tokens();
            (Box::new(PerNode::new(p)), k)
        },
        adv,
        config,
        seed,
        term,
        None,
    )
}

/// The sequence behind every entry point of this module: build the cell
/// and the adversary (`runner.setup` span), drive them (`runner.run`),
/// check `term` on a completed run's final view and drop both
/// (`runner.teardown`). `build` also returns the token count k that
/// `term` checks against; `spec` only names the run in the panic.
fn run_cell<'a, FA>(
    build: impl FnOnce() -> (Box<dyn FastCell + 'a>, usize),
    adv: &FA,
    config: &SimConfig,
    seed: u64,
    term: &dyn TerminationPredicate,
    spec: Option<&ProtocolSpec>,
) -> RunResult
where
    FA: Fn() -> Box<dyn Adversary>,
{
    let ((mut cell, k), mut a) = {
        let _setup = dyncode_obs::span!("runner.setup", seed = seed);
        (build(), adv())
    };
    let r = {
        let _run = dyncode_obs::span!("runner.run", seed = seed);
        run_fast(cell.as_mut(), a.as_mut(), config, seed)
    };
    {
        let _teardown = dyncode_obs::span!("runner.teardown", seed = seed);
        if r.completed {
            if let Err(e) = term.verify(&cell.view(), k) {
                let what = spec.map(|s| format!("{s} ")).unwrap_or_default();
                panic!(
                    "completed {what}run failed its {} postcondition (seed {seed}): {e}",
                    term.name()
                );
            }
        }
        drop(a);
        drop(cell);
    }
    r
}

/// [`run_one`] for a registry spec: builds the protocol named by `spec`
/// over `inst` (with the cell's stability interval `t`) as its per-node
/// reference state machine — [`run_spec_kernel`] at [`Kernel::Reference`].
///
/// Equivalence contract: for every simulator spec the returned
/// `RunResult` is bit-identical to running the hand-built protocol
/// through [`run_one`] — the registry cell is that protocol behind the
/// same [`PerNode`] adapter (locked by `tests/protocol_registry.rs`).
pub fn run_spec<FA>(
    spec: &ProtocolSpec,
    inst: &Instance,
    t: usize,
    adv: &FA,
    config: &SimConfig,
    seed: u64,
) -> RunResult
where
    FA: Fn() -> Box<dyn Adversary>,
{
    run_spec_kernel(spec, inst, t, adv, config, seed, Kernel::Reference)
}

/// Why `spec` cannot run on the fast backend, or `None` if it can.
///
/// Every spec that simulates rounds has a cell; `Kernel::Auto` falls back
/// to the reference path for the one exclusion, `patch-indexed` — the §8
/// charged-rounds model is not a per-round simulation at all.
///
/// The message lists the registry minus that family, so it doubles as the
/// user-facing error for an explicit `kernel = fast` on an ineligible
/// spec (campaign validation and the `experiments` CLI surface it as a
/// proper error rather than a panic traceback).
pub fn fast_ineligibility(spec: &ProtocolSpec) -> Option<String> {
    let why = match spec {
        ProtocolSpec::PatchIndexed => "the charged-rounds model is not a per-round simulation",
        _ => return None,
    };
    // An excluded family takes no parameters: it prints as its grammar.
    let excluded = spec.to_string();
    let eligible = registry().iter().map(|info| info.grammar);
    Some(format!(
        "{spec} has no fast kernel ({why}); eligible specs: {}",
        list(eligible.filter(|&g| g != excluded))
    ))
}

/// Is `spec` in the fast backend's eligible families? See
/// [`fast_ineligibility`] for the (short) exclusion list.
pub fn fast_eligible(spec: &ProtocolSpec) -> bool {
    fast_ineligibility(spec).is_none()
}

/// The backend a `(spec, kernel)` pair actually runs on: `Auto` resolves
/// to `Fast` for [`fast_eligible`] specs and `Reference` otherwise;
/// explicit choices pass through (an explicit `Fast` on an ineligible
/// spec fails at build time — [`build_fast_cell`] returns the
/// [`fast_ineligibility`] message — rather than silently degrade).
pub fn resolve_kernel(spec: &ProtocolSpec, kernel: Kernel) -> Kernel {
    match kernel {
        Kernel::Auto => {
            if fast_eligible(spec) {
                Kernel::Fast
            } else {
                Kernel::Reference
            }
        }
        explicit => explicit,
    }
}

/// Seeds `cell` with token i's payload `payloads[i]` at each of its
/// holders, in the `(token, holder)` order of `FieldBroadcast::new`.
fn seeded<A, P>(mut cell: CodingCell<A>, inst: &Instance, payloads: &[P]) -> Box<dyn FastCell>
where
    A: RowAlgebra + 'static,
    P: Borrow<A::Payload>,
{
    for (i, holders) in inst.holders.iter().enumerate() {
        for &u in holders {
            cell.seed_source(u, i, payloads[i].borrow());
        }
    }
    Box::new(cell)
}

/// Builds the arena-backed fast cell for an eligible spec over `inst`
/// (`t` is the cell's stability interval, adopted by
/// `pipelined-forwarding` without an explicit T — the same rule as
/// [`ProtocolSpec::build`]). Dedicated cells cover the elimination-bound
/// coding families ([`Gf2Cell`], [`Gf256Cell`], [`DenseCell`]), the
/// Theorem 2.1 forwarding schedules ([`ForwardCell`]) and the quorum
/// family ([`QuorumCell`]); the stage-machine families have no arena
/// layout and run as their reference cells, [`ProtocolSpec::build`].
///
/// # Errors
/// Returns the [`fast_ineligibility`] message on an ineligible spec.
pub fn build_fast_cell(
    spec: &ProtocolSpec,
    inst: &Instance,
    t: usize,
) -> Result<Box<dyn FastCell>, String> {
    let p = inst.params;
    Ok(match spec {
        ProtocolSpec::TokenForwarding | ProtocolSpec::PipelinedForwarding { .. } => {
            let cfg = match spec {
                ProtocolSpec::PipelinedForwarding { t: spec_t } => {
                    ForwardingConfig::pipelined(&p, spec_t.unwrap_or(t).max(1))
                }
                _ => ForwardingConfig::baseline(&p),
            };
            Box::new(ForwardCell::new(
                p.n,
                p.k,
                p.d,
                p.tokens_per_message(),
                cfg.batch,
                cfg.phase_rounds,
                cfg.window,
                &inst.holders,
            ))
        }
        ProtocolSpec::IndexedBroadcast => seeded(
            Gf2Cell::new(p.n, p.k, p.d, Gf2ViewMode::Indexed),
            inst,
            &inst.tokens,
        ),
        // `det=S` is the randomized mode's cell with the advice table attached.
        ProtocolSpec::FieldBroadcast { field, det } => match field {
            // field-broadcast(gf2) packs a d-bit token into d one-bit
            // symbols, so the packed payload is the token verbatim and
            // the wire cost is k + d bits — the indexed-broadcast layout
            // with the all-or-nothing decodability view.
            FieldKind::Gf2 => {
                let cell = Gf2Cell::new(p.n, p.k, p.d, Gf2ViewMode::Broadcast);
                seeded(cell.with_advice(*det), inst, &inst.tokens)
            }
            FieldKind::Gf256 => {
                let payloads = symbol_payloads::<Gf256>(inst);
                let cell = Gf256Cell::new(p.n, p.k, payloads[0].len());
                seeded(cell.with_advice(*det), inst, &payloads)
            }
            FieldKind::Gf257 => {
                let payloads = symbol_payloads::<Gf257>(inst);
                let cell = DenseCell::new(p.n, p.k, payloads[0].len());
                seeded(cell.with_advice(*det), inst, &payloads)
            }
            FieldKind::Mersenne61 => {
                let payloads = symbol_payloads::<Mersenne61>(inst);
                let cell = DenseCell::new(p.n, p.k, payloads[0].len());
                seeded(cell.with_advice(*det), inst, &payloads)
            }
        },
        ProtocolSpec::GreedyForward { .. }
        | ProtocolSpec::PriorityForward { .. }
        | ProtocolSpec::RandomForward { .. }
        | ProtocolSpec::NaiveCoded
        | ProtocolSpec::Centralized => spec.build(inst, t),
        ProtocolSpec::QuorumWatermark { .. } | ProtocolSpec::QuorumDecide { .. } => {
            let cfg = spec.quorum_config().expect("quorum spec has a config");
            Box::new(QuorumCell::new(p.n, p.k, cfg))
        }
        other => {
            return Err(fast_ineligibility(other)
                .expect("specs without an ineligibility reason have a fast cell"))
        }
    })
}

/// Runs `spec` over `inst` on the state layout `kernel` selects — the
/// per-node reference state machine, the family's arena cell, or `Auto`
/// dispatch between them — verifying the spec's own
/// [`TerminationPredicate`] ([`ProtocolSpec::termination`]) on completion
/// either way: token completion for dissemination families, the quorum
/// threshold for the quorum families.
///
/// `patch-indexed` is the one non-simulator spec: its §8 charged-rounds
/// model consumes the adversary per stability window, and the result maps
/// charged rounds into `RunResult::rounds` (bit accounting stays zero —
/// the model charges rounds, not messages).
///
/// # Panics
/// Panics with the [`fast_ineligibility`] message on an explicit
/// `Kernel::Fast` for an ineligible spec. Callers with a user-facing
/// error path (campaign parsing, the CLI) should pre-check with
/// [`fast_ineligibility`] instead of catching the panic.
pub fn run_spec_kernel<FA>(
    spec: &ProtocolSpec,
    inst: &Instance,
    t: usize,
    adv: &FA,
    config: &SimConfig,
    seed: u64,
    kernel: Kernel,
) -> RunResult
where
    FA: Fn() -> Box<dyn Adversary>,
{
    let fast = resolve_kernel(spec, kernel) == Kernel::Fast;
    if !fast && matches!(spec, ProtocolSpec::PatchIndexed) {
        let mut a = adv();
        let name = a.name();
        let pp = PatchParams::new(inst.params.n, t.max(1), inst.params.b);
        let res = {
            let _run = dyncode_obs::span!("runner.run", seed = seed);
            patch_dissemination(inst, pp, a.as_mut(), seed, config.max_rounds)
        };
        return RunResult {
            rounds: res.charged_rounds,
            completed: res.completed,
            total_bits: 0,
            max_message_bits: 0,
            adversary: name,
            history: Vec::new(),
        };
    }
    run_cell(
        || {
            let cell: Box<dyn FastCell> = if fast {
                build_fast_cell(spec, inst, t).unwrap_or_else(|e| panic!("{e}"))
            } else {
                spec.build(inst, t)
            };
            (cell, inst.params.k)
        },
        adv,
        config,
        seed,
        spec.termination(),
        Some(spec),
    )
}

/// [`sweep_seeds_spec`] through an explicit [`Kernel`]: one
/// [`run_spec_kernel`] cell per seed.
pub fn sweep_seeds_spec_kernel<FA>(
    spec: &ProtocolSpec,
    inst: &Instance,
    t: usize,
    seeds: &[u64],
    max_rounds: usize,
    adv: FA,
    kernel: Kernel,
) -> Vec<RunResult>
where
    FA: Fn() -> Box<dyn Adversary>,
{
    let config = SimConfig::with_max_rounds(max_rounds);
    seeds
        .iter()
        .map(|&seed| run_spec_kernel(spec, inst, t, &adv, &config, seed, kernel))
        .collect()
}

/// Runs a freshly built protocol once per seed against freshly built
/// adversaries, asserting dissemination correctness on completion.
///
/// `build` constructs the protocol, `adv` the adversary (both per seed, so
/// runs are independent). Delegates to [`run_one`] per cell; use
/// `dyncode-engine` for the parallel equivalent.
pub fn sweep_seeds<P, FB, FA>(
    seeds: &[u64],
    max_rounds: usize,
    build: FB,
    adv: FA,
) -> Vec<RunResult>
where
    P: Protocol,
    FB: Fn() -> P,
    FA: Fn() -> Box<dyn Adversary>,
{
    let config = SimConfig::with_max_rounds(max_rounds);
    seeds
        .iter()
        .map(|&seed| run_one(&build, &adv, &config, seed))
        .collect()
}

/// [`sweep_seeds`] for a registry spec: one [`run_spec`] cell per seed
/// ([`sweep_seeds_spec_kernel`] at [`Kernel::Reference`]).
pub fn sweep_seeds_spec<FA>(
    spec: &ProtocolSpec,
    inst: &Instance,
    t: usize,
    seeds: &[u64],
    max_rounds: usize,
    adv: FA,
) -> Vec<RunResult>
where
    FA: Fn() -> Box<dyn Adversary>,
{
    sweep_seeds_spec_kernel(spec, inst, t, seeds, max_rounds, adv, Kernel::Reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Instance, Params, Placement};
    use crate::protocols::token_forwarding::TokenForwarding;
    use dyncode_dynet::adversaries::ShuffledPathAdversary;

    #[test]
    fn run_spec_matches_run_one_and_handles_patch() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let cfg = SimConfig::with_max_rounds(10_000).recording();
        let adv = || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>;

        // Spec path == concrete path, bit for bit.
        let spec = ProtocolSpec::parse("token-forwarding").unwrap();
        let via_spec = run_spec(&spec, &inst, 1, &adv, &cfg, 7);
        let via_type = run_one(&|| TokenForwarding::baseline(&inst), &adv, &cfg, 7);
        assert_eq!(via_spec, via_type);

        // The charged-rounds model completes and reports rounds > 0 with
        // no per-message bit accounting.
        let patch = ProtocolSpec::parse("patch-indexed").unwrap();
        let r = run_spec(
            &patch,
            &inst,
            4,
            &adv,
            &SimConfig::with_max_rounds(500_000),
            3,
        );
        assert!(r.completed, "{r:?}");
        assert!(r.rounds > 0);
        assert_eq!(r.total_bits, 0);
        assert_eq!(r.adversary, "shuffled-path");

        // And the spec sweep is the concrete sweep, seed for seed.
        let results = sweep_seeds_spec(&spec, &inst, 1, &[1, 2, 3], 10_000, adv);
        let concrete = sweep_seeds(&[1, 2, 3], 10_000, || TokenForwarding::baseline(&inst), adv);
        assert_eq!(results, concrete);
        assert!(results.iter().all(|r| r.completed));
    }

    #[test]
    fn auto_dispatch_routes_by_eligibility() {
        let fast = [
            "token-forwarding",
            "pipelined-forwarding",
            "pipelined-forwarding(8)",
            "greedy-forward",
            "priority-forward",
            "random-forward",
            "naive-coded",
            "indexed-broadcast",
            "field-broadcast(gf2)",
            "field-broadcast(gf256)",
            "field-broadcast(gf257)",
            "field-broadcast(m61)",
            "field-broadcast(gf2,det=1)",
            "field-broadcast(gf256,det=7)",
            "field-broadcast(gf257,det=7)",
            "field-broadcast(m61,det=3)",
            "centralized",
            "quorum-watermark(f=1)",
            "quorum-decide(f=1,q=3)",
        ];
        let reference = ["patch-indexed"];
        for s in fast {
            let spec = ProtocolSpec::parse(s).unwrap();
            assert!(fast_eligible(&spec), "{s}");
            assert_eq!(resolve_kernel(&spec, Kernel::Auto), Kernel::Fast, "{s}");
        }
        for s in reference {
            let spec = ProtocolSpec::parse(s).unwrap();
            assert!(!fast_eligible(&spec), "{s}");
            assert_eq!(
                resolve_kernel(&spec, Kernel::Auto),
                Kernel::Reference,
                "{s}"
            );
        }
        // Explicit choices pass through untouched.
        let spec = ProtocolSpec::parse("patch-indexed").unwrap();
        assert_eq!(resolve_kernel(&spec, Kernel::Reference), Kernel::Reference);
        assert_eq!(resolve_kernel(&spec, Kernel::Fast), Kernel::Fast);
    }

    #[test]
    fn ineligible_spec_build_is_an_error_naming_the_eligible_families() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let spec = ProtocolSpec::parse("patch-indexed").unwrap();
        let err = build_fast_cell(&spec, &inst, 1).err().expect("no cell");
        assert!(err.contains("no fast kernel"), "{err}");
        assert_eq!(fast_ineligibility(&spec).as_ref(), Some(&err));
        // The eligible list is the registry minus the excluded family,
        // not a second hand-kept list.
        let (_, eligible) = err.split_once("eligible specs: ").expect("names the list");
        for info in registry() {
            assert_eq!(
                eligible.split(", ").any(|g| g == info.grammar),
                info.grammar != "patch-indexed",
                "{} in {err}",
                info.grammar
            );
        }
    }

    #[test]
    #[should_panic(expected = "no fast kernel")]
    fn explicit_fast_on_ineligible_spec_is_rejected() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let spec = ProtocolSpec::parse("patch-indexed").unwrap();
        let adv = || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>;
        let cfg = SimConfig::with_max_rounds(100);
        let _ = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, 1, Kernel::Fast);
    }

    #[test]
    fn fast_kernel_reproduces_reference_bit_for_bit() {
        let p = Params::new(12, 12, 5, 10);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 2);
        let cfg = SimConfig::with_max_rounds(20_000).recording();
        let adv = || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>;
        for s in [
            "token-forwarding",
            "pipelined-forwarding(8)",
            "greedy-forward",
            "priority-forward",
            "naive-coded",
            "indexed-broadcast",
            "field-broadcast(gf2)",
            "field-broadcast(gf256)",
            "field-broadcast(gf257)",
            "field-broadcast(m61)",
            "field-broadcast(gf2,det=1)",
            "field-broadcast(gf256,det=7)",
            "field-broadcast(gf257,det=7)",
            "field-broadcast(m61,det=3)",
            "centralized",
            "quorum-watermark(f=1)",
            "quorum-watermark(f=2,rounds=12)",
            "quorum-decide(f=2,q=5)",
        ] {
            let spec = ProtocolSpec::parse(s).unwrap();
            for seed in [1u64, 7] {
                let slow = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, seed, Kernel::Reference);
                let fast = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, seed, Kernel::Fast);
                assert_eq!(slow, fast, "{s} seed={seed}");
                assert!(slow.completed, "{s} seed={seed}");
            }
        }
        // random-forward never terminates (it forwards forever), so it is
        // equivalence-checked at a short cap without the completion claim.
        let spec = ProtocolSpec::parse("random-forward").unwrap();
        let short = SimConfig::with_max_rounds(64).recording();
        for seed in [1u64, 7] {
            let slow = run_spec_kernel(&spec, &inst, 1, &adv, &short, seed, Kernel::Reference);
            let fast = run_spec_kernel(&spec, &inst, 1, &adv, &short, seed, Kernel::Fast);
            assert_eq!(slow, fast, "random-forward seed={seed}");
        }
        // The kernel sweep equals the reference sweep, seed for seed.
        let spec = ProtocolSpec::parse("field-broadcast(gf2)").unwrap();
        let slow =
            sweep_seeds_spec_kernel(&spec, &inst, 1, &[1, 2, 3], 20_000, adv, Kernel::Reference);
        let fast = sweep_seeds_spec_kernel(&spec, &inst, 1, &[1, 2, 3], 20_000, adv, Kernel::Auto);
        assert_eq!(slow, fast);
    }

    #[test]
    fn run_one_honors_config_and_records_history() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let cfg = SimConfig::with_max_rounds(10_000).recording();
        let r = run_one(
            &|| TokenForwarding::baseline(&inst),
            &|| Box::new(ShuffledPathAdversary) as Box<dyn Adversary>,
            &cfg,
            1,
        );
        assert!(r.completed);
        assert_eq!(r.history.len(), r.rounds);
        // Same cell, same seed ⇒ same result (the engine's determinism
        // contract rests on this).
        let r2 = run_one(
            &|| TokenForwarding::baseline(&inst),
            &|| Box::new(ShuffledPathAdversary) as Box<dyn Adversary>,
            &cfg,
            1,
        );
        assert_eq!(r.rounds, r2.rounds);
        assert_eq!(r.total_bits, r2.total_bits);
    }
}
