//! E4 (Lemma 5.3) and E10 (Corollary 2.6): indexed broadcast and the
//! centralized algorithm.

use super::{d_for, meta_nkdb, standard_instance};
use crate::ctx::ExpCtx;
use crate::table::{f, Table};
use dyncode_core::params::{Instance, Params, Placement};
use dyncode_core::protocols::IndexedBroadcast;
use dyncode_core::spec::ProtocolSpec;
use dyncode_core::theory;
use dyncode_dynet::adversaries::standard_suite;
use dyncode_dynet::adversaries::ShuffledPathAdversary;

/// E4 — Lemma 5.3: RLNC k-indexed-broadcast completes in O(n + k) rounds
/// against every adversary.
pub fn e4(ctx: &mut ExpCtx) {
    println!("\n## E4 — Lemma 5.3: indexed broadcast = O(n + k), any adversary");
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let ns: &[usize] = if ctx.quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128]
    };

    // (a) size sweep under the shuffled path.
    let mut t = Table::new(
        "E4a: size sweep (d = 8, b = k + 8 wire)",
        &["n", "k", "rounds (mean)", "n + k", "ratio"],
    );
    let (mut meas, mut pred) = (Vec::new(), Vec::new());
    for &n in ns {
        for k in [n / 4, n] {
            let k = k.max(1);
            let inst = Instance::generate(
                Params::new(n, k, 8, (k + 8).max(8)),
                Placement::RoundRobin,
                2,
            );
            let m = ctx.mean_rounds_spec(
                &format!("E4a n={n} k={k}"),
                &meta_nkdb(&inst.params),
                &seeds,
                100 * (n + k),
                &ProtocolSpec::IndexedBroadcast,
                &inst,
                || Box::new(ShuffledPathAdversary),
            );
            let p = theory::indexed_broadcast_bound(n, k);
            t.row(vec![n.to_string(), k.to_string(), f(m), f(p), f(m / p)]);
            meas.push(m);
            pred.push(p);
        }
    }
    ctx.table(&t);
    ctx.fit("E4a", &meas, &pred);

    // (b) adversary sweep at a fixed size: worst-case-ness. One engine
    // cell per adversary family (the family keeps its state across the
    // seeds of its cell, as the suite intends).
    let n = if ctx.quick { 32 } else { 64 };
    let inst = Instance::generate(Params::new(n, n, 8, n + 8), Placement::OneTokenPerNode, 3);
    let mut t = Table::new(
        format!("E4b: adversary sweep (n = k = {n})"),
        &["adversary", "rounds (mean)", "rounds/(n+k)"],
    );
    let suite_len = standard_suite().len();
    let (inst_ref, seeds_ref) = (&inst, &seeds);
    let rows = ctx.map(
        (0..suite_len)
            .map(|idx| {
                move || {
                    let mut adv = standard_suite().swap_remove(idx);
                    let name = adv.name();
                    let total: usize = seeds_ref
                        .iter()
                        .map(|&s| {
                            super::run_to_done(
                                IndexedBroadcast::new(inst_ref),
                                adv.as_mut(),
                                100 * n,
                                s,
                            )
                            .rounds
                        })
                        .sum();
                    (name, total as f64 / seeds_ref.len() as f64)
                }
            })
            .collect(),
    );
    for (name, m) in &rows {
        t.row(vec![name.clone(), f(*m), f(*m / (2 * n) as f64)]);
        ctx.scalar(format!("E4b rounds {name}"), *m);
    }
    ctx.table(&t);
    println!("(rounds/(n+k) stays O(1) across adversaries: the Lemma 5.3 worst-case claim)");
}

/// E10 — Corollary 2.6: the randomized centralized algorithm is Θ(n),
/// breaking the Ω(n log k) centralized token-forwarding bound.
pub fn e10(ctx: &mut ExpCtx) {
    println!("\n## E10 — Corollary 2.6: centralized coding = Θ(n)");
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let ns: &[usize] = if ctx.quick {
        &[16, 32, 64]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let mut t = Table::new(
        "E10: n sweep (k = n, d = lg n + 1, b = 2d)",
        &[
            "n",
            "centralized rounds",
            "rounds/n",
            "forwarding rounds",
            "fwd / centralized",
        ],
    );
    let (mut meas, mut pred) = (Vec::new(), Vec::new());
    for &n in ns {
        let d = d_for(n);
        let inst = standard_instance(n, d, 2 * d, 9);
        let mc = ctx.mean_rounds_spec(
            &format!("E10 centralized n={n}"),
            &meta_nkdb(&inst.params),
            &seeds,
            100 * n,
            &ProtocolSpec::Centralized,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let mf = ctx.mean_rounds_spec(
            &format!("E10 fwd n={n}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &ProtocolSpec::TokenForwarding,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        t.row(vec![
            n.to_string(),
            f(mc),
            f(mc / n as f64),
            f(mf),
            f(mf / mc),
        ]);
        meas.push(mc);
        pred.push(theory::centralized_bound(n));
    }
    ctx.table(&t);
    ctx.fit("E10", &meas, &pred);
    let ns_f: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let slope = theory::loglog_slope(&ns_f, &meas);
    println!(
        "measured log-log slope of centralized rounds vs n: {} (Θ(n) predicts 1)",
        f(slope)
    );
    ctx.scalar("E10 loglog slope rounds vs n", slope);
}
