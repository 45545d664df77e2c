//! E2/E5/E7/E8/E13/E14: the network-coding algorithms against the
//! forwarding baseline across message-size regimes.

use super::{d_for, lgn, meta_nkdb, standard_instance};
use crate::ctx::ExpCtx;
use crate::table::{f, Table};
use dyncode_core::protocols::GreedyForward;
use dyncode_core::spec::ProtocolSpec;
use dyncode_core::theory;
use dyncode_dynet::adversaries::{KnowledgeAdaptiveAdversary, ShuffledPathAdversary};
use dyncode_gf::{Field, Gf2Vec};
use dyncode_rlnc::node::{DenseNode, Gf2Node};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// E2 — Theorem 2.3: coding rounds ≈ nkd/b² + nb: quadratic gain in b,
/// vs forwarding's linear gain.
pub fn e2(ctx: &mut ExpCtx) {
    println!("\n## E2 — Theorem 2.3: coding gains quadratically in the message size b");
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let n = if ctx.quick { 48 } else { 96 };
    let d = d_for(n);
    let (greedy, tf) = (
        ProtocolSpec::parse("greedy-forward").unwrap(),
        ProtocolSpec::TokenForwarding,
    );
    let mut t = Table::new(
        format!("E2: b sweep (n = k = {n}, d = {d}), greedy-forward vs forwarding"),
        &[
            "b",
            "coding rounds",
            "forwarding rounds",
            "nkd/b²+nb",
            "coding/bound",
            "fwd/coding",
        ],
    );
    let (mut meas, mut t1s, mut t2s) = (Vec::new(), Vec::new(), Vec::new());
    for mult in [1usize, 2, 4, 8] {
        let b = mult * d;
        let inst = standard_instance(n, d, b, 21);
        let mc = ctx.mean_rounds_spec(
            &format!("E2 coding b={b}"),
            &meta_nkdb(&inst.params),
            &seeds,
            50 * n * n,
            &greedy,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let mf = ctx.mean_rounds_spec(
            &format!("E2 fwd b={b}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &tf,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let p = theory::greedy_forward_bound(n, n, d, b);
        t.row(vec![
            b.to_string(),
            f(mc),
            f(mf),
            f(p),
            f(mc / p),
            f(mf / mc),
        ]);
        meas.push(mc);
        let (nf, kf, df, bf) = (n as f64, n as f64, d as f64, b as f64);
        t1s.push(nf * kf * df / (bf * bf));
        t2s.push(nf * bf);
    }
    ctx.table(&t);
    let (c1, c2, resid) = theory::fit_two_terms(&meas, &t1s, &t2s);
    println!(
        "\ntwo-term fit: rounds ≈ {}·nkd/b² + {}·nb, max relative residual {}",
        f(c1),
        f(c2),
        f(resid)
    );
    ctx.scalar("E2 two-term fit c1 (nkd/b²)", c1);
    ctx.scalar("E2 two-term fit c2 (nb)", c2);
    ctx.scalar("E2 two-term fit max residual", resid);
    println!(
        "forwarding improves linearly in b (E1b slope ≈ -1); the coding advantage\n\
         fwd/coding grows with b — the Theorem 2.3 quadratic separation."
    );
}

/// E5 — Section 5.2: node B misses one of A's k tokens; forwarding wastes
/// ~k/2 transmissions, one coded XOR suffices.
pub fn e5(ctx: &mut ExpCtx) {
    println!("\n## E5 — Section 5.2: the last-missing-token example");
    let trials = if ctx.quick { 200 } else { 1000 };
    let mut t = Table::new(
        format!("E5: transmissions until B learns its missing token ({trials} trials)"),
        &[
            "k",
            "random forwarding",
            "GF(2) coding",
            "GF(256) coding",
            "k/2 (theory)",
        ],
    );
    let ks = [8usize, 16, 32, 64];
    // One engine cell per k, each with its own derived rng seed so cells
    // are independent (and the sweep parallel + deterministic).
    let rows = ctx.map(
        ks.iter()
            .map(|&k| {
                move || {
                    let d = 16;
                    let mut rng = StdRng::seed_from_u64(500 + k as u64);
                    // Random token forwarding: A sends its tokens in a
                    // uniformly random order (without repetition — the best
                    // randomized forwarding strategy, k/2 expected sends
                    // per §5.2).
                    let mut fwd_total = 0usize;
                    for _ in 0..trials {
                        let missing = rng.random_range(0..k);
                        let order = dyncode_dynet::generators::random_permutation(k, &mut rng);
                        fwd_total += order.iter().position(|&t| t == missing).unwrap() + 1;
                    }
                    // GF(2) coding: A sends random XOR combinations of
                    // source vectors.
                    let mut gf2_total = 0usize;
                    for trial in 0..trials {
                        let mut a = Gf2Node::new(k, d);
                        let mut b = Gf2Node::new(k, d);
                        let missing = rng.random_range(0..k);
                        for i in 0..k {
                            let payload = Gf2Vec::random(d, &mut rng);
                            a.seed_source(i, &payload);
                            if i != missing {
                                b.seed_source(i, &payload);
                            }
                        }
                        let mut sends = 0;
                        while b.decode().is_none() {
                            b.receive(&a.emit(&mut rng).unwrap());
                            sends += 1;
                            assert!(sends < 100, "trial {trial} runaway");
                        }
                        gf2_total += sends;
                    }
                    // GF(256): the 1 - 1/q innovation makes one send almost
                    // always enough.
                    let mut gf256_total = 0usize;
                    for _ in 0..trials {
                        let mut a: DenseNode<dyncode_gf::Gf256> = DenseNode::new(k, 2);
                        let mut b: DenseNode<dyncode_gf::Gf256> = DenseNode::new(k, 2);
                        let missing = rng.random_range(0..k);
                        for i in 0..k {
                            let payload: Vec<dyncode_gf::Gf256> =
                                (0..2).map(|_| Field::random(&mut rng)).collect();
                            a.seed_source(i, &payload);
                            if i != missing {
                                b.seed_source(i, &payload);
                            }
                        }
                        let mut sends = 0;
                        while b.decode().is_none() {
                            b.receive(&a.emit(&mut rng).unwrap());
                            sends += 1;
                        }
                        gf256_total += sends;
                    }
                    (
                        fwd_total as f64 / trials as f64,
                        gf2_total as f64 / trials as f64,
                        gf256_total as f64 / trials as f64,
                    )
                }
            })
            .collect(),
    );
    for (&k, &(fwd, gf2, gf256)) in ks.iter().zip(&rows) {
        t.row(vec![
            k.to_string(),
            f(fwd),
            f(gf2),
            f(gf256),
            f(k as f64 / 2.0),
        ]);
        ctx.scalar(format!("E5 fwd sends k={k}"), fwd);
        ctx.scalar(format!("E5 gf2 sends k={k}"), gf2);
        ctx.scalar(format!("E5 gf256 sends k={k}"), gf256);
    }
    ctx.table(&t);
    println!(
        "forwarding tracks k/2 (grows with k); coded transmissions stay O(1)\n\
         (GF(2) ≈ 2 = 1/(1-1/q), GF(256) ≈ 1) — \"every communication carries new information\"."
    );
}

/// E7 — Section 2.3 bullet 1: at b = d = Θ(log n), k = n, coding beats
/// any knowledge-based forwarding by Θ(log n).
pub fn e7(ctx: &mut ExpCtx) {
    println!("\n## E7 — S2.3: the b = d = log n separation");
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2] };
    let ns: &[usize] = if ctx.quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut t = Table::new(
        "E7: b = d = lg n + 1, k = n, knowledge-adaptive adversary",
        &[
            "n",
            "lg n",
            "forwarding",
            "coding",
            "fwd/coding",
            "ratio/lg n",
        ],
    );
    for &n in ns {
        let d = d_for(n);
        let inst = standard_instance(n, d, d, 3);
        let mf = ctx.mean_rounds_spec(
            &format!("E7 fwd n={n}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &ProtocolSpec::TokenForwarding,
            &inst,
            || Box::new(KnowledgeAdaptiveAdversary),
        );
        let mc = ctx.mean_rounds_spec(
            &format!("E7 coding n={n}"),
            &meta_nkdb(&inst.params),
            &seeds,
            50 * n * n,
            &ProtocolSpec::parse("greedy-forward").unwrap(),
            &inst,
            || Box::new(KnowledgeAdaptiveAdversary),
        );
        let ratio = mf / mc;
        t.row(vec![
            n.to_string(),
            lgn(n).to_string(),
            f(mf),
            f(mc),
            f(ratio),
            f(ratio / lgn(n) as f64),
        ]);
        ctx.scalar(format!("E7 fwd/coding ratio n={n}"), ratio);
    }
    ctx.table(&t);
    println!(
        "the fwd/coding ratio grows ∝ lg n (the ratio/lg n column stays flat):\n\
         the paper's n²/log n vs n² headline, with the harness constants absorbed\n\
         into the flat factor — the crossover past 1.0 lands around n ≈ 128."
    );
}

/// E8 — Section 2.3 bullet 2: the smallest b giving ≈ linear-time
/// dissemination: coding needs b ≈ √(n log n); forwarding needs b ≈ n log n.
pub fn e8(ctx: &mut ExpCtx) {
    println!("\n## E8 — S2.3: message size needed for linear time");
    let ns: &[usize] = if ctx.quick { &[32] } else { &[32, 64, 128] };
    let slack = 12.0; // "linear time" = rounds ≤ slack · n
    let mut t = Table::new(
        format!("E8: min b with rounds ≤ {slack}·n (k = n, d = lg n + 1)"),
        &[
            "n",
            "coding min b",
            "sqrt(n lg n)",
            "forwarding min b",
            "n lg n / slack",
        ],
    );
    // One engine cell per n; each cell runs its own b-doubling search.
    let rows = ctx.map(
        ns.iter()
            .map(|&n| {
                move || {
                    let d = d_for(n);
                    let budget = (slack * n as f64) as usize;
                    let mut coding_b = None;
                    let mut b = d;
                    while coding_b.is_none() && b <= 4 * n * lgn(n) {
                        let inst = standard_instance(n, d, b, 8);
                        let mut p = GreedyForward::new(&inst);
                        let mut adv = ShuffledPathAdversary;
                        let r = dyncode_dynet::simulator::run(
                            &mut p,
                            &mut adv,
                            &dyncode_dynet::SimConfig::with_max_rounds(budget + 1),
                            5,
                        );
                        if r.completed && r.rounds <= budget {
                            coding_b = Some(b);
                        }
                        b *= 2;
                    }
                    // Forwarding needs ~ kd/slack messages per phase: solve
                    // directly from its deterministic schedule (phases =
                    // ⌈k/(b/d)⌉, n each).
                    let mut fwd_b = d;
                    while (n as f64 * (n as f64 * d as f64 / fwd_b as f64).ceil())
                        > slack * n as f64
                    {
                        fwd_b *= 2;
                    }
                    (coding_b, fwd_b)
                }
            })
            .collect(),
    );
    for (&n, &(coding_b, fwd_b)) in ns.iter().zip(&rows) {
        t.row(vec![
            n.to_string(),
            coding_b.map_or("-".into(), |x| x.to_string()),
            f(((n * lgn(n)) as f64).sqrt()),
            fwd_b.to_string(),
            f(n as f64 * lgn(n) as f64 / slack),
        ]);
        if let Some(cb) = coding_b {
            ctx.scalar(format!("E8 coding min b n={n}"), cb as f64);
        }
        ctx.scalar(format!("E8 forwarding min b n={n}"), fwd_b as f64);
    }
    ctx.table(&t);
    println!(
        "coding's threshold tracks √(n lg n) while forwarding's tracks n lg n —\n\
         the quadratic message-size separation, instantiated at the linear-time frontier."
    );
}

/// E13 — Corollary 7.1 ablation: flooded-ID indexing only helps when
/// d ≫ log n; for small tokens it is as slow as forwarding.
pub fn e13(ctx: &mut ExpCtx) {
    println!("\n## E13 — Corollary 7.1: why gathering is needed (ablation)");
    let n = if ctx.quick { 32 } else { 48 };
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2] };
    let b = 8 * d_for(n);
    let mut t = Table::new(
        format!("E13: d sweep at fixed b = {b} (n = k = {n})"),
        &[
            "d",
            "naive-coded",
            "greedy-forward",
            "forwarding",
            "naive/greedy",
        ],
    );
    for mult in [1usize, 2, 4, 8] {
        let d = mult * d_for(n);
        let inst = standard_instance(n, d, b, 4);
        let mn = ctx.mean_rounds_spec(
            &format!("E13 naive d={d}"),
            &meta_nkdb(&inst.params),
            &seeds,
            100 * n * n,
            &ProtocolSpec::NaiveCoded,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let mg = ctx.mean_rounds_spec(
            &format!("E13 greedy d={d}"),
            &meta_nkdb(&inst.params),
            &seeds,
            100 * n * n,
            &ProtocolSpec::parse("greedy-forward").unwrap(),
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let mf = ctx.mean_rounds_spec(
            &format!("E13 fwd d={d}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &ProtocolSpec::TokenForwarding,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        t.row(vec![d.to_string(), f(mn), f(mg), f(mf), f(mn / mg)]);
    }
    ctx.table(&t);
    println!(
        "naive indexing pays O(n) flooding per b/lg n tokens regardless of d —\n\
         gathering (greedy-forward) is what unlocks the b² rate at small d."
    );
}

/// E14 — the Thm 7.3 (+nb) vs Thm 7.5 (+n·polylog) crossover at large b.
pub fn e14(ctx: &mut ExpCtx) {
    println!("\n## E14 — greedy-forward vs priority-forward: the large-b crossover");
    let n = if ctx.quick { 32 } else { 64 };
    let d = d_for(n);
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2] };
    let mut t = Table::new(
        format!("E14: b sweep (n = k = {n}, d = {d})"),
        &[
            "b",
            "greedy (Thm 7.3)",
            "priority (Thm 7.5)",
            "greedy bound",
            "priority bound",
        ],
    );
    for mult in [2usize, 4, 8, 16, 32] {
        let b = mult * d;
        let inst = standard_instance(n, d, b, 6);
        let mg = ctx.mean_rounds_spec(
            &format!("E14 greedy b={b}"),
            &meta_nkdb(&inst.params),
            &seeds,
            100 * n * n,
            &ProtocolSpec::parse("greedy-forward").unwrap(),
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let mp = ctx.mean_rounds_spec(
            &format!("E14 priority b={b}"),
            &meta_nkdb(&inst.params),
            &seeds,
            100 * n * n,
            &ProtocolSpec::parse("priority-forward").unwrap(),
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        t.row(vec![
            b.to_string(),
            f(mg),
            f(mp),
            f(theory::greedy_forward_bound(n, n, d, b)),
            f(theory::priority_forward_bound(n, n, d, b)),
        ]);
    }
    ctx.table(&t);
    println!(
        "greedy's additive nb term grows with b while priority-forward's n·polylog\n\
         stays flat: the reason the paper needs both algorithms (Theorem 2.3's min)."
    );
}
