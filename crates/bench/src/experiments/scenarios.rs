//! E18–E20: the workload suite — coding vs token forwarding on
//! *realistic* dynamics (churn, mobility, replayed traces) instead of the
//! worst-case adversaries the paper's bounds are proved over.
//!
//! The paper's separations hold "against any adversary"; these
//! experiments measure where the ranking lands on stochastic dynamics
//! (cf. Czumaj–Davies: protocol rankings can flip between adversarial
//! and random models). E20 additionally exercises the `.dct` trace
//! pipeline: both protocols run against the byte-identical recorded
//! schedule, the strongest paired-comparison design the harness has.

use super::{d_for, standard_instance};
use crate::ctx::ExpCtx;
use crate::table::{f, Table};
use dyncode_core::spec::ProtocolSpec;
use dyncode_scenarios::{record_scenario_to_file, ScenarioKind};
use std::path::PathBuf;

/// Shared sweep: mean rounds of forwarding and coding against fresh
/// builds of `scenario`, recorded as two labelled artifact cells.
///
/// Forwarding is the Theorem 2.1 baseline (a fixed nkd/b broadcast
/// schedule — its wall is workload-independent); coding is the Lemma 5.3
/// network-coded indexed broadcast, whose **adaptive** termination (all
/// nodes at full rank) is exactly what the workload moves.
fn paired_cell(
    ctx: &mut ExpCtx,
    tag: &str,
    scenario: &ScenarioKind,
    n: usize,
    seeds: &[u64],
    cap: usize,
) -> (f64, f64) {
    let d = d_for(n);
    let inst = standard_instance(n, d, 2 * d, 1800 + n as u64);
    let meta = [
        ("n", n.to_string()),
        ("k", n.to_string()),
        ("d", d.to_string()),
        ("b", (2 * d).to_string()),
        ("scenario", scenario.name()),
    ];
    let fwd = ctx.mean_rounds_spec(
        &format!("{tag} fwd"),
        &meta,
        seeds,
        cap,
        &ProtocolSpec::TokenForwarding,
        &inst,
        || scenario.build(1),
    );
    let coded = ctx.mean_rounds_spec(
        &format!("{tag} coding"),
        &meta,
        seeds,
        cap,
        &ProtocolSpec::IndexedBroadcast,
        &inst,
        || scenario.build(1),
    );
    (fwd, coded)
}

/// E18 — coding vs forwarding under churn: nodes flap in and out of the
/// core topology (token ownership preserved) at increasing rates.
pub fn e18(ctx: &mut ExpCtx) {
    println!("\n## E18 — workload: coding vs forwarding under node churn");
    let n = if ctx.quick { 24 } else { 48 };
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let rates: &[f64] = if ctx.quick {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.35]
    };
    let mut t = Table::new(
        format!("E18: churn-rate sweep (n = k = {n}, d = lg n + 1, b = 2d, base random-connected)"),
        &["rate", "forwarding", "coding", "fwd/coding"],
    );
    for &rate in rates {
        let scenario = ScenarioKind::parse(&format!("churn({rate},random-connected)"))
            .expect("static spec is valid");
        let (fwd, coded) = paired_cell(
            ctx,
            &format!("E18 rate={rate}"),
            &scenario,
            n,
            &seeds,
            60 * n * n,
        );
        t.row(vec![rate.to_string(), f(fwd), f(coded), f(fwd / coded)]);
        ctx.scalar(format!("E18 fwd/coding rate={rate}"), fwd / coded);
    }
    ctx.table(&t);
    println!(
        "(rising churn parks nodes behind single tethers — the graph thins and both\n\
         protocols slow; the ratio tracks whether coding's innovation guarantee or\n\
         forwarding's simplicity degrades faster outside the worst case)"
    );
}

/// E19 — coding vs forwarding under random-waypoint mobility: the
/// communication radius sweeps from barely-connected to dense.
pub fn e19(ctx: &mut ExpCtx) {
    println!("\n## E19 — workload: coding vs forwarding under waypoint mobility");
    let n = if ctx.quick { 24 } else { 48 };
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let radii: &[f64] = if ctx.quick {
        &[0.15, 0.5]
    } else {
        &[0.1, 0.2, 0.35, 0.5]
    };
    let speed = 0.05;
    let mut t = Table::new(
        format!("E19: radius sweep (n = k = {n}, d = lg n + 1, b = 2d, speed {speed})"),
        &["radius", "forwarding", "coding", "fwd/coding"],
    );
    for &radius in radii {
        let scenario =
            ScenarioKind::parse(&format!("waypoint({radius},{speed})")).expect("static spec");
        let (fwd, coded) = paired_cell(
            ctx,
            &format!("E19 r={radius}"),
            &scenario,
            n,
            &seeds,
            60 * n * n,
        );
        t.row(vec![radius.to_string(), f(fwd), f(coded), f(fwd / coded)]);
        ctx.scalar(format!("E19 fwd/coding r={radius}"), fwd / coded);
    }
    ctx.table(&t);
    println!(
        "(small radii give sparse, high-diameter unit-disk graphs patched to\n\
         connectivity by minimum-length bridges — the regime where per-round\n\
         information flow is scarcest and coding's mixing should matter most)"
    );
}

/// E20 — replayed `.dct` traces: record one edge-Markov schedule per
/// size, then run both protocols against the byte-identical replay.
pub fn e20(ctx: &mut ExpCtx) {
    println!("\n## E20 — workload: paired protocols on replayed .dct traces");
    let ns: &[usize] = if ctx.quick { &[16] } else { &[24, 40] };
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2, 3] };
    let model = ScenarioKind::parse("edge-markov(0.08,0.25)").expect("static spec");
    let dir = std::env::temp_dir().join(format!("dyncode_e20_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for traces");
    let mut t = Table::new(
        "E20: edge-markov(0.08,0.25) traces, both protocols on the identical schedule",
        &[
            "n",
            "trace rounds",
            "trace bytes",
            "forwarding",
            "coding",
            "fwd/coding",
        ],
    );
    for &n in ns {
        let rounds = 4 * n * n; // the replay cycles if a run outlasts it
        let path: PathBuf = dir.join(format!("e20_n{n}.dct"));
        let header = record_scenario_to_file(&model, n, rounds, 2000 + n as u64, &path)
            .expect("trace recording");
        assert_eq!(header.rounds, rounds as u64);
        let bytes = std::fs::metadata(&path).expect("trace written").len();
        let replay = ScenarioKind::Trace {
            path: path.display().to_string(),
        };

        let d = d_for(n);
        let inst = standard_instance(n, d, 2 * d, 1800 + n as u64);
        // Meta names the *model* the trace came from, never the temp
        // path — artifact bytes must not depend on where CI scratch is.
        let meta = [
            ("n", n.to_string()),
            ("k", n.to_string()),
            ("d", d.to_string()),
            ("b", (2 * d).to_string()),
            ("scenario", format!("replayed {}", model.name())),
        ];
        let fwd = ctx.mean_rounds_spec(
            &format!("E20 n={n} fwd"),
            &meta,
            &seeds,
            60 * n * n,
            &ProtocolSpec::TokenForwarding,
            &inst,
            || replay.build(1),
        );
        let coded = ctx.mean_rounds_spec(
            &format!("E20 n={n} coding"),
            &meta,
            &seeds,
            60 * n * n,
            &ProtocolSpec::IndexedBroadcast,
            &inst,
            || replay.build(1),
        );
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            bytes.to_string(),
            f(fwd),
            f(coded),
            f(fwd / coded),
        ]);
        ctx.scalar(format!("E20 fwd/coding n={n}"), fwd / coded);
        ctx.scalar(
            format!("E20 trace bytes/round n={n}"),
            (bytes as f64 - 24.0) / rounds as f64,
        );
    }
    ctx.table(&t);
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "(both protocols saw the exact same topology sequence — any rounds gap is\n\
         purely algorithmic; bytes/round is the .dct delta-compression rate)"
    );
}
