//! The telemetry non-perturbation contract: running a campaign with every
//! obs sink enabled — in-memory aggregator, JSONL event writer, metrics
//! recording — produces an artifact **byte-identical** to the
//! telemetry-off run, at any thread count.
//!
//! This is what makes `--events`/`--metrics` safe to leave on in CI and
//! long-running serve loops: telemetry observes runs, it never steers
//! them. The contract holds because instrumentation only *reads* the
//! simulation (wall clocks, counters) and every randomness source is
//! derived from seeds, never from timing.

use dyncode::engine::{
    AdversaryKind, Campaign, CapRule, ClassicKind, Dim, Engine, Kernel, ProtocolSpec,
};
use dyncode_store::{run_campaign_stored, RunOptions, Store};

fn demo_campaign() -> Campaign {
    // Fast-kernel cells so the kernel phase spans (kernel.csr / gather /
    // eliminate / compose) are exercised, plus runner + executor spans.
    Campaign::builder("obs-determinism", "telemetry non-perturbation check")
        .protocol(ProtocolSpec::parse("field-broadcast(gf2)").expect("registry spec"))
        .adversaries(vec![
            AdversaryKind::Classic(ClassicKind::ShuffledPath),
            AdversaryKind::Classic(ClassicKind::Bottleneck),
        ])
        .ns(&[8, 16])
        .k(Dim::N)
        .d(Dim::LgN1)
        .b(Dim::MulD(2))
        .seeds(&[1, 2])
        .cap(CapRule::MulNN(10))
        .kernel(Kernel::Fast)
        .record_history(true)
        .build()
        .expect("valid campaign")
}

fn run_bytes(threads: usize, store: Option<&Store>) -> String {
    let campaign = demo_campaign();
    let opts = RunOptions {
        store,
        ..RunOptions::default()
    };
    let (artifact, _) =
        run_campaign_stored(&Engine::new(threads), &campaign, &opts).expect("campaign runs");
    artifact.to_json_string()
}

/// One test function on purpose: sinks are process-global, so the
/// off-baseline must be captured before any sink is installed and the
/// whole sequence must not interleave with other tests in this binary.
#[test]
fn artifacts_are_byte_identical_with_sinks_on_and_off() {
    let dir = std::env::temp_dir().join(format!("dyncode-obs-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let metrics_path = dir.join("metrics.json");
    let store_dir = dir.join("store");

    // Telemetry off: the baseline bytes (serial, no store).
    assert!(!dyncode_obs::enabled(), "no sink may be pre-installed");
    let baseline = run_bytes(1, None);

    // Telemetry fully on: JSONL + metrics session plus an extra in-memory
    // aggregator, serial and parallel, cold and warm store passes.
    let memory = std::sync::Arc::new(dyncode_obs::MemorySink::default());
    let memory_id = dyncode_obs::install(memory.clone());
    {
        let _session =
            dyncode_obs::Session::start(Some(events_path.as_path()), Some(metrics_path.as_path()))
                .expect("session starts");
        assert!(dyncode_obs::enabled());
        assert_eq!(
            run_bytes(1, None),
            baseline,
            "serial run perturbed by sinks"
        );
        assert_eq!(
            run_bytes(4, None),
            baseline,
            "parallel run perturbed by sinks"
        );
        let store = Store::open(&store_dir).expect("store opens");
        assert_eq!(
            run_bytes(4, Some(&store)),
            baseline,
            "cold store run perturbed by sinks"
        );
        assert_eq!(
            run_bytes(4, Some(&store)),
            baseline,
            "warm store run perturbed by sinks"
        );
    }
    dyncode_obs::uninstall(memory_id);
    assert!(!dyncode_obs::enabled(), "session drop must uninstall sinks");

    // Telemetry off again: still the same bytes.
    assert_eq!(run_bytes(1, None), baseline, "bytes changed after session");

    // The event stream is strictly valid and saw the expected shapes.
    let text = std::fs::read_to_string(&events_path).expect("events file written");
    let events = dyncode_obs::parse_events(&text).expect("stream is schema-valid");
    let saw = |name: &str| events.iter().any(|e| e.name == name);
    for name in [
        "runner.setup",
        "runner.run",
        "runner.teardown",
        "executor.map",
        "kernel.csr",
        "kernel.gather",
        "kernel.eliminate",
        "kernel.compose",
    ] {
        assert!(saw(name), "no {name} event in the stream");
    }
    // The in-memory aggregator observed the same stream shape.
    assert!(memory.events().iter().any(|e| e.name == "runner.run"));
    // Store counters flow through the obs registry — the same numbers
    // write_sidecar renders, so the sidecar reconciles with `--events`.
    let seed_runs = 2 * 2 * 2; // adversaries x ns x seeds
    assert!(dyncode_obs::metrics::counter_value("store.puts") >= seed_runs);
    assert!(dyncode_obs::metrics::counter_value("store.hits") >= seed_runs);

    // The metrics snapshot file parses under its own schema marker.
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(metrics_text.contains("dyncode-metrics/v1"));

    std::fs::remove_dir_all(&dir).ok();
}
