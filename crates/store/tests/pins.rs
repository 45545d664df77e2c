//! Pins on what a grammar change must not move: the canonical strings
//! the committed baselines gate on, and the store keys derived from
//! them. Every literal here was recorded at the commit before the spec
//! parsers moved onto `dyncode_obs::spec`.

use dyncode_core::params::{Params, Placement};
use dyncode_engine::{AdversaryKind, Campaign, CellSpec, DeliverySpec, Kernel, ProtocolSpec};
use dyncode_store::{campaign_digest, CellKey};
use std::collections::BTreeSet;
use std::path::Path;

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Every distinct `proto=…`, `adv=…`, `delivery=…` value in the cell
/// labels of the five committed baselines is a fixed point of
/// parse ∘ Display on its axis — so the labels the `compare` gates match
/// on are exactly what the change prints.
#[test]
fn baseline_label_values_are_fixed_points_of_their_axis() {
    let mut values: BTreeSet<(&str, String)> = BTreeSet::new();
    for name in ["seed", "scenarios", "protocols", "delivery", "quorum"] {
        let path = repo().join(format!("baselines/BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path).expect("baseline is committed");
        let artifact = dyncode_engine::Artifact::parse(&text).expect("baseline parses");
        for cell in &artifact.cells {
            for word in cell.label.split(' ') {
                for axis in ["proto", "adv", "delivery"] {
                    if let Some(v) = word.strip_prefix(axis).and_then(|w| w.strip_prefix('=')) {
                        values.insert((axis, v.to_string()));
                    }
                }
            }
        }
    }
    for axis in ["proto", "adv", "delivery"] {
        assert!(
            values.iter().filter(|(a, _)| *a == axis).count() >= 3,
            "the baselines exercise the {axis} axis: {values:?}"
        );
    }
    for (axis, v) in &values {
        let printed = match *axis {
            "proto" => ProtocolSpec::parse(v).expect(v).to_string(),
            "adv" => AdversaryKind::parse(v).expect(v).name(),
            _ => DeliverySpec::parse(v).expect(v).name(),
        };
        assert_eq!(&printed, v, "{axis} value moved");
    }
}

fn cell(proto: &str, adv: &str, delivery: &str, placement: Placement) -> CellSpec {
    CellSpec {
        params: Params {
            n: 16,
            k: 16,
            d: 5,
            b: 10,
        },
        t: 2,
        adversary: AdversaryKind::parse(adv).expect(adv),
        placement,
        protocol: ProtocolSpec::parse(proto).expect(proto),
        cap: 2560,
        instance_seed: 42,
        kernel: Kernel::Auto,
        record_history: false,
        delivery: DeliverySpec::parse(delivery).expect(delivery),
    }
}

#[test]
fn cell_keys_equal_the_recorded_digests() {
    let one = Placement::OneTokenPerNode;
    for (c, want) in [
        (
            cell("token-forwarding", "bottleneck", "reliable", one),
            "baa6b7b6da542e186ea419a46d6c6962806a36da04c303b18b107a9f8ec009f8",
        ),
        (
            cell(
                "greedy-forward(gather=2,bcast=3)",
                "churn(0.2,edge-markov(0.1,0.3))",
                "radio(p=0.25)",
                one,
            ),
            "2d4c3b847ce338bb02b651384a8af1c8d0f874d0ce69500971f8d9cf220fb4aa",
        ),
    ] {
        let key = CellKey::new(&c, 7);
        assert_eq!(key.digest_hex(), want, "{}", key.canonical());
    }
    // The third cell is a `det=` spec, pinned under both resolutions.
    // The first literal is the `kernel=reference` preimage — also what
    // `auto` hashed to while advice schedules had no arena cell, so
    // objects older binaries wrote stay addressable under an explicit
    // `reference`; `auto` shares the `fast` key like every eligible spec.
    let det = |kernel| {
        let c = cell(
            "field-broadcast(m61,det=7)",
            "waypoint(0.35,0.05)",
            "lossy(eps=0.3)",
            Placement::AllAtNode(3),
        );
        CellKey::new(&CellSpec { kernel, ..c }, 7)
    };
    assert_eq!(
        det(Kernel::Reference).digest_hex(),
        "123b7ed9c78c0af6a6c18f6c173bbf072d9aa3207a0b51c2ec1e940801e3d312"
    );
    let auto = det(Kernel::Auto);
    assert_eq!(
        auto.digest_hex(),
        "0f639ea4788d84a86003c0eae10b5dc087a3ca1efd89008cd3d71d96dceff87a",
        "{}",
        auto.canonical()
    );
    assert_eq!(auto.digest_hex(), det(Kernel::Fast).digest_hex());
}

#[test]
fn the_e21_campaign_digests_equal_the_recorded_ones() {
    let text = std::fs::read_to_string(repo().join("campaigns/e21.camp")).unwrap();
    let c = Campaign::parse(&text).expect("e21.camp parses");
    assert_eq!(
        campaign_digest(&c),
        "7c3c157078a6ee73515ef62f4edcdfeea3081a36a2625dbcc4d13d4f845a5827"
    );
    assert_eq!(
        campaign_digest(&c.quick()),
        "327c2e9c0f23aeb5f1ffa5786531a8bcab05fb6d27c2c1234137f373b9558def"
    );
}
