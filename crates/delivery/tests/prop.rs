//! Property tests for the delivery-spec grammar: `parse ∘ Display = id`
//! over the whole model registry, so campaign text, CLI flags, store
//! keys, and artifact meta all agree on one canonical string per model —
//! and hostile input is an `Err`, never a panic.

use dyncode_delivery::DeliverySpec;
use proptest::prelude::*;

/// Arbitrary valid specs; per-mille integers keep the float rendering
/// exact, so canonical strings round-trip without precision loss.
fn spec() -> BoxedStrategy<DeliverySpec> {
    prop_oneof![
        Just(DeliverySpec::Reliable),
        (1u32..=1000).prop_map(|p| DeliverySpec::Radio {
            p: p as f64 / 1000.0,
            spont: 0.0,
        }),
        (1u32..=1000, 1u32..1000).prop_map(|(p, s)| DeliverySpec::Radio {
            p: p as f64 / 1000.0,
            spont: s as f64 / 1000.0,
        }),
        (0u32..1000).prop_map(|e| DeliverySpec::Lossy {
            eps: e as f64 / 1000.0,
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ Display = id: a spec re-parsed from its canonical string
    /// is the same spec, and re-rendering is a fixed point.
    #[test]
    fn canonical_strings_round_trip(s in spec()) {
        let text = s.to_string();
        let reparsed = DeliverySpec::parse(&text).expect("canonical string re-parses");
        prop_assert_eq!(&reparsed, &s);
        prop_assert_eq!(reparsed.to_string(), text);
    }

    /// Whitespace-padded forms parse to the same spec as the canonical
    /// string (campaign text is written by hand).
    #[test]
    fn padded_strings_parse_to_the_same_spec(s in spec()) {
        let text = format!("  {}  ", s);
        prop_assert_eq!(DeliverySpec::parse(&text).expect("padded"), s);
    }

    /// Hostile input: arbitrary bytes, and a canonical string with a few
    /// bytes overwritten, never panic the parser — and whatever parses
    /// prints a string that parses back to itself.
    #[test]
    fn parse_never_panics(
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        s in spec(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let mut mutated = s.to_string().into_bytes();
        for (at, byte) in edits {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        for bytes in [junk, mutated] {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(parsed) = DeliverySpec::parse(&text) {
                prop_assert_eq!(DeliverySpec::parse(&parsed.name()), Ok(parsed));
            }
        }
    }
}
