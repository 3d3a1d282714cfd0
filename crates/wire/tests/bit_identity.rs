//! Bit identity against the reference model in `wire_reference`: the
//! allocation-free encoder writes exactly the bytes the allocating one did,
//! the checksum sink hashes exactly those bytes, and the slice-by-8 CRC
//! kernel agrees with the bytewise one on every length and split. Durable
//! artifacts and their stored checksums therefore cannot have changed.

mod wire_reference;

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use dmps_wire::{
    crc32_finish, crc32_of, crc32_update, to_string, to_string_checksummed, CRC32_INIT,
};
use proptest::prelude::*;

/// Nested values mixing every token kind: integer extremes, float bit
/// patterns, strings, options, maps, queues and durations.
type Mixed = (
    Vec<(u64, i64, f64)>,
    BTreeMap<String, Vec<Option<f64>>>,
    Option<(String, bool, Duration)>,
    VecDeque<(String, Vec<i64>)>,
);

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::from(u32::MAX) + 1),
        0u64..u64::MAX,
        0u64..1_000,
    ]
}

fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(-1i64),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MIN + 1),
        i64::MIN..i64::MAX,
        -1_000i64..1_000,
    ]
}

/// Floats by bit pattern: NaNs with payloads (quiet and signalling, both
/// signs), signed zeros, infinities, subnormals and arbitrary patterns.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        (1u64..(1u64 << 52)).prop_map(|payload| f64::from_bits(0x7FF0_0000_0000_0000 | payload)),
        (1u64..(1u64 << 52)).prop_map(|payload| f64::from_bits(0xFFF0_0000_0000_0000 | payload)),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (1u64..(1u64 << 52)).prop_map(f64::from_bits),
        (1u64..(1u64 << 52)).prop_map(|m| -f64::from_bits(m)),
        (0u64..u64::MAX).prop_map(f64::from_bits),
    ]
}

/// Strings with separators, length-prefix look-alikes, multibyte UTF-8 and
/// the empty string; some long enough to bypass the checksum sink's stage.
fn arb_string() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = [' ', ':', '0', '9', 'x', 'a', '-', 'é', '→', '🦀', 'z', ':'];
    prop_oneof![
        Just(String::new()),
        proptest::collection::vec(0usize..12, 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect()),
        (0usize..12, 200usize..700).prop_map(|(i, n)| ALPHABET[i].to_string().repeat(n)),
    ]
}

fn arb_mixed() -> impl Strategy<Value = Mixed> {
    (
        proptest::collection::vec((arb_u64(), arb_i64(), arb_f64()), 0..5),
        proptest::collection::vec(
            (
                arb_string(),
                proptest::collection::vec(
                    (proptest::bool::ANY, arb_f64()).prop_map(|(some, f)| some.then_some(f)),
                    0..4,
                ),
            ),
            0..4,
        )
        .prop_map(|pairs| pairs.into_iter().collect::<BTreeMap<_, _>>()),
        (
            proptest::bool::ANY,
            arb_string(),
            proptest::bool::ANY,
            arb_u64(),
            0u32..1_000_000_000,
        )
            .prop_map(|(some, s, b, secs, nanos)| some.then(|| (s, b, Duration::new(secs, nanos)))),
        proptest::collection::vec(
            (arb_string(), proptest::collection::vec(arb_i64(), 0..4)),
            0..4,
        )
        .prop_map(|items| items.into_iter().collect::<VecDeque<_>>()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The encoder writes exactly the reference bytes, alone and framed.
    #[test]
    fn to_string_matches_reference(value in arb_mixed()) {
        prop_assert_eq!(to_string(&value), wire_reference::to_string(&value));
        prop_assert_eq!(
            to_string_checksummed(&value),
            wire_reference::to_string_checksummed(&value)
        );
    }

    /// The checksum sink hashes exactly the reference encoding.
    #[test]
    fn crc32_of_matches_reference_checksum(value in arb_mixed()) {
        let expected = wire_reference::crc32(wire_reference::to_string(&value).as_bytes());
        prop_assert_eq!(crc32_of(&value), expected);
    }

    /// Slice-by-8 equals the bytewise kernel on unaligned sub-slices of
    /// random buffers, including from a non-initial state.
    #[test]
    fn crc32_update_matches_bytewise_on_unaligned_slices(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
        start in 0usize..600,
        len in 0usize..600,
        seed in 0u32..u32::MAX,
    ) {
        let start = start.min(bytes.len());
        let end = (start + len).min(bytes.len());
        let slice = &bytes[start..end];
        prop_assert_eq!(
            crc32_update(seed, slice),
            wire_reference::crc32_update(seed, slice)
        );
    }
}

/// Slice-by-8 equals the bytewise kernel on every length 0–67, at every
/// split point, and at every alignment of the input.
#[test]
fn crc32_update_matches_bytewise_at_every_split() {
    let buffer: Vec<u8> = (0u32..80)
        .map(|i| (i.wrapping_mul(151) ^ 0x5A) as u8)
        .collect();
    for offset in 0..8 {
        for len in 0..=67 {
            let bytes = &buffer[offset..offset + len];
            let expected = wire_reference::crc32(bytes);
            assert_eq!(
                crc32_finish(crc32_update(CRC32_INIT, bytes)),
                expected,
                "len {len} offset {offset}"
            );
            for split in 0..=len {
                let state = crc32_update(CRC32_INIT, &bytes[..split]);
                let state = crc32_update(state, &bytes[split..]);
                assert_eq!(
                    crc32_finish(state),
                    expected,
                    "len {len} offset {offset} split {split}"
                );
            }
        }
    }
}
