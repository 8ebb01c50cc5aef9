//! Property-based tests of the `sl-store` raw codec and the checksummed
//! array paths: every value must round-trip bitwise, over ragged shapes
//! and adversarial bit patterns, and any corruption of stored bytes must
//! surface as a *typed* error — never a panic, never silently-wrong
//! values.

use std::ops::Range;

use sl_rng::rngs::StdRng;
use sl_rng::{cases, Rng};

use sl_store::{read_array, write_array, Codec, MemStorage, StoreError, StoreMetrics};
use sl_tensor::ComputePool;

const CASES: usize = 64;

/// Arbitrary `f32` bit patterns: NaN payloads, infinities, subnormals,
/// negative zero — everything the raw codec must carry.
fn any_bits(rng: &mut StdRng, lens: Range<usize>) -> Vec<f32> {
    let len = rng.random_range(lens);
    (0..len)
        .map(|_| f32::from_bits(rng.random_range(0u32..=u32::MAX)))
        .collect()
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn raw_round_trips_any_bits() {
    cases("raw_round_trips_any_bits", CASES, |rng| {
        let vals = any_bits(rng, 0..96);
        let enc = Codec::Raw.encode(&vals);
        assert_eq!(enc.len(), vals.len() * 4);
        let dec = Codec::Raw.decode(&enc, vals.len()).unwrap();
        assert!(bits_eq(&vals, &dec));
    });
}

#[test]
fn truncated_chunk_bytes_are_a_typed_error() {
    cases("truncated_chunk_bytes_are_a_typed_error", CASES, |rng| {
        let vals = any_bits(rng, 1..64);
        let cut = rng.random_range(0usize..256);
        let enc = Codec::Raw.encode(&vals);
        let cut = cut % enc.len(); // strict prefix
        match Codec::Raw.decode(&enc[..cut], vals.len()) {
            Err(StoreError::Corrupt(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("truncated chunk decoded"),
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic_the_decoders() {
    cases("arbitrary_bytes_never_panic_the_decoders", CASES, |rng| {
        let len = rng.random_range(0usize..96);
        let junk: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
        let count = rng.random_range(0usize..64);
        // Any outcome is fine except a panic or a silently-wrong length.
        if let Ok(dec) = Codec::Raw.decode(&junk, count) {
            assert_eq!(dec.len(), count);
        }
    });
}

#[test]
fn flipped_stored_byte_is_a_checksum_error() {
    cases("flipped_stored_byte_is_a_checksum_error", CASES, |rng| {
        let vals = any_bits(rng, 1..64);
        let item_len = rng.random_range(1usize..5);
        let chunk_items = rng.random_range(1usize..7);
        let which = rng.random_range(0usize..1024);
        let flip = rng.random_range(1u8..=255);
        // Whole-array path: write to memory storage, corrupt one chunk
        // byte, and the read must fail with the chunk's checksum error.
        let items = vals.len() / item_len;
        if items == 0 {
            return;
        }
        let vals = &vals[..items * item_len];
        let mut storage = MemStorage::new();
        let mut metrics = StoreMetrics::default();
        let pool = ComputePool::global();
        write_array(
            &mut storage,
            "a",
            item_len,
            vals,
            chunk_items,
            Codec::Raw,
            pool,
            &mut metrics,
        )
        .unwrap();
        let chunks: Vec<String> = storage
            .names()
            .into_iter()
            .filter(|n| n.contains("chunk"))
            .collect();
        let victim = &chunks[which % chunks.len()];
        let object = storage.object_mut(victim).unwrap();
        if object.is_empty() {
            return;
        }
        let at = which % object.len();
        object[at] ^= flip;
        match read_array(&storage, "a", pool, &mut metrics) {
            Err(StoreError::Checksum { chunk, .. }) => assert!(chunk < chunks.len()),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("corrupted array read back"),
        }
    });
}

#[test]
fn full_array_round_trips_through_memory_storage() {
    cases(
        "full_array_round_trips_through_memory_storage",
        CASES,
        |rng| {
            let vals = any_bits(rng, 0..128);
            let item_len = rng.random_range(1usize..5);
            let chunk_items = rng.random_range(1usize..9);
            let items = vals.len() / item_len;
            let vals = &vals[..items * item_len];
            let pool = ComputePool::global();
            let mut storage = MemStorage::new();
            let mut metrics = StoreMetrics::default();
            write_array(
                &mut storage,
                "a",
                item_len,
                vals,
                chunk_items,
                Codec::Raw,
                pool,
                &mut metrics,
            )
            .unwrap();
            let (manifest, back) = read_array(&storage, "a", pool, &mut metrics).unwrap();
            assert_eq!(manifest.items, items);
            assert!(bits_eq(vals, &back));
        },
    );
}
