//! Chunked array write/read with pool-parallel codec work.
//!
//! The determinism contract (DESIGN.md §14): chunk boundaries are a pure
//! function of `(items, chunk_items)`, each chunk is encoded/decoded
//! independently by a pure codec, and results are merged in ascending
//! chunk order — so the encoded bytes and the decoded values are bitwise
//! identical at any `SLM_THREADS` / `SLM_BACKEND` setting. The
//! [`ComputePool`] only changes *when* a chunk is processed, never
//! *what* it contains.

use std::sync::Mutex;

use sl_rng::fnv1a_64;
use sl_tensor::ComputePool;

use crate::codec::Codec;
use crate::error::StoreError;
use crate::manifest::{ChunkInfo, Manifest};
use crate::metrics::StoreMetrics;
use crate::storage::{StorageRead, StorageWrite};

/// Target `f32` values per chunk. The arrays the program writes (a
/// split model's weights or Adam moments: 4,666 values for the 1-pixel
/// model, 4,385 for RF-only) fit in one chunk; tests pass a smaller
/// `chunk_items` to [`write_array`] to exercise several.
const CHUNK_VALUES: usize = 65_536;

/// Items per chunk for items of `item_len` values: a fixed 65,536-value
/// target in whole items, at least one.
pub fn configured_chunk_items(item_len: usize) -> usize {
    (CHUNK_VALUES / item_len.max(1)).max(1)
}

/// Runs `jobs` fallible chunk tasks on the pool and returns their
/// results in ascending job order (the fixed merge order behind the
/// bitwise-determinism contract).
fn run_ordered<T, F>(pool: &ComputePool, jobs: usize, task: F) -> Vec<Result<T, StoreError>>
where
    T: Send,
    F: Fn(usize) -> Result<T, StoreError> + Sync,
{
    let slots: Mutex<Vec<Option<Result<T, StoreError>>>> =
        Mutex::new((0..jobs).map(|_| None).collect());
    pool.run(jobs, |i| {
        let result = task(i);
        let mut guard = slots.lock().unwrap_or_else(|p| p.into_inner());
        guard[i] = Some(result);
    });
    let guard = slots.into_inner().unwrap_or_else(|p| p.into_inner());
    guard
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(StoreError::Corrupt("chunk job never ran".into()))))
        .collect()
}

/// Writes `values` (a flat array of `items = values.len() / item_len`
/// items) as a chunked, checksummed array called `name`.
///
/// Chunks are encoded in parallel on `pool`, then stored in ascending
/// order; the manifest is written last as the commit point. Returns the
/// manifest. `metrics` accumulates the write counters for later
/// [`StoreMetrics::publish`].
#[allow(clippy::too_many_arguments)] // the full write contract, spelled out
pub fn write_array<S: StorageWrite + ?Sized>(
    storage: &mut S,
    name: &str,
    item_len: usize,
    values: &[f32],
    chunk_items: usize,
    codec: Codec,
    pool: &ComputePool,
    metrics: &mut StoreMetrics,
) -> Result<Manifest, StoreError> {
    assert!(item_len > 0, "write_array: item_len must be positive");
    assert!(chunk_items > 0, "write_array: chunk_items must be positive");
    assert_eq!(
        values.len() % item_len,
        0,
        "write_array: {} values do not tile item_len {item_len}",
        values.len()
    );
    let items = values.len() / item_len;
    let n_chunks = items.div_ceil(chunk_items).max(1);
    let encoded = run_ordered(pool, n_chunks, |i| {
        let lo = (i * chunk_items).min(items);
        let hi = ((i + 1) * chunk_items).min(items);
        Ok(codec.encode(&values[lo * item_len..hi * item_len]))
    });

    let mut chunks = Vec::with_capacity(n_chunks);
    for (i, enc) in encoded.into_iter().enumerate() {
        let enc = enc?;
        let lo = (i * chunk_items).min(items);
        let hi = ((i + 1) * chunk_items).min(items);
        let file = Manifest::chunk_name(name, i);
        storage.put(&file, &enc)?;
        metrics.chunks_written += 1;
        metrics.bytes_encoded += enc.len() as u64;
        chunks.push(ChunkInfo {
            file,
            items: hi - lo,
            bytes: enc.len(),
            checksum: fnv1a_64(&enc),
        });
    }
    let manifest = Manifest {
        array: name.to_string(),
        item_len,
        items,
        chunk_items,
        codec,
        chunks,
    };
    storage.put(&Manifest::object_name(name), manifest.to_json().as_bytes())?;
    metrics.arrays_written += 1;
    metrics.bytes_raw += (values.len() * 4) as u64;
    Ok(manifest)
}

/// Loads and validates the manifest of array `name`.
pub fn read_manifest<S: StorageRead + ?Sized>(
    storage: &S,
    name: &str,
) -> Result<Manifest, StoreError> {
    let bytes = storage.get(&Manifest::object_name(name))?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| StoreError::Manifest("manifest is not UTF-8".into()))?;
    let manifest = Manifest::from_json(text)?;
    if manifest.array != name {
        return Err(StoreError::Manifest(format!(
            "manifest names array {:?}, expected {name:?}",
            manifest.array
        )));
    }
    Ok(manifest)
}

/// Verifies one chunk's bytes against its manifest entry and decodes it.
fn decode_chunk(manifest: &Manifest, index: usize, bytes: &[u8]) -> Result<Vec<f32>, StoreError> {
    let info = &manifest.chunks[index];
    if bytes.len() != info.bytes {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: {} bytes on storage, manifest says {}",
            bytes.len(),
            info.bytes
        )));
    }
    let actual = fnv1a_64(bytes);
    if actual != info.checksum {
        return Err(StoreError::Checksum {
            chunk: index,
            expected: info.checksum,
            actual,
        });
    }
    manifest.codec.decode(bytes, info.items * manifest.item_len)
}

/// Reads the whole array back: storage reads run serially in ascending
/// chunk order (a deterministic I/O order), then checksum verification
/// and decoding fan out on the pool and concatenate in ascending order.
pub fn read_array<S: StorageRead + ?Sized>(
    storage: &S,
    name: &str,
    pool: &ComputePool,
    metrics: &mut StoreMetrics,
) -> Result<(Manifest, Vec<f32>), StoreError> {
    let manifest = read_manifest(storage, name)?;
    let mut raw = Vec::with_capacity(manifest.chunks.len());
    for info in &manifest.chunks {
        raw.push(storage.get(&info.file)?);
    }
    // Every chunk is verified against the bytes actually stored before
    // the output is sized, so a manifest's claimed size is never trusted
    // for an allocation.
    let decoded = run_ordered(pool, raw.len(), |i| decode_chunk(&manifest, i, &raw[i]))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    metrics.chunks_read += decoded.len() as u64;
    metrics.arrays_read += 1;
    Ok((manifest, decoded.concat()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn pool() -> &'static ComputePool {
        ComputePool::global()
    }

    fn values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37) % 101) as f32 * 0.25).collect()
    }

    #[test]
    fn chunk_items_are_whole_items() {
        assert_eq!(configured_chunk_items(1), CHUNK_VALUES);
        assert_eq!(configured_chunk_items(100), CHUNK_VALUES / 100);
        assert_eq!(configured_chunk_items(usize::MAX), 1);
    }

    #[test]
    fn write_read_round_trip() {
        let mut storage = MemStorage::new();
        let mut metrics = StoreMetrics::default();
        let vals = values(1000);
        let m = write_array(
            &mut storage,
            "a",
            10,
            &vals,
            7,
            Codec::Raw,
            pool(),
            &mut metrics,
        )
        .unwrap();
        assert_eq!(m.items, 100);
        assert_eq!(m.chunks.len(), 15);
        let (m2, back) = read_array(&storage, "a", pool(), &mut metrics).unwrap();
        assert_eq!(m2, m);
        assert_eq!(back, vals);
        assert_eq!(metrics.bytes_encoded, 4000);
    }

    #[test]
    fn flipped_chunk_byte_is_a_checksum_error() {
        let mut storage = MemStorage::new();
        let mut metrics = StoreMetrics::default();
        write_array(
            &mut storage,
            "a",
            1,
            &values(64),
            16,
            Codec::Raw,
            pool(),
            &mut metrics,
        )
        .unwrap();
        storage.object_mut(&Manifest::chunk_name("a", 1)).unwrap()[3] ^= 0x40;
        assert!(matches!(
            read_array(&storage, "a", pool(), &mut metrics),
            Err(StoreError::Checksum { chunk: 1, .. })
        ));
    }

    #[test]
    fn truncated_chunk_is_corrupt_not_a_panic() {
        let mut storage = MemStorage::new();
        let mut metrics = StoreMetrics::default();
        write_array(
            &mut storage,
            "a",
            1,
            &values(64),
            64,
            Codec::Raw,
            pool(),
            &mut metrics,
        )
        .unwrap();
        storage
            .object_mut(&Manifest::chunk_name("a", 0))
            .unwrap()
            .truncate(3);
        assert!(matches!(
            read_array(&storage, "a", pool(), &mut metrics),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_manifests_are_typed_errors_not_panics() {
        let mut metrics = StoreMetrics::default();
        let empty = Manifest::chunk_name("a", 0);
        let manifest = |items: usize, bytes: usize| Manifest {
            array: "a".into(),
            item_len: 1,
            items,
            chunk_items: items,
            codec: Codec::Raw,
            chunks: vec![ChunkInfo {
                file: empty.clone(),
                items,
                bytes,
                checksum: fnv1a_64(&[]),
            }],
        };
        // 2^62 items over one empty chunk: the byte count overflows.
        let mut storage = MemStorage::new();
        storage.put(&empty, &[]).unwrap();
        let m = manifest(1 << 62, 0);
        storage
            .put(&Manifest::object_name("a"), m.to_json().as_bytes())
            .unwrap();
        assert!(matches!(
            read_array(&storage, "a", pool(), &mut metrics),
            Err(StoreError::Manifest(_))
        ));
        // A consistent manifest for 2^40 items whose chunk is empty on
        // storage: rejected before anything is sized from the claim.
        let m = manifest(1 << 40, 1 << 42);
        storage
            .put(&Manifest::object_name("a"), m.to_json().as_bytes())
            .unwrap();
        assert!(matches!(
            read_array(&storage, "a", pool(), &mut metrics),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_manifest_and_wrong_name_are_typed() {
        let storage = MemStorage::new();
        let mut metrics = StoreMetrics::default();
        assert!(matches!(
            read_array(&storage, "ghost", pool(), &mut metrics),
            Err(StoreError::Missing(_))
        ));
    }

    #[test]
    fn serial_and_parallel_pools_agree_bitwise() {
        let serial = ComputePool::new(1);
        let wide = ComputePool::new(4);
        let vals: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut m1 = StoreMetrics::default();
        let mut m4 = StoreMetrics::default();
        let mut s1 = MemStorage::new();
        let mut s4 = MemStorage::new();
        write_array(&mut s1, "x", 64, &vals, 5, Codec::Raw, &serial, &mut m1).unwrap();
        write_array(&mut s4, "x", 64, &vals, 5, Codec::Raw, &wide, &mut m4).unwrap();
        assert_eq!(s1.names(), s4.names());
        for name in s1.names() {
            assert_eq!(s1.get(&name).unwrap(), s4.get(&name).unwrap(), "{name}");
        }
        let (_, d1) = read_array(&s1, "x", &wide, &mut m1).unwrap();
        let (_, d4) = read_array(&s4, "x", &serial, &mut m4).unwrap();
        assert!(d1.iter().zip(&d4).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
