//! Append-only activation log.
//!
//! Records batches of quantized cut-layer activations as they cross the
//! simulated uplink, for *offline* privacy audits (`sl-privacy` reads
//! the log back next to the source frames and scores the leakage).
//!
//! Each [`ActivationLog::append`] writes exactly one new chunk (sized by
//! whatever the batch carried — the manifest supports ragged chunks) and
//! then rewrites the manifest, so the log on storage is always a valid,
//! fully-checksummed array: readers use the ordinary
//! [`read_array`](crate::read_array) / [`read_items`](crate::read_items)
//! paths, and a crash between the two writes loses at most the final
//! batch.

use sl_rng::fnv1a_64;

use crate::codec::Codec;
use crate::error::StoreError;
use crate::manifest::{ChunkInfo, Manifest};
use crate::metrics::StoreMetrics;
use crate::storage::{StorageRead, StorageWrite};

/// An append-only chunked array (see the module docs).
#[derive(Debug)]
pub struct ActivationLog<S> {
    storage: S,
    manifest: Manifest,
}

impl<S: StorageWrite> ActivationLog<S> {
    /// Creates a fresh, empty log called `name` (committing an empty
    /// manifest immediately).
    pub fn create(
        mut storage: S,
        name: &str,
        item_len: usize,
        codec: Codec,
    ) -> Result<Self, StoreError> {
        assert!(item_len > 0, "ActivationLog: item_len must be positive");
        let manifest = Manifest {
            array: name.to_string(),
            item_len,
            items: 0,
            chunk_items: 0,
            codec,
            chunks: Vec::new(),
        };
        storage.put(&Manifest::object_name(name), manifest.to_json().as_bytes())?;
        Ok(ActivationLog { storage, manifest })
    }

    /// Reopens an existing log to continue appending.
    pub fn open(storage: S, name: &str) -> Result<Self, StoreError> {
        let manifest = crate::array::read_manifest(&storage, name)?;
        Ok(ActivationLog { storage, manifest })
    }

    /// Appends one batch (`values.len() / item_len` items) as a new
    /// chunk and commits the updated manifest.
    pub fn append(&mut self, values: &[f32], metrics: &mut StoreMetrics) -> Result<(), StoreError> {
        assert_eq!(
            values.len() % self.manifest.item_len,
            0,
            "ActivationLog: {} values do not tile item_len {}",
            values.len(),
            self.manifest.item_len
        );
        if values.is_empty() {
            return Ok(());
        }
        let index = self.manifest.chunks.len();
        let file = Manifest::chunk_name(&self.manifest.array, index);
        let encoded = self.manifest.codec.encode(values, self.manifest.item_len)?;
        self.storage.put(&file, &encoded)?;
        self.manifest.chunks.push(ChunkInfo {
            file,
            items: values.len() / self.manifest.item_len,
            bytes: encoded.len(),
            checksum: fnv1a_64(&encoded),
        });
        self.manifest.items += values.len() / self.manifest.item_len;
        self.storage.put(
            &Manifest::object_name(&self.manifest.array),
            self.manifest.to_json().as_bytes(),
        )?;
        metrics.log_appends += 1;
        metrics.chunks_written += 1;
        metrics.bytes_raw += (values.len() * 4) as u64;
        metrics.bytes_encoded += encoded.len() as u64;
        Ok(())
    }

    /// Items logged so far.
    pub fn items(&self) -> usize {
        self.manifest.items
    }

    /// The log's current manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Consumes the log, returning the storage backend (e.g. to read
    /// the array back through [`read_array`](crate::read_array)).
    pub fn into_storage(self) -> S {
        self.storage
    }
}

impl<S: StorageRead> ActivationLog<S> {
    /// Reads the whole log back in append order.
    pub fn read_all(
        &self,
        pool: &sl_tensor::ComputePool,
        metrics: &mut StoreMetrics,
    ) -> Result<Vec<f32>, StoreError> {
        crate::array::read_items(
            &self.storage,
            &self.manifest,
            0,
            self.manifest.items,
            pool,
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use sl_tensor::ComputePool;

    #[test]
    fn appends_accumulate_and_read_back_in_order() {
        let mut metrics = StoreMetrics::default();
        let mut log = ActivationLog::create(MemStorage::new(), "act", 4, Codec::Raw).unwrap();
        log.append(&[1.0; 8], &mut metrics).unwrap();
        log.append(&[], &mut metrics).unwrap();
        log.append(&[2.0; 4], &mut metrics).unwrap();
        assert_eq!(log.items(), 3);
        assert_eq!(metrics.log_appends, 2);
        let all = log.read_all(ComputePool::global(), &mut metrics).unwrap();
        assert_eq!(all, [[1.0f32; 8].as_slice(), &[2.0; 4]].concat());
    }

    #[test]
    fn reopen_continues_the_log() {
        let mut metrics = StoreMetrics::default();
        let mut log = ActivationLog::create(MemStorage::new(), "act", 2, Codec::DeltaRle).unwrap();
        log.append(&[1.0, 2.0], &mut metrics).unwrap();
        let storage = log.into_storage();
        let mut log = ActivationLog::open(storage, "act").unwrap();
        log.append(&[3.0, 4.0], &mut metrics).unwrap();
        assert_eq!(log.items(), 2);
        let all = log.read_all(ComputePool::global(), &mut metrics).unwrap();
        assert_eq!(all, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn bitpack_log_accepts_only_grid_values() {
        let mut metrics = StoreMetrics::default();
        let mut log =
            ActivationLog::create(MemStorage::new(), "act", 1, Codec::Bitpack { bit_depth: 4 })
                .unwrap();
        assert!(log.append(&[0.5], &mut metrics).is_err()); // 0.5 not on the 15-level grid
        log.append(&[3.0 / 15.0], &mut metrics).unwrap();
        assert_eq!(log.items(), 1);
    }
}
