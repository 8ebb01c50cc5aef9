//! # `sl-store` — chunked, checksummed array store
//!
//! The workspace's one on-disk format, with two consumers: trained
//! weights (`sl_core::SplitModel::{save,load}_weights_chunked`) and
//! resumable training checkpoints (`sl_core::checkpoint`). Std-only and
//! deterministic.
//!
//! An **array** is a flat `f32` buffer of `items × item_len` values
//! split into fixed-size chunks, each stored as raw little-endian
//! IEEE-754 bits ([`Codec::Raw`]). A checksummed [`Manifest`]
//! (`<name>.manifest.json` + one `<name>.chunk-NNNNNN.slc` per chunk,
//! written last as the commit point) makes corruption a *typed error*
//! ([`StoreError`]) instead of garbage data. Chunk work fans out on the
//! shared [`sl_tensor::ComputePool`] and merges in ascending chunk
//! order, so stored bytes and decoded values are **bitwise identical at
//! any `SLM_THREADS` / `SLM_BACKEND`** — the same determinism contract
//! as the tensor kernels.
//!
//! ```
//! use sl_store::{read_array, write_array, Codec, MemStorage, StoreMetrics};
//! use sl_tensor::ComputePool;
//!
//! let mut storage = MemStorage::new();
//! let mut metrics = StoreMetrics::default();
//! let weights: Vec<f32> = (0..64).map(|i| i as f32 * 0.25).collect();
//! let pool = ComputePool::global();
//! write_array(&mut storage, "weights", 16, &weights, 2, Codec::Raw, pool, &mut metrics)
//!     .unwrap();
//! let (manifest, back) = read_array(&storage, "weights", pool, &mut metrics).unwrap();
//! assert_eq!(manifest.items, 4);
//! assert_eq!(manifest.chunks.len(), 2);
//! assert_eq!(back, weights);
//! ```

mod array;
mod codec;
mod error;
mod manifest;
mod metrics;
mod storage;

pub use array::{configured_chunk_items, read_array, write_array};
pub use codec::Codec;
pub use error::StoreError;
pub use manifest::{ChunkInfo, Manifest};
pub use metrics::StoreMetrics;
pub use storage::{DirStorage, MemStorage, StorageRead, StorageWrite};
