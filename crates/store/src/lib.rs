//! # `sl-store` — chunked, checksummed, codec-compressed array store
//!
//! The workspace's persistence layer for large `f32` streams: depth
//! frames (`sl-scene`), quantized cut-layer activations (the privacy
//! audit log) and model/optimizer state (`sl-core` checkpoints and
//! weights) — the workspace's only on-disk format: streaming
//! frame-range reads, resumable checkpoints and append-only logs, all
//! std-only and deterministic.
//!
//! An **array** is a flat `f32` buffer of `items × item_len` values
//! split into fixed-size chunks (ragged for append-logs). Each chunk is
//! encoded by a pluggable [`Codec`]:
//!
//! * [`Codec::Raw`] — LE IEEE-754 bits,
//! * [`Codec::Bitpack`] — `R`-bit level packing of quantizer-grid values
//!   (the `sl-net` uplink payload layout),
//! * [`Codec::DeltaRle`] — XOR-delta + byte RLE, built for
//!   mostly-static depth maps; lossless for arbitrary bit patterns.
//!
//! A checksummed [`Manifest`] (`<name>.manifest.json` + one
//! `<name>.chunk-NNNNNN.slc` per chunk, written last as the commit
//! point) makes corruption a *typed error* ([`StoreError`]) instead of
//! garbage data. Chunk codec work fans out on the shared
//! [`sl_tensor::ComputePool`] and merges in ascending chunk order, so
//! encoded bytes and decoded values are **bitwise identical at any
//! `SLM_THREADS` / `SLM_BACKEND`** — the same determinism contract as
//! the tensor kernels, enforced end-to-end by the `store-bitwise` verify
//! stage.
//!
//! Knobs: `SLM_STORE_CHUNK` (target values per chunk) and
//! `SLM_STORE_CODEC` (codec override) — see README § Environment knobs.
//!
//! ```
//! use sl_store::{read_array, write_array, Codec, MemStorage, StoreMetrics};
//! use sl_tensor::ComputePool;
//!
//! let mut storage = MemStorage::new();
//! let mut metrics = StoreMetrics::default();
//! let frames: Vec<f32> = vec![0.25; 4 * 16]; // 4 frames of 16 pixels
//! let pool = ComputePool::global();
//! write_array(&mut storage, "frames", 16, &frames, 2, Codec::DeltaRle, pool, &mut metrics)
//!     .unwrap();
//! let (manifest, back) = read_array(&storage, "frames", pool, &mut metrics).unwrap();
//! assert_eq!(manifest.items, 4);
//! assert_eq!(back, frames);
//! assert!(metrics.ratio() > 1.0); // constant frames collapse under delta+rle
//! ```

mod array;
mod codec;
mod error;
mod knobs;
mod log;
mod manifest;
mod metrics;
mod storage;

pub use array::{read_array, read_items, read_manifest, write_array};
pub use codec::Codec;
pub use error::StoreError;
pub use knobs::{
    configured_chunk_items, configured_chunk_values, configured_codec, DEFAULT_CHUNK_VALUES,
};
pub use log::ActivationLog;
pub use manifest::{fnv1a_64, ChunkInfo, Manifest, MANIFEST_VERSION};
pub use metrics::StoreMetrics;
pub use storage::{DirStorage, MemStorage, StorageRead, StorageWrite};
