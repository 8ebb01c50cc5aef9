//! Trained-model persistence.
//!
//! Saves and restores the parameters of a [`SplitModel`] so a model
//! trained once (minutes) can be deployed many times (milliseconds).
//! [`SplitModel::save_weights_chunked`] writes a directory holding a
//! checksummed `sl-store` `weights` array (UE half first, then BS half)
//! plus a `weights.meta.json` shape table — corruption-detecting and
//! streamable. Loading validates every shape against the *current*
//! architecture, naming the exact half and tensor that failed, so
//! weights can only be restored into a model built with the same
//! configuration.

use std::path::Path;

use sl_store::{
    read_array, write_array, Codec, DirStorage, StorageRead, StorageWrite, StoreError, StoreMetrics,
};
use sl_telemetry::json::{parse, JsonArray, JsonObject};
use sl_tensor::ComputePool;

use crate::model::SplitModel;

/// Chunked-layout objects inside a weight directory.
const WEIGHTS_ARRAY: &str = "weights";
const WEIGHTS_META: &str = "weights.meta.json";
const WEIGHTS_META_VERSION: u64 = 1;

/// Errors from weight I/O.
#[derive(Debug)]
pub enum WeightIoError {
    /// The stored tensors do not match the model's architecture.
    ArchitectureMismatch(String),
    /// Structurally invalid shape table.
    Corrupt(&'static str),
    /// The chunked store failed (IO, checksum mismatch, bad manifest).
    Store(StoreError),
}

impl std::fmt::Display for WeightIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightIoError::ArchitectureMismatch(what) => {
                write!(f, "stored weights do not match model architecture: {what}")
            }
            WeightIoError::Corrupt(what) => write!(f, "corrupt weight directory: {what}"),
            WeightIoError::Store(e) => write!(f, "weight store error: {e}"),
        }
    }
}

impl std::error::Error for WeightIoError {}

impl From<StoreError> for WeightIoError {
    fn from(e: StoreError) -> Self {
        WeightIoError::Store(e)
    }
}

impl SplitModel {
    /// Validates `parsed` tensors against the current architecture and
    /// commits them — the shared tail of every load path. A mismatch
    /// names the half (UE/BS) and the per-half tensor index that failed.
    fn apply_parsed(&mut self, parsed: Vec<(Vec<usize>, Vec<f32>)>) -> Result<(), WeightIoError> {
        let mut expected = 0usize;
        {
            let ue = self.ue_params_and_grads().len();
            let bs = self.bs_params_and_grads().len();
            expected += ue + bs;
        }
        if parsed.len() != expected {
            return Err(WeightIoError::ArchitectureMismatch(format!(
                "stored weights have {} tensors, model has {expected}",
                parsed.len()
            )));
        }

        // Validate shapes, naming exactly which tensor of which half
        // disagrees (satisfying "which layer failed?" at 2 a.m.).
        {
            let mut idx = 0usize;
            let mut check = |side: &str,
                             params: Vec<(&mut sl_tensor::Tensor, &mut sl_tensor::Tensor)>|
             -> Result<(), WeightIoError> {
                for (i, (p, _)) in params.into_iter().enumerate() {
                    let (dims, _) = &parsed[idx];
                    if p.dims() != &dims[..] {
                        return Err(WeightIoError::ArchitectureMismatch(format!(
                            "{side} tensor {i} (stored tensor {idx}): stored {:?} vs model {:?}",
                            dims,
                            p.dims()
                        )));
                    }
                    idx += 1;
                }
                Ok(())
            };
            check("UE", self.ue_params_and_grads())?;
            check("BS", self.bs_params_and_grads())?;
        }

        // Commit.
        let mut idx = 0usize;
        for (p, _) in self.ue_params_and_grads() {
            p.data_mut().copy_from_slice(&parsed[idx].1);
            idx += 1;
        }
        for (p, _) in self.bs_params_and_grads() {
            p.data_mut().copy_from_slice(&parsed[idx].1);
            idx += 1;
        }
        Ok(())
    }

    /// Writes all parameters into `dir` as a chunked, checksummed
    /// `sl-store` array plus a shape-table sidecar. The array manifest
    /// is written last as the commit point; an interrupted save never
    /// looks like a valid weight directory.
    pub fn save_weights_chunked(&mut self, dir: impl AsRef<Path>) -> Result<(), WeightIoError> {
        let mut storage = DirStorage::create(dir.as_ref())?;
        let mut shapes = JsonArray::new();
        let mut flat = Vec::new();
        {
            let mut record = |params: Vec<(&mut sl_tensor::Tensor, &mut sl_tensor::Tensor)>| {
                for (p, _) in params {
                    let mut dims = JsonArray::new();
                    for &d in p.dims() {
                        dims.push_raw(&d.to_string());
                    }
                    shapes.push_raw(&dims.finish());
                    flat.extend_from_slice(p.data());
                }
            };
            record(self.ue_params_and_grads());
            record(self.bs_params_and_grads());
        }
        let meta = JsonObject::new()
            .u64("version", WEIGHTS_META_VERSION)
            .raw("tensors", &shapes.finish())
            .finish();
        storage.put(WEIGHTS_META, meta.as_bytes())?;
        let mut metrics = StoreMetrics::default();
        write_array(
            &mut storage,
            WEIGHTS_ARRAY,
            1,
            &flat,
            sl_store::configured_chunk_items(1),
            Codec::Raw,
            ComputePool::global(),
            &mut metrics,
        )?;
        Ok(())
    }

    /// Restores parameters from a chunked weight directory written by
    /// [`SplitModel::save_weights_chunked`]. Chunk corruption surfaces
    /// as [`WeightIoError::Store`] with the failing chunk's checksum
    /// detail; shape skew as [`WeightIoError::ArchitectureMismatch`]; a
    /// missing `dir` as an error, leaving no directory behind.
    pub fn load_weights_chunked(&mut self, dir: impl AsRef<Path>) -> Result<(), WeightIoError> {
        let storage = DirStorage::open(dir.as_ref())?;
        let meta_bytes = storage.get(WEIGHTS_META)?;
        let meta_text = String::from_utf8(meta_bytes)
            .map_err(|_| WeightIoError::Corrupt("weight meta is not UTF-8"))?;
        let meta =
            parse(&meta_text).map_err(|_| WeightIoError::Corrupt("weight meta is not JSON"))?;
        let version = meta
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or(WeightIoError::Corrupt("weight meta has no version"))?;
        if version != WEIGHTS_META_VERSION {
            return Err(WeightIoError::Corrupt("unsupported weight meta version"));
        }
        let shape_list = meta
            .get("tensors")
            .and_then(|v| v.as_arr())
            .ok_or(WeightIoError::Corrupt("weight meta has no tensor table"))?;
        let mut dims_list: Vec<Vec<usize>> = Vec::with_capacity(shape_list.len());
        for entry in shape_list {
            let dims = entry
                .as_arr()
                .ok_or(WeightIoError::Corrupt("weight meta shape is not an array"))?
                .iter()
                .map(|d| {
                    d.as_u64()
                        .map(|v| v as usize)
                        .ok_or(WeightIoError::Corrupt("weight meta dim is not an integer"))
                })
                .collect::<Result<Vec<usize>, WeightIoError>>()?;
            dims_list.push(dims);
        }

        let mut metrics = StoreMetrics::default();
        let (_, flat) = read_array(&storage, WEIGHTS_ARRAY, ComputePool::global(), &mut metrics)?;
        let total: usize = dims_list.iter().map(|d| d.iter().product::<usize>()).sum();
        if flat.len() != total {
            return Err(WeightIoError::ArchitectureMismatch(format!(
                "weight array holds {} values, shape table declares {total}",
                flat.len()
            )));
        }
        let mut parsed = Vec::with_capacity(dims_list.len());
        let mut at = 0usize;
        for dims in dims_list {
            let n: usize = dims.iter().product();
            parsed.push((dims, flat[at..at + n].to_vec()));
            at += n;
        }
        self.apply_parsed(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooling::PoolingDim;
    use crate::scheme::Scheme;
    use sl_rng::rngs::StdRng;
    use sl_tensor::Tensor;

    /// A fresh (absent) directory under the temp dir.
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slw_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn model(seed: u64) -> SplitModel {
        model_pooled(PoolingDim::new(4, 4), seed)
    }

    fn model_pooled(pooling: PoolingDim, seed: u64) -> SplitModel {
        SplitModel::new(
            Scheme::ImgRf,
            pooling,
            8,
            8,
            3,
            2,
            4,
            8,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    fn predict(m: &mut SplitModel) -> f32 {
        let frame = Tensor::from_fn([8, 8], |i| (i as f32 / 63.0).sin().abs());
        let feats: Vec<Tensor> = (0..3).map(|_| m.encode_frame(&frame)).collect();
        m.predict_window(&feats, &[0.1, -0.2, 0.3])
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = model(3);
        let dir = tmp("mismatch");
        a.save_weights_chunked(&dir).unwrap();
        // Different pooling -> different BS input width.
        let mut other = model_pooled(PoolingDim::new(8, 8), 4);
        let before = predict(&mut other);
        assert!(matches!(
            other.load_weights_chunked(&dir),
            Err(WeightIoError::ArchitectureMismatch(_))
        ));
        // Failed load must not corrupt the model.
        assert_eq!(predict(&mut other), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatch_error_names_the_half_and_tensor() {
        let mut a = model(8);
        let dir = tmp("named_mismatch");
        a.save_weights_chunked(&dir).unwrap();
        // Different pooling -> the BS half's input width changes while
        // the UE half is untouched; the error must say so.
        let mut other = model_pooled(PoolingDim::new(8, 8), 9);
        let err = other.load_weights_chunked(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("BS tensor"), "unhelpful mismatch: {msg}");
        assert!(!msg.contains("UE tensor"), "wrong half blamed: {msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_round_trip_restores_predictions() {
        let mut a = model(10);
        let mut b = model(11);
        let before_a = predict(&mut a);
        assert!((before_a - predict(&mut b)).abs() > 1e-6);

        let dir = tmp("chunked");
        a.save_weights_chunked(&dir).unwrap();
        b.load_weights_chunked(&dir).unwrap();
        assert!((predict(&mut b) - before_a).abs() < 1e-6);

        // Chunk corruption is a typed store error, not garbage weights.
        let chunk = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().contains("chunk"))
            .expect("no chunk files written");
        let mut bytes = std::fs::read(chunk.path()).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(chunk.path(), &bytes).unwrap();
        assert!(matches!(
            model(12).load_weights_chunked(&dir),
            Err(WeightIoError::Store(sl_store::StoreError::Checksum { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_a_missing_directory_fails_without_creating_it() {
        let dir = tmp("missing").join("nested");
        assert!(matches!(
            model(5).load_weights_chunked(&dir),
            Err(WeightIoError::Store(_))
        ));
        assert!(!dir.exists());
        assert!(!dir.parent().unwrap().exists());
    }
}
