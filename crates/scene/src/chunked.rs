//! Chunked trace persistence over `sl-store`.
//!
//! Generated traces are saved and reloaded so that experiments across
//! processes share the exact same dataset. A whole-file format would
//! load everything or nothing; beyond the paper's 13k-frame scale that
//! means minutes of IO for a scene when an experiment only needs a
//! window of it. The chunked layout stores a trace as a directory of
//! checksummed `sl-store` arrays:
//!
//! * `meta.json` — height, width, frame count and the frame interval
//!   (as exact IEEE-754 bits, so reloads are bitwise);
//! * `powers` — the received-power series, raw `f32`;
//! * `frames` — one item per depth frame (`item_len = h·w`), default
//!   codec `delta+rle`: consecutive frames differ only where the
//!   pedestrians moved, so the XOR-delta stream is mostly zeros.
//!
//! [`MeasurementTrace::load_frame_range`] reads only the chunks
//! overlapping the requested window — the streaming path. Chunk bytes
//! are bitwise independent of `SLM_THREADS`/`SLM_BACKEND` (the
//! `store-bitwise` verify stage), so chunked scenes can be content-
//! compared across machines.

use std::path::Path;

use sl_store::{
    read_items, read_manifest, write_array, Codec, DirStorage, StorageRead, StorageWrite,
    StoreMetrics,
};
use sl_telemetry::json::{parse, JsonObject};
use sl_tensor::{ComputePool, Tensor};

use crate::trace::MeasurementTrace;

/// Errors from trace persistence.
#[derive(Debug)]
pub enum TraceIoError {
    /// Structurally invalid contents.
    Corrupt(&'static str),
    /// The chunked store failed (IO, missing directory, checksum
    /// mismatch, bad range).
    Store(sl_store::StoreError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceIoError::Store(e) => write!(f, "trace store error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<sl_store::StoreError> for TraceIoError {
    fn from(e: sl_store::StoreError) -> Self {
        TraceIoError::Store(e)
    }
}

const META: &str = "meta.json";
const META_VERSION: u64 = 1;
const POWERS: &str = "powers";
const FRAMES: &str = "frames";

struct TraceMeta {
    h: usize,
    w: usize,
    n: usize,
    interval: f64,
}

fn load_meta<S: StorageRead>(storage: &S) -> Result<TraceMeta, TraceIoError> {
    let bytes = storage.get(META)?;
    let text =
        String::from_utf8(bytes).map_err(|_| TraceIoError::Corrupt("trace meta is not UTF-8"))?;
    let meta = parse(&text).map_err(|_| TraceIoError::Corrupt("trace meta is not JSON"))?;
    let field = |k: &str| -> Result<u64, TraceIoError> {
        meta.get(k)
            .and_then(|v| v.as_u64())
            .ok_or(TraceIoError::Corrupt("trace meta field missing"))
    };
    if field("version")? != META_VERSION {
        return Err(TraceIoError::Corrupt("unsupported trace meta version"));
    }
    let (h, w, n) = (
        field("height")? as usize,
        field("width")? as usize,
        field("frames")? as usize,
    );
    let interval = meta
        .get("interval_bits")
        .and_then(|v| v.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(f64::from_bits)
        .ok_or(TraceIoError::Corrupt("trace meta has no interval"))?;
    if h == 0 || w == 0 || n == 0 {
        return Err(TraceIoError::Corrupt("zero dimension"));
    }
    if !(interval.is_finite() && interval > 0.0) {
        return Err(TraceIoError::Corrupt("bad frame interval"));
    }
    Ok(TraceMeta { h, w, n, interval })
}

impl MeasurementTrace {
    /// Writes the trace into `dir` as chunked, checksummed arrays with
    /// `codec` on the frames array (`Codec::DeltaRle` is the fit for
    /// depth maps; `SLM_STORE_CODEC` callers pass
    /// [`sl_store::configured_codec`]). `metrics` accumulates the write
    /// counters (bytes, chunks, compression).
    pub fn save_chunked(
        &self,
        dir: impl AsRef<Path>,
        codec: Codec,
        metrics: &mut StoreMetrics,
    ) -> Result<(), TraceIoError> {
        assert!(!self.is_empty(), "save_chunked: empty trace");
        let (h, w) = (self.frames[0].dims()[0], self.frames[0].dims()[1]);
        let mut storage = DirStorage::create(dir.as_ref())?;
        let meta = JsonObject::new()
            .u64("version", META_VERSION)
            .u64("height", h as u64)
            .u64("width", w as u64)
            .u64("frames", self.len() as u64)
            .str(
                "interval_bits",
                &format!("{:016x}", self.frame_interval_s.to_bits()),
            )
            .finish();
        storage.put(META, meta.as_bytes())?;

        let pool = ComputePool::global();
        write_array(
            &mut storage,
            POWERS,
            1,
            &self.powers_dbm,
            sl_store::configured_chunk_items(1),
            Codec::Raw,
            pool,
            metrics,
        )?;
        let item_len = h * w;
        let mut pixels = Vec::with_capacity(self.len() * item_len);
        for frame in &self.frames {
            assert_eq!(frame.dims(), &[h, w], "save_chunked: inconsistent frames");
            pixels.extend_from_slice(frame.data());
        }
        write_array(
            &mut storage,
            FRAMES,
            item_len,
            &pixels,
            sl_store::configured_chunk_items(item_len),
            codec,
            pool,
            metrics,
        )?;
        Ok(())
    }

    /// Reads a whole chunked trace back (bitwise identical to what
    /// [`MeasurementTrace::save_chunked`] stored).
    pub fn load_chunked(
        dir: impl AsRef<Path>,
        metrics: &mut StoreMetrics,
    ) -> Result<MeasurementTrace, TraceIoError> {
        let storage = DirStorage::open(dir.as_ref())?;
        let meta = load_meta(&storage)?;
        let pool = ComputePool::global();
        let powers_manifest = read_manifest(&storage, POWERS)?;
        if powers_manifest.items != meta.n {
            return Err(TraceIoError::Corrupt("power count disagrees with meta"));
        }
        let powers_dbm = read_items(&storage, &powers_manifest, 0, meta.n, pool, metrics)?;
        let frames = load_range(&storage, &meta, 0, meta.n, pool, metrics)?;
        Ok(MeasurementTrace {
            frames,
            powers_dbm,
            frame_interval_s: meta.interval,
        })
    }

    /// Streams frames `[start, start + count)` out of a chunked trace,
    /// touching only the chunks that overlap the window — constant
    /// memory in the trace length.
    pub fn load_frame_range(
        dir: impl AsRef<Path>,
        start: usize,
        count: usize,
    ) -> Result<Vec<Tensor>, TraceIoError> {
        let storage = DirStorage::open(dir.as_ref())?;
        let meta = load_meta(&storage)?;
        let mut metrics = StoreMetrics::default();
        load_range(
            &storage,
            &meta,
            start,
            count,
            ComputePool::global(),
            &mut metrics,
        )
    }
}

fn load_range<S: StorageRead>(
    storage: &S,
    meta: &TraceMeta,
    start: usize,
    count: usize,
    pool: &ComputePool,
    metrics: &mut StoreMetrics,
) -> Result<Vec<Tensor>, TraceIoError> {
    let manifest = read_manifest(storage, FRAMES)?;
    if manifest.items != meta.n || manifest.item_len != meta.h * meta.w {
        return Err(TraceIoError::Corrupt("frame array disagrees with meta"));
    }
    let pixels = read_items(storage, &manifest, start, count, pool, metrics)?;
    let item_len = meta.h * meta.w;
    Ok(pixels
        .chunks_exact(item_len)
        .map(|px| Tensor::from_parts([meta.h, meta.w], px.to_vec()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scene, SceneConfig};
    use sl_rng::rngs::StdRng;
    use sl_store::StoreError;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("slt_chunked_{name}_{}", std::process::id()))
    }

    fn trace(frames: usize, seed: u64) -> MeasurementTrace {
        let cfg = SceneConfig {
            num_frames: frames,
            ..SceneConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        Scene::generate(cfg, &mut rng).simulate(&mut rng)
    }

    #[test]
    fn loading_a_missing_directory_fails_without_creating_it() {
        let root = tmp("absent");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("nested");
        let mut metrics = StoreMetrics::default();
        assert!(matches!(
            MeasurementTrace::load_chunked(&dir, &mut metrics),
            Err(TraceIoError::Store(StoreError::Io(_)))
        ));
        assert!(matches!(
            MeasurementTrace::load_frame_range(&dir, 0, 1),
            Err(TraceIoError::Store(StoreError::Io(_)))
        ));
        assert!(!root.exists());
    }

    #[test]
    fn chunked_round_trip_is_bitwise() {
        let t = trace(30, 500);
        let dir = tmp("round_trip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = StoreMetrics::default();
        t.save_chunked(&dir, Codec::DeltaRle, &mut metrics).unwrap();
        assert!(metrics.bytes_raw > 0);
        let back = MeasurementTrace::load_chunked(&dir, &mut metrics).unwrap();
        assert_eq!(
            back.frame_interval_s.to_bits(),
            t.frame_interval_s.to_bits()
        );
        assert_eq!(back.powers_dbm.len(), t.powers_dbm.len());
        assert!(back
            .powers_dbm
            .iter()
            .zip(&t.powers_dbm)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        for (a, b) in back.frames.iter().zip(&t.frames) {
            assert_eq!(a, b);
        }
        // Depth frames are mostly static: delta+rle must actually
        // compress (the bench gate asserts the same on the fig3a scene).
        assert!(
            metrics.ratio() > 1.0,
            "no compression: ratio {}",
            metrics.ratio()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_range_streams_the_window() {
        let t = trace(25, 501);
        let dir = tmp("range");
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = StoreMetrics::default();
        t.save_chunked(&dir, Codec::DeltaRle, &mut metrics).unwrap();
        let window = MeasurementTrace::load_frame_range(&dir, 7, 9).unwrap();
        assert_eq!(window.len(), 9);
        for (i, f) in window.iter().enumerate() {
            assert_eq!(f, &t.frames[7 + i]);
        }
        // Out-of-bounds windows are typed errors.
        assert!(matches!(
            MeasurementTrace::load_frame_range(&dir, 20, 10),
            Err(TraceIoError::Store(StoreError::Range(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_chunk_is_a_checksum_error() {
        let t = trace(12, 502);
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = StoreMetrics::default();
        t.save_chunked(&dir, Codec::DeltaRle, &mut metrics).unwrap();
        let chunk = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| {
                let n = e.file_name();
                let n = n.to_string_lossy();
                n.starts_with("frames.chunk") && n.ends_with(".slc")
            })
            .expect("no frame chunks");
        let mut bytes = std::fs::read(chunk.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(chunk.path(), &bytes).unwrap();
        assert!(matches!(
            MeasurementTrace::load_chunked(&dir, &mut metrics),
            Err(TraceIoError::Store(StoreError::Checksum { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
