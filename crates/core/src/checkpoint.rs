//! Resumable training checkpoints over the chunked `sl-store` layer.
//!
//! A checkpoint directory holds the complete trainer state mid-run:
//!
//! * `params`, `opt_{ue,bs}_{m,v}` — chunked, checksummed `sl-store`
//!   arrays (flat `f32`, raw codec: exact bits are non-negotiable);
//! * `state.json` — everything scalar, written **last** as the commit
//!   point: config fingerprint (scheme / pooling / seed), epoch and step
//!   counters, Adam step counts, the trainer's generator state, the
//!   [`SimClock`](crate::SimClock) components, the learning curve so
//!   far, and the FNV-1a 64 hash of each array's manifest.
//!
//! Each save overwrites the previous one in place. The manifest hashes
//! tie `state.json` to the arrays of the same save: a save interrupted
//! after some arrays were rewritten, or arrays copied in from another
//! save, leave every chunk checksum intact but no longer match the
//! hashes, and [`load`] refuses them with
//! [`CheckpointError::Mismatch`]. A torn directory is a typed error;
//! the previous checkpoint is not kept.
//!
//! The seed, the four generator state words and every float in
//! `state.json` are stored as hex (the JSON layer parses numbers as
//! `f64`, which cannot round-trip arbitrary `u64` values or bits) —
//! resuming restores *bitwise* identical state,
//! so an interrupted-and-resumed run produces the same learning curve as
//! an uninterrupted one. That equivalence is the `store-resume` verify
//! stage.

use std::path::Path;

use sl_rng::fnv1a_64;
use sl_store::{
    read_array, write_array, Codec, DirStorage, Manifest, StorageRead, StorageWrite, StoreError,
    StoreMetrics,
};
use sl_telemetry::json::{parse, JsonArray, JsonObject, JsonValue};
use sl_tensor::ComputePool;

use crate::trainer::CurvePoint;

/// Format version of `state.json`.
pub const CHECKPOINT_VERSION: u64 = 3;

const STATE_OBJECT: &str = "state.json";

/// The checkpoint's arrays, in write order.
const ARRAYS: [&str; 5] = ["params", "opt_ue_m", "opt_ue_v", "opt_bs_m", "opt_bs_v"];

/// Why a checkpoint could not be saved or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying chunk store failed (IO, checksum, corruption).
    Store(StoreError),
    /// `state.json` is missing a field or malformed.
    Parse(String),
    /// The checkpoint does not fit this trainer (different config
    /// fingerprint or parameter count), or its arrays are not the ones
    /// its `state.json` committed.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "checkpoint store: {e}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint state: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

/// Exported optimizer state: `(t, first moments, second moments)`,
/// exactly [`sl_nn::Adam::export_state`].
pub type AdamState = (u64, Vec<f32>, Vec<f32>);

/// The complete mid-run trainer state (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Config fingerprint: `Scheme` display form.
    pub scheme: String,
    /// Config fingerprint: `PoolingDim` display form.
    pub pooling: String,
    /// Config fingerprint: the training seed.
    pub seed: u64,
    /// Last completed epoch.
    pub epoch: usize,
    /// Steps applied so far.
    pub steps_applied: u64,
    /// Steps voided by payload timeouts so far.
    pub steps_voided: u64,
    /// Current consecutive-void streak (survives epoch boundaries).
    pub consecutive_voids: usize,
    /// Total step attempts (the trace/series sequence counter).
    pub steps_seen: u64,
    /// The trainer generator's state words
    /// ([`StdRng::state`](sl_rng::rngs::StdRng::state)).
    pub rng_state: [u64; 4],
    /// UE-side Adam state.
    pub opt_ue: AdamState,
    /// BS-side Adam state.
    pub opt_bs: AdamState,
    /// Simulated compute seconds.
    pub compute_s: f64,
    /// Simulated airtime seconds.
    pub airtime_s: f64,
    /// Learning curve up to and including `epoch`.
    pub curve: Vec<CurvePoint>,
    /// All model parameters, flattened UE-first then BS, in
    /// `params_and_grads` order.
    pub params: Vec<f32>,
}

fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

fn hex_u32(v: u32) -> String {
    format!("{v:08x}")
}

fn req<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, CheckpointError> {
    obj.get(key)
        .ok_or_else(|| CheckpointError::Parse(format!("missing field {key:?}")))
}

fn req_u64(obj: &JsonValue, key: &str) -> Result<u64, CheckpointError> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| CheckpointError::Parse(format!("field {key:?} is not an integer")))
}

fn req_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, CheckpointError> {
    req(obj, key)?
        .as_str()
        .ok_or_else(|| CheckpointError::Parse(format!("field {key:?} is not a string")))
}

fn req_hex_u64(obj: &JsonValue, key: &str) -> Result<u64, CheckpointError> {
    let s = req_str(obj, key)?;
    u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Parse(format!("field {key:?} is not a hex u64")))
}

fn req_f64_bits(obj: &JsonValue, key: &str) -> Result<f64, CheckpointError> {
    req_hex_u64(obj, key).map(f64::from_bits)
}

fn req_f32_bits(obj: &JsonValue, key: &str) -> Result<f32, CheckpointError> {
    let s = req_str(obj, key)?;
    u32::from_str_radix(s, 16)
        .map(f32::from_bits)
        .map_err(|_| CheckpointError::Parse(format!("field {key:?} is not hex f32 bits")))
}

/// `state.json` for `ck`, whose arrays were committed with the manifest
/// hashes `manifests` (in [`ARRAYS`] order).
fn state_json(ck: &TrainCheckpoint, manifests: &[u64]) -> String {
    let mut curve = JsonArray::new();
    for p in &ck.curve {
        curve.push_raw(
            &JsonObject::new()
                .u64("epoch", p.epoch as u64)
                .str("elapsed_bits", &hex_u64(p.elapsed_s.to_bits()))
                .str("rmse_bits", &hex_u32(p.val_rmse_db.to_bits()))
                .finish(),
        );
    }
    let mut rng_state = JsonArray::new();
    for word in ck.rng_state {
        rng_state.push_str(&hex_u64(word));
    }
    let mut hashes = JsonObject::new();
    for (name, &hash) in ARRAYS.iter().zip(manifests) {
        hashes = hashes.str(name, &hex_u64(hash));
    }
    JsonObject::new()
        .u64("version", CHECKPOINT_VERSION)
        .str("scheme", &ck.scheme)
        .str("pooling", &ck.pooling)
        .str("seed", &hex_u64(ck.seed))
        .u64("epoch", ck.epoch as u64)
        .u64("steps_applied", ck.steps_applied)
        .u64("steps_voided", ck.steps_voided)
        .u64("consecutive_voids", ck.consecutive_voids as u64)
        .u64("steps_seen", ck.steps_seen)
        .raw("rng_state", &rng_state.finish())
        .u64("opt_ue_t", ck.opt_ue.0)
        .u64("opt_bs_t", ck.opt_bs.0)
        .str("compute_bits", &hex_u64(ck.compute_s.to_bits()))
        .str("airtime_bits", &hex_u64(ck.airtime_s.to_bits()))
        .raw("curve", &curve.finish())
        .raw("manifests", &hashes.finish())
        .finish()
}

/// Saves `ck` into `dir`, creating it if needed. The chunked arrays are
/// written first, `state.json` last — a directory without a readable
/// `state.json` is an aborted save, not a checkpoint.
pub fn save(
    dir: &Path,
    ck: &TrainCheckpoint,
    metrics: &mut StoreMetrics,
) -> Result<(), CheckpointError> {
    let mut storage = DirStorage::create(dir)?;
    let pool = ComputePool::global();
    let chunk = sl_store::configured_chunk_items(1);
    let arrays: [&[f32]; 5] = [
        &ck.params,
        &ck.opt_ue.1,
        &ck.opt_ue.2,
        &ck.opt_bs.1,
        &ck.opt_bs.2,
    ];
    let mut manifests = Vec::with_capacity(ARRAYS.len());
    for (name, values) in ARRAYS.into_iter().zip(arrays) {
        let manifest = write_array(
            &mut storage,
            name,
            1,
            values,
            chunk,
            Codec::Raw,
            pool,
            metrics,
        )?;
        manifests.push(fnv1a_64(manifest.to_json().as_bytes()));
    }
    storage.put(STATE_OBJECT, state_json(ck, &manifests).as_bytes())?;
    Ok(())
}

/// Loads a checkpoint previously written by [`save`]. Corruption in any
/// chunk surfaces as [`CheckpointError::Store`]; a malformed or
/// version-skewed `state.json` as [`CheckpointError::Parse`]; an array
/// whose manifest is not the one `state.json` committed (a torn save,
/// or arrays from another save) as [`CheckpointError::Mismatch`]; a
/// missing `dir` as [`CheckpointError::Store`], leaving no directory
/// behind.
pub fn load(dir: &Path, metrics: &mut StoreMetrics) -> Result<TrainCheckpoint, CheckpointError> {
    let storage = DirStorage::open(dir)?;
    let bytes = storage.get(STATE_OBJECT)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| CheckpointError::Parse("state.json is not UTF-8".into()))?;
    let state = parse(&text).map_err(|e| CheckpointError::Parse(format!("state.json: {e}")))?;

    let version = req_u64(&state, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Parse(format!(
            "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )));
    }

    let mut curve = Vec::new();
    let curve_val = req(&state, "curve")?;
    let points = curve_val
        .as_arr()
        .ok_or_else(|| CheckpointError::Parse("field \"curve\" is not an array".into()))?;
    for p in points {
        curve.push(CurvePoint {
            elapsed_s: req_f64_bits(p, "elapsed_bits")?,
            epoch: req_u64(p, "epoch")? as usize,
            val_rmse_db: req_f32_bits(p, "rmse_bits")?,
        });
    }

    let rng_state: [u64; 4] = req(&state, "rng_state")?
        .as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|w| u64::from_str_radix(w.as_str()?, 16).ok())
        .collect::<Vec<_>>()
        .try_into()
        .map_err(|_| CheckpointError::Parse("field \"rng_state\" is not 4 hex words".into()))?;

    let hashes = req(&state, "manifests")?;
    for name in ARRAYS {
        let expected = req_hex_u64(hashes, name)?;
        let actual = fnv1a_64(&storage.get(&Manifest::object_name(name))?);
        if actual != expected {
            return Err(CheckpointError::Mismatch(format!(
                "array {name:?} has manifest hash {actual:016x}, \
                 state.json committed {expected:016x}"
            )));
        }
    }

    let pool = ComputePool::global();
    let mut read = |name: &str| -> Result<Vec<f32>, CheckpointError> {
        Ok(read_array(&storage, name, pool, metrics)?.1)
    };
    let params = read("params")?;
    let opt_ue = (
        req_u64(&state, "opt_ue_t")?,
        read("opt_ue_m")?,
        read("opt_ue_v")?,
    );
    let opt_bs = (
        req_u64(&state, "opt_bs_t")?,
        read("opt_bs_m")?,
        read("opt_bs_v")?,
    );

    Ok(TrainCheckpoint {
        scheme: req_str(&state, "scheme")?.to_string(),
        pooling: req_str(&state, "pooling")?.to_string(),
        seed: req_hex_u64(&state, "seed")?,
        epoch: req_u64(&state, "epoch")? as usize,
        steps_applied: req_u64(&state, "steps_applied")?,
        steps_voided: req_u64(&state, "steps_voided")?,
        consecutive_voids: req_u64(&state, "consecutive_voids")? as usize,
        steps_seen: req_u64(&state, "steps_seen")?,
        rng_state,
        opt_ue,
        opt_bs,
        compute_s: req_f64_bits(&state, "compute_bits")?,
        airtime_s: req_f64_bits(&state, "airtime_bits")?,
        curve,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            scheme: "Img+RF".into(),
            pooling: "4x4".into(),
            seed: u64::MAX,
            epoch: 3,
            steps_applied: 31,
            steps_voided: 2,
            consecutive_voids: 1,
            steps_seen: 33,
            rng_state: [u64::MAX, 1 << 53 | 1, 0x0123_4567_89ab_cdef, 7],
            opt_ue: (31, vec![0.25, -1.5e-7], vec![1e-9, 3.0]),
            opt_bs: (31, vec![f32::MIN_POSITIVE], vec![0.125]),
            compute_s: 12.0 + 3.01e-13,
            airtime_s: 0.24999999999999997,
            curve: vec![
                CurvePoint {
                    elapsed_s: 0.0,
                    epoch: 0,
                    val_rmse_db: 9.123456,
                },
                CurvePoint {
                    elapsed_s: 12.25 + 3.01e-13,
                    epoch: 3,
                    val_rmse_db: 4.000001,
                },
            ],
            params: (0..300).map(|i| (i as f32).sin()).collect(),
        }
    }

    #[test]
    fn round_trips_bitwise_through_a_directory() {
        let dir = std::env::temp_dir().join("slm_ckpt_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = StoreMetrics::default();
        let ck = sample();
        save(&dir, &ck, &mut metrics).unwrap();
        let back = load(&dir, &mut metrics).unwrap();
        assert_eq!(back, ck);
        // Exact-bit floats survive (PartialEq on f64/f32 would also pass
        // for -0.0 vs 0.0; pin the bits explicitly).
        assert_eq!(back.compute_s.to_bits(), ck.compute_s.to_bits());
        assert_eq!(
            back.curve[1].val_rmse_db.to_bits(),
            ck.curve[1].val_rmse_db.to_bits()
        );
        assert!(metrics.arrays_written >= 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_state_is_a_parse_error_not_a_panic() {
        let dir = std::env::temp_dir().join("slm_ckpt_missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut metrics = StoreMetrics::default();
        match load(&dir, &mut metrics) {
            Err(CheckpointError::Store(StoreError::Missing(_))) => {}
            other => panic!("expected missing-object error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_a_missing_directory_fails_without_creating_it() {
        let root = std::env::temp_dir().join(format!("slm_ckpt_absent_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("nested");
        let mut metrics = StoreMetrics::default();
        assert!(matches!(
            load(&dir, &mut metrics),
            Err(CheckpointError::Store(StoreError::Io(_)))
        ));
        assert!(!root.exists());
    }

    #[test]
    fn arrays_from_another_save_are_a_mismatch() {
        // A save stopped after its arrays and before `state.json` leaves
        // a later save's arrays beside an earlier save's state: every
        // chunk checksum still verifies, so only the manifest hashes can
        // tell.
        let earlier = std::env::temp_dir().join("slm_ckpt_mixed_earlier");
        let later = std::env::temp_dir().join("slm_ckpt_mixed_later");
        let _ = std::fs::remove_dir_all(&earlier);
        let _ = std::fs::remove_dir_all(&later);
        let mut metrics = StoreMetrics::default();
        let ck3 = sample();
        let mut ck4 = sample();
        ck4.epoch = 4;
        ck4.params.iter_mut().for_each(|p| *p += 1.0);
        save(&earlier, &ck3, &mut metrics).unwrap();
        save(&later, &ck4, &mut metrics).unwrap();
        for entry in std::fs::read_dir(&later).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap();
            if name != STATE_OBJECT {
                std::fs::copy(&path, earlier.join(name)).unwrap();
            }
        }
        match load(&earlier, &mut metrics) {
            Err(CheckpointError::Mismatch(what)) => assert!(what.contains("params"), "{what}"),
            other => panic!("expected a manifest mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&earlier);
        let _ = std::fs::remove_dir_all(&later);
    }

    #[test]
    fn version_skew_is_rejected() {
        let dir = std::env::temp_dir().join("slm_ckpt_version");
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = StoreMetrics::default();
        let ck = sample();
        save(&dir, &ck, &mut metrics).unwrap();
        std::fs::write(dir.join(STATE_OBJECT), "{\"version\":99}").unwrap();
        assert!(matches!(
            load(&dir, &mut metrics),
            Err(CheckpointError::Parse(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
