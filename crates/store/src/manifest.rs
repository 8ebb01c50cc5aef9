//! The checksummed chunk manifest.
//!
//! Every stored array is one `"<name>.manifest.json"` object plus one
//! `"<name>.chunk-NNNNNN.slc"` object per chunk. The manifest is the
//! commit point (written last) and the integrity root: it records the
//! codec, the item geometry and, per chunk, the encoded byte count and
//! an FNV-1a 64 checksum. Readers verify every chunk against the
//! manifest before decoding, so flipped bits surface as typed
//! [`StoreError::Checksum`](crate::StoreError::Checksum) errors — never
//! as garbage tensors.
//!
//! The JSON is emitted with a fixed field order and hex-encoded
//! checksums, so a manifest's bytes are a pure function of the array's
//! contents and write parameters.

use sl_telemetry::json::{parse, JsonArray, JsonObject, JsonValue};

use crate::codec::Codec;
use crate::error::StoreError;

/// Manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

/// One chunk's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Object name of the chunk (flat, inside the same storage).
    pub file: String,
    /// Items encoded in this chunk.
    pub items: usize,
    /// Encoded byte count.
    pub bytes: usize,
    /// FNV-1a 64 checksum of the encoded bytes.
    pub checksum: u64,
}

/// A stored array's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Array name (the object-name prefix).
    pub array: String,
    /// `f32` values per item (e.g. pixels per frame); items are the
    /// random-access granularity.
    pub item_len: usize,
    /// Total items across all chunks.
    pub items: usize,
    /// Write-time target items per chunk (0 for append-logs, whose
    /// chunks are sized by whatever each append carried).
    pub chunk_items: usize,
    /// The codec every chunk is encoded with.
    pub codec: Codec,
    /// Per-chunk entries, in array order.
    pub chunks: Vec<ChunkInfo>,
}

impl Manifest {
    /// The manifest object name for an array called `name`.
    pub fn object_name(name: &str) -> String {
        format!("{name}.manifest.json")
    }

    /// The chunk object name for chunk `index` of array `name`.
    pub fn chunk_name(name: &str, index: usize) -> String {
        format!("{name}.chunk-{index:06}.slc")
    }

    /// Serializes to the canonical JSON bytes.
    pub fn to_json(&self) -> String {
        let mut chunks = JsonArray::new();
        for c in &self.chunks {
            chunks.push_raw(
                &JsonObject::new()
                    .str("file", &c.file)
                    .u64("items", c.items as u64)
                    .u64("bytes", c.bytes as u64)
                    .str("fnv1a", &format!("{:016x}", c.checksum))
                    .finish(),
            );
        }
        JsonObject::new()
            .u64("version", MANIFEST_VERSION)
            .str("array", &self.array)
            .u64("item_len", self.item_len as u64)
            .u64("items", self.items as u64)
            .u64("chunk_items", self.chunk_items as u64)
            .str("codec", &self.codec.name())
            .raw("chunks", &chunks.finish())
            .finish()
    }

    /// Parses and validates manifest JSON.
    pub fn from_json(text: &str) -> Result<Manifest, StoreError> {
        let bad = |what: &str| StoreError::Manifest(what.to_string());
        let root = parse(text).map_err(|e| StoreError::Manifest(format!("bad JSON: {e}")))?;
        let field = |key: &str| -> Result<&JsonValue, StoreError> {
            root.get(key)
                .ok_or_else(|| StoreError::Manifest(format!("missing field {key:?}")))
        };
        let version = field("version")?.as_u64().ok_or_else(|| bad("version"))?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::Manifest(format!(
                "unsupported manifest version {version}"
            )));
        }
        let array = field("array")?
            .as_str()
            .ok_or_else(|| bad("array"))?
            .to_string();
        let item_len = field("item_len")?.as_u64().ok_or_else(|| bad("item_len"))? as usize;
        let items = field("items")?.as_u64().ok_or_else(|| bad("items"))? as usize;
        let chunk_items = field("chunk_items")?
            .as_u64()
            .ok_or_else(|| bad("chunk_items"))? as usize;
        let codec = Codec::parse(field("codec")?.as_str().ok_or_else(|| bad("codec"))?)
            .map_err(StoreError::Manifest)?;
        if item_len == 0 {
            return Err(bad("item_len must be positive"));
        }
        let mut chunks = Vec::new();
        for (i, entry) in field("chunks")?
            .as_arr()
            .ok_or_else(|| bad("chunks"))?
            .iter()
            .enumerate()
        {
            let get = |key: &str| -> Result<&JsonValue, StoreError> {
                entry.get(key).ok_or_else(|| {
                    StoreError::Manifest(format!("chunk {i}: missing field {key:?}"))
                })
            };
            let hex = get("fnv1a")?
                .as_str()
                .ok_or_else(|| bad("fnv1a"))?
                .to_string();
            let checksum = u64::from_str_radix(&hex, 16)
                .map_err(|_| StoreError::Manifest(format!("chunk {i}: bad checksum {hex:?}")))?;
            chunks.push(ChunkInfo {
                file: get("file")?
                    .as_str()
                    .ok_or_else(|| bad("file"))?
                    .to_string(),
                items: get("items")?.as_u64().ok_or_else(|| bad("items"))? as usize,
                bytes: get("bytes")?.as_u64().ok_or_else(|| bad("bytes"))? as usize,
                checksum,
            });
        }
        let manifest = Manifest {
            array,
            item_len,
            items,
            chunk_items,
            codec,
            chunks,
        };
        let counted: usize = manifest.chunks.iter().map(|c| c.items).sum();
        if counted != manifest.items {
            return Err(StoreError::Manifest(format!(
                "chunk items sum to {counted}, manifest claims {}",
                manifest.items
            )));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            array: "frames".into(),
            item_len: 64,
            items: 5,
            chunk_items: 3,
            codec: Codec::DeltaRle,
            chunks: vec![
                ChunkInfo {
                    file: Manifest::chunk_name("frames", 0),
                    items: 3,
                    bytes: 100,
                    checksum: 0xdead_beef_0123_4567,
                },
                ChunkInfo {
                    file: Manifest::chunk_name("frames", 1),
                    items: 2,
                    bytes: 70,
                    checksum: 7,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let m = sample();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back, m);
        // Canonical bytes: re-serialization is identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn rejects_inconsistent_and_malformed_manifests() {
        let mut m = sample();
        m.items = 99;
        assert!(matches!(
            Manifest::from_json(&m.to_json()),
            Err(StoreError::Manifest(_))
        ));
        assert!(Manifest::from_json("{").is_err());
        assert!(Manifest::from_json("{}").is_err());
        let wrong_version = sample().to_json().replace("\"version\":1", "\"version\":9");
        assert!(Manifest::from_json(&wrong_version).is_err());
    }
}
