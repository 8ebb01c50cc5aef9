//! The chunk codec.
//!
//! [`Codec::Raw`] stores each value as its little-endian IEEE-754 bits,
//! so any `f32` — NaN payloads, infinities, subnormals, `-0.0` —
//! round-trips bitwise. Every manifest records its codec by name
//! (`"codec":"raw"`), and a reader rejects any other name.
//!
//! Encoding and decoding are pure functions of the value slice, so a
//! chunk's bytes never depend on thread count or backend.

use crate::error::StoreError;

/// A chunk codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Little-endian `f32` bits, 4 bytes per value.
    Raw,
}

impl Codec {
    /// The manifest spelling of this codec.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Raw => "raw",
        }
    }

    /// Parses a manifest codec name; the inverse of [`Codec::name`].
    pub fn parse(name: &str) -> Result<Codec, String> {
        match name.trim() {
            "raw" => Ok(Codec::Raw),
            other => Err(format!("unknown codec {other:?} (expected raw)")),
        }
    }

    /// Encodes `values` into this codec's byte representation.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        match self {
            Codec::Raw => {
                let mut out = Vec::with_capacity(values.len() * 4);
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
        }
    }

    /// Decodes exactly `count` values back out of `bytes`. A byte count
    /// that does not hold `count` values is a typed
    /// [`StoreError::Corrupt`] error.
    pub fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>, StoreError> {
        match self {
            Codec::Raw => {
                if bytes.len() != count * 4 {
                    return Err(StoreError::Corrupt(format!(
                        "raw chunk: got {} bytes, want {} for {count} values",
                        bytes.len(),
                        count * 4
                    )));
                }
                Ok(bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        assert_eq!(Codec::parse(Codec::Raw.name()), Ok(Codec::Raw));
        for gone in ["delta+rle", "bitpack8", "zstd"] {
            assert!(Codec::parse(gone).is_err(), "accepted {gone:?}");
        }
    }

    #[test]
    fn raw_round_trips_special_values() {
        let vals = [0.0, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE];
        let enc = Codec::Raw.encode(&vals);
        let dec = Codec::Raw.decode(&enc, vals.len()).unwrap();
        assert!(vals
            .iter()
            .zip(&dec)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(Codec::Raw
            .decode(&enc[..enc.len() - 1], vals.len())
            .is_err());
    }

    #[test]
    fn empty_input_round_trips() {
        let enc = Codec::Raw.encode(&[]);
        assert!(Codec::Raw.decode(&enc, 0).unwrap().is_empty());
    }
}
