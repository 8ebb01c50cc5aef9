//! Pluggable chunk codecs.
//!
//! Every codec maps a slice of `f32` values to bytes and back
//! **bitwise-losslessly** for the inputs it accepts:
//!
//! * [`Codec::Raw`] — little-endian IEEE-754 bits, any input.
//! * [`Codec::Bitpack`] — `R` bits per value, MSB-first, for values on
//!   the `2^R`-level quantizer grid `k / (2^R − 1)` (the cut-layer
//!   activation alphabet; [`pack_levels`] is also the `sl-net` uplink
//!   payload). Off-grid input is a typed encode error.
//! * [`Codec::DeltaRle`] — XOR-delta of each value's bit pattern
//!   against the same position in the *previous item* (lag =
//!   `item_len`; the first item deltas against zero), followed by
//!   byte-level run-length encoding. A static pixel XORs to
//!   `0x00000000` across frames, so mostly-static depth maps become
//!   long zero runs which RLE collapses; NaN/Inf are just bit
//!   patterns, so arbitrary floats round-trip exactly.
//!
//! Encoding and decoding are pure functions of the value slice and the
//! array's item length, so a chunk's encoded bytes never depend on
//! thread count or backend.

use crate::error::StoreError;

/// RLE op code: a run of zero bytes follows (`len: u32 LE`).
const RLE_ZEROS: u8 = 0x00;
/// RLE op code: a literal byte run follows (`len: u32 LE`, then bytes).
const RLE_LITERAL: u8 = 0x01;

/// A chunk codec (see the module docs for the catalogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Little-endian `f32` bits, 4 bytes per value.
    Raw,
    /// MSB-first `R`-bit level packing of quantizer-grid values.
    Bitpack {
        /// Bits per value, `1..=16`.
        bit_depth: usize,
    },
    /// XOR-delta against the previous item's bit patterns + byte RLE.
    DeltaRle,
}

impl Codec {
    /// The manifest / knob spelling of this codec.
    pub fn name(&self) -> String {
        match self {
            Codec::Raw => "raw".to_string(),
            Codec::Bitpack { bit_depth } => format!("bitpack{bit_depth}"),
            Codec::DeltaRle => "delta+rle".to_string(),
        }
    }

    /// Parses a codec name (`raw`, `bitpack<R>`, `delta+rle`); the
    /// inverse of [`Codec::name`]. `bitpack` alone means `bitpack8`.
    pub fn parse(name: &str) -> Result<Codec, String> {
        let name = name.trim();
        match name {
            "raw" => return Ok(Codec::Raw),
            "delta+rle" | "delta-rle" => return Ok(Codec::DeltaRle),
            "bitpack" => return Ok(Codec::Bitpack { bit_depth: 8 }),
            _ => {}
        }
        if let Some(digits) = name.strip_prefix("bitpack") {
            if let Ok(r) = digits.parse::<usize>() {
                if (1..=16).contains(&r) {
                    return Ok(Codec::Bitpack { bit_depth: r });
                }
                return Err(format!("bitpack depth {r} out of range 1..=16"));
            }
        }
        Err(format!(
            "unknown codec {name:?} (expected raw, bitpack<R> or delta+rle)"
        ))
    }

    /// Encodes `values` (a whole number of `item_len`-value items) into
    /// this codec's byte representation.
    pub fn encode(&self, values: &[f32], item_len: usize) -> Result<Vec<u8>, StoreError> {
        match self {
            Codec::Raw => Ok(encode_raw(values)),
            Codec::Bitpack { bit_depth } => pack_levels(values, *bit_depth),
            Codec::DeltaRle => Ok(encode_delta_rle(values, item_len.max(1))),
        }
    }

    /// Decodes exactly `count` values back out of `bytes`. Structural
    /// problems (wrong length, truncated stream, invalid op) are typed
    /// [`StoreError::Corrupt`] errors.
    pub fn decode(
        &self,
        bytes: &[u8],
        count: usize,
        item_len: usize,
    ) -> Result<Vec<f32>, StoreError> {
        match self {
            Codec::Raw => decode_raw(bytes, count),
            Codec::Bitpack { bit_depth } => unpack_levels(bytes, count, *bit_depth),
            Codec::DeltaRle => decode_delta_rle(bytes, count, item_len.max(1)),
        }
    }
}

fn encode_raw(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_raw(bytes: &[u8], count: usize) -> Result<Vec<f32>, StoreError> {
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

/// Bit-packs values on the `2^R`-level quantizer grid `k / (2^R − 1)`
/// into `R` bits per value, MSB-first, for `R` in `1..=24`. This is the
/// one packing behind both [`Codec::Bitpack`] chunks and the `sl-net`
/// uplink payload: `values.len() · R` bits, the paper's `B_UL`. A value
/// off the grid (not finite, outside `[0, 1]` or between two levels) is
/// a typed [`StoreError::OffGrid`].
pub fn pack_levels(values: &[f32], bit_depth: usize) -> Result<Vec<u8>, StoreError> {
    debug_assert!((1..=24).contains(&bit_depth));
    let max = (1u32 << bit_depth) - 1;
    let mut out = vec![0u8; (values.len() * bit_depth).div_ceil(8)];
    let mut bit = 0usize;
    for &q in values {
        let Some(k) = level_of(q, max) else {
            return Err(StoreError::OffGrid {
                value: q,
                bit_depth,
            });
        };
        for i in (0..bit_depth).rev() {
            if (k >> i) & 1 == 1 {
                out[bit / 8] |= 1 << (7 - bit % 8);
            }
            bit += 1;
        }
    }
    Ok(out)
}

/// Unpacks `count` `R`-bit levels packed by [`pack_levels`] and
/// reconstructs the grid values `k / (2^R − 1)`, bit-identical to the
/// packed ones. A byte count other than `⌈count · R / 8⌉` is a typed
/// [`StoreError::Corrupt`].
pub fn unpack_levels(bytes: &[u8], count: usize, bit_depth: usize) -> Result<Vec<f32>, StoreError> {
    debug_assert!((1..=24).contains(&bit_depth));
    let need = (count * bit_depth).div_ceil(8);
    if bytes.len() != need {
        return Err(StoreError::Corrupt(format!(
            "bitpack: got {} bytes, want {need} for {count} x {bit_depth}-bit values",
            bytes.len()
        )));
    }
    let maxf = ((1u32 << bit_depth) - 1) as f32;
    let mut out = Vec::with_capacity(count);
    let mut bit = 0usize;
    for _ in 0..count {
        let mut k = 0u32;
        for _ in 0..bit_depth {
            k = (k << 1) | ((bytes[bit / 8] >> (7 - bit % 8)) & 1) as u32;
            bit += 1;
        }
        out.push(k as f32 / maxf);
    }
    Ok(out)
}

/// Recovers the integer level `k` with `k / max == q` **bitwise**, for
/// `q` produced by `sl_core::Quantizer::quantize` (which computes
/// `round(clamp(v)·max) / max` in f32), or `None` when `q` is off the
/// grid. `round(q·max)` can land one off after the division round-trip,
/// so the three neighbouring candidates are tested against the exact bit
/// pattern.
fn level_of(q: f32, max: u32) -> Option<u32> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let maxf = max as f32;
    let k0 = (q * maxf).round() as i64;
    for dk in [0i64, -1, 1] {
        let k = k0 + dk;
        if !(0..=max as i64).contains(&k) {
            continue;
        }
        if ((k as f32) / maxf).to_bits() == q.to_bits() {
            return Some(k as u32);
        }
    }
    None
}

fn encode_delta_rle(values: &[f32], lag: usize) -> Vec<u8> {
    // Stage 1: XOR-delta against the same position in the previous item
    // (the first item deltas against zero). A static pixel XORs to
    // 0x00000000, so depth frames become mostly zero bytes.
    let mut stream = Vec::with_capacity(values.len() * 4);
    for (i, &v) in values.iter().enumerate() {
        let prev = if i >= lag {
            values[i - lag].to_bits()
        } else {
            0
        };
        stream.extend_from_slice(&(v.to_bits() ^ prev).to_le_bytes());
    }
    // Stage 2: byte RLE over the delta stream. Zero runs shorter than
    // the 5-byte op overhead stay literal.
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < stream.len() {
        if stream[i] == 0 {
            let mut j = i;
            while j < stream.len() && stream[j] == 0 {
                j += 1;
            }
            if j - i > 5 {
                out.push(RLE_ZEROS);
                out.extend_from_slice(&((j - i) as u32).to_le_bytes());
                i = j;
                continue;
            }
        }
        // Literal run: up to the next zero run worth collapsing.
        let start = i;
        while i < stream.len() {
            if stream[i] == 0 {
                let mut j = i;
                while j < stream.len() && stream[j] == 0 {
                    j += 1;
                }
                if j - i > 5 {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        out.push(RLE_LITERAL);
        out.extend_from_slice(&((i - start) as u32).to_le_bytes());
        out.extend_from_slice(&stream[start..i]);
    }
    out
}

fn decode_delta_rle(bytes: &[u8], count: usize, lag: usize) -> Result<Vec<f32>, StoreError> {
    let want = count * 4;
    let mut stream = Vec::with_capacity(want);
    let mut i = 0usize;
    while i < bytes.len() {
        let op = bytes[i];
        if i + 5 > bytes.len() {
            return Err(StoreError::Corrupt("delta+rle: truncated op header".into()));
        }
        let len =
            u32::from_le_bytes([bytes[i + 1], bytes[i + 2], bytes[i + 3], bytes[i + 4]]) as usize;
        i += 5;
        match op {
            RLE_ZEROS => stream.resize(stream.len() + len, 0),
            RLE_LITERAL => {
                if i + len > bytes.len() {
                    return Err(StoreError::Corrupt(
                        "delta+rle: truncated literal run".into(),
                    ));
                }
                stream.extend_from_slice(&bytes[i..i + len]);
                i += len;
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "delta+rle: invalid op code {other:#04x}"
                )))
            }
        }
        if stream.len() > want {
            return Err(StoreError::Corrupt(format!(
                "delta+rle: stream overruns {want} bytes"
            )));
        }
    }
    if stream.len() != want {
        return Err(StoreError::Corrupt(format!(
            "delta+rle: decoded {} bytes, want {want} for {count} values",
            stream.len()
        )));
    }
    let mut out: Vec<f32> = Vec::with_capacity(count);
    for (i, c) in stream.chunks_exact(4).enumerate() {
        let prev = if i >= lag { out[i - lag].to_bits() } else { 0 };
        let bits = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ prev;
        out.push(f32::from_bits(bits));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn names_round_trip_through_parse() {
        for codec in [
            Codec::Raw,
            Codec::Bitpack { bit_depth: 8 },
            Codec::Bitpack { bit_depth: 3 },
            Codec::DeltaRle,
        ] {
            assert_eq!(Codec::parse(&codec.name()), Ok(codec));
        }
        assert_eq!(Codec::parse("bitpack"), Ok(Codec::Bitpack { bit_depth: 8 }));
        assert!(Codec::parse("bitpack0").is_err());
        assert!(Codec::parse("bitpack17").is_err());
        assert!(Codec::parse("zstd").is_err());
    }

    #[test]
    fn raw_round_trips_special_values() {
        let vals = [0.0, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE];
        let enc = Codec::Raw.encode(&vals, 1).unwrap();
        let dec = Codec::Raw.decode(&enc, vals.len(), 1).unwrap();
        assert!(bits_eq(&vals, &dec));
        assert!(Codec::Raw
            .decode(&enc[..enc.len() - 1], vals.len(), 1)
            .is_err());
    }

    #[test]
    fn bitpack_round_trips_grid_values() {
        for bit_depth in [1usize, 3, 8, 12] {
            let max = (1u32 << bit_depth) - 1;
            let vals: Vec<f32> = (0..=max).map(|k| k as f32 / max as f32).collect();
            let codec = Codec::Bitpack { bit_depth };
            let enc = codec.encode(&vals, 1).unwrap();
            assert_eq!(enc.len(), (vals.len() * bit_depth).div_ceil(8));
            let dec = codec.decode(&enc, vals.len(), 1).unwrap();
            assert!(bits_eq(&vals, &dec), "bit depth {bit_depth}");
        }
    }

    #[test]
    fn bitpack_rejects_off_grid_input() {
        let codec = Codec::Bitpack { bit_depth: 8 };
        assert!(matches!(
            codec.encode(&[0.1234567], 1),
            Err(StoreError::OffGrid { .. })
        ));
        assert!(matches!(
            codec.encode(&[f32::NAN], 1),
            Err(StoreError::OffGrid { .. })
        ));
    }

    #[test]
    fn delta_rle_compresses_static_frames() {
        // Four nearly-identical 1024-pixel "frames": with lag =
        // item_len, every repeated frame deltas to zeros, so the
        // encoding must be far smaller than raw.
        let mut vals: Vec<f32> = (0..1024).map(|i| (i % 7) as f32 * 0.125).collect();
        for _ in 0..3 {
            vals.extend_from_within(..1024);
        }
        vals[1500] += 1.0; // one "moving pixel" in frame 2
        let enc = Codec::DeltaRle.encode(&vals, 1024).unwrap();
        assert!(
            enc.len() * 2 < vals.len() * 4,
            "no compression: {} vs {}",
            enc.len(),
            vals.len() * 4
        );
        let dec = Codec::DeltaRle.decode(&enc, vals.len(), 1024).unwrap();
        assert!(bits_eq(&vals, &dec));
    }

    #[test]
    fn delta_rle_lag_changes_the_bytes_but_not_the_values() {
        let vals: Vec<f32> = (0..64).map(|i| (i / 8) as f32).collect();
        let a = Codec::DeltaRle.encode(&vals, 8).unwrap();
        let b = Codec::DeltaRle.encode(&vals, 1).unwrap();
        assert_ne!(a, b);
        assert!(bits_eq(
            &vals,
            &Codec::DeltaRle.decode(&a, vals.len(), 8).unwrap()
        ));
        assert!(bits_eq(
            &vals,
            &Codec::DeltaRle.decode(&b, vals.len(), 1).unwrap()
        ));
    }

    #[test]
    fn delta_rle_round_trips_adversarial_bits() {
        let vals: Vec<f32> = [
            0x0000_0000u32,
            0x8000_0000,
            0x7fc0_0001, // NaN payload
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x0000_0001, // subnormal
            0xdead_beef,
        ]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect();
        let enc = Codec::DeltaRle.encode(&vals, 1).unwrap();
        let dec = Codec::DeltaRle.decode(&enc, vals.len(), 1).unwrap();
        assert!(bits_eq(&vals, &dec));
    }

    #[test]
    fn delta_rle_rejects_malformed_streams() {
        // Truncated op header.
        assert!(matches!(
            Codec::DeltaRle.decode(&[RLE_ZEROS, 1], 4, 1),
            Err(StoreError::Corrupt(_))
        ));
        // Literal run longer than the buffer.
        assert!(matches!(
            Codec::DeltaRle.decode(&[RLE_LITERAL, 200, 0, 0, 0], 4, 1),
            Err(StoreError::Corrupt(_))
        ));
        // Invalid op code.
        assert!(matches!(
            Codec::DeltaRle.decode(&[0x7f, 4, 0, 0, 0], 1, 1),
            Err(StoreError::Corrupt(_))
        ));
        // Wrong decoded length.
        let enc = Codec::DeltaRle.encode(&[1.0, 2.0], 1).unwrap();
        assert!(matches!(
            Codec::DeltaRle.decode(&enc, 3, 1),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_input_round_trips_everywhere() {
        for codec in [Codec::Raw, Codec::Bitpack { bit_depth: 8 }, Codec::DeltaRle] {
            let enc = codec.encode(&[], 1).unwrap();
            assert!(codec.decode(&enc, 0, 1).unwrap().is_empty());
        }
    }
}
