//! The `sl-net` framed binary wire protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic  b"SLNF"
//!      4     2  protocol version, u16 LE (currently 2)
//!      6     1  message type (MsgType)
//!      7     1  flags (bit 0: reserved, ignored on receipt and
//!               never set; bit 1: FLAG_TRACE — the payload starts
//!               with a 32-byte TraceContext prefix)
//!      8     4  payload length, u32 LE
//!     12     N  payload
//!   12+N     8  FNV-1a 64 checksum over header+payload, u64 LE
//! ```
//!
//! Version 2 added distributed-tracing support: the [`SessionSpec`]
//! carries the UE's trace id, and any frame may prepend a
//! [`TraceContext`] to its payload behind [`FLAG_TRACE`]. The prefix
//! lives *inside* the payload, so it is counted by the length field,
//! covered by the FNV trailer (corruption of the trace field is caught
//! exactly like any payload corruption), and invisible to the fault
//! injector's frame arithmetic.
//!
//! The 12-byte header is always intact on the wire — the fault injector
//! ([`crate::Faulty`]) only flips payload/checksum bytes — so a receiver
//! can stay frame-aligned across corrupted frames, reject them with a
//! typed [`NetError::ChecksumMismatch`], and resynchronize on the next
//! frame without tearing the TCP stream down.
//!
//! All multi-byte integers are little-endian. Floating-point tensors are
//! raw IEEE-754 bit patterns, so a delivered frame reproduces the
//! sender's values **bit-exactly** — the foundation of the loopback
//! byte-identity contract (DESIGN.md §9). Quantized cut-layer
//! activations are not sent as floats at all: they are bit-packed
//! `R`-bit level indices ([`pack_activations`]), exactly the payload the
//! paper's `B_UL = B·L·p·R` formula charges for.

use std::fmt;
use std::io;

pub use sl_rng::fnv1a_64;
use sl_tensor::Tensor;

/// Protocol magic, first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SLNF";
/// Protocol version this build speaks. Version 2 added the trace-id
/// handshake field and the [`FLAG_TRACE`] payload prefix; version-1
/// peers are rejected with a [`NackCode::BadVersion`] Nack at decode.
pub const PROTOCOL_VERSION: u16 = 2;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 12;
/// Checksum trailer length in bytes.
pub const TRAILER_LEN: usize = 8;
/// Upper bound on a frame payload (guards allocation on garbage input).
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// The payload starts with a [`TraceContext::WIRE_LEN`]-byte
/// [`TraceContext`] prefix (distributed tracing, protocol version 2).
pub const FLAG_TRACE: u8 = 0b0000_0010;

/// Message types. The numbering is part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// UE -> BS: session handshake carrying a [`SessionSpec`].
    Hello = 1,
    /// BS -> UE: handshake accepted (wiring validated).
    ConfigAck = 2,
    /// UE -> BS: RF-only training step (powers + targets, no images).
    RfSamples = 3,
    /// UE -> BS: image-scheme training step (packed cut activations +
    /// powers + targets).
    Activations = 4,
    /// BS -> UE: loss, BS gradient norm and the cut-layer gradient.
    Gradients = 5,
    /// UE -> BS: validation forward request.
    EvalBatch = 6,
    /// BS -> UE: validation predictions.
    Predictions = 7,
    /// Either direction: liveness probe; the peer echoes it.
    Heartbeat = 8,
    /// UE -> BS: clean end of session; the BS echoes it and closes.
    Shutdown = 9,
    /// Either direction: the last frame was rejected ([`NackCode`]).
    Nack = 10,
}

impl MsgType {
    /// Every wire message type, in wire-byte order. `slm-lint`'s
    /// `protocol` pass checks this list against the enum declaration, so a
    /// new variant that skips the decode table or a handler match is
    /// caught before it ships.
    pub const ALL: [MsgType; 10] = [
        MsgType::Hello,
        MsgType::ConfigAck,
        MsgType::RfSamples,
        MsgType::Activations,
        MsgType::Gradients,
        MsgType::EvalBatch,
        MsgType::Predictions,
        MsgType::Heartbeat,
        MsgType::Shutdown,
        MsgType::Nack,
    ];

    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<MsgType> {
        Some(match b {
            1 => MsgType::Hello,
            2 => MsgType::ConfigAck,
            3 => MsgType::RfSamples,
            4 => MsgType::Activations,
            5 => MsgType::Gradients,
            6 => MsgType::EvalBatch,
            7 => MsgType::Predictions,
            8 => MsgType::Heartbeat,
            9 => MsgType::Shutdown,
            10 => MsgType::Nack,
            _ => return None,
        })
    }
}

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum NackCode {
    /// The FNV-1a trailer did not match (corruption in flight).
    ChecksumMismatch = 1,
    /// The frame's protocol version is not spoken here.
    BadVersion = 2,
    /// Unknown message type byte.
    BadType = 3,
    /// The handshake's [`SessionSpec`] failed the wiring check.
    WiringRejected = 4,
    /// The frame was well-formed but illegal in the current state.
    Protocol = 5,
}

impl NackCode {
    /// Decodes a wire code.
    pub fn from_u16(v: u16) -> Option<NackCode> {
        Some(match v {
            1 => NackCode::ChecksumMismatch,
            2 => NackCode::BadVersion,
            3 => NackCode::BadType,
            4 => NackCode::WiringRejected,
            5 => NackCode::Protocol,
            _ => return None,
        })
    }
}

/// Every way the networked runtime can fail. No code path in this crate
/// panics on malformed or hostile input — it returns one of these.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(io::Error),
    /// Frame did not start with [`MAGIC`] — the stream is desynchronized
    /// and the connection must be torn down.
    BadMagic([u8; 4]),
    /// Peer speaks a different protocol version.
    BadVersion(u16),
    /// Unknown message-type byte.
    BadType(u8),
    /// The checksum trailer did not match; the frame is frame-aligned
    /// but its payload cannot be trusted.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        got: u64,
        /// Checksum recomputed over the received bytes.
        want: u64,
    },
    /// A structurally-valid frame whose payload failed to decode.
    Decode(String),
    /// The peer rejected our frame.
    Nack {
        /// Why.
        code: NackCode,
        /// Human-readable detail from the peer.
        detail: String,
    },
    /// The BS rejected the session handshake.
    HandshakeRejected(String),
    /// A blocking read exceeded its deadline.
    Timeout,
    /// The bounded retry budget ran out without a delivered exchange.
    RetriesExhausted {
        /// Attempts made.
        attempts: usize,
    },
    /// The peer sent a legal frame at an illegal time.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (stream desynchronized)"),
            NetError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            NetError::BadType(t) => write!(f, "unknown message type {t}"),
            NetError::ChecksumMismatch { got, want } => {
                write!(
                    f,
                    "frame checksum mismatch: got {got:#018x}, want {want:#018x}"
                )
            }
            NetError::Decode(msg) => write!(f, "payload decode error: {msg}"),
            NetError::Nack { code, detail } => {
                write!(f, "peer rejected frame ({code:?}): {detail}")
            }
            NetError::HandshakeRejected(msg) => write!(f, "handshake rejected: {msg}"),
            NetError::Timeout => write!(f, "read deadline exceeded"),
            NetError::RetriesExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

/// A decoded (verified) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type.
    pub ty: MsgType,
    /// Flag bits.
    pub flags: u8,
    /// Payload bytes (checksum already verified).
    pub payload: Vec<u8>,
}

/// Encodes a complete frame (header + payload + checksum trailer).
pub fn encode_frame(ty: MsgType, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(ty as u8);
    out.push(flags);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a_64(&out[..HEADER_LEN + payload.len()]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses a frame header, returning `(version, type_byte, flags,
/// payload_len)`. Only the magic is validated here — version and type
/// are checked in [`decode_frame`] *after* the whole frame has been
/// consumed, so a reject never desynchronizes the stream.
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u16, u8, u8, u32), NetError> {
    if h[0..4] != MAGIC {
        return Err(NetError::BadMagic([h[0], h[1], h[2], h[3]]));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if len > MAX_PAYLOAD {
        return Err(NetError::Decode(format!(
            "frame payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    Ok((version, h[6], h[7], len))
}

/// Validates a complete frame (header + payload + trailer) and returns
/// the decoded [`Frame`]. Checksum is verified before version/type so a
/// corrupted frame is always reported as corruption, never as a bogus
/// version.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, NetError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(NetError::Decode(format!(
            "frame of {} bytes is shorter than header+trailer",
            bytes.len()
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (version, ty, flags, len) = parse_header(&header)?;
    let body_end = HEADER_LEN + len as usize;
    if bytes.len() != body_end + TRAILER_LEN {
        return Err(NetError::Decode(format!(
            "frame length {} disagrees with header payload length {len}",
            bytes.len()
        )));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[body_end..]);
    let got = u64::from_le_bytes(sum);
    let want = fnv1a_64(&bytes[..body_end]);
    if got != want {
        return Err(NetError::ChecksumMismatch { got, want });
    }
    if version != PROTOCOL_VERSION {
        return Err(NetError::BadVersion(version));
    }
    let ty = MsgType::from_u8(ty).ok_or(NetError::BadType(ty))?;
    Ok(Frame {
        ty,
        flags,
        payload: bytes[HEADER_LEN..body_end].to_vec(),
    })
}

// ---------------------------------------------------------------------------
// Trace context (FLAG_TRACE payload prefix)
// ---------------------------------------------------------------------------

/// Distributed-tracing context carried as a fixed-size payload prefix
/// behind [`FLAG_TRACE`]: which trace the frame belongs to, which UE
/// span the receiver's work should be parented under, and the simulated
/// window the receiver's spans must land in (the receiver has no
/// `SimClock` of its own — simulated time is UE-owned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id of the originating run (never 0 when tracing).
    pub trace_id: u64,
    /// UE span id the receiver parents its spans under.
    pub parent_span: u64,
    /// Simulated start of the receiver's window, microseconds.
    pub sim_anchor_us: u64,
    /// Simulated duration of the receiver's window, microseconds.
    pub sim_dur_us: u64,
}

impl TraceContext {
    /// Encoded size of the payload prefix.
    pub const WIRE_LEN: usize = 32;

    /// Fixed-layout little-endian encoding.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.parent_span.to_le_bytes());
        out[16..24].copy_from_slice(&self.sim_anchor_us.to_le_bytes());
        out[24..32].copy_from_slice(&self.sim_dur_us.to_le_bytes());
        out
    }

    /// Returns the payload with this context prepended, plus the flag
    /// bit the frame must carry.
    pub fn prepend(&self, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut out = Vec::with_capacity(Self::WIRE_LEN + payload.len());
        out.extend_from_slice(&self.encode());
        out.extend_from_slice(payload);
        (FLAG_TRACE, out)
    }

    /// Splits a received payload according to `flags`: the context (when
    /// [`FLAG_TRACE`] is set) and the remaining message payload.
    pub fn strip(flags: u8, payload: &[u8]) -> Result<(Option<TraceContext>, &[u8]), NetError> {
        if flags & FLAG_TRACE == 0 {
            return Ok((None, payload));
        }
        if payload.len() < Self::WIRE_LEN {
            return Err(NetError::Decode(format!(
                "FLAG_TRACE set but payload is {} bytes (< {} context bytes)",
                payload.len(),
                Self::WIRE_LEN
            )));
        }
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[off..off + 8]);
            u64::from_le_bytes(b)
        };
        let ctx = TraceContext {
            trace_id: u64_at(0),
            parent_span: u64_at(8),
            sim_anchor_us: u64_at(16),
            sim_dur_us: u64_at(24),
        };
        Ok((Some(ctx), &payload[Self::WIRE_LEN..]))
    }
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` LE.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bits, LE.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (u16) UTF-8 string, truncated to 64 KiB.
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let n = bytes.len().min(u16::MAX as usize);
        self.u16(n as u16);
        self.buf.extend_from_slice(&bytes[..n]);
    }

    /// Appends every element of `t` as raw f32 LE bits.
    pub fn f32_slice(&mut self, data: &[f32]) {
        self.buf.reserve(data.len() * 4);
        for &v in data {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Little-endian payload reader with typed errors (never panics on
/// truncated input).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn expect_empty(&self) -> Result<(), NetError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(NetError::Decode(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Decode(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` LE.
    pub fn u16(&mut self) -> Result<u16, NetError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` LE.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` LE.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` from its LE bits.
    pub fn f32(&mut self) -> Result<f32, NetError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, NetError> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| NetError::Decode("string field is not UTF-8".into()))
    }

    /// Reads `n` raw f32 values.
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, NetError> {
        let b = self.take(
            n.checked_mul(4)
                .ok_or_else(|| NetError::Decode("f32 vector length overflows".into()))?,
        )?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// SessionSpec (Hello payload)
// ---------------------------------------------------------------------------

use sl_core::{PoolingDim, RnnCell, Scheme};

/// Everything the BS needs to mirror the UE's model half: the handshake
/// payload. The BS rebuilds the *identical* [`sl_core::SplitModel`] from
/// these fields plus `seed` before any training byte flows, and the
/// wiring is validated through [`sl_core::WiringSpec`] first.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Input scheme (RF / Img / Img+RF).
    pub scheme: Scheme,
    /// Cut-layer pooling window.
    pub pooling: PoolingDim,
    /// Camera image height.
    pub image_h: usize,
    /// Camera image width.
    pub image_w: usize,
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Minibatch size `B`.
    pub batch_size: usize,
    /// UE conv channels.
    pub conv_channels: usize,
    /// BS recurrent width.
    pub hidden_dim: usize,
    /// BS recurrent cell.
    pub rnn_cell: RnnCell,
    /// Cut-layer quantizer depth `R` (1..=24).
    pub bit_depth: usize,
    /// Adam learning rate (the BS optimizer must match the UE's).
    pub learning_rate: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Model-init seed; both halves draw identical initial parameters
    /// from it.
    pub seed: u64,
    /// Distributed-tracing id for this run; `0` means tracing is off
    /// and the BS records no spans for the session.
    pub trace_id: u64,
}

impl SessionSpec {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(match self.scheme {
            Scheme::RfOnly => 0,
            Scheme::ImgOnly => 1,
            Scheme::ImgRf => 2,
        });
        e.u8(match self.rnn_cell {
            RnnCell::Lstm => 0,
            RnnCell::Gru => 1,
        });
        e.u8(self.bit_depth as u8);
        e.u16(self.pooling.h as u16);
        e.u16(self.pooling.w as u16);
        e.u16(self.image_h as u16);
        e.u16(self.image_w as u16);
        e.u16(self.seq_len as u16);
        e.u16(self.batch_size as u16);
        e.u16(self.conv_channels as u16);
        e.u16(self.hidden_dim as u16);
        e.f32(self.learning_rate);
        e.f32(self.grad_clip);
        e.u64(self.seed);
        e.u64(self.trace_id);
        e.finish()
    }

    /// Wire decoding with typed errors.
    pub fn decode(payload: &[u8]) -> Result<SessionSpec, NetError> {
        let mut d = Dec::new(payload);
        let scheme = match d.u8()? {
            0 => Scheme::RfOnly,
            1 => Scheme::ImgOnly,
            2 => Scheme::ImgRf,
            v => return Err(NetError::Decode(format!("unknown scheme byte {v}"))),
        };
        let rnn_cell = match d.u8()? {
            0 => RnnCell::Lstm,
            1 => RnnCell::Gru,
            v => return Err(NetError::Decode(format!("unknown rnn cell byte {v}"))),
        };
        let bit_depth = d.u8()? as usize;
        if !(1..=24).contains(&bit_depth) {
            return Err(NetError::Decode(format!(
                "bit depth {bit_depth} outside 1..=24"
            )));
        }
        let spec = SessionSpec {
            scheme,
            rnn_cell,
            bit_depth,
            pooling: PoolingDim::new(d.u16()? as usize, d.u16()? as usize),
            image_h: d.u16()? as usize,
            image_w: d.u16()? as usize,
            seq_len: d.u16()? as usize,
            batch_size: d.u16()? as usize,
            conv_channels: d.u16()? as usize,
            hidden_dim: d.u16()? as usize,
            learning_rate: d.f32()?,
            grad_clip: d.f32()?,
            seed: d.u64()?,
            trace_id: d.u64()?,
        };
        d.expect_empty()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Quantized activation packing
// ---------------------------------------------------------------------------

/// Bit-packs quantized activations (each on the `2^R`-level grid
/// `k / (2^R − 1)`) into `R` bits per value, MSB-first, for `R` in
/// `1..=24`. This is the *actual* uplink payload — `values.len() · R`
/// bits, matching the paper's `B_UL` formula. A value off the grid (not
/// finite, outside `[0, 1]` or between two levels) is a
/// [`NetError::Decode`].
pub fn pack_activations(values: &[f32], bit_depth: usize) -> Result<Vec<u8>, NetError> {
    debug_assert!((1..=24).contains(&bit_depth));
    let max = (1u32 << bit_depth) - 1;
    let mut out = vec![0u8; (values.len() * bit_depth).div_ceil(8)];
    let mut bit = 0usize;
    for &q in values {
        let Some(k) = level_of(q, max) else {
            return Err(NetError::Decode(format!(
                "packed activations: value {q} is not on the {bit_depth}-bit quantizer grid"
            )));
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

/// Unpacks `count` `R`-bit levels packed by [`pack_activations`] and
/// reconstructs the grid values `k / (2^R − 1)` — bit-identical to what
/// the UE quantizer produced. A byte count other than `⌈count · R / 8⌉`
/// is a [`NetError::Decode`].
pub fn unpack_activations(
    packed: &[u8],
    count: usize,
    bit_depth: usize,
) -> Result<Vec<f32>, NetError> {
    debug_assert!((1..=24).contains(&bit_depth));
    let need = (count * bit_depth).div_ceil(8);
    if packed.len() != need {
        return Err(NetError::Decode(format!(
            "packed activations: got {} bytes, want {need} for {count} x {bit_depth}-bit values",
            packed.len()
        )));
    }
    let maxf = ((1u32 << bit_depth) - 1) as f32;
    let mut out = Vec::with_capacity(count);
    let mut bit = 0usize;
    for _ in 0..count {
        let mut k = 0u32;
        for _ in 0..bit_depth {
            k = (k << 1) | ((packed[bit / 8] >> (7 - bit % 8)) & 1) as u32;
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

// ---------------------------------------------------------------------------
// Message payload codecs
// ---------------------------------------------------------------------------

/// One training-step request as it crosses the uplink: shapes, packed
/// cut activations (empty for RF-only), the normalized power history,
/// and the normalized targets.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRequest {
    /// Minibatch size `B`.
    pub batch: usize,
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Pooled activation height (0 for RF-only).
    pub pooled_h: usize,
    /// Pooled activation width (0 for RF-only).
    pub pooled_w: usize,
    /// Bit-packed `R`-bit cut activations, `B·L·ph·pw` values.
    pub packed: Vec<u8>,
    /// Normalized powers, `B·L` values.
    pub powers: Vec<f32>,
    /// Normalized targets, `B` values.
    pub targets: Vec<f32>,
}

impl StepRequest {
    /// The message type this request travels as.
    pub fn msg_type(&self) -> MsgType {
        if self.pooled_h == 0 {
            MsgType::RfSamples
        } else {
            MsgType::Activations
        }
    }

    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u16(self.batch as u16);
        e.u16(self.seq_len as u16);
        e.u16(self.pooled_h as u16);
        e.u16(self.pooled_w as u16);
        e.u32(self.packed.len() as u32);
        e.bytes(&self.packed);
        e.f32_slice(&self.powers);
        e.f32_slice(&self.targets);
        e.finish()
    }

    /// Wire decoding with typed errors.
    pub fn decode(payload: &[u8]) -> Result<StepRequest, NetError> {
        let mut d = Dec::new(payload);
        let batch = d.u16()? as usize;
        let seq_len = d.u16()? as usize;
        let pooled_h = d.u16()? as usize;
        let pooled_w = d.u16()? as usize;
        if batch == 0 || seq_len == 0 {
            return Err(NetError::Decode(format!(
                "degenerate step shape B={batch} L={seq_len}"
            )));
        }
        let packed_len = d.u32()? as usize;
        let packed = d.bytes(packed_len)?.to_vec();
        let powers = d.f32_vec(batch * seq_len)?;
        let targets = d.f32_vec(batch)?;
        d.expect_empty()?;
        Ok(StepRequest {
            batch,
            seq_len,
            pooled_h,
            pooled_w,
            packed,
            powers,
            targets,
        })
    }
}

/// The BS's reply to a training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReply {
    /// Minibatch MSE loss.
    pub loss: f32,
    /// BS-half post-clip global gradient norm.
    pub bs_grad_norm: f32,
    /// Raw (unclipped) cut-layer gradient, `B·L·ph·pw` values; empty for
    /// RF-only.
    pub cut_grad: Vec<f32>,
}

impl StepReply {
    /// Wire encoding (the reply frame's flags are 0).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.f32(self.loss);
        e.f32(self.bs_grad_norm);
        e.u32(self.cut_grad.len() as u32);
        e.f32_slice(&self.cut_grad);
        e.finish()
    }

    /// Wire decoding with typed errors.
    pub fn decode(payload: &[u8]) -> Result<StepReply, NetError> {
        let mut d = Dec::new(payload);
        let loss = d.f32()?;
        let bs_grad_norm = d.f32()?;
        let n = d.u32()? as usize;
        let cut_grad = d.f32_vec(n)?;
        d.expect_empty()?;
        Ok(StepReply {
            loss,
            bs_grad_norm,
            cut_grad,
        })
    }
}

/// A validation forward request (no gradients, no optimizer step).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Minibatch size `B`.
    pub batch: usize,
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Pooled activation height (0 for RF-only).
    pub pooled_h: usize,
    /// Pooled activation width (0 for RF-only).
    pub pooled_w: usize,
    /// Bit-packed cut activations (empty for RF-only).
    pub packed: Vec<u8>,
    /// Normalized powers, `B·L` values.
    pub powers: Vec<f32>,
}

impl EvalRequest {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u16(self.batch as u16);
        e.u16(self.seq_len as u16);
        e.u16(self.pooled_h as u16);
        e.u16(self.pooled_w as u16);
        e.u32(self.packed.len() as u32);
        e.bytes(&self.packed);
        e.f32_slice(&self.powers);
        e.finish()
    }

    /// Wire decoding with typed errors.
    pub fn decode(payload: &[u8]) -> Result<EvalRequest, NetError> {
        let mut d = Dec::new(payload);
        let batch = d.u16()? as usize;
        let seq_len = d.u16()? as usize;
        let pooled_h = d.u16()? as usize;
        let pooled_w = d.u16()? as usize;
        if batch == 0 || seq_len == 0 {
            return Err(NetError::Decode(format!(
                "degenerate eval shape B={batch} L={seq_len}"
            )));
        }
        let packed_len = d.u32()? as usize;
        let packed = d.bytes(packed_len)?.to_vec();
        let powers = d.f32_vec(batch * seq_len)?;
        d.expect_empty()?;
        Ok(EvalRequest {
            batch,
            seq_len,
            pooled_h,
            pooled_w,
            packed,
            powers,
        })
    }
}

/// Encodes a `Predictions` payload from the `[B, 1]` prediction tensor.
pub fn encode_predictions(pred: &Tensor) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(pred.data().len() as u32);
    e.f32_slice(pred.data());
    e.finish()
}

/// Decodes a `Predictions` payload.
pub fn decode_predictions(payload: &[u8]) -> Result<Vec<f32>, NetError> {
    let mut d = Dec::new(payload);
    let n = d.u32()? as usize;
    let out = d.f32_vec(n)?;
    d.expect_empty()?;
    Ok(out)
}

/// Encodes a `Nack` payload.
pub fn encode_nack(code: NackCode, detail: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(code as u16);
    e.str(detail);
    e.finish()
}

/// Decodes a `Nack` payload.
pub fn decode_nack(payload: &[u8]) -> Result<(NackCode, String), NetError> {
    let mut d = Dec::new(payload);
    let raw = d.u16()?;
    let code = NackCode::from_u16(raw)
        .ok_or_else(|| NetError::Decode(format!("unknown nack code {raw}")))?;
    let detail = d.str()?;
    d.expect_empty()?;
    Ok((code, detail))
}

/// Encodes a `ConfigAck` payload: the BS echoes the wiring facts it
/// derived so the UE can cross-check before the first step.
pub fn encode_config_ack(pooled_pixels: usize, feature_dim: usize, params: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(pooled_pixels as u32);
    e.u32(feature_dim as u32);
    e.u64(params);
    e.finish()
}

/// Decodes a `ConfigAck` payload into `(pooled_pixels, feature_dim,
/// parameter_count)`.
pub fn decode_config_ack(payload: &[u8]) -> Result<(usize, usize, u64), NetError> {
    let mut d = Dec::new(payload);
    let p = d.u32()? as usize;
    let f = d.u32()? as usize;
    let params = d.u64()?;
    d.expect_empty()?;
    Ok((p, f, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;
    use sl_rng::Rng;

    #[test]
    fn msg_type_all_roundtrips_through_the_wire_byte() {
        for (i, ty) in MsgType::ALL.iter().enumerate() {
            assert_eq!(*ty as u8, i as u8 + 1, "ALL must stay in wire-byte order");
            assert_eq!(MsgType::from_u8(*ty as u8), Some(*ty));
        }
        assert_eq!(MsgType::from_u8(0), None);
        assert_eq!(MsgType::from_u8(MsgType::ALL.len() as u8 + 1), None);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello split learning".to_vec();
        let bytes = encode_frame(MsgType::Heartbeat, 0b1, &payload);
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.ty, MsgType::Heartbeat);
        assert_eq!(frame.flags, 1);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn corrupted_payload_is_a_typed_checksum_error() {
        let mut bytes = encode_frame(MsgType::Gradients, 0, &[1, 2, 3, 4]);
        bytes[HEADER_LEN] ^= 0xff;
        match decode_frame(&bytes) {
            Err(NetError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_trailer_is_a_typed_checksum_error() {
        let mut bytes = encode_frame(MsgType::Heartbeat, 0, &[]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(NetError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_typed_and_checked_after_checksum() {
        // Hand-roll a version-99 frame with a correct checksum.
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&99u16.to_le_bytes());
        raw.push(MsgType::Hello as u8);
        raw.push(0);
        raw.extend_from_slice(&0u32.to_le_bytes());
        let sum = fnv1a_64(&raw);
        raw.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_frame(&raw), Err(NetError::BadVersion(99))));
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = encode_frame(MsgType::Heartbeat, 0, &[]);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn unknown_type_is_typed() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        raw.push(200);
        raw.push(0);
        raw.extend_from_slice(&0u32.to_le_bytes());
        let sum = fnv1a_64(&raw);
        raw.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_frame(&raw), Err(NetError::BadType(200))));
    }

    #[test]
    fn session_spec_roundtrip() {
        let spec = SessionSpec {
            scheme: Scheme::ImgRf,
            pooling: PoolingDim::new(4, 4),
            image_h: 16,
            image_w: 16,
            seq_len: 8,
            batch_size: 16,
            conv_channels: 3,
            hidden_dim: 24,
            rnn_cell: RnnCell::Gru,
            bit_depth: 8,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            seed: 0xdead_beef,
            trace_id: 0x0123_4567_89ab_cdef,
        };
        let decoded = SessionSpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn trace_context_prepend_strip_roundtrip() {
        let ctx = TraceContext {
            trace_id: u64::MAX - 7,
            parent_span: (1 << 63) | 42,
            sim_anchor_us: 1_250_000,
            sim_dur_us: 310,
        };
        let body = b"inner payload".to_vec();
        let (flags, payload) = ctx.prepend(&body);
        assert_eq!(flags, FLAG_TRACE);
        assert_eq!(payload.len(), TraceContext::WIRE_LEN + body.len());
        let (got, rest) = TraceContext::strip(flags, &payload).unwrap();
        assert_eq!(got, Some(ctx));
        assert_eq!(rest, &body[..]);
        // Without the flag the payload passes through untouched.
        let (none, all) = TraceContext::strip(0, &payload).unwrap();
        assert!(none.is_none());
        assert_eq!(all, &payload[..]);
    }

    #[test]
    fn trace_flag_without_context_bytes_is_a_typed_error() {
        let short = [0u8; TraceContext::WIRE_LEN - 1];
        assert!(matches!(
            TraceContext::strip(FLAG_TRACE, &short),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn activations_pack_bit_exact_across_depths() {
        let mut rng = StdRng::seed_from_u64(9);
        for bit_depth in [1usize, 2, 3, 7, 8, 12, 16, 24] {
            let max = (1u32 << bit_depth) - 1;
            let values: Vec<f32> = (0..257)
                .map(|_| rng.random_range(0..=max) as f32 / max as f32)
                .collect();
            let packed = pack_activations(&values, bit_depth).unwrap();
            assert_eq!(packed.len(), (values.len() * bit_depth).div_ceil(8));
            let back = unpack_activations(&packed, values.len(), bit_depth).unwrap();
            for (a, b) in values.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "R={bit_depth}");
            }
        }
    }

    #[test]
    fn every_level_round_trips() {
        // Exhaustive over each grid: `level_of`'s ±1 neighbour search must
        // recover every k in 0..=2^R−1, not just a random sample.
        for bit_depth in [1usize, 3, 8, 12] {
            let max = (1u32 << bit_depth) - 1;
            let values: Vec<f32> = (0..=max).map(|k| k as f32 / max as f32).collect();
            let packed = pack_activations(&values, bit_depth).unwrap();
            assert_eq!(packed.len(), (values.len() * bit_depth).div_ceil(8));
            let back = unpack_activations(&packed, values.len(), bit_depth).unwrap();
            assert_eq!(back.len(), values.len());
            for (k, (a, b)) in values.iter().zip(&back).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "R={bit_depth} k={k}");
            }
        }
    }

    #[test]
    fn quantizer_output_is_exactly_representable() {
        // End to end with the real quantizer: arbitrary floats in, the
        // packed wire payload reconstructs the quantized tensor bitwise.
        let mut rng = StdRng::seed_from_u64(10);
        let q = sl_core::Quantizer::new(8);
        let raw: Vec<f32> = (0..512).map(|_| rng.random_range(-0.2..1.2)).collect();
        let t = Tensor::from_slice(&raw);
        let quant = q.quantize(&t);
        let packed = pack_activations(quant.data(), 8).unwrap();
        let back = unpack_activations(&packed, quant.data().len(), 8).unwrap();
        for (a, b) in quant.data().iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn off_grid_value_is_a_typed_error_not_a_panic() {
        assert!(matches!(
            pack_activations(&[0.123_456_7], 8),
            Err(NetError::Decode(_))
        ));
        assert!(matches!(
            pack_activations(&[f32::NAN], 8),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn step_request_roundtrip() {
        let req = StepRequest {
            batch: 4,
            seq_len: 3,
            pooled_h: 2,
            pooled_w: 2,
            packed: pack_activations(&[0.0f32; 48], 8).unwrap(),
            powers: (0..12).map(|i| i as f32 * 0.25).collect(),
            targets: vec![0.5, -0.5, 1.0, 0.0],
        };
        assert_eq!(req.msg_type(), MsgType::Activations);
        let back = StepRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn step_reply_roundtrip() {
        let reply = StepReply {
            loss: 0.75,
            bs_grad_norm: 2.5,
            cut_grad: vec![0.1, -0.2, 0.3],
        };
        let payload = reply.encode();
        assert_eq!(StepReply::decode(&payload).unwrap(), reply);
        // Eight trailing bytes are a typed error, not silently ignored.
        let mut longer = payload;
        longer.extend_from_slice(&0.001234f64.to_le_bytes());
        assert!(matches!(
            StepReply::decode(&longer),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn truncated_payloads_decode_to_typed_errors() {
        let req = StepRequest {
            batch: 2,
            seq_len: 2,
            pooled_h: 0,
            pooled_w: 0,
            packed: Vec::new(),
            powers: vec![0.0; 4],
            targets: vec![0.0; 2],
        };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(StepRequest::decode(&bytes[..cut]), Err(NetError::Decode(_))),
                "truncation at {cut} must not panic or succeed"
            );
        }
    }

    #[test]
    fn nack_roundtrip() {
        let payload = encode_nack(NackCode::WiringRejected, "pooling exceeds image");
        let (code, detail) = decode_nack(&payload).unwrap();
        assert_eq!(code, NackCode::WiringRejected);
        assert_eq!(detail, "pooling exceeds image");
    }
}
