//! Property-based fuzzing of the wire codec: every frame and payload
//! round-trips bit-exactly, and no mutation of a valid frame — or raw
//! garbage — ever panics the decoder (typed errors only).

use sl_core::{PoolingDim, Scheme};
use sl_net::wire::{
    decode_frame, encode_frame, pack_activations, unpack_activations, MsgType, SessionSpec,
    StepReply, StepRequest, TraceContext, FLAG_TRACE,
};
use sl_net::{FaultPlan, NetError};
use sl_rng::rngs::StdRng;
use sl_rng::{cases, Rng};

const CASES: usize = 64;

fn any_msg_type(rng: &mut StdRng) -> MsgType {
    MsgType::from_u8(rng.random_range(1u8..=10)).expect("1..=10 are all valid types")
}

/// `len` random bytes for a `len` drawn from `lens`.
fn bytes(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.random_range(lens);
    (0..len).map(|_| rng.random_range(0u8..=255)).collect()
}

fn any_payload(rng: &mut StdRng) -> Vec<u8> {
    bytes(rng, 0..256)
}

#[test]
fn frames_roundtrip_bit_exactly() {
    cases("frames_roundtrip_bit_exactly", CASES, |rng| {
        let ty = any_msg_type(rng);
        let flags = rng.random_range(0u8..=3);
        let payload = any_payload(rng);
        let bytes = encode_frame(ty, flags, &payload);
        let frame = decode_frame(&bytes).expect("own encoding decodes");
        assert_eq!(frame.ty, ty);
        assert_eq!(frame.flags, flags);
        assert_eq!(frame.payload, payload);
    });
}

#[test]
fn single_byte_corruption_never_decodes_and_never_panics() {
    cases(
        "single_byte_corruption_never_decodes_and_never_panics",
        CASES,
        |rng| {
            let ty = any_msg_type(rng);
            let payload = any_payload(rng);
            let pos = rng.random_range(0usize..1000);
            let flip = rng.random_range(1u8..=255);
            let mut bytes = encode_frame(ty, 0, &payload);
            let pos = pos % bytes.len();
            bytes[pos] ^= flip;
            // Whatever byte was hit — magic, version, type, length, payload
            // or checksum — the decoder reports a typed error. (A length
            // corruption makes the buffer the wrong size for its header;
            // everything else fails the checksum or field validation.)
            assert!(decode_frame(&bytes).is_err());
        },
    );
}

#[test]
fn truncation_never_panics() {
    cases("truncation_never_panics", CASES, |rng| {
        let ty = any_msg_type(rng);
        let payload = any_payload(rng);
        let keep = rng.random_range(0usize..300);
        let bytes = encode_frame(ty, 0, &payload);
        let keep = keep.min(bytes.len().saturating_sub(1));
        assert!(decode_frame(&bytes[..keep]).is_err());
    });
}

#[test]
fn garbage_never_panics() {
    cases("garbage_never_panics", CASES, |rng| {
        // Random bytes essentially never carry a valid FNV trailer; what
        // matters is that the decoder returns instead of panicking.
        let _ = decode_frame(&bytes(rng, 0..64));
    });
}

#[test]
fn activation_packing_roundtrips_every_grid_level() {
    cases(
        "activation_packing_roundtrips_every_grid_level",
        CASES,
        |rng| {
            let bit_depth = rng.random_range(1usize..=24);
            let max = (1u32 << bit_depth) - 1;
            // Empty input included: it packs to zero bytes.
            let len = rng.random_range(0usize..96);
            let values: Vec<f32> = (0..len)
                .map(|_| (rng.random_range(0u32..=0xFF_FFFF) % (max + 1)) as f32 / max as f32)
                .collect();
            let packed = pack_activations(&values, bit_depth).expect("grid values pack");
            assert_eq!(packed.len(), (values.len() * bit_depth).div_ceil(8));
            let back = unpack_activations(&packed, values.len(), bit_depth).expect("unpack");
            assert_eq!(back.len(), values.len());
            for (a, b) in values.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        },
    );
}

#[test]
fn off_grid_activations_are_typed_errors() {
    cases("off_grid_activations_are_typed_errors", CASES, |rng| {
        let bit_depth = rng.random_range(1usize..=12);
        let noise = rng.random_range(0.00004f32..0.49);
        // Halfway between grid points is never representable.
        let max = (1u32 << bit_depth) - 1;
        let q = (0.5 + noise) / max as f32;
        let r = pack_activations(&[q], bit_depth);
        assert!(
            matches!(r, Err(NetError::Decode(_))),
            "expected a typed Decode error for off-grid {q}, got {r:?}"
        );
    });
}

#[test]
fn packer_rejects_non_finite_and_off_grid() {
    cases("packer_rejects_non_finite_and_off_grid", CASES, |rng| {
        let bit_depth = rng.random_range(1usize..13);
        let q = f32::from_bits(rng.random_range(0u32..=u32::MAX));
        match pack_activations(&[q], bit_depth) {
            // Accepted values must be exactly representable levels.
            Ok(packed) => {
                let back = unpack_activations(&packed, 1, bit_depth).expect("unpack");
                assert_eq!(back[0].to_bits(), q.to_bits());
            }
            Err(NetError::Decode(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic_the_unpacker() {
    cases("arbitrary_bytes_never_panic_the_unpacker", CASES, |rng| {
        let junk = bytes(rng, 0..96);
        let count = rng.random_range(0usize..64);
        // Any outcome is fine except a panic or a silently-wrong length.
        if let Ok(values) = unpack_activations(&junk, count, 7) {
            assert_eq!(values.len(), count);
        }
    });
}

#[test]
fn step_request_roundtrips() {
    cases("step_request_roundtrips", CASES, |rng| {
        let b = rng.random_range(1usize..9);
        let l = rng.random_range(1usize..5);
        let ph = rng.random_range(1usize..5);
        let pw = rng.random_range(1usize..5);
        let bit_depth = rng.random_range(1usize..=16);
        let raw_len = rng.random_range(1usize..64);
        let raw: Vec<u32> = (0..raw_len)
            .map(|_| rng.random_range(0u32..=0xFFFF))
            .collect();
        let max = (1u32 << bit_depth) - 1;
        let count = b * l * ph * pw;
        let values: Vec<f32> = (0..count)
            .map(|i| (raw[i % raw.len()] % (max + 1)) as f32 / max as f32)
            .collect();
        let req = StepRequest {
            batch: b,
            seq_len: l,
            pooled_h: ph,
            pooled_w: pw,
            packed: pack_activations(&values, bit_depth).expect("pack"),
            powers: (0..b * l).map(|i| i as f32 * 0.125 - 1.0).collect(),
            targets: (0..b).map(|i| i as f32 * 0.25).collect(),
        };
        assert_eq!(req.msg_type(), MsgType::Activations);
        let back = StepRequest::decode(&req.encode()).expect("decode");
        assert_eq!(back, req);
    });
}

#[test]
fn step_reply_roundtrips() {
    cases("step_reply_roundtrips", CASES, |rng| {
        let grad_len = rng.random_range(0usize..64);
        let reply = StepReply {
            loss: rng.random_range(0.0f32..10.0),
            bs_grad_norm: rng.random_range(0.0f32..100.0),
            cut_grad: (0..grad_len)
                .map(|_| rng.random_range(-1.0f32..1.0))
                .collect(),
        };
        let back = StepReply::decode(&reply.encode()).expect("decode");
        assert_eq!(back, reply);
    });
}

#[test]
fn session_spec_roundtrips() {
    cases("session_spec_roundtrips", CASES, |rng| {
        let image_h = rng.random_range(1usize..64);
        let image_w = rng.random_range(1usize..64);
        let spec = SessionSpec {
            scheme: [Scheme::RfOnly, Scheme::ImgOnly, Scheme::ImgRf][rng.random_range(0usize..3)],
            pooling: PoolingDim::new(1 + image_h % 8, 1 + image_w % 8),
            image_h,
            image_w,
            seq_len: rng.random_range(1usize..8),
            batch_size: rng.random_range(1usize..128),
            conv_channels: rng.random_range(1usize..16),
            hidden_dim: rng.random_range(1usize..64),
            rnn_cell: [sl_core::RnnCell::Lstm, sl_core::RnnCell::Gru][rng.random_range(0usize..2)],
            bit_depth: rng.random_range(1usize..=24),
            learning_rate: 1e-3,
            grad_clip: 5.0,
            seed: rng.random_range(0u64..u64::MAX),
            trace_id: rng.random_range(0u64..u64::MAX),
        };
        let back = SessionSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(back, spec);
    });
}

#[test]
fn trace_context_rides_any_frame_bit_exactly() {
    cases("trace_context_rides_any_frame_bit_exactly", CASES, |rng| {
        let ty = any_msg_type(rng);
        // Whatever the other flag bits hold rides along untouched.
        let other = rng.random_range(0u8..=255) & !FLAG_TRACE;
        let payload = any_payload(rng);
        let ctx = TraceContext {
            trace_id: rng.random_range(1u64..u64::MAX),
            parent_span: rng.random_range(1u64..u64::MAX),
            sim_anchor_us: rng.random_range(0u64..1 << 40),
            sim_dur_us: rng.random_range(0u64..1 << 30),
        };
        let (flag, with_ctx) = ctx.prepend(&payload);
        assert_eq!(flag, FLAG_TRACE);
        let bytes = encode_frame(ty, other | flag, &with_ctx);
        let frame = decode_frame(&bytes).expect("own encoding decodes");
        assert_eq!(frame.flags, other | FLAG_TRACE);
        let (back, body) = TraceContext::strip(frame.flags, &frame.payload).expect("strip");
        assert_eq!(back, Some(ctx));
        assert_eq!(body, &payload[..]);
    });
}

#[test]
fn untraced_frames_strip_to_no_context() {
    cases("untraced_frames_strip_to_no_context", CASES, |rng| {
        let payload = any_payload(rng);
        let flags = rng.random_range(0u8..=255) & !FLAG_TRACE;
        let bytes = encode_frame(MsgType::Activations, flags, &payload);
        let frame = decode_frame(&bytes).expect("decodes");
        let (ctx, body) = TraceContext::strip(frame.flags, &frame.payload).expect("strip");
        assert_eq!(ctx, None);
        assert_eq!(body, &payload[..]);
    });
}

#[test]
fn corrupted_trace_prefix_is_caught_by_the_checksum() {
    cases(
        "corrupted_trace_prefix_is_caught_by_the_checksum",
        CASES,
        |rng| {
            let payload = any_payload(rng);
            let pos = rng.random_range(0usize..32);
            let flip = rng.random_range(1u8..=255);
            // Flip one bit inside the 32-byte trace-context prefix: the FNV
            // trailer covers it, so the frame must fail checksum (never
            // deliver a silently-wrong trace id).
            let ctx = TraceContext {
                trace_id: 0x0123_4567_89ab_cdef,
                parent_span: (1 << 63) | 7,
                sim_anchor_us: 1_000_000,
                sim_dur_us: 2_500,
            };
            let (flag, with_ctx) = ctx.prepend(&payload);
            let mut bytes = encode_frame(MsgType::Activations, flag, &with_ctx);
            bytes[sl_net::wire::HEADER_LEN + pos] ^= flip;
            assert!(
                matches!(decode_frame(&bytes), Err(NetError::ChecksumMismatch { .. })),
                "corrupt trace prefix must fail the checksum"
            );
        },
    );
}

#[test]
fn retransmission_plans_have_one_fault_per_extra_slot() {
    cases(
        "retransmission_plans_have_one_fault_per_extra_slot",
        CASES,
        |rng| {
            let extra = rng.random_range(0u64..64);
            let plan = FaultPlan::retransmissions(extra);
            assert_eq!(plan.len() as u64, extra);
        },
    );
}
