//! The BS side of the split-learning link: a multi-client TCP server
//! whose per-session protocol loop is generic over any `Read + Write`
//! stream (so tests can drive it without sockets).
//!
//! Handshake state machine (DESIGN.md §9):
//!
//! ```text
//!         Hello(SessionSpec)
//!   Idle ────────────────────▶ wiring check (sl_core::WiringSpec)
//!                               │ ok: ConfigAck        │ err: Nack(WiringRejected)
//!                               ▼                      ▼
//!                            Training ◀─┐            closed
//!     Activations/RfSamples ──▶ step ───┘ Gradients
//!     EvalBatch ──────────────▶ forward ─┘ Predictions
//!     Nack ───────────────────▶ resend cached reply
//!     Heartbeat ──────────────▶ echo
//!     Shutdown ───────────────▶ echo, close
//! ```
//!
//! Every session rebuilds the *identical* model the UE derives from the
//! handshake seed, runs the same `sl_core::bs_half_step` as the
//! in-process trainer, and never panics on malformed input — bad frames
//! come back as typed `Nack`s.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::thread;

use sl_rng::rngs::StdRng;

use sl_core::{bs_half_step, session_label, SplitModel, WiringSpec};
use sl_nn::Adam;
use sl_telemetry::{SpanRecord, Tracer, Value, BS_SPAN_NAMESPACE};
use sl_tensor::Tensor;

use crate::client::Connection;
use crate::wire::{
    encode_config_ack, encode_nack, encode_predictions, unpack_activations, EvalRequest, MsgType,
    NackCode, NetError, SessionSpec, StepReply, StepRequest, TraceContext,
};

/// What one session did, for operator reporting.
#[derive(Debug, Clone, Default)]
pub struct SessionSummary {
    /// Human-readable config label (empty before a handshake).
    pub config: String,
    /// Training steps applied.
    pub steps: u64,
    /// Validation forwards served.
    pub evals: u64,
    /// Heartbeats echoed.
    pub heartbeats: u64,
    /// Nacks sent (corrupted/invalid frames received).
    pub nacks_sent: u64,
    /// Nacks received (our replies corrupted in flight).
    pub nacks_received: u64,
    /// Cached replies resent on request.
    pub resends: u64,
    /// Frames received intact.
    pub frames_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Whether the session ended with a clean Shutdown exchange.
    pub clean_shutdown: bool,
    /// BS-side spans recorded under the UE's trace id (empty unless the
    /// handshake carried a nonzero `SessionSpec::trace_id`). Span ids
    /// live in [`BS_SPAN_NAMESPACE`] so they never collide with the
    /// UE-side counter.
    pub spans: Vec<SpanRecord>,
}

/// Per-session training state, built after a validated handshake.
struct Session {
    spec: SessionSpec,
    model: SplitModel,
    opt_bs: Adam,
    pooled: (usize, usize),
}

impl Session {
    fn build(spec: SessionSpec) -> Result<(Session, Vec<u8>), String> {
        let wiring = WiringSpec {
            scheme: spec.scheme,
            pooling: spec.pooling,
            image_h: spec.image_h,
            image_w: spec.image_w,
            seq_len: spec.seq_len,
            batch_size: spec.batch_size,
            conv_channels: spec.conv_channels,
            hidden_dim: spec.hidden_dim,
            rnn_cell: spec.rnn_cell,
            bs_feature_dim: None,
        };
        let report = wiring.check().map_err(|e| e.to_string())?;
        // Identical init draws to the UE: same seed, same constructor
        // argument order, same RNG stream.
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut model = SplitModel::with_cell(
            spec.scheme,
            spec.pooling,
            spec.image_h,
            spec.image_w,
            spec.seq_len,
            spec.conv_channels,
            spec.hidden_dim,
            spec.bit_depth,
            spec.rnn_cell,
            &mut rng,
        );
        let ack = encode_config_ack(
            report.pooled_pixels,
            report.feature_dim,
            model.parameter_count() as u64,
        );
        let pooled = spec.pooling.output_size(spec.image_h, spec.image_w);
        Ok((
            Session {
                opt_bs: Adam::new(spec.learning_rate, 0.9, 0.999, 1e-8),
                spec,
                model,
                pooled,
            },
            ack,
        ))
    }

    /// Decodes the request's cut activations (validating shape) and the
    /// power history.
    fn decode_inputs(
        &self,
        batch: usize,
        seq_len: usize,
        pooled_h: usize,
        pooled_w: usize,
        packed: &[u8],
        powers: Vec<f32>,
    ) -> Result<(Option<Tensor>, Tensor), String> {
        if seq_len != self.spec.seq_len {
            return Err(format!(
                "sequence length {seq_len} != session L {}",
                self.spec.seq_len
            ));
        }
        let uses_images = self.spec.scheme.uses_images();
        let cut = if uses_images {
            let (ph, pw) = self.pooled;
            if (pooled_h, pooled_w) != (ph, pw) {
                return Err(format!(
                    "pooled shape {pooled_h}x{pooled_w} != session {ph}x{pw}"
                ));
            }
            let count = batch * seq_len * ph * pw;
            let values = unpack_activations(packed, count, self.spec.bit_depth)
                .map_err(|e| e.to_string())?;
            Some(
                Tensor::from_vec([batch * seq_len, 1, ph, pw], values)
                    .map_err(|e| format!("cut tensor: {e}"))?,
            )
        } else {
            if pooled_h != 0 || pooled_w != 0 || !packed.is_empty() {
                return Err("RF-only session received image activations".into());
            }
            None
        };
        let powers =
            Tensor::from_vec([batch, seq_len], powers).map_err(|e| format!("power tensor: {e}"))?;
        Ok((cut, powers))
    }

    /// One BS-side training step: the shared `sl_core::bs_half_step`,
    /// the same code the in-process trainer calls.
    fn train_step(&mut self, req: StepRequest) -> Result<StepReply, String> {
        if req.batch != self.spec.batch_size {
            return Err(format!(
                "step batch {} != session batch {}",
                req.batch, self.spec.batch_size
            ));
        }
        let (cut, powers) = self.decode_inputs(
            req.batch,
            req.seq_len,
            req.pooled_h,
            req.pooled_w,
            &req.packed,
            req.powers,
        )?;
        let targets = Tensor::from_vec([req.batch, 1], req.targets)
            .map_err(|e| format!("target tensor: {e}"))?;
        let reply = bs_half_step(
            &mut self.model,
            &mut self.opt_bs,
            cut.as_ref(),
            &powers,
            &targets,
            self.spec.grad_clip,
        );
        Ok(StepReply {
            loss: reply.loss,
            bs_grad_norm: reply.grad_norm,
            cut_grad: reply.cut_grad.map(Tensor::into_vec).unwrap_or_default(),
        })
    }

    /// One validation forward (no gradients, no update, no caches).
    fn eval(&self, req: EvalRequest) -> Result<Vec<u8>, String> {
        let (cut, powers) = self.decode_inputs(
            req.batch,
            req.seq_len,
            req.pooled_h,
            req.pooled_w,
            &req.packed,
            req.powers,
        )?;
        let pred = self
            .model
            .infer_bs(cut.as_ref(), &powers, req.batch, req.seq_len);
        Ok(encode_predictions(&pred))
    }
}

/// Serves one complete session over any byte stream. `compute_lock`
/// serializes model compute across concurrent sessions of a
/// multi-client server (network I/O stays concurrent).
///
/// Returns the session summary; protocol-fatal conditions (desync,
/// socket death) surface as `Err`.
pub fn serve_session<S: Read + Write>(
    stream: S,
    compute_lock: &Mutex<()>,
) -> Result<SessionSummary, NetError> {
    let mut conn = Connection::new(stream);
    let mut summary = SessionSummary::default();
    let mut session: Option<Session> = None;
    // The last substantive reply, cached so a Nack'd (corrupted) reply
    // can be resent without recomputing — recomputing would double-apply
    // the optimizer step.
    let mut last_reply: Option<(MsgType, Vec<u8>)> = None;
    // BS-side tracing: created at handshake when the UE announces a
    // trace id; spans stitch under the UE's trace via the per-step
    // wire context. `last_end_us` is the latest simulated instant the
    // UE has told us about — recovery spans (which arrive without a
    // readable context) anchor there.
    let mut tracer: Option<Tracer> = None;
    let mut last_end_us: u64 = 0;

    macro_rules! nack {
        ($code:expr, $detail:expr) => {{
            conn.send(MsgType::Nack, 0, &encode_nack($code, $detail))?;
            summary.nacks_sent += 1;
        }};
    }

    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(NetError::ChecksumMismatch { .. }) => {
                // Corrupted in flight but frame-aligned: ask for a resend.
                nack!(NackCode::ChecksumMismatch, "frame failed checksum");
                if let Some(t) = tracer.as_mut() {
                    t.record_under(
                        0,
                        "bs.nack_sent",
                        "net",
                        last_end_us,
                        0,
                        vec![("count".into(), Value::U64(summary.nacks_sent))],
                    );
                }
                continue;
            }
            Err(NetError::BadVersion(v)) => {
                // Speak-once mismatch: tell the peer, then close — there
                // is no point retrying a version disagreement.
                nack!(
                    NackCode::BadVersion,
                    &format!("protocol version {v} not supported")
                );
                summary.frames_received = conn.metrics.frames_received;
                summary.bytes_received = conn.metrics.bytes_received;
                return Ok(summary);
            }
            Err(NetError::BadType(t)) => {
                nack!(NackCode::BadType, &format!("unknown message type {t}"));
                continue;
            }
            Err(e) => return Err(e),
        };

        match frame.ty {
            MsgType::Hello => {
                if session.is_some() {
                    nack!(NackCode::Protocol, "duplicate Hello");
                    continue;
                }
                let spec = match SessionSpec::decode(&frame.payload) {
                    Ok(s) => s,
                    Err(e) => {
                        nack!(NackCode::Protocol, &format!("bad SessionSpec: {e}"));
                        continue;
                    }
                };
                // The wiring contract gates the session: not a single
                // training byte flows over a miswired split.
                match Session::build(spec) {
                    Ok((s, ack)) => {
                        summary.config = session_label(s.spec.scheme, s.spec.pooling);
                        if s.spec.trace_id != 0 {
                            tracer = Some(Tracer::with_namespace(
                                s.spec.trace_id,
                                "bs",
                                BS_SPAN_NAMESPACE,
                            ));
                        }
                        session = Some(s);
                        conn.send(MsgType::ConfigAck, 0, &ack)?;
                        last_reply = Some((MsgType::ConfigAck, ack));
                    }
                    Err(detail) => {
                        nack!(NackCode::WiringRejected, &detail);
                        summary.frames_received = conn.metrics.frames_received;
                        summary.bytes_received = conn.metrics.bytes_received;
                        return Ok(summary);
                    }
                }
            }
            MsgType::Activations | MsgType::RfSamples => {
                let Some(sess) = session.as_mut() else {
                    nack!(NackCode::Protocol, "training step before handshake");
                    continue;
                };
                // Peel the optional trace context off the payload before
                // the step request proper.
                let (ctx, body) = match TraceContext::strip(frame.flags, &frame.payload) {
                    Ok(x) => x,
                    Err(e) => {
                        nack!(NackCode::Protocol, &format!("bad trace context: {e}"));
                        continue;
                    }
                };
                if let Some(c) = ctx {
                    last_end_us = c.sim_anchor_us.saturating_add(c.sim_dur_us);
                }
                let req = match StepRequest::decode(body) {
                    Ok(r) => r,
                    Err(e) => {
                        nack!(NackCode::Protocol, &format!("bad step request: {e}"));
                        continue;
                    }
                };
                let reply = {
                    let _guard = compute_lock.lock().unwrap_or_else(|e| e.into_inner());
                    sess.train_step(req)
                };
                match reply {
                    Ok(reply) => {
                        summary.steps += 1;
                        // Stitch the BS compute under the UE's per-step
                        // `bs.compute` span via the wire context.
                        if let (Some(t), Some(c)) = (tracer.as_mut(), ctx) {
                            t.record_under(
                                c.parent_span,
                                "bs.step",
                                "bs",
                                c.sim_anchor_us,
                                c.sim_dur_us,
                                vec![
                                    ("session".into(), Value::Str(summary.config.clone())),
                                    ("step".into(), Value::U64(summary.steps)),
                                    ("loss".into(), Value::F64(f64::from(reply.loss))),
                                ],
                            );
                        }
                        let payload = reply.encode();
                        conn.send(MsgType::Gradients, 0, &payload)?;
                        last_reply = Some((MsgType::Gradients, payload));
                    }
                    Err(detail) => nack!(NackCode::Protocol, &detail),
                }
            }
            MsgType::EvalBatch => {
                let Some(sess) = session.as_mut() else {
                    nack!(NackCode::Protocol, "eval before handshake");
                    continue;
                };
                let req = match EvalRequest::decode(&frame.payload) {
                    Ok(r) => r,
                    Err(e) => {
                        nack!(NackCode::Protocol, &format!("bad eval request: {e}"));
                        continue;
                    }
                };
                let reply = {
                    let _guard = compute_lock.lock().unwrap_or_else(|e| e.into_inner());
                    sess.eval(req)
                };
                match reply {
                    Ok(payload) => {
                        summary.evals += 1;
                        conn.send(MsgType::Predictions, 0, &payload)?;
                        last_reply = Some((MsgType::Predictions, payload));
                    }
                    Err(detail) => nack!(NackCode::Protocol, &detail),
                }
            }
            MsgType::Nack => {
                // Our reply got corrupted in flight: resend the cached
                // copy byte-for-byte.
                summary.nacks_received += 1;
                match &last_reply {
                    Some((ty, payload)) => {
                        summary.resends += 1;
                        conn.send(*ty, 0, payload)?;
                        if let Some(t) = tracer.as_mut() {
                            t.record_under(
                                0,
                                "bs.resend",
                                "net",
                                last_end_us,
                                0,
                                vec![("count".into(), Value::U64(summary.resends))],
                            );
                        }
                    }
                    None => nack!(NackCode::Protocol, "nothing to resend"),
                }
            }
            MsgType::Heartbeat => {
                summary.heartbeats += 1;
                conn.send(MsgType::Heartbeat, 0, &[])?;
                last_reply = Some((MsgType::Heartbeat, Vec::new()));
            }
            MsgType::Shutdown => {
                conn.send(MsgType::Shutdown, 0, &[])?;
                summary.clean_shutdown = true;
                summary.frames_received = conn.metrics.frames_received;
                summary.bytes_received = conn.metrics.bytes_received;
                if let Some(t) = tracer.as_mut() {
                    summary.spans = t.drain();
                }
                return Ok(summary);
            }
            MsgType::ConfigAck | MsgType::Gradients | MsgType::Predictions => {
                nack!(
                    NackCode::Protocol,
                    &format!("{:?} is a BS->UE message", frame.ty)
                );
            }
        }
    }
}

/// A multi-client BS server: one OS thread per connection, model compute
/// serialized through a shared lock.
#[derive(Debug)]
pub struct BsServer {
    listener: TcpListener,
}

impl BsServer {
    /// Binds the listener (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<BsServer> {
        // slm-lint: allow(no-nondeterminism) sl-net's whole purpose is real socket I/O; determinism is preserved at the protocol layer (DESIGN.md §9)
        let listener = TcpListener::bind(addr)?;
        Ok(BsServer { listener })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves sessions until `max_sessions` have completed
    /// (`None`: serve forever), one thread per connection, invoking
    /// `on_session` *as each session finishes* (in completion order)
    /// with its id (the 0-based accept order), peer address and
    /// outcome. A journaling caller can therefore flush per-session
    /// state the moment it exists — a dying server never holds hours of
    /// summaries only in memory.
    pub fn serve<F>(&self, max_sessions: Option<usize>, on_session: F)
    where
        F: FnMut(u64, SocketAddr, Result<SessionSummary, NetError>),
    {
        let mut on_session = on_session;
        let compute_lock = Mutex::new(());
        let (tx, rx) = mpsc::channel();
        thread::scope(|scope| {
            let lock = &compute_lock;
            let accept_tx = tx;
            // slm-lint: allow(no-nondeterminism) connection handling is sl-net's concurrency domain; model compute stays serialized behind the session lock
            scope.spawn(move || {
                let mut accepted = 0u64;
                for incoming in self.listener.incoming() {
                    let stream: TcpStream = match incoming {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    stream.set_nodelay(true).ok();
                    let peer = stream
                        .peer_addr()
                        .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
                    let id = accepted;
                    let tx = accept_tx.clone();
                    // slm-lint: allow(no-nondeterminism) connection handling is sl-net's concurrency domain; model compute stays serialized behind the session lock
                    scope.spawn(move || {
                        tx.send((id, peer, serve_session(stream, lock))).ok();
                    });
                    accepted += 1;
                    if let Some(max) = max_sessions {
                        if accepted >= max as u64 {
                            break;
                        }
                    }
                }
                // Dropping the accept loop's sender (and its clones as
                // sessions finish) ends the result stream below.
            });
            for (id, peer, result) in rx {
                on_session(id, peer, result);
            }
        });
    }
}
