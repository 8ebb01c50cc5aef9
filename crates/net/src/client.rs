//! The UE side of the split-learning link: a framed connection with
//! bounded retry/timeout/backoff, riding on the fault-injecting
//! [`Faulty`] transport.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sl_core::LinkTrace;
use sl_telemetry::{Telemetry, Value};

use crate::fault::{FaultCounters, FaultPlan, Faulty};
use crate::wire::{
    decode_config_ack, decode_frame, decode_nack, encode_frame, parse_header, Frame, MsgType,
    NackCode, NetError, SessionSpec, StepReply, StepRequest, TraceContext, HEADER_LEN, TRAILER_LEN,
};

/// Bounds on the client's persistence. The *base* retry budget for one
/// exchange is the armed fault plan's length (every planned fault earns
/// exactly one retry) plus `max_extra_attempts` headroom for unplanned
/// trouble; once it is spent the exchange fails with
/// [`NetError::RetriesExhausted`] instead of looping forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts beyond the armed fault plan's length.
    pub max_extra_attempts: usize,
    /// Read deadline per reply (maps to `TcpStream::set_read_timeout`).
    pub read_timeout: Duration,
    /// Sleep after a timeout before resending, multiplied by the attempt
    /// number (linear backoff). Nack-triggered retries do not back off —
    /// the peer is demonstrably alive.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_extra_attempts: 4,
            read_timeout: Duration::from_millis(2000),
            backoff: Duration::from_millis(20),
        }
    }
}

/// Connection/frame/retry/fault counters, published under `net.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Frames handed to the transport (including faulted copies).
    pub frames_sent: u64,
    /// Frames received intact.
    pub frames_received: u64,
    /// Bytes handed to the transport.
    pub bytes_sent: u64,
    /// Bytes received (including frames later rejected).
    pub bytes_received: u64,
    /// Exchanges resent after a Nack or timeout.
    pub retries: u64,
    /// Read deadlines that expired.
    pub timeouts: u64,
    /// Nack frames we sent (received-side corruption).
    pub nacks_sent: u64,
    /// Nack frames the peer sent us.
    pub nacks_received: u64,
    /// Completed handshakes.
    pub handshakes: u64,
}

impl NetMetrics {
    /// Publishes every counter (plus the transport's fault counters)
    /// into `tele` under the `net.*` namespace.
    pub fn publish(&self, faults: FaultCounters, tele: &mut Telemetry) {
        tele.add("net.frames.sent", self.frames_sent);
        tele.add("net.frames.received", self.frames_received);
        tele.add("net.bytes.sent", self.bytes_sent);
        tele.add("net.bytes.received", self.bytes_received);
        tele.add("net.retries", self.retries);
        tele.add("net.timeouts", self.timeouts);
        tele.add("net.nacks.sent", self.nacks_sent);
        tele.add("net.nacks.received", self.nacks_received);
        tele.add("net.handshakes", self.handshakes);
        tele.add("net.faults.frames", faults.frames);
        tele.add("net.faults.corrupted", faults.corrupted);
        tele.add("net.faults.dropped", faults.dropped);
        tele.add("net.faults.delayed", faults.delayed);
        tele.add("net.faults.delay_slots", faults.delay_slots);
    }
}

/// A framed, metric-counting connection over any byte stream. Both ends
/// of the protocol use this; fault plans are armed by the UE only.
#[derive(Debug)]
pub struct Connection<S> {
    stream: Faulty<S>,
    /// Live counters for this connection.
    pub metrics: NetMetrics,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps a connected byte stream.
    pub fn new(stream: S) -> Self {
        Connection {
            stream: Faulty::new(stream),
            metrics: NetMetrics::default(),
        }
    }

    /// The fault-injection layer (to arm plans / read counters).
    pub fn faults(&mut self) -> &mut Faulty<S> {
        &mut self.stream
    }

    /// Sends one frame.
    pub fn send(&mut self, ty: MsgType, flags: u8, payload: &[u8]) -> Result<(), NetError> {
        let bytes = encode_frame(ty, flags, payload);
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        self.metrics.frames_sent += 1;
        self.metrics.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// Receives one frame, verifying checksum/version/type. A checksum
    /// mismatch leaves the stream aligned on the next frame boundary.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or_eof(&mut self.stream, &mut header)?;
        let (_, _, _, len) = parse_header(&header)?;
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        let mut frame = vec![0u8; total];
        frame[..HEADER_LEN].copy_from_slice(&header);
        self.stream
            .read_exact(&mut frame[HEADER_LEN..])
            .map_err(NetError::from)?;
        self.metrics.bytes_received += total as u64;
        let decoded = decode_frame(&frame)?;
        self.metrics.frames_received += 1;
        Ok(decoded)
    }
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), NetError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Protocol("peer closed the connection mid-session".into())
        } else {
            NetError::from(e)
        }
    })
}

/// The UE's protocol driver: handshake, reliable request/reply
/// exchanges with planned fault injection, and clean shutdown.
#[derive(Debug)]
pub struct UeClient<S> {
    conn: Connection<S>,
    retry: RetryPolicy,
}

impl UeClient<TcpStream> {
    /// Connects over TCP and applies the policy's read deadline.
    pub fn connect<A: ToSocketAddrs>(addr: A, retry: RetryPolicy) -> Result<Self, NetError> {
        // slm-lint: allow(no-nondeterminism) sl-net's whole purpose is real socket I/O; determinism is preserved at the protocol layer (DESIGN.md §9)
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream
            .set_read_timeout(Some(retry.read_timeout))
            .map_err(NetError::Io)?;
        stream.set_nodelay(true).ok();
        Ok(UeClient::from_stream(stream, retry))
    }
}

impl<S: Read + Write> UeClient<S> {
    /// Wraps an already-connected byte stream (tests use in-memory or
    /// pre-configured sockets).
    pub fn from_stream(stream: S, retry: RetryPolicy) -> Self {
        UeClient {
            conn: Connection::new(stream),
            retry,
        }
    }

    /// This connection's counters.
    pub fn metrics(&self) -> NetMetrics {
        self.conn.metrics
    }

    /// The transport's fault counters.
    pub fn fault_counters(&mut self) -> FaultCounters {
        self.conn.faults().counters()
    }

    /// Publishes all `net.*` counters into `tele`.
    pub fn publish_metrics(&mut self, tele: &mut Telemetry) {
        let faults = self.conn.faults().counters();
        self.conn.metrics.publish(faults, tele);
    }

    /// Performs the config handshake. The session starts only after the
    /// BS has validated the wiring against `sl_core::WiringSpec`;
    /// a rejection surfaces as [`NetError::HandshakeRejected`] carrying
    /// the BS's per-layer trace.
    pub fn handshake(&mut self, spec: &SessionSpec) -> Result<(usize, usize, u64), NetError> {
        let reply = self.request(
            MsgType::Hello,
            0,
            &spec.encode(),
            MsgType::ConfigAck,
            0,
            None,
        )?;
        let ack = decode_config_ack(&reply.payload)?;
        self.conn.metrics.handshakes += 1;
        Ok(ack)
    }

    /// Runs one training step across the link: the request crosses the
    /// uplink under `uplink_plan`, the gradient reply crosses the
    /// downlink under `downlink_plan` (both usually derived from the
    /// channel simulator's slot counts). When `trace` is given, the
    /// request frame carries a [`TraceContext`] (FLAG_TRACE) naming the
    /// step's `bs.compute` span, so the BS can stitch its spans under
    /// the UE's trace. Any retry/Nack/timeout recovery is recorded in
    /// the UE's tracer as a zero-width span at the step's simulated
    /// end, parented to the step's root: the windows were charged
    /// before the bytes moved, and the `window` attribute says which
    /// direction misbehaved.
    ///
    /// `_reserved` is ignored: the request never sets frame bit 0 and
    /// the reply carries only the loss, the BS gradient norm and the cut
    /// gradient. The argument keeps existing callers' signature.
    pub fn train_step(
        &mut self,
        req: &StepRequest,
        _reserved: bool,
        uplink_plan: FaultPlan,
        downlink_plan: FaultPlan,
        mut trace: Option<LinkTrace<'_>>,
    ) -> Result<StepReply, NetError> {
        let ty = req.msg_type();
        let mut flags = 0;
        let plan_budget = uplink_plan.len() + downlink_plan.len();
        self.conn.faults().arm_write(uplink_plan, Some(ty as u8));
        self.conn
            .faults()
            .arm_read(downlink_plan, Some(MsgType::Gradients as u8));
        let encoded = req.encode();
        let payload = match &trace {
            Some(t) => {
                let ctx = TraceContext {
                    trace_id: t.tracer.trace_id(),
                    parent_span: t.bs_span,
                    sim_anchor_us: t.bs_start_us,
                    sim_dur_us: t.bs_dur_us,
                };
                let (flag, with_ctx) = ctx.prepend(&encoded);
                flags |= flag;
                with_ctx
            }
            None => encoded,
        };
        let reply = self.request(
            ty,
            flags,
            &payload,
            MsgType::Gradients,
            plan_budget,
            trace.as_mut(),
        )?;
        StepReply::decode(&reply.payload)
    }

    /// Runs one validation forward (always clean: validation does not
    /// cross the simulated channel, matching the in-process trainer).
    pub fn eval(&mut self, req: &crate::wire::EvalRequest) -> Result<Vec<f32>, NetError> {
        let reply = self.request(
            MsgType::EvalBatch,
            0,
            &req.encode(),
            MsgType::Predictions,
            0,
            None,
        )?;
        crate::wire::decode_predictions(&reply.payload)
    }

    /// Liveness probe.
    pub fn heartbeat(&mut self) -> Result<(), NetError> {
        self.request(MsgType::Heartbeat, 0, &[], MsgType::Heartbeat, 0, None)
            .map(|_| ())
    }

    /// Clean shutdown: tells the BS the session is over and waits for
    /// the echo.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        self.request(MsgType::Shutdown, 0, &[], MsgType::Shutdown, 0, None)
            .map(|_| ())
    }

    /// One reliable exchange: send the request, await the expected reply
    /// type, resending on Nack or timeout and Nack-ing corrupted replies
    /// so the BS resends. Bounded by `plan_budget` (one retry per
    /// planned fault) plus the policy's extra attempts. Recovery events
    /// are recorded into `trace` (when given) as zero-width spans
    /// parented to the transfer window they belong to.
    fn request(
        &mut self,
        ty: MsgType,
        flags: u8,
        payload: &[u8],
        expect: MsgType,
        plan_budget: usize,
        mut trace: Option<&mut LinkTrace<'_>>,
    ) -> Result<Frame, NetError> {
        // Every planned fault earns exactly one recovery round; the
        // policy's extra attempts absorb unplanned trouble. Every
        // failure event (Nack, corrupted reply, timeout) spends one
        // unit, so even a peer streaming corrupt frames forever cannot
        // pin the client in a loop.
        let budget = plan_budget + self.retry.max_extra_attempts;
        let mut failures = 0usize;
        let mut resends = 0usize;
        'resend: loop {
            self.conn.send(ty, flags, payload)?;
            // Await the reply; corrupted replies are Nack'd and re-read
            // without resending the request.
            loop {
                match self.conn.recv() {
                    Ok(frame) if frame.ty == expect => return Ok(frame),
                    Ok(frame) if frame.ty == MsgType::Nack => {
                        self.conn.metrics.nacks_received += 1;
                        let (code, detail) = decode_nack(&frame.payload)?;
                        match code {
                            // The peer saw a corrupted copy — resend.
                            NackCode::ChecksumMismatch => {
                                self.conn.metrics.retries += 1;
                                failures += 1;
                                if failures > budget {
                                    return Err(NetError::RetriesExhausted {
                                        attempts: resends + 1,
                                    });
                                }
                                resends += 1;
                                if let Some(t) = trace.as_deref_mut() {
                                    t.tracer.record_under(
                                        t.root,
                                        "net.retry",
                                        "net",
                                        t.end_us,
                                        0,
                                        vec![
                                            ("attempt".into(), Value::U64(resends as u64)),
                                            ("window".into(), Value::Str("uplink".into())),
                                        ],
                                    );
                                }
                                continue 'resend;
                            }
                            NackCode::WiringRejected => {
                                return Err(NetError::HandshakeRejected(detail))
                            }
                            _ => return Err(NetError::Nack { code, detail }),
                        }
                    }
                    Ok(frame) => {
                        return Err(NetError::Protocol(format!(
                            "expected {expect:?} or Nack, got {:?}",
                            frame.ty
                        )))
                    }
                    Err(NetError::ChecksumMismatch { .. }) => {
                        // Reply corrupted in flight: ask the BS to resend
                        // its cached reply; our request was delivered.
                        self.conn.metrics.retries += 1;
                        failures += 1;
                        if failures > budget {
                            return Err(NetError::RetriesExhausted {
                                attempts: resends + 1,
                            });
                        }
                        self.conn.send(
                            MsgType::Nack,
                            0,
                            &crate::wire::encode_nack(
                                NackCode::ChecksumMismatch,
                                "reply failed checksum",
                            ),
                        )?;
                        self.conn.metrics.nacks_sent += 1;
                        if let Some(t) = trace.as_deref_mut() {
                            t.tracer.record_under(
                                t.root,
                                "net.nack_sent",
                                "net",
                                t.end_us,
                                0,
                                vec![
                                    ("attempt".into(), Value::U64(failures as u64)),
                                    ("window".into(), Value::Str("downlink".into())),
                                ],
                            );
                        }
                        continue;
                    }
                    Err(NetError::Timeout) => {
                        // Nothing arrived (request or reply dropped):
                        // back off linearly and resend the request.
                        self.conn.metrics.timeouts += 1;
                        self.conn.metrics.retries += 1;
                        failures += 1;
                        if failures > budget {
                            return Err(NetError::RetriesExhausted {
                                attempts: resends + 1,
                            });
                        }
                        if !self.retry.backoff.is_zero() {
                            std::thread::sleep(self.retry.backoff * failures as u32);
                        }
                        resends += 1;
                        if let Some(t) = trace.as_deref_mut() {
                            t.tracer.record_under(
                                t.root,
                                "net.timeout",
                                "net",
                                t.end_us,
                                0,
                                vec![("attempt".into(), Value::U64(resends as u64))],
                            );
                        }
                        continue 'resend;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
}
