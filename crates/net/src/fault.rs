//! Deterministic fault injection for the framed transport.
//!
//! [`Faulty`] wraps any `Read + Write` byte stream and perturbs it at
//! **frame** granularity: it scans the byte stream for `sl-net` frame
//! boundaries (the 12-byte header carries the payload length, and the
//! fault injector never touches headers, so it can always stay aligned)
//! and applies one [`FaultAction`] per matching frame, popped from an
//! armed [`FaultPlan`].
//!
//! Faults are *planned*, not sampled inline: the networked trainer
//! derives each step's plan from the same seeded
//! [`sl_channel::TransferSimulator`] draws the in-process trainer makes
//! — a payload the channel model says took `n` slots to deliver becomes
//! `n − 1` corrupted frames followed by one clean one. That keeps the
//! loopback run byte-identical to the simulation while exercising the
//! real retry machinery. Random plans for stress tests come from
//! [`FaultPlan::seeded`], which draws from a seeded [`sl_rng::rngs::StdRng`].
//!
//! Corruption flips exactly one byte: the first payload byte, or the
//! first checksum byte when the payload is empty. Headers and lengths
//! stay intact, so a corrupted frame is received as a frame-aligned
//! [`crate::NetError::ChecksumMismatch`] — a typed error, never a
//! desynchronized stream.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use sl_rng::rngs::StdRng;
use sl_rng::Rng;

use crate::wire::{HEADER_LEN, TRAILER_LEN};

/// What happens to one frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass through untouched.
    Deliver,
    /// Flip the first payload byte (first checksum byte for empty
    /// payloads) — the receiver sees a checksum mismatch.
    Corrupt,
    /// Swallow the frame entirely (write side only) — the receiver sees
    /// nothing and the sender's read deadline expires.
    Drop,
    /// Deliver, but account the frame as delayed by this many slots
    /// (bookkeeping only; no wall-clock sleep, determinism is sacred).
    Delay(u32),
}

/// An ordered per-frame fault schedule. Frames beyond the plan are
/// delivered clean.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: VecDeque<FaultAction>,
}

impl FaultPlan {
    /// The empty plan (everything delivers).
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit action list.
    pub fn from_actions(actions: Vec<FaultAction>) -> Self {
        FaultPlan {
            actions: actions.into(),
        }
    }

    /// The channel-derived plan: `failures` corrupted frames, then clean
    /// delivery — exactly a `TransferSimulator` outcome of
    /// `failures + 1` slots.
    pub fn retransmissions(failures: u64) -> Self {
        FaultPlan {
            actions: (0..failures).map(|_| FaultAction::Corrupt).collect(),
        }
    }

    /// A seeded random plan for stress tests: each of `len` frames is
    /// corrupted with probability `corrupt_p`, dropped with `drop_p`,
    /// delayed with `delay_p` (in that priority order), else delivered.
    pub fn seeded(seed: u64, len: usize, corrupt_p: f64, drop_p: f64, delay_p: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let actions = (0..len)
            .map(|_| {
                let u: f64 = rng.random_range(0.0..1.0);
                if u < corrupt_p {
                    FaultAction::Corrupt
                } else if u < corrupt_p + drop_p {
                    FaultAction::Drop
                } else if u < corrupt_p + drop_p + delay_p {
                    FaultAction::Delay(1 + (rng.random_range(0.0..1.0) * 4.0) as u32)
                } else {
                    FaultAction::Deliver
                }
            })
            .collect();
        FaultPlan { actions }
    }

    /// Actions still pending.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are pending.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    fn pop(&mut self) -> FaultAction {
        self.actions.pop_front().unwrap_or(FaultAction::Deliver)
    }
}

/// Counters over every fault actually applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames that passed through the injector (either direction).
    pub frames: u64,
    /// Frames whose payload byte was flipped.
    pub corrupted: u64,
    /// Frames swallowed on the write side.
    pub dropped: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Total slots of injected delay.
    pub delay_slots: u64,
}

impl FaultCounters {
    fn apply(&mut self, action: FaultAction) {
        self.frames += 1;
        match action {
            FaultAction::Deliver => {}
            FaultAction::Corrupt => self.corrupted += 1,
            FaultAction::Drop => self.dropped += 1,
            FaultAction::Delay(slots) => {
                self.delayed += 1;
                self.delay_slots += slots as u64;
            }
        }
    }
}

/// One direction's plan plus its message-type scope.
#[derive(Debug, Default)]
struct ArmedPlan {
    plan: FaultPlan,
    /// When set, only frames of this wire type consume plan actions;
    /// all other frames deliver clean. This lets a step's downlink plan
    /// target `Gradients` frames without perturbing the `Nack` chatter
    /// of its own uplink retries.
    scope: Option<u8>,
}

impl ArmedPlan {
    fn action_for(&mut self, msg_type: u8) -> FaultAction {
        match self.scope {
            Some(scope) if scope != msg_type => FaultAction::Deliver,
            _ => self.plan.pop(),
        }
    }
}

/// A fault-injecting `Read + Write` wrapper over any transport.
///
/// Both directions buffer whole frames: a write is forwarded to the
/// inner stream only once the complete frame has been assembled (and
/// possibly corrupted or dropped); a read pulls one complete frame from
/// the inner stream, applies the read-side action, and serves the bytes.
/// Only framed `sl-net` traffic may pass through this wrapper.
#[derive(Debug)]
pub struct Faulty<T> {
    inner: T,
    write_plan: ArmedPlan,
    read_plan: ArmedPlan,
    /// Partial outbound frame not yet fully assembled.
    write_pending: Vec<u8>,
    /// Inbound bytes already faulted and ready for the caller.
    read_ready: Vec<u8>,
    read_pos: usize,
    /// Partial inbound frame accumulated across short reads/timeouts.
    read_pending: Vec<u8>,
    counters: FaultCounters,
}

impl<T> Faulty<T> {
    /// Wraps `inner` with no faults armed (fully transparent).
    pub fn new(inner: T) -> Self {
        Faulty {
            inner,
            write_plan: ArmedPlan::default(),
            read_plan: ArmedPlan::default(),
            write_pending: Vec::new(),
            read_ready: Vec::new(),
            read_pos: 0,
            read_pending: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Arms the write-side plan. With `scope`, only frames of that
    /// message type consume actions.
    pub fn arm_write(&mut self, plan: FaultPlan, scope: Option<u8>) {
        self.write_plan = ArmedPlan { plan, scope };
    }

    /// Arms the read-side plan (Corrupt/Delay/Deliver only — a frame
    /// that was already received cannot be un-sent).
    pub fn arm_read(&mut self, plan: FaultPlan, scope: Option<u8>) {
        assert!(
            !plan.actions.contains(&FaultAction::Drop),
            "Faulty: Drop is a write-side fault"
        );
        self.read_plan = ArmedPlan { plan, scope };
    }

    /// Fault counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }
}

/// Flips the fault byte of a complete frame in place: the first payload
/// byte, or the first trailer byte when the payload is empty.
fn corrupt_frame(frame: &mut [u8]) {
    debug_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
    frame[HEADER_LEN] ^= 0xff;
}

/// Total frame length once the 12 header bytes are known.
fn frame_len(header: &[u8]) -> usize {
    let payload = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    HEADER_LEN + payload + TRAILER_LEN
}

impl<T: Write> Write for Faulty<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_pending.extend_from_slice(buf);
        // Forward every fully-assembled frame.
        while self.write_pending.len() >= HEADER_LEN {
            let total = frame_len(&self.write_pending);
            if self.write_pending.len() < total {
                break;
            }
            let mut frame: Vec<u8> = self.write_pending.drain(..total).collect();
            let action = self.write_plan.action_for(frame[6]);
            self.counters.apply(action);
            match action {
                FaultAction::Drop => {}
                FaultAction::Corrupt => {
                    corrupt_frame(&mut frame);
                    self.inner.write_all(&frame)?;
                }
                FaultAction::Deliver | FaultAction::Delay(_) => {
                    self.inner.write_all(&frame)?;
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Faulty<T> {
    /// Pulls one complete frame from the inner stream into `read_ready`,
    /// applying the read-side action. Resumable: on a timeout mid-frame
    /// the partial bytes stay in `read_pending` for the next call.
    fn fill_one_frame(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        loop {
            let need = if self.read_pending.len() < HEADER_LEN {
                HEADER_LEN
            } else {
                frame_len(&self.read_pending)
            };
            if self.read_pending.len() >= need && need > HEADER_LEN {
                break;
            }
            let want = (need - self.read_pending.len()).min(chunk.len());
            let n = self.inner.read(&mut chunk[..want])?;
            if n == 0 {
                if self.read_pending.is_empty() {
                    return Ok(0); // clean EOF between frames
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ));
            }
            self.read_pending.extend_from_slice(&chunk[..n]);
        }
        let total = frame_len(&self.read_pending);
        let mut frame: Vec<u8> = self.read_pending.drain(..total).collect();
        let action = self.read_plan.action_for(frame[6]);
        self.counters.apply(action);
        if action == FaultAction::Corrupt {
            corrupt_frame(&mut frame);
        }
        self.read_ready = frame;
        self.read_pos = 0;
        Ok(total)
    }
}

impl<T: Read> Read for Faulty<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.read_pos >= self.read_ready.len() && self.fill_one_frame()? == 0 {
            return Ok(0);
        }
        let n = buf.len().min(self.read_ready.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.read_ready[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, MsgType, NetError};
    use std::io::Cursor;

    /// An in-memory sink implementing Write.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Read for Sink {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut f = Faulty::new(Sink::default());
        let frame = encode_frame(MsgType::Heartbeat, 0, b"ping");
        f.write_all(&frame).unwrap();
        assert_eq!(f.inner.0, frame);
        assert_eq!(f.counters().frames, 1);
        assert_eq!(f.counters().corrupted, 0);
    }

    #[test]
    fn corrupt_then_deliver_write_side() {
        let mut f = Faulty::new(Sink::default());
        f.arm_write(FaultPlan::retransmissions(1), None);
        let frame = encode_frame(MsgType::Activations, 0, &[9, 9, 9]);
        f.write_all(&frame).unwrap();
        f.write_all(&frame).unwrap();
        let written = &f.inner.0;
        assert_eq!(written.len(), frame.len() * 2);
        // First copy corrupted -> checksum mismatch; second clean.
        assert!(matches!(
            decode_frame(&written[..frame.len()]),
            Err(NetError::ChecksumMismatch { .. })
        ));
        assert!(decode_frame(&written[frame.len()..]).is_ok());
        assert_eq!(f.counters().corrupted, 1);
    }

    #[test]
    fn drop_swallows_the_frame() {
        let mut f = Faulty::new(Sink::default());
        f.arm_write(FaultPlan::from_actions(vec![FaultAction::Drop]), None);
        let frame = encode_frame(MsgType::Heartbeat, 0, &[]);
        f.write_all(&frame).unwrap();
        assert!(f.inner.0.is_empty());
        f.write_all(&frame).unwrap();
        assert_eq!(f.inner.0, frame);
        assert_eq!(f.counters().dropped, 1);
    }

    #[test]
    fn scope_limits_faults_to_one_message_type() {
        let mut f = Faulty::new(Sink::default());
        f.arm_write(
            FaultPlan::retransmissions(1),
            Some(MsgType::Activations as u8),
        );
        let nack = encode_frame(MsgType::Nack, 0, &[0, 0]);
        let act = encode_frame(MsgType::Activations, 0, &[1]);
        f.write_all(&nack).unwrap();
        f.write_all(&act).unwrap();
        let written = f.inner.0.clone();
        assert!(decode_frame(&written[..nack.len()]).is_ok(), "nack clean");
        assert!(
            matches!(
                decode_frame(&written[nack.len()..]),
                Err(NetError::ChecksumMismatch { .. })
            ),
            "activations corrupted"
        );
    }

    #[test]
    fn split_writes_reassemble_frames() {
        // Bytes dribbled one at a time must still fault whole frames.
        let mut f = Faulty::new(Sink::default());
        f.arm_write(FaultPlan::retransmissions(1), None);
        let frame = encode_frame(MsgType::Gradients, 0, &[7; 33]);
        for b in &frame {
            f.write_all(std::slice::from_ref(b)).unwrap();
        }
        assert!(matches!(
            decode_frame(&f.inner.0),
            Err(NetError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn read_side_corruption_and_delay() {
        let a = encode_frame(MsgType::Gradients, 0, &[1, 2, 3]);
        let b = encode_frame(MsgType::Gradients, 0, &[4, 5, 6]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut f = Faulty::new(Cursor::new(stream));
        f.arm_read(
            FaultPlan::from_actions(vec![FaultAction::Corrupt, FaultAction::Delay(3)]),
            None,
        );
        let mut buf = vec![0u8; a.len()];
        f.read_exact(&mut buf).unwrap();
        assert!(matches!(
            decode_frame(&buf),
            Err(NetError::ChecksumMismatch { .. })
        ));
        f.read_exact(&mut buf).unwrap();
        assert!(decode_frame(&buf).is_ok());
        assert_eq!(f.counters().delayed, 1);
        assert_eq!(f.counters().delay_slots, 3);
    }

    #[test]
    fn read_eof_between_frames_is_clean() {
        let mut f = Faulty::new(Cursor::new(Vec::<u8>::new()));
        let mut buf = [0u8; 16];
        assert_eq!(f.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 100, 0.3, 0.1, 0.1);
        let b = FaultPlan::seeded(42, 100, 0.3, 0.1, 0.1);
        assert_eq!(a.actions, b.actions);
        let c = FaultPlan::seeded(43, 100, 0.3, 0.1, 0.1);
        assert_ne!(a.actions, c.actions);
        assert!(a.actions.iter().any(|x| *x == FaultAction::Corrupt));
    }
}
