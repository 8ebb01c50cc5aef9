//! sl-net: the socket-based UE↔BS split-learning runtime.
//!
//! Everything the in-process `sl_core::SplitTrainer` does with a
//! function call, this crate does over a real byte stream (std::net TCP
//! in its `slm-bs` binary and in `sl-bench`'s `fig3a --addr`, any
//! `Read + Write` in tests):
//!
//! * [`wire`] — the versioned framed binary protocol: 12-byte header
//!   (magic `SLNF`, version, type, flags, length), payload, FNV-1a-64
//!   trailer; bit-packed `R`-bit cut-layer activations; typed
//!   [`NetError`]s for every malformed input.
//! * [`fault`] — [`Faulty`], a deterministic fault-injecting transport
//!   wrapper (seeded or planned corrupt/drop/delay at frame
//!   granularity) that drives the retry machinery in tests and realizes
//!   the channel simulator's retransmissions on the wire.
//! * [`client`] — [`UeClient`]: framed connection, config handshake,
//!   bounded retry/timeout/backoff, `net.*` metrics.
//! * [`server`] — [`BsServer`] / [`serve_session`]: multi-client BS
//!   serving the back half behind a shared compute lock, rejecting
//!   miswired sessions at handshake time via `sl_core::WiringSpec`.
//! * [`trainer`] — [`NetTrainer`]: the UE training loop, byte-identical
//!   (at `SLM_THREADS=1`) to the in-process trainer's learning curve.
//!
//! The wire protocol carries **exact** `f32` bit patterns (losses,
//! gradients, predictions) and grid-level-packed activations, so
//! nothing is lost crossing the link — determinism is a protocol
//! property, not an accident (DESIGN.md §9).

pub mod client;
pub mod fault;
pub mod server;
pub mod trainer;
pub mod wire;

pub use client::{Connection, NetMetrics, RetryPolicy, UeClient};
pub use fault::{FaultAction, FaultCounters, FaultPlan, Faulty};
pub use server::{serve_session, BsServer, SessionSummary};
pub use trainer::NetTrainer;
pub use wire::{
    decode_frame, encode_frame, EvalRequest, Frame, MsgType, NackCode, NetError, SessionSpec,
    StepReply, StepRequest, TraceContext, FLAG_TRACE, PROTOCOL_VERSION,
};
