//! # `sl-core` — multimodal split learning for mmWave power prediction
//!
//! The paper's primary contribution, assembled from the workspace
//! substrates: a neural network **split across the wireless link** —
//! CNN layers on the mmWave UE processing depth-camera images, an
//! average-pooling *cut layer* compressing the CNN output to as little as
//! **one pixel**, and LSTM + dense layers at the BS fusing the received
//! image features with the RF received-power history to predict the
//! received power `T = 120 ms` ahead.
//!
//! * [`PoolingDim`] — the cut-layer compression knob (`1×1 … 40×40`).
//! * [`Scheme`] — `Img+RF` (the proposal) and the paper's two baselines,
//!   `Img`-only and `RF`-only.
//! * [`UeNetwork`] / [`BsNetwork`] / [`SplitModel`] — the two network
//!   halves and their composition, including `R`-bit cut-layer
//!   quantization ([`Quantizer`]).
//! * [`SplitTrainer`] — communication-aware training: every SGD step
//!   ships the forward activations uplink and the cut-layer gradients
//!   downlink through `sl-channel`'s slot-level simulator, and a
//!   [`SimClock`] accrues modelled compute time plus simulated airtime —
//!   producing the paper's "elapsed time in training" axis (Fig. 3a).
//!   It is the [`StepEngine`] over a direct call into the BS half; the
//!   engine's [`BsLink`] trait is how `sl-net` puts a socket there
//!   instead.
//! * [`TrainOutcome`] / [`CurvePoint`] — learning curves, stop-reason
//!   bookkeeping, and prediction traces for Fig. 3b.
//! * [`HealthMonitor`] — training-health watchdog on the UE half:
//!   tracks the loss EMA, gradient norms and non-finite counts each
//!   step and (per [`HealthAction`]) warns on or aborts demonstrably
//!   diverging runs.
//! * [`WiringSpec`] — pre-run static validation of the
//!   UE→pool→payload→BS shapes: propagates symbolic shapes through the
//!   actual layer stacks so a miswired configuration fails with a
//!   per-layer trace before training starts.
//! * [`StreamingDeployment`] / [`LinkPolicy`] — deployment: per-frame
//!   streaming inference over the simulated uplink and the proactive
//!   link controller the paper's predictions exist to enable.
//!
//! See `DESIGN.md` for the experiment map and `EXPERIMENTS.md` for
//! paper-vs-measured results.

mod baseline;
mod batch;
mod bs;
mod checkpoint;
mod clock;
mod config;
mod deploy;
mod health;
mod model;
mod persist;
mod pooling;
mod quantize;
mod scheme;
mod shapes;
mod trainer;
mod ue;

pub use baseline::LinearRfBaseline;
pub use batch::{Batch, DistinctFrames};
pub use bs::{BsNetwork, RnnCell};
pub use checkpoint::{CheckpointError, TrainCheckpoint, CHECKPOINT_VERSION};
pub use clock::{ComputeModel, SimClock};
pub use config::{ExperimentConfig, PAPER_CALIBRATED_UPLINK_SNR_DB};
pub use deploy::{
    simulate_link_policy, LinkPolicy, OutageReport, StreamPoint, StreamReport, StreamingDeployment,
};
pub use health::{HealthAction, HealthConfig, HealthMonitor, HealthVerdict, StepStats};
pub use model::SplitModel;
pub use persist::WeightIoError;
pub use pooling::PoolingDim;
pub use quantize::Quantizer;
pub use scheme::Scheme;
pub use shapes::{WiringError, WiringReport, WiringSpec};
pub use trainer::{
    bs_half_step, run_tracer, session_label, subsample, BsLink, BsReply, BsStep, CurvePoint,
    LinkTrace, PredictionPoint, SplitTrainer, StepEngine, StopReason, TrainOutcome,
};
pub use ue::UeNetwork;

/// The trainer's generator, under the name the benchmark's traced run
/// imports it by. The next change to the benchmark names
/// `sl_rng::rngs::StdRng` directly and removes this alias.
pub type CountingRng = sl_rng::rngs::StdRng;
