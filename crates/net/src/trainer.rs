//! The UE side of the networked split-training loop.
//!
//! [`NetTrainer`] is `sl_core`'s [`StepEngine`] with its [`BsLink`] to
//! the BS half crossing a [`UeClient`]: each SGD step runs the UE CNN
//! locally, ships the bit-packed quantized cut activations to the BS,
//! and applies the returned cut-layer gradient — the paper's Fig. 1
//! loop over a real byte stream instead of a function call. The epoch
//! loop, the step and its spans are the engine's, shared with the
//! in-process `SplitTrainer`.
//!
//! **Determinism contract** (DESIGN.md §9): with `SLM_THREADS=1` a
//! `NetTrainer` run produces the *byte-identical* learning curve of the
//! in-process `SplitTrainer` under the same `ExperimentConfig`:
//!
//! * the engine consumes its one RNG in the same order whatever the
//!   link, and decides each step's channel fate *before* any bytes
//!   move: a voided step touches the socket not at all;
//! * the BS rebuilds the identical model from the handshake seed and
//!   runs the same `sl_core::bs_half_step` (`f32` losses and gradients
//!   cross the wire bit-exactly);
//! * a delivered step's extra slots are realized as that many injected
//!   wire faults (corrupt frames → Nack → resend), so the fault layer
//!   exercises real recovery paths without perturbing the numerics.

use std::io::{Read, Write};

use sl_core::{
    run_tracer, Batch, BsLink, BsReply, BsStep, ExperimentConfig, HealthConfig, SimClock,
    SplitModel, StepEngine, TrainOutcome,
};
use sl_scene::SequenceDataset;
use sl_telemetry::{trace_env_enabled, Telemetry, Tracer};
use sl_tensor::Tensor;

use crate::client::UeClient;
use crate::fault::FaultPlan;
use crate::wire::{pack_activations, EvalRequest, NetError, SessionSpec, StepRequest};

/// The engine's link to a remote BS session.
struct NetLink<S> {
    client: UeClient<S>,
    pooled: (usize, usize),
    bit_depth: usize,
}

impl<S: Read + Write> NetLink<S> {
    /// The cut activations as they cross the uplink: pooled height,
    /// width and `R`-bit packed values (`0, 0` and empty for RF-only).
    fn pack(&self, cut: Option<&Tensor>) -> Result<(usize, usize, Vec<u8>), NetError> {
        Ok(match cut {
            Some(t) => (
                self.pooled.0,
                self.pooled.1,
                pack_activations(t.data(), self.bit_depth)?,
            ),
            None => (0, 0, Vec::new()),
        })
    }
}

impl<S: Read + Write> BsLink for NetLink<S> {
    type Error = NetError;

    fn exchange(
        &mut self,
        _model: &mut SplitModel,
        step: BsStep<'_>,
        _tele: &mut Telemetry,
    ) -> Result<BsReply, NetError> {
        let BsStep {
            cut,
            batch,
            excess_slots: [ul_excess, dl_excess],
            trace,
        } = step;
        let (b, l) = (batch.batch_size(), batch.seq_len);
        let (pooled_h, pooled_w, packed) = self.pack(cut.as_ref())?;
        let req = StepRequest {
            batch: b,
            seq_len: l,
            pooled_h,
            pooled_w,
            packed,
            powers: batch.powers_norm.into_vec(),
            targets: batch.targets_norm.into_vec(),
        };
        // Each simulated retransmission is one corrupted frame on the
        // wire (→ Nack → resend).
        let reply = self.client.train_step(
            &req,
            false,
            FaultPlan::retransmissions(ul_excess),
            FaultPlan::retransmissions(dl_excess),
            trace,
        )?;
        let cut_grad = match cut {
            Some(_) => Some(
                Tensor::from_vec([b * l, 1, pooled_h, pooled_w], reply.cut_grad)
                    .map_err(|e| NetError::Decode(format!("cut gradient: {e}")))?,
            ),
            None => None,
        };
        Ok(BsReply {
            loss: reply.loss,
            grad_norm: reply.bs_grad_norm,
            cut_grad,
        })
    }

    /// Always clean: validation does not cross the simulated channel,
    /// matching the in-process trainer.
    fn eval(
        &mut self,
        _model: &SplitModel,
        cut: Option<&Tensor>,
        batch: &Batch,
        preds: &mut Vec<f32>,
    ) -> Result<(), NetError> {
        let (pooled_h, pooled_w, packed) = self.pack(cut)?;
        let req = EvalRequest {
            batch: batch.batch_size(),
            seq_len: batch.seq_len,
            pooled_h,
            pooled_w,
            packed,
            powers: batch.powers_norm.data().to_vec(),
        };
        let p = self.client.eval(&req)?;
        if p.len() != req.batch {
            return Err(NetError::Protocol(format!(
                "BS returned {} predictions for a {}-sample batch",
                p.len(),
                req.batch
            )));
        }
        preds.extend_from_slice(&p);
        Ok(())
    }

    fn publish_metrics(&mut self, tele: &mut Telemetry) {
        self.client.publish_metrics(tele);
    }

    /// The cumulative link counters, sampled into the run's time series.
    fn sample_series(&self, tele: &mut Telemetry, sim_s: f64) {
        let m = self.client.metrics();
        tele.series_point("net.frames.sent", sim_s, m.frames_sent as f64);
        tele.series_point("net.retries", sim_s, m.retries as f64);
    }
}

/// Trains the UE half of one `SplitModel` against a remote BS session.
pub struct NetTrainer<S: Read + Write> {
    engine: StepEngine<NetLink<S>>,
}

impl<S: Read + Write> NetTrainer<S> {
    /// Builds the trainer and performs the config handshake: the BS
    /// validates the wiring (via `sl_core::WiringSpec`) and rebuilds the
    /// identical model before a single training byte flows. A rejection
    /// surfaces as [`NetError::HandshakeRejected`].
    ///
    /// Tracing follows `SLM_TRACE` (the handshake announces the trace
    /// id, so the decision is made here, not at `train_with` time); use
    /// [`NetTrainer::new_traced`] to control it explicitly.
    pub fn new(
        config: ExperimentConfig,
        dataset: &SequenceDataset,
        client: UeClient<S>,
    ) -> Result<Self, NetError> {
        let traced = trace_env_enabled();
        Self::new_traced(config, dataset, client, traced)
    }

    /// [`NetTrainer::new`] with tracing decided by the caller instead of
    /// the `SLM_TRACE` environment variable.
    pub fn new_traced(
        config: ExperimentConfig,
        dataset: &SequenceDataset,
        mut client: UeClient<S>,
        traced: bool,
    ) -> Result<Self, NetError> {
        config.validate();
        let tracer = traced.then(|| run_tracer(&config));
        let frame = &dataset.trace().frames[0];
        let (h, w) = (frame.dims()[0], frame.dims()[1]);
        let spec = SessionSpec {
            scheme: config.scheme,
            pooling: config.pooling,
            image_h: h,
            image_w: w,
            seq_len: dataset.seq_len(),
            batch_size: config.batch_size,
            conv_channels: config.conv_channels,
            hidden_dim: config.hidden_dim,
            rnn_cell: config.rnn_cell,
            bit_depth: config.bit_depth,
            learning_rate: config.learning_rate,
            grad_clip: config.grad_clip,
            seed: config.seed,
            trace_id: tracer.as_ref().map_or(0, Tracer::trace_id),
        };
        let (pooled_pixels, feature_dim, _params) = client.handshake(&spec)?;
        let link = NetLink {
            client,
            pooled: config.pooling.output_size(h, w),
            bit_depth: config.bit_depth,
        };
        let scheme = config.scheme;
        // Identical init draws to the BS: same seed, same constructor,
        // same RNG stream.
        let engine = StepEngine::new(config, dataset, link, tracer);
        let wired = engine.model().pooled_pixels();
        if pooled_pixels != wired || feature_dim != scheme.feature_dim(wired) {
            return Err(NetError::Protocol(format!(
                "BS acked {pooled_pixels} pooled pixels / feature width {feature_dim}, \
                 UE wired {wired} / {}",
                scheme.feature_dim(wired)
            )));
        }
        Ok(NetTrainer { engine })
    }

    /// Replaces the default watchdog configuration.
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.engine.set_health_config(cfg);
    }

    /// The simulated clock.
    pub fn clock(&self) -> SimClock {
        self.engine.clock()
    }

    /// The underlying client link (for metrics/fault counters).
    pub fn client_mut(&mut self) -> &mut UeClient<S> {
        &mut self.engine.link_mut().client
    }

    /// Sends the shutdown exchange and returns the client, ending the
    /// BS session cleanly.
    pub fn finish(self) -> Result<UeClient<S>, NetError> {
        let mut client = self.engine.into_link().client;
        client.shutdown()?;
        Ok(client)
    }

    /// Runs the full training loop (telemetry-free).
    pub fn train(&mut self, dataset: &SequenceDataset) -> Result<TrainOutcome, NetError> {
        self.train_with(dataset, &mut Telemetry::disabled())
    }

    /// Runs the full training loop, recording the same metric and event
    /// stream as `SplitTrainer::train_with` plus the link's `net.*`
    /// counters at the end.
    pub fn train_with(
        &mut self,
        dataset: &SequenceDataset,
        tele: &mut Telemetry,
    ) -> Result<TrainOutcome, NetError> {
        self.engine.train_with(dataset, tele)
    }

    /// Validation RMSE in dB over the (possibly subsampled) validation
    /// set, with each chunk's BS forward crossing the link.
    pub fn validate(&mut self, dataset: &SequenceDataset) -> Result<f32, NetError> {
        self.engine.validate(dataset)
    }
}
