//! Communication-aware split training.
//!
//! Each SGD step walks the paper's Fig. 1 loop:
//!
//! 1. the UE runs its CNN over the minibatch image sequences (modelled
//!    compute time),
//! 2. the quantized cut-layer activations cross the **uplink** (simulated
//!    slot-by-slot, with retransmissions),
//! 3. the BS fuses them with the RF power history, runs the LSTM + head,
//!    computes the MSE loss and backpropagates (modelled compute time),
//! 4. the cut-layer gradient crosses the **downlink**,
//! 5. both halves apply their Adam updates.
//!
//! [`StepEngine`] writes that loop once. It owns the UE half, the
//! simulated channel, the [`SimClock`], the run's single RNG, the health
//! watchdog and the tracer; a [`BsLink`] carries step 3 to the BS half.
//! [`SplitTrainer`] is the engine over a direct call in this process;
//! `sl-net`'s `NetTrainer` is the same engine over a framed socket. Both
//! BS sides run [`bs_half_step`].
//!
//! The [`SimClock`] sums the modelled compute and the simulated airtime —
//! that sum is Fig. 3a's "elapsed time in training" axis. A payload that
//! exhausts its slot budget (possible only for bulky poolings) voids the
//! step; enough consecutive timeouts abort training with
//! [`StopReason::LinkStalled`].

use std::convert::Infallible;
use std::path::{Path, PathBuf};

use sl_channel::{RetransmissionPolicy, TransferSimulator};
use sl_nn::{clip_global_norm, mse_loss, rmse, Adam, Optimizer};
use sl_rng::rngs::StdRng;
use sl_scene::SequenceDataset;
use sl_store::StoreMetrics;
use sl_telemetry::host::{self, Recording};
use sl_telemetry::{sim_us, EventBuilder, OpenSpan, SimSpan, Telemetry, Tracer, Value};
use sl_tensor::Tensor;

use crate::batch::Batch;
use crate::checkpoint::{self, CheckpointError, TrainCheckpoint};
use crate::clock::SimClock;
use crate::config::ExperimentConfig;
use crate::health::{HealthAction, HealthConfig, HealthMonitor, StepStats};
use crate::model::SplitModel;
use crate::pooling::PoolingDim;
use crate::scheme::Scheme;

/// Largest number of samples one validation forward covers.
const VAL_CHUNK: usize = 128;

/// One learning-curve sample (taken after each validation pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Simulated elapsed training time, seconds.
    pub elapsed_s: f64,
    /// Epochs completed (0 = before any training).
    pub epoch: usize,
    /// Validation RMSE in dB.
    pub val_rmse_db: f32,
}

/// Why training ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Validation RMSE reached the target (paper: 2.7 dB).
    TargetReached,
    /// The epoch budget ran out (paper: 100 epochs).
    EpochLimit,
    /// Too many consecutive cut-layer payloads timed out — the pooling
    /// is too bulky for the link (the fate of 1×1 pooling under the
    /// paper's whole-payload policy).
    LinkStalled,
    /// The training-health watchdog tripped under [`HealthAction::Abort`]
    /// (NaN/inf stream or sustained loss-EMA divergence).
    HealthAborted,
}

/// One point of a Fig. 3b prediction trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionPoint {
    /// Trace index of the *target* sample.
    pub index: usize,
    /// Trace time of the target sample, seconds.
    pub time_s: f64,
    /// Predicted received power, dBm.
    pub predicted_dbm: f32,
    /// Ground-truth received power, dBm.
    pub actual_dbm: f32,
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Learning curve, starting with the untrained epoch-0 point.
    pub curve: Vec<CurvePoint>,
    /// Why training stopped.
    pub stop: StopReason,
    /// Final validation RMSE in dB.
    pub final_rmse_db: f32,
    /// Epochs completed.
    pub epochs: usize,
    /// SGD steps applied.
    pub steps_applied: u64,
    /// Steps voided by payload timeouts.
    pub steps_voided: u64,
    /// Simulated seconds spent computing.
    pub compute_s: f64,
    /// Simulated seconds spent on the air.
    pub airtime_s: f64,
}

impl TrainOutcome {
    /// Total simulated elapsed seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.compute_s + self.airtime_s
    }

    /// Best (minimum) validation RMSE seen, dB.
    pub fn best_rmse_db(&self) -> f32 {
        self.curve
            .iter()
            .map(|p| p.val_rmse_db)
            .fold(f32::INFINITY, f32::min)
    }
}

/// The label spans and BS sessions attribute a run to: the scheme
/// alone for RF-only (which has no cut layer), else `scheme, pooling`.
pub fn session_label(scheme: Scheme, pooling: PoolingDim) -> String {
    if scheme == Scheme::RfOnly {
        scheme.to_string()
    } else {
        format!("{scheme}, {pooling}")
    }
}

/// The run's UE-side tracer. Its trace id hashes the run's identity,
/// never wall-clock or ambient randomness (DESIGN.md §9), so the
/// in-process and the networked run of one config share it.
pub fn run_tracer(config: &ExperimentConfig) -> Tracer {
    Tracer::for_run(
        &format!("{}|{}|seed={}", config.scheme, config.pooling, config.seed),
        "ue",
    )
}

/// What one delivered step hands the BS half.
#[derive(Debug)]
pub struct BsStep<'a> {
    /// The quantized cut activations, `[B·L, 1, ph, pw]`; `None` for
    /// RF-only.
    pub cut: Option<Tensor>,
    /// The minibatch; the BS half reads its powers and targets.
    pub batch: Batch,
    /// Slots beyond the clean minimum that the uplink and the downlink
    /// took, each one a simulated retransmission.
    pub excess_slots: [u64; 2],
    /// Where the exchange's own spans hang, when the step is traced.
    pub trace: Option<LinkTrace<'a>>,
}

/// A traced step's anchors for spans recorded inside the exchange.
#[derive(Debug)]
pub struct LinkTrace<'a> {
    /// The UE-side tracer recording the step.
    pub tracer: &'a mut Tracer,
    /// Id of the step's open `train.step` root.
    pub root: u64,
    /// Id of the step's `bs.compute` span, the parent of BS-side spans.
    pub bs_span: u64,
    /// Start of the `bs.compute` window, simulated µs.
    pub bs_start_us: u64,
    /// Length of the `bs.compute` window, simulated µs.
    pub bs_dur_us: u64,
    /// Simulated end of the step, µs.
    pub end_us: u64,
}

/// What the BS half of one step returns.
#[derive(Debug, Clone)]
pub struct BsReply {
    /// The minibatch MSE loss (normalized units).
    pub loss: f32,
    /// The BS parameters' global gradient norm before clipping.
    pub grad_norm: f32,
    /// The unclipped cut-layer gradient, `[B·L, 1, ph, pw]`; `None` for
    /// RF-only.
    pub cut_grad: Option<Tensor>,
}

/// How the [`StepEngine`] reaches the BS half of the split.
pub trait BsLink {
    /// Why an exchange can fail (`Infallible` for a direct call).
    type Error;

    /// Runs the BS half of one delivered step and returns its reply.
    /// `model` is the engine's model; only an in-process link touches
    /// its BS half.
    fn exchange(
        &mut self,
        model: &mut SplitModel,
        step: BsStep<'_>,
        tele: &mut Telemetry,
    ) -> Result<BsReply, Self::Error>;

    /// Appends the BS half's cache-free predictions for `batch`, given
    /// its cut activations, to `preds`.
    fn eval(
        &mut self,
        model: &SplitModel,
        cut: Option<&Tensor>,
        batch: &Batch,
        preds: &mut Vec<f32>,
    ) -> Result<(), Self::Error>;

    /// Publishes the link's counters at the end of a run.
    fn publish_metrics(&mut self, tele: &mut Telemetry);

    /// Adds the link's points to the sampled time series at simulated
    /// time `sim_s`.
    fn sample_series(&self, _tele: &mut Telemetry, _sim_s: f64) {}
}

/// The BS half of one SGD step: forward → MSE → backward → clip →
/// Adam. `powers` is `[B, L]`
/// and `targets` `[B, 1]`. The forward and backward are timed into
/// `train.model.host_s` while the thread records ([`host`]). The cut
/// gradient ships unclipped: clipping applies to parameter gradients,
/// and the UE clips its own.
pub fn bs_half_step(
    model: &mut SplitModel,
    opt_bs: &mut Adam,
    cut: Option<&Tensor>,
    powers: &Tensor,
    targets: &Tensor,
    grad_clip: f32,
) -> BsReply {
    let (loss, cut_grad) = host::time("train.model", || {
        let pred = model.forward_bs(cut, powers, powers.dims()[0], powers.dims()[1]);
        let loss = mse_loss(&pred, targets);
        let cut_grad = model.backward_bs(&loss.grad);
        (loss, cut_grad)
    });
    let grad_norm = clip_params(model.bs_params_and_grads(), grad_clip);
    opt_bs.step(&mut model.bs_params_and_grads());
    model.bs_mut().zero_grads();
    BsReply {
        loss: loss.loss,
        grad_norm,
        cut_grad,
    }
}

/// Clips a parameter list's gradients to `max_norm`; returns the norm
/// before clipping.
fn clip_params(mut pairs: Vec<(&mut Tensor, &mut Tensor)>, max_norm: f32) -> f32 {
    let mut grads: Vec<&mut Tensor> = pairs.iter_mut().map(|(_, g)| &mut **g).collect();
    clip_global_norm(&mut grads, max_norm)
}

/// The BS half in this process. It also keeps the checkpoints' store
/// counters.
struct LocalBs {
    opt_bs: Adam,
    grad_clip: f32,
    store_metrics: StoreMetrics,
}

impl BsLink for LocalBs {
    type Error = Infallible;

    fn exchange(
        &mut self,
        model: &mut SplitModel,
        step: BsStep<'_>,
        _tele: &mut Telemetry,
    ) -> Result<BsReply, Infallible> {
        Ok(bs_half_step(
            model,
            &mut self.opt_bs,
            step.cut.as_ref(),
            &step.batch.powers_norm,
            &step.batch.targets_norm,
            self.grad_clip,
        ))
    }

    fn eval(
        &mut self,
        model: &SplitModel,
        cut: Option<&Tensor>,
        batch: &Batch,
        preds: &mut Vec<f32>,
    ) -> Result<(), Infallible> {
        let (b, l) = (batch.batch_size(), batch.seq_len);
        preds.extend_from_slice(model.infer_bs(cut, &batch.powers_norm, b, l).data());
        Ok(())
    }

    fn publish_metrics(&mut self, tele: &mut Telemetry) {
        self.store_metrics.publish(tele);
    }
}

/// Where the epoch loop stands: restored from a checkpoint, and handed
/// to the per-epoch hook.
#[derive(Default)]
struct LoopState {
    /// Epochs completed.
    epoch: usize,
    steps_applied: u64,
    steps_voided: u64,
    /// The live streak of voided steps.
    consecutive_voids: usize,
    curve: Vec<CurvePoint>,
}

enum StepResult {
    Applied,
    Voided,
    HealthAborted,
}

/// One charged transfer window, as its span reports it.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    bits: u64,
    slots: u64,
    /// Slots beyond the clean minimum; `None` when the payload timed
    /// out.
    excess: Option<u64>,
}

/// Adjudicates one payload on the simulated channel and charges its
/// airtime.
fn transfer(
    sim: &mut TransferSimulator,
    clock: &mut SimClock,
    rng: &mut StdRng,
    bits: u64,
) -> Transfer {
    let out = sim.transfer(bits, rng);
    clock.add_airtime(sim.slots_to_seconds(out.slots()));
    let clean = match sim.policy() {
        RetransmissionPolicy::WholePayload { .. } => 1,
        RetransmissionPolicy::Segmented { segment_bits, .. } => bits.div_ceil(segment_bits).max(1),
    };
    Transfer {
        bits,
        slots: out.slots(),
        excess: out.delivered().then(|| out.slots().saturating_sub(clean)),
    }
}

fn voided(x: Option<Transfer>) -> bool {
    matches!(x, Some(Transfer { excess: None, .. }))
}

/// Opens a step's `train.step` root and records the windows charged so
/// far (DESIGN.md §10): `t` holds the boundaries `t0..t2` of a step
/// voided on the uplink, `t0..t4` otherwise. Returns the root and the
/// id of the `bs.compute` span (0 if the step never reached the BS).
fn record_windows(
    tr: &mut Tracer,
    t: &[u64],
    ul: Option<Transfer>,
    dl: Option<Transfer>,
    bit_depth: usize,
) -> (OpenSpan, u64) {
    let root = tr.begin("train.step", "step", t[0]);
    tr.record("ue.forward", "ue", t[0], t[1] - t[0], Vec::new());
    if !voided(ul) && !voided(dl) {
        let attrs = vec![("bit_depth".into(), Value::U64(bit_depth as u64))];
        tr.record("quantize.pack", "ue", t[1], 0, attrs);
    }
    if let Some(x) = ul {
        transfer_span(tr, "uplink.transfer", t[1], t[2], x);
    }
    let mut bs_span = 0;
    if let [_, _, t2, t3, t4] = *t {
        bs_span = tr.record("bs.compute", "bs", t2, t3 - t2, Vec::new());
        if let Some(x) = dl {
            transfer_span(tr, "downlink.transfer", t3, t4, x);
        }
    }
    (root, bs_span)
}

fn transfer_span(tr: &mut Tracer, name: &str, start_us: u64, end_us: u64, x: Transfer) {
    let mut attrs = vec![
        ("bits".into(), Value::U64(x.bits)),
        ("slots".into(), Value::U64(x.slots)),
    ];
    attrs.push(match x.excess {
        Some(excess) => ("excess".into(), Value::U64(excess)),
        None => ("delivered".into(), Value::Bool(false)),
    });
    tr.record(name, "link", start_us, end_us - start_us, attrs);
}

/// Closes a step's root at `end_us`. A delivered step (`loss` given)
/// first gets its zero-width `ue.backward` and `opt.apply` markers.
fn close_step(
    tr: &mut Tracer,
    root: OpenSpan,
    end_us: u64,
    seq: u64,
    loss: Option<f32>,
    label: String,
) {
    let mut attrs = vec![("step".into(), Value::U64(seq))];
    if let Some(loss) = loss {
        tr.record("ue.backward", "ue", end_us, 0, Vec::new());
        tr.record("opt.apply", "ue", end_us, 0, Vec::new());
        attrs.push(("loss".into(), Value::F64(f64::from(loss))));
    }
    attrs.push(("voided".into(), Value::Bool(loss.is_none())));
    attrs.push(("session".into(), Value::Str(label)));
    tr.end_with(root, end_us, attrs);
}

/// The split-training loop, written once for every transport: the UE
/// half, its Adam state, the simulated up- and downlink, the
/// [`SimClock`], the run's single RNG, the health watchdog and the
/// tracer, around a [`BsLink`] to the BS half.
///
/// **Determinism** (DESIGN.md §9): the RNG is consumed in one order —
/// model init, then per step the channel draws and the batch sample —
/// whatever the link, so two links that return the same bits produce
/// the same learning curve, clock and spans.
pub struct StepEngine<L: BsLink> {
    config: ExperimentConfig,
    model: SplitModel,
    opt_ue: Adam,
    uplink: TransferSimulator,
    downlink: TransferSimulator,
    clock: SimClock,
    rng: StdRng,
    health: HealthMonitor,
    tracer: Option<Tracer>,
    steps_seen: u64,
    link: L,
}

impl<L: BsLink> StepEngine<L> {
    /// Builds the model for `dataset` (image size and `L` are read from
    /// it) from the first draws of the run's RNG, seeded from
    /// `config.seed`. `tracer`, when given, records every step.
    pub fn new(
        config: ExperimentConfig,
        dataset: &SequenceDataset,
        link: L,
        tracer: Option<Tracer>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let frame = &dataset.trace().frames[0];
        let model = SplitModel::with_cell(
            config.scheme,
            config.pooling,
            frame.dims()[0],
            frame.dims()[1],
            dataset.seq_len(),
            config.conv_channels,
            config.hidden_dim,
            config.bit_depth,
            config.rnn_cell,
            &mut rng,
        );
        StepEngine {
            opt_ue: Adam::new(config.learning_rate, 0.9, 0.999, 1e-8),
            uplink: TransferSimulator::new(config.uplink.clone(), config.retransmission),
            downlink: TransferSimulator::new(config.downlink.clone(), config.retransmission),
            clock: SimClock::new(),
            model,
            config,
            rng,
            health: HealthMonitor::default(),
            tracer,
            steps_seen: 0,
            link,
        }
    }

    /// Replaces the default watchdog configuration (resets the
    /// monitor's state).
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.health = HealthMonitor::new(cfg);
    }

    /// The model.
    pub fn model(&self) -> &SplitModel {
        &self.model
    }

    /// The simulated clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// The BS link.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// Consumes the engine, returning its link.
    pub fn into_link(self) -> L {
        self.link
    }

    /// Runs the full training loop (validating after every epoch, like
    /// the paper), recording metrics and journal events into `tele`:
    ///
    /// * per step — `train.loss`, `train.grad_norm.{ue,bs}`,
    ///   `train.step.{host_s,compute_s,airtime_s}` and `train.model.host_s`
    ///   histograms, plus the `train.steps.{applied,voided}` and
    ///   `train.nonfinite.{loss,grad}` counters;
    /// * per layer and kernel — host-time/FLOP/parameter stats under
    ///   `nn.{ue,bs}.layer.<idx>.<name>.*` and `tensor.kernel.<name>.host_s`
    ///   (the thread's [`host`] recorder is on for the whole run whenever
    ///   `tele` is enabled, and drains into `tele` at the end);
    /// * health — a `health.diverged` event if the [`HealthMonitor`]
    ///   trips (under [`HealthAction::Abort`] the run then stops with
    ///   [`StopReason::HealthAborted`]);
    /// * per epoch — an `"epoch"` event plus the `train.val_rmse_db`
    ///   gauge;
    /// * at the end — the uplink/downlink slot metrics
    ///   (`train.uplink.*` / `train.downlink.*`), the link's own
    ///   counters, the accumulated `sim.compute_s` / `sim.airtime_s`
    ///   gauges (exactly the [`SimClock`] totals), and a `"train_end"`
    ///   event.
    ///
    /// With disabled telemetry every instrumentation point reduces to one
    /// branch, so the uninstrumented hot path is unchanged.
    pub fn train_with(
        &mut self,
        dataset: &SequenceDataset,
        tele: &mut Telemetry,
    ) -> Result<TrainOutcome, L::Error> {
        self.run(dataset, tele, None, |_, _, _| {})
    }

    /// The training loop from `resume` (or from scratch), calling
    /// `after_epoch` once per completed epoch, before the stop decision.
    fn run(
        &mut self,
        dataset: &SequenceDataset,
        tele: &mut Telemetry,
        resume: Option<LoopState>,
        mut after_epoch: impl FnMut(&mut Self, &LoopState, &mut Telemetry),
    ) -> Result<TrainOutcome, L::Error> {
        let b = self.config.batch_size;
        let steps_per_epoch = dataset.steps_per_epoch(b);
        let mut st = resume.unwrap_or_default();
        // Host-time recording rides along with telemetry: every step,
        // model pass, layer and kernel below lands in this thread's
        // recorder.
        let recording = Recording::start(tele.is_enabled());

        // Epoch-0 point: the untrained model (skipped on resume — the
        // restored curve already has it).
        let mut val = if st.epoch == 0 {
            let v = self.validate(dataset)?;
            st.curve.push(CurvePoint {
                elapsed_s: self.clock.elapsed_s(),
                epoch: 0,
                val_rmse_db: v,
            });
            v
        } else {
            st.curve.last().map_or(f32::INFINITY, |p| p.val_rmse_db)
        };

        let mut stop = StopReason::EpochLimit;
        // Resuming a run that had already reached its target trains no
        // further (the empty range below).
        let last_epoch = if st.epoch > 0 && val <= self.config.target_rmse_db {
            stop = StopReason::TargetReached;
            st.epoch
        } else {
            self.config.max_epochs
        };
        'outer: for epoch in st.epoch + 1..=last_epoch {
            for _ in 0..steps_per_epoch {
                let span = SimSpan::begin(self.clock.compute_s(), self.clock.airtime_s());
                let result = host::time("train.step", || self.step(dataset, b, tele))?;
                if tele.is_enabled() {
                    let clock = self.clock;
                    span.observe(tele, "train.step", clock.compute_s(), clock.airtime_s());
                }
                match result {
                    StepResult::Applied => {
                        st.steps_applied += 1;
                        st.consecutive_voids = 0;
                    }
                    StepResult::Voided => {
                        st.steps_voided += 1;
                        st.consecutive_voids += 1;
                        if st.consecutive_voids >= self.config.stall_limit {
                            stop = StopReason::LinkStalled;
                            st.epoch = epoch;
                            break 'outer;
                        }
                    }
                    StepResult::HealthAborted => {
                        // The update was applied before the watchdog
                        // tripped; the run stops here with a report.
                        st.steps_applied += 1;
                        stop = StopReason::HealthAborted;
                        st.epoch = epoch;
                        break 'outer;
                    }
                }
            }
            st.epoch = epoch;
            val = self.validate(dataset)?;
            st.curve.push(CurvePoint {
                elapsed_s: self.clock.elapsed_s(),
                epoch,
                val_rmse_db: val,
            });
            if tele.is_enabled() {
                tele.gauge_set("train.val_rmse_db", val as f64);
                // Every epoch lands in the series (no step-cadence
                // gating): validation points are rare and each one is a
                // curve point worth keeping.
                tele.series_point("train.val_rmse_db", self.clock.elapsed_s(), f64::from(val));
                tele.emit(
                    EventBuilder::new("epoch")
                        .u64("epoch", epoch as u64)
                        .f64("val_rmse_db", val as f64)
                        .f64("elapsed_s", self.clock.elapsed_s())
                        .f64("compute_s", self.clock.compute_s())
                        .f64("airtime_s", self.clock.airtime_s())
                        .u64("steps_applied", st.steps_applied)
                        .u64("steps_voided", st.steps_voided),
                );
            }
            // Flush the epoch's spans to the journal as we go so a
            // crashed run still leaves a usable partial trace.
            self.drain_spans(tele);
            after_epoch(self, &st, tele);
            if val <= self.config.target_rmse_db {
                stop = StopReason::TargetReached;
                break;
            }
        }

        if tele.is_enabled() {
            recording.finish(tele);
            // Compute-pool counters, so reports can relate throughput to
            // `SLM_THREADS`.
            sl_tensor::ComputePool::global().publish_metrics(tele);
            tele.add("train.steps.applied", st.steps_applied);
            tele.add("train.steps.voided", st.steps_voided);
            // The simulated-clock split, accumulated across runs so a
            // multi-experiment process sums to its total simulated time.
            tele.gauge_add("sim.compute_s", self.clock.compute_s());
            tele.gauge_add("sim.airtime_s", self.clock.airtime_s());
            self.uplink.publish_metrics(tele, "train.uplink");
            self.downlink.publish_metrics(tele, "train.downlink");
            self.link.publish_metrics(tele);
            tele.emit(
                EventBuilder::new("train_end")
                    .str("scheme", &self.config.scheme.to_string())
                    .str("pooling", &self.config.pooling.to_string())
                    .str("stop", &format!("{stop:?}"))
                    .u64("epochs", st.epoch as u64)
                    .u64("steps_applied", st.steps_applied)
                    .u64("steps_voided", st.steps_voided)
                    .f64("final_rmse_db", val as f64)
                    .f64("compute_s", self.clock.compute_s())
                    .f64("airtime_s", self.clock.airtime_s()),
            );
        }
        self.drain_spans(tele);

        Ok(TrainOutcome {
            curve: st.curve,
            stop,
            final_rmse_db: val,
            epochs: st.epoch,
            steps_applied: st.steps_applied,
            steps_voided: st.steps_voided,
            compute_s: self.clock.compute_s(),
            airtime_s: self.clock.airtime_s(),
        })
    }

    fn drain_spans(&mut self, tele: &mut Telemetry) {
        if tele.trace_enabled() {
            if let Some(tr) = self.tracer.as_mut() {
                tr.drain_into(tele);
            }
        }
    }

    /// One SGD step.
    fn step(
        &mut self,
        dataset: &SequenceDataset,
        b: usize,
        tele: &mut Telemetry,
    ) -> Result<StepResult, L::Error> {
        let uses_images = self.config.scheme.uses_images();
        self.steps_seen += 1;
        let seq = self.steps_seen;

        // The simulated channel decides each transfer's fate first, and
        // every window is charged before the numerics run, so the
        // simulated boundaries `t0..t4` of the step's spans are known up
        // front. A voided step never reaches the BS.
        let mut t = [0u64; 5];
        t[0] = sim_us(self.clock.elapsed_s());
        let ue_s = self.config.compute.ue_seconds(self.model.ue_step_flops(b));
        self.clock.add_compute(ue_s);
        t[1] = sim_us(self.clock.elapsed_s());
        let ul = uses_images.then(|| {
            let bits = self.model.uplink_payload_bits(b);
            transfer(&mut self.uplink, &mut self.clock, &mut self.rng, bits)
        });
        t[2] = sim_us(self.clock.elapsed_s());
        let mut dl = None;
        let mut charged = 3;
        if !voided(ul) {
            let bs_s = self.config.compute.bs_seconds(self.model.bs_step_flops(b));
            self.clock.add_compute(bs_s);
            t[3] = sim_us(self.clock.elapsed_s());
            dl = uses_images.then(|| {
                let bits = self.model.downlink_payload_bits(b);
                transfer(&mut self.downlink, &mut self.clock, &mut self.rng, bits)
            });
            t[4] = sim_us(self.clock.elapsed_s());
            charged = 5;
        }
        let cfg = &self.config;
        let open = self
            .tracer
            .as_mut()
            .map(|tr| record_windows(tr, &t[..charged], ul, dl, cfg.bit_depth));
        if voided(ul) || voided(dl) {
            if let (Some(tr), Some((root, _))) = (self.tracer.as_mut(), open) {
                let label = session_label(cfg.scheme, cfg.pooling);
                close_step(tr, root, t[charged - 1], seq, None, label);
            }
            return Ok(StepResult::Voided);
        }

        // The numerics are instantaneous on the simulated clock: their
        // cost is what the FLOP model charged above.
        let instrument = tele.is_enabled();
        let idx = dataset.sample_train_batch(b, &mut self.rng);
        let batch = Batch::assemble(dataset, dataset.normalizer(), &idx, uses_images);
        let cut = host::time("train.model", || self.model.forward_ue(&batch));
        let trace = match (self.tracer.as_mut(), &open) {
            (Some(tracer), Some((root, bs_span))) => Some(LinkTrace {
                tracer,
                root: root.id(),
                bs_span: *bs_span,
                bs_start_us: t[2],
                bs_dur_us: t[3] - t[2],
                end_us: t[4],
            }),
            _ => None,
        };
        let excess = |x: Option<Transfer>| x.and_then(|x| x.excess).unwrap_or(0);
        let step = BsStep {
            cut,
            batch,
            excess_slots: [excess(ul), excess(dl)],
            trace,
        };
        let reply = self.link.exchange(&mut self.model, step, tele)?;

        host::time("train.model", || {
            if let Some(cut_grad) = &reply.cut_grad {
                self.model.backward_ue(cut_grad);
            }
        });
        let ue_norm = clip_params(self.model.ue_params_and_grads(), self.config.grad_clip);
        let (loss, bs_norm) = (reply.loss, reply.grad_norm);
        if instrument {
            if loss.is_finite() {
                tele.observe("train.loss", loss.max(0.0) as f64);
            } else {
                tele.inc("train.nonfinite.loss");
            }
            if ue_norm.is_finite() {
                tele.observe("train.grad_norm.ue", ue_norm.max(0.0) as f64);
            } else {
                tele.inc("train.nonfinite.grad");
            }
            if bs_norm.is_finite() {
                tele.observe("train.grad_norm.bs", bs_norm.max(0.0) as f64);
            } else {
                tele.inc("train.nonfinite.grad");
            }
            // Time-series sampling keys on the step counter and stamps
            // the *simulated* clock, so two runs emit byte-identical
            // series regardless of wall clock or SLM_THREADS.
            if tele.should_sample(seq) {
                let now = self.clock.elapsed_s();
                if loss.is_finite() {
                    tele.series_point("train.loss", now, f64::from(loss.max(0.0)));
                }
                self.link.sample_series(tele, now);
            }
        }

        self.opt_ue.step(&mut self.model.ue_params_and_grads());
        self.model.zero_ue_grads();

        if let (Some(tr), Some((root, _))) = (self.tracer.as_mut(), open) {
            let label = session_label(self.config.scheme, self.config.pooling);
            close_step(tr, root, t[4], seq, Some(loss), label);
        }

        let stats = StepStats {
            loss: loss as f64,
            grad_norm_ue: ue_norm as f64,
            grad_norm_bs: bs_norm as f64,
        };
        if let Some(verdict) = self.health.observe_step(stats) {
            let abort = self.health.config().action == HealthAction::Abort;
            if tele.is_enabled() {
                tele.emit(
                    EventBuilder::new("health.diverged")
                        .str("metric", verdict.metric())
                        .str("detail", &verdict.to_string())
                        .str("action", if abort { "abort" } else { "warn" })
                        .u64("nonfinite_loss", self.health.nonfinite_loss())
                        .u64("nonfinite_grad", self.health.nonfinite_grad()),
                );
            }
            tele.warn(&format!("health watchdog tripped: {verdict}"));
            tele.warn(&self.health.report());
            if abort {
                return Ok(StepResult::HealthAborted);
            }
        }
        Ok(StepResult::Applied)
    }

    /// Validation RMSE in dB over the (possibly subsampled) validation
    /// set, with each chunk's forward timed into `train.model.host_s`
    /// while the thread records. Does not advance the simulated clock
    /// (the paper's elapsed axis measures training, and validation can
    /// run concurrently at the BS).
    pub fn validate(&mut self, dataset: &SequenceDataset) -> Result<f32, L::Error> {
        let indices = subsample(dataset.val_indices(), self.config.val_subsample);
        self.rmse_over(dataset, &indices)
    }

    /// Samples per validation chunk. While the UE CNN runs, at most one
    /// training batch: no validation activation then outgrows a training
    /// step's, so validation reuses the step's freed buffers instead of
    /// growing the heap. RF-only activations are small, and the larger
    /// chunk amortises per-call overhead.
    fn val_chunk(&self) -> usize {
        if self.config.scheme.uses_images() {
            VAL_CHUNK.min(self.config.batch_size)
        } else {
            VAL_CHUNK
        }
    }

    /// RMSE (dB) over arbitrary dataset indices, through the
    /// cache-free forward of both halves.
    fn rmse_over(&mut self, dataset: &SequenceDataset, indices: &[usize]) -> Result<f32, L::Error> {
        assert!(!indices.is_empty(), "rmse_over: no indices");
        let normalizer = dataset.normalizer();
        let uses_images = self.config.scheme.uses_images();
        let mut preds = Vec::with_capacity(indices.len());
        let mut targets = Vec::with_capacity(indices.len());
        for chunk in indices.chunks(self.val_chunk()) {
            let batch = Batch::assemble(dataset, normalizer, chunk, uses_images);
            host::time("train.model", || {
                let cut = self.model.infer_ue(&batch);
                self.link
                    .eval(&self.model, cut.as_ref(), &batch, &mut preds)
            })?;
            targets.extend_from_slice(batch.targets_norm.data());
        }
        let r = rmse(&Tensor::from_slice(&preds), &Tensor::from_slice(&targets));
        Ok(normalizer.rmse_to_db(r))
    }
}

/// Trains one [`SplitModel`] under one [`ExperimentConfig`], with the BS
/// half in this process.
pub struct SplitTrainer {
    engine: StepEngine<LocalBs>,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<LoopState>,
}

impl SplitTrainer {
    /// Builds a trainer for `dataset` (image size and `L` are read from
    /// it).
    pub fn new(config: ExperimentConfig, dataset: &SequenceDataset) -> Self {
        config.validate();
        let frame = &dataset.trace().frames[0];
        let (h, w) = (frame.dims()[0], frame.dims()[1]);
        // Static shape-contract check: reject a miswired configuration
        // with a per-layer trace *before* any tensor work happens.
        if let Err(e) = crate::WiringSpec::from_config(&config, h, w, dataset.seq_len()).check() {
            panic!("SplitTrainer: miswired split-model configuration\n{e}");
        }
        let link = LocalBs {
            opt_bs: Adam::new(config.learning_rate, 0.9, 0.999, 1e-8),
            grad_clip: config.grad_clip,
            store_metrics: StoreMetrics::default(),
        };
        SplitTrainer {
            engine: StepEngine::new(config, dataset, link, None),
            checkpoint_dir: None,
            resume: None,
        }
    }

    /// Replaces the default watchdog configuration (for tests and
    /// programmatic callers; resets the monitor's state).
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.engine.set_health_config(cfg);
    }

    /// The training-health watchdog state.
    pub fn health(&self) -> &HealthMonitor {
        &self.engine.health
    }

    /// The model (e.g. for Fig. 2 visualizations after training).
    pub fn model_mut(&mut self) -> &mut SplitModel {
        &mut self.engine.model
    }

    /// The simulated clock.
    pub fn clock(&self) -> SimClock {
        self.engine.clock()
    }

    /// Enables per-epoch checkpointing into `dir` (an `sl-store`
    /// directory; created on first save). Each completed epoch commits
    /// the full trainer state — a later
    /// [`SplitTrainer::resume_from_checkpoint`] continues the run with
    /// bitwise-identical results.
    pub fn set_checkpoint_dir(&mut self, dir: impl Into<PathBuf>) {
        self.checkpoint_dir = Some(dir.into());
    }

    /// Restores the trainer from a checkpoint directory written by a
    /// previous run of the *same configuration* (scheme, pooling and
    /// seed are fingerprinted; anything else that diverges shows up as a
    /// parameter-count mismatch). Call on a freshly-built trainer; the
    /// next [`SplitTrainer::train_with`] then continues from the
    /// checkpointed epoch. Returns the last completed epoch.
    pub fn resume_from_checkpoint(&mut self, dir: &Path) -> Result<usize, CheckpointError> {
        let e = &mut self.engine;
        let ck = checkpoint::load(dir, &mut e.link.store_metrics)?;
        let scheme = e.config.scheme.to_string();
        let pooling = e.config.pooling.to_string();
        if ck.scheme != scheme || ck.pooling != pooling || ck.seed != e.config.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is {} / {} / seed {}, trainer is {scheme} / {pooling} / seed {}",
                ck.scheme, ck.pooling, ck.seed, e.config.seed
            )));
        }
        let dims = |pairs: Vec<(&mut Tensor, &mut Tensor)>| -> Vec<Vec<usize>> {
            pairs.iter().map(|(p, _)| p.dims().to_vec()).collect()
        };
        let ue_dims = dims(e.model.ue_params_and_grads());
        let bs_dims = dims(e.model.bs_params_and_grads());
        let total: usize = ue_dims
            .iter()
            .chain(&bs_dims)
            .map(|d| d.iter().product::<usize>())
            .sum();
        if ck.params.len() != total {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint holds {} parameter values, model has {total}",
                ck.params.len()
            )));
        }
        let mut at = 0usize;
        for (p, _) in e.model.ue_params_and_grads() {
            let n = p.data().len();
            p.data_mut().copy_from_slice(&ck.params[at..at + n]);
            at += n;
        }
        for (p, _) in e.model.bs_params_and_grads() {
            let n = p.data().len();
            p.data_mut().copy_from_slice(&ck.params[at..at + n]);
            at += n;
        }
        e.opt_ue
            .restore_state(ck.opt_ue.0, &ck.opt_ue.1, &ck.opt_ue.2, &ue_dims)
            .map_err(CheckpointError::Mismatch)?;
        e.link
            .opt_bs
            .restore_state(ck.opt_bs.0, &ck.opt_bs.1, &ck.opt_bs.2, &bs_dims)
            .map_err(CheckpointError::Mismatch)?;
        e.clock = SimClock::from_parts(ck.compute_s, ck.airtime_s);
        e.steps_seen = ck.steps_seen;
        e.rng = StdRng::from_state(ck.rng_state);
        let epoch = ck.epoch;
        self.resume = Some(LoopState {
            epoch,
            steps_applied: ck.steps_applied,
            steps_voided: ck.steps_voided,
            consecutive_voids: ck.consecutive_voids,
            curve: ck.curve,
        });
        Ok(epoch)
    }

    /// Runs the full training loop (validating after every epoch, like
    /// the paper) and returns the outcome. Telemetry-free entry point;
    /// see [`SplitTrainer::train_with`] for the instrumented one.
    pub fn train(&mut self, dataset: &SequenceDataset) -> TrainOutcome {
        self.train_with(dataset, &mut Telemetry::disabled())
    }

    /// Runs the full training loop, recording into `tele` what
    /// [`StepEngine::train_with`] lists plus the `store.*` counters;
    /// spans are recorded when `tele` traces. Continues a restored
    /// checkpoint, and commits one per epoch when a directory is set.
    pub fn train_with(&mut self, dataset: &SequenceDataset, tele: &mut Telemetry) -> TrainOutcome {
        if tele.trace_enabled() && self.engine.tracer.is_none() {
            self.engine.tracer = Some(run_tracer(&self.engine.config));
        }
        let dir = self.checkpoint_dir.as_deref();
        let resume = self.resume.take();
        let Ok(out) = self.engine.run(dataset, tele, resume, |engine, st, tele| {
            // Commit the epoch's full state before the stop decision so
            // even a target-reaching final epoch leaves a checkpoint. A
            // failed save warns and trains on: checkpointing must never
            // kill the run it protects.
            if let Some(dir) = dir {
                if let Err(e) = write_checkpoint(engine, dir, st) {
                    tele.warn(&format!("checkpoint save to {} failed: {e}", dir.display()));
                }
            }
        });
        out
    }

    /// Validation RMSE in dB over the (possibly subsampled) validation
    /// set. Does not advance the simulated clock.
    pub fn validate(&mut self, dataset: &SequenceDataset) -> f32 {
        let Ok(v) = self.engine.validate(dataset);
        v
    }

    /// RMSE (dB) over arbitrary dataset indices.
    pub fn rmse_over(&mut self, dataset: &SequenceDataset, indices: &[usize]) -> f32 {
        let Ok(v) = self.engine.rmse_over(dataset, indices);
        v
    }

    /// Predicts over `count` consecutive validation samples starting at
    /// validation offset `offset` — the Fig. 3b trace.
    pub fn predict_trace(
        &mut self,
        dataset: &SequenceDataset,
        offset: usize,
        count: usize,
    ) -> Vec<PredictionPoint> {
        let val = dataset.val_indices();
        assert!(
            offset + count <= val.len(),
            "predict_trace: window [{offset}, {}) exceeds validation set of {}",
            offset + count,
            val.len()
        );
        let indices: Vec<usize> = val[offset..offset + count].to_vec();
        let normalizer = dataset.normalizer();
        let uses_images = self.engine.config.scheme.uses_images();
        let horizon = dataset.horizon();
        let dt = dataset.trace().frame_interval_s;
        let mut out = Vec::with_capacity(count);
        for chunk in indices.chunks(self.engine.val_chunk()) {
            let batch = Batch::assemble(dataset, normalizer, chunk, uses_images);
            let p = self.engine.model.infer(&batch);
            for (row, &k) in chunk.iter().enumerate() {
                let target_index = k + horizon;
                out.push(PredictionPoint {
                    index: target_index,
                    time_s: target_index as f64 * dt,
                    predicted_dbm: normalizer.denormalize(p.at(&[row, 0])),
                    actual_dbm: dataset.trace().powers_dbm[target_index],
                });
            }
        }
        out
    }
}

/// Commits the full in-process trainer state after `st.epoch` into
/// `dir`.
fn write_checkpoint(
    e: &mut StepEngine<LocalBs>,
    dir: &Path,
    st: &LoopState,
) -> Result<(), CheckpointError> {
    let mut params = Vec::new();
    for (p, _) in e.model.ue_params_and_grads() {
        params.extend_from_slice(p.data());
    }
    for (p, _) in e.model.bs_params_and_grads() {
        params.extend_from_slice(p.data());
    }
    let ck = TrainCheckpoint {
        scheme: e.config.scheme.to_string(),
        pooling: e.config.pooling.to_string(),
        seed: e.config.seed,
        epoch: st.epoch,
        steps_applied: st.steps_applied,
        steps_voided: st.steps_voided,
        consecutive_voids: st.consecutive_voids,
        steps_seen: e.steps_seen,
        rng_state: e.rng.state(),
        opt_ue: e.opt_ue.export_state(),
        opt_bs: e.link.opt_bs.export_state(),
        compute_s: e.clock.compute_s(),
        airtime_s: e.clock.airtime_s(),
        curve: st.curve.clone(),
        params,
    };
    checkpoint::save(dir, &ck, &mut e.link.store_metrics)
}

/// Deterministic stride subsample of `indices` down to at most `cap` —
/// the validation-set thinning every run uses.
pub fn subsample(indices: &[usize], cap: Option<usize>) -> Vec<usize> {
    match cap {
        Some(cap) if indices.len() > cap => {
            let stride = indices.len() as f64 / cap as f64;
            (0..cap)
                .map(|i| indices[(i as f64 * stride) as usize])
                .collect()
        }
        _ => indices.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooling::PoolingDim;
    use crate::scheme::Scheme;
    use sl_rng::rngs::StdRng;
    use sl_scene::{Scene, SceneConfig};

    fn dataset(seed: u64) -> SequenceDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
        SequenceDataset::paper_windowing(scene.simulate(&mut rng))
    }

    #[test]
    fn rf_only_trains_without_airtime() {
        let ds = dataset(70);
        let cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train(&ds);
        assert_eq!(out.airtime_s, 0.0, "RF-only must not touch the channel");
        assert!(out.compute_s > 0.0);
        assert_eq!(out.steps_voided, 0);
        assert!(out.steps_applied > 0);
        assert_eq!(out.stop, StopReason::EpochLimit);
        assert_eq!(out.epochs, 3);
        // Curve: epoch 0 + one point per epoch.
        assert_eq!(out.curve.len(), 4);
        assert!(out
            .curve
            .windows(2)
            .all(|w| w[0].elapsed_s <= w[1].elapsed_s));
    }

    #[test]
    fn training_improves_over_untrained_baseline() {
        let ds = dataset(71);
        let mut cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
        cfg.max_epochs = 8;
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train(&ds);
        let first = out.curve[0].val_rmse_db;
        let best = out.best_rmse_db();
        assert!(
            best < first,
            "training never improved: start {first} dB, best {best} dB"
        );
    }

    #[test]
    fn img_rf_accrues_airtime() {
        let ds = dataset(72);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train(&ds);
        assert!(out.airtime_s > 0.0, "split schemes must pay airtime");
        assert!(out.steps_applied > 0);
    }

    #[test]
    fn oversized_payload_stalls_the_link() {
        let ds = dataset(73);
        // 1×1 pooling on a deeply-faded link: per-slot success ≈ 0 ->
        // every step times out -> LinkStalled almost immediately. (The
        // tiny 16×16 test scene's raw payload is small enough to decode
        // on the real link, so drive the SNR down instead.)
        let mut cfg = ExperimentConfig::quick(Scheme::ImgOnly, PoolingDim::RAW);
        cfg.uplink = sl_channel::LinkConfig::paper_uplink().with_mean_snr_db(-30.0);
        cfg.retransmission = sl_channel::RetransmissionPolicy::WholePayload { max_slots: 20 };
        cfg.stall_limit = 3;
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train(&ds);
        assert_eq!(out.stop, StopReason::LinkStalled);
        assert_eq!(out.steps_applied, 0);
        assert_eq!(out.steps_voided, 3);
    }

    #[test]
    fn target_rmse_stops_early() {
        let ds = dataset(74);
        let mut cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
        // An unreachable-low bar never stops; a huge bar stops at epoch 1.
        cfg.target_rmse_db = 1e6;
        cfg.max_epochs = 5;
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train(&ds);
        assert_eq!(out.stop, StopReason::TargetReached);
        assert_eq!(out.epochs, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(75);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        let out1 = SplitTrainer::new(cfg.clone(), &ds).train(&ds);
        let out2 = SplitTrainer::new(cfg, &ds).train(&ds);
        assert_eq!(out1.curve, out2.curve);
        assert_eq!(out1.steps_applied, out2.steps_applied);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run_bitwise() {
        let ds = dataset(79);
        let mut cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        cfg.max_epochs = 4;
        let dir = std::env::temp_dir().join("slm_trainer_resume_test");
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference run.
        let full = SplitTrainer::new(cfg.clone(), &ds).train(&ds);
        assert!(full.steps_applied > 0);

        // Interrupted run: checkpoint every epoch, stop after 2.
        let mut short_cfg = cfg.clone();
        short_cfg.max_epochs = 2;
        let mut first = SplitTrainer::new(short_cfg, &ds);
        first.set_checkpoint_dir(&dir);
        let partial = first.train(&ds);
        assert_eq!(partial.epochs, 2);

        // Fresh trainer resumes from the saved state and finishes.
        let mut resumed = SplitTrainer::new(cfg.clone(), &ds);
        let at = resumed.resume_from_checkpoint(&dir).unwrap();
        assert_eq!(at, 2);
        let out = resumed.train(&ds);

        assert_eq!(out.curve, full.curve, "resumed curve diverged");
        assert_eq!(out.steps_applied, full.steps_applied);
        assert_eq!(out.steps_voided, full.steps_voided);
        assert_eq!(out.compute_s.to_bits(), full.compute_s.to_bits());
        assert_eq!(out.airtime_s.to_bits(), full.airtime_s.to_bits());
        assert_eq!(out.stop, full.stop);

        // A mismatched config is a typed error, not silent divergence.
        let mut other = SplitTrainer::new(
            ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4)),
            &ds,
        );
        assert!(matches!(
            other.resume_from_checkpoint(&dir),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_beyond_f64_precision_resume_bitwise() {
        // 2⁵³ + 1 is the first seed an f64 cannot hold; u64::MAX is the
        // last seed there is.
        let ds = dataset(81);
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let mut cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
            cfg.seed = seed;
            cfg.max_epochs = 2;
            let dir = std::env::temp_dir().join(format!("slm_trainer_resume_seed_{seed:x}"));
            let _ = std::fs::remove_dir_all(&dir);
            let full = SplitTrainer::new(cfg.clone(), &ds).train(&ds);

            let mut short_cfg = cfg.clone();
            short_cfg.max_epochs = 1;
            let mut first = SplitTrainer::new(short_cfg, &ds);
            first.set_checkpoint_dir(&dir);
            first.train(&ds);
            let mut resumed = SplitTrainer::new(cfg, &ds);
            assert_eq!(resumed.resume_from_checkpoint(&dir).unwrap(), 1);
            let out = resumed.train(&ds);

            let bits = |curve: &[CurvePoint]| -> Vec<(usize, u64, u32)> {
                curve
                    .iter()
                    .map(|p| (p.epoch, p.elapsed_s.to_bits(), p.val_rmse_db.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&out.curve), bits(&full.curve), "seed {seed:#x}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Normalized predictions for `indices` in chunks of `chunk`, with the
    /// UE encoding every step's frame: the per-row reference that
    /// once-per-frame validation must reproduce bit for bit.
    fn per_row_predictions(
        t: &mut SplitTrainer,
        ds: &SequenceDataset,
        indices: &[usize],
        chunk: usize,
        bit_depth: usize,
    ) -> Vec<f32> {
        let model = t.model_mut();
        let mut preds = Vec::new();
        for chunk in indices.chunks(chunk) {
            let batch = Batch::assemble(ds, ds.normalizer(), chunk, true);
            let rows = batch.images.as_ref().unwrap();
            assert_eq!(rows.dims()[0], chunk.len() * ds.seq_len());
            let pooled = model.ue_mut().unwrap().infer(rows);
            let cut = crate::Quantizer::new(bit_depth).quantize(&pooled);
            let p = model.infer_bs(Some(&cut), &batch.powers_norm, chunk.len(), batch.seq_len);
            preds.extend_from_slice(p.data());
        }
        preds
    }

    #[test]
    fn validation_encodes_each_frame_once_with_per_row_bits() {
        let ds = dataset(82);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));
        let (chunk, bits) = (cfg.batch_size.min(VAL_CHUNK), cfg.bit_depth);
        let mut t = SplitTrainer::new(cfg, &ds);
        let val = ds.val_indices().to_vec();
        let strided = subsample(&val, Some(6));
        assert!(strided.windows(2).all(|w| w[1] - w[0] >= ds.seq_len()));
        let cases: [(&str, Vec<usize>); 4] = [
            // Two full chunks and a one-sequence tail.
            ("consecutive", val[..2 * chunk + 1].to_vec()),
            ("strided", strided),
            ("one sequence", vec![val[5]]),
            ("repeated", vec![val[3], val[3], val[4], val[3]]),
        ];
        for (what, idx) in cases {
            let want = per_row_predictions(&mut t, &ds, &idx, chunk, bits);
            let targets: Vec<f32> = idx
                .iter()
                .map(|&k| ds.normalizer().normalize(ds.sample(k).target_dbm))
                .collect();
            let r = rmse(&Tensor::from_slice(&want), &Tensor::from_slice(&targets));
            let rmse_db = ds.normalizer().rmse_to_db(r);
            assert_eq!(
                t.rmse_over(&ds, &idx).to_bits(),
                rmse_db.to_bits(),
                "{what}"
            );
        }
        // The Fig. 3b trace: consecutive windows, over a chunk boundary.
        let trace = t.predict_trace(&ds, 2, chunk + 3);
        let want = per_row_predictions(&mut t, &ds, &val[2..chunk + 5], chunk, bits);
        for (point, &z) in trace.iter().zip(&want) {
            let dbm = ds.normalizer().denormalize(z);
            assert_eq!(point.predicted_dbm.to_bits(), dbm.to_bits());
        }
    }

    #[test]
    fn predict_trace_is_aligned_with_ground_truth() {
        let ds = dataset(76);
        let cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
        let mut t = SplitTrainer::new(cfg, &ds);
        let _ = t.train(&ds);
        let trace = t.predict_trace(&ds, 5, 20);
        assert_eq!(trace.len(), 20);
        for p in &trace {
            assert_eq!(p.actual_dbm, ds.trace().powers_dbm[p.index]);
            assert!(p.predicted_dbm.is_finite());
            assert!((p.time_s - p.index as f64 * 0.033).abs() < 1e-9);
        }
        // Points advance in time.
        assert!(trace.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn telemetry_agrees_with_outcome_and_clock() {
        use sl_telemetry::{MemorySink, Telemetry, TelemetryMode};
        let ds = dataset(77);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        let (sink, events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        let mut t = SplitTrainer::new(cfg, &ds);
        let out = t.train_with(&ds, &mut tele);
        let snap = tele.snapshot();

        assert_eq!(snap.counter("train.steps.applied"), out.steps_applied);
        assert_eq!(snap.counter("train.steps.voided"), out.steps_voided);
        // The acceptance bar: snapshot sim totals equal the SimClock.
        assert!((snap.gauge("sim.compute_s").unwrap() - out.compute_s).abs() < 1e-9);
        assert!((snap.gauge("sim.airtime_s").unwrap() - out.airtime_s).abs() < 1e-9);
        // Per-step sim spans partition the clock exactly.
        assert!((snap.histograms["train.step.compute_s"].sum() - out.compute_s).abs() < 1e-9);
        assert!((snap.histograms["train.step.airtime_s"].sum() - out.airtime_s).abs() < 1e-9);
        // One loss/grad-norm sample per applied step; one host-time sample
        // per attempted step.
        assert_eq!(snap.histograms["train.loss"].count(), out.steps_applied);
        assert_eq!(
            snap.histograms["train.grad_norm.bs"].count(),
            out.steps_applied
        );
        assert_eq!(
            snap.histograms["train.step.host_s"].count(),
            out.steps_applied + out.steps_voided
        );
        // The thread's recorder drained per-layer and per-kernel host
        // time: one UE forward per applied step plus the validation
        // chunks.
        let ue_fwd = snap.histograms["nn.ue.layer.0.fused_cnn.fwd.host_s"].count();
        assert!(ue_fwd > out.steps_applied, "{ue_fwd}");
        assert_eq!(
            snap.histograms["nn.ue.layer.0.fused_cnn.bwd.host_s"].count(),
            out.steps_applied
        );
        assert_eq!(
            snap.histograms["tensor.kernel.fused_cnn_fwd.host_s"].count(),
            ue_fwd
        );
        // The split scheme used both link directions.
        assert_eq!(
            snap.counter("train.uplink.transfers"),
            out.steps_applied + out.steps_voided
        );
        assert!(snap.counter("train.downlink.transfers") > 0);

        // Journal: one epoch event per epoch, then a train_end.
        let evs = events.borrow();
        assert_eq!(evs.iter().filter(|e| e.kind == "epoch").count(), out.epochs);
        assert_eq!(evs.iter().filter(|e| e.kind == "train_end").count(), 1);
    }

    #[test]
    fn telemetry_does_not_perturb_training() {
        let ds = dataset(78);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        let plain = SplitTrainer::new(cfg.clone(), &ds).train(&ds);
        let mut tele = sl_telemetry::Telemetry::summary();
        let instrumented = SplitTrainer::new(cfg, &ds).train_with(&ds, &mut tele);
        assert_eq!(plain.curve, instrumented.curve);
        assert_eq!(plain.steps_applied, instrumented.steps_applied);
        assert_eq!(plain.compute_s, instrumented.compute_s);
        assert_eq!(plain.airtime_s, instrumented.airtime_s);
    }

    #[test]
    fn disabled_telemetry_leaves_nothing_to_drain() {
        let ds = dataset(78);
        let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
        SplitTrainer::new(cfg, &ds).train(&ds);
        let mut tele = sl_telemetry::Telemetry::summary();
        Recording::start(true).finish(&mut tele);
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn outcome_reads_curve() {
        let out = TrainOutcome {
            curve: vec![
                CurvePoint {
                    elapsed_s: 0.0,
                    epoch: 0,
                    val_rmse_db: 9.0,
                },
                CurvePoint {
                    elapsed_s: 1.0,
                    epoch: 1,
                    val_rmse_db: 5.0,
                },
                CurvePoint {
                    elapsed_s: 2.0,
                    epoch: 2,
                    val_rmse_db: 2.0,
                },
            ],
            stop: StopReason::EpochLimit,
            final_rmse_db: 2.0,
            epochs: 2,
            steps_applied: 10,
            steps_voided: 0,
            compute_s: 1.5,
            airtime_s: 0.5,
        };
        assert_eq!(out.best_rmse_db(), 2.0);
        assert!((out.elapsed_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subsample_is_deterministic_and_bounded() {
        let idx: Vec<usize> = (0..1000).collect();
        let s = subsample(&idx, Some(100));
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(subsample(&idx, None).len(), 1000);
        assert_eq!(subsample(&idx[..5], Some(100)).len(), 5);
    }
}
