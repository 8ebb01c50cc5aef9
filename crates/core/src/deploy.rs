//! Deployment: streaming split inference and proactive link control.
//!
//! The paper's motivation (§1) is *proactive* 5G operation: predict the
//! received power `T = 120 ms` ahead so the system can act **before** a
//! pedestrian blocks the beam. This module closes that loop:
//!
//! * [`StreamingDeployment`] replays a trained [`SplitModel`] over a
//!   trace frame by frame, shipping each frame's quantized cut-layer
//!   features over the simulated uplink (per-frame payload
//!   `pooled_pixels · R` bits). A feature that has not fully arrived by
//!   the next frame boundary is a **deadline miss**: the BS falls back
//!   to the most recent delivered feature (stale data), exactly as a
//!   real pipeline would.
//! * [`LinkPolicy`] compares a *proactive* controller (leave the mmWave
//!   link when the `T`-ahead prediction falls below a threshold) with
//!   the *reactive* baseline (leave only after the measured power has
//!   already collapsed). The outage metric is the fraction of frames
//!   spent on a blocked mmWave link.

use sl_rng::rngs::StdRng;

use sl_channel::TransferSimulator;
use sl_scene::SequenceDataset;
use sl_telemetry::{EventBuilder, Telemetry};
use sl_tensor::Tensor;

use crate::config::ExperimentConfig;
use crate::model::SplitModel;

/// One streamed prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPoint {
    /// Trace index of the frame the prediction was made *at*.
    pub at_index: usize,
    /// Trace index of the predicted (future) sample.
    pub target_index: usize,
    /// Predicted received power, dBm.
    pub predicted_dbm: f32,
    /// Ground truth at the target index, dBm.
    pub actual_dbm: f32,
    /// Whether the newest feature arrived after the frame deadline.
    pub stale_feature: bool,
}

/// Summary of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-frame predictions, in time order.
    pub points: Vec<StreamPoint>,
    /// Frames whose feature missed the frame deadline.
    pub deadline_misses: usize,
    /// Total uplink payload shipped, bits.
    pub payload_bits: u64,
    /// Total simulated airtime, seconds.
    pub airtime_s: f64,
}

impl StreamReport {
    /// RMSE (dB) of the streamed predictions.
    pub fn rmse_db(&self) -> f32 {
        assert!(!self.points.is_empty(), "StreamReport: no points");
        let mse: f32 = self
            .points
            .iter()
            .map(|p| (p.predicted_dbm - p.actual_dbm).powi(2))
            .sum::<f32>()
            / self.points.len() as f32;
        mse.sqrt()
    }

    /// Fraction of frames with stale features.
    pub fn miss_rate(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.deadline_misses as f64 / self.points.len() as f64
        }
    }
}

/// Streams a trained model over the validation region of a dataset.
pub struct StreamingDeployment {
    uplink: TransferSimulator,
    /// Slots available per frame interval before a feature goes stale.
    slots_per_frame: u64,
    rng: StdRng,
}

impl StreamingDeployment {
    /// Builds a deployment using the experiment's uplink and
    /// retransmission policy. `frame_interval_s` bounds each feature's
    /// delivery deadline.
    pub fn new(config: &ExperimentConfig, frame_interval_s: f64, seed: u64) -> Self {
        let slots_per_frame = (frame_interval_s / config.uplink.slot_s).floor().max(1.0) as u64;
        StreamingDeployment {
            uplink: TransferSimulator::new(config.uplink.clone(), config.retransmission),
            slots_per_frame,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Slots available per frame.
    pub fn slots_per_frame(&self) -> u64 {
        self.slots_per_frame
    }

    /// Streams `count` validation frames starting at validation offset
    /// `offset` through `model`.
    pub fn run(
        &mut self,
        model: &SplitModel,
        dataset: &SequenceDataset,
        offset: usize,
        count: usize,
    ) -> StreamReport {
        self.run_with(model, dataset, offset, count, &mut Telemetry::disabled())
    }

    /// [`run`](Self::run), additionally publishing deployment metrics:
    /// a `deploy.deadline_miss` counter, a `deploy.feature_age_frames`
    /// staleness histogram (0 = the frame's own feature arrived on time,
    /// `n` = the BS predicted from a feature `n` frames old), the
    /// `deploy.miss_rate` gauge and the uplink's transfer statistics
    /// under `deploy.uplink.*`.
    pub fn run_with(
        &mut self,
        model: &SplitModel,
        dataset: &SequenceDataset,
        offset: usize,
        count: usize,
        tele: &mut Telemetry,
    ) -> StreamReport {
        let val = dataset.val_indices();
        assert!(
            offset + count <= val.len(),
            "StreamingDeployment: window [{offset}, {}) exceeds validation set of {}",
            offset + count,
            val.len()
        );
        let normalizer = dataset.normalizer();
        let l = dataset.seq_len();
        let horizon = dataset.horizon();
        let uses_images = model.scheme().uses_images();
        let payload = model.frame_payload_bits();

        // The features the BS holds for the last `L` frames, oldest
        // first; its last entry is the newest delivered feature (zeros
        // until one arrives).
        let mut feature_window: Vec<Tensor> = Vec::with_capacity(l);
        let mut powers: Vec<f32> = Vec::with_capacity(l);
        let mut points = Vec::with_capacity(count);
        let mut misses = 0usize;
        let mut total_bits = 0u64;
        let mut airtime = 0.0f64;
        // Age (in frames) of the newest feature the BS actually holds.
        let mut feature_age: u64 = 0;

        for &k in &val[offset..offset + count] {
            // Power history is local to the BS.
            powers.clear();
            powers.extend(
                dataset.trace().powers_dbm[k + 1 - l..=k]
                    .iter()
                    .map(|&p| normalizer.normalize(p)),
            );

            let mut stale = false;
            if uses_images {
                // The UE encodes the newest frame and ships it; older
                // features were shipped on previous frames.
                let fresh = model.encode_frame(&dataset.trace().frames[k]);
                let outcome = self.uplink.transfer(payload, &mut self.rng);
                total_bits += payload;
                airtime += self.uplink.slots_to_seconds(outcome.slots());
                let on_time = outcome.delivered() && outcome.slots() <= self.slots_per_frame;
                let arrived = if on_time {
                    feature_age = 0;
                    fresh
                } else {
                    stale = true;
                    misses += 1;
                    feature_age += 1;
                    tele.inc("deploy.deadline_miss");
                    // Mirrored under the net.* namespace so the networked
                    // runtime's dashboards gate on one metric family for
                    // both simulated and socket-borne deadline misses.
                    tele.inc("net.deadline_miss");
                    feature_window
                        .last()
                        .cloned()
                        .unwrap_or_else(|| fresh.map(|_| 0.0))
                };
                tele.observe("deploy.feature_age_frames", feature_age as f64);
                if feature_window.is_empty() {
                    // Cold start: replicate the first feature backwards.
                    feature_window.resize(l, arrived);
                } else {
                    feature_window.rotate_left(1);
                    feature_window[l - 1] = arrived;
                }
            }

            let pred = model.predict_window(&feature_window, &powers);
            let target_index = k + horizon;
            points.push(StreamPoint {
                at_index: k,
                target_index,
                predicted_dbm: normalizer.denormalize(pred),
                actual_dbm: dataset.trace().powers_dbm[target_index],
                stale_feature: stale,
            });
        }

        let report = StreamReport {
            points,
            deadline_misses: misses,
            payload_bits: total_bits,
            airtime_s: airtime,
        };
        if tele.is_enabled() && !report.points.is_empty() {
            tele.add("deploy.frames", report.points.len() as u64);
            tele.gauge_set("deploy.miss_rate", report.miss_rate());
            tele.gauge_add("sim.airtime_s", report.airtime_s);
            self.uplink.publish_metrics(tele, "deploy.uplink");
            tele.emit(
                EventBuilder::new("deploy_end")
                    .u64("frames", report.points.len() as u64)
                    .u64("deadline_misses", report.deadline_misses as u64)
                    .f64("miss_rate", report.miss_rate())
                    .u64("payload_bits", report.payload_bits)
                    .f64("airtime_s", report.airtime_s)
                    .f64("rmse_db", f64::from(report.rmse_db())),
            );
        }
        report
    }
}

/// When the controller leaves / rejoins the mmWave link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkPolicy {
    /// Act on the `T`-ahead *prediction*: leave when the predicted power
    /// drops below `threshold_dbm`, return when it recovers above
    /// `threshold_dbm + hysteresis_db`.
    Proactive {
        /// Leave threshold, dBm.
        threshold_dbm: f32,
        /// Re-entry hysteresis, dB.
        hysteresis_db: f32,
    },
    /// Act on the *measured* power only (the non-predictive baseline):
    /// same thresholds, but decisions lag the fade by one reaction
    /// frame.
    Reactive {
        /// Leave threshold, dBm.
        threshold_dbm: f32,
        /// Re-entry hysteresis, dB.
        hysteresis_db: f32,
    },
}

/// Outcome of running a [`LinkPolicy`] over a streamed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageReport {
    /// Frames spent on the mmWave link while its power was below the
    /// threshold — the outage the controller failed to avoid.
    pub blocked_on_link: usize,
    /// Frames spent off the mmWave link while it was actually fine —
    /// capacity sacrificed to caution.
    pub needless_fallback: usize,
    /// Number of link switches (leave or rejoin).
    pub switches: usize,
    /// Total frames evaluated.
    pub frames: usize,
}

impl OutageReport {
    /// Outage fraction (frames blocked while on the link / total).
    pub fn outage_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.blocked_on_link as f64 / self.frames as f64
        }
    }

    /// Publishes the report into `tele` under `prefix` (e.g.
    /// `"deploy.proactive"`): counters for blocked / needless-fallback /
    /// switch frames plus the `{prefix}.outage_rate` gauge.
    pub fn publish_metrics(&self, tele: &mut Telemetry, prefix: &str) {
        if !tele.is_enabled() {
            return;
        }
        tele.add(
            &format!("{prefix}.blocked_on_link"),
            self.blocked_on_link as u64,
        );
        tele.add(
            &format!("{prefix}.needless_fallback"),
            self.needless_fallback as u64,
        );
        tele.add(&format!("{prefix}.switches"), self.switches as u64);
        tele.add(&format!("{prefix}.frames"), self.frames as u64);
        tele.gauge_set(&format!("{prefix}.outage_rate"), self.outage_rate());
    }
}

/// Simulates a link controller over a streamed window.
///
/// At the frame where a [`StreamPoint`] was produced, the proactive
/// policy consults that point's `T`-ahead prediction, so by the time the
/// fade arrives the switch is already done; the reactive policy consults
/// the measured power of the *current* frame and therefore always reacts
/// after the fact. The outage is evaluated on the points' target frames.
pub fn simulate_link_policy(
    points: &[StreamPoint],
    policy: LinkPolicy,
    trace_powers: &[f32],
) -> OutageReport {
    let (threshold, hysteresis, proactive) = match policy {
        LinkPolicy::Proactive {
            threshold_dbm,
            hysteresis_db,
        } => (threshold_dbm, hysteresis_db, true),
        LinkPolicy::Reactive {
            threshold_dbm,
            hysteresis_db,
        } => (threshold_dbm, hysteresis_db, false),
    };
    let mut on_link = true;
    let mut blocked_on_link = 0usize;
    let mut needless_fallback = 0usize;
    let mut switches = 0usize;

    for p in points {
        // Decision input: prediction (proactive) vs current measurement
        // (reactive).
        let signal = if proactive {
            p.predicted_dbm
        } else {
            trace_powers[p.at_index]
        };
        let want_link = if on_link {
            signal >= threshold
        } else {
            signal >= threshold + hysteresis
        };
        if want_link != on_link {
            switches += 1;
            on_link = want_link;
        }
        // Evaluate at the target frame (what the decision was *for*).
        let actual = p.actual_dbm;
        if on_link && actual < threshold {
            blocked_on_link += 1;
        }
        if !on_link && actual >= threshold {
            needless_fallback += 1;
        }
    }
    OutageReport {
        blocked_on_link,
        needless_fallback,
        switches,
        frames: points.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooling::PoolingDim;
    use crate::scheme::Scheme;
    use crate::trainer::SplitTrainer;
    use sl_scene::{Scene, SceneConfig};

    fn dataset(seed: u64) -> SequenceDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
        SequenceDataset::paper_windowing(scene.simulate(&mut rng))
    }

    fn trained(scheme: Scheme, ds: &SequenceDataset) -> (ExperimentConfig, SplitTrainer) {
        let cfg = ExperimentConfig::quick(scheme, PoolingDim::new(16, 16));
        let mut t = SplitTrainer::new(cfg.clone(), ds);
        t.train(ds);
        (cfg, t)
    }

    #[test]
    fn streaming_produces_aligned_predictions() {
        let ds = dataset(300);
        let (cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 1);
        let report = deploy.run(trainer.model_mut(), &ds, 2, 40);
        assert_eq!(report.points.len(), 40);
        for p in &report.points {
            assert_eq!(p.target_index, p.at_index + 4);
            assert_eq!(p.actual_dbm, ds.trace().powers_dbm[p.target_index]);
            assert!(p.predicted_dbm.is_finite());
        }
        // One feature per frame shipped.
        assert_eq!(
            report.payload_bits,
            40 * trainer.model_mut().frame_payload_bits()
        );
        assert!(report.rmse_db() > 0.0 && report.rmse_db() < 30.0);
    }

    #[test]
    fn tiny_features_meet_their_deadlines() {
        let ds = dataset(301);
        let (cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        // 33 ms deadline = 33 slots; a one-pixel 8-bit feature decodes in
        // one slot on the calibrated link.
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 2);
        assert_eq!(deploy.slots_per_frame(), 33);
        let report = deploy.run(trainer.model_mut(), &ds, 0, 30);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.miss_rate(), 0.0);
    }

    #[test]
    fn streamed_predictions_equal_infer_bs_on_the_windows_as_one_batch() {
        let ds = dataset(301);
        let (cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        let (offset, count) = (3, 30);
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 2);
        let report = deploy.run(trainer.model_mut(), &ds, offset, count);
        assert_eq!(report.deadline_misses, 0);

        // Every feature arrived on time, so the window at stream position
        // `i` holds positions `i+1-L ..= i`, the cold start repeating
        // position 0.
        let model = trainer.model_mut();
        let (l, p, norm) = (ds.seq_len(), model.pooled_pixels(), ds.normalizer());
        let val = &ds.val_indices()[offset..offset + count];
        let feats: Vec<Tensor> = val
            .iter()
            .map(|&k| model.encode_frame(&ds.trace().frames[k]))
            .collect();
        let (mut cut, mut powers) = (Vec::new(), Vec::new());
        for (i, &k) in val.iter().enumerate() {
            for t in 0..l {
                cut.extend_from_slice(feats[(i + t + 1).saturating_sub(l)].data());
                powers.push(norm.normalize(ds.trace().powers_dbm[k + 1 - l + t]));
            }
        }
        let cut = Tensor::from_vec([count * l, 1, 1, p], cut).unwrap();
        let powers = Tensor::from_vec([count, l], powers).unwrap();
        let batch = model.infer_bs(Some(&cut), &powers, count, l);
        for (point, &pred) in report.points.iter().zip(batch.data()) {
            assert_eq!(
                point.predicted_dbm.to_bits(),
                norm.denormalize(pred).to_bits(),
                "frame {}",
                point.at_index
            );
        }
    }

    #[test]
    fn starved_link_causes_misses_not_crashes() {
        let ds = dataset(302);
        let (mut cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        // A link so bad that nothing ever decodes (even the 8-bit
        // per-frame feature): every frame goes stale and the predictor
        // keeps running on zeros.
        cfg.uplink = sl_channel::LinkConfig::paper_uplink().with_mean_snr_db(-90.0);
        cfg.retransmission = sl_channel::RetransmissionPolicy::WholePayload { max_slots: 5 };
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 3);
        let report = deploy.run(trainer.model_mut(), &ds, 0, 20);
        assert_eq!(report.deadline_misses, 20);
        assert!(report.points.iter().all(|p| p.stale_feature));
        assert!(report.points.iter().all(|p| p.predicted_dbm.is_finite()));
    }

    #[test]
    fn rf_only_streams_without_uplink() {
        let ds = dataset(303);
        let (cfg, mut trainer) = trained(Scheme::RfOnly, &ds);
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 4);
        let report = deploy.run(trainer.model_mut(), &ds, 0, 25);
        assert_eq!(report.payload_bits, 0);
        assert_eq!(report.airtime_s, 0.0);
        assert_eq!(report.points.len(), 25);
    }

    #[test]
    fn perfect_oracle_controller_avoids_all_outage() {
        // Synthetic points with perfect predictions: proactive control
        // must produce zero blocked-on-link frames.
        let trace: Vec<f32> = (0..60)
            .map(|k| if (20..30).contains(&k) { -45.0 } else { -18.0 })
            .collect();
        let points: Vec<StreamPoint> = (0..56)
            .map(|k| StreamPoint {
                at_index: k,
                target_index: k + 4,
                predicted_dbm: trace[k + 4],
                actual_dbm: trace[k + 4],
                stale_feature: false,
            })
            .collect();
        let proactive = simulate_link_policy(
            &points,
            LinkPolicy::Proactive {
                threshold_dbm: -30.0,
                hysteresis_db: 3.0,
            },
            &trace,
        );
        assert_eq!(proactive.blocked_on_link, 0);
        assert!(proactive.switches >= 2);

        let reactive = simulate_link_policy(
            &points,
            LinkPolicy::Reactive {
                threshold_dbm: -30.0,
                hysteresis_db: 3.0,
            },
            &trace,
        );
        // The reactive controller is still on the link when the fade
        // arrives (its signal is 4 frames behind the evaluation frame).
        assert!(
            reactive.blocked_on_link > 0,
            "reactive control must suffer outage at fade onset"
        );
        assert!(proactive.outage_rate() < reactive.outage_rate());
    }

    #[test]
    fn deploy_telemetry_counts_misses_and_staleness() {
        use sl_telemetry::{MemorySink, Telemetry, TelemetryMode};
        let ds = dataset(302);
        let (mut cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        // Starved link: every frame misses its deadline.
        cfg.uplink = sl_channel::LinkConfig::paper_uplink().with_mean_snr_db(-90.0);
        cfg.retransmission = sl_channel::RetransmissionPolicy::WholePayload { max_slots: 5 };
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 3);
        let (sink, events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        let report = deploy.run_with(trainer.model_mut(), &ds, 0, 20, &mut tele);

        let snap = tele.snapshot();
        assert_eq!(snap.counter("deploy.deadline_miss"), 20);
        assert_eq!(snap.counter("net.deadline_miss"), 20);
        assert_eq!(snap.counter("deploy.frames"), 20);
        assert_eq!(snap.gauge("deploy.miss_rate"), Some(1.0));
        assert!((snap.gauge("sim.airtime_s").unwrap() - report.airtime_s).abs() < 1e-9);
        // Staleness grows monotonically when nothing ever arrives: ages
        // 1..=20 observed, one per frame.
        let age = &snap.histograms["deploy.feature_age_frames"];
        assert_eq!(age.count(), 20);
        assert_eq!(age.min(), Some(1.0));
        assert_eq!(age.max(), Some(20.0));
        assert_eq!(snap.counter("deploy.uplink.transfers"), 20);
        assert_eq!(snap.counter("deploy.uplink.timeouts"), 20);
        assert!(events.borrow().iter().any(|e| e.kind == "deploy_end"));
    }

    #[test]
    fn net_deadline_miss_gates_stale_feature_fallback() {
        use sl_telemetry::{MemorySink, Telemetry, TelemetryMode};
        let ds = dataset(303);
        let (mut cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        // Marginal link: some frames arrive on time, the rest fall back
        // to the last delivered (stale) feature. Every stale fallback
        // must tick `net.deadline_miss` in lockstep with the report.
        cfg.uplink = sl_channel::LinkConfig::paper_uplink().with_mean_snr_db(-12.0);
        cfg.retransmission = sl_channel::RetransmissionPolicy::WholePayload { max_slots: 3 };
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 1);
        let (sink, _events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        let report = deploy.run_with(trainer.model_mut(), &ds, 0, 30, &mut tele);

        let snap = tele.snapshot();
        assert_eq!(
            snap.counter("net.deadline_miss"),
            report.deadline_misses as u64,
            "net.deadline_miss must count exactly the stale-feature fallbacks"
        );
        assert_eq!(
            snap.counter("net.deadline_miss"),
            snap.counter("deploy.deadline_miss")
        );
        let stale_points = report.points.iter().filter(|p| p.stale_feature).count();
        assert_eq!(stale_points, report.deadline_misses);
    }

    #[test]
    fn deploy_disabled_telemetry_records_nothing() {
        let ds = dataset(300);
        let (cfg, mut trainer) = trained(Scheme::ImgRf, &ds);
        let mut deploy = StreamingDeployment::new(&cfg, ds.trace().frame_interval_s, 1);
        let mut tele = sl_telemetry::Telemetry::disabled();
        deploy.run_with(trainer.model_mut(), &ds, 2, 10, &mut tele);
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn outage_report_publishes_metrics() {
        let r = OutageReport {
            blocked_on_link: 5,
            needless_fallback: 2,
            switches: 4,
            frames: 50,
        };
        let mut tele = sl_telemetry::Telemetry::summary();
        r.publish_metrics(&mut tele, "deploy.proactive");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("deploy.proactive.blocked_on_link"), 5);
        assert_eq!(snap.counter("deploy.proactive.switches"), 4);
        assert_eq!(snap.gauge("deploy.proactive.outage_rate"), Some(0.1));
    }

    #[test]
    fn outage_report_rates() {
        let r = OutageReport {
            blocked_on_link: 5,
            needless_fallback: 2,
            switches: 4,
            frames: 50,
        };
        assert!((r.outage_rate() - 0.1).abs() < 1e-12);
        let empty = OutageReport {
            blocked_on_link: 0,
            needless_fallback: 0,
            switches: 0,
            frames: 0,
        };
        assert_eq!(empty.outage_rate(), 0.0);
    }
}
