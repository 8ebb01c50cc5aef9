//! Slot-level transfer simulation with retransmission.

use sl_rng::Rng;

use sl_telemetry::{Histogram, Telemetry};

use crate::fading::FadingChannel;
use crate::link::LinkConfig;
use crate::{decode_threshold, success_probability};

/// How a payload is mapped onto time slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetransmissionPolicy {
    /// The paper's policy (after \[6\]): the whole payload is sent in one
    /// slot and retransmitted in subsequent slots until it decodes.
    /// `max_slots` bounds the attempt count so that physically
    /// undecodable payloads (e.g. the 3.3 Mbit 1×1-pooling batch) fail
    /// finitely instead of hanging the simulation.
    WholePayload {
        /// Give up (and report a timeout) after this many slots.
        max_slots: u64,
    },
    /// An engineering extension: the payload is split into
    /// `segment_bits`-sized chunks, each retransmitted independently.
    /// This is how a real link layer would ship a multi-megabit payload;
    /// it turns "never decodes" into "takes many slots", and is used by
    /// the ablation benches.
    Segmented {
        /// Bits per segment (the last segment may be smaller).
        segment_bits: u64,
        /// Give up after this many total slots.
        max_slots: u64,
    },
}

impl RetransmissionPolicy {
    /// The paper's whole-payload policy with a generous slot budget.
    pub fn paper() -> Self {
        RetransmissionPolicy::WholePayload { max_slots: 100_000 }
    }
}

/// Result of one simulated payload transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Delivered after this many slots (≥ 1).
    Delivered {
        /// Total slots consumed, including failed attempts.
        slots: u64,
    },
    /// The slot budget ran out first; `slots` were still consumed.
    TimedOut {
        /// Slots consumed before giving up.
        slots: u64,
    },
}

impl TransferOutcome {
    /// Slots consumed regardless of outcome.
    pub fn slots(&self) -> u64 {
        match *self {
            TransferOutcome::Delivered { slots } | TransferOutcome::TimedOut { slots } => slots,
        }
    }

    /// `true` when the payload arrived.
    pub fn delivered(&self) -> bool {
        matches!(self, TransferOutcome::Delivered { .. })
    }
}

/// Running statistics over many transfers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferStats {
    /// Number of transfers attempted.
    pub transfers: u64,
    /// Number delivered.
    pub delivered: u64,
    /// Total slots consumed.
    pub total_slots: u64,
}

impl TransferStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: TransferOutcome) {
        self.transfers += 1;
        self.total_slots += outcome.slots();
        if outcome.delivered() {
            self.delivered += 1;
        }
    }

    /// Fraction of transfers delivered (1.0 when none attempted).
    pub fn delivery_rate(&self) -> f64 {
        if self.transfers == 0 {
            1.0
        } else {
            self.delivered as f64 / self.transfers as f64
        }
    }

    /// Number of transfers that exhausted their slot budget.
    pub fn timeouts(&self) -> u64 {
        self.transfers - self.delivered
    }

    /// Slots spent beyond the first of each transfer — the retransmission
    /// overhead the link's fading imposes.
    pub fn retransmissions(&self) -> u64 {
        self.total_slots.saturating_sub(self.transfers)
    }

    /// Mean slots per transfer (0.0 when none attempted).
    pub fn mean_slots(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.total_slots as f64 / self.transfers as f64
        }
    }
}

/// Simulates payload transfers over one link direction.
///
/// Owns the fading process for that direction; every transfer draws fresh
/// per-slot fading, checks the Shannon threshold, and either delivers or
/// retransmits according to the policy.
///
/// Every transfer is also recorded into running [`TransferStats`] and a
/// per-transfer slot-count [`Histogram`], so harnesses can publish a
/// link's behaviour into a metrics registry after a run (see
/// [`TransferSimulator::publish_metrics`]) without threading a telemetry
/// handle through the hot path.
#[derive(Debug, Clone)]
pub struct TransferSimulator {
    link: LinkConfig,
    fading: FadingChannel,
    policy: RetransmissionPolicy,
    stats: TransferStats,
    slot_hist: Histogram,
}

impl TransferSimulator {
    /// Creates a simulator for `link` under `policy`.
    pub fn new(link: LinkConfig, policy: RetransmissionPolicy) -> Self {
        TransferSimulator {
            link,
            fading: FadingChannel::new(),
            policy,
            stats: TransferStats::default(),
            slot_hist: Histogram::new(),
        }
    }

    /// The link configuration.
    pub fn link(&self) -> &LinkConfig {
        &self.link
    }

    /// The retransmission policy.
    pub fn policy(&self) -> RetransmissionPolicy {
        self.policy
    }

    /// Whether a single slot carrying `bits` decodes under fading gain `h`.
    fn slot_decodes(&self, bits: f64, h: f64) -> bool {
        let snr = self.link.mean_snr_linear() * h;
        snr > decode_threshold(bits, self.link.bandwidth_hz, self.link.slot_s)
    }

    /// Accumulated statistics over every transfer this simulator ran.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// Publishes the accumulated link metrics under `prefix`:
    /// counters `{prefix}.transfers`, `{prefix}.delivered`,
    /// `{prefix}.timeouts`, `{prefix}.retransmissions`,
    /// `{prefix}.slots_total`; gauge `{prefix}.delivery_rate`; and the
    /// slot-count histogram `{prefix}.slots`.
    pub fn publish_metrics(&self, tele: &mut Telemetry, prefix: &str) {
        if !tele.is_enabled() || self.stats.transfers == 0 {
            return;
        }
        tele.add(&format!("{prefix}.transfers"), self.stats.transfers);
        tele.add(&format!("{prefix}.delivered"), self.stats.delivered);
        tele.add(&format!("{prefix}.timeouts"), self.stats.timeouts());
        tele.add(
            &format!("{prefix}.retransmissions"),
            self.stats.retransmissions(),
        );
        tele.add(&format!("{prefix}.slots_total"), self.stats.total_slots);
        tele.gauge_set(
            &format!("{prefix}.delivery_rate"),
            self.stats.delivery_rate(),
        );
        tele.merge_histogram(&format!("{prefix}.slots"), &self.slot_hist);
    }

    /// Simulates delivering `payload_bits`, returning the outcome.
    pub fn transfer(&mut self, payload_bits: u64, rng: &mut impl Rng) -> TransferOutcome {
        let outcome = self.transfer_inner(payload_bits, rng);
        self.stats.record(outcome);
        self.slot_hist.record(outcome.slots() as f64);
        outcome
    }

    fn transfer_inner(&mut self, payload_bits: u64, rng: &mut impl Rng) -> TransferOutcome {
        match self.policy {
            RetransmissionPolicy::WholePayload { max_slots } => {
                self.deliver_unit(payload_bits as f64, max_slots, 0, rng)
            }
            RetransmissionPolicy::Segmented {
                segment_bits,
                max_slots,
            } => {
                assert!(segment_bits > 0, "Segmented: segment_bits must be positive");
                let mut used = 0u64;
                let mut remaining = payload_bits;
                while remaining > 0 {
                    let chunk = remaining.min(segment_bits);
                    match self.deliver_unit(chunk as f64, max_slots, used, rng) {
                        TransferOutcome::Delivered { slots } => used = slots,
                        timeout => return timeout,
                    }
                    remaining -= chunk;
                }
                TransferOutcome::Delivered { slots: used.max(1) }
            }
        }
    }

    /// Retries one decode unit until success or the *total* slot budget
    /// (`max_slots`, counting `already_used`) is exhausted.
    fn deliver_unit(
        &mut self,
        bits: f64,
        max_slots: u64,
        already_used: u64,
        rng: &mut impl Rng,
    ) -> TransferOutcome {
        let mut used = already_used;
        while used < max_slots {
            let h = self.fading.sample(rng);
            used += 1;
            if self.slot_decodes(bits, h) {
                return TransferOutcome::Delivered { slots: used };
            }
        }
        TransferOutcome::TimedOut { slots: used }
    }

    /// Expected slots for a whole-payload transfer (geometric mean
    /// `1/p`), or `None` when the per-slot success probability underflows
    /// to zero.
    pub fn expected_slots_whole(&self, payload_bits: u64) -> Option<f64> {
        let p = success_probability(&self.link, payload_bits as f64);
        if p <= 0.0 {
            None
        } else {
            Some(1.0 / p)
        }
    }

    /// Seconds corresponding to `slots` on this link.
    pub fn slots_to_seconds(&self, slots: u64) -> f64 {
        slots as f64 * self.link.slot_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PayloadSpec;
    use sl_rng::rngs::StdRng;

    fn sim(policy: RetransmissionPolicy) -> TransferSimulator {
        TransferSimulator::new(LinkConfig::paper_uplink(), policy)
    }

    #[test]
    fn tiny_payload_delivers_first_slot() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = sim(RetransmissionPolicy::paper());
        for _ in 0..100 {
            let out = s.transfer(2_048, &mut rng);
            assert_eq!(out, TransferOutcome::Delivered { slots: 1 });
        }
    }

    #[test]
    fn impossible_payload_times_out() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = sim(RetransmissionPolicy::WholePayload { max_slots: 50 });
        let spec = PayloadSpec::paper(64);
        let out = s.transfer(spec.uplink_bits(1, 1), &mut rng);
        assert_eq!(out, TransferOutcome::TimedOut { slots: 50 });
        assert!(!out.delivered());
    }

    #[test]
    fn segmentation_makes_impossible_payload_deliverable() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = PayloadSpec::paper(64);
        let payload = spec.uplink_bits(1, 1); // 3.28 Mbit
        let mut s = sim(RetransmissionPolicy::Segmented {
            segment_bits: 30_000, // B/(τW) = 1 per segment
            max_slots: 10_000,
        });
        let out = s.transfer(payload, &mut rng);
        assert!(out.delivered(), "{out:?}");
        // ≥ ceil(payload/segment) slots must have been used.
        assert!(out.slots() >= payload / 30_000);
    }

    #[test]
    fn empirical_slot_count_matches_geometric_mean() {
        // Pick a payload whose per-slot success probability is moderate:
        // thr/SNR̄ = ln 2 gives p = 0.5.
        let link = LinkConfig::paper_uplink();
        let snr = link.mean_snr_linear();
        let thr = snr * std::f64::consts::LN_2;
        let bits = ((thr + 1.0).log2() * link.slot_s * link.bandwidth_hz) as u64;
        let mut s = TransferSimulator::new(link, RetransmissionPolicy::paper());
        let p = success_probability(s.link(), bits as f64);
        assert!((p - 0.5).abs() < 0.01, "p = {p}");

        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = TransferStats::default();
        for _ in 0..20_000 {
            stats.record(s.transfer(bits, &mut rng));
        }
        assert_eq!(stats.delivery_rate(), 1.0);
        let expect = s.expected_slots_whole(bits).unwrap();
        assert!(
            (stats.mean_slots() / expect - 1.0).abs() < 0.05,
            "mean {} vs expected {}",
            stats.mean_slots(),
            expect
        );
    }

    #[test]
    fn expected_slots_none_when_undecodable() {
        let s = sim(RetransmissionPolicy::paper());
        let spec = PayloadSpec::paper(64);
        assert_eq!(s.expected_slots_whole(spec.uplink_bits(1, 1)), None);
        let pixel = s.expected_slots_whole(spec.uplink_bits(40, 40)).unwrap();
        assert!((pixel - 1.0).abs() < 1e-6, "expected ≈1 slot, got {pixel}");
    }

    #[test]
    fn slots_to_seconds_uses_slot_length() {
        let s = sim(RetransmissionPolicy::paper());
        assert!((s.slots_to_seconds(1500) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stats_default_is_neutral() {
        let stats = TransferStats::default();
        assert_eq!(stats.delivery_rate(), 1.0);
        assert_eq!(stats.mean_slots(), 0.0);
    }

    #[test]
    fn simulator_accumulates_stats_and_histogram() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = sim(RetransmissionPolicy::WholePayload { max_slots: 10 });
        for _ in 0..50 {
            s.transfer(2_048, &mut rng); // always delivers in 1 slot
        }
        let spec = PayloadSpec::paper(64);
        s.transfer(spec.uplink_bits(1, 1), &mut rng); // always times out
        assert_eq!(s.stats().transfers, 51);
        assert_eq!(s.stats().delivered, 50);
        assert_eq!(s.stats().timeouts(), 1);
        assert_eq!(s.stats().total_slots, 60);
        assert_eq!(s.stats().retransmissions(), 60 - 51);
        assert_eq!(s.slot_hist.count(), 51);
        assert_eq!(s.slot_hist.min(), Some(1.0));
        assert_eq!(s.slot_hist.max(), Some(10.0));
    }

    #[test]
    fn publish_metrics_fills_registry() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = sim(RetransmissionPolicy::paper());
        for _ in 0..20 {
            s.transfer(2_048, &mut rng);
        }
        let mut tele = sl_telemetry::Telemetry::summary();
        s.publish_metrics(&mut tele, "uplink");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("uplink.transfers"), 20);
        assert_eq!(snap.counter("uplink.delivered"), 20);
        assert_eq!(snap.counter("uplink.timeouts"), 0);
        assert_eq!(snap.gauge("uplink.delivery_rate"), Some(1.0));
        assert_eq!(snap.histograms["uplink.slots"].count(), 20);

        // Disabled telemetry records nothing.
        let mut off = sl_telemetry::Telemetry::disabled();
        s.publish_metrics(&mut off, "uplink");
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn downlink_ships_same_payload_faster_or_equal() {
        // The downlink's higher SNR and wider band can only help.
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let bits = 500_000u64;
        let mut ul = TransferSimulator::new(
            LinkConfig::paper_uplink(),
            RetransmissionPolicy::WholePayload { max_slots: 100_000 },
        );
        let mut dl = TransferSimulator::new(
            LinkConfig::paper_downlink(),
            RetransmissionPolicy::WholePayload { max_slots: 100_000 },
        );
        let mut ul_slots = 0u64;
        let mut dl_slots = 0u64;
        for _ in 0..200 {
            ul_slots += ul.transfer(bits, &mut rng_a).slots();
            dl_slots += dl.transfer(bits, &mut rng_b).slots();
        }
        assert!(dl_slots <= ul_slots, "dl {dl_slots} vs ul {ul_slots}");
    }
}
