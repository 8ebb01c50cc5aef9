//! # `sl-channel` — slot-level mmWave fading-channel simulator
//!
//! Implements the wireless channel model of §2 of the paper, which governs
//! both Table 1 (feed-forward decoding success probability) and the
//! wall-clock axis of Fig. 3a (time spent shipping cut-layer payloads):
//!
//! * Received SNR at slot `t`: `SNR_t = P · r^-α · h_t / (σ² · W)` with
//!   `h_t ~ Exp(1)` i.i.d. multi-path fading ([`LinkConfig`],
//!   [`FadingChannel`]).
//! * A payload of `B` bits transmitted in one slot of length `τ` over
//!   bandwidth `W` is decoded iff `SNR_t > 2^{B/(τW)} − 1` (the Shannon
//!   threshold — the paper's printed `1 − 2^{B/(τW)}` is an evident sign
//!   typo; see DESIGN.md). Otherwise the payload is retransmitted in the
//!   next slot, as in the paper and its reference \[6\]
//!   ([`decode_threshold`], [`TransferSimulator`]).
//! * The uplink payload size follows the paper's formula
//!   `B_UL = N_H·N_W·B·R·L / (w_H·w_W)` ([`PayloadSpec`]).
//!
//! Everything is `f64`, deterministic given the caller's RNG, and
//! side-effect free — the same smoltcp-style "event-driven, no hidden
//! state" discipline the rest of the workspace follows.
//!
//! ```
//! use sl_channel::{success_probability, LinkConfig, PayloadSpec};
//!
//! let link = LinkConfig::paper_uplink();
//! let spec = PayloadSpec::paper(64); // minibatch of 64
//!
//! // The uncompressed 1×1-pooling payload can never decode in a slot…
//! assert!(success_probability(&link, spec.uplink_bits(1, 1) as f64) < 1e-9);
//! // …while the one-pixel payload always does.
//! assert!(success_probability(&link, spec.uplink_bits(40, 40) as f64) > 0.999);
//! ```

mod fading;
mod link;
mod payload;
mod transfer;
mod units;

pub use fading::FadingChannel;
pub use link::LinkConfig;
pub use payload::PayloadSpec;
pub use transfer::{RetransmissionPolicy, TransferOutcome, TransferSimulator, TransferStats};
pub use units::{dbm_to_mw, linear_to_db, mw_to_dbm};

/// Shannon decoding threshold for a `payload_bits` payload in one slot:
/// the minimum SNR such that `τ·W·log2(1 + SNR) ≥ B`, i.e.
/// `2^{B/(τW)} − 1`.
pub fn decode_threshold(payload_bits: f64, bandwidth_hz: f64, slot_s: f64) -> f64 {
    assert!(payload_bits >= 0.0, "decode_threshold: negative payload");
    assert!(
        bandwidth_hz > 0.0 && slot_s > 0.0,
        "decode_threshold: bandwidth and slot length must be positive"
    );
    (payload_bits / (slot_s * bandwidth_hz)).exp2() - 1.0
}

/// Analytic per-slot decoding success probability under unit-mean
/// exponential fading: `P[h > thr / SNR̄] = exp(−thr / SNR̄)`.
pub fn success_probability(link: &LinkConfig, payload_bits: f64) -> f64 {
    let thr = decode_threshold(payload_bits, link.bandwidth_hz, link.slot_s);
    let snr = link.mean_snr_linear();
    (-thr / snr).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_payload_always_decodes() {
        assert_eq!(decode_threshold(0.0, 30e6, 1e-3), 0.0);
        assert_eq!(success_probability(&LinkConfig::paper_uplink(), 0.0), 1.0);
    }

    #[test]
    fn threshold_grows_exponentially_with_payload() {
        let w = 30e6;
        let tau = 1e-3;
        let t1 = decode_threshold(30_000.0, w, tau); // B/(τW) = 1 -> 1.0
        assert!((t1 - 1.0).abs() < 1e-9);
        let t2 = decode_threshold(60_000.0, w, tau); // -> 3.0
        assert!((t2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn success_probability_monotone_in_payload() {
        let link = LinkConfig::paper_uplink();
        let p_small = success_probability(&link, 1_000.0);
        let p_big = success_probability(&link, 1_000_000.0);
        assert!(p_small > p_big);
        assert!((0.0..=1.0).contains(&p_small) && (0.0..=1.0).contains(&p_big));
    }

    #[test]
    fn paper_table1_endpoints() {
        // Paper Table 1: pooling 1×1 (3.28 Mbit payload) has success
        // probability 0.00; pooling 40×40 (2 kbit payload) has 1.00.
        let link = LinkConfig::paper_uplink();
        let spec = PayloadSpec::paper(64);
        let p_raw = success_probability(&link, spec.uplink_bits(1, 1) as f64);
        let p_pixel = success_probability(&link, spec.uplink_bits(40, 40) as f64);
        assert!(p_raw < 1e-6, "1x1 pooling should never decode, got {p_raw}");
        assert!(
            p_pixel > 0.999,
            "one-pixel payload should always decode, got {p_pixel}"
        );
    }
}
