//! **Fig. 3a** — learning curves: validation RMSE (dB) versus elapsed
//! simulated training time (s) for the paper's five configurations:
//!
//! * `RF` — received-power history only (no split, no communication),
//! * `Img` with 1-pixel (40×40) pooling,
//! * `Img` with 4×4 pooling,
//! * `Img+RF` with 4×4 pooling,
//! * `Img+RF` with 1-pixel pooling (the proposal).
//!
//! The elapsed axis is the `sl-core` simulated clock: modelled compute
//! plus slot-accurate airtime of every cut-layer transfer over the
//! calibrated uplink (DESIGN.md §5). Reproduction targets: RF converges
//! first but plateaus highest; among image schemes the 1-pixel Img+RF
//! both converges fastest (cheapest payload ⇒ most SGD steps per second)
//! and reaches the lowest RMSE.
//!
//! With `--addr HOST:PORT` (or `--addr-file PATH`, a file holding it)
//! the same sweep runs over a real socket: the UE half trains here and
//! the BS half in an `slm-bs` process, one session per configuration.
//! The artifacts then go to `results/fig3a_net/`, whose manifest records
//! the link under `net`. At `SLM_THREADS=1` its `fig3a.csv` is
//! byte-identical to the in-process one (DESIGN.md §9), which
//! `verify.sh`'s `net-bitwise` stage checks with `cmp`.
//!
//! ```sh
//! cargo run --release -p sl-bench --bin fig3a            # quick profile
//! SLM_PROFILE=full cargo run --release -p sl-bench --bin fig3a
//! cargo run --release -p sl-net --bin slm-bs -- \
//!     --addr 127.0.0.1:0 --sessions 5 --port-file /tmp/bs.port &
//! SLM_THREADS=1 cargo run --release -p sl-bench --bin fig3a -- \
//!     --addr-file /tmp/bs.port
//! ```

use std::process::ExitCode;

use sl_bench::{build_dataset, fig3a_sweep, Experiment};
use sl_core::SplitTrainer;
use sl_net::{NetTrainer, RetryPolicy, UeClient};

/// The BS address from `--addr HOST:PORT` or `--addr-file PATH`;
/// `None` runs the sweep in process.
fn parse_addr() -> Result<Option<String>, String> {
    let mut addr = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--addr-file" => {
                let path = value("--addr-file")?;
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
                addr = Some(text.trim().to_string());
            }
            "--help" | "-h" => {
                return Err("usage: fig3a [--addr HOST:PORT | --addr-file PATH]".to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(addr)
}

fn main() -> ExitCode {
    let addr = match parse_addr() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fig3a: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut exp = Experiment::start(if addr.is_some() { "fig3a_net" } else { "fig3a" });
    let profile = exp.profile();
    let dataset = build_dataset(profile);
    let over = match &addr {
        Some(a) => format!("over the socket runtime — BS at {a}"),
        None => "learning curves".to_string(),
    };
    exp.progress(&format!(
        "Fig. 3a — {over} ({:?} profile: {} train / {} val sequences)",
        profile,
        dataset.train_indices().len(),
        dataset.val_indices().len()
    ));

    // Context row: a closed-form linear autoregression on the RF history
    // (zero training time). Any learned scheme must beat this floor.
    let ols = sl_core::LinearRfBaseline::fit(&dataset);
    println!(
        "{:<28} best {:>5.2} dB  (closed-form OLS on the RF history; no training)",
        "linear-AR baseline",
        ols.val_rmse(&dataset)
    );

    let retry = RetryPolicy::default();
    let swept = match &addr {
        None => fig3a_sweep(&mut exp, |cfg, tele| {
            Ok(SplitTrainer::new(cfg, &dataset).train_with(&dataset, tele))
        }),
        // One BS session per configuration: connect, handshake, train,
        // clean shutdown.
        Some(addr) => fig3a_sweep(&mut exp, |cfg, tele| {
            let client =
                UeClient::connect(addr, retry).map_err(|e| format!("connect {addr}: {e}"))?;
            let mut trainer = NetTrainer::new(cfg, &dataset, client).map_err(|e| e.to_string())?;
            let out = trainer
                .train_with(&dataset, tele)
                .map_err(|e| e.to_string())?;
            trainer.finish().map_err(|e| e.to_string())?;
            Ok(out)
        }),
    };
    let outcomes = match swept {
        Ok(o) => o,
        Err(e) => {
            exp.telemetry().warn(&format!("fig3a: {e}"));
            return ExitCode::FAILURE;
        }
    };

    // ---- paper-shape checks -------------------------------------------------
    println!("\npaper-shape check:");
    let find = |label: &str| {
        &outcomes
            .iter()
            .find(|(l, _)| l == label)
            .expect("configuration ran")
            .1
    };
    let rf = find("RF");
    let img_rf_pixel = find("Img+RF, 40x40 (1-pixel)");
    let img_rf_medium = find("Img+RF, 4x4");
    let img_pixel = find("Img, 40x40 (1-pixel)");

    // (1) RF converges earliest in elapsed time (lowest airtime) but
    //     plateaus above the image-assisted schemes.
    let rf_first_epoch_time = rf.curve.get(1).map(|p| p.elapsed_s).unwrap_or(f64::MAX);
    let pix_first_epoch_time = img_rf_pixel
        .curve
        .get(1)
        .map(|p| p.elapsed_s)
        .unwrap_or(0.0);
    println!(
        "  RF cheapest per epoch ({:.3} s vs {:.3} s for 1-pixel Img+RF): {}",
        rf_first_epoch_time,
        pix_first_epoch_time,
        yes(rf_first_epoch_time < pix_first_epoch_time)
    );
    println!(
        "  RF plateaus above 1-pixel Img+RF ({:.2} dB vs {:.2} dB): {}",
        rf.best_rmse_db(),
        img_rf_pixel.best_rmse_db(),
        yes(rf.best_rmse_db() > img_rf_pixel.best_rmse_db())
    );
    // (2) 1-pixel Img+RF trains faster per wall-second than 4×4 Img+RF
    //     (smaller payload ⇒ less airtime per step).
    let pix_rate = img_rf_pixel.steps_applied as f64 / img_rf_pixel.elapsed_s().max(1e-9);
    let med_rate = img_rf_medium.steps_applied as f64 / img_rf_medium.elapsed_s().max(1e-9);
    println!(
        "  1-pixel Img+RF does more steps/simulated-second than 4x4 ({:.1} vs {:.1}): {}",
        pix_rate,
        med_rate,
        yes(pix_rate > med_rate)
    );
    // (3) Img+RF beats Img-only at the same pooling (multimodality helps).
    println!(
        "  Img+RF (1-pixel) beats Img-only (1-pixel) ({:.2} dB vs {:.2} dB): {}",
        img_rf_pixel.best_rmse_db(),
        img_pixel.best_rmse_db(),
        yes(img_rf_pixel.best_rmse_db() < img_pixel.best_rmse_db())
    );

    if let Some(addr) = &addr {
        // Record the link configuration in the run manifest so a
        // regression report can tell networked runs from in-process ones.
        exp.annotate_raw(
            "net",
            &format!(
                "{{\"bs_addr\":\"{addr}\",\"protocol_version\":{},\"max_extra_attempts\":{},\
                 \"read_timeout_ms\":{},\"backoff_ms\":{},\"fault_model\":\"channel-slots\"}}",
                sl_net::PROTOCOL_VERSION,
                retry.max_extra_attempts,
                retry.read_timeout.as_millis(),
                retry.backoff.as_millis(),
            ),
        );
    }
    exp.finish();
    ExitCode::SUCCESS
}

fn yes(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}
