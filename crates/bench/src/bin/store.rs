//! `store` — the checkpoint/resume gate.
//!
//! Trains the fig3a smoke configuration twice, once uninterrupted and
//! once through a mid-run checkpoint and a fresh process-state resume,
//! and exits nonzero unless the learning curves, simulated clocks and
//! step counts match bitwise (the `store-resume` verify stage). The
//! checkpoint is written under `<dir>/store_resume_ck` (default
//! `results/`) and removed afterwards.
//!
//! ```sh
//! store [<dir>]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sl_bench::{experiment_config, Profile};
use sl_core::{PoolingDim, Scheme, SplitTrainer};
use sl_scene::SequenceDataset;
use sl_telemetry::Telemetry;

const USAGE: &str = "usage: store [<dir>]";

fn main() -> ExitCode {
    let mut dir = PathBuf::from("results");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("store: unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            other => dir = PathBuf::from(other),
        }
    }
    resume_check(&dir)
}

/// Trains the smoke configuration twice — uninterrupted, and split
/// across a checkpoint written after the first epoch and resumed into a
/// freshly constructed trainer — and demands bitwise-identical learning
/// curves and simulated clocks (the checkpoint's reason to exist).
fn resume_check(results_dir: &Path) -> ExitCode {
    let ds: SequenceDataset = sl_bench::build_dataset(Profile::Smoke);
    let cfg = experiment_config(Profile::Smoke, Scheme::ImgRf, PoolingDim::ONE_PIXEL);
    let mut tele = Telemetry::disabled();

    let mut full = SplitTrainer::new(cfg.clone(), &ds);
    let out_full = full.train_with(&ds, &mut tele);

    let ck_dir = results_dir.join("store_resume_ck");
    let _ = std::fs::remove_dir_all(&ck_dir);
    let mut half_cfg = cfg.clone();
    half_cfg.max_epochs = 1;
    let mut first = SplitTrainer::new(half_cfg, &ds);
    first.set_checkpoint_dir(&ck_dir);
    let _ = first.train_with(&ds, &mut tele);
    drop(first); // a fresh trainer resumes from disk state only

    let mut resumed = SplitTrainer::new(cfg, &ds);
    if let Err(e) = resumed.resume_from_checkpoint(&ck_dir) {
        eprintln!("store: resume-check: {e}");
        return ExitCode::from(1);
    }
    let out_resumed = resumed.train_with(&ds, &mut tele);
    let _ = std::fs::remove_dir_all(&ck_dir);

    let curves_match = out_full.curve.len() == out_resumed.curve.len()
        && out_full.curve.iter().zip(&out_resumed.curve).all(|(a, b)| {
            a.epoch == b.epoch
                && a.elapsed_s.to_bits() == b.elapsed_s.to_bits()
                && a.val_rmse_db.to_bits() == b.val_rmse_db.to_bits()
        });
    let clocks_match = out_full.compute_s.to_bits() == out_resumed.compute_s.to_bits()
        && out_full.airtime_s.to_bits() == out_resumed.airtime_s.to_bits();
    let steps_match = out_full.steps_applied == out_resumed.steps_applied
        && out_full.steps_voided == out_resumed.steps_voided;
    if curves_match && clocks_match && steps_match {
        println!(
            "store: resume-check PASS ({} curve points, {} steps, final {:.4} dB)",
            out_full.curve.len(),
            out_full.steps_applied,
            out_full.final_rmse_db
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "store: resume-check FAIL (curves {curves_match}, clocks {clocks_match}, \
             steps {steps_match})"
        );
        eprintln!("store:   full    {:?}", out_full.curve);
        eprintln!("store:   resumed {:?}", out_resumed.curve);
        ExitCode::from(1)
    }
}
