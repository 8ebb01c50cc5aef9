//! Golden test for `slm-report`: run a real (tiny) experiment through
//! the [`sl_bench::Experiment`] harness, generate the markdown report
//! from its `results/` directory, and check the per-layer table, the
//! profiler-vs-trainer time coverage, the `BENCH_*.json` round-trip and
//! the regression gate (including the end-to-end binary exit code).

use std::path::{Path, PathBuf};

use sl_rng::rngs::StdRng;

use sl_bench::report::{
    append_trajectory, bench_path, check, entry_from_run, load_run, load_trajectory,
    render_markdown, run_metrics, RUN,
};
use sl_bench::{Experiment, Profile};
use sl_core::{ExperimentConfig, PoolingDim, Scheme, SplitTrainer};
use sl_scene::{Scene, SceneConfig, SequenceDataset};

fn tiny_dataset(seed: u64) -> SequenceDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
    SequenceDataset::paper_windowing(scene.simulate(&mut rng))
}

/// Runs one tiny instrumented training run under `base/<name>/` and
/// returns the run directory.
fn run_experiment(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let mut exp =
        Experiment::start_configured(dir.clone(), name, Some("jsonl"), Some(Profile::Smoke));
    let ds = tiny_dataset(42);
    let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(16, 16));
    exp.record_run("Img+RF, 1-pixel", &cfg);
    let mut trainer = SplitTrainer::new(cfg, &ds);
    let _ = trainer.train_with(&ds, exp.telemetry());
    exp.finish();
    dir
}

#[test]
fn report_golden_round_trip() {
    let base = std::env::temp_dir().join("slm_report_golden");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let dir = run_experiment(&base, "goldenexp");

    let run = load_run(&dir).expect("artifacts load");
    assert_eq!(run.name, "goldenexp");
    assert_eq!(run.profile, "smoke");
    assert_eq!(run.config_hashes.len(), 1);
    assert!(run.health_events.is_empty(), "{:?}", run.health_events);

    // The markdown report contains the per-layer table with both model
    // halves and the UE stack's layers.
    let md = render_markdown(&run);
    assert!(md.contains("# slm-report: goldenexp"), "{md}");
    assert!(md.contains("## Per-layer profile"), "{md}");
    assert!(md.contains("| ue | 0 |"), "missing UE layer rows:\n{md}");
    assert!(md.contains("| bs | 0 |"), "missing BS layer rows:\n{md}");
    assert!(md.contains("## Health"), "{md}");
    assert!(md.contains("No health events."), "{md}");

    // Acceptance bar: per-layer host time sums to the trainer's model
    // time within 5%.
    let m = run_metrics(&run);
    assert!(m.model_host_s > 0.0);
    let coverage = m.profile_coverage().expect("model time recorded");
    assert!(
        coverage > 0.95 && coverage <= 1.001,
        "per-layer time covers {:.1}% of train.model.host_s",
        100.0 * coverage
    );

    // Trajectory entry round-trips through the hand-rolled JSON parser.
    let entry = entry_from_run(&run, 123);
    assert!(entry.get_num("val_rmse_db").is_finite());
    let traj = bench_path(&run);
    assert!(traj.ends_with("BENCH_goldenexp.json"), "{traj:?}");
    assert_eq!(
        append_trajectory(&RUN, &traj, &run.name, std::slice::from_ref(&entry)).unwrap(),
        1
    );
    let back = load_trajectory(&RUN, &traj).unwrap();
    assert_eq!(back, vec![entry.clone()]);

    // The gate: identical metrics pass, an injected 2× RMSE regression
    // fails.
    assert!(check(&RUN, std::slice::from_ref(&entry), &back).is_empty());
    let regressed = entry
        .clone()
        .num("val_rmse_db", 2.0 * entry.get_num("val_rmse_db"));
    assert!(!check(&RUN, &[regressed], &back).is_empty());

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn slm_report_binary_gates_regressions() {
    use std::process::Command;
    let base = std::env::temp_dir().join("slm_report_bin_gate");
    let _ = std::fs::remove_dir_all(&base);
    let dir = run_experiment(&base, "binexp");
    let bin = env!("CARGO_BIN_EXE_slm-report");

    // First --check: no baseline -> PASS (exit 0) and appends the entry.
    let out = Command::new(bin)
        .arg("--check")
        .arg(&dir)
        .output()
        .expect("slm-report runs");
    assert!(
        out.status.success(),
        "first check failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(base.join("BENCH_binexp.json").exists());

    // Second --check against the fresh baseline: identical run -> PASS.
    let out = Command::new(bin)
        .arg("--check")
        .arg(&dir)
        .output()
        .expect("slm-report runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // Inject a 2× RMSE regression into the snapshot -> FAIL (exit != 0).
    let snap_path = dir.join("snapshot.json");
    let snap_text = std::fs::read_to_string(&snap_path).unwrap();
    let snap = sl_telemetry::Snapshot::from_json(&snap_text).unwrap();
    let mut worse = snap.clone();
    let rmse = worse.gauges["train.val_rmse_db"];
    worse.gauges.insert("train.val_rmse_db".into(), 2.0 * rmse);
    std::fs::write(&snap_path, worse.to_json() + "\n").unwrap();

    let out = Command::new(bin)
        .arg("--check")
        .arg(&dir)
        .output()
        .expect("slm-report runs");
    assert!(
        !out.status.success(),
        "2x RMSE regression must fail the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAIL"));

    // Report mode renders markdown to stdout.
    std::fs::write(&snap_path, snap.to_json() + "\n").unwrap();
    let out = Command::new(bin)
        .arg("--no-append")
        .arg(&dir)
        .output()
        .expect("slm-report runs");
    assert!(out.status.success());
    let md = String::from_utf8_lossy(&out.stdout);
    assert!(md.contains("## Per-layer profile"), "{md}");

    std::fs::remove_dir_all(&base).ok();
}
