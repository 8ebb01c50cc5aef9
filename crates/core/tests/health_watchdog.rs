//! Integration tests for the training-health watchdog: a deliberately
//! diverging run (huge learning rate) must trip the monitor — aborting
//! under `abort`, completing under `warn` — and journal a
//! `health.diverged` event either way.

use sl_rng::rngs::StdRng;

use sl_core::{
    ExperimentConfig, HealthAction, HealthConfig, PoolingDim, Scheme, SplitTrainer, StopReason,
};
use sl_scene::{Scene, SceneConfig, SequenceDataset};
use sl_telemetry::{MemorySink, Telemetry, TelemetryMode};

fn dataset(seed: u64) -> SequenceDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
    SequenceDataset::paper_windowing(scene.simulate(&mut rng))
}

fn diverging_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
    cfg.learning_rate = 1.0e4; // guaranteed divergence
    cfg.max_epochs = 20;
    cfg
}

fn tight_watchdog(action: HealthAction) -> HealthConfig {
    HealthConfig {
        action,
        patience: 5,
        warmup_steps: 2,
        ..HealthConfig::default()
    }
}

#[test]
fn diverging_run_aborts_with_health_event() {
    let ds = dataset(90);
    let mut t = SplitTrainer::new(diverging_config(), &ds);
    t.set_health_config(tight_watchdog(HealthAction::Abort));
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    let out = t.train_with(&ds, &mut tele);

    assert_eq!(out.stop, StopReason::HealthAborted);
    assert!(t.health().tripped());
    // The run stopped long before the epoch budget.
    assert!(out.epochs < 20, "aborted at epoch {}", out.epochs);

    let evs = events.borrow();
    let health: Vec<_> = evs.iter().filter(|e| e.kind == "health.diverged").collect();
    assert_eq!(health.len(), 1, "exactly one health event per run");
    match health[0].field("action") {
        Some(sl_telemetry::Value::Str(s)) => assert_eq!(s, "abort"),
        f => panic!("health event missing action field: {f:?}"),
    }
    assert_trips_on_loss_ema(health[0]);
    // The report is available and readable after the abort.
    let report = t.health().report();
    assert!(report.contains("training-health report"), "{report}");
}

#[test]
fn diverging_run_completes_under_warn() {
    let ds = dataset(90);
    let mut t = SplitTrainer::new(diverging_config(), &ds);
    t.set_health_config(tight_watchdog(HealthAction::Warn));
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    let out = t.train_with(&ds, &mut tele);

    // Warn mode never aborts: the run uses its full epoch budget (the
    // sky-high RMSE never reaches the target).
    assert_ne!(out.stop, StopReason::HealthAborted);
    assert_eq!(out.epochs, 20);
    assert!(t.health().tripped());
    let evs = events.borrow();
    let health: Vec<_> = evs.iter().filter(|e| e.kind == "health.diverged").collect();
    assert_eq!(
        health.len(),
        1,
        "the watchdog journals once, then goes quiet"
    );
    assert_trips_on_loss_ema(health[0]);
}

/// The diverging runs trip on the loss-EMA rule, not on a non-finite
/// stream.
fn assert_trips_on_loss_ema(event: &sl_telemetry::Event) {
    match event.field("metric") {
        Some(sl_telemetry::Value::Str(s)) => assert_eq!(s, "loss_ema"),
        f => panic!("health event missing metric field: {f:?}"),
    }
}

#[test]
fn healthy_run_never_trips() {
    let ds = dataset(91);
    let cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
    let mut t = SplitTrainer::new(cfg, &ds);
    t.set_health_config(tight_watchdog(HealthAction::Abort));
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    let out = t.train_with(&ds, &mut tele);
    assert_ne!(out.stop, StopReason::HealthAborted);
    assert!(!t.health().tripped());
    assert!(events.borrow().iter().all(|e| e.kind != "health.diverged"));
}
