//! An unusable `SLM_THREADS` / `SLM_BACKEND` value falls back to a
//! default, and the run's journal says so: a `warn` event naming each
//! knob, and the `tensor.knob_fallbacks` gauge in its snapshot.
//!
//! The process-wide pool and backend resolve their knobs once, on first
//! use, so this file holds one test: nothing else in its process can
//! resolve them before the variables are set.

use sl_rng::rngs::StdRng;

use sl_core::{ExperimentConfig, PoolingDim, Scheme, SplitTrainer};
use sl_scene::{Scene, SceneConfig, SequenceDataset};
use sl_telemetry::{MemorySink, Telemetry, TelemetryMode, Value};

#[test]
fn unusable_knob_values_reach_the_runs_journal() {
    std::env::set_var("SLM_THREADS", "banana");
    std::env::set_var("SLM_BACKEND", "bogus");

    let mut rng = StdRng::seed_from_u64(40);
    let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
    let ds = SequenceDataset::paper_windowing(scene.simulate(&mut rng));
    let mut cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
    cfg.max_epochs = 1;
    let mut trainer = SplitTrainer::new(cfg, &ds);
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    trainer.train_with(&ds, &mut tele);

    let events = events.borrow();
    for knob in ["SLM_THREADS", "SLM_BACKEND"] {
        let warned: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "warn" && e.field("knob") == Some(&Value::Str(knob.into())))
            .collect();
        assert_eq!(warned.len(), 1, "{knob}: {events:?}");
        match warned[0].field("msg") {
            Some(Value::Str(msg)) => assert!(msg.contains(knob), "{msg}"),
            f => panic!("{knob}: warn event without a message: {f:?}"),
        }
    }
    assert_eq!(tele.snapshot().gauge("tensor.knob_fallbacks"), Some(2.0));
}
