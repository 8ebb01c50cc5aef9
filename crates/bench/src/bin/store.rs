//! `store` — chunked-store codec benchmark and determinism harness.
//!
//! Three modes, all built on the fig3a smoke scene so the workload is
//! byte-identical across runs and machines:
//!
//! * **default** — measure encode/decode throughput, compression ratio
//!   and the lossless round-trip verdict for each (workload, codec)
//!   pairing — smoke-scene depth frames under `raw` and `delta+rle`,
//!   quantized cut-layer-style activations under `bitpack8` (routed
//!   through the append-only [`ActivationLog`], the privacy-audit
//!   path). The batch of [`STORE`] entries is appended to
//!   `results/BENCH_store.json` and rendered / gated with
//!   `slm-report --store [--check]`. Throughputs are recorded for the
//!   trajectory but never gated — they are host-dependent.
//! * **`--encode-scene DIR`** — chunk-encode the smoke scene into
//!   `DIR`. The encoded bytes are a pure function of the scene and the
//!   codec, so `scripts/verify.sh` runs this twice at different
//!   `SLM_THREADS` and `cmp`s every chunk file (the `store-bitwise`
//!   stage).
//! * **`--resume-check`** — train the smoke configuration twice, once
//!   uninterrupted and once through a mid-run checkpoint + a fresh
//!   process-state resume; exit nonzero unless the learning curves and
//!   simulated clocks match bitwise (the `store-resume` stage).
//!
//! ```sh
//! store                      # measure, append to results/BENCH_store.json
//! store --no-append          # measure + print only
//! store --encode-scene DIR   # deterministic chunked encode of the scene
//! store --resume-check       # checkpoint/resume bitwise gate
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sl_rng::rngs::StdRng;

use sl_bench::report::{
    append_trajectory, check, render_table, trajectory_path, CheckConfig, Entry, STORE,
};
use sl_bench::{experiment_config, Profile, SCENE_SEED};
use sl_core::{PoolingDim, Scheme, SplitTrainer};
use sl_scene::{MeasurementTrace, Scene, SceneConfig, SequenceDataset};
use sl_store::{
    configured_chunk_items, configured_codec, read_array, write_array, ActivationLog, Codec,
    MemStorage, StoreMetrics,
};
use sl_telemetry::Telemetry;
use sl_tensor::ComputePool;

const USAGE: &str =
    "usage: store [--no-append] [--encode-scene DIR] [--resume-check] [<results-dir>]";

fn main() -> ExitCode {
    let mut no_append = false;
    let mut encode_scene: Option<PathBuf> = None;
    let mut resume_check = false;
    let mut results_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-append" => no_append = true,
            "--resume-check" => resume_check = true,
            "--encode-scene" => match args.next() {
                Some(dir) => encode_scene = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("store: --encode-scene needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("store: unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            dir => results_dir = PathBuf::from(dir),
        }
    }

    if let Some(dir) = encode_scene {
        return encode_scene_mode(&dir);
    }
    if resume_check {
        return resume_check_mode(&results_dir);
    }
    bench_mode(&results_dir, no_append)
}

/// The fig3a smoke scene's measurement trace, regenerated exactly as
/// [`sl_bench::build_dataset`] builds it (generate + simulate off one
/// seeded stream) so every mode of this bin shares the figure workload.
fn smoke_trace() -> MeasurementTrace {
    let config = SceneConfig {
        num_frames: Profile::Smoke.num_frames(),
        ..SceneConfig::paper()
    };
    let mut rng = StdRng::seed_from_u64(SCENE_SEED);
    let scene = Scene::generate(config, &mut rng);
    scene.simulate(&mut rng)
}

fn encode_scene_mode(dir: &Path) -> ExitCode {
    let trace = smoke_trace();
    let mut metrics = StoreMetrics::default();
    let codec = configured_codec(Codec::DeltaRle);
    if let Err(e) = trace.save_chunked(dir, codec, &mut metrics) {
        eprintln!("store: encode-scene {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    eprintln!(
        "store: encoded {} frames into {} ({} chunks, ratio {:.2}, codec {})",
        trace.len(),
        dir.display(),
        metrics.chunks_written,
        metrics.ratio(),
        codec.name()
    );
    ExitCode::SUCCESS
}

/// Best-observed throughput for `f` over `bytes` of raw payload, in
/// MB/s (1e6 bytes): one warm-up call, then three timed samples.
fn time_mbps(bytes: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best.max(1e-9) / 1e6
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Measures one (workload, codec) pairing through a full
/// `write_array`/`read_array` cycle against in-memory storage.
fn measure(
    now_s: u64,
    workload: &str,
    values: &[f32],
    item_len: usize,
    codec: Codec,
) -> Result<Entry, sl_store::StoreError> {
    let pool = ComputePool::global();
    let chunk_items = configured_chunk_items(item_len);
    let raw_bytes = values.len() * 4;

    // One un-timed cycle establishes the compression ratio and the
    // lossless verdict; the timed loops then only measure throughput.
    let mut storage = MemStorage::new();
    let mut metrics = StoreMetrics::default();
    write_array(
        &mut storage,
        workload,
        item_len,
        values,
        chunk_items,
        codec,
        pool,
        &mut metrics,
    )?;
    let ratio = metrics.ratio();
    let (_, decoded) = read_array(&storage, workload, pool, &mut metrics)?;
    let lossless = bits_eq(values, &decoded);

    let mut scratch = StoreMetrics::default();
    let encode_mbps = time_mbps(raw_bytes, || {
        let mut s = MemStorage::new();
        write_array(
            &mut s,
            workload,
            item_len,
            values,
            chunk_items,
            codec,
            pool,
            &mut scratch,
        )
        // slm-lint: allow(no-expect) the un-timed cycle above already proved this exact write succeeds
        .expect("timed write matches the verified one");
    });
    let decode_mbps = time_mbps(raw_bytes, || {
        // slm-lint: allow(no-expect) the un-timed cycle above already proved this exact read succeeds
        read_array(&storage, workload, pool, &mut scratch).expect("timed read matches");
    });

    eprintln!(
        "store: {workload} {} ({:.2} MB)",
        codec.name(),
        raw_bytes as f64 / 1e6
    );
    Ok(Entry::new()
        .num("timestamp_s", now_s as f64)
        .str("workload", workload)
        .str("codec", &codec.name())
        .num("threads", pool.threads() as f64)
        .num("raw_mb", raw_bytes as f64 / 1e6)
        .num("encode_mbps", encode_mbps)
        .num("decode_mbps", decode_mbps)
        .num("ratio", ratio)
        .bool("lossless", lossless))
}

fn bench_mode(results_dir: &Path, no_append: bool) -> ExitCode {
    let trace = smoke_trace();
    let (h, w) = (trace.frames[0].dims()[0], trace.frames[0].dims()[1]);
    let item_len = h * w;
    let mut pixels: Vec<f32> = Vec::with_capacity(trace.len() * item_len);
    for frame in &trace.frames {
        pixels.extend_from_slice(frame.data());
    }
    // Cut-layer-style activations: the same pixels snapped onto the
    // 8-bit quantizer grid `k / 255` (what the uplink actually carries).
    let activations: Vec<f32> = pixels
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() / 255.0)
        .collect();

    let now_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut batch = Vec::new();
    for (workload, values, codec) in [
        ("frames", &pixels, Codec::Raw),
        ("frames", &pixels, Codec::DeltaRle),
        ("activations", &activations, Codec::Bitpack { bit_depth: 8 }),
    ] {
        match measure(now_s, workload, values, item_len, codec) {
            Ok(e) => batch.push(e),
            Err(e) => {
                eprintln!("store: {workload} {}: {e}", codec.name());
                return ExitCode::from(1);
            }
        }
    }

    // The privacy-audit path: the same activations through the
    // append-only log, one frame per append, read back whole.
    if let Err(e) = exercise_activation_log(&activations, item_len) {
        eprintln!("store: activation log: {e}");
        return ExitCode::from(1);
    }

    print!("{}", render_table(&STORE, &batch));
    let failures = check(&STORE, &batch, &[], &CheckConfig::default());
    for f in &failures {
        eprintln!("store: FAIL {f}");
    }

    if !no_append {
        let path = trajectory_path(results_dir, STORE.name);
        match append_trajectory(&STORE, &path, STORE.name, &batch) {
            Ok(total) => eprintln!(
                "store: appended {} entries to {} ({total} total)",
                batch.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("store: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn exercise_activation_log(activations: &[f32], item_len: usize) -> Result<(), String> {
    let mut metrics = StoreMetrics::default();
    let mut log = ActivationLog::create(
        MemStorage::new(),
        "audit",
        item_len,
        Codec::Bitpack { bit_depth: 8 },
    )
    .map_err(|e| e.to_string())?;
    for frame in activations.chunks_exact(item_len).take(64) {
        log.append(frame, &mut metrics).map_err(|e| e.to_string())?;
    }
    let back = log
        .read_all(ComputePool::global(), &mut metrics)
        .map_err(|e| e.to_string())?;
    if !bits_eq(&back, &activations[..back.len()]) || log.items() != 64 {
        return Err("append-only log round-trip diverged".to_string());
    }
    eprintln!(
        "store: activation log {} appends, {} items, ratio {:.2}",
        metrics.log_appends,
        log.items(),
        metrics.ratio()
    );
    Ok(())
}

/// Trains the smoke configuration twice — uninterrupted, and split
/// across a checkpoint written after the first epoch and resumed into a
/// freshly constructed trainer — and demands bitwise-identical learning
/// curves and simulated clocks (the checkpoint's reason to exist).
fn resume_check_mode(results_dir: &Path) -> ExitCode {
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
