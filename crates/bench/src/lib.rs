//! # `sl-bench` — experiment harness
//!
//! Shared plumbing for the figure/table regeneration binaries
//! (`fig2`, `fig3a`, `fig3b`, `table1`, `ablation`), the `kernels`
//! micro-benchmark and the `store` resume gate. Each binary prints the paper-comparable rows to
//! stdout and writes its artifacts — CSV series, a `manifest.json`
//! describing every training run, and a final metrics `snapshot.json` —
//! under `results/<experiment>/` (see README *Observability*).
//!
//! Three profiles, selected by the `SLM_PROFILE` environment variable:
//!
//! * `smoke`: an 800-frame scene and 2 epochs — seconds-scale, used by
//!   `scripts/verify.sh` to feed the `slm-report` regression gate.
//! * `quick` (default): a 4,000-frame scene, ≤ 30 epochs, subsampled
//!   validation — every experiment finishes in minutes on a laptop.
//! * `full`: the paper's 13,228-frame scene and ≤ 100-epoch budget.
//!
//! Both profiles use the paper's architecture, hyper-parameters and
//! channel model; only the trace length and epoch budget differ.
//!
//! Telemetry: every binary opens one [`Experiment`], which builds its
//! [`Telemetry`] handle from `SLM_TELEMETRY` / `SLM_TELEMETRY_PATH`.
//! Progress chatter (headers, sparklines, "wrote ..." notes) goes
//! through [`Experiment::progress`] so `SLM_TELEMETRY=off` leaves only
//! the paper-comparable result rows on stdout.

pub mod report;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use sl_rng::fnv1a_64;
use sl_rng::rngs::StdRng;

use sl_core::{ExperimentConfig, PoolingDim, Scheme, TrainOutcome};
use sl_scene::{Scene, SceneConfig, SequenceDataset};
use sl_telemetry::json::{JsonArray, JsonObject};
use sl_telemetry::{EventBuilder, Snapshot, Telemetry};

/// Experiment scale profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-scale CI smoke runs (profiling/report gate).
    Smoke,
    /// Minutes-scale runs (default).
    Quick,
    /// The paper's full scale.
    Full,
}

impl Profile {
    /// Parses an `SLM_PROFILE` value; `None` (unset) selects quick. An
    /// unrecognized value is an `Err` carrying it so the caller can
    /// report the misconfiguration instead of silently running quick.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("quick") => Ok(Profile::Quick),
            Some("full") => Ok(Profile::Full),
            Some("smoke") => Ok(Profile::Smoke),
            Some(other) => Err(other.to_string()),
        }
    }

    /// Reads `SLM_PROFILE` (`quick` | `full`), defaulting to quick.
    pub fn from_env() -> Self {
        Self::from_env_logged(&mut Telemetry::disabled())
    }

    /// [`Profile::from_env`], journaling a warning through `tele` when
    /// the variable is set to something unrecognized (the warning always
    /// reaches stderr, even in `off` mode).
    pub fn from_env_logged(tele: &mut Telemetry) -> Self {
        let raw = std::env::var("SLM_PROFILE").ok();
        match Self::parse(raw.as_deref()) {
            Ok(p) => p,
            Err(bad) => {
                tele.warn(&format!(
                    "unrecognized SLM_PROFILE value {bad:?} (expected smoke|quick|full); \
                     using quick"
                ));
                Profile::Quick
            }
        }
    }

    /// The profile's `SLM_PROFILE` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    /// Scene frames for this profile.
    pub fn num_frames(self) -> usize {
        match self {
            Profile::Smoke => 800,
            Profile::Quick => 4_000,
            Profile::Full => 13_228,
        }
    }

    /// Epoch budget for this profile.
    pub fn max_epochs(self) -> usize {
        match self {
            Profile::Smoke => 2,
            Profile::Quick => 30,
            Profile::Full => 100,
        }
    }

    /// Validation subsample cap.
    pub fn val_subsample(self) -> Option<usize> {
        match self {
            Profile::Smoke => Some(64),
            Profile::Quick => Some(256),
            Profile::Full => Some(1_024),
        }
    }

    /// UE CNN hidden channels (the quick profile halves the paper's 8 —
    /// measured accuracy difference on the synthetic scene is < 0.1 dB,
    /// wall time halves; the smoke profile halves again).
    pub fn conv_channels(self) -> usize {
        match self {
            Profile::Smoke => 2,
            Profile::Quick => 4,
            Profile::Full => 8,
        }
    }
}

/// The seed every harness uses for the scene (so figures share one
/// trace).
pub const SCENE_SEED: u64 = 1;

/// Builds the shared scene + dataset for a profile.
pub fn build_dataset(profile: Profile) -> SequenceDataset {
    let config = SceneConfig {
        num_frames: profile.num_frames(),
        ..SceneConfig::paper()
    };
    let mut rng = StdRng::seed_from_u64(SCENE_SEED);
    let scene = Scene::generate(config, &mut rng);
    SequenceDataset::paper_windowing(scene.simulate(&mut rng))
}

/// The shared scene object (for harnesses that need geometry access).
pub fn build_scene(profile: Profile) -> Scene {
    let config = SceneConfig {
        num_frames: profile.num_frames(),
        ..SceneConfig::paper()
    };
    Scene::generate(config, &mut StdRng::seed_from_u64(SCENE_SEED))
}

/// The paper experiment config adjusted to `profile`.
pub fn experiment_config(
    profile: Profile,
    scheme: Scheme,
    pooling: PoolingDim,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(scheme, pooling);
    cfg.max_epochs = profile.max_epochs();
    cfg.val_subsample = profile.val_subsample();
    cfg.conv_channels = profile.conv_channels();
    cfg
}

/// The Fig. 3a configuration sweep, in the figure's row order (the
/// paper's proposal — 1-pixel Img+RF — last); [`fig3a_sweep`] trains
/// them in this order.
pub fn fig3a_configs() -> [(Scheme, PoolingDim); 5] {
    [
        (Scheme::RfOnly, PoolingDim::ONE_PIXEL),
        (Scheme::ImgOnly, PoolingDim::ONE_PIXEL),
        (Scheme::ImgOnly, PoolingDim::MEDIUM),
        (Scheme::ImgRf, PoolingDim::MEDIUM),
        (Scheme::ImgRf, PoolingDim::ONE_PIXEL),
    ]
}

/// The Fig. 3a row label for a configuration (`RF`, `Img+RF, 4x4`, ...).
pub fn fig3a_label(scheme: Scheme, pooling: PoolingDim) -> String {
    if scheme == Scheme::RfOnly {
        scheme.to_string()
    } else {
        format!("{scheme}, {pooling}")
    }
}

/// The Fig. 3a CSV header.
pub const FIG3A_CSV_HEADER: &str = "config,epoch,elapsed_s,val_rmse_db";

/// Appends one formatted CSV row per learning-curve point. The loopback
/// byte-identity gate `cmp`s the in-process and the networked run's
/// CSVs, so this one function formats both. Labels such as `Img, 4x4`
/// carry a comma, so the `config` field is quoted as RFC 4180 asks.
pub fn fig3a_curve_rows(label: &str, out: &TrainOutcome, rows: &mut Vec<String>) {
    let config = csv_field(label);
    for p in &out.curve {
        rows.push(format!(
            "{config},{},{:.4},{:.4}",
            p.epoch, p.elapsed_s, p.val_rmse_db
        ));
    }
}

/// Runs the Fig. 3a sweep: trains each of [`fig3a_configs`] with
/// `train`, prints its result row and journals a sparkline of its
/// curve, then writes `fig3a.csv` and checks that the telemetry
/// snapshot's simulated-time totals equal the trainers' own SimClocks
/// (the figure's time axis) to 1e-9 s. `train` runs one configuration
/// on the experiment's telemetry, in process or over a socket; its
/// error stops the sweep. Returns the labelled outcomes in row order.
pub fn fig3a_sweep(
    exp: &mut Experiment,
    mut train: impl FnMut(ExperimentConfig, &mut Telemetry) -> Result<TrainOutcome, String>,
) -> Result<Vec<(String, TrainOutcome)>, String> {
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for (scheme, pooling) in fig3a_configs() {
        // slm-lint: allow(no-nondeterminism) per-run wall time for the stdout row; never used in computation
        let wall = Instant::now();
        let label = fig3a_label(scheme, pooling);
        let cfg = experiment_config(exp.profile(), scheme, pooling);
        exp.record_run(&label, &cfg);
        let out = train(cfg, exp.telemetry()).map_err(|e| format!("{label}: {e}"))?;
        // slm-lint: allow(no-print) the result row is the figure's stdout output, as in every bench binary
        println!(
            "{label:<28} best {:>5.2} dB  final {:>5.2} dB  sim {:>7.2} s (air {:>6.2} s)  epochs {:>3}  stop {:?}  [wall {:.0} s]",
            out.best_rmse_db(),
            out.final_rmse_db,
            out.elapsed_s(),
            out.airtime_s,
            out.epochs,
            out.stop,
            wall.elapsed().as_secs_f64(),
        );
        let curve_vals: Vec<f32> = out.curve.iter().map(|p| p.val_rmse_db).collect();
        exp.progress(&format!("{label:<28} {}", sparkline(&curve_vals)));
        fig3a_curve_rows(&label, &out, &mut rows);
        outcomes.push((label, out));
    }

    exp.write_csv("fig3a.csv", FIG3A_CSV_HEADER, &rows);

    if exp.telemetry().is_enabled() {
        let snap = exp.telemetry().snapshot();
        let compute: f64 = outcomes.iter().map(|(_, o)| o.compute_s).sum();
        let airtime: f64 = outcomes.iter().map(|(_, o)| o.airtime_s).sum();
        assert!(
            (snap.gauge("sim.compute_s").unwrap_or(0.0) - compute).abs() < 1e-9,
            "telemetry compute time disagrees with SimClock"
        );
        assert!(
            (snap.gauge("sim.airtime_s").unwrap_or(0.0) - airtime).abs() < 1e-9,
            "telemetry airtime disagrees with SimClock"
        );
    }
    Ok(outcomes)
}

/// One RFC 4180 CSV field: quoted (with inner quotes doubled) when it
/// holds a comma, a quote or a line break, verbatim otherwise.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A 16-hex-digit fingerprint of an [`ExperimentConfig`] (FNV-1a over
/// its `Debug` rendering — every field is `Debug`, so any config change
/// changes the hash).
pub fn config_hash(cfg: &ExperimentConfig) -> String {
    format!("{:016x}", fnv1a_64(format!("{cfg:?}").as_bytes()))
}

/// One training/evaluation run inside an experiment, as recorded in the
/// manifest.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Human label (the stdout row label).
    pub label: String,
    /// Scheme, `Display` form.
    pub scheme: String,
    /// Pooling, `Display` form.
    pub pooling: String,
    /// The config's RNG seed.
    pub seed: u64,
    /// [`config_hash`] fingerprint.
    pub config_hash: String,
}

/// Per-binary experiment context: owns the [`Telemetry`] handle, the
/// `results/<name>/` artifact directory and the run manifest.
///
/// Lifecycle: [`Experiment::start`] → `record_run` per configuration →
/// [`Experiment::finish`], which writes `manifest.json` and (when
/// telemetry is enabled) `snapshot.json` next to the CSVs.
#[derive(Debug)]
pub struct Experiment {
    name: String,
    profile: Profile,
    telemetry: Telemetry,
    dir: PathBuf,
    runs: Vec<RunRecord>,
    extras: Vec<(String, String)>,
    wall: Instant,
}

impl Experiment {
    /// Opens the experiment: creates `results/<name>/`, builds telemetry
    /// from `SLM_TELEMETRY` / `SLM_TELEMETRY_PATH` (the JSONL journal
    /// defaults to `results/<name>/<name>.jsonl`), resolves the profile
    /// from `SLM_PROFILE` (warning on unrecognized values) and journals
    /// a `run_start` event.
    pub fn start(name: &str) -> Self {
        let mode = std::env::var("SLM_TELEMETRY").ok();
        Self::start_configured(results_dir().join(name), name, mode.as_deref(), None)
    }

    /// [`Experiment::start`] with the environment inputs made explicit:
    /// the artifact directory, the telemetry mode string and (optionally)
    /// a fixed profile. Tests use this to run real experiments under a
    /// temp directory without mutating process-wide environment
    /// variables; `profile: None` still resolves `SLM_PROFILE`.
    pub fn start_configured(
        dir: PathBuf,
        name: &str,
        mode: Option<&str>,
        profile: Option<Profile>,
    ) -> Self {
        // slm-lint: allow(no-expect) harness startup: an uncreatable artifact dir is unrecoverable and the message names the path's role
        fs::create_dir_all(&dir).expect("experiment dir is creatable");
        let journal_dir = std::env::var("SLM_TELEMETRY_PATH")
            .map(PathBuf::from)
            .unwrap_or_else(|_| dir.clone());
        let mut telemetry = Telemetry::from_settings(mode, &journal_dir, name);
        telemetry.set_tracing(sl_telemetry::trace_env_enabled());
        let profile = profile.unwrap_or_else(|| Profile::from_env_logged(&mut telemetry));
        telemetry.emit(
            EventBuilder::new("run_start")
                .str("experiment", name)
                .str("profile", profile.name()),
        );
        Experiment {
            name: name.to_string(),
            profile,
            telemetry,
            dir,
            runs: Vec::new(),
            extras: Vec::new(),
            // slm-lint: allow(no-nondeterminism) bench harness wall-clock; timings are reported, never used in computation
            wall: Instant::now(),
        }
    }

    /// Attaches a raw JSON value under `key` at the top level of the run
    /// manifest — e.g. the networked runtime records its `net` block
    /// (addr, port, fault seed, retry budget) here. Later annotations
    /// with the same key replace earlier ones.
    pub fn annotate_raw(&mut self, key: &str, json: &str) {
        self.extras.retain(|(k, _)| k != key);
        self.extras.push((key.to_string(), json.to_string()));
    }

    /// The resolved profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The experiment's artifact directory, `results/<name>/`.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The telemetry handle (pass to `train_with` / `run_with`).
    pub fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Routes progress chatter through the telemetry journal; with
    /// `SLM_TELEMETRY=off` it vanishes, keeping stdout to the
    /// paper-comparable rows.
    pub fn progress(&mut self, msg: &str) {
        self.telemetry.progress(msg);
    }

    /// Registers one configuration in the manifest and journals it.
    pub fn record_run(&mut self, label: &str, cfg: &ExperimentConfig) {
        let rec = RunRecord {
            label: label.to_string(),
            scheme: cfg.scheme.to_string(),
            pooling: cfg.pooling.to_string(),
            seed: cfg.seed,
            config_hash: config_hash(cfg),
        };
        self.telemetry.emit(
            EventBuilder::new("run_config")
                .str("label", &rec.label)
                .str("scheme", &rec.scheme)
                .str("pooling", &rec.pooling)
                .u64("seed", rec.seed)
                .str("config_hash", &rec.config_hash),
        );
        self.runs.push(rec);
    }

    /// Writes CSV rows (first row = header) to `results/<name>/<file>`,
    /// journaling the artifact path as progress.
    pub fn write_csv(&mut self, file: &str, header: &str, rows: &[String]) -> PathBuf {
        let path = write_csv_at(&self.dir, file, header, rows);
        self.progress(&format!("wrote {}", path.display()));
        path
    }

    /// The manifest JSON (exposed for tests).
    pub fn manifest_json(&self, snapshot: &Snapshot) -> String {
        let mut runs = JsonArray::new();
        for r in &self.runs {
            runs.push_raw(
                &JsonObject::new()
                    .str("label", &r.label)
                    .str("scheme", &r.scheme)
                    .str("pooling", &r.pooling)
                    .u64("seed", r.seed)
                    .str("config_hash", &r.config_hash)
                    .finish(),
            );
        }
        let mut obj = JsonObject::new()
            .str("experiment", &self.name)
            .str("profile", self.profile.name())
            .u64("scene_seed", SCENE_SEED)
            // Compute-backend width for the run — results are bitwise
            // thread-count independent, but throughput is not.
            .u64(
                "slm_threads",
                sl_tensor::ComputePool::global().threads() as u64,
            )
            .str(
                "telemetry_mode",
                match self.telemetry.mode() {
                    sl_telemetry::TelemetryMode::Off => "off",
                    sl_telemetry::TelemetryMode::Summary => "summary",
                    sl_telemetry::TelemetryMode::Jsonl => "jsonl",
                },
            );
        if let Some(p) = self.telemetry.events_path() {
            obj = obj.str("events_path", &p.display().to_string());
        }
        for (k, v) in &self.extras {
            obj = obj.raw(k, v);
        }
        obj = obj
            .f64("wall_s", self.wall.elapsed().as_secs_f64())
            .f64(
                "sim_compute_s",
                snapshot.gauge("sim.compute_s").unwrap_or(0.0),
            )
            .f64(
                "sim_airtime_s",
                snapshot.gauge("sim.airtime_s").unwrap_or(0.0),
            )
            .raw("runs", &runs.finish());
        obj.finish()
    }

    /// Closes the experiment: journals `run_end`, writes
    /// `manifest.json`, and — when telemetry is enabled — writes the
    /// final metrics `snapshot.json` plus the sampled time-series
    /// (`series.jsonl`, when any points were recorded); flushes the
    /// sink. Returns the manifest path.
    pub fn finish(mut self) -> PathBuf {
        let snapshot = self.telemetry.snapshot();
        self.telemetry.emit(
            EventBuilder::new("run_end")
                .str("experiment", &self.name)
                .u64("runs", self.runs.len() as u64)
                .f64("wall_s", self.wall.elapsed().as_secs_f64()),
        );
        let manifest_path = self.dir.join("manifest.json");
        fs::write(&manifest_path, self.manifest_json(&snapshot) + "\n")
            // slm-lint: allow(no-expect) losing the manifest silently would invalidate the experiment record; abort loudly
            .expect("manifest is writable");
        if self.telemetry.is_enabled() {
            let snap_path = self.dir.join("snapshot.json");
            // slm-lint: allow(no-expect) the metrics snapshot is a primary experiment artifact; abort loudly if unwritable
            fs::write(&snap_path, snapshot.to_json() + "\n").expect("snapshot is writable");
        }
        if self.telemetry.is_enabled() && !self.telemetry.series().is_empty() {
            // Sampled time-series: the determinism gate `cmp`s it
            // byte-for-byte across runs.
            self.telemetry
                .series()
                .write_jsonl(&self.dir.join("series.jsonl"))
                // slm-lint: allow(no-expect) the series is a primary experiment artifact; abort loudly if unwritable
                .expect("series.jsonl is writable");
        }
        self.telemetry.flush();
        manifest_path
    }
}

/// The `results/` output directory (created on demand), next to the
/// workspace root when run via `cargo run -p sl-bench`, else the CWD.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    // slm-lint: allow(no-expect) harness startup: no results dir means nothing can be recorded; abort loudly
    fs::create_dir_all(&dir).expect("results dir is creatable");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench at compile time; its grandparent
    // is the workspace root. Falls back to the CWD when moved.
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf);
    match compiled {
        Some(p) if p.join("Cargo.toml").exists() => p,
        _ => PathBuf::from("."),
    }
}

/// Writes CSV rows (first row = header) to `results/<name>`. Binaries
/// prefer [`Experiment::write_csv`], which targets the experiment's own
/// subdirectory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    write_csv_at(&results_dir(), name, header, rows)
}

fn write_csv_at(dir: &Path, name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    // slm-lint: allow(no-expect) a CSV that cannot be written is a lost figure; abort loudly with the role in the message
    fs::write(&path, body).expect("results file is writable");
    path
}

/// Renders a down-sampled ASCII sparkline of a learning curve for the
/// stdout report.
pub fn sparkline(values: &[f32]) -> String {
    const GLYPHS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f32::INFINITY, f32::min);
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = (max - min).max(1e-9);
    values
        .iter()
        .map(|v| GLYPHS[(((v - min) / span) * (GLYPHS.len() - 1) as f32).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parameters() {
        assert_eq!(Profile::Quick.num_frames(), 4_000);
        assert_eq!(Profile::Full.num_frames(), 13_228);
        assert!(Profile::Quick.max_epochs() < Profile::Full.max_epochs());
    }

    #[test]
    fn experiment_config_respects_profile() {
        let cfg = experiment_config(Profile::Quick, Scheme::ImgRf, PoolingDim::ONE_PIXEL);
        assert_eq!(cfg.max_epochs, 30);
        assert_eq!(cfg.batch_size, 64); // paper constant untouched
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.contains('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn csv_written_under_results() {
        let p = write_csv("_test.csv", "a,b", &["1,2".into()]);
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn profile_parse_flags_unknown_values() {
        assert_eq!(Profile::parse(None), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("quick")), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("full")), Ok(Profile::Full));
        assert_eq!(Profile::parse(Some("FULL")), Err("FULL".to_string()));
        assert_eq!(Profile::parse(Some("fast")), Err("fast".to_string()));
        assert_eq!(Profile::Quick.name(), "quick");
        assert_eq!(Profile::Full.name(), "full");
    }

    #[test]
    fn config_hash_is_stable_and_config_sensitive() {
        let a = experiment_config(Profile::Quick, Scheme::ImgRf, PoolingDim::ONE_PIXEL);
        assert_eq!(config_hash(&a), config_hash(&a.clone()));
        assert_eq!(config_hash(&a).len(), 16);
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        let c = experiment_config(Profile::Quick, Scheme::ImgRf, PoolingDim::MEDIUM);
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn fig3a_labels_match_figure_rows() {
        assert_eq!(fig3a_label(Scheme::RfOnly, PoolingDim::ONE_PIXEL), "RF");
        assert_eq!(
            fig3a_label(Scheme::ImgRf, PoolingDim::MEDIUM),
            "Img+RF, 4x4"
        );
        assert_eq!(
            fig3a_label(Scheme::ImgRf, PoolingDim::ONE_PIXEL),
            "Img+RF, 40x40 (1-pixel)"
        );
        // Five rows, proposal last, labels unique.
        let labels: Vec<String> = fig3a_configs()
            .iter()
            .map(|&(s, p)| fig3a_label(s, p))
            .collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(
            labels.last().map(String::as_str),
            Some("Img+RF, 40x40 (1-pixel)")
        );
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "duplicate fig3a label {l}");
        }
    }

    #[test]
    fn fig3a_rows_format_is_stable() {
        use sl_core::{CurvePoint, StopReason};
        let out = TrainOutcome {
            curve: vec![CurvePoint {
                elapsed_s: 1.25,
                epoch: 1,
                val_rmse_db: 3.5,
            }],
            stop: StopReason::EpochLimit,
            final_rmse_db: 3.5,
            epochs: 1,
            steps_applied: 1,
            steps_voided: 0,
            compute_s: 1.0,
            airtime_s: 0.25,
        };
        let mut rows = Vec::new();
        fig3a_curve_rows("RF", &out, &mut rows);
        assert_eq!(rows, vec!["RF,1,1.2500,3.5000".to_string()]);
    }

    #[test]
    fn fig3a_rows_have_one_field_per_header_column() {
        use sl_core::{CurvePoint, StopReason};
        let out = TrainOutcome {
            curve: vec![CurvePoint {
                elapsed_s: 1.25,
                epoch: 1,
                val_rmse_db: 3.5,
            }],
            stop: StopReason::EpochLimit,
            final_rmse_db: 3.5,
            epochs: 1,
            steps_applied: 1,
            steps_voided: 0,
            compute_s: 1.0,
            airtime_s: 0.25,
        };
        let mut rows = Vec::new();
        for (scheme, pooling) in fig3a_configs() {
            fig3a_curve_rows(&fig3a_label(scheme, pooling), &out, &mut rows);
        }
        fig3a_curve_rows("say \"hi\", twice", &out, &mut rows);
        assert_eq!(rows[1], "\"Img, 40x40 (1-pixel)\",1,1.2500,3.5000");
        assert!(rows[rows.len() - 1].starts_with("\"say \"\"hi\"\", twice\","));
        let header_fields = FIG3A_CSV_HEADER.split(',').count();
        for row in &rows {
            // Split on commas outside quotes, as an RFC 4180 reader does.
            let mut quoted = false;
            let mut fields = 1;
            for c in row.chars() {
                match c {
                    '"' => quoted = !quoted,
                    ',' if !quoted => fields += 1,
                    _ => {}
                }
            }
            assert_eq!(fields, header_fields, "{row}");
        }
    }

    #[test]
    fn manifest_annotations_land_at_top_level() {
        let mut exp = Experiment::start("_test_annotations");
        exp.annotate_raw("net", "{\"port\":1234}");
        exp.annotate_raw("net", "{\"port\":5678}"); // replaces
        let manifest = exp.manifest_json(&exp.telemetry.snapshot());
        assert!(manifest.contains("\"net\":{\"port\":5678}"));
        assert!(!manifest.contains("1234"));
        let path = exp.finish();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn manifest_records_runs_and_sim_time() {
        let mut exp = Experiment::start("_test_manifest");
        let cfg = experiment_config(Profile::Quick, Scheme::ImgRf, PoolingDim::ONE_PIXEL);
        exp.record_run("Img+RF, 1-pixel", &cfg);
        exp.telemetry().gauge_add("sim.compute_s", 1.25);
        exp.telemetry().gauge_add("sim.airtime_s", 0.5);
        let manifest = exp.manifest_json(&exp.telemetry.snapshot());
        assert!(manifest.contains("\"experiment\":\"_test_manifest\""));
        assert!(manifest.contains(&format!("\"config_hash\":\"{}\"", config_hash(&cfg))));
        assert!(manifest.contains(&format!("\"seed\":{}", cfg.seed)));
        if exp.telemetry.is_enabled() {
            assert!(manifest.contains("\"sim_compute_s\":1.25"));
        }

        let telemetry_enabled = exp.telemetry.is_enabled();
        let path = exp.finish();
        assert!(path.ends_with("_test_manifest/manifest.json"));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.contains("\"runs\":[{"));
        if telemetry_enabled {
            // finish() also wrote the final metrics snapshot.
            let snap =
                std::fs::read_to_string(path.parent().unwrap().join("snapshot.json")).unwrap();
            assert!(snap.contains("\"sim.compute_s\""));
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
