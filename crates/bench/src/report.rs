//! `slm-report` — run reports, trajectory tracking and the regression
//! gate.
//!
//! Reads the artifacts one [`crate::Experiment`] leaves under
//! `results/<exp>/` (`manifest.json`, `snapshot.json` and the JSONL
//! journal) and turns them into:
//!
//! * a **markdown run report** — config fingerprints, the simulated
//!   compute/airtime split, a per-layer host-time/FLOP table from the
//!   `nn.{ue,bs}.layer.*` per-layer metrics, health events and the
//!   paper-comparable metrics;
//! * a **trajectory entry** appended to `results/BENCH_<exp>.json`, one
//!   per reported run, so metric drift is visible across sessions;
//! * a **check** ([`check`]) comparing the fresh entry against the last
//!   trajectory entry with the same profile + config fingerprint —
//!   `slm-report --check` exits non-zero when RMSE or simulated time
//!   regress beyond tolerance, which `scripts/verify.sh` uses as a gate.
//!
//! Every trajectory file holds flat [`Entry`]s (named string, number
//! and bool fields): run entries, and the batches the `kernels` bin
//! appends to `BENCH_kernels.json`. Each [`Kind`] ([`RUN`], [`KERNELS`])
//! declares its fields, identity keys, table columns and gates as data,
//! so one load, append, batch, render and check path serves both.
//!
//! Everything is hand-rolled on `sl-telemetry`'s JSON reader/writer; no
//! external dependencies.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sl_telemetry::json::{self, JsonArray, JsonObject, JsonValue};
use sl_telemetry::{
    check_spans, latency_breakdown, spans_from_jsonl, SeriesStore, Snapshot, SpanRecord,
    SAMPLE_EVERY,
};

use crate::fnv1a_64;

/// One `health.*` journal event, as read back from the JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Event kind (`health.diverged`).
    pub kind: String,
    /// The offending metric: `loss_ema` (or `loss`, when no finite loss
    /// kept the streak) for a divergence streak, else the last
    /// non-finite observation (`loss`, `grad_norm.ue`, `grad_norm.bs`).
    pub metric: String,
    /// Human-readable verdict line.
    pub detail: String,
    /// Configured action when it fired (`warn` | `abort`).
    pub action: String,
}

/// Everything loaded from one `results/<exp>/` directory.
#[derive(Debug, Clone)]
pub struct RunData {
    /// The directory the run was loaded from.
    pub dir: PathBuf,
    /// Experiment name (manifest `experiment`).
    pub name: String,
    /// Profile name (manifest `profile`).
    pub profile: String,
    /// Per-run config fingerprints (manifest `runs[].config_hash`).
    pub config_hashes: Vec<String>,
    /// Run labels, parallel to `config_hashes`.
    pub run_labels: Vec<String>,
    /// Host wall time of the whole experiment, seconds.
    pub wall_s: f64,
    /// The final metrics snapshot.
    pub snapshot: Snapshot,
    /// `health.*` events found in the journal.
    pub health_events: Vec<HealthEvent>,
    /// `trace.span` records found in the journal (empty unless the run
    /// was made with `SLM_TRACE=on`).
    pub spans: Vec<SpanRecord>,
    /// Sampled time-series (`series.jsonl`), absent for runs made
    /// before the series store existed or with telemetry off.
    pub series: Option<SeriesStore>,
}

impl RunData {
    /// One fingerprint for the whole experiment: FNV-1a over the
    /// concatenated per-run config hashes (order-sensitive).
    pub fn combined_config_hash(&self) -> String {
        format!("{:016x}", fnv1a_64(self.config_hashes.join(",").as_bytes()))
    }
}

/// Loads `manifest.json`, `snapshot.json` and the `<exp>.jsonl` journal
/// from `dir`. The snapshot is required (run the experiment with
/// `SLM_TELEMETRY=summary|jsonl`); the journal is optional.
pub fn load_run(dir: &Path) -> Result<RunData, String> {
    let manifest_path = dir.join("manifest.json");
    let manifest_text = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest =
        json::parse(&manifest_text).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let name = manifest
        .get("experiment")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{}: missing \"experiment\"", manifest_path.display()))?
        .to_string();
    let profile = manifest
        .get("profile")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown")
        .to_string();
    let wall_s = manifest
        .get("wall_s")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let mut config_hashes = Vec::new();
    let mut run_labels = Vec::new();
    if let Some(runs) = manifest.get("runs").and_then(JsonValue::as_arr) {
        for r in runs {
            if let Some(h) = r.get("config_hash").and_then(JsonValue::as_str) {
                config_hashes.push(h.to_string());
                run_labels.push(
                    r.get("label")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                );
            }
        }
    }

    let snap_path = dir.join("snapshot.json");
    let snap_text = fs::read_to_string(&snap_path).map_err(|e| {
        format!(
            "{}: {e} (was the run made with SLM_TELEMETRY=off?)",
            snap_path.display()
        )
    })?;
    let snapshot =
        Snapshot::from_json(&snap_text).map_err(|e| format!("{}: {e}", snap_path.display()))?;

    let journal_path = dir.join(format!("{name}.jsonl"));
    let health_events = load_health_events(&journal_path);
    let spans = fs::read_to_string(&journal_path)
        .map(|t| spans_from_jsonl(&t))
        .unwrap_or_default();
    // Best-effort like the journal: a missing or malformed series file
    // just means no Time-series section.
    let series = fs::read_to_string(dir.join("series.jsonl"))
        .ok()
        .and_then(|t| SeriesStore::from_jsonl(&t).ok());

    Ok(RunData {
        dir: dir.to_path_buf(),
        name,
        profile,
        config_hashes,
        run_labels,
        wall_s,
        snapshot,
        health_events,
        spans,
        series,
    })
}

/// Scans a JSONL journal for `health.*` events; a missing file or
/// malformed lines yield an empty/partial list, never an error (the
/// journal is best-effort by design).
fn load_health_events(path: &Path) -> Vec<HealthEvent> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        let Some(kind) = v.get("event").and_then(JsonValue::as_str) else {
            continue;
        };
        if !kind.starts_with("health.") {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        out.push(HealthEvent {
            kind: kind.to_string(),
            metric: field("metric"),
            detail: field("detail"),
            action: field("action"),
        });
    }
    out
}

/// One row of the per-layer profile table, rebuilt from the
/// `nn.<side>.layer.<idx>.<name>.*` metrics the host recorder published.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Which half of the split model (`ue` | `bs`).
    pub side: String,
    /// Layer index within its [`sl_nn::Sequential`].
    pub idx: usize,
    /// Layer display name.
    pub name: String,
    /// Total forward host seconds.
    pub fwd_s: f64,
    /// Forward invocations.
    pub fwd_calls: u64,
    /// Median forward host seconds per call.
    pub fwd_p50_s: f64,
    /// Total backward host seconds.
    pub bwd_s: f64,
    /// Backward invocations.
    pub bwd_calls: u64,
    /// Modelled FLOPs accumulated across all invocations.
    pub flops: f64,
    /// Trainable parameters.
    pub params: u64,
}

impl LayerRow {
    /// Forward + backward host seconds.
    pub fn host_s(&self) -> f64 {
        self.fwd_s + self.bwd_s
    }
}

/// Rebuilds the per-layer table from a snapshot. Rows are sorted UE
/// first, then BS, by layer index — i.e. in forward order across the
/// split point.
pub fn layer_rows(snap: &Snapshot) -> Vec<LayerRow> {
    use std::collections::BTreeMap;
    // Key: (side_rank, side, idx, name) so UE sorts before BS.
    let mut rows: BTreeMap<(u8, String, usize, String), LayerRow> = BTreeMap::new();
    for (key, hist) in &snap.histograms {
        let Some((side, idx, name, dir)) = parse_layer_key(key) else {
            continue;
        };
        let rank = if side == "ue" { 0 } else { 1 };
        let entry = rows
            .entry((rank, side.to_string(), idx, name.to_string()))
            .or_insert_with(|| LayerRow {
                side: side.to_string(),
                idx,
                name: name.to_string(),
                ..LayerRow::default()
            });
        // Satellite contract: read sums/counts/quantiles through the
        // Histogram API, not by re-deriving them from raw JSON buckets.
        match dir {
            "fwd" => {
                entry.fwd_s = hist.sum();
                entry.fwd_calls = hist.count();
                entry.fwd_p50_s = hist.quantile(0.5).unwrap_or(0.0);
            }
            _ => {
                entry.bwd_s = hist.sum();
                entry.bwd_calls = hist.count();
            }
        }
        let base = format!("nn.{side}.layer.{idx}.{name}");
        entry.flops = snap.gauge(&format!("{base}.flops")).unwrap_or(0.0);
        entry.params = snap.gauge(&format!("{base}.params")).unwrap_or(0.0) as u64;
    }
    rows.into_values().collect()
}

/// Splits `nn.<side>.layer.<idx>.<name>.{fwd|bwd}.host_s` into its
/// parts; `None` for keys of any other shape.
fn parse_layer_key(key: &str) -> Option<(&str, usize, &str, &str)> {
    let rest = key.strip_prefix("nn.")?;
    let (rest, dir) = if let Some(r) = rest.strip_suffix(".fwd.host_s") {
        (r, "fwd")
    } else if let Some(r) = rest.strip_suffix(".bwd.host_s") {
        (r, "bwd")
    } else {
        return None;
    };
    let (side, rest) = rest.split_once(".layer.")?;
    let (idx, name) = rest.split_once('.')?;
    Some((side, idx.parse().ok()?, name, dir))
}

/// The paper-comparable / gate-relevant metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Final validation RMSE, dB (gauge `train.val_rmse_db`).
    pub val_rmse_db: Option<f64>,
    /// Applied SGD steps.
    pub steps_applied: u64,
    /// Link-voided steps.
    pub steps_voided: u64,
    /// Simulated compute seconds.
    pub sim_compute_s: f64,
    /// Simulated airtime seconds.
    pub sim_airtime_s: f64,
    /// Host seconds inside `model.forward`/`model.backward`
    /// (histogram `train.model.host_s`).
    pub model_host_s: f64,
    /// Host seconds summed over the per-layer profile.
    pub layer_host_s: f64,
    /// Median per-step host seconds.
    pub step_p50_s: Option<f64>,
    /// Non-finite loss + gradient observations.
    pub nonfinite: u64,
}

impl RunMetrics {
    /// Simulated elapsed seconds (the Fig. 3a axis).
    pub fn sim_elapsed_s(&self) -> f64 {
        self.sim_compute_s + self.sim_airtime_s
    }

    /// `layer_host_s / model_host_s` — how much of the trainer's model
    /// time the per-layer metrics account for (1.0 = perfect).
    pub fn profile_coverage(&self) -> Option<f64> {
        (self.model_host_s > 0.0).then(|| self.layer_host_s / self.model_host_s)
    }
}

/// Extracts [`RunMetrics`] from a loaded run.
pub fn run_metrics(run: &RunData) -> RunMetrics {
    let snap = &run.snapshot;
    let layer_host_s: f64 = layer_rows(snap).iter().map(LayerRow::host_s).sum();
    RunMetrics {
        val_rmse_db: snap.gauge("train.val_rmse_db"),
        steps_applied: snap.counter("train.steps.applied"),
        steps_voided: snap.counter("train.steps.voided"),
        sim_compute_s: snap.gauge("sim.compute_s").unwrap_or(0.0),
        sim_airtime_s: snap.gauge("sim.airtime_s").unwrap_or(0.0),
        model_host_s: snap
            .histograms
            .get("train.model.host_s")
            .map(|h| h.sum())
            .unwrap_or(0.0),
        layer_host_s,
        step_p50_s: snap
            .histograms
            .get("train.step.host_s")
            .and_then(|h| h.quantile(0.5)),
        nonfinite: snap.counter("train.nonfinite.loss") + snap.counter("train.nonfinite.grad"),
    }
}

/// Summary of the latest `slm-lint` run, read back from the JSON the
/// `lint` stage of `scripts/verify.sh` writes to `results/lint.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintSummary {
    /// No active findings (allowlist exactly covers the remainder).
    pub clean: bool,
    /// `.rs` files scanned.
    pub files_scanned: u64,
    /// Burn-down allowlist size — the number that must only shrink.
    pub allowlist_len: u64,
    /// Findings absorbed by the allowlist.
    pub allowlisted: u64,
    /// Findings suppressed by inline documented waivers.
    pub waived: u64,
    /// Active findings (non-zero means the lint gate failed).
    pub findings: u64,
    /// Per-rule counts over active + allowlisted findings, sorted by id.
    pub rule_counts: Vec<(String, u64)>,
    /// Per-pass finding counts for the semantic passes (`keys`,
    /// `knobs`, `protocol`, `determinism`), sorted by pass name; empty
    /// for token-rule-only runs.
    pub passes: Vec<(String, u64)>,
}

impl LintSummary {
    /// Finding count of one semantic pass (0 when the pass didn't run).
    pub fn pass_count(&self, pass: &str) -> u64 {
        self.passes
            .iter()
            .find(|(p, _)| p == pass)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Where a run's lint summary lives: `lint.json` next to the run
/// directory (i.e. directly under `results/`), shared by all runs.
pub fn lint_path(run: &RunData) -> PathBuf {
    run.dir.parent().unwrap_or(&run.dir).join("lint.json")
}

/// Loads a lint summary; `None` when the file is missing or unreadable
/// (the report then just notes that no lint data is available).
pub fn load_lint_summary(path: &Path) -> Option<LintSummary> {
    let text = fs::read_to_string(path).ok()?;
    let v = json::parse(&text).ok()?;
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let counts = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_obj)
            .map(|m| {
                m.iter()
                    .map(|(name, n)| (name.clone(), n.as_u64().unwrap_or(0)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let rule_counts = counts("rule_counts");
    let passes = counts("passes");
    Some(LintSummary {
        clean: v.get("clean").and_then(JsonValue::as_bool).unwrap_or(false),
        files_scanned: u("files_scanned"),
        allowlist_len: u("allowlist_len"),
        allowlisted: u("allowlisted"),
        waived: u("waived"),
        findings: v
            .get("findings")
            .and_then(JsonValue::as_arr)
            .map(|a| a.len() as u64)
            .unwrap_or(0),
        rule_counts,
        passes,
    })
}

/// Renders the markdown run report.
pub fn render_markdown(run: &RunData) -> String {
    let m = run_metrics(run);
    let rows = layer_rows(&run.snapshot);
    let mut out = String::new();
    let _ = writeln!(out, "# slm-report: {}", run.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "- directory: `{}`", run.dir.display());
    let _ = writeln!(out, "- profile: `{}`", run.profile);
    let _ = writeln!(
        out,
        "- config: `{}` ({} run{})",
        run.combined_config_hash(),
        run.config_hashes.len(),
        if run.config_hashes.len() == 1 {
            ""
        } else {
            "s"
        }
    );
    for (label, hash) in run.run_labels.iter().zip(&run.config_hashes) {
        let _ = writeln!(out, "  - {label}: `{hash}`");
    }
    let _ = writeln!(out, "- wall time: {:.1} s", run.wall_s);
    if let Some(n) = run.snapshot.gauge("tensor.knob_fallbacks") {
        let _ = writeln!(
            out,
            "- **knob fallbacks: {n}**: an `SLM_THREADS` / `SLM_BACKEND` value was \
             unusable and a default ran instead (the journal's `warn` events name it)"
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Simulated time");
    let _ = writeln!(out);
    let elapsed = m.sim_elapsed_s().max(1e-12);
    let _ = writeln!(
        out,
        "| elapsed | compute | airtime | compute share |\n\
         |---:|---:|---:|---:|\n\
         | {:.2} s | {:.2} s | {:.2} s | {:.1}% |",
        m.sim_elapsed_s(),
        m.sim_compute_s,
        m.sim_airtime_s,
        100.0 * m.sim_compute_s / elapsed
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Per-layer profile");
    let _ = writeln!(out);
    if rows.is_empty() {
        let _ = writeln!(out, "No per-layer metrics in the snapshot (profiling runs");
        let _ = writeln!(out, "whenever telemetry is enabled during training).");
    } else {
        let total = m.layer_host_s.max(1e-12);
        let _ = writeln!(
            out,
            "| side | # | layer | fwd ms | fwd p50 µs | bwd ms | calls | share | MFLOP | params |"
        );
        let _ = writeln!(out, "|---|---:|---|---:|---:|---:|---:|---:|---:|---:|");
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.2} | {:.1} | {:.2} | {} | {:.1}% | {:.1} | {} |",
                r.side,
                r.idx,
                r.name,
                1e3 * r.fwd_s,
                1e6 * r.fwd_p50_s,
                1e3 * r.bwd_s,
                r.fwd_calls,
                100.0 * r.host_s() / total,
                1e-6 * r.flops,
                r.params
            );
        }
        let _ = writeln!(out);
        match m.profile_coverage() {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "Per-layer host time {:.1} ms covers {:.1}% of the trainer's \
                     model time ({:.1} ms).",
                    1e3 * m.layer_host_s,
                    100.0 * c,
                    1e3 * m.model_host_s
                );
            }
            None => {
                let _ = writeln!(out, "No `train.model.host_s` samples to compare against.");
            }
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Trace");
    let _ = writeln!(out);
    if run.spans.is_empty() {
        let _ = writeln!(
            out,
            "No spans in the journal (run with `SLM_TRACE=on` and \
             `SLM_TELEMETRY=jsonl` to record the timeline)."
        );
    } else {
        match check_spans(&run.spans) {
            Ok(stats) => {
                let _ = writeln!(
                    out,
                    "{} span(s) across {} trace(s) ({} step root(s)); latency \
                     breakdown by simulated time:",
                    stats.spans, stats.traces, stats.roots
                );
                let _ = writeln!(out);
                let _ = writeln!(out, "| span | count | total sim ms | mean µs | max µs |");
                let _ = writeln!(out, "|---|---:|---:|---:|---:|");
                for r in latency_breakdown(&run.spans) {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {:.3} | {:.1} | {} |",
                        r.name,
                        r.count,
                        r.total_us as f64 / 1e3,
                        r.mean_us(),
                        r.max_us
                    );
                }
                let _ = writeln!(out);
                let _ = writeln!(
                    out,
                    "Export a Perfetto timeline with `slm-trace --out trace.json \
                     {}`.",
                    run.dir.join(format!("{}.jsonl", run.name)).display()
                );
            }
            Err(errors) => {
                let _ = writeln!(
                    out,
                    "**Malformed span set** — {} error(s) from the well-formedness \
                     check:",
                    errors.len()
                );
                for e in errors.iter().take(10) {
                    let _ = writeln!(out, "- {e}");
                }
            }
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Health");
    let _ = writeln!(out);
    if run.health_events.is_empty() {
        let _ = writeln!(out, "No health events.");
    } else {
        for e in &run.health_events {
            let _ = writeln!(
                out,
                "- **{}** (metric `{}`, action {}): {}",
                e.kind, e.metric, e.action, e.detail
            );
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Static analysis");
    let _ = writeln!(out);
    match load_lint_summary(&lint_path(run)) {
        Some(l) => {
            let _ = writeln!(
                out,
                "- status: {} ({} active finding{})",
                if l.clean { "**clean**" } else { "**FINDINGS**" },
                l.findings,
                if l.findings == 1 { "" } else { "s" }
            );
            let _ = writeln!(
                out,
                "- {} files scanned; allowlist size **{}** (burn-down: must only \
                 shrink), {} allowlisted, {} waived",
                l.files_scanned, l.allowlist_len, l.allowlisted, l.waived
            );
            if !l.passes.is_empty() {
                let passes = l
                    .passes
                    .iter()
                    .map(|(p, n)| format!("{p}:{n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "- semantic passes (findings): {passes}");
            }
            if !l.rule_counts.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(out, "| rule | findings (incl. allowlisted) |");
                let _ = writeln!(out, "|---|---:|");
                for (rule, n) in &l.rule_counts {
                    let _ = writeln!(out, "| `{rule}` | {n} |");
                }
            }
        }
        None => {
            let _ = writeln!(
                out,
                "No lint summary (`results/lint.json` missing — the `lint` stage \
                 of `scripts/verify.sh` writes it)."
            );
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Metrics");
    let _ = writeln!(out);
    match m.val_rmse_db {
        Some(v) => {
            let _ = writeln!(out, "- final validation RMSE: **{v:.2} dB**");
        }
        None => {
            let _ = writeln!(out, "- final validation RMSE: (not recorded)");
        }
    }
    let _ = writeln!(
        out,
        "- steps: {} applied, {} voided",
        m.steps_applied, m.steps_voided
    );
    if let Some(p50) = m.step_p50_s {
        let _ = writeln!(out, "- per-step host time p50: {:.2} ms", 1e3 * p50);
    }
    let _ = writeln!(
        out,
        "- non-finite observations: {} ({} loss / {} grad)",
        m.nonfinite,
        run.snapshot.counter("train.nonfinite.loss"),
        run.snapshot.counter("train.nonfinite.grad")
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Time-series");
    let _ = writeln!(out);
    match run.series.as_ref().filter(|s| !s.is_empty()) {
        Some(store) => {
            let _ = writeln!(
                out,
                "| metric | samples | dropped | min | max | last | trend |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---|");
            for name in store.names() {
                let Some(series) = store.get(name) else {
                    continue;
                };
                let values: Vec<f32> = series.iter().map(|(_, v)| v as f32).collect();
                let stride = values.len().div_ceil(40).max(1);
                let trend: Vec<f32> = values.iter().copied().step_by(stride).collect();
                let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | `{}` |",
                    name,
                    series.len(),
                    series.dropped(),
                    fmt(series.min_value()),
                    fmt(series.max_value()),
                    fmt(series.last().map(|(_, v)| v)),
                    crate::sparkline(&trend),
                );
            }
        }
        None => {
            let _ = writeln!(
                out,
                "No sampled series (`series.jsonl` missing — runs with telemetry \
                 enabled sample every {SAMPLE_EVERY} steps on the simulated clock)."
            );
        }
    }
    out
}

/// Last sampled `train.loss` value; NaN when the run carries no series
/// (pre-series runs, telemetry off) so the regression gate knows to
/// skip it.
pub fn final_loss(run: &RunData) -> f64 {
    run.series
        .as_ref()
        .and_then(|s| s.get("train.loss"))
        .and_then(|s| s.last())
        .map_or(f64::NAN, |(_, v)| v)
}

// ---------------------------------------------------------------------
// Trajectories (`BENCH_*.json`): entries, kinds, file I/O and gates
// ---------------------------------------------------------------------

/// One field of a trajectory [`Entry`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// Identifies the entry (`profile`, `config_hash`, `kernel`, ...).
    Str(String),
    /// A metric. NaN means "not measured" and is written as JSON `null`.
    Num(f64),
    /// A verdict (`bitwise_equal`, `lossless`).
    Bool(bool),
}

/// One trajectory entry: named fields, written to JSON in this order.
/// What the fields mean, how they are shown and how they are gated is
/// declared by a [`Kind`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Entry {
    /// `(name, value)` pairs in file order, names unique.
    fields: Vec<(String, Value)>,
}

impl Entry {
    /// An entry with no fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets field `name`: in place when present, else appended.
    fn set(mut self, name: &str, v: Value) -> Self {
        match self.fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, old)) => *old = v,
            None => self.fields.push((name.to_string(), v)),
        }
        self
    }

    /// Sets string field `name`.
    pub fn str(self, name: &str, v: &str) -> Self {
        self.set(name, Value::Str(v.to_string()))
    }

    /// Sets number field `name`.
    pub fn num(self, name: &str, v: f64) -> Self {
        self.set(name, Value::Num(v))
    }

    /// Sets bool field `name`.
    pub fn bool(self, name: &str, v: bool) -> Self {
        self.set(name, Value::Bool(v))
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// String field `name`; `""` when absent or not a string.
    pub fn get_str(&self, name: &str) -> &str {
        match self.get(name) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    /// Number field `name`; NaN when absent or not a number.
    pub fn get_num(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Value::Num(v)) => *v,
            _ => f64::NAN,
        }
    }

    fn holds(&self, name: &str) -> bool {
        self.get(name) == Some(&Value::Bool(true))
    }

    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (k, v) in &self.fields {
            obj = match v {
                Value::Str(s) => obj.str(k, s),
                Value::Num(x) => obj.f64(k, *x),
                Value::Bool(b) => obj.bool(k, *b),
            };
        }
        obj.finish()
    }

    /// Reads one JSON object: `kind`'s fields first, in declared order,
    /// then any others in key order, so a rewrite loses nothing.
    fn from_json(kind: &Kind, v: &JsonValue) -> Result<Self, String> {
        let obj = v.as_obj().ok_or("entry is not an object")?;
        let declared = || kind.fields.split_whitespace();
        let others = obj.keys().map(String::as_str);
        let mut entry = Entry::new();
        for name in declared().chain(others.filter(|k| !declared().any(|d| d == *k))) {
            let value = match obj.get(name) {
                Some(JsonValue::Str(s)) => Value::Str(s.clone()),
                Some(JsonValue::Num(x)) => Value::Num(*x),
                Some(JsonValue::Null) => Value::Num(f64::NAN),
                Some(JsonValue::Bool(b)) => Value::Bool(*b),
                Some(_) => return Err(format!("entry field {name:?} is not a scalar")),
                None => match kind.default(name) {
                    Some(d) => Value::Num(d),
                    None => return Err(format!("entry missing field {name:?}")),
                },
            };
            entry.fields.push((name.to_string(), value));
        }
        Ok(entry)
    }
}

/// A trajectory kind, declared as data: its fields, the fields that
/// identify an entry, its table columns and its gates.
#[derive(Debug)]
pub struct Kind {
    /// Trajectory name: `BENCH_<name>.json` (run trajectories are named
    /// after their experiment instead).
    pub name: &'static str,
    /// Table heading.
    title: &'static str,
    /// Field names in file order, separated by whitespace.
    fields: &'static str,
    /// Fields added after the first entries were written, with the
    /// value they read as when a file lacks them; every other field is
    /// required. A NaN default marks a field that may be unmeasured.
    defaults: &'static [(&'static str, f64)],
    /// Fields that identify an entry. They label its failures, and its
    /// baseline is the last earlier entry that agrees on all of them.
    identity: &'static [&'static str],
    /// Table columns: heading and cell.
    columns: &'static [(&'static str, Cell)],
    /// What [`check`] enforces, in order.
    gates: &'static [Gate],
}

impl Kind {
    fn default(&self, name: &str) -> Option<f64> {
        self.defaults
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, d)| d)
    }

    fn label(&self, e: &Entry) -> String {
        let ids: Vec<&str> = self.identity.iter().map(|k| e.get_str(k)).collect();
        ids.join(" ")
    }
}

/// One table cell, read from an entry.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// A string field.
    Text(&'static str),
    /// A number field with this many decimals (`-` for NaN).
    Num(&'static str, usize),
    /// The ratio of two number fields, with this many decimals.
    Ratio(&'static str, &'static str, usize),
    /// A bool field: `ok` when it holds, else this word.
    Verdict(&'static str, &'static str),
}

impl Cell {
    fn render(self, e: &Entry) -> String {
        let fixed = |v: f64, p: usize| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.p$}")
            }
        };
        match self {
            Cell::Text(f) => e.get_str(f).to_string(),
            Cell::Num(f, p) => fixed(e.get_num(f), p),
            Cell::Ratio(a, b, p) => fixed(e.get_num(a) / e.get_num(b), p),
            Cell::Verdict(f, _) if e.holds(f) => "ok".to_string(),
            Cell::Verdict(_, bad) => bad.to_string(),
        }
    }
}

/// One declared gate. Gates that read a number treat NaN in a field
/// with a NaN default as "not measured" and pass it.
#[derive(Debug)]
enum Gate {
    /// An empty batch fails, with this message.
    NonEmpty(&'static str),
    /// `(field, failure)`: the bool field must hold.
    Holds(&'static str, &'static str),
    /// `(field, name, unit)`: the number must be finite and positive.
    Positive(&'static str, &'static str, &'static str),
    /// `(field, failure)`: the count must be zero. Needs no baseline.
    Zero(&'static str, &'static str),
    /// `(field, name, unit, decimals, tol, slack)`: against the entry's
    /// baseline `b`, the number must be finite and at most
    /// `b·(1 + tol) + slack`. Passes when there is no baseline.
    NoRise(
        &'static str,
        &'static str,
        &'static str,
        usize,
        fn(&CheckConfig) -> f64,
        f64,
    ),
}

impl Gate {
    /// This gate's failure on one entry, compared with `base` where the
    /// gate needs a baseline. Batch gates find nothing here.
    fn judge(
        &self,
        kind: &Kind,
        e: &Entry,
        base: Option<&Entry>,
        cfg: &CheckConfig,
    ) -> Option<String> {
        // NaN in a field whose default is NaN means "not measured".
        let unmeasured =
            |field: &str, v: f64| v.is_nan() && kind.default(field).is_some_and(f64::is_nan);
        match *self {
            Gate::Holds(field, failure) => {
                (!e.holds(field)).then(|| format!("{}: {failure}", kind.label(e)))
            }
            Gate::Positive(field, what, unit) => {
                let v = e.get_num(field);
                let ok = (v.is_finite() && v > 0.0) || unmeasured(field, v);
                (!ok).then(|| format!("{}: {what} is {v}{unit}", kind.label(e)))
            }
            Gate::Zero(field, failure) => {
                let n = e.get_num(field);
                (n > 0.0).then(|| format!("{n} {failure}"))
            }
            Gate::NoRise(field, what, unit, p, tol, slack) => {
                let (v, b, tol) = (e.get_num(field), base?.get_num(field), tol(cfg));
                if unmeasured(field, v) || unmeasured(field, b) {
                    None
                } else if !v.is_finite() {
                    Some(format!("{what} is non-finite"))
                } else {
                    (v > b * (1.0 + tol) + slack).then(|| {
                        format!(
                            "{what} regressed: {v:.p$}{unit} vs baseline {b:.p$}{unit} (tol +{:.0}%)",
                            100.0 * tol
                        )
                    })
                }
            }
            Gate::NonEmpty(_) => None,
        }
    }
}

/// Run entries, one per reported run, in `BENCH_<exp>.json`. Gated:
/// health events (with or without a baseline), then validation RMSE,
/// simulated elapsed time and the final sampled training loss (only
/// when both runs sampled one) against the last entry with the same
/// profile and config hash. Host times are recorded, never gated (they
/// are machine-dependent).
pub static RUN: Kind = Kind {
    name: "run",
    title: "run trajectory",
    fields: "timestamp_s profile config_hash val_rmse_db sim_elapsed_s \
         steps_applied wall_s model_host_s layer_host_s health_events \
         lint_findings lint_allowlist lint_waived lint_keys lint_knobs \
         lint_protocol lint_determinism final_loss",
    // Older files read as no lint findings and as no sampled series.
    defaults: &[
        ("lint_findings", 0.0),
        ("lint_allowlist", 0.0),
        ("lint_waived", 0.0),
        ("lint_keys", 0.0),
        ("lint_knobs", 0.0),
        ("lint_protocol", 0.0),
        ("lint_determinism", 0.0),
        ("final_loss", f64::NAN),
    ],
    identity: &["profile", "config_hash"],
    columns: &[
        ("val RMSE dB", Cell::Num("val_rmse_db", 2)),
        ("sim elapsed s", Cell::Num("sim_elapsed_s", 2)),
        ("steps applied", Cell::Num("steps_applied", 0)),
        ("wall s", Cell::Num("wall_s", 1)),
        ("model host s", Cell::Num("model_host_s", 3)),
        ("layer host s", Cell::Num("layer_host_s", 3)),
        ("health events", Cell::Num("health_events", 0)),
        ("final loss", Cell::Num("final_loss", 4)),
    ],
    gates: &[
        Gate::Zero("health_events", "health event(s) during the run"),
        Gate::NoRise(
            "val_rmse_db",
            "val RMSE",
            " dB",
            2,
            |c| c.tol_rmse_rel,
            0.05,
        ),
        Gate::NoRise(
            "sim_elapsed_s",
            "simulated time",
            " s",
            2,
            |c| c.tol_time_rel,
            0.0,
        ),
        Gate::NoRise(
            "final_loss",
            "final training loss",
            "",
            4,
            |c| c.tol_loss_rel,
            1e-6,
        ),
    ],
};

/// Kernel micro-benchmark entries, written by the `kernels` bin: one
/// kernel workload measured at four tiers — the pre-backend reference
/// loop, the scalar backend on one thread (`serial`) and on the pooled
/// thread count (`pooled`), and the SIMD backend on one thread.
/// Entries recorded before the SIMD tier existed read `simd_gflops` as
/// NaN; entries recorded before the cache-blocked tier was removed timed
/// that tier as `serial`/`pooled`. Throughputs are recorded, never
/// gated; the determinism contract and that every tier ran are.
pub static KERNELS: Kind = Kind {
    name: "kernels",
    title: "compute-backend kernels",
    fields: "timestamp_s kernel shape threads ref_gflops serial_gflops \
         pooled_gflops simd_gflops bitwise_equal",
    defaults: &[("simd_gflops", f64::NAN)],
    identity: &["kernel", "shape"],
    columns: &[
        ("kernel", Cell::Text("kernel")),
        ("shape", Cell::Text("shape")),
        ("threads", Cell::Num("threads", 0)),
        ("ref GF/s", Cell::Num("ref_gflops", 2)),
        ("serial GF/s", Cell::Num("serial_gflops", 2)),
        ("pooled GF/s", Cell::Num("pooled_gflops", 2)),
        ("simd GF/s", Cell::Num("simd_gflops", 2)),
        ("serial×", Cell::Ratio("serial_gflops", "ref_gflops", 2)),
        ("pool×", Cell::Ratio("pooled_gflops", "serial_gflops", 2)),
        ("simd×", Cell::Ratio("simd_gflops", "serial_gflops", 2)),
        ("total×", Cell::Ratio("pooled_gflops", "ref_gflops", 2)),
        ("bitwise", Cell::Verdict("bitwise_equal", "MISMATCH")),
    ],
    gates: &[
        Gate::NonEmpty("no kernel entries recorded"),
        Gate::Holds(
            "bitwise_equal",
            "the pooled-scalar or simd output differs bitwise from the one-thread scalar output",
        ),
        Gate::Positive("ref_gflops", "ref throughput", " GFLOP/s"),
        Gate::Positive("serial_gflops", "serial throughput", " GFLOP/s"),
        Gate::Positive("pooled_gflops", "pooled throughput", " GFLOP/s"),
        Gate::Positive("simd_gflops", "simd throughput", " GFLOP/s"),
    ],
};

/// Builds the trajectory entry for a loaded run.
pub fn entry_from_run(run: &RunData, timestamp_s: u64) -> Entry {
    let m = run_metrics(run);
    let lint = load_lint_summary(&lint_path(run)).unwrap_or_default();
    let mut e = Entry::new()
        .num("timestamp_s", timestamp_s as f64)
        .str("profile", &run.profile)
        .str("config_hash", &run.combined_config_hash());
    for (name, v) in [
        ("val_rmse_db", m.val_rmse_db.unwrap_or(f64::NAN)),
        ("sim_elapsed_s", m.sim_elapsed_s()),
        ("steps_applied", m.steps_applied as f64),
        ("wall_s", run.wall_s),
        ("model_host_s", m.model_host_s),
        ("layer_host_s", m.layer_host_s),
        ("health_events", run.health_events.len() as f64),
        ("lint_findings", lint.findings as f64),
        ("lint_allowlist", lint.allowlist_len as f64),
        ("lint_waived", lint.waived as f64),
        ("lint_keys", lint.pass_count("keys") as f64),
        ("lint_knobs", lint.pass_count("knobs") as f64),
        ("lint_protocol", lint.pass_count("protocol") as f64),
        ("lint_determinism", lint.pass_count("determinism") as f64),
        ("final_loss", final_loss(run)),
    ] {
        e = e.num(name, v);
    }
    e
}

/// `BENCH_<name>.json` under `results_dir`.
pub fn trajectory_path(results_dir: &Path, name: &str) -> PathBuf {
    results_dir.join(format!("BENCH_{name}.json"))
}

/// Where a run's trajectory file lives: `BENCH_<exp>.json` next to the
/// run directory (i.e. directly under `results/`).
pub fn bench_path(run: &RunData) -> PathBuf {
    trajectory_path(run.dir.parent().unwrap_or(&run.dir), &run.name)
}

/// Loads a trajectory of `kind` entries; a missing file is an empty
/// trajectory.
pub fn load_trajectory(kind: &Kind, path: &Path) -> Result<Vec<Entry>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = v
        .get("entries")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{}: missing \"entries\" array", path.display()))?;
    entries
        .iter()
        .map(|e| Entry::from_json(kind, e))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `batch` to the trajectory file (rewriting it whole — the
/// files stay small; its directory is created when missing) and returns
/// the new entry count.
pub fn append_trajectory(
    kind: &Kind,
    path: &Path,
    experiment: &str,
    batch: &[Entry],
) -> Result<usize, String> {
    let mut entries = load_trajectory(kind, path)?;
    entries.extend_from_slice(batch);
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(path, trajectory_json(experiment, &entries) + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(entries.len())
}

fn trajectory_json(experiment: &str, entries: &[Entry]) -> String {
    let mut arr = JsonArray::new();
    for e in entries {
        arr.push_raw(&e.to_json());
    }
    JsonObject::new()
        .str("experiment", experiment)
        .raw("entries", &arr.finish())
        .finish()
}

/// The most recent batch: the suffix of entries sharing the last entry's
/// timestamp (batches are appended together with one timestamp).
pub fn latest_batch(entries: &[Entry]) -> &[Entry] {
    let ts = entries.last().and_then(|e| e.get("timestamp_s"));
    let start = entries
        .iter()
        .rposition(|e| e.get("timestamp_s") != ts)
        .map_or(0, |i| i + 1);
    &entries[start..]
}

/// Renders `batch` as a markdown table of `kind`'s columns.
pub fn render_table(kind: &Kind, batch: &[Entry]) -> String {
    let row = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = format!("# slm-report: {}\n\n", kind.title);
    out += &row(kind
        .columns
        .iter()
        .map(|(head, _)| head.to_string())
        .collect());
    for (_, cell) in kind.columns {
        out += if matches!(cell, Cell::Num(..) | Cell::Ratio(..)) {
            "|---:"
        } else {
            "|---"
        };
    }
    out += "|\n";
    for e in batch {
        out += &row(kind.columns.iter().map(|(_, c)| c.render(e)).collect());
    }
    out
}

/// Regression-gate tolerances (relative).
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Allowed relative increase of the validation RMSE.
    pub tol_rmse_rel: f64,
    /// Allowed relative increase of the simulated elapsed time (the sim
    /// clock is deterministic given the config, so drift means the
    /// compute/airtime model changed).
    pub tol_time_rel: f64,
    /// Allowed relative increase of the final sampled training loss
    /// (only gated when both entries carry a series).
    pub tol_loss_rel: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            tol_rmse_rel: 0.30,
            tol_time_rel: 0.25,
            tol_loss_rel: 0.30,
        }
    }
}

/// `entry`'s baseline: the last `history` entry that agrees with it on
/// every identity field of `kind`.
pub fn baseline<'a>(kind: &Kind, entry: &Entry, history: &'a [Entry]) -> Option<&'a Entry> {
    history
        .iter()
        .rev()
        .find(|h| kind.identity.iter().all(|k| h.get(k) == entry.get(k)))
}

/// `kind`'s per-entry gates on `entry`, with `base` as the baseline of
/// the comparison gates. Returns one line per failure.
fn compare(kind: &Kind, entry: &Entry, base: Option<&Entry>, cfg: &CheckConfig) -> Vec<String> {
    kind.gates
        .iter()
        .filter_map(|g| g.judge(kind, entry, base, cfg))
        .collect()
}

/// Gates `batch` with `kind`'s gates: each entry against its
/// [`baseline`] in `history`, then the batch as a whole. Returns one
/// line per failure; empty means pass.
pub fn check(kind: &Kind, batch: &[Entry], history: &[Entry], cfg: &CheckConfig) -> Vec<String> {
    let mut failures: Vec<String> = batch
        .iter()
        .flat_map(|e| compare(kind, e, baseline(kind, e, history), cfg))
        .collect();
    for gate in kind.gates {
        if let Gate::NonEmpty(failure) = *gate {
            if batch.is_empty() {
                failures.push(failure.to_string());
            }
        }
    }
    failures
}

/// Renders a side-by-side diff of two runs over the run table's
/// columns. The `bool` is `true` when run `b` fails the run gates with
/// run `a` as its baseline — the verdict [`check`] reaches when `a` is
/// the last entry with `b`'s profile and config.
pub fn render_diff(a: &RunData, b: &RunData, cfg: &CheckConfig) -> (String, bool) {
    let (ea, eb) = (entry_from_run(a, 0), entry_from_run(b, 0));
    let mut out = format!("# slm-report diff: {} vs {}\n\n", a.name, b.name);
    let _ = writeln!(out, "| metric | {} | {} | delta |", a.name, b.name);
    let _ = writeln!(out, "|---|---:|---:|---:|");
    for &(head, cell) in RUN.columns {
        let Cell::Num(field, _) = cell else { continue };
        let (va, vb) = (ea.get_num(field), eb.get_num(field));
        let delta = vb - va;
        let rel = (va.abs() > 1e-12).then(|| format!(" ({:+.1}%)", 100.0 * delta / va));
        let rel = rel.unwrap_or_default();
        let _ = writeln!(out, "| {head} | {va:.3} | {vb:.3} | {delta:+.3}{rel} |");
    }
    let failures = compare(&RUN, &eb, Some(&ea), cfg);
    let _ = writeln!(
        out,
        "\nRegression (tol rmse +{:.0}%, time +{:.0}%, loss +{:.0}%): {}",
        100.0 * cfg.tol_rmse_rel,
        100.0 * cfg.tol_time_rel,
        100.0 * cfg.tol_loss_rel,
        if failures.is_empty() { "no" } else { "YES" }
    );
    for f in &failures {
        let _ = writeln!(out, "- {f}");
    }
    (out, !failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(profile: &str, hash: &str, rmse: f64, sim: f64) -> Entry {
        Entry::new()
            .num("timestamp_s", 1.0)
            .str("profile", profile)
            .str("config_hash", hash)
            .num("val_rmse_db", rmse)
            .num("sim_elapsed_s", sim)
            .num("steps_applied", 100.0)
            .num("wall_s", 2.0)
            .num("model_host_s", 1.0)
            .num("layer_host_s", 0.98)
            .num("health_events", 0.0)
            .num("lint_findings", 0.0)
            .num("lint_allowlist", 0.0)
            .num("lint_waived", 0.0)
            .num("lint_keys", 0.0)
            .num("lint_knobs", 0.0)
            .num("lint_protocol", 0.0)
            .num("lint_determinism", 0.0)
            .num("final_loss", 0.5)
    }

    fn kentry(kernel: &str, ts: u64, bitwise: bool) -> Entry {
        Entry::new()
            .num("timestamp_s", ts as f64)
            .str("kernel", kernel)
            .str("shape", "8x8x8")
            .num("threads", 4.0)
            .num("ref_gflops", 1.0)
            .num("serial_gflops", 2.0)
            .num("pooled_gflops", 4.0)
            .num("simd_gflops", 6.0)
            .bool("bitwise_equal", bitwise)
    }

    fn reload(kind: &Kind, e: &Entry) -> Entry {
        Entry::from_json(kind, &json::parse(&e.to_json()).unwrap()).unwrap()
    }

    /// `e`'s JSON object with `keys` removed, as an older writer left it.
    fn without(e: &Entry, keys: &[&str]) -> JsonValue {
        let mut obj = json::parse(&e.to_json()).unwrap().as_obj().unwrap().clone();
        for k in keys {
            obj.remove(*k);
        }
        JsonValue::Obj(obj)
    }

    fn check_run(e: &Entry, history: &[Entry], cfg: &CheckConfig) -> Vec<String> {
        check(&RUN, std::slice::from_ref(e), history, cfg)
    }

    #[test]
    fn kernels_entry_round_trips_and_derives_speedups() {
        let e = kentry("matmul", 7, true);
        let back = reload(&KERNELS, &e);
        assert_eq!(back, e);
        // serial× 2, pool× 2, simd× 3, total× 4.
        let md = render_table(&KERNELS, &[back]);
        assert!(md.contains("| 2.00 | 2.00 | 3.00 | 4.00 | ok |"), "{md}");
    }

    #[test]
    fn pre_simd_kernels_entries_load_as_nan_and_are_not_gated() {
        let e = kentry("matmul", 7, true);
        let old = Entry::from_json(&KERNELS, &without(&e, &["simd_gflops"])).unwrap();
        assert!(old.get_num("simd_gflops").is_nan());
        assert!(check(
            &KERNELS,
            std::slice::from_ref(&old),
            &[],
            &CheckConfig::default()
        )
        .is_empty());
        // NaN serializes as null and reloads as NaN.
        assert!(old.to_json().contains("\"simd_gflops\":null"));
        assert!(reload(&KERNELS, &old).get_num("simd_gflops").is_nan());
        // A measured-but-dead simd tier still fails the gate.
        let dead = kentry("matmul", 7, true).num("simd_gflops", 0.0);
        let failures = check(&KERNELS, &[dead], &[], &CheckConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("simd throughput"), "{failures:?}");
    }

    #[test]
    fn kernels_trajectory_appends_and_batches() {
        let dir = std::env::temp_dir().join(format!("slm-kern-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = trajectory_path(&dir, KERNELS.name);
        let _ = fs::remove_file(&path);
        assert!(load_trajectory(&KERNELS, &path).unwrap().is_empty());
        append_trajectory(&KERNELS, &path, "kernels", &[kentry("matmul", 1, true)]).unwrap();
        let n = append_trajectory(
            &KERNELS,
            &path,
            "kernels",
            &[kentry("matmul", 2, true), kentry("conv2d_fwd", 2, true)],
        )
        .unwrap();
        assert_eq!(n, 3);
        let all = load_trajectory(&KERNELS, &path).unwrap();
        assert_eq!(all.len(), 3);
        let batch = latest_batch(&all);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|e| e.get_num("timestamp_s") == 2.0));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn kernels_check_gates_determinism_not_speed() {
        let cfg = CheckConfig::default();
        assert_eq!(check(&KERNELS, &[], &[], &cfg).len(), 1);
        // Slow is fine: pooled below serial is reported, not gated.
        let slow = kentry("matmul", 1, true).num("pooled_gflops", 0.5);
        assert!(check(&KERNELS, &[slow], &[], &cfg).is_empty());
        // A bitwise mismatch or dead tier is not fine.
        let bad = kentry("matmul", 1, false);
        let dead = kentry("conv2d_fwd", 1, true).num("ref_gflops", 0.0);
        let failures = check(&KERNELS, &[bad, dead], &[], &cfg);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("bitwise"));
        assert!(failures[1].contains("ref throughput"));
    }

    #[test]
    fn committed_kernels_trajectory_passes_and_rewrites_byte_identical() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_kernels.json");
        let text = fs::read_to_string(&path).unwrap();
        let all = load_trajectory(&KERNELS, &path).unwrap();
        assert!(!all.is_empty());
        let failures = check(&KERNELS, latest_batch(&all), &[], &CheckConfig::default());
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(trajectory_json("kernels", &all) + "\n", text);
    }

    #[test]
    fn run_entry_round_trips_lint_fields() {
        let e = entry("smoke", "abc", 3.0, 10.0)
            .num("lint_findings", 1.0)
            .num("lint_allowlist", 65.0)
            .num("lint_waived", 9.0);
        assert_eq!(reload(&RUN, &e), e);
    }

    #[test]
    fn run_entry_lint_fields_default_for_pre_lint_trajectories() {
        // Entries written before the lint stage existed have no lint_*
        // keys; they must still load, with zeros.
        let old = entry("smoke", "abc", 3.0, 10.0);
        let stripped = without(&old, &["lint_findings", "lint_allowlist", "lint_waived"]);
        let back = Entry::from_json(&RUN, &stripped).unwrap();
        assert_eq!(back.get_num("lint_allowlist"), 0.0);
        assert_eq!(back.get_num("lint_findings"), 0.0);
        assert_eq!(back.get_num("lint_waived"), 0.0);
        assert_eq!(back.get_str("profile"), "smoke");
        // A required field stays required.
        assert!(Entry::from_json(&RUN, &without(&old, &["val_rmse_db"])).is_err());
    }

    #[test]
    fn run_entry_final_loss_nan_serializes_as_null_and_reloads() {
        let e = entry("smoke", "abc", 3.0, 10.0).num("final_loss", f64::NAN);
        let text = e.to_json();
        assert!(text.contains("\"final_loss\":null"), "{text}");
        assert!(reload(&RUN, &e).get_num("final_loss").is_nan());
        // Pre-series entries (no final_loss key at all) also load as NaN.
        let old = without(&entry("smoke", "abc", 3.0, 10.0), &["final_loss"]);
        assert!(Entry::from_json(&RUN, &old)
            .unwrap()
            .get_num("final_loss")
            .is_nan());
    }

    #[test]
    fn check_gates_final_loss_only_when_both_runs_sampled_one() {
        let cfg = CheckConfig::default();
        let base = entry("smoke", "abc", 4.0, 10.0); // final_loss 0.5
        let hist = vec![base];
        // 2x the baseline's final loss fails the gate.
        let worse = entry("smoke", "abc", 4.0, 10.0).num("final_loss", 1.0);
        let failures = check_run(&worse, &hist, &cfg);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("final training loss"), "{failures:?}");
        // A pre-series entry on either side is never gated.
        let no_series = entry("smoke", "abc", 4.0, 10.0).num("final_loss", f64::NAN);
        assert!(check_run(&no_series, &hist, &cfg).is_empty());
        let old_hist = vec![hist[0].clone().num("final_loss", f64::NAN)];
        assert!(check_run(&worse, &old_hist, &cfg).is_empty());
    }

    #[test]
    fn lint_summary_parses_slm_lint_json() {
        let dir = std::env::temp_dir().join("slm_report_lint_summary_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint.json");
        fs::write(
            &path,
            r#"{"clean":true,"files_scanned":101,"allowlist_len":65,"allowlisted":65,"waived":9,"rule_counts":{"no-expect":44,"lossy-cast":13},"findings":[]}"#,
        )
        .unwrap();
        let l = load_lint_summary(&path).unwrap();
        assert!(l.clean);
        assert_eq!(l.files_scanned, 101);
        assert_eq!(l.allowlist_len, 65);
        assert_eq!(l.waived, 9);
        assert_eq!(l.findings, 0);
        assert_eq!(
            l.rule_counts,
            vec![
                ("lossy-cast".to_string(), 13),
                ("no-expect".to_string(), 44)
            ]
        );
        assert!(load_lint_summary(&dir.join("missing.json")).is_none());
    }

    #[test]
    fn layer_key_parsing() {
        assert_eq!(
            parse_layer_key("nn.ue.layer.0.Conv2d.fwd.host_s"),
            Some(("ue", 0, "Conv2d", "fwd"))
        );
        assert_eq!(
            parse_layer_key("nn.bs.layer.1.Dense.bwd.host_s"),
            Some(("bs", 1, "Dense", "bwd"))
        );
        assert_eq!(parse_layer_key("train.step.host_s"), None);
        assert_eq!(parse_layer_key("nn.ue.layer.x.Conv2d.fwd.host_s"), None);
    }

    #[test]
    fn layer_rows_read_profiler_metrics() {
        let mut reg = sl_telemetry::MetricsRegistry::new();
        reg.observe("nn.ue.layer.0.Conv2d.fwd.host_s", 0.002);
        reg.observe("nn.ue.layer.0.Conv2d.fwd.host_s", 0.004);
        reg.observe("nn.ue.layer.0.Conv2d.bwd.host_s", 0.010);
        reg.gauge_add("nn.ue.layer.0.Conv2d.flops", 1e6);
        reg.gauge_set("nn.ue.layer.0.Conv2d.params", 40.0);
        reg.observe("nn.bs.layer.0.Lstm.fwd.host_s", 0.001);
        let rows = layer_rows(&reg.snapshot());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].side, "ue"); // UE sorts before BS
        assert_eq!(rows[0].name, "Conv2d");
        assert_eq!(rows[0].fwd_calls, 2);
        assert!((rows[0].fwd_s - 0.006).abs() < 1e-12);
        assert!((rows[0].bwd_s - 0.010).abs() < 1e-12);
        assert_eq!(rows[0].params, 40);
        assert!(rows[0].flops > 0.0);
        assert!(rows[0].fwd_p50_s > 0.0);
        assert_eq!(rows[1].side, "bs");
    }

    #[test]
    fn trajectory_round_trips_through_parser() {
        let dir = std::env::temp_dir().join("slm_report_test_traj");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let _ = std::fs::remove_file(&path);
        let e1 = entry("smoke", "abc", 4.5, 10.0);
        let e2 = entry("smoke", "abc", 4.2, 10.0);
        assert_eq!(
            append_trajectory(&RUN, &path, "x", std::slice::from_ref(&e1)).unwrap(),
            1
        );
        assert_eq!(
            append_trajectory(&RUN, &path, "x", std::slice::from_ref(&e2)).unwrap(),
            2
        );
        let back = load_trajectory(&RUN, &path).unwrap();
        assert_eq!(back, vec![e1, e2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_gates_rmse_and_time() {
        let cfg = CheckConfig::default();
        let base = entry("smoke", "abc", 4.0, 10.0);
        let hist = vec![entry("smoke", "other", 1.0, 1.0), base.clone()];

        let fresh = entry("smoke", "new-config", 9.0, 9.0);
        assert_eq!(baseline(&RUN, &fresh, &hist), None);
        assert!(check_run(&fresh, &hist, &cfg).is_empty());
        assert!(check_run(&entry("smoke", "abc", 4.3, 10.0), &hist, &cfg).is_empty());
        // 2× RMSE must fail the gate.
        let failures = check_run(&entry("smoke", "abc", 8.0, 10.0), &hist, &cfg);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("val RMSE regressed"), "{failures:?}");
        // Slower simulated time fails; faster passes.
        assert!(!check_run(&entry("smoke", "abc", 4.0, 20.0), &hist, &cfg).is_empty());
        assert!(check_run(&entry("smoke", "abc", 4.0, 5.0), &hist, &cfg).is_empty());
        // Health events fail even without a baseline.
        let sick = entry("smoke", "brand-new", 4.0, 10.0).num("health_events", 1.0);
        assert!(!check_run(&sick, &hist, &cfg).is_empty());
    }

    #[test]
    fn check_fails_a_non_finite_rmse_against_a_baseline() {
        let cfg = CheckConfig::default();
        let hist = vec![entry("smoke", "abc", 4.0, 10.0)];
        for rmse in [f64::NAN, f64::INFINITY] {
            let failures = check_run(&entry("smoke", "abc", rmse, 10.0), &hist, &cfg);
            assert_eq!(failures, vec!["val RMSE is non-finite".to_string()]);
        }
        // The baseline is the last entry with the same profile and
        // config hash: the same config under another profile has none.
        let other = entry("paper", "abc", f64::NAN, 10.0);
        assert_eq!(baseline(&RUN, &other, &hist), None);
        assert!(check_run(&other, &hist, &cfg).is_empty());
    }

    #[test]
    fn baseline_is_the_last_entry_with_the_same_identity() {
        let cfg = CheckConfig::default();
        let hist = vec![
            entry("smoke", "abc", 1.0, 10.0),
            entry("smoke", "abc", 4.0, 10.0),
            entry("smoke", "other", 1.0, 10.0),
        ];
        let fresh = entry("smoke", "abc", 4.3, 10.0);
        assert_eq!(baseline(&RUN, &fresh, &hist), Some(&hist[1]));
        assert!(check_run(&fresh, &hist, &cfg).is_empty());
        // Against the first entry alone, 4.3 dB is a regression.
        assert!(!check_run(&fresh, &hist[..1], &cfg).is_empty());
    }

    #[test]
    fn positive_gates_fail_every_dead_rate() {
        let cfg = CheckConfig::default();
        let tiers = [
            "ref_gflops",
            "serial_gflops",
            "pooled_gflops",
            "simd_gflops",
        ];
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            for field in tiers {
                let e = kentry("matmul", 1, true).num(field, bad);
                let failures = check(&KERNELS, &[e], &[], &cfg);
                // An unmeasured (NaN) simd tier is the one pass.
                let want = usize::from(!(field == "simd_gflops" && bad.is_nan()));
                assert_eq!(failures.len(), want, "{field} = {bad}: {failures:?}");
            }
        }
    }

    /// A run whose snapshot carries `rmse` (none when NaN) and `sim`
    /// seconds of compute, with `health` health events.
    fn run_data(rmse: f64, sim: f64, health: usize) -> RunData {
        let mut reg = sl_telemetry::MetricsRegistry::new();
        if !rmse.is_nan() {
            reg.gauge_set("train.val_rmse_db", rmse);
        }
        reg.gauge_set("sim.compute_s", sim);
        RunData {
            dir: std::env::temp_dir().join("slm_report_diff_test/none"),
            name: "x".to_string(),
            profile: "smoke".to_string(),
            config_hashes: vec!["abc".to_string()],
            run_labels: vec!["RF".to_string()],
            wall_s: 1.0,
            snapshot: reg.snapshot(),
            health_events: vec![
                HealthEvent {
                    kind: "health.diverged".to_string(),
                    metric: "loss_ema".to_string(),
                    detail: String::new(),
                    action: "warn".to_string(),
                };
                health
            ],
            spans: Vec::new(),
            series: None,
        }
    }

    #[test]
    fn knob_fallbacks_show_in_the_run_report() {
        let mut run = run_data(4.0, 10.0, 0);
        assert!(!render_markdown(&run).contains("knob fallbacks"));
        let mut reg = sl_telemetry::MetricsRegistry::new();
        reg.gauge_set("tensor.knob_fallbacks", 2.0);
        run.snapshot = reg.snapshot();
        let md = render_markdown(&run);
        assert!(md.contains("**knob fallbacks: 2**"), "{md}");
    }

    #[test]
    fn diff_and_check_reach_the_same_verdict() {
        let cfg = CheckConfig::default();
        let a = run_data(4.0, 10.0, 0);
        for (b, regressed) in [
            (run_data(4.1, 10.0, 0), false),
            (run_data(4.0, 5.0, 0), false),
            (run_data(8.0, 10.0, 0), true),
            (run_data(4.0, 20.0, 0), true),
            (run_data(f64::NAN, 10.0, 0), true),
            (run_data(4.0, 10.0, 1), true),
        ] {
            let (md, diff_says) = render_diff(&a, &b, &cfg);
            let history = [entry_from_run(&a, 1)];
            let failures = check_run(&entry_from_run(&b, 2), &history, &cfg);
            assert_eq!(diff_says, regressed, "{md}");
            assert_eq!(failures.is_empty(), !regressed, "{failures:?}");
            assert!(md.contains("| val RMSE dB |"), "{md}");
        }
    }
}
