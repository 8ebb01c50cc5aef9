//! `slm-lint` — the workspace's static analyzer.
//!
//! ```text
//! slm-lint [--root PATH] [--update-allowlist]
//! ```
//!
//! Every run lints every workspace crate under `--root` (default `.`):
//! the token rules on each file and manifest, reconciled against the
//! allowlist, then four passes over one item-level index — `keys`
//! (telemetry key-namespace contract), `knobs` (`SLM_*` env-knob
//! table), `protocol` (MsgType decode/handler coverage plus the bounded
//! protocol model checker and its seeded-mutation self-test) and
//! `determinism` (kernel accumulator-order heuristics). Findings print
//! rustc-style. `--update-allowlist` rewrites `crates/lint/allowlist.txt`
//! to exactly cover the token rules' current findings (initial capture /
//! post burn-down); the passes' findings are never allowlisted.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = internal/IO/usage error.

use sl_lint::keys::KeySpec;
use sl_lint::knobs::KnobSpec;
use sl_lint::{Allowlist, Finding, LintConfig, LintReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "USAGE: slm-lint [--root PATH] [--update-allowlist]";

struct Args {
    root: PathBuf,
    update_allowlist: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        update_allowlist: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root requires a path".to_string())?,
                );
            }
            "--update-allowlist" => args.update_allowlist = true,
            "--help" | "-h" => {
                println!("slm-lint: workspace static analyzer\n\n{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let config = LintConfig::default();
    if args.update_allowlist {
        return update_allowlist(&args.root, &config);
    }

    let report = match sl_lint::run(&args.root, &config)
        .and_then(|mut report| run_passes(&args.root, &config, &mut report).map(|()| report))
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("slm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    let passes = report
        .passes
        .iter()
        .map(|(p, n)| format!("{p}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "slm-lint: {} file(s) scanned, {} finding(s), {} allowlisted, {} waived \
         (allowlist size {}); passes: {passes}",
        report.files_scanned,
        report.findings.len(),
        report.allowlisted.len(),
        report.waived.len(),
        report.allowlist_len,
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn update_allowlist(root: &Path, config: &LintConfig) -> ExitCode {
    let collected = match sl_lint::collect(root, config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("slm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let path = root.join("crates/lint/allowlist.txt");
    let rendered = Allowlist::render(&collected.findings);
    if let Err(e) = std::fs::write(&path, rendered) {
        eprintln!("slm-lint: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "slm-lint: wrote {} with {} entr(ies) covering the current findings",
        path.display(),
        collected.findings.len()
    );
    ExitCode::SUCCESS
}

/// Runs the four passes over one shared item-level index and merges
/// their findings (and per-pass counts) into `report`. `Err` = internal
/// failure (exit 2); findings themselves flow through the report
/// (exit 1).
fn run_passes(root: &Path, config: &LintConfig, report: &mut LintReport) -> std::io::Result<()> {
    let files = sl_lint::build_index(root)?;
    let mut merge = |pass: &str, findings: Vec<Finding>| {
        report.passes.insert(pass.to_string(), findings.len());
        for f in &findings {
            *report.rule_counts.entry(f.rule.clone()).or_insert(0) += 1;
        }
        report.findings.extend(findings);
    };

    // The declared contracts live in `sl_telemetry::registry`, so they
    // ship with the crate they govern.
    let keys: Vec<KeySpec> = sl_telemetry::registry::KEYS
        .iter()
        .map(|k| KeySpec::new(k.pattern, k.readers))
        .collect();
    merge("keys", sl_lint::keys::check_keys(&files, &keys));

    let knobs: Vec<KnobSpec> = sl_telemetry::registry::KNOBS
        .iter()
        .map(|k| KnobSpec::new(k.name, k.default, k.parse, k.doc))
        .collect();
    let docs: Vec<(String, String)> = ["README.md", "DESIGN.md"]
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(name)).unwrap_or_default();
            (name.to_string(), text)
        })
        .collect();
    merge("knobs", sl_lint::knobs::check_knobs(&files, &knobs, &docs));

    let spec = sl_lint::protocol::ProtocolSpec::workspace_default();
    let mut findings = sl_lint::protocol::check_protocol(&files, &spec);
    findings.extend(model_findings());
    merge("protocol", findings);

    merge(
        "determinism",
        sl_lint::index::check_determinism(&files, &config.determinism_kernel_crates),
    );
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(())
}

/// The bounded protocol model check plus its non-vacuity self-test: the
/// faithful model must prove every invariant, and the seeded
/// recompute-on-nack mutation must be caught.
fn model_findings() -> Vec<Finding> {
    use sl_lint::model::{check, ModelConfig, Mutation};
    let finding = |rule: &str, message: String| Finding {
        rule: rule.to_string(),
        file: "crates/lint/src/model.rs".to_string(),
        line: 0,
        col: 0,
        message,
    };
    let mut out = Vec::new();

    let faithful = check(&ModelConfig::default());
    for v in &faithful.violations {
        out.push(finding(
            "protocol-model",
            format!(
                "invariant '{}' violated: {} (trace: {})",
                v.invariant,
                v.message,
                v.trace.join(" -> ")
            ),
        ));
    }
    if !faithful.done_reachable {
        out.push(finding(
            "protocol-model",
            "clean shutdown (Done) is unreachable in the faithful model".to_string(),
        ));
    }

    let mutant = check(&ModelConfig {
        mutation: Mutation::RecomputeOnNack,
        ..ModelConfig::default()
    });
    if mutant.violations.is_empty() {
        out.push(finding(
            "protocol-model-selftest",
            "seeded mutation (server recomputes instead of resending its cached reply) \
             was not caught — the no-double-apply invariant is vacuous"
                .to_string(),
        ));
    }
    eprintln!(
        "slm-lint protocol: model checked {} state(s) / {} transition(s); \
         mutation self-test {}",
        faithful.states,
        faithful.transitions,
        if mutant.violations.is_empty() {
            "FAILED"
        } else {
            "caught the seeded bug"
        }
    );
    out
}
