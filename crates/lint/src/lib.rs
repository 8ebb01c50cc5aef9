//! # `sl-lint` — workspace-aware static analyzer for the split-learning repo
//!
//! A std-only, token-level linter purpose-built for this workspace. It is
//! not a general Rust parser: it lexes each source file into a token
//! stream (correctly skipping string/char literals, raw strings and
//! nested comments — see [`lexer`]) and enforces a small set of
//! repo-specific invariants that `rustc` and `clippy` cannot express:
//!
//! | rule id            | invariant                                                       |
//! |--------------------|-----------------------------------------------------------------|
//! | `no-unwrap`        | no `.unwrap()` / `.expect()` in non-test library code           |
//! | `no-nondeterminism`| no ambient RNG/clock/thread/socket calls (`rand::rng()`, `thread_rng()`, `Instant::now()`, `SystemTime::now()`, `thread::spawn()`, `available_parallelism()`, `TcpListener::bind()`, `TcpStream::connect()`, `UdpSocket::bind()`) outside telemetry; sl-tensor's ComputePool and sl-net's transport carry inline waivers |
//! | `no-print`         | no `println!`/`eprintln!` outside binaries and telemetry sinks  |
//! | `float-cmp`        | no `==`/`!=` against float literals                             |
//! | `lossy-cast`       | no narrowing `as` casts inside the numerics crates              |
//! | `unsafe-containment`| `unsafe` only inside `crates/tensor/src/simd/` (or waived)     |
//! | `deps-policy`      | no external dependencies: the workspace builds from std alone   |
//! | `bad-waiver`       | malformed `// slm-lint: allow(...)` comment                     |
//! | `stale-allowlist`  | allowlist entry with no matching finding (burn-down ratchet)    |
//!
//! Known pre-existing findings live in a checked-in burn-down allowlist
//! ([`allowlist`]) with exact-count semantics: new findings fail the run
//! immediately, and entries that stop matching are flagged stale so the
//! list can only shrink. Individual sites are waived inline with
//! `// slm-lint: allow(rule-id) reason`, which doubles as the
//! "documented expect" mechanism.
//!
//! The `slm-lint` binary runs these rules and then four passes over one
//! item-level index ([`index`]): `keys` ([`keys`]), `knobs` ([`knobs`]),
//! `protocol` ([`protocol`] plus the bounded model checker in [`model`])
//! and `determinism` ([`index::check_determinism`]).

pub mod allowlist;
pub mod deps;
pub mod index;
pub mod keys;
pub mod knobs;
pub mod lexer;
pub mod model;
pub mod protocol;
pub mod rules;
pub mod workspace;

pub use allowlist::Allowlist;
pub use index::FileIndex;
pub use rules::{scan_file, FileContext, ScanResult};
pub use workspace::TargetKind;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One lint finding, addressed rustc-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `no-unwrap`).
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line (0 for file-level findings such as `stale-allowlist`).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Lint policy knobs. The defaults encode this repo's rules; they are a
/// struct (rather than constants) so the golden-fixture tests can point
/// the same engine at a synthetic crate.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates allowed to use wall clocks and ambient RNG entropy.
    pub determinism_exempt: BTreeSet<String>,
    /// Crates allowed to use `println!`/`eprintln!` in library code
    /// (console telemetry sinks).
    pub print_exempt: BTreeSet<String>,
    /// Crates where narrowing `as` casts are flagged (the numeric core,
    /// where a silent `usize as f32` truncation corrupts results).
    pub lossy_cast_crates: BTreeSet<String>,
    /// External (non-workspace) dependencies every manifest may declare.
    pub allowed_external_deps: BTreeSet<String>,
    /// Crates whose kernels the `determinism` pass's heuristics guard
    /// (split accumulators, reversed k loops, fused/reducing intrinsics).
    pub determinism_kernel_crates: BTreeSet<String>,
    /// Path prefixes (repo-relative, `/`-separated) where `unsafe` is
    /// sanctioned; everywhere else library `unsafe` is a finding.
    pub unsafe_allowed_paths: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let set = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        LintConfig {
            determinism_exempt: set(&["sl-telemetry"]),
            print_exempt: set(&["sl-telemetry"]),
            lossy_cast_crates: set(&["sl-tensor", "sl-nn"]),
            allowed_external_deps: BTreeSet::new(),
            determinism_kernel_crates: set(&["sl-tensor"]),
            unsafe_allowed_paths: vec!["crates/tensor/src/simd/".to_string()],
        }
    }
}

/// Raw scan output before allowlist reconciliation.
#[derive(Debug, Default)]
pub struct Collected {
    /// Every finding from every file and manifest, sorted.
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline waivers.
    pub waived: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Full lint run outcome after allowlist reconciliation.
#[derive(Debug)]
pub struct LintReport {
    /// Findings that fail the run (not waived, not allowlisted; includes
    /// `stale-allowlist` entries).
    pub findings: Vec<Finding>,
    /// Findings absorbed by the burn-down allowlist.
    pub allowlisted: Vec<Finding>,
    /// Findings suppressed by inline waivers.
    pub waived: Vec<Finding>,
    /// Counts per rule over all real findings (active + allowlisted).
    pub rule_counts: BTreeMap<String, usize>,
    /// Total granted instances in the allowlist (the burn-down metric).
    pub allowlist_len: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-pass finding counts for the passes the binary runs after the
    /// token rules (`keys`, `knobs`, `protocol`, `determinism`). Empty
    /// from [`run`] alone.
    pub passes: BTreeMap<String, usize>,
}

impl LintReport {
    /// True when the run passes (no active findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans every workspace package under `root`: the six token rules on
/// each `.rs` file plus `deps-policy` on each manifest. Findings carry
/// repo-relative paths so the allowlist is location-independent.
pub fn collect(root: &Path, config: &LintConfig) -> io::Result<Collected> {
    let mut out = Collected::default();
    for pkg in workspace::discover(root)? {
        let manifest_text = fs::read_to_string(&pkg.manifest)?;
        let manifest_rel = relative(root, &pkg.manifest);
        deps::check_manifest(
            &manifest_text,
            Path::new(&manifest_rel),
            config,
            &mut out.findings,
        );
        for file in workspace::rust_sources(&pkg)? {
            let src = fs::read_to_string(&file)?;
            let rel = relative(root, &file);
            let ctx = FileContext {
                crate_name: &pkg.name,
                target: workspace::classify(&pkg.root, &file),
                path: &rel,
            };
            let result = scan_file(&src, &ctx, config);
            out.findings.extend(result.findings);
            out.waived.extend(result.waived);
            out.files_scanned += 1;
        }
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(out)
}

/// Runs the full lint pass: [`collect`], then reconcile against the
/// checked-in allowlist at `crates/lint/allowlist.txt` (if present).
pub fn run(root: &Path, config: &LintConfig) -> io::Result<LintReport> {
    let collected = collect(root, config)?;
    let allowlist = load_allowlist(root)?;
    let reconciled = allowlist.reconcile(collected.findings);

    let mut rule_counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in reconciled
        .active
        .iter()
        .chain(reconciled.allowlisted.iter())
    {
        *rule_counts.entry(f.rule.clone()).or_insert(0) += 1;
    }

    let mut findings = reconciled.active;
    findings.extend(reconciled.stale);
    Ok(LintReport {
        findings,
        allowlisted: reconciled.allowlisted,
        waived: collected.waived,
        rule_counts,
        allowlist_len: allowlist.len(),
        files_scanned: collected.files_scanned,
        passes: BTreeMap::new(),
    })
}

/// Builds the item-level semantic index over every workspace package
/// under `root`: string literals with call context, fn/enum/const facts
/// and `Enum::Variant` path refs, all with file:line provenance. The
/// `keys`, `knobs`, `protocol` and `determinism` passes consume this
/// instead of re-lexing per pass.
pub fn build_index(root: &Path) -> io::Result<Vec<FileIndex>> {
    let mut out = Vec::new();
    for pkg in workspace::discover(root)? {
        for file in workspace::rust_sources(&pkg)? {
            let src = fs::read_to_string(&file)?;
            let rel = relative(root, &file);
            let target = workspace::classify(&pkg.root, &file);
            out.push(index::index_file(&src, &rel, &pkg.name, target));
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Loads `crates/lint/allowlist.txt` under `root`; absent file = empty
/// allowlist, malformed file = hard error (a typo must not silently
/// grant findings).
pub fn load_allowlist(root: &Path) -> io::Result<Allowlist> {
    let path = root.join("crates/lint/allowlist.txt");
    if !path.is_file() {
        return Ok(Allowlist::default());
    }
    let text = fs::read_to_string(&path)?;
    Allowlist::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_rustc_style() {
        let f = Finding {
            rule: "no-unwrap".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 12,
            col: 7,
            message: "call `.unwrap()` in library code".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:12:7: no-unwrap: call `.unwrap()` in library code"
        );
    }

    #[test]
    fn default_config_encodes_repo_policy() {
        let c = LintConfig::default();
        assert!(c.determinism_exempt.contains("sl-telemetry"));
        assert!(c.print_exempt.contains("sl-telemetry"));
        assert!(c.lossy_cast_crates.contains("sl-tensor"));
        assert!(c.lossy_cast_crates.contains("sl-nn"));
        assert!(c.allowed_external_deps.is_empty());
        assert_eq!(
            c.unsafe_allowed_paths,
            vec!["crates/tensor/src/simd/".to_string()]
        );
    }
}
