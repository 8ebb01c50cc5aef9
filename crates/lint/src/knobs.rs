//! The `knobs` pass: `SLM_*` environment-knob contract.
//!
//! Harvests every `env::var("SLM_…")` read in non-test library/binary
//! code and cross-checks it against the central knob table declared in
//! `sl_telemetry::registry`:
//!
//! - `knob-undeclared` — an `SLM_*` read with no entry in the table.
//! - `knob-dead` — a declared knob no code reads.
//! - `knob-undoc` — a declared knob missing from README.md or
//!   DESIGN.md (every knob must be user-discoverable).
//!
//! Only literal first arguments of `env::var` count as reads; an
//! `SLM_`-shaped string anywhere else (log messages, docs, tests, byte
//! strings) is never harvested.

use crate::index::FileIndex;
use crate::workspace::TargetKind;
use crate::Finding;

/// A declared knob, as fed to [`check_knobs`].
#[derive(Debug, Clone)]
pub struct KnobSpec {
    /// Environment variable name (`SLM_…`).
    pub name: String,
    /// Human-readable default.
    pub default: String,
    /// Parse type (`u32`, `enum(off|summary|jsonl)`, `path`, …).
    pub parse: String,
    /// Doc anchor (section the knob is documented under).
    pub doc: String,
}

impl KnobSpec {
    /// Convenience constructor.
    pub fn new(name: &str, default: &str, parse: &str, doc: &str) -> Self {
        KnobSpec {
            name: name.to_string(),
            default: default.to_string(),
            parse: parse.to_string(),
            doc: doc.to_string(),
        }
    }
}

/// A harvested `env::var("SLM_…")` read.
#[derive(Debug, Clone)]
pub struct KnobSite {
    /// Knob name.
    pub name: String,
    /// Source file (workspace-relative).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Harvests `SLM_*` env reads from non-test library/binary code.
pub fn harvest_knobs(files: &[FileIndex]) -> Vec<KnobSite> {
    let mut out = Vec::new();
    for f in files {
        if f.target == TargetKind::TestLike {
            continue;
        }
        for s in &f.strings {
            if s.in_test || s.byte || !s.text.starts_with("SLM_") {
                continue;
            }
            let Some(call) = s.call.as_ref() else {
                continue;
            };
            if call.callee == "var" && call.first_arg && call.qualifier.as_deref() == Some("env") {
                out.push(KnobSite {
                    name: s.text.clone(),
                    file: f.path.clone(),
                    line: s.line,
                    col: s.col,
                });
            }
        }
    }
    out
}

/// Locates a knob declaration's source line in a registry file.
fn decl_site(files: &[FileIndex], name: &str) -> (String, u32, u32) {
    for f in files {
        if !f.path.ends_with("registry.rs") {
            continue;
        }
        for s in &f.strings {
            if s.text == name {
                return (f.path.clone(), s.line, s.col);
            }
        }
    }
    ("crates/telemetry/src/registry.rs".to_string(), 0, 0)
}

/// Runs the knob contract. `docs` pairs a doc name (`README.md`,
/// `DESIGN.md`) with its full text.
pub fn check_knobs(
    files: &[FileIndex],
    specs: &[KnobSpec],
    docs: &[(String, String)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let reads = harvest_knobs(files);

    for site in &reads {
        if !specs.iter().any(|k| k.name == site.name) {
            out.push(Finding {
                rule: "knob-undeclared".to_string(),
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "env knob '{}' is read here but missing from the sl-telemetry knob table",
                    site.name
                ),
            });
        }
    }

    for spec in specs {
        if !reads.iter().any(|r| r.name == spec.name) {
            let (file, line, col) = decl_site(files, &spec.name);
            out.push(Finding {
                rule: "knob-dead".to_string(),
                file,
                line,
                col,
                message: format!("declared knob '{}' is never read by any code", spec.name),
            });
        }
        for (doc_name, text) in docs {
            if !text.contains(&spec.name) {
                let (file, line, col) = decl_site(files, &spec.name);
                out.push(Finding {
                    rule: "knob-undoc".to_string(),
                    file,
                    line,
                    col,
                    message: format!(
                        "declared knob '{}' is not documented in {doc_name}",
                        spec.name
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;

    fn docs(readme: &str, design: &str) -> Vec<(String, String)> {
        vec![
            ("README.md".to_string(), readme.to_string()),
            ("DESIGN.md".to_string(), design.to_string()),
        ]
    }

    #[test]
    fn undeclared_dead_and_undocumented_knobs() {
        let src = "fn f() { std::env::var(\"SLM_ALPHA\").ok(); }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        let specs = vec![KnobSpec::new("SLM_BETA", "1", "u32", "Docs")];
        let findings = check_knobs(&files, &specs, &docs("SLM_BETA", ""));
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"knob-undeclared"), "{findings:?}");
        assert!(rules.contains(&"knob-dead"), "{findings:?}");
        // SLM_BETA present in README but missing from DESIGN.
        assert_eq!(
            findings.iter().filter(|f| f.rule == "knob-undoc").count(),
            1,
            "{findings:?}"
        );
    }

    #[test]
    fn knob_shaped_text_outside_env_var_is_not_a_read() {
        let src = "fn f(t: &mut T) { t.warn(\"set SLM_THREADS to change this\"); let s = \"SLM_TRACE\"; }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        assert!(harvest_knobs(&files).is_empty());
    }

    #[test]
    fn declared_read_documented_knob_is_clean() {
        let src = "fn f() { std::env::var(\"SLM_ALPHA\").ok(); }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        let specs = vec![KnobSpec::new("SLM_ALPHA", "1", "u32", "Docs")];
        let findings = check_knobs(&files, &specs, &docs("SLM_ALPHA", "SLM_ALPHA"));
        assert!(findings.is_empty(), "{findings:?}");
    }
}
