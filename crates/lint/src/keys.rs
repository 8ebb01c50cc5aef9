//! `--keys`: telemetry key-namespace contract.
//!
//! Harvests every key literal published through the `sl-telemetry`
//! publish surface (`inc`/`add`/`gauge_set`/`gauge_add`/`observe`/
//! `merge_histogram`/`series_point`, and the host recorder's
//! `host::{time,add,set}`, whose `time` keys gain `.host_s`), including
//! `format!`/`format_args!`-built keys whose placeholders become `*`
//! wildcard segments and bare scoped names which are absorbed under a
//! prefix and therefore harvest as `*.<name>`, then cross-checks the
//! harvest against the declared key registry:
//!
//! - `key-undeclared` — a publish site whose key unifies with no
//!   declared pattern (namespace drift at the source).
//! - `key-dead` — a declared pattern no publish site can produce.
//! - `key-unread` — a declaration tagged with a reader (`report`,
//!   `top`) whose reader file shows no evidence of consuming it
//!   (publish-but-never-consumed drift).
//! - `key-unpublished` — a reader lookup (`counter("…")`,
//!   `gauge("…")`, `histograms.get("…")`, `series.get("…")`) whose key
//!   unifies with no declared-and-published pattern
//!   (consume-but-never-published drift).
//! - `key-grammar` — a declared pattern or harvested literal violating
//!   the `sub.noun.verb` segment grammar (lowercase
//!   `[a-z][a-z0-9_]*` segments, or `*`).
//! - `key-reader-missing` — a [`READER_FILES`] path that matches no
//!   indexed file, so that reader's lookups would go unchecked (a moved
//!   or renamed reader).
//!
//! Wildcards match **one or more** dot segments on either side, so the
//! declared family `net.session.*` unifies with both the scoped bare
//! publish `*.steps` and the concrete reader key `net.session.3.steps`.

use crate::index::{FileIndex, StrRef};
use crate::workspace::TargetKind;
use crate::Finding;

/// A declared key pattern, as fed to [`check_keys`].
#[derive(Debug, Clone)]
pub struct KeySpec {
    /// Dot-separated pattern; `*` segments match ≥1 concrete segments.
    pub pattern: String,
    /// Reader names (see [`READER_FILES`]) that are expected to consume
    /// keys from this family.
    pub readers: Vec<String>,
}

impl KeySpec {
    /// Convenience constructor.
    pub fn new(pattern: &str, readers: &[&str]) -> Self {
        KeySpec {
            pattern: pattern.to_string(),
            readers: readers.iter().map(|r| r.to_string()).collect(),
        }
    }
}

/// Reader name → path suffix of the file that consumes the keys.
pub const READER_FILES: &[(&str, &str)] = &[
    ("report", "crates/bench/src/report.rs"),
    ("top", "crates/bench/src/bin/slm-top.rs"),
];

/// Telemetry publish methods whose first argument is a key.
const PUBLISH_METHODS: &[&str] = &[
    "inc",
    "add",
    "gauge_set",
    "gauge_add",
    "observe",
    "merge_histogram",
    "series_point",
];

/// `sl_telemetry::host` recorder functions whose first argument is a
/// key, with the suffix the recorder appends to it.
const RECORDER_FNS: &[(&str, &str)] = &[("time", ".host_s"), ("add", ""), ("set", "")];

/// Reader lookup methods whose first argument is a key.
const CONSUME_METHODS: &[&str] = &["counter", "gauge"];

/// Map receivers whose `.get("…")` lookups count as key consumption.
const CONSUME_MAPS: &[&str] = &["counters", "gauges", "histograms", "series"];

/// A harvested publish or consume site.
#[derive(Debug, Clone)]
pub struct KeySite {
    /// Normalized pattern (placeholders → `*`, bare names → `*.name`).
    pub pattern: String,
    /// Source file (workspace-relative).
    pub file: String,
    /// 1-based line / column.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Harvests publish sites from non-test library/binary code.
pub fn harvest_publishes(files: &[FileIndex]) -> Vec<KeySite> {
    let mut out = Vec::new();
    for f in files {
        if f.target == TargetKind::TestLike {
            continue;
        }
        for s in &f.strings {
            if s.in_test || s.byte {
                continue;
            }
            if let Some(pattern) = publish_pattern(s) {
                out.push(KeySite {
                    pattern,
                    file: f.path.clone(),
                    line: s.line,
                    col: s.col,
                });
            }
        }
    }
    out
}

/// The publish pattern of one string literal, when its call context is
/// a publish method (directly, or through `format!` as first argument).
/// All-wildcard patterns (e.g. `MetricsRegistry::merge_prefixed`'s
/// `{prefix}.{k}` re-publish plumbing) carry no contract information
/// and are dropped.
fn publish_pattern(s: &StrRef) -> Option<String> {
    let call = s.call.as_ref()?;
    let (site, from_format) =
        if call.is_macro && ["format", "format_args"].contains(&call.callee.as_str()) {
            (s.outer_call.as_ref()?, true)
        } else {
            (call, false)
        };
    let pattern =
        if site.method && site.first_arg && PUBLISH_METHODS.contains(&site.callee.as_str()) {
            normalize(&s.text, from_format)
        } else if let Some((_, suffix)) = recorder_fn(site) {
            normalize(&format!("{}{suffix}", s.text), from_format)
        } else {
            return None;
        };
    if pattern.split('.').all(|seg| seg == "*") {
        return None;
    }
    Some(pattern)
}

/// The [`RECORDER_FNS`] entry a `host::<fn>(key, ..)` call names.
fn recorder_fn(site: &crate::index::CallSite) -> Option<&'static (&'static str, &'static str)> {
    if site.method || !site.first_arg || site.qualifier.as_deref() != Some("host") {
        return None;
    }
    RECORDER_FNS.iter().find(|(name, _)| *name == site.callee)
}

/// Harvests reader lookups from the configured reader files, keyed by
/// reader name.
pub fn harvest_consumes(files: &[FileIndex]) -> Vec<(String, KeySite)> {
    let mut out = Vec::new();
    for (reader, suffix) in READER_FILES {
        let Some(f) = files.iter().find(|f| f.path.ends_with(suffix)) else {
            continue;
        };
        for s in &f.strings {
            if s.in_test || s.byte {
                continue;
            }
            let Some(call) = s.call.as_ref() else {
                continue;
            };
            let consumes =
                (call.method && call.first_arg && CONSUME_METHODS.contains(&call.callee.as_str()))
                    || (call.callee == "get"
                        && call.method
                        && call.first_arg
                        && call
                            .qualifier
                            .as_deref()
                            .is_some_and(|q| CONSUME_MAPS.contains(&q)));
            if consumes {
                out.push((
                    reader.to_string(),
                    KeySite {
                        pattern: normalize(&s.text, false),
                        file: f.path.clone(),
                        line: s.line,
                        col: s.col,
                    },
                ));
            }
        }
    }
    out
}

/// Normalizes a harvested literal into a pattern: `format!` placeholder
/// segments become `*`; dotless bare names (scoped publishes, absorbed
/// under a prefix at runtime) become `*.name`.
pub fn normalize(text: &str, from_format: bool) -> String {
    let mut pat: String = if from_format {
        text.split('.')
            .map(|seg| if seg.contains('{') { "*" } else { seg })
            .collect::<Vec<_>>()
            .join(".")
    } else {
        text.to_string()
    };
    if !pat.contains('.') && pat != "*" {
        pat = format!("*.{pat}");
    }
    pat
}

/// `true` when the two patterns can denote a common concrete key; `*`
/// matches one or more segments on either side.
pub fn unify(a: &str, b: &str) -> bool {
    let sa: Vec<&str> = a.split('.').collect();
    let sb: Vec<&str> = b.split('.').collect();
    unify_segs(&sa, &sb)
}

fn unify_segs(a: &[&str], b: &[&str]) -> bool {
    match (a.first(), b.first()) {
        (None, None) => true,
        (Some(&"*"), _) => (1..=b.len()).any(|k| unify_segs(&a[1..], &b[k..])),
        (_, Some(&"*")) => unify_segs(b, a),
        (Some(x), Some(y)) => x == y && unify_segs(&a[1..], &b[1..]),
        _ => false,
    }
}

/// Grammar check for one pattern: ≥2 segments, each `*` or
/// `[a-z][a-z0-9_]*`.
fn grammar_error(pattern: &str) -> Option<String> {
    let segs: Vec<&str> = pattern.split('.').collect();
    if segs.len() < 2 {
        return Some(format!(
            "key '{pattern}' has a single segment; keys are dot-separated sub.noun.verb names"
        ));
    }
    for seg in segs {
        if seg == "*" {
            continue;
        }
        let ok = seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !ok {
            return Some(format!(
                "key segment '{seg}' in '{pattern}' violates the [a-z][a-z0-9_]* grammar"
            ));
        }
    }
    None
}

/// Locates a declaration's source line by finding its pattern literal
/// in a registry file.
fn decl_site(files: &[FileIndex], pattern: &str) -> (String, u32, u32) {
    for f in files {
        if !f.path.ends_with("registry.rs") {
            continue;
        }
        for s in &f.strings {
            if s.text == pattern {
                return (f.path.clone(), s.line, s.col);
            }
        }
    }
    ("crates/telemetry/src/registry.rs".to_string(), 0, 0)
}

/// Runs the full key contract over an indexed workspace.
pub fn check_keys(files: &[FileIndex], specs: &[KeySpec]) -> Vec<Finding> {
    let mut out = Vec::new();
    let publishes = harvest_publishes(files);
    let consumes = harvest_consumes(files);

    // Every reader file must exist, or its lookups go unchecked. The
    // finding is pinned to the path literal in READER_FILES.
    for (reader, suffix) in READER_FILES {
        if !files.iter().any(|f| f.path.ends_with(suffix)) {
            let (file, line, col) = files
                .iter()
                .filter(|f| f.path.ends_with("crates/lint/src/keys.rs"))
                .flat_map(|f| f.strings.iter().map(move |s| (f, s)))
                .find(|(_, s)| s.text == *suffix)
                .map(|(f, s)| (f.path.clone(), s.line, s.col))
                .unwrap_or_else(|| ("crates/lint/src/keys.rs".to_string(), 0, 0));
            out.push(Finding {
                rule: "key-reader-missing".to_string(),
                file,
                line,
                col,
                message: format!(
                    "reader '{reader}' names {suffix}, which is not in the workspace; \
                     point READER_FILES at the file that reads its keys"
                ),
            });
        }
    }

    // Grammar: declared patterns and concrete harvested keys.
    for spec in specs {
        if let Some(msg) = grammar_error(&spec.pattern) {
            let (file, line, col) = decl_site(files, &spec.pattern);
            out.push(Finding {
                rule: "key-grammar".to_string(),
                file,
                line,
                col,
                message: msg,
            });
        }
    }
    for site in &publishes {
        if let Some(msg) = grammar_error(&site.pattern) {
            out.push(Finding {
                rule: "key-grammar".to_string(),
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: msg,
            });
        }
    }

    // Publish sites must be declared.
    for site in &publishes {
        if !specs.iter().any(|sp| unify(&sp.pattern, &site.pattern)) {
            out.push(Finding {
                rule: "key-undeclared".to_string(),
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "published key '{}' matches no declared pattern in the telemetry registry",
                    site.pattern
                ),
            });
        }
    }

    // Declarations must be publishable...
    for spec in specs {
        let published = publishes.iter().any(|s| unify(&spec.pattern, &s.pattern));
        if !published {
            let (file, line, col) = decl_site(files, &spec.pattern);
            out.push(Finding {
                rule: "key-dead".to_string(),
                file,
                line,
                col,
                message: format!(
                    "declared key '{}' is never published by any workspace publish site",
                    spec.pattern
                ),
            });
        }
        // ... and read where they claim to be.
        for reader in &spec.readers {
            if !reader_evidence(files, reader, &spec.pattern) {
                let (file, line, col) = decl_site(files, &spec.pattern);
                out.push(Finding {
                    rule: "key-unread".to_string(),
                    file,
                    line,
                    col,
                    message: format!(
                        "declared key '{}' is tagged reader '{reader}' but that reader never consumes it",
                        spec.pattern
                    ),
                });
            }
        }
    }

    // Reader lookups must land on declared, published families.
    for (reader, site) in &consumes {
        let backed = specs.iter().any(|sp| {
            unify(&sp.pattern, &site.pattern)
                && publishes.iter().any(|p| unify(&sp.pattern, &p.pattern))
        });
        if !backed {
            out.push(Finding {
                rule: "key-unpublished".to_string(),
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "reader '{reader}' consumes key '{}' which no declared+published family covers",
                    site.pattern
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    out
}

/// Evidence that `reader` consumes keys from `pattern`'s family: a
/// non-test literal in the reader file that unifies with the pattern,
/// or that equals its final concrete segment (per-session bare lookups
/// in slm-top read scoped names after the prefix is stripped).
fn reader_evidence(files: &[FileIndex], reader: &str, pattern: &str) -> bool {
    let Some(suffix) = READER_FILES
        .iter()
        .find(|(name, _)| name == &reader)
        .map(|(_, s)| *s)
    else {
        return false;
    };
    let Some(f) = files.iter().find(|f| f.path.ends_with(suffix)) else {
        return false;
    };
    let last = pattern.rsplit('.').next().unwrap_or(pattern);
    f.strings.iter().any(|s| {
        !s.in_test
            && !s.byte
            && !s.text.is_empty()
            && (unify(pattern, &normalize(&s.text, false)) || (last != "*" && s.text == last))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;

    #[test]
    fn unify_is_symmetric_and_wildcards_span_segments() {
        assert!(unify("net.session.*", "net.session.3.steps"));
        assert!(unify("net.session.*", "*.steps"));
        assert!(unify("*.steps", "net.session.*"));
        assert!(unify("train.loss", "train.loss"));
        assert!(!unify("train.loss", "train.loss.extra"));
        assert!(!unify("*.steps", "train.loss"));
        assert!(unify("*.host_s", "train.model.host_s"));
        assert!(!unify("net.*", "net"));
    }

    #[test]
    fn normalize_wildcardizes_placeholders_and_bare_names() {
        assert_eq!(normalize("net.session.{id}", true), "net.session.*");
        assert_eq!(normalize("{base}.flops", true), "*.flops");
        assert_eq!(normalize("steps", false), "*.steps");
        assert_eq!(normalize("train.loss", false), "train.loss");
    }

    #[test]
    fn grammar_rejects_uppercase_and_bare_keys() {
        assert!(grammar_error("train.loss").is_none());
        assert!(grammar_error("net.session.*").is_none());
        assert!(grammar_error("Train.loss").is_some());
        assert!(grammar_error("loss").is_some());
    }

    #[test]
    fn undeclared_and_dead_keys_are_found() {
        let src = "fn f(t: &mut T) { t.inc(\"bogus.key\"); t.observe(\"train.loss\", v); }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        let specs = vec![
            KeySpec::new("train.loss", &[]),
            KeySpec::new("ghost.key", &[]),
        ];
        let findings = check_keys(&files, &specs);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"key-undeclared"), "{findings:?}");
        assert!(rules.contains(&"key-dead"), "{findings:?}");
        let undeclared = findings
            .iter()
            .find(|f| f.rule == "key-undeclared")
            .unwrap();
        assert_eq!(undeclared.line, 1);
        assert!(undeclared.message.contains("bogus.key"));
    }

    #[test]
    fn host_recorder_calls_are_harvested() {
        let src = "fn f() { host::time(\"train.step\", || ()); \
                   host::time(format_args!(\"{key}.fwd\"), || ()); \
                   host::add(format_args!(\"{key}.flops\"), 1.0); \
                   time(\"not.recorded\", || ()); }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        let patterns: Vec<String> = harvest_publishes(&files)
            .into_iter()
            .map(|s| s.pattern)
            .collect();
        assert_eq!(patterns, ["train.step.host_s", "*.fwd.host_s", "*.flops"]);
    }

    #[test]
    fn a_missing_reader_file_is_a_finding() {
        let src = "fn f(s: &S) { s.counter(\"train.steps\"); }";
        let report = index_file(src, READER_FILES[0].1, "x", TargetKind::Lib);
        let findings = check_keys(&[report], &[]);
        let missing: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "key-reader-missing")
            .collect();
        assert_eq!(missing.len(), READER_FILES.len() - 1, "{findings:?}");
        assert!(
            missing[0].message.contains(READER_FILES[1].1),
            "{findings:?}"
        );
    }

    #[test]
    fn test_code_and_byte_strings_are_never_harvested() {
        let src = "#[cfg(test)]\nmod tests { fn f(t: &mut T) { t.inc(\"fake.key\"); } }\nfn g(t: &mut T) { t.inc(b\"raw.key\"); }";
        let files = vec![index_file(src, "crates/x/src/lib.rs", "x", TargetKind::Lib)];
        assert!(harvest_publishes(&files).is_empty());
    }
}
