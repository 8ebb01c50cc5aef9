//! Golden tests against `fixtures/bad-crate`: every rule has exactly one
//! seeded violation there, and each must be reported with the exact rule
//! id, line and column — no more, no less.

use sl_lint::{collect, run, LintConfig};
use std::path::Path;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/bad-crate"))
}

/// The fixture crate is not in the default `lossy_cast_crates` set, so
/// opt it in to exercise that rule too.
fn fixture_config() -> LintConfig {
    let mut config = LintConfig::default();
    config.lossy_cast_crates.insert("bad-crate".into());
    config
}

#[test]
fn every_rule_fires_exactly_once_at_its_seeded_location() {
    let collected = collect(fixture_root(), &fixture_config()).unwrap();
    let got: Vec<(String, String, u32, u32)> = collected
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line, f.col))
        .collect();
    let lib = |rule: &str, line, col| (rule.to_string(), "src/lib.rs".to_string(), line, col);
    let expected = vec![
        ("deps-policy".to_string(), "Cargo.toml".to_string(), 12, 1),
        lib("no-unwrap", 7, 7),
        lib("no-expect", 11, 7),
        lib("no-nondeterminism", 15, 5),
        lib("no-print", 19, 5),
        lib("float-cmp", 23, 7),
        lib("lossy-cast", 27, 7),
        lib("bad-waiver", 30, 1),
        lib("unsafe-containment", 124, 5),
    ];
    assert_eq!(got, expected, "findings:\n{:#?}", collected.findings);
}

#[test]
fn documented_waiver_suppresses_its_site() {
    let collected = collect(fixture_root(), &fixture_config()).unwrap();
    assert_eq!(collected.waived.len(), 1);
    let w = &collected.waived[0];
    assert_eq!((w.rule.as_str(), w.line), ("no-unwrap", 35));
    // The waived site must not also appear as an active finding.
    assert!(!collected
        .findings
        .iter()
        .any(|f| f.rule == "no-unwrap" && f.line == 35));
}

#[test]
fn run_reports_the_fixture_as_dirty() {
    // The fixture has no allowlist, so every finding stays active.
    let report = run(fixture_root(), &fixture_config()).unwrap();
    assert!(!report.clean());
    assert_eq!(report.findings.len(), 9);
    assert_eq!(report.allowlist_len, 0);
    assert_eq!(report.rule_counts["no-unwrap"], 1);
    assert_eq!(report.rule_counts["deps-policy"], 1);
}

#[test]
fn findings_render_rustc_style() {
    let collected = collect(fixture_root(), &fixture_config()).unwrap();
    let rendered: Vec<String> = collected.findings.iter().map(|f| f.to_string()).collect();
    assert!(rendered
        .iter()
        .any(|r| r.starts_with("src/lib.rs:7:7: no-unwrap:")));
    assert!(rendered
        .iter()
        .any(|r| r.starts_with("Cargo.toml:12:1: deps-policy:")));
}

// ---- semantic passes: one seeded violation each, pinned to file:line --

fn fixture_index() -> Vec<sl_lint::FileIndex> {
    sl_lint::build_index(fixture_root()).unwrap()
}

#[test]
fn orphan_key_is_pinned_to_its_publish_site() {
    let specs = vec![sl_lint::keys::KeySpec::new("telemetry.good.key", &[])];
    let findings = sl_lint::keys::check_keys(&fixture_index(), &specs);
    let orphan = findings
        .iter()
        .find(|f| f.rule == "key-undeclared")
        .expect("seeded orphan key must be reported");
    assert_eq!((orphan.file.as_str(), orphan.line), ("src/lib.rs", 75));
    assert!(orphan.message.contains("bogus.orphan.key"), "{orphan}");
    // The synthetic declaration is also dead — nothing publishes it.
    assert!(findings.iter().any(|f| f.rule == "key-dead"));
}

#[test]
fn undeclared_knob_is_pinned_to_its_env_read() {
    let findings = sl_lint::knobs::check_knobs(&fixture_index(), &[], &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(
        (f.rule.as_str(), f.file.as_str(), f.line),
        ("knob-undeclared", "src/lib.rs", 80)
    );
    assert!(f.message.contains("SLM_BOGUS"), "{f}");
}

#[test]
fn unhandled_msg_type_is_pinned_to_its_variant() {
    let spec = sl_lint::protocol::ProtocolSpec {
        enum_file: "src/lib.rs".to_string(),
        enum_name: "ProtoMsg".to_string(),
        decode_fn: "from_u8".to_string(),
        groups: vec![("handler".to_string(), vec!["src/lib.rs".to_string()])],
    };
    let findings = sl_lint::protocol::check_protocol(&fixture_index(), &spec);
    let pins: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    // `Orphan` is declared on line 46; Hello/Data are fully covered.
    assert!(pins.contains(&("protocol-decode", 46)), "{findings:?}");
    assert!(pins.contains(&("protocol-handler", 46)), "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "protocol-annotation" && f.message.contains("lacks")),
        "{findings:?}"
    );
    assert!(
        !pins
            .iter()
            .any(|(r, l)| *r != "protocol-annotation" && (*l == 44 || *l == 45)),
        "covered variants must not be reported: {findings:?}"
    );
}

#[test]
fn double_accumulator_and_reversed_k_are_pinned() {
    let mut config = fixture_config();
    config.determinism_kernel_crates.insert("bad-crate".into());
    let files = sl_lint::build_index(fixture_root()).unwrap();
    let findings = sl_lint::index::check_determinism(&files, &config.determinism_kernel_crates);
    let pins: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule.as_str(), f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        pins,
        vec![
            ("det-split-acc", "src/lib.rs", 94),
            ("det-rev-k", "src/lib.rs", 100),
            ("det-fused-madd", "src/lib.rs", 129),
            ("det-lane-reduce", "src/lib.rs", 138),
        ],
        "{findings:?}"
    );
}
