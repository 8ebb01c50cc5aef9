//! End-to-end tests of the `slm-lint` binary: exit codes and output for
//! the fixture crate and the real workspace.

use std::path::Path;
use std::process::{Command, Output};

fn slm_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slm-lint"))
        .args(args)
        .output()
        .expect("slm-lint binary runs")
}

fn fixture_root() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/bad-crate").to_string()
}

fn repo_root() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    root.display().to_string()
}

#[test]
fn fixture_crate_fails_with_rustc_style_findings() {
    let out = slm_lint(&["--root", &fixture_root()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("src/lib.rs:7:7: no-unwrap:"), "{stdout}");
    assert!(stdout.contains("Cargo.toml:12:1: deps-policy:"), "{stdout}");
    assert!(stdout.contains("bad-waiver"), "{stdout}");
}

#[test]
fn plain_run_includes_the_index_passes() {
    // No flag picks the passes: every run reports the fixture's
    // undeclared `SLM_BOGUS` read alongside the token rules' findings.
    let out = slm_lint(&["--root", &fixture_root()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let knob = stdout
        .lines()
        .find(|l| l.contains("knob-undeclared"))
        .unwrap_or_else(|| panic!("no knob-undeclared finding:\n{stdout}"));
    assert!(knob.starts_with("src/lib.rs:80:"), "{knob}");
    assert!(knob.contains("SLM_BOGUS"), "{knob}");
    assert!(
        stdout.contains("passes: determinism:0 keys:"),
        "every pass must report its count:\n{stdout}"
    );
}

#[test]
fn real_workspace_is_clean_post_burn_down() {
    // The PR's acceptance bar: the checked-in allowlist exactly covers
    // the remaining findings, so the workspace lints clean.
    let out = slm_lint(&["--root", &repo_root()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = slm_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_lists_only_root_and_update_allowlist() {
    let out = slm_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let flags: Vec<&str> = stdout
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| w.starts_with("--"))
        .collect();
    assert_eq!(flags, ["--root", "--update-allowlist"], "{stdout}");
}

#[test]
fn pass_and_format_flags_are_usage_errors() {
    for flag in [
        "--json",
        "--json-out",
        "--shapes",
        "--shapes-only",
        "--miswire",
        "--keys",
        "--knobs",
        "--protocol",
        "--determinism",
        "--semantic",
    ] {
        let out = slm_lint(&["--root", &fixture_root(), flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}
