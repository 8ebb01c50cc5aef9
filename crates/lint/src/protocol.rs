//! The `protocol` pass: static wire-protocol coverage.
//!
//! Proves, offline, that every `MsgType` variant is (a) decodable —
//! referenced inside the decode function in the wire module, (b)
//! handled by every configured handler group (server, client), and (c)
//! enumerated in the `MsgType::ALL` annotation the protocol model
//! checker and round-trip tests iterate. A variant that exists but is
//! missing an arm is exactly the drift the multi-UE and
//! pipeline-parallel rewrites would introduce silently.
//!
//! Findings anchor at the variant's declaration line so the fix site
//! (add the arm, or delete the variant) is one click away.

use crate::index::FileIndex;
use crate::Finding;

/// Where the protocol's enum, decode fn and handler arms live.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Path suffix of the file declaring the enum (and the decode fn).
    pub enum_file: String,
    /// Enum name (`MsgType`).
    pub enum_name: String,
    /// Decode function name (`from_u8`).
    pub decode_fn: String,
    /// Handler groups: name → path suffixes whose union must reference
    /// every variant.
    pub groups: Vec<(String, Vec<String>)>,
}

impl ProtocolSpec {
    /// The workspace's sl-net wire protocol.
    pub fn workspace_default() -> Self {
        ProtocolSpec {
            enum_file: "crates/net/src/wire.rs".to_string(),
            enum_name: "MsgType".to_string(),
            decode_fn: "from_u8".to_string(),
            groups: vec![
                (
                    "server".to_string(),
                    vec!["crates/net/src/server.rs".to_string()],
                ),
                (
                    // The UE side touches RfSamples/Activations through
                    // `Request::msg_type()` in wire.rs, so the client
                    // group is the union of both files.
                    "client".to_string(),
                    vec![
                        "crates/net/src/client.rs".to_string(),
                        "crates/net/src/wire.rs".to_string(),
                    ],
                ),
            ],
        }
    }
}

/// Runs the protocol coverage check over an indexed workspace.
pub fn check_protocol(files: &[FileIndex], spec: &ProtocolSpec) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(wire) = files.iter().find(|f| f.path.ends_with(&spec.enum_file)) else {
        out.push(Finding {
            rule: "protocol-spec".to_string(),
            file: spec.enum_file.clone(),
            line: 0,
            col: 0,
            message: format!(
                "protocol enum file '{}' not found in workspace",
                spec.enum_file
            ),
        });
        return out;
    };
    let Some(en) = wire.enums.iter().find(|e| e.name == spec.enum_name) else {
        out.push(Finding {
            rule: "protocol-spec".to_string(),
            file: wire.path.clone(),
            line: 0,
            col: 0,
            message: format!("enum '{}' not found in '{}'", spec.enum_name, wire.path),
        });
        return out;
    };

    // (a) Decode arms: `EnumName::Variant` refs inside the decode fn's
    // token span. FnItem does not retain spans, so locate the fn
    // directly in path_refs by line window: find the decode fn line
    // range from the fns list.
    let decode_refs = decode_variant_refs(wire, spec);
    for (variant, line) in &en.variants {
        if !decode_refs.contains(variant) {
            out.push(Finding {
                rule: "protocol-decode".to_string(),
                file: wire.path.clone(),
                line: *line,
                col: 0,
                message: format!(
                    "{}::{variant} has no decode arm in {}::{}",
                    spec.enum_name, spec.enum_file, spec.decode_fn
                ),
            });
        }
    }

    // (b) Handler groups.
    for (group, suffixes) in &spec.groups {
        let mut handled: Vec<&str> = Vec::new();
        for f in files {
            if !suffixes.iter().any(|s| f.path.ends_with(s.as_str())) {
                continue;
            }
            for p in &f.path_refs {
                if !p.in_test && p.head == spec.enum_name {
                    handled.push(p.tail.as_str());
                }
            }
        }
        for (variant, line) in &en.variants {
            if !handled.iter().any(|h| h == variant) {
                out.push(Finding {
                    rule: "protocol-handler".to_string(),
                    file: wire.path.clone(),
                    line: *line,
                    col: 0,
                    message: format!(
                        "{}::{variant} has no handler arm in group '{group}' ({})",
                        spec.enum_name,
                        suffixes.join(", ")
                    ),
                });
            }
        }
    }

    // (c) The ALL annotation.
    match all_const_refs(wire, spec) {
        None => out.push(Finding {
            rule: "protocol-annotation".to_string(),
            file: wire.path.clone(),
            line: en.line,
            col: 0,
            message: format!(
                "enum {} lacks a `const ALL` annotation enumerating every variant",
                spec.enum_name
            ),
        }),
        Some(all) => {
            for (variant, line) in &en.variants {
                if !all.contains(variant) {
                    out.push(Finding {
                        rule: "protocol-annotation".to_string(),
                        file: wire.path.clone(),
                        line: *line,
                        col: 0,
                        message: format!(
                            "{}::{variant} is missing from {}::ALL",
                            spec.enum_name, spec.enum_name
                        ),
                    });
                }
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

/// Variants referenced as `Enum::Variant` inside the decode fn. The
/// index keeps fn body facts but not token spans, so this re-lexes the
/// path refs by line window: from the decode fn's `fn` line to the next
/// fn's line (or EOF).
fn decode_variant_refs(wire: &FileIndex, spec: &ProtocolSpec) -> Vec<String> {
    let mut fn_lines: Vec<(u32, &str)> =
        wire.fns.iter().map(|f| (f.line, f.name.as_str())).collect();
    fn_lines.sort_unstable();
    let Some(pos) = fn_lines.iter().position(|(_, n)| *n == spec.decode_fn) else {
        return Vec::new();
    };
    let start = fn_lines[pos].0;
    let end = fn_lines.get(pos + 1).map(|(l, _)| *l).unwrap_or(u32::MAX);
    wire.path_refs
        .iter()
        .filter(|p| p.head == spec.enum_name && p.line >= start && p.line < end)
        .map(|p| p.tail.clone())
        .collect()
}

/// Variants listed in the `const ALL` initializer, when present.
fn all_const_refs(wire: &FileIndex, spec: &ProtocolSpec) -> Option<Vec<String>> {
    wire.consts.iter().find(|c| c.name == "ALL").map(|c| {
        c.refs
            .iter()
            .filter(|(head, _)| head == &spec.enum_name)
            .map(|(_, tail)| tail.clone())
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;
    use crate::workspace::TargetKind;

    fn wire_src(missing_decode: bool) -> String {
        let decode_c = if missing_decode {
            ""
        } else {
            "3 => Some(Msg::C),"
        };
        format!(
            "pub enum Msg {{ A = 1, B = 2, C = 3 }}\n\
             impl Msg {{\n\
               pub fn from_u8(v: u8) -> Option<Msg> {{\n\
                 match v {{ 1 => Some(Msg::A), 2 => Some(Msg::B), {decode_c} _ => None }}\n\
               }}\n\
             }}\n"
        )
    }

    fn spec() -> ProtocolSpec {
        ProtocolSpec {
            enum_file: "w/wire.rs".to_string(),
            enum_name: "Msg".to_string(),
            decode_fn: "from_u8".to_string(),
            groups: vec![("server".to_string(), vec!["w/server.rs".to_string()])],
        }
    }

    #[test]
    fn missing_decode_and_handler_arms_are_found() {
        let files = vec![
            index_file(&wire_src(true), "w/wire.rs", "w", TargetKind::Lib),
            index_file(
                "fn h(m: Msg) { match m { Msg::A => {} Msg::B => {} _ => {} } }",
                "w/server.rs",
                "w",
                TargetKind::Lib,
            ),
        ];
        let findings = check_protocol(&files, &spec());
        let rules: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        // Variant C (line 1) misses decode, handler and annotation.
        assert!(rules.contains(&("protocol-decode", 1)), "{findings:?}");
        assert!(rules.contains(&("protocol-handler", 1)), "{findings:?}");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "protocol-annotation" && f.message.contains("lacks")),
            "{findings:?}"
        );
    }

    #[test]
    fn full_coverage_still_requires_the_all_annotation() {
        let files = vec![
            index_file(&wire_src(false), "w/wire.rs", "w", TargetKind::Lib),
            index_file(
                "fn h(m: Msg) { match m { Msg::A => {} Msg::B => {} Msg::C => {} } }",
                "w/server.rs",
                "w",
                TargetKind::Lib,
            ),
        ];
        let findings = check_protocol(&files, &spec());
        assert!(
            findings.iter().all(|f| f.rule == "protocol-annotation"),
            "{findings:?}"
        );
    }

    #[test]
    fn test_only_handlers_do_not_count() {
        let files = vec![
            index_file(&wire_src(false), "w/wire.rs", "w", TargetKind::Lib),
            index_file(
                "fn h(m: Msg) { match m { Msg::A => {} Msg::B => {} _ => {} } }\n\
                 #[cfg(test)]\nmod tests { fn t() { let _ = Msg::C; } }",
                "w/server.rs",
                "w",
                TargetKind::Lib,
            ),
        ];
        let findings = check_protocol(&files, &spec());
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "protocol-handler" && f.message.contains("Msg::C")),
            "{findings:?}"
        );
    }
}
