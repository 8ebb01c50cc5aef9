//! Item-level semantic index built on the token lexer.
//!
//! [`FileIndex`] records, per source file, the facts the semantic passes
//! need with file:line provenance: function items (with the
//! accumulator/loop shape facts the determinism heuristics consume),
//! enum declarations with their variants, `A::B` path references, and
//! every string literal together with the call site it is an argument
//! of (so `tele.inc("net.retries")`, `env::var("SLM_THREADS")` and
//! `tele.observe(&format!("{name}.host_s"), v)` are distinguishable
//! from documentation strings that merely *look* like keys).
//!
//! The index deliberately stays token-level: it never resolves types or
//! imports. Every consumer pass is written so that the failure mode of
//! that imprecision is a *missed* harvest (an unlisted key), which the
//! registry cross-checks then surface as drift — never a false claim
//! about code that does not exist.

use crate::lexer::{self, Tok, TokKind};
use crate::rules::{is_ident, is_punct, matching_bracket, test_region_mask};
use crate::workspace::TargetKind;

/// The call expression a string literal is an argument of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Identifier immediately before the opening `(`.
    pub callee: String,
    /// Identifier before a `::` preceding the callee (`env` in
    /// `env::var(..)`), when present.
    pub qualifier: Option<String>,
    /// `true` when a `!` sits between the callee and the `(`.
    pub is_macro: bool,
    /// `true` when a `.` precedes the callee (method call).
    pub method: bool,
    /// `true` when no top-level `,` separates the `(` from the literal
    /// (the literal is part of the first argument).
    pub first_arg: bool,
}

/// One string literal with provenance and call context.
#[derive(Debug, Clone)]
pub struct StrRef {
    /// Literal body (delimiters stripped).
    pub text: String,
    /// 1-based line / column of the opening delimiter.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Byte string (`b"…"` / `br"…"`).
    pub byte: bool,
    /// Inside a `#[cfg(test)]` item or `mod tests` block.
    pub in_test: bool,
    /// Innermost call the literal is an argument of.
    pub call: Option<CallSite>,
    /// The call enclosing that one (for `method(&format!("…"), ..)`).
    pub outer_call: Option<CallSite>,
}

/// A `for` loop header inside a function.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// First identifier after `for` (the loop binder, or its first
    /// component for tuple patterns).
    pub binder: String,
    /// `true` when the iterator expression calls `.rev()`.
    pub rev: bool,
    /// 1-based line of the `for` keyword.
    pub line: u32,
    /// 1-based column of the `for` keyword.
    pub col: u32,
}

/// One `fn` item with the shape facts the determinism pass consumes.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a test region.
    pub in_test: bool,
    /// `let mut <ident>` bindings whose name starts with `acc`/`sum`
    /// (accumulator-shaped), with the binding line/col.
    pub accumulators: Vec<(String, u32, u32)>,
    /// `a + b` identifier pairs seen in the body (both operands plain
    /// identifiers), with the `+` position.
    pub add_pairs: Vec<(String, String, u32, u32)>,
    /// `for` loop headers in the body.
    pub loops: Vec<ForLoop>,
    /// Calls whose callee name looks like a fused-multiply or
    /// lane-reduction SIMD intrinsic (see [`FUSED_PATTERNS`] /
    /// [`REDUCE_PATTERNS`]), with the call position.
    pub intrinsics: Vec<(String, u32, u32)>,
}

/// Callee-name fragments of fused multiply-add/-sub intrinsics
/// (`_mm*_fmadd_*`, `vfmaq_*`, …): fusing rounds once where the scalar
/// reference rounds twice, so these break bitwise backend equality.
pub const FUSED_PATTERNS: [&str; 4] = ["fmadd", "fmsub", "vfma", "vfms"];

/// Callee-name fragments of horizontal/lane-reduction intrinsics
/// (`_mm*_hadd_*`, `vaddvq_*`, `_mm512_reduce_add_*`, …): cross-lane
/// sums reassociate the reduction, breaking ascending-`k` order.
pub const REDUCE_PATTERNS: [&str; 3] = ["hadd", "addv", "reduce_add"];

/// An `enum` declaration with its variants.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variant names with their lines.
    pub variants: Vec<(String, u32)>,
}

/// One `Head::Tail` path reference.
#[derive(Debug, Clone)]
pub struct PathRef {
    /// Segment before the `::`.
    pub head: String,
    /// Segment after the `::`.
    pub tail: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the head (for span containment tests).
    pub tok: usize,
    /// Inside a test region.
    pub in_test: bool,
}

/// A `const` item whose initializer is an array/slice, with the
/// `A::B` paths the initializer references (the protocol pass checks
/// `MsgType::ALL` completeness through this).
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// Const name.
    pub name: String,
    /// 1-based line of the `const` keyword.
    pub line: u32,
    /// `Head::Tail` references inside the initializer brackets.
    pub refs: Vec<(String, String)>,
}

/// The semantic index of one source file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Target classification of the file.
    pub target: TargetKind,
    /// All string literals with call context.
    pub strings: Vec<StrRef>,
    /// All `fn` items.
    pub fns: Vec<FnItem>,
    /// All `enum` items.
    pub enums: Vec<EnumItem>,
    /// All `A::B` path references.
    pub path_refs: Vec<PathRef>,
    /// Array-initialized `const` items.
    pub consts: Vec<ConstItem>,
}

/// Builds the [`FileIndex`] for one file's source text.
pub fn index_file(src: &str, path: &str, crate_name: &str, target: TargetKind) -> FileIndex {
    let out = lexer::lex(src);
    let toks = &out.tokens;
    let in_test = test_region_mask(toks);

    FileIndex {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        target,
        strings: index_strings(toks, &out.strings, &in_test),
        fns: index_fns(toks, &in_test),
        enums: index_enums(toks),
        path_refs: index_path_refs(toks, &in_test),
        consts: index_consts(toks),
    }
}

/// A paren frame on the call-nesting stack.
struct Frame {
    /// Token index of the opening `(`.
    open: usize,
    /// A top-level `,` has been seen inside this frame.
    comma_seen: bool,
}

fn index_strings(toks: &[Tok], lits: &[lexer::StrLit], in_test: &[bool]) -> Vec<StrRef> {
    // Str tokens and StrLits are pushed pairwise by the lexer, so the
    // n-th Str token corresponds to the n-th literal.
    let mut out = Vec::new();
    let mut lit_iter = lits.iter();
    let mut parens: Vec<Frame> = Vec::new();
    // Square/curly brackets nested inside the innermost paren also
    // shield commas (`f([a, b])` is one argument); track a shield depth
    // per paren frame by counting on the frame itself.
    let mut shield: Vec<u32> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    parens.push(Frame {
                        open: i,
                        comma_seen: false,
                    });
                    shield.push(0);
                }
                ")" => {
                    parens.pop();
                    shield.pop();
                }
                "[" | "{" => {
                    if let Some(s) = shield.last_mut() {
                        *s += 1;
                    }
                }
                "]" | "}" => {
                    if let Some(s) = shield.last_mut() {
                        *s = s.saturating_sub(1);
                    }
                }
                "," if shield.last().copied() == Some(0) => {
                    if let Some(f) = parens.last_mut() {
                        f.comma_seen = true;
                    }
                }
                _ => {}
            },
            TokKind::Str => {
                let lit = lit_iter.next();
                let call = parens
                    .last()
                    .map(|f| call_site(toks, f.open, !f.comma_seen));
                let outer_call = parens.len().checked_sub(2).map(|k| {
                    let f = &parens[k];
                    call_site(toks, f.open, !f.comma_seen)
                });
                let (text, byte) = match lit {
                    Some(l) => (l.text.clone(), l.byte),
                    None => (String::new(), false),
                };
                out.push(StrRef {
                    text,
                    byte,
                    line: t.line,
                    col: t.col,
                    in_test: in_test.get(i).copied().unwrap_or(false),
                    call: call.flatten(),
                    outer_call: outer_call.flatten(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Extracts the call expression owning the paren at `open`, if the
/// token before it names one.
fn call_site(toks: &[Tok], open: usize, first_arg: bool) -> Option<CallSite> {
    let mut j = open.checked_sub(1)?;
    let is_macro = is_punct(toks, j, "!");
    if is_macro {
        j = j.checked_sub(1)?;
    }
    let callee = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
    let method = j >= 1 && is_punct(toks, j - 1, ".");
    // Qualifier: the path segment (`env::var`) or method receiver
    // (`histograms.get`) immediately before the callee.
    let qualifier = if j >= 2
        && (is_punct(toks, j - 1, "::") || is_punct(toks, j - 1, "."))
        && toks[j - 2].kind == TokKind::Ident
    {
        Some(toks[j - 2].text.clone())
    } else {
        None
    };
    Some(CallSite {
        callee: callee.text.clone(),
        qualifier,
        is_macro,
        method,
        first_arg,
    })
}

fn index_fns(toks: &[Tok], in_test: &[bool]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(toks, i, "fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Body: first `{` before a terminating `;` (trait method
            // declarations have none). Bracket groups are skipped whole
            // so array types like `[f32; 4]` don't read as terminators.
            let mut j = i + 2;
            let mut body: Option<(usize, usize)> = None;
            while j < toks.len() {
                if is_punct(toks, j, "[") {
                    j = matching_bracket(toks, j, "[", "]").map_or(toks.len(), |c| c + 1);
                    continue;
                }
                if is_punct(toks, j, ";") {
                    break;
                }
                if is_punct(toks, j, "{") {
                    let close = matching_bracket(toks, j, "{", "}").unwrap_or(toks.len() - 1);
                    body = Some((j, close));
                    break;
                }
                j += 1;
            }
            let Some((open, close)) = body else {
                i += 2;
                continue;
            };
            out.push(FnItem {
                name,
                line,
                in_test: in_test.get(i).copied().unwrap_or(false),
                accumulators: scan_accumulators(toks, open, close),
                add_pairs: scan_add_pairs(toks, open, close),
                loops: scan_loops(toks, open, close),
                intrinsics: scan_intrinsics(toks, open, close),
            });
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// `let mut <ident>` bindings named like accumulators.
fn scan_accumulators(toks: &[Tok], open: usize, close: usize) -> Vec<(String, u32, u32)> {
    let mut out = Vec::new();
    for j in open..close {
        if is_ident(toks, j, "let") && is_ident(toks, j + 1, "mut") {
            if let Some(t) = toks.get(j + 2) {
                if t.kind == TokKind::Ident
                    && (t.text.starts_with("acc") || t.text.starts_with("sum"))
                {
                    out.push((t.text.clone(), t.line, t.col));
                }
            }
        }
    }
    out
}

/// `a + b` with both operands plain identifiers (not `+=`, not paths).
fn scan_add_pairs(toks: &[Tok], open: usize, close: usize) -> Vec<(String, String, u32, u32)> {
    let mut out = Vec::new();
    for j in open + 1..close {
        if !is_punct(toks, j, "+") {
            continue;
        }
        let (Some(a), Some(b)) = (toks.get(j - 1), toks.get(j + 1)) else {
            continue;
        };
        if a.kind != TokKind::Ident || b.kind != TokKind::Ident {
            continue;
        }
        // `a += b` lexes as `+` `=`; skip compound assignment.
        if is_punct(toks, j + 1, "=") {
            continue;
        }
        // Skip path segments (`A::b + x` is fine, but `a + B::c` has an
        // ident-adjacent `::` that changes the operand).
        if j >= 2 && is_punct(toks, j - 2, "::") {
            continue;
        }
        if is_punct(toks, j + 2, "::") {
            continue;
        }
        out.push((a.text.clone(), b.text.clone(), toks[j].line, toks[j].col));
    }
    out
}

/// `for <binder> in <iter-expr> {` headers, noting `.rev()` calls.
fn scan_loops(toks: &[Tok], open: usize, close: usize) -> Vec<ForLoop> {
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        if !is_ident(toks, j, "for") {
            j += 1;
            continue;
        }
        let line = toks[j].line;
        let col = toks[j].col;
        // Binder: first ident after `for` (handles `(i, x)` patterns).
        let mut k = j + 1;
        let mut binder = String::new();
        while k < close && k < j + 8 {
            if toks[k].kind == TokKind::Ident {
                if toks[k].text == "in" {
                    break;
                }
                if binder.is_empty() {
                    binder = toks[k].text.clone();
                }
            }
            k += 1;
        }
        // Header: up to the body `{` at bracket depth 0.
        let mut depth = 0i32;
        let mut rev = false;
        while k < close {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident && t.text == "rev" && is_punct(toks, k - 1, ".") {
                rev = true;
            }
            k += 1;
        }
        if !binder.is_empty() {
            out.push(ForLoop {
                binder,
                rev,
                line,
                col,
            });
        }
        j = k + 1;
    }
    out
}

/// Calls (ident directly followed by `(`, excluding `fn` definitions)
/// whose callee name contains a fused-multiply or lane-reduction
/// intrinsic fragment.
fn scan_intrinsics(toks: &[Tok], open: usize, close: usize) -> Vec<(String, u32, u32)> {
    let mut out = Vec::new();
    for j in open..close {
        let t = &toks[j];
        if t.kind != TokKind::Ident || !is_punct(toks, j + 1, "(") {
            continue;
        }
        if j >= 1 && is_ident(toks, j - 1, "fn") {
            continue;
        }
        let name = t.text.as_str();
        if FUSED_PATTERNS
            .iter()
            .chain(REDUCE_PATTERNS.iter())
            .any(|p| name.contains(p))
        {
            out.push((t.text.clone(), t.line, t.col));
        }
    }
    out
}

fn index_enums(toks: &[Tok]) -> Vec<EnumItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !is_ident(toks, i, "enum") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Find the body `{` (skipping generics).
        let mut j = i + 2;
        while j < toks.len() && !is_punct(toks, j, "{") {
            if is_punct(toks, j, ";") {
                break;
            }
            j += 1;
        }
        if !is_punct(toks, j, "{") {
            i += 2;
            continue;
        }
        let close = matching_bracket(toks, j, "{", "}").unwrap_or(toks.len() - 1);
        let mut variants = Vec::new();
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < close {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 && t.kind == TokKind::Ident {
                // A variant name follows the open brace, a comma, or the
                // `]` closing an attribute.
                let prev = &toks[k - 1];
                let starts =
                    prev.kind == TokKind::Punct && matches!(prev.text.as_str(), "{" | "," | "]");
                if starts {
                    variants.push((t.text.clone(), t.line));
                }
            }
            k += 1;
        }
        out.push(EnumItem {
            name,
            line,
            variants,
        });
        i = close + 1;
    }
    out
}

/// `const NAME: [T; N] = [ … ];` — array-initialized consts with the
/// `A::B` paths referenced in the value brackets.
fn index_consts(toks: &[Tok]) -> Vec<ConstItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !is_ident(toks, i, "const") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Find `=` before the terminating `;`, then an array `[`. The
        // type annotation may itself be a bracket group with a `;`
        // inside (`[MsgType; 10]`), so bracket groups are skipped
        // whole.
        let mut j = i + 2;
        let mut eq = None;
        while j < toks.len() && !is_punct(toks, j, ";") {
            if is_punct(toks, j, "=") {
                eq = Some(j);
                break;
            }
            if is_punct(toks, j, "[") {
                j = matching_bracket(toks, j, "[", "]").map_or(toks.len(), |c| c + 1);
                continue;
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i += 2;
            continue;
        };
        if !is_punct(toks, eq + 1, "[") {
            i = eq + 1;
            continue;
        }
        let close = matching_bracket(toks, eq + 1, "[", "]").unwrap_or(toks.len() - 1);
        let mut refs = Vec::new();
        for k in eq + 2..close {
            if toks[k].kind == TokKind::Ident
                && is_punct(toks, k + 1, "::")
                && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                refs.push((toks[k].text.clone(), toks[k + 2].text.clone()));
            }
        }
        out.push(ConstItem { name, line, refs });
        i = close + 1;
    }
    out
}

fn index_path_refs(toks: &[Tok], in_test: &[bool]) -> Vec<PathRef> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind == TokKind::Ident
            && is_punct(toks, i + 1, "::")
            && toks[i + 2].kind == TokKind::Ident
        {
            out.push(PathRef {
                head: toks[i].text.clone(),
                tail: toks[i + 2].text.clone(),
                line: toks[i].line,
                tok: i,
                in_test: in_test.get(i).copied().unwrap_or(false),
            });
        }
    }
    out
}

/// The `determinism` pass: token-level heuristics guarding the bitwise
/// contract (one accumulator per output element, ascending-k loops) in
/// the configured kernel crates:
///
/// - `det-split-acc` — a function declares two distinct
///   accumulator-named `let mut` bindings (`acc*`/`sum*`) and combines
///   them with `a + b`: the split-accumulator reduction shape whose
///   result depends on the partition (and therefore the thread count).
/// - `det-rev-k` — a `for` loop whose binder is `k`-named iterates
///   `.rev()`: non-ascending reduction order breaks bitwise equality
///   with the serial kernels.
/// - `det-fused-madd` — a call to a fused multiply-add/-sub intrinsic
///   ([`FUSED_PATTERNS`]): FMA rounds the product and sum once, where
///   the scalar reference rounds twice, so fused kernels cannot be
///   bitwise-equal to the scalar backend.
/// - `det-lane-reduce` — a call to a horizontal/lane-reduction
///   intrinsic ([`REDUCE_PATTERNS`]): cross-lane adds reassociate the
///   sum; SIMD lanes must map to *distinct output elements* instead.
pub fn check_determinism(
    files: &[FileIndex],
    kernel_crates: &std::collections::BTreeSet<String>,
) -> Vec<crate::Finding> {
    let mut out = Vec::new();
    for f in files {
        if !kernel_crates.contains(&f.crate_name) || f.target != TargetKind::Lib {
            continue;
        }
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            let acc_names: Vec<&str> = item
                .accumulators
                .iter()
                .map(|(n, _, _)| n.as_str())
                .collect();
            if acc_names.len() >= 2 {
                for (a, b, line, col) in &item.add_pairs {
                    if a != b && acc_names.contains(&a.as_str()) && acc_names.contains(&b.as_str())
                    {
                        out.push(crate::Finding {
                            rule: "det-split-acc".to_string(),
                            file: f.path.clone(),
                            line: *line,
                            col: *col,
                            message: format!(
                                "fn {} combines split accumulators '{a} + {b}': one accumulator per output element keeps kernels bitwise-stable across thread counts",
                                item.name
                            ),
                        });
                    }
                }
            }
            for (name, line, col) in &item.intrinsics {
                let fused = FUSED_PATTERNS.iter().any(|p| name.contains(p));
                let (rule, why) = if fused {
                    (
                        "det-fused-madd",
                        "a fused multiply-add rounds once where the scalar \
                         reference rounds twice",
                    )
                } else {
                    (
                        "det-lane-reduce",
                        "a horizontal lane reduction reassociates the sum; \
                         lanes must map to distinct output elements",
                    )
                };
                out.push(crate::Finding {
                    rule: rule.to_string(),
                    file: f.path.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "fn {} calls `{name}`: {why}, breaking bitwise equality \
                         across backends",
                        item.name
                    ),
                });
            }
            for lp in &item.loops {
                if lp.rev && lp.binder.starts_with('k') {
                    out.push(crate::Finding {
                        rule: "det-rev-k".to_string(),
                        file: f.path.clone(),
                        line: lp.line,
                        col: lp.col,
                        message: format!(
                            "fn {} iterates reduction index '{}' in reverse: kernels must accumulate in ascending k order",
                            item.name, lp.binder
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(src: &str) -> FileIndex {
        index_file(src, "x.rs", "test-crate", TargetKind::Lib)
    }

    #[test]
    fn publish_call_context_is_extracted() {
        let f = idx("fn f(tele: &mut T) { tele.inc(\"net.retries\"); }");
        let s = &f.strings[0];
        assert_eq!(s.text, "net.retries");
        let c = s.call.as_ref().unwrap();
        assert_eq!(c.callee, "inc");
        assert!(c.method);
        assert!(c.first_arg);
        assert!(!c.is_macro);
    }

    #[test]
    fn format_macro_nesting_reaches_the_outer_call() {
        let f = idx("fn f() { tele.observe(&format!(\"{name}.host_s\"), v); }");
        let s = &f.strings[0];
        let c = s.call.as_ref().unwrap();
        assert_eq!(c.callee, "format");
        assert!(c.is_macro);
        let o = s.outer_call.as_ref().unwrap();
        assert_eq!(o.callee, "observe");
        assert!(o.method);
        assert!(o.first_arg, "format! is part of the first argument");
    }

    #[test]
    fn second_argument_literals_are_not_first_arg() {
        let f = idx("fn f() { warn(\"a.b\", \"c.d\"); g([1, 2], \"e.f\"); }");
        assert!(f.strings[0].call.as_ref().unwrap().first_arg);
        assert!(!f.strings[1].call.as_ref().unwrap().first_arg);
        // The comma inside `[1, 2]` is shielded; the one after `]` isn't.
        assert!(!f.strings[2].call.as_ref().unwrap().first_arg);
    }

    #[test]
    fn env_var_reads_carry_their_qualifier() {
        let f = idx("fn f() { std::env::var(\"SLM_THREADS\").ok(); }");
        let c = f.strings[0].call.as_ref().unwrap();
        assert_eq!(c.callee, "var");
        assert_eq!(c.qualifier.as_deref(), Some("env"));
    }

    #[test]
    fn test_region_strings_are_masked() {
        let src = "fn f() { t.inc(\"real.key\"); }\n#[cfg(test)]\nmod tests { fn g() { t.inc(\"fake.key\"); } }";
        let f = idx(src);
        assert!(!f.strings[0].in_test);
        assert!(f.strings[1].in_test);
    }

    #[test]
    fn plain_literals_have_no_call_context() {
        let f = idx("const K: &str = \"not.a.call\";");
        assert!(f.strings[0].call.is_none());
    }

    #[test]
    fn multiline_doc_string_is_one_uncalled_literal() {
        // Key- and knob-shaped text inside a plain string assignment
        // must not look like a harvestable call argument.
        let f =
            idx("fn f() { let doc = \"SLM_THREADS controls\ntrain.loss sampling\"; use_(doc); }");
        assert_eq!(f.strings.len(), 1);
        assert!(f.strings[0].call.is_none());
        assert!(f.strings[0].text.contains("SLM_THREADS"));
    }

    #[test]
    fn enums_list_their_variants() {
        let src = "#[repr(u8)]\npub enum Msg {\n  Hello = 1,\n  #[allow(dead_code)]\n  Data(u32),\n  Done { code: u8 },\n}";
        let f = idx(src);
        assert_eq!(f.enums.len(), 1);
        let e = &f.enums[0];
        assert_eq!(e.name, "Msg");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Hello", "Data", "Done"]);
        assert_eq!(e.variants[0].1, 3);
    }

    #[test]
    fn fn_shape_facts_for_determinism() {
        let src = "fn split(xs: &[f32]) -> f32 {\n  let mut acc_lo = 0.0;\n  let mut acc_hi = 0.0;\n  for k in (0..4).rev() { acc_lo += xs[k]; }\n  acc_lo + acc_hi\n}";
        let f = idx(src);
        let fi = &f.fns[0];
        assert_eq!(fi.name, "split");
        assert_eq!(fi.accumulators.len(), 2);
        assert_eq!(fi.add_pairs.len(), 1);
        assert_eq!(fi.add_pairs[0].0, "acc_lo");
        assert_eq!(fi.add_pairs[0].1, "acc_hi");
        assert_eq!(fi.loops.len(), 1);
        assert!(fi.loops[0].rev);
        assert_eq!(fi.loops[0].binder, "k");
    }

    #[test]
    fn compound_assignment_is_not_an_add_pair() {
        let f = idx("fn f() { let mut acc = 0.0; acc += x; let y = a + b; }");
        let fi = &f.fns[0];
        assert_eq!(fi.add_pairs.len(), 1);
        assert_eq!(fi.add_pairs[0].0, "a");
    }

    #[test]
    fn path_refs_capture_enum_uses() {
        let f = idx("fn f(m: MsgType) { match m { MsgType::Hello => {} MsgType::Nack => {} } }");
        let tails: Vec<&str> = f
            .path_refs
            .iter()
            .filter(|p| p.head == "MsgType")
            .map(|p| p.tail.as_str())
            .collect();
        assert_eq!(tails, vec!["Hello", "Nack"]);
    }

    #[test]
    fn byte_strings_are_flagged() {
        let f = idx("fn f() { t.inc(b\"raw.bytes\"); }");
        assert!(f.strings[0].byte);
    }

    #[test]
    fn array_consts_record_their_path_refs() {
        let f = idx("impl M { pub const ALL: [M; 2] = [M::A, M::B]; }\nconst N: usize = 3;");
        assert_eq!(f.consts.len(), 1);
        assert_eq!(f.consts[0].name, "ALL");
        assert_eq!(
            f.consts[0].refs,
            vec![
                ("M".to_string(), "A".to_string()),
                ("M".to_string(), "B".to_string())
            ]
        );
    }

    fn det(src: &str) -> Vec<crate::Finding> {
        let files = vec![index_file(
            src,
            "crates/t/src/k.rs",
            "sl-tensor",
            TargetKind::Lib,
        )];
        let crates: std::collections::BTreeSet<String> = ["sl-tensor".to_string()].into();
        check_determinism(&files, &crates)
    }

    #[test]
    fn split_accumulator_and_rev_k_are_flagged() {
        let src = "pub fn dot(a: &[f32], b: &[f32]) -> f32 {\n  let mut acc_lo = 0.0f32;\n  let mut acc_hi = 0.0f32;\n  for k in 0..a.len()/2 { acc_lo += a[k]*b[k]; }\n  for k in (a.len()/2..a.len()).rev() { acc_hi += a[k]*b[k]; }\n  acc_lo + acc_hi\n}";
        let findings = det(src);
        let rules: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert!(rules.contains(&("det-split-acc", 6)), "{findings:?}");
        assert!(rules.contains(&("det-rev-k", 5)), "{findings:?}");
    }

    #[test]
    fn single_accumulator_array_kernels_stay_clean() {
        // A register-tile micro-kernel shape: one `acc` array, ascending
        // k, per-output-element slots — no findings.
        let src = "pub fn micro(a: &[f32], b: &[f32], c: &mut [f32]) {\n  let mut acc = [0.0f32; 4];\n  for k in 0..a.len() { for j in 0..4 { acc[j] += a[k] * b[k * 4 + j]; } }\n  for j in 0..4 { c[j] = acc[j]; }\n}";
        assert!(det(src).is_empty(), "{:?}", det(src));
    }

    #[test]
    fn fused_and_reducing_intrinsics_are_flagged() {
        let src = "pub fn fused(a: V, b: V, c: V) -> V {\n  _mm256_fmadd_ps(a, b, c)\n}\n\
                   pub fn reduce(v: V) -> f32 {\n  vaddvq_f32(v)\n}";
        let findings = det(src);
        let pins: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(
            pins,
            vec![("det-fused-madd", 2), ("det-lane-reduce", 5)],
            "{findings:?}"
        );
        assert!(findings[0].message.contains("_mm256_fmadd_ps"));
    }

    #[test]
    fn plain_simd_adds_and_defs_are_not_intrinsic_findings() {
        // The sanctioned kernel idiom — separate mul/add, per-element
        // lanes — plus a *definition* whose name merely looks fused.
        let src = "pub fn kernel(a: V, b: V, acc: V) -> V {\n  _mm256_add_ps(acc, _mm256_mul_ps(a, b))\n}\n\
                   fn my_fmadd_helper(x: f32) -> f32 { x }";
        assert!(det(src).is_empty(), "{:?}", det(src));
    }

    #[test]
    fn non_k_rev_loops_and_test_fns_are_exempt() {
        let src = "pub fn strides(dims: &[usize]) {\n  for i in (0..dims.len()-1).rev() { let _ = i; }\n}\n#[cfg(test)]\nmod tests {\n  fn t() { let mut acc_a = 0.0; let mut acc_b = 0.0; let s = acc_a + acc_b; }\n}";
        assert!(det(src).is_empty());
    }
}
