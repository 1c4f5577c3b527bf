//! The named invariant rules and the per-file analysis that drives them.
//!
//! Each rule enforces one convention this repository established in prose
//! (see `docs/ARCHITECTURE.md` § *Invariants and enforcement* for the PR
//! that introduced each one).  Rules work on the token stream of
//! [`crate::lexer`], so nothing inside strings, comments or doc examples can
//! trip them, and every diagnostic carries a `file:line`.
//!
//! # Suppression
//!
//! A violation can be silenced per site with a comment — on the same line or
//! in the comment block directly above — of the form:
//!
//! ```text
//! // f3r-lint: allow(rule-name): reason why this site is exempt
//! ```
//!
//! The reason is mandatory: a suppression without one is itself reported
//! (`malformed-suppression`).  Suppressions are recorded in the JSON report
//! so exemptions stay auditable.

use std::collections::HashSet;

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Every `unsafe` block / fn / impl / trait carries a `// SAFETY:` comment
/// (or, for functions, a `# Safety` doc section) justifying it.
pub const RULE_UNSAFE: &str = "unsafe-needs-safety-comment";
/// No raw `as f16/f32/f64` float-to-float casts in the hot kernel modules:
/// conversions route through `Scalar::widen`/`narrow`/`FromScalar` so the
/// single-widening convention stays auditable in one place.
pub const RULE_FLOAT_CAST: &str = "no-raw-float-casts-in-kernels";
/// No `mul_add` in the element-wise update kernels: fused multiply-add
/// breaks the bitwise SIMD==scalar parity contract.
pub const RULE_MUL_ADD: &str = "no-mul-add-in-elementwise-kernels";
/// Every `#[target_feature(enable = …)]` function is `unsafe fn` and lives
/// in `f3r-simd`, behind the detected-backend dispatch.
pub const RULE_TARGET_FEATURE: &str = "target-feature-gate";
/// Every `Ordering::…` use in the `f3r-parallel` pool carries an
/// `// ordering:` justification comment.
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering-documented";
/// Parallel dispatch thresholds (`PAR_*`, `MIN_*_PER_TASK`) are defined only
/// in `f3r_parallel::thresholds`, the single home of the dispatch policy.
pub const RULE_PAR_THRESHOLDS: &str = "par-thresholds-single-home";
/// A `f3r-lint: allow(...)` comment that names no rule or gives no reason.
pub const RULE_MALFORMED_SUPPRESSION: &str = "malformed-suppression";

/// All rules with one-line descriptions (for reports and `--help`).
pub const RULES: &[(&str, &str)] = &[
    (RULE_UNSAFE, "every unsafe block/fn/impl carries a SAFETY justification"),
    (RULE_FLOAT_CAST, "no raw float-to-float `as` casts in hot kernel modules"),
    (RULE_MUL_ADD, "no mul_add in element-wise update kernels (bitwise parity)"),
    (RULE_TARGET_FEATURE, "#[target_feature] fns are unsafe and live in f3r-simd"),
    (RULE_ATOMIC_ORDERING, "every atomic Ordering in the pool and serve crates has an `ordering:` note"),
    (RULE_PAR_THRESHOLDS, "PAR_*/MIN_*_PER_TASK constants live in f3r_parallel::thresholds"),
    (RULE_MALFORMED_SUPPRESSION, "f3r-lint allow() comments must name rules and give a reason"),
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One suppressed (allowlisted) site, kept for the audit trail.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Rule that would have fired.
    pub rule: String,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the suppressed site.
    pub line: u32,
    /// The mandatory justification from the allow comment.
    pub reason: String,
}

/// Kind of an `unsafe` site, for the per-crate inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` block.
    Block,
    /// `unsafe fn` definition or trait-method declaration.
    Fn,
    /// `unsafe impl`.
    Impl,
    /// `unsafe trait`.
    Trait,
    /// `unsafe extern` block.
    Extern,
}

impl UnsafeKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::Trait => "trait",
            UnsafeKind::Extern => "extern",
        }
    }
}

/// One `unsafe` site found in a file (inventory entry).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// What the keyword introduces.
    pub kind: UnsafeKind,
    /// Whether a `SAFETY:` comment (or `# Safety` doc section) covers it.
    pub documented: bool,
}

/// Everything the checker produced for one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that survived suppression.
    pub violations: Vec<Violation>,
    /// Sites silenced by a well-formed allow comment.
    pub suppressed: Vec<Suppressed>,
    /// All `unsafe` sites (documented or not) for the inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Lex `source` and run every rule that applies to `rel_path`.
pub fn check_file(rel_path: &str, source: &str) -> FileOutcome {
    let lx = lex(source);
    let an = Analysis::new(rel_path, &lx);
    let mut out = FileOutcome::default();
    out.violations.extend(an.malformed.iter().cloned());

    rule_unsafe(&an, &mut out);
    rule_float_cast(&an, &mut out);
    rule_mul_add(&an, &mut out);
    rule_target_feature(&an, &mut out);
    rule_atomic_ordering(&an, &mut out);
    rule_par_thresholds(&an, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Per-file analysis scaffolding.
// ---------------------------------------------------------------------------

struct Suppression {
    rules: Vec<String>,
    reason: String,
    /// Lines the suppression covers (comment span through the first
    /// non-attribute code line below, so it reaches past attributes).
    lines: (u32, u32),
}

struct Analysis<'a> {
    path: &'a str,
    lx: &'a Lexed,
    /// Token indices that are part of a `#[…]` / `#![…]` attribute.
    attr_tok: Vec<bool>,
    /// Lines carrying at least one non-attribute code token.
    code_lines: HashSet<u32>,
    /// Lines carrying attribute tokens.
    attr_lines: HashSet<u32>,
    /// Lines covered by at least one comment.
    comment_lines: HashSet<u32>,
    /// Line ranges of `#[cfg(test)]`-gated items.
    test_ranges: Vec<(u32, u32)>,
    suppressions: Vec<Suppression>,
    malformed: Vec<Violation>,
}

impl<'a> Analysis<'a> {
    fn new(path: &'a str, lx: &'a Lexed) -> Self {
        let attr_tok = attribute_tokens(lx);
        let mut code_lines = HashSet::new();
        let mut attr_lines = HashSet::new();
        for (i, t) in lx.toks.iter().enumerate() {
            if attr_tok[i] {
                attr_lines.insert(t.line);
            } else {
                code_lines.insert(t.line);
            }
        }
        let mut comment_lines = HashSet::new();
        for c in &lx.comments {
            for l in c.line..=c.end_line {
                comment_lines.insert(l);
            }
        }
        let test_ranges = test_regions(lx, &attr_tok);
        let mut an = Analysis {
            path,
            lx,
            attr_tok,
            code_lines,
            attr_lines,
            comment_lines,
            test_ranges,
            suppressions: Vec::new(),
            malformed: Vec::new(),
        };
        an.collect_suppressions();
        an
    }

    fn collect_suppressions(&mut self) {
        let known: HashSet<&str> = RULES.iter().map(|(n, _)| *n).collect();
        for c in self.lx.comments.iter() {
            if c.doc {
                continue; // doc comments document the syntax; only plain
                          // comments act as suppressions
            }
            let Some(at) = c.text.find("f3r-lint:") else { continue };
            let rest = c.text[at + "f3r-lint:".len()..].trim_start();
            let parsed = parse_allow(rest);
            let (rules, reason) = match parsed {
                Some(v) => v,
                None => {
                    self.malformed.push(Violation {
                        rule: RULE_MALFORMED_SUPPRESSION,
                        file: self.path.to_string(),
                        line: c.line,
                        message: "malformed f3r-lint comment: expected \
                                  `f3r-lint: allow(rule-name): reason`"
                            .into(),
                    });
                    continue;
                }
            };
            for r in &rules {
                if !known.contains(r.as_str()) {
                    self.malformed.push(Violation {
                        rule: RULE_MALFORMED_SUPPRESSION,
                        file: self.path.to_string(),
                        line: c.line,
                        message: format!("f3r-lint allow() names unknown rule `{r}`"),
                    });
                }
            }
            // The suppression reaches from the comment to the first
            // non-attribute code line below it (attributes may sit between
            // the comment and the flagged construct).  A trailing comment on
            // a code line covers that line only.
            let end = if self.code_lines.contains(&c.line) {
                c.end_line
            } else {
                let mut e = c.end_line;
                for t in &self.lx.toks {
                    if t.line > c.end_line && self.code_lines.contains(&t.line) {
                        e = t.line;
                        break;
                    }
                }
                e
            };
            self.suppressions.push(Suppression { rules, reason, lines: (c.line, end) });
        }
    }

    /// If a suppression for `rule` covers `line`, record it and return true.
    fn suppressed(&self, rule: &'static str, line: u32, out: &mut FileOutcome) -> bool {
        for s in &self.suppressions {
            if line >= s.lines.0 && line <= s.lines.1 && s.rules.iter().any(|r| r == rule) {
                out.suppressed.push(Suppressed {
                    rule: rule.to_string(),
                    file: self.path.to_string(),
                    line,
                    reason: s.reason.clone(),
                });
                return true;
            }
        }
        false
    }

    fn report(&self, rule: &'static str, line: u32, message: String, out: &mut FileOutcome) {
        if !self.suppressed(rule, line, out) {
            out.violations.push(Violation { rule, file: self.path.to_string(), line, message });
        }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Is there a comment matching `pred` on `line` or in the contiguous
    /// comment/attribute block directly above it?  Blank lines and
    /// non-attribute code break the search, mirroring clippy's
    /// `undocumented_unsafe_blocks` placement rules.
    fn marker_above(&self, line: u32, pred: impl Fn(&Comment) -> bool) -> bool {
        if self.lx.comments_on_line(line).any(&pred) {
            return true;
        }
        let mut k = line.saturating_sub(1);
        while k >= 1 {
            if self.code_lines.contains(&k) {
                return false;
            }
            if self.lx.comments_on_line(k).any(&pred) {
                return true;
            }
            if !self.comment_lines.contains(&k) && !self.attr_lines.contains(&k) {
                return false; // blank line
            }
            k -= 1;
        }
        false
    }

    /// Previous / next non-attribute code token relative to index `i`.
    fn prev_code(&self, i: usize) -> Option<&Tok> {
        (0..i).rev().find(|&j| !self.attr_tok[j]).map(|j| &self.lx.toks[j])
    }

    fn next_code(&self, i: usize) -> Option<(usize, &Tok)> {
        (i + 1..self.lx.toks.len())
            .find(|&j| !self.attr_tok[j])
            .map(|j| (j, &self.lx.toks[j]))
    }
}

/// Parse `allow(rule, rule2): reason` → rule list + reason.
fn parse_allow(rest: &str) -> Option<(Vec<String>, String)> {
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let mut reason = rest[close + 1..].trim();
    reason = reason.trim_start_matches([':', '-', '—', ' ']).trim();
    let reason = reason.trim_end_matches("*/").trim();
    if reason.is_empty() {
        return None;
    }
    Some((rules, reason.to_string()))
}

/// Mark every token that belongs to an outer/inner attribute.
fn attribute_tokens(lx: &Lexed) -> Vec<bool> {
    let mut mark = vec![false; lx.toks.len()];
    let mut i = 0;
    while i < lx.toks.len() {
        if lx.toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < lx.toks.len() && lx.toks[j].is_punct('!') {
                j += 1;
            }
            if j < lx.toks.len() && lx.toks[j].is_punct('[') {
                let mut depth = 0usize;
                let mut k = j;
                while k < lx.toks.len() {
                    if lx.toks[k].is_punct('[') {
                        depth += 1;
                    } else if lx.toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                for m in mark.iter_mut().take(k.min(lx.toks.len() - 1) + 1).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mark
}

/// Line ranges of items gated behind `#[cfg(test)]` (and `#[cfg(all(test,…))]`,
/// but not `#[cfg(not(test))]`): the braced body following the attribute.
fn test_regions(lx: &Lexed, attr_tok: &[bool]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        // Find `#[cfg(… test …)]` attribute spans.
        if toks[i].is_punct('#')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('[')
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        {
            let mut depth = 0usize;
            let mut k = i + 1;
            let mut saw_test = false;
            let mut saw_not = false;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[k].is_ident("test") {
                    saw_test = true;
                } else if toks[k].is_ident("not") {
                    saw_not = true;
                }
                k += 1;
            }
            if saw_test && !saw_not {
                // Skip any further attributes, then find the item's braces
                // (a `;` first means a braceless item — no region).
                let mut j = k + 1;
                while j < toks.len() && attr_tok[j] {
                    j += 1;
                }
                let mut brace_start = None;
                while j < toks.len() {
                    if toks[j].is_punct(';') {
                        break;
                    }
                    if toks[j].is_punct('{') {
                        brace_start = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(b) = brace_start {
                    let mut depth = 0usize;
                    let mut e = b;
                    while e < toks.len() {
                        if toks[e].is_punct('{') {
                            depth += 1;
                        } else if toks[e].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        e += 1;
                    }
                    let end_line = toks.get(e).map_or(lx.n_lines, |t| t.line);
                    ranges.push((toks[i].line, end_line));
                    i = e + 1;
                    continue;
                }
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Rule: unsafe-needs-safety-comment.
// ---------------------------------------------------------------------------

fn safety_marker(c: &Comment) -> bool {
    if c.doc {
        c.text.contains("# Safety") || c.text.contains("SAFETY:")
    } else {
        c.text.contains("SAFETY:")
    }
}

fn rule_unsafe(an: &Analysis, out: &mut FileOutcome) {
    for (i, t) in an.lx.toks.iter().enumerate() {
        if !t.is_ident("unsafe") || an.attr_tok[i] {
            continue;
        }
        let Some((_, n)) = an.next_code(i) else { continue };
        let kind = if n.is_punct('{') {
            UnsafeKind::Block
        } else if n.is_ident("fn") {
            UnsafeKind::Fn
        } else if n.is_ident("impl") {
            UnsafeKind::Impl
        } else if n.is_ident("trait") {
            UnsafeKind::Trait
        } else if n.is_ident("extern") {
            UnsafeKind::Extern
        } else {
            continue; // e.g. 2024-style `#[unsafe(...)]` internals
        };
        // `unsafe fn` / `unsafe extern … fn` in *type* position
        // (`call: unsafe fn(…)`, `as unsafe fn`, `= unsafe extern "C" fn(…)`)
        // declares no new obligation site.  Blocks/impls/traits cannot
        // appear in type position, so only the fn forms get this check.
        if matches!(kind, UnsafeKind::Fn | UnsafeKind::Extern) {
            if let Some(p) = an.prev_code(i) {
                if matches!(p.text.as_str(), ":" | "(" | "," | "<" | "&" | "|" | "=" | ">")
                    || p.is_ident("as")
                    || p.is_ident("dyn")
                {
                    continue;
                }
            }
        }
        let documented = an.marker_above(t.line, safety_marker);
        out.unsafe_sites.push(UnsafeSite { line: t.line, kind, documented });
        if !documented {
            an.report(
                RULE_UNSAFE,
                t.line,
                format!(
                    "`unsafe {}` without a `// SAFETY:` comment (or `# Safety` doc \
                     section) directly above",
                    kind.name()
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-float-casts-in-kernels.
// ---------------------------------------------------------------------------

/// Hot kernel modules covered by the raw-cast rule.  The `Scalar` impls
/// (`f3r-precision`'s `scalar.rs`) are the one place raw float casts are
/// *supposed* to live, so that file is not listed — `convert.rs` beside it
/// is: its bulk converters and the `Widened` window the triangular sweeps
/// and the sparse product read fp16 values through go through those impls
/// like every other kernel.  The seed-reference kernels (`reference.rs`)
/// reproduce historical semantics and are exempt by design.
const CAST_SCOPE: &[&str] = &[
    "crates/precision/src/convert.rs",
    "crates/sparse/src/spmv.rs",
    "crates/sparse/src/spmm.rs",
    "crates/sparse/src/blas1.rs",
    "crates/sparse/src/sell.rs",
    "crates/sparse/src/csr.rs",
    "crates/sparse/src/scaling.rs",
    "crates/simd/src/",
    "crates/precond/src/trisolve.rs",
    "crates/core/src/basis.rs",
    "crates/core/src/fgmres.rs",
    "crates/core/src/richardson.rs",
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| {
        if s.ends_with('/') {
            path.starts_with(s)
        } else {
            path == *s
        }
    })
}

/// Identifier names the rule treats as integer-valued (index/size casts are
/// allowlisted by the rule itself, not by per-site comments).
fn int_like_name(name: &str) -> bool {
    const EXACT: &[&str] = &[
        "len", "nnz", "dim", "count", "idx", "n", "m", "k", "i", "j", "width", "height",
        "stride", "rows", "cols", "window", "iterations",
    ];
    EXACT.contains(&name)
        || name.starts_with("n_")
        || name.starts_with("num_")
        || name.ends_with("_count")
        || name.ends_with("_len")
        || name.ends_with("_idx")
        || name.ends_with("_rows")
        || name.ends_with("_cols")
        || name.ends_with("_dim")
        || name.ends_with("_iterations")
}

/// Names that mark the operand as definitely floating point.
fn float_hint_name(name: &str) -> bool {
    matches!(
        name,
        "to_f32" | "to_f64" | "powf" | "powi" | "sqrt" | "abs" | "ln" | "log2" | "log10"
            | "exp" | "sin" | "cos" | "recip" | "from_f32" | "from_f64"
    )
}

fn rule_float_cast(an: &Analysis, out: &mut FileOutcome) {
    if !in_scope(an.path, CAST_SCOPE) {
        return;
    }
    let toks = &an.lx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") || an.attr_tok[i] {
            continue;
        }
        let Some(tgt) = toks.get(i + 1) else { continue };
        if !(tgt.is_ident("f16") || tgt.is_ident("f32") || tgt.is_ident("f64")) {
            continue;
        }
        if an.in_test(toks[i].line) {
            continue; // test data generation, not kernel code
        }
        // Capture the minimal cast operand by scanning left over balanced
        // groups and `.`/`::` chains, then classify it.
        let operand = capture_operand(toks, i);
        let has_float_lit = operand.iter().any(|t| t.kind == TokKind::Float);
        let has_int_lit = operand.iter().any(|t| t.kind == TokKind::Int);
        let float_hint = operand
            .iter()
            .any(|t| t.kind == TokKind::Ident && float_hint_name(&t.text));
        // Rightmost identifier outside any parentheses is the operand's
        // "name" (`self.nnz() as f64` → `nnz`; `update_count as f64` →
        // `update_count`).
        let name = operand_name(&operand);
        let int_name = name.as_deref().is_some_and(int_like_name);
        let allowed = !has_float_lit && !float_hint && (has_int_lit || int_name);
        if !allowed {
            an.report(
                RULE_FLOAT_CAST,
                toks[i].line,
                format!(
                    "raw `as {}` cast in a hot kernel module; route the conversion \
                     through `Scalar::widen`/`narrow`/`FromScalar` (integer-source \
                     casts are recognised by name — rename the operand if it is an \
                     index/size, or suppress with a reason)",
                    tgt.text
                ),
                out,
            );
        }
    }
}

/// Tokens of the minimal expression to the left of the `as` at index `i`,
/// in source order.
fn capture_operand(toks: &[Tok], i: usize) -> Vec<&Tok> {
    let mut j = i as isize - 1;
    let mut depth = 0usize;
    let mut rev: Vec<&Tok> = Vec::new();
    while j >= 0 {
        let t = &toks[j as usize];
        let c = if t.kind == TokKind::Punct { t.text.chars().next().unwrap_or(' ') } else { ' ' };
        if c == ')' || c == ']' {
            depth += 1;
            rev.push(t);
        } else if c == '(' || c == '[' {
            if depth == 0 {
                break; // opening group that contains the cast: stop outside it
            }
            depth -= 1;
            rev.push(t);
        } else if depth > 0 {
            rev.push(t);
        } else {
            match t.kind {
                TokKind::Ident | TokKind::Int | TokKind::Float | TokKind::Lifetime => {
                    // `x as f64 as f32` keeps consuming through the first
                    // cast so the chain is classified as one operand.
                    rev.push(t);
                }
                TokKind::Punct if c == '.' || c == ':' => rev.push(t),
                _ => break,
            }
        }
        j -= 1;
    }
    rev.reverse();
    rev
}

/// Rightmost identifier of the operand that sits outside any group.
fn operand_name(operand: &[&Tok]) -> Option<String> {
    let mut depth = 0usize;
    for t in operand.iter().rev() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => depth = depth.saturating_sub(1),
                _ => {}
            }
        } else if t.kind == TokKind::Ident && depth == 0 {
            return Some(t.text.clone());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule: no-mul-add-in-elementwise-kernels.
// ---------------------------------------------------------------------------

/// Modules holding the element-wise update kernels whose SIMD twins promise
/// bitwise parity.  `reference.rs` (the preserved seed kernels) and the
/// `Scalar` trait in `f3r-precision` deliberately keep `mul_add` and are
/// outside this scope.
const MUL_ADD_SCOPE: &[&str] = &[
    "crates/precision/src/convert.rs",
    "crates/sparse/src/spmv.rs",
    "crates/sparse/src/spmm.rs",
    "crates/sparse/src/blas1.rs",
    "crates/sparse/src/sell.rs",
    "crates/simd/src/",
    "crates/precond/src/trisolve.rs",
];

fn rule_mul_add(an: &Analysis, out: &mut FileOutcome) {
    if !in_scope(an.path, MUL_ADD_SCOPE) {
        return;
    }
    for (i, t) in an.lx.toks.iter().enumerate() {
        if t.is_ident("mul_add") && !an.attr_tok[i] && !an.in_test(t.line) {
            an.report(
                RULE_MUL_ADD,
                t.line,
                "`mul_add` in an element-wise kernel module breaks the bitwise \
                 SIMD==scalar parity contract; use separate multiply and add"
                    .into(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: target-feature-gate.
// ---------------------------------------------------------------------------

fn rule_target_feature(an: &Analysis, out: &mut FileOutcome) {
    let toks = &an.lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && an.attr_tok[i]) {
            i += 1;
            continue;
        }
        // Attribute head: `#[` or `#![` then the attribute path.
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            j += 1;
        }
        if !(j < toks.len() && toks[j].is_punct('[')) {
            i += 1;
            continue;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_ident("target_feature")) {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        if !an.path.starts_with("crates/simd/") {
            an.report(
                RULE_TARGET_FEATURE,
                line,
                "#[target_feature] outside f3r-simd: raw SIMD entry points must \
                 live behind the detected-backend dispatch in crates/simd"
                    .into(),
                out,
            );
        }
        // Find the end of this attribute, skip any further attributes, then
        // require `unsafe` before the `fn`.
        let mut depth = 0usize;
        let mut k = j;
        while k < toks.len() {
            if toks[k].is_punct('[') {
                depth += 1;
            } else if toks[k].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let mut m = k + 1;
        while m < toks.len() && an.attr_tok[m] {
            m += 1;
        }
        let mut saw_unsafe = false;
        let mut saw_fn = false;
        let scan_end = (m + 12).min(toks.len());
        for t in &toks[m..scan_end] {
            if t.is_ident("unsafe") {
                saw_unsafe = true;
            }
            if t.is_ident("fn") {
                saw_fn = true;
                break;
            }
            if t.is_punct(';') || t.is_punct('{') {
                break;
            }
        }
        if saw_fn && !saw_unsafe {
            an.report(
                RULE_TARGET_FEATURE,
                line,
                "#[target_feature] fn must be declared `unsafe fn`: callers must \
                 prove the feature set via the runtime-detected backend"
                    .into(),
                out,
            );
        }
        i = k + 1;
    }
}

// ---------------------------------------------------------------------------
// Rule: atomic-ordering-documented.
// ---------------------------------------------------------------------------

const ORDERING_SCOPE: &[&str] = &["crates/parallel/src/", "crates/serve/src/"];
const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ordering_marker(c: &Comment) -> bool {
    c.text.to_ascii_lowercase().contains("ordering:")
}

fn rule_atomic_ordering(an: &Analysis, out: &mut FileOutcome) {
    if !in_scope(an.path, ORDERING_SCOPE) {
        return;
    }
    let toks = &an.lx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") || an.attr_tok[i] {
            continue;
        }
        let path_sep = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !path_sep {
            continue;
        }
        let Some(v) = toks.get(i + 3) else { continue };
        if !ORDERING_VARIANTS.contains(&v.text.as_str()) {
            continue;
        }
        if !an.marker_above(toks[i].line, ordering_marker) {
            an.report(
                RULE_ATOMIC_ORDERING,
                toks[i].line,
                format!(
                    "`Ordering::{}` without an `// ordering:` justification comment \
                     (pool protocol invariant from the persistent-pool PR)",
                    v.text
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: par-thresholds-single-home.
// ---------------------------------------------------------------------------

const THRESHOLDS_HOME: &str = "crates/parallel/src/thresholds.rs";

fn threshold_name(name: &str) -> bool {
    name.starts_with("PAR_") || (name.starts_with("MIN_") && name.ends_with("_PER_TASK"))
}

fn rule_par_thresholds(an: &Analysis, out: &mut FileOutcome) {
    if an.path == THRESHOLDS_HOME {
        return;
    }
    let toks = &an.lx.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("const") || toks[i].is_ident("static")) || an.attr_tok[i] {
            continue;
        }
        let Some(name) = toks.get(i + 1) else { continue };
        // A definition is `const NAME: …`; `use …::NAME;` re-exports and
        // plain mentions never match this shape.
        if name.kind != TokKind::Ident
            || !threshold_name(&name.text)
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        an.report(
            RULE_PAR_THRESHOLDS,
            toks[i].line,
            format!(
                "`{}` defined outside f3r_parallel::thresholds; the dispatch policy \
                 has a single home — define it there and import it",
                name.text
            ),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing() {
        let (r, why) = parse_allow("allow(x-rule): because reasons").unwrap();
        assert_eq!(r, vec!["x-rule"]);
        assert_eq!(why, "because reasons");
        let (r, _) = parse_allow("allow(a, b) - two rules here").unwrap();
        assert_eq!(r, vec!["a", "b"]);
        assert!(parse_allow("allow(a)").is_none()); // no reason
        assert!(parse_allow("allow(): reason").is_none()); // no rule
        assert!(parse_allow("deny(a): reason").is_none());
    }

    #[test]
    fn int_names() {
        for ok in ["len", "nnz", "n_rows", "padded_len", "update_count", "num_blocks", "m"] {
            assert!(int_like_name(ok), "{ok}");
        }
        for bad in ["alpha", "beta", "c_scale", "value", "norm"] {
            assert!(!int_like_name(bad), "{bad}");
        }
    }

    #[test]
    fn threshold_names() {
        assert!(threshold_name("PAR_ROW_THRESHOLD"));
        assert!(threshold_name("MIN_LEN_PER_TASK"));
        assert!(!threshold_name("MIN_RATE"));
        assert!(!threshold_name("SPARSE_LIMIT"));
    }
}
