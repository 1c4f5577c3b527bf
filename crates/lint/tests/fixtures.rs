//! Fixture snippets with seeded violations, pinning each rule's exact hit
//! and miss counts — including the lexer interplay cases (raw strings
//! containing `unsafe`, lifetimes vs char literals, nested block comments,
//! suppressed sites).

use f3r_lint::rules::{self, check_file, FileOutcome};

fn count(out: &FileOutcome, rule: &str) -> usize {
    out.violations.iter().filter(|v| v.rule == rule).count()
}

fn suppressed(out: &FileOutcome, rule: &str) -> usize {
    out.suppressed.iter().filter(|s| s.rule == rule).count()
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety-comment
// ---------------------------------------------------------------------------

#[test]
fn unsafe_rule_hits_and_misses() {
    let src = r####"
fn documented() {
    // SAFETY: pointer is valid for the whole call.
    unsafe { body() }
}

fn undocumented() {
    unsafe { body() } // seeded violation 1
}

// SAFETY: trait contract upheld by construction.
unsafe impl Send for Thing {}

unsafe impl Sync for Thing {} // seeded violation 2

/// Widens a value.
///
/// # Safety
/// Caller must check the feature bit.
unsafe fn doc_safety_fn() {}

unsafe fn bare_fn() {} // seeded violation 3

struct Table {
    call: unsafe fn(*const (), usize), // type position: not a site
}

fn strings() {
    let s = "unsafe { hidden in a string }";
    let r = r#"unsafe fn also_hidden() {}"#;
    /* a /* nested */ comment with unsafe { } inside */
    let _ = (s, r);
}
"####;
    let out = check_file("crates/demo/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_UNSAFE), 3, "{:?}", out.violations);
    // Inventory sees all real sites — documented or not — and nothing from
    // strings/comments/type positions: 2 blocks, 2 impls, 2 fns.
    assert_eq!(out.unsafe_sites.len(), 6);
    assert_eq!(out.unsafe_sites.iter().filter(|s| s.documented).count(), 3);
}

#[test]
fn unsafe_rule_comment_placement() {
    // The SAFETY comment may sit above attributes; a blank line breaks it.
    let src = "// SAFETY: fine through the attribute.\n\
               #[inline(always)]\n\
               unsafe fn a() {}\n\
               \n\
               // SAFETY: orphaned by the blank line below.\n\
               \n\
               unsafe fn b() {}\n\
               unsafe fn c() {} // SAFETY: trailing on the same line is fine\n";
    let out = check_file("crates/demo/src/lib.rs", src);
    let lines: Vec<u32> = out
        .violations
        .iter()
        .filter(|v| v.rule == rules::RULE_UNSAFE)
        .map(|v| v.line)
        .collect();
    assert_eq!(lines, vec![7], "{:?}", out.violations);
}

#[test]
fn unsafe_rule_suppression() {
    let src = "// f3r-lint: allow(unsafe-needs-safety-comment): exercised by the miri job\n\
               unsafe fn exempt() {}\n\
               unsafe fn not_exempt() {}\n";
    let out = check_file("crates/demo/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_UNSAFE), 1);
    assert_eq!(suppressed(&out, rules::RULE_UNSAFE), 1);
    assert_eq!(out.suppressed[0].reason, "exercised by the miri job");
}

// ---------------------------------------------------------------------------
// no-raw-float-casts-in-kernels
// ---------------------------------------------------------------------------

#[test]
fn float_cast_rule_classification() {
    let src = r#"
fn kernel(x: f64, n: usize, vals: &[f64]) -> f64 {
    let a = x as f32;                  // seeded violation: ambiguous name
    let b = 1.5 as f32;                // seeded violation: float literal
    let c = x as f64 as f32;           // seeded: TWO hits (each `as` in the chain)
    let d = value.sqrt() as f32;       // seeded violation: float-method witness
    let ok1 = n as f64;                // miss: integer-like name
    let ok2 = vals.len() as f64;       // miss: len()
    let ok3 = self.nnz() as f64 / self.n_rows as f64; // miss: both int names
    let ok4 = 7 as f64;                // miss: integer literal
    let ok5 = update_count as f64;     // miss: _count suffix
    f64::from(a + b + c + d) + ok1 + ok2 + ok3 + ok4 + ok5
}
"#;
    let out = check_file("crates/sparse/src/blas1.rs", src);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 5, "{:?}", out.violations);
}

#[test]
fn float_cast_rule_scope_and_tests() {
    let body = "fn f(x: f64) -> f32 { x as f32 }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                    fn gen(i: usize) -> f32 { (i % 7) as f64 as f32 }\n\
                }\n";
    // In scope: one production hit, test module exempt.
    let out = check_file("crates/sparse/src/spmv.rs", body);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 1);
    // The triangular sweeps of the preconditioners are kernels too; the
    // factorisations beside them are fp64 set-up code and are not.
    let out = check_file("crates/precond/src/trisolve.rs", body);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 1);
    let out = check_file("crates/precond/src/ic0.rs", body);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 0);
    // The panel kernels: the driver and scalar kernel in f3r-sparse, the
    // dispatch and the x86 kernels in f3r-simd.
    for path in [
        "crates/sparse/src/spmm.rs",
        "crates/simd/src/panel.rs",
        "crates/simd/src/x86_panel.rs",
    ] {
        let out = check_file(path, body);
        assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 1, "{path}");
    }
    // The window the sweeps and the product read fp16 values through lives
    // beside the bulk converters, and is a kernel like its two callers.
    let out = check_file("crates/precision/src/convert.rs", body);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 1);
    // Out of scope: the `Scalar` impls, where the casts are defined.
    let out = check_file("crates/precision/src/scalar.rs", body);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 0);
}

#[test]
fn float_cast_rule_suppression() {
    let src = "fn f(x: f64) -> f32 {\n\
                   // f3r-lint: allow(no-raw-float-casts-in-kernels): seed-parity path\n\
                   x as f32\n\
               }\n";
    let out = check_file("crates/simd/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_FLOAT_CAST), 0);
    assert_eq!(suppressed(&out, rules::RULE_FLOAT_CAST), 1);
}

// ---------------------------------------------------------------------------
// no-mul-add-in-elementwise-kernels
// ---------------------------------------------------------------------------

#[test]
fn mul_add_rule() {
    let src = "fn axpy(a: f32, x: &[f32], y: &mut [f32]) {\n\
                   y[0] = x[0].mul_add(a, y[0]); // seeded violation\n\
               }\n\
               fn talk() { let s = \"mul_add in a string\"; }\n\
               // mul_add in a comment\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn reference() -> f64 { 2.0f64.mul_add(3.0, 4.0) }\n\
               }\n";
    let out = check_file("crates/sparse/src/blas1.rs", src);
    assert_eq!(count(&out, rules::RULE_MUL_ADD), 1, "{:?}", out.violations);
    for path in ["crates/precond/src/trisolve.rs", "crates/precision/src/convert.rs"] {
        let out = check_file(path, src);
        assert_eq!(count(&out, rules::RULE_MUL_ADD), 1, "{path}: {:?}", out.violations);
    }
    // A fused multiply-add in a panel kernel would break the per-column
    // parity with the single-vector kernels' separate multiply and add.
    for path in [
        "crates/sparse/src/spmm.rs",
        "crates/simd/src/panel.rs",
        "crates/simd/src/x86_panel.rs",
    ] {
        let out = check_file(path, src);
        assert_eq!(count(&out, rules::RULE_MUL_ADD), 1, "{path}: {:?}", out.violations);
    }
    // Out of scope: the seed-reference kernels keep their fused semantics.
    let out = check_file("crates/sparse/src/reference.rs", src);
    assert_eq!(count(&out, rules::RULE_MUL_ADD), 0);
}

// ---------------------------------------------------------------------------
// target-feature-gate
// ---------------------------------------------------------------------------

#[test]
fn target_feature_rule() {
    let good = "#[target_feature(enable = \"avx2\")]\n\
                pub(crate) unsafe fn k() {}\n";
    let out = check_file("crates/simd/src/x86.rs", good);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 0);

    // Same file, missing `unsafe`.
    let bad = "#[target_feature(enable = \"avx2\")]\n\
               pub(crate) fn k() {}\n";
    let out = check_file("crates/simd/src/x86.rs", bad);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 1);

    // Right shape, wrong crate: two hits (location and, for the second
    // fixture below, also the missing unsafe).
    let out = check_file("crates/sparse/src/spmv.rs", good);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 1);
    let out = check_file("crates/sparse/src/spmv.rs", bad);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 2);

    // The panel kernels follow the same split: `#[target_feature]` bodies in
    // f3r-simd's x86_panel.rs, none in the driver or the triangular sweeps.
    let out = check_file("crates/simd/src/x86_panel.rs", good);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 0);
    let out = check_file("crates/simd/src/x86_panel.rs", bad);
    assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 1);
    for path in ["crates/sparse/src/spmm.rs", "crates/precond/src/trisolve.rs"] {
        let out = check_file(path, good);
        assert_eq!(count(&out, rules::RULE_TARGET_FEATURE), 1, "{path}");
    }
}

// ---------------------------------------------------------------------------
// atomic-ordering-documented
// ---------------------------------------------------------------------------

#[test]
fn atomic_ordering_rule() {
    let src = "fn f(c: &AtomicUsize) {\n\
                   // ordering: Relaxed — plain counter, no publication.\n\
                   c.store(1, Ordering::Relaxed);\n\
                   c.fetch_add(1, Ordering::AcqRel); // seeded violation\n\
                   let e = Ordering::Less; // cmp::Ordering, not atomic\n\
               }\n";
    let out = check_file("crates/parallel/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_ATOMIC_ORDERING), 1, "{:?}", out.violations);
    // Outside the pool crate the rule does not apply.
    let out = check_file("crates/simd/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_ATOMIC_ORDERING), 0);
}

// ---------------------------------------------------------------------------
// par-thresholds-single-home
// ---------------------------------------------------------------------------

#[test]
fn thresholds_rule() {
    let src = "pub const PAR_LEN_THRESHOLD: usize = 1 << 15; // seeded violation\n\
               const MIN_ROWS_PER_TASK: usize = 1 << 12; // seeded violation\n\
               const MIN_RATE: f64 = 0.5; // not a threshold name\n\
               use f3r_parallel::thresholds::MIN_LEN_PER_TASK; // import is fine\n\
               static PAR_FLAG: bool = true; // seeded violation 3 (PAR_ prefix)\n";
    let out = check_file("crates/sparse/src/blas1.rs", src);
    assert_eq!(count(&out, rules::RULE_PAR_THRESHOLDS), 3, "{:?}", out.violations);
    // The single home itself may define them.
    let out = check_file("crates/parallel/src/thresholds.rs", src);
    assert_eq!(count(&out, rules::RULE_PAR_THRESHOLDS), 0);
}

// ---------------------------------------------------------------------------
// malformed-suppression
// ---------------------------------------------------------------------------

#[test]
fn malformed_suppressions() {
    let src = "// f3r-lint: allow(unsafe-needs-safety-comment)\n\
               unsafe fn missing_reason() {}\n\
               // f3r-lint: allow(made-up-rule): the rule name is unknown\n\
               fn other() {}\n\
               // f3r-lint: denylist nonsense\n";
    let out = check_file("crates/demo/src/lib.rs", src);
    assert_eq!(count(&out, rules::RULE_MALFORMED_SUPPRESSION), 3, "{:?}", out.violations);
    // The reason-less allow does NOT suppress: the unsafe fn still fires.
    assert_eq!(count(&out, rules::RULE_UNSAFE), 1);
}

// ---------------------------------------------------------------------------
// Lexer interplay: the classic traps must not produce false positives.
// ---------------------------------------------------------------------------

#[test]
fn lexer_traps_produce_no_false_positives() {
    let src = r####"
fn lifetimes<'a, 'outer>(x: &'a [u8]) -> &'a [u8] {
    let c = 'u';           // char literal, not a lifetime
    let n = '\n';
    let s = r#"unsafe { mul_add(Ordering::Relaxed) } as f32"#;
    /* outer /* inner `unsafe fn` and `1.0 as f32` */ still a comment */
    let r = b"unsafe";     // byte string
    let range = 0..x.len(); // `0..` must not lex as a float
    x
}
"####;
    let out = check_file("crates/sparse/src/blas1.rs", src);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.unsafe_sites.is_empty());
}
