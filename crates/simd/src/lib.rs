//! Runtime-dispatched SIMD kernel backend for the F3R sparse kernels.
//!
//! The scalar kernels in `f3r-sparse` are written around the single-widening
//! convention (each stored element enters the accumulator with one direct
//! conversion, results are rounded back once) and rely on LLVM
//! autovectorisation.  That works for fp32/fp64, but fp16 traffic goes
//! through the vendored software `half` conversions — tens of cycles per
//! element — so fp16 sweeps are conversion-bound instead of bandwidth-bound,
//! inverting the paper's whole bandwidth argument on CPUs without dedicated
//! kernels.
//!
//! This crate closes that gap: hand-written `std::arch` kernels that use the
//! F16C converters (`vcvtph2ps`/`vcvtps2ph`) for fp16 lanes and AVX2/FMA
//! lanes for fp32/fp64, behind a backend tag that is detected **once per
//! process** and latched.  The crate exposes `try_*` entry points mirroring
//! the hot `f3r_sparse::blas1`/`spmm` kernels; each returns `None`/`false`
//! when the backend is scalar or the type combination is unsupported, and the
//! caller falls back to its scalar loop.  The scalar kernels therefore remain
//! the universal fallback and the semantic definition.
//!
//! The sparse row kernels ([`try_spmv_row`], [`try_sell_group8`]) take their
//! vector in the accumulation precision — fp32 or fp64; the product driver
//! widens an fp16 vector once per product, in bulk — and widen the matrix
//! values they load in hardware, so nothing they touch goes through a
//! software conversion.
//!
//! # Numerical contract
//!
//! * **Elementwise kernels** (`try_axpy_stored`, `try_waxpby_norm2`'s vector
//!   output, `try_scale`, `try_widen_scaled`, `try_compress`) are
//!   **bit-identical** to the scalar kernels for non-NaN data: they perform
//!   the same single widening per operand, the same separate multiply and add
//!   (no FMA contraction), and the same single round-to-nearest-even back to
//!   storage, just eight lanes at a time.  (F16C conversions agree bit for
//!   bit with the software `half` conversions; checked exhaustively in this
//!   crate's `f16c_agreement` test.)
//! * **Reductions** (`try_dot*`, `try_spmv_row`, norm accumulators) keep the
//!   accumulation precision and the f64 cascade every [`CASCADE_BLOCK`]
//!   elements, but reassociate the sum across lanes and may contract
//!   multiply-add pairs into FMAs.  Results agree with the scalar kernels
//!   within the documented ULP bounds of `tests/proptest_kernels.rs` (SIMD
//!   error is generally *smaller*: more partial sums, fused rounding).
//! * `try_norm_inf` is **exactly** equal to the scalar kernel (max selection
//!   commutes), including its NaN-dropping comparison semantics.
//!
//! Kernels that narrow `f64` directly to `f16` are deliberately absent:
//! hardware offers no single-rounding path (`vcvtpd2ps` + `vcvtps2ph` double
//! rounds), so those paths always take the scalar fallback.
//!
//! # Backend selection
//!
//! [`kernel_backend`] resolves once, on first use, in this order:
//! 1. a programmatic [`set_kernel_backend`] request (latched like
//!    `f3r_parallel::set_num_threads`),
//! 2. the `F3R_KERNEL_BACKEND` environment variable
//!    (`auto`/`scalar`/`avx2`/`avx512`),
//! 3. `auto`: the widest backend the CPU supports.
//!
//! Requests are clamped to detected CPU features, so forcing `avx2` on a
//! machine without AVX2+FMA+F16C safely resolves to `scalar`.  On non-x86-64
//! architectures the backend is always `scalar`.

#![warn(missing_docs)]

use core::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use f3r_precision::{FromScalar, Scalar};

#[cfg(target_arch = "x86_64")]
use f3r_precision::{Precision, SliceView as V, SliceViewMut as VM};

mod panel;
#[cfg(target_arch = "x86_64")]
mod x86;
#[cfg(target_arch = "x86_64")]
mod x86_panel;

pub use panel::{
    try_panel_deinterleave, try_panel_interleave, try_spmm_panel, PanelSink, PANEL_LANES,
};

/// Reduction kernels fold their accumulator into an `f64` running total every
/// this many elements, mirroring the cascade of the scalar `blas1` kernels so
/// fp32 accumulation error stays O(4096·n·ε) instead of O(n²·ε).
pub const CASCADE_BLOCK: usize = 4096;

/// The gather instructions index with signed 32-bit lanes, so SIMD paths that
/// gather from a vector `x` require `x.len() <= MAX_GATHER_LEN`.
pub const MAX_GATHER_LEN: usize = i32::MAX as usize;

/// Which kernel implementation family the process uses.
///
/// Ordered from narrowest to widest so requests can be clamped to what the
/// CPU supports with `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelBackend {
    /// Portable scalar kernels only (the universal fallback).
    Scalar,
    /// 256-bit kernels requiring AVX2 + FMA + F16C.
    Avx2,
    /// [`KernelBackend::Avx2`] kernels plus 512-bit F16C-style conversions in
    /// `half::slice` (requires AVX-512F in addition).
    Avx512,
}

impl KernelBackend {
    /// Short lowercase name (`"scalar"`, `"avx2"`, `"avx512"`), as accepted
    /// by `F3R_KERNEL_BACKEND` and recorded in bench metadata.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// `true` if SIMD kernels are in use (anything but [`KernelBackend::Scalar`]).
    #[must_use]
    pub const fn is_simd(self) -> bool {
        !matches!(self, KernelBackend::Scalar)
    }
}

impl core::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// CPU features relevant to the kernel backends, as reported by the runtime
/// feature detection of `std::arch`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the feature names
pub struct CpuFeatures {
    pub f16c: bool,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
}

impl CpuFeatures {
    /// `+`-joined list of the detected features (`"f16c+avx2+fma"`), or
    /// `"none"`; used in bench metadata and diagnostics.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (on, name) in [
            (self.f16c, "f16c"),
            (self.avx2, "avx2"),
            (self.fma, "fma"),
            (self.avx512f, "avx512f"),
        ] {
            if on {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }

    /// The widest [`KernelBackend`] these features support.
    #[must_use]
    pub fn widest_backend(&self) -> KernelBackend {
        if self.f16c && self.avx2 && self.fma {
            if self.avx512f {
                KernelBackend::Avx512
            } else {
                KernelBackend::Avx2
            }
        } else {
            KernelBackend::Scalar
        }
    }
}

/// Detect the CPU features relevant to kernel dispatch.
#[must_use]
pub fn detect_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            f16c: is_x86_feature_detected!("f16c"),
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
            avx512f: is_x86_feature_detected!("avx512f"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures::default()
    }
}

/// A backend request before clamping to CPU features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Auto,
    Exact(KernelBackend),
}

/// Programmatic request; 0 = unset, otherwise `encode_request`.
static REQUESTED: AtomicU8 = AtomicU8::new(0);

/// The resolved backend; empty until first [`kernel_backend`] call.
static BACKEND: OnceLock<KernelBackend> = OnceLock::new();

fn encode_request(r: Request) -> u8 {
    match r {
        Request::Auto => 1,
        Request::Exact(KernelBackend::Scalar) => 2,
        Request::Exact(KernelBackend::Avx2) => 3,
        Request::Exact(KernelBackend::Avx512) => 4,
    }
}

fn decode_request(v: u8) -> Option<Request> {
    match v {
        1 => Some(Request::Auto),
        2 => Some(Request::Exact(KernelBackend::Scalar)),
        3 => Some(Request::Exact(KernelBackend::Avx2)),
        4 => Some(Request::Exact(KernelBackend::Avx512)),
        _ => None,
    }
}

/// Parse an `F3R_KERNEL_BACKEND` value.  `None` means unrecognised.
fn parse_backend(s: &str) -> Option<Request> {
    match s.trim().to_ascii_lowercase().as_str() {
        "auto" | "" => Some(Request::Auto),
        "scalar" => Some(Request::Exact(KernelBackend::Scalar)),
        "avx2" => Some(Request::Exact(KernelBackend::Avx2)),
        "avx512" => Some(Request::Exact(KernelBackend::Avx512)),
        _ => None,
    }
}

/// Request a kernel backend programmatically, mirroring
/// `f3r_parallel::set_num_threads`.
///
/// Takes effect only if called before the first kernel dispatch: the backend
/// is latched on first use and never changes afterwards, so a run never mixes
/// backends (which would break the bitwise sequential == parallel guarantees
/// of the kernel layer).  The request is clamped to what the CPU supports.
/// Returns the backend the process is (or will be) using.
pub fn set_kernel_backend(backend: KernelBackend) -> KernelBackend {
    REQUESTED.store(encode_request(Request::Exact(backend)), Ordering::Relaxed);
    if let Some(&latched) = BACKEND.get() {
        return latched;
    }
    resolve(Request::Exact(backend))
}

/// Clamp a request to the detected CPU features.
fn resolve(req: Request) -> KernelBackend {
    let widest = detect_features().widest_backend();
    match req {
        Request::Auto => widest,
        Request::Exact(b) => b.min(widest),
    }
}

/// The request from the environment, defaulting to auto; warns once on an
/// unrecognised value.
fn env_request() -> Request {
    match std::env::var("F3R_KERNEL_BACKEND") {
        Ok(v) => parse_backend(&v).unwrap_or_else(|| {
            eprintln!(
                "f3r-simd: unrecognised F3R_KERNEL_BACKEND={v:?} (expected auto|scalar|avx2|avx512), using auto"
            );
            Request::Auto
        }),
        Err(_) => Request::Auto,
    }
}

/// The kernel backend for this process, resolving and latching it on first
/// call (programmatic request > `F3R_KERNEL_BACKEND` > auto-detect).
pub fn kernel_backend() -> KernelBackend {
    *BACKEND.get_or_init(|| {
        let req = decode_request(REQUESTED.load(Ordering::Relaxed)).unwrap_or_else(env_request);
        let backend = resolve(req);
        if backend == KernelBackend::Scalar {
            // Keep the bulk conversion tier in `half::slice` consistent with
            // the kernel backend (it reads the same env var, but programmatic
            // requests only flow through here).
            half::slice::force_scalar();
        }
        backend
    })
}

/// `true` when the latched backend has SIMD kernels (x86-64 only).
#[inline]
fn simd_active() -> bool {
    cfg!(target_arch = "x86_64") && kernel_backend().is_simd()
}

// ---------------------------------------------------------------------------
// Dispatch entry points.
//
// Each `try_*` mirrors one scalar kernel in `f3r_sparse` (see that kernel's
// docs for the semantics).  The `match` on `Scalar::view` reifies the type
// parameters; after monomorphisation exactly one arm survives per
// instantiation.  All `unsafe` blocks are justified by the same invariant:
// `simd_active()` is only true after `kernel_backend()` verified AVX2 + FMA +
// F16C via `is_x86_feature_detected!`, which is precisely the
// `#[target_feature]` set of the `x86` kernels.
// ---------------------------------------------------------------------------

/// SIMD `dot`: `Σ xᵢ·yᵢ` accumulated like the scalar kernel (accumulation
/// precision + f64 cascade).  `None` when the scalar fallback should run.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn try_dot<T: Scalar>(x: &[T], y: &[T]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "try_dot: length mismatch");
    try_dot_stored(x, y)
}

/// SIMD `dot_stored`: dot of a working-precision `x` against a vector stored
/// in precision `S`, no wider than `T`, each stored element widened once
/// into `T::Accum` (the `dot_compressed` core).  `None` for fallback.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn try_dot_stored<T: Scalar, S: Scalar>(x: &[T], v: &[S]) -> Option<f64> {
    assert_eq!(x.len(), v.len(), "try_dot_stored: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: see module note above the dispatchers.
        let d = unsafe {
            match (T::view(x), S::view(v)) {
                (V::F16(a), V::F16(b)) => x86::dot_stored_a(a, b),
                (V::F32(a), V::F16(b)) => x86::dot_stored_a(a, b),
                (V::F32(a), V::F32(b)) => x86::dot_stored_a(a, b),
                (V::F64(a), V::F16(b)) => x86::dot_stored_b(a, b),
                (V::F64(a), V::F32(b)) => x86::dot_stored_b(a, b),
                (V::F64(a), V::F64(b)) => x86::dot_stored_b(a, b),
                // Storage wider than the working precision: no basis is.
                _ => return None,
            }
        };
        return Some(d);
    }
    None
}

/// SIMD `axpy` of `K` stored-precision operands in turn: `y += c_0 · v_0`,
/// then `y += c_1 · v_1`, … with each `v_k`, stored no wider than `T`,
/// widened once into `T::Accum` and `y` rounded to `T` after every term — `K`
/// single-vector updates in one pass over `y` (`K = 1` covers plain `axpy`
/// with `S = T` and `axpy_scaled_from`; more are the Gram–Schmidt updates).
/// Elementwise bit-identical to the scalar kernel.  Returns `false` for
/// fallback.
///
/// # Panics
/// Panics if a `v_k` differs from `y` in length.
pub fn try_axpy_stored<T: Scalar, S: Scalar, const K: usize>(cs: [f64; K], vs: [&[S]; K], y: &mut [T]) -> bool {
    assert!(vs.iter().all(|v| v.len() == y.len()), "try_axpy_stored: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        macro_rules! as_views {
            ($variant:ident) => {
                vs.map(|v| match S::view(v) {
                    V::$variant(v) => v,
                    _ => unreachable!("every slice of one type has the same view"),
                })
            };
        }
        let a = cs.map(f32::from_scalar);
        // SAFETY: see module note above the dispatchers.
        unsafe {
            match (S::PRECISION, T::view_mut(y)) {
                (Precision::Fp16, VM::F16(b)) => x86::axpy_stored_a(a, as_views!(F16), b),
                (Precision::Fp16, VM::F32(b)) => x86::axpy_stored_a(a, as_views!(F16), b),
                (Precision::Fp32, VM::F32(b)) => x86::axpy_stored_a(a, as_views!(F32), b),
                (Precision::Fp16, VM::F64(b)) => x86::axpy_stored_b(cs, as_views!(F16), b),
                (Precision::Fp32, VM::F64(b)) => x86::axpy_stored_b(cs, as_views!(F32), b),
                (Precision::Fp64, VM::F64(b)) => x86::axpy_stored_b(cs, as_views!(F64), b),
                // Storage wider than the working precision: no basis is.
                _ => return false,
            }
        }
        return true;
    }
    let _ = cs;
    false
}

/// SIMD `axpy_norm2`: `y += a·x` plus `‖y_new‖²`.  The updated `y` is
/// bit-identical to [`try_axpy_stored`] / scalar `axpy`; the norm accumulates
/// squares of the *stored* (rounded) values like the scalar kernel.  `None`
/// for fallback.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn try_axpy_norm2<T: Scalar>(alpha: f64, x: &[T], y: &mut [T]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "try_axpy_norm2: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: see module note above the dispatchers.
        let s = unsafe {
            match (T::view(x), T::view_mut(y)) {
                (V::F16(a), VM::F16(b)) => x86::axpy_norm2_a(f32::from_scalar(alpha), a, b),
                (V::F32(a), VM::F32(b)) => x86::axpy_norm2_a(f32::from_scalar(alpha), a, b),
                (V::F64(a), VM::F64(b)) => x86::axpy_norm2_b(alpha, a, b),
                _ => return None, // unreachable: both share T
            }
        };
        return Some(s);
    }
    let _ = alpha;
    None
}

/// SIMD `waxpby_norm2`: `w = a·x + b·y` plus `‖w‖²`.  The vector output is
/// bit-identical to scalar `waxpby` (separate multiplies and add, one final
/// rounding); the norm accumulates the stored values.  `None` for fallback.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn try_waxpby_norm2<T: Scalar>(
    alpha: f64,
    x: &[T],
    beta: f64,
    y: &[T],
    w: &mut [T],
) -> Option<f64> {
    let n = x.len();
    assert!(y.len() == n && w.len() == n, "try_waxpby_norm2: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: see module note above the dispatchers.
        let s = unsafe {
            match (T::view(x), T::view(y), T::view_mut(w)) {
                (V::F16(a), V::F16(b), VM::F16(c)) => {
                    x86::waxpby_norm2_a(f32::from_scalar(alpha), a, f32::from_scalar(beta), b, c)
                }
                (V::F32(a), V::F32(b), VM::F32(c)) => {
                    x86::waxpby_norm2_a(f32::from_scalar(alpha), a, f32::from_scalar(beta), b, c)
                }
                (V::F64(a), V::F64(b), VM::F64(c)) => x86::waxpby_norm2_b(alpha, a, beta, b, c),
                _ => return None, // unreachable: all three share T
            }
        };
        return Some(s);
    }
    let _ = (alpha, beta);
    None
}

/// SIMD in-place `scale`: `x = c · x` (one widening, one multiply, one
/// rounding per element; elementwise bit-identical to the scalar kernel).
/// Returns `false` for fallback.
pub fn try_scale<T: Scalar>(c: f64, x: &mut [T]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let n = x.len();
        // SAFETY: see module note above the dispatchers; the kernel reads
        // each block before writing it, so full aliasing (src == dst) is fine.
        unsafe {
            match T::view_mut(x) {
                VM::F16(s) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), s.as_mut_ptr(), n),
                VM::F32(s) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), s.as_mut_ptr(), n),
                VM::F64(s) => x86::scale_b(c, s.as_ptr(), s.as_mut_ptr(), n),
            }
        }
        return true;
    }
    let _ = c;
    false
}

/// SIMD compress-on-write (`narrow_scaled_into` inner loop): `dst[i] =
/// (src[i].widen() · c).into_scalar()` with the multiply in `T::Accum`.
/// Supported combinations: `f32 → f16`, `f16 → f32`, `f64 → f32`, and all
/// same-precision pairs (used with `c = 1` for verbatim narrowing).
/// `f64 → f16` is unsupported by design (no single-rounding hardware path)
/// and returns `false`, as do all other combinations when the backend is
/// scalar.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn try_compress<T: Scalar, S: Scalar>(c: f64, src: &[T], dst: &mut [S]) -> bool {
    assert_eq!(src.len(), dst.len(), "try_compress: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let n = src.len();
        // SAFETY: see module note above the dispatchers; src/dst are distinct
        // borrows so the pointer ranges cannot overlap.
        unsafe {
            match (T::view(src), S::view_mut(dst)) {
                (V::F16(s), VM::F16(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F16(s), VM::F32(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F32(s), VM::F16(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F32(s), VM::F32(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F64(s), VM::F32(d)) => x86::scale_b(c, s.as_ptr(), d.as_mut_ptr(), n),
                (V::F64(s), VM::F64(d)) => x86::scale_b(c, s.as_ptr(), d.as_mut_ptr(), n),
                // f64 → f16 (double rounding) and narrow-to-wider pairs that
                // never occur in the basis kernels fall back to scalar.
                _ => return false,
            }
        }
        return true;
    }
    let _ = c;
    false
}

/// SIMD decompress (`widen_scaled_into` inner loop): `dst[i] =
/// T::narrow(from_scalar(src[i]) · c)` with the multiply in `T::Accum`.
/// All nine (stored, working) precision pairs are supported.  Returns
/// `false` for fallback.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn try_widen_scaled<S: Scalar, T: Scalar>(c: f64, src: &[S], dst: &mut [T]) -> bool {
    assert_eq!(src.len(), dst.len(), "try_widen_scaled: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let n = src.len();
        // SAFETY: see module note above the dispatchers; src/dst are distinct
        // borrows so the pointer ranges cannot overlap.
        unsafe {
            match (S::view(src), T::view_mut(dst)) {
                (V::F16(s), VM::F16(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F32(s), VM::F16(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F64(s), VM::F16(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F16(s), VM::F32(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F32(s), VM::F32(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F64(s), VM::F32(d)) => x86::scale_a(f32::from_scalar(c), s.as_ptr(), d.as_mut_ptr(), n),
                (V::F16(s), VM::F64(d)) => x86::scale_b(c, s.as_ptr(), d.as_mut_ptr(), n),
                (V::F32(s), VM::F64(d)) => x86::scale_b(c, s.as_ptr(), d.as_mut_ptr(), n),
                (V::F64(s), VM::F64(d)) => x86::scale_b(c, s.as_ptr(), d.as_mut_ptr(), n),
            }
        }
        return true;
    }
    let _ = c;
    false
}

/// SIMD `norm_inf`: `max |xᵢ|`, exactly equal to the scalar kernel (max
/// selection is order-independent; NaN elements never replace the running
/// max, matching the scalar `>` comparison).  `None` for fallback.
#[must_use]
pub fn try_norm_inf<T: Scalar>(x: &[T]) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: see module note above the dispatchers.
        let m = unsafe {
            match T::view(x) {
                V::F16(a) => f64::from(x86::norm_inf_a(a)),
                V::F32(a) => f64::from(x86::norm_inf_a(a)),
                V::F64(a) => x86::norm_inf_b(a),
            }
        };
        return Some(m);
    }
    let _ = x;
    None
}

/// SIMD CSR row kernel: `Σ from_scalar(vals[i]) · x[cols[i]]` in the
/// accumulation precision `A`, the core of every sparse product's column
/// loop.  The driver hands every vector over in its accumulation precision
/// (an fp16 vector widened once per product), so `x` is fp32 or fp64.  `None`
/// for fallback (scalar backend, row shorter than one vector, or `x` too long
/// for 32-bit gather indices).
///
/// # Safety
/// Every entry of `cols` must be a valid index into `x` (the `CsrMatrix`
/// constructor invariant); the gathers do no bounds checking.
#[must_use]
pub unsafe fn try_spmv_row<TA: Scalar, A: FromScalar>(cols: &[u32], vals: &[TA], x: &[A]) -> Option<A> {
    debug_assert_eq!(cols.len(), vals.len());
    #[cfg(target_arch = "x86_64")]
    if cols.len() >= 8 && x.len() <= MAX_GATHER_LEN && simd_active() {
        // SAFETY: feature set per the module note above the dispatchers;
        // index validity is this function's own safety contract.
        let acc: f64 = unsafe {
            match (TA::view(vals), A::view(x)) {
                (V::F16(a), V::F32(v)) => f64::from(x86::spmv_row_a(cols, a, v)),
                (V::F32(a), V::F32(v)) => f64::from(x86::spmv_row_a(cols, a, v)),
                (V::F16(a), V::F64(v)) => x86::spmv_row_b(cols, a, v),
                (V::F32(a), V::F64(v)) => x86::spmv_row_b(cols, a, v),
                (V::F64(a), V::F64(v)) => x86::spmv_row_b(cols, a, v),
                // No accumulator is fp16, and no matrix is stored wider than
                // the vectors it meets.
                _ => return None,
            }
        };
        // Exact: `acc` *is* the f32/f64 accumulator value, widened at most
        // once.
        return Some(A::from_f64(acc));
    }
    let _ = (cols, vals, x);
    None
}

/// SIMD SELL kernel for one full group of 8 consecutive rows sharing a
/// chunk: lane `l` of the result is row `base_row + l`'s accumulator.
/// `cols`/`vals` must start at the group's first lane of the chunk's first
/// non-meta position (`SellMatrix::row_lanes(base_row)` slices), `stride` is
/// the chunk height and `width` the chunk's padded row width.  Padding lanes
/// (column = own row, value = 0) are included, exactly like the scalar
/// `sell_row`.  `x` is in its accumulation precision, as for
/// [`try_spmv_row`].  `None` for fallback.
///
/// # Safety
/// Every column entry in the `width × 8` lane window must be a valid index
/// into `x`, and `cols`/`vals` must each hold at least
/// `(width - 1) · stride + 8` elements (guaranteed by the `SellMatrix`
/// layout when `stride % 8 == 0` and the group lies inside one chunk).
#[must_use]
pub unsafe fn try_sell_group8<TA: Scalar, A: FromScalar>(
    cols: &[u32],
    vals: &[TA],
    stride: usize,
    width: usize,
    x: &[A],
) -> Option<[A; 8]> {
    #[cfg(target_arch = "x86_64")]
    if x.len() <= MAX_GATHER_LEN && simd_active() {
        debug_assert!(width == 0 || (width - 1) * stride + 8 <= cols.len().min(vals.len()));
        // SAFETY: feature set per the module note above the dispatchers;
        // index validity and window bounds are this function's contract.
        let acc: [f64; 8] = unsafe {
            match (TA::view(vals), A::view(x)) {
                (V::F16(a), V::F32(v)) => x86::sell_group8_a(cols, a, stride, width, v).map(f64::from),
                (V::F32(a), V::F32(v)) => x86::sell_group8_a(cols, a, stride, width, v).map(f64::from),
                (V::F16(a), V::F64(v)) => x86::sell_group8_b(cols, a, stride, width, v),
                (V::F32(a), V::F64(v)) => x86::sell_group8_b(cols, a, stride, width, v),
                (V::F64(a), V::F64(v)) => x86::sell_group8_b(cols, a, stride, width, v),
                // As in `try_spmv_row`.
                _ => return None,
            }
        };
        // Exact per lane, as in `try_spmv_row`.
        return Some(acc.map(A::from_f64));
    }
    let _ = (cols, vals, stride, width, x);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_backend_values() {
        assert_eq!(parse_backend("auto"), Some(Request::Auto));
        assert_eq!(parse_backend(" SCALAR "), Some(Request::Exact(KernelBackend::Scalar)));
        assert_eq!(parse_backend("avx2"), Some(Request::Exact(KernelBackend::Avx2)));
        assert_eq!(parse_backend("Avx512"), Some(Request::Exact(KernelBackend::Avx512)));
        assert_eq!(parse_backend("neon"), None);
        assert_eq!(parse_backend(""), Some(Request::Auto));
    }

    #[test]
    fn requests_clamp_to_cpu_features() {
        let widest = detect_features().widest_backend();
        assert_eq!(resolve(Request::Auto), widest);
        assert_eq!(resolve(Request::Exact(KernelBackend::Scalar)), KernelBackend::Scalar);
        assert!(resolve(Request::Exact(KernelBackend::Avx512)) <= widest.max(KernelBackend::Avx512));
        assert!(resolve(Request::Exact(KernelBackend::Avx2)) <= KernelBackend::Avx2);
    }

    #[test]
    fn backend_is_latched_after_first_use() {
        let first = kernel_backend();
        // A late programmatic request cannot change the latched backend.
        let other = match first {
            KernelBackend::Scalar => KernelBackend::Avx2,
            _ => KernelBackend::Scalar,
        };
        assert_eq!(set_kernel_backend(other), first);
        assert_eq!(kernel_backend(), first);
    }

    #[test]
    fn feature_summary_formats() {
        assert_eq!(CpuFeatures::default().summary(), "none");
        let f = CpuFeatures { f16c: true, fma: true, ..CpuFeatures::default() };
        assert_eq!(f.summary(), "f16c+fma");
        assert_eq!(f.widest_backend(), KernelBackend::Scalar);
        let full = CpuFeatures { f16c: true, avx2: true, fma: true, avx512f: false };
        assert_eq!(full.widest_backend(), KernelBackend::Avx2);
    }

    #[test]
    fn backend_names() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
        assert_eq!(KernelBackend::Avx512.name(), "avx512");
        assert!(!KernelBackend::Scalar.is_simd());
        assert!(KernelBackend::Avx512.is_simd());
        assert_eq!(format!("{}", KernelBackend::Avx2), "avx2");
    }
}
