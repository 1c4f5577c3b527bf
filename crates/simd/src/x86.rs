//! x86-64 AVX2+FMA+F16C kernel implementations.
//!
//! Everything here is `unsafe fn` with `#[target_feature(enable = "avx2,fma,
//! f16c")]`: callers (the dispatchers in the crate root) may only reach these
//! after [`crate::kernel_backend`] verified the full feature set with
//! `is_x86_feature_detected!` — that runtime check is the justification for
//! every `unsafe` block in this module, together with the per-kernel bounds
//! arguments noted inline.
//!
//! Two "worlds" mirror the two accumulation precisions of the scalar
//! kernels:
//!
//! * **world A** — `f32` accumulation (f16/f32 vectors), 8-wide `__m256`
//!   lanes, every stored element entering via one conversion to f32
//!   ([`Lane8`]), results leaving via one round-to-nearest-even
//!   ([`Lane8Dst`]);
//! * **world B** — `f64` accumulation (f64 vectors), 4-wide `__m256d` lanes
//!   ([`Lane4`]/[`Lane4Dst`]).
//!
//! Elementwise kernels use separate multiply and add instructions (never
//! FMA) and are bit-identical to their scalar counterparts; reduction
//! kernels use FMA and per-[`crate::CASCADE_BLOCK`] f64 folding, matching
//! the scalar kernels' documented error bounds (see the crate docs).

#![allow(clippy::missing_safety_doc)] // module-level contract documented above

use core::arch::x86_64::*;

use f3r_precision::Scalar;
use half::f16;

use crate::CASCADE_BLOCK;

// ---------------------------------------------------------------------------
// Lane traits: per-precision load/store/gather building blocks.
// All methods are `#[inline(always)]` plain functions; they inline into the
// `#[target_feature]` kernels below, which supply the instruction set.
// ---------------------------------------------------------------------------

/// 8 consecutive elements widened into f32 lanes with one conversion per
/// element, matching `FromScalar::<f32>::from_scalar` bit for bit.
pub(crate) trait Lane8: Scalar {
    /// # Safety
    /// 8 elements must be readable at `p`; caller must be in an
    /// AVX2+F16C-enabled context.
    unsafe fn ld8(p: *const Self) -> __m256;

    /// One element, widened like a lane of [`Lane8::ld8`]: what the scalar
    /// tail of a row kernel reads.
    ///
    /// # Safety
    /// 1 element must be readable at `p`; AVX2+F16C context.
    // SAFETY: one readable element at `p` by the contract above; the
    // conversion itself is the safe `Scalar::to_f32`.
    #[inline(always)]
    unsafe fn ld1(p: *const Self) -> f32 {
        (*p).to_f32()
    }
}

/// [`Lane8`] types that can also absorb f32 lanes with one
/// round-to-nearest-even, matching `Scalar::narrow` (f16, f32 — *not* f64,
/// whose narrow from f32 would be a widening, handled in world B).
pub(crate) trait Lane8Dst: Lane8 {
    /// # Safety
    /// 8 elements must be writable at `p`; AVX2+F16C context.
    unsafe fn st8(p: *mut Self, v: __m256);

    /// `v` rounded to this precision and widened back, lane by lane: what
    /// [`Lane8Dst::st8`] then [`Lane8::ld8`] give, without the memory trip.
    ///
    /// # Safety
    /// AVX2+F16C context.
    unsafe fn round8(v: __m256) -> __m256;
}

impl Lane8 for f16 {
    // SAFETY: per the Lane8 contract — caller guarantees 8 readable f16
    // at `p` and an AVX2+F16C context.
    #[inline(always)]
    unsafe fn ld8(p: *const Self) -> __m256 {
        // f16 is #[repr(transparent)] over u16, so the pointer cast is
        // layout-valid; vcvtph2ps agrees bit for bit with the software
        // widening (exhaustively verified in tests/f16c_agreement.rs).
        _mm256_cvtph_ps(_mm_loadu_si128(p.cast::<__m128i>()))
    }

    // SAFETY: per the Lane8 contract — one readable f16 at `p`, F16C on.
    #[inline(always)]
    unsafe fn ld1(p: *const Self) -> f32 {
        // In hardware, like `ld8`; the software `to_f32` costs ~10 operations.
        _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(i32::from((*p).to_bits()))))
    }
}

impl Lane8Dst for f16 {
    // SAFETY: per the Lane8Dst contract — 8 writable f16 at `p`, F16C on.
    #[inline(always)]
    unsafe fn st8(p: *mut Self, v: __m256) {
        // vcvtps2ph with round-to-nearest-even == f16::from_f32 on non-NaN.
        _mm_storeu_si128(p.cast::<__m128i>(), _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
    }

    // SAFETY: per the Lane8Dst contract — F16C on; register-only.
    #[inline(always)]
    unsafe fn round8(v: __m256) -> __m256 {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v))
    }
}

impl Lane8 for f32 {
    // SAFETY: per the Lane8 contract — 8 readable f32 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn ld8(p: *const Self) -> __m256 {
        _mm256_loadu_ps(p)
    }
}

impl Lane8Dst for f32 {
    // SAFETY: per the Lane8Dst contract — 8 writable f32 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn st8(p: *mut Self, v: __m256) {
        _mm256_storeu_ps(p, v);
    }

    // SAFETY: per the Lane8Dst contract; f32 lanes are already f32.
    #[inline(always)]
    unsafe fn round8(v: __m256) -> __m256 {
        v
    }
}

impl Lane8 for f64 {
    // SAFETY: per the Lane8 contract — 8 readable f64 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn ld8(p: *const Self) -> __m256 {
        // Two 4-wide rounds f64 → f32 (vcvtpd2ps is round-to-nearest-even,
        // identical to the scalar `as f32` of from_scalar::<f32>).
        let lo = _mm256_cvtpd_ps(_mm256_loadu_pd(p));
        let hi = _mm256_cvtpd_ps(_mm256_loadu_pd(p.add(4)));
        _mm256_set_m128(hi, lo)
    }
}

/// 4 consecutive elements widened into f64 lanes, matching
/// `FromScalar::<f64>::from_scalar` (exact for all three storage types).
pub(crate) trait Lane4: Scalar {
    /// # Safety
    /// 4 elements readable at `p`; AVX2+F16C context.
    unsafe fn ld4(p: *const Self) -> __m256d;
}

/// [`Lane4`] types that can absorb f64 lanes with at most one rounding
/// (f64: exact; f32: one vcvtpd2ps RNE — *not* f16, which would double
/// round f64 → f32 → f16).
pub(crate) trait Lane4Dst: Lane4 {
    /// # Safety
    /// 4 elements writable at `p`; AVX2+F16C context.
    unsafe fn st4(p: *mut Self, v: __m256d);
}

impl Lane4 for f16 {
    // SAFETY: per the Lane4 contract — 4 readable f16 at `p`, F16C on.
    #[inline(always)]
    unsafe fn ld4(p: *const Self) -> __m256d {
        // Both steps are exact widenings, so this equals `to_f64` bitwise.
        _mm256_cvtps_pd(_mm_cvtph_ps(_mm_loadl_epi64(p.cast::<__m128i>())))
    }
}

impl Lane4 for f32 {
    // SAFETY: per the Lane4 contract — 4 readable f32 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn ld4(p: *const Self) -> __m256d {
        _mm256_cvtps_pd(_mm_loadu_ps(p))
    }
}

impl Lane4Dst for f32 {
    // SAFETY: per the Lane4Dst contract — 4 writable f32 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn st4(p: *mut Self, v: __m256d) {
        _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
    }
}

impl Lane4 for f64 {
    // SAFETY: per the Lane4 contract — 4 readable f64 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn ld4(p: *const Self) -> __m256d {
        _mm256_loadu_pd(p)
    }
}

impl Lane4Dst for f64 {
    // SAFETY: per the Lane4Dst contract — 4 writable f64 at `p`, AVX2 on.
    #[inline(always)]
    unsafe fn st4(p: *mut Self, v: __m256d) {
        _mm256_storeu_pd(p, v);
    }
}

// ---------------------------------------------------------------------------
// Horizontal reductions.
// ---------------------------------------------------------------------------

// SAFETY: pure register shuffles/adds — callers only need the AVX
// feature their own #[target_feature] context already proves.
#[inline(always)]
unsafe fn hsum_ps(v: __m256) -> f32 {
    let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
    _mm_cvtss_f32(_mm_add_ss(d, _mm_shuffle_ps::<1>(d, d)))
}

// SAFETY: pure register ops; AVX proven by the caller's context.
#[inline(always)]
unsafe fn hsum_pd(v: __m256d) -> f64 {
    let d = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
    _mm_cvtsd_f64(_mm_add_sd(d, _mm_unpackhi_pd(d, d)))
}

// ---------------------------------------------------------------------------
// SpMV row kernels.
// ---------------------------------------------------------------------------

/// World-A CSR row: `Σ from_scalar(vals[i]) · x[cols[i]]` in f32.  (The
/// driver hands fp16 vectors over widened, so `x` is always f32 here.)
///
/// Bounds: the vector loops stop at `cols.len()`/`vals.len()`; gather
/// indices are valid by the caller's contract (`try_spmv_row`'s safety doc).
// SAFETY: caller must be in an AVX2+FMA+F16C context (dispatch latch)
// and guarantee every `cols[i] < x.len()` (try_spmv_row's contract); all
// loads stop at cols.len().min(vals.len()).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn spmv_row_a<TA: Lane8>(cols: &[u32], vals: &[TA], x: &[f32]) -> f32 {
    let n = cols.len().min(vals.len());
    let cp = cols.as_ptr();
    let vp = vals.as_ptr();
    let xp = x.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        let idx0 = _mm256_loadu_si256(cp.add(i).cast::<__m256i>());
        let idx1 = _mm256_loadu_si256(cp.add(i + 8).cast::<__m256i>());
        acc0 = _mm256_fmadd_ps(TA::ld8(vp.add(i)), _mm256_i32gather_ps::<4>(xp, idx0), acc0);
        acc1 = _mm256_fmadd_ps(TA::ld8(vp.add(i + 8)), _mm256_i32gather_ps::<4>(xp, idx1), acc1);
        i += 16;
    }
    while i + 8 <= n {
        let idx = _mm256_loadu_si256(cp.add(i).cast::<__m256i>());
        acc0 = _mm256_fmadd_ps(TA::ld8(vp.add(i)), _mm256_i32gather_ps::<4>(xp, idx), acc0);
        i += 8;
    }
    let mut tail = 0.0f32;
    while i < n {
        let c = *cp.add(i) as usize;
        tail += TA::ld1(vp.add(i)) * *xp.add(c);
        i += 1;
    }
    hsum_ps(_mm256_add_ps(acc0, acc1)) + tail
}

/// World-B CSR row: `Σ to_f64(vals[i]) · x[cols[i]]` in f64.
// SAFETY: same contract as spmv_row_a — AVX2+FMA+F16C context and
// in-bounds column indices into `x`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn spmv_row_b<TA: Lane4>(cols: &[u32], vals: &[TA], x: &[f64]) -> f64 {
    let n = cols.len().min(vals.len());
    let cp = cols.as_ptr();
    let vp = vals.as_ptr();
    let xp = x.as_ptr();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let idx0 = _mm_loadu_si128(cp.add(i).cast::<__m128i>());
        let idx1 = _mm_loadu_si128(cp.add(i + 4).cast::<__m128i>());
        acc0 = _mm256_fmadd_pd(TA::ld4(vp.add(i)), _mm256_i32gather_pd::<8>(xp, idx0), acc0);
        acc1 = _mm256_fmadd_pd(TA::ld4(vp.add(i + 4)), _mm256_i32gather_pd::<8>(xp, idx1), acc1);
        i += 8;
    }
    while i + 4 <= n {
        let idx = _mm_loadu_si128(cp.add(i).cast::<__m128i>());
        acc0 = _mm256_fmadd_pd(TA::ld4(vp.add(i)), _mm256_i32gather_pd::<8>(xp, idx), acc0);
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        let c = *cp.add(i) as usize;
        tail += (*vp.add(i)).to_f64() * *xp.add(c);
        i += 1;
    }
    hsum_pd(_mm256_add_pd(acc0, acc1)) + tail
}

// ---------------------------------------------------------------------------
// SELL group-of-8 kernels: 8 consecutive rows of one chunk, lane-parallel
// across rows (the SELL layout stores lane k of 8 consecutive rows
// contiguously, so the row-parallel loads are unit-stride).
// ---------------------------------------------------------------------------

/// World-A SELL group: result lane `l` is row `base + l`'s f32 accumulator.
///
/// Bounds: caller guarantees `(width - 1) · stride + 8` elements in
/// `cols`/`vals` (see `try_sell_group8`'s safety doc).
// SAFETY: AVX2+FMA+F16C context; caller guarantees
// `(width-1)*stride + 8` elements in cols/vals and in-bounds column
// indices (try_sell_group8's contract).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn sell_group8_a<TA: Lane8>(
    cols: &[u32],
    vals: &[TA],
    stride: usize,
    width: usize,
    x: &[f32],
) -> [f32; 8] {
    let cp = cols.as_ptr();
    let vp = vals.as_ptr();
    let xp = x.as_ptr();
    let mut acc = _mm256_setzero_ps();
    for k in 0..width {
        let off = k * stride;
        let idx = _mm256_loadu_si256(cp.add(off).cast::<__m256i>());
        acc = _mm256_fmadd_ps(TA::ld8(vp.add(off)), _mm256_i32gather_ps::<4>(xp, idx), acc);
    }
    let mut out = [0.0f32; 8];
    _mm256_storeu_ps(out.as_mut_ptr(), acc);
    out
}

/// World-B SELL group: result lane `l` is row `base + l`'s f64 accumulator.
// SAFETY: same contract as sell_group8_a.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn sell_group8_b<TA: Lane4>(
    cols: &[u32],
    vals: &[TA],
    stride: usize,
    width: usize,
    x: &[f64],
) -> [f64; 8] {
    let cp = cols.as_ptr();
    let vp = vals.as_ptr();
    let xp = x.as_ptr();
    let mut lo = _mm256_setzero_pd();
    let mut hi = _mm256_setzero_pd();
    for k in 0..width {
        let off = k * stride;
        let idx = _mm256_loadu_si256(cp.add(off).cast::<__m256i>());
        let idx_lo = _mm256_castsi256_si128(idx);
        let idx_hi = _mm256_extracti128_si256::<1>(idx);
        lo = _mm256_fmadd_pd(TA::ld4(vp.add(off)), _mm256_i32gather_pd::<8>(xp, idx_lo), lo);
        hi = _mm256_fmadd_pd(TA::ld4(vp.add(off + 4)), _mm256_i32gather_pd::<8>(xp, idx_hi), hi);
    }
    let mut out = [0.0f64; 8];
    _mm256_storeu_pd(out.as_mut_ptr(), lo);
    _mm256_storeu_pd(out.as_mut_ptr().add(4), hi);
    out
}

// ---------------------------------------------------------------------------
// BLAS-1 reductions.
// ---------------------------------------------------------------------------

/// World-A dot with independently stored operand precisions:
/// `Σ to_f32(x[i]) · to_f32(v[i])`, f32 lanes, f64 cascade per block.
// SAFETY: AVX2+FMA+F16C context; loads stop at x.len().min(v.len()).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_stored_a<T: Lane8, S: Lane8>(x: &[T], v: &[S]) -> f64 {
    let n = x.len().min(v.len());
    let xp = x.as_ptr();
    let vp = v.as_ptr();
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = start;
        while i + 16 <= end {
            acc0 = _mm256_fmadd_ps(T::ld8(xp.add(i)), S::ld8(vp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(T::ld8(xp.add(i + 8)), S::ld8(vp.add(i + 8)), acc1);
            i += 16;
        }
        while i + 8 <= end {
            acc0 = _mm256_fmadd_ps(T::ld8(xp.add(i)), S::ld8(vp.add(i)), acc0);
            i += 8;
        }
        let mut tail = 0.0f32;
        while i < end {
            tail += (*xp.add(i)).to_f32() * (*vp.add(i)).to_f32();
            i += 1;
        }
        total += f64::from(hsum_ps(_mm256_add_ps(acc0, acc1)) + tail);
        start = end;
    }
    total
}

/// World-B dot with a stored operand: `Σ x[i] · to_f64(v[i])`, f64 lanes.
// SAFETY: AVX2+FMA+F16C context; loads stop at x.len().min(v.len()).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_stored_b<S: Lane4>(x: &[f64], v: &[S]) -> f64 {
    let n = x.len().min(v.len());
    let xp = x.as_ptr();
    let vp = v.as_ptr();
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = start;
        while i + 8 <= end {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), S::ld4(vp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i + 4)), S::ld4(vp.add(i + 4)), acc1);
            i += 8;
        }
        while i + 4 <= end {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), S::ld4(vp.add(i)), acc0);
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < end {
            tail += *xp.add(i) * (*vp.add(i)).to_f64();
            i += 1;
        }
        total += hsum_pd(_mm256_add_pd(acc0, acc1)) + tail;
        start = end;
    }
    total
}

// ---------------------------------------------------------------------------
// BLAS-1 elementwise kernels (bit-identical to scalar: separate mul and
// add, one conversion in, one rounding out).
// ---------------------------------------------------------------------------

/// World-A `y += a_k · v_k` for `k = 0, 1, …, K − 1` in turn, with
/// stored-precision `v_k` and `y` rounded to `T` after every term: `K`
/// single-vector updates in one pass over `y`, streaming the `K` vectors at
/// once.
// SAFETY: AVX2+FMA+F16C context; accesses stop at the shortest of `y` and
// the `vs`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn axpy_stored_a<S: Lane8, T: Lane8Dst, const K: usize>(a: [f32; K], vs: [&[S]; K], y: &mut [T]) {
    let n = vs.iter().fold(y.len(), |n, v| n.min(v.len()));
    let vp = vs.map(<[S]>::as_ptr);
    let yp = y.as_mut_ptr();
    let mut va = [_mm256_setzero_ps(); K];
    for k in 0..K {
        va[k] = _mm256_set1_ps(a[k]);
    }
    let mut i = 0;
    while i + 8 <= n {
        let mut r = T::ld8(yp.add(i));
        for k in 0..K {
            // mul + add (not FMA): matches the scalar `from_scalar(v)*a + widen(y)`.
            r = _mm256_add_ps(_mm256_mul_ps(S::ld8(vp[k].add(i)), va[k]), r);
            if k + 1 < K {
                r = T::round8(r);
            }
        }
        T::st8(yp.add(i), r);
        i += 8;
    }
    while i < n {
        let mut yi = *yp.add(i);
        for k in 0..K {
            yi = T::from_f32((*vp[k].add(i)).to_f32() * a[k] + yi.to_f32());
        }
        *yp.add(i) = yi;
        i += 1;
    }
}

/// World-B `y += a_k · v_k` for `k = 0, 1, …, K − 1` in turn, with
/// stored-precision `v_k`.
// SAFETY: AVX2+FMA+F16C context; accesses stop at the shortest of `y` and
// the `vs`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn axpy_stored_b<S: Lane4, const K: usize>(a: [f64; K], vs: [&[S]; K], y: &mut [f64]) {
    let n = vs.iter().fold(y.len(), |n, v| n.min(v.len()));
    let vp = vs.map(<[S]>::as_ptr);
    let yp = y.as_mut_ptr();
    let mut va = [_mm256_setzero_pd(); K];
    for k in 0..K {
        va[k] = _mm256_set1_pd(a[k]);
    }
    let mut i = 0;
    while i + 4 <= n {
        let mut r = _mm256_loadu_pd(yp.add(i));
        for k in 0..K {
            r = _mm256_add_pd(_mm256_mul_pd(S::ld4(vp[k].add(i)), va[k]), r);
        }
        _mm256_storeu_pd(yp.add(i), r);
        i += 4;
    }
    while i < n {
        let mut yi = *yp.add(i);
        for k in 0..K {
            yi += (*vp[k].add(i)).to_f64() * a[k];
        }
        *yp.add(i) = yi;
        i += 1;
    }
}

/// World-A fused `y += a·x` + `‖y_new‖²` (squares of the *stored*, rounded
/// values, like the scalar kernel; the updated `y` is bit-identical to
/// [`axpy_stored_a`]).
// SAFETY: AVX2+FMA+F16C context; accesses stop at x.len().min(y.len()).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn axpy_norm2_a<T: Lane8Dst>(a: f32, x: &[T], y: &mut [T]) -> f64 {
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let va = _mm256_set1_ps(a);
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc = _mm256_setzero_ps();
        let mut i = start;
        while i + 8 <= end {
            let r = _mm256_add_ps(_mm256_mul_ps(T::ld8(xp.add(i)), va), T::ld8(yp.add(i)));
            T::st8(yp.add(i), r);
            // Reload so the norm sees the narrowed (stored) values.
            let w = T::ld8(yp.add(i));
            acc = _mm256_fmadd_ps(w, w, acc);
            i += 8;
        }
        let mut tail = 0.0f32;
        while i < end {
            let r = (*xp.add(i)).to_f32() * a + (*yp.add(i)).to_f32();
            *yp.add(i) = T::from_f32(r);
            let w = (*yp.add(i)).to_f32();
            tail += w * w;
            i += 1;
        }
        total += f64::from(hsum_ps(acc) + tail);
        start = end;
    }
    total
}

/// World-B fused `y += a·x` + `‖y_new‖²`.
// SAFETY: AVX2+FMA+F16C context; accesses stop at x.len().min(y.len()).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn axpy_norm2_b(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let va = _mm256_set1_pd(a);
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc = _mm256_setzero_pd();
        let mut i = start;
        while i + 4 <= end {
            let r = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), va), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), r);
            acc = _mm256_fmadd_pd(r, r, acc);
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < end {
            let r = *xp.add(i) * a + *yp.add(i);
            *yp.add(i) = r;
            tail += r * r;
            i += 1;
        }
        total += hsum_pd(acc) + tail;
        start = end;
    }
    total
}

/// World-A fused `w = a·x + b·y` + `‖w‖²` (vector output bit-identical to
/// scalar `waxpby`: two multiplies, one add, one rounding).
// SAFETY: AVX2+FMA+F16C context; accesses stop at the shortest of the
// three slices.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn waxpby_norm2_a<T: Lane8Dst>(
    a: f32,
    x: &[T],
    b: f32,
    y: &[T],
    w: &mut [T],
) -> f64 {
    let n = x.len().min(y.len()).min(w.len());
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let wp = w.as_mut_ptr();
    let va = _mm256_set1_ps(a);
    let vb = _mm256_set1_ps(b);
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc = _mm256_setzero_ps();
        let mut i = start;
        while i + 8 <= end {
            let r = _mm256_add_ps(
                _mm256_mul_ps(T::ld8(xp.add(i)), va),
                _mm256_mul_ps(T::ld8(yp.add(i)), vb),
            );
            T::st8(wp.add(i), r);
            let s = T::ld8(wp.add(i));
            acc = _mm256_fmadd_ps(s, s, acc);
            i += 8;
        }
        let mut tail = 0.0f32;
        while i < end {
            let r = (*xp.add(i)).to_f32() * a + (*yp.add(i)).to_f32() * b;
            *wp.add(i) = T::from_f32(r);
            let s = (*wp.add(i)).to_f32();
            tail += s * s;
            i += 1;
        }
        total += f64::from(hsum_ps(acc) + tail);
        start = end;
    }
    total
}

/// World-B fused `w = a·x + b·y` + `‖w‖²`.
// SAFETY: same contract as waxpby_norm2_a.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn waxpby_norm2_b(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) -> f64 {
    let n = x.len().min(y.len()).min(w.len());
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let wp = w.as_mut_ptr();
    let va = _mm256_set1_pd(a);
    let vb = _mm256_set1_pd(b);
    let mut total = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = (start + CASCADE_BLOCK).min(n);
        let mut acc = _mm256_setzero_pd();
        let mut i = start;
        while i + 4 <= end {
            let r = _mm256_add_pd(
                _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), va),
                _mm256_mul_pd(_mm256_loadu_pd(yp.add(i)), vb),
            );
            _mm256_storeu_pd(wp.add(i), r);
            acc = _mm256_fmadd_pd(r, r, acc);
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < end {
            let r = *xp.add(i) * a + *yp.add(i) * b;
            *wp.add(i) = r;
            tail += r * r;
            i += 1;
        }
        total += hsum_pd(acc) + tail;
        start = end;
    }
    total
}

/// World-A scaled copy `dst[i] = narrow(to_f32(src[i]) · c)`, the shared
/// core of `scale`, compress-on-write and decompress.  Raw
/// pointers so `src == dst` aliasing (in-place scale) is allowed: each block
/// is fully read before it is written.
// SAFETY: AVX2+FMA+F16C context; caller guarantees `n` elements readable
// at `src` and writable at `dst` (exact aliasing allowed, see doc).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn scale_a<S: Lane8, D: Lane8Dst>(c: f32, src: *const S, dst: *mut D, n: usize) {
    let vc = _mm256_set1_ps(c);
    let mut i = 0;
    while i + 8 <= n {
        D::st8(dst.add(i), _mm256_mul_ps(S::ld8(src.add(i)), vc));
        i += 8;
    }
    while i < n {
        let r = (*src.add(i)).to_f32() * c;
        *dst.add(i) = D::from_f32(r);
        i += 1;
    }
}

/// World-B scaled copy `dst[i] = narrow(to_f64(src[i]) · c)`; same aliasing
/// contract as [`scale_a`].
// SAFETY: same contract as scale_a.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn scale_b<S: Lane4, D: Lane4Dst>(c: f64, src: *const S, dst: *mut D, n: usize) {
    let vc = _mm256_set1_pd(c);
    let mut i = 0;
    while i + 4 <= n {
        D::st4(dst.add(i), _mm256_mul_pd(S::ld4(src.add(i)), vc));
        i += 4;
    }
    while i < n {
        let r = (*src.add(i)).to_f64() * c;
        *dst.add(i) = D::from_f64(r);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// norm_inf: exact max of absolutes with the scalar kernel's NaN-dropping
// `>` semantics (a NaN lane never replaces the running max).
// ---------------------------------------------------------------------------

/// World-A `max |xᵢ|` (exact; NaNs dropped like the scalar `>` fold).
// SAFETY: AVX2+FMA+F16C context; loads stop at x.len().
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn norm_inf_a<T: Lane8>(x: &[T]) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let sign = _mm256_set1_ps(-0.0);
    let mut m = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_andnot_ps(sign, T::ld8(xp.add(i)));
        // v > m (ordered, quiet): false for NaN lanes, so blend keeps m —
        // exactly the scalar `if v > m { v } else { m }`.
        m = _mm256_blendv_ps(m, v, _mm256_cmp_ps::<_CMP_GT_OQ>(v, m));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), m);
    let mut best = 0.0f32;
    for v in lanes {
        if v > best {
            best = v;
        }
    }
    while i < n {
        let v = (*xp.add(i)).to_f32().abs();
        if v > best {
            best = v;
        }
        i += 1;
    }
    best
}

/// World-B `max |xᵢ|`.
// SAFETY: AVX2+FMA+F16C context; loads stop at x.len().
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn norm_inf_b(x: &[f64]) -> f64 {
    let n = x.len();
    let xp = x.as_ptr();
    let sign = _mm256_set1_pd(-0.0);
    let mut m = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_andnot_pd(sign, _mm256_loadu_pd(xp.add(i)));
        m = _mm256_blendv_pd(m, v, _mm256_cmp_pd::<_CMP_GT_OQ>(v, m));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), m);
    let mut best = 0.0f64;
    for v in lanes {
        if v > best {
            best = v;
        }
    }
    while i < n {
        let v = (*xp.add(i)).abs();
        if v > best {
            best = v;
        }
        i += 1;
    }
    best
}
