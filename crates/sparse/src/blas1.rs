//! Dense vector (BLAS-1) kernels, generic over the working precision, built
//! on direct widening.
//!
//! Reductions (dot products, norms) accumulate in [`Scalar::Accum`] — fp32
//! for fp16 vectors, matching how the paper treats reduction kernels (they
//! are kept out of pure fp16; the innermost Richardson solver avoids them
//! entirely, and the fp32 FGMRES levels accumulate in fp32).  Element-wise
//! updates (axpy and friends) widen both operands with a single conversion,
//! combine them in the accumulation precision and round back once per
//! element with [`Scalar::narrow`] — there is no per-element `f64` round
//! trip and no scalar `mul_add` anywhere on the hot paths (see
//! [`crate::reference`] for the historical kernels kept as correctness and
//! performance baselines).
//!
//! Reductions run eight independent accumulator chains so LLVM can
//! vectorise; chunked parallel variants combine per-chunk partial sums in
//! `f64`.  Fused kernels ([`axpy_norm2`], [`waxpby_norm2`]) cover the
//! update-plus-norm patterns of the CG / BiCGStab iteration loops, and the
//! multi-vector pair [`project_compressed`] / [`subtract_projections`] is
//! FGMRES's classical Gram–Schmidt: every projection in one pass over the
//! new direction, every update plus the norm in one more.
//!
//! Each kernel has a sequential and a thread-parallel variant plus a
//! size-dispatching wrapper.  Parallel variants
//! dispatch chunk tasks to the persistent `f3r-parallel` worker pool; the
//! dispatch threshold is the shared
//! [`f3r_parallel::thresholds::PAR_LEN_THRESHOLD`].
//!
//! # SIMD backend
//!
//! The hot kernels first offer their chunk to the runtime-dispatched
//! `f3r-simd` backend (`try_*` entry points) and fall into their scalar
//! loops when it declines — scalar backend forced, unsupported type
//! combination, or a non-x86-64 build.  Element-wise kernels are
//! bit-identical across backends; reductions agree within the documented
//! cascade bounds (see the `f3r_simd` crate docs for the exact contract).
//! The interception sits *inside* the per-chunk bodies, so the sequential
//! and pool-parallel variants of a kernel always run the same backend on
//! identical chunk geometry.

use std::array::from_fn;

use f3r_precision::{FromScalar, Scalar};

/// Vector length at or above which the dispatching wrappers go parallel
/// (re-exported from the shared threshold table in `f3r-parallel`).
pub use f3r_parallel::thresholds::PAR_LEN_THRESHOLD;

use f3r_parallel::thresholds::MIN_LEN_PER_TASK;

/// Elements accumulated in `T::Accum` before the partial sum is folded into
/// `f64`.  This bounds every accumulation-precision chain at
/// `CASCADE_BLOCK / 8` additions regardless of vector length or the
/// parallel chunking, so fp32 accumulation stays accurate for arbitrarily
/// long vectors (the same cascade length the pre-widening kernels used).
const CASCADE_BLOCK: usize = 4096;

/// Drive `f` over consecutive `[start, end)` cascade blocks of `0..len`.
///
/// Shared skeleton of every blocked reduction below: each invocation of `f`
/// accumulates one block in `T::Accum` and folds its partial sum(s) into
/// `f64` state captured by the closure, so changes to the cascade scheme
/// happen in one place.
#[inline]
fn for_cascade_blocks(len: usize, f: impl FnMut(usize, usize)) {
    for_spans(len, CASCADE_BLOCK, f);
}

/// Drive `f` over consecutive `[start, end)` spans of `span` elements of
/// `0..len` (the last one shorter).
#[inline]
fn for_spans(len: usize, span: usize, mut f: impl FnMut(usize, usize)) {
    let mut start = 0;
    while start < len {
        let end = (start + span).min(len);
        f(start, end);
        start = end;
    }
}

/// Elements of `w` a Gram–Schmidt sweep keeps in cache while every basis
/// vector streams past them: eight cascade blocks (256 KiB of fp64), so
/// each basis vector is read in runs long enough for the hardware
/// prefetcher, and the last update's norm runs eight independent
/// accumulator chains instead of one.
const SWEEP_SPAN: usize = 8 * CASCADE_BLOCK;

/// Unrolled dot kernel over one contiguous chunk, returned in `f64`.
#[inline]
fn dot_chunk<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    if let Some(d) = f3r_simd::try_dot(x, y) {
        return d;
    }
    let mut total = 0.0f64;
    for_cascade_blocks(x.len(), |start, end| {
        let (xb, yb) = (&x[start..end], &y[start..end]);
        let mut acc = [<T::Accum as Scalar>::zero(); 8];
        let mut x8 = xb.chunks_exact(8);
        let mut y8 = yb.chunks_exact(8);
        for (xc, yc) in (&mut x8).zip(&mut y8) {
            for k in 0..8 {
                acc[k] += xc[k].widen() * yc[k].widen();
            }
        }
        let mut tail = <T::Accum as Scalar>::zero();
        for (&a, &b) in x8.remainder().iter().zip(y8.remainder().iter()) {
            tail += a.widen() * b.widen();
        }
        let p0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let p1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        total += ((p0 + p1) + tail).to_f64();
    });
    total
}

/// Dot product `xᵀ y`, accumulated in `T::Accum` and returned as `f64`.
#[must_use]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_map_ranges(x.len(), MIN_LEN_PER_TASK, |r| {
            dot_chunk(&x[r.clone()], &y[r])
        })
        .into_iter()
        .sum()
    } else {
        dot_chunk(x, y)
    }
}

/// Euclidean norm `‖x‖₂`, accumulated in `T::Accum`.
#[must_use]
pub fn norm2<T: Scalar>(x: &[T]) -> f64 {
    dot(x, x).sqrt()
}

/// One contiguous chunk of an axpy update (`chunk ← chunk + a * xs`).
#[inline]
fn axpy_chunk<T: Scalar>(a: T::Accum, xs: &[T], chunk: &mut [T]) {
    // `a.to_f64()` is exact (accum → f64 widening), and the SIMD side
    // re-narrows it back to the accumulation precision, so both backends
    // multiply by bit-identical coefficients.
    if f3r_simd::try_axpy_stored([a.to_f64()], [xs], chunk) {
        return;
    }
    for (yi, &xi) in chunk.iter_mut().zip(xs.iter()) {
        *yi = T::narrow(xi.widen() * a + yi.widen());
    }
}

/// `y ← y + alpha * x`.
pub fn axpy<T: Scalar>(alpha: f64, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let a = <T::Accum as Scalar>::from_f64(alpha);
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(y, MIN_LEN_PER_TASK, |base, chunk| {
            axpy_chunk(a, &x[base..base + chunk.len()], chunk);
        });
    } else {
        axpy_chunk(a, x, y);
    }
}

/// Fused `y ← y + alpha * x` returning `‖y_new‖²` (as `f64`) from the same
/// sweep — the CG/BiCGStab "update the residual, then take its norm"
/// pattern without the second pass.
#[must_use]
pub fn axpy_norm2<T: Scalar>(alpha: f64, x: &[T], y: &mut [T]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_norm2: length mismatch");
    let a = <T::Accum as Scalar>::from_f64(alpha);
    let body = |base: usize, chunk: &mut [T]| -> f64 {
        let xs = &x[base..base + chunk.len()];
        if let Some(s) = f3r_simd::try_axpy_norm2(alpha, xs, chunk) {
            return s;
        }
        let mut total = 0.0f64;
        for_cascade_blocks(chunk.len(), |start, end| {
            let mut s0 = <T::Accum as Scalar>::zero();
            let mut s1 = <T::Accum as Scalar>::zero();
            let n2 = start + ((end - start) & !1);
            let mut i = start;
            while i < n2 {
                let v0 = T::narrow(xs[i].widen() * a + chunk[i].widen());
                let v1 = T::narrow(xs[i + 1].widen() * a + chunk[i + 1].widen());
                chunk[i] = v0;
                chunk[i + 1] = v1;
                // accumulate on the stored (rounded) values so the result
                // equals norm2 of the updated vector exactly
                let w0 = v0.widen();
                let w1 = v1.widen();
                s0 += w0 * w0;
                s1 += w1 * w1;
                i += 2;
            }
            if i < end {
                let v = T::narrow(xs[i].widen() * a + chunk[i].widen());
                chunk[i] = v;
                let w = v.widen();
                s0 += w * w;
            }
            total += (s0 + s1).to_f64();
        });
        total
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_map_chunks_mut(y, MIN_LEN_PER_TASK, body)
            .into_iter()
            .sum()
    } else {
        body(0, y)
    }
}

/// Fused `w ← alpha * x + beta * y` returning `‖w‖²` (as `f64`) from the
/// same sweep — BiCGStab's `s = r − α v` plus the early-exit norm check in
/// three memory sweeps (read `x`, read `y`, write `w`).
#[must_use]
pub fn waxpby_norm2<T: Scalar>(alpha: f64, x: &[T], beta: f64, y: &[T], w: &mut [T]) -> f64 {
    assert_eq!(x.len(), y.len(), "waxpby_norm2: length mismatch");
    assert_eq!(x.len(), w.len(), "waxpby_norm2: length mismatch");
    let a = <T::Accum as Scalar>::from_f64(alpha);
    let b = <T::Accum as Scalar>::from_f64(beta);
    let body = |base: usize, chunk: &mut [T]| -> f64 {
        let xs = &x[base..base + chunk.len()];
        let ys = &y[base..base + chunk.len()];
        if let Some(s) = f3r_simd::try_waxpby_norm2(alpha, xs, beta, ys, chunk) {
            return s;
        }
        let mut total = 0.0f64;
        for_cascade_blocks(chunk.len(), |start, end| {
            let mut s = <T::Accum as Scalar>::zero();
            for i in start..end {
                let v = T::narrow(xs[i].widen() * a + ys[i].widen() * b);
                chunk[i] = v;
                let wv = v.widen();
                s += wv * wv;
            }
            total += s.to_f64();
        });
        total
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_map_chunks_mut(w, MIN_LEN_PER_TASK, body)
            .into_iter()
            .sum()
    } else {
        body(0, w)
    }
}

/// `y ← alpha * x + beta * y`.
pub fn axpby<T: Scalar>(alpha: f64, x: &[T], beta: f64, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    let a = <T::Accum as Scalar>::from_f64(alpha);
    let b = <T::Accum as Scalar>::from_f64(beta);
    let body = |base: usize, chunk: &mut [T]| {
        let xs = &x[base..base + chunk.len()];
        for (yi, &xi) in chunk.iter_mut().zip(xs.iter()) {
            *yi = T::narrow(xi.widen() * a + yi.widen() * b);
        }
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(y, MIN_LEN_PER_TASK, body);
    } else {
        body(0, y);
    }
}

/// `w ← alpha * x + beta * y` (three-operand form used by CG/BiCGStab).
pub fn waxpby<T: Scalar>(alpha: f64, x: &[T], beta: f64, y: &[T], w: &mut [T]) {
    assert_eq!(x.len(), y.len(), "waxpby: length mismatch");
    assert_eq!(x.len(), w.len(), "waxpby: length mismatch");
    let a = <T::Accum as Scalar>::from_f64(alpha);
    let b = <T::Accum as Scalar>::from_f64(beta);
    let body = |base: usize, chunk: &mut [T]| {
        let xs = &x[base..base + chunk.len()];
        let ys = &y[base..base + chunk.len()];
        for i in 0..chunk.len() {
            chunk[i] = T::narrow(xs[i].widen() * a + ys[i].widen() * b);
        }
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(w, MIN_LEN_PER_TASK, body);
    } else {
        body(0, w);
    }
}

/// `x ← alpha * x`.
pub fn scale<T: Scalar>(alpha: f64, x: &mut [T]) {
    let a = <T::Accum as Scalar>::from_f64(alpha);
    let body = |_base: usize, chunk: &mut [T]| {
        if f3r_simd::try_scale(alpha, chunk) {
            return;
        }
        for xi in chunk.iter_mut() {
            *xi = T::narrow(xi.widen() * a);
        }
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(x, MIN_LEN_PER_TASK, body);
    } else {
        body(0, x);
    }
}

// ---------------------------------------------------------------------------
// Compressed-basis kernels
//
// A compressed basis vector is a pair `(stored, scale)`: elements held in a
// storage precision `S` (typically fp16 or fp32) plus one `f64` amplitude
// scale per vector, representing `scale * stored`.  When `S` is narrower
// than the working precision the scale is a power of two chosen so
// `|stored| <= 1`, which keeps fp16 storage inside its narrow exponent
// range; same-precision storage skips the normalisation and stores values
// verbatim (bit-lossless, no extra reduction pass on the default path).
//
// Every kernel below follows the direct-widening convention: each stored
// element enters the working accumulator `T::Accum` through exactly one
// conversion (`FromScalar::from_scalar`) and results leave through one
// rounding (`Scalar::narrow` / `FromScalar::into_scalar`); the per-vector
// scale is folded into the scalar coefficient outside the loop.  All kernels
// dispatch to the worker pool above [`PAR_LEN_THRESHOLD`], like their
// uncompressed counterparts.
// ---------------------------------------------------------------------------

/// Pick the power-of-two scale for [`narrow_scaled_into`]: the smallest
/// `2^k >= amax` (`0.0` for a zero vector, non-finite propagated).  The
/// convention is shared with the scaled matrix storage through
/// [`crate::scaling::pow2_amplitude`].
#[inline]
fn pow2_scale(amax: f64) -> f64 {
    crate::scaling::pow2_amplitude(amax)
}

/// True when the `f64` coefficient `c` survives conversion into the
/// accumulator `A` (finite, and nonzero unless `c` itself is zero).
///
/// The fast compressed-kernel loops pre-convert their scalar coefficient
/// (`alpha * scale` or `1/scale`) into the accumulation precision once per
/// call; for an `f32` accumulator that conversion silently saturates to
/// `inf`/`0` outside roughly `2^±149` even though the per-element *product*
/// `c * stored` may be perfectly representable.  Kernels fall back to a
/// per-element `f64` path (cold, extreme-amplitude vectors only) when this
/// returns false, so compression stays amplitude-independent as documented.
#[inline]
fn coeff_fits<A: FromScalar>(c: f64) -> bool {
    let a = A::from_f64(c);
    a.is_finite() && (c == 0.0 || a.to_f64() != 0.0)
}

/// Compress-on-write: store `alpha * src` into `dst` as a scaled
/// storage-precision vector, returning the amplitude scale.
///
/// When `S` is narrower than `T`, the stored elements are `src / 2^k` with
/// `2^k` the smallest power of two at least `max|src|`, so `|dst| <= 1`
/// (inside fp16's exponent range whatever the amplitude); the returned
/// scale is `alpha * 2^k` and the represented vector is
/// `scale * dst == alpha * src`.  Division by a power of two is exact, so
/// the only per-element rounding is the single
/// [`FromScalar::into_scalar`] narrowing.  A zero `src` stores zeros and
/// returns scale `0.0`; non-finite input propagates a non-finite scale or
/// stored values, so downstream norm/dot breakdown checks still fire.
///
/// When `S` has the same precision as `T` (uncompressed storage), the
/// normalisation is unnecessary — the storage has the source's full
/// exponent range — so the values are stored verbatim (lossless), `alpha`
/// is returned as the scale, and the amplitude reduction pass is skipped
/// entirely, keeping the default path at the cost of a plain fused
/// copy.
pub fn narrow_scaled_into<T: Scalar, S: Scalar>(alpha: f64, src: &[T], dst: &mut [S]) -> f64 {
    assert_eq!(src.len(), dst.len(), "narrow_scaled_into: length mismatch");
    if S::PRECISION == T::PRECISION {
        // Same-precision storage needs no |stored| <= 1 normalisation (the
        // storage has the full exponent range of the source), so skip the
        // amplitude reduction and the per-element division: store the values
        // as-is and carry `alpha` in the scale.  This keeps the uncompressed
        // default path at the cost of a plain copy (one read + one write
        // sweep, no extra max-reduction pass).
        let body = |base: usize, chunk: &mut [S]| {
            let xs = &src[base..base + chunk.len()];
            // `c = 1` compress: multiplying by one is exact, so the SIMD
            // kernel stores exactly `si.widen().into_scalar()` too.
            if f3r_simd::try_compress(1.0, xs, chunk) {
                return;
            }
            for (di, &si) in chunk.iter_mut().zip(xs.iter()) {
                *di = si.widen().into_scalar();
            }
        };
        if src.len() >= PAR_LEN_THRESHOLD {
            f3r_parallel::par_chunks_mut(dst, MIN_LEN_PER_TASK, body);
        } else {
            body(0, dst);
        }
        return alpha;
    }
    let amax = if src.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_map_ranges(src.len(), MIN_LEN_PER_TASK, |r| norm_inf(&src[r]))
            .into_iter()
            .fold(0.0f64, f64::max)
    } else {
        norm_inf(src)
    };
    let s = pow2_scale(amax);
    if s == 0.0 {
        set_zero(dst);
        return 0.0;
    }
    let inv_f64 = 1.0 / s;
    if coeff_fits::<T::Accum>(inv_f64) {
        let inv = <T::Accum as Scalar>::from_f64(inv_f64);
        let body = |base: usize, chunk: &mut [S]| {
            let xs = &src[base..base + chunk.len()];
            if f3r_simd::try_compress(inv_f64, xs, chunk) {
                return;
            }
            for (di, &si) in chunk.iter_mut().zip(xs.iter()) {
                *di = (si.widen() * inv).into_scalar();
            }
        };
        if src.len() >= PAR_LEN_THRESHOLD {
            f3r_parallel::par_chunks_mut(dst, MIN_LEN_PER_TASK, body);
        } else {
            body(0, dst);
        }
    } else {
        // 1/s overflows/underflows the accumulator (amplitude near the edge
        // of the working precision's range): scale each element in f64.
        let body = |base: usize, chunk: &mut [S]| {
            let xs = &src[base..base + chunk.len()];
            for (di, &si) in chunk.iter_mut().zip(xs.iter()) {
                *di = S::from_f64(si.to_f64() * inv_f64);
            }
        };
        if src.len() >= PAR_LEN_THRESHOLD {
            f3r_parallel::par_chunks_mut(dst, MIN_LEN_PER_TASK, body);
        } else {
            body(0, dst);
        }
    }
    alpha * s
}

/// Decompress: `dst ← scale * src`, widening each stored element once into
/// the destination's accumulation precision (the read-side inverse of
/// [`narrow_scaled_into`]).
pub fn widen_scaled_into<S: Scalar, T: Scalar>(scale: f64, src: &[S], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "widen_scaled_into: length mismatch");
    if coeff_fits::<T::Accum>(scale) {
        let a = <T::Accum as Scalar>::from_f64(scale);
        let body = |base: usize, chunk: &mut [T]| {
            let xs = &src[base..base + chunk.len()];
            if f3r_simd::try_widen_scaled(scale, xs, chunk) {
                return;
            }
            for (di, &si) in chunk.iter_mut().zip(xs.iter()) {
                *di = T::narrow(<T::Accum as FromScalar>::from_scalar(si) * a);
            }
        };
        if src.len() >= PAR_LEN_THRESHOLD {
            f3r_parallel::par_chunks_mut(dst, MIN_LEN_PER_TASK, body);
        } else {
            body(0, dst);
        }
    } else {
        let body = |base: usize, chunk: &mut [T]| {
            let xs = &src[base..base + chunk.len()];
            for (di, &si) in chunk.iter_mut().zip(xs.iter()) {
                *di = T::from_f64(si.to_f64() * scale);
            }
        };
        if src.len() >= PAR_LEN_THRESHOLD {
            f3r_parallel::par_chunks_mut(dst, MIN_LEN_PER_TASK, body);
        } else {
            body(0, dst);
        }
    }
}

/// Unrolled mixed-precision dot over one contiguous chunk: `x` in the working
/// precision, `v` stored, result in `f64` *without* the amplitude scale.
#[inline]
fn dot_stored_chunk<T: Scalar, S: Scalar>(x: &[T], v: &[S]) -> f64 {
    if let Some(d) = f3r_simd::try_dot_stored(x, v) {
        return d;
    }
    let mut total = 0.0f64;
    for_cascade_blocks(x.len(), |start, end| {
        let (xb, vb) = (&x[start..end], &v[start..end]);
        let mut acc = [<T::Accum as Scalar>::zero(); 8];
        let mut x8 = xb.chunks_exact(8);
        let mut v8 = vb.chunks_exact(8);
        for (xc, vc) in (&mut x8).zip(&mut v8) {
            for k in 0..8 {
                acc[k] += xc[k].widen() * <T::Accum as FromScalar>::from_scalar(vc[k]);
            }
        }
        let mut tail = <T::Accum as Scalar>::zero();
        for (&a, &b) in x8.remainder().iter().zip(v8.remainder().iter()) {
            tail += a.widen() * <T::Accum as FromScalar>::from_scalar(b);
        }
        let p0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let p1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        total += ((p0 + p1) + tail).to_f64();
    });
    total
}

/// Dot product `xᵀ (scale · v)` of a working-precision vector against a
/// compressed basis vector.
#[must_use]
pub fn dot_compressed<T: Scalar, S: Scalar>(x: &[T], v: &[S], scale: f64) -> f64 {
    assert_eq!(x.len(), v.len(), "dot_compressed: length mismatch");
    let raw = if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_map_ranges(x.len(), MIN_LEN_PER_TASK, |r| {
            dot_stored_chunk(&x[r.clone()], &v[r])
        })
        .into_iter()
        .sum()
    } else {
        dot_stored_chunk(x, v)
    };
    raw * scale
}

/// Two dots of the same working-precision vector against two compressed
/// basis vectors in one fused sweep over `x`:
/// `(xᵀ (s1 · v1), xᵀ (s2 · v2))` — the two-vector case of
/// [`project_compressed`].
#[must_use]
pub fn dot2_compressed<T: Scalar, S: Scalar>(
    x: &[T],
    v1: &[S],
    s1: f64,
    v2: &[S],
    s2: f64,
) -> (f64, f64) {
    let mut h = [0.0; 2];
    project_compressed(x, |i| [(v1, s1), (v2, s2)][i], &mut h);
    (h[0], h[1])
}

/// The classical Gram–Schmidt projections of `w` onto `h.len()` compressed
/// basis vectors, `h[i] = wᵀ (s_i · v_i)` with `(v_i, s_i) = basis(i)`, in
/// one pass over `w`.
///
/// A span of `w` (eight cascade blocks) stays in cache while the basis
/// vectors stream past it, four at a time, so `w` is read once for all the
/// dots where a dot per vector (or per pair) would re-read it each time.
/// The bits are those of the per-pair sequence: pairs `(0, 1), (2, 3), …`
/// keep the four-lane layout of the [`dot2_compressed`] block kernel, a
/// trailing odd vector runs the kernel of [`dot_compressed`], each dot adds
/// its cascade blocks in order with the cascade restarted at every pool
/// chunk, and the chunks are summed in order.
///
/// # Panics
/// Panics if a basis vector's length differs from `w`'s.
pub fn project_compressed<'b, T: Scalar, S: Scalar + 'b>(
    w: &[T],
    basis: impl Fn(usize) -> (&'b [S], f64) + Sync,
    h: &mut [f64],
) {
    let (n, count) = (w.len(), h.len());
    assert!((0..count).all(|i| basis(i).0.len() == n), "project_compressed: length mismatch");
    if n >= PAR_LEN_THRESHOLD {
        with_range_partials(
            n,
            count,
            |range, out| project_chunk(&w[range.clone()], range.start, &basis, out),
            |partials, ranges| {
                // No partial is −0 (each is a sum that starts at +0), so
                // `sum` here is also the pairs' former `fold(0.0, +)`.
                for (i, hi) in h.iter_mut().enumerate() {
                    *hi = (0..ranges).map(|r| partials[r * count + i]).sum();
                }
            },
        );
    } else {
        project_chunk(w, 0, &basis, h);
    }
    for (i, hi) in h.iter_mut().enumerate() {
        *hi *= basis(i).1;
    }
}

/// The unscaled projections of one chunk of `w` (elements `at..` of the whole
/// vector) into `out`: span by span, the basis vectors in groups of two
/// pairs (then a last pair, then an odd one), each dot adding its cascade
/// blocks in order.  A group streams four basis vectors at once, which keeps
/// more memory requests in flight than a pair does.
fn project_chunk<'b, T: Scalar, S: Scalar + 'b>(
    w: &[T],
    at: usize,
    basis: &impl Fn(usize) -> (&'b [S], f64),
    out: &mut [f64],
) {
    let count = out.len();
    out.fill(0.0);
    for_spans(w.len(), SWEEP_SPAN, |lo, hi| {
        let ws = &w[lo..hi];
        let stored = |i: usize| &basis(i).0[at + lo..at + hi];
        let mut i = 0;
        while i + 4 <= count {
            let vs = [stored(i), stored(i + 1), stored(i + 2), stored(i + 3)];
            for_cascade_blocks(ws.len(), |s, e| {
                let d = dots_stored_block(&ws[s..e], vs.map(|v| &v[s..e]));
                for (o, d) in out[i..i + 4].iter_mut().zip(d) {
                    *o += d;
                }
            });
            i += 4;
        }
        if i + 2 <= count {
            let vs = [stored(i), stored(i + 1)];
            for_cascade_blocks(ws.len(), |s, e| {
                let [d0, d1] = dots_stored_block(&ws[s..e], vs.map(|v| &v[s..e]));
                out[i] += d0;
                out[i + 1] += d1;
            });
            i += 2;
        }
        if i < count {
            // One block through the single-dot chunk kernel is one term of
            // that kernel's own cascade over the chunk.
            let v = stored(i);
            for_cascade_blocks(ws.len(), |s, e| out[i] += dot_stored_chunk(&ws[s..e], &v[s..e]));
        }
    });
}

/// `K` dots of one cascade block of `x` against stored vectors, each in the
/// pair kernel's layout: four independent accumulator lanes plus a tail,
/// folded into `f64`.  The dots share the loads of `x` and nothing else, so
/// each is bitwise the same whatever `K` it is computed beside.
fn dots_stored_block<T: Scalar, S: Scalar, const K: usize>(x: &[T], vs: [&[S]; K]) -> [f64; K] {
    let (xq, xt) = x.as_chunks::<4>();
    let vq = vs.map(|v| v[..x.len()].as_chunks::<4>().0);
    let mut acc = [[<T::Accum as Scalar>::zero(); 4]; K];
    for (q, x4) in xq.iter().enumerate() {
        let x4 = x4.map(Scalar::widen);
        for (a, v) in acc.iter_mut().zip(&vq) {
            for l in 0..4 {
                a[l] += x4[l] * <T::Accum as FromScalar>::from_scalar(v[q][l]);
            }
        }
    }
    let mut tail = [<T::Accum as Scalar>::zero(); K];
    let t0 = xq.len() * 4;
    for (j, &xj) in xt.iter().enumerate() {
        let xv = xj.widen();
        for (t, v) in tail.iter_mut().zip(&vs) {
            *t += xv * <T::Accum as FromScalar>::from_scalar(v[t0 + j]);
        }
    }
    from_fn(|d| (((acc[d][0] + acc[d][1]) + (acc[d][2] + acc[d][3])) + tail[d]).to_f64())
}

/// `y ← y + alpha * (scale · v)` with `v` a compressed basis vector: the
/// coefficient and the amplitude scale fold into one scalar, so the loop is
/// exactly an [`axpy`] whose source widens from the storage precision.
pub fn axpy_scaled_from<T: Scalar, S: Scalar>(alpha: f64, v: &[S], scale: f64, y: &mut [T]) {
    assert_eq!(v.len(), y.len(), "axpy_scaled_from: length mismatch");
    let c = alpha * scale;
    if v.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(y, MIN_LEN_PER_TASK, |base, chunk| {
            axpy_stored(c, &v[base..base + chunk.len()], chunk);
        });
    } else {
        axpy_stored(c, v, y);
    }
}

/// `w ← w − Σ_i h[i] · (s_i · v_i)` over the compressed basis vectors
/// `(v_i, s_i) = basis(i)`, returning `‖w_new‖²` — the update half of
/// classical Gram–Schmidt, in one read and one write of `w`.
///
/// A span of `w` (eight cascade blocks) takes the updates of `v_0, v_1, …`
/// in order while it stays in cache, four (or two) vectors per pass, so every
/// element sees exactly the operations of one [`axpy_scaled_from`] per
/// vector (a coefficient outside the accumulator's range takes that
/// kernel's `f64` path for its vector).  The norm adds the squares of the
/// stored results as the fused last update of the per-vector sequence did:
/// one accumulator per cascade block, summed over pool chunks in order.
///
/// # Panics
/// Panics if `h` is empty or a basis vector's length differs from `w`'s.
#[must_use]
pub fn subtract_projections<'b, T: Scalar, S: Scalar + 'b>(
    basis: impl Fn(usize) -> (&'b [S], f64) + Sync,
    h: &[f64],
    w: &mut [T],
) -> f64 {
    let n = w.len();
    assert!(!h.is_empty(), "subtract_projections: no basis vectors");
    assert!((0..h.len()).all(|i| basis(i).0.len() == n), "subtract_projections: length mismatch");
    if n < PAR_LEN_THRESHOLD {
        return subtract_chunk(w, 0, &basis, h);
    }
    // SAFETY: the pool tasks below take the disjoint ranges of one split of
    // `0..n`, each only its own elements of `w`, and the split returns
    // inside this borrow of `w`.
    let base = unsafe { f3r_parallel::SyncPtr::new(w.as_mut_ptr()) };
    with_range_partials(
        n,
        1,
        |range, out| {
            // SAFETY: `range` is this task's own part of `w` (see `base`).
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
            out[0] = subtract_chunk(chunk, range.start, &basis, h);
        },
        |partials, ranges| partials[..ranges].iter().sum(),
    )
}

/// [`subtract_projections`] on one chunk of `w` (elements `at..` of the
/// whole vector), returning the chunk's `‖w_new‖²`: span by span, the
/// updates in order, then the squares of the span's stored results.
fn subtract_chunk<'b, T: Scalar, S: Scalar + 'b>(
    w: &mut [T],
    at: usize,
    basis: &impl Fn(usize) -> (&'b [S], f64),
    h: &[f64],
) -> f64 {
    let coeff = |i: usize| -h[i] * basis(i).1;
    let last_fits = coeff_fits::<T::Accum>(coeff(h.len() - 1));
    let mut total = 0.0f64;
    for_spans(w.len(), SWEEP_SPAN, |lo, hi| {
        let ws = &mut w[lo..hi];
        let stored = |i: usize| &basis(i).0[at + lo..at + hi];
        let mut i = 0;
        while i < h.len() {
            // Four (or two) consecutive vectors whose coefficients fit the
            // accumulator update the span in one pass.
            let mut run = 0;
            while run < 4 && i + run < h.len() && coeff_fits::<T::Accum>(coeff(i + run)) {
                run += 1;
            }
            i += match run {
                0 | 1 => {
                    axpy_stored(coeff(i), stored(i), ws);
                    1
                }
                2 | 3 => {
                    axpy_stored_many::<_, _, 2>(from_fn(|k| coeff(i + k)), from_fn(|k| stored(i + k)), ws);
                    2
                }
                _ => {
                    axpy_stored_many::<_, _, 4>(from_fn(|k| coeff(i + k)), from_fn(|k| stored(i + k)), ws);
                    4
                }
            };
        }
        add_squares(ws, last_fits, &mut total);
    });
    total
}

/// `y ← y + c · v` with `v` stored: one widening of `v`, the multiply and
/// add in the accumulator, one narrowing — or, when `c` does not survive
/// conversion into the accumulator, the same in `f64`.
fn axpy_stored<T: Scalar, S: Scalar>(c: f64, v: &[S], y: &mut [T]) {
    if coeff_fits::<T::Accum>(c) {
        axpy_stored_many([c], [v], y);
    } else {
        for (yi, &vi) in y.iter_mut().zip(v) {
            *yi = T::from_f64(vi.to_f64() * c + yi.to_f64());
        }
    }
}

/// [`axpy_stored`] for `K` vectors whose coefficients all fit the
/// accumulator, in order: each element takes the `K` updates one after the
/// other, narrowed after each, in one pass over `y` that streams the `K`
/// vectors at once.
fn axpy_stored_many<T: Scalar, S: Scalar, const K: usize>(cs: [f64; K], vs: [&[S]; K], y: &mut [T]) {
    if f3r_simd::try_axpy_stored(cs, vs, y) {
        return;
    }
    let a = cs.map(<T::Accum as Scalar>::from_f64);
    for (i, yi) in y.iter_mut().enumerate() {
        for (&ak, v) in a.iter().zip(&vs) {
            *yi = T::narrow(<T::Accum as FromScalar>::from_scalar(v[i]) * ak + yi.widen());
        }
    }
}

/// Add the squares of `y`'s values to `total` the way the last update of the
/// per-vector sequence did: one accumulator per cascade block, each block's
/// sum added in block order — or, when the last coefficient took the `f64`
/// path, straight into `total` element by element.  A whole sweep span steps
/// its blocks in lockstep, so their chains overlap.
fn add_squares<T: Scalar>(y: &[T], fits: bool, total: &mut f64) {
    const BLOCKS: usize = SWEEP_SPAN / CASCADE_BLOCK;
    let square = |v: T| {
        let w = v.widen();
        w * w
    };
    if !fits {
        for v in y {
            let w = v.to_f64();
            *total += w * w;
        }
    } else if let Ok(span) = <&[T; SWEEP_SPAN]>::try_from(y) {
        let blocks: &[[T; CASCADE_BLOCK]; BLOCKS] = span.as_chunks().0.try_into().expect("a span is whole blocks");
        let mut s = [<T::Accum as Scalar>::zero(); BLOCKS];
        for e in 0..CASCADE_BLOCK {
            for (sb, block) in s.iter_mut().zip(blocks) {
                *sb += square(block[e]);
            }
        }
        for sb in s {
            *total += sb.to_f64();
        }
    } else {
        for_cascade_blocks(y.len(), |start, end| {
            *total += y[start..end].iter().fold(<T::Accum as Scalar>::zero(), |s, &v| s + square(v)).to_f64();
        });
    }
}

/// Run `task(range, partials)` on each range of the pool's split of
/// `0..len`, range `i` writing its `width` partials to slots
/// `i * width ..` of this thread's scratch, then return
/// `fold(filled slots, range count)`.  The split is [`dot`]'s, and nothing
/// is allocated once the scratch has grown.
fn with_range_partials<R>(
    len: usize,
    width: usize,
    task: impl Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
    fold: impl FnOnce(&[f64], usize) -> R,
) -> R {
    let slots = f3r_parallel::current_num_threads();
    <f64 as Scalar>::with_scratch(slots * width, |partials| {
        // SAFETY: range `i` writes only slots `i * width .. (i + 1) * width`,
        // inside the scratch (checked below), and the split returns before
        // the scratch is read again.
        let base = unsafe { f3r_parallel::SyncPtr::new(partials.as_mut_ptr()) };
        let ranges = f3r_parallel::par_ranges_indexed(len, MIN_LEN_PER_TASK, |i, range| {
            assert!(i < slots, "the pool split {len} elements into more than {slots} ranges");
            // SAFETY: slots of range `i` only, in bounds (see `base`).
            let out = unsafe { std::slice::from_raw_parts_mut(base.get().add(i * width), width) };
            task(range, out);
        });
        fold(&partials[..ranges * width], ranges)
    })
}

/// Euclidean norm `‖scale · v‖₂` of a compressed basis vector, accumulated
/// in the storage precision's accumulator with the usual `f64` cascade.
#[must_use]
pub fn norm2_compressed<S: Scalar>(v: &[S], scale: f64) -> f64 {
    dot(v, v).sqrt() * scale.abs()
}

/// Set every element of `x` to zero.
pub fn set_zero<T: Scalar>(x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi = T::zero();
    }
}

/// Element-wise product `z ← x ⊙ y` (used by diagonal preconditioning).
///
/// Follows the single-widening convention (one widening per operand, one
/// [`Scalar::narrow`] per element), unrolled by four so LLVM vectorises the
/// fp32/fp64 instantiations, and dispatches to the worker pool above
/// [`PAR_LEN_THRESHOLD`] like the other element-wise kernels.
pub fn hadamard<T: Scalar>(x: &[T], y: &[T], z: &mut [T]) {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    assert_eq!(x.len(), z.len(), "hadamard: length mismatch");
    let body = |base: usize, chunk: &mut [T]| {
        let xs = &x[base..base + chunk.len()];
        let ys = &y[base..base + chunk.len()];
        let n4 = chunk.len() & !3;
        let mut i = 0;
        while i < n4 {
            for k in 0..4 {
                chunk[i + k] = T::narrow(xs[i + k].widen() * ys[i + k].widen());
            }
            i += 4;
        }
        for j in n4..chunk.len() {
            chunk[j] = T::narrow(xs[j].widen() * ys[j].widen());
        }
    };
    if x.len() >= PAR_LEN_THRESHOLD {
        f3r_parallel::par_chunks_mut(z, MIN_LEN_PER_TASK, body);
    } else {
        body(0, z);
    }
}

/// Maximum absolute entry `‖x‖_∞`.
///
/// Four independent max chains (max selection commutes, so the unrolled fold
/// is exactly the sequential fold); each element is widened once into
/// `T::Accum` before the comparison.  NaN entries never replace the running
/// max — the `>` comparison is false for NaN — matching the scalar fold this
/// kernel always used, and the SIMD backend replicates exactly.
#[must_use]
pub fn norm_inf<T: Scalar>(x: &[T]) -> f64 {
    if let Some(m) = f3r_simd::try_norm_inf(x) {
        return m;
    }
    let mut m = [<T::Accum as Scalar>::zero(); 4];
    let mut x4 = x.chunks_exact(4);
    for c in &mut x4 {
        for k in 0..4 {
            let v = c[k].widen().abs();
            if v > m[k] {
                m[k] = v;
            }
        }
    }
    let mut best = <T::Accum as Scalar>::zero();
    for mk in m {
        if mk > best {
            best = mk;
        }
    }
    for &v in x4.remainder() {
        let v = v.widen().abs();
        if v > best {
            best = v;
        }
    }
    best.to_f64()
}

/// Sum of the entries, accumulated in `T::Accum` over eight independent
/// chains with the shared `f64` cascade every 4096 elements — the same
/// single-widening reduction scheme as [`dot`].
#[must_use]
pub fn sum<T: Scalar>(x: &[T]) -> f64 {
    let mut total = 0.0f64;
    for_cascade_blocks(x.len(), |start, end| {
        let xb = &x[start..end];
        let mut acc = [<T::Accum as Scalar>::zero(); 8];
        let mut x8 = xb.chunks_exact(8);
        for c in &mut x8 {
            for k in 0..8 {
                acc[k] += c[k].widen();
            }
        }
        let mut tail = <T::Accum as Scalar>::zero();
        for &v in x8.remainder() {
            tail += v.widen();
        }
        let p0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let p1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        total += ((p0 + p1) + tail).to_f64();
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use half::f16;

    #[test]
    fn dot_and_norm_small() {
        let x = vec![1.0f64, 2.0, 3.0];
        let y = vec![4.0f64, -5.0, 6.0];
        assert!((dot(&x, &y) - 12.0).abs() < 1e-14);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn dot_parallel_matches_serial() {
        let n = PAR_LEN_THRESHOLD + 1234;
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 1e-3).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 89) as f64) * 1e-3).collect();
        let serial = dot_chunk(&x, &y);
        let par = dot(&x, &y);
        assert!((serial - par).abs() < 1e-9 * serial.abs());
    }

    #[test]
    fn fp16_dot_accumulates_in_fp32() {
        // 4096 ones: a pure fp16 accumulation would saturate at 2048
        // (adding 1 to 2048 in fp16 is a no-op); fp32 accumulation is exact.
        let x = vec![f16::from_f32(1.0); 4096];
        assert_eq!(dot(&x, &x), 4096.0);
    }

    #[test]
    fn fused_axpy_norm2_matches_separate_ops() {
        for n in [5usize, 64, 1003] {
            let x: Vec<f32> = (0..n).map(|i| ((i % 23) as f32 - 11.0) / 23.0).collect();
            let mut y1: Vec<f32> = (0..n).map(|i| ((i % 19) as f32 - 9.0) / 19.0).collect();
            let mut y2 = y1.clone();
            axpy(0.37, &x, &mut y1);
            let nn = axpy_norm2(0.37, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
            assert!((nn.sqrt() - norm2(&y1)).abs() < 1e-6, "n={n}");
        }
    }

    #[test]
    fn fused_waxpby_norm2_matches_separate_ops() {
        for n in [3usize, 64, 4097, 9001] {
            let x: Vec<f32> = (0..n).map(|i| ((i % 23) as f32 - 11.0) / 23.0).collect();
            let y: Vec<f32> = (0..n).map(|i| ((i % 19) as f32 - 9.0) / 19.0).collect();
            let mut w1 = vec![0.0f32; n];
            let mut w2 = vec![0.0f32; n];
            waxpby(1.0, &x, -0.75, &y, &mut w1);
            let nn = waxpby_norm2(1.0, &x, -0.75, &y, &mut w2);
            assert_eq!(w1, w2, "n={n}");
            assert!((nn.sqrt() - norm2(&w1)).abs() < 1e-5 * (1.0 + norm2(&w1)), "n={n}");
        }
    }

    #[test]
    fn long_fp32_dot_stays_accurate_via_f64_cascade() {
        // 2^20 identical entries: a single f32 accumulation chain would lose
        // ~2^-4 relative accuracy; the 4096-element f64 cascade keeps the
        // result within a few f32 ulps of exact.
        let n = 1 << 20;
        let x = vec![1.000_001f32; n];
        let exact = f64::from(x[0]) * f64::from(x[0]) * n as f64;
        let got = dot(&x, &x);
        assert!(
            (got - exact).abs() < 1e-4 * exact,
            "{got} vs {exact} (rel {})",
            ((got - exact) / exact).abs()
        );
    }

    #[test]
    fn axpy_variants() {
        let x = vec![1.0f32, 2.0, 3.0];
        let mut y = vec![10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);

        let mut y2 = vec![10.0f32, 20.0, 30.0];
        axpby(2.0, &x, 0.5, &mut y2);
        assert_eq!(y2, vec![7.0, 14.0, 21.0]);

        let mut w = vec![0.0f32; 3];
        waxpby(1.0, &x, -1.0, &y, &mut w);
        assert_eq!(w, vec![-11.0, -22.0, -33.0]);
    }

    #[test]
    fn fp16_axpy_widens_through_fp32() {
        // alpha below fp16 resolution relative to y must still contribute
        // through the fp32 arithmetic before the final rounding.
        let x = vec![f16::from_f32(1.0); 4];
        let mut y = vec![f16::from_f32(1.0); 4];
        axpy(f64::from(f16::EPSILON) * 0.75, &x, &mut y);
        // 1 + 0.75*eps rounds to 1 + eps in round-to-nearest? No: halfway is
        // 0.5*eps, 0.75 eps is above it, so it rounds up.
        assert!(y.iter().all(|&v| v.to_f32() > 1.0));
    }

    #[test]
    fn scale_zero_hadamard() {
        let mut x = vec![1.0f64, -2.0, 3.0];
        scale(3.0, &mut x);
        assert_eq!(x, vec![3.0, -6.0, 9.0]);
        let y = vec![2.0f64, 0.5, 1.0];
        let mut z = vec![0.0f64; 3];
        hadamard(&x, &y, &mut z);
        assert_eq!(z, vec![6.0, -3.0, 9.0]);
        set_zero(&mut x);
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    fn inf_norm_and_sum() {
        let x = vec![1.0f64, -5.0, 3.0];
        assert_eq!(norm_inf(&x), 5.0);
        assert_eq!(sum(&x), -1.0);
        assert_eq!(norm_inf::<f64>(&[]), 0.0);
    }

    #[test]
    fn large_parallel_axpy_matches_serial() {
        let n = PAR_LEN_THRESHOLD + 717;
        let x: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let mut y1: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let mut y2 = y1.clone();
        // force serial by updating manually
        for (yi, &xi) in y1.iter_mut().zip(x.iter()) {
            *yi += xi * 0.25;
        }
        axpy(0.25, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_dot_panics() {
        let _ = dot(&[1.0f64, 2.0], &[1.0f64]);
    }

    // --- compressed-basis kernels -----------------------------------------

    #[test]
    fn narrow_scaled_round_trip_is_exact_in_same_precision() {
        // Same-precision storage takes the fast path: values stored as-is,
        // alpha carried entirely in the scale, no amplitude reduction.
        let src: Vec<f64> = (0..257).map(|i| ((i * 37) % 101) as f64 / 7.0 - 6.0).collect();
        let mut stored = vec![0.0f64; src.len()];
        let scale = narrow_scaled_into(0.5, &src, &mut stored);
        assert_eq!(scale, 0.5);
        assert_eq!(stored, src);
        let mut back = vec![0.0f64; src.len()];
        widen_scaled_into(scale, &stored, &mut back);
        for (&b, &s) in back.iter().zip(src.iter()) {
            assert_eq!(b, 0.5 * s);
        }
    }

    #[test]
    fn narrow_scaled_cross_precision_bounds_stored_magnitudes() {
        // The compressing path normalises into |stored| <= 1 so fp16 storage
        // stays inside its exponent range.
        let src: Vec<f32> = (0..257).map(|i| ((i * 37) % 101) as f32 / 7.0 - 6.0).collect();
        let mut stored = vec![f16::from_f32(0.0); src.len()];
        let _ = narrow_scaled_into(1.0, &src, &mut stored);
        assert!(stored.iter().all(|v| v.to_f64().abs() <= 1.0));
    }

    #[test]
    fn narrow_scaled_fp16_error_is_bounded_by_storage_eps() {
        // |scale·stored − src| <= 2^-11 · 2^k <= 2^-10 · max|src| element-wise
        // (one round-to-nearest in fp16 on values scaled into [-1, 1]).
        let src: Vec<f64> = (0..1000).map(|i| (((i * 29) % 211) as f64 - 105.0) * 0.37).collect();
        let amax = src.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut stored = vec![f16::from_f32(0.0); src.len()];
        let scale = narrow_scaled_into(1.0, &src, &mut stored);
        let bound = amax * f64::from(f16::EPSILON);
        for (&s, &x) in stored.iter().zip(src.iter()) {
            assert!((scale * s.to_f64() - x).abs() <= bound, "{s} vs {x}");
        }
    }

    #[test]
    fn narrow_scaled_applies_alpha_through_the_scale() {
        let src = vec![2.0f64, -4.0, 8.0];
        let mut stored = vec![f16::from_f32(0.0); 3];
        let scale = narrow_scaled_into(0.25, &src, &mut stored);
        // amax = 8 -> 2^3; scale = 0.25 * 8 = 2; represented = src / 4.
        assert_eq!(scale, 2.0);
        let rep: Vec<f64> = stored.iter().map(|s| scale * s.to_f64()).collect();
        assert_eq!(rep, vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn narrow_scaled_zero_vector_gives_zero_scale() {
        let src = vec![0.0f32; 16];
        let mut stored = vec![f16::from_f32(7.0); 16];
        assert_eq!(narrow_scaled_into(3.0, &src, &mut stored), 0.0);
        assert!(stored.iter().all(|v| v.to_f64() == 0.0));
        assert_eq!(norm2_compressed(&stored, 0.0), 0.0);
    }

    #[test]
    fn narrow_scaled_survives_fp16_dynamic_range() {
        // Values far outside fp16's representable range (max 65504) and far
        // below its subnormal floor survive compression because the scale
        // carries the magnitude.
        for huge in [1e9f64, 1e-9f64] {
            let src = vec![huge, -0.5 * huge, 0.25 * huge];
            let mut stored = vec![f16::from_f32(0.0); 3];
            let scale = narrow_scaled_into(1.0, &src, &mut stored);
            for (&s, &x) in stored.iter().zip(src.iter()) {
                let err = (scale * s.to_f64() - x).abs();
                assert!(err <= huge * f64::from(f16::EPSILON), "{err} for {x}");
            }
        }
    }

    #[test]
    fn extreme_amplitudes_survive_fp32_working_precision() {
        // Amplitudes near the edges of f32's range: the scale (or its
        // reciprocal) does not fit an f32 accumulator even though every
        // element-wise product is representable.  The kernels must fall back
        // to the f64 path instead of producing inf/NaN.
        for amp in [1.0e-41f64, 3.0e38f64] {
            let src: Vec<f32> = (0..64)
                .map(|i| ((i % 7) as f64 / 7.0 * amp) as f32)
                .collect();
            let mut stored = vec![f16::from_f32(0.0); src.len()];
            let scale = narrow_scaled_into(1.0, &src, &mut stored);
            assert!(scale.is_finite(), "amp {amp}: scale {scale}");
            assert!(stored.iter().all(|v| v.is_finite()), "amp {amp}");
            let mut back = vec![0.0f32; src.len()];
            widen_scaled_into(scale, &stored, &mut back);
            for (&b, &s) in back.iter().zip(src.iter()) {
                assert!(b.is_finite(), "amp {amp}");
                let err = (f64::from(b) - f64::from(s)).abs();
                assert!(err <= amp * f64::from(f16::EPSILON), "amp {amp}: {b} vs {s}");
            }
            let mut y = vec![0.0f32; src.len()];
            axpy_scaled_from(1.0, &stored, scale, &mut y);
            assert!(y.iter().all(|v| v.is_finite()), "amp {amp}");
            let mut y2 = vec![0.0f32; src.len()];
            let nn = subtract_projections(|_| (&stored[..], scale), &[-1.0], &mut y2);
            assert!(nn.is_finite(), "amp {amp}");
            assert_eq!(y, y2, "amp {amp}");
        }
    }

    #[test]
    fn dot_compressed_matches_reference_dot_on_widened_copy() {
        let n = 1003;
        let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 23.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i % 19) as f64 - 9.0) / 19.0).collect();
        let mut stored = vec![f16::from_f32(0.0); n];
        let scale = narrow_scaled_into(1.0, &v, &mut stored);
        // Reference: decompress into f64 and use the plain dot.
        let mut widened = vec![0.0f64; n];
        widen_scaled_into(scale, &stored, &mut widened);
        let reference = dot(&x, &widened);
        let got = dot_compressed(&x, &stored, scale);
        assert!((got - reference).abs() < 1e-12 * n as f64, "{got} vs {reference}");
        // And both sit within the fp16 storage error of the exact dot.
        let exact = dot(&x, &v);
        assert!((got - exact).abs() < n as f64 * f64::from(f16::EPSILON));
    }

    #[test]
    fn dot2_compressed_matches_two_single_dots() {
        let n = 513;
        let x: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) / 17.0).collect();
        let v1: Vec<f32> = (0..n).map(|i| ((i % 13) as f32 - 6.0) / 13.0).collect();
        let v2: Vec<f32> = (0..n).map(|i| ((i % 11) as f32 - 5.0) / 11.0).collect();
        let mut s1 = vec![f16::from_f32(0.0); n];
        let mut s2 = vec![f16::from_f32(0.0); n];
        let sc1 = narrow_scaled_into(1.0, &v1, &mut s1);
        let sc2 = narrow_scaled_into(1.0, &v2, &mut s2);
        let (d1, d2) = dot2_compressed(&x, &s1, sc1, &s2, sc2);
        let tol = 4.0 * n as f64 * f64::from(f32::EPSILON);
        assert!((d1 - dot_compressed(&x, &s1, sc1)).abs() < tol);
        assert!((d2 - dot_compressed(&x, &s2, sc2)).abs() < tol);
    }

    #[test]
    fn axpy_scaled_from_matches_decompress_then_axpy() {
        for n in [5usize, 64, 1003] {
            let v: Vec<f64> = (0..n).map(|i| ((i % 31) as f64 - 15.0) * 0.8).collect();
            let mut stored = vec![f16::from_f32(0.0); n];
            let scale = narrow_scaled_into(1.0, &v, &mut stored);
            let mut widened = vec![0.0f64; n];
            widen_scaled_into(scale, &stored, &mut widened);

            let mut y1: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
            let mut y2 = y1.clone();
            axpy(-0.37, &widened, &mut y1);
            axpy_scaled_from(-0.37, &stored, scale, &mut y2);
            assert_eq!(y1, y2, "n={n}");

            let mut y3: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
            let nn = subtract_projections(|_| (&stored[..], scale), &[0.37], &mut y3);
            assert_eq!(y1, y3, "n={n}");
            assert!((nn.sqrt() - norm2(&y1)).abs() < 1e-9 * (1.0 + norm2(&y1)), "n={n}");
        }
    }

    #[test]
    fn norm2_compressed_matches_widened_norm() {
        let v: Vec<f32> = (0..777).map(|i| ((i % 41) as f32 - 20.0) * 3.0).collect();
        let mut stored = vec![f16::from_f32(0.0); v.len()];
        let scale = narrow_scaled_into(1.0, &v, &mut stored);
        let mut widened = vec![0.0f32; v.len()];
        widen_scaled_into(scale, &stored, &mut widened);
        let got = norm2_compressed(&stored, scale);
        assert!((got - norm2(&widened)).abs() < 1e-3 * got);
    }

    #[test]
    fn compressed_kernels_parallel_match_serial() {
        // Above PAR_LEN_THRESHOLD the pool dispatch path must agree with the
        // sequential path.
        let n = PAR_LEN_THRESHOLD + 321;
        let v: Vec<f64> = (0..n).map(|i| ((i % 97) as f64 - 48.0) * 1e-2).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i % 89) as f64 - 44.0) * 1e-2).collect();
        let mut stored = vec![f16::from_f32(0.0); n];
        let scale = narrow_scaled_into(1.0, &v, &mut stored);
        let serial_dot: f64 = dot_stored_chunk(&x, &stored) * scale;
        let par_dot = dot_compressed(&x, &stored, scale);
        assert!((serial_dot - par_dot).abs() < 1e-9 * serial_dot.abs().max(1.0));
        let mut y1 = x.clone();
        let mut y2 = x.clone();
        axpy_chunk(<f64 as Scalar>::from_f64(0.5 * scale), &{
            let mut w = vec![0.0f64; n];
            widen_scaled_into(1.0, &stored, &mut w);
            w
        }, &mut y1);
        axpy_scaled_from(0.5, &stored, scale, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
