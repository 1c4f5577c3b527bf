//! x86-64 AVX2+FMA+F16C panel (eight-column) SpMM kernels, world A only
//! (f32 accumulation: fp16 and fp32 vectors).
//!
//! A panel product multiplies one CSR matrix against up to eight vectors at
//! once.  The vectors arrive *interleaved*: row `j` of the scratch `xt` holds
//! the eight columns' entries `x_0[j] … x_7[j]`, already widened to f32, so
//! each stored `a_ij` costs one broadcast, one contiguous eight-lane load of
//! `xt[col]` and one FMA — no gather.  Lane `c` of every vector register
//! below belongs to column `c`.
//!
//! # Mirrored summation trees
//!
//! Each lane must end up with exactly the bits the single-vector kernel
//! produces for that column, so the row kernel keeps, per column, the same
//! partial sums in the same order as [`spmv_row_a`](super::x86::spmv_row_a):
//! sixteen partial sums (the eight lanes of its `acc0` and of its `acc1`),
//! the trailing block of eight folded into `acc0`, the scalar
//! multiply-then-add tail, and the `hsum_ps` reduction order.  Rows shorter
//! than eight entries never reach the single-vector SIMD kernel; they take
//! the four-chain tree of the scalar `spmv_row` (separate multiply and add),
//! reproduced here in registers.
//!
//! Everything is `unsafe fn` under `#[target_feature]`; see the module docs
//! of [`super::x86`] for the dispatch contract that makes calling them sound.

#![allow(clippy::missing_safety_doc)] // module-level contract documented above

use core::arch::x86_64::*;
use core::ops::Range;

use f3r_precision::Scalar;
use half::f16;

use crate::panel::{PanelSink, PANEL_LANES};
use crate::x86::{Lane8, Lane8Dst};

/// One stored value widened to f32 and broadcast to all eight lanes, bit for
/// bit `FromScalar::<f32>::from_scalar` of that value.
pub(crate) trait Bcast8: Lane8 {
    /// # Safety
    /// One element must be readable at `p`; AVX2+F16C context.
    unsafe fn bc8(p: *const Self) -> __m256;
}

impl Bcast8 for f16 {
    // SAFETY: per the Bcast8 contract — one readable f16 at `p`, F16C on.
    #[inline(always)]
    unsafe fn bc8(p: *const Self) -> __m256 {
        // Hardware widening of the one value (exact, like the software one).
        let bits = _mm_set1_epi16((*p).to_bits().cast_signed());
        _mm256_cvtph_ps(bits)
    }
}

impl Bcast8 for f32 {
    // SAFETY: per the Bcast8 contract — one readable f32 at `p`, AVX on.
    #[inline(always)]
    unsafe fn bc8(p: *const Self) -> __m256 {
        _mm256_broadcast_ss(&*p)
    }
}

/// Transpose an 8×8 block of f32 held as eight row registers.
// SAFETY: pure register shuffles; AVX proven by the caller's context.
#[inline(always)]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// Interleave `cols ≤ 8` columns of a column-major panel (column `c` starts
/// at `xs + c * stride`) into row-major eight-lane rows: `xt[r][c]` is the
/// widened entry `row0 + r` of column `c`; lanes from `cols` up are zero.
// SAFETY: AVX2+FMA+F16C context; caller guarantees every column holds rows
// `row0 .. row0 + xt.len()`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn interleave_a<TV: Lane8>(
    xs: *const TV,
    stride: usize,
    cols: usize,
    row0: usize,
    xt: &mut [[f32; PANEL_LANES]],
) {
    let n = xt.len();
    let mut r = 0;
    while r + 8 <= n {
        let mut v = [_mm256_setzero_ps(); 8];
        for (c, vc) in v.iter_mut().enumerate().take(cols) {
            *vc = TV::ld8(xs.add(c * stride + row0 + r));
        }
        let t = transpose8(v);
        for (k, tk) in t.iter().enumerate() {
            _mm256_storeu_ps(xt[r + k].as_mut_ptr(), *tk);
        }
        r += 8;
    }
    for (k, row) in xt.iter_mut().enumerate().skip(r) {
        *row = [0.0; PANEL_LANES];
        for (c, lane) in row.iter_mut().enumerate().take(cols) {
            *lane = (*xs.add(c * stride + row0 + k)).to_f32();
        }
    }
}

/// The inverse of [`interleave_a`] with one narrowing: `w[r][c]` rounded to
/// `TV` goes to entry `r` of column `c` (`out + c * stride`), for the first
/// `cols` lanes.
// SAFETY: AVX2+FMA+F16C context; caller guarantees `w.len()` writable
// elements at `out + c * stride` for every `c < cols`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn deinterleave_a<TV: Lane8Dst>(
    w: &[[f32; PANEL_LANES]],
    cols: usize,
    out: *mut TV,
    stride: usize,
) {
    let n = w.len();
    let mut r = 0;
    while r + 8 <= n {
        let mut v = [_mm256_setzero_ps(); 8];
        for (k, vk) in v.iter_mut().enumerate() {
            *vk = _mm256_loadu_ps(w[r + k].as_ptr());
        }
        let t = transpose8(v);
        for (c, tc) in t.iter().enumerate().take(cols) {
            TV::st8(out.add(c * stride + r), *tc);
        }
        r += 8;
    }
    for (k, row) in w.iter().enumerate().skip(r) {
        for (c, &lane) in row.iter().enumerate().take(cols) {
            out.add(c * stride + k).write(TV::from_f32(lane));
        }
    }
}

/// Round one row accumulator into the vector precision: the plain store, the
/// scaled row fold, the residual `b − a·x` and the scaled residual, each
/// exactly as the epilogues of `f3r_sparse::spmm` finish a row.
#[inline(always)]
fn panel_finish<TV: Scalar>(acc: TV::Accum, scale: Option<f64>, rhs: Option<TV>) -> TV {
    match (scale, rhs) {
        (None, None) => TV::narrow(acc),
        (None, Some(b)) => TV::narrow(b.widen() - acc),
        (Some(s), None) => TV::from_f64(acc.to_f64() * s),
        (Some(s), Some(b)) => TV::from_f64(b.to_f64() - acc.to_f64() * s),
    }
}

/// One row against the interleaved panel: lane `c` is bitwise the
/// single-vector kernel's accumulator for column `c` (see the module docs).
// SAFETY: inlined into a `#[target_feature]` kernel, which supplies the
// instruction set; `n` entries readable at `cp`/`vp`, every column index a
// valid row of `xt`.
#[inline(always)]
unsafe fn panel_row_a<TA: Bcast8>(cp: *const u32, vp: *const TA, n: usize, xt: *const f32) -> __m256 {
    let x = |i: usize| _mm256_loadu_ps(xt.add(*cp.add(i) as usize * PANEL_LANES));
    if n < 8 {
        // The scalar `spmv_row` tree: four chains over blocks of four, the
        // remainder into the first, `(a0 + a1) + (a2 + a3)`; multiply and
        // add stay separate.
        let mut a = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        if n >= 4 {
            for (q, aq) in a.iter_mut().enumerate() {
                *aq = _mm256_add_ps(*aq, _mm256_mul_ps(TA::bc8(vp.add(q)), x(q)));
            }
            i = 4;
        }
        while i < n {
            a[0] = _mm256_add_ps(a[0], _mm256_mul_ps(TA::bc8(vp.add(i)), x(i)));
            i += 1;
        }
        return _mm256_add_ps(_mm256_add_ps(a[0], a[1]), _mm256_add_ps(a[2], a[3]));
    }
    // `a[l]` is lane `l` of the single-vector `acc0`, `a[8 + l]` of `acc1`.
    let mut a = [_mm256_setzero_ps(); 16];
    // Eight consecutive values widened at once, then broadcast one by one.
    let mut w = [0.0f32; 8];
    let mut i = 0;
    while i + 16 <= n {
        _mm256_storeu_ps(w.as_mut_ptr(), TA::ld8(vp.add(i)));
        for l in 0..8 {
            a[l] = _mm256_fmadd_ps(_mm256_broadcast_ss(&w[l]), x(i + l), a[l]);
        }
        _mm256_storeu_ps(w.as_mut_ptr(), TA::ld8(vp.add(i + 8)));
        for l in 0..8 {
            a[8 + l] = _mm256_fmadd_ps(_mm256_broadcast_ss(&w[l]), x(i + 8 + l), a[8 + l]);
        }
        i += 16;
    }
    if i + 8 <= n {
        _mm256_storeu_ps(w.as_mut_ptr(), TA::ld8(vp.add(i)));
        for l in 0..8 {
            a[l] = _mm256_fmadd_ps(_mm256_broadcast_ss(&w[l]), x(i + l), a[l]);
        }
        i += 8;
    }
    let mut tail = _mm256_setzero_ps();
    while i < n {
        tail = _mm256_add_ps(tail, _mm256_mul_ps(TA::bc8(vp.add(i)), x(i)));
        i += 1;
    }
    // hsum_ps(acc0 + acc1): lanes l and l + 4, then 0/2 and 1/3, then both.
    let s = |l: usize| _mm256_add_ps(a[l], a[8 + l]);
    let q0 = _mm256_add_ps(s(0), s(4));
    let q1 = _mm256_add_ps(s(1), s(5));
    let q2 = _mm256_add_ps(s(2), s(6));
    let q3 = _mm256_add_ps(s(3), s(7));
    let d = _mm256_add_ps(_mm256_add_ps(q0, q2), _mm256_add_ps(q1, q3));
    _mm256_add_ps(d, tail)
}

/// Rows `rows` of `A X` for one lane group, finished into `sink`
/// (plain store, scaled fold, residual — see [`PanelSink`]).
///
/// Bounds: `row_ptr`/`cols`/`vals` are the arrays of a validated CSR matrix
/// whose column indices are rows of `xt`; `sink` can take rows `rows` of
/// `sink.cols` columns.
// SAFETY: AVX2+FMA+F16C context; CSR invariants and sink extents are the
// caller's contract (`try_spmm_panel`'s safety doc).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn spmm_panel_a<TA: Bcast8, TV: Lane8Dst>(
    row_ptr: &[usize],
    cols: &[u32],
    vals: &[TA],
    xt: &[[f32; PANEL_LANES]],
    rows: Range<usize>,
    sink: &PanelSink<'_, TV>,
) {
    let xt = xt.as_ptr().cast::<f32>();
    let plain = sink.scales.is_none();
    let mut row = rows.start;
    while row < rows.end {
        let cnt = (rows.end - row).min(8);
        // Eight rows' lane vectors, parked in memory between the row kernel
        // (which wants every register) and the transpose.
        let mut acc = [[0.0f32; PANEL_LANES]; 8];
        for (r, slot) in acc.iter_mut().enumerate().take(cnt) {
            let (start, end) = (row_ptr[row + r], row_ptr[row + r + 1]);
            debug_assert!(start <= end && end <= cols.len().min(vals.len()));
            let v = panel_row_a(cols.as_ptr().add(start), vals.as_ptr().add(start), end - start, xt);
            _mm256_storeu_ps(slot.as_mut_ptr(), v);
        }
        let mut regs = [_mm256_setzero_ps(); 8];
        for (reg, slot) in regs.iter_mut().zip(&acc) {
            *reg = _mm256_loadu_ps(slot.as_ptr());
        }
        // `t[c]` holds column c's results for the eight rows.
        let t = transpose8(regs);
        if plain && cnt == 8 {
            for (c, tc) in t.iter().enumerate().take(sink.cols) {
                let at = c * sink.stride + row;
                let v = match sink.rhs {
                    // `narrow(b.widen() - acc)`, eight rows at a time.
                    Some(b) => _mm256_sub_ps(TV::ld8(b.as_ptr().add(at)), *tc),
                    None => *tc,
                };
                TV::st8(sink.out.add(at), v);
            }
        } else {
            for (c, tc) in t.iter().enumerate().take(sink.cols) {
                let mut lane = [0.0f32; 8];
                _mm256_storeu_ps(lane.as_mut_ptr(), *tc);
                for (r, &v) in lane.iter().enumerate().take(cnt) {
                    let at = c * sink.stride + row + r;
                    let done = panel_finish::<TV>(
                        <TV::Accum as Scalar>::from_f32(v),
                        sink.scales.map(|s| s[row + r]),
                        sink.rhs.map(|b| b[at]),
                    );
                    sink.out.add(at).write(done);
                }
            }
        }
        row += cnt;
    }
}
