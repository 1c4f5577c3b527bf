//! Dispatch entry points of the panel (eight-column) SpMM kernels.
//!
//! A panel product `Y = A X` on `k` column-major vectors runs in lane groups
//! of up to [`PANEL_LANES`] columns.  The driver (`f3r_sparse::spmm`)
//! interleaves a group once into a row-major scratch in the accumulation
//! precision ([`try_panel_interleave`]) and then walks the matrix once for
//! the whole group ([`try_spmm_panel`]); both return `false` when the scalar
//! fallback in the driver should run instead, like every other `try_*` of
//! this crate.
//!
//! The contract is stricter than that of the reductions in the crate docs:
//! **every column of a panel product is bitwise the single-vector kernel's
//! result for that column** on the same backend, because the kernels mirror
//! the single-vector summation trees lane by lane (see `x86_panel.rs`).

use core::ops::Range;

use f3r_precision::Scalar;

#[cfg(target_arch = "x86_64")]
use f3r_precision::{SliceView as V, SliceViewMut as VM};

/// Columns of one lane group of the panel kernels.
pub const PANEL_LANES: usize = 8;

/// Where a panel row kernel leaves the rows it computes, and how it finishes
/// each accumulator on the way out: the plain store, the scaled row fold, the
/// residual `b − a·x` and the scaled residual, each exactly as the epilogues
/// of `f3r_sparse::spmm` finish a row.
///
/// Column `c` of the lane group lives at `out + c * stride`; `rhs`, when
/// present, is laid out the same way.
pub struct PanelSink<'a, TV> {
    /// First element of the group's first output column.
    pub out: *mut TV,
    /// Elements between the starts of consecutive columns.
    pub stride: usize,
    /// Live columns of the group (`1..=PANEL_LANES`).
    pub cols: usize,
    /// Per-row power-of-two amplitude scales of scaled matrix storage.
    pub scales: Option<&'a [f64]>,
    /// `B`, for the residual `B − A X`; starts at the group's first column.
    pub rhs: Option<&'a [TV]>,
}

/// `sink` with its element type reified to `U`, when `TV` is `U`.
#[cfg(target_arch = "x86_64")]
fn sink_as<'s, 'a, TV: Scalar, U: Scalar>(sink: &'s PanelSink<'a, TV>) -> Option<&'s PanelSink<'a, U>> {
    if TV::PRECISION != U::PRECISION {
        return None;
    }
    // SAFETY: each precision has exactly one `Scalar` type, so `TV` is `U`
    // and this is an identity cast.
    Some(unsafe { &*core::ptr::from_ref(sink).cast::<PanelSink<'a, U>>() })
}

/// SIMD interleave of `cols` columns of a column-major panel into eight-lane
/// rows in the accumulation precision: `xt[r][c]` becomes the widened entry
/// `row0 + r` of column `c` (column `c` is `xs[c * stride ..]`), lanes from
/// `cols` up become zero.  `false` for fallback (scalar backend, fp64
/// vectors).
///
/// # Panics
/// Panics if `cols` exceeds [`PANEL_LANES`] or a column does not hold rows
/// `row0 .. row0 + xt.len()`.
pub fn try_panel_interleave<TV: Scalar>(
    xs: &[TV],
    stride: usize,
    cols: usize,
    row0: usize,
    xt: &mut [[TV::Accum; PANEL_LANES]],
) -> bool {
    assert!(cols <= PANEL_LANES, "try_panel_interleave: more columns than lanes");
    assert!(
        cols == 0 || (cols - 1) * stride + row0 + xt.len() <= xs.len(),
        "try_panel_interleave: panel too short"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd_active() {
        // SAFETY: feature set per the note above the dispatchers in the
        // crate root; the assertion above bounds every load.
        unsafe {
            match (TV::view(xs), <TV::Accum as Scalar>::view_mut(xt.as_flattened_mut())) {
                (V::F16(x), VM::F32(t)) => {
                    crate::x86_panel::interleave_a(x.as_ptr(), stride, cols, row0, t.as_chunks_mut().0);
                }
                (V::F32(x), VM::F32(t)) => {
                    crate::x86_panel::interleave_a(x.as_ptr(), stride, cols, row0, t.as_chunks_mut().0);
                }
                _ => return false,
            }
        }
        return true;
    }
    let _ = (xs, stride, row0, xt);
    false
}

/// SIMD de-interleave, the inverse of [`try_panel_interleave`] with one
/// narrowing: `w[r][c]` rounded to `TV` is written to `out + c * stride + r`
/// for the first `cols` lanes.  `false` for fallback.
///
/// # Safety
/// `out + c * stride` must be valid for writing `w.len()` elements for every
/// `c < cols`, and no other thread may access those elements during the
/// call.
pub unsafe fn try_panel_deinterleave<TV: Scalar>(
    w: &[[TV::Accum; PANEL_LANES]],
    cols: usize,
    out: *mut TV,
    stride: usize,
) -> bool {
    debug_assert!(cols <= PANEL_LANES);
    #[cfg(target_arch = "x86_64")]
    if crate::simd_active() {
        let V::F32(w) = <TV::Accum as Scalar>::view(w.as_flattened()) else {
            return false;
        };
        let w = w.as_chunks().0;
        // SAFETY: feature set per the note above the dispatchers in the crate
        // root; the output extents are this function's contract, and the
        // pointer casts are identities (`TV` is the matched type).
        unsafe {
            match TV::PRECISION {
                f3r_precision::Precision::Fp16 => {
                    crate::x86_panel::deinterleave_a(w, cols, out.cast::<half::f16>(), stride);
                }
                f3r_precision::Precision::Fp32 => {
                    crate::x86_panel::deinterleave_a(w, cols, out.cast::<f32>(), stride);
                }
                f3r_precision::Precision::Fp64 => return false,
            }
        }
        return true;
    }
    let _ = (w, cols, out, stride);
    false
}

/// SIMD panel SpMM: rows `rows` of `A X` for one lane group, where `A` is
/// the CSR matrix `(row_ptr, cols, vals)` and `xt` the interleaved group
/// ([`try_panel_interleave`]), each row finished into `sink`.  `false` for
/// fallback (scalar backend, fp64 vectors, or more rows in `xt` than 32-bit
/// gather indices reach — the condition under which the single-vector
/// kernel declines too).
///
/// # Safety
/// `(row_ptr, cols, vals)` must be the arrays of a CSR matrix with at least
/// `rows.end` rows whose column indices are all `< xt.len()`; `sink.out` and
/// `sink.rhs` must hold rows `rows` of `sink.cols` columns at `sink.stride`,
/// and no other thread may access those output rows during the call.
pub unsafe fn try_spmm_panel<TA: Scalar, TV: Scalar>(
    row_ptr: &[usize],
    cols: &[u32],
    vals: &[TA],
    xt: &[[TV::Accum; PANEL_LANES]],
    rows: Range<usize>,
    sink: &PanelSink<'_, TV>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if xt.len() <= crate::MAX_GATHER_LEN && crate::simd_active() {
        let V::F32(xt) = <TV::Accum as Scalar>::view(xt.as_flattened()) else {
            return false;
        };
        let xt = xt.as_chunks().0;
        macro_rules! run {
            ($a:expr, $tv:ty) => {
                match sink_as::<TV, $tv>(sink) {
                    // SAFETY: feature set per the note above the dispatchers
                    // in the crate root; bounds are this function's contract.
                    Some(s) => unsafe {
                        crate::x86_panel::spmm_panel_a(row_ptr, cols, $a, xt, rows.clone(), s)
                    },
                    None => unreachable!("the vector view carries its own element type"),
                }
            };
        }
        match (TA::view(vals), TV::PRECISION) {
            (V::F16(a), f3r_precision::Precision::Fp16) => run!(a, half::f16),
            (V::F16(a), f3r_precision::Precision::Fp32) => run!(a, f32),
            (V::F32(a), f3r_precision::Precision::Fp32) => run!(a, f32),
            // fp64 vectors keep the column loop, and no matrix is stored
            // wider than the vectors it meets.
            _ => return false,
        }
        return true;
    }
    let _ = (row_ptr, cols, vals, xt, rows, sink);
    false
}
