//! Slice conversion helpers used by the precision bridges between nesting
//! levels of the F3R solver.
//!
//! Every crossing of a precision boundary in the nested solver (fp64 ↔ fp32
//! between the outermost and middle FGMRES, fp32 ↔ fp16 around the innermost
//! Richardson) is a plain element-wise rounding/widening of a vector; these
//! helpers centralise that operation so the solvers never touch raw
//! `as`-casts.
//!
//! [`Widened`] is the same conversion for a kernel that walks stored values
//! a short segment at a time (a triangular sweep, the rows of a sparse
//! product): a window of consecutive values converted in bulk, so no element
//! goes through a conversion of its own.

use core::ops::Range;

use crate::scalar::{Scalar, SliceView, SliceViewMut};

/// Convert `src` into `dst` element-wise with a single rounding (or exact
/// widening) per element.
///
/// Semantically each element goes through `D::from_f64(s.to_f64())`: one
/// exact widening followed by at most one round-to-nearest-even.  The
/// `f16 ↔ f32/f64` and `f32 → f16` pairs dispatch to the bulk hardware
/// converters in [`half::slice`], which produce bit-identical results
/// (`f32 → f16` is a single RNE rounding either way because `f32 → f64` is
/// exact).  `f64 → f16` deliberately stays scalar: hardware offers no
/// single-rounding path for it.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn convert_slice<S: Scalar, D: Scalar>(src: &[S], dst: &mut [D]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "convert_slice: length mismatch ({} vs {})",
        src.len(),
        dst.len()
    );
    use crate::scalar::Precision::{Fp16, Fp32, Fp64};
    let bulk = matches!((S::PRECISION, D::PRECISION), (Fp16, Fp32) | (Fp16, Fp64) | (Fp32, Fp16));
    if bulk {
        match (S::view(src), D::view_mut(dst)) {
            (SliceView::F16(s), SliceViewMut::F32(d)) => half::slice::widen_slice(s, d),
            (SliceView::F16(s), SliceViewMut::F64(d)) => half::slice::widen_slice_f64(s, d),
            (SliceView::F32(s), SliceViewMut::F16(d)) => half::slice::narrow_slice(s, d),
            // `bulk` enumerates exactly the three (S, D) pairs above, and a
            // type's view always carries its own variant.
            _ => unreachable!("view variants disagree with PRECISION"),
        }
        return;
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = D::from_f64(s.to_f64());
    }
}

/// Stored values as a kernel reads them: in accumulation precision, a
/// segment (a row's entries) at a time.
///
/// fp32 and fp64 values are read where they lie.  fp16 values are widened a
/// window of consecutive values at a time through [`convert_slice`] (F16C /
/// AVX-512 where the CPU has them) into the caller's buffer, which is moved
/// whenever a requested segment is not inside it — in the direction the
/// requests are going, so an ascending and a descending walk both convert
/// every value about once.  Widening is exact, so what a kernel computes
/// from a segment does not depend on where the window happened to lie.
#[derive(Debug)]
pub struct Widened<'a, T: Scalar> {
    values: &'a [T],
    /// `values[span]` widened (fp16); unused for fp32/fp64.
    window: &'a mut [T::Accum],
    span: Range<usize>,
}

impl<'a, T: Scalar> Widened<'a, T> {
    /// Read `values` through `window`, which bounds the length of a segment
    /// (and may be empty for fp32/fp64, which never use it).
    pub fn new(values: &'a [T], window: &'a mut [T::Accum]) -> Self {
        Self {
            values,
            window,
            span: 0..0,
        }
    }

    /// `values[seg]` in accumulation precision.  fp32/fp64: the stored values
    /// themselves.  fp16: a slice of the window, which is moved — one bulk
    /// conversion — whenever `seg` is not inside it.
    ///
    /// # Panics
    /// Panics if `seg` is out of range, or (fp16) longer than the window.
    #[inline(always)]
    pub fn get(&mut self, seg: Range<usize>) -> &[T::Accum] {
        if let Some(values) = T::as_accum(self.values) {
            return &values[seg];
        }
        if seg.start < self.span.start || seg.end > self.span.end {
            self.move_to(&seg);
        }
        &self.window[seg.start - self.span.start..seg.end - self.span.start]
    }

    /// Move the window over `seg`, the way the walk is going: a segment past
    /// the window's end starts the new window, one before its start ends it.
    #[cold]
    #[inline(never)]
    fn move_to(&mut self, seg: &Range<usize>) {
        let len = self.window.len();
        assert!(seg.len() <= len, "a segment longer than the widening window");
        self.span = if seg.end > self.span.end {
            seg.start..(seg.start + len).min(self.values.len())
        } else {
            seg.end.saturating_sub(len)..seg.end
        };
        convert_slice(
            &self.values[self.span.clone()],
            &mut self.window[..self.span.len()],
        );
    }
}

/// Convert a slice into a freshly allocated vector of another precision.
#[must_use]
pub fn convert_vec<S: Scalar, D: Scalar>(src: &[S]) -> Vec<D> {
    let mut out = vec![D::zero(); src.len()];
    convert_slice(src, &mut out);
    out
}

/// Copy `src` into `dst` without precision change.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn copy_into<T: Scalar>(src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "copy_into: length mismatch");
    dst.copy_from_slice(src);
}

/// Maximum absolute element-wise error introduced by rounding `src` to
/// precision `D` and widening it back to `f64`.
///
/// Used by tests and by the experiment reports to quantify the storage error
/// of fp16/fp32 copies of the coefficient matrix.
#[must_use]
pub fn round_trip_error<D: Scalar>(src: &[f64]) -> f64 {
    src.iter()
        .map(|&v| (D::from_f64(v).to_f64() - v).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use half::f16;

    #[test]
    fn convert_f64_to_f32_and_back() {
        let src = vec![1.0_f64, -2.5, 3.25, 1e-3];
        let mut mid = vec![0.0_f32; 4];
        convert_slice(&src, &mut mid);
        let mut back = vec![0.0_f64; 4];
        convert_slice(&mid, &mut back);
        for (a, b) in src.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
        }
    }

    #[test]
    fn convert_to_f16_rounds() {
        let src = vec![1.0_f64, 1.0 + 2.0_f64.powi(-12)];
        let out: Vec<f16> = convert_vec(&src);
        assert_eq!(out[0].to_f64(), 1.0);
        // below half-precision resolution: rounds to 1.0
        assert_eq!(out[1].to_f64(), 1.0);
    }

    #[test]
    fn round_trip_error_is_zero_for_exact_values() {
        let src = vec![0.0, 1.0, -2.0, 0.5, 1024.0];
        assert_eq!(round_trip_error::<f16>(&src), 0.0);
        assert_eq!(round_trip_error::<f32>(&src), 0.0);
    }

    #[test]
    fn round_trip_error_bounded_by_eps() {
        let src: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let err16 = round_trip_error::<f16>(&src);
        let err32 = round_trip_error::<f32>(&src);
        assert!(err16 <= 2.0_f64.powi(-10));
        assert!(err32 <= 2.0_f64.powi(-23));
        assert!(err16 > err32);
    }

    /// Ragged segments over `n` stored values: lengths cycling through
    /// 0 … `window`, so segments start, end and straddle window boundaries.
    fn segments(n: usize, window: usize) -> Vec<Range<usize>> {
        let lens = [0, 1, 5, window, 3, window - 1, 7, 2, window / 2, 27];
        let (mut segs, mut at) = (Vec::new(), 0);
        for i in 0.. {
            let len = lens[i % lens.len()].min(window).min(n - at);
            segs.push(at..at + len);
            at += len;
            if at == n {
                return segs;
            }
        }
        unreachable!()
    }

    #[test]
    fn widened_segments_are_the_widened_values_in_any_order() {
        let n = 1000;
        // Every class of fp16 value: normals, subnormals, zeros, infinities.
        let values: Vec<f16> = (0..n)
            .map(|i| match i % 7 {
                0 => f16::from_bits(1 + (i % 1023) as u16), // subnormal
                1 => f16::from_f64(-65504.0),
                2 => f16::from_f64(f64::INFINITY),
                3 => f16::from_f64(-0.0),
                _ => f16::from_f64((i as f64 - 500.0) / 37.0),
            })
            .collect();
        let want: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
        for window in [8usize, 33, 64] {
            let segs = segments(n, window);
            let mut buf = vec![0.0f32; window];
            // Ascending, descending, and jumping back and forth.
            let mut orders = vec![segs.clone(), segs.iter().rev().cloned().collect()];
            let (front, back) = segs.split_at(segs.len() / 2);
            orders.push(back.iter().zip(front).flat_map(|(b, f)| [b.clone(), f.clone()]).collect());
            for order in orders {
                let mut w = Widened::new(&values, &mut buf);
                for seg in order {
                    let got: Vec<u32> = w.get(seg.clone()).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = want[seg.clone()].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "window {window}, segment {seg:?}");
                }
            }
        }
    }

    #[test]
    fn widened_converts_each_value_about_once_per_walk() {
        // A window's worth of values per move: an ascending and a descending
        // walk over short segments both move ⌈n / window⌉ times, which shows
        // as every segment of a window being served from one conversion.
        let (n, window) = (640usize, 64usize);
        let values: Vec<f16> = (0..n).map(|i| f16::from_f64(i as f64)).collect();
        let mut buf = vec![0.0f32; window];
        let mut w = Widened::new(&values, &mut buf);
        let mut moves = 0;
        let mut last = w.span.clone();
        for start in (0..n).step_by(4) {
            let _ = w.get(start..start + 4);
            moves += usize::from(w.span != last);
            last = w.span.clone();
        }
        assert_eq!(moves, n / window);
        for start in (0..n).step_by(4).rev() {
            let _ = w.get(start..start + 4);
            moves += usize::from(w.span != last);
            last = w.span.clone();
        }
        // The descending walk starts inside the last ascending window.
        assert_eq!(moves, 2 * (n / window) - 1);
    }

    #[test]
    fn widened_reads_fp32_and_fp64_in_place() {
        let v32: Vec<f32> = (0..50).map(|i| i as f32 * 0.5).collect();
        let mut w = Widened::new(&v32, &mut []);
        assert!(std::ptr::eq(w.get(7..19), &v32[7..19]));
        let v64: Vec<f64> = (0..50).map(|i| i as f64 * 0.25).collect();
        let mut w = Widened::new(&v64, &mut []);
        assert!(std::ptr::eq(w.get(0..50), &v64[..]));
    }

    #[test]
    #[should_panic(expected = "a segment longer than the widening window")]
    fn widened_segment_longer_than_the_window_panics() {
        let values = vec![f16::from_f64(1.0); 40];
        let mut buf = [0.0f32; 16];
        let _ = Widened::new(&values, &mut buf).get(3..20);
    }

    #[test]
    fn copy_into_copies() {
        let src = vec![1.0_f32, 2.0, 3.0];
        let mut dst = vec![0.0_f32; 3];
        copy_into(&src, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn convert_slice_length_mismatch_panics() {
        let src = vec![1.0_f64; 3];
        let mut dst = vec![0.0_f32; 4];
        convert_slice(&src, &mut dst);
    }
}
