//! The [`Scalar`] trait and the [`Precision`] runtime tag.
//!
//! All sparse kernels, preconditioners and solver levels in this workspace
//! are generic over a working precision `T: Scalar`.  The trait is kept
//! deliberately small: the solvers only need basic arithmetic, conversions
//! to/from `f64`/`f32`, and a handful of numeric queries.
//!
//! Half precision (`half::f16`) follows the convention used by the paper and
//! by fp16 hardware: values are *stored* in binary16, while compound
//! operations that would otherwise lose too much accuracy (long
//! accumulations, inner products for the adaptive Richardson weight) are
//! carried out in the associated [`Scalar::Accum`] type, which is `f32` for
//! `f16` and the type itself for `f32`/`f64`.

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::cell::Cell;
use std::thread::LocalKey;

use half::f16;

/// Runtime description of a floating-point precision.
///
/// This is the configuration-level counterpart of the compile-time
/// [`Scalar`] trait: solver configurations (e.g. "store the level-3 matrix in
/// fp16") carry a `Precision`, and builders dispatch to the matching
/// `Scalar` instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE binary16 (half precision), 2 bytes per value.
    Fp16,
    /// IEEE binary32 (single precision), 4 bytes per value.
    Fp32,
    /// IEEE binary64 (double precision), 8 bytes per value.
    Fp64,
}

impl Precision {
    /// Number of bytes used to store one value in this precision.
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
            Precision::Fp64 => 8,
        }
    }

    /// The storage rule of the kernel layer: a matrix or a Krylov basis is
    /// *stored* no wider than the `working` precision of the vectors it
    /// meets (the paper's Table 1 only ever narrows storage).  `true` when
    /// storage in `self` obeys it.  The solver spec checks it for a message;
    /// the kernel entry points (`f3r_sparse::spmm::spmm`, the FGMRES
    /// workspace) test it on their type parameters' constants, so code for a
    /// wide pair is never compiled.
    #[must_use]
    pub const fn stores_within(self, working: Precision) -> bool {
        self.bytes() <= working.bytes()
    }

    /// Unit roundoff (machine epsilon) of the precision.
    #[must_use]
    pub fn epsilon(self) -> f64 {
        match self {
            Precision::Fp16 => f64::from(f16::EPSILON),
            Precision::Fp32 => f64::from(f32::EPSILON),
            Precision::Fp64 => f64::EPSILON,
        }
    }

    /// Largest finite representable magnitude.
    #[must_use]
    pub fn max_finite(self) -> f64 {
        match self {
            Precision::Fp16 => f64::from(f16::MAX),
            Precision::Fp32 => f64::from(f32::MAX),
            Precision::Fp64 => f64::MAX,
        }
    }

    /// Short human-readable name matching the paper's nomenclature
    /// (`"fp16"`, `"fp32"`, `"fp64"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Fp16 => "fp16",
            Precision::Fp32 => "fp32",
            Precision::Fp64 => "fp64",
        }
    }

    /// All precisions ordered from lowest to highest.
    #[must_use]
    pub const fn all() -> [Precision; 3] {
        [Precision::Fp16, Precision::Fp32, Precision::Fp64]
    }

    /// The next lower precision, if any (fp64 → fp32 → fp16).
    #[must_use]
    pub const fn lower(self) -> Option<Precision> {
        match self {
            Precision::Fp64 => Some(Precision::Fp32),
            Precision::Fp32 => Some(Precision::Fp16),
            Precision::Fp16 => None,
        }
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar slice with its concrete element type recovered at runtime.
///
/// Generic kernels sometimes need to hand a `&[T]` to non-generic code — most
/// importantly the `f3r-simd` dispatch layer, whose hand-written SIMD kernels
/// exist per concrete precision.  [`Scalar::view`] reifies the type parameter
/// into this enum; because each `Scalar` impl returns its own variant, a
/// `match` on the view monomorphises to a single static arm with no runtime
/// branch.
#[derive(Debug)]
pub enum SliceView<'a> {
    /// A half-precision slice.
    F16(&'a [f16]),
    /// A single-precision slice.
    F32(&'a [f32]),
    /// A double-precision slice.
    F64(&'a [f64]),
}

/// Mutable counterpart of [`SliceView`]; see [`Scalar::view_mut`].
#[derive(Debug)]
pub enum SliceViewMut<'a> {
    /// A half-precision slice.
    F16(&'a mut [f16]),
    /// A single-precision slice.
    F32(&'a mut [f32]),
    /// A double-precision slice.
    F64(&'a mut [f64]),
}

/// Floating-point scalar usable as a working precision in the solvers.
///
/// Implemented for `f64`, `f32` and [`half::f16`].  The trait provides the
/// conversions and numeric queries the nested solver levels need; heavier
/// numeric work (accumulation, inner products) should be done in
/// [`Scalar::Accum`].
///
/// # Example
///
/// Kernels written once against `Scalar` run in any precision; long
/// reductions accumulate in [`Scalar::Accum`], which each element enters
/// through a single exact [`Scalar::widen`] conversion:
///
/// ```
/// use f3r_precision::{f16, Scalar};
///
/// fn sum_of_squares<T: Scalar>(xs: &[T]) -> f64 {
///     let mut acc = <T::Accum as Scalar>::zero();
///     for &x in xs {
///         let w = x.widen(); // exact; f16 → f32 for half precision
///         acc += w * w;
///     }
///     acc.to_f64()
/// }
///
/// // 4096 fp16 ones: a pure fp16 accumulation would saturate at 2048, the
/// // fp32 accumulator is exact.
/// let ones = vec![f16::from_f32(1.0); 4096];
/// assert_eq!(sum_of_squares(&ones), 4096.0);
/// ```
pub trait Scalar:
    Copy
    + Send
    + Sync
    + 'static
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The precision this scalar stores values in.
    const PRECISION: Precision;

    /// Accumulation type: long reductions over `Self` values should be done
    /// in this type.  `f32` for `f16`, otherwise `Self`.
    ///
    /// The [`FromScalar`] bound lets mixed-precision kernels pull a matrix
    /// value stored in *any* precision into this accumulator with one direct
    /// conversion (`TA → TV::Accum`), which is what makes the
    /// decoupled-storage/arithmetic scheme of the paper free at the kernel
    /// level.
    type Accum: FromScalar;

    /// Widen directly into the accumulation precision.
    ///
    /// This is the streaming-kernel conversion: a single, exact `f16 → f32`
    /// widening for half precision and the identity for `f32`/`f64`.  Hot
    /// loops must use this (or [`Scalar::narrow`]) instead of the
    /// `from_f64(x.to_f64())` round trip, which costs two conversions and two
    /// rounding steps per element and blocks vectorisation.
    fn widen(self) -> Self::Accum;

    /// Round a value from the accumulation precision back into this
    /// precision (round-to-nearest-even).  Identity for `f32`/`f64`, a
    /// single `f32 → f16` rounding for half precision.
    fn narrow(v: Self::Accum) -> Self;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Round a double-precision value into this precision
    /// (round-to-nearest-even).
    fn from_f64(v: f64) -> Self;
    /// Widen into double precision (exact).
    fn to_f64(self) -> f64;
    /// Round a single-precision value into this precision.
    fn from_f32(v: f32) -> Self;
    /// Convert to single precision (exact for `f16`/`f32`, rounding for `f64`).
    fn to_f32(self) -> f32;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root (computed in the accumulation precision for `f16`).
    fn sqrt(self) -> Self;
    /// Fused (or emulated) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` if the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// Reify a slice of this scalar into a [`SliceView`] carrying the
    /// concrete element type (see the enum docs for why).
    fn view(xs: &[Self]) -> SliceView<'_>;

    /// Mutable counterpart of [`Scalar::view`].
    fn view_mut(xs: &mut [Self]) -> SliceViewMut<'_>;

    /// `xs` seen as a slice of the accumulation type, when the two types
    /// coincide (`f32`, `f64`); `None` for `f16`, whose accumulator is wider
    /// than its storage.
    ///
    /// This is how a kernel that computes on [`Scalar::Accum`] values reads
    /// fp32/fp64 data where it lies and works on it in place
    /// ([`Scalar::as_accum_mut`]), and only pays a widened copy (see
    /// [`Scalar::with_scratch`]) for half precision.
    fn as_accum(xs: &[Self]) -> Option<&[Self::Accum]>;

    /// Mutable counterpart of [`Scalar::as_accum`].
    fn as_accum_mut(xs: &mut [Self]) -> Option<&mut [Self::Accum]>;

    /// Run `body` on this thread's reusable scratch slice of `len` elements.
    ///
    /// The slice's contents on entry are unspecified.  The buffer behind it
    /// grows on demand and is kept for the lifetime of the thread, so calls
    /// in steady state allocate nothing; a nested call on the same thread
    /// (from inside `body`) gets a buffer of its own, kept likewise.
    fn with_scratch<R>(len: usize, body: impl FnOnce(&mut [Self]) -> R) -> R;

    /// Number of bytes per stored value.
    #[must_use]
    fn bytes() -> usize {
        Self::PRECISION.bytes()
    }

    /// Unit roundoff of this precision.
    #[must_use]
    fn epsilon() -> f64 {
        Self::PRECISION.epsilon()
    }

    /// Short name (`"fp16"`, `"fp32"`, `"fp64"`).
    #[must_use]
    fn name() -> &'static str {
        Self::PRECISION.name()
    }
}

/// Direct conversion *into* an accumulation precision from any stored
/// scalar.
///
/// Only `f32` and `f64` ever serve as accumulators, and both can absorb any
/// stored precision with a single hardware (or, for `f16`, one software)
/// conversion.  Kernels use this to widen matrix values stored in `TA` into
/// the vector accumulator `TV::Accum` without the historical
/// `from_f64(x.to_f64())` double conversion.
pub trait FromScalar: Scalar {
    /// Widen (or round, when the source is wider) `s` into this precision
    /// with a single conversion.
    fn from_scalar<S: Scalar>(s: S) -> Self;

    /// Round this accumulator value into any stored precision with a single
    /// conversion — the write-side mirror of [`FromScalar::from_scalar`].
    ///
    /// Compress-on-write kernels (e.g. `narrow_scaled_into`, which stores a
    /// working-precision vector as a scaled fp16 basis vector) use this to
    /// leave the accumulator exactly once per element, the same
    /// single-conversion discipline the read side gets from `from_scalar`.
    fn into_scalar<S: Scalar>(self) -> S;
}

impl FromScalar for f32 {
    #[inline(always)]
    fn from_scalar<S: Scalar>(s: S) -> f32 {
        s.to_f32()
    }

    #[inline(always)]
    fn into_scalar<S: Scalar>(self) -> S {
        S::from_f32(self)
    }
}

impl FromScalar for f64 {
    #[inline(always)]
    fn from_scalar<S: Scalar>(s: S) -> f64 {
        s.to_f64()
    }

    #[inline(always)]
    fn into_scalar<S: Scalar>(self) -> S {
        S::from_f64(self)
    }
}

/// Shared body of [`Scalar::with_scratch`]: the thread keeps a stack of idle
/// buffers; a call takes the top one for the duration of `body` (so a nested
/// call finds the next one, or none, instead of a live borrow) and puts it
/// back afterwards.  Buffers only ever grow, and a thread keeps as many as
/// its deepest nesting needed, so nested calls are allocation-free in steady
/// state too.
fn scratch_in<T: Scalar, R>(
    cell: &'static LocalKey<Cell<Vec<Vec<T>>>>,
    len: usize,
    body: impl FnOnce(&mut [T]) -> R,
) -> R {
    let mut idle = cell.take();
    let mut buf = idle.pop().unwrap_or_default();
    cell.set(idle);
    if buf.len() < len {
        buf.resize(len, T::zero());
    }
    let out = body(&mut buf[..len]);
    let mut idle = cell.take();
    idle.push(buf);
    cell.set(idle);
    out
}

impl Scalar for f64 {
    const PRECISION: Precision = Precision::Fp64;
    type Accum = f64;

    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
    #[inline(always)]
    fn narrow(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        f64::from(v)
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn view(xs: &[Self]) -> SliceView<'_> {
        SliceView::F64(xs)
    }
    #[inline(always)]
    fn view_mut(xs: &mut [Self]) -> SliceViewMut<'_> {
        SliceViewMut::F64(xs)
    }
    #[inline(always)]
    fn as_accum(xs: &[Self]) -> Option<&[Self::Accum]> {
        Some(xs)
    }
    #[inline(always)]
    fn as_accum_mut(xs: &mut [Self]) -> Option<&mut [Self::Accum]> {
        Some(xs)
    }
    fn with_scratch<R>(len: usize, body: impl FnOnce(&mut [Self]) -> R) -> R {
        thread_local!(static BUF: Cell<Vec<Vec<f64>>> = const { Cell::new(Vec::new()) });
        scratch_in(&BUF, len, body)
    }
}

impl Scalar for f32 {
    const PRECISION: Precision = Precision::Fp32;
    type Accum = f32;

    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
    #[inline(always)]
    fn narrow(v: f32) -> Self {
        v
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn view(xs: &[Self]) -> SliceView<'_> {
        SliceView::F32(xs)
    }
    #[inline(always)]
    fn view_mut(xs: &mut [Self]) -> SliceViewMut<'_> {
        SliceViewMut::F32(xs)
    }
    #[inline(always)]
    fn as_accum(xs: &[Self]) -> Option<&[Self::Accum]> {
        Some(xs)
    }
    #[inline(always)]
    fn as_accum_mut(xs: &mut [Self]) -> Option<&mut [Self::Accum]> {
        Some(xs)
    }
    fn with_scratch<R>(len: usize, body: impl FnOnce(&mut [Self]) -> R) -> R {
        thread_local!(static BUF: Cell<Vec<Vec<f32>>> = const { Cell::new(Vec::new()) });
        scratch_in(&BUF, len, body)
    }
}

impl Scalar for f16 {
    const PRECISION: Precision = Precision::Fp16;
    type Accum = f32;

    #[inline(always)]
    fn widen(self) -> f32 {
        self.to_f32()
    }
    #[inline(always)]
    fn narrow(v: f32) -> Self {
        f16::from_f32(v)
    }
    #[inline(always)]
    fn zero() -> Self {
        f16::from_f32(0.0)
    }
    #[inline(always)]
    fn one() -> Self {
        f16::from_f32(1.0)
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        f16::from_f64(v)
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        f16::from_f32(v)
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        f32::from(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f16::from_f32(f32::from(self).abs())
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f16::from_f32(f32::from(self).sqrt())
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Emulate an fp16 FMA with an fp32 intermediate, which is what
        // mixed-precision hardware units (and the paper's AVX512-FP16
        // kernels with fp32 accumulation) effectively provide.
        f16::from_f32(f32::from(self).mul_add(f32::from(a), f32::from(b)))
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::from(self).is_finite()
    }
    #[inline(always)]
    fn view(xs: &[Self]) -> SliceView<'_> {
        SliceView::F16(xs)
    }
    #[inline(always)]
    fn view_mut(xs: &mut [Self]) -> SliceViewMut<'_> {
        SliceViewMut::F16(xs)
    }
    #[inline(always)]
    fn as_accum(_xs: &[Self]) -> Option<&[Self::Accum]> {
        None
    }
    #[inline(always)]
    fn as_accum_mut(_xs: &mut [Self]) -> Option<&mut [Self::Accum]> {
        None
    }
    fn with_scratch<R>(len: usize, body: impl FnOnce(&mut [Self]) -> R) -> R {
        thread_local!(static BUF: Cell<Vec<Vec<f16>>> = const { Cell::new(Vec::new()) });
        scratch_in(&BUF, len, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: Scalar>() {
        let x = T::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(T::zero().to_f64(), 0.0);
        assert_eq!(T::one().to_f64(), 1.0);
        assert!(T::one().is_finite());
        assert_eq!((T::one() + T::one()).to_f64(), 2.0);
        assert_eq!((-T::one()).abs().to_f64(), 1.0);
        assert_eq!(T::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(T::from_f64(2.0).mul_add(T::from_f64(3.0), T::one()).to_f64(), 7.0);
    }

    #[test]
    fn roundtrip_f64() {
        generic_roundtrip::<f64>();
    }

    #[test]
    fn roundtrip_f32() {
        generic_roundtrip::<f32>();
    }

    #[test]
    fn roundtrip_f16() {
        generic_roundtrip::<f16>();
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp64.bytes(), 8);
        assert_eq!(<f16 as Scalar>::bytes(), 2);
        assert_eq!(<f32 as Scalar>::bytes(), 4);
        assert_eq!(<f64 as Scalar>::bytes(), 8);
    }

    #[test]
    fn precision_epsilons_are_ordered() {
        assert!(Precision::Fp16.epsilon() > Precision::Fp32.epsilon());
        assert!(Precision::Fp32.epsilon() > Precision::Fp64.epsilon());
        // binary16 has 10 fraction bits => eps = 2^-10.
        assert_eq!(Precision::Fp16.epsilon(), 2.0_f64.powi(-10));
    }

    #[test]
    fn precision_names() {
        assert_eq!(Precision::Fp16.name(), "fp16");
        assert_eq!(Precision::Fp32.name(), "fp32");
        assert_eq!(Precision::Fp64.name(), "fp64");
        assert_eq!(format!("{}", Precision::Fp64), "fp64");
    }

    #[test]
    fn precision_lowering_chain() {
        assert_eq!(Precision::Fp64.lower(), Some(Precision::Fp32));
        assert_eq!(Precision::Fp32.lower(), Some(Precision::Fp16));
        assert_eq!(Precision::Fp16.lower(), None);
    }

    #[test]
    fn fp16_max_finite_is_65504() {
        assert_eq!(Precision::Fp16.max_finite(), 65504.0);
    }

    #[test]
    fn fp16_rounds_to_nearest() {
        // 1 + 2^-11 is exactly between 1 and 1 + 2^-10; round-to-even gives 1.
        let x = f16::from_f64(1.0 + 2.0_f64.powi(-11));
        assert_eq!(x.to_f64(), 1.0);
        let y = f16::from_f64(1.0 + 1.5 * 2.0_f64.powi(-10));
        assert!((y.to_f64() - (1.0 + 2.0 * 2.0_f64.powi(-10))).abs() < 1e-12 || (y.to_f64() - (1.0 + 2.0_f64.powi(-10))).abs() < 1e-12);
    }

    #[test]
    fn widen_is_exact_and_narrow_rounds() {
        fn roundtrip<T: Scalar>() {
            // widen is exact: it must agree with the f64 path for every
            // representable value we throw at it.
            for &v in &[0.0, 1.0, -1.0, 0.5, -2.75, 1024.0] {
                let x = T::from_f64(v);
                assert_eq!(x.widen().to_f64(), x.to_f64());
                // narrow ∘ widen is the identity on representable values
                assert_eq!(T::narrow(x.widen()).to_f64(), x.to_f64());
            }
        }
        roundtrip::<f16>();
        roundtrip::<f32>();
        roundtrip::<f64>();
        // narrow applies round-to-nearest-even: 1 + 2^-11 in f32 is halfway
        // between adjacent f16 values and must round down to 1.0.
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(<f16 as Scalar>::narrow(halfway).to_f64(), 1.0);
    }

    #[test]
    fn widen_narrow_match_the_f64_round_trip() {
        // The direct conversions must be numerically identical to the old
        // from_f64(to_f64()) path — just cheaper.
        for bits in (0..=0xFFFFu16).step_by(7) {
            let h = f16::from_bits(bits);
            if !h.is_finite() {
                continue;
            }
            assert_eq!(h.widen(), f32::from_f64(h.to_f64()));
            let w = h.widen() * 1.000_976_6; // perturb to force rounding
            assert_eq!(<f16 as Scalar>::narrow(w), f16::from_f64(f64::from(w)));
        }
    }

    #[test]
    fn as_accum_is_in_place_exactly_when_accum_is_self() {
        assert_eq!(<f64 as Scalar>::as_accum(&[1.5f64]), Some(&[1.5f64][..]));
        assert_eq!(<f32 as Scalar>::as_accum(&[1.5f32]), Some(&[1.5f32][..]));
        assert!(<f16 as Scalar>::as_accum(&[f16::ONE]).is_none());
        let mut d = [1.0f64, 2.0];
        <f64 as Scalar>::as_accum_mut(&mut d).expect("f64 accumulates in f64")[0] = 5.0;
        assert_eq!(d, [5.0, 2.0]);
        let mut s = [1.0f32, 2.0];
        <f32 as Scalar>::as_accum_mut(&mut s).expect("f32 accumulates in f32")[1] = 7.0;
        assert_eq!(s, [1.0, 7.0]);
        let mut h = [f16::ONE];
        assert!(<f16 as Scalar>::as_accum_mut(&mut h).is_none());
    }

    #[test]
    fn scratch_is_reused_grows_and_nests() {
        fn check<T: Scalar>() {
            let first = T::with_scratch(8, |s| {
                assert_eq!(s.len(), 8);
                s[7] = T::one();
                s.as_ptr() as usize
            });
            // A shorter request reuses the same buffer without shrinking it.
            let again = T::with_scratch(4, |s| {
                assert_eq!(s.len(), 4);
                s.as_ptr() as usize
            });
            assert_eq!(first, again);
            // A nested request gets a buffer of its own, and both are the
            // thread's buffers afterwards: the same nesting finds them again.
            let nest = || {
                T::with_scratch(8, |outer| {
                    outer[0] = T::one();
                    let inner = T::with_scratch(8, |inner| {
                        assert_ne!(inner.as_ptr(), outer.as_ptr());
                        inner[0] = T::zero();
                        inner.as_ptr() as usize
                    });
                    assert_eq!(outer[0].to_f64(), 1.0);
                    (outer.as_ptr() as usize, inner)
                })
            };
            let nested = nest();
            assert_eq!(nested.0, first);
            assert_eq!(nest(), nested);
            assert_eq!(T::with_scratch(1 << 12, |s| s.len()), 1 << 12);
        }
        check::<f16>();
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn accum_types() {
        fn accum_name<T: Scalar>() -> &'static str {
            <T::Accum as Scalar>::name()
        }
        assert_eq!(accum_name::<f16>(), "fp32");
        assert_eq!(accum_name::<f32>(), "fp32");
        assert_eq!(accum_name::<f64>(), "fp64");
    }
}
