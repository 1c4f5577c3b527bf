//! The [`InnerSolver`] abstraction and the precision bridge between levels.
//!
//! In the tuple notation of Section 3, a nested solver
//! `(S⁽¹⁾, S⁽²⁾, …, S⁽ᴰ⁾, M)` treats each inner solver `S⁽ᵈ⁾` as the
//! preconditioning operator of its parent `S⁽ᵈ⁻¹⁾`: the parent hands it a
//! vector `v` and receives an approximate solution of `A z = v`.
//! [`InnerSolver`] is exactly that interface.  Because adjacent levels run in
//! different precisions (fp64 → fp32 → fp16), the [`PrecisionBridge`] adapter
//! converts vectors at the boundary, and [`PrecondInner`] adapts the primary
//! preconditioner `M` itself so it can terminate a nesting chain (as in the
//! two- and three-level reference solvers of Table 4).
//!
//! Inner-solver chains are *per-session* state: each
//! [`SolveSession`](crate::session::SolveSession) builds its own chain (the
//! workspaces and the Richardson weights are mutable), while the matrix
//! copies and the factorized `M` the chain borrows live in the shared,
//! immutable [`PreparedSolver`](crate::session::PreparedSolver).

use std::sync::Arc;

use f3r_precision::{KernelCounters, Scalar};
use f3r_sparse::blas1;
use f3r_sparse::scaling::pow2_amplitude;

use crate::precond_any::AnyPrecond;

/// An operator that, given `v`, produces an approximate solution `z` of
/// `A z = v`.  Stateful: Richardson's adaptive weight persists across calls
/// (Algorithm 1), and FGMRES levels reuse workspace.
pub trait InnerSolver<T: Scalar>: Send {
    /// Approximately solve `A z_c = v_c` for every column of a column-major
    /// panel of `k` right-hand sides (column `c` of the `n × k` panel `v` is
    /// `v[c*n .. (c+1)*n]`), overwriting the corresponding columns of `z`
    /// (the initial guess is always the zero vector, as assumed by the
    /// paper's traffic model).
    ///
    /// Every implementation must produce each column exactly as it would
    /// alone: batching is a memory-traffic optimisation, not a semantic
    /// change.  [`FgmresLevel`](crate::fgmres::FgmresLevel) runs one cycle on
    /// the panel, whose products fuse into one pass over the matrix
    /// ([`crate::operator::ProblemMatrix::apply_multi`]);
    /// [`PrecisionBridge`] converts the whole panel so the batching reaches
    /// the narrow inner levels where the matrix stream dominates;
    /// [`RichardsonLevel`](crate::richardson::RichardsonLevel) sweeps the
    /// panel with one residual pass and one panel application of `M` per
    /// sweep, and [`PrecondInner`] hands the panel to `M`.  A one-column
    /// panel reaches the single-vector kernels (and their counters) at the
    /// bottom of each of these.
    ///
    /// # Panics
    /// Panics if `v` and `z` differ in length or their length is not `k`
    /// times the operator's dimension.
    fn apply_panel(&mut self, v: &[T], z: &mut [T], k: usize);

    /// [`apply_panel`](Self::apply_panel) on one column.
    fn apply(&mut self, v: &[T], z: &mut [T]) {
        self.apply_panel(v, z, 1);
    }

    /// Descriptive name, e.g. `"F8(fp32)"` or `"R2(fp16, adaptive)"`.
    fn name(&self) -> String;

    /// Nesting depth of this solver (1 = outermost).
    fn depth(&self) -> usize;

    /// Heap bytes of this solver's own workspaces plus (recursively) its
    /// child chain's.  Shared state merely borrowed from the
    /// [`PreparedSolver`](crate::session::PreparedSolver) — matrix variants,
    /// the factorized `M` — is *not* counted; see
    /// [`SolveSession::workspace_bytes`](crate::session::SolveSession::workspace_bytes)
    /// for the split.  The default of 0 fits stateless adapters like
    /// [`PrecondInner`].
    fn workspace_bytes(&self) -> u64 {
        0
    }
}

/// Adapter exposing the primary preconditioner `M` as an [`InnerSolver`], for
/// nesting chains that end directly in `M` (e.g. `(F¹⁰⁰, F⁶⁴, M)`).
pub struct PrecondInner<T> {
    precond: Arc<AnyPrecond>,
    counters: Arc<KernelCounters>,
    depth: usize,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Scalar> PrecondInner<T> {
    /// Wrap the primary preconditioner at nesting depth `depth`.
    #[must_use]
    pub fn new(precond: Arc<AnyPrecond>, counters: Arc<KernelCounters>, depth: usize) -> Self {
        Self {
            precond,
            counters,
            depth,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Scalar> InnerSolver<T> for PrecondInner<T> {
    fn apply_panel(&mut self, v: &[T], z: &mut [T], k: usize) {
        self.precond.apply_panel_to(v, z, k, &self.counters);
    }

    fn name(&self) -> String {
        format!("M[{}]", self.precond.name())
    }

    fn depth(&self) -> usize {
        self.depth
    }
}

/// Converts vectors between a parent level running in precision `TP` and a
/// child level running in precision `TC`.
///
/// The conversion applies an infinity-norm scaling safeguard, like the one at
/// the preconditioner boundary (see [`crate::precond_any`]): each parent-side
/// vector is divided by the power of two just above its infinity norm on its
/// way into `TC` — so entries below the fp16 normal range are scaled into
/// range before rounding, and nothing silently flushes to zero — and the
/// child's correction is multiplied back on its way out.  A power-of-two
/// scale makes both multiplications exact, so each entry is rounded once per
/// direction (fp64 → fp16 goes through fp32, as at the preconditioner
/// boundary); both conversions are the bulk scale-and-convert kernel of the
/// compressed basis (`blas1::widen_scaled_into`, which takes any pair of
/// precisions).  A zero vector gives a zero result whatever the child makes
/// of it, and NaNs and infinities pass through.
///
/// Each column of a panel gets its own scale, so a batched column converts
/// exactly as it would alone.
pub struct PrecisionBridge<TP, TC> {
    child: Box<dyn InnerSolver<TC>>,
    v_lo: Vec<TC>,
    z_lo: Vec<TC>,
    /// Per-column scales of the panel being converted.
    scales: Vec<f64>,
    _marker: std::marker::PhantomData<fn(TP)>,
}

impl<TP: Scalar, TC: Scalar> PrecisionBridge<TP, TC> {
    /// Wrap `child` (working in `TC`) for use by a parent working in `TP`.
    #[must_use]
    pub fn new(child: Box<dyn InnerSolver<TC>>, n: usize) -> Self {
        Self {
            child,
            v_lo: vec![TC::zero(); n],
            z_lo: vec![TC::zero(); n],
            scales: vec![0.0],
            _marker: std::marker::PhantomData,
        }
    }
}

impl<TP: Scalar, TC: Scalar> InnerSolver<TP> for PrecisionBridge<TP, TC> {
    fn apply_panel(&mut self, v: &[TP], z: &mut [TP], k: usize) {
        assert_eq!(v.len(), z.len(), "apply_panel: panel length mismatch");
        if k == 0 {
            assert!(v.is_empty(), "apply_panel: zero-column panel must be empty");
            return;
        }
        assert_eq!(v.len() % k, 0, "apply_panel: panel length not a multiple of k");
        let n = v.len() / k;
        if n == 0 {
            return;
        }
        if self.v_lo.len() < n * k {
            self.v_lo.resize(n * k, TC::zero());
            self.z_lo.resize(n * k, TC::zero());
        }
        // The child sees exactly the panel: the buffers may be longer (an
        // earlier, wider panel grew them).
        let (v_lo, z_lo) = (&mut self.v_lo[..n * k], &mut self.z_lo[..n * k]);
        self.scales.clear();
        for (col, lo) in v.chunks_exact(n).zip(v_lo.chunks_exact_mut(n)) {
            let scale = pow2_amplitude(blas1::norm_inf(col));
            if scale == 0.0 {
                lo.fill(TC::zero());
            } else {
                blas1::widen_scaled_into(1.0 / scale, col, lo);
            }
            self.scales.push(scale);
        }
        self.child.apply_panel(v_lo, z_lo, k);
        for ((&scale, hi), lo) in self.scales.iter().zip(z.chunks_exact_mut(n)).zip(z_lo.chunks_exact(n)) {
            // A zero column pins its output to zero, whatever the child made
            // of it.
            if scale == 0.0 {
                hi.fill(TP::zero());
            } else {
                blas1::widen_scaled_into(scale, lo, hi);
            }
        }
    }

    fn name(&self) -> String {
        format!("{}→{} {}", TP::name(), TC::name(), self.child.name())
    }

    fn depth(&self) -> usize {
        self.child.depth()
    }

    fn workspace_bytes(&self) -> u64 {
        (self.v_lo.len() + self.z_lo.len()) as u64 * TC::bytes() as u64
            + self.scales.len() as u64 * 8
            + self.child.workspace_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_precision::{f16, Precision};
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;

    /// A trivial inner solver that doubles its input (in the child precision).
    struct Doubler {
        depth: usize,
    }
    impl<T: Scalar> InnerSolver<T> for Doubler {
        fn apply_panel(&mut self, v: &[T], z: &mut [T], _k: usize) {
            for (zi, &vi) in z.iter_mut().zip(v.iter()) {
                *zi = vi + vi;
            }
        }
        fn name(&self) -> String {
            "doubler".into()
        }
        fn depth(&self) -> usize {
            self.depth
        }
    }

    #[test]
    fn precond_inner_applies_m() {
        let a = jacobi_scale(&poisson2d_5pt(6, 6));
        let n = a.n_rows();
        let counters = KernelCounters::new_shared();
        let m = Arc::new(AnyPrecond::build(&a, &PrecondKind::Jacobi, Precision::Fp32));
        let mut inner = PrecondInner::<f64>::new(m, Arc::clone(&counters), 3);
        let v = vec![2.0f64; n];
        let mut z = vec![0.0f64; n];
        inner.apply(&v, &mut z);
        // Jacobi on a unit-diagonal matrix is the identity.
        for &zi in &z {
            assert!((zi - 2.0).abs() < 1e-3);
        }
        assert_eq!(counters.snapshot().precond_applies, 1);
        assert_eq!(InnerSolver::<f64>::depth(&inner), 3);
    }

    #[test]
    fn bridge_converts_and_scales() {
        let mut bridge = PrecisionBridge::<f64, f16>::new(Box::new(Doubler { depth: 2 }), 4);
        // Entries below the fp16 subnormal range still survive thanks to the
        // norm scaling.
        let v = vec![1e-9, 2e-9, -3e-9, 4e-9];
        let mut z = vec![0.0f64; 4];
        bridge.apply(&v, &mut z);
        for i in 0..4 {
            assert!((z[i] - 2.0 * v[i]).abs() < 1e-12 + 2e-3 * v[i].abs());
        }
        assert!(bridge.name().contains("fp64→fp16"));
    }

    #[test]
    fn bridge_apply_panel_matches_per_column_bridge_applies() {
        let n = 6;
        let k = 3;
        // Column 1 is identically zero: the bridge must pin its output to
        // zero exactly as the single-vector path does.
        let mut v = vec![0.0f64; n * k];
        for (i, vi) in v.iter_mut().enumerate() {
            let c = i / n;
            *vi = if c == 1 { 0.0 } else { ((i as f64) * 0.23 - 1.0) * 1e-9 };
        }
        let mut panel = vec![7.0f64; n * k];
        let mut bridged = PrecisionBridge::<f64, f16>::new(Box::new(Doubler { depth: 2 }), n);
        bridged.apply_panel(&v, &mut panel, k);
        let mut reference = PrecisionBridge::<f64, f16>::new(Box::new(Doubler { depth: 2 }), n);
        for c in 0..k {
            let mut z = vec![7.0f64; n];
            reference.apply(&v[c * n..(c + 1) * n], &mut z);
            assert_eq!(&panel[c * n..(c + 1) * n], &z[..], "column {c}");
        }
    }

    #[test]
    #[should_panic(expected = "apply_panel: panel length not a multiple of k")]
    fn apply_panel_length_mismatch_panics() {
        let mut bridge = PrecisionBridge::<f64, f16>::new(Box::new(Doubler { depth: 2 }), 7);
        let v = vec![0.0f64; 7];
        let mut z = vec![0.0f64; 7];
        bridge.apply_panel(&v, &mut z, 2);
    }

    #[test]
    fn bridge_passes_non_finite_entries_through() {
        let mut bridge = PrecisionBridge::<f32, f16>::new(Box::new(Doubler { depth: 2 }), 4);
        let mut z = [0.0f32; 4];
        // A NaN does not enter the scale: the other entries convert as usual.
        bridge.apply(&[1.0, f32::NAN, -2.0, 0.5], &mut z);
        assert!(z[1].is_nan());
        assert_eq!([z[0], z[2], z[3]], [2.0, -4.0, 1.0]);
        // An infinity does: nothing finite is left, and nothing panics.
        bridge.apply(&[1.0, f32::INFINITY, -2.0, 0.5], &mut z);
        assert!(z.iter().all(|v| !v.is_finite()));
    }

    #[test]
    fn bridge_rounds_each_entry_once_per_direction() {
        // 1/3 scaled by a power of two, rounded to fp16, doubled exactly,
        // scaled back exactly: the only error is the one fp16 rounding.
        let mut bridge = PrecisionBridge::<f32, f16>::new(Box::new(Doubler { depth: 2 }), 2);
        let v = [1.0e-7f32 / 3.0, -1.0e-7];
        let mut z = [0.0f32; 2];
        bridge.apply(&v, &mut z);
        let scale = 2.0f32.powi(-23); // the power of two just above 1e-7
        for (zi, vi) in z.iter().zip(v) {
            assert_eq!(*zi, 2.0 * scale * f16::from_f32(vi / scale).to_f32());
        }
    }

    #[test]
    fn bridge_zero_input_gives_zero_output() {
        let mut bridge = PrecisionBridge::<f32, f16>::new(Box::new(Doubler { depth: 2 }), 3);
        let v = vec![0.0f32; 3];
        let mut z = vec![5.0f32; 3];
        bridge.apply(&v, &mut z);
        assert_eq!(z, vec![0.0f32; 3]);
    }
}
