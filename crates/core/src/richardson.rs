//! The innermost Richardson solver with adaptive weight updating
//! (Algorithm 1 of the paper).
//!
//! The Richardson level receives a vector `v` from its parent FGMRES level and
//! performs `m4` sweeps of
//!
//! ```text
//! z_k = z_{k-1} + ω_k · M (v − A z_{k-1})
//! ```
//!
//! starting from `z_0 = 0`, where `M` is the primary preconditioner.  The
//! weight ω_k is adapted across invocations: every `c` calls the locally
//! optimal weight `ω'_k = (r, AMr)/(AMr, AMr)` is computed (in fp32) and folded
//! into the running average of Eq. 5; other calls reuse the averaged weight.
//! The weights are global state that persists across invocations because the
//! optimal weight depends on the preconditioned operator, not on the
//! right-hand side (Section 4.3).  For the same reason they persist across
//! *solves* within one [`SolveSession`](crate::session::SolveSession): a
//! warmed session starts each new right-hand side with already-tuned
//! weights, which is part of the amortized-solve advantage (HPCG 16³: a
//! warmed session's tenth solve 76 ms against a fresh session's 117 ms,
//! CHANGES.md, PR 4).
//!
//! # Panels
//!
//! A panel of `k` right-hand sides is swept **sweep-major**: per sweep one
//! residual SpMM over the whole panel and one panel application of `M`, then
//! the columns are visited in order for their weights and updates.  That
//! order gives every column exactly the weights a column-by-column loop over
//! [`InnerSolver::apply`] would: column `c` is invocation `call_count + c`
//! either way, `ω_k` is only ever written by update invocations, in column
//! order within sweep `k`, and a column reads it after every earlier column
//! has written it — so the panel is bitwise the column loop, weights and
//! invocation counter included.  A column that lands on an update invocation
//! computes its `ω′` with the single-column fused SpMV + dots.

use std::sync::Arc;

use f3r_precision::traffic::TrafficModel;
use f3r_precision::{KernelCounters, Scalar};
use f3r_sparse::blas1;

use crate::inner::InnerSolver;
use crate::operator::{MatrixStorage, ProblemMatrix};
use crate::precond_any::AnyPrecond;

/// How the Richardson weight is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightStrategy {
    /// Adaptive updating (Algorithm 1) with update cycle `c` (the paper's
    /// default is `c = 64`).
    Adaptive {
        /// Number of Richardson invocations between ω′ recomputations.
        cycle: usize,
    },
    /// A fixed, manually chosen weight (the static comparison of Figure 6).
    Fixed(f64),
}

impl WeightStrategy {
    /// `Some(l)` when invocation number `call` recomputes ω′ (line 7 of
    /// Algorithm 1), with `l` the number of update cycles completed before
    /// it; `None` on every other invocation and for a fixed weight.
    fn update_at(self, call: u64) -> Option<u64> {
        match self {
            WeightStrategy::Adaptive { cycle } => {
                let c = cycle.max(1) as u64;
                call.is_multiple_of(c).then_some(call / c)
            }
            WeightStrategy::Fixed(_) => None,
        }
    }
}

impl Default for WeightStrategy {
    fn default() -> Self {
        WeightStrategy::Adaptive { cycle: 64 }
    }
}

/// The Richardson inner solver (`R^{m4}` in the tuple notation), working in
/// precision `T` streaming the matrix variant in `mat_storage`.
pub struct RichardsonLevel<T: Scalar> {
    matrix: Arc<ProblemMatrix>,
    mat_storage: MatrixStorage,
    m: usize,
    precond: Arc<AnyPrecond>,
    strategy: WeightStrategy,
    /// Per-iteration weights ω_1 … ω_m (Algorithm 1 keeps one per k).
    weights: Vec<f64>,
    /// Invocation counter (`cntr` in Algorithm 1).
    call_count: u64,
    depth: usize,
    counters: Arc<KernelCounters>,
    // workspace: residual and `M r` panels (one column until the first wider
    // panel arrives), and the `A M r` of one update column.
    r: Vec<T>,
    mr: Vec<T>,
    amr: Vec<T>,
}

impl<T: Scalar> RichardsonLevel<T> {
    /// Create a Richardson level of `m` sweeps per invocation.
    #[must_use]
    pub fn new(
        matrix: Arc<ProblemMatrix>,
        mat_storage: MatrixStorage,
        m: usize,
        precond: Arc<AnyPrecond>,
        strategy: WeightStrategy,
        depth: usize,
        counters: Arc<KernelCounters>,
    ) -> Self {
        let n = matrix.dim();
        assert!(m >= 1, "Richardson needs at least one sweep");
        Self {
            matrix,
            mat_storage,
            m,
            precond,
            strategy,
            weights: vec![1.0; m],
            call_count: 0,
            depth,
            counters,
            r: vec![T::zero(); n],
            mr: vec![T::zero(); n],
            amr: vec![T::zero(); n],
        }
    }

    /// The weights currently in use (exposed for tests and diagnostics).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of times this level has been invoked.
    #[must_use]
    pub fn call_count(&self) -> u64 {
        self.call_count
    }
}

impl<T: Scalar> InnerSolver<T> for RichardsonLevel<T> {
    fn apply_panel(&mut self, v: &[T], z: &mut [T], k: usize) {
        let n = self.matrix.dim();
        assert_eq!(v.len(), n * k, "richardson: v length mismatch");
        assert_eq!(z.len(), n * k, "richardson: z length mismatch");
        if n * k == 0 {
            return;
        }
        if self.r.len() < n * k {
            self.r.resize(n * k, T::zero());
            self.mr.resize(n * k, T::zero());
        }
        let (r, mr) = (&mut self.r[..n * k], &mut self.mr[..n * k]);

        z.fill(T::zero());
        for sweep in 0..self.m {
            // r = v - A z; for the first sweep this is just v (z = 0), read
            // where it lies.
            let r: &[T] = if sweep == 0 {
                v
            } else {
                self.matrix.residual_multi(self.mat_storage, z, v, r, k, &self.counters);
                r
            };
            // M r
            self.precond.apply_panel_to(r, mr, k, &self.counters);

            let columns = r.chunks_exact(n).zip(mr.chunks_exact(n)).zip(z.chunks_exact_mut(n));
            for (c, ((rc, mrc), zc)) in columns.enumerate() {
                let call = self.call_count + c as u64;
                let omega = if let Some(update_count) = self.strategy.update_at(call) {
                    // ω' = (r, AMr) / (AMr, AMr), computed in fp32 precision
                    // or better (the fused kernel accumulates the dots in f64
                    // from T::Accum ≥ fp32 operands).  The SpMV and both
                    // reductions run in one sweep: AMr is never re-read from
                    // memory.
                    let (num, den) =
                        self.matrix
                            .apply_dot2(self.mat_storage, mrc, rc, &mut self.amr, &self.counters);
                    self.counters.record_weight_update();
                    let omega_opt = if den > 0.0 { num / den } else { 1.0 };
                    // Fold into the running average (Eq. 5); the step itself
                    // uses ω′ because it minimises the residual at this step.
                    let l = update_count as f64;
                    self.weights[sweep] = (l * self.weights[sweep] + omega_opt) / (l + 1.0);
                    omega_opt
                } else {
                    match self.strategy {
                        WeightStrategy::Adaptive { .. } => self.weights[sweep],
                        WeightStrategy::Fixed(w) => w,
                    }
                };
                // z_k = z_{k-1} + ω · M r_{k-1}
                blas1::axpy(omega, mrc, zc);
                self.counters.record_blas1(
                    T::PRECISION,
                    TrafficModel::blas1_bytes(n, 2, 1, T::PRECISION),
                );
            }
        }
        self.counters.record_level_iterations(self.depth, (self.m * k) as u64);
        self.call_count += k as u64;
    }

    fn name(&self) -> String {
        let strat = match self.strategy {
            WeightStrategy::Adaptive { cycle } => format!("adaptive c={cycle}"),
            WeightStrategy::Fixed(w) => format!("fixed ω={w}"),
        };
        format!("R{}(A:{}, v:{}, {})", self.m, self.mat_storage, T::name(), strat)
    }

    fn workspace_bytes(&self) -> u64 {
        // `r` and `mr` are panels once a batch has come through.
        self.weights.len() as u64 * 8
            + (self.r.len() + self.mr.len() + self.amr.len()) as u64 * T::bytes() as u64
    }

    fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_precision::{f16, Precision};
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;

    fn setup(
        storage: Precision,
    ) -> (Arc<ProblemMatrix>, Arc<AnyPrecond>, Arc<KernelCounters>) {
        let a = jacobi_scale(&poisson2d_5pt(10, 10));
        let counters = KernelCounters::new_shared();
        let m = Arc::new(AnyPrecond::build(&a, &PrecondKind::Ilu0 { alpha: 1.0 }, storage));
        (Arc::new(ProblemMatrix::from_csr(a)), m, counters)
    }

    fn residual_after<T: Scalar>(level: &mut RichardsonLevel<T>, pm: &ProblemMatrix, v: &[f64]) -> f64 {
        let n = pm.dim();
        let vt: Vec<T> = v.iter().map(|&x| T::from_f64(x)).collect();
        let mut z = vec![T::zero(); n];
        level.apply(&vt, &mut z);
        let z64: Vec<f64> = z.iter().map(|x| x.to_f64()).collect();
        pm.true_relative_residual(&z64, v)
    }

    #[test]
    fn two_sweeps_reduce_the_residual() {
        let (pm, m, counters) = setup(Precision::Fp64);
        let n = pm.dim();
        let mut level = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            2,
            m,
            WeightStrategy::Adaptive { cycle: 64 },
            4,
            counters,
        );
        let v: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 7.0).collect();
        let res = residual_after(&mut level, &pm, &v);
        assert!(res < 0.6, "Richardson(2) should clearly reduce the residual, got {res}");
    }

    #[test]
    fn first_call_computes_optimal_weight_and_updates_average() {
        let (pm, m, counters) = setup(Precision::Fp64);
        let n = pm.dim();
        let mut level = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            2,
            m,
            WeightStrategy::Adaptive { cycle: 4 },
            4,
            Arc::clone(&counters),
        );
        assert_eq!(level.weights(), &[1.0, 1.0]);
        let v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut z = vec![0.0f64; n];
        level.apply(&v, &mut z);
        // call 0 is an update call: weights move away from the initial 1.0
        assert!(level.weights().iter().any(|&w| (w - 1.0).abs() > 1e-6));
        assert_eq!(level.call_count(), 1);
        assert_eq!(counters.snapshot().weight_updates, 2); // one per sweep
        // calls 1..3 are not update calls
        let before = level.weights().to_vec();
        level.apply(&v, &mut z);
        assert_eq!(level.weights(), &before[..]);
        assert_eq!(counters.snapshot().weight_updates, 2);
        // call 4 updates again
        level.apply(&v, &mut z);
        level.apply(&v, &mut z);
        level.apply(&v, &mut z);
        assert_eq!(counters.snapshot().weight_updates, 4);
    }

    #[test]
    fn fixed_weight_never_updates() {
        let (pm, m, counters) = setup(Precision::Fp64);
        let n = pm.dim();
        let mut level = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            2,
            m,
            WeightStrategy::Fixed(0.9),
            4,
            Arc::clone(&counters),
        );
        let v = vec![1.0f64; n];
        let mut z = vec![0.0f64; n];
        for _ in 0..5 {
            level.apply(&v, &mut z);
        }
        assert_eq!(counters.snapshot().weight_updates, 0);
        assert_eq!(level.weights(), &[1.0, 1.0]); // untouched
    }

    #[test]
    fn adaptive_beats_badly_chosen_fixed_weight() {
        let (pm, m, counters) = setup(Precision::Fp64);
        let n = pm.dim();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13 % 23) as f64) / 23.0).collect();
        let mut adaptive = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            2,
            Arc::clone(&m),
            WeightStrategy::Adaptive { cycle: 1 },
            4,
            Arc::clone(&counters),
        );
        let mut bad_fixed = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            2,
            m,
            WeightStrategy::Fixed(1.9),
            4,
            counters,
        );
        let res_adaptive = residual_after(&mut adaptive, &pm, &v);
        let res_fixed = residual_after(&mut bad_fixed, &pm, &v);
        assert!(res_adaptive < res_fixed, "{res_adaptive} !< {res_fixed}");
    }

    #[test]
    fn fp16_richardson_with_fp16_preconditioner_is_effective() {
        // The innermost configuration of fp16-F3R (Table 1, R^{m4} row).
        let (pm, _m64, counters) = setup(Precision::Fp64);
        let a16_precond = {
            let a = jacobi_scale(&poisson2d_5pt(10, 10));
            Arc::new(AnyPrecond::build(&a, &PrecondKind::Ilu0 { alpha: 1.0 }, Precision::Fp16))
        };
        let n = pm.dim();
        let mut level = RichardsonLevel::<f16>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp16),
            2,
            a16_precond,
            WeightStrategy::Adaptive { cycle: 64 },
            4,
            counters,
        );
        let v: Vec<f64> = (0..n).map(|i| ((i % 9) as f64 - 4.0) / 9.0).collect();
        let res = residual_after(&mut level, &pm, &v);
        assert!(res.is_finite());
        assert!(res < 0.7, "fp16 Richardson(2) residual {res}");
    }

    #[test]
    fn single_sweep_equals_weighted_preconditioner() {
        // m4 = 1 with weight 1.0 must coincide with a single M application
        // (the degenerate case discussed in Section 6.1).
        let (pm, m, counters) = setup(Precision::Fp64);
        let n = pm.dim();
        let mut level = RichardsonLevel::<f64>::new(
            Arc::clone(&pm),
            MatrixStorage::Plain(Precision::Fp64),
            1,
            Arc::clone(&m),
            WeightStrategy::Fixed(1.0),
            4,
            Arc::clone(&counters),
        );
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut z = vec![0.0f64; n];
        level.apply(&v, &mut z);
        let mut z_direct = vec![0.0f64; n];
        m.apply_to(&v, &mut z_direct, &counters);
        for i in 0..n {
            assert!((z[i] - z_direct[i]).abs() < 1e-14);
        }
    }
}
