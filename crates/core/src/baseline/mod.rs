//! Conventional preconditioned Krylov baselines used in Section 5 of the
//! paper: CG, BiCGStab and restarted FGMRES(64).
//!
//! All three are fp64 solvers whose primary preconditioner `M` is stored in a
//! configurable precision (fp64/fp32/fp16), exactly matching the paper's
//! `fp64-CG` / `fp32-CG` / `fp16-CG` (etc.) nomenclature.
//!
//! FGMRES(64) is the one-level nested spec `(F64, M)` run by the session
//! driver ([`crate::session`]), like every other FGMRES solve.  CG and
//! BiCGStab keep their own short recurrences around one shared shell: the
//! preconditioner set-up, the fp64 BLAS-1 traffic accounting and the verdict,
//! which is taken on the fp64 true residual — a solve is converged exactly
//! when `‖b − A x‖₂ / ‖b‖₂ < tol`.

pub mod bicgstab;
pub mod cg;
pub mod restarted_fgmres;

use std::sync::Arc;
use std::time::Instant;

use f3r_precision::traffic::TrafficModel;
use f3r_precision::{KernelCounters, Precision};
use f3r_precond::PrecondKind;
use f3r_sparse::blas1;

use crate::convergence::{SolveResult, StopReason};
use crate::operator::ProblemMatrix;
use crate::precond_any::AnyPrecond;

pub use bicgstab::BiCgStabSolver;
pub use cg::CgSolver;
pub use restarted_fgmres::RestartedFgmresSolver;

/// Configuration shared by the baseline solvers.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Primary preconditioner kind.
    pub precond: PrecondKind,
    /// Storage precision of the preconditioner (the fp64/fp32/fp16 prefix of
    /// the solver name in the paper).
    pub precond_prec: Precision,
    /// Convergence tolerance on ‖b − A x‖₂ / ‖b‖₂ (paper: 1e-8).
    pub tol: f64,
    /// Maximum iterations (paper: 19 200; scale down for laptop-size runs).
    pub max_iterations: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            precond: PrecondKind::Ilu0 { alpha: 1.0 },
            precond_prec: Precision::Fp64,
            tol: 1e-8,
            max_iterations: 19_200,
        }
    }
}

impl BaselineConfig {
    /// Name prefix derived from the preconditioner storage precision.
    #[must_use]
    pub fn prefix(&self) -> &'static str {
        self.precond_prec.name()
    }
}

/// The state and bookkeeping CG and BiCGStab share around their recurrences.
struct Shell {
    matrix: Arc<ProblemMatrix>,
    precond: Arc<AnyPrecond>,
    counters: Arc<KernelCounters>,
    config: BaselineConfig,
    /// The method part of the solver name, e.g. `"CG"`.
    method: &'static str,
    /// When the running solve began.
    start: Instant,
}

impl Shell {
    /// Factorize `config`'s preconditioner for `matrix`.
    fn new(matrix: Arc<ProblemMatrix>, config: BaselineConfig, method: &'static str) -> Self {
        let precond = Arc::new(AnyPrecond::for_matrix(&matrix, &config.precond, config.precond_prec));
        Self {
            matrix,
            precond,
            counters: KernelCounters::new_shared(),
            config,
            method,
            start: Instant::now(),
        }
    }

    /// The solver name, e.g. `"fp16-CG"`.
    fn name(&self) -> String {
        format!("{}-{}", self.config.prefix(), self.method)
    }

    /// Record an fp64 BLAS-1 sweep over `reads` + `writes` vectors of length `n`.
    fn record_blas1(&self, n: usize, reads: usize, writes: usize) {
        self.counters.record_blas1(
            Precision::Fp64,
            TrafficModel::blas1_bytes(n, reads, writes, Precision::Fp64),
        );
    }

    /// Start a solve from the zero guess: check the lengths, start the
    /// clock, reset the counters and zero `x`.  Returns ‖b‖₂.
    fn begin(&mut self, b: &[f64], x: &mut [f64]) -> f64 {
        let n = self.matrix.dim();
        assert_eq!(b.len(), n, "solve: b length mismatch");
        assert_eq!(x.len(), n, "solve: x length mismatch");
        self.start = Instant::now();
        self.counters.reset();
        x.fill(0.0);
        blas1::norm2(b)
    }

    /// The result of a solve whose recurrence stopped for `stop_reason`
    /// after `iterations`.  The recurrence's own residual can drift from the
    /// true one, so the verdict is the fp64 true residual's: `Converged`
    /// exactly when it is below the tolerance, and a recurrence that claimed
    /// convergence the true residual does not confirm has broken down.
    fn finish(
        &self,
        b: &[f64],
        x: &[f64],
        stop_reason: StopReason,
        iterations: usize,
        history: Vec<f64>,
    ) -> SolveResult {
        let final_rel = self.matrix.true_relative_residual(x, b);
        let stop_reason = if final_rel < self.config.tol {
            StopReason::Converged
        } else if stop_reason == StopReason::Converged {
            StopReason::Breakdown
        } else {
            stop_reason
        };
        let counters = self.counters.snapshot();
        SolveResult {
            converged: stop_reason == StopReason::Converged,
            stop_reason,
            outer_iterations: iterations,
            precond_applications: counters.precond_applies,
            final_relative_residual: final_rel,
            seconds: self.start.elapsed().as_secs_f64(),
            residual_history: history,
            counters,
            solver_name: self.name(),
            fingerprint: None,
        }
    }
}
