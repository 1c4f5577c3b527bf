//! Declarative description of nested Krylov solvers.
//!
//! A nested solver `(S⁽¹⁾, …, S⁽ᴰ⁾, M)` is described by a [`NestedSpec`]: an
//! ordered list of [`LevelSpec`]s (outermost first), the primary
//! preconditioner kind and its storage precision, the convergence tolerance
//! and the restart budget.  Specs are compiled by the session layer
//! ([`crate::session`]): a [`SolverBuilder`] turns one into an immutable,
//! `Arc`-shareable [`PreparedSolver`], and each [`SolveSession`] builds its
//! private chain of [`InnerSolver`](crate::inner::InnerSolver)s with
//! precision bridges inserted wherever the vector precision changes.
//!
//! [`SolverBuilder`]: crate::session::SolverBuilder
//! [`PreparedSolver`]: crate::session::PreparedSolver
//! [`SolveSession`]: crate::session::SolveSession

use std::fmt;

use f3r_precision::Precision;
use f3r_precond::PrecondKind;

use crate::operator::MatrixStorage;
use crate::richardson::WeightStrategy;

/// One level of a nested solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LevelSpec {
    /// An FGMRES level `F^m`.
    Fgmres {
        /// Iterations per invocation.
        m: usize,
        /// How the matrix variant streamed by this level's SpMV is stored:
        /// precision plus plain/row-scaled (see [`MatrixStorage`]).
        matrix: MatrixStorage,
        /// Working (vector) precision of this level.
        vector_prec: Precision,
        /// Storage precision of the Arnoldi/flexible bases (compressed with
        /// one amplitude scale per vector when below `vector_prec`; equal to
        /// `vector_prec` for classic uncompressed storage).  Build specs
        /// with [`LevelSpec::fgmres`] for the uncompressed default.
        basis_prec: Precision,
    },
    /// A Richardson level `R^m` (always the innermost iterative level).
    Richardson {
        /// Sweeps per invocation.
        m: usize,
        /// How the matrix variant streamed by this level's SpMV is stored.
        matrix: MatrixStorage,
        /// Working (vector) precision of this level.
        vector_prec: Precision,
        /// Weight strategy (adaptive Algorithm 1 or fixed).
        weight: WeightStrategy,
    },
}

impl LevelSpec {
    /// An FGMRES level with unscaled matrix storage in `matrix_prec` and
    /// classic uncompressed basis storage (`basis_prec = vector_prec`).
    #[must_use]
    pub fn fgmres(m: usize, matrix_prec: Precision, vector_prec: Precision) -> Self {
        Self::fgmres_stored(m, MatrixStorage::Plain(matrix_prec), vector_prec)
    }

    /// An FGMRES level with an explicit [`MatrixStorage`] (uncompressed
    /// basis storage).
    #[must_use]
    pub fn fgmres_stored(m: usize, matrix: MatrixStorage, vector_prec: Precision) -> Self {
        LevelSpec::Fgmres {
            m,
            matrix,
            vector_prec,
            basis_prec: vector_prec,
        }
    }

    /// The basis storage precision (`None` for Richardson levels, which keep
    /// no basis).
    #[must_use]
    pub fn basis_precision(&self) -> Option<Precision> {
        match *self {
            LevelSpec::Fgmres { basis_prec, .. } => Some(basis_prec),
            LevelSpec::Richardson { .. } => None,
        }
    }

    /// The working (vector) precision of the level.
    #[must_use]
    pub fn vector_precision(&self) -> Precision {
        match *self {
            LevelSpec::Fgmres { vector_prec, .. } | LevelSpec::Richardson { vector_prec, .. } => {
                vector_prec
            }
        }
    }

    /// The matrix storage configuration of the level (precision plus
    /// plain/scaled).
    #[must_use]
    pub fn matrix_storage(&self) -> MatrixStorage {
        match *self {
            LevelSpec::Fgmres { matrix, .. } | LevelSpec::Richardson { matrix, .. } => matrix,
        }
    }

    /// The matrix-storage precision of the level.
    #[must_use]
    pub fn matrix_precision(&self) -> Precision {
        self.matrix_storage().precision()
    }

    /// Iterations per invocation.
    #[must_use]
    pub fn iterations(&self) -> usize {
        match *self {
            LevelSpec::Fgmres { m, .. } | LevelSpec::Richardson { m, .. } => m,
        }
    }

    /// Compact label such as `F8` or `R2`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            LevelSpec::Fgmres { m, .. } => format!("F{m}"),
            LevelSpec::Richardson { m, .. } => format!("R{m}"),
        }
    }
}

/// A structural problem in a [`NestedSpec`] or a
/// [`SolverBuilder`](crate::session::SolverBuilder)
/// configuration, reported by [`NestedSpec::check`] and
/// [`SolverBuilder::try_build`](crate::session::SolverBuilder::try_build).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    /// Wrap a description of what is wrong with the spec.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        SpecError(message.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Complete description of a nested Krylov solver.
#[derive(Debug, Clone)]
pub struct NestedSpec {
    /// Solver levels, outermost first.  The first level must be FGMRES and
    /// fp64 throughout — vectors, basis and plain matrix storage: it drives
    /// the solve and checks convergence, and its solution update and
    /// residual bound the attainable accuracy.
    pub levels: Vec<LevelSpec>,
    /// Primary preconditioner kind.
    pub precond: PrecondKind,
    /// Storage precision of the primary preconditioner.
    pub precond_prec: Precision,
    /// Convergence tolerance on ‖b − A x‖₂ / ‖b‖₂ (the paper uses 1e-8).
    pub tol: f64,
    /// Maximum number of outermost cycles (the paper terminates F3R after 300
    /// outermost iterations = 3 cycles of `m1 = 100`).
    pub max_outer_cycles: usize,
    /// Human-readable configuration name, e.g. `"fp16-F3R"`.
    pub name: String,
}

impl NestedSpec {
    /// Check the structural invariants, returning a descriptive error if the
    /// spec cannot be built.
    ///
    /// # Errors
    /// Returns a [`SpecError`] naming the first violated invariant.
    pub fn check(&self) -> Result<(), SpecError> {
        if self.levels.is_empty() {
            return Err(SpecError::new("nested spec needs at least one level"));
        }
        match self.levels[0] {
            LevelSpec::Fgmres {
                vector_prec,
                basis_prec,
                matrix,
                ..
            } => {
                if vector_prec != Precision::Fp64 {
                    return Err(SpecError::new(
                        "the outermost level must work in fp64 (it checks convergence)",
                    ));
                }
                if basis_prec != Precision::Fp64 || matrix != MatrixStorage::Plain(Precision::Fp64) {
                    return Err(SpecError::new(
                        "the outermost level must store its basis and its matrix in plain fp64 \
                         (they bound the attainable accuracy)",
                    ));
                }
            }
            LevelSpec::Richardson { .. } => {
                return Err(SpecError::new("the outermost level must be FGMRES"));
            }
        }
        for (d, level) in self.levels.iter().enumerate() {
            if let LevelSpec::Richardson { .. } = level {
                if d != self.levels.len() - 1 {
                    return Err(SpecError::new(
                        "Richardson may only appear as the innermost level",
                    ));
                }
            }
            if let LevelSpec::Fgmres {
                vector_prec,
                basis_prec,
                ..
            } = level
            {
                if !basis_prec.stores_within(*vector_prec) {
                    return Err(SpecError::new(
                        "basis storage precision must not exceed the working precision",
                    ));
                }
            }
            if !level.matrix_precision().stores_within(level.vector_precision()) {
                // A matrix stored wider than the vectors it multiplies buys
                // no accuracy (products round to the working precision) while
                // paying the wide storage's bandwidth — reject it like a
                // too-wide basis.
                return Err(SpecError::new(
                    "matrix storage precision must not exceed the working precision",
                ));
            }
            if level.iterations() < 1 {
                return Err(SpecError::new("every level needs at least one iteration"));
            }
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(SpecError::new("tolerance must be positive"));
        }
        if self.max_outer_cycles < 1 {
            return Err(SpecError::new("need at least one outer cycle"));
        }
        Ok(())
    }

    /// Validate structural invariants, panicking with a descriptive message
    /// if the spec cannot be built (the fallible form is [`check`](Self::check)).
    ///
    /// # Panics
    /// Panics with the [`SpecError`] message on the first violated invariant.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Depth `D` of the nesting (number of iterative levels).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Tuple notation string, e.g. `(F100, F8, F4, R2, M)`.
    #[must_use]
    pub fn tuple_notation(&self) -> String {
        let mut parts: Vec<String> = self.levels.iter().map(LevelSpec::label).collect();
        parts.push("M".to_string());
        format!("({})", parts.join(", "))
    }

    /// Store the Arnoldi/flexible bases of every *inner* FGMRES level in
    /// precision `p` (clamped per level so storage never exceeds the level's
    /// working precision), making storage precision an axis independent of
    /// the per-level working precisions.
    ///
    /// The outermost level keeps uncompressed fp64 storage, which
    /// [`check`](Self::check) enforces: it drives convergence to the final
    /// tolerance, and its solution update `x += Z y` must not be limited by
    /// the storage roundoff.  Inner levels run a fixed number of iterations
    /// as *flexible preconditioners* of their parent, so a slightly perturbed
    /// basis only perturbs the preconditioner — the regime in which
    /// compressed-basis GMRES (Aliaga et al.) shows low-precision storage
    /// costs next to nothing in iterations.
    #[must_use]
    pub fn with_basis_storage(mut self, p: Precision) -> Self {
        for level in self.levels.iter_mut().skip(1) {
            if let LevelSpec::Fgmres {
                vector_prec,
                basis_prec,
                ..
            } = level
            {
                *basis_prec = p.min(*vector_prec);
            }
        }
        self
    }

    /// Store the matrix variant streamed by every *inner* level as `storage`
    /// (clamped per level so the storage precision never exceeds the level's
    /// working precision, preserving the plain/scaled flag), making matrix
    /// storage the same first-class axis the basis already is.
    ///
    /// The outermost level keeps plain fp64 storage, which
    /// [`check`](Self::check) enforces: its SpMV feeds the
    /// convergence-driving residual, so narrowing it would cap the attainable
    /// accuracy at the storage roundoff.  Inner levels act as flexible
    /// preconditioners — a perturbed matrix only perturbs the preconditioner.
    #[must_use]
    pub fn with_matrix_storage(mut self, storage: MatrixStorage) -> Self {
        for level in self.levels.iter_mut().skip(1) {
            let (LevelSpec::Fgmres {
                matrix,
                vector_prec,
                ..
            }
            | LevelSpec::Richardson {
                matrix,
                vector_prec,
                ..
            }) = level;
            let p = storage.precision().min(*vector_prec);
            *matrix = if storage.is_scaled() {
                MatrixStorage::Scaled(p)
            } else {
                MatrixStorage::Plain(p)
            };
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::operator::ProblemMatrix;
    use crate::session::SolverBuilder;
    use f3r_sparse::gen::hpcg::hpcg_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    fn simple_spec(name: &str, levels: Vec<LevelSpec>) -> NestedSpec {
        NestedSpec {
            levels,
            precond: PrecondKind::Ilu0 { alpha: 1.0 },
            precond_prec: Precision::Fp64,
            tol: 1e-8,
            max_outer_cycles: 3,
            name: name.to_string(),
        }
    }

    #[test]
    fn two_level_fp64_solver_converges() {
        let a = jacobi_scale(&poisson2d_5pt(16, 16));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "F(30)-F(5)",
            vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(5, Precision::Fp64, Precision::Fp64),
            ],
        );
        let prepared = SolverBuilder::new(pm).spec(spec).build();
        let mut session = prepared.session();
        let n = 256;
        let b = random_rhs(n, 42);
        let mut x = vec![0.0; n];
        let res = session.solve(&b, &mut x);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        assert!(res.final_relative_residual < 1e-8);
        assert!(res.precond_applications > 0);
        assert!(!res.residual_history.is_empty());
    }

    #[test]
    fn four_level_mixed_precision_solver_converges() {
        // A miniature fp16-F3R: (F40, F8, F4, R2, M) with Table 1 precisions.
        let a = jacobi_scale(&hpcg_matrix(8, 8, 4));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = NestedSpec {
            levels: vec![
                LevelSpec::fgmres(40, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp32),
                LevelSpec::fgmres(4, Precision::Fp16, Precision::Fp32),
                LevelSpec::Richardson {
                    m: 2,
                    matrix: MatrixStorage::Plain(Precision::Fp16),
                    vector_prec: Precision::Fp16,
                    weight: WeightStrategy::Adaptive { cycle: 64 },
                },
            ],
            precond: PrecondKind::Ic0 { alpha: 1.0 },
            precond_prec: Precision::Fp16,
            tol: 1e-8,
            max_outer_cycles: 3,
            name: "mini-fp16-F3R".into(),
        };
        assert_eq!(spec.tuple_notation(), "(F40, F8, F4, R2, M)");
        let n = 8 * 8 * 4;
        let prepared = SolverBuilder::new(pm).spec(spec).build();
        let mut session = prepared.session();
        let b = random_rhs(n, 5);
        let mut x = vec![0.0; n];
        let res = session.solve(&b, &mut x);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        // fp16 work must actually have happened
        assert!(res.counters.bytes_in(Precision::Fp16) > 0);
        assert!(res.counters.spmv_in(Precision::Fp16) > 0);
    }

    #[test]
    fn with_basis_storage_compresses_inner_levels_only() {
        let spec = simple_spec(
            "storage",
            vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(20, Precision::Fp32, Precision::Fp32),
            ],
        )
        .with_basis_storage(Precision::Fp16);
        assert_eq!(spec.levels[0].basis_precision(), Some(Precision::Fp64));
        assert_eq!(spec.levels[1].basis_precision(), Some(Precision::Fp16));
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "basis storage precision must not exceed")]
    fn basis_wider_than_vectors_is_rejected() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "bad-basis",
            vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::Fgmres {
                    m: 4,
                    matrix: MatrixStorage::Plain(Precision::Fp16),
                    vector_prec: Precision::Fp16,
                    basis_prec: Precision::Fp32,
                },
            ],
        );
        let _ = SolverBuilder::new(pm).spec(spec).build();
    }

    #[test]
    fn compressed_inner_basis_attributes_traffic_to_fp16_storage() {
        // A solver with fp16-compressed inner bases must converge to the
        // same tolerance and report its inner basis traffic at the fp16
        // storage width, with only the (uncompressed) outermost level left
        // in fp64 basis bytes.  The quantitative acceptance thresholds —
        // outer iterations within 10% of full storage, ≥ 40% basis byte
        // cut — live in the end-to-end suite (tests/compressed_basis.rs).
        let a = jacobi_scale(&poisson2d_5pt(32, 32));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = NestedSpec {
            levels: vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(20, Precision::Fp32, Precision::Fp32),
            ],
            precond: PrecondKind::Jacobi,
            precond_prec: Precision::Fp64,
            tol: 1e-8,
            max_outer_cycles: 5,
            name: "fp16-basis".to_string(),
        }
        .with_basis_storage(Precision::Fp16);
        let n = pm.dim();
        let b = random_rhs(n, 23);
        let prepared = SolverBuilder::new(pm).spec(spec).build();
        let mut session = prepared.session();
        let mut x = vec![0.0; n];
        let r = session.solve(&b, &mut x);
        assert!(r.converged, "residual {}", r.final_relative_residual);
        // Inner bases stream in fp16; no fp32 basis bytes remain; the
        // outer fp64 basis is the only other contributor and the inner
        // (5/2)m² term dominates it.
        let fp16 = r.counters.basis_bytes_in(Precision::Fp16);
        let fp32 = r.counters.basis_bytes_in(Precision::Fp32);
        let fp64 = r.counters.basis_bytes_in(Precision::Fp64);
        assert!(fp16 > 0);
        assert_eq!(fp32, 0);
        assert!(fp64 > 0);
        assert!(fp16 > fp64, "inner basis traffic should dominate: {fp16} vs {fp64}");
        assert_eq!(r.counters.basis_bytes_total(), fp16 + fp64);
    }

    #[test]
    fn with_matrix_storage_rewrites_inner_levels_only() {
        let spec = NestedSpec {
            levels: vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(20, Precision::Fp32, Precision::Fp32),
                LevelSpec::Richardson {
                    m: 2,
                    matrix: MatrixStorage::Plain(Precision::Fp16),
                    vector_prec: Precision::Fp16,
                    weight: WeightStrategy::Fixed(1.0),
                },
            ],
            precond: PrecondKind::Jacobi,
            precond_prec: Precision::Fp64,
            tol: 1e-8,
            max_outer_cycles: 3,
            name: "storage".to_string(),
        }
        .with_matrix_storage(MatrixStorage::Scaled(Precision::Fp16));
        // Outermost keeps its fp64 stream; inner levels get scaled fp16,
        // clamped to each level's working precision (no clamping needed
        // here: fp16 ≤ fp32 and fp16 ≤ fp16).
        assert_eq!(
            spec.levels[0].matrix_storage(),
            MatrixStorage::Plain(Precision::Fp64)
        );
        assert_eq!(
            spec.levels[1].matrix_storage(),
            MatrixStorage::Scaled(Precision::Fp16)
        );
        assert_eq!(
            spec.levels[2].matrix_storage(),
            MatrixStorage::Scaled(Precision::Fp16)
        );
        spec.validate();

        // Clamping: requesting scaled fp32 on an fp16-vector level yields
        // scaled fp16, never a storage wider than the working precision.
        let clamped = NestedSpec {
            levels: vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(4, Precision::Fp16, Precision::Fp16),
            ],
            precond: PrecondKind::Jacobi,
            precond_prec: Precision::Fp64,
            tol: 1e-8,
            max_outer_cycles: 3,
            name: "clamp".to_string(),
        }
        .with_matrix_storage(MatrixStorage::Scaled(Precision::Fp32));
        assert_eq!(
            clamped.levels[1].matrix_storage(),
            MatrixStorage::Scaled(Precision::Fp16)
        );
        clamped.validate();
    }

    #[test]
    #[should_panic(expected = "matrix storage precision must not exceed")]
    fn matrix_wider_than_vectors_is_rejected() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "bad-matrix",
            vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(4, Precision::Fp64, Precision::Fp32),
            ],
        );
        let _ = SolverBuilder::new(pm).spec(spec).build();
    }

    #[test]
    fn prepared_solver_materializes_only_the_spec_variants() {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        // f64 + f32 levels: no fp16 variant may be materialized.
        let spec = simple_spec(
            "no-fp16",
            vec![
                LevelSpec::fgmres(20, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(5, Precision::Fp32, Precision::Fp32),
            ],
        );
        let prepared = SolverBuilder::new(Arc::clone(&pm)).spec(spec).build();
        let n = pm.dim();
        let b = random_rhs(n, 3);
        let mut x = vec![0.0; n];
        assert!(prepared.session().solve(&b, &mut x).converged);
        let variants = pm.materialized_variants();
        assert!(
            variants
                .iter()
                .all(|v| v.storage.precision() != Precision::Fp16),
            "no level streams fp16, so the store must hold no fp16 variant: {variants:?}"
        );
        assert!(pm.is_materialized(MatrixStorage::Plain(Precision::Fp32)));
        assert_eq!(variants.len(), 2);
    }

    #[test]
    fn zero_rhs_is_trivially_converged() {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "trivial",
            vec![LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64)],
        );
        let prepared = SolverBuilder::new(pm).spec(spec).build();
        let mut session = prepared.session();
        let b = vec![0.0; 64];
        let mut x = vec![1.0; 64];
        let res = session.solve(&b, &mut x);
        assert!(res.converged);
        assert_eq!(res.outer_iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn check_reports_errors_without_panicking() {
        let bad = simple_spec(
            "bad",
            vec![LevelSpec::fgmres(10, Precision::Fp32, Precision::Fp32)],
        );
        let err = bad.check().unwrap_err();
        assert!(err.to_string().contains("outermost level must work in fp64"));
        let empty = simple_spec("empty", vec![]);
        assert!(empty.check().is_err());
    }

    #[test]
    fn outermost_basis_and_matrix_must_be_plain_fp64() {
        let level0 = |basis_prec, matrix| LevelSpec::Fgmres {
            m: 10,
            matrix,
            vector_prec: Precision::Fp64,
            basis_prec,
        };
        let fp16_basis = level0(Precision::Fp16, MatrixStorage::Plain(Precision::Fp64));
        let scaled_matrix = level0(Precision::Fp64, MatrixStorage::Scaled(Precision::Fp64));
        for level in [fp16_basis, scaled_matrix] {
            let err = simple_spec("bad", vec![level]).check().unwrap_err();
            assert!(err.to_string().contains("basis and its matrix in plain fp64"), "{err}");
        }
        let plain = level0(Precision::Fp64, MatrixStorage::Plain(Precision::Fp64));
        assert!(simple_spec("ok", vec![plain]).check().is_ok());
    }

    #[test]
    #[should_panic(expected = "outermost level must work in fp64")]
    fn outermost_must_be_fp64() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "bad",
            vec![LevelSpec::fgmres(10, Precision::Fp32, Precision::Fp32)],
        );
        let _ = SolverBuilder::new(pm).spec(spec).build();
    }

    #[test]
    #[should_panic(expected = "Richardson may only appear as the innermost level")]
    fn richardson_must_be_innermost() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let spec = simple_spec(
            "bad",
            vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::Richardson {
                    m: 2,
                    matrix: MatrixStorage::Plain(Precision::Fp64),
                    vector_prec: Precision::Fp64,
                    weight: WeightStrategy::Fixed(1.0),
                },
                LevelSpec::fgmres(4, Precision::Fp64, Precision::Fp64),
            ],
        );
        let _ = SolverBuilder::new(pm).spec(spec).build();
    }
}
