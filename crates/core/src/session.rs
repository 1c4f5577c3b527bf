//! The prepared-solver session API: setup split from solve.
//!
//! The nested solvers of the paper pay a large one-time cost per matrix —
//! three precision copies of `A`, an IC(0)/ILU(0)/SD-AINV factorisation of
//! the primary preconditioner, a validated [`NestedSpec`] — before the first
//! right-hand side is ever seen.  This module splits that setup from the
//! per-solve state so one factorisation can serve many concurrent solve
//! streams:
//!
//! ```text
//! SolverBuilder ──build()──▶ Arc<PreparedSolver> ──session()──▶ SolveSession
//!  (fluent config:            (immutable, Sync:                 (mutable, per
//!   scheme/levels/spec,        matrix copies, factorized         solve stream:
//!   precond, tol, basis        preconditioner, validated         level workspaces,
//!   storage, …)                spec; shared across threads)      counters, weights)
//! ```
//!
//! * [`SolverBuilder`] replaces the `SolverSettings`-struct-literal +
//!   `f3r_spec` two-step with one fluent chain.
//! * [`PreparedSolver`] owns everything that depends only on the matrix and
//!   the spec.  It is immutable and `Send + Sync`; clone the `Arc` into as
//!   many threads as you like.
//! * [`SolveSession`] owns everything mutable: the outer FGMRES workspace,
//!   the inner-solver chain (including the adaptive Richardson weights,
//!   which persist across solves by design — the optimal weight depends on
//!   the preconditioned operator, not the right-hand side), and the kernel
//!   counters.  Workspaces are allocated on the first solve and reused
//!   verbatim afterwards, regrown only when a wider batch arrives
//!   ([`SolveSession::workspace_generation`] counts it): in steady state,
//!   repeated solves and batches allocate nothing proportional to the
//!   problem size — only the O(columns + cycles) result bookkeeping
//!   (residual histories, counter snapshot) per call.
//!
//! There is one solve driver.  [`SolveSession::solve`], `solve_with`,
//! `solve_observed`, `solve_batch` and `solve_batch_with` all run it, on one
//! column or several: every column has its own right-hand side, solution,
//! [`SolveOptions`] (warm-start `x0`, tolerance and cycle-budget overrides)
//! and history, and all running columns share the outer cycles of
//! [`crate::fgmres`].  A one-column call can be watched through a
//! [`SolveObserver`] (per-outer-iteration residual events with early-stop
//! control).  Runtime precision switching is not part of the driver: it is
//! [`crate::adaptive::AdaptiveSession`], which runs the driver one restart
//! cycle at a time.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use f3r_core::prelude::*;
//! use f3r_precond::PrecondKind;
//! use f3r_sparse::gen::hpcg::hpcg_matrix;
//! use f3r_sparse::gen::rhs::random_rhs;
//! use f3r_sparse::scaling::jacobi_scale;
//!
//! let a = jacobi_scale(&hpcg_matrix(6, 6, 6));
//! let n = a.n_rows();
//!
//! // Setup once: precision copies + IC(0) factorisation + validated spec.
//! let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
//!     .scheme(F3rScheme::Fp16)
//!     .precond(PrecondKind::Ic0 { alpha: 1.0 })
//!     .build();
//!
//! // Solve many right-hand sides through one session (workspaces reused).
//! let mut session = prepared.session();
//! let mut x = vec![0.0; n];
//! for seed in 0..3 {
//!     let b = random_rhs(n, seed);
//!     let result = session.solve(&b, &mut x);
//!     assert!(result.converged, "{result}");
//! }
//! assert_eq!(session.workspace_generation(), 1);
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use f3r_precision::{f16, CounterSnapshot, KernelCounters, Precision, Scalar};
use f3r_precond::PrecondKind;
use f3r_sparse::blas1;

use crate::adaptive::{auto_spec_for_matrix, AutoTuneConfig};
use crate::convergence::{SolveResult, SparseSolver, StopReason};
use crate::f3r::{f3r_spec, F3rParams, F3rScheme, SolverSettings};
use crate::fgmres::{fgmres_cycle, CycleParams, CycleProgress, FgmresLevel, FgmresWorkspace};
use crate::inner::{InnerSolver, PrecisionBridge, PrecondInner};
use crate::nested::{LevelSpec, NestedSpec, SpecError};
use crate::operator::{MatrixStorage, ProblemMatrix};
use crate::precond_any::AnyPrecond;
use crate::richardson::RichardsonLevel;

// ---------------------------------------------------------------------------
// Inner-solver chain construction (moved here from `nested`; sessions own the
// mutable chain, the prepared solver owns everything the chain borrows).
// ---------------------------------------------------------------------------

/// Build the inner-solver chain for `levels` (outermost of the *chain* first,
/// i.e. the level at nesting depth `depth`), working in vector precision `T`.
///
/// The caller guarantees `T` matches `levels[0].vector_precision()`.
fn build_chain<T: Scalar>(
    levels: &[LevelSpec],
    depth: usize,
    matrix: &Arc<ProblemMatrix>,
    precond: &Arc<AnyPrecond>,
    counters: &Arc<KernelCounters>,
) -> Box<dyn InnerSolver<T>> {
    let level = levels[0];
    debug_assert_eq!(level.vector_precision(), T::PRECISION);
    match level {
        LevelSpec::Richardson {
            m,
            matrix: mat_storage,
            weight,
            ..
        } => Box::new(RichardsonLevel::<T>::new(
            Arc::clone(matrix),
            mat_storage,
            m,
            Arc::clone(precond),
            weight,
            depth,
            Arc::clone(counters),
        )),
        LevelSpec::Fgmres {
            m,
            matrix: mat_storage,
            basis_prec,
            ..
        } => {
            let inner: Box<dyn InnerSolver<T>> = if levels.len() == 1 {
                // This FGMRES level is the innermost iterative level: its
                // flexible preconditioner is the primary preconditioner M.
                Box::new(PrecondInner::<T>::new(
                    Arc::clone(precond),
                    Arc::clone(counters),
                    depth + 1,
                ))
            } else {
                build_child::<T>(&levels[1..], depth + 1, matrix, precond, counters)
            };
            // Instantiate the level for the requested basis *storage*
            // precision — the second type parameter of `FgmresLevel`.
            match basis_prec {
                Precision::Fp64 => Box::new(FgmresLevel::<T, f64>::new(
                    Arc::clone(matrix),
                    mat_storage,
                    m,
                    inner,
                    depth,
                    Arc::clone(counters),
                )),
                Precision::Fp32 => Box::new(FgmresLevel::<T, f32>::new(
                    Arc::clone(matrix),
                    mat_storage,
                    m,
                    inner,
                    depth,
                    Arc::clone(counters),
                )),
                Precision::Fp16 => Box::new(FgmresLevel::<T, f16>::new(
                    Arc::clone(matrix),
                    mat_storage,
                    m,
                    inner,
                    depth,
                    Arc::clone(counters),
                )),
            }
        }
    }
}

/// Build the child chain starting at `levels[0]`, bridging from the parent's
/// vector precision `TP` to the child's vector precision if they differ.
fn build_child<TP: Scalar>(
    levels: &[LevelSpec],
    depth: usize,
    matrix: &Arc<ProblemMatrix>,
    precond: &Arc<AnyPrecond>,
    counters: &Arc<KernelCounters>,
) -> Box<dyn InnerSolver<TP>> {
    let child_prec = levels[0].vector_precision();
    let n = matrix.dim();
    if child_prec == TP::PRECISION {
        return build_chain::<TP>(levels, depth, matrix, precond, counters);
    }
    match child_prec {
        Precision::Fp64 => Box::new(PrecisionBridge::<TP, f64>::new(
            build_chain::<f64>(levels, depth, matrix, precond, counters),
            n,
        )),
        Precision::Fp32 => Box::new(PrecisionBridge::<TP, f32>::new(
            build_chain::<f32>(levels, depth, matrix, precond, counters),
            n,
        )),
        Precision::Fp16 => Box::new(PrecisionBridge::<TP, f16>::new(
            build_chain::<f16>(levels, depth, matrix, precond, counters),
            n,
        )),
    }
}

// ---------------------------------------------------------------------------
// SolverBuilder
// ---------------------------------------------------------------------------

/// Where the builder gets its level structure from.
enum SpecSource {
    /// One of the paper's F3R precision schemes (Table 1).
    Scheme(F3rScheme),
    /// Hand-rolled levels, outermost first.
    Levels(Vec<LevelSpec>),
    /// A complete pre-built spec (explicit overrides still apply on top).
    Spec(NestedSpec),
    /// Cost-model autotuning: measure the matrix, pick the cheapest
    /// admissible F3R candidate (see [`crate::adaptive::auto_spec_for_matrix`]).
    Auto(AutoTuneConfig),
}

/// Fluent configuration of a nested solver: problem + level structure +
/// preconditioner + tolerances in one chain, replacing the
/// `SolverSettings`-struct-literal + [`f3r_spec`] two-step.
///
/// Terminate the chain with [`build`](SolverBuilder::build) (panics on an
/// invalid configuration, like `NestedSpec::validate`) or
/// [`try_build`](SolverBuilder::try_build) (returns a [`SpecError`]).
/// Both produce an [`Arc<PreparedSolver>`] ready to hand out
/// [`SolveSession`]s.
///
/// ```
/// use std::sync::Arc;
/// use f3r_core::prelude::*;
/// use f3r_precision::Precision;
/// use f3r_precond::PrecondKind;
/// use f3r_sparse::gen::laplacian::poisson2d_5pt;
/// use f3r_sparse::scaling::jacobi_scale;
///
/// let a = jacobi_scale(&poisson2d_5pt(8, 8));
/// let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
///     .levels(vec![
///         LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
///         LevelSpec::fgmres(5, Precision::Fp32, Precision::Fp32),
///     ])
///     .precond(PrecondKind::Jacobi)
///     .tol(1e-10)
///     .name("two-level")
///     .build();
/// assert_eq!(prepared.spec().tuple_notation(), "(F30, F5, M)");
/// ```
pub struct SolverBuilder {
    matrix: Arc<ProblemMatrix>,
    source: Option<SpecSource>,
    params: Option<F3rParams>,
    precond: Option<PrecondKind>,
    precond_prec: Option<Precision>,
    tol: Option<f64>,
    max_outer_cycles: Option<usize>,
    name: Option<String>,
    basis_storage: Option<Precision>,
    matrix_storage: Option<MatrixStorage>,
}

impl SolverBuilder {
    /// Start configuring a solver for `matrix`.
    #[must_use]
    pub fn new(matrix: Arc<ProblemMatrix>) -> Self {
        Self {
            matrix,
            source: None,
            params: None,
            precond: None,
            precond_prec: None,
            tol: None,
            max_outer_cycles: None,
            name: None,
            basis_storage: None,
            matrix_storage: None,
        }
    }

    /// Use one of the paper's F3R precision schemes (Table 1) as the level
    /// structure, with the iteration counts from [`params`](Self::params).
    #[must_use]
    pub fn scheme(mut self, scheme: F3rScheme) -> Self {
        self.source = Some(SpecSource::Scheme(scheme));
        self
    }

    /// Iteration counts `(m1, m2, m3, m4)` and weight cycle for the
    /// [`scheme`](Self::scheme) path (default: the paper's `(100, 8, 4, 2)`,
    /// `c = 64`).  Only meaningful with `scheme()`; combining it with
    /// `levels()` or `spec()` — which carry their own iteration counts — is
    /// rejected by `build`/`try_build` rather than silently ignored.
    #[must_use]
    pub fn params(mut self, params: F3rParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Use a hand-rolled level structure, outermost first.
    #[must_use]
    pub fn levels(mut self, levels: Vec<LevelSpec>) -> Self {
        self.source = Some(SpecSource::Levels(levels));
        self
    }

    /// Use a complete pre-built [`NestedSpec`] (e.g. from [`f3r_spec`] or one
    /// of the Table 4 preset functions).  Explicitly set builder fields
    /// (preconditioner, tolerance, …) still override the spec's values.
    #[must_use]
    pub fn spec(mut self, spec: NestedSpec) -> Self {
        self.source = Some(SpecSource::Spec(spec));
        self
    }

    /// Let the cost-model autotuner pick the level structure: the matrix's
    /// entry statistics gate which F3R precision stacks are admissible
    /// (plain fp16 needs every entry fp16-representable, row-scaled fp16
    /// tolerates a bounded dynamic range) and the Section 4.1 traffic model
    /// ranks the admissible candidates; the cheapest wins.  The chosen
    /// spec's name is prefixed `auto:` so results stay attributable.
    ///
    /// Replaces a `scheme(...)` call you would otherwise have to hand-pick
    /// per matrix; explicitly set builder fields (preconditioner, tolerance,
    /// …) still override the chosen spec's values.  Like `levels()`/`spec()`,
    /// this path rejects [`params`](Self::params) — pass iteration counts
    /// through [`auto_spec_with`](Self::auto_spec_with) instead.
    #[must_use]
    pub fn auto_spec(mut self) -> Self {
        self.source = Some(SpecSource::Auto(AutoTuneConfig::default()));
        self
    }

    /// [`auto_spec`](Self::auto_spec) with explicit autotuner configuration
    /// (candidate iteration counts, scaled-fp16 admissibility gate).
    #[must_use]
    pub fn auto_spec_with(mut self, config: AutoTuneConfig) -> Self {
        self.source = Some(SpecSource::Auto(config));
        self
    }

    /// Primary preconditioner kind (default: `ILU(0)` with α = 1).
    #[must_use]
    pub fn precond(mut self, kind: PrecondKind) -> Self {
        self.precond = Some(kind);
        self
    }

    /// Storage precision of the primary preconditioner (default: the scheme's
    /// Table 1 precision on the scheme path, fp64 otherwise).
    #[must_use]
    pub fn precond_precision(mut self, p: Precision) -> Self {
        self.precond_prec = Some(p);
        self
    }

    /// Convergence tolerance on `‖b − A x‖₂ / ‖b‖₂` (default: the paper's
    /// `1e-8`).
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    /// Maximum number of outermost restart cycles (default: the paper's 3).
    #[must_use]
    pub fn max_outer_cycles(mut self, cycles: usize) -> Self {
        self.max_outer_cycles = Some(cycles);
        self
    }

    /// Human-readable configuration name (default: the scheme's name, e.g.
    /// `"fp16-F3R"`, or the tuple notation for hand-rolled levels).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Store the Arnoldi/flexible bases of every *inner* FGMRES level in
    /// precision `p` (see [`NestedSpec::with_basis_storage`]).
    #[must_use]
    pub fn basis_storage(mut self, p: Precision) -> Self {
        self.basis_storage = Some(p);
        self
    }

    /// Stream the matrix of every *inner* level from the given storage
    /// (precision + plain/scaled; clamped per level, see
    /// [`NestedSpec::with_matrix_storage`]).  Scaled fp16 storage —
    /// `MatrixStorage::Scaled(Precision::Fp16)` — keeps half-precision
    /// matrix streaming robust on matrices whose entry dynamic range would
    /// overflow an unscaled fp16 copy.
    #[must_use]
    pub fn matrix_storage(mut self, storage: MatrixStorage) -> Self {
        self.matrix_storage = Some(storage);
        self
    }

    /// Resolve the configuration into a validated spec.
    fn resolve_spec(self) -> Result<(Arc<ProblemMatrix>, NestedSpec), SpecError> {
        let source = self.source.ok_or_else(|| {
            SpecError::new("the builder needs a level structure: call scheme(), levels() or spec()")
        })?;
        if self.params.is_some() && !matches!(source, SpecSource::Scheme(_)) {
            return Err(SpecError::new(
                "params() only applies to the scheme() path; levels() and spec() carry their own iteration counts",
            ));
        }
        let mut spec = match source {
            SpecSource::Spec(spec) => spec,
            SpecSource::Auto(config) => auto_spec_for_matrix(&self.matrix, &config),
            SpecSource::Scheme(scheme) => {
                // Defaults come from SolverSettings; explicitly set builder
                // fields are applied by the shared override block below.
                f3r_spec(self.params.unwrap_or_default(), scheme, &SolverSettings::default())
            }
            SpecSource::Levels(levels) => {
                let mut spec = NestedSpec {
                    levels,
                    precond: PrecondKind::Ilu0 { alpha: 1.0 },
                    precond_prec: Precision::Fp64,
                    tol: 1e-8,
                    max_outer_cycles: 3,
                    name: String::new(),
                };
                spec.name = spec.tuple_notation();
                spec
            }
        };
        // Explicitly set builder fields always win.
        if let Some(kind) = self.precond {
            spec.precond = kind;
        }
        if let Some(p) = self.precond_prec {
            spec.precond_prec = p;
        }
        if let Some(tol) = self.tol {
            spec.tol = tol;
        }
        if let Some(cycles) = self.max_outer_cycles {
            spec.max_outer_cycles = cycles;
        }
        if let Some(name) = self.name {
            spec.name = name;
        }
        if let Some(p) = self.basis_storage {
            spec = spec.with_basis_storage(p);
        }
        if let Some(storage) = self.matrix_storage {
            spec = spec.with_matrix_storage(storage);
        }
        spec.check()?;
        Ok((self.matrix, spec))
    }

    /// Validate the spec and run the per-matrix setup (preconditioner
    /// factorisation), returning the shareable prepared solver.
    ///
    /// # Errors
    /// Returns a [`SpecError`] if no level structure was given or the
    /// resulting spec fails [`NestedSpec::check`].
    pub fn try_build(self) -> Result<Arc<PreparedSolver>, SpecError> {
        let (matrix, spec) = self.resolve_spec()?;
        // Materialize exactly the matrix variants the validated level chain
        // streams (the store stays lazy for everything else — a later
        // diagnostic or override can still fault a variant in).
        for level in &spec.levels {
            matrix.materialize(level.matrix_storage());
        }
        // A product on fp16 vectors reads them through a widened copy in the
        // calling thread's scratch (`f3r_sparse::spmm`).  Reserve it here,
        // before any session exists: a buffer of this size first grown in the
        // middle of a solve lands above the session's workspaces on the heap
        // and keeps the allocator from handing their pages back, so every
        // later session would zero recycled memory instead of taking fresh
        // pages lazily — and the first solve would pay for the growth.
        if spec.levels.iter().any(|l| l.vector_precision() == Precision::Fp16) {
            <<f16 as Scalar>::Accum as Scalar>::with_scratch(matrix.dim(), |_| ());
        }
        let precond = Arc::new(AnyPrecond::for_matrix(
            &matrix,
            &spec.precond,
            spec.precond_prec,
        ));
        let fingerprint = crate::fingerprint::solver_fingerprint(&matrix, &spec);
        Ok(Arc::new(PreparedSolver {
            matrix,
            precond,
            spec,
            fingerprint,
        }))
    }

    /// Like [`try_build`](Self::try_build) but panics on an invalid
    /// configuration.
    ///
    /// # Panics
    /// Panics with the [`SpecError`] message if the configuration is invalid.
    #[must_use]
    pub fn build(self) -> Arc<PreparedSolver> {
        match self.try_build() {
            Ok(prepared) => prepared,
            Err(e) => panic!("{e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// PreparedSolver
// ---------------------------------------------------------------------------

/// Everything per-matrix a nested solver needs, set up once and shared
/// immutably: the multi-precision matrix copies, the factorized primary
/// preconditioner and the validated spec.
///
/// `PreparedSolver` is `Send + Sync`; wrap it in an `Arc` (as
/// [`SolverBuilder::build`] already does) and clone the handle into as many
/// threads as needed — each thread opens its own [`SolveSession`] and the
/// sessions never alias mutable state.
pub struct PreparedSolver {
    matrix: Arc<ProblemMatrix>,
    precond: Arc<AnyPrecond>,
    spec: NestedSpec,
    fingerprint: u64,
}

impl fmt::Debug for PreparedSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedSolver")
            .field("name", &self.spec.name)
            .field("dim", &self.matrix.dim())
            .field("precond", &self.precond.name())
            .finish_non_exhaustive()
    }
}

impl PreparedSolver {
    /// Start a [`SolverBuilder`] for `matrix` (equivalent to
    /// [`SolverBuilder::new`]).
    #[must_use]
    pub fn builder(matrix: Arc<ProblemMatrix>) -> SolverBuilder {
        SolverBuilder::new(matrix)
    }

    /// The multi-precision matrix handle.
    #[must_use]
    pub fn matrix(&self) -> &Arc<ProblemMatrix> {
        &self.matrix
    }

    /// The factorized primary preconditioner `M` (shared by every session).
    #[must_use]
    pub fn precond(&self) -> &Arc<AnyPrecond> {
        &self.precond
    }

    /// The validated spec this solver was prepared from.
    #[must_use]
    pub fn spec(&self) -> &NestedSpec {
        &self.spec
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// Configuration name (e.g. `"fp16-F3R"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Stable content fingerprint of this solver: the matrix
    /// [`content_hash`](ProblemMatrix::content_hash) mixed with the
    /// structural fields of the validated spec (see
    /// [`fingerprint`](crate::fingerprint)).  Equal fingerprints mean "built
    /// from bit-identical inputs", which is what the serving layer's
    /// registry keys its cache on — and it can compute the same value
    /// *before* building via
    /// [`solver_fingerprint`](crate::fingerprint::solver_fingerprint).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total resident bytes of this prepared solver: every materialized
    /// matrix variant ([`ProblemMatrix::storage_bytes`]) plus the factorized
    /// preconditioner ([`AnyPrecond::storage_bytes`]).  This is the price a
    /// cache pays to keep the solver warm, and the value the serving-layer
    /// registry charges against its byte cap.  Session workspaces are
    /// accounted separately ([`SolveSession::workspace_bytes`]) — they
    /// belong to the session, not the shared setup.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.matrix.storage_bytes() + self.precond.storage_bytes()
    }

    /// Open a new solve session: a private set of mutable level workspaces
    /// and counters over this shared setup.  Cheap — workspaces are only
    /// allocated on the session's first solve.
    #[must_use]
    pub fn session(self: &Arc<Self>) -> SolveSession {
        SolveSession {
            prepared: Arc::clone(self),
            counters: KernelCounters::new_shared(),
            work: None,
            generation: 0,
        }
    }

    /// This solver on another level structure (a rung of
    /// [`AdaptiveSession`](crate::adaptive::AdaptiveSession)'s ladder): the
    /// matrix store and the factorised `M` are shared, nothing is
    /// refactorised, and the rung's matrix variants are materialized.
    /// Returns the bytes that faulted into the store beside it.
    pub(crate) fn with_levels(&self, levels: &[LevelSpec]) -> (Arc<Self>, u64) {
        let before = self.matrix.storage_bytes();
        for level in levels {
            self.matrix.materialize(level.matrix_storage());
        }
        let spec = NestedSpec { levels: levels.to_vec(), ..self.spec.clone() };
        let solver = Self {
            matrix: Arc::clone(&self.matrix),
            precond: Arc::clone(&self.precond),
            fingerprint: crate::fingerprint::solver_fingerprint(&self.matrix, &spec),
            spec,
        };
        (Arc::new(solver), self.matrix.storage_bytes().saturating_sub(before))
    }

    /// The result of a column that stopped for `stop_reason` after
    /// `outer_iterations` with true-residual `history`, in a call that took
    /// `seconds` and counted `counters`.
    pub(crate) fn result(
        &self,
        stop_reason: StopReason,
        outer_iterations: usize,
        history: Vec<f64>,
        counters: CounterSnapshot,
        seconds: f64,
    ) -> SolveResult {
        SolveResult {
            converged: stop_reason == StopReason::Converged,
            stop_reason,
            outer_iterations,
            precond_applications: counters.precond_applies,
            // `x` has not changed since the column's last residual
            // evaluation, so reuse it instead of paying another fp64 SpMV
            // (the zero-rhs path has no history and is exact by
            // construction).
            final_relative_residual: history.last().copied().unwrap_or(0.0),
            seconds,
            residual_history: history,
            counters,
            solver_name: self.spec.name.clone(),
            fingerprint: Some(self.fingerprint),
        }
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// Whether a [`SolveObserver`] wants the solve to continue or stop early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveControl {
    /// Keep iterating.
    Continue,
    /// Stop the solve after the current event; the result reports
    /// [`StopReason::Stopped`] unless the solve already converged.
    Stop,
}

/// One outermost Arnoldi iteration, reported as it completes.
#[derive(Debug, Clone, Copy)]
pub struct OuterEvent {
    /// Column of the call the iteration belongs to (0 for a single solve).
    pub column: usize,
    /// Global outermost iteration count (1-based, across restart cycles).
    pub outer_iteration: usize,
    /// Restart cycle index (0-based).
    pub cycle: usize,
    /// FGMRES residual-norm estimate `|g_{j+1}|` relative to `‖b‖₂` — the
    /// cheap by-product of the Givens update, not the true residual.
    pub relative_residual_estimate: f64,
}

/// One completed restart cycle, reported after the true residual check.
#[derive(Debug, Clone, Copy)]
pub struct CycleEvent {
    /// Column of the call the cycle belongs to (0 for a single solve).
    pub column: usize,
    /// Restart cycle index (0-based).
    pub cycle: usize,
    /// Total outermost iterations so far.
    pub outer_iterations: usize,
    /// True relative residual `‖b − A x‖₂ / ‖b‖₂` (fp64 evaluation).
    pub true_relative_residual: f64,
}

/// Callback interface for watching a solve as it progresses.
///
/// The control-returning methods default to [`SolveControl::Continue`];
/// implement whichever granularity you need.  Returning
/// [`SolveControl::Stop`] ends the solve after the current event with
/// [`StopReason::Stopped`] (or [`StopReason::Converged`] if the tolerance
/// was reached in the same cycle).
pub trait SolveObserver {
    /// Called after every outermost Arnoldi iteration with the residual
    /// *estimate* (no extra kernel work is spent on these events).
    fn on_outer_iteration(&mut self, event: &OuterEvent) -> SolveControl {
        let _ = event;
        SolveControl::Continue
    }

    /// Called with the *true* relative residual after each restart cycle
    /// that does not terminate the solve.  A final cycle that converges,
    /// breaks down or was stopped by [`on_outer_iteration`](Self::on_outer_iteration)
    /// exits before this event; its residual is reported in
    /// [`SolveResult::final_relative_residual`] and `residual_history`.
    fn on_cycle_complete(&mut self, event: &CycleEvent) -> SolveControl {
        let _ = event;
        SolveControl::Continue
    }
}

/// Progress hook of the outermost cycle: turns each column's iterations into
/// [`OuterEvent`]s for the observer.  A stop is recorded on the column, so
/// it stays distinguishable from the cycle's other exits after it returns.
struct OuterHook<'o> {
    observer: &'o mut dyn SolveObserver,
    runs: &'o mut [ColumnRun],
    /// Column of the call behind each column of the cycle's panel.
    packed: &'o [usize],
    cycle: usize,
}

impl CycleProgress for OuterHook<'_> {
    fn on_iteration(&mut self, column: usize, iteration_in_cycle: usize, residual_estimate: f64) -> bool {
        let c = self.packed[column];
        let run = &mut self.runs[c];
        let event = OuterEvent {
            column: c,
            outer_iteration: run.outer_iterations + iteration_in_cycle + 1,
            cycle: self.cycle,
            relative_residual_estimate: residual_estimate / run.bnorm,
        };
        run.user_stopped = self.observer.on_outer_iteration(&event) == SolveControl::Stop;
        !run.user_stopped
    }
}

// ---------------------------------------------------------------------------
// SolveOptions
// ---------------------------------------------------------------------------

/// Per-solve overrides; every field defaults to the prepared spec's value.
///
/// ```
/// # use f3r_core::session::SolveOptions;
/// let x0 = vec![0.5; 4];
/// let opts = SolveOptions::new().x0(&x0).tol(1e-6).max_outer_cycles(1);
/// assert_eq!(opts.tol, Some(1e-6));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveOptions<'a> {
    /// Warm-start initial guess (default: the zero vector).
    pub x0: Option<&'a [f64]>,
    /// Convergence tolerance override (must be positive, like the spec's).
    pub tol: Option<f64>,
    /// Outermost restart-cycle budget override (must be at least 1).
    pub max_outer_cycles: Option<usize>,
}

impl<'a> SolveOptions<'a> {
    /// Defaults: zero initial guess, spec tolerance, spec cycle budget.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-start from `x0` instead of the zero vector.
    #[must_use]
    pub fn x0(mut self, x0: &'a [f64]) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// Override the convergence tolerance for this solve.
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    /// Override the outermost restart-cycle budget for this solve.
    #[must_use]
    pub fn max_outer_cycles(mut self, cycles: usize) -> Self {
        self.max_outer_cycles = Some(cycles);
        self
    }
}

// ---------------------------------------------------------------------------
// SolveSession
// ---------------------------------------------------------------------------

/// Mutable per-session state: the inner-solver chain, the outer workspace,
/// the scratch vector for true-residual convergence checks and the packed
/// panels handed to a cycle when several columns are running.
struct SessionWork {
    inner: Box<dyn InnerSolver<f64>>,
    /// The outermost level's workspace: fp64 vectors and basis, by
    /// [`NestedSpec::check`].
    outer: FgmresWorkspace<f64>,
    residual: Vec<f64>,
    /// Column-major right-hand-side panel over the still-running columns.
    bp: Vec<f64>,
    /// Column-major solution panel over the still-running columns.
    xp: Vec<f64>,
}

/// Per-column state of one driver call: the column's own options, progress
/// and verdict.
struct ColumnRun {
    bnorm: f64,
    tol: f64,
    max_cycles: usize,
    warm: bool,
    outer_iterations: usize,
    history: Vec<f64>,
    stop_reason: StopReason,
    done: bool,
    /// Set by the hook when the observer stopped the column during the
    /// running cycle.
    user_stopped: bool,
}

impl ColumnRun {
    fn finish(&mut self, reason: StopReason) {
        self.stop_reason = reason;
        self.done = true;
    }
}

/// One solve stream over a [`PreparedSolver`]: owns the mutable level
/// workspaces, the adaptive Richardson weights and the kernel counters.
///
/// Sessions are `Send` (move one into a worker thread) but deliberately not
/// shareable: concurrency is achieved by opening one session per thread over
/// the same `Arc<PreparedSolver>`.  Workspaces (including the true-residual
/// scratch vector) are allocated on the first solve, as wide as that call,
/// and reused for every later solve that is no wider —
/// [`workspace_generation`](Self::workspace_generation) exposes the
/// allocation epoch so tests can assert steady-state reuse; the only
/// steady-state allocations left are the O(columns + cycles) result
/// bookkeeping each call returns.
///
/// Every public solve entry — [`solve`](Self::solve),
/// [`solve_with`](Self::solve_with), [`solve_observed`](Self::solve_observed),
/// [`solve_batch`](Self::solve_batch),
/// [`solve_batch_with`](Self::solve_batch_with) — is the same column-wise
/// driver on one or more columns: each column has its own right-hand side,
/// solution, tolerance, cycle budget, warm start and history, and all running
/// columns march through shared outer FGMRES cycles
/// ([`fgmres_cycle`]).
pub struct SolveSession {
    prepared: Arc<PreparedSolver>,
    counters: Arc<KernelCounters>,
    work: Option<SessionWork>,
    generation: u64,
}

impl SolveSession {
    /// The shared setup this session solves against.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedSolver> {
        &self.prepared
    }

    /// Kernel counters of this session (reset at the start of every solve).
    #[must_use]
    pub fn counters(&self) -> &Arc<KernelCounters> {
        &self.counters
    }

    /// Number of times this session has (re)allocated its workspaces: 0
    /// before the first solve, 1 after it, one more each time a call arrives
    /// with more columns than any before it (the one workspace set is
    /// regrown to the wider panel).  A steady-state solve — no wider than the
    /// widest so far — never bumps this.
    #[must_use]
    pub fn workspace_generation(&self) -> u64 {
        self.generation
    }

    /// Heap bytes of this session's own mutable state at its current column
    /// capacity: the outer FGMRES workspace, the whole inner-solver chain,
    /// the true-residual scratch and the packed right-hand-side / solution
    /// panels.  0 before the first solve (workspaces are lazy).  There is one
    /// workspace set whatever mix of single and batched solves the session
    /// has served, so the figure depends only on the widest call.
    ///
    /// This is the *per-session* complement of
    /// [`PreparedSolver::storage_bytes`]: the shared matrix variants and
    /// preconditioner factors the session borrows are priced there, so a
    /// pool holding `s` warm sessions costs
    /// `storage_bytes() + s × workspace_bytes()` resident bytes in total.
    #[must_use]
    pub fn workspace_bytes(&self) -> u64 {
        self.work.as_ref().map_or(0, |work| {
            work.outer.workspace_bytes()
                + work.inner.workspace_bytes()
                + (work.residual.len() + work.bp.len() + work.xp.len()) as u64 * 8
        })
    }

    /// Make the level workspaces hold `k` columns: allocate them on the
    /// first solve, regrow the outer workspace and the packed panels when a
    /// wider call arrives (the inner levels regrow themselves when the wider
    /// panel reaches them).
    fn ensure_work(&mut self, k: usize) {
        let n = self.prepared.dim();
        // A lone column runs on the caller's own vectors: only a session
        // that has seen several needs panels to pack them into.
        let panel = if k > 1 { n * k } else { 0 };
        if let Some(work) = self.work.as_mut() {
            if !work.outer.reserve_columns(k) {
                return;
            }
            work.bp = vec![0.0; panel];
            work.xp = vec![0.0; panel];
        } else {
            let (spec, precond) = (&self.prepared.spec, &self.prepared.precond);
            // The inner-solver chain below the outermost level.
            let inner: Box<dyn InnerSolver<f64>> = if spec.levels.len() == 1 {
                Box::new(PrecondInner::<f64>::new(Arc::clone(precond), Arc::clone(&self.counters), 2))
            } else {
                build_child::<f64>(&spec.levels[1..], 2, &self.prepared.matrix, precond, &self.counters)
            };
            self.work = Some(SessionWork {
                inner,
                outer: FgmresWorkspace::with_columns(n, spec.levels[0].iterations(), k),
                residual: vec![0.0; n],
                bp: vec![0.0; panel],
                xp: vec![0.0; panel],
            });
        }
        self.generation += 1;
    }

    /// Solve `A x = b` from the zero initial guess with the spec's tolerance
    /// and cycle budget, overwriting `x`.
    pub fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        self.solve_one(b, x, &SolveOptions::default(), None)
    }

    /// Solve `A x = b` with per-solve overrides (warm start, tolerance,
    /// cycle budget).
    pub fn solve_with(&mut self, b: &[f64], x: &mut [f64], opts: &SolveOptions<'_>) -> SolveResult {
        self.solve_one(b, x, opts, None)
    }

    /// Solve `A x = b` while reporting progress to `observer` (which may stop
    /// the solve early).
    pub fn solve_observed(
        &mut self,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions<'_>,
        observer: &mut dyn SolveObserver,
    ) -> SolveResult {
        self.solve_one(b, x, opts, Some(observer))
    }

    /// The one-column call of the driver.
    fn solve_one(
        &mut self,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions<'_>,
        observer: Option<&mut dyn SolveObserver>,
    ) -> SolveResult {
        self.drive(&[b], &mut [x], std::slice::from_ref(opts), observer)
            .pop()
            .expect("one result per column")
    }

    /// Solve the `k = bs.len()` systems `A x_c = b_c` together from the zero
    /// initial guess with the spec's tolerance and cycle budget:
    /// [`solve_batch_with`](Self::solve_batch_with) under default options.
    pub fn solve_batch<B: AsRef<[f64]>>(&mut self, bs: &[B], xs: &mut [Vec<f64>]) -> Vec<SolveResult> {
        self.solve_batch_with(bs, xs, &vec![SolveOptions::default(); bs.len()])
    }

    /// Solve the `k = bs.len()` systems `A x_c = b_c` together, column `c`
    /// under `opts[c]` (its own warm start, tolerance and cycle budget), and
    /// return one [`SolveResult`] per system (in input order).  Each `xs[c]`
    /// is resized to the matrix dimension and overwritten.
    ///
    /// All still-running columns march through shared outer FGMRES cycles:
    /// per iteration, their products fuse into one pass over the matrix
    /// ([`ProblemMatrix::apply_multi`]) on every FGMRES level of the nesting
    /// hierarchy, so the dominant matrix-stream traffic is paid once per
    /// batch instead of once per right-hand side.  Each column still runs
    /// its own independent recurrence — same Arnoldi process, same
    /// convergence checks against its own tolerance, bitwise the same
    /// floating-point sequence as its own [`solve_with`](Self::solve_with)
    /// (except under adaptive Richardson levels, whose weight state evolves
    /// in application order; such specs still converge to the same
    /// tolerance, just not bitwise identically).  A column that converges
    /// (true relative residual below its tolerance), breaks down or runs out
    /// of its cycle budget is *deflated* — later cycles and batched kernel
    /// calls no longer carry it; a lone running column is handed to the
    /// cycle as the caller's own vectors.  One column *is*
    /// [`solve_with`](Self::solve_with); with `k = 0` an empty result vector
    /// is returned.
    ///
    /// Because the whole batch shares this session's kernel counters (reset
    /// once at batch start), the `counters`, `precond_applications` and
    /// `seconds` fields of every returned result report **batch totals**,
    /// not per-system shares.  Per-system fields (`converged`,
    /// `outer_iterations`, `residual_history`,
    /// `final_relative_residual`, …) are tracked individually.  Batched
    /// matrix passes are attributed through
    /// [`KernelCounters::record_spmm`], so
    /// `counters.matrix_bytes_total() / counters.spmm_columns_total()`
    /// exposes the per-RHS matrix traffic the batching saves.
    ///
    /// # Panics
    /// Panics if `bs`, `xs` and `opts` differ in length, a right-hand side
    /// or warm start is not `dim()` elements long, or an override is out of
    /// range (like [`solve_with`](Self::solve_with)).
    pub fn solve_batch_with<B: AsRef<[f64]>>(
        &mut self,
        bs: &[B],
        xs: &mut [Vec<f64>],
        opts: &[SolveOptions<'_>],
    ) -> Vec<SolveResult> {
        let (bs, mut xs) = batch_columns(bs, xs, opts, self.prepared.dim());
        self.drive(&bs, &mut xs, opts, None)
    }

    /// The one solve driver: column `c` solves `A xs[c] = bs[c]` under
    /// `opts[c]`, and the `observer`, if any, watches every column.
    pub(crate) fn drive(
        &mut self,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
        opts: &[SolveOptions<'_>],
        mut observer: Option<&mut dyn SolveObserver>,
    ) -> Vec<SolveResult> {
        let k = bs.len();
        if k == 0 {
            return Vec::new();
        }
        let n = self.prepared.dim();
        let start = Instant::now();
        self.ensure_work(k);
        self.counters.reset();
        let mut runs: Vec<ColumnRun> = (0..k)
            .map(|c| {
                let (b, x, opts) = (bs[c], &mut *xs[c], &opts[c]);
                assert_eq!(b.len(), n, "solve: b length mismatch");
                assert_eq!(x.len(), n, "solve: x length mismatch");
                // Per-solve overrides must satisfy the same invariants
                // NestedSpec::check enforces on the spec values they replace.
                let tol = opts.tol.unwrap_or(self.prepared.spec.tol);
                assert!(!tol.is_nan() && tol > 0.0, "solve: tolerance override must be positive");
                let max_cycles = opts.max_outer_cycles.unwrap_or(self.prepared.spec.max_outer_cycles);
                assert!(max_cycles >= 1, "solve: need at least one outer cycle");
                let bnorm = blas1::norm2(b);
                // x = 0 is the exact solution of a zero right-hand side (also
                // under a warm start).
                let trivial = bnorm == 0.0;
                assert!(opts.x0.is_none_or(|x0| x0.len() == n), "solve: x0 length mismatch");
                match opts.x0 {
                    Some(x0) if !trivial => x.copy_from_slice(x0),
                    _ => x.fill(0.0),
                }
                ColumnRun {
                    bnorm,
                    tol,
                    max_cycles,
                    warm: opts.x0.is_some(),
                    outer_iterations: 0,
                    history: Vec::new(),
                    stop_reason: if trivial { StopReason::Converged } else { StopReason::MaxIterations },
                    done: trivial,
                    user_stopped: false,
                }
            })
            .collect();

        // Columns of the call behind the columns of the cycle's panel, and
        // their tolerances and warm flags in panel order.
        let mut packed: Vec<usize> = Vec::with_capacity(k);
        let mut abs_tols: Vec<f64> = Vec::with_capacity(k);
        let mut x_nonzero: Vec<bool> = Vec::with_capacity(k);
        // Every running column has run every cycle so far, so the cycle
        // counts are the driver's; only the budgets are per column.
        let mut total_cycles = 0usize;
        loop {
            packed.clear();
            for (c, run) in runs.iter_mut().enumerate() {
                // A column out of budget keeps its `MaxIterations` verdict.
                run.done |= total_cycles >= run.max_cycles;
                if !run.done {
                    run.user_stopped = false;
                    packed.push(c);
                }
            }
            let ka = packed.len();
            if ka == 0 {
                break;
            }
            abs_tols.clear();
            abs_tols.extend(packed.iter().map(|&c| runs[c].tol * runs[c].bnorm));
            x_nonzero.clear();
            x_nonzero.extend(packed.iter().map(|&c| runs[c].warm || total_cycles > 0));
            let cycle = total_cycles;

            let SessionWork {
                inner,
                outer,
                residual,
                bp,
                xp,
            } = self.work.as_mut().expect("workspaces allocated by ensure_work");
            // A lone running column is the caller's own vectors; several are
            // packed into contiguous panels, so deflated columns stop paying
            // for matrix, preconditioner and basis work.
            let lone = match packed[..] {
                [c] => Some(c),
                _ => None,
            };
            let (xs_cycle, bs_cycle): (&mut [f64], &[f64]) = match lone {
                Some(c) => (&mut *xs[c], bs[c]),
                None => {
                    for (p, &c) in packed.iter().enumerate() {
                        bp[p * n..(p + 1) * n].copy_from_slice(bs[c]);
                        xp[p * n..(p + 1) * n].copy_from_slice(xs[c]);
                    }
                    (&mut xp[..ka * n], &bp[..ka * n])
                }
            };
            let mut hook = observer.as_deref_mut().map(|observer| OuterHook {
                observer,
                runs: &mut runs,
                packed: &packed,
                cycle,
            });
            let outcomes = fgmres_cycle(
                CycleParams {
                    matrix: &self.prepared.matrix,
                    mat_storage: MatrixStorage::Plain(Precision::Fp64),
                    inner: inner.as_mut(),
                    abs_tols: Some(&abs_tols),
                    x_nonzero: Some(&x_nonzero),
                    depth: 1,
                    counters: &self.counters,
                    progress: hook.as_mut().map(|hook| -> &mut dyn CycleProgress { hook }),
                },
                xs_cycle,
                bs_cycle,
                outer,
                ka,
            );

            for (p, &c) in packed.iter().enumerate() {
                if lone.is_none() {
                    xs[c].copy_from_slice(&xp[p * n..(p + 1) * n]);
                }
                let (run, outcome) = (&mut runs[c], outcomes[p]);
                run.outer_iterations += outcome.iterations;
                let true_rel = self
                    .prepared
                    .matrix
                    .true_relative_residual_with(xs[c], bs[c], residual);
                run.history.push(true_rel);
                if !true_rel.is_finite() {
                    run.finish(StopReason::Breakdown);
                } else if true_rel < run.tol {
                    run.finish(StopReason::Converged);
                } else if run.user_stopped
                    || observer.as_deref_mut().is_some_and(|obs| {
                        let event = CycleEvent {
                            column: c,
                            cycle,
                            outer_iterations: run.outer_iterations,
                            true_relative_residual: true_rel,
                        };
                        obs.on_cycle_complete(&event) == SolveControl::Stop
                    })
                {
                    run.finish(StopReason::Stopped);
                } else if outcome.breakdown && outcome.iterations == 0 {
                    // A breakdown that still produced iterations restarts;
                    // only a sterile cycle is terminal.
                    run.finish(StopReason::Breakdown);
                }
            }
            total_cycles += 1;
        }

        let seconds = start.elapsed().as_secs_f64();
        let snapshot = self.counters.snapshot();
        runs.into_iter()
            .map(|run| self.prepared.result(run.stop_reason, run.outer_iterations, run.history, snapshot, seconds))
            .collect()
    }
}

/// The columns of a batch call, each `xs[c]` resized to `n`.
///
/// # Panics
/// Panics if `bs`, `xs` and `opts` differ in length.
pub(crate) fn batch_columns<'a, B: AsRef<[f64]>>(
    bs: &'a [B],
    xs: &'a mut [Vec<f64>],
    opts: &[SolveOptions<'_>],
    n: usize,
) -> (Vec<&'a [f64]>, Vec<&'a mut [f64]>) {
    assert_eq!(
        bs.len(),
        xs.len(),
        "solve_batch: need one solution vector per right-hand side"
    );
    assert_eq!(bs.len(), opts.len(), "solve_batch: need one set of options per right-hand side");
    let xs = xs
        .iter_mut()
        .map(|x| {
            x.resize(n, 0.0);
            x.as_mut_slice()
        })
        .collect();
    (bs.iter().map(AsRef::as_ref).collect(), xs)
}

impl SparseSolver for SolveSession {
    fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        SolveSession::solve(self, b, x)
    }

    fn name(&self) -> String {
        self.prepared.spec.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_sparse::gen::hpcg::hpcg_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    fn small_prepared() -> Arc<PreparedSolver> {
        let a = jacobi_scale(&poisson2d_5pt(16, 16));
        SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .levels(vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(5, Precision::Fp64, Precision::Fp64),
            ])
            .build()
    }

    #[test]
    fn prepared_solver_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedSolver>();
        fn assert_send<T: Send>() {}
        assert_send::<SolveSession>();
    }

    #[test]
    fn builder_scheme_path_matches_f3r_spec() {
        let a = jacobi_scale(&hpcg_matrix(4, 4, 4));
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .scheme(F3rScheme::Fp16)
            .build();
        let reference = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default());
        assert_eq!(prepared.spec().name, reference.name);
        assert_eq!(prepared.spec().levels, reference.levels);
        assert_eq!(prepared.spec().precond_prec, reference.precond_prec);
        assert_eq!(prepared.precond().storage_precision(), Precision::Fp16);
    }

    #[test]
    fn builder_overrides_win_over_spec() {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let spec = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default());
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .spec(spec)
            .precond(PrecondKind::Jacobi)
            .precond_precision(Precision::Fp64)
            .tol(1e-6)
            .max_outer_cycles(7)
            .name("renamed")
            .build();
        let s = prepared.spec();
        assert_eq!(s.precond, PrecondKind::Jacobi);
        assert_eq!(s.precond_prec, Precision::Fp64);
        assert_eq!(s.tol, 1e-6);
        assert_eq!(s.max_outer_cycles, 7);
        assert_eq!(s.name, "renamed");
    }

    #[test]
    fn builder_params_with_spec_is_rejected_not_ignored() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let spec = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default());
        let err = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .spec(spec)
            .params(F3rParams::with_inner(9, 4, 2))
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("params() only applies"));
    }

    #[test]
    fn builder_params_drive_the_scheme_path() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .scheme(F3rScheme::Fp16)
            .params(F3rParams::with_inner(9, 4, 2))
            .build();
        assert_eq!(prepared.spec().tuple_notation(), "(F100, F9, F4, R2, M)");
    }

    #[test]
    fn builder_without_levels_errors() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let err = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("level structure"));
    }

    #[test]
    fn builder_basis_storage_compresses_inner_levels() {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .levels(vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(5, Precision::Fp32, Precision::Fp32),
            ])
            .basis_storage(Precision::Fp16)
            .build();
        assert_eq!(prepared.spec().levels[0].basis_precision(), Some(Precision::Fp64));
        assert_eq!(prepared.spec().levels[1].basis_precision(), Some(Precision::Fp16));
    }

    #[test]
    fn builder_matrix_storage_rewrites_inner_levels() {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let prepared = SolverBuilder::new(Arc::clone(&pm))
            .levels(vec![
                LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(5, Precision::Fp32, Precision::Fp32),
            ])
            .matrix_storage(MatrixStorage::Scaled(Precision::Fp16))
            .build();
        assert_eq!(
            prepared.spec().levels[0].matrix_storage(),
            MatrixStorage::Plain(Precision::Fp64)
        );
        assert_eq!(
            prepared.spec().levels[1].matrix_storage(),
            MatrixStorage::Scaled(Precision::Fp16)
        );
        // Setup already materialized the variants the chain streams.
        assert!(pm.is_materialized(MatrixStorage::Scaled(Precision::Fp16)));
        let n = prepared.dim();
        let b = random_rhs(n, 11);
        let mut x = vec![0.0; n];
        let r = prepared.session().solve(&b, &mut x);
        assert!(r.converged, "{r}");
        // The scaled fp16 stream shows up in the matrix-traffic attribution.
        assert!(r.counters.matrix_bytes_in(Precision::Fp16) > 0);
    }

    #[test]
    fn auto_spec_picks_plain_fp16_on_a_benign_matrix_and_solves() {
        let a = jacobi_scale(&poisson2d_5pt(16, 16));
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .auto_spec()
            .precond(PrecondKind::Jacobi)
            .build();
        // Every entry of the diagonally scaled Laplacian fits plain fp16, so
        // the cheapest admissible candidate is the unscaled fp16 scheme.
        assert_eq!(prepared.name(), "auto:fp16-F3R");
        let n = prepared.dim();
        let b = random_rhs(n, 21);
        let mut x = vec![0.0; n];
        let r = prepared.session().solve(&b, &mut x);
        assert!(r.converged, "{r}");
    }

    #[test]
    fn auto_spec_rejects_params_like_other_non_scheme_paths() {
        let a = jacobi_scale(&poisson2d_5pt(4, 4));
        let err = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .auto_spec()
            .params(F3rParams::with_inner(9, 4, 2))
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("params() only applies"));
    }

    #[test]
    fn session_solves_and_reuses_workspaces() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        assert_eq!(session.workspace_generation(), 0);
        let n = prepared.dim();
        let b = random_rhs(n, 42);
        let mut x = vec![0.0; n];
        let r1 = session.solve(&b, &mut x);
        assert!(r1.converged, "{r1}");
        assert_eq!(session.workspace_generation(), 1);
        let r2 = session.solve(&b, &mut x);
        assert!(r2.converged);
        assert_eq!(session.workspace_generation(), 1);
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 9);
        let mut x = vec![0.0; n];
        assert!(session.solve(&b, &mut x).converged);
        // Re-solving warm-started from the converged solution takes at most
        // one cheap cycle; the iteration count must collapse.
        let cold_iters = session.solve(&b, &mut vec![0.0; n]).outer_iterations;
        let x0 = x.clone();
        let warm = session.solve_with(&b, &mut x, &SolveOptions::new().x0(&x0));
        assert!(warm.converged);
        assert!(
            warm.outer_iterations < cold_iters,
            "warm {} !< cold {}",
            warm.outer_iterations,
            cold_iters
        );
    }

    #[test]
    fn per_solve_tol_override_changes_stopping_point() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 3);
        let mut x = vec![0.0; n];
        let loose = session.solve_with(&b, &mut x, &SolveOptions::new().tol(1e-2));
        assert!(loose.converged);
        let tight = session.solve(&b, &mut x);
        assert!(tight.converged);
        assert!(loose.outer_iterations < tight.outer_iterations);
        assert!(loose.final_relative_residual > tight.final_relative_residual);
    }

    #[test]
    fn observer_sees_every_outer_iteration_and_can_stop() {
        struct Recorder {
            events: Vec<OuterEvent>,
            stop_after: usize,
        }
        impl SolveObserver for Recorder {
            fn on_outer_iteration(&mut self, event: &OuterEvent) -> SolveControl {
                self.events.push(*event);
                if self.events.len() >= self.stop_after {
                    SolveControl::Stop
                } else {
                    SolveControl::Continue
                }
            }
        }
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 5);
        let mut x = vec![0.0; n];

        // Unbounded observer: sees exactly the executed iterations, with
        // monotone global numbering and shrinking residual estimates.
        let mut all = Recorder { events: Vec::new(), stop_after: usize::MAX };
        let full = session.solve_observed(&b, &mut x, &SolveOptions::new(), &mut all);
        assert!(full.converged);
        assert_eq!(all.events.len(), full.outer_iterations);
        for (i, ev) in all.events.iter().enumerate() {
            assert_eq!(ev.outer_iteration, i + 1);
        }
        assert!(all.events.last().unwrap().relative_residual_estimate < 1e-8);

        // Early stop: exactly 3 events, reported as Stopped.
        let mut early = Recorder { events: Vec::new(), stop_after: 3 };
        let stopped = session.solve_observed(&b, &mut x, &SolveOptions::new(), &mut early);
        assert_eq!(early.events.len(), 3);
        assert!(!stopped.converged);
        assert_eq!(stopped.stop_reason, StopReason::Stopped);
        assert_eq!(stopped.outer_iterations, 3);
    }

    #[test]
    fn observer_cycle_events_report_true_residuals() {
        struct CycleRecorder(Vec<CycleEvent>);
        impl SolveObserver for CycleRecorder {
            fn on_cycle_complete(&mut self, event: &CycleEvent) -> SolveControl {
                self.0.push(*event);
                SolveControl::Continue
            }
        }
        let a = jacobi_scale(&poisson2d_5pt(24, 24));
        let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
            .levels(vec![
                LevelSpec::fgmres(5, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres(3, Precision::Fp64, Precision::Fp64),
            ])
            .precond(PrecondKind::Jacobi)
            .max_outer_cycles(4)
            .build();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 7);
        let mut x = vec![0.0; n];
        let mut rec = CycleRecorder(Vec::new());
        let r = session.solve_observed(&b, &mut x, &SolveOptions::new(), &mut rec);
        // A converging final cycle breaks before on_cycle_complete, so the
        // recorder sees every cycle except (if it converged) the last one.
        assert!(!rec.0.is_empty());
        assert_eq!(
            rec.0.len(),
            r.residual_history.len() - usize::from(r.converged)
        );
        for pair in rec.0.windows(2) {
            assert!(pair[1].true_relative_residual < pair[0].true_relative_residual);
        }
    }

    #[test]
    fn drive_observer_stops_one_column_of_a_batch() {
        /// Stops column `column` at its `after`-th iteration and records
        /// every event as `(column, outer_iteration)`.
        struct StopColumn {
            column: usize,
            after: usize,
            seen: Vec<(usize, usize)>,
        }
        impl SolveObserver for StopColumn {
            fn on_outer_iteration(&mut self, event: &OuterEvent) -> SolveControl {
                self.seen.push((event.column, event.outer_iteration));
                if event.column == self.column && event.outer_iteration == self.after {
                    SolveControl::Stop
                } else {
                    SolveControl::Continue
                }
            }
        }
        let prepared = small_prepared();
        let n = prepared.dim();
        let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 300 + s)).collect();
        let mut xs = vec![vec![0.0; n]; 3];
        let mut stop = StopColumn { column: 1, after: 5, seen: Vec::new() };
        let results = {
            let bs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
            let mut xs: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
            prepared.session().drive(&bs, &mut xs, &[SolveOptions::new(); 3], Some(&mut stop))
        };
        assert_eq!(results[1].stop_reason, StopReason::Stopped);
        assert_eq!(results[1].outer_iterations, 5);
        assert!(results[0].converged && results[2].converged);
        for c in 0..3 {
            // Every event carries its column, numbered through its own solve.
            let seen: Vec<usize> = stop.seen.iter().filter(|e| e.0 == c).map(|e| e.1).collect();
            assert_eq!(seen, (1..=results[c].outer_iterations).collect::<Vec<_>>(), "column {c}");
            // Each column is bitwise its lone solve under the same observer.
            let after = if c == 1 { 5 } else { usize::MAX };
            let mut alone = StopColumn { column: 0, after, seen: Vec::new() };
            let mut x = vec![0.0; n];
            let r = prepared.session().solve_observed(&bs[c], &mut x, &SolveOptions::new(), &mut alone);
            assert_eq!(xs[c], x, "column {c}");
            assert_eq!(results[c].stop_reason, r.stop_reason, "column {c}");
            assert_eq!(results[c].outer_iterations, r.outer_iterations, "column {c}");
            assert_eq!(results[c].residual_history, r.residual_history, "column {c}");
        }
    }

    #[test]
    fn solve_batch_columns_are_bitwise_equal_to_sequential_solves() {
        // FGMRES-only chain: every batched column computes the exact
        // floating-point sequence of its sequential solve, so solutions,
        // iteration counts and residual histories must match bitwise.
        let prepared = small_prepared();
        let n = prepared.dim();
        let k = 4;
        let bs: Vec<Vec<f64>> = (0..k).map(|s| random_rhs(n, 200 + s as u64)).collect();
        let mut xs = vec![Vec::new(); k];
        let mut session = prepared.session();
        let results = session.solve_batch(&bs, &mut xs);
        assert_eq!(results.len(), k);
        assert_eq!(session.workspace_generation(), 1);
        for c in 0..k {
            let mut x_ref = vec![0.0; n];
            let r_ref = prepared.session().solve(&bs[c], &mut x_ref);
            assert!(results[c].converged, "rhs {c}: {}", results[c]);
            assert_eq!(results[c].converged, r_ref.converged);
            assert_eq!(results[c].stop_reason, r_ref.stop_reason);
            assert_eq!(results[c].outer_iterations, r_ref.outer_iterations, "rhs {c}");
            assert_eq!(results[c].residual_history, r_ref.residual_history, "rhs {c}");
            assert_eq!(xs[c], x_ref, "rhs {c}: batched column diverged bitwise");
        }
        // One batched matrix pass per outer iteration, each serving every
        // still-running column.
        let cnt = &results[0].counters;
        assert!(cnt.total_spmm() > 0);
        assert!(cnt.spmm_columns_total() >= cnt.total_spmm() * 2);
    }

    #[test]
    fn solve_batch_deflates_trivial_and_easy_columns() {
        let prepared = small_prepared();
        let n = prepared.dim();
        // Column 1 is the all-zero RHS: converged before the first cycle,
        // with an empty history, while its neighbours still iterate.
        let bs = vec![random_rhs(n, 31), vec![0.0; n], random_rhs(n, 32)];
        let mut xs = vec![Vec::new(); 3];
        let results = prepared.session().solve_batch(&bs, &mut xs);
        assert!(results.iter().all(|r| r.converged));
        assert_eq!(results[1].outer_iterations, 0);
        assert!(results[1].residual_history.is_empty());
        assert!(xs[1].iter().all(|&v| v == 0.0));
        for c in [0usize, 2] {
            assert!(results[c].outer_iterations > 0);
            assert!(prepared.matrix().true_relative_residual(&xs[c], &bs[c]) < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "solve_batch: need one solution vector per right-hand side")]
    fn solve_batch_mismatched_lengths_panic() {
        let prepared = small_prepared();
        let bs = vec![vec![0.0; prepared.dim()]; 2];
        let mut xs = vec![Vec::new(); 3];
        let _ = prepared.session().solve_batch(&bs, &mut xs);
    }

    #[test]
    #[should_panic(expected = "b length mismatch")]
    fn solve_batch_short_rhs_panics() {
        let prepared = small_prepared();
        let bs = vec![vec![0.0; prepared.dim()], vec![0.0; 3]];
        let mut xs = vec![Vec::new(); 2];
        let _ = prepared.session().solve_batch(&bs, &mut xs);
    }

    #[test]
    #[should_panic(expected = "tolerance override must be positive")]
    fn nan_tol_override_is_rejected() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 1);
        let mut x = vec![0.0; n];
        let _ = session.solve_with(&b, &mut x, &SolveOptions::new().tol(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "need at least one outer cycle")]
    fn zero_cycle_override_is_rejected() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = random_rhs(n, 1);
        let mut x = vec![0.0; n];
        let _ = session.solve_with(&b, &mut x, &SolveOptions::new().max_outer_cycles(0));
    }

    #[test]
    fn zero_rhs_is_trivially_converged_even_with_warm_start() {
        let prepared = small_prepared();
        let mut session = prepared.session();
        let n = prepared.dim();
        let b = vec![0.0; n];
        let x0 = vec![1.0; n];
        let mut x = vec![2.0; n];
        let r = session.solve_with(&b, &mut x, &SolveOptions::new().x0(&x0));
        assert!(r.converged);
        assert_eq!(r.outer_iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
