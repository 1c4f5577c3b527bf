//! # f3r-core — the nested mixed-precision Krylov solver of the paper
//! *"A Nested Krylov Method Using Half-Precision Arithmetic"*
//! (Suzuki & Iwashita, 2025).
//!
//! The crate provides:
//!
//! * the prepared-solver session API ([`session`]): a fluent
//!   [`SolverBuilder`] compiles problem + spec + preconditioner into an
//!   immutable, `Arc`-shareable [`PreparedSolver`]; concurrent
//!   [`SolveSession`]s own the mutable workspaces and run every solve —
//!   one right-hand side or a batch, each column with its own warm start,
//!   tolerance and cycle budget, observed or not — through one column-wise
//!   driver,
//! * the one FGMRES cycle ([`fgmres`]): `k` independent recurrences share
//!   one matrix pass per iteration (`ProblemMatrix::apply_multi`), cutting
//!   the dominant per-RHS matrix traffic to `1/k` while staying bitwise
//!   equal, per column, to `k` one-column solves; a single right-hand side
//!   is the one-column batch,
//! * the nested-solver framework ([`nested`]): declarative [`NestedSpec`]s
//!   built from FGMRES and Richardson levels with per-level matrix/vector
//!   precisions,
//! * the demand-driven matrix store ([`operator`]): [`ProblemMatrix`] is a
//!   lazy per-(storage, format) variant table — plain *and* row-scaled
//!   fp64/fp32/fp16 copies in CSR or sliced-ELLPACK, materialized only when
//!   a level streams them; pick the axis per level via the `matrix` field of
//!   [`LevelSpec`] or spec-wide via [`NestedSpec::with_matrix_storage`]
//!   (scaled fp16 keeps half-precision matrix streaming robust on any entry
//!   dynamic range),
//! * compressed Krylov-basis storage ([`basis`]): the Arnoldi and flexible
//!   bases of every FGMRES level can be stored below the level's working
//!   precision (one amplitude scale per vector, see
//!   [`basis::CompressedBasis`]); pick the storage axis per level via the
//!   `basis_prec` field of [`LevelSpec`] or spec-wide via
//!   [`NestedSpec::with_basis_storage`],
//! * adaptive runtime precision ([`adaptive`]): an
//!   [`AdaptiveSession`](adaptive::AdaptiveSession) runs the one driver one
//!   restart cycle at a time, and per-column stall detectors over the outer
//!   residual trace move the inner levels to wider matrix/basis variants at
//!   a cycle boundary, and back after sustained progress; plus a cost-model
//!   autotuner that picks the initial spec per matrix
//!   ([`SolverBuilder::auto_spec`](session::SolverBuilder::auto_spec)),
//! * the paper's solver presets ([`f3r`]): fp64-/fp32-/fp16-F3R (Table 1) and
//!   the nesting-depth references F2, fp16-F2, F3, fp16-F3, F4 (Table 4),
//! * the innermost Richardson solver with adaptive weight updating
//!   ([`richardson`], Algorithm 1),
//! * the baselines of Section 5 ([`baseline`]): preconditioned CG, BiCGStab
//!   and restarted FGMRES(64) with fp64/fp32/fp16 preconditioner storage,
//! * the memory-access cost model of Section 4.1 ([`cost_model`]),
//! * instrumentation (preconditioner counts for Table 3, modeled traffic).
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use f3r_core::prelude::*;
//! use f3r_precond::PrecondKind;
//! use f3r_sparse::gen::hpcg::hpcg_matrix;
//! use f3r_sparse::gen::rhs::random_rhs;
//! use f3r_sparse::scaling::jacobi_scale;
//!
//! // HPCG-like SPD problem, diagonally scaled as in the paper.
//! let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
//! let n = a.n_rows();
//! let matrix = Arc::new(ProblemMatrix::from_csr(a));
//!
//! // fp16-F3R with the default (100, 8, 4, 2) parameters and IC(0):
//! // setup (precision copies + factorisation) once …
//! let prepared = SolverBuilder::new(matrix)
//!     .scheme(F3rScheme::Fp16)
//!     .precond(PrecondKind::Ic0 { alpha: 1.0 })
//!     .build();
//!
//! // … then any number of (possibly concurrent) solve sessions.
//! let mut session = prepared.session();
//! let b = random_rhs(n, 1);
//! let mut x = vec![0.0; n];
//! let result = session.solve(&b, &mut x);
//! assert!(result.converged);
//! assert!(result.final_relative_residual < 1e-8);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod baseline;
pub mod basis;
pub mod convergence;
pub mod cost_model;
pub mod f3r;
pub mod fgmres;
pub mod fingerprint;
pub mod inner;
pub mod nested;
pub mod operator;
pub mod precond_any;
pub mod richardson;
pub mod session;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::adaptive::{
        AdaptivePolicy, AdaptiveSession, AutoTuneConfig, PrecisionSwitch, StallConfig, StallDetector,
        StallSignal,
    };
    pub use crate::baseline::{BaselineConfig, BiCgStabSolver, CgSolver, RestartedFgmresSolver};
    pub use crate::basis::CompressedBasis;
    pub use crate::convergence::{SolveResult, SparseSolver, StopReason};
    pub use crate::f3r::{
        f2_spec, f3_spec, f3r_spec, f3r_spec_fixed_weight, f4_spec, fp16_f2_spec, fp16_f3_spec,
        F3rParams, F3rScheme, SolverSettings,
    };
    pub use crate::nested::{LevelSpec, NestedSpec, SpecError};
    pub use crate::operator::{MatrixFormat, MatrixStorage, ProblemMatrix, SpmvBackend, VariantInfo};
    pub use crate::richardson::WeightStrategy;
    pub use crate::session::{
        CycleEvent, OuterEvent, PreparedSolver, SolveControl, SolveObserver, SolveOptions, SolveSession,
        SolverBuilder,
    };
}

pub use convergence::{SolveResult, SparseSolver, StopReason};
pub use nested::{LevelSpec, NestedSpec, SpecError};
pub use operator::{MatrixFormat, MatrixStorage, ProblemMatrix, SpmvBackend, VariantInfo};
pub use session::{PreparedSolver, SolveObserver, SolveOptions, SolveSession, SolverBuilder};
