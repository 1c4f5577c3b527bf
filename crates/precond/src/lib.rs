//! Preconditioner substrate for the F3R reproduction.
//!
//! The paper's *primary preconditioner* `M` is an algebraic preconditioner
//! applied at the innermost level of the nested solver: block-Jacobi
//! ILU(0)/IC(0) on the CPU node (Section 5.1) and the SD-AINV approximate
//! inverse on the GPU node (Section 5.2).  This crate provides those
//! preconditioners (plus Jacobi and identity baselines), all constructed in
//! fp64 and stored/applied in an arbitrary precision `T` so they can serve
//! the fp64-, fp32- and fp16-variants of every solver in the study.
//!
//! # Triangular solves
//!
//! IC(0) and ILU(0) apply their factors with one shared pair of sparse
//! triangular sweeps (`src/trisolve.rs`).  Their contract: within one
//! application `z = M r` the working vector is carried in
//! [`Scalar::Accum`](f3r_precision::Scalar::Accum) and every entry of the
//! result is rounded to the storage precision exactly once, on the way out.
//! For fp32 and fp64 the accumulation type is the storage type, so the sweeps
//! run in place on `z` and the results are bitwise those of the plain loops.
//! For fp16 the working vector is a per-thread fp32 scratch the size of the
//! block being solved and the stored values are widened in bulk, a window of
//! consecutive values at a time: no partial result is rounded to fp16 (an
//! intermediate beyond 65504 does not overflow, only a final value does), the
//! result is closer to the fp64 one than a computation that stores every
//! partial result in fp16, and it is bitwise the same on every kernel backend,
//! because widening is exact and the multiply–subtract loops are the same
//! scalar loops everywhere.  Nothing on this path allocates in steady state.
//!
//! # Panels
//!
//! [`Preconditioner::apply_panel`] applies `M` to a column-major panel of
//! right-hand sides; every column of the result is bitwise the single
//! application.  IC(0), ILU(0) and block-Jacobi run the same sweeps on lane
//! groups of eight columns: a group is interleaved into a per-thread block
//! panel in the accumulation precision (entry `i` of the eight columns side
//! by side), each stored factor value is fetched and widened once per sweep
//! for all eight, and the one multiply and one subtract per stored value act
//! on the eight lanes at once.  The dependency chain that bounds a single
//! application (each row needs its predecessor's result) is shared by the
//! group, so a panel application costs about one single application.  A
//! group of fewer than `f3r_parallel::thresholds::PANEL_MIN_COLUMNS` columns
//! is applied column by column; the other preconditioners keep the trait's
//! column loop.

#![warn(missing_docs)]

pub mod ainv;
pub mod block_jacobi;
pub mod config;
pub mod ic0;
pub mod ilu0;
pub mod jacobi;
pub mod traits;
mod trisolve;

pub use ainv::SdAinvPrecond;
pub use block_jacobi::BlockJacobiPrecond;
pub use config::{build_preconditioner, PrecondKind};
pub use ic0::Ic0Precond;
pub use ilu0::Ilu0Precond;
pub use jacobi::JacobiPrecond;
pub use traits::{IdentityPrecond, Preconditioner};
