//! Precision layer for the F3R nested Krylov solver reproduction.
//!
//! The paper *"A Nested Krylov Method Using Half-Precision Arithmetic"*
//! (Suzuki & Iwashita, 2025) builds a solver whose levels run in three
//! different floating-point precisions (fp64, fp32 and IEEE binary16).  This
//! crate provides everything the rest of the workspace needs to talk about
//! precision:
//!
//! * [`Scalar`] — a trait abstracting over `f64`, `f32` and [`half::f16`]
//!   so that sparse kernels and solvers can be written once and instantiated
//!   per precision level,
//! * [`Precision`] — a runtime tag describing a precision (used by solver
//!   configuration, reports and the memory-traffic model),
//! * [`convert`] — slice conversion helpers used by the precision bridges
//!   between nesting levels,
//! * [`traffic`] — the memory-access model of the paper (Section 4.1,
//!   Eqs. 1–3) generalised to arbitrary value/index byte widths,
//! * [`counters`] — lock-free instrumentation counters used to reproduce
//!   Table 3 (preconditioner-invocation counts) and the modeled-traffic
//!   columns of the experiment reports.

#![warn(missing_docs)]

pub mod convert;
pub mod counters;
pub mod scalar;
pub mod traffic;

pub use convert::{convert_slice, convert_vec, copy_into, round_trip_error, Widened};
pub use counters::{CounterSnapshot, KernelCounters};
pub use scalar::{FromScalar, Precision, Scalar, SliceView, SliceViewMut};

/// Re-export of the IEEE binary16 type used throughout the workspace.
pub use half::f16;
