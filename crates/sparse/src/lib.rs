//! Sparse linear-algebra substrate for the F3R reproduction.
//!
//! The paper's solvers are built on a small set of memory-bound kernels:
//! one sparse product over CSR / sliced-ELLPACK storage in several precisions
//! ([`spmm::spmm`]: any number of vectors, three epilogues, one dispatch),
//! dense vector (BLAS-1) operations, and problem generators for the HPCG /
//! HPGMP benchmark matrices plus synthetic analogues of the SuiteSparse test
//! set.  This crate provides all of them, generic over the working precision
//! via [`f3r_precision::Scalar`], run inline or as chunk tasks on the
//! persistent `f3r-parallel` worker pool (above the shared
//! `f3r_parallel::thresholds`).
//!
//! # The direct-widening convention
//!
//! The whole point of fp16/fp32 storage in the paper is that the memory-bound
//! kernels run at the *narrow* precision's bandwidth while arithmetic happens
//! in a safe *accumulation* precision.  The kernel layer therefore separates
//! three precisions:
//!
//! * **storage precision `TA`** — how the matrix values are stored
//!   (fp64/fp32/fp16 per nesting level),
//! * **vector precision `TV`** — how the dense vectors are stored,
//! * **accumulation precision `TV::Accum`** — where multiplies and long sums
//!   happen: `f32` for fp16 vectors, otherwise `TV` itself.
//!
//! Every stored operand enters the accumulator with **one direct
//! conversion** — vectors via [`f3r_precision::Scalar::widen`] (exact),
//! matrix values via [`f3r_precision::FromScalar::from_scalar`]
//! (`TA → TV::Accum`) — and results are rounded back **once** per element
//! with [`f3r_precision::Scalar::narrow`].  Hot loops are unrolled over
//! independent accumulators (4-way SpMV rows, 8-way dots) with no
//! per-element `mul_add`, so LLVM autovectorises them.  The historical
//! kernels, which converted every element through `f64`
//! (`from_f64(x.to_f64())`) and issued a scalar FMA per element, are
//! preserved in [`mod@reference`] as correctness and performance baselines
//! only.
//!
//! ## Fused kernels
//!
//! The solvers' iteration loops pair reductions with the sweeps that produce
//! their operands; the kernel layer fuses those pairs so the operand is
//! never re-read from memory:
//!
//! * [`spmm::PanelOp::Residual`] — `r = b − A x` with the subtraction in the
//!   accumulator,
//! * [`spmm::PanelOp::Dot2`] — `y = A x` plus `(uᵀy, yᵀy)` in one sweep (the
//!   adaptive Richardson weight, CG's `(p, Ap)`, BiCGStab's `(t,s)/(t,t)`),
//! * [`blas1::axpy_norm2`] / [`blas1::waxpby_norm2`] — vector update plus
//!   the updated vector's norm²,
//! * [`blas1::project_compressed`] / [`blas1::subtract_projections`] —
//!   FGMRES's classical Gram–Schmidt: all `j + 1` projections of the new
//!   direction in one pass over it, then all `j + 1` updates plus the norm²
//!   of the result in one read and one write of it, bitwise the per-vector
//!   calls they replace.
//!
//! ## Compressed-basis kernels
//!
//! On top of the storage/compute split for matrices, the kernel layer
//! supports *basis* vectors stored below the working precision: a compressed
//! basis vector is `(stored, scale)` with elements in a storage precision
//! (fp16/fp32) and one power-of-two `f64` amplitude scale per vector.
//! [`blas1::narrow_scaled_into`] compresses on write,
//! [`blas1::widen_scaled_into`] decompresses, and the Gram–Schmidt sweeps
//! [`blas1::project_compressed`] / [`blas1::subtract_projections`], the
//! per-vector [`blas1::dot_compressed`] / [`blas1::dot2_compressed`] /
//! [`blas1::axpy_scaled_from`] and [`blas1::norm2_compressed`] operate on
//! the compressed form directly, widening each stored element exactly once.
//! The sweeps read their basis through an accessor, `i ↦ (stored, scale)`,
//! so `f3r-core`'s `CompressedBasis` — the Krylov-basis storage of FGMRES —
//! hands them its slots without gathering them into a list first.
//!
//! ## Scaled matrix storage
//!
//! The same power-of-two amplitude convention applies to the matrix itself:
//! a [`StoredMatrix`] — one layout (CSR or sliced ELLPACK) in one storage
//! precision, the owned twin of the [`spmm::Rows`] view — may be *row-scaled*
//! ([`StoredMatrix::row_scaled`]): row-normalised values (`|stored| ≤ 1`) in
//! a narrow precision plus one `f64` scale per row, so fp16 matrix storage
//! survives any entry dynamic range — general Matrix Market inputs (see
//! [`io::EntryRangeStats`]) would otherwise overflow an unscaled fp16 copy
//! to ±∞.  The product driver streams plain and scaled storage through the
//! same row loops: each stored element is widened exactly once and the row
//! scale is folded into the accumulated sum once per row.
//!
//! ## Storage is no wider than the working precision
//!
//! A matrix is never stored wider than the vectors it meets (`TA ≤ TV`; the
//! paper's Table 1 only ever narrows storage), and [`spmm::spmm`] refuses a
//! wide pair on constants, so of the nine `(TA, TV)` pairs the six a solve
//! can reach are the ones compiled.
//!
//! The layer is timed by the standing benchmark (`benchmark/` at the
//! repository root): `sparse.spmv_s.*` for the single-vector product over
//! the four matrix/vector pairs of Table 1, `sparse.spmm8_col_s.*` for a
//! column of an eight-column panel and `sparse.orth_vec_s.*` for a
//! Gram–Schmidt sweep over a compressed basis — still through the per-pair
//! calls, not the one-sweep kernels FGMRES runs.
//!
//! # Quick example
//!
//! ```
//! use f3r_sparse::gen::hpcg::hpcg_matrix;
//! use f3r_sparse::spmm::{spmm, Dispatch, PanelOp};
//! use f3r_sparse::spmv::spmv;
//!
//! let a = hpcg_matrix(8, 8, 8);          // 27-point stencil, n = 512
//! let x = vec![1.0_f64; a.n_cols()];
//! let mut y = vec![0.0_f64; a.n_rows()];
//! spmv(&a, &x, &mut y);                  // the one-column plain product
//! assert!(y.iter().all(|v| *v >= 0.0));  // weak diagonal dominance
//!
//! // The same product fused with the residual of `A x = 2 y`, fp16 storage:
//! let a16 = a.to_precision::<half::f16>();
//! let b: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
//! let mut r = vec![0.0_f64; a.n_rows()];
//! spmm(&a16, &x, PanelOp::Residual(&b), &mut r, 1, Dispatch::Auto);
//! assert_eq!(r, y);                      // HPCG's entries are exact in fp16
//! ```

#![warn(missing_docs)]

pub mod blas1;
pub mod coo;
pub mod csr;
pub mod gen;
pub mod io;
pub mod reference;
pub mod scaling;
pub mod sell;
pub mod spmm;
pub mod spmv;
pub mod stats;
pub mod stored;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use io::EntryRangeStats;
pub use scaling::ScaledSystem;
pub use sell::SellMatrix;
pub use stats::MatrixStats;
pub use stored::StoredMatrix;
