//! Shared problem-size thresholds above which the kernel layers dispatch to
//! the worker pool.
//!
//! One definition instead of per-crate copies: `f3r_sparse::spmm`,
//! `f3r_sparse::blas1` and `f3r_precond::block_jacobi` all take these
//! constants from here, so the dispatch policy of the whole kernel layer is
//! tuned in one place.
//!
//! The values are the seed values of the repository: with the persistent
//! worker pool a dispatch costs roughly a microsecond (two mutex
//! acquisitions and a wake), so parallelism starts paying off as soon as a
//! kernel call itself takes a few microseconds.  The previous scoped-thread
//! layer spawned OS threads per call and needed thresholds an order of
//! magnitude higher (2^16 rows / 2^20 elements), which left the paper's
//! mid-size problems (2^14–2^18 unknowns, most of the Figure 1/3/4 suite)
//! entirely single-core.

/// Matrix row count (times the panel width) at or above which the sparse
/// product goes parallel (CSR / sliced-ELLPACK storage, every epilogue).
///
/// An SpMV touches several memory streams per row (values, column indices,
/// gathered `x`, streamed `y`), so per-row work is high enough to amortise a
/// pool dispatch well before the BLAS-1 element threshold is reached.
pub const PAR_ROW_THRESHOLD: usize = 1 << 14;

/// Vector length at or above which BLAS-1 kernels (dot, axpy, fused
/// update+norm variants) go parallel.
///
/// A 2^15-element fp32 dot reads 256 KiB and takes a handful of
/// microseconds on one core — several times the pool's dispatch cost.
pub const PAR_LEN_THRESHOLD: usize = 1 << 15;

/// Total row count at or above which block-Jacobi preconditioner
/// applications solve their blocks in parallel.
///
/// Per-block triangular solves are heavier per row than an SpMV row (two
/// sweeps, data dependencies), so this matches [`PAR_ROW_THRESHOLD`].
pub const PAR_BLOCK_ROW_THRESHOLD: usize = 1 << 14;

/// Minimum elements per pool task in BLAS-1 sweeps.  A 2^15-element chunk
/// streams 128–512 KiB depending on precision — tens of microseconds of
/// memory traffic against the pool's ~1 µs dispatch cost, while still
/// letting vectors just above [`PAR_LEN_THRESHOLD`] split across workers.
/// The grain doubled from 2^14 when the SIMD backend landed: vectorised
/// sweeps finish a chunk roughly 2–8× faster (most dramatically for fp16),
/// so the old grain left the per-task dispatch overhead a visible fraction
/// of the chunk runtime.
pub const MIN_LEN_PER_TASK: usize = 1 << 15;

/// Minimum rows handled per pool task in SpMV-shaped kernels.  A 2^12-row
/// chunk of a typical stencil matrix moves a few hundred KiB of
/// values/indices/vector traffic — comfortably above the pool's ~1 µs
/// dispatch cost — while letting systems just past [`PAR_ROW_THRESHOLD`]
/// still split across workers.
pub const MIN_ROWS_PER_TASK: usize = 1 << 12;

/// Columns a lane group of a panel kernel (SpMM, panel triangular sweeps)
/// must hold before the eight-lane kernel beats running the single-vector
/// kernel once per column.
///
/// A panel kernel walks the matrix or factor once for up to eight columns
/// and costs about the same whatever the number of live lanes, plus the
/// interleaving of its operands; the per-column loop costs one walk per
/// column.  Measured on HPCG 40³ per column at two columns, panel against
/// column loop (2 threads, first quartiles): SpMM 0.48 against 0.58 ms
/// (fp16 matrix, fp32 vectors), 0.46 against 0.91 ms (fp16 vectors);
/// block-Jacobi IC(0) 0.59 against 0.92 ms in fp16, 0.53 against 0.70 ms in
/// fp32 and break-even in fp64 (0.87 against 0.85 ms); under the scalar
/// backend the same or better.  At three columns every pair wins by 1.4× or
/// more, so only a group of one falls back to the column loop.
pub const PANEL_MIN_COLUMNS: usize = 2;
