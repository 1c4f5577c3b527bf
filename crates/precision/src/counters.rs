//! Lock-free instrumentation counters shared by all solver levels.
//!
//! The paper's evaluation reports two kinds of work measures besides wall
//! clock: the number of invocations of the primary preconditioner `M`
//! (Table 3) and, implicitly through its Section 4.1 model, the amount of
//! memory traffic per solve.  [`KernelCounters`] collects both, plus a
//! breakdown of SpMV/BLAS-1 calls per precision, using relaxed atomics so the
//! counters can be bumped from pool-parallel kernels without contention
//! concerns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::scalar::Precision;

/// Shared, thread-safe set of kernel counters.
///
/// Cloning the handle (via `Arc`) shares the same underlying counters; use
/// [`KernelCounters::snapshot`] to read a consistent-enough copy and
/// [`KernelCounters::reset`] between solves.
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// Invocations of the primary preconditioner `M` (the Table 3 metric).
    precond_applies: AtomicU64,
    /// SpMV invocations, indexed by matrix-value precision (fp16, fp32, fp64).
    spmv_calls: [AtomicU64; 3],
    /// BLAS-1 (axpy/dot/norm/scale) invocations, indexed by precision.
    blas1_calls: [AtomicU64; 3],
    /// Modeled bytes moved, indexed by precision of the data that dominated
    /// the kernel (matrix values for SpMV, vector precision for BLAS-1).
    bytes_moved: [AtomicU64; 3],
    /// Bytes read from stored Krylov/flexible basis vectors, indexed by the
    /// *storage* precision of the basis (which may differ from the working
    /// precision when the basis is compressed).  Also counted in
    /// `bytes_moved`.
    basis_bytes_read: [AtomicU64; 3],
    /// Bytes written to stored Krylov/flexible basis vectors, indexed by the
    /// storage precision.  Also counted in `bytes_moved`.
    basis_bytes_written: [AtomicU64; 3],
    /// Bytes read from the stored coefficient matrix `A` (values + indices +
    /// row pointers + row scales for scaled storage), indexed by the matrix
    /// *storage* precision.  A subset of the SpMV bytes already counted in
    /// `bytes_moved`, kept separately so experiments can attribute how much
    /// of a solve's traffic is the matrix stream — the quantity reduced by
    /// narrow/scaled matrix storage.
    matrix_bytes_read: [AtomicU64; 3],
    /// Total inner-solver iterations executed, by nesting depth (1-based,
    /// capped at depth 8).
    level_iterations: [AtomicU64; 8],
    /// Number of Richardson adaptive-weight updates (ω′ computations).
    weight_updates: AtomicU64,
    /// Batched multi-RHS SpMV (SpMM) invocations, indexed by matrix-value
    /// precision.  Each call streams the matrix once for all panel columns.
    spmm_calls: [AtomicU64; 3],
    /// Total panel columns processed by the SpMM calls above, indexed by
    /// matrix-value precision: `spmm_columns / spmm_calls` is the mean batch
    /// width, and the per-batch-column matrix traffic is
    /// `matrix_bytes / column count` because the stream is shared.
    spmm_columns: [AtomicU64; 3],
}

const fn precision_index(p: Precision) -> usize {
    match p {
        Precision::Fp16 => 0,
        Precision::Fp32 => 1,
        Precision::Fp64 => 2,
    }
}

impl KernelCounters {
    /// Create a fresh, zeroed set of counters wrapped in an [`Arc`].
    #[must_use]
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one invocation of the primary preconditioner `M`.
    pub fn record_precond_apply(&self) {
        self.precond_applies.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `count` invocations of the primary preconditioner `M`.
    pub fn record_precond_applies(&self, count: u64) {
        self.precond_applies.fetch_add(count, Ordering::Relaxed);
    }

    /// Record one SpMV with matrix values stored in precision `p`, moving an
    /// estimated `bytes` of memory.
    pub fn record_spmv(&self, p: Precision, bytes: u64) {
        self.spmv_calls[precision_index(p)].fetch_add(1, Ordering::Relaxed);
        self.bytes_moved[precision_index(p)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one batched multi-RHS SpMV (SpMM) over a `columns`-wide panel
    /// with matrix values stored in precision `p`, moving an estimated
    /// `bytes` of memory **in total** (matrix stream once + `columns` vector
    /// sweeps).
    ///
    /// The matrix stream is physically shared by the whole panel, so it is
    /// recorded once per call, not once per column; the separate column
    /// count is what lets experiments amortize it per batch column
    /// (`matrix_bytes_total / spmm_columns_total` = matrix bytes per RHS).
    pub fn record_spmm(&self, p: Precision, bytes: u64, columns: u64) {
        let i = precision_index(p);
        self.spmm_calls[i].fetch_add(1, Ordering::Relaxed);
        self.spmm_columns[i].fetch_add(columns, Ordering::Relaxed);
        self.bytes_moved[i].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one BLAS-1 kernel on vectors of precision `p`, moving an
    /// estimated `bytes` of memory.
    pub fn record_blas1(&self, p: Precision, bytes: u64) {
        self.blas1_calls[precision_index(p)].fetch_add(1, Ordering::Relaxed);
        self.bytes_moved[precision_index(p)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one sweep over stored basis vectors: `read_bytes` read from and
    /// `write_bytes` written to basis storage held in precision `p`.
    ///
    /// Basis traffic also accumulates into the total `bytes_moved` for `p`,
    /// so `total_bytes` keeps counting every modeled byte; the separate
    /// basis read/write counters exist so experiments can attribute how much
    /// of a solve's traffic is Krylov-basis streaming — the quantity basis
    /// compression reduces.
    pub fn record_basis_traffic(&self, p: Precision, read_bytes: u64, write_bytes: u64) {
        let i = precision_index(p);
        self.basis_bytes_read[i].fetch_add(read_bytes, Ordering::Relaxed);
        self.basis_bytes_written[i].fetch_add(write_bytes, Ordering::Relaxed);
        self.bytes_moved[i].fetch_add(read_bytes + write_bytes, Ordering::Relaxed);
    }

    /// Attribute `bytes` of matrix-stream traffic to the matrix storage
    /// precision `p`.
    ///
    /// Unlike [`record_basis_traffic`](Self::record_basis_traffic), this does
    /// *not* add to the overall `bytes_moved` totals: the matrix stream is
    /// already part of the SpMV bytes recorded by
    /// [`record_spmv`](Self::record_spmv), and this counter only splits that
    /// total out per matrix storage precision.
    pub fn record_matrix_traffic(&self, p: Precision, bytes: u64) {
        self.matrix_bytes_read[precision_index(p)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `iters` iterations executed by the solver at nesting `depth`
    /// (1 = outermost).
    pub fn record_level_iterations(&self, depth: usize, iters: u64) {
        let idx = depth.saturating_sub(1).min(self.level_iterations.len() - 1);
        self.level_iterations[idx].fetch_add(iters, Ordering::Relaxed);
    }

    /// Record one adaptive-weight update (computation of ω′ in Algorithm 1).
    pub fn record_weight_update(&self) {
        self.weight_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.precond_applies.store(0, Ordering::Relaxed);
        self.weight_updates.store(0, Ordering::Relaxed);
        for c in &self.spmv_calls {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.blas1_calls {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.bytes_moved {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.basis_bytes_read {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.basis_bytes_written {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.matrix_bytes_read {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.level_iterations {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.spmm_calls {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.spmm_columns {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Take a plain-data snapshot of the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        fn load<const N: usize>(a: &[AtomicU64; N]) -> [u64; N] {
            a.each_ref().map(|c| c.load(Ordering::Relaxed))
        }
        CounterSnapshot {
            precond_applies: self.precond_applies.load(Ordering::Relaxed),
            spmv_calls: load(&self.spmv_calls),
            blas1_calls: load(&self.blas1_calls),
            bytes_moved: load(&self.bytes_moved),
            basis_bytes_read: load(&self.basis_bytes_read),
            basis_bytes_written: load(&self.basis_bytes_written),
            matrix_bytes_read: load(&self.matrix_bytes_read),
            level_iterations: load(&self.level_iterations),
            weight_updates: self.weight_updates.load(Ordering::Relaxed),
            spmm_calls: load(&self.spmm_calls),
            spmm_columns: load(&self.spmm_columns),
        }
    }
}

/// Plain-data snapshot of a [`KernelCounters`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Invocations of the primary preconditioner `M`.
    pub precond_applies: u64,
    /// SpMV calls per matrix-value precision, ordered `[fp16, fp32, fp64]`.
    pub spmv_calls: [u64; 3],
    /// BLAS-1 calls per vector precision, ordered `[fp16, fp32, fp64]`.
    pub blas1_calls: [u64; 3],
    /// Modeled bytes moved per precision, ordered `[fp16, fp32, fp64]`.
    pub bytes_moved: [u64; 3],
    /// Bytes read from stored basis vectors per *storage* precision,
    /// ordered `[fp16, fp32, fp64]` (a subset of `bytes_moved`).
    pub basis_bytes_read: [u64; 3],
    /// Bytes written to stored basis vectors per storage precision,
    /// ordered `[fp16, fp32, fp64]` (a subset of `bytes_moved`).
    pub basis_bytes_written: [u64; 3],
    /// Matrix-stream bytes read per matrix *storage* precision, ordered
    /// `[fp16, fp32, fp64]` (a subset of the SpMV bytes in `bytes_moved`).
    pub matrix_bytes_read: [u64; 3],
    /// Iterations executed per nesting depth (index 0 = outermost).
    pub level_iterations: [u64; 8],
    /// Number of adaptive Richardson weight updates performed.
    pub weight_updates: u64,
    /// Batched SpMM calls per matrix-value precision, ordered
    /// `[fp16, fp32, fp64]` (each call streamed the matrix once).
    pub spmm_calls: [u64; 3],
    /// Total panel columns processed by those SpMM calls, same order.
    pub spmm_columns: [u64; 3],
}

impl CounterSnapshot {
    /// Total modeled bytes moved across all precisions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_moved.iter().sum()
    }

    /// Total SpMV calls across all precisions.
    #[must_use]
    pub fn total_spmv(&self) -> u64 {
        self.spmv_calls.iter().sum()
    }

    /// Total bytes moved through stored basis vectors (reads + writes, all
    /// storage precisions) — the traffic basis compression shrinks.
    #[must_use]
    pub fn basis_bytes_total(&self) -> u64 {
        self.basis_bytes_read.iter().sum::<u64>() + self.basis_bytes_written.iter().sum::<u64>()
    }

    /// Basis bytes (reads + writes) held in a given storage precision.
    #[must_use]
    pub fn basis_bytes_in(&self, p: Precision) -> u64 {
        let i = precision_index(p);
        self.basis_bytes_read[i] + self.basis_bytes_written[i]
    }

    /// Matrix-stream bytes read from storage held in a given precision.
    #[must_use]
    pub fn matrix_bytes_in(&self, p: Precision) -> u64 {
        self.matrix_bytes_read[precision_index(p)]
    }

    /// Total matrix-stream bytes across all storage precisions — the traffic
    /// narrow/scaled matrix storage shrinks.
    #[must_use]
    pub fn matrix_bytes_total(&self) -> u64 {
        self.matrix_bytes_read.iter().sum()
    }

    /// Fraction of the modeled traffic carried in a given precision
    /// (`0.0` if no traffic was recorded at all).
    #[must_use]
    pub fn traffic_fraction(&self, p: Precision) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        self.bytes_moved[precision_index(p)] as f64 / total as f64
    }

    /// Counter value for SpMV calls in a given precision.
    #[must_use]
    pub fn spmv_in(&self, p: Precision) -> u64 {
        self.spmv_calls[precision_index(p)]
    }

    /// Total batched SpMM calls across all precisions.
    #[must_use]
    pub fn total_spmm(&self) -> u64 {
        self.spmm_calls.iter().sum()
    }

    /// Total panel columns processed by batched SpMM calls across all
    /// precisions.  Combined with a matrix-traffic counter this yields the
    /// per-batch-column (per-RHS) matrix stream:
    /// `matrix_bytes_total() / spmm_columns_total()` when every SpMV in the
    /// measured phase went through the batched path.
    #[must_use]
    pub fn spmm_columns_total(&self) -> u64 {
        self.spmm_columns.iter().sum()
    }

    /// Batched SpMM calls with matrix values in a given precision.
    #[must_use]
    pub fn spmm_in(&self, p: Precision) -> u64 {
        self.spmm_calls[precision_index(p)]
    }

    /// Mean SpMM batch width (0.0 if no SpMM ran).
    #[must_use]
    pub fn mean_spmm_width(&self) -> f64 {
        let calls = self.total_spmm();
        if calls == 0 {
            return 0.0;
        }
        self.spmm_columns_total() as f64 / calls as f64
    }

    /// Modeled bytes moved in a given precision.
    #[must_use]
    pub fn bytes_in(&self, p: Precision) -> u64 {
        self.bytes_moved[precision_index(p)]
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    ///
    /// Useful for measuring the cost of a single phase between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        fn sub<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i].saturating_sub(b[i]))
        }
        CounterSnapshot {
            precond_applies: self.precond_applies.saturating_sub(earlier.precond_applies),
            spmv_calls: sub(self.spmv_calls, earlier.spmv_calls),
            blas1_calls: sub(self.blas1_calls, earlier.blas1_calls),
            bytes_moved: sub(self.bytes_moved, earlier.bytes_moved),
            basis_bytes_read: sub(self.basis_bytes_read, earlier.basis_bytes_read),
            basis_bytes_written: sub(self.basis_bytes_written, earlier.basis_bytes_written),
            matrix_bytes_read: sub(self.matrix_bytes_read, earlier.matrix_bytes_read),
            level_iterations: sub(self.level_iterations, earlier.level_iterations),
            weight_updates: self.weight_updates.saturating_sub(earlier.weight_updates),
            spmm_calls: sub(self.spmm_calls, earlier.spmm_calls),
            spmm_columns: sub(self.spmm_columns, earlier.spmm_columns),
        }
    }

    /// Add `other` into `self`, field by field (the inverse of
    /// [`since`](Self::since)).  Lets an aggregator — e.g. the serving
    /// layer's metrics, which merge per-request deltas from many worker
    /// sessions — maintain one running total.
    pub fn accumulate(&mut self, other: &CounterSnapshot) {
        fn add<const N: usize>(a: &mut [u64; N], b: [u64; N]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.saturating_add(y);
            }
        }
        self.precond_applies = self.precond_applies.saturating_add(other.precond_applies);
        add(&mut self.spmv_calls, other.spmv_calls);
        add(&mut self.blas1_calls, other.blas1_calls);
        add(&mut self.bytes_moved, other.bytes_moved);
        add(&mut self.basis_bytes_read, other.basis_bytes_read);
        add(&mut self.basis_bytes_written, other.basis_bytes_written);
        add(&mut self.matrix_bytes_read, other.matrix_bytes_read);
        add(&mut self.level_iterations, other.level_iterations);
        self.weight_updates = self.weight_updates.saturating_add(other.weight_updates);
        add(&mut self.spmm_calls, other.spmm_calls);
        add(&mut self.spmm_columns, other.spmm_columns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = KernelCounters::new_shared();
        c.record_precond_apply();
        c.record_precond_applies(4);
        c.record_spmv(Precision::Fp16, 100);
        c.record_spmv(Precision::Fp64, 300);
        c.record_blas1(Precision::Fp32, 50);
        c.record_level_iterations(1, 10);
        c.record_level_iterations(4, 7);
        c.record_weight_update();

        let s = c.snapshot();
        assert_eq!(s.precond_applies, 5);
        assert_eq!(s.spmv_in(Precision::Fp16), 1);
        assert_eq!(s.spmv_in(Precision::Fp64), 1);
        assert_eq!(s.total_spmv(), 2);
        assert_eq!(s.total_bytes(), 450);
        assert_eq!(s.level_iterations[0], 10);
        assert_eq!(s.level_iterations[3], 7);
        assert_eq!(s.weight_updates, 1);

        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn traffic_fraction_sums_to_one() {
        let c = KernelCounters::new_shared();
        c.record_spmv(Precision::Fp16, 250);
        c.record_spmv(Precision::Fp32, 250);
        c.record_spmv(Precision::Fp64, 500);
        let s = c.snapshot();
        let sum: f64 = Precision::all().iter().map(|&p| s.traffic_fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.traffic_fraction(Precision::Fp64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_fraction_zero_when_empty() {
        let c = KernelCounters::new_shared();
        assert_eq!(c.snapshot().traffic_fraction(Precision::Fp64), 0.0);
    }

    #[test]
    fn snapshot_difference() {
        let c = KernelCounters::new_shared();
        c.record_precond_applies(3);
        c.record_spmv(Precision::Fp32, 10);
        let first = c.snapshot();
        c.record_precond_applies(2);
        c.record_spmv(Precision::Fp32, 10);
        let second = c.snapshot();
        let diff = second.since(&first);
        assert_eq!(diff.precond_applies, 2);
        assert_eq!(diff.spmv_in(Precision::Fp32), 1);
        assert_eq!(diff.bytes_in(Precision::Fp32), 10);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = KernelCounters::new_shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.record_precond_apply();
                        c.record_blas1(Precision::Fp16, 8);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.precond_applies, 4000);
        assert_eq!(s.blas1_calls[0], 4000);
        assert_eq!(s.bytes_in(Precision::Fp16), 32_000);
    }

    #[test]
    fn basis_traffic_is_attributed_and_counted_in_totals() {
        let c = KernelCounters::new_shared();
        c.record_basis_traffic(Precision::Fp16, 200, 100);
        c.record_basis_traffic(Precision::Fp64, 800, 0);
        c.record_blas1(Precision::Fp64, 50);
        let s = c.snapshot();
        assert_eq!(s.basis_bytes_in(Precision::Fp16), 300);
        assert_eq!(s.basis_bytes_in(Precision::Fp64), 800);
        assert_eq!(s.basis_bytes_total(), 1100);
        assert_eq!(s.basis_bytes_read, [200, 0, 800]);
        assert_eq!(s.basis_bytes_written, [100, 0, 0]);
        // Basis traffic is a subset of the overall byte totals.
        assert_eq!(s.total_bytes(), 1150);
        c.reset();
        assert_eq!(c.snapshot().basis_bytes_total(), 0);
    }

    #[test]
    fn basis_traffic_survives_snapshot_difference() {
        let c = KernelCounters::new_shared();
        c.record_basis_traffic(Precision::Fp32, 10, 20);
        let first = c.snapshot();
        c.record_basis_traffic(Precision::Fp32, 5, 5);
        let diff = c.snapshot().since(&first);
        assert_eq!(diff.basis_bytes_in(Precision::Fp32), 10);
    }

    #[test]
    fn matrix_traffic_is_attributed_without_inflating_totals() {
        let c = KernelCounters::new_shared();
        // An SpMV records its full byte estimate; the matrix-stream subset is
        // attributed separately and must not double-count into the totals.
        c.record_spmv(Precision::Fp16, 1000);
        c.record_matrix_traffic(Precision::Fp16, 700);
        c.record_spmv(Precision::Fp64, 4000);
        c.record_matrix_traffic(Precision::Fp64, 3200);
        let s = c.snapshot();
        assert_eq!(s.matrix_bytes_in(Precision::Fp16), 700);
        assert_eq!(s.matrix_bytes_in(Precision::Fp64), 3200);
        assert_eq!(s.matrix_bytes_total(), 3900);
        assert_eq!(s.total_bytes(), 5000);
        let first = s;
        c.record_matrix_traffic(Precision::Fp16, 300);
        let diff = c.snapshot().since(&first);
        assert_eq!(diff.matrix_bytes_in(Precision::Fp16), 300);
        c.reset();
        assert_eq!(c.snapshot().matrix_bytes_total(), 0);
    }

    #[test]
    fn spmm_traffic_attributes_per_batch_column() {
        let c = KernelCounters::new_shared();
        // One 8-wide SpMM: matrix stream once, attributed once, 8 columns.
        c.record_spmm(Precision::Fp16, 1000, 8);
        c.record_matrix_traffic(Precision::Fp16, 700);
        let s = c.snapshot();
        assert_eq!(s.total_spmm(), 1);
        assert_eq!(s.spmm_in(Precision::Fp16), 1);
        assert_eq!(s.spmm_columns_total(), 8);
        assert_eq!(s.mean_spmm_width(), 8.0);
        assert_eq!(s.total_bytes(), 1000);
        // Per-RHS matrix stream: shared bytes over processed columns.
        assert_eq!(s.matrix_bytes_total() / s.spmm_columns_total(), 87);
        let first = s;
        c.record_spmm(Precision::Fp16, 500, 4);
        let diff = c.snapshot().since(&first);
        assert_eq!(diff.spmm_calls, [1, 0, 0]);
        assert_eq!(diff.spmm_columns, [4, 0, 0]);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
        assert_eq!(c.snapshot().mean_spmm_width(), 0.0);
    }

    #[test]
    fn deep_level_iterations_are_clamped() {
        let c = KernelCounters::new_shared();
        c.record_level_iterations(50, 3);
        assert_eq!(c.snapshot().level_iterations[7], 3);
    }
}
