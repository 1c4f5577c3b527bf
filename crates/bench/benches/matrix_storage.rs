//! Matrix-storage sweep: CSR vs SELL × fp64/fp32/fp16 × plain vs row-scaled
//! one-column inline product of the driver (`f3r_sparse::spmm::spmm`), with
//! the modeled byte counters attached as throughput, so the
//! recorded medians carry the bandwidth argument of the scaled matrix store
//! (PR 5) even on machines where softfloat fp16 conversion dominates
//! wall-clock.
//!
//! Scaled storage (`StoredMatrix::row_scaled`) streams the same narrowed
//! values plus one `f64` scale per row and folds the scale into the
//! accumulator once per row; on a hardware-fp16 machine it runs at plain
//! storage's bandwidth.  fp64 storage has no scaled form (it holds the source
//! values verbatim), so it has no scaled rows here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use f3r_bench::BenchProblem;
use f3r_precision::traffic::TrafficModel;
use f3r_precision::{f16, Precision, Scalar};
use f3r_sparse::spmm::{spmm, Dispatch, PanelOp, Rows};
use f3r_sparse::{CsrMatrix, SellMatrix, StoredMatrix};
use std::hint::black_box;

fn meta(_c: &mut Criterion) {
    f3r_bench::emit_parallel_meta();
}

fn bench_storage<TA: Scalar>(
    group: &mut criterion::BenchmarkGroup<'_>,
    a64: &CsrMatrix<f64>,
    x: &[f64],
    y: &mut [f64],
) {
    let n = a64.n_rows();
    let nnz = a64.nnz();
    let p = TA::PRECISION;

    let plain: CsrMatrix<TA> = a64.to_precision();
    let scaled = StoredMatrix::<TA>::row_scaled(a64, None);
    let sell = SellMatrix::from_csr(&plain, 32);
    let scaled_sell = StoredMatrix::<TA>::row_scaled(a64, Some(32));
    let plain_bytes = TrafficModel::spmv_bytes(nnz, n, p, Precision::Fp64);
    let scaled_bytes = TrafficModel::spmv_scaled_bytes(nnz, n, p, Precision::Fp64);
    let mut rows: Vec<(&str, String, u64, Rows<'_, TA>)> = vec![
        ("csr", format!("{p}"), plain_bytes, (&plain).into()),
        ("sell32", format!("{p}"), plain_bytes, (&sell).into()),
    ];
    if scaled.row_scales().is_some() {
        rows.insert(1, ("csr", format!("scaled-{p}"), scaled_bytes, (&scaled).into()));
        rows.push(("sell32", format!("scaled-{p}"), scaled_bytes, (&scaled_sell).into()));
    }
    for (format, storage, bytes, a) in rows {
        group.throughput(Throughput::Bytes(bytes));
        group.bench_function(BenchmarkId::new(format, storage), |b| {
            b.iter(|| spmm(black_box(a), black_box(x), PanelOp::Product, black_box(y), 1, Dispatch::Seq))
        });
    }
}

fn bench_matrix_storage(c: &mut Criterion) {
    let p = BenchProblem::hpcg();
    let a64 = &p.matrix_csr;
    let n = a64.n_rows();
    let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) / 11.0).collect();
    let mut y = vec![0.0f64; n];

    let mut group = c.benchmark_group("matrix_storage");
    group.sample_size(30);
    bench_storage::<f64>(&mut group, a64, &x, &mut y);
    bench_storage::<f32>(&mut group, a64, &x, &mut y);
    bench_storage::<f16>(&mut group, a64, &x, &mut y);
    group.finish();
}

criterion_group!(benches, meta, bench_matrix_storage);
criterion_main!(benches);
