//! Measure how batched multi-RHS solving (`SolveSession::solve_batch`)
//! amortizes the dominant matrix-stream traffic across right-hand sides,
//! and what that buys in wall-clock time.
//!
//! The same HPCG-style system is solved with batch widths k = 1, 2, 4, 8.
//! Every outer and inner FGMRES iteration fuses the SpMVs of all
//! still-running systems into ONE pass over the matrix
//! (`ProblemMatrix::apply_multi`), so the counter-measured matrix bytes
//! *per right-hand side* fall roughly like 1/k — while each system still
//! computes bitwise the same iterates as its sequential solve.  The matrix
//! stream is the row-scaled fp16 variant, the configuration the paper's
//! traffic model rewards hardest.
//!
//! The time column is the steady-state wall-clock per right-hand side of a
//! warmed session.  At this size (n = 4096, everything cache-resident) it
//! shows the panel kernels sharing the instruction and latency work of one
//! walk over the matrix between eight columns; the out-of-cache figure is
//! the standing benchmark's `batch_rhs_s.fp16_f3r` on `batch8_stream`
//! (HPCG 40³, fp16-F3R, k = 8): 0.080 s per right-hand side
//! beside 0.29 s for a single solve (paired runs in CHANGES.md, PR 13).
//!
//! Run with:
//! ```text
//! cargo run --release --example batch_solve
//! ```

use std::sync::Arc;
use std::time::Instant;

use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, random_rhs};
use f3r::sparse::scaling::jacobi_scale;

fn main() {
    // HPCG 16^3 (n = 4096), diagonally scaled as in the paper; two FGMRES
    // levels with the inner level streaming the scaled fp16 matrix.
    let a = jacobi_scale(&hpcg_matrix(16, 16, 16));
    let n = a.n_rows();
    let matrix = Arc::new(ProblemMatrix::from_csr(a));
    let prepared = SolverBuilder::new(matrix)
        .levels(vec![
            LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp16),
        ])
        .matrix_storage(MatrixStorage::Scaled(Precision::Fp16))
        .build();

    println!("solver: {}", prepared.spec().name);
    println!(
        "{:>6} {:>10} {:>12} {:>18} {:>18} {:>10} {:>12}",
        "batch", "converged", "iters/RHS", "matrix [MiB]", "MiB per RHS", "vs k=1", "ms per RHS"
    );
    let mib = |b: f64| b / (1u64 << 20) as f64;
    let mut per_rhs_k1 = None;
    for k in [1usize, 2, 4, 8] {
        let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| random_rhs(n, 77 + s)).collect();
        let mut xs = vec![Vec::new(); k];
        // The first batch allocates the session's workspaces; time the best
        // of a few more on the warmed session.
        let mut session = prepared.session();
        session.solve_batch(&bs, &mut xs);
        let seconds = (0..5)
            .map(|_| {
                let start = Instant::now();
                session.solve_batch(&bs, &mut xs);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let results = prepared.session().solve_batch(&bs, &mut xs);
        // The whole batch shares one counter set, so any result's counters
        // carry the batch totals.
        let total = results[0].counters.matrix_bytes_total() as f64;
        let per_rhs = total / k as f64;
        let base = *per_rhs_k1.get_or_insert(per_rhs);
        let iters: usize = results.iter().map(|r| r.outer_iterations).sum();
        println!(
            "{:>6} {:>10} {:>12.1} {:>18.2} {:>18.2} {:>9.1}% {:>12.3}",
            k,
            results.iter().all(|r| r.converged),
            iters as f64 / k as f64,
            mib(total),
            mib(per_rhs),
            100.0 * per_rhs / base,
            1e3 * seconds / k as f64,
        );
    }
}
