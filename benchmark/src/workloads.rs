//! The five workloads.  `why` is the one-line reason `BENCHMARK.json` and the
//! result files carry; README.md has the long form and the sizing numbers.

use crate::api::Grid;
use crate::inputs::RhsKind;

/// What a workload runs after its single-RHS rounds.
#[derive(Debug, Clone, Copy)]
pub enum Extra {
    None,
    /// `solve_batch` on `k` seeded right-hand sides through one long-lived
    /// fp16-F3R session (fresh batch sessions spread 5.4–8.2 s on first touch
    /// of the k = 8 workspace; a warm one 5.40–5.47 s).
    Batch {
        k: usize,
    },
    /// Closed loop through `ServeHandle`: each of `clients` threads sends its
    /// next request only after the reply to the previous one.
    Serve {
        tenants: &'static [Tenant],
        clients: usize,
        workers: usize,
        queue: usize,
    },
}

/// One fingerprint of the serve mix and its weight in the request order.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    pub grid: Grid,
    pub weight: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Matrix of the single-RHS solves, the batch and the kernel probes.
    pub grid: Grid,
    /// How the seed draws right-hand sides (for every tenant, if it serves).
    pub rhs: RhsKind,
    /// Pool size, latched once per process — hence one process per workload.
    pub pool: usize,
    /// Rebuilds the set-up median is taken over.
    pub rebuilds: usize,
    /// Share of `--seconds` the single-RHS rounds get; the rest goes to `extra`.
    pub solve_share: f64,
    /// Timed rounds FGMRES(64) joins, without a warm-up (`None`: all of them,
    /// and the warm-up).  On `poisson2d_hard` it needs ~640 iterations and
    /// 4 s a solve, as much as the other four solvers together, so it is
    /// timed once.
    pub fgmres64_rounds: Option<usize>,
    pub extra: Extra,
}

/// Timed rounds (and batch calls) never go below this, whatever `--seconds`.
pub const MIN_ROUNDS: usize = 3;
/// Timed rounds of a traced run, each an (untraced, traced) pair per call.
pub const TRACED_ROUNDS: usize = 2;
/// Pre-warm requests per fingerprint before the serve window opens.
pub const PREWARM_PER_TENANT: usize = 2;

const SERVE_TENANTS: [Tenant; 4] = [
    Tenant {
        grid: Grid::Hpcg(16),
        weight: 8,
    },
    Tenant {
        grid: Grid::Hpgmp(16),
        weight: 4,
    },
    Tenant {
        grid: Grid::Hpcg(24),
        weight: 2,
    },
    Tenant {
        grid: Grid::Hpcg(32),
        weight: 1,
    },
];

const SMOKE_TENANTS: [Tenant; 4] = [
    Tenant {
        grid: Grid::Hpcg(8),
        weight: 8,
    },
    Tenant {
        grid: Grid::Hpgmp(8),
        weight: 4,
    },
    Tenant {
        grid: Grid::Hpcg(10),
        weight: 2,
    },
    Tenant {
        grid: Grid::Hpcg(12),
        weight: 1,
    },
];

pub const FULL: [Workload; 5] = [
    Workload {
        name: "hpcg_stream",
        why: "HPCG 56^3: 27 nnz/row and every matrix copy at least 6x the L2, streamed from LLC, so matrix and \
              preconditioner traffic dominate; the easiest place for narrow storage to pay (a Fig. 1a row)",
        grid: Grid::Hpcg(56),
        rhs: RhsKind::RandomB,
        pool: 2,
        rebuilds: 3,
        solve_share: 1.0,
        fgmres64_rounds: None,
        extra: Extra::None,
    },
    Workload {
        name: "poisson2d_hard",
        why: "2-D Poisson 384^2: the regime the nested method exists for (CG needs ~290 iterations); at 5 nnz/row \
              vector, basis and bridge traffic outweigh the matrix stream, so BLAS-1 gains show here",
        grid: Grid::Poisson2d(384),
        rhs: RhsKind::Manufactured,
        pool: 2,
        rebuilds: 3,
        solve_share: 1.0,
        fgmres64_rounds: Some(1),
        extra: Extra::None,
    },
    Workload {
        name: "hpgmp_l2",
        why: "HPGMP 16^3, nonsymmetric, ILU(0): the bypass workload, L2-resident and below every dispatch threshold, \
              so bytes and the pool are free and only per-call overhead, conversion and allocation show",
        grid: Grid::Hpgmp(16),
        rhs: RhsKind::Manufactured,
        pool: 2,
        rebuilds: 20,
        solve_share: 0.5,
        fgmres64_rounds: None,
        extra: Extra::None,
    },
    Workload {
        name: "batch8_stream",
        why: "HPCG 40^3, solve_batch on 8 right-hand sides beside single solves: the matrix layer used as SpMM \
              panels; a gain for one that costs the other shows as the two metrics parting",
        grid: Grid::Hpcg(40),
        rhs: RhsKind::RandomB,
        pool: 2,
        rebuilds: 3,
        solve_share: 0.3,
        fgmres64_rounds: None,
        extra: Extra::Batch { k: 8 },
    },
    Workload {
        name: "serve_mix",
        why: "closed loop, 2 clients, 4 fingerprints weighted 8/4/2/1 through registry, pools and queue with warm \
              sessions: the only path through the serve layer; its solves are the hpgmp_l2 kind",
        grid: Grid::Hpcg(32),
        rhs: RhsKind::Manufactured,
        pool: 1,
        rebuilds: 3,
        solve_share: 0.2,
        fgmres64_rounds: None,
        extra: Extra::Serve { tenants: &SERVE_TENANTS, clients: 2, workers: 2, queue: 8 },
    },
];

/// The same five protocols at 8³–12³: exercises every code path in seconds.
pub fn smoke() -> [Workload; 5] {
    let grids = [
        Grid::Hpcg(12),
        Grid::Poisson2d(24),
        Grid::Hpgmp(8),
        Grid::Hpcg(10),
        Grid::Hpcg(12),
    ];
    let mut out = FULL;
    for (w, grid) in out.iter_mut().zip(grids) {
        w.grid = grid;
        w.rebuilds = 1;
        if let Extra::Serve { tenants, .. } = &mut w.extra {
            *tenants = &SMOKE_TENANTS;
        }
    }
    out
}

pub fn find(set: &[Workload], name: &str) -> Option<Workload> {
    set.iter().copied().find(|w| w.name == name)
}
