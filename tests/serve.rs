//! Integration tests for the serving layer: fingerprint-keyed registry with
//! single-flight construction and pin-aware LRU eviction, warm session pools,
//! and the admission-controlled front-end — through the public `f3r` umbrella
//! crate.
//!
//! The served-vs-direct bitwise test runs in CI under the default worker
//! pool, `F3R_NUM_THREADS=2` and the forced-scalar kernel backend; the specs
//! used here are FGMRES-only chains, the configurations for which warm
//! session reuse is bitwise-deterministic (adaptive Richardson weights, the
//! documented exception, persist across solves in a warm session).

use std::sync::Arc;

use f3r::prelude::*;
use f3r::serve::{
    Backpressure, RegistryConfig, RequestOptions, ServeConfig, ServeHandle, SolverRegistry,
    SubmitError,
};
use f3r::sparse::gen::laplacian::poisson2d_5pt;
use f3r::sparse::gen::random_rhs;

fn matrix(nx: usize) -> Arc<ProblemMatrix> {
    Arc::new(ProblemMatrix::from_csr(poisson2d_5pt(nx, nx)))
}

/// FGMRES-only two-level spec: warm sessions replay it bitwise.
fn spec() -> NestedSpec {
    f2_spec(&SolverSettings::default())
}

/// N threads race `get_or_prepare` for one key: the registry must build the
/// solver exactly once (single-flight) and hand every thread the same
/// prepared instance.
#[test]
fn concurrent_lookups_build_once() {
    const THREADS: usize = 8;
    let registry = SolverRegistry::with_defaults();
    let m = matrix(24);
    let s = spec();

    let solvers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let m = Arc::clone(&m);
                let s = s.clone();
                scope.spawn(move || registry.get_or_prepare(&m, &s).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = registry.stats();
    assert_eq!(stats.builds, 1, "single-flight: one build for {THREADS} racers");
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits as usize, THREADS - 1);
    assert_eq!(stats.entries, 1);
    assert!(stats.resident_bytes > 0, "entries are priced by storage_bytes");
    let first = solvers[0].prepared();
    for s in &solvers[1..] {
        assert!(
            Arc::ptr_eq(first, s.prepared()),
            "all racers share one PreparedSolver"
        );
    }
}

/// Solutions served through the front-end (concurrent workers, pooled warm
/// sessions) must be bitwise-identical to direct sequential `SolveSession`
/// runs.  Exercised under 1- and 2-worker pools; CI re-runs the whole test
/// under `F3R_NUM_THREADS=2` and the forced-scalar kernel backend.
#[test]
fn served_solutions_match_direct_solves_bitwise() {
    const REQUESTS: usize = 6;
    let m = matrix(32);
    let s = spec();
    let n = m.dim();
    let rhs: Vec<Vec<f64>> = (0..REQUESTS as u64).map(|i| random_rhs(n, 40 + i)).collect();

    // Direct reference: fresh session per right-hand side, sequential.
    let direct: Vec<Vec<f64>> = rhs
        .iter()
        .map(|b| {
            let prepared = SolverBuilder::new(Arc::clone(&m)).spec(s.clone()).build();
            let mut session = prepared.session();
            let mut x = vec![0.0; n];
            let r = session.solve(b, &mut x);
            assert!(r.converged, "direct: {r}");
            x
        })
        .collect();

    for workers in [1, 2] {
        let registry = SolverRegistry::with_defaults();
        let serve = ServeHandle::start(
            Arc::clone(&registry),
            ServeConfig {
                workers,
                queue_capacity: REQUESTS,
                backpressure: Backpressure::Block,
            },
        );
        let solver = registry.get_or_prepare(&m, &s).unwrap();
        let tickets: Vec<_> = rhs
            .iter()
            .map(|b| serve.submit(&solver, b.clone(), RequestOptions::default()).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait();
            assert!(response.results[0].converged, "served: {}", response.results[0]);
            assert_eq!(response.fingerprint, solver.fingerprint());
            assert_eq!(
                response.xs[0], direct[i],
                "served solution {i} differs bitwise under {workers} worker(s)"
            );
        }
        let metrics = serve.metrics();
        assert_eq!(metrics.completed, REQUESTS as u64);
        assert_eq!(metrics.solves, REQUESTS as u64);
        assert!(metrics.p50_seconds.is_some() && metrics.p99_seconds.is_some());
        assert!(
            metrics.kernels.spmv_calls.iter().sum::<u64>() > 0,
            "kernel counters aggregate across requests"
        );
        serve.shutdown();
    }
}

/// Eviction is LRU-first under the entry cap and never removes an entry with
/// checked-out sessions: live requests win over the cap.
#[test]
fn eviction_is_lru_first_and_skips_pinned_entries() {
    let registry = SolverRegistry::new(RegistryConfig {
        max_entries: 2,
        max_bytes: u64::MAX,
        max_idle_sessions: 2,
    });
    let s = spec();
    let (ma, mb, mc, md) = (matrix(8), matrix(12), matrix(16), matrix(20));

    let a = registry.get_or_prepare(&ma, &s).unwrap();
    let _pin = a.checkout(); // A has a live session: not evictable.
    let b = registry.get_or_prepare(&mb, &s).unwrap();
    let c = registry.get_or_prepare(&mc, &s).unwrap();

    // Over the 2-entry cap; LRU order among unpinned entries is B < C.
    assert!(registry.contains(a.fingerprint()), "pinned entry must survive");
    assert!(!registry.contains(b.fingerprint()), "LRU unpinned entry evicted");
    assert!(registry.contains(c.fingerprint()));
    assert_eq!(registry.stats().evictions, 1);

    // The detached handle stays usable after eviction.
    let n = mb.dim();
    let mut x = vec![0.0; n];
    let r = b.checkout().solve(&random_rhs(n, 7), &mut x);
    assert!(r.converged, "evicted handle: {r}");

    // Unpin A: it is now the least recently used and the next victim.
    drop(_pin);
    let _d = registry.get_or_prepare(&md, &s).unwrap();
    assert!(!registry.contains(a.fingerprint()), "unpinned LRU entry evicted");
    assert!(registry.contains(c.fingerprint()));
    assert_eq!(registry.len(), 2);
}

/// A byte cap prices entries by `PreparedSolver::storage_bytes()` and evicts
/// to stay under it.
#[test]
fn byte_cap_drives_eviction() {
    let s = spec();
    let (ma, mb) = (matrix(16), matrix(24));
    let bytes_a = SolverBuilder::new(Arc::clone(&ma)).spec(s.clone()).build().storage_bytes();
    let bytes_b = SolverBuilder::new(Arc::clone(&mb)).spec(s.clone()).build().storage_bytes();

    // Cap fits either solver alone but not both.
    let registry = SolverRegistry::new(RegistryConfig {
        max_entries: 64,
        max_bytes: bytes_a.max(bytes_b) + bytes_a.min(bytes_b) / 2,
        max_idle_sessions: 2,
    });
    let a = registry.get_or_prepare(&ma, &s).unwrap();
    assert_eq!(registry.stats().resident_bytes, bytes_a);
    let _b = registry.get_or_prepare(&mb, &s).unwrap();
    assert!(!registry.contains(a.fingerprint()), "byte cap evicts the LRU entry");
    assert_eq!(registry.stats().resident_bytes, bytes_b);
}

/// Under `Backpressure::Reject` a flooded queue fails submissions immediately
/// instead of deadlocking, and every *accepted* request still completes.
#[test]
fn reject_backpressure_errors_instead_of_deadlocking() {
    const FLOOD: usize = 50;
    let registry = SolverRegistry::with_defaults();
    let serve = ServeHandle::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
        },
    );
    let m = matrix(48);
    let solver = registry.get_or_prepare(&m, &spec()).unwrap();
    let b = random_rhs(m.dim(), 3);

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..FLOOD {
        match serve.submit(&solver, b.clone(), RequestOptions::default()) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Rejected { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected > 0, "a 1-deep queue must reject under a {FLOOD}-request flood");
    assert!(!accepted.is_empty());
    for ticket in accepted {
        assert!(ticket.wait().results[0].converged);
    }
    let metrics = serve.metrics();
    assert_eq!(metrics.rejected, rejected);
    assert_eq!(metrics.submitted + metrics.rejected, FLOOD as u64);
    serve.shutdown();
}

/// Pool round-trips preserve session warmth: the returned session keeps its
/// allocated workspaces (`workspace_generation()` stays at 1) and the second
/// checkout is warm.
#[test]
fn pool_checkout_return_preserves_workspace_generation() {
    let registry = SolverRegistry::with_defaults();
    let m = matrix(24);
    let solver = registry.get_or_prepare(&m, &spec()).unwrap();
    let n = m.dim();
    let b = random_rhs(n, 11);
    let mut x = vec![0.0; n];

    {
        let mut session = solver.checkout();
        assert_eq!(session.workspace_generation(), 0, "cold session starts unallocated");
        assert!(session.solve(&b, &mut x).converged);
        assert_eq!(session.workspace_generation(), 1);
        assert!(session.workspace_bytes() > 0);
    } // guard drop returns the session to the pool

    let pool = solver.pool();
    assert_eq!(pool.idle_len(), 1);
    assert!(pool.idle_workspace_bytes() > 0);

    let mut session = solver.checkout();
    assert_eq!(
        session.workspace_generation(),
        1,
        "warm checkout reuses the already-allocated workspaces"
    );
    assert!(session.solve(&b, &mut x).converged);
    assert_eq!(session.workspace_generation(), 1, "steady state: no reallocation");
    drop(session);

    let stats = pool.stats();
    assert_eq!(stats.cold_checkouts, 1);
    assert_eq!(stats.warm_checkouts, 1);
    assert_eq!(stats.checked_out, 0);
    assert_eq!(stats.fingerprint, solver.fingerprint());
}

/// Per-request options apply to single-RHS requests; a multi-RHS batch with
/// options is refused up front (the fused batch path has no overrides).
#[test]
fn request_options_and_batch_contract() {
    let registry = SolverRegistry::with_defaults();
    let serve = ServeHandle::start(Arc::clone(&registry), ServeConfig::default());
    let m = matrix(24);
    let solver = registry.get_or_prepare(&m, &spec()).unwrap();
    let n = m.dim();
    let b = random_rhs(n, 5);

    // A loose tolerance override must reach the solve.
    let loose = serve
        .submit(
            &solver,
            b.clone(),
            RequestOptions { tol: Some(1e-2), ..RequestOptions::default() },
        )
        .unwrap()
        .wait();
    let tight = serve.submit(&solver, b.clone(), RequestOptions::default()).unwrap().wait();
    assert!(loose.results[0].converged && tight.results[0].converged);
    assert!(
        loose.results[0].outer_iterations < tight.results[0].outer_iterations,
        "tol override must shorten the solve ({} vs {})",
        loose.results[0].outer_iterations,
        tight.results[0].outer_iterations
    );

    // Batch submission: one fused solve, one result per right-hand side.
    let bs: Vec<Vec<f64>> = (0..3).map(|i| random_rhs(n, 60 + i)).collect();
    let batch = serve.submit_batch(&solver, bs.clone(), RequestOptions::default()).unwrap().wait();
    assert_eq!(batch.xs.len(), 3);
    assert_eq!(batch.results.len(), 3);
    assert!(batch.results.iter().all(|r| r.converged));

    // Options on a multi-RHS batch reach every column: each served column is
    // bitwise its own `solve_with`.
    let loose_opts = RequestOptions { tol: Some(1e-2), max_outer_cycles: Some(2), ..RequestOptions::default() };
    let loose_batch = serve.submit_batch(&solver, bs.clone(), loose_opts).unwrap().wait();
    let direct_opts = SolveOptions::new().tol(1e-2).max_outer_cycles(2);
    for (c, b) in bs.iter().enumerate() {
        let mut x = vec![0.0; n];
        let direct = solver.prepared().session().solve_with(b, &mut x, &direct_opts);
        assert_eq!(loose_batch.xs[c], x, "column {c}");
        assert_eq!(loose_batch.results[c].outer_iterations, direct.outer_iterations, "column {c}");
        assert_eq!(loose_batch.results[c].residual_history, direct.residual_history, "column {c}");
        assert!(loose_batch.results[c].outer_iterations < batch.results[c].outer_iterations);
    }

    // One warm start cannot stand for several columns, and an empty batch is
    // no request: both are contract violations, not silent no-ops.
    let warm = RequestOptions { x0: Some(vec![0.0; n]), ..RequestOptions::default() };
    let err = serve.submit_batch(&solver, bs, warm.clone()).unwrap_err();
    assert!(matches!(err, SubmitError::Rejected { .. }));
    let err = serve.submit_batch(&solver, Vec::new(), RequestOptions::default()).unwrap_err();
    assert!(matches!(err, SubmitError::Rejected { .. }));
    // On one column it is an ordinary warm start.
    let single = serve.submit_batch(&solver, vec![b], warm).unwrap().wait();
    assert!(single.results[0].converged);
    serve.shutdown();
}

/// After shutdown, new submissions fail with `ShuttingDown` while previously
/// accepted requests complete (drain semantics are covered implicitly by
/// `shutdown` joining the workers).
#[test]
fn shutdown_refuses_new_work() {
    let registry = SolverRegistry::with_defaults();
    let serve = ServeHandle::start(Arc::clone(&registry), ServeConfig::default());
    let m = matrix(16);
    let solver = registry.get_or_prepare(&m, &spec()).unwrap();
    let b = random_rhs(m.dim(), 1);

    let ticket = serve.submit(&solver, b.clone(), RequestOptions::default()).unwrap();
    assert!(ticket.wait().results[0].converged);
    serve.shutdown();

    // The handle is consumed by shutdown; a second front-end over the same
    // registry still hits the cached solver (warm across front-ends).
    let serve2 = ServeHandle::start(Arc::clone(&registry), ServeConfig::default());
    let hits_before = registry.stats().hits;
    let again = registry.get_or_prepare(&m, &spec()).unwrap();
    assert_eq!(registry.stats().hits, hits_before + 1);
    assert!(serve2
        .submit(&again, b, RequestOptions::default())
        .unwrap()
        .wait()
        .results[0]
        .converged);
    serve2.shutdown();
}
