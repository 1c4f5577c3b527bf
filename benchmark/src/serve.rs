//! The serve phase: a closed loop through registry, session pools and queue.
//!
//! A request is `get_or_prepare` + `submit` + `wait`; its latency is what the
//! client thread sees around those three calls.  The cold path (first
//! `get_or_prepare` + first request per fingerprint, summed) is the set-up
//! of this phase and is measured on a fresh registry each time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, Csr, Grid, NestedSpec, ProblemMatrix, Server, ServerStats};
use crate::inputs::{self, RhsKind, Rng};
use crate::solve::Tally;
use crate::trace::Scope;
use crate::workloads::Tenant;

/// Distinct right-hand sides per fingerprint; requests cycle through them.
const RHS_PER_TENANT: usize = 4;

pub struct Plan<'a> {
    pub tenants: &'a [Tenant],
    pub rhs: RhsKind,
    pub clients: usize,
    pub workers: usize,
    pub queue: usize,
    /// Times the cold path is measured (each on a fresh registry).
    pub cold_repeats: usize,
    /// Concurrent pre-warm requests per fingerprint, so that many sessions
    /// are parked warm before the window opens.
    pub prewarm: usize,
    pub window: Window,
}

#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Clients stop sending after this long; replies in flight are awaited.
    Seconds(f64),
    /// Each client sends exactly this many requests.
    RequestsPerClient(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub latency_s: f64,
    /// `get_or_prepare` (a hit, inside the window).
    pub lookup_s: f64,
    /// `SolveResponse::queued_seconds`.
    pub queued_s: f64,
    /// Σ `results[].seconds`.
    pub solve_s: f64,
    pub outer_iters: u64,
    pub traced: bool,
}

pub struct Input {
    pub grid: Grid,
    pub n: usize,
    pub nnz: usize,
    pub content_hash: u64,
    pub rhs_checksum: u64,
}

pub struct ServePhase {
    pub cold_first_s: Vec<f64>,
    pub requests: Vec<Request>,
    /// From the window's opening to the last reply.
    pub elapsed_s: f64,
    /// Registry and pool counters over the window only.
    pub window_stats: ServerStats,
    pub inputs: Vec<Input>,
    pub tally: Tally,
}

struct TenantState {
    matrix: Arc<ProblemMatrix>,
    spec: NestedSpec,
    rhs: Vec<Vec<f64>>,
}

/// One request, verified.  `None` if it failed anywhere.
fn request(
    server: &Server,
    t: &TenantState,
    rhs: usize,
    scope: Scope,
    tag: &str,
    tally: &mut Tally,
) -> Option<Request> {
    let b = t.rhs[rhs].clone();
    let start = Instant::now();
    let solver = server.get_or_prepare(&t.matrix, &t.spec);
    let looked_up = Instant::now();
    let reply = solver
        .and_then(|s| server.submit(&s, b))
        .and_then(|pending| {
            catch_unwind(AssertUnwindSafe(|| pending.wait()))
                .map_err(|_| "the serve worker died".to_string())
        });
    let end = Instant::now();
    let reply = reply.ok().filter(|r| {
        r.results.len() == 1
            && r.results[0].converged
            && inputs::solved(&t.matrix, &r.xs[0], &t.rhs[rhs])
    });
    tally.record(reply.is_some());
    let reply = reply?;
    let solve_s: f64 = reply.results.iter().map(|r| r.seconds).sum();

    // The serve layer reports how long the request queued and solved; those
    // spans are rebuilt from its numbers, and what they leave uncovered is
    // the request's self time.
    let queued = looked_up + Duration::from_secs_f64(reply.queued_seconds);
    let solved = (queued + Duration::from_secs_f64(solve_s)).min(end);
    let inner = scope.add("serve", "request", tag, start, end);
    inner.add("serve", "lookup", tag, start, looked_up);
    inner.add("serve", "queue", tag, looked_up, queued.min(end));
    inner.add("core", "solve", tag, queued.min(end), solved);
    Some(Request {
        latency_s: end.duration_since(start).as_secs_f64(),
        lookup_s: looked_up.duration_since(start).as_secs_f64(),
        queued_s: reply.queued_seconds,
        solve_s,
        outer_iters: reply.results[0].outer_iterations as u64,
        traced: scope.rec.is_some(),
    })
}

/// The order one client sends in: blocks that hold every tenant `weight`
/// times, each block shuffled by the seed, so the mix is exact per block and
/// only the order is random.
struct Order {
    rng: Rng,
    block: Vec<usize>,
    next: usize,
    sent: Vec<usize>,
}

impl Order {
    fn new(tenants: &[Tenant], seed: u64, client: usize) -> Order {
        let block = tenants
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight))
            .collect();
        Order {
            rng: Rng::new(seed, 1000 + client as u64),
            block,
            next: 0,
            // Clients start on different right-hand sides of a tenant.
            sent: vec![client; tenants.len()],
        }
    }

    /// The next tenant and which of its right-hand sides to send.
    fn next(&mut self) -> (usize, usize) {
        if self.next == 0 {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i + 1));
            }
        }
        let tenant = self.block[self.next];
        self.next = (self.next + 1) % self.block.len();
        self.sent[tenant] += 1;
        (tenant, self.sent[tenant] % RHS_PER_TENANT)
    }
}

pub fn run(plan: &Plan, seed: u64, traced: Option<Scope>) -> ServePhase {
    let raws: Vec<Csr> = plan.tenants.iter().map(|t| t.grid.generate()).collect();
    // A fresh `ProblemMatrix` per cold path, so each pays the content hash.
    let states = || -> Vec<TenantState> {
        plan.tenants
            .iter()
            .zip(&raws)
            .enumerate()
            .map(|(i, (t, raw))| {
                let matrix = api::problem_matrix(api::jacobi_scale(raw));
                let rhs = (0..RHS_PER_TENANT)
                    .map(|j| inputs::rhs(&matrix, plan.rhs, seed, (100 * i + j) as u64))
                    .collect();
                TenantState {
                    matrix,
                    spec: api::fp16_spec(t.grid),
                    rhs,
                }
            })
            .collect()
    };
    let setup_scope = traced.unwrap_or(Scope::OFF);
    let mut tally = Tally::default();

    // The cold path, each time on a fresh registry and fresh matrices but
    // under the same worker threads: threads that exit hand their malloc
    // arenas to the next ones in no fixed order, which made peak RSS bimodal.
    let mut server = Server::start(plan.workers, plan.queue);
    let mut cold_first_s = Vec::new();
    let mut tenants = Vec::new();
    for repeat in 0..plan.cold_repeats.max(1) {
        server.renew_registry();
        tenants = states();
        // Summed request latencies: the residual checks between them are the
        // benchmark's own time, not the cold path's.
        let (secs, _) = setup_scope.time(
            "serve",
            "cold_first",
            &format!("repeat_{repeat}"),
            |scope| {
                let latency = |(i, t)| {
                    request(
                        &server,
                        t,
                        0,
                        scope,
                        &format!("cold.tenant_{i}"),
                        &mut tally,
                    )
                    .map(|r| r.latency_s)
                };
                tenants
                    .iter()
                    .enumerate()
                    .map(latency)
                    .sum::<Option<f64>>()
                    .unwrap_or(f64::NAN)
            },
        );
        cold_first_s.push(secs);
    }

    for t in &tenants {
        let sent: Vec<_> = (0..plan.prewarm)
            .map(|j| j % RHS_PER_TENANT)
            .map(|j| {
                (
                    j,
                    server
                        .get_or_prepare(&t.matrix, &t.spec)
                        .and_then(|s| server.submit(&s, t.rhs[j].clone())),
                )
            })
            .collect();
        for (j, pending) in sent {
            let reply = pending.map(api::Pending::wait);
            tally.record(reply.is_ok_and(|r| {
                r.results[0].converged && inputs::solved(&t.matrix, &r.xs[0], &t.rhs[j])
            }));
        }
    }

    let before = server.stats();
    let opened = Instant::now();
    let per_client: Vec<(Vec<Request>, Tally, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|client| {
                let (server, tenants) = (&server, &tenants);
                s.spawn(move || {
                    let mut order = Order::new(plan.tenants, seed, client);
                    let (mut done, mut tally) = (Vec::new(), Tally::default());
                    loop {
                        let elapsed = opened.elapsed().as_secs_f64();
                        // A traced run traces every other request of a
                        // client; `trace.overhead` compares the two halves.
                        let (open, traced_now) = match plan.window {
                            Window::Seconds(w) => (elapsed < w, tally.attempted % 2 == 1),
                            Window::RequestsPerClient(n) => (tally.attempted < n as u64, true),
                        };
                        if !open {
                            break;
                        }
                        let scope = traced.filter(|_| traced_now).unwrap_or(Scope::OFF);
                        let (tenant, rhs) = order.next();
                        let tag = format!(
                            "client_{client}.request_{}.tenant_{tenant}",
                            tally.attempted
                        );
                        done.extend(request(
                            server,
                            &tenants[tenant],
                            rhs,
                            scope,
                            &tag,
                            &mut tally,
                        ));
                    }
                    (done, tally, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let after = server.stats();
    let last_reply = per_client
        .iter()
        .map(|(_, _, t)| *t)
        .max()
        .unwrap_or(opened);

    let inputs = plan
        .tenants
        .iter()
        .zip(&tenants)
        .map(|(t, state)| {
            let (n, nnz) = api::dims(&state.matrix);
            Input {
                grid: t.grid,
                n,
                nnz,
                content_hash: api::content_hash(&state.matrix),
                rhs_checksum: inputs::checksum(&state.rhs),
            }
        })
        .collect();
    Server::shutdown(server);

    let mut requests = Vec::new();
    for (done, client_tally, _) in per_client {
        requests.extend(done);
        tally.merge(client_tally);
    }
    ServePhase {
        cold_first_s,
        requests,
        elapsed_s: last_reply.duration_since(opened).as_secs_f64(),
        window_stats: ServerStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            warm_checkouts: after.warm_checkouts - before.warm_checkouts,
            cold_checkouts: after.cold_checkouts - before.cold_checkouts,
            rejected: after.rejected - before.rejected,
        },
        inputs,
        tally,
    }
}
