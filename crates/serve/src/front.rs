//! Admission-controlled request/response front-end.
//!
//! [`ServeHandle`] owns a bounded submission queue and a fixed pool of worker
//! threads.  Callers submit `(solver, rhs)` requests and get a [`Ticket`]
//! they can block on; workers check warm sessions out of the solver's
//! [`SessionPool`](crate::pool::SessionPool), solve, and post a
//! [`SolveResponse`] back through the ticket.
//!
//! **Admission contract.**  The queue holds at most `queue_capacity`
//! requests.  When it is full, [`Backpressure::Block`] parks the submitting
//! thread until a slot frees (load shedding by latency), while
//! [`Backpressure::Reject`] fails the submission immediately with
//! [`SubmitError::Rejected`] (load shedding by error) — a server under
//! overload must pick one; silently unbounded queues just move the failure
//! to the out-of-memory killer.  Shutdown drains the queue: requests
//! accepted before [`ServeHandle::shutdown`] still complete.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use f3r_core::convergence::SolveResult;
use f3r_core::session::SolveOptions;
use f3r_precision::counters::CounterSnapshot;

use crate::metrics::{LatencyHistogram, MetricsSnapshot};
use crate::registry::{CachedSolver, SolverRegistry};

/// What to do with a submission when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Park the submitting thread until a queue slot frees up.
    #[default]
    Block,
    /// Fail the submission immediately with [`SubmitError::Rejected`].
    Reject,
}

/// Sizing and admission policy of a [`ServeHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads solving requests.
    pub workers: usize,
    /// Maximum queued (accepted, not yet picked up) requests.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
}

impl Default for ServeConfig {
    /// One worker per configured solver thread, a queue of twice that, and
    /// blocking admission.
    fn default() -> Self {
        let workers = f3r_parallel::current_num_threads().max(1);
        Self {
            workers,
            queue_capacity: 2 * workers,
            backpressure: Backpressure::Block,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was full under [`Backpressure::Reject`].
    Rejected {
        /// Queue depth observed at rejection (== the configured capacity).
        queue_depth: usize,
    },
    /// The request is malformed for its solver (a right-hand side or `x0`
    /// of the wrong length, a tolerance that is not positive, a zero cycle
    /// budget, an empty batch, or one `x0` for several right-hand sides);
    /// it was never queued.
    Invalid {
        /// What is wrong with the request.
        reason: &'static str,
    },
    /// [`ServeHandle::shutdown`] has been called; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { queue_depth } => {
                write!(f, "submission rejected: queue full ({queue_depth} deep)")
            }
            SubmitError::Invalid { reason } => write!(f, "submission invalid: {reason}"),
            SubmitError::ShuttingDown => write!(f, "submission refused: server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Owned per-request solve options.
///
/// The borrowed [`SolveOptions`] cannot cross the queue, so requests carry an
/// owned mirror.  A request's options apply to **every** right-hand side it
/// carries: the worker hands each column of a batch the same `tol` and
/// `max_outer_cycles`
/// ([`SolveSession::solve_batch_with`](f3r_core::session::SolveSession::solve_batch_with)),
/// so each served column is bitwise its own `solve_with`.  The one exception
/// is `x0`: one warm start cannot stand for several columns, so a multi-RHS
/// batch carrying one fails fast with [`SubmitError::Invalid`] rather than
/// guessing.
#[derive(Debug, Clone, Default)]
pub struct RequestOptions {
    /// Warm-start initial guess (default: the zero vector).
    pub x0: Option<Vec<f64>>,
    /// Convergence tolerance override.
    pub tol: Option<f64>,
    /// Outermost restart-cycle budget override.
    pub max_outer_cycles: Option<usize>,
}

impl RequestOptions {
    fn as_solve_options(&self) -> SolveOptions<'_> {
        SolveOptions {
            x0: self.x0.as_deref(),
            tol: self.tol,
            max_outer_cycles: self.max_outer_cycles,
        }
    }
}

/// Completed request: solutions, per-RHS solve results, and timing.
#[derive(Debug)]
pub struct SolveResponse {
    /// Fingerprint of the solver that served the request.
    pub fingerprint: u64,
    /// Solution vectors, one per submitted right-hand side, in order.
    pub xs: Vec<Vec<f64>>,
    /// Convergence results, one per right-hand side, in order.
    pub results: Vec<SolveResult>,
    /// Seconds the request waited in the queue before a worker picked it up.
    pub queued_seconds: f64,
    /// End-to-end seconds from submission to completion (queue + solve).
    pub total_seconds: f64,
}

/// Handle to one accepted request; block on [`wait`](Ticket::wait) for the
/// response.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<SolveResponse>,
}

impl Ticket {
    /// Block until the request completes.
    ///
    /// # Panics
    /// Panics if the serving worker died before responding (a worker panic is
    /// a bug in the solver stack, not a load condition — don't mask it).
    #[must_use]
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().expect("serve worker dropped the response")
    }
}

struct Job {
    solver: CachedSolver,
    rhs: Vec<Vec<f64>>,
    opts: RequestOptions,
    reply: mpsc::Sender<SolveResponse>,
    enqueued: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when a job is pushed (workers wait here).
    not_empty: Condvar,
    /// Signalled when a job is popped (blocked submitters wait here).
    not_full: Condvar,
    capacity: usize,
    backpressure: Backpressure,
    in_flight: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    solves: AtomicU64,
    latency: LatencyHistogram,
    kernels: Mutex<CounterSnapshot>,
    registry: Arc<SolverRegistry>,
}

/// Request/response front-end over a [`SolverRegistry`]: bounded submission
/// queue, worker threads, warm-session checkout, and aggregate metrics (see
/// the [module docs](self)).
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Start `config.workers` worker threads serving requests against
    /// `registry`.
    #[must_use]
    pub fn start(registry: Arc<SolverRegistry>, config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            backpressure: config.backpressure,
            in_flight: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            kernels: Mutex::new(CounterSnapshot::default()),
            registry,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("f3r-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The registry this front-end serves from.
    #[must_use]
    pub fn registry(&self) -> &Arc<SolverRegistry> {
        &self.shared.registry
    }

    /// Submit one right-hand side against `solver`.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] when `b` or `opts.x0` is not the solver's
    /// dimension long, `opts.tol` is not positive or `opts.max_outer_cycles`
    /// is zero; [`SubmitError::Rejected`] when the queue is full under
    /// [`Backpressure::Reject`]; [`SubmitError::ShuttingDown`] after
    /// [`shutdown`](Self::shutdown) started.
    pub fn submit(
        &self,
        solver: &CachedSolver,
        b: Vec<f64>,
        opts: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(solver, vec![b], opts)
    }

    /// Submit a batch of right-hand sides solved by one fused
    /// [`solve_batch_with`](f3r_core::session::SolveSession::solve_batch_with)
    /// call, every column under `opts`' tolerance and cycle budget.
    ///
    /// # Errors
    /// As [`submit`](Self::submit), for every right-hand side; additionally
    /// an empty batch, and an `x0` on a batch of more than one right-hand
    /// side (see [`RequestOptions`]), are [`SubmitError::Invalid`].
    pub fn submit_batch(
        &self,
        solver: &CachedSolver,
        bs: Vec<Vec<f64>>,
        opts: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(solver, bs, opts)
    }

    /// Admit a request: refuse what the solve driver would assert on, then
    /// queue it under the backpressure policy.
    fn enqueue(
        &self,
        solver: &CachedSolver,
        rhs: Vec<Vec<f64>>,
        opts: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        let n = solver.prepared().dim();
        let reason = if rhs.is_empty() {
            Some("empty batch")
        } else if rhs.len() > 1 && opts.x0.is_some() {
            Some("one x0 cannot stand for several right-hand sides")
        } else if rhs.iter().any(|b| b.len() != n) {
            Some("right-hand side length differs from the matrix dimension")
        } else if opts.x0.as_ref().is_some_and(|x0| x0.len() != n) {
            Some("x0 length differs from the matrix dimension")
        } else if opts.tol.is_some_and(|tol| tol.is_nan() || tol <= 0.0) {
            Some("tolerance must be positive")
        } else if opts.max_outer_cycles == Some(0) {
            Some("need at least one outer cycle")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(SubmitError::Invalid { reason });
        }
        let (tx, rx) = mpsc::channel();
        let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
        loop {
            if queue.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.jobs.len() < self.shared.capacity {
                break;
            }
            match self.shared.backpressure {
                Backpressure::Reject => {
                    // ordering: statistics counter, no synchronization implied.
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Rejected {
                        queue_depth: queue.jobs.len(),
                    });
                }
                Backpressure::Block => {
                    queue = self
                        .shared
                        .not_full
                        .wait(queue)
                        .expect("serve queue poisoned");
                }
            }
        }
        queue.jobs.push_back(Job {
            solver: solver.clone(),
            rhs,
            opts,
            reply: tx,
            enqueued: Instant::now(),
        });
        drop(queue);
        // ordering: statistics counter, no synchronization implied.
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.not_empty.notify_one();
        Ok(Ticket { rx })
    }

    /// Aggregate metrics: queue/in-flight depth, latency quantiles, registry
    /// and per-pool counters, and kernel work across all completed requests.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let queue_depth = self.shared.queue.lock().expect("serve queue poisoned").jobs.len();
        MetricsSnapshot {
            queue_depth,
            // ordering: monitoring reads of statistics counters.
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            // ordering: monitoring reads of statistics counters.
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            // ordering: monitoring reads of statistics counters.
            completed: self.shared.completed.load(Ordering::Relaxed),
            // ordering: monitoring reads of statistics counters.
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            // ordering: monitoring reads of statistics counters.
            solves: self.shared.solves.load(Ordering::Relaxed),
            p50_seconds: self.shared.latency.quantile(0.5),
            p99_seconds: self.shared.latency.quantile(0.99),
            registry: self.shared.registry.stats(),
            pools: self.shared.registry.pool_stats(),
            kernels: *self
                .shared
                .kernels
                .lock()
                .expect("serve kernel counters poisoned"),
        }
    }

    /// Stop accepting submissions, drain the queue, and join the workers.
    /// Every request accepted before this call still completes.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            w.join().expect("serve worker panicked");
        }
    }

    fn begin_shutdown(&self) {
        self.shared
            .queue
            .lock()
            .expect("serve queue poisoned")
            .shutdown = true;
        // Wake everyone: blocked submitters fail with ShuttingDown, idle
        // workers notice the flag and exit once the queue is drained.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            // A worker panic during normal drop would double-panic; the
            // explicit `shutdown()` path is the one that propagates it.
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("serve queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                // Check shutdown only after the pop attempt so accepted work
                // drains before the workers exit.
                if queue.shutdown {
                    return;
                }
                queue = shared.not_empty.wait(queue).expect("serve queue poisoned");
            }
        };
        shared.not_full.notify_one();
        // ordering: monitoring gauge, no synchronization implied.
        shared.in_flight.fetch_add(1, Ordering::Relaxed);

        let queued_seconds = job.enqueued.elapsed().as_secs_f64();
        let mut session = job.solver.checkout();
        let n = session.prepared().matrix().dim();
        let k = job.rhs.len();
        let mut xs = vec![vec![0.0; n]; k];
        let results = session.solve_batch_with(&job.rhs, &mut xs, &vec![job.opts.as_solve_options(); k]);
        drop(session);

        {
            let mut kernels = shared.kernels.lock().expect("serve kernel counters poisoned");
            for r in &results {
                kernels.accumulate(&r.counters);
            }
        }
        // ordering: statistics counters, no synchronization implied.
        shared.solves.fetch_add(k as u64, Ordering::Relaxed);
        let total = job.enqueued.elapsed();
        shared.latency.record(total);
        // ordering: statistics counter, no synchronization implied.
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // ordering: monitoring gauge, no synchronization implied.
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);

        // The submitter may have dropped its ticket; that's fine.
        let _ = job.reply.send(SolveResponse {
            fingerprint: job.solver.fingerprint(),
            xs,
            results,
            queued_seconds,
            total_seconds: total.as_secs_f64(),
        });
    }
}
