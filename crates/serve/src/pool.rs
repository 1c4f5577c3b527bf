//! Warm [`SolveSession`] pools.
//!
//! PR 4 measured a warmed session (workspaces allocated, adaptive Richardson
//! weights settled) solving ~35% faster than a cold one.  A [`SessionPool`]
//! turns that into a serving-layer primitive: sessions are checked out for
//! one request and returned on drop, so the *next* request over the same
//! solver reuses the workspaces (`workspace_generation()` stays put — zero
//! reallocations on the warm path; it counts every (re)allocation of the
//! session's one workspace set, so only a request wider than any the session
//! has served moves it) and inherits the settled weights.
//!
//! The pool holds at most `max_idle` parked sessions; returns beyond the
//! high-water cap drop the session instead, so idle workspaces are reclaimed
//! *before* the registry has to consider evicting the (much larger) prepared
//! solver they borrow from.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use f3r_core::session::{PreparedSolver, SolveSession};

/// A pool of warm [`SolveSession`]s over one shared [`PreparedSolver`].
///
/// Checkout pops a parked session if one is idle (warm path) and opens a
/// fresh one otherwise (cold path); the [`PooledSession`] guard returns the
/// session on drop.  All state is internally synchronized — share the pool
/// via `Arc` across as many threads as needed.
pub struct SessionPool {
    prepared: Arc<PreparedSolver>,
    idle: Mutex<Vec<SolveSession>>,
    max_idle: usize,
    checked_out: AtomicUsize,
    warm_checkouts: AtomicU64,
    cold_checkouts: AtomicU64,
    discarded_returns: AtomicU64,
}

impl SessionPool {
    /// Create a pool over `prepared` parking at most `max_idle` idle
    /// sessions.
    #[must_use]
    pub fn new(prepared: Arc<PreparedSolver>, max_idle: usize) -> Arc<Self> {
        Arc::new(Self {
            prepared,
            idle: Mutex::new(Vec::new()),
            max_idle,
            checked_out: AtomicUsize::new(0),
            warm_checkouts: AtomicU64::new(0),
            cold_checkouts: AtomicU64::new(0),
            discarded_returns: AtomicU64::new(0),
        })
    }

    /// The shared solver every session of this pool solves against.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedSolver> {
        &self.prepared
    }

    /// Check out a session: a parked warm one if available, a fresh cold one
    /// otherwise.  The returned guard gives the session back on drop.
    #[must_use]
    pub fn checkout(self: &Arc<Self>) -> PooledSession {
        let parked = self.idle.lock().expect("session pool poisoned").pop();
        let session = match parked {
            Some(s) => {
                // ordering: statistics counter, no synchronization implied.
                self.warm_checkouts.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                // ordering: statistics counter, no synchronization implied.
                self.cold_checkouts.fetch_add(1, Ordering::Relaxed);
                self.prepared.session()
            }
        };
        // ordering: Relaxed suffices — the count gates registry eviction,
        // which only needs to observe increments that happened-before the
        // eviction scan; the scan runs under the registry mutex and a
        // checkout that races it keeps its solver alive through its own Arc.
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        PooledSession {
            session: Some(session),
            pool: Arc::clone(self),
        }
    }

    /// Number of sessions currently checked out (live guards).
    #[must_use]
    pub fn checked_out(&self) -> usize {
        // ordering: monitoring read; see `checkout` for the eviction contract.
        self.checked_out.load(Ordering::Relaxed)
    }

    /// Number of warm sessions currently parked.
    #[must_use]
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("session pool poisoned").len()
    }

    /// Total workspace bytes held by the parked sessions
    /// ([`SolveSession::workspace_bytes`] summed: one workspace set per
    /// session, as wide as the widest request it has served) — what the
    /// high-water cap is actually bounding.
    #[must_use]
    pub fn idle_workspace_bytes(&self) -> u64 {
        self.idle
            .lock()
            .expect("session pool poisoned")
            .iter()
            .map(SolveSession::workspace_bytes)
            .sum()
    }

    /// Counter snapshot of this pool.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fingerprint: self.prepared.fingerprint(),
            solver_name: self.prepared.name().to_string(),
            idle: self.idle_len(),
            checked_out: self.checked_out(),
            // ordering: statistics counters, no synchronization implied.
            warm_checkouts: self.warm_checkouts.load(Ordering::Relaxed),
            // ordering: statistics counters, no synchronization implied.
            cold_checkouts: self.cold_checkouts.load(Ordering::Relaxed),
            // ordering: statistics counters, no synchronization implied.
            discarded_returns: self.discarded_returns.load(Ordering::Relaxed),
            idle_workspace_bytes: self.idle_workspace_bytes(),
        }
    }

    /// Return a session to the pool (called by the guard's drop).
    fn give_back(&self, session: SolveSession) {
        // ordering: Relaxed pairs with the `checkout` increment; the guard
        // is consumed on this thread, so the decrement trivially follows the
        // matching increment.
        self.checked_out.fetch_sub(1, Ordering::Relaxed);
        let mut idle = self.idle.lock().expect("session pool poisoned");
        if idle.len() < self.max_idle {
            idle.push(session);
        } else {
            drop(idle);
            // Over the high-water cap: reclaim the workspaces instead of
            // parking a session that would only grow the idle footprint.
            // ordering: statistics counter, no synchronization implied.
            self.discarded_returns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counter snapshot of one [`SessionPool`], reported per entry by the
/// serving layer's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Fingerprint of the pooled solver.
    pub fingerprint: u64,
    /// Configuration name of the pooled solver.
    pub solver_name: String,
    /// Sessions currently parked warm.
    pub idle: usize,
    /// Sessions currently checked out.
    pub checked_out: usize,
    /// Checkouts served by a parked warm session.
    pub warm_checkouts: u64,
    /// Checkouts that had to open a fresh session.
    pub cold_checkouts: u64,
    /// Returns dropped because the pool was at its high-water cap.
    pub discarded_returns: u64,
    /// Workspace bytes held by the parked sessions.
    pub idle_workspace_bytes: u64,
}

/// Owning guard over a checked-out [`SolveSession`]; derefs to the session
/// and returns it to the pool on drop.
pub struct PooledSession {
    /// `Some` until drop (taken exactly once by the drop glue).
    session: Option<SolveSession>,
    pool: Arc<SessionPool>,
}

impl Deref for PooledSession {
    type Target = SolveSession;

    fn deref(&self) -> &SolveSession {
        self.session.as_ref().expect("session taken")
    }
}

impl DerefMut for PooledSession {
    fn deref_mut(&mut self) -> &mut SolveSession {
        self.session.as_mut().expect("session taken")
    }
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.pool.give_back(session);
        }
    }
}
