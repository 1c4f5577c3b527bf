//! Fingerprint-keyed cache of prepared solvers.
//!
//! Setup — precision variants, preconditioner factorization, spec validation
//! — is ~1% of a solve (HPCG 16³, CHANGES.md, PR 4; the standing benchmark
//! times it per solver as `core.build_s.*` beside `solve_s.*`) but pure
//! waste when repeated for every
//! request over the same matrix.  The [`SolverRegistry`] owns that
//! amortization:
//!
//! * **Keying.** Entries are keyed by
//!   [`solver_fingerprint`] — the
//!   matrix content hash mixed with the structural spec hash — computable
//!   *before* building, so lookups never pay setup.
//! * **Single-flight construction.** Concurrent requests for a missing key
//!   build once: the first thread registers the key in an in-flight set and
//!   builds outside the lock; the rest wait on a condvar and pick up the
//!   finished entry.
//! * **LRU + byte-cap eviction.** Every entry is priced at
//!   [`PreparedSolver::storage_bytes`] (matrix variants + preconditioner
//!   factors).  When the total exceeds the byte cap (or the entry cap), the
//!   least-recently-used entries are dropped — but never one with
//!   checked-out sessions; a fully pinned cache transiently exceeds its cap
//!   instead of breaking live requests.  Eviction only detaches the entry:
//!   outstanding [`CachedSolver`] handles keep the solver alive until they
//!   drop.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use f3r_core::fingerprint::solver_fingerprint;
use f3r_core::nested::{NestedSpec, SpecError};
use f3r_core::operator::ProblemMatrix;
use f3r_core::session::{PreparedSolver, SolverBuilder};

use crate::pool::{PooledSession, SessionPool};

/// Sizing of a [`SolverRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Maximum cached entries (LRU-evicted beyond this).
    pub max_entries: usize,
    /// Maximum total [`PreparedSolver::storage_bytes`] across entries.
    pub max_bytes: u64,
    /// High-water cap of each entry's [`SessionPool`] (idle sessions parked
    /// per solver).
    pub max_idle_sessions: usize,
}

impl Default for RegistryConfig {
    /// 64 entries, unbounded bytes, 4 idle sessions per entry.
    fn default() -> Self {
        Self {
            max_entries: 64,
            max_bytes: u64::MAX,
            max_idle_sessions: 4,
        }
    }
}

/// One cached solver: the shared [`PreparedSolver`] plus its session pool.
///
/// Cloning is cheap (two `Arc`s).  A handle stays valid after the registry
/// evicts the entry — eviction detaches, it does not tear down.
#[derive(Clone)]
pub struct CachedSolver {
    prepared: Arc<PreparedSolver>,
    pool: Arc<SessionPool>,
}

impl CachedSolver {
    /// The shared prepared solver.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedSolver> {
        &self.prepared
    }

    /// The solver's content fingerprint (the registry key).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.prepared.fingerprint()
    }

    /// The warm session pool of this entry.
    #[must_use]
    pub fn pool(&self) -> &Arc<SessionPool> {
        &self.pool
    }

    /// Check out a (warm if available) session; shorthand for
    /// `self.pool().checkout()`.
    #[must_use]
    pub fn checkout(&self) -> PooledSession {
        self.pool.checkout()
    }
}

struct Entry {
    solver: CachedSolver,
    /// `storage_bytes()` at insert (variants materialized by the spec are
    /// faulted in during the build, so this is stable afterwards for
    /// non-adaptive solvers; an adaptive escalation can grow the real
    /// footprint beyond the recorded price).
    bytes: u64,
    /// LRU tick of the last hit or insert.
    last_used: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Keys currently being built by some thread (single-flight).
    in_flight: HashSet<u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// Counter snapshot of a [`SolverRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Prepared solvers actually constructed (`misses` minus the lookups
    /// that piggybacked on another thread's in-flight build).
    pub builds: u64,
    /// Entries evicted by the LRU/byte-cap policy.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Total priced bytes of the cached entries.
    pub resident_bytes: u64,
}

/// Thread-safe, fingerprint-keyed cache of [`PreparedSolver`]s with warm
/// session pools, single-flight construction and LRU + byte-cap eviction
/// (see the [module docs](self)).
pub struct SolverRegistry {
    inner: Mutex<Inner>,
    /// Signalled when an in-flight build finishes (either way).
    build_done: Condvar,
    config: RegistryConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
}

impl SolverRegistry {
    /// Create a registry with the given sizing.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                in_flight: HashSet::new(),
                tick: 0,
            }),
            build_done: Condvar::new(),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Create a registry with [`RegistryConfig::default`] sizing.
    #[must_use]
    pub fn with_defaults() -> Arc<Self> {
        Self::new(RegistryConfig::default())
    }

    /// The sizing this registry was created with.
    #[must_use]
    pub fn config(&self) -> RegistryConfig {
        self.config
    }

    /// Fetch the solver for `(matrix, spec)`, building and caching it on a
    /// miss.  Concurrent calls with the same key build once (single-flight);
    /// callers that arrive while the build is in flight block until it
    /// finishes and share the result.
    ///
    /// # Errors
    /// Returns the [`SpecError`] if the spec fails validation.  A failed
    /// build caches nothing; waiting callers retry (and typically fail the
    /// same way, each reporting its own error).
    pub fn get_or_prepare(
        &self,
        matrix: &Arc<ProblemMatrix>,
        spec: &NestedSpec,
    ) -> Result<CachedSolver, SpecError> {
        // Validate before fingerprinting so a nonsense spec cannot occupy an
        // in-flight slot or collide with a valid key.
        spec.check()?;
        let key = solver_fingerprint(matrix, spec);
        let mut inner = self.inner.lock().expect("registry poisoned");
        loop {
            if let Some(hit) = Self::touch(&mut inner, key) {
                // ordering: statistics counter, no synchronization implied.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            // Someone else is building this exact solver; wait for them
            // rather than duplicating the setup cost (single-flight).
            inner = self.build_done.wait(inner).expect("registry poisoned");
        }
        inner.in_flight.insert(key);
        drop(inner);
        // ordering: statistics counter, no synchronization implied.
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Build outside the lock: setup (variant materialization +
        // factorization) is the expensive part, and only this thread holds
        // the in-flight slot for `key`.
        let built = SolverBuilder::new(Arc::clone(matrix))
            .spec(spec.clone())
            .try_build();

        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.in_flight.remove(&key);
        let out = match built {
            Ok(prepared) => {
                // ordering: statistics counter, no synchronization implied.
                self.builds.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!(
                    prepared.fingerprint(),
                    key,
                    "builder must reproduce the lookup fingerprint"
                );
                let solver = CachedSolver {
                    pool: SessionPool::new(
                        Arc::clone(&prepared),
                        self.config.max_idle_sessions,
                    ),
                    prepared,
                };
                let bytes = solver.prepared.storage_bytes();
                inner.tick += 1;
                let tick = inner.tick;
                inner.entries.insert(
                    key,
                    Entry {
                        solver: solver.clone(),
                        bytes,
                        last_used: tick,
                    },
                );
                self.evict_over_caps(&mut inner);
                Ok(solver)
            }
            Err(e) => Err(e),
        };
        drop(inner);
        // Wake the waiters either way: on success they hit the fresh entry,
        // on failure the next one takes over the build slot.
        self.build_done.notify_all();
        out
    }

    /// Fetch an already-cached solver by fingerprint, bumping its LRU slot.
    /// Counts as a hit/miss like [`get_or_prepare`](Self::get_or_prepare)
    /// but never builds.
    #[must_use]
    pub fn lookup(&self, fingerprint: u64) -> Option<CachedSolver> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let hit = Self::touch(&mut inner, fingerprint);
        drop(inner);
        if hit.is_some() {
            // ordering: statistics counter, no synchronization implied.
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // ordering: statistics counter, no synchronization implied.
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Whether an entry for `fingerprint` is currently cached (no LRU bump,
    /// no counter movement — a test/monitoring peek).
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.inner
            .lock()
            .expect("registry poisoned")
            .entries
            .contains_key(&fingerprint)
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry poisoned").entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistryStats {
            // ordering: statistics counters, no synchronization implied.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: statistics counters, no synchronization implied.
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: statistics counters, no synchronization implied.
            builds: self.builds.load(Ordering::Relaxed),
            // ordering: statistics counters, no synchronization implied.
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.entries.len(),
            resident_bytes: inner.entries.values().map(|e| e.bytes).sum(),
        }
    }

    /// Per-entry pool statistics (for the serving layer's metrics), in no
    /// particular order.
    #[must_use]
    pub fn pool_stats(&self) -> Vec<crate::pool::PoolStats> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .entries
            .values()
            .map(|e| e.solver.pool.stats())
            .collect()
    }

    /// Bump the LRU clock for `key` and clone its handle, if cached.
    fn touch(inner: &mut Inner, key: u64) -> Option<CachedSolver> {
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.get_mut(&key).map(|e| {
            e.last_used = tick;
            e.solver.clone()
        })
    }

    /// Evict LRU-first until both caps hold, skipping entries with
    /// checked-out sessions.  If every remaining entry is pinned the caps
    /// are transiently exceeded — live requests always win over the cap.
    fn evict_over_caps(&self, inner: &mut Inner) {
        loop {
            let total: u64 = inner.entries.values().map(|e| e.bytes).sum();
            if total <= self.config.max_bytes && inner.entries.len() <= self.config.max_entries {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.solver.pool.checked_out() == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(key) = victim else { return };
            // Dropping the entry frees the pool's idle sessions with it;
            // outstanding handles (if any raced the pin check) keep the
            // solver itself alive until they drop.
            inner.entries.remove(&key);
            // ordering: statistics counter, no synchronization implied.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}
