//! Persistent worker-pool data parallelism for the F3R kernel layer.
//!
//! The sparse kernels previously used rayon's parallel iterators, then a
//! first-party scoped-thread layer that spawned OS threads on *every* kernel
//! call.  That per-call spawn cost (tens of microseconds) forced the kernel
//! thresholds an order of magnitude above where parallelism starts paying
//! off, so the paper-scale mid-size problems (2^14–2^18 unknowns) ran
//! entirely single-core.  This crate now keeps a **global, lazily
//! initialised pool of parked worker threads** and dispatches each helper
//! call as a batch of chunk tasks:
//!
//! * the pool is created on the first above-threshold call and holds
//!   `current_num_threads() - 1` workers parked on a condition variable,
//! * each helper call enqueues its chunk tasks, executes the **last chunk on
//!   the calling thread** (as the scoped layer did), helps drain its own
//!   remaining tasks, and parks only until its batch completes,
//! * dispatch costs two mutex acquisitions and a wake — roughly a
//!   microsecond — instead of a thread spawn + join per call, which is what
//!   lets the `thresholds` below sit at the seed values again.
//!
//! The helpers are deliberately shaped around how the kernels parallelise:
//!
//! * [`par_chunks_mut`] — split an output slice into contiguous chunks and
//!   process each chunk on its own task (SpMV rows, axpy-style updates),
//! * [`par_map_chunks_mut`] — like [`par_chunks_mut`] but each chunk also
//!   yields a value, collected in chunk order (fused update + norm kernels),
//! * [`par_map_ranges`] — map disjoint index ranges to per-chunk results and
//!   collect them in order (chunked reductions: dot products, norms),
//! * [`par_ranges`] — run a task per disjoint index range and collect
//!   nothing (tasks that write their own outputs: panel products);
//!   [`par_ranges_indexed`] also tells each task its range's index, so a
//!   reduction can leave per-range partials in a buffer of its own and fold
//!   them in order without allocating (Gram–Schmidt's multi-dot),
//! * [`par_parts_mut`] / [`par_map`] — parallelise over a small list of
//!   unevenly sized parts or items (block-Jacobi blocks).
//!
//! # Worker count
//!
//! The pool size is resolved once, at the first parallel dispatch, from (in
//! priority order) [`set_num_threads`], the `F3R_NUM_THREADS` environment
//! variable, and [`std::thread::available_parallelism`].  A count of 1
//! disables the pool entirely: every helper runs inline, no threads are ever
//! spawned, and single-CPU machines never pay for synchronisation.
//!
//! # Re-entrancy
//!
//! Helpers may be called from inside tasks.  A helper invoked **on a pool
//! worker** (see [`is_worker_thread`]) runs its whole input inline as a
//! single chunk — workers never enqueue work or block on other workers, so
//! nested kernel calls (e.g. a preconditioner apply inside a parallel sweep)
//! cannot deadlock the pool.  A helper invoked on a *non-worker* thread
//! (including the caller thread while it executes its own chunk) dispatches
//! normally; any number of caller threads may use the pool concurrently, and
//! every caller helps execute its own batch, so progress never depends on a
//! worker being free.
//!
//! Panics in a task are caught, forwarded to the calling thread after the
//! batch completes, and resumed there; the pool itself survives.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::{self, Thread};

pub mod thresholds;

// ---------------------------------------------------------------------------
// Worker-count configuration
// ---------------------------------------------------------------------------

/// Thread count requested via [`set_num_threads`]; 0 means "not set".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker-pool size (total compute threads, callers included).
///
/// Takes effect only if called **before the first parallel dispatch** — the
/// pool is created lazily and its size is latched when the first
/// above-threshold helper call arrives.  Later calls are ignored (the pool
/// does not resize).  A programmatic setting takes priority over the
/// `F3R_NUM_THREADS` environment variable; `n` is clamped to at least 1, and
/// `1` means "run everything inline, never spawn a worker".
///
/// Returns the count in effect as far as this call can observe: `n` if the
/// pool has not started yet, otherwise the already-latched pool size.  Call
/// it during startup, before other threads issue parallel work — racing it
/// against a concurrent first dispatch can latch the previous configuration
/// even though `n` is returned.
pub fn set_num_threads(n: usize) -> usize {
    let n = n.max(1);
    // ordering: Relaxed — a plain configuration cell; the pool's OnceLock
    // initialization is the synchronization point that publishes it.
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
    POOL.get().map_or(n, |p| p.threads)
}

/// Resolve the thread count from configuration without touching the pool:
/// [`set_num_threads`] > `F3R_NUM_THREADS` > available parallelism.
fn configured_threads() -> usize {
    // ordering: Relaxed — pairs with the Relaxed store in `set_num_threads`;
    // only the value matters, no other memory is published through it.
    let set = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if set != 0 {
        return set;
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    if let Some(n) = *ENV.get_or_init(|| {
        std::env::var("F3R_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    }) {
        return n;
    }
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of compute threads the helpers will use at most (callers included).
///
/// Once the pool has started this is its latched size; before that it
/// reflects the current configuration (see [`set_num_threads`]).
#[must_use]
pub fn current_num_threads() -> usize {
    POOL.get().map_or_else(configured_threads, |p| p.threads)
}

/// Whether the current thread is one of the pool's worker threads.
///
/// Helpers called on a worker run inline as a single chunk (see the module
/// docs on re-entrancy); exposed so tests and diagnostics can observe it.
#[must_use]
pub fn is_worker_thread() -> bool {
    IN_WORKER.with(Cell::get)
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One enqueued chunk task: a pointer to its batch plus the chunk index.
struct Task {
    batch: *const BatchState,
    index: usize,
}

// SAFETY: `Task` carries a raw pointer to a `BatchState` that lives on the
// stack of a thread currently blocked in `run_batch`.  The dispatch protocol
// guarantees the pointee outlives the task: the caller does not return until
// `remaining` reaches zero, and `remaining` is decremented only after a task
// finishes executing.
unsafe impl Send for Task {}

/// Shared per-dispatch state, allocated on the calling thread's stack.
struct BatchState {
    /// Type-erased pointer to the caller's `Fn(usize)` chunk closure.
    job: *const (),
    /// Monomorphised trampoline invoking `job` with a chunk index.
    call: unsafe fn(*const (), usize),
    /// Tasks not yet completed (executed by workers or the caller).
    remaining: AtomicUsize,
    /// Handle used to unpark the caller when the batch completes.
    caller: Thread,
    /// First panic payload raised by any task, forwarded to the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct Pool {
    /// Latched total thread count (workers + one caller).
    threads: usize,
    /// FIFO of pending chunk tasks across all in-flight batches.
    queue: Mutex<VecDeque<Task>>,
    /// Signalled when tasks are pushed; workers park here when idle.
    available: Condvar,
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

/// Get the global pool, creating it (and spawning its parked workers) on
/// first use.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            threads,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for id in 0..threads.saturating_sub(1) {
            thread::Builder::new()
                .name(format!("f3r-worker-{id}"))
                .spawn(move || worker_loop(pool))
                .expect("failed to spawn f3r worker thread");
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool) {
    IN_WORKER.with(|w| w.set(true));
    let mut queue = pool.queue.lock().expect("pool queue poisoned");
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            execute(task);
            queue = pool.queue.lock().expect("pool queue poisoned");
        } else {
            queue = pool.available.wait(queue).expect("pool queue poisoned");
        }
    }
}

/// Execute one task and mark it complete, unparking the caller if it was the
/// batch's last.  Panics in the task body are captured into the batch.
fn execute(task: Task) {
    // SAFETY: the batch outlives the task (see the `Send` impl on `Task`);
    // this task has not been counted out of `remaining` yet.
    let batch = unsafe { &*task.batch };
    // Clone the caller handle *before* the decrement: after this task's
    // decrement the batch may complete and the caller's stack frame vanish.
    let caller = batch.caller.clone();
    // SAFETY: `job`/`call` were built from a closure reference that
    // `run_batch` keeps alive until `remaining` reaches zero.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (batch.call)(batch.job, task.index) }));
    if let Err(payload) = result {
        let mut slot = batch.panic.lock().expect("panic slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    // ordering: AcqRel — Release publishes this task's writes to whoever
    // observes the count hit zero; Acquire on the last decrement makes every
    // other task's writes visible to the caller before it is unparked.
    if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        caller.unpark();
    }
}

impl Pool {
    /// Pop a not-yet-started task belonging to `batch`, if any is queued
    /// (the caller uses this to help drain its own batch).
    fn pop_own(&self, batch: *const BatchState) -> Option<Task> {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        let pos = queue.iter().position(|t| std::ptr::eq(t.batch, batch))?;
        queue.remove(pos)
    }
}

/// Run `count` chunk tasks `f(0), …, f(count-1)` across the pool and the
/// calling thread, returning when all of them have completed.
///
/// The caller executes chunk `count - 1` itself, then helps execute any of
/// its own chunks still queued, then parks until workers finish the rest.
/// Runs everything inline when the batch is trivial, the pool is configured
/// for a single thread, or the current thread is itself a pool worker
/// (re-entrant call — see the module docs).
fn run_batch<F: Fn(usize) + Sync>(count: usize, f: &F) {
    if count <= 1 || is_worker_thread() {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let pool = pool();
    if pool.threads <= 1 {
        for i in 0..count {
            f(i);
        }
        return;
    }

    /// Monomorphised trampoline: recover the closure and run chunk `index`.
    // SAFETY: callers must pass a `job` pointer created from the same `F`
    // this instantiation was monomorphised for (run_batch builds both).
    unsafe fn call_task<F: Fn(usize)>(job: *const (), index: usize) {
        // SAFETY: `job` points at the live `F` borrowed by `run_batch`.
        unsafe { (*job.cast::<F>())(index) }
    }

    let batch = BatchState {
        job: std::ptr::from_ref(f).cast(),
        call: call_task::<F>,
        remaining: AtomicUsize::new(count),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    {
        let mut queue = pool.queue.lock().expect("pool queue poisoned");
        for index in 0..count - 1 {
            queue.push_back(Task { batch: &batch, index });
        }
    }
    // Wake exactly as many workers as there are queued tasks (capped at the
    // worker count): notify_all would stampede every parked worker through
    // the queue mutex on each kernel call, inflating the dispatch cost the
    // thresholds are tuned against.
    for _ in 0..(count - 1).min(pool.threads - 1) {
        pool.available.notify_one();
    }
    // The caller takes the last chunk itself (saving one handoff per call,
    // exactly as the scoped-thread layer did) …
    execute(Task { batch: &batch, index: count - 1 });
    // … then helps drain its own batch instead of blocking, so completion
    // never depends on workers being free (they may be busy with another
    // caller's batch — or not exist at all).
    while let Some(task) = pool.pop_own(&batch) {
        execute(task);
    }
    // Park until the last in-flight task unparks us.  `park` may wake
    // spuriously (or from a stale token left by our own last-task unpark),
    // so re-check the counter each time.
    // ordering: Acquire — pairs with the AcqRel decrement in `execute`; once
    // zero is observed, every task's writes happen-before this point.
    while batch.remaining.load(Ordering::Acquire) > 0 {
        thread::park();
    }
    let payload = batch.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Shareable raw pointer for handing disjoint regions of one allocation to
/// pool tasks: sub-slices and result slots in the helpers below, and the
/// strided slots of a column-major panel (`c * stride + row` for the rows a
/// task owns) in the panel kernels of `f3r-sparse` and `f3r-precond`, which
/// no `&mut` split can express.
///
/// The wrapper is `Send` and `Sync` whatever it points at, so making one is
/// the unsafe step ([`new`](Self::new)): that is where the pointer leaves
/// the borrow checker's sight.
pub struct SyncPtr<T>(*mut T);

impl<T> SyncPtr<T> {
    /// Wrap the base pointer of an allocation the tasks will partition.
    ///
    /// # Safety
    /// Every thread the wrapper (or a copy of its pointer) reaches must
    /// access only a region of the allocation that no other thread accesses
    /// while it does, and the allocation must outlive all of those accesses
    /// — in the helpers' terms: tasks take disjoint regions, and the batch
    /// completes before the borrow `base` came from ends.
    pub unsafe fn new(base: *mut T) -> Self {
        Self(base)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapper only moves a pointer *value* between threads; whoever
// made it vouched (`new`'s contract) that the threads it reaches touch
// disjoint regions of an allocation that outlives them.
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: see above — concurrent tasks never touch overlapping regions.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Number of workers for `items` work items at granularity `grain`.
fn workers(items: usize, grain: usize) -> usize {
    if grain == 0 {
        return 1;
    }
    (items / grain.max(1)).clamp(1, current_num_threads())
}

// ---------------------------------------------------------------------------
// Public helpers (signatures unchanged from the scoped-thread layer)
// ---------------------------------------------------------------------------

/// Process contiguous chunks of `data` in parallel.
///
/// `data` is split into roughly equal contiguous chunks of at least `grain`
/// elements; `f` is called with each chunk's start offset in `data` and the
/// mutable chunk itself.  Runs inline when one worker suffices or when
/// called from a pool worker (re-entrant call).
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], grain: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let nw = workers(n, grain);
    if nw <= 1 || is_worker_thread() {
        f(0, data);
        return;
    }
    let per = n.div_ceil(nw);
    let count = n.div_ceil(per);
    // SAFETY: task `i` takes chunk `i` of `data` and nothing else, and
    // `run_batch` returns only when every task has, inside this borrow.
    let base = unsafe { SyncPtr::new(data.as_mut_ptr()) };
    run_batch(count, &|i: usize| {
        let start = i * per;
        let len = per.min(n - start);
        // SAFETY: chunk `i` is this task's own (see `base`).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        f(start, chunk);
    });
}

/// Process contiguous chunks of `data` in parallel, collecting a per-chunk
/// result in chunk order.
///
/// Like [`par_chunks_mut`] but each chunk also produces a value — the shape
/// fused kernels need (e.g. an SpMV that simultaneously accumulates dot
/// products of its output).
#[must_use]
pub fn par_map_chunks_mut<T: Send, R: Send, F>(data: &mut [T], grain: usize, f: F) -> Vec<R>
where
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let n = data.len();
    let nw = workers(n, grain);
    if nw <= 1 || is_worker_thread() {
        return vec![f(0, data)];
    }
    let per = n.div_ceil(nw);
    let count = n.div_ceil(per);
    let mut out: Vec<Option<R>> = (0..count).map(|_| None).collect();
    // SAFETY: task `i` takes chunk `i` of `data` and slot `i` of `out`, both
    // alive until `run_batch` returns.
    let (base, slots) = unsafe { (SyncPtr::new(data.as_mut_ptr()), SyncPtr::new(out.as_mut_ptr())) };
    run_batch(count, &|i: usize| {
        let start = i * per;
        let len = per.min(n - start);
        // SAFETY: disjoint chunk of `data` per task (see par_chunks_mut).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        let r = f(start, chunk);
        // SAFETY: slot `i` is written by exactly one task; overwriting the
        // initial `None` without dropping it is fine (dropping `None` is a
        // no-op for any `R`).
        unsafe { slots.get().add(i).write(Some(r)) };
    });
    out.into_iter()
        .map(|r| r.expect("pool task produced a result"))
        .collect()
}

/// Map disjoint index ranges of `0..len` to per-range results, in order.
///
/// The index space is split into roughly equal ranges of at least `grain`
/// indices; `f` maps each range to a result, and the results are returned in
/// range order (so reductions stay deterministic for a fixed worker count —
/// combine them with a fold on the caller side).  Called from a pool worker
/// it returns a single range covering `0..len` (inline re-entrant path).
#[must_use]
pub fn par_map_ranges<R: Send, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    F: Fn(Range<usize>) -> R + Sync,
{
    let nw = workers(len, grain);
    if nw <= 1 || is_worker_thread() {
        return vec![f(0..len)];
    }
    let per = len.div_ceil(nw);
    let count = len.div_ceil(per);
    let mut out: Vec<Option<R>> = (0..count).map(|_| None).collect();
    // SAFETY: task `i` writes slot `i` of `out` only, before `run_batch`
    // returns.
    let slots = unsafe { SyncPtr::new(out.as_mut_ptr()) };
    run_batch(count, &|i: usize| {
        let start = i * per;
        let end = (start + per).min(len);
        let r = f(start..end);
        // SAFETY: slot `i` is written by exactly one task (see
        // par_map_chunks_mut).
        unsafe { slots.get().add(i).write(Some(r)) };
    });
    out.into_iter()
        .map(|r| r.expect("pool task produced a result"))
        .collect()
}

/// Run `f` on disjoint index ranges covering `0..len`, in parallel.
///
/// The split is that of [`par_map_ranges`] (roughly equal ranges of at least
/// `grain` indices, one range when called from a pool worker); nothing is
/// collected and nothing is allocated, so this is the helper for kernels on
/// a solver's steady-state path whose tasks write their own disjoint outputs
/// (panel products, block-Jacobi blocks).
pub fn par_ranges<F>(len: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    par_ranges_indexed(len, grain, |_, range| f(range));
}

/// [`par_ranges`] that also tells each task which range it has: `f(i, range)`
/// runs for range `i` of the split, and the call returns how many ranges
/// there were — at most [`current_num_threads`], one when called from a pool
/// worker.
///
/// The split is that of [`par_map_ranges`], so a reduction whose tasks leave
/// their partial results in a buffer of the caller's, one slot per range, and
/// whose caller folds the slots in range order, gets the bits
/// [`par_map_ranges`] plus a fold would give — without allocating.
pub fn par_ranges_indexed<F>(len: usize, grain: usize, f: F) -> usize
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let nw = workers(len, grain);
    if nw <= 1 || is_worker_thread() {
        f(0, 0..len);
        return 1;
    }
    let per = len.div_ceil(nw);
    let count = len.div_ceil(per);
    run_batch(count, &|i: usize| {
        let start = i * per;
        f(i, start..(start + per).min(len));
    });
    count
}

/// Process the contiguous parts `data[offsets[p]..offsets[p + 1]]` in
/// parallel: `f` is called with each part's index and the mutable part.
///
/// The parts may be unevenly sized (block-Jacobi blocks); they are dealt to
/// tasks as contiguous groups.  Unlike collecting the parts into a `Vec` of
/// slices first, this allocates nothing, so it can sit on a solver's
/// steady-state path.
///
/// # Panics
/// Panics if `offsets` is not non-decreasing or reaches past `data.len()`.
pub fn par_parts_mut<T: Send, F>(data: &mut [T], offsets: &[usize], f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]) && offsets.last().is_none_or(|&end| end <= data.len()),
        "par_parts_mut: offsets must be non-decreasing and within the data"
    );
    // SAFETY: the parts are disjoint (offsets checked above), each belongs to
    // one task, and `par_ranges` returns inside this borrow of `data`.
    let base = unsafe { SyncPtr::new(data.as_mut_ptr()) };
    par_ranges(offsets.len().saturating_sub(1), 1, |parts| {
        for p in parts {
            // SAFETY: the offsets were checked to be ordered and in bounds,
            // so parts are disjoint in-range regions of `data`, which the
            // enclosing call keeps borrowed until the batch completes; each
            // part index belongs to exactly one task's range.
            let part = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(offsets[p]), offsets[p + 1] - offsets[p])
            };
            f(p, part);
        }
    });
}

/// Map every item of `items` to a result in parallel, preserving order.
#[must_use]
pub fn par_map<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let nw = n.clamp(1, current_num_threads());
    if nw <= 1 || n <= 1 || is_worker_thread() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = n.div_ceil(nw);
    let count = n.div_ceil(per);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // SAFETY: each slot of `out` belongs to one task's group, written before
    // `run_batch` returns.
    let slots = unsafe { SyncPtr::new(out.as_mut_ptr()) };
    run_batch(count, &|g: usize| {
        let start = g * per;
        let end = (start + per).min(n);
        for (off, item) in items[start..end].iter().enumerate() {
            let idx = start + off;
            let r = f(idx, item);
            // SAFETY: slot `idx` belongs to exactly one task's group.
            unsafe { slots.get().add(idx).write(Some(r)) };
        }
    });
    out.into_iter()
        .map(|r| r.expect("pool task produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pool-touching test requests the same multi-thread configuration
    /// before its first dispatch, so whichever test initialises the pool
    /// first latches a size > 1 and the pool path is actually exercised even
    /// on single-core machines.
    fn use_test_pool() {
        set_num_threads(4);
    }

    #[test]
    fn chunks_cover_every_element_exactly_once() {
        use_test_pool();
        let mut data = vec![0u32; 10_000];
        par_chunks_mut(&mut data, 16, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (offset + i) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn small_input_runs_inline() {
        use_test_pool();
        let mut data = vec![1u8; 3];
        par_chunks_mut(&mut data, 1024, |offset, chunk| {
            assert_eq!(offset, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn ranges_partition_and_preserve_order() {
        use_test_pool();
        let sums = par_map_ranges(100_000, 1_000, |r| r.map(|i| i as u64).sum::<u64>());
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 99_999 * 100_000 / 2);
        assert!(!sums.is_empty());
    }

    #[test]
    fn indexed_ranges_are_the_map_split_in_order() {
        use_test_pool();
        for len in [0usize, 5, 999, 100_000] {
            let split = par_map_ranges(len, 1_000, |r| r);
            let seen = Mutex::new(vec![None; current_num_threads()]);
            let count = par_ranges_indexed(len, 1_000, |i, r| {
                seen.lock().unwrap()[i] = Some(r);
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(count, split.len(), "len {len}");
            for (i, r) in split.into_iter().enumerate() {
                assert_eq!(seen[i].clone(), Some(r), "len {len} range {i}");
            }
        }
    }

    #[test]
    fn zero_length_range_map() {
        use_test_pool();
        let sums = par_map_ranges(0, 64, |r| r.len());
        assert_eq!(sums, vec![0]);
    }

    #[test]
    fn map_chunks_results_in_chunk_order() {
        use_test_pool();
        let mut data: Vec<u64> = (0..10_000).collect();
        let sums = par_map_chunks_mut(&mut data, 100, |offset, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
            offset as u64
        });
        let mut prev = None;
        for s in &sums {
            assert!(prev.is_none_or(|p| p < *s), "offsets must be increasing");
            prev = Some(*s);
        }
        assert_eq!(data[0], 1);
        assert_eq!(data[9999], 10_000);
    }

    #[test]
    fn uneven_parts_all_processed() {
        use_test_pool();
        // Parts of 1, 2, …, 7 elements (and one empty part) inside a longer
        // slice whose head and tail no part covers.
        let offsets = [2usize, 3, 5, 8, 8, 12, 17, 23, 30];
        let mut data = vec![0u8; 32];
        par_parts_mut(&mut data, &offsets, |p, part| {
            assert_eq!(part.len(), offsets[p + 1] - offsets[p]);
            for v in part.iter_mut() {
                *v = p as u8 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            let expect = offsets.windows(2).position(|w| (w[0]..w[1]).contains(&i)).map_or(0, |p| p as u8 + 1);
            assert_eq!(v, expect, "element {i}");
        }
        par_parts_mut(&mut data, &[], |_, _| panic!("no parts"));
        par_parts_mut(&mut data, &[4], |_, _| panic!("no parts"));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn overlapping_parts_are_rejected() {
        par_parts_mut(&mut [0u8; 8], &[0, 5, 3, 8], |_, _| {});
    }

    #[test]
    fn map_preserves_order() {
        use_test_pool();
        let items: Vec<usize> = (0..133).collect();
        let doubled = par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(doubled, (0..133).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn current_num_threads_is_positive() {
        use_test_pool();
        assert!(current_num_threads() >= 1);
    }
}
