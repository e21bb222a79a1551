//! Offline stand-in for the `rayon` crate, backed by a **real shared
//! amplitude thread pool**.
//!
//! This workspace builds in environments with no access to crates.io, so the
//! entry points the code uses (`par_iter_mut().for_each` on slices,
//! `ThreadPoolBuilder`) are provided here on top of a lazily-initialized,
//! std-only work-sharing pool. The pool runs **sweeps only**: every drive
//! is a `for_each` with no result, and no reduction is offered (the
//! workspace's amplitude sums are serial folds in `tqsim-statevec`).
//!
//! - The pool is sized by [`std::thread::available_parallelism`] (read
//!   once, at first use); [`ThreadPool::install`] caps it per calling
//!   thread. Workers are spawned lazily and parked when idle.
//! - Every drive splits its iterator into **fixed task boundaries that
//!   depend only on the iterator's length**, never on the thread count, so
//!   a sweep's tasks (and the `tasks` counter) are the same at any thread
//!   count, including the fully inline single-threaded path.
//! - [`ThreadPool::install`] scopes a thread-count cap onto the calling
//!   thread, so an outer scheduler (the engine's tree-level worker pool) can
//!   budget amplitude threads per worker and the two parallelism levels do
//!   not oversubscribe each other.
//! - A panic inside a parallel closure is caught per task, the pool's worker
//!   threads survive, and the panic resumes on the calling thread once the
//!   job has fully drained — callers see ordinary unwinding, the pool stays
//!   healthy.
//!
//! [`pool_stats`] exposes task/busy-time counters for the observability
//! registry. If the real `rayon` becomes available, deleting this shim
//! swaps in its work-stealing scheduler unchanged at every call site.
//!
//! ```
//! use rayon::prelude::*;
//!
//! let mut v = vec![1u64, 2, 3];
//! v.par_iter_mut().for_each(|x| *x *= 2);
//! assert_eq!(v, [2, 4, 6]);
//! ```

#![warn(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// The traits (`par_iter_mut` and `for_each`) — `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParallelIterator};
}

// ---------------------------------------------------------------------------
// Pool: lazily-initialized shared workers + a job queue.
// ---------------------------------------------------------------------------

/// Upper bound on tasks per drive. Boundaries are a function of the
/// iterator's weight and this constant only — never of the thread count.
const MAX_TASKS: usize = 128;

thread_local! {
    /// Per-thread amplitude-thread cap installed by [`ThreadPool::install`].
    /// `usize::MAX` means "no cap: use the pool default".
    static INSTALL_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Type-erased parallel job shared between the caller and pool workers.
///
/// `data` points at a `JobData<I, F>` on the **caller's stack**; the
/// caller blocks until `pending` reaches zero before returning, so the
/// pointer outlives every task execution. Workers never dereference `data`
/// without first claiming a task index strictly below `total`.
struct JobCore {
    run: unsafe fn(*const (), usize),
    data: *const (),
    next: AtomicUsize,
    total: usize,
    pending: AtomicUsize,
    helpers: AtomicUsize,
    max_helpers: usize,
    lock: Mutex<()>,
    cvar: Condvar,
}

// SAFETY: `data` is only dereferenced via `run` for claimed task indices,
// each claimed exactly once, while the caller blocks keeping it alive.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

struct JobData<I, F> {
    pieces: Vec<UnsafeCell<Option<I>>>,
    op: F,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Execute one claimed task: take piece `idx`, run the op under
/// `catch_unwind`, keep the first panic payload.
///
/// # Safety
///
/// `data` must point at a live `JobData<I, F>` and `idx` must have been
/// claimed exactly once from the job's `next` counter.
unsafe fn run_task<I, F: Fn(I)>(data: *const (), idx: usize) {
    let d = &*(data.cast::<JobData<I, F>>());
    let piece = (*d.pieces[idx].get()).take().expect("task claimed twice");
    let t0 = Instant::now();
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| (d.op)(piece))) {
        let mut slot = d.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(p);
        }
    }
    BUSY_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    TASKS.fetch_add(1, Ordering::Relaxed);
}

struct Pool {
    queue: Mutex<VecDeque<Arc<JobCore>>>,
    work: Condvar,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Pool-default concurrency: `available_parallelism`, else 1. Read once per
/// process.
fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Effective concurrency for a drive started on this thread: the installed
/// cap if one is active, else the pool default.
fn effective_threads() -> usize {
    let cap = INSTALL_CAP.with(|c| c.get());
    if cap == usize::MAX {
        default_threads()
    } else {
        cap.max(1)
    }
}

fn finish_task(core: &JobCore) {
    if core.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Take the lock before notifying so the caller cannot miss the
        // wakeup between its `pending` check and its `wait`.
        let _g = core.lock.lock().unwrap_or_else(|e| e.into_inner());
        core.cvar.notify_all();
    }
}

impl Pool {
    /// Grow the worker set to at least `want` threads (monotonic; parked
    /// workers are cheap, so an `install` asking for more than the hardware
    /// has — e.g. determinism tests on a 1-core host — genuinely runs
    /// cross-thread).
    fn ensure_workers(&'static self, want: usize) {
        let mut n = self.spawned.lock().unwrap_or_else(|e| e.into_inner());
        while *n < want {
            *n += 1;
            let id = *n;
            std::thread::Builder::new()
                .name(format!("tqsim-amp-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawn amplitude pool worker");
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    q.retain(|j| j.next.load(Ordering::Acquire) < j.total);
                    if let Some(j) = q
                        .iter()
                        .find(|j| j.helpers.load(Ordering::Acquire) < j.max_helpers)
                    {
                        j.helpers.fetch_add(1, Ordering::AcqRel);
                        break j.clone();
                    }
                    q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            loop {
                let idx = job.next.fetch_add(1, Ordering::AcqRel);
                if idx >= job.total {
                    break;
                }
                // SAFETY: idx < total was claimed exactly once; the caller
                // keeps the job data alive until pending drains to zero.
                unsafe { (job.run)(job.data, idx) };
                finish_task(&job);
            }
        }
    }

    /// Publish a job, help drain it from the calling thread, then block
    /// until every task has finished (keeping the caller's stack data
    /// valid for the workers).
    fn run_job(&'static self, core: &Arc<JobCore>) {
        self.ensure_workers(core.max_helpers.saturating_sub(1));
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(core.clone());
        }
        self.work.notify_all();
        loop {
            let idx = core.next.fetch_add(1, Ordering::AcqRel);
            if idx >= core.total {
                break;
            }
            // SAFETY: as in `worker_loop` — unique claim, live data.
            unsafe { (core.run)(core.data, idx) };
            finish_task(core);
        }
        let mut g = core.lock.lock().unwrap_or_else(|e| e.into_inner());
        while core.pending.load(Ordering::Acquire) > 0 {
            g = core.cvar.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Split `iter` at fixed weight boundaries and run `op` on the pieces
/// across the pool (or inline when the effective concurrency is 1).
/// Panics from task closures resume here.
fn drive<I, F>(iter: I, op: F)
where
    I: ParallelIterator,
    F: Fn(I) + Sync,
{
    let w = iter.weight();
    let n = w.clamp(1, MAX_TASKS);
    let mut pieces: Vec<UnsafeCell<Option<I>>> = Vec::with_capacity(n);
    let mut rest = iter;
    let mut start = 0usize;
    for k in 1..n {
        // Boundary k is a function of (w, n) alone — thread-count invariant.
        let end = k * w / n;
        let (left, right) = rest.split_at(end - start);
        pieces.push(UnsafeCell::new(Some(left)));
        rest = right;
        start = end;
    }
    pieces.push(UnsafeCell::new(Some(rest)));
    let data = JobData {
        pieces,
        op,
        panic: Mutex::new(None),
    };
    let run = run_task::<I, F>;
    let ptr = (&data as *const JobData<I, F>).cast::<()>();
    let threads = effective_threads().min(n);
    if threads <= 1 {
        for idx in 0..n {
            // SAFETY: sequential claim of each index exactly once.
            unsafe { run(ptr, idx) };
        }
    } else {
        let core = Arc::new(JobCore {
            run,
            data: ptr,
            next: AtomicUsize::new(0),
            total: n,
            pending: AtomicUsize::new(n),
            helpers: AtomicUsize::new(1),
            max_helpers: threads,
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        });
        pool().run_job(&core);
    }
    if let Some(p) = data.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(p);
    }
}

/// Snapshot of the amplitude pool's counters for observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Pool-default concurrency (workers + the participating caller).
    pub threads: usize,
    /// Total parallel tasks executed since process start.
    pub tasks: u64,
    /// Total nanoseconds spent inside task closures (summed across threads).
    pub busy_ns: u64,
}

/// Current amplitude-pool counters (threads, tasks executed, busy time).
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads: default_threads(),
        tasks: TASKS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
    }
}

/// The number of amplitude threads a drive started on this thread would
/// use: the [`ThreadPool::install`] cap if one is active, else the pool
/// default (`available_parallelism`).
pub fn current_num_threads() -> usize {
    effective_threads()
}

// ---------------------------------------------------------------------------
// Parallel iterator trait + the slice iterator.
// ---------------------------------------------------------------------------

/// A splittable parallel iterator driven by the shared amplitude pool.
///
/// Implementors describe how to split themselves at fixed boundaries
/// (`weight`/`split_at`) and how to run one piece sequentially
/// (`into_seq`); [`ParallelIterator::for_each`] does the rest.
pub trait ParallelIterator: Sized + Send {
    /// Element type produced.
    type Item: Send;
    /// Sequential iterator that drives one split-off piece.
    type Seq: Iterator<Item = Self::Item>;

    /// Splittable length in items. Task boundaries are computed from this
    /// alone.
    fn weight(&self) -> usize;

    /// Split into `[0, index)` and `[index, weight)` pieces.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Convert one piece into its sequential driver.
    fn into_seq(self) -> Self::Seq;

    /// Run `f` on every item across the pool.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        drive(self, |piece| {
            for x in piece.into_seq() {
                f(x)
            }
        });
    }
}

/// Mutably borrowing parallel iterator over a slice (see
/// [`IntoParallelRefMutIterator`]).
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn weight(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (ParIterMut { slice: l }, ParIterMut { slice: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits.
// ---------------------------------------------------------------------------

/// `par_iter_mut()` on mutably borrowed slices.
pub trait IntoParallelRefMutIterator<'d> {
    /// Parallel iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send + 'd;

    /// Mutably borrowing pool-driven parallel iterator.
    fn par_iter_mut(&'d mut self) -> Self::Iter;
}

impl<'d, T: Send + 'd> IntoParallelRefMutIterator<'d> for [T] {
    type Iter = ParIterMut<'d, T>;
    type Item = &'d mut T;

    fn par_iter_mut(&'d mut self) -> ParIterMut<'d, T> {
        ParIterMut { slice: self }
    }
}

// ---------------------------------------------------------------------------
// ThreadPool facade: a per-thread concurrency cap over the shared pool.
// ---------------------------------------------------------------------------

/// Builder-compatible stand-in for rayon's pool builder. The built
/// [`ThreadPool`] is a *cap* over the shared amplitude pool rather than a
/// separate set of threads.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a thread count; 0 (the default) means the pool default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool handle. Never fails.
    ///
    /// # Errors
    ///
    /// Present for API compatibility; this shim always returns `Ok`.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// Handle scoping a thread-count budget onto the shared amplitude pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread budget installed on the calling
    /// thread: every parallel drive `f` starts uses at most
    /// `current_num_threads` amplitude threads. The previous budget is
    /// restored on exit (including unwinds), so installs nest.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Guard(usize);
        impl Drop for Guard {
            fn drop(&mut self) {
                INSTALL_CAP.with(|c| c.set(self.0));
            }
        }
        let prev = INSTALL_CAP.with(|c| {
            let p = c.get();
            c.set(self.num_threads);
            p
        });
        let _g = Guard(prev);
        f()
    }

    /// The configured thread budget.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn adapters_behave_like_std_iterators() {
        let mut w = vec![1u64, 2, 3];
        w.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(w, vec![2, 3, 4]);
    }

    #[test]
    fn pool_installs_a_cap() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| 21 * 2), 42);
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(pool.install(super::current_num_threads), 4);
    }

    /// Large parallel mutation touches every element exactly once at any
    /// thread budget.
    #[test]
    fn par_for_each_mut_covers_every_element() {
        for threads in [1usize, 2, 4] {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut v: Vec<u64> = (0..100_000).collect();
            pool.install(|| v.par_iter_mut().for_each(|x| *x = x.wrapping_mul(3) + 1));
            assert!(v
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i as u64).wrapping_mul(3) + 1));
        }
    }

    /// A panicking task resumes on the caller and leaves the pool healthy
    /// for subsequent drives.
    #[test]
    fn panic_is_contained_and_pool_survives() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let mut v: Vec<u64> = (0..10_000).collect();
        let hits = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                v.par_iter_mut().for_each(|x| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    if *x == 5_000 {
                        panic!("boom");
                    }
                })
            })
        }));
        assert!(r.is_err());
        // The pool still drives work after the contained panic.
        pool.install(|| v.par_iter_mut().for_each(|x| *x += 1));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }
}
