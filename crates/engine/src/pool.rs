//! The work-stealing worker pool.
//!
//! A [`WorkerPool`] owns `n` OS threads. Work arrives either through
//! [`WorkerPool::inject`] (external submission onto a global queue) or
//! through [`WorkerCtx::spawn`] (a running task pushing follow-up work onto
//! its worker's local deque). Each worker drains its own deque LIFO —
//! depth-first, which keeps the set of live tree states small — and when
//! empty takes from the global queue or **steals FIFO** from a sibling's
//! deque, so large subtrees redistribute themselves across idle workers
//! automatically.
//!
//! Every worker owns a [`StatePool`] whose buffers are recycled across
//! tasks and jobs; all per-worker pools report into a single shared
//! [`PoolCounters`] block, so the pool-wide allocation count and live-buffer
//! high-water mark are exact, not per-worker approximations.
//!
//! The pool is deliberately scheduler-agnostic about *results*: tasks
//! communicate through whatever shared accumulators the caller arranges
//! (the tree executor uses one mutex-guarded accumulator per worker, which
//! its own worker touches almost exclusively). Determinism therefore never
//! depends on scheduling — each task derives its RNG stream from its
//! position in the computation, and merges commute.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tqsim_obs::{elapsed_ns, Counter, Histogram, Registry};
use tqsim_statevec::{PoolCounters, PoolStats, PooledBackend, PooledState, SingleNode, StatePool};

/// A unit of work: runs once on some worker.
pub type Task<B = SingleNode> = Box<dyn FnOnce(&WorkerCtx<'_, B>) + Send + 'static>;

/// One worker's observability instruments (see [`PoolMetrics`]).
struct WorkerInstruments {
    /// Tasks this worker took, counted before each one runs.
    tasks: Arc<Counter>,
    /// Tasks it took from a sibling's deque.
    steals: Arc<Counter>,
    /// Nanoseconds spent executing tasks.
    busy_ns: Arc<Counter>,
    /// Nanoseconds spent parked on the work condvar.
    idle_ns: Arc<Counter>,
    /// Times the worker parked (busy pools park rarely).
    parks: Arc<Counter>,
}

/// Per-pool observability instruments, registered into a shared
/// [`Registry`] under an `engine` scope label (one instrument set per
/// worker plus a pool-wide task-latency histogram). Absent by default;
/// when absent the worker loop's only overhead is one `Option` check per
/// task.
pub(crate) struct PoolMetrics {
    /// Latency distribution of every task the pool ran.
    task_ns: Arc<Histogram>,
    workers: Vec<WorkerInstruments>,
}

impl PoolMetrics {
    fn register(registry: &Registry, scope: &str, workers: usize) -> Self {
        let engine = [("engine", scope)];
        PoolMetrics {
            task_ns: registry.histogram("tqsim_engine_task_ns", &engine),
            workers: (0..workers)
                .map(|index| {
                    let worker = index.to_string();
                    let labels = [("engine", scope), ("worker", worker.as_str())];
                    WorkerInstruments {
                        tasks: registry.counter("tqsim_engine_tasks_total", &labels),
                        steals: registry.counter("tqsim_engine_steals_total", &labels),
                        busy_ns: registry.counter("tqsim_engine_busy_ns_total", &labels),
                        idle_ns: registry.counter("tqsim_engine_idle_ns_total", &labels),
                        parks: registry.counter("tqsim_engine_parks_total", &labels),
                    }
                })
                .collect(),
        }
    }
}

struct Shared<B: PooledBackend> {
    /// Externally injected work (FIFO).
    injector: Mutex<VecDeque<Task<B>>>,
    /// Per-worker deques: owner pops the back, thieves steal the front.
    locals: Vec<Mutex<VecDeque<Task<B>>>>,
    /// Tasks queued anywhere (quick "is there work?" probe). Incremented
    /// *before* the push and decremented only after a successful pop, so
    /// it may transiently over-count but never wraps below zero.
    queued: AtomicUsize,
    /// Workers currently parked on `work_cv`. Producers skip the wake
    /// lock entirely while this is zero (the common case on a busy pool).
    sleepers: AtomicUsize,
    /// Guards sleep/wake transitions (prevents lost wakeups).
    sleep: Mutex<bool>, // the bool is the shutdown flag
    work_cv: Condvar,
    /// First panic payload from a task, held until the job's submitter
    /// takes it with [`WorkerPool::take_panic`] (matching rayon's
    /// propagate-first-panic semantics).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    counters: Arc<PoolCounters>,
    /// Per-worker busy/idle/steal instruments (None ⇒ uninstrumented).
    metrics: Option<PoolMetrics>,
}

impl<B: PooledBackend> Shared<B> {
    /// Publish one new task: bump the counters, then wake a sleeper only
    /// if one exists. Lost-wakeup freedom is the classic Dekker argument
    /// (both sides use `SeqCst`): a worker increments `sleepers` *before*
    /// re-checking `queued` under the lock, and a producer increments
    /// `queued` *before* reading `sleepers` — at least one side must see
    /// the other's write, so either the worker re-loops or the producer
    /// takes the lock and notifies.
    fn publish(&self, queue: &Mutex<VecDeque<Task<B>>>, task: Task<B>) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        queue.lock().expect("queue lock").push_back(task);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().expect("sleep lock");
            self.work_cv.notify_one();
        }
    }
}

/// What a task sees of the pool: its worker identity, the worker's state
/// pool, and the ability to spawn follow-up tasks.
pub struct WorkerCtx<'a, B: PooledBackend = SingleNode> {
    index: usize,
    state_pool: &'a StatePool<B>,
    shared: &'a Arc<Shared<B>>,
}

impl<B: PooledBackend> WorkerCtx<'_, B> {
    /// This worker's index in `0..parallelism` (stable for the pool's
    /// lifetime; useful for per-worker accumulator slots).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Check a state buffer out of this worker's pool (contents
    /// unspecified; overwrite before use). Returned buffers find their way
    /// back to this worker's free list no matter which thread drops them.
    pub fn acquire(&self, n_qubits: u16) -> PooledState<B> {
        self.state_pool.acquire(n_qubits)
    }

    /// The backend behind this worker's state pool (shared pool-wide).
    pub fn backend(&self) -> &B {
        self.state_pool.backend()
    }

    /// Push a follow-up task onto this worker's local deque (LIFO for the
    /// owner, stealable FIFO by siblings).
    pub fn spawn(&self, task: impl FnOnce(&WorkerCtx<'_, B>) + Send + 'static) {
        self.shared
            .publish(&self.shared.locals[self.index], Box::new(task));
    }
}

/// A fixed-size pool of worker threads with work stealing and per-worker
/// state pools, generic over the execution backend (single-node
/// [`StatePool`]s by default; `tqsim-cluster`'s backend pools distributed
/// states). See the [module docs](self).
pub struct WorkerPool<B: PooledBackend = SingleNode> {
    shared: Arc<Shared<B>>,
    state_pools: Vec<StatePool<B>>,
    handles: Vec<JoinHandle<()>>,
}

impl<B: PooledBackend> std::fmt::Debug for WorkerPool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerPool[{} workers, {:?}]",
            self.handles.len(),
            self.pool_stats()
        )
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads, each pooling single-node
    /// [`tqsim_statevec::StateVector`] buffers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or thread spawning fails.
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_backend(workers, SingleNode)
    }
}

impl<B: PooledBackend> WorkerPool<B> {
    /// Spawn a pool of `workers` threads whose per-worker [`StatePool`]s
    /// allocate through `backend` (e.g. `tqsim-cluster`'s node-group-aware
    /// backend).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or thread spawning fails.
    pub fn with_backend(workers: usize, backend: B) -> Self {
        WorkerPool::with_backend_observed(workers, backend, None)
    }

    /// [`WorkerPool::with_backend`] with optional observability: when a
    /// registry and scope are given, every worker reports task counts,
    /// busy/idle nanoseconds, steals and parks into
    /// `tqsim_engine_*{engine=scope, worker=i}` instruments, plus one
    /// pool-wide `tqsim_engine_task_ns` latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or thread spawning fails.
    pub fn with_backend_observed(
        workers: usize,
        backend: B,
        observe: Option<(&Registry, &str)>,
    ) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let counters = PoolCounters::new();
        let metrics =
            observe.map(|(registry, scope)| PoolMetrics::register(registry, scope, workers));
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(false),
            work_cv: Condvar::new(),
            panic: Mutex::new(None),
            counters: Arc::clone(&counters),
            metrics,
        });
        let state_pools: Vec<StatePool<B>> = (0..workers)
            .map(|_| StatePool::with_backend(backend.clone(), Arc::clone(&counters)))
            .collect();
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let state_pool = state_pools[index].clone();
                std::thread::Builder::new()
                    .name(format!("tqsim-worker-{index}"))
                    .spawn(move || worker_loop(index, &state_pool, &shared))
                    .expect("worker thread spawn")
            })
            .collect();
        WorkerPool {
            shared,
            state_pools,
            handles,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submit one task to the global queue.
    pub fn inject(&self, task: impl FnOnce(&WorkerCtx<'_, B>) + Send + 'static) {
        self.shared.publish(&self.shared.injector, Box::new(task));
    }

    /// Take the first stored task panic without blocking, if any. Work
    /// reports its own completion (a tree job completes when its last task
    /// drops the job's shared record, which fires a callback), so the
    /// submitter polls this once its job has completed; a panicking task
    /// abandons only its own follow-up work and the pool stays usable.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        // Recover from poison: this lock is only ever taken on panic
        // paths, and `.expect` here would double-panic while already
        // handling a task panic.
        self.shared
            .panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// The execution backend the per-worker state pools allocate through.
    pub fn backend(&self) -> &B {
        self.state_pools[0].backend()
    }

    /// Aggregate buffer-pool statistics across all workers (exact global
    /// counts: the per-worker pools share one counter block).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.counters.stats()
    }

    /// The shared counter block every job's memory metrics are read from.
    pub fn pool_counters(&self) -> &Arc<PoolCounters> {
        &self.shared.counters
    }

    /// Pre-fill every worker's free list with `per_worker` buffers of width
    /// `n_qubits`, so steady-state execution allocates nothing.
    pub fn prewarm(&self, n_qubits: u16, per_worker: usize) {
        for pool in &self.state_pools {
            pool.prewarm(n_qubits, per_worker);
        }
    }
}

impl<B: PooledBackend> Drop for WorkerPool<B> {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.sleep.lock().expect("sleep lock");
            *shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() == current {
                // The pool's last owner died on one of its own workers (a
                // job-completion callback owning the engine is the typical
                // path): joining would be a self-join. Detach instead —
                // the thread's loop observes the shutdown flag and exits
                // on its own, holding only per-thread state.
                drop(handle);
            } else {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop<B: PooledBackend>(index: usize, state_pool: &StatePool<B>, shared: &Arc<Shared<B>>) {
    let ctx = WorkerCtx {
        index,
        state_pool,
        shared,
    };
    // Two-level parallelism: tree-node tasks run here (engine level) and
    // each task's amplitude sweeps fan out on the shared rayon pool
    // (amplitude level). Cap the per-worker amplitude budget at an equal
    // share of the pool so `workers × amp threads` never oversubscribes
    // the machine.
    let amp_share = (rayon::current_num_threads() / shared.locals.len().max(1)).max(1);
    let amp_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(amp_share)
        .build()
        .expect("amplitude thread budget");
    loop {
        if let Some(task) = find_task(index, shared) {
            // Count the task before it runs: its completion callback may
            // deliver the job's result, and a reader that saw the job
            // finish must see every one of its tasks counted.
            let started = shared.metrics.as_ref().map(|metrics| {
                metrics.workers[index].tasks.inc();
                Instant::now()
            });
            // Catch unwinds so a panicking task cannot kill the worker;
            // the payload waits in the panic slot for `take_panic`.
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                amp_pool.install(|| task(&ctx))
            })) {
                // Poison-tolerant for the same reason as `take_panic`:
                // this path is already handling one panic.
                let mut slot = shared
                    .panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if let (Some(metrics), Some(started)) = (&shared.metrics, started) {
                let ns = elapsed_ns(started);
                metrics.workers[index].busy_ns.add(ns);
                metrics.task_ns.record(ns);
            }
            continue;
        }
        let shutdown = shared.sleep.lock().expect("sleep lock");
        // Register as a sleeper *before* the final queue re-check: a
        // producer that missed our registration must then see `queued > 0`
        // here (see `Shared::publish` for the pairing argument).
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.queued.load(Ordering::SeqCst) > 0 {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if *shutdown {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let parked = shared.metrics.as_ref().map(|_| Instant::now());
        let _unused = shared.work_cv.wait(shutdown).expect("work wait");
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        if let (Some(metrics), Some(parked)) = (&shared.metrics, parked) {
            let w = &metrics.workers[index];
            w.parks.inc();
            w.idle_ns.add(elapsed_ns(parked));
        }
    }
}

/// Pop in priority order: own deque (LIFO) → global injector (FIFO) →
/// steal from siblings (FIFO), scanning from the next index round-robin.
fn find_task<B: PooledBackend>(index: usize, shared: &Shared<B>) -> Option<Task<B>> {
    let grab = |queue: &Mutex<VecDeque<Task<B>>>, lifo: bool| -> Option<Task<B>> {
        let mut q = queue.lock().expect("queue lock");
        if lifo {
            q.pop_back()
        } else {
            q.pop_front()
        }
    };
    let mut stolen = false;
    let task = grab(&shared.locals[index], true)
        .or_else(|| grab(&shared.injector, false))
        .or_else(|| {
            let n = shared.locals.len();
            let task = (1..n).find_map(|offset| grab(&shared.locals[(index + offset) % n], false));
            stolen = task.is_some();
            task
        });
    if task.is_some() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        if stolen {
            if let Some(metrics) = &shared.metrics {
                metrics.workers[index].steals.inc();
            }
        }
    }
    task
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A test-local stand-in for a job's own completion accounting: every
    /// task holds one [`Tick`], and [`Countdown::wait`] returns once all of
    /// them have dropped (a panicking task drops its tick while unwinding).
    struct Countdown {
        left: Mutex<u64>,
        zero: Condvar,
    }

    struct Tick(Arc<Countdown>);

    impl Drop for Tick {
        fn drop(&mut self) {
            let mut left = self
                .0
                .left
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *left -= 1;
            if *left == 0 {
                self.0.zero.notify_all();
            }
        }
    }

    impl Countdown {
        fn new(tasks: u64) -> Arc<Self> {
            Arc::new(Countdown {
                left: Mutex::new(tasks),
                zero: Condvar::new(),
            })
        }

        fn tick(self: &Arc<Self>) -> Tick {
            Tick(Arc::clone(self))
        }

        fn wait(&self) {
            let mut left = self.left.lock().expect("countdown lock");
            while *left > 0 {
                left = self.zero.wait(left).expect("countdown wait");
            }
        }
    }

    /// Inject `count` tasks that each bump `hits`, and wait for all of them.
    fn run_hits(pool: &WorkerPool, count: u64, hits: &Arc<AtomicU64>) {
        let done = Countdown::new(count);
        for _ in 0..count {
            let (tick, hits) = (done.tick(), Arc::clone(hits));
            pool.inject(move |_| {
                let _tick = tick;
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        done.wait();
    }

    #[test]
    fn runs_every_injected_task() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        run_hits(&pool, 100, &hits);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn spawned_subtasks_complete_before_wait_returns() {
        let pool = WorkerPool::new(3);
        let hits = Arc::new(AtomicU64::new(0));
        // One root, ten children, ten grandchildren.
        let done = Countdown::new(21);
        let (h, root) = (Arc::clone(&hits), done.tick());
        let d = Arc::clone(&done);
        pool.inject(move |ctx| {
            let _tick = root;
            for _ in 0..10 {
                let (h, child, grandchild) = (Arc::clone(&h), d.tick(), d.tick());
                ctx.spawn(move |ctx2| {
                    let _tick = child;
                    let h2 = Arc::clone(&h);
                    ctx2.spawn(move |_| {
                        let _tick = grandchild;
                        h2.fetch_add(1, Ordering::SeqCst);
                    });
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        done.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn worker_buffers_are_pooled_across_batches() {
        let pool = WorkerPool::new(2);
        pool.prewarm(5, 2);
        let warmed = pool.pool_stats().allocations;
        for _ in 0..3 {
            let done = Countdown::new(50);
            for _ in 0..50 {
                let tick = done.tick();
                pool.inject(move |ctx| {
                    let _tick = tick;
                    let mut sv = ctx.acquire(5);
                    sv.reset_zero();
                });
            }
            done.wait();
        }
        let stats = pool.pool_stats();
        assert_eq!(stats.allocations, warmed, "steady state must not allocate");
        assert_eq!(stats.outstanding, 0);
        assert!(stats.reuses >= 150);
    }

    #[test]
    fn pool_can_be_reused_after_idle() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for round in 1..=3u64 {
            run_hits(&pool, 10, &hits);
            assert_eq!(hits.load(Ordering::SeqCst), round * 10);
        }
    }

    #[test]
    fn observed_pool_reports_task_metrics() {
        let registry = Registry::new();
        let pool = WorkerPool::with_backend_observed(2, SingleNode, Some((&registry, "test")));
        let hits = Arc::new(AtomicU64::new(0));
        run_hits(&pool, 64, &hits);
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        // A worker records a task's latency after the task returns; joining
        // the workers makes every record visible.
        drop(pool);
        let snap = registry.snapshot();
        let per_worker = |name: &str| -> u64 {
            (0..2)
                .map(|w| {
                    let worker = w.to_string();
                    snap.counter(name, &[("engine", "test"), ("worker", worker.as_str())])
                        .expect("worker instrument registered")
                })
                .sum()
        };
        let tasks = per_worker("tqsim_engine_tasks_total");
        let hist = snap
            .histogram("tqsim_engine_task_ns", &[("engine", "test")])
            .expect("task histogram registered");
        assert_eq!(tasks, 64);
        assert_eq!(tasks, hist.count, "every task records one latency sample");
        assert!(per_worker("tqsim_engine_busy_ns_total") > 0);
        // Steals/parks are scheduling-dependent — just present and sane.
        let _ = per_worker("tqsim_engine_steals_total");
        let _ = per_worker("tqsim_engine_parks_total");
    }

    #[test]
    fn tasks_total_is_counted_before_the_task_completes() {
        let registry = Registry::new();
        let pool = WorkerPool::with_backend_observed(1, SingleNode, Some((&registry, "test")));
        let tasks_total = || {
            registry
                .snapshot()
                .counter(
                    "tqsim_engine_tasks_total",
                    &[("engine", "test"), ("worker", "0")],
                )
                .expect("worker instrument registered")
        };
        // The task reports completion, then stays inside the worker until
        // the reader has looked: a counter bumped after the task returned
        // would read one short here.
        let done = Countdown::new(1);
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let tick = done.tick();
        pool.inject(move |_| {
            drop(tick);
            let _ = hold.recv();
        });
        done.wait();
        let seen_at_completion = tasks_total();
        release.send(()).expect("task is waiting");
        drop(pool);
        assert_eq!(seen_at_completion, 1);
        assert_eq!(seen_at_completion, tasks_total());
    }

    #[test]
    fn task_panic_propagates_instead_of_deadlocking() {
        // One worker runs the injector FIFO: it stores the panic payload
        // before it takes the healthy task, so the healthy task's tick
        // orders the payload before `take_panic`.
        let pool = WorkerPool::new(1);
        pool.inject(|_| panic!("task exploded"));
        let hits = Arc::new(AtomicU64::new(0));
        run_hits(&pool, 1, &hits);
        let payload = pool.take_panic().expect("the task panic is kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task exploded"));
        assert!(pool.take_panic().is_none(), "a payload is taken once");
        // The healthy task still ran, and the pool remains usable.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        run_hits(&pool, 5, &hits);
        assert_eq!(hits.load(Ordering::SeqCst), 6);
        assert!(pool.take_panic().is_none());
    }
}
