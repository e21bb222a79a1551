//! # tqsim-engine
//!
//! Pooled, work-stealing **parallel tree-execution engine** for TQSim, with
//! a batched job API and a multi-tenant scheduler.
//!
//! The paper's computational-reuse insight turns noisy Monte-Carlo
//! simulation into a tree walk; this crate makes that walk run as fast as
//! the hardware allows:
//!
//! - [`WorkerPool`] — a fixed set of worker threads with per-worker LIFO
//!   deques, FIFO stealing, and a per-worker [`StatePool`] so steady-state
//!   execution performs zero heap allocations;
//! - the tree executor (internal, see `exec`) — every tree node is a
//!   dataflow task with a path-derived RNG stream, so output `Counts` are
//!   **bit-identical at every parallelism level** for a fixed seed;
//! - [`Engine`] / [`Batch`] — submit many jobs at once, each described by
//!   [`tqsim::Tqsim`], the one job description ([`JobSpec`] is its old
//!   name here); every job plans through the engine's [`PlanCache`] into a
//!   [`JobPlan`], so identical partition plans are computed once and
//!   shared across jobs and batches (cross-*job* reuse, one step beyond
//!   the paper's cross-shot reuse), with [`Engine::plan_cache`]'s
//!   [`CacheStats`] reporting the win;
//! - [`JobPlan`] — `tqsim`'s one planned-and-compiled job, re-exported:
//!   the cache holds it, a job's node tasks share it through one `Arc`,
//!   and [`JobPlan::run_on`] is the serial walk over the same value;
//! - [`PlannedJob`] / [`Engine::start`] — the **multi-tenant**
//!   surface: pre-planned jobs start without blocking, any number can share
//!   the pool at once, each fires a completion callback on the worker
//!   that drops its last task, and an optional [`ChunkSink`] streams
//!   leaf outcomes while the job is still running. This is what the
//!   `tqsim-service` front-end schedules concurrent client jobs through.
//!
//! Every job reaches the pool through [`Engine::start`]: a batch starts
//! all of its jobs at once and [`Engine::run_planned`] starts one, so jobs
//! **overlap** on the pool with whatever else is running (each with its
//! own path-seeded RNG streams, so per-job `Counts` are bit-identical to a
//! job run alone). Admission control, if any, is the caller's: the
//! `tqsim-service` front-end caps how many jobs it runs at once.
//!
//! The whole stack is **generic over the execution backend**
//! ([`tqsim_statevec::PooledBackend`]): [`Engine::new`] pools single-node
//! `StateVector`s, while [`Engine::with_backend`] accepts any backend —
//! `tqsim-cluster`'s `ClusterBackend` runs every tree node on a
//! distributed state vector sliced across a simulated node group, so
//! circuits whose states exceed one node's memory use the same pooled,
//! work-stealing executor. For a fixed seed, `Counts` are bit-identical
//! across backends *and* parallelism levels (property-tested in
//! `tests/prop_engine_cluster.rs`).
//!
//! ```
//! use tqsim::Tqsim;
//! use tqsim_engine::{Engine, EngineConfig};
//! use tqsim_circuit::generators;
//!
//! let circuit = generators::qft(6);
//! let engine = Engine::new(EngineConfig::default().parallelism(2));
//! // Three jobs, two of which share one partition plan.
//! let batch = engine.submit(vec![
//!     Tqsim::new(&circuit).shots(64).seed(1),
//!     Tqsim::new(&circuit).shots(64).seed(2),
//!     Tqsim::new(&circuit).shots(256).seed(3),
//! ]);
//! let result = batch.run()?;
//! assert_eq!(result.jobs.len(), 3);
//! let plans = engine.plan_cache().stats();
//! assert_eq!((plans.misses, plans.hits), (2, 1));
//! # Ok::<(), tqsim::PlanError>(())
//! ```
//!
//! [`StatePool`]: tqsim_statevec::StatePool

#![warn(missing_docs)]

pub mod cache;
mod exec;
pub mod pool;

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use pool::{Task, WorkerCtx, WorkerPool};
pub use tqsim::JobPlan;
pub use tqsim_statevec::PoolStats;

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use tqsim::{PlanError, RunResult};
use tqsim_circuit::Circuit;
use tqsim_statevec::{PooledBackend, SingleNode};

/// A streaming outcome sink: called from worker threads with each leaf
/// batch's outcomes as soon as the leaf is sampled, long before the job
/// completes. Chunk *arrival order* is scheduling-dependent; the multiset
/// of streamed outcomes always equals the job's final histogram.
pub type ChunkSink = Arc<dyn Fn(&[u64]) + Send + Sync>;

/// Plans an [`Engine`]'s cache holds before evicting the least recently
/// used one.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Engine construction options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    parallelism: usize,
    /// Observability target: workers report per-worker busy/idle/steal
    /// counters and task latencies into this registry under the given
    /// `engine` scope label, and the plan cache its unlabelled
    /// `tqsim_plan_cache_*_total` counters (None ⇒ uninstrumented; the
    /// default).
    observe: Option<(Arc<tqsim_obs::Registry>, String)>,
}

impl Default for EngineConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            observe: None,
        }
    }
}

impl EngineConfig {
    /// Same as [`EngineConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn parallelism(mut self, n: usize) -> Self {
        assert!(n >= 1, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// Report worker-pool metrics into `registry`, labeling every
    /// instrument with `engine=scope` (so several engines — e.g. the
    /// service's single-node and cluster pools — share one registry
    /// without colliding), and count the plan cache into it. See
    /// [`WorkerPool::with_backend_observed`][crate::WorkerPool::with_backend_observed].
    pub fn observe(mut self, registry: Arc<tqsim_obs::Registry>, scope: &str) -> Self {
        self.observe = Some((registry, scope.to_string()));
        self
    }
}

/// The job description's old engine-side name, kept only because `perf/`
/// names it: a batch member is a [`tqsim::Tqsim`].
pub type JobSpec<'c> = tqsim::Tqsim<'c>;

/// An owned, ready-to-start job bound to a shared [`JobPlan`]: the
/// multi-tenant counterpart of a [`tqsim::Tqsim`] description, consumed by
/// [`Engine::start`].
#[derive(Clone, Debug)]
pub struct PlannedJob {
    plan: Arc<JobPlan>,
    seed: u64,
    leaf_samples: u32,
}

impl PlannedJob {
    /// A job executing `plan` with seed 0 and one sample per leaf.
    pub fn new(plan: Arc<JobPlan>) -> Self {
        PlannedJob {
            plan,
            seed: 0,
            leaf_samples: 1,
        }
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Outcomes drawn per leaf (see [`tqsim::Tqsim::leaf_samples`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn leaf_samples(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one sample per leaf");
        self.leaf_samples = n;
        self
    }

    /// The shared plan this job replays.
    pub fn plan(&self) -> &Arc<JobPlan> {
        &self.plan
    }
}

/// Results of a [`Batch::run`]: one [`RunResult`] per job, in submission
/// order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-job results, in the order the jobs were submitted.
    pub jobs: Vec<RunResult>,
}

/// A set of jobs bound to an engine, ready to run.
#[must_use = "a batch does nothing until run()"]
pub struct Batch<'e, 'c, B: PooledBackend = SingleNode> {
    engine: &'e Engine<B>,
    jobs: Vec<JobSpec<'c>>,
}

impl<'c, B: PooledBackend> Batch<'_, 'c, B> {
    /// Plan every job through the engine's [`PlanCache`], then start them
    /// all at once through [`Engine::start`] and wait for every one.
    ///
    /// Jobs **overlap** on the pool, with each other and with whatever
    /// else the engine is running. Per-job `Counts` are bit-identical to
    /// running each job alone — every node's RNG stream is derived from
    /// its own job's seed and tree path, never from scheduling. Every
    /// job's memory metrics are the pool's high-water mark, as
    /// [`Engine::start`] reports them.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] encountered; planning happens
    /// up-front, so no job executes unless every job plans. A job wider
    /// than the backend holds ([`Engine::supports`]) is
    /// [`PlanError::BadConfig`], refused before it is planned.
    ///
    /// # Panics
    ///
    /// Re-raises a node-task panic that truncated one of the jobs (see
    /// [`Engine::run_planned`]).
    pub fn run(self) -> Result<BatchResult, PlanError> {
        // A cache key owns its circuit: one per circuit the batch borrows,
        // however many jobs share it.
        let cache = &self.engine.plan_cache;
        let mut owned: HashMap<*const Circuit, Arc<Circuit>> = HashMap::new();
        let jobs = self
            .jobs
            .iter()
            .map(|job| {
                let n = job.circuit.n_qubits();
                if !self.engine.supports(n) {
                    return Err(PlanError::BadConfig(format!(
                        "the backend cannot hold {n}-qubit states"
                    )));
                }
                let circuit = owned
                    .entry(job.circuit)
                    .or_insert_with(|| cache.intern(job.circuit));
                let key = PlanKey::new(
                    Arc::clone(circuit),
                    job.noise.clone(),
                    job.strategy.clone(),
                    job.shots,
                );
                let plan = cache.get_or_plan(&key)?;
                Ok(PlannedJob::new(plan)
                    .seed(job.seed)
                    .leaf_samples(job.leaf_samples))
            })
            .collect::<Result<Vec<_>, PlanError>>()?;
        Ok(BatchResult {
            jobs: self.engine.run_all(&jobs),
        })
    }
}

/// The parallel tree-execution engine: a persistent [`WorkerPool`], the
/// [`PlanCache`] every batch plans through, and the batched job
/// front-end. See the [crate docs](self) for an example.
///
/// `Engine` is `Sync`. Every job — a [`Batch::run`] member, a
/// [`Engine::run_planned`] call or a service request — reaches the pool
/// through [`Engine::start`], and any number of them share the pool at
/// once, from any number of threads.
pub struct Engine<B: PooledBackend = SingleNode> {
    pool: WorkerPool<B>,
    plan_cache: PlanCache,
}

impl<B: PooledBackend> std::fmt::Debug for Engine<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine[{} workers]", self.pool.workers())
    }
}

impl Engine {
    /// Spin up a single-node worker pool (states are plain
    /// [`tqsim_statevec::StateVector`]s).
    pub fn new(cfg: EngineConfig) -> Self {
        Engine::with_backend(cfg, SingleNode)
    }
}

impl<B: PooledBackend> Engine<B> {
    /// Spin up a worker pool whose state buffers allocate through
    /// `backend` — e.g. `tqsim-cluster`'s node-group-aware backend, so
    /// tree nodes whose states exceed one node's memory run on the
    /// distributed state vector through the exact same executor. For a
    /// fixed seed, `Counts` are bit-identical across backends (and across
    /// parallelism levels): node RNG streams derive only from the job seed
    /// and tree path, and every backend replays the same compiled plans.
    pub fn with_backend(cfg: EngineConfig, backend: B) -> Self {
        let observe = cfg
            .observe
            .as_ref()
            .map(|(registry, scope)| (registry.as_ref(), scope.as_str()));
        let plan_cache = match observe {
            Some((registry, _)) => PlanCache::new(PLAN_CACHE_CAPACITY, registry),
            None => PlanCache::new(PLAN_CACHE_CAPACITY, &tqsim_obs::Registry::new()),
        };
        Engine {
            pool: WorkerPool::with_backend_observed(cfg.parallelism, backend, observe),
            plan_cache,
        }
    }

    /// Worker count.
    pub fn parallelism(&self) -> usize {
        self.pool.workers()
    }

    /// The cache every [`Batch::run`] plans through (and the service
    /// front-end's planning path). A [`JobPlan`] is backend-free, so one
    /// engine's cache can serve jobs that run on another.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Bind a set of jobs to this engine (execute with [`Batch::run`]).
    pub fn submit<'e, 'c>(&'e self, jobs: Vec<JobSpec<'c>>) -> Batch<'e, 'c, B> {
        Batch { engine: self, jobs }
    }

    /// Start a planned job **without blocking** (the multi-tenant entry
    /// point): the root task is injected immediately, any number of
    /// started jobs interleave on the pool, and `on_done` fires exactly
    /// once with the merged result, on the thread that drops the job's
    /// last task (a worker). An optional `sink` receives each leaf batch's
    /// outcomes as soon as it is sampled (streaming results).
    ///
    /// Determinism: the job's `Counts` are bit-identical to running it
    /// alone (or in any batch) with the same seed — node RNG
    /// streams depend only on the job seed and tree path. Memory metrics
    /// in the result are the pool-wide high-water mark since the engine
    /// started, shared with whatever else ran on the pool.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread, before any task starts, if the
    /// backend cannot hold the job's width (see [`Engine::supports`]): a
    /// caller's invariant, which [`Batch::run`] keeps by refusing such a
    /// job with a [`PlanError`] and the service by failing its placement.
    pub fn start(
        &self,
        job: &PlannedJob,
        sink: Option<ChunkSink>,
        on_done: impl FnOnce(RunResult) + Send + 'static,
    ) {
        exec::launch_tree(
            &self.pool,
            &job.plan,
            job.seed,
            job.leaf_samples,
            sink,
            Box::new(on_done),
        );
    }

    /// Blocking convenience over [`Engine::start`]: run one planned job to
    /// completion. Safe to call from many threads at once (jobs overlap).
    ///
    /// # Panics
    ///
    /// Re-raises a node-task panic instead of returning a result it
    /// truncated. A [complete](RunResult::is_complete) result is returned
    /// as it is, whatever else panicked on the shared pool meanwhile; a
    /// truncated one re-raises the pool's panic payload, or panics with a
    /// message of its own when a concurrent caller drained the payload
    /// first.
    pub fn run_planned(&self, job: &PlannedJob) -> RunResult {
        self.run_all(std::slice::from_ref(job))
            .pop()
            .expect("one result per job")
    }

    /// Start every job at once, wait for all of them, and settle each
    /// result; results come back in `jobs` order. A truncated job is
    /// settled only once every job has drained, so a panic never leaves
    /// the caller's other jobs running behind it.
    fn run_all(&self, jobs: &[PlannedJob]) -> Vec<RunResult> {
        let (tx, rx) = mpsc::channel();
        for (idx, job) in jobs.iter().enumerate() {
            let tx = tx.clone();
            self.start(job, None, move |result| {
                let _ = tx.send((idx, result));
            });
        }
        drop(tx);
        let mut done: Vec<(usize, RunResult)> = rx.iter().collect();
        assert_eq!(done.len(), jobs.len(), "job completion callback must fire");
        done.sort_unstable_by_key(|&(idx, _)| idx);
        done.into_iter()
            .zip(jobs)
            .map(|((_, result), job)| self.settle(result, job.leaf_samples))
            .collect()
    }

    /// The completion rule: a [complete](RunResult::is_complete) result is
    /// returned as it is. A truncated one re-raises the pool's panic
    /// payload; the slot is shared, so a concurrent caller may have
    /// drained it first, and then the truncation panics on its own.
    fn settle(&self, result: RunResult, leaf_samples: u32) -> RunResult {
        if result.is_complete(leaf_samples) {
            return result;
        }
        if let Some(payload) = self.take_panic() {
            std::panic::resume_unwind(payload);
        }
        panic!(
            "job aborted by a node-task panic after {} outcomes (the payload \
             surfaced at a concurrent caller)",
            result.counts.total()
        );
    }

    /// Take the first panic payload any task raised since the last check,
    /// if any — for callers of the non-blocking [`Engine::start`] path,
    /// which returns before the job's tasks have run. A panicking node
    /// abandons its own subtree; its job still completes (with partial
    /// counts) and the pool stays healthy.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.pool.take_panic()
    }

    /// Pre-fill every worker's buffer pool for `n_qubits`-wide jobs with
    /// tree depth `k`, so running such jobs draws from the free lists
    /// instead of the heap (observable via [`Engine::pool_stats`]).
    ///
    /// Provisions `2 · (k + 2)` buffers per worker: a depth-first chain
    /// holds at most `k + 1` buffers, and a worker whose chain is pinned
    /// by stolen children can start a second chain, so double the chain
    /// depth (plus slack) covers every schedule seen in practice. The
    /// bound is per concurrently running job: every job of a batch runs at
    /// once, so overlapped jobs multiply it (pass `k` summed over the jobs
    /// you expect to overlap, or accept pool growth to the natural
    /// high-water mark). Never incorrect —
    /// under-provisioning just falls back to allocating, visible in
    /// [`PoolStats::allocations`].
    ///
    /// [`PoolStats::allocations`]: tqsim_statevec::PoolStats::allocations
    pub fn prewarm(&self, n_qubits: u16, k: usize) {
        self.pool.prewarm(n_qubits, 2 * (k + 2));
    }

    /// Aggregate state-buffer pool statistics (allocations, reuses, live
    /// high-water across all workers).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.pool_stats()
    }

    /// Whether this engine's backend can hold `n_qubits`-wide states
    /// ([`PooledBackend::supports`]). A job must pass this before it is
    /// started: [`Engine::start`] refuses an unsupported width with a
    /// panic on the calling thread.
    pub fn supports(&self, n_qubits: u16) -> bool {
        self.pool.backend().supports(n_qubits)
    }

    /// Direct access to the worker pool (its backend, custom tasks).
    pub fn worker_pool(&self) -> &WorkerPool<B> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim::Strategy;
    use tqsim_circuit::generators;
    use tqsim_noise::NoiseModel;

    #[test]
    fn batch_deduplicates_identical_plans() {
        let qft = generators::qft(6);
        let bv = generators::bv(6);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let qft_rebuilt = generators::qft(6); // equal content, different allocation
        let result = engine
            .submit(vec![
                JobSpec::new(&qft).shots(50).seed(1),
                JobSpec::new(&qft).shots(50).seed(2), // same plan, new seed
                JobSpec::new(&qft).shots(200).seed(3), // different shots
                JobSpec::new(&bv).shots(50).seed(4),  // different circuit
                JobSpec::new(&qft_rebuilt).shots(50).seed(5), // content-equal ⇒ reuses plan 1
            ])
            .run()
            .unwrap();
        let plans = engine.plan_cache().stats();
        assert_eq!((plans.misses, plans.hits), (3, 2));
        assert_eq!(result.jobs.len(), 5);
        assert_eq!(result.jobs[0].tree, result.jobs[1].tree);
        assert_ne!(
            result.jobs[0].counts, result.jobs[1].counts,
            "same plan, different seeds ⇒ different outcomes"
        );
        for job in &result.jobs {
            assert!(job.counts.total() >= 50);
        }
    }

    #[test]
    fn engine_output_is_parallelism_invariant() {
        let circuit = generators::qv(6, 2);
        let run = |workers| {
            let engine = Engine::new(EngineConfig::default().parallelism(workers));
            engine
                .submit(vec![JobSpec::new(&circuit).shots(100).seed(42)])
                .run()
                .unwrap()
                .jobs
                .remove(0)
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            let parallel = run(workers);
            assert_eq!(serial.counts, parallel.counts, "{workers} workers");
            assert_eq!(serial.ops, parallel.ops, "{workers} workers");
        }
    }

    #[test]
    fn overlapped_batches_match_jobs_run_alone_bit_for_bit() {
        // Overlapping must never change any job's output.
        let qft = generators::qft(6);
        let bv = generators::bv(6);
        let engine = Engine::new(EngineConfig::default().parallelism(4));
        let jobs = || {
            vec![
                JobSpec::new(&qft)
                    .shots(30)
                    .strategy(Strategy::Custom {
                        arities: vec![5, 3, 2],
                    })
                    .seed(1),
                JobSpec::new(&bv)
                    .shots(12)
                    .strategy(Strategy::Custom {
                        arities: vec![4, 3],
                    })
                    .seed(2),
                JobSpec::new(&qft)
                    .shots(30)
                    .strategy(Strategy::Custom {
                        arities: vec![5, 3, 2],
                    })
                    .seed(3),
            ]
        };
        let overlapped = engine.submit(jobs()).run().unwrap();
        let plans = engine.plan_cache().stats();
        assert_eq!((plans.misses, plans.hits), (2, 1));
        for (i, (spec, o)) in jobs().iter().zip(&overlapped.jobs).enumerate() {
            let plan =
                JobPlan::plan(spec.circuit, &spec.noise, spec.shots, &spec.strategy).unwrap();
            let alone = engine.run_planned(&PlannedJob::new(Arc::new(plan)).seed(spec.seed));
            assert_eq!(alone.counts, o.counts, "job {i}");
            assert_eq!(alone.ops, o.ops, "job {i}");
        }
    }

    #[test]
    fn prewarmed_engine_allocates_nothing_at_steady_state() {
        let circuit = generators::qft(8);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let spec = |seed| {
            JobSpec::new(&circuit)
                .shots(64)
                .strategy(Strategy::Custom {
                    arities: vec![16, 2, 2],
                })
                .seed(seed)
        };
        // One job per batch: the zero-alloc provisioning bound is per job
        // (overlapped jobs legitimately hold more buffers live at once).
        engine.submit(vec![spec(1)]).run().unwrap();
        engine.prewarm(8, 3);
        let warm = engine.pool_stats().allocations;
        // …so further runs must be allocation-free.
        for seed in [2, 3] {
            engine.submit(vec![spec(seed)]).run().unwrap();
        }
        let stats = engine.pool_stats();
        assert_eq!(
            stats.allocations, warm,
            "zero per-node allocations after warm-up"
        );
        assert!(stats.reuses > 0);
        assert_eq!(stats.outstanding, 0, "every buffer returned");
    }

    #[test]
    fn oversampled_leaves_are_schedule_invariant() {
        // leaf_samples > 1 exercises the batched sample_many walk shared
        // with the serial executor; counts must not depend on parallelism.
        // (The per-gate reference for oversampled leaves is the unshared
        // mirror grid in `exec`.)
        let circuit = generators::qft(6);
        let run = |workers: usize| {
            let engine = Engine::new(EngineConfig::default().parallelism(workers));
            engine
                .submit(vec![JobSpec::new(&circuit)
                    .shots(32)
                    .leaf_samples(4)
                    .seed(21)])
                .run()
                .unwrap()
                .jobs
                .remove(0)
        };
        let reference = run(1);
        assert_eq!(reference.counts.total(), 4 * reference.tree.outcomes());
        assert_eq!(run(4).counts, reference.counts);
    }

    #[test]
    fn concurrent_batches_on_one_engine_overlap_and_stay_correct() {
        let circuit = generators::qft(6);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let reference = engine
            .submit(vec![JobSpec::new(&circuit).shots(64).seed(9)])
            .run()
            .unwrap()
            .jobs
            .remove(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        engine
                            .submit(vec![JobSpec::new(&circuit).shots(64).seed(9)])
                            .run()
                            .unwrap()
                            .jobs
                            .remove(0)
                    })
                })
                .collect();
            for handle in handles {
                let r = handle.join().unwrap();
                assert_eq!(
                    r.counts, reference.counts,
                    "overlapping batches stay correct"
                );
                assert!(
                    r.peak_states >= 1,
                    "every job reports the pool's high-water mark"
                );
            }
        });
    }

    #[test]
    fn started_jobs_overlap_without_gating() {
        // The multi-tenant path: many threads driving run_planned on one
        // engine concurrently, each getting its own bit-exact result.
        let circuit = generators::qft(6);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let plan = Arc::new(
            JobPlan::plan(
                &circuit,
                &NoiseModel::sycamore(),
                30,
                &Strategy::Custom {
                    arities: vec![5, 3, 2],
                },
            )
            .unwrap(),
        );
        let reference: Vec<_> = (0..4u64)
            .map(|seed| engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(seed)))
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    let engine = &engine;
                    let plan = Arc::clone(&plan);
                    scope.spawn(move || engine.run_planned(&PlannedJob::new(plan).seed(seed)))
                })
                .collect();
            for (seed, handle) in handles.into_iter().enumerate() {
                let r = handle.join().unwrap();
                assert_eq!(r.counts, reference[seed].counts, "seed {seed}");
                assert_eq!(r.ops, reference[seed].ops, "seed {seed}");
            }
        });
    }

    /// A healthy `[5,3,2]` qft(6) job.
    fn healthy_plan() -> Arc<JobPlan> {
        let strategy = Strategy::Custom {
            arities: vec![5, 3, 2],
        };
        let plan = JobPlan::plan(&generators::qft(6), &NoiseModel::sycamore(), 30, &strategy);
        Arc::new(plan.unwrap())
    }

    /// A one-worker engine whose pool catches a stray task's panic, which
    /// no job of its own raised: the one worker runs the injector FIFO, so
    /// the stray task panics before any job's task runs.
    fn engine_with_a_stray_panic() -> Engine {
        let engine = Engine::new(EngineConfig::default().parallelism(1));
        engine.worker_pool().inject(|_| panic!("stray task"));
        engine
    }

    fn assert_stray_payload_kept(engine: &Engine) {
        let payload = engine
            .take_panic()
            .expect("the stray payload stays in the slot");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"stray task"));
    }

    #[test]
    fn a_complete_job_ignores_another_tasks_panic() {
        let job = PlannedJob::new(healthy_plan()).seed(4);
        let clean = Engine::new(EngineConfig::default().parallelism(1)).run_planned(&job);
        let engine = engine_with_a_stray_panic();
        assert_eq!(engine.run_planned(&job).counts, clean.counts);
        assert_stray_payload_kept(&engine);
    }

    #[test]
    fn a_complete_batch_ignores_another_tasks_panic() {
        let circuit = generators::qft(6);
        let spec = || {
            vec![JobSpec::new(&circuit)
                .shots(30)
                .strategy(Strategy::Custom {
                    arities: vec![5, 3, 2],
                })
                .seed(4)]
        };
        let run = |engine: &Engine| engine.submit(spec()).run().unwrap().jobs.remove(0);
        let clean = run(&Engine::new(EngineConfig::default().parallelism(1)));
        let engine = engine_with_a_stray_panic();
        assert_eq!(run(&engine).counts, clean.counts);
        assert_stray_payload_kept(&engine);
    }

    #[test]
    fn engine_owned_by_completion_callback_tears_down_safely() {
        // The service pattern: the completion callback holds the last Arc
        // of the engine, so pool teardown can begin on a worker thread.
        // The pool must detach (never self-join) and the process must not
        // leak a panic.
        let circuit = generators::qft(6);
        let plan = Arc::new(
            JobPlan::plan(
                &circuit,
                &NoiseModel::sycamore(),
                12,
                &Strategy::Custom {
                    arities: vec![4, 3],
                },
            )
            .unwrap(),
        );
        for _ in 0..5 {
            let engine = Arc::new(Engine::new(EngineConfig::default().parallelism(2)));
            let (tx, rx) = mpsc::channel();
            let own = Arc::clone(&engine);
            engine.start(&PlannedJob::new(Arc::clone(&plan)), None, move |result| {
                let _engine_kept_alive_by_callback = own;
                let _ = tx.send(result.counts.total());
            });
            drop(engine); // the worker's clone may now be the last one
            assert_eq!(rx.recv().unwrap(), 12);
        }
    }

    #[test]
    fn cluster_backend_counts_match_single_node_bit_for_bit() {
        // The tentpole invariant: one JobPlan, two backends, identical
        // Counts. The cluster engine pools DistributedStateVectors through
        // the same executor; node RNG streams depend only on seed + tree
        // path, and plan replay is arithmetic-identical across backends.
        use tqsim_cluster::{ClusterBackend, InterconnectModel};
        let circuit = generators::qft(8);
        let plan = Arc::new(
            JobPlan::plan(
                &circuit,
                &NoiseModel::sycamore(),
                24,
                &Strategy::Custom {
                    arities: vec![4, 3, 2],
                },
            )
            .unwrap(),
        );
        let reference = Engine::new(EngineConfig::default().parallelism(1))
            .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
        let model = InterconnectModel::commodity_cluster();
        for nodes in [2usize, 4] {
            let engine = Engine::with_backend(
                EngineConfig::default().parallelism(2),
                ClusterBackend::new(nodes, model),
            );
            let r = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
            assert_eq!(r.counts, reference.counts, "{nodes} nodes");
            assert_eq!(r.ops, reference.ops, "{nodes} nodes");
            let stats = engine.pool_stats();
            assert_eq!(stats.outstanding, 0, "every distributed buffer returned");
            assert!(stats.reuses > 0, "pooling must recycle distributed states");
        }
    }

    #[test]
    fn cluster_backend_batches_and_streaming_work() {
        // Batches (plan cache, overlap) and streaming sinks are
        // backend-agnostic: the same surface works on the cluster engine.
        use tqsim_cluster::{ClusterBackend, InterconnectModel};
        let circuit = generators::qft(8);
        let engine = Engine::with_backend(
            EngineConfig::default().parallelism(2),
            ClusterBackend::new(4, InterconnectModel::commodity_cluster()),
        );
        let result = engine
            .submit(vec![
                JobSpec::new(&circuit).shots(12).seed(1),
                JobSpec::new(&circuit).shots(12).seed(2),
            ])
            .run()
            .unwrap();
        let plans = engine.plan_cache().stats();
        assert_eq!((plans.misses, plans.hits), (1, 1));
        for job in &result.jobs {
            assert!(job.counts.total() >= 12);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::new(EngineConfig::default().parallelism(1));
        let result = engine.submit(Vec::new()).run().unwrap();
        assert!(result.jobs.is_empty());
        assert_eq!(engine.plan_cache().stats(), CacheStats::default());
    }

    #[test]
    fn a_job_wider_than_the_backend_is_refused_before_it_is_planned() {
        let mut wide = Circuit::new(31);
        wide.h(0);
        let narrow = generators::bv(4);
        let engine = Engine::new(EngineConfig::default().parallelism(1));
        let refused = engine
            .submit(vec![
                JobSpec::new(&narrow).shots(10),
                JobSpec::new(&wide).shots(1),
            ])
            .run();
        assert!(
            matches!(refused, Err(PlanError::BadConfig(_))),
            "{refused:?}"
        );
        assert_eq!(engine.pool_stats().allocations, 0, "no job started");
    }

    #[test]
    fn a_repeated_batch_hits_the_cache_and_repeats_its_results() {
        let qft = generators::qft(6);
        let bv = generators::bv(6);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let jobs = || {
            vec![
                JobSpec::new(&qft).shots(40).seed(1),
                JobSpec::new(&bv).shots(40).seed(2),
                JobSpec::new(&qft).shots(40).seed(3),
            ]
        };
        let first = engine.submit(jobs()).run().unwrap();
        let before = engine.plan_cache().stats();
        let second = engine.submit(jobs()).run().unwrap();
        let after = engine.plan_cache().stats();
        assert_eq!(after.hits - before.hits, jobs().len() as u64);
        assert_eq!(after.misses, before.misses, "no job plans again");
        for (i, (a, b)) in first.jobs.iter().zip(&second.jobs).enumerate() {
            assert_eq!(a.counts, b.counts, "job {i}");
            assert_eq!(a.ops, b.ops, "job {i}");
        }
    }
}
