//! The service core: admission, the scheduler thread (dispatch, deadlines
//! and retry backoffs), job overlap on the engine, and the stats snapshot.

use crate::job::{JobError, JobId, JobRecord, Ticket};
use crate::metrics::{GaugeRefresh, ServiceMetrics};
use crate::queue::{FairQueue, PendingJob, SubmitError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tqsim::Strategy;
use tqsim_circuit::Circuit;
use tqsim_cluster::{ClusterBackend, ClusterObs, SliceTransport};
use tqsim_engine::{CacheStats, ChunkSink, Engine, EngineConfig, PlanKey, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_shard::ShardBackend;

/// How cluster-placed jobs actually execute: on the in-process simulated
/// node group (threads), or on real shard worker **processes** over
/// loopback TCP (`tqsim-shard`). Both transports replay the identical
/// plan through the identical executor and produce bit-identical
/// `Counts`; the choice trades fidelity of the failure domain (real
/// processes can die) against spawn cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClusterTransport {
    /// One thread per simulated node, in this process (the default).
    #[default]
    InProcess,
    /// One OS process per node, driven over loopback TCP.
    MultiProcess,
}

/// Where the placement policy routes jobs: the single-node engine or the
/// cluster-backed engine (distributed state vectors over a simulated node
/// group). Results are backend-independent — `Counts` for a given seed are
/// bit-identical wherever the job lands — so placement is purely a memory
/// / capacity decision.
#[derive(Clone, Debug)]
pub struct BackendPolicy {
    /// Route jobs whose register width is at least this many qubits to the
    /// cluster engine (`None`, the default, runs everything single-node).
    /// Jobs the node group cannot slice (fewer than 3 local qubits) fall
    /// back to the single-node engine regardless.
    pub cluster_min_qubits: Option<u16>,
    /// Simulated node-group size for cluster-backed jobs (power of two).
    pub cluster_nodes: usize,
    /// Whether cluster jobs run on in-process simulated nodes or real
    /// shard worker processes (see [`ClusterTransport`]).
    pub cluster_transport: ClusterTransport,
    /// Widest job the single-node engine accepts, in qubits (`None`, the
    /// default, accepts any width). This is what "the width fits" means
    /// for **cluster degradation**: when a cluster-placed job keeps
    /// faulting, the service re-places it onto the single-node engine
    /// only if it fits under this cap, and refuses with
    /// [`JobError::BackendUnavailable`] otherwise.
    pub single_node_max_qubits: Option<u16>,
}

/// Worker threads of the cluster-backed engine (tree-level parallelism;
/// each distributed state additionally fans its node slices out
/// internally).
const CLUSTER_PARALLELISM: usize = 2;

impl Default for BackendPolicy {
    /// Single-node only.
    fn default() -> Self {
        BackendPolicy {
            cluster_min_qubits: None,
            cluster_nodes: 4,
            cluster_transport: ClusterTransport::default(),
            single_node_max_qubits: None,
        }
    }
}

impl BackendPolicy {
    /// Route jobs of `min_qubits` or more to a `nodes`-node cluster
    /// engine.
    pub fn cluster_above(min_qubits: u16, nodes: usize) -> Self {
        BackendPolicy {
            cluster_min_qubits: Some(min_qubits),
            cluster_nodes: nodes,
            ..BackendPolicy::default()
        }
    }

    /// Cap the single-node engine at `max_qubits` (see
    /// [`BackendPolicy::single_node_max_qubits`]).
    pub fn single_node_up_to(mut self, max_qubits: u16) -> Self {
        self.single_node_max_qubits = Some(max_qubits);
        self
    }

    /// Run cluster jobs on real shard worker processes over loopback TCP
    /// instead of in-process simulated nodes (see [`ClusterTransport`]).
    pub fn multi_process(mut self) -> Self {
        self.cluster_transport = ClusterTransport::MultiProcess;
        self
    }
}

/// How many times a job is executed before its failure becomes terminal,
/// and how long to back off between attempts.
///
/// Retries are **deterministic**: an attempt reruns the identical plan
/// with the identical seed, and path-derived node seeding makes `Counts`
/// a pure function of `(plan, seed)` — so a job that succeeds on attempt
/// three returns results bit-identical to one that succeeds on attempt
/// one. Backoff is exponential: `initial_backoff · 2^(attempt-1)`, capped
/// at 2 s. A retrying job keeps its scheduler slot through the
/// backoff window (it is still consuming service capacity, just not CPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts (≥ 1; the default 1 means no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub initial_backoff: Duration,
}

/// Upper bound on any retry backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

impl Default for RetryPolicy {
    /// No retries.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// Up to `max_attempts` total attempts with default backoff.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`.
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a job needs at least one attempt");
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Set the initial backoff (doubles per attempt, capped).
    pub fn initial_backoff(mut self, d: Duration) -> Self {
        self.initial_backoff = d;
        self
    }

    /// Backoff before attempt `failed_attempt + 1`.
    fn backoff_after(&self, failed_attempt: u32) -> Duration {
        let doublings = failed_attempt.saturating_sub(1).min(16);
        self.initial_backoff
            .saturating_mul(1 << doublings)
            .min(MAX_BACKOFF)
    }
}

/// Service construction options.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Engine worker threads (default: available hardware parallelism).
    pub parallelism: usize,
    /// Jobs executing on the engine at once (default: the worker count —
    /// enough overlap to keep every worker fed by narrow trees).
    pub max_concurrent_jobs: usize,
    /// Global queued-job bound; submissions beyond it are refused with
    /// [`SubmitError::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// Per-client queued-job bound (fairness guard).
    pub per_client_capacity: usize,
    /// Backend placement policy (default: everything single-node).
    pub backend_policy: BackendPolicy,
    /// How long finished job records stay queryable after reaching a
    /// terminal state. The sweep runs opportunistically on submissions and
    /// stats snapshots (plus [`Service::sweep_retention`] for explicit
    /// control); `None` retains records for the service lifetime.
    pub retention_ttl: Option<Duration>,
    /// Whether the service's engines and cluster backends register their
    /// per-worker and communication instruments (`EngineConfig::observe`,
    /// the backends' `observed`). On by default. With it off, the plan
    /// cache's `tqsim_plan_cache_*_total` counters leave the `metrics`
    /// exposition along with the other engine instruments (the cache is
    /// the single-node engine's); `stats` is unchanged. The service's own
    /// job counters, stage histograms, gauges and the `metrics` verb are
    /// always on: they are the only store `stats` reads. The switch
    /// stays because `perf/`'s `service_mix` compares a rep with it off
    /// (`obs.overhead_frac`); it goes when that rep does.
    pub observability: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            parallelism,
            max_concurrent_jobs: parallelism,
            queue_capacity: 256,
            per_client_capacity: 64,
            backend_policy: BackendPolicy::default(),
            retention_ttl: Some(Duration::from_secs(900)),
            observability: true,
        }
    }
}

impl ServiceConfig {
    /// Same as [`ServiceConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the engine worker count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn parallelism(mut self, n: usize) -> Self {
        assert!(n >= 1, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// Set the concurrent-job window.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_concurrent_jobs(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one concurrent job");
        self.max_concurrent_jobs = n;
        self
    }

    /// Set the global queue bound.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Set the per-client queue bound.
    pub fn per_client_capacity(mut self, n: usize) -> Self {
        self.per_client_capacity = n;
        self
    }

    /// Set the backend placement policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's node count is not a power of two ≥ 1.
    pub fn backend_policy(mut self, policy: BackendPolicy) -> Self {
        assert!(
            policy.cluster_nodes >= 1 && policy.cluster_nodes.is_power_of_two(),
            "cluster node count must be a power of two"
        );
        self.backend_policy = policy;
        self
    }

    /// Set the finished-job retention TTL (`None` retains forever).
    pub fn retention_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.retention_ttl = ttl;
        self
    }

    /// Toggle the engines' and cluster backends' instruments (default on;
    /// see [`ServiceConfig::observability`]).
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }
}

/// One client submission: everything [`tqsim::Tqsim`] carries,
/// owned (requests outlive the submitting call — they cross threads and,
/// through the wire protocol, processes).
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The circuit to simulate (shared, so the plan cache can hold it
    /// without copying).
    pub circuit: Arc<Circuit>,
    /// Noise model (defaults to Sycamore depolarizing).
    pub noise: NoiseModel,
    /// Shot budget (minimum outcomes produced; defaults to 1000).
    pub shots: u64,
    /// Partition strategy (defaults to DCP).
    pub strategy: Strategy,
    /// RNG seed (results are bit-deterministic given a seed).
    pub seed: u64,
    /// Outcomes per leaf (defaults to 1).
    pub leaf_samples: u32,
    /// Execution retry policy (defaults to no retries).
    pub retry: RetryPolicy,
    /// Wall-clock budget measured from admission; when it passes before
    /// the job completes, the scheduler thread fails it with
    /// [`JobError::DeadlineExceeded`] (defaults to none).
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// A request with the default knobs (mirrors `Tqsim::new`).
    pub fn new(circuit: Arc<Circuit>) -> Self {
        JobRequest {
            circuit,
            noise: NoiseModel::sycamore(),
            shots: 1000,
            strategy: Strategy::default_dcp(),
            seed: 0,
            leaf_samples: 1,
            retry: RetryPolicy::default(),
            deadline: None,
        }
    }

    /// Set the noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Set the shot budget.
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Set the partition strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set outcomes per leaf.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn leaf_samples(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one sample per leaf");
        self.leaf_samples = n;
        self
    }

    /// Set the execution retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Set the per-job deadline (measured from admission).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    fn plan_key(&self) -> PlanKey {
        PlanKey::new(
            Arc::clone(&self.circuit),
            self.noise.clone(),
            self.strategy.clone(),
            self.shots,
        )
    }
}

/// Point-in-time service observability snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted over the service lifetime.
    pub submitted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs completed with a result.
    pub completed: u64,
    /// Jobs that failed planning or execution (excluding aborts and
    /// timeouts, which count separately below).
    pub failed: u64,
    /// Jobs cancelled by clients.
    pub cancelled: u64,
    /// Jobs terminally aborted by a contained worker panic.
    pub aborted: u64,
    /// Execution retry attempts started.
    pub retried: u64,
    /// Jobs terminated by their deadline.
    pub timed_out: u64,
    /// Cluster jobs successfully degraded onto the single-node engine.
    pub degraded: u64,
    /// Jobs queued right now.
    pub queued_now: usize,
    /// Jobs executing on the engine right now.
    pub running_now: usize,
    /// Most jobs ever executing at once.
    pub running_high_water: usize,
    /// Leaf-batch chunks streamed to clients.
    pub chunks_streamed: u64,
    /// Total outcomes streamed to clients.
    pub outcomes_streamed: u64,
    /// Plan-cache counters (the single-node engine's cache, which every
    /// job plans through).
    pub cache: CacheStats,
    /// Engine worker threads.
    pub workers: usize,
    /// Configured concurrent-job window.
    pub max_concurrent_jobs: usize,
    /// Jobs dispatched onto the single-node engine.
    pub single_node_jobs: u64,
    /// Jobs the placement policy routed to the cluster-backed engine.
    pub cluster_jobs: u64,
    /// Finished-job records currently retained in the registry.
    pub retained_jobs: usize,
    /// Job records dropped by the retention sweep or an explicit forget.
    pub forgotten: u64,
    /// Whole seconds since the service started.
    pub uptime_secs: u64,
    /// Monotone snapshot sequence number (increments per [`Service::stats`]
    /// call — lets pollers detect reordered or duplicated snapshots).
    pub snapshot_seq: u64,
}

struct SchedState {
    queue: FairQueue,
    running: usize,
    shutdown: bool,
    paused: bool,
    /// Pending deadlines and retry backoffs, earliest first (the sequence
    /// number keeps equal instants in schedule order). The scheduler loop
    /// sleeps until the first one is due.
    timers: BTreeMap<(Instant, u64), Timer>,
    timer_seq: u64,
}

/// Something the scheduler loop fires at a future instant.
enum Timer {
    /// Fail this job with [`JobError::DeadlineExceeded`] (a no-op if it
    /// reached a terminal state first). Held weakly, so a pending
    /// deadline never keeps a finished, forgotten job's result alive.
    Deadline(Weak<JobRecord>),
    /// Re-dispatch a retrying job after its backoff window.
    Retry(Box<dyn FnOnce() + Send>),
}

impl Timer {
    fn fire(self) {
        match self {
            Timer::Deadline(record) => {
                if let Some(record) = record.upgrade() {
                    record.fail(JobError::DeadlineExceeded);
                }
            }
            Timer::Retry(redispatch) => redispatch(),
        }
    }
}

/// The cluster-backed engine behind whichever transport the backend
/// policy selected: one arm per node group, each an engine over the one
/// generic `ClusterBackend`, so everything above this enum (placement,
/// retries, degradation, metrics) is transport-agnostic.
enum ClusterEngine {
    /// Simulated nodes: slices of this process's memory, swept in turn on
    /// the engine worker's thread (kernels pool inside long slices).
    InProcess(Engine<ClusterBackend>),
    /// Real shard worker processes over loopback TCP (`tqsim-shard`).
    MultiProcess(Engine<ShardBackend>),
}

/// `$body` on whichever engine `$cluster` holds.
macro_rules! on_engine {
    ($cluster:expr, $e:ident => $body:expr) => {
        match $cluster {
            ClusterEngine::InProcess($e) => $body,
            ClusterEngine::MultiProcess($e) => $body,
        }
    };
}

/// An engine over a freshly brought-up group of `n_nodes` nodes. Worker
/// processes must exist before the service can take jobs; a spawn failure
/// is a loud startup error, not something to degrade silently around.
fn cluster_engine<T: SliceTransport + Send + Sync + 'static>(
    n_nodes: usize,
    obs: Option<Arc<ClusterObs>>,
    cfg: EngineConfig,
) -> Engine<ClusterBackend<T>> {
    let mut backend = ClusterBackend::spawn(n_nodes)
        .unwrap_or_else(|e| panic!("spawning {n_nodes} cluster nodes failed: {e}"));
    if let Some(obs) = obs {
        backend = backend.observed(obs);
    }
    Engine::with_backend(cfg, backend)
}

impl ClusterEngine {
    /// Whether the node group can slice `n_qubits`-wide states (placement
    /// feasibility, read off the engine's own backend so there is no
    /// second copy to drift).
    fn supports(&self, n_qubits: u16) -> bool {
        on_engine!(self, e => e.supports(n_qubits))
    }

    fn start(
        &self,
        job: &PlannedJob,
        sink: Option<ChunkSink>,
        on_done: impl FnOnce(tqsim::RunResult) + Send + 'static,
    ) {
        on_engine!(self, e => e.start(job, sink, on_done))
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        on_engine!(self, e => e.take_panic())
    }

    fn pool_stats(&self) -> tqsim_engine::PoolStats {
        on_engine!(self, e => e.pool_stats())
    }
}

pub(crate) struct Shared {
    engine: Engine,
    /// The cluster-backed engine, spun up only when the placement policy
    /// can route anything to it. Its own plan cache stays empty: every job
    /// plans through the single-node engine's, since the same `JobPlan`
    /// replays on either.
    cluster: Option<ClusterEngine>,
    cfg: ServiceConfig,
    /// Job counters, stage histograms and gauges: the only store of what
    /// [`Service::stats`] and [`Service::metrics`] report.
    metrics: Arc<ServiceMetrics>,
    /// Monotone [`Service::stats`] snapshot sequence.
    snapshot_seq: AtomicU64,
    state: Mutex<SchedState>,
    /// Wakes the scheduler: new submission, a slot freed, pause toggled,
    /// a timer armed, shutdown.
    work_cv: Condvar,
    /// Job registry for id-based lookups (wire protocol `poll`/`stream`/
    /// `cancel`/`result`/`forget`). Finished entries expire after
    /// `cfg.retention_ttl` (swept opportunistically) or an explicit forget.
    jobs: Mutex<HashMap<JobId, Arc<JobRecord>>>,
    next_id: AtomicU64,
    /// When the service started (monotone clock base for sweep gating).
    started: std::time::Instant,
    /// Milliseconds-since-start of the last retention sweep: opportunistic
    /// sweeps are throttled to once a second so the submission hot path
    /// never pays an O(retained records) scan per call.
    last_sweep_ms: AtomicU64,
}

impl Shared {
    fn job_slot_freed(&self) {
        let mut st = self.state.lock().expect("scheduler state");
        st.running -= 1;
        self.work_cv.notify_all();
    }

    /// Arm `timer` to fire from the scheduler loop at `due`. Once shutdown
    /// has begun the timer is handed back instead, and the caller must run
    /// (or drop) it itself — nothing is silently lost.
    fn schedule(&self, due: Instant, timer: Timer) -> Result<(), Timer> {
        let mut st = self.state.lock().expect("scheduler state");
        if st.shutdown {
            return Err(timer);
        }
        st.timer_seq += 1;
        let seq = st.timer_seq;
        st.timers.insert((due, seq), timer);
        self.work_cv.notify_all();
        Ok(())
    }

    /// The snapshot-time gauges, after an opportunistic retention sweep.
    fn gauges(&self) -> GaugeRefresh {
        self.sweep_retention(false);
        let (queued, running) = {
            let st = self.state.lock().expect("scheduler state");
            (st.queue.len(), st.running)
        };
        // Count only terminal records: live (queued/running) jobs are in
        // the registry too but are not "retained" in the TTL sense.
        let retained = self
            .jobs
            .lock()
            .expect("job registry")
            .values()
            .filter(|record| record.is_terminal())
            .count();
        GaugeRefresh {
            queued,
            running,
            retained,
            cache_entries: self.engine.plan_cache().stats().entries,
        }
    }

    /// Drop expired finished-job records (no-op without a TTL). Runs
    /// opportunistically on submissions and stats snapshots — throttled to
    /// once a second unless `force`d (the explicit
    /// [`Service::sweep_retention`] entry point forces, so tests and
    /// operators get deterministic sweeps).
    fn sweep_retention(&self, force: bool) {
        let Some(ttl) = self.cfg.retention_ttl else {
            return;
        };
        let now_ms = self.started.elapsed().as_millis() as u64;
        if force {
            self.last_sweep_ms.store(now_ms, Ordering::Relaxed);
        } else {
            let last = self.last_sweep_ms.load(Ordering::Relaxed);
            let due = now_ms.saturating_sub(last) >= 1000
                && self
                    .last_sweep_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            if !due {
                return;
            }
        }
        let mut jobs = self.jobs.lock().expect("job registry");
        let before = jobs.len();
        jobs.retain(|_, record| !record.expired(ttl));
        self.metrics
            .jobs
            .forgotten
            .add((before - jobs.len()) as u64);
    }
}

/// The multi-client simulation service: a bounded fair queue in front of a
/// scheduler that overlaps jobs on one engine, plans through that engine's
/// plan cache, and streams results. See the [crate docs](crate) for the tour.
///
/// ```
/// use std::sync::Arc;
/// use tqsim_circuit::generators;
/// use tqsim_service::{JobRequest, Service, ServiceConfig};
///
/// let service = Service::start(ServiceConfig::default().parallelism(2));
/// let circuit = Arc::new(generators::qft(6));
/// let ticket = service
///     .submit("alice", JobRequest::new(circuit).shots(64).seed(7))
///     .unwrap();
/// let result = ticket.wait().unwrap();
/// assert!(result.counts.total() >= 64);
/// service.shutdown();
/// ```
pub struct Service {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "Service[{} workers, {} running, {} queued]",
            stats.workers, stats.running_now, stats.queued_now
        )
    }
}

impl Service {
    /// Spin up the engine(s) and the scheduler thread: always the
    /// single-node engine, plus a cluster-backed engine when the backend
    /// policy enables routing (see [`BackendPolicy`]).
    pub fn start(cfg: ServiceConfig) -> Arc<Service> {
        // Arm any operator-configured failpoints (`TQSIM_FAILPOINTS`);
        // idempotent and free when the variable is unset.
        tqsim_faults::init_from_env();
        let metrics = ServiceMetrics::new();
        let mut engine_cfg = EngineConfig::default().parallelism(cfg.parallelism);
        let mut cluster_cfg = EngineConfig::default().parallelism(CLUSTER_PARALLELISM);
        // The engines' and backends' own instruments, when configured.
        let mut cluster_obs = None;
        if cfg.observability {
            engine_cfg = engine_cfg.observe(Arc::clone(&metrics.registry), "single_node");
            cluster_cfg = cluster_cfg.observe(Arc::clone(&metrics.registry), "cluster");
            cluster_obs = Some(Arc::clone(&metrics.cluster));
        }
        let cluster = cfg.backend_policy.cluster_min_qubits.map(|_| {
            let nodes = cfg.backend_policy.cluster_nodes;
            match cfg.backend_policy.cluster_transport {
                ClusterTransport::InProcess => {
                    ClusterEngine::InProcess(cluster_engine(nodes, cluster_obs, cluster_cfg))
                }
                ClusterTransport::MultiProcess => {
                    ClusterEngine::MultiProcess(cluster_engine(nodes, cluster_obs, cluster_cfg))
                }
            }
        });
        let shared = Arc::new(Shared {
            engine: Engine::new(engine_cfg),
            cluster,
            metrics,
            snapshot_seq: AtomicU64::new(0),
            state: Mutex::new(SchedState {
                queue: FairQueue::new(cfg.queue_capacity, cfg.per_client_capacity),
                running: 0,
                shutdown: false,
                paused: false,
                timers: BTreeMap::new(),
                timer_seq: 0,
            }),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            started: std::time::Instant::now(),
            last_sweep_ms: AtomicU64::new(0),
            cfg,
        });
        let sched_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("tqsim-service-scheduler".into())
            .spawn(move || scheduler_loop(&sched_shared))
            .expect("scheduler thread spawn");
        Arc::new(Service {
            shared,
            scheduler: Mutex::new(Some(scheduler)),
        })
    }

    /// Submit a job on behalf of `client`. Non-blocking: admission either
    /// succeeds immediately (the job is queued and will be scheduled
    /// fairly) or is refused with the bound that was hit — backpressure is
    /// explicit, never a silent stall.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] / [`SubmitError::ClientQueueFull`] when
    /// admission control refuses, [`SubmitError::ShuttingDown`] after
    /// [`Service::shutdown`].
    pub fn submit(&self, client: &str, request: JobRequest) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        shared.sweep_retention(false);
        let mut st = shared.state.lock().expect("scheduler state");
        if st.shutdown {
            shared.metrics.jobs.rejected.inc();
            return Err(SubmitError::ShuttingDown);
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = request.deadline;
        let record = JobRecord::new(id, client, Arc::clone(&shared.metrics));
        match st.queue.push(
            client,
            PendingJob {
                record: Arc::clone(&record),
                request,
            },
        ) {
            Ok(()) => {
                shared.metrics.jobs.submitted.inc();
                shared.work_cv.notify_all();
                drop(st);
                // Eager queued-cancel removal: a cancellation arriving
                // while the job still waits for a slot frees its admission
                // slot immediately (the hook runs outside the record lock;
                // pop races are backstopped by pop_fair's status check).
                let weak = Arc::downgrade(shared);
                record.set_on_cancel(Box::new(move || {
                    if let Some(shared) = weak.upgrade() {
                        let mut st = shared.state.lock().expect("scheduler state");
                        if st.queue.remove(id) {
                            shared.work_cv.notify_all();
                        }
                    }
                }));
                shared
                    .jobs
                    .lock()
                    .expect("job registry")
                    .insert(id, Arc::clone(&record));
                // Arm the deadline (measured from admission). The fail it
                // eventually triggers is a no-op on a job already terminal,
                // and runs the same eager-dequeue hook as a cancellation,
                // so a job that times out while still queued frees its
                // admission slot immediately.
                if let Some(due) = deadline.and_then(|d| Instant::now().checked_add(d)) {
                    // Err only once a concurrent Service::shutdown began:
                    // the queue drain fails this job anyway.
                    let _ = shared.schedule(due, Timer::Deadline(Arc::downgrade(&record)));
                }
                Ok(Ticket { record })
            }
            Err(err) => {
                shared.metrics.jobs.rejected.inc();
                Err(err)
            }
        }
    }

    /// Look up a previously submitted job by id (any connection may poll,
    /// stream or cancel a job it knows the id of — the protocol trusts
    /// its callers; see ROADMAP's auth follow-up).
    pub fn lookup(&self, id: JobId) -> Option<Ticket> {
        self.shared
            .jobs
            .lock()
            .expect("job registry")
            .get(&id)
            .map(|record| Ticket {
                record: Arc::clone(record),
            })
    }

    /// Observability snapshot (also runs the retention sweep, so
    /// `retained_jobs` reflects the TTL). A typed read of the same
    /// instruments [`Service::metrics`] serves.
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let now = shared.gauges();
        let m = &shared.metrics;
        let jobs = &m.jobs;
        ServiceStats {
            submitted: jobs.submitted.get(),
            rejected: jobs.rejected.get(),
            completed: jobs.completed.get(),
            failed: jobs.failed.get(),
            cancelled: jobs.cancelled.get(),
            aborted: jobs.aborted.get(),
            retried: jobs.retried.get(),
            timed_out: jobs.timed_out.get(),
            degraded: jobs.degraded.get(),
            queued_now: now.queued,
            running_now: now.running,
            running_high_water: m.running_high_water.get() as usize,
            chunks_streamed: jobs.chunks_streamed.get(),
            outcomes_streamed: jobs.outcomes_streamed.get(),
            cache: shared.engine.plan_cache().stats(),
            workers: shared.engine.parallelism(),
            max_concurrent_jobs: shared.cfg.max_concurrent_jobs,
            single_node_jobs: jobs.single_node_jobs.get(),
            cluster_jobs: jobs.cluster_jobs.get(),
            retained_jobs: now.retained,
            forgotten: jobs.forgotten.get(),
            uptime_secs: shared.started.elapsed().as_secs(),
            snapshot_seq: shared.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// A structured metrics snapshot: per-stage latency histograms, job,
    /// cache and operation counters, queue and in-flight gauges, engine
    /// worker instruments, cluster communication totals and pool stats.
    pub fn metrics(&self) -> tqsim_obs::Snapshot {
        self.refreshed_registry().snapshot()
    }

    /// The Prometheus-style text exposition of [`Service::metrics`].
    pub fn metrics_text(&self) -> String {
        self.refreshed_registry().render_text()
    }

    /// The per-job lifecycle event timeline (a bounded ring; the most
    /// recent events, oldest first).
    pub fn metrics_events(&self) -> Vec<tqsim_obs::Event> {
        self.shared.metrics.registry.events().snapshot()
    }

    /// Copy the state other crates and locks own into the registry and
    /// hand the registry back.
    fn refreshed_registry(&self) -> &tqsim_obs::Registry {
        let shared = &self.shared;
        let gauges = shared.gauges();
        let mut pools = vec![("single_node", shared.engine.pool_stats())];
        if let Some(cluster) = &shared.cluster {
            pools.push(("cluster", cluster.pool_stats()));
        }
        shared.metrics.refresh(&pools, gauges);
        &shared.metrics.registry
    }

    /// Drop finished-job records older than the configured TTL now (the
    /// sweep otherwise runs opportunistically on submissions and stats).
    pub fn sweep_retention(&self) {
        self.shared.sweep_retention(true);
    }

    /// Explicitly drop a finished job's record, releasing its result and
    /// streamed-chunk memory. Returns whether a record was dropped — live
    /// (queued or running) jobs are never forgotten; cancel first.
    pub fn forget(&self, id: JobId) -> bool {
        let mut jobs = self.shared.jobs.lock().expect("job registry");
        let forgettable = jobs.get(&id).is_some_and(|record| record.is_terminal());
        if forgettable {
            jobs.remove(&id);
            self.shared.metrics.jobs.forgotten.inc();
        }
        forgettable
    }

    /// Stop dispatching queued jobs (running jobs continue; submissions
    /// still queue). An operational drain valve — and the deterministic
    /// way to test backpressure.
    pub fn pause_scheduling(&self) {
        let mut st = self.shared.state.lock().expect("scheduler state");
        st.paused = true;
        self.shared.work_cv.notify_all();
    }

    /// Resume dispatching after [`Service::pause_scheduling`].
    pub fn resume_scheduling(&self) {
        let mut st = self.shared.state.lock().expect("scheduler state");
        st.paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Graceful shutdown: refuse new submissions, fail everything still
    /// queued, re-dispatch jobs waiting out a retry backoff, drop pending
    /// deadlines, join the scheduler thread and let running jobs finish.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("scheduler state");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        if let Some(handle) = self.scheduler.lock().expect("scheduler handle").take() {
            let _ = handle.join();
        }
        // Wait for in-flight jobs so `shutdown` is a true quiesce point.
        let mut st = self.shared.state.lock().expect("scheduler state");
        while st.running > 0 {
            st = self.shared.work_cv.wait(st).expect("scheduler state");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let (due, pending) = {
            let mut st = shared.state.lock().expect("scheduler state");
            loop {
                if st.shutdown {
                    // Fail whatever is still queued so no ticket blocks
                    // forever, re-dispatch retries now (their jobs hold
                    // running slots the shutdown quiesce waits on), drop
                    // deadlines (running jobs may finish), then exit.
                    // Failing runs each job's eager-dequeue hook, which
                    // takes this lock — take everything first, act after
                    // release.
                    let drained = st.queue.drain_all();
                    let timers = std::mem::take(&mut st.timers);
                    drop(st);
                    for job in drained {
                        job.record
                            .fail(JobError::Failed("service shut down".into()));
                    }
                    for timer in timers.into_values() {
                        if let Timer::Retry(redispatch) = timer {
                            redispatch();
                        }
                    }
                    return;
                }
                let now = Instant::now();
                let mut due = Vec::new();
                while let Some(timer) = st.timers.first_entry().filter(|t| t.key().0 <= now) {
                    due.push(timer.remove());
                }
                let mut pending = None;
                if !st.paused && st.running < shared.cfg.max_concurrent_jobs {
                    pending = st.queue.pop_fair();
                    if pending.is_some() {
                        st.running += 1;
                        // Atomic monotonic max: concurrent stats readers
                        // never see the high water regress.
                        shared.metrics.running_high_water.set_max(st.running as i64);
                    }
                }
                if !due.is_empty() || pending.is_some() {
                    break (due, pending);
                }
                // Sleep until woken or the earliest timer is due — paused
                // too, since a queued job's deadline must still fire.
                st = match st.timers.keys().next() {
                    Some(&(at, _)) => {
                        let wait = at.saturating_duration_since(now);
                        shared
                            .work_cv
                            .wait_timeout(st, wait)
                            .expect("scheduler state")
                            .0
                    }
                    None => shared.work_cv.wait(st).expect("scheduler state"),
                };
            }
        };
        // Fire outside the state lock: a deadline failure runs the job's
        // eager-dequeue hook, which takes it; a retry dispatches onto the
        // engine.
        for timer in due {
            timer.fire();
        }
        let Some(pending) = pending else {
            continue;
        };
        // The queue-wait stage ends here, whichever dispatch path follows.
        pending.record.set_scheduled();
        // Cache hits — the steady-state case — dispatch inline: a lookup
        // plus the non-blocking Engine::start, which injects one root task
        // (the root nodes are probed on a worker). Only a
        // miss (or an in-flight same-key plan) moves to a short-lived
        // planner thread, so planning a large novel circuit never
        // head-of-line blocks dispatch of already-cached jobs behind it,
        // and concurrent misses on *different* keys plan in parallel (the
        // cache plans outside its lock; same-key misses single-flight).
        let key = pending.request.plan_key();
        match shared.engine.plan_cache().try_get(&key) {
            Some(plan) => start_job(shared, pending, plan),
            None => {
                // Live planner threads are bounded by max_concurrent_jobs
                // (each occupies a running slot), so spawn failure means
                // the process is out of threads for its configured window
                // — treat as fatal.
                let dispatch_shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name("tqsim-service-planner".into())
                    .spawn(move || dispatch(&dispatch_shared, pending, &key))
                    .expect("planner thread spawn");
            }
        }
    }
}

/// Plan (through the single-node engine's cache) and start one job.
fn dispatch(shared: &Arc<Shared>, pending: PendingJob, key: &PlanKey) {
    // RAII span: planning wall time (cache-miss dispatches only) lands in
    // the `tqsim_plan_ns` histogram when the guard drops.
    let plan = {
        let _span = shared.metrics.registry.span("tqsim_plan_ns", &[]);
        shared.engine.plan_cache().get_or_plan(key)
    };
    let plan = match plan {
        Ok(plan) => plan,
        Err(err) => {
            pending.record.fail(JobError::Failed(err.to_string()));
            shared.job_slot_freed();
            return;
        }
    };
    start_job(shared, pending, plan);
}

/// Which engine the placement policy chose for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Placement {
    SingleNode,
    Cluster,
}

/// Apply the backend policy: cluster when configured, the job is at or
/// above the width threshold, and the node group can actually slice it
/// (≥ 3 local qubits); single-node otherwise — unless the job is also
/// wider than the single-node engine holds or than
/// [`BackendPolicy::single_node_max_qubits`], in which case no engine can
/// take it and placement itself fails.
fn place(shared: &Shared, n_qubits: u16) -> Result<Placement, JobError> {
    let over_threshold = shared
        .cfg
        .backend_policy
        .cluster_min_qubits
        .is_some_and(|min| n_qubits >= min);
    let feasible = shared
        .cluster
        .as_ref()
        .is_some_and(|engine| engine.supports(n_qubits));
    if over_threshold && feasible {
        Ok(Placement::Cluster)
    } else if single_node_fits(shared, n_qubits) {
        Ok(Placement::SingleNode)
    } else {
        Err(JobError::BackendUnavailable(format!(
            "no engine can hold a {n_qubits}-qubit job: it does not fit the \
             single-node engine and no feasible cluster placement exists"
        )))
    }
}

/// Whether the single-node engine can hold a job of this width (its
/// backend's limit) and is allowed to take it (the configured cap, if
/// any).
fn single_node_fits(shared: &Shared, n_qubits: u16) -> bool {
    shared.engine.supports(n_qubits)
        && shared
            .cfg
            .backend_policy
            .single_node_max_qubits
            .is_none_or(|max| n_qubits <= max)
}

/// Start one planned job on the placed engine with streaming + completion
/// wiring. Both engines run the identical `JobPlan` through the identical
/// backend-generic executor, so placement never changes a job's `Counts`.
fn start_job(shared: &Arc<Shared>, pending: PendingJob, plan: Arc<tqsim_engine::JobPlan>) {
    let PendingJob { record, request } = pending;
    start_attempt(shared, record, request, plan, 1, None);
}

/// Run one execution attempt of a job. `attempt` is 1-based within the
/// current placement; `forced` pins the placement (retries stay where the
/// first attempt ran so they replay the identical execution; degradation
/// pins single-node explicitly).
///
/// The job's scheduler slot is held across the whole attempt chain —
/// through backoff waits and degradation re-placement — and released
/// exactly once, on whichever path ends the chain.
fn start_attempt(
    shared: &Arc<Shared>,
    record: Arc<JobRecord>,
    request: JobRequest,
    plan: Arc<tqsim_engine::JobPlan>,
    attempt: u32,
    forced: Option<Placement>,
) {
    // A deadline (or cancel) may have landed while this attempt waited in
    // retry backoff; don't burn engine time on a decided job.
    if record.status().is_terminal() {
        shared.job_slot_freed();
        return;
    }
    let placement = match forced {
        Some(placement) => placement,
        None => match place(shared, plan.n_qubits()) {
            Ok(placement) => placement,
            Err(err) => {
                record.fail(err);
                shared.job_slot_freed();
                return;
            }
        },
    };
    // Count each *job* once per backend; retries and degradation re-runs
    // are tracked by their own counters.
    let m = &shared.metrics;
    let (placed, inflight) = match placement {
        Placement::SingleNode => (&m.jobs.single_node_jobs, &m.inflight_single),
        Placement::Cluster => (&m.jobs.cluster_jobs, &m.inflight_cluster),
    };
    if attempt == 1 && forced.is_none() {
        placed.inc();
    }
    // Per-backend in-flight gauge: up here, down in the completion hook.
    let inflight = Arc::clone(inflight);
    inflight.inc();
    record.set_running();
    let sink: ChunkSink = {
        let record = Arc::clone(&record);
        Arc::new(move |chunk: &[u64]| record.push_chunk(chunk))
    };
    let done_shared = Arc::clone(shared);
    let done_record = Arc::clone(&record);
    let done_request = request.clone();
    let done_plan = Arc::clone(&plan);
    let leaf_samples = request.leaf_samples;
    let planned = PlannedJob::new(plan)
        .seed(request.seed)
        .leaf_samples(leaf_samples);
    let on_done = move |result: tqsim::RunResult| {
        // A panicking node task abandons its subtree (the engine keeps
        // the pool healthy and completes the job with partial counts),
        // so completeness is the per-job panic signal. Fail the attempt
        // instead of handing the client a silently short histogram, and
        // drain the executing pool's panic slot so the payload cannot
        // resurface in an unrelated caller later.
        if result.is_complete(leaf_samples) {
            record.finish(result);
            inflight.dec();
            done_shared.job_slot_freed();
            return;
        }
        let payload = match placement {
            Placement::SingleNode => done_shared.engine.take_panic(),
            Placement::Cluster => done_shared
                .cluster
                .as_ref()
                .expect("cluster placement implies a cluster engine")
                .take_panic(),
        };
        let detail = payload
            .map(|payload| panic_message(&payload))
            .unwrap_or_else(|| "node task panicked".into());
        let detail = format!(
            "execution aborted after {} outcomes: {detail}",
            result.counts.total()
        );
        inflight.dec();
        attempt_failed(
            &done_shared,
            done_record,
            done_request,
            done_plan,
            placement,
            attempt,
            detail,
        );
    };
    match placement {
        Placement::SingleNode => shared.engine.start(&planned, Some(sink), on_done),
        Placement::Cluster => shared
            .cluster
            .as_ref()
            .expect("cluster placement implies a cluster engine")
            .start(&planned, Some(sink), on_done),
    }
}

/// Decide what happens after a failed attempt: retry with backoff while
/// the budget lasts, then degrade cluster jobs to single-node when they
/// fit, and only then fail the ticket.
fn attempt_failed(
    shared: &Arc<Shared>,
    record: Arc<JobRecord>,
    request: JobRequest,
    plan: Arc<tqsim_engine::JobPlan>,
    placement: Placement,
    attempt: u32,
    detail: String,
) {
    // Deadline/cancel won the race against this attempt's failure: the
    // ticket is already decided, so just release the slot.
    if record.status().is_terminal() {
        shared.job_slot_freed();
        return;
    }
    if attempt < request.retry.max_attempts {
        if !record.rearm_for_retry() {
            shared.job_slot_freed();
            return;
        }
        let backoff = request.retry.backoff_after(attempt);
        let retry_shared = Arc::clone(shared);
        let retry = Timer::Retry(Box::new(move || {
            start_attempt(
                &retry_shared,
                record,
                request,
                plan,
                attempt + 1,
                Some(placement),
            );
        }));
        // The slot stays held through the backoff wait: a retrying job is
        // still "running" for admission purposes. Once shutdown has begun
        // the retry runs inline, so the attempt chain still releases it.
        match Instant::now().checked_add(backoff) {
            Some(due) => {
                if let Err(retry) = shared.schedule(due, retry) {
                    retry.fire();
                }
            }
            None => retry.fire(),
        }
        return;
    }
    // Retry budget exhausted on the cluster: degrade to the single-node
    // engine when the job fits there — same plan, same seed, so a success
    // is bit-identical to what the cluster would have produced.
    if placement == Placement::Cluster && single_node_fits(shared, plan.n_qubits()) {
        if !record.rearm_for_degrade() {
            shared.job_slot_freed();
            return;
        }
        shared.metrics.jobs.degraded.inc();
        start_attempt(
            shared,
            record,
            request,
            plan,
            1,
            Some(Placement::SingleNode),
        );
        return;
    }
    let error = if placement == Placement::Cluster {
        JobError::BackendUnavailable(format!(
            "cluster execution failed after {attempt} attempt(s) and the \
             {n}-qubit job exceeds the single-node cap: {detail}",
            n = plan.n_qubits()
        ))
    } else {
        JobError::Aborted(detail)
    };
    record.fail(error);
    shared.job_slot_freed();
}

/// Best-effort human-readable form of a task panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "node task panicked".into()
    }
}

/// Convenience: submit and wait (one call, no ticket juggling).
///
/// # Errors
///
/// The outer [`SubmitError`] if admission refuses; the inner [`JobError`]
/// if the admitted job then fails or is cancelled.
pub fn run_one(
    service: &Service,
    client: &str,
    request: JobRequest,
) -> Result<Result<tqsim::RunResult, JobError>, SubmitError> {
    let ticket = service.submit(client, request)?;
    Ok(ticket.wait())
}
