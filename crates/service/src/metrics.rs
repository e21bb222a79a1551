//! Service-side observability: one shared [`Registry`] holding the
//! service's job counters and per-stage latency histograms, the plan
//! cache's counters, scheduler gauges, engine worker instruments, cluster
//! communication totals and pool statistics.
//!
//! Two kinds of instruments live here:
//!
//! - **Live** instruments are held as `Arc`s by the code that counts and
//!   are the only store of what they count: the `tqsim_jobs_*_total`,
//!   `tqsim_chunks_streamed_total` / `tqsim_outcomes_streamed_total` and
//!   `tqsim_jobs_placed_total{backend=…}` counters ([`JobCounters`], read
//!   back by `Service::stats`), the plan cache's
//!   `tqsim_plan_cache_*_total` counters (held by the single-node engine's
//!   cache, and registered here only when observability is on), the
//!   five `tqsim_job_stage_ns{stage=…}` histograms (recorded once per
//!   completed job, so each histogram's `count` equals the completed-job
//!   count), the per-backend in-flight gauges, the running high water
//!   (raised at scheduler pop), the `tqsim_ops_total{kind=…}` operation
//!   counters and the `tqsim_cluster_*_total` counters (incremented inside
//!   the distributed state vector). The engine's per-worker
//!   busy/steal/idle counters are registered by the engines themselves via
//!   `EngineConfig::observe`.
//! - **Refreshed** values have their home in another crate or behind a
//!   lock: the engines' `PoolStats`, the process-wide amplitude pool, and
//!   the queue depth, running jobs, retained records and cache occupancy.
//!   [`ServiceMetrics::refresh`] copies them into the registry at snapshot
//!   time so one exposition covers everything.
//!
//! Stage semantics (all nanoseconds, from the same four instants, so
//! `queue_wait + compile + execute == e2e` exactly):
//!
//! | stage | interval |
//! |---|---|
//! | `queue_wait` | admission → scheduler pop |
//! | `compile` | scheduler pop → execution start (cache lookup / planning) |
//! | `execute` | execution start → terminal |
//! | `stream` | execution start → last streamed chunk (0 if none) |
//! | `e2e` | admission → terminal |

use std::sync::Arc;
use tqsim::OpCounts;
use tqsim_cluster::ClusterObs;
use tqsim_engine::PoolStats;
use tqsim_obs::{Counter, Gauge, Histogram, Registry};

/// The per-stage latency histogram family name.
pub(crate) const STAGE_HIST: &str = "tqsim_job_stage_ns";

/// The five stage labels, in pipeline order.
pub(crate) const STAGES: [&str; 5] = ["queue_wait", "compile", "execute", "stream", "e2e"];

/// Pre-registered live instruments plus the registry they live in.
pub(crate) struct ServiceMetrics {
    /// The instrument directory everything registers into.
    pub registry: Arc<Registry>,
    /// Job lifecycle counters (the store behind `ServiceStats`).
    pub jobs: JobCounters,
    /// admission → scheduler pop.
    pub queue_wait_ns: Arc<Histogram>,
    /// scheduler pop → execution start.
    pub compile_ns: Arc<Histogram>,
    /// execution start → terminal.
    pub execute_ns: Arc<Histogram>,
    /// execution start → last streamed chunk.
    pub stream_ns: Arc<Histogram>,
    /// admission → terminal.
    pub e2e_ns: Arc<Histogram>,
    /// Most jobs ever executing at once.
    pub running_high_water: Arc<Gauge>,
    /// Jobs executing on the single-node engine right now.
    pub inflight_single: Arc<Gauge>,
    /// Jobs executing on the cluster engine right now.
    pub inflight_cluster: Arc<Gauge>,
    /// Per-kind operation totals accumulated from completed jobs' results.
    ops: OpTotals,
    /// Communication totals shared with every observed distributed state.
    pub cluster: Arc<ClusterObs>,
}

/// The job counters: one registry counter per `ServiceStats` counter of
/// the same name, incremented where the event happens.
pub(crate) struct JobCounters {
    pub submitted: Arc<Counter>,
    pub rejected: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub cancelled: Arc<Counter>,
    pub aborted: Arc<Counter>,
    pub retried: Arc<Counter>,
    pub timed_out: Arc<Counter>,
    pub degraded: Arc<Counter>,
    pub forgotten: Arc<Counter>,
    pub chunks_streamed: Arc<Counter>,
    pub outcomes_streamed: Arc<Counter>,
    pub single_node_jobs: Arc<Counter>,
    pub cluster_jobs: Arc<Counter>,
}

impl JobCounters {
    fn register(registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(name, &[]);
        let placed =
            |backend: &str| registry.counter("tqsim_jobs_placed_total", &[("backend", backend)]);
        JobCounters {
            submitted: c("tqsim_jobs_submitted_total"),
            rejected: c("tqsim_jobs_rejected_total"),
            completed: c("tqsim_jobs_completed_total"),
            failed: c("tqsim_jobs_failed_total"),
            cancelled: c("tqsim_jobs_cancelled_total"),
            aborted: c("tqsim_jobs_aborted_total"),
            retried: c("tqsim_jobs_retried_total"),
            timed_out: c("tqsim_jobs_timed_out_total"),
            degraded: c("tqsim_jobs_degraded_total"),
            forgotten: c("tqsim_jobs_forgotten_total"),
            chunks_streamed: c("tqsim_chunks_streamed_total"),
            outcomes_streamed: c("tqsim_outcomes_streamed_total"),
            single_node_jobs: placed("single_node"),
            cluster_jobs: placed("cluster"),
        }
    }
}

/// `tqsim_ops_total{kind=…}` counters, one per [`OpCounts`] field,
/// pre-registered so the completion path stays lock-free.
struct OpTotals {
    gates_1q: Arc<Counter>,
    gates_2q: Arc<Counter>,
    gates_3q: Arc<Counter>,
    noise_ops: Arc<Counter>,
    state_copies: Arc<Counter>,
    state_resets: Arc<Counter>,
    samples: Arc<Counter>,
    amp_passes: Arc<Counter>,
    fused_gates: Arc<Counter>,
    nodes_shared: Arc<Counter>,
}

impl OpTotals {
    fn register(registry: &Registry) -> Self {
        let c = |kind: &str| registry.counter("tqsim_ops_total", &[("kind", kind)]);
        OpTotals {
            gates_1q: c("gates_1q"),
            gates_2q: c("gates_2q"),
            gates_3q: c("gates_3q"),
            noise_ops: c("noise_ops"),
            state_copies: c("state_copies"),
            state_resets: c("state_resets"),
            samples: c("samples"),
            amp_passes: c("amp_passes"),
            fused_gates: c("fused_gates"),
            nodes_shared: c("nodes_shared"),
        }
    }
}

/// Values read at snapshot time (under the scheduler, registry and cache
/// locks) and copied into gauges by [`ServiceMetrics::refresh`].
pub(crate) struct GaugeRefresh {
    /// Jobs waiting for a slot.
    pub queued: usize,
    /// Jobs executing right now.
    pub running: usize,
    /// Terminal records retained in the registry.
    pub retained: usize,
    /// Plans resident in the cache.
    pub cache_entries: usize,
}

impl ServiceMetrics {
    /// A fresh registry with every live instrument pre-registered.
    pub(crate) fn new() -> Arc<Self> {
        let registry = Registry::new();
        let stage = |s: &str| registry.histogram(STAGE_HIST, &[("stage", s)]);
        Arc::new(ServiceMetrics {
            jobs: JobCounters::register(&registry),
            queue_wait_ns: stage(STAGES[0]),
            compile_ns: stage(STAGES[1]),
            execute_ns: stage(STAGES[2]),
            stream_ns: stage(STAGES[3]),
            e2e_ns: stage(STAGES[4]),
            running_high_water: registry.gauge("tqsim_running_high_water", &[]),
            inflight_single: registry.gauge("tqsim_jobs_inflight", &[("backend", "single_node")]),
            inflight_cluster: registry.gauge("tqsim_jobs_inflight", &[("backend", "cluster")]),
            ops: OpTotals::register(&registry),
            cluster: ClusterObs::register(&registry),
            registry,
        })
    }

    /// Accumulate one completed job's operation counts.
    pub(crate) fn add_ops(&self, ops: &OpCounts) {
        self.ops.gates_1q.add(ops.gates_1q);
        self.ops.gates_2q.add(ops.gates_2q);
        self.ops.gates_3q.add(ops.gates_3q);
        self.ops.noise_ops.add(ops.noise_ops);
        self.ops.state_copies.add(ops.state_copies);
        self.ops.state_resets.add(ops.state_resets);
        self.ops.samples.add(ops.samples);
        self.ops.amp_passes.add(ops.amp_passes);
        self.ops.fused_gates.add(ops.fused_gates);
        self.ops.nodes_shared.add(ops.nodes_shared);
    }

    /// Copy the refreshed values (per-engine pool stats, the amplitude
    /// pool, snapshot-time gauges) into the registry, so the next
    /// snapshot / exposition is a complete, coherent view.
    pub(crate) fn refresh(&self, pools: &[(&'static str, PoolStats)], gauges: GaugeRefresh) {
        let r = &self.registry;
        for (scope, pool) in pools {
            let labels = [("engine", *scope)];
            r.counter("tqsim_state_pool_allocations_total", &labels)
                .set(pool.allocations);
            r.counter("tqsim_state_pool_reuses_total", &labels)
                .set(pool.reuses);
            r.gauge("tqsim_state_pool_outstanding", &labels)
                .set(pool.outstanding as i64);
            r.gauge("tqsim_state_pool_high_water", &labels)
                .set(pool.high_water as i64);
            r.gauge("tqsim_state_pool_outstanding_bytes", &labels)
                .set(pool.outstanding_bytes as i64);
            r.gauge("tqsim_state_pool_high_water_bytes", &labels)
                .set(pool.high_water_bytes as i64);
        }

        // The process-wide amplitude worker pool (the rayon shim): one
        // pool under every engine, so the totals are process-level.
        let amp = rayon::pool_stats();
        r.counter("tqsim_amp_pool_tasks", &[]).set(amp.tasks);
        r.counter("tqsim_amp_pool_busy_ns", &[]).set(amp.busy_ns);
        r.gauge("tqsim_amp_pool_threads", &[])
            .set(amp.threads as i64);

        r.gauge("tqsim_queue_depth", &[]).set(gauges.queued as i64);
        r.gauge("tqsim_jobs_running", &[])
            .set(gauges.running as i64);
        r.gauge("tqsim_retained_jobs", &[])
            .set(gauges.retained as i64);
        r.gauge("tqsim_plan_cache_entries", &[])
            .set(gauges.cache_entries as i64);
    }
}
