//! Service-side observability: one shared [`Registry`] holding the
//! per-stage job latency histograms, scheduler gauges, engine worker
//! instruments, cluster communication totals and mirrored service/cache/
//! pool counters.
//!
//! Two kinds of instruments live here:
//!
//! - **Live** instruments are held as `Arc`s by the hot paths and updated
//!   as events happen: the five `tqsim_job_stage_ns{stage=…}` histograms
//!   (recorded once per completed job, so each histogram's `count` equals
//!   the completed-job count), the queue-depth and per-backend in-flight
//!   gauges, the `tqsim_ops_total{kind=…}` operation counters and the
//!   `tqsim_cluster_*_total` counters (incremented inside the distributed
//!   state vector). The engine's per-worker busy/steal/idle counters are
//!   registered by the engines themselves via `EngineConfig::observe`.
//! - **Mirrored** values already have an authoritative home elsewhere
//!   (`ServiceCounters`, `CacheStats`, the engines' `PoolStats`, scheduler
//!   lock state); [`ServiceMetrics::refresh`] copies them into the registry
//!   at snapshot time so one exposition covers everything.
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

use crate::cache::CacheStats;
use crate::job::ServiceCounters;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tqsim::OpCounts;
use tqsim_cluster::ClusterObs;
use tqsim_engine::PoolStats;
use tqsim_obs::{Gauge, Histogram, Registry};

/// The per-stage latency histogram family name.
pub(crate) const STAGE_HIST: &str = "tqsim_job_stage_ns";

/// The five stage labels, in pipeline order.
pub(crate) const STAGES: [&str; 5] = ["queue_wait", "compile", "execute", "stream", "e2e"];

/// Pre-registered live instruments plus the registry they live in.
pub(crate) struct ServiceMetrics {
    /// The instrument directory everything registers into.
    pub registry: Arc<Registry>,
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
    /// Jobs waiting for a scheduler slot right now.
    pub queue_depth: Arc<Gauge>,
    /// Jobs executing on the single-node engine right now.
    pub inflight_single: Arc<Gauge>,
    /// Jobs executing on the cluster engine right now.
    pub inflight_cluster: Arc<Gauge>,
    /// Per-kind operation totals accumulated from completed jobs' results.
    ops: OpTotals,
    /// Communication totals shared with every observed distributed state.
    pub cluster: Arc<ClusterObs>,
}

/// `tqsim_ops_total{kind=…}` counters, one per [`OpCounts`] field,
/// pre-registered so the completion path stays lock-free.
struct OpTotals {
    gates_1q: Arc<tqsim_obs::Counter>,
    gates_2q: Arc<tqsim_obs::Counter>,
    gates_3q: Arc<tqsim_obs::Counter>,
    noise_ops: Arc<tqsim_obs::Counter>,
    state_copies: Arc<tqsim_obs::Counter>,
    state_resets: Arc<tqsim_obs::Counter>,
    samples: Arc<tqsim_obs::Counter>,
    amp_passes: Arc<tqsim_obs::Counter>,
    fused_gates: Arc<tqsim_obs::Counter>,
    nodes_shared: Arc<tqsim_obs::Counter>,
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

/// Scheduler-lock values copied into gauges by [`ServiceMetrics::refresh`].
pub(crate) struct GaugeRefresh {
    /// Jobs waiting for a slot.
    pub queued: usize,
    /// Jobs executing right now.
    pub running: usize,
    /// Most jobs ever executing at once.
    pub running_high_water: usize,
    /// Terminal records retained in the registry.
    pub retained: usize,
}

impl ServiceMetrics {
    /// A fresh registry with every live instrument pre-registered.
    pub(crate) fn new() -> Arc<Self> {
        let registry = Registry::new();
        let stage = |s: &str| registry.histogram(STAGE_HIST, &[("stage", s)]);
        Arc::new(ServiceMetrics {
            queue_wait_ns: stage(STAGES[0]),
            compile_ns: stage(STAGES[1]),
            execute_ns: stage(STAGES[2]),
            stream_ns: stage(STAGES[3]),
            e2e_ns: stage(STAGES[4]),
            queue_depth: registry.gauge("tqsim_queue_depth", &[]),
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

    /// Copy the mirrored values (service counters, cache stats, per-engine
    /// pool stats, scheduler gauges) into the registry, so the next
    /// snapshot / exposition is a complete, coherent view.
    pub(crate) fn refresh(
        &self,
        counters: &ServiceCounters,
        cache: &CacheStats,
        pools: &[(&'static str, PoolStats)],
        gauges: GaugeRefresh,
    ) {
        let r = &self.registry;
        let mirror = |name: &str, v: u64| r.counter(name, &[]).set(v);
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        mirror("tqsim_jobs_submitted_total", load(&counters.submitted));
        mirror("tqsim_jobs_rejected_total", load(&counters.rejected));
        mirror("tqsim_jobs_completed_total", load(&counters.completed));
        mirror("tqsim_jobs_failed_total", load(&counters.failed));
        mirror("tqsim_jobs_cancelled_total", load(&counters.cancelled));
        mirror("tqsim_jobs_aborted_total", load(&counters.aborted));
        mirror("tqsim_jobs_retried_total", load(&counters.retried));
        mirror("tqsim_jobs_timed_out_total", load(&counters.timed_out));
        mirror("tqsim_jobs_degraded_total", load(&counters.degraded));
        mirror("tqsim_jobs_forgotten_total", load(&counters.forgotten));
        mirror(
            "tqsim_chunks_streamed_total",
            load(&counters.chunks_streamed),
        );
        mirror(
            "tqsim_outcomes_streamed_total",
            load(&counters.outcomes_streamed),
        );
        r.counter("tqsim_jobs_placed_total", &[("backend", "single_node")])
            .set(load(&counters.single_node_jobs));
        r.counter("tqsim_jobs_placed_total", &[("backend", "cluster")])
            .set(load(&counters.cluster_jobs));

        mirror("tqsim_plan_cache_hits_total", cache.hits);
        mirror("tqsim_plan_cache_misses_total", cache.misses);
        mirror("tqsim_plan_cache_evictions_total", cache.evictions);
        mirror("tqsim_plan_cache_compiled_total", cache.compiled);
        r.gauge("tqsim_plan_cache_entries", &[])
            .set(cache.entries as i64);

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
        mirror("tqsim_amp_pool_tasks", amp.tasks);
        mirror("tqsim_amp_pool_busy_ns", amp.busy_ns);
        r.gauge("tqsim_amp_pool_threads", &[])
            .set(amp.threads as i64);

        self.queue_depth.set(gauges.queued as i64);
        r.gauge("tqsim_jobs_running", &[])
            .set(gauges.running as i64);
        r.gauge("tqsim_running_high_water", &[])
            .set_max(gauges.running_high_water as i64);
        r.gauge("tqsim_retained_jobs", &[])
            .set(gauges.retained as i64);
    }
}
