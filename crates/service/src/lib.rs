//! # tqsim-service
//!
//! A **concurrent job-queue service layer** over [`tqsim-engine`]: the
//! shape a production simulator presents to many clients at once, with the
//! paper's computational-reuse idea pushed one level further up the stack —
//! identical circuits submitted by *different clients at different times*
//! compile once and replay everywhere.
//!
//! The pieces, front to back:
//!
//! - **Admission + fairness** ([`SubmitError`], [`ServiceConfig`]): a
//!   bounded submission queue with a global and a per-client capacity;
//!   over-capacity submissions are refused explicitly (backpressure, never
//!   a silent stall), and the scheduler drains clients round-robin so one
//!   flooding client cannot starve the rest.
//! - **Overlapping scheduler** ([`Service`]): up to `max_concurrent_jobs`
//!   jobs run on one shared engine pool at once via the engine's
//!   multi-tenant [`Engine::start`] path. Small-tree jobs that cannot
//!   saturate the workers overlap; every job's `Counts` stay bit-identical
//!   to a serial `Engine::submit` run because node RNG streams derive only
//!   from the job's own seed and tree path.
//! - **Cross-request plan reuse**: every job plans through the
//!   single-node engine's [`PlanCache`], whichever engine runs it, so plans
//!   keyed by `(circuit fingerprint, noise, strategy, shots)` are compiled
//!   once per distinct key and replayed for every later request (LRU
//!   eviction, hit/miss/eviction counters in [`ServiceStats`]).
//! - **Streaming results** ([`Ticket`]): leaf-batch outcome chunks are
//!   delivered to the client handle while the job is still executing;
//!   [`Ticket::wait`] returns the full histogram at the end.
//! - **Wire protocol** ([`wire`]): a std-only `TcpListener` front-end
//!   speaking line-delimited JSON ([`tqsim_json`], hand-rolled — no serde
//!   in the offline workspace) with `submit`/`poll`/`stream`/`cancel`/
//!   `result`/`stats`/`metrics` verbs.
//! - **Observability** ([`Service::metrics`], the `metrics` verb): a
//!   workspace-wide registry ([`tqsim_obs`], re-exported as [`obs`]) of
//!   per-stage job latency histograms (queue-wait / compile / execute /
//!   stream / end-to-end, with p50/p90/p99), the job and plan-cache
//!   counters [`Service::stats`] reads back, queue-depth and per-backend
//!   in-flight gauges, engine worker busy/steal counters and cluster
//!   exchange totals — as a structured snapshot or a Prometheus-style
//!   text exposition.
//!
//! ```
//! use std::sync::Arc;
//! use tqsim_circuit::generators;
//! use tqsim_service::{JobRequest, Service, ServiceConfig};
//!
//! let service = Service::start(
//!     ServiceConfig::default().parallelism(2).max_concurrent_jobs(2),
//! );
//! let circuit = Arc::new(generators::qft(6));
//!
//! // Two clients, same circuit: the second submission hits the plan cache.
//! let a = service
//!     .submit("alice", JobRequest::new(Arc::clone(&circuit)).shots(64).seed(1))
//!     .unwrap();
//! let b = service
//!     .submit("bob", JobRequest::new(circuit).shots(64).seed(2))
//!     .unwrap();
//!
//! // Stream alice's outcomes as leaf batches land…
//! let mut streamed = 0;
//! while let Some(chunk) = a.next_chunk() {
//!     streamed += chunk.len();
//! }
//! assert!(streamed >= 64);
//! // …and collect bob's final histogram.
//! assert!(b.wait().unwrap().counts.total() >= 64);
//!
//! let stats = service.stats();
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.cache.misses, 1, "one compile");
//! assert_eq!(stats.cache.hits, 1, "one cross-client cache hit");
//! service.shutdown();
//! ```
//!
//! [`tqsim-engine`]: tqsim_engine
//! [`Engine::start`]: tqsim_engine::Engine::start
//! [`PlanCache`]: tqsim_engine::PlanCache

#![warn(missing_docs)]

pub mod job;
mod metrics;
mod queue;
pub mod service;
pub mod wire;

/// The observability toolkit this service instruments itself with
/// (re-exported so callers can consume [`Service::metrics`] snapshots
/// without a separate dependency).
pub use tqsim_obs as obs;

pub use job::{ChunkPoll, JobError, JobId, JobStatus, Ticket};
pub use queue::SubmitError;
pub use service::{
    run_one, BackendPolicy, ClusterTransport, JobRequest, RetryPolicy, Service, ServiceConfig,
    ServiceStats,
};
pub use wire::{serve, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tqsim_circuit::generators;
    use tqsim_engine::{Engine, EngineConfig, JobSpec};
    use tqsim_noise::NoiseModel;

    fn small_service(max_jobs: usize) -> Arc<Service> {
        Service::start(
            ServiceConfig::default()
                .parallelism(2)
                .max_concurrent_jobs(max_jobs),
        )
    }

    #[test]
    fn service_counts_match_direct_engine_submit() {
        let circuit = generators::qft(6);
        let engine = Engine::new(EngineConfig::default().parallelism(2));
        let reference = engine
            .submit(vec![JobSpec::new(&circuit).shots(64).seed(11)])
            .run()
            .unwrap()
            .jobs
            .remove(0);

        let service = small_service(2);
        let result = service
            .submit(
                "c",
                JobRequest::new(Arc::new(circuit.clone()))
                    .shots(64)
                    .seed(11),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(result.counts, reference.counts);
        assert_eq!(result.ops, reference.ops);
        service.shutdown();
    }

    #[test]
    fn repeated_circuit_hits_the_plan_cache() {
        let service = small_service(1);
        let circuit = Arc::new(generators::qft(6));
        let distinct = Arc::new(generators::bv(6));
        for seed in 0..3 {
            service
                .submit(
                    "a",
                    JobRequest::new(Arc::clone(&circuit)).shots(32).seed(seed),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        service
            .submit("a", JobRequest::new(distinct).shots(32).seed(9))
            .unwrap()
            .wait()
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache.compiled, 2, "one compile per distinct circuit");
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.completed, 4);
        service.shutdown();
    }

    #[test]
    fn streaming_chunks_cover_the_histogram() {
        let service = small_service(2);
        let circuit = Arc::new(generators::qft(6));
        let ticket = service
            .submit(
                "s",
                JobRequest::new(circuit)
                    .shots(30)
                    .strategy(tqsim::Strategy::Custom {
                        arities: vec![5, 3, 2],
                    })
                    .seed(3),
            )
            .unwrap();
        let mut streamed = Vec::new();
        while let Some(chunk) = ticket.next_chunk() {
            streamed.extend(chunk);
        }
        let result = ticket.wait().unwrap();
        assert_eq!(streamed.len() as u64, result.counts.total());
        let mut histogram = tqsim::Counts::new(6);
        for o in streamed {
            histogram.increment(o);
        }
        assert_eq!(histogram, result.counts);
        service.shutdown();
    }

    #[test]
    fn backpressure_is_deterministic_under_pause() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .queue_capacity(2),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let t1 = service
            .submit("a", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(1))
            .unwrap();
        let t2 = service
            .submit("b", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(2))
            .unwrap();
        let refused = service.submit("c", JobRequest::new(circuit).shots(8).seed(3));
        assert!(matches!(
            refused,
            Err(SubmitError::QueueFull { capacity: 2 })
        ));
        assert_eq!(service.stats().rejected, 1);
        service.resume_scheduling();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn per_client_cap_spares_other_clients() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .queue_capacity(16)
                .per_client_capacity(1),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let kept = service
            .submit(
                "flood",
                JobRequest::new(Arc::clone(&circuit)).shots(8).seed(1),
            )
            .unwrap();
        let refused = service.submit(
            "flood",
            JobRequest::new(Arc::clone(&circuit)).shots(8).seed(2),
        );
        assert!(matches!(
            refused,
            Err(SubmitError::ClientQueueFull { capacity: 1 })
        ));
        let other = service
            .submit("polite", JobRequest::new(circuit).shots(8).seed(3))
            .unwrap();
        service.resume_scheduling();
        assert!(kept.wait().is_ok());
        assert!(other.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn queued_cancellation_never_runs() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let ticket = service
            .submit("a", JobRequest::new(circuit).shots(8).seed(1))
            .unwrap();
        assert!(ticket.cancel());
        assert!(!ticket.cancel(), "second cancel is a no-op");
        service.resume_scheduling();
        assert!(matches!(ticket.wait(), Err(JobError::Cancelled)));
        assert!(ticket.next_chunk().is_none());
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 0);
        service.shutdown();
    }

    #[test]
    fn failed_planning_reports_through_the_ticket() {
        let service = small_service(1);
        // An empty circuit cannot be planned.
        let ticket = service
            .submit(
                "a",
                JobRequest::new(Arc::new(tqsim_circuit::Circuit::new(3))),
            )
            .unwrap();
        match ticket.wait() {
            Err(JobError::Failed(msg)) => assert!(msg.contains("no gates"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(service.stats().failed, 1);
        service.shutdown();
    }

    #[test]
    fn a_strategy_whose_tree_overflows_fails_planning() {
        // Unchecked, this wire strategy planned a root arity of u64::MAX
        // and the engine set out to inject that many root tasks.
        let strategy = wire::strategy_from_json(
            &tqsim_json::parse(r#"{"kind":"exponential","k":64}"#).unwrap(),
        )
        .unwrap();
        let service = small_service(1);
        let ticket = service
            .submit(
                "a",
                JobRequest::new(Arc::new(generators::qft(14))).strategy(strategy),
            )
            .unwrap();
        match ticket.wait() {
            Err(err @ JobError::Failed(_)) => {
                assert_eq!(err.code(), "job_failed");
                assert!(err.to_string().contains("overflows"), "{err}");
            }
            other => panic!("expected a planning failure, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!((stats.failed, stats.completed), (1, 0));
        service.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_jobs_and_refuses_new_ones() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let queued = service
            .submit("a", JobRequest::new(Arc::clone(&circuit)).shots(8))
            .unwrap();
        service.shutdown();
        assert!(matches!(queued.wait(), Err(JobError::Failed(_))));
        assert!(matches!(
            service.submit("a", JobRequest::new(circuit)),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn queued_cancellation_frees_admission_slot_eagerly() {
        // Cancel-heavy admission: with scheduling paused, cancelling a
        // queued job must re-open its slot immediately — no scheduler pop
        // is ever involved.
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .queue_capacity(2),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let kept = service
            .submit("a", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(1))
            .unwrap();
        let doomed = service
            .submit("b", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(2))
            .unwrap();
        assert!(matches!(
            service.submit("c", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(3)),
            Err(SubmitError::QueueFull { .. })
        ));
        assert!(doomed.cancel());
        assert_eq!(service.stats().queued_now, 1, "slot freed without a pop");
        let admitted = service
            .submit("c", JobRequest::new(circuit).shots(8).seed(3))
            .expect("eagerly freed slot admits a new job");
        service.resume_scheduling();
        assert!(kept.wait().is_ok());
        assert!(admitted.wait().is_ok());
        assert!(matches!(doomed.wait(), Err(JobError::Cancelled)));
        service.shutdown();
    }

    #[test]
    fn retention_ttl_sweeps_and_forget_drops_finished_records() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .retention_ttl(Some(std::time::Duration::ZERO)),
        );
        let circuit = Arc::new(generators::bv(5));
        let a = service
            .submit("a", JobRequest::new(Arc::clone(&circuit)).shots(8).seed(1))
            .unwrap();
        a.wait().unwrap();
        // Terminal + zero TTL ⇒ the next sweep drops the record.
        service.sweep_retention();
        let stats = service.stats();
        assert_eq!(stats.retained_jobs, 0, "expired record swept");
        assert_eq!(stats.forgotten, 1);
        assert!(service.lookup(a.id()).is_none(), "record gone after sweep");
        // The ticket itself keeps working: it holds the record directly.
        assert!(a.wait().is_ok());

        // Explicit forget: refused while live, honoured once terminal.
        service.pause_scheduling();
        let live = service
            .submit("a", JobRequest::new(circuit).shots(8).seed(2))
            .unwrap();
        assert!(!service.forget(live.id()), "live jobs are never forgotten");
        service.resume_scheduling();
        live.wait().unwrap();
        assert!(service.forget(live.id()));
        assert!(!service.forget(live.id()), "second forget is a no-op");
        assert!(service.lookup(live.id()).is_none());
        service.shutdown();
    }

    #[test]
    fn ticket_timeout_apis_report_progress_without_parking() {
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1),
        );
        service.pause_scheduling();
        let circuit = Arc::new(generators::bv(5));
        let ticket = service
            .submit("a", JobRequest::new(circuit).shots(8).seed(1))
            .unwrap();
        // Queued forever (paused): bounded waits must come back.
        let t0 = std::time::Instant::now();
        assert!(ticket
            .wait_timeout(std::time::Duration::from_millis(20))
            .is_none());
        assert_eq!(
            ticket.next_chunk_timeout(std::time::Duration::from_millis(20)),
            ChunkPoll::TimedOut
        );
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        service.resume_scheduling();
        let result = ticket
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("resumed job finishes")
            .unwrap();
        assert!(result.counts.total() >= 8);
        // Terminal with everything drained ⇒ Terminal, not TimedOut.
        while let ChunkPoll::Chunk(_) =
            ticket.next_chunk_timeout(std::time::Duration::from_millis(20))
        {}
        assert_eq!(
            ticket.next_chunk_timeout(std::time::Duration::from_millis(20)),
            ChunkPoll::Terminal
        );
        service.shutdown();
    }

    #[test]
    fn backend_policy_routes_wide_jobs_to_the_cluster_engine() {
        // Placement is width-driven and result-invariant: the same request
        // must produce bit-identical Counts on a single-node-only service
        // and on one that routes it to the cluster backend.
        let circuit = Arc::new(generators::qft(8));
        let request = || {
            JobRequest::new(Arc::clone(&circuit))
                .shots(24)
                .strategy(tqsim::Strategy::Custom {
                    arities: vec![4, 3, 2],
                })
                .seed(7)
        };
        let single = small_service(2);
        let reference = single.submit("a", request()).unwrap().wait().unwrap();
        single.shutdown();

        let routed = Service::start(
            ServiceConfig::default()
                .parallelism(2)
                .max_concurrent_jobs(2)
                .backend_policy(BackendPolicy::cluster_above(8, 4)),
        );
        // Below threshold ⇒ single-node; at/above ⇒ cluster.
        let narrow = Arc::new(generators::bv(6));
        routed
            .submit("a", JobRequest::new(narrow).shots(8).seed(1))
            .unwrap()
            .wait()
            .unwrap();
        let wide = routed.submit("a", request()).unwrap().wait().unwrap();
        assert_eq!(wide.counts, reference.counts, "placement-invariant");
        let stats = routed.stats();
        assert_eq!(stats.single_node_jobs, 1);
        assert_eq!(stats.cluster_jobs, 1);
        routed.shutdown();
    }

    #[test]
    fn infeasible_cluster_width_falls_back_to_single_node() {
        // 5 qubits over 8 nodes leaves < 3 local qubits: the policy says
        // cluster, feasibility says no — the job must still run (single-
        // node) rather than fail. A job that no engine can hold is refused
        // at placement instead, before any worker tries to allocate it:
        // 31 qubits on a single-node service, and 34 qubits over 8 nodes
        // (31 local qubits per node). One state holds at most 30.
        let wide = |n: u16| {
            let mut c = tqsim_circuit::Circuit::new(n);
            c.h(0);
            Arc::new(c)
        };
        for (policy, too_wide) in [
            (BackendPolicy::default(), 31),
            (BackendPolicy::cluster_above(4, 8), 34),
        ] {
            let service = Service::start(
                ServiceConfig::default()
                    .parallelism(1)
                    .max_concurrent_jobs(1)
                    .backend_policy(policy),
            );
            let refused = service
                .submit("a", JobRequest::new(wide(too_wide)).shots(8).seed(3))
                .unwrap()
                .wait();
            assert!(
                matches!(refused, Err(JobError::BackendUnavailable(_))),
                "{too_wide} qubits: {refused:?}"
            );
            let circuit = Arc::new(generators::bv(5));
            let result = service
                .submit("a", JobRequest::new(circuit).shots(8).seed(3))
                .unwrap()
                .wait()
                .unwrap();
            assert!(result.counts.total() >= 8);
            let stats = service.stats();
            assert_eq!(stats.aborted, 0, "{too_wide} qubits aborted a job");
            assert_eq!(stats.cluster_jobs, 0);
            assert_eq!(stats.single_node_jobs, 1);
            service.shutdown();
        }
    }

    #[test]
    fn concurrent_clients_with_ideal_noise() {
        let service = small_service(4);
        let circuit = Arc::new(generators::bv(6));
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                service
                    .submit(
                        &format!("client-{i}"),
                        JobRequest::new(Arc::clone(&circuit))
                            .noise(NoiseModel::ideal())
                            .shots(16)
                            .seed(i),
                    )
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let result = ticket.wait().unwrap();
            assert!(result.counts.total() >= 16);
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 4);
        assert!(stats.running_high_water >= 1);
        service.shutdown();
    }

    /// `Ticket::wait` unblocks on the finish notification, slightly before
    /// the executor's completion hook returns the scheduler slot and
    /// decrements the in-flight gauge — poll briefly until both drain.
    fn wait_drained(service: &Service) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let idle = service.stats().running_now == 0
                && service
                    .metrics()
                    .gauge("tqsim_jobs_inflight", &[("backend", "single_node")])
                    == Some(0);
            if idle || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn metrics_stage_histograms_count_completed_jobs() {
        let service = small_service(2);
        let circuit = Arc::new(generators::qft(6));
        for seed in 0..3 {
            service
                .submit(
                    "m",
                    JobRequest::new(Arc::clone(&circuit)).shots(16).seed(seed),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        wait_drained(&service);
        let snap = service.metrics();
        // Every stage histogram records exactly once per completed job —
        // never on failure or cancellation — so counts match completions.
        let mut sums = std::collections::HashMap::new();
        for stage in crate::metrics::STAGES {
            let h = snap
                .histogram(crate::metrics::STAGE_HIST, &[("stage", stage)])
                .unwrap_or_else(|| panic!("stage {stage} registered"));
            assert_eq!(h.count, 3, "stage {stage}");
            sums.insert(stage, h.sum);
        }
        // The first three stages telescope over the same instants.
        assert_eq!(
            sums["queue_wait"] + sums["compile"] + sums["execute"],
            sums["e2e"]
        );
        // The job counters are the ones the stats snapshot reads.
        assert_eq!(snap.counter("tqsim_jobs_completed_total", &[]), Some(3));
        assert_eq!(
            snap.counter("tqsim_jobs_placed_total", &[("backend", "single_node")]),
            Some(3)
        );
        assert!(
            snap.counter("tqsim_ops_total", &[("kind", "gates_2q")])
                .unwrap()
                > 0
        );
        assert_eq!(snap.gauge("tqsim_queue_depth", &[]), Some(0));
        assert_eq!(
            snap.gauge("tqsim_jobs_inflight", &[("backend", "single_node")]),
            Some(0)
        );
        // The process-wide amplitude pool's stats are refreshed in too.
        assert!(snap.counter("tqsim_amp_pool_tasks", &[]).is_some());
        assert!(snap.counter("tqsim_amp_pool_busy_ns", &[]).is_some());
        assert!(snap.gauge("tqsim_amp_pool_threads", &[]).unwrap() >= 1);
        // The engine registered its per-worker instruments and did work.
        assert!(snap
            .counter(
                "tqsim_engine_tasks_total",
                &[("engine", "single_node"), ("worker", "0")]
            )
            .is_some());
        // Exposition and events are live too.
        let text = service.metrics_text();
        assert!(text.contains("# TYPE tqsim_job_stage_ns histogram"));
        assert!(text.contains("tqsim_jobs_completed_total 3"));
        let events = service.metrics_events();
        assert!(events.iter().any(|e| e.stage == "done"));
        service.shutdown();
    }

    #[test]
    fn observability_off_drops_only_the_engine_instruments() {
        // The switch decides whether the engines register their per-worker
        // instruments; the service's own counters and histograms are the
        // store `stats` reads, so they are always served.
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .observability(false),
        );
        let circuit = Arc::new(generators::bv(5));
        service
            .submit("a", JobRequest::new(circuit).shots(8).seed(1))
            .unwrap()
            .wait()
            .unwrap();
        wait_drained(&service);
        let snap = service.metrics();
        assert_eq!(snap.counter("tqsim_jobs_completed_total", &[]), Some(1));
        for stage in crate::metrics::STAGES {
            let h = snap
                .histogram(crate::metrics::STAGE_HIST, &[("stage", stage)])
                .unwrap_or_else(|| panic!("stage {stage} registered"));
            assert_eq!(h.count, 1, "stage {stage}");
        }
        assert!(
            snap.counters
                .iter()
                .all(|c| c.name != "tqsim_engine_tasks_total"),
            "no engine worker instruments without observability"
        );
        assert!(service
            .metrics_text()
            .contains("tqsim_jobs_completed_total 1"));
        assert!(service.metrics_events().iter().any(|e| e.stage == "done"));
        service.shutdown();
    }

    #[test]
    fn every_stats_counter_is_its_registry_instrument() {
        // One scenario that moves every entry below except `aborted`,
        // `retried` and `degraded`, which need injected faults
        // (`tests/integration_chaos.rs` moves those).
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(1)
                .max_concurrent_jobs(1)
                .queue_capacity(1)
                .backend_policy(BackendPolicy::cluster_above(8, 2)),
        );
        let narrow = Arc::new(generators::bv(5));
        let request = |seed| JobRequest::new(Arc::clone(&narrow)).shots(8).seed(seed);
        // Miss, then hit: single-node.
        let first = service.submit("a", request(1)).unwrap();
        first.wait().unwrap();
        service.submit("a", request(2)).unwrap().wait().unwrap();
        // Miss: cluster.
        let wide = JobRequest::new(Arc::new(generators::qft(8))).shots(8);
        service.submit("a", wide).unwrap().wait().unwrap();
        // Fill the cache: the last of these distinct plans is one past
        // its capacity and evicts the coldest.
        let fill = tqsim_engine::PLAN_CACHE_CAPACITY as u64 - 1;
        for shots in 9..9 + fill {
            let distinct = JobRequest::new(Arc::clone(&narrow)).shots(shots);
            service.submit("a", distinct).unwrap().wait().unwrap();
        }
        // Plan failure.
        let empty = JobRequest::new(Arc::new(tqsim_circuit::Circuit::new(3)));
        assert!(service.submit("a", empty).unwrap().wait().is_err());
        // Cancel, queue-full reject and deadline, all while queued.
        service.pause_scheduling();
        let queued = service.submit("a", request(3)).unwrap();
        assert!(service.submit("a", request(4)).is_err());
        assert!(queued.cancel());
        let late = request(5).deadline(std::time::Duration::from_millis(1));
        let late = service.submit("a", late).unwrap();
        assert_eq!(late.wait().unwrap_err(), JobError::DeadlineExceeded);
        service.resume_scheduling();
        assert!(service.forget(first.id()));
        wait_drained(&service);

        let stats = service.stats();
        let snap = service.metrics();
        type Labels<'a> = &'a [(&'a str, &'a str)];
        let single: Labels = &[("backend", "single_node")];
        let cluster: Labels = &[("backend", "cluster")];
        #[rustfmt::skip]
        let counters: [(&str, u64, &str, Labels); 18] = [
            ("submitted", stats.submitted, "tqsim_jobs_submitted_total", &[]),
            ("rejected", stats.rejected, "tqsim_jobs_rejected_total", &[]),
            ("completed", stats.completed, "tqsim_jobs_completed_total", &[]),
            ("failed", stats.failed, "tqsim_jobs_failed_total", &[]),
            ("cancelled", stats.cancelled, "tqsim_jobs_cancelled_total", &[]),
            ("aborted", stats.aborted, "tqsim_jobs_aborted_total", &[]),
            ("retried", stats.retried, "tqsim_jobs_retried_total", &[]),
            ("timed_out", stats.timed_out, "tqsim_jobs_timed_out_total", &[]),
            ("degraded", stats.degraded, "tqsim_jobs_degraded_total", &[]),
            ("forgotten", stats.forgotten, "tqsim_jobs_forgotten_total", &[]),
            ("chunks_streamed", stats.chunks_streamed, "tqsim_chunks_streamed_total", &[]),
            ("outcomes_streamed", stats.outcomes_streamed, "tqsim_outcomes_streamed_total", &[]),
            ("single_node_jobs", stats.single_node_jobs, "tqsim_jobs_placed_total", single),
            ("cluster_jobs", stats.cluster_jobs, "tqsim_jobs_placed_total", cluster),
            ("cache.hits", stats.cache.hits, "tqsim_plan_cache_hits_total", &[]),
            ("cache.misses", stats.cache.misses, "tqsim_plan_cache_misses_total", &[]),
            ("cache.evictions", stats.cache.evictions, "tqsim_plan_cache_evictions_total", &[]),
            ("cache.compiled", stats.cache.compiled, "tqsim_plan_cache_compiled_total", &[]),
        ];
        for (field, value, name, labels) in counters {
            assert_eq!(snap.counter(name, labels), Some(value), "{field} vs {name}");
            let needs_faults = matches!(field, "aborted" | "retried" | "degraded");
            assert_eq!(value > 0, !needs_faults, "{field} = {value}");
        }
        #[rustfmt::skip]
        let gauges: [(&str, usize, &str); 5] = [
            ("queued_now", stats.queued_now, "tqsim_queue_depth"),
            ("running_now", stats.running_now, "tqsim_jobs_running"),
            ("running_high_water", stats.running_high_water, "tqsim_running_high_water"),
            ("retained_jobs", stats.retained_jobs, "tqsim_retained_jobs"),
            ("cache.entries", stats.cache.entries, "tqsim_plan_cache_entries"),
        ];
        for (field, value, name) in gauges {
            assert_eq!(
                snap.gauge(name, &[]),
                Some(value as i64),
                "{field} vs {name}"
            );
        }
        assert_eq!(
            (
                stats.submitted,
                stats.rejected,
                stats.completed,
                stats.failed
            ),
            (6 + fill, 1, 3 + fill, 1)
        );
        assert_eq!(
            (stats.cancelled, stats.timed_out, stats.forgotten),
            (1, 1, 1)
        );
        assert_eq!((stats.single_node_jobs, stats.cluster_jobs), (2 + fill, 1));
        assert_eq!(
            (stats.cache.hits, stats.cache.misses, stats.cache.evictions),
            (1, 3 + fill, 1)
        );
        assert_eq!(
            (stats.cache.compiled, stats.cache.entries),
            (2 + fill, tqsim_engine::PLAN_CACHE_CAPACITY)
        );
        assert_eq!(stats.running_high_water, 1);
        service.shutdown();
    }

    #[test]
    fn a_pending_deadline_does_not_pin_a_forgotten_job() {
        let service = small_service(1);
        let request = JobRequest::new(Arc::new(generators::bv(5)))
            .shots(8)
            .deadline(std::time::Duration::from_secs(3600));
        let ticket = service.submit("a", request).unwrap();
        ticket.wait().unwrap();
        assert!(service.forget(ticket.id()));
        let record = Arc::downgrade(&ticket.record);
        drop(ticket);
        // The engine drops its completion wiring just after the ticket
        // wakes; give it a moment, far short of the deadline.
        let until = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while record.upgrade().is_some() && std::time::Instant::now() < until {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            record.upgrade().is_none(),
            "the pending deadline keeps the forgotten record (and its result) alive"
        );
        service.shutdown();
    }

    #[test]
    fn running_high_water_is_bounded_and_monotonic() {
        // Regression: the high-water mark is an atomic `fetch_max` updated
        // at pop time; under concurrency it must never exceed the
        // configured cap, never decrease, and never read torn/stale lows
        // after jobs drain.
        let service = Service::start(
            ServiceConfig::default()
                .parallelism(2)
                .max_concurrent_jobs(2),
        );
        let circuit = Arc::new(generators::qft(7));
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                service
                    .submit(
                        &format!("c{i}"),
                        JobRequest::new(Arc::clone(&circuit)).shots(32).seed(i),
                    )
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        wait_drained(&service);
        let first = service.stats();
        assert!(first.running_high_water >= 1);
        assert!(first.running_high_water <= 2, "never exceeds the cap");
        assert_eq!(first.running_now, 0, "all drained");
        let second = service.stats();
        assert!(
            second.running_high_water >= first.running_high_water,
            "monotonic across snapshots"
        );
        assert!(second.snapshot_seq > first.snapshot_seq);
        service.shutdown();
    }

    #[test]
    fn stats_carry_uptime_and_snapshot_seq() {
        let service = small_service(1);
        let a = service.stats();
        let b = service.stats();
        assert_eq!(b.snapshot_seq, a.snapshot_seq + 1, "strictly increasing");
        assert!(b.uptime_secs >= a.uptime_secs);
        service.shutdown();
    }
}
