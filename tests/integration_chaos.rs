//! Chaos integration suite: deterministic failpoints injected into the
//! full service stack (TCP wire front-end → scheduler → engine → cluster)
//! must be contained to the faulted job, retried to bit-identical
//! `Counts`, degraded across backends, and accounted exactly — while
//! every non-faulted job completes untouched.
//!
//! The failpoint registry is process-global, so every test that arms a
//! site serializes on one gate and resets the registry on entry. The
//! `chaos_matrix` test at the bottom is the CI entry point: gated on
//! `TQSIM_CHAOS_MODE`, it runs a fixed-seed scenario per mode and writes
//! a `CHAOS_<mode>.json` summary artifact.

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tqsim::{Counts, Strategy as PlanStrategy};
use tqsim_circuit::generators;
use tqsim_faults::FaultConfig;
use tqsim_json as json;
use tqsim_service::{
    wire, BackendPolicy, JobError, JobRequest, RetryPolicy, Service, ServiceConfig,
};

// ------------------------------------------------------------- harness

/// Serialize fault-arming tests (the registry is process-global) and
/// guarantee a clean registry on entry.
fn chaos_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    tqsim_faults::reset_all();
    quiet_injected_panics();
    gate
}

/// Injected panics are expected output here; keep the default hook from
/// spamming stderr with backtraces for them while leaving every other
/// panic loud. Installed once, process-wide.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|msg| msg.contains("injected fault at failpoint"))
                // Amplitude-pool workers panic with the FaultError itself.
                || info.payload().is::<tqsim_faults::FaultError>();
            if !injected {
                previous(info);
            }
        }));
    });
}

/// RAII failpoint reset: the registry is clean even when an assert fails.
struct ResetOnDrop;

impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        tqsim_faults::reset_all();
    }
}

fn request(circuit: &Arc<tqsim_circuit::Circuit>, seed: u64) -> JobRequest {
    JobRequest::new(Arc::clone(circuit))
        .shots(12)
        .strategy(PlanStrategy::Custom {
            arities: vec![4, 3],
        })
        .seed(seed)
}

/// Fault-free reference counts for one request. Only sites the reference
/// workload never reaches (or spent one-shot triggers) may still be
/// armed; callers arm `Always` faults after taking their references.
fn reference_counts(circuit: &Arc<tqsim_circuit::Circuit>, seed: u64) -> Counts {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1),
    );
    let counts = service
        .submit("reference", request(circuit, seed))
        .unwrap()
        .wait()
        .unwrap()
        .counts;
    service.shutdown();
    counts
}

/// Every slot and gauge must be back to idle once the work drains. A
/// ticket wait wakes on the terminal status transition, a beat before the
/// completion hook releases the scheduler slot — poll briefly first.
fn assert_quiescent(service: &Service) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = service.stats();
        if stats.running_now == 0 && stats.queued_now == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slots failed to drain: running={}, queued={}",
            stats.running_now,
            stats.queued_now
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for gauge in &service.metrics().gauges {
        if gauge.name == "tqsim_jobs_inflight" {
            assert_eq!(gauge.value, 0, "in-flight gauge {:?} drained", gauge.labels);
        }
    }
}

fn counter_value(service: &Service, name: &str) -> u64 {
    service
        .metrics()
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        let writer = stream.try_clone().expect("clone stream");
        WireClient {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn request(&mut self, line: &str) -> json::Value {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        json::parse(line.trim()).expect("response is JSON")
    }
}

fn submit_line(circuit: &tqsim_circuit::Circuit, seed: u64) -> String {
    json::Value::Obj(vec![
        ("op".into(), json::str_val("submit")),
        ("circuit".into(), wire::circuit_to_json(circuit)),
        ("shots".into(), json::num_u64(12)),
        (
            "strategy".into(),
            json::Value::Obj(vec![
                ("kind".into(), json::str_val("custom")),
                (
                    "arities".into(),
                    json::Value::Arr(vec![json::num_u64(4), json::num_u64(3)]),
                ),
            ]),
        ),
        ("seed".into(), json::num_u64(seed)),
    ])
    .to_json()
}

// ------------------------------------------------- panic containment

/// A worker panic injected under concurrent TCP clients fails exactly the
/// job it hit — with a structured code — while every other client's job
/// completes with counts bit-identical to a fault-free service.
#[test]
fn injected_panic_fails_one_job_while_concurrent_tcp_clients_complete() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(5));
    let seeds: Vec<u64> = (10..14).collect();
    let references: Vec<Counts> = seeds
        .iter()
        .map(|&s| reference_counts(&circuit, s))
        .collect();

    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    // Exactly one node task — of whichever job gets there first — panics.
    tqsim_faults::configure("engine.node_task", FaultConfig::panic().nth(1));

    // (ok, error code, counts rows) per client.
    type Outcome = (bool, Option<String>, Vec<(u64, u64)>);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let circuit = Arc::clone(&circuit);
                let addr = server.addr();
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr);
                    let submitted = client.request(&submit_line(&circuit, seed));
                    let job = submitted
                        .get("job")
                        .and_then(json::Value::as_u64)
                        .expect("admitted");
                    let result = client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
                    let ok = result.get("ok").and_then(json::Value::as_bool) == Some(true);
                    let code = result
                        .get("code")
                        .and_then(json::Value::as_str)
                        .map(str::to_string);
                    let counts: Vec<(u64, u64)> = result
                        .get("counts")
                        .and_then(json::Value::as_arr)
                        .map(|rows| {
                            rows.iter()
                                .map(|row| {
                                    let row = row.as_arr().expect("count row");
                                    (row[0].as_u64().unwrap(), row[1].as_u64().unwrap())
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    (ok, code, counts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let failed: Vec<_> = outcomes.iter().filter(|(ok, _, _)| !ok).collect();
    assert_eq!(failed.len(), 1, "exactly one job absorbs the panic");
    assert_eq!(
        failed[0].1.as_deref(),
        Some("job_aborted"),
        "structured abort code on the wire"
    );
    for ((ok, _, counts), reference) in outcomes.iter().zip(&references) {
        if *ok {
            let mut expected: Vec<(u64, u64)> = reference.iter().collect();
            expected.sort_unstable();
            assert_eq!(counts, &expected, "survivor counts are bit-identical");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.aborted, 1, "one job aborted");
    assert_eq!(stats.completed, 3, "the rest completed");
    assert_eq!(
        tqsim_faults::fired("engine.node_task"),
        1,
        "the failpoint fired exactly once"
    );
    assert_eq!(
        counter_value(&service, "tqsim_jobs_aborted_total"),
        1,
        "metrics mirror agrees with the injected fault count"
    );
    assert_quiescent(&service);

    // The service survives: a post-fault job on the same stack completes.
    let after = service
        .submit("after", request(&circuit, 99))
        .unwrap()
        .wait()
        .expect("service healthy after contained panic");
    assert_eq!(after.counts, reference_counts(&circuit, 99));
    server.stop();
    service.shutdown();
}

/// A panic injected inside an **amplitude-pool worker** (the `par.worker`
/// failpoint in the statevec kernels, underneath the engine's node tasks)
/// aborts only the job whose sweep it hit: the shared amplitude pool and
/// the engine worker pool both stay healthy, and a post-fault job on the
/// same service returns bit-identical counts.
#[test]
fn amplitude_worker_panic_aborts_job_and_leaves_pool_healthy() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    // Push the kernels onto the amplitude pool even at 5-qubit state
    // sizes, so the failpoint actually runs inside pool tasks; restore
    // the production threshold on exit.
    struct ParMinLenGuard;
    impl Drop for ParMinLenGuard {
        fn drop(&mut self) {
            tqsim_statevec::kernels::set_par_min_len(tqsim_statevec::kernels::DEFAULT_PAR_MIN_LEN);
        }
    }
    let _min_len = ParMinLenGuard;
    tqsim_statevec::kernels::set_par_min_len(1);

    let circuit = Arc::new(generators::qft(5));
    let reference = reference_counts(&circuit, 7);
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1),
    );
    tqsim_faults::configure("par.worker", FaultConfig::panic().nth(1));
    let err = service
        .submit("victim", request(&circuit, 7))
        .unwrap()
        .wait()
        .expect_err("amplitude-pool panic aborts the job");
    assert_eq!(err.code(), "job_aborted");
    assert_eq!(
        tqsim_faults::fired("par.worker"),
        1,
        "the amp-pool failpoint fired exactly once"
    );

    // The amplitude pool survived the contained panic: the same service
    // keeps doing parallel sweeps and the retried seed is bit-identical.
    tqsim_faults::reset_all();
    let tasks_before = rayon::pool_stats().tasks;
    let after = service
        .submit("after", request(&circuit, 7))
        .unwrap()
        .wait()
        .expect("pool healthy after contained amp-worker panic");
    assert_eq!(after.counts, reference, "post-fault counts bit-identical");
    assert!(
        rayon::pool_stats().tasks > tasks_before,
        "the post-fault job really ran on the amplitude pool"
    );
    let stats = service.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.completed, 1);
    assert_quiescent(&service);
    service.shutdown();
}

// ------------------------------------------------ retry determinism

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property: a job that succeeds after N injected
    /// transient faults returns `Counts` bit-identical to a zero-fault
    /// run with the same seed.
    ///
    /// `first:N` makes the N failed attempts deterministic: the root node
    /// task is each attempt's first (and, panicking before it spawns
    /// children, only) failpoint evaluation, so attempts 1..=N die
    /// instantly and attempt N+1 runs clean.
    #[test]
    fn retried_jobs_are_bit_identical_to_fault_free_runs(
        seed in 0u64..1000,
        faults in 1u64..4,
    ) {
        let _gate = chaos_gate();
        let _reset = ResetOnDrop;
        let circuit = Arc::new(generators::qft(5));
        // Single-root tree (arities [1, 12]): each attempt's first node
        // task is the lone root, which panics before spawning children —
        // so each failed attempt consumes exactly one trigger evaluation.
        let single_root = |seed: u64| {
            JobRequest::new(Arc::clone(&circuit))
                .shots(12)
                .strategy(PlanStrategy::Custom { arities: vec![1, 12] })
                .seed(seed)
        };
        let clean = Service::start(
            ServiceConfig::default().parallelism(2).max_concurrent_jobs(1),
        );
        let reference = clean
            .submit("reference", single_root(seed))
            .unwrap()
            .wait()
            .unwrap()
            .counts;
        clean.shutdown();

        let service = Service::start(
            ServiceConfig::default().parallelism(2).max_concurrent_jobs(1),
        );
        tqsim_faults::configure("engine.node_task", FaultConfig::panic().first(faults));
        let result = service
            .submit(
                "retrying",
                single_root(seed).retry(
                    RetryPolicy::attempts(faults as u32 + 1)
                        .initial_backoff(Duration::from_millis(1)),
                ),
            )
            .unwrap()
            .wait()
            .expect("job succeeds within the retry budget");
        prop_assert_eq!(&result.counts, &reference, "retried counts bit-identical");
        prop_assert_eq!(tqsim_faults::fired("engine.node_task"), faults);
        let stats = service.stats();
        prop_assert_eq!(stats.completed, 1);
        prop_assert_eq!(stats.retried, faults, "one retry per injected fault");
        prop_assert_eq!(stats.aborted, 0, "no terminal abort");
        service.shutdown();
    }
}

/// Same property on the cluster backend: a transient exchange fault is
/// retried in place and the retried counts match the clean cluster run.
#[test]
fn cluster_exchange_fault_retries_to_bit_identical_counts() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let cluster_config = || {
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1)
            .backend_policy(BackendPolicy::cluster_above(8, 4))
    };
    let clean = Service::start(cluster_config());
    let reference = clean
        .submit("reference", request(&circuit, 21))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        clean.stats().cluster_jobs,
        1,
        "reference ran on the cluster"
    );
    clean.shutdown();

    let service = Service::start(cluster_config());
    tqsim_faults::configure("cluster.exchange", FaultConfig::error().nth(1));
    let result = service
        .submit(
            "retrying",
            request(&circuit, 21)
                .retry(RetryPolicy::attempts(2).initial_backoff(Duration::from_millis(1))),
        )
        .unwrap()
        .wait()
        .expect("transient cluster fault retried");
    assert_eq!(result.counts, reference.counts, "retried cluster counts");
    let stats = service.stats();
    assert_eq!(stats.cluster_jobs, 1, "stayed on the cluster");
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.degraded, 0, "retry succeeded before degradation");
    service.shutdown();
}

// ---------------------------------------------------------- deadlines

/// A job held past its deadline by a slow-node fault fails with
/// `DeadlineExceeded`, frees its slot, and leaves the service healthy.
#[test]
fn deadline_exceeded_fails_the_slow_job_and_frees_its_slot() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::bv(5));
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1),
    );
    // Every node task dawdles; the 40ms deadline fires long before the
    // job can finish.
    tqsim_faults::configure(
        "engine.node_task",
        FaultConfig::delay(Duration::from_millis(60)),
    );
    let slow = service
        .submit(
            "slow",
            request(&circuit, 3).deadline(Duration::from_millis(40)),
        )
        .unwrap();
    let err = slow
        .wait()
        .expect_err("the deadline fails the job, not the service");
    assert_eq!(err, JobError::DeadlineExceeded);
    assert_eq!(err.code(), "deadline_exceeded");
    let stats = service.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 0);

    // The slot drains once the slow engine run finishes; a fresh job then
    // runs to completion with the fault disarmed.
    tqsim_faults::reset_all();
    let next = service
        .submit("next", request(&circuit, 4))
        .unwrap()
        .wait()
        .expect("slot freed after deadline abort");
    assert_eq!(next.counts, reference_counts(&circuit, 4));
    assert_eq!(service.stats().timed_out, 1, "deadline counted once");
    service.shutdown();
}

// ------------------------------------------------------ compile faults

/// A planning fault fails only the requesting job — the plan cache is not
/// poisoned, so resubmitting the identical circuit compiles and runs.
#[test]
fn compile_fault_fails_one_job_without_poisoning_the_plan_cache() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(5));
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1),
    );
    tqsim_faults::configure("service.plan", FaultConfig::error().nth(1));
    let err = service
        .submit("victim", request(&circuit, 5))
        .unwrap()
        .wait()
        .expect_err("injected plan fault fails the job");
    match &err {
        JobError::Failed(msg) => assert!(msg.contains("service.plan"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(err.code(), "job_failed");

    // Identical request, no fault: plans cleanly (errors are never cached).
    let ok = service
        .submit("retry", request(&circuit, 5))
        .unwrap()
        .wait()
        .expect("plan cache not poisoned by the failed compile");
    assert_eq!(ok.counts, reference_counts(&circuit, 5));
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    service.shutdown();
}

// -------------------------------------------------- cluster degradation

/// Persistent cluster faults degrade the job to the single-node engine
/// (counts identical — same plan, same seed) when it fits there…
#[test]
fn persistent_cluster_fault_degrades_to_single_node() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let reference = reference_counts(&circuit, 31);
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1)
            .backend_policy(BackendPolicy::cluster_above(8, 4)),
    );
    // Every exchange fails: both cluster attempts die, then degradation
    // re-places the job on the single-node engine, which never exchanges.
    tqsim_faults::configure("cluster.exchange", FaultConfig::error());
    let result = service
        .submit(
            "degraded",
            request(&circuit, 31)
                .retry(RetryPolicy::attempts(2).initial_backoff(Duration::from_millis(1))),
        )
        .unwrap()
        .wait()
        .expect("degraded to single-node");
    assert_eq!(
        result.counts, reference,
        "degraded run is bit-identical — same plan, same seed"
    );
    let stats = service.stats();
    assert_eq!(stats.degraded, 1, "one cluster→single-node re-placement");
    assert_eq!(stats.retried, 1, "one same-backend retry first");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cluster_jobs, 1, "placement counter: chose cluster");
    assert_eq!(counter_value(&service, "tqsim_jobs_degraded_total"), 1);
    assert_quiescent(&service);
    service.shutdown();
}

/// …and fail with a structured `BackendUnavailable` when the job is too
/// wide for the single-node cap.
#[test]
fn cluster_fault_on_a_too_wide_job_is_backend_unavailable() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1)
            .backend_policy(BackendPolicy::cluster_above(8, 4).single_node_up_to(7)),
    );
    tqsim_faults::configure("cluster.exchange", FaultConfig::error());
    let err = service
        .submit(
            "stranded",
            request(&circuit, 41)
                .retry(RetryPolicy::attempts(2).initial_backoff(Duration::from_millis(1))),
        )
        .unwrap()
        .wait()
        .expect_err("no backend left");
    assert_eq!(err.code(), "backend_unavailable");
    match &err {
        JobError::BackendUnavailable(msg) => {
            assert!(msg.contains("single-node cap"), "{msg}")
        }
        other => panic!("expected BackendUnavailable, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.degraded, 0, "nothing to degrade to");
    assert_eq!(stats.failed, 1, "BackendUnavailable counts as failed");
    service.shutdown();
}

// -------------------------------------------- multi-process transport

/// A transient `shard.transport` fault on the multi-process cluster
/// transport fails only that attempt: the retry replays on the *same*
/// worker processes (injected transport faults fire before any bytes
/// move, so the wire stays protocol-consistent) and returns bit-identical
/// counts.
#[test]
fn shard_transport_fault_is_retried_on_the_same_workers() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let reference = reference_counts(&circuit, 23);
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1)
            .backend_policy(BackendPolicy::cluster_above(8, 2).multi_process()),
    );
    tqsim_faults::configure("shard.transport", FaultConfig::panic().nth(1));
    let result = service
        .submit(
            "flaky-wire",
            request(&circuit, 23)
                .retry(RetryPolicy::attempts(2).initial_backoff(Duration::from_millis(1))),
        )
        .unwrap()
        .wait()
        .expect("retried on the same shard workers");
    assert_eq!(result.counts, reference, "same plan, same seed, same bits");
    assert_eq!(tqsim_faults::fired("shard.transport"), 1);
    let stats = service.stats();
    assert_eq!(stats.retried, 1, "one same-backend retry");
    assert_eq!(stats.degraded, 0, "the worker processes stayed healthy");
    assert_eq!(stats.cluster_jobs, 1);
    assert_quiescent(&service);
    service.shutdown();
}

/// A persistent multi-process transport failure exhausts the retry budget
/// and degrades the job onto the single-node engine — the full PR 7
/// ladder, now spanning a real process boundary.
#[test]
fn persistent_shard_transport_fault_degrades_to_single_node() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let reference = reference_counts(&circuit, 29);
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1)
            .backend_policy(BackendPolicy::cluster_above(8, 2).multi_process()),
    );
    tqsim_faults::configure("shard.transport", FaultConfig::panic());
    let result = service
        .submit(
            "dead-wire",
            request(&circuit, 29)
                .retry(RetryPolicy::attempts(2).initial_backoff(Duration::from_millis(1))),
        )
        .unwrap()
        .wait()
        .expect("degraded to single-node");
    assert_eq!(result.counts, reference, "degradation is bit-identical");
    let stats = service.stats();
    assert_eq!(stats.retried, 1, "one same-backend retry first");
    assert_eq!(
        stats.degraded, 1,
        "then one cluster→single-node re-placement"
    );
    assert_quiescent(&service);
    service.shutdown();
}

// ------------------------------------------------- exact accounting

/// Alternating faulted/clean jobs: every failure counter and metrics
/// mirror must match the injected fault count exactly — nothing lost,
/// nothing double-counted — and all gauges return to zero.
#[test]
fn failure_counters_match_injected_fault_counts_exactly() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::bv(5));
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(1),
    );
    let mut injected = 0u64;
    let mut fired = 0u64;
    for i in 0..6u64 {
        let fault = i % 2 == 0;
        if fault {
            tqsim_faults::configure("engine.node_task", FaultConfig::panic().nth(1));
        }
        let outcome = service
            .submit("mixed", request(&circuit, 100 + i))
            .unwrap()
            .wait();
        if fault {
            injected += 1;
            fired += tqsim_faults::fired("engine.node_task");
            assert_eq!(
                outcome.expect_err("faulted job aborts").code(),
                "job_aborted"
            );
        } else {
            outcome.expect("clean job completes");
        }
    }
    assert_eq!(fired, injected, "each armed nth:1 fired exactly once");
    let stats = service.stats();
    assert_eq!(stats.aborted, injected, "aborted == injected faults");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0, "disjoint failure counters");
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(
        counter_value(&service, "tqsim_jobs_aborted_total"),
        injected
    );
    assert_eq!(counter_value(&service, "tqsim_jobs_completed_total"), 3);
    assert_quiescent(&service);
    service.shutdown();
}

// ---------------------------------------------------- CI chaos matrix

/// CI entry point: one fixed-seed scenario per `TQSIM_CHAOS_MODE`
/// (`panic`, `exchange`, `compile`, `slow`), writing a `CHAOS_<mode>.json`
/// summary next to the workspace manifest. A no-op without the env var,
/// so the default test run is unaffected.
#[test]
fn chaos_matrix() {
    let Ok(mode) = std::env::var("TQSIM_CHAOS_MODE") else {
        return;
    };
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let circuit = Arc::new(generators::qft(9));
    let reference = reference_counts(&circuit, 77);

    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2)
            .backend_policy(BackendPolicy::cluster_above(8, 4)),
    );
    let (site, config) = match mode.as_str() {
        "panic" => ("engine.node_task", FaultConfig::panic().nth(1)),
        "exchange" => ("cluster.exchange", FaultConfig::error().nth(1)),
        "compile" => ("service.plan", FaultConfig::error().nth(1)),
        "slow" => (
            "engine.node_task",
            FaultConfig::delay(Duration::from_millis(2)).probability(0.2, 4242),
        ),
        other => panic!("unknown TQSIM_CHAOS_MODE {other:?}"),
    };
    tqsim_faults::configure(site, config);

    // Fixed-seed workload: every job carries a retry budget, so single
    // transient faults (panic/exchange) are absorbed; `compile` fails
    // exactly the first planned job; `slow` only stretches wall time.
    let tickets: Vec<_> = (0..4u64)
        .map(|i| {
            service
                .submit(
                    &format!("chaos-{i}"),
                    request(&circuit, 77)
                        .retry(RetryPolicy::attempts(3).initial_backoff(Duration::from_millis(1)))
                        .deadline(Duration::from_secs(60)),
                )
                .unwrap()
        })
        .collect();
    let mut completed = 0u64;
    let mut failed_codes: Vec<String> = Vec::new();
    for ticket in &tickets {
        match ticket.wait() {
            Ok(result) => {
                assert_eq!(result.counts, reference, "chaos survivor counts intact");
                completed += 1;
            }
            Err(err) => failed_codes.push(err.code().to_string()),
        }
    }
    match mode.as_str() {
        // Transient single faults are retried away entirely.
        "panic" | "exchange" | "slow" => assert_eq!(completed, 4, "{failed_codes:?}"),
        // The one faulted compile fails its job; the other three complete.
        "compile" => {
            assert_eq!(completed, 3);
            assert_eq!(failed_codes, ["job_failed"]);
        }
        _ => unreachable!(),
    }
    assert_quiescent(&service);
    let stats = service.stats();
    let summary = json::Value::Obj(vec![
        ("mode".into(), json::str_val(mode.clone())),
        ("site".into(), json::str_val(site)),
        ("jobs".into(), json::num_u64(4)),
        ("completed".into(), json::num_u64(completed)),
        ("failed".into(), json::num_u64(stats.failed)),
        ("aborted".into(), json::num_u64(stats.aborted)),
        ("retried".into(), json::num_u64(stats.retried)),
        ("timed_out".into(), json::num_u64(stats.timed_out)),
        ("degraded".into(), json::num_u64(stats.degraded)),
        ("fault_hits".into(), json::num_u64(tqsim_faults::hits(site))),
        (
            "fault_fired".into(),
            json::num_u64(tqsim_faults::fired(site)),
        ),
    ])
    .to_json();
    let path = format!("{}/CHAOS_{mode}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, summary + "\n").expect("write chaos summary");
    service.shutdown();
}
