//! Fault containment for the multi-process transport: an injected
//! `shard.transport` fault or a worker process killed mid-job must fail
//! only the running job — the coordinator process survives, fresh
//! topologies work, and (for injected faults, which fire before any bytes
//! move) the *same* cluster keeps working.
//!
//! The failpoint registry is process-global, so tests that arm sites
//! serialize on one gate and reset the registry on entry.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tqsim::Strategy;
use tqsim_circuit::generators;
use tqsim_engine::{Engine, EngineConfig, JobPlan, PlannedJob};
use tqsim_faults::FaultConfig;
use tqsim_noise::NoiseModel;
use tqsim_shard::ShardBackend;

fn chaos_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    tqsim_faults::reset_all();
    quiet_panics();
    gate
}

/// Panics are expected output here (injected faults and transport errors
/// from killed workers); keep the default hook from spamming stderr.
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info.payload().downcast_ref::<String>().is_some_and(|msg| {
                msg.contains("injected fault at failpoint") || msg.contains("shard transport")
            }) || info.payload().is::<tqsim_faults::FaultError>();
            if !expected {
                previous(info);
            }
        }));
    });
}

struct ResetOnDrop;
impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        tqsim_faults::reset_all();
    }
}

fn qft_plan(shots: u64) -> Arc<JobPlan> {
    Arc::new(
        JobPlan::plan(
            &generators::qft(8),
            &NoiseModel::sycamore(),
            shots,
            &Strategy::Custom {
                arities: vec![3, 2],
            },
        )
        .unwrap(),
    )
}

#[test]
fn transport_failpoint_fails_the_job_and_the_same_cluster_recovers() {
    let _gate = chaos_gate();
    let _reset = ResetOnDrop;
    let plan = qft_plan(16);
    let reference = Engine::new(EngineConfig::default().parallelism(1))
        .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));

    let backend = ShardBackend::spawn(2).expect("spawn workers");
    let engine = Engine::with_backend(EngineConfig::default().parallelism(1), backend);

    // Injected faults fire before any bytes move, so the faulted job dies
    // but the wire stays between whole verbs.
    tqsim_faults::configure("shard.transport", FaultConfig::panic().nth(3));
    let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7))
    }));
    assert!(faulted.is_err(), "the faulted job must not return a result");
    assert_eq!(tqsim_faults::fired("shard.transport"), 1);
    tqsim_faults::disarm("shard.transport");

    // Same engine, same worker processes: the retry is bit-identical.
    let retried = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
    assert_eq!(retried.counts, reference.counts);
    assert_eq!(retried.ops, reference.ops);
}

#[test]
fn killed_worker_fails_the_job_but_not_the_coordinator() {
    let _gate = chaos_gate();
    let plan = qft_plan(12);
    let reference = Engine::new(EngineConfig::default().parallelism(1))
        .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(5));

    let backend = ShardBackend::spawn(2).expect("spawn workers");
    let engine = Engine::with_backend(EngineConfig::default().parallelism(1), backend.clone());
    let healthy = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(5));
    assert_eq!(healthy.counts, reference.counts);

    // A real node failure: kill one worker process outright. The next job
    // hits a broken pipe / EOF, panics on the driving task, and is
    // contained there — the coordinator process survives.
    backend.group().kill_worker(1);
    let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(5))
    }));
    assert!(dead.is_err(), "a job on a dead topology must fail");

    // Fresh worker processes recover service, bit-identically.
    let fresh = ShardBackend::spawn(2).expect("respawn workers");
    let engine2 = Engine::with_backend(EngineConfig::default().parallelism(1), fresh);
    let recovered = engine2.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(5));
    assert_eq!(recovered.counts, reference.counts);
    assert_eq!(recovered.ops, reference.ops);
}
