//! Integration tests of the `tqsim-engine` parallel tree engine: scheduling
//! must never change results, pooling must eliminate steady-state
//! allocations, and the batched job API must agree with the single-run
//! paths.

use tqsim::{Counts, Strategy};
use tqsim_baselines::run_baseline;
use tqsim_circuit::{generators, Circuit};
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;

fn engine_run(circuit: &Circuit, shots: u64, seed: u64, workers: usize) -> tqsim::RunResult {
    let engine = Engine::new(EngineConfig::default().parallelism(workers));
    let job = JobSpec::new(circuit).shots(shots).seed(seed);
    engine
        .submit(vec![job])
        .run()
        .expect("plannable")
        .jobs
        .remove(0)
}

/// The acceptance property: for a fixed seed, engine output `Counts` are
/// byte-identical at parallelism 1, 2, 4 and 8, across circuit families.
#[test]
fn parallel_equals_serial_across_generators() {
    let qaoa = generators::qaoa_random(8, 12, 7, 0.4, 0.8).0;
    let cases: Vec<(&str, Circuit)> = vec![
        ("bv", generators::bv(8)),
        ("qft", generators::qft(8)),
        ("qaoa", qaoa),
    ];
    for (name, circuit) in &cases {
        for &(shots, seed) in &[(200u64, 11u64), (501, 12)] {
            let reference = engine_run(circuit, shots, seed, 1);
            assert!(reference.counts.total() >= shots);
            for workers in [2usize, 4, 8] {
                let parallel = engine_run(circuit, shots, seed, workers);
                assert_eq!(
                    reference.counts, parallel.counts,
                    "{name}: {workers} workers changed the histogram (shots={shots}, seed={seed})"
                );
                assert_eq!(
                    reference.ops, parallel.ops,
                    "{name}: {workers} workers changed the op accounting"
                );
            }
            // And a different seed must (overwhelmingly) differ.
            let other = engine_run(circuit, shots, seed ^ 0xABCD, 4);
            assert_ne!(reference.counts, other.counts, "{name}: seed had no effect");
        }
    }
}

/// Strategy coverage: parallelism-invariance is a property of the engine,
/// not of any particular tree shape.
#[test]
fn parallel_equals_serial_across_strategies() {
    let circuit = generators::qft(8);
    for strategy in [
        Strategy::Baseline,
        Strategy::Uniform { k: 3 },
        Strategy::Exponential { k: 3 },
        Strategy::Custom {
            arities: vec![50, 2, 2],
        },
    ] {
        let run = |workers: usize| {
            let engine = Engine::new(EngineConfig::default().parallelism(workers));
            let job = JobSpec::new(&circuit)
                .shots(200)
                .strategy(strategy.clone())
                .seed(3);
            engine.submit(vec![job]).run().unwrap().jobs.remove(0)
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.counts, b.counts, "{strategy:?}");
        assert_eq!(a.ops, b.ops, "{strategy:?}");
    }
}

/// After a warm-up run (plus an explicit prewarm to cover schedule
/// variance), executing further trees performs zero heap allocations of
/// state buffers — the pool's allocation counter stands still.
#[test]
fn steady_state_runs_are_allocation_free() {
    let circuit = generators::qft(10);
    let engine = Engine::new(EngineConfig::default().parallelism(4));
    let spec = |seed| {
        JobSpec::new(&circuit)
            .shots(256)
            .strategy(Strategy::Custom {
                arities: vec![64, 2, 2],
            })
            .seed(seed)
    };
    engine.submit(vec![spec(1)]).run().unwrap();
    engine.prewarm(10, 3);
    let warmed = engine.pool_stats().allocations;
    let mut materialised = 0;
    for seed in 2..6 {
        let batch = engine.submit(vec![spec(seed)]).run().unwrap();
        let ops = batch.jobs[0].ops;
        assert_eq!(ops.state_copies + ops.nodes_shared, 64 + 128 + 256);
        materialised += ops.state_copies;
    }
    let stats = engine.pool_stats();
    assert_eq!(
        stats.allocations, warmed,
        "steady-state tree execution must reuse pooled buffers only"
    );
    assert!(
        stats.reuses >= materialised,
        "every materialised node drew from the pool"
    );
    assert_eq!(stats.outstanding, 0, "all buffers returned after the batch");
}

/// `Counts::merge` is the reduction the engine depends on; pin its
/// arithmetic and its width guard.
#[test]
fn counts_merge_accumulates() {
    let mut a = Counts::new(4);
    a.increment(0b0011);
    a.increment(0b0011);
    a.increment(0b1000);
    let mut b = Counts::new(4);
    b.increment(0b0011);
    b.increment(0b0101);
    a.merge(&b);
    assert_eq!(a.get(0b0011), 3);
    assert_eq!(a.get(0b0101), 1);
    assert_eq!(a.get(0b1000), 1);
    assert_eq!(a.total(), 5);
    assert_eq!(a.distinct(), 3);
    // Merging an empty histogram is the identity.
    let before = a.clone();
    a.merge(&Counts::new(4));
    assert_eq!(a, before);
}

#[test]
#[should_panic(expected = "different widths")]
fn counts_merge_rejects_width_mismatch() {
    let mut a = Counts::new(4);
    a.merge(&Counts::new(5));
}

/// Shots in flight at once (the paper's Fig. 8) are the flat tree `(N)` on
/// the pool. Different RNG streams from the independent serial runner, same
/// physics: BV-8's secret frequency must agree within sampling noise.
#[test]
fn parallel_baseline_matches_serial_distribution() {
    let circuit = generators::bv(8);
    let noise = NoiseModel::sycamore();
    let shots = 1500u64;
    let serial = run_baseline(&circuit, &noise, shots, 1).counts;
    let engine = Engine::new(EngineConfig::default().parallelism(4));
    let job = JobSpec::new(&circuit)
        .noise(noise)
        .shots(shots)
        .strategy(Strategy::Baseline)
        .seed(2);
    let parallel = engine
        .submit(vec![job])
        .run()
        .unwrap()
        .jobs
        .remove(0)
        .counts;
    assert_eq!(parallel.total(), shots);
    // The 7-bit secret, with the ancilla (bit 7) either way.
    let secret = 0b111_1110u64;
    let frequency = |counts: &Counts| {
        (0..2u64)
            .map(|a| counts.get(secret | (a << 7)))
            .sum::<u64>() as f64
            / shots as f64
    };
    assert!((frequency(&serial) - frequency(&parallel)).abs() < 0.06);
}

/// Batched submission: per-job results match the same jobs run one by one
/// (planning dedup must be semantically invisible).
#[test]
fn batch_matches_individual_runs() {
    let qft = generators::qft(8);
    let bv = generators::bv(8);
    let engine = Engine::new(EngineConfig::default().parallelism(2));
    let jobs = vec![
        JobSpec::new(&qft).shots(150).seed(1),
        JobSpec::new(&qft).shots(150).seed(2),
        JobSpec::new(&bv).shots(100).seed(3),
    ];
    let batch = engine.submit(jobs.clone()).run().unwrap();
    let plans = engine.plan_cache().stats();
    assert_eq!((plans.misses, plans.hits), (2, 1));
    for (job, batched) in jobs.into_iter().zip(&batch.jobs) {
        let solo = engine.submit(vec![job]).run().unwrap().jobs.remove(0);
        assert_eq!(solo.counts, batched.counts);
        assert_eq!(solo.ops, batched.ops);
    }
}
