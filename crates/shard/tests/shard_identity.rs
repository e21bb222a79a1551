//! Cross-process bit-identity: the multi-process shard backend must be
//! indistinguishable — amplitudes, `Counts`, deterministic cluster
//! counters, exchange schedules — from the in-process distributed state
//! vector it mirrors, at 2 and 4 shards, with and without noise. Only
//! `measured_exchange_seconds` may (and must) differ: here it times real
//! TCP round-trips.

use std::sync::Arc;
use tqsim::Strategy;
use tqsim_circuit::generators;
use tqsim_cluster::{DistributedStateVector, InterconnectModel};
use tqsim_engine::{Engine, EngineConfig, JobPlan, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_shard::{ShardBackend, ShardCluster, ShardedStateVector};
use tqsim_statevec::QuantumState;

fn model() -> InterconnectModel {
    InterconnectModel::commodity_cluster()
}

#[test]
fn state_level_amplitudes_and_counters_match_in_process() {
    // Drive the identical op stream through a 4-process shard state and
    // the 4-thread in-process DSV: every amplitude bit, every
    // deterministic counter, and every floating-point reduction must
    // agree exactly.
    let cluster = Arc::new(ShardCluster::spawn(4).expect("spawn workers"));
    let mut shard = ShardedStateVector::zero(Arc::clone(&cluster), 8, model()).unwrap();
    let mut dsv = DistributedStateVector::zero(8, 4, model()).unwrap();

    let circuit = generators::qsc(8, 40, 3);
    for gate in &circuit {
        shard.apply_gate(gate);
        dsv.apply_gate(gate);
    }
    assert_eq!(
        shard.gather().amplitudes(),
        dsv.gather().amplitudes(),
        "amplitudes must match bit for bit after the gate stream"
    );

    // Noise-surface ops, including global-qubit (anti)diagonals and the
    // renormalisation that follows a Kraus branch.
    for q in [0u16, 5, 6, 7] {
        assert_eq!(
            shard.marginal_one(q).to_bits(),
            dsv.marginal_one(q).to_bits()
        );
    }
    let d0 = tqsim_circuit::math::c64(0.9, 0.0);
    let d1 = tqsim_circuit::math::c64(0.0, 0.4);
    for q in [1u16, 7] {
        shard.apply_diag1(q, d0, d1);
        dsv.apply_diag1(q, d0, d1);
    }
    for q in [2u16, 6] {
        shard.apply_antidiag1(q, d1, d0);
        dsv.apply_antidiag1(q, d1, d0);
    }
    shard.renormalize();
    dsv.renormalize();
    assert_eq!(shard.norm_sqr().to_bits(), dsv.norm_sqr().to_bits());
    assert_eq!(shard.gather().amplitudes(), dsv.gather().amplitudes());

    // Sampling: the chained CDF walks must consume draws identically.
    let us: Vec<f64> = (0..32).map(|i| (i as f64 + 0.37) / 32.0).collect();
    assert_eq!(shard.sample_many(&us), dsv.sample_many(&us));
    assert_eq!(shard.sample_with(0.123456789), dsv.sample_with(0.123456789));

    // Deterministic counters agree exactly (`PartialEq` on the counters
    // excludes the wall-clock field)…
    assert_eq!(shard.counters, dsv.counters);
    assert!(shard.counters.exchanges > 0, "qsc must hit global qubits");
    // …while the shard's measured exchange time is real elapsed wall
    // clock on a real wire, so it must actually accumulate.
    assert!(
        shard.counters.measured_exchange_seconds > 0.0,
        "TCP exchanges take nonzero wall-clock time"
    );
}

#[test]
fn engine_counts_bit_identical_across_backends_ideal_and_noisy() {
    // The tentpole invariant, one level up: a planned job run through the
    // engine produces identical Counts on the single-node backend, the
    // in-process cluster backend, and real worker processes — at 2 and 4
    // shards, with and without noise.
    for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
        let circuit = generators::qft(8);
        let plan = Arc::new(
            JobPlan::plan(
                &circuit,
                &noise,
                24,
                &Strategy::Custom {
                    arities: vec![4, 3, 2],
                },
            )
            .unwrap(),
        );
        let reference = Engine::new(EngineConfig::default().parallelism(1))
            .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
        for workers in [2usize, 4] {
            let backend = ShardBackend::spawn(workers).expect("spawn workers");
            let engine = Engine::with_backend(EngineConfig::default().parallelism(2), backend);
            let r = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
            assert_eq!(r.counts, reference.counts, "{workers} shard processes");
            assert_eq!(r.ops, reference.ops, "{workers} shard processes");
            let stats = engine.pool_stats();
            assert_eq!(stats.outstanding, 0, "every sharded buffer returned");
        }
    }
}
