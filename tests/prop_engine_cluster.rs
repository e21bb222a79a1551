//! Property tests of the **pooled engine on the distributed backend**: the
//! work-stealing tree executor running `DistributedStateVector` nodes
//! (via `Engine::with_backend` + `ClusterBackend`) must yield `Counts`
//! bit-identical to the serial single-node engine run for the same seed —
//! at 2/4/8 nodes × parallelism 1..4, ideal and sycamore noise, single and
//! oversampled leaves — because node RNG streams derive only from the job
//! seed and tree path, and plan replay is arithmetic-identical on every
//! backend. Also checks the pool-counter high-water mark against the
//! schedule's bound on each backend, and that tree reuse survives the
//! distributed backend: a reuse tree replays far fewer amplitude passes
//! than per-shot Monte-Carlo through the same cluster engine.

use proptest::prelude::*;
use std::sync::Arc;
use tqsim::Strategy as PlanStrategy;
use tqsim_circuit::{generators, Circuit, Gate, GateKind};
use tqsim_cluster::{ClusterBackend, InterconnectModel};
use tqsim_engine::{Engine, EngineConfig, JobPlan, PlannedJob};
use tqsim_noise::NoiseModel;

/// Random gates over 7 qubits — wide enough that 8-node slicing (3 global
/// qubits) exercises the remap fallback alongside node-local fused kernels.
fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let angle = -6.3f64..6.3;
    prop_oneof![
        (q.clone(), 0usize..8).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::Y,
                GateKind::Z,
                GateKind::H,
                GateKind::S,
                GateKind::T,
                GateKind::Sx,
                GateKind::Sw,
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), angle.clone(), 0usize..4).prop_map(move |(q, t, k)| {
            let kind = [
                GateKind::Rx(t),
                GateKind::Rz(t),
                GateKind::Phase(t),
                GateKind::Ry(t),
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), q, angle, 0usize..5).prop_filter_map("distinct qubits", move |(a, b, t, k)| {
            if a == b {
                return None;
            }
            let kind = [
                GateKind::Cx,
                GateKind::Cz,
                GateKind::CPhase(t),
                GateKind::Swap,
                GateKind::Rzz(t),
            ][k];
            Some(Gate::new(kind, &[a, b]))
        }),
    ]
}

fn arb_circuit(n: u16, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 2..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(*g.kind(), g.qubits());
        }
        c
    })
}

fn noise_for(idx: usize) -> NoiseModel {
    if idx == 0 {
        NoiseModel::ideal()
    } else {
        NoiseModel::sycamore()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pooled_cluster_engine_is_bit_identical_to_serial_single_node(
        circuit in arb_circuit(7, 20),
        noise_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(noise_idx);
        let arities = vec![3u64, 2];
        let k = arities.len();
        let plan = Arc::new(
            JobPlan::plan(&circuit, &noise, 6, &PlanStrategy::Custom { arities }).unwrap(),
        );
        // The serial reference: the engine at parallelism 1 on the default
        // single-node backend.
        let reference = Engine::new(EngineConfig::default().parallelism(1))
            .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(seed));
        let model = InterconnectModel::commodity_cluster();
        for nodes in [2usize, 4, 8] {
            for workers in 1usize..=4 {
                let engine = Engine::with_backend(
                    EngineConfig::default().parallelism(workers),
                    ClusterBackend::new(nodes, model),
                );
                let r = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(seed));
                prop_assert_eq!(
                    &r.counts, &reference.counts,
                    "{} nodes, {} workers", nodes, workers
                );
                prop_assert_eq!(&r.ops, &reference.ops, "{} nodes, {} workers", nodes, workers);
                // The schedule's memory bound holds on the distributed
                // backend exactly as on the single-node one: each worker
                // can have one chain pinned by thieves plus one active
                // chain, each at most (k + 1) buffers deep.
                let stats = engine.pool_stats();
                prop_assert!(
                    stats.high_water <= 2 * workers * (k + 1),
                    "{} nodes, {} workers: high water {} exceeds bound {}",
                    nodes, workers, stats.high_water, 2 * workers * (k + 1)
                );
                prop_assert_eq!(stats.outstanding, 0, "all buffers returned");
            }
        }
    }

    #[test]
    fn oversampled_cluster_engine_leaves_stay_deterministic(
        circuit in arb_circuit(7, 14),
        seed in 0u64..1000,
        leaf_samples in 2u32..4,
    ) {
        // leaf_samples > 1 exercises the batched sorted-CDF walk
        // (`DistributedStateVector::sample_many`) inside the pooled
        // executor; the draws must match the single-node walk draw for
        // draw at any parallelism.
        let noise = NoiseModel::sycamore();
        let plan = Arc::new(
            JobPlan::plan(&circuit, &noise, 6, &PlanStrategy::Custom { arities: vec![3, 2] })
                .unwrap(),
        );
        let reference = Engine::new(EngineConfig::default().parallelism(1)).run_planned(
            &PlannedJob::new(Arc::clone(&plan)).seed(seed).leaf_samples(leaf_samples),
        );
        let model = InterconnectModel::commodity_cluster();
        let engine = Engine::with_backend(
            EngineConfig::default().parallelism(3),
            ClusterBackend::new(4, model),
        );
        let r = engine.run_planned(
            &PlannedJob::new(Arc::clone(&plan)).seed(seed).leaf_samples(leaf_samples),
        );
        prop_assert_eq!(&r.counts, &reference.counts);
        prop_assert_eq!(r.ops.samples, reference.ops.samples);
    }
}

#[test]
fn cluster_engine_tree_reuse_cuts_amp_passes_versus_per_shot_monte_carlo() {
    // The flat Baseline tree is per-shot Monte-Carlo: every shot replays
    // the whole circuit. A (4, 4, 2) reuse tree over the same 32 shots
    // shares each prefix among its descendants.
    let circuit = generators::qft(10);
    let noise = NoiseModel::sycamore();
    let (shots, seed) = (32, 13);
    let plan = |strategy: &PlanStrategy| {
        Arc::new(JobPlan::plan(&circuit, &noise, shots, strategy).unwrap())
    };
    let tree = plan(&PlanStrategy::Custom {
        arities: vec![4, 4, 2],
    });
    let flat = plan(&PlanStrategy::Baseline);
    for nodes in [2usize, 4] {
        let engine = Engine::with_backend(
            EngineConfig::default().parallelism(2),
            ClusterBackend::new(nodes, InterconnectModel::commodity_cluster()),
        );
        let tree_passes = engine
            .run_planned(&PlannedJob::new(Arc::clone(&tree)).seed(seed))
            .ops
            .amp_passes;
        let flat_passes = engine
            .run_planned(&PlannedJob::new(Arc::clone(&flat)).seed(seed))
            .ops
            .amp_passes;
        assert!(
            tree_passes as f64 * 1.5 <= flat_passes as f64,
            "{nodes} nodes: tree {tree_passes} vs per-shot {flat_passes} amp passes"
        );
    }
}
