//! Cross-backend property tests of the generic plan-replay path: fused
//! replay on the distributed `DistributedStateVector` (2/4/8 nodes) must
//! yield `Counts` **bit-identical** to serial single-node `StateVector`
//! replay for the same seed — ideal and sycamore noise, single and
//! oversampled leaves — because both backends drive the one shared generic
//! driver (`tqsim::run_subcircuit`) and consume the RNG stream identically.

use proptest::prelude::*;
use tqsim::{Strategy as PlanStrategy, TreeExecutor};
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_cluster::{ClusterBackend, InterconnectModel};
use tqsim_noise::NoiseModel;
use tqsim_statevec::{FlushCtx, OpCounts, PooledBackend, QuantumState, ReplayCursor, SingleNode};

/// Random gates over 7 qubits — wide enough that 8-node slicing (3 global
/// qubits) exercises the remap fallback alongside node-local fused kernels.
fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let angle = -6.3f64..6.3;
    prop_oneof![
        (q.clone(), 0usize..10).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::Y,
                GateKind::Z,
                GateKind::H,
                GateKind::S,
                GateKind::T,
                GateKind::Tdg,
                GateKind::Sx,
                GateKind::Sw,
                GateKind::Id,
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
        (q.clone(), q.clone(), angle, 0usize..6).prop_filter_map(
            "distinct qubits",
            move |(a, b, t, k)| {
                if a == b {
                    return None;
                }
                let kind = [
                    GateKind::Cx,
                    GateKind::Cz,
                    GateKind::CPhase(t),
                    GateKind::Swap,
                    GateKind::Rzz(t),
                    GateKind::FSim(t, t / 2.0),
                ][k];
                Some(Gate::new(kind, &[a, b]))
            }
        ),
        (q.clone(), q.clone(), q).prop_filter_map("distinct qubits", move |(a, b, c)| {
            if a == b || b == c || a == c {
                return None;
            }
            Some(Gate::new(GateKind::Ccx, &[a, b, c]))
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

/// The realization that fires Pauli `pauli` (0 = X, 1 = Y, 2 = Z) on the
/// first qubit of the gate at noise marker `fire` and draws identity
/// everywhere else, as a replay hook whose marker count starts at `from`.
fn fire_at<S: QuantumState + ?Sized>(
    from: usize,
    fire: usize,
    pauli: usize,
) -> impl FnMut(&Gate, &mut FlushCtx<'_, S>) -> u64 {
    let kind = [GateKind::X, GateKind::Y, GateKind::Z][pauli];
    let mut at = from;
    move |gate, ctx| {
        if at == fire {
            ctx.push_branch_gate(&Gate::new(kind, &gate.qubits()[..1]));
        }
        at += 1;
        1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_forked_distributed_replay_equals_a_straight_one(
        circuit in arb_circuit(7, 16),
        nodes_log2 in 1u32..4,
        pauli in 0usize..3,
    ) {
        let nodes = 1usize << nodes_log2;
        // H on the top qubits first: by marker 2 the replay has swept a
        // global qubit (6) onto a local position, so the fork there copies
        // an unsettled layout.
        let mut c = Circuit::new(7);
        c.h(6).h(5).h(4);
        c.append(&circuit);
        let compiled = NoiseModel::sycamore().compile(&c);
        let backend = ClusterBackend::new(nodes, InterconnectModel::commodity_cluster());
        // One clean trajectory, forked at every marker in turn through the
        // backend's copy.
        let mut trajectory = backend.allocate(7);
        let mut cursor = ReplayCursor::new();
        let mut prefix = OpCounts::new();
        for fire in 0..compiled.noise_points() {
            cursor.run_to(&compiled, fire, &mut trajectory, &mut prefix, |_, _| 1);
            if fire == 2 {
                prop_assert!(!trajectory.layout().is_canonical(), "{} nodes", nodes);
            }
            let mut forked = backend.allocate(7);
            backend.copy_into(&mut forked, &trajectory);
            let mut ops = prefix;
            cursor.clone().finish(&compiled, &mut forked, &mut ops, fire_at(fire, fire, pauli));
            let mut straight = backend.allocate(7);
            let mut want = OpCounts::new();
            compiled.replay(&mut straight, &mut want, fire_at(0, fire, pauli));
            prop_assert_eq!(
                forked.gather().amplitudes(),
                straight.gather().amplitudes(),
                "{} nodes, fired at marker {}", nodes, fire
            );
            prop_assert_eq!(ops, want, "{} nodes, fired at marker {}", nodes, fire);
        }
    }

    #[test]
    fn distributed_fused_replay_is_bit_identical_to_serial(
        circuit in arb_circuit(7, 24),
        noise_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(noise_idx);
        let partition = PlanStrategy::Custom { arities: vec![3, 2] }
            .plan(&circuit, &noise, 6)
            .unwrap();
        let exec = TreeExecutor::new(&circuit, &noise, partition).unwrap();
        let serial = exec.run_on(&SingleNode, seed, 1).0;
        let model = InterconnectModel::commodity_cluster();
        for nodes in [2usize, 4, 8] {
            let dist = exec.run_on(&ClusterBackend::new(nodes, model), seed, 1).0;
            prop_assert_eq!(&dist.counts, &serial.counts, "{} nodes", nodes);
            // One state-agnostic fuser → identical sweep accounting.
            prop_assert_eq!(dist.ops.amp_passes, serial.ops.amp_passes);
            prop_assert_eq!(dist.ops.noise_ops, serial.ops.noise_ops);
            prop_assert_eq!(dist.ops.total_gates(), serial.ops.total_gates());
            prop_assert_eq!(dist.ops.samples, serial.ops.samples);
        }
    }

    #[test]
    fn oversampled_distributed_leaves_stay_deterministic(
        circuit in arb_circuit(7, 18),
        seed in 0u64..1000,
        leaf_samples in 2u32..5,
    ) {
        // `DistributedStateVector::sample_many` must consume the uniforms
        // draw-for-draw like `StateVector::sample_many`.
        let noise = NoiseModel::sycamore();
        let partition = PlanStrategy::Custom { arities: vec![3, 2] }
            .plan(&circuit, &noise, 6)
            .unwrap();
        let exec = TreeExecutor::new(&circuit, &noise, partition).unwrap();
        let serial = exec.run_on(&SingleNode, seed, leaf_samples).0;
        let model = InterconnectModel::commodity_cluster();
        let dist = exec.run_on(&ClusterBackend::new(4, model), seed, leaf_samples).0;
        prop_assert_eq!(&dist.counts, &serial.counts);
        prop_assert_eq!(dist.ops.samples, serial.ops.samples);
    }
}
