//! Property tests of the compile-once/replay-many fusion layer: on random
//! circuits under ideal and sycamore noise the serial executor's fused,
//! shared walk must produce **bit-identical `Counts`** to the unshared
//! per-gate mirror ([`common::walk_on`]; the RNG streams are identical by
//! construction), the engine must give the same `Counts` at parallelism
//! 1..4, and replayed amplitudes must match per-gate dispatch to
//! floating-point-reordering tolerance.

mod common;

use common::{walk_on, Walk};
use proptest::prelude::*;
use tqsim::{Strategy as PlanStrategy, TreeExecutor};
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;
use tqsim_statevec::{OpCounts, SingleNode, StateVector};

/// Random gates drawn from the full fusible + passthrough catalogue.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_matches_per_gate_amplitudes(circuit in arb_circuit(5, 30)) {
        // Ideal-model plans (no noise points): replay vs. apply_circuit.
        let compiled = NoiseModel::ideal().compile(&circuit);
        let mut fused = StateVector::zero(5);
        let mut ops = OpCounts::new();
        compiled.replay_ideal(&mut fused, &mut ops);
        let mut reference = StateVector::zero(5);
        reference.apply_circuit(&circuit);
        for (i, (a, b)) in fused.amplitudes().iter().zip(reference.amplitudes()).enumerate() {
            prop_assert!((a - b).norm() < 1e-11, "amp {i}: {a:?} vs {b:?}");
        }
        prop_assert!(ops.amp_passes <= ops.total_gates());
    }

    #[test]
    fn serial_fused_counts_are_bit_identical(
        circuit in arb_circuit(5, 30),
        noise_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(noise_idx);
        let partition = PlanStrategy::Custom { arities: vec![4, 3] }
            .plan(&circuit, &noise, 12)
            .unwrap();
        let fused = TreeExecutor::new(&circuit, &noise, partition.clone()).unwrap().run(seed);
        let reference = walk_on(
            &SingleNode, &circuit, &noise, &partition, seed, 1, Walk::PerGate,
        );
        prop_assert_eq!(&fused.counts, &reference.counts);
        prop_assert_eq!(fused.ops.samples, reference.ops.samples);
        // Sharing and fusion only ever remove work.
        prop_assert!(fused.ops.total_gates() <= reference.ops.total_gates());
        prop_assert!(fused.ops.amp_passes <= reference.ops.amp_passes);
    }

    #[test]
    fn engine_fused_counts_are_bit_identical_at_any_parallelism(
        circuit in arb_circuit(5, 24),
        noise_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(noise_idx);
        let run = |workers: usize| {
            let engine = Engine::new(EngineConfig::default().parallelism(workers));
            engine
                .submit(vec![JobSpec::new(&circuit)
                    .noise(noise.clone())
                    .shots(12)
                    .strategy(PlanStrategy::Custom { arities: vec![4, 3] })
                    .seed(seed)])
                .run()
                .unwrap()
                .jobs
                .remove(0)
        };
        let reference = run(1);
        for workers in 2..=4usize {
            let r = run(workers);
            prop_assert_eq!(&r.counts, &reference.counts, "workers = {}", workers);
            prop_assert_eq!(r.ops, reference.ops, "workers = {}", workers);
        }
    }
}
