//! Property-based equivalence of the distributed engine against the
//! single-node engine on randomised circuits and node counts.

use proptest::prelude::*;
use tqsim_circuit::math::Mat2;
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_cluster::{DistributedStateVector, InterconnectModel};
use tqsim_statevec::{DiagRun, QuantumState, StateVector};

fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        (q.clone(), 0usize..6).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::H,
                GateKind::S,
                GateKind::T,
                GateKind::Sx,
                GateKind::Y,
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), -3.2f64..3.2).prop_map(move |(q, t)| Gate::new(GateKind::Ry(t), &[q])),
        (q.clone(), q.clone(), 0usize..3).prop_filter_map("distinct", move |(a, b, k)| {
            if a == b {
                return None;
            }
            Some(Gate::new(
                [GateKind::Cx, GateKind::Cz, GateKind::Swap][k],
                &[a, b],
            ))
        }),
        (q.clone(), q.clone(), q).prop_filter_map("distinct", move |(a, b, c)| {
            if a == b || b == c || a == c {
                return None;
            }
            Some(Gate::new(GateKind::Ccx, &[a, b, c]))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn distributed_matches_single_node_on_random_circuits(
        gates in prop::collection::vec(arb_gate(7), 1..30),
        g in 0u32..3, // 1, 2 or 4 nodes
    ) {
        let nodes = 1usize << g;
        let mut circuit = Circuit::new(7);
        for gate in &gates {
            circuit.push(*gate.kind(), gate.qubits());
        }
        let mut reference = StateVector::zero(7);
        reference.apply_circuit(&circuit);

        let model = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(7, nodes, model).unwrap();
        for gate in &circuit {
            dsv.apply_gate(gate);
        }
        let gathered = dsv.gather();
        for (i, (a, b)) in gathered.amplitudes().iter().zip(reference.amplitudes()).enumerate() {
            prop_assert!((a - b).norm() < 1e-9, "amp {i}: {a} vs {b}");
        }
        prop_assert!((dsv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distributed_diag_ops_match(
        gates in prop::collection::vec(arb_gate(6), 1..15),
        q in 0u16..6,
        d0r in 0.1f64..1.0,
        d1r in 0.1f64..1.0,
    ) {
        use tqsim_circuit::c64;
        let mut circuit = Circuit::new(6);
        for gate in &gates {
            circuit.push(*gate.kind(), gate.qubits());
        }
        let model = InterconnectModel::commodity_cluster();
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&circuit);
        let mut dsv = DistributedStateVector::zero(6, 8, model).unwrap();
        for gate in &circuit {
            dsv.apply_gate(gate);
        }
        // A Kraus branch's two forms: a one-term run and a `Mat2` with
        // zero entries, on a local or a node-selecting position.
        let mut run = DiagRun::new();
        run.push1(q, [c64(d0r, 0.0), c64(0.0, d1r)]);
        sv.apply_diag_run(&run);
        dsv.apply_diag_run(&run);
        let zero = c64(0.0, 0.0);
        let k = Mat2([[zero, c64(0.3, 0.0)], [c64(0.0, 0.7), zero]]);
        QuantumState::apply_mat2(&mut sv, q, &k);
        QuantumState::apply_mat2(&mut dsv, q, &k);
        prop_assert_eq!(dsv.gather().amplitudes(), sv.amplitudes());
    }

    #[test]
    fn distributed_marginals_match(
        gates in prop::collection::vec(arb_gate(6), 1..15),
        q in 0u16..6,
    ) {
        let mut circuit = Circuit::new(6);
        for gate in &gates {
            circuit.push(*gate.kind(), gate.qubits());
        }
        let model = InterconnectModel::commodity_cluster();
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&circuit);
        let mut dsv = DistributedStateVector::zero(6, 4, model).unwrap();
        for gate in &circuit {
            dsv.apply_gate(gate);
        }
        prop_assert!(
            (QuantumState::marginal_one(&dsv, q) - sv.marginal_one(q)).abs() < 1e-10
        );
    }

    #[test]
    fn sampling_agrees_for_any_draw(
        gates in prop::collection::vec(arb_gate(6), 1..15),
        u in 0.0f64..1.0,
    ) {
        let mut circuit = Circuit::new(6);
        for gate in &gates {
            circuit.push(*gate.kind(), gate.qubits());
        }
        let model = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(6, 4, model).unwrap();
        for gate in &circuit {
            dsv.apply_gate(gate);
        }
        let gathered = dsv.gather();
        prop_assert_eq!(dsv.sample_many(&[u]), gathered.sample_many(&[u]));
    }
}
