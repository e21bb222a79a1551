//! Property-based tests of the gate kernels: unitarity, inverses, and
//! specialised-vs-generic agreement on randomised circuits.

use proptest::prelude::*;
use tqsim_circuit::math::Mat2;
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_statevec::StateVector;

/// A strategy over random single/two/three-qubit gates on `n` qubits.
fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let angle = -6.3f64..6.3;
    prop_oneof![
        (q.clone(), 0usize..12).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::Y,
                GateKind::Z,
                GateKind::H,
                GateKind::S,
                GateKind::Sdg,
                GateKind::T,
                GateKind::Tdg,
                GateKind::Sx,
                GateKind::Sy,
                GateKind::Sw,
                GateKind::Id,
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), angle.clone(), 0usize..4).prop_map(move |(q, t, k)| {
            let kind = [
                GateKind::Rx(t),
                GateKind::Ry(t),
                GateKind::Rz(t),
                GateKind::Phase(t),
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), q.clone(), angle.clone(), 0usize..6).prop_filter_map(
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
    prop::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(*g.kind(), g.qubits());
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_preserve_norm(circuit in arb_circuit(6, 40)) {
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&circuit);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn specialised_kernels_match_generic_matrices(circuit in arb_circuit(5, 25)) {
        // Apply once through the dispatch (specialised fast paths) and once
        // through forced dense Unitary1/Unitary2 application.
        let mut fast = StateVector::zero(5);
        let mut dense = StateVector::zero(5);
        fast.apply_circuit(&circuit);
        for g in &circuit {
            let qs = g.qubits();
            match g.arity() {
                1 => {
                    let m = g.kind().matrix1().unwrap();
                    dense.apply_gate(&Gate::new(GateKind::Unitary1(m), qs));
                }
                2 => {
                    let m = g.kind().matrix2().unwrap();
                    dense.apply_gate(&Gate::new(GateKind::Unitary2(m), qs));
                }
                _ => dense.apply_gate(g), // CCX has no dense form; same path
            }
        }
        for (a, b) in fast.amplitudes().iter().zip(dense.amplitudes()) {
            prop_assert!((a - b).norm() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn gate_then_adjoint_is_identity(gate in arb_gate(4), scramble in arb_circuit(4, 10)) {
        let mut sv = StateVector::zero(4);
        sv.apply_circuit(&scramble);
        let before = sv.clone();
        sv.apply_gate(&gate);
        // Undo via the dense adjoint.
        let qs = gate.qubits();
        match gate.arity() {
            1 => {
                let m = gate.kind().matrix1().unwrap().adjoint();
                sv.apply_gate(&Gate::new(GateKind::Unitary1(m), qs));
            }
            2 => {
                let m = gate.kind().matrix2().unwrap().adjoint();
                sv.apply_gate(&Gate::new(GateKind::Unitary2(m), qs));
            }
            _ => sv.apply_gate(&gate), // CCX is an involution
        }
        for (a, b) in sv.amplitudes().iter().zip(before.amplitudes()) {
            prop_assert!((a - b).norm() < 1e-9);
        }
    }

    #[test]
    fn sampling_is_monotone_and_in_range(circuit in arb_circuit(5, 20), u in 0.0f64..1.0) {
        let mut sv = StateVector::zero(5);
        sv.apply_circuit(&circuit);
        let x = sv.sample_many(&[u])[0];
        prop_assert!(x < 32);
        // Monotonicity: a larger u never yields a smaller basis index.
        let v = (u + 0.1).min(0.999_999);
        prop_assert!(sv.sample_many(&[v])[0] >= x);
    }

    #[test]
    fn marginals_agree_with_full_distribution(circuit in arb_circuit(5, 20), q in 0u16..5) {
        let mut sv = StateVector::zero(5);
        sv.apply_circuit(&circuit);
        let probs = sv.probabilities();
        let direct: f64 = probs
            .iter()
            .enumerate()
            .filter(|(i, _)| i & (1 << q) != 0)
            .map(|(_, p)| p)
            .sum();
        prop_assert!((sv.marginal_one(q) - direct).abs() < 1e-10);
    }

    #[test]
    fn diag_and_antidiag_compose_to_pauli(q in 0u16..4, circuit in arb_circuit(4, 10)) {
        // The ops a Kraus branch takes: X = [[0,1],[1,0]] as a matrix and
        // Z = diag(1,-1) as a one-term run. Their composition must equal Y
        // up to the global phase i: ZX = iY.
        use tqsim_circuit::c64;
        use tqsim_statevec::{DiagRun, QuantumState};
        let mut a = StateVector::zero(4);
        a.apply_circuit(&circuit);
        let mut b = a.clone();
        QuantumState::apply_mat2(&mut a, q, &Mat2::pauli_x());
        let mut z = DiagRun::new();
        z.push1(q, [c64(1.0, 0.0), c64(-1.0, 0.0)]);
        QuantumState::apply_diag_run(&mut a, &z);
        b.apply_gate(&Gate::new(GateKind::Y, &[q]));
        // a = ZX|ψ> = iY|ψ> ⇒ a = i·b.
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((x - y * c64(0.0, 1.0)).norm() < 1e-10);
        }
    }
}

#[test]
fn dense_reference_on_all_basis_states_for_cx() {
    // Exhaustive truth-table check of the controlled kernels in both qubit
    // orders on 3 qubits.
    for (c, t) in [(0u16, 2u16), (2, 0), (1, 2)] {
        for start in 0..8u64 {
            let mut sv = StateVector::basis(3, start);
            sv.apply_gate(&Gate::new(GateKind::Cx, &[c, t]));
            let expect = if (start >> c) & 1 == 1 {
                start ^ (1 << t)
            } else {
                start
            };
            assert_eq!(sv.probability(expect), 1.0, "cx({c},{t}) on |{start:03b}>");
        }
    }
}

#[test]
fn mat2_helpers_are_consistent() {
    let h = GateKind::H.matrix1().unwrap();
    assert!(h.mul(&h).approx_eq(&Mat2::identity(), 1e-12));
}
