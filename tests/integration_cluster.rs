//! Cross-crate cluster integration tests: the distributed engine must agree
//! with the single-node engine, and the scaling estimator must reproduce the
//! Fig. 13 shapes.

use tqsim::Strategy;
use tqsim_circuit::generators;
use tqsim_cluster::{
    estimate_shot_seconds, estimate_tree_seconds, run_distributed, DistributedStateVector,
    InterconnectModel,
};
use tqsim_noise::NoiseModel;
use tqsim_statevec::{QuantumState, StateVector};

#[test]
fn distributed_engine_is_bit_exact_on_ideal_circuits() {
    let model = InterconnectModel::commodity_cluster();
    for (name, circuit) in [
        ("qft_9", generators::qft(9)),
        ("bv_9", generators::bv(9)),
        ("qv_10", generators::qv(10, 3)),
        ("mul_13", generators::mul(3, 3, 2)),
    ] {
        let n = circuit.n_qubits();
        let mut reference = StateVector::zero(n);
        reference.apply_circuit(&circuit);
        for nodes in [2usize, 8] {
            let mut dsv = DistributedStateVector::zero(n, nodes, model).unwrap();
            for gate in &circuit {
                dsv.apply_gate(gate);
            }
            let gathered = dsv.gather();
            for (i, (a, b)) in gathered
                .amplitudes()
                .iter()
                .zip(reference.amplitudes())
                .enumerate()
            {
                assert!((a - b).norm() < 1e-9, "{name}, {nodes} nodes, amp {i}");
            }
        }
    }
}

#[test]
fn distributed_noisy_run_matches_single_node_statistics() {
    let circuit = generators::bv(8);
    let noise = NoiseModel::sycamore();
    let shots = 800u64;
    let partition = Strategy::Custom {
        arities: vec![80, 10],
    }
    .plan(&circuit, &noise, shots)
    .unwrap();
    let model = InterconnectModel::commodity_cluster();

    let dist = run_distributed(&circuit, &noise, &partition, 4, model, 17).unwrap();
    let single = tqsim::TreeExecutor::new(&circuit, &noise, partition)
        .unwrap()
        .run(17);

    let secret = 0b111_1110u64;
    let hit = |c: &tqsim::Counts| {
        (0..2u64).map(|a| c.get(secret | (a << 7))).sum::<u64>() as f64 / c.total() as f64
    };
    assert_eq!(dist.counts.total(), single.counts.total());
    assert!(
        (hit(&dist.counts) - hit(&single.counts)).abs() < 0.06,
        "dist {:.3} vs single {:.3}",
        hit(&dist.counts),
        hit(&single.counts)
    );
}

#[test]
fn strong_scaling_improves_then_saturates() {
    // Fig. 13a shape: larger circuits scale better than smaller ones.
    let noise = NoiseModel::sycamore();
    let model = InterconnectModel::commodity_cluster();
    let small = generators::bv(16);
    let large = generators::qft(24);
    let speedup = |c: &tqsim_circuit::Circuit, nodes: usize| {
        estimate_shot_seconds(c, &noise, 1, &model)
            / estimate_shot_seconds(c, &noise, nodes, &model)
    };
    let s_small = speedup(&small, 32);
    let s_large = speedup(&large, 32);
    assert!(
        s_large > s_small,
        "large circuit should scale better: {s_large:.1} vs {s_small:.1}"
    );
    assert!(s_large < 32.0, "communication must keep speedup sublinear");
}

#[test]
fn tqsim_beats_baseline_on_the_cluster_estimator() {
    // Fig. 13b: TQSim holds its advantage at every node count.
    let circuit = generators::qft(16);
    let noise = NoiseModel::sycamore();
    let model = InterconnectModel::commodity_cluster();
    let shots = 8_192;
    let base = Strategy::Baseline.plan(&circuit, &noise, shots).unwrap();
    let dcp = Strategy::default_dcp()
        .plan(&circuit, &noise, shots)
        .unwrap();
    for nodes in [1usize, 4, 16, 32] {
        let tb = estimate_tree_seconds(&circuit, &noise, &base, nodes, &model);
        let td = estimate_tree_seconds(&circuit, &noise, &dcp, nodes, &model);
        assert!(
            tb / td > 1.3,
            "{nodes} nodes: baseline {tb:.2}s vs tqsim {td:.2}s"
        );
    }
}

#[test]
fn cluster_noise_trajectories_preserve_norm() {
    // Failure-sensitive path: damping channels hit marginals, antidiagonal
    // Kraus ops and renormalisation across node boundaries. The trajectory
    // is the flat state's, bit for bit after every gate: the norm and
    // marginal folds add the flat state's numbers in its order. The grid
    // runs twice: at the default split, and with `par_min_len` at 1 — the
    // split a state of 2^17 amplitudes or more takes, at test size — where
    // the flat state's gate sweeps pool but its sums stay serial folds.
    use rand::SeedableRng;
    use tqsim_statevec::kernels::{set_par_min_len, DEFAULT_PAR_MIN_LEN};
    struct RestoreSplit;
    impl Drop for RestoreSplit {
        fn drop(&mut self) {
            set_par_min_len(DEFAULT_PAR_MIN_LEN);
        }
    }
    let model = InterconnectModel::commodity_cluster();
    let bits = |sv: &StateVector| -> Vec<(u64, u64)> {
        sv.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    };
    for par_min_len in [DEFAULT_PAR_MIN_LEN, 1] {
        let _restore = RestoreSplit;
        set_par_min_len(par_min_len);
        for noise in [
            NoiseModel::amplitude_damping(0.05),
            NoiseModel::phase_damping(0.05),
            NoiseModel::thermal_relaxation_sycamore(),
        ] {
            for n in [8u16, 10] {
                let circuit = generators::qft(n);
                let mut rng = rand::rngs::StdRng::seed_from_u64(23);
                let mut flat_rng = rand::rngs::StdRng::seed_from_u64(23);
                let mut dsv = DistributedStateVector::zero(n, 4, model).unwrap();
                let mut flat = StateVector::zero(n);
                for (i, gate) in circuit.iter().enumerate() {
                    dsv.apply_gate(gate);
                    noise.apply_after_gate(&mut dsv, gate, &mut rng);
                    flat.apply_gate(gate);
                    noise.apply_after_gate(&mut flat, gate, &mut flat_rng);
                    assert!((dsv.norm_sqr() - 1.0).abs() < 1e-8);
                    let cell = format!(
                        "{} qft({n}) gate {i}, par_min_len {par_min_len}",
                        noise.name()
                    );
                    assert_eq!(bits(&dsv.gather()), bits(&flat), "{cell}");
                }
            }
        }
    }
}
