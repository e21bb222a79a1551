//! Distributed execution of baseline and TQSim tree simulations, plus the
//! analytic scaling estimator behind Fig. 13.

use crate::dsv::{check_layout, ClusterBackend, ClusterError};
use crate::layout::Layout;
use crate::model::{ClusterCounters, InterconnectModel};
use tqsim::{Counts, Partition, TreeExecutor};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_statevec::{classify, FusedOp, OpCounts};

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistRunResult {
    /// Measurement histogram.
    pub counts: Counts,
    /// Merged cluster counters (including modeled cluster seconds).
    pub counters: ClusterCounters,
    /// Backend-agnostic operation tallies from the shared replay driver —
    /// `amp_passes` quantifies the distributed fusion win exactly as on the
    /// single-node backend (the dynamic fuser emits the same sweeps).
    pub ops: OpCounts,
}

/// Execute a TQSim partition on the distributed engine (the baseline is the
/// degenerate partition `(N)`), one outcome per leaf. A thin wrapper over
/// the one serial tree walk, [`tqsim::JobPlan::run_on`] on a
/// [`ClusterBackend`]: each subcircuit is compiled **once**, its fused plan
/// replayed per tree node through the shared generic driver
/// ([`tqsim::run_subcircuit`]), and the RNG stream consumed identically, so
/// for the same seed the `Counts` are **bit-identical** to the single-node
/// [`tqsim::JobPlan::run`]'s (property-tested in
/// `tests/prop_backend.rs`).
///
/// # Errors
///
/// Returns [`ClusterError`] for invalid node configurations.
///
/// # Panics
///
/// Panics if the partition does not cover the circuit.
pub fn run_distributed(
    circuit: &Circuit,
    noise: &NoiseModel,
    partition: &Partition,
    n_nodes: usize,
    model: InterconnectModel,
    seed: u64,
) -> Result<DistRunResult, ClusterError> {
    check_layout(circuit.n_qubits(), n_nodes)?;
    let exec = TreeExecutor::new(circuit, noise, partition.clone())
        .unwrap_or_else(|err| panic!("the partition must cover the circuit: {err}"));
    let (run, states) = exec.run_on(&ClusterBackend::new(n_nodes, model), seed, 1);
    let mut counters = ClusterCounters::default();
    for s in &states {
        counters.merge(&s.counters);
    }
    counters.noise_ops += run.ops.noise_ops;
    Ok(DistRunResult {
        counts: run.counts,
        counters,
        ops: run.ops,
    })
}

// ---- analytic estimator (for widths too large to execute here) ------------

/// Per-shot modeled cluster time of one full noisy pass over `circuit`
/// (computed from the circuit's gates without executing).
///
/// Every gate is charged one compute pass. A dense gate also pays for the
/// exchange rounds the distributed state's [`Layout`] policy returns for it
/// (a diagonal runs wherever its qubits sit), and the layout is settled
/// where a replay settles it: after a gate with state-dependent noise, and
/// at the end. Noise is charged at 3 compute passes + 1 all-reduce per
/// channel application — the marginal/branch/renormalise pattern of
/// trajectory sampling.
///
/// # Panics
///
/// Panics unless `n_nodes` is a power of two and at least 3 qubits stay
/// node-local.
pub fn estimate_shot_seconds(
    circuit: &Circuit,
    noise: &NoiseModel,
    n_nodes: usize,
    model: &InterconnectModel,
) -> f64 {
    let n = circuit.n_qubits();
    if let Err(err) = check_layout(n, n_nodes) {
        panic!("cannot estimate {n} qubits over {n_nodes} nodes: {err}");
    }
    let local_n = n - n_nodes.trailing_zeros() as u16;
    let slice_len = 1u64 << local_n;
    let round = model.exchange_time(slice_len / 2 * 16);
    let noise_site = 3.0 * model.compute_time(slice_len) + model.allreduce_time(n_nodes);
    let mut layout = Layout::new(n, local_n);
    let mut t = 0.0;
    for gate in circuit {
        t += model.compute_time(slice_len);
        if !matches!(classify(gate), None | Some(FusedOp::FusedDiag(_))) {
            t += layout.place(gate.qubits()).len() as f64 * round;
        }
        let mut settles = false;
        for site in noise.sites(gate) {
            t += noise_site;
            settles |= !site.channel.samples_state_free();
        }
        if settles {
            t += layout.settle().len() as f64 * round;
        }
    }
    t + layout.settle().len() as f64 * round
}

/// Modeled cluster time of a full tree execution: instances-weighted
/// subcircuit times plus one state-copy pass per node per subcircuit
/// execution.
pub fn estimate_tree_seconds(
    circuit: &Circuit,
    noise: &NoiseModel,
    partition: &Partition,
    n_nodes: usize,
    model: &InterconnectModel,
) -> f64 {
    let g = n_nodes.trailing_zeros() as u16;
    let slice_len = 1u64 << circuit.n_qubits().saturating_sub(g);
    let subs = partition.subcircuits(circuit);
    let mut total = 0.0;
    for (i, sub) in subs.iter().enumerate() {
        let per_exec =
            estimate_shot_seconds(sub, noise, n_nodes, model) + model.compute_time(slice_len);
        total += partition.tree.instances(i) as f64 * per_exec;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim::Strategy;
    use tqsim_circuit::{generators, GateKind};

    #[test]
    fn distributed_baseline_matches_single_node_statistics() {
        let circuit = generators::bv(8);
        let noise = NoiseModel::sycamore();
        let shots = 600u64;
        let partition = Strategy::Baseline.plan(&circuit, &noise, shots).unwrap();
        let model = InterconnectModel::commodity_cluster();
        let dist = run_distributed(&circuit, &noise, &partition, 4, model, 11).unwrap();
        assert_eq!(dist.counts.total(), shots);
        // Single-node reference.
        let single = tqsim::TreeExecutor::new(&circuit, &noise, partition)
            .unwrap()
            .run(11);
        let secret = 0b111_1110u64;
        let hit = |c: &Counts| {
            (0..2u64).map(|a| c.get(secret | (a << 7))).sum::<u64>() as f64 / c.total() as f64
        };
        assert!((hit(&dist.counts) - hit(&single.counts)).abs() < 0.07);
    }

    #[test]
    fn distributed_tree_produces_expected_outcomes_and_comm() {
        let circuit = generators::qft(8);
        let noise = NoiseModel::sycamore();
        let partition = Strategy::Custom {
            arities: vec![10, 2, 2],
        }
        .plan(&circuit, &noise, 40)
        .unwrap();
        let model = InterconnectModel::commodity_cluster();
        let r = run_distributed(&circuit, &noise, &partition, 4, model, 3).unwrap();
        assert_eq!(r.counts.total(), 40);
        // QFT's high-qubit controlled phases force communication.
        assert!(r.counters.exchanges > 0);
        assert!(r.counters.simulated_seconds > 0.0);
        // One cluster-side copy per materialised node; error-free siblings
        // share a state and copy nothing.
        assert_eq!(r.counters.state_copies, r.ops.state_copies);
        assert_eq!(r.ops.state_copies + r.ops.nodes_shared, 10 + 20 + 40);
    }

    #[test]
    fn estimator_strong_scaling_shape() {
        // Fixed problem: compute shrinks with nodes, comm grows — speedup
        // must flatten (the Fig. 13a shape).
        let circuit = generators::qft(14);
        let noise = NoiseModel::sycamore();
        let model = InterconnectModel::commodity_cluster();
        let t1 = estimate_shot_seconds(&circuit, &noise, 1, &model);
        let t8 = estimate_shot_seconds(&circuit, &noise, 8, &model);
        let t32 = estimate_shot_seconds(&circuit, &noise, 32, &model);
        assert!(t8 < t1, "8 nodes should beat 1");
        let s8 = t1 / t8;
        let s32 = t1 / t32;
        assert!(
            s32 < 32.0 * 0.8,
            "communication must erode ideal scaling, got {s32}"
        );
        assert!(s32 > s8 * 0.5, "still roughly monotone");
    }

    #[test]
    fn estimator_charges_each_noise_site_once() {
        // A CX under sycamore draws one joint depolarizing site; a CCX under
        // amplitude damping damps each of its three qubits.
        let model = InterconnectModel::commodity_cluster();
        let (n, n_nodes) = (12u16, 4usize);
        let slice_len = 1u64 << (n - 2);
        let price = 3.0 * model.compute_time(slice_len) + model.allreduce_time(n_nodes);
        let noise_cost = |kind, qubits: &[u16], noise: &NoiseModel| {
            let mut circuit = Circuit::new(n);
            circuit.push(kind, qubits);
            estimate_shot_seconds(&circuit, noise, n_nodes, &model)
                - estimate_shot_seconds(&circuit, &NoiseModel::ideal(), n_nodes, &model)
        };
        let cx = noise_cost(GateKind::Cx, &[0, 11], &NoiseModel::sycamore());
        let ccx = noise_cost(
            GateKind::Ccx,
            &[0, 5, 11],
            &NoiseModel::amplitude_damping(0.01),
        );
        assert!((cx - price).abs() <= 1e-12 * price, "CX: {cx} vs {price}");
        assert!(
            (ccx - 3.0 * price).abs() <= 1e-12 * price,
            "CCX: {ccx} vs {}",
            3.0 * price
        );
    }

    #[test]
    fn estimator_matches_counted_time_order_of_magnitude() {
        let circuit = generators::qft(8);
        let noise = NoiseModel::ideal();
        let model = InterconnectModel::commodity_cluster();
        let partition = Strategy::Baseline.plan(&circuit, &noise, 3).unwrap();
        let run = run_distributed(&circuit, &noise, &partition, 4, model, 1).unwrap();
        let est = 3.0 * estimate_shot_seconds(&circuit, &noise, 4, &model);
        let ratio = run.counters.simulated_seconds / est;
        assert!(
            (0.3..3.0).contains(&ratio),
            "counted {} vs estimated {est} (ratio {ratio})",
            run.counters.simulated_seconds
        );
    }

    #[test]
    fn tree_estimate_beats_baseline_estimate() {
        let circuit = generators::qft(12);
        let noise = NoiseModel::sycamore();
        let model = InterconnectModel::commodity_cluster();
        let base = Strategy::Baseline.plan(&circuit, &noise, 1000).unwrap();
        let dcp = Strategy::default_dcp()
            .plan(&circuit, &noise, 1000)
            .unwrap();
        let tb = estimate_tree_seconds(&circuit, &noise, &base, 8, &model);
        let td = estimate_tree_seconds(&circuit, &noise, &dcp, 8, &model);
        assert!(td < tb, "TQSim {td} should beat baseline {tb}");
    }

    #[test]
    fn distributed_replay_matches_serial_executor_bit_for_bit() {
        // Same seed, same partition: the distributed fused replay must
        // reproduce the serial single-node executor's Counts exactly, at
        // every node count, including oversampled leaves (batched CDF walk).
        let circuit = generators::qft(8);
        let model = InterconnectModel::commodity_cluster();
        for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
            let partition = tqsim::Strategy::Custom {
                arities: vec![5, 2, 2],
            }
            .plan(&circuit, &noise, 20)
            .unwrap();
            for leaf_samples in [1u32, 3] {
                let exec = tqsim::TreeExecutor::new(&circuit, &noise, partition.clone()).unwrap();
                let serial = exec.run_on(&tqsim_statevec::SingleNode, 9, leaf_samples).0;
                for nodes in [2usize, 4, 8] {
                    let backend = ClusterBackend::new(nodes, model);
                    let dist = exec.run_on(&backend, 9, leaf_samples).0;
                    assert_eq!(
                        dist.counts,
                        serial.counts,
                        "{} nodes, {leaf_samples} leaf samples, {}",
                        nodes,
                        noise.name()
                    );
                    // The dynamic fuser is state-agnostic: identical sweep
                    // sequence, identical pass accounting on every backend.
                    assert_eq!(dist.ops.amp_passes, serial.ops.amp_passes);
                    assert_eq!(dist.ops.noise_ops, serial.ops.noise_ops);
                    assert_eq!(dist.ops.state_copies, serial.ops.state_copies);
                    assert_eq!(dist.ops.samples, serial.ops.samples);
                }
            }
        }
    }

    /// The `perf` `dist_cluster` shape, counter for counter: how node
    /// slices are dispatched must never show in what is exchanged or swept,
    /// and the exchanges are the lazy layout's schedule.
    #[test]
    fn qft14_on_four_nodes_pins_the_exchange_schedule() {
        let circuit = generators::qft(14);
        let noise = NoiseModel::sycamore();
        let partition = Strategy::Custom {
            arities: vec![8, 4, 4],
        }
        .plan(&circuit, &noise, 128)
        .unwrap();
        let model = InterconnectModel::commodity_cluster();
        let r = run_distributed(&circuit, &noise, &partition, 4, model, 3).unwrap();
        assert_eq!(r.counters.exchanges, 616);
        assert_eq!(r.counters.bytes_exchanged, 80_740_352);
        assert_eq!(r.counters.local_gates, 4_108);
        assert_eq!(r.counters.global_gates, 324);
        assert_eq!(r.counters.state_copies, 146);
        assert_eq!(r.counters.amp_ops, 75_005_952);
        assert_eq!(r.counters.simulated_seconds.to_bits(), 4578199442748638815);
        assert_eq!(r.ops.amp_passes, 4_432);
        let serial = tqsim::TreeExecutor::new(&circuit, &noise, partition)
            .unwrap()
            .run(3);
        assert_eq!(r.counts, serial.counts);
    }

    #[test]
    #[should_panic(expected = "the partition must cover the circuit")]
    fn a_partition_that_misses_gates_panics() {
        let circuit = generators::bv(6);
        let noise = NoiseModel::ideal();
        let partition = Partition::baseline(circuit.len() + 5, 5).unwrap();
        let model = InterconnectModel::commodity_cluster();
        let _ = run_distributed(&circuit, &noise, &partition, 2, model, 0);
    }

    #[test]
    fn bad_node_count_is_an_error() {
        let circuit = generators::bv(6);
        let noise = NoiseModel::ideal();
        let partition = Strategy::Baseline.plan(&circuit, &noise, 5).unwrap();
        let model = InterconnectModel::commodity_cluster();
        assert!(run_distributed(&circuit, &noise, &partition, 3, model, 0).is_err());
    }
}
