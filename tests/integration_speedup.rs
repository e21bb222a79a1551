//! Cross-crate speedup integration tests: the computational-reuse math must
//! hold end to end (Fig. 11 / Table 3 shape at test scale).
//!
//! The baseline's work is not simulated here: `Strategy::Baseline`'s flat
//! plan `(N)` executes every gate once per shot from its own state copy,
//! exactly
//! (`tree_executor_baseline_agrees_with_independent_flat_runner` pins that
//! identity against the independent flat runner).

use tqsim::{speedup, DcpConfig, RunResult, Strategy, Tqsim};
use tqsim_baselines::run_baseline;
use tqsim_circuit::generators::{self, table2_suite_capped};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;

/// Gates executed by the flat plan `(N)`: every gate once per shot.
fn flat_gates(circuit: &Circuit, shots: u64) -> u64 {
    shots * circuit.len() as u64
}

#[test]
fn dcp_reduces_gate_work_on_every_suitable_suite_circuit() {
    let noise = NoiseModel::sycamore();
    let shots = 2_000u64;
    let cfg = DcpConfig {
        margin: 0.1,
        copy_cost: 10.0,
        ..DcpConfig::default()
    };
    let mut improved = 0usize;
    let mut total = 0usize;
    for bench in table2_suite_capped(10) {
        let base_gates = flat_gates(&bench.circuit, shots);
        let tree = Tqsim::new(&bench.circuit)
            .noise(noise.clone())
            .shots(shots)
            .strategy(Strategy::Dynamic(cfg))
            .seed(2)
            .run()
            .unwrap();
        total += 1;
        // Gate work must never increase, and must strictly decrease whenever
        // DCP actually partitioned.
        assert!(
            tree.ops.total_gates() <= base_gates,
            "{}: tqsim did more gate work",
            bench.name
        );
        if tree.tree.depth() > 1 {
            assert!(tree.ops.total_gates() < base_gates, "{}", bench.name);
            improved += 1;
        }
    }
    assert!(
        improved * 2 > total,
        "DCP should partition most circuits: {improved}/{total}"
    );
}

#[test]
fn measured_speedup_tracks_predicted_speedup() {
    let circuit = generators::qft(10);
    let noise = NoiseModel::sycamore();
    let shots = 2_000u64;
    let strategy = Strategy::Custom {
        arities: vec![250, 2, 2, 2],
    };
    let plan = strategy.plan(&circuit, &noise, shots).unwrap();

    let tree = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(shots)
        .strategy(strategy)
        .seed(4)
        .run()
        .unwrap();

    // Measured in `predicted_speedup`'s units — gates plus `COPY_COST` per
    // state copy — from the op counters, not the clock: exact for fixed
    // seeds, and blind to whatever else shares the host.
    const COPY_COST: u64 = 5;
    let base = flat_gates(&circuit, shots) + COPY_COST * shots;
    let cost = |r: &RunResult| r.ops.total_gates() + COPY_COST * r.ops.state_copies;
    assert_eq!((base, cost(&tree)), (484_000, 164_720));
    let measured = base as f64 / cost(&tree) as f64;
    let predicted = speedup::predicted_speedup(&plan, shots, COPY_COST as f64);
    assert!(measured > 1.2, "no speedup measured: {measured:.2}");
    assert!(
        (measured / predicted - 1.0).abs() < 0.6,
        "measured {measured:.2} vs predicted {predicted:.2} diverge wildly"
    );
}

#[test]
fn tree_executor_baseline_agrees_with_independent_flat_runner() {
    // Two separate implementations of the same semantics (tqsim's (N) tree
    // vs tqsim-baselines' flat loop) must count the same operations.
    let circuit = generators::qft(8);
    let noise = NoiseModel::sycamore();
    let shots = 300u64;
    let tree = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(shots)
        .strategy(Strategy::Baseline)
        .seed(7)
        .run()
        .unwrap();
    let flat = run_baseline(&circuit, &noise, shots, 7);
    assert_eq!(tree.ops.total_gates(), flat.ops.total_gates());
    assert_eq!(tree.ops.total_gates(), flat_gates(&circuit, shots));
    assert_eq!(tree.counts.total(), flat.counts.total());
    // Both draw one sample per shot.
    assert_eq!(tree.ops.samples, flat.ops.samples);
    // `Strategy::Baseline` is the per-shot reference: its root nodes never
    // share.
    assert_eq!(tree.ops.nodes_shared, 0);
    assert_eq!(tree.ops.state_copies, shots);
}

#[test]
fn baseline_and_a_flat_dcp_plan_draw_the_same_counts() {
    // At 64 shots DCP falls back to the flat plan. That plan shares its
    // error-free shots at the root; `Strategy::Baseline`'s is the per-shot
    // reference and never shares. Sharing moves no RNG stream, so both
    // draw the same histogram.
    let circuit = generators::bv(8);
    let shots = 64u64;
    let run = |strategy| {
        Tqsim::new(&circuit)
            .noise(NoiseModel::sycamore())
            .shots(shots)
            .strategy(strategy)
            .seed(5)
            .run()
            .unwrap()
    };
    let baseline = run(Strategy::Baseline);
    let dcp = run(Strategy::default_dcp());
    assert_eq!(dcp.tree, baseline.tree, "DCP falls back to the flat plan");
    assert_eq!(dcp.counts, baseline.counts);
    assert_eq!(baseline.ops.nodes_shared, 0);
    assert_eq!(baseline.ops.state_copies, shots);
    assert!(dcp.ops.nodes_shared > 0);
    assert!(dcp.ops.amp_passes < baseline.ops.amp_passes);
}

#[test]
fn speedup_grows_with_circuit_length() {
    // The paper's core scaling claim: longer circuits admit more
    // subcircuits and larger reuse wins (QFT column of Fig. 11).
    let noise = NoiseModel::sycamore();
    let shots = 2_000u64;
    let cfg = DcpConfig {
        margin: 0.1,
        copy_cost: 10.0,
        ..DcpConfig::default()
    };
    let mut last = 0.0;
    for n in [8u16, 10, 12] {
        let circuit = generators::qft(n);
        let plan = Strategy::Dynamic(cfg)
            .plan(&circuit, &noise, shots)
            .unwrap();
        let predicted = speedup::predicted_speedup(&plan, shots, cfg.copy_cost);
        assert!(
            predicted >= last * 0.9,
            "qft_{n}: predicted speedup {predicted:.2} fell below qft_{}'s {last:.2}",
            n - 2
        );
        last = predicted;
    }
    assert!(
        last > 1.5,
        "qft_12 should predict a solid speedup, got {last:.2}"
    );
}
