//! Property-based tests of the planning layer: tree arithmetic, DCP
//! invariants, and executor outcome accounting on randomised inputs.

use proptest::prelude::*;
use tqsim::{DcpConfig, Strategy, Tqsim, TreeStructure};
use tqsim_circuit::generators;
use tqsim_noise::NoiseModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_arithmetic_is_consistent(arities in prop::collection::vec(1u64..20, 1..6)) {
        let tree = TreeStructure::new(arities.clone()).unwrap();
        // Outcomes = last-level instances.
        prop_assert_eq!(tree.outcomes(), tree.instances(tree.depth() - 1));
        // Executions = sum of instances; nodes = that + root.
        let execs: u64 = (0..tree.depth()).map(|i| tree.instances(i)).sum();
        prop_assert_eq!(tree.subcircuit_executions(), execs);
        prop_assert_eq!(tree.total_nodes(), execs + 1);
        // Instances are monotone non-decreasing level to level.
        for i in 1..tree.depth() {
            prop_assert!(tree.instances(i) >= tree.instances(i - 1));
        }
        // Round-trip through the display notation.
        let reparsed: TreeStructure = tree.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, tree);
    }

    #[test]
    fn dcp_invariants_hold_for_random_configurations(
        n in 6u16..12,
        shots in 200u64..20_000,
        copy_cost in 2.0f64..60.0,
        margin in 0.02f64..0.2,
    ) {
        let circuit = generators::qft(n);
        let noise = NoiseModel::sycamore();
        let cfg = DcpConfig { copy_cost, margin, ..DcpConfig::default() };
        let plan = Strategy::Dynamic(cfg).plan(&circuit, &noise, shots).unwrap();

        // 1. The plan covers the whole circuit with strictly increasing cuts.
        prop_assert_eq!(plan.covered_gates(), circuit.len());
        prop_assert!(plan.boundaries().windows(2).all(|w| w[0] < w[1]));
        // 2. The tree yields at least the requested shots.
        prop_assert!(plan.tree.outcomes() >= shots);
        // 3. Non-first arities are ≥ 2 whenever the plan actually partitions
        //    (reuse would otherwise be pointless — Eq. 6's constraint).
        if plan.k() > 1 {
            for &a in &plan.tree.arities()[1..] {
                prop_assert!(a >= 2, "tree {}", plan.tree);
            }
            // 4. Every subcircuit respects the minimum length rule.
            for len in plan.lengths() {
                prop_assert!(len >= copy_cost.ceil() as usize, "{:?}", plan.lengths());
            }
        }
    }

    #[test]
    fn ucp_and_xcp_cover_shots(k in 1usize..6, shots in 1u64..50_000) {
        let circuit = generators::qft(8); // 150 gates ≥ any k here
        let noise = NoiseModel::sycamore();
        for strat in [Strategy::Uniform { k }, Strategy::Exponential { k }] {
            let plan = strat.plan(&circuit, &noise, shots).unwrap();
            prop_assert!(plan.tree.outcomes() >= shots, "{:?}: {}", strat, plan.tree);
            prop_assert_eq!(plan.k(), k);
        }
    }

    #[test]
    fn xcp_arities_halve(k in 2usize..5, shots in 100u64..10_000) {
        let circuit = generators::qft(8);
        let noise = NoiseModel::sycamore();
        let plan = Strategy::Exponential { k }.plan(&circuit, &noise, shots).unwrap();
        let a = plan.tree.arities();
        for w in a.windows(2) {
            // Geometric halving with integer floors.
            prop_assert!(w[1] <= w[0], "{:?}", a);
            prop_assert!(w[1] >= w[0] / 2, "{:?}", a);
        }
    }

    #[test]
    fn executor_outcome_count_is_exact(
        arities in prop::collection::vec(1u64..5, 1..4),
        seed in 0u64..1000,
    ) {
        let circuit = generators::bv(6);
        prop_assume!(arities.len() <= circuit.len());
        let noise = NoiseModel::sycamore();
        let result = Tqsim::new(&circuit)
            .noise(noise)
            .shots(1) // overridden by the custom tree
            .strategy(Strategy::Custom { arities: arities.clone() })
            .seed(seed)
            .run()
            .unwrap();
        let expect: u64 = arities.iter().product();
        prop_assert_eq!(result.counts.total(), expect);
        // Every subcircuit execution is materialised (one copy) or served
        // by an error-free sibling's state, root nodes included; the first
        // node always copies.
        prop_assert_eq!(
            result.ops.state_copies + result.ops.nodes_shared,
            result.tree.subcircuit_executions()
        );
        prop_assert!(result.ops.state_copies >= 1);
    }

    #[test]
    fn sample_size_is_monotone(
        p1 in 0.01f64..0.49,
        delta in 0.0f64..0.4,
        shots in 100u64..100_000,
    ) {
        // Larger error rate (below 0.5) must never need fewer samples.
        let a = tqsim::dcp::sample_size(1.96, 0.03, p1, shots);
        let b = tqsim::dcp::sample_size(1.96, 0.03, (p1 + delta).min(0.5), shots);
        prop_assert!(b >= a, "p={p1} -> {a}, p={} -> {b}", (p1 + delta).min(0.5));
        // And it never exceeds the population.
        prop_assert!(b <= shots);
    }
}

#[test]
fn dcp_is_noise_sensitive() {
    // Higher error rates must not shrink A0 (more noise → more first-level
    // diversity required).
    let circuit = generators::qft(12);
    let quiet = NoiseModel::depolarizing(0.0001, 0.0015);
    let loud = NoiseModel::depolarizing(0.01, 0.15);
    let cfg = DcpConfig::default();
    let a_quiet = Strategy::Dynamic(cfg)
        .plan(&circuit, &quiet, 32_000)
        .unwrap();
    let a_loud = Strategy::Dynamic(cfg)
        .plan(&circuit, &loud, 32_000)
        .unwrap();
    assert!(
        a_loud.tree.arities()[0] >= a_quiet.tree.arities()[0],
        "quiet {} vs loud {}",
        a_quiet.tree,
        a_loud.tree
    );
}
