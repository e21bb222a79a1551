//! Error-free sibling sharing and fused replay are execution shortcuts,
//! never semantic ones: for every circuit × noise model × tree shape × leaf
//! oversampling, the serial walk's `Counts` must be bit-identical to an
//! **unshared per-gate mirror** of the walk ([`common::walk_on`]) — one
//! that neither shares nor fuses.
//! The op counters must say what was saved: nothing under state-dependent
//! channels, all but one node per level under ideal noise, strictly
//! fewer amplitude passes under the paper's depolarizing rates, and at least
//! half the passes from fusion on QFT. The distributed backends run the same
//! walk, so they share the same nodes and exchange the same bytes as each
//! other.

mod common;

use common::{walk_on, Walk};
use tqsim::{Partition, Strategy, TreeExecutor};
use tqsim_circuit::{generators, Circuit};
use tqsim_cluster::{ClusterBackend, ClusterCounters, InterconnectModel};
use tqsim_noise::{Channel, NoiseModel, ReadoutError};
use tqsim_shard::ShardBackend;
use tqsim_statevec::SingleNode;

const SEED: u64 = 17;

/// QFT plus two Toffoli blocks: 1q, 2q and 3q noise sites.
fn circuit() -> Circuit {
    let mut c = generators::qft(7);
    c.ccx(0, 1, 2).h(3).ccx(4, 5, 6).cx(6, 0).t(2).ccx(2, 3, 4);
    c
}

/// Each circuit with the tree shapes it is walked under: every shape for
/// the mixed-arity circuit, a few for the suite circuits.
fn circuits() -> Vec<(&'static str, Circuit, Vec<Vec<u64>>)> {
    vec![
        ("qft+ccx", circuit(), trees()),
        ("qft", generators::qft(8), vec![vec![8, 4], vec![5, 4, 3]]),
        ("bv", generators::bv(8), vec![vec![5, 4, 3]]),
        ("qv", generators::qv(6, 2), vec![vec![5, 4, 3]]),
    ]
}

fn noises() -> Vec<NoiseModel> {
    vec![
        NoiseModel::ideal(),
        NoiseModel::sycamore(),
        NoiseModel::depolarizing(0.05, 0.2),
        // Branches fire constantly: the noise-adaptive flush at its busiest.
        NoiseModel::depolarizing(0.25, 0.35),
        NoiseModel::amplitude_damping(0.01),
        NoiseModel::phase_damping(0.01),
        NoiseModel::sycamore().with_readout(ReadoutError::symmetric(0.02)),
        // Only 2q gates place markers, so marker ordinals are not gate
        // indices: sharing (and, in the engine, forks) run at ordinals that
        // differ from the gates they follow.
        NoiseModel::ideal()
            .with_channel_2q(Channel::Depolarizing { p: 0.2 })
            .named("depolarizing-2q"),
        // Damping on 2q gates only: a node's first fired marker can follow
        // clean 1q markers and need the state (in the engine, a fork
        // resumes into it).
        NoiseModel::ideal()
            .with_channel_1q(Channel::Depolarizing { p: 0.05 })
            .with_channel_2q(Channel::AmplitudeDamping { gamma: 0.05 })
            .named("depolarizing-1q-damping-2q"),
    ]
}

fn trees() -> Vec<Vec<u64>> {
    vec![
        vec![40],
        vec![1, 2],
        vec![4, 4, 4],
        vec![63, 2, 2],
        vec![2, 2, 2, 2, 2],
    ]
}

fn plan(circuit: &Circuit, noise: &NoiseModel, arities: &[u64]) -> Partition {
    Strategy::Custom {
        arities: arities.to_vec(),
    }
    .plan(circuit, noise, 1)
    .expect("custom tree plans")
}

#[test]
fn shared_walk_counts_equal_the_unshared_mirror_on_the_full_grid() {
    for (name, circuit, trees) in circuits() {
        for noise in noises() {
            for arities in &trees {
                let partition = plan(&circuit, &noise, arities);
                let nodes = partition.tree.subcircuit_executions();
                let exec =
                    TreeExecutor::new(&circuit, &noise, partition.clone()).expect("plan binds");
                let walk = |leaf_samples, how| {
                    walk_on(
                        &SingleNode,
                        &circuit,
                        &noise,
                        &partition,
                        SEED,
                        leaf_samples,
                        how,
                    )
                };
                for leaf_samples in [1u32, 3] {
                    let cell = format!(
                        "{name} {} {arities:?} leaf_samples={leaf_samples}",
                        noise.name()
                    );
                    let shared = exec.run_on(&SingleNode, SEED, leaf_samples).0;
                    let reference = walk(leaf_samples, Walk::PerGate);
                    assert_eq!(shared.counts, reference.counts, "{cell}");
                    assert_eq!(reference.ops.state_copies, nodes, "{cell}");
                    assert_eq!(
                        shared.ops.state_copies + shared.ops.nodes_shared,
                        nodes,
                        "{cell}"
                    );
                    assert_eq!(shared.ops.samples, reference.ops.samples, "{cell}");
                    assert_eq!(shared.peak_states, arities.len() + 1, "{cell}");

                    let state_dependent = noise
                        .channels_1q()
                        .iter()
                        .any(|ch| !ch.samples_state_free());
                    if arities.len() == 1 || state_dependent {
                        // The fused mirror walks the same nodes.
                        let fused = walk(leaf_samples, Walk::Fused);
                        assert_eq!(fused.counts, reference.counts, "{cell}");
                        assert!(shared.ops.amp_passes <= fused.ops.amp_passes, "{cell}");
                        if state_dependent {
                            // Damping families never share: the walk is the
                            // fused mirror pass for pass, and the per-gate
                            // mirror gate for gate.
                            assert_eq!(shared.ops.nodes_shared, 0, "{cell}");
                            assert_eq!(shared.ops.amp_passes, fused.ops.amp_passes, "{cell}");
                            assert_eq!(shared.ops.noise_ops, reference.ops.noise_ops, "{cell}");
                            assert_eq!(
                                shared.ops.total_gates(),
                                reference.ops.total_gates(),
                                "{cell}"
                            );
                        } else {
                            // Damping samples the state at every noise site,
                            // so its plans flush gate by gate; every other
                            // model fuses.
                            assert!(fused.ops.fused_gates > 0, "{cell}");
                            assert!(
                                fused.ops.amp_passes < reference.ops.amp_passes,
                                "{cell}: fusion must save passes ({} vs {})",
                                fused.ops.amp_passes,
                                reference.ops.amp_passes
                            );
                        }
                    }
                    if noise.is_ideal() {
                        // One node per level: every sibling, root nodes
                        // included, is served from the same state.
                        assert_eq!(shared.ops.state_copies, arities.len() as u64, "{cell}");
                    } else if arities.len() >= 3 && noise.name() == "sycamore-dc" {
                        assert!(shared.ops.nodes_shared > 0, "{cell}");
                        assert!(
                            shared.ops.amp_passes < reference.ops.amp_passes,
                            "{cell}: {} vs {}",
                            shared.ops.amp_passes,
                            reference.ops.amp_passes
                        );
                    }
                    if name == "qft" && (noise.is_ideal() || noise.name() == "sycamore-dc") {
                        // Fusion alone at least halves QFT's passes.
                        let fused = walk(leaf_samples, Walk::Fused);
                        assert!(
                            reference.ops.amp_passes >= 2 * fused.ops.amp_passes,
                            "{cell}: {} vs {}",
                            reference.ops.amp_passes,
                            fused.ops.amp_passes
                        );
                    }
                }
            }
        }
    }
}

fn merged<'a>(counters: impl Iterator<Item = &'a ClusterCounters>) -> ClusterCounters {
    let mut total = ClusterCounters::default();
    for c in counters {
        total.merge(c);
    }
    total
}

#[test]
fn distributed_backends_share_the_same_nodes_and_exchange_the_same_bytes() {
    let model = InterconnectModel::commodity_cluster();
    let shard = ShardBackend::spawn(2).expect("spawn workers");
    for (name, circuit) in [("qft+ccx", circuit()), ("qft", generators::qft(8))] {
        for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
            for arities in [vec![4, 4, 4], vec![2, 2, 2, 2, 2]] {
                let cell = format!("{name} {} {arities:?}", noise.name());
                let partition = plan(&circuit, &noise, &arities);
                let walk = |backend: &ClusterBackend, how| {
                    walk_on(backend, &circuit, &noise, &partition, SEED, 1, how)
                };
                let single = walk_on(
                    &SingleNode,
                    &circuit,
                    &noise,
                    &partition,
                    SEED,
                    1,
                    Walk::Shared,
                );
                assert!(single.ops.nodes_shared > 0, "{cell}");

                let mut exchanges = Vec::new();
                for nodes in [2usize, 4] {
                    let cell = format!("{cell} on {nodes} nodes");
                    let backend = ClusterBackend::new(nodes, model);
                    let dist = walk(&backend, Walk::Shared);
                    assert_eq!(dist.counts, single.counts, "{cell}");
                    assert_eq!(dist.ops, single.ops, "{cell}");
                    let counters = merged(dist.states.iter().map(|s| &s.counters));
                    assert_eq!(counters.state_copies, single.ops.state_copies, "{cell}");

                    let unshared = walk(&backend, Walk::Fused);
                    assert_eq!(unshared.counts, single.counts, "{cell}");
                    let reference = walk(&backend, Walk::PerGate);
                    assert_eq!(reference.counts, single.counts, "{cell}");
                    if name == "qft" && nodes == 4 {
                        // Fusion's pass saving survives distribution.
                        assert!(
                            2 * reference.ops.amp_passes >= 3 * unshared.ops.amp_passes,
                            "{cell}: {} vs {}",
                            reference.ops.amp_passes,
                            unshared.ops.amp_passes
                        );
                    }
                    let unshared = merged(unshared.states.iter().map(|s| &s.counters));
                    assert!(counters.exchanges < unshared.exchanges, "{cell}");
                    exchanges.push(counters);
                }

                let cell = format!("{cell} on 2 shards");
                let sharded = walk_on(&shard, &circuit, &noise, &partition, SEED, 1, Walk::Shared);
                assert_eq!(sharded.counts, single.counts, "{cell}");
                assert_eq!(sharded.ops, single.ops, "{cell}");
                let counters = merged(sharded.states.iter().map(|s| &s.counters));
                assert_eq!(counters, exchanges[0], "{cell}: vs 2 nodes");
                let reference =
                    walk_on(&shard, &circuit, &noise, &partition, SEED, 1, Walk::PerGate);
                assert_eq!(reference.counts, single.counts, "{cell}");
            }
        }
    }
}
