//! Error-free sibling sharing is an execution shortcut, never a semantic
//! one: for every noise model × tree shape × fusion × leaf oversampling, the
//! serial walk's `Counts` must be bit-identical to an **unshared mirror** of
//! the walk built here from the public primitives (`copy_into` →
//! `run_subcircuit` → `draw_leaf_outcomes`, one RNG — every node copied and
//! replayed).
//! The op counters must say what was saved: nothing on flat plans or under
//! state-dependent channels, whole subtrees under ideal noise, and strictly
//! fewer amplitude passes under the paper's depolarizing rates. The
//! distributed backends run the same walk, so they share the same nodes and
//! exchange the same bytes as each other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tqsim::{
    draw_leaf_outcomes, run_subcircuit, run_tree_nodes, Counts, ExecOptions, Partition, Strategy,
    TreeExecutor,
};
use tqsim_circuit::{generators, Circuit};
use tqsim_cluster::{ClusterBackend, ClusterCounters, InterconnectModel};
use tqsim_noise::{NoiseModel, ReadoutError};
use tqsim_shard::ShardBackend;
use tqsim_statevec::{CompiledCircuit, OpCounts, PooledBackend, QuantumState, SingleNode};

const SEED: u64 = 17;

/// QFT plus two Toffoli blocks: 1q, 2q and 3q noise sites.
fn circuit() -> Circuit {
    let mut c = generators::qft(7);
    c.ccx(0, 1, 2).h(3).ccx(4, 5, 6).cx(6, 0).t(2).ccx(2, 3, 4);
    c
}

fn noises() -> Vec<NoiseModel> {
    vec![
        NoiseModel::ideal(),
        NoiseModel::sycamore(),
        NoiseModel::depolarizing(0.05, 0.2),
        NoiseModel::amplitude_damping(0.01),
        NoiseModel::phase_damping(0.01),
        NoiseModel::sycamore().with_readout(ReadoutError::symmetric(0.02)),
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

/// The unshared reference walk: every node below the root copies its parent
/// and replays its subcircuit on live draws.
struct Mirror<'a, B: PooledBackend> {
    backend: &'a B,
    subcircuits: &'a [Circuit],
    plans: &'a [CompiledCircuit],
    arities: &'a [u64],
    noise: &'a NoiseModel,
    options: ExecOptions,
    states: Vec<B::State>,
    rng: StdRng,
    counts: Counts,
    ops: OpCounts,
}

impl<B: PooledBackend> Mirror<'_, B> {
    fn walk(&mut self, level: usize) {
        let k = self.subcircuits.len();
        if level == k {
            let n = QuantumState::n_qubits(&self.states[k]);
            let (counts, ops) = (&mut self.counts, &mut self.ops);
            draw_leaf_outcomes(
                &self.states[k],
                self.noise,
                n,
                self.options.leaf_samples,
                &mut self.rng,
                |outcome| {
                    counts.increment(outcome);
                    ops.samples += 1;
                },
            );
            return;
        }
        for _ in 0..self.arities[level] {
            let (parents, children) = self.states.split_at_mut(level + 1);
            self.backend.copy_into(&mut children[0], &parents[level]);
            self.ops.state_copies += 1;
            run_subcircuit(
                &mut children[0],
                &self.subcircuits[level],
                &self.plans[level],
                self.noise,
                &mut self.rng,
                &mut self.ops,
                self.options.fusion,
            );
            self.walk(level + 1);
        }
    }
}

/// What one walk of a tree gave: histogram, op counts and the backend's
/// per-level states (for the distributed backends' own counters).
struct Walked<B: PooledBackend> {
    counts: Counts,
    ops: OpCounts,
    states: Vec<B::State>,
}

/// Walk `partition` on `backend`, through [`run_tree_nodes`] (`shared`) or
/// through the unshared [`Mirror`].
fn walk_on<B: PooledBackend>(
    backend: &B,
    circuit: &Circuit,
    noise: &NoiseModel,
    partition: &Partition,
    options: ExecOptions,
    shared: bool,
) -> Walked<B> {
    let n = circuit.n_qubits();
    let subcircuits = partition.subcircuits(circuit);
    let plans: Vec<CompiledCircuit> = subcircuits.iter().map(|sc| noise.compile(sc)).collect();
    let mut states: Vec<B::State> = (0..=subcircuits.len())
        .map(|_| backend.allocate(n))
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut counts = Counts::new(n);
    let mut ops = OpCounts::new();
    if shared {
        run_tree_nodes(
            backend,
            &subcircuits,
            &plans,
            &partition.tree,
            noise,
            &mut states,
            &mut counts,
            &mut ops,
            &mut rng,
            options,
        );
        return Walked {
            counts,
            ops,
            states,
        };
    }
    let mut mirror = Mirror {
        backend,
        subcircuits: &subcircuits,
        plans: &plans,
        arities: partition.tree.arities(),
        noise,
        options,
        states,
        rng,
        counts,
        ops,
    };
    mirror.walk(0);
    Walked {
        counts: mirror.counts,
        ops: mirror.ops,
        states: mirror.states,
    }
}

#[test]
fn shared_walk_counts_equal_the_unshared_mirror_on_the_full_grid() {
    let circuit = circuit();
    for noise in noises() {
        for arities in trees() {
            let partition = plan(&circuit, &noise, &arities);
            let nodes = partition.tree.subcircuit_executions();
            let exec = TreeExecutor::new(&circuit, &noise, partition.clone()).expect("plan binds");
            for fusion in [true, false] {
                for leaf_samples in [1u32, 3] {
                    let options = ExecOptions {
                        leaf_samples,
                        fusion,
                    };
                    let cell = format!(
                        "{} {arities:?} fusion={fusion} leaf_samples={leaf_samples}",
                        noise.name()
                    );
                    let shared = exec.run_with_options(SEED, options);
                    let mirror = walk_on(&SingleNode, &circuit, &noise, &partition, options, false);
                    assert_eq!(shared.counts, mirror.counts, "{cell}");
                    assert_eq!(mirror.ops.state_copies, nodes, "{cell}");
                    assert_eq!(
                        shared.ops.state_copies + shared.ops.nodes_shared,
                        nodes,
                        "{cell}"
                    );
                    assert_eq!(shared.ops.samples, mirror.ops.samples, "{cell}");
                    assert_eq!(shared.peak_states, arities.len() + 1, "{cell}");

                    let state_dependent = noise
                        .channels_1q()
                        .iter()
                        .any(|ch| !ch.samples_state_free());
                    if arities.len() == 1 || state_dependent {
                        // Root level and damping families never share:
                        // the walk is the mirror, pass for pass.
                        assert_eq!(shared.ops.nodes_shared, 0, "{cell}");
                        assert_eq!(shared.ops.amp_passes, mirror.ops.amp_passes, "{cell}");
                        assert_eq!(shared.ops.noise_ops, mirror.ops.noise_ops, "{cell}");
                        assert_eq!(shared.ops.total_gates(), mirror.ops.total_gates(), "{cell}");
                    } else if noise.is_ideal() {
                        // One node per level under each root-level node.
                        assert_eq!(
                            shared.ops.state_copies,
                            arities[0] * arities.len() as u64,
                            "{cell}"
                        );
                    } else if arities.len() >= 3 && noise.name() == "sycamore-dc" {
                        assert!(shared.ops.nodes_shared > 0, "{cell}");
                        assert!(
                            shared.ops.amp_passes < mirror.ops.amp_passes,
                            "{cell}: {} vs {}",
                            shared.ops.amp_passes,
                            mirror.ops.amp_passes
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
    let circuit = circuit();
    let model = InterconnectModel::commodity_cluster();
    let shard = ShardBackend::spawn(2).expect("spawn workers");
    let options = ExecOptions::default();
    for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
        for arities in [vec![4, 4, 4], vec![2, 2, 2, 2, 2]] {
            let cell = format!("{} {arities:?}", noise.name());
            let partition = plan(&circuit, &noise, &arities);
            let single = walk_on(&SingleNode, &circuit, &noise, &partition, options, true);
            assert!(single.ops.nodes_shared > 0, "{cell}");

            let mut exchanges = Vec::new();
            for nodes in [2usize, 4] {
                let backend = ClusterBackend::new(nodes, model);
                let dist = walk_on(&backend, &circuit, &noise, &partition, options, true);
                assert_eq!(dist.counts, single.counts, "{cell} on {nodes} nodes");
                assert_eq!(dist.ops, single.ops, "{cell} on {nodes} nodes");
                let counters = merged(dist.states.iter().map(|s| &s.counters));
                assert_eq!(counters.state_copies, single.ops.state_copies, "{cell}");

                let unshared = walk_on(&backend, &circuit, &noise, &partition, options, false);
                assert_eq!(unshared.counts, single.counts, "{cell} on {nodes} nodes");
                let unshared = merged(unshared.states.iter().map(|s| &s.counters));
                assert!(counters.exchanges < unshared.exchanges, "{cell}");
                exchanges.push(counters);
            }

            let sharded = walk_on(&shard, &circuit, &noise, &partition, options, true);
            assert_eq!(sharded.counts, single.counts, "{cell} on 2 shards");
            assert_eq!(sharded.ops, single.ops, "{cell} on 2 shards");
            let counters = merged(sharded.states.iter().map(|s| &s.counters));
            assert_eq!(counters, exchanges[0], "{cell}: 2 shards vs 2 nodes");
        }
    }
}
