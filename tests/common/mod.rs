//! The reference walks the property suites compare every executor with:
//! the one serial walk ([`TreeExecutor::run_on`], which shares error-free
//! siblings) on any backend, and an **unshared mirror** built here from
//! the public primitives (`copy_into` → `run_subcircuit` →
//! `draw_leaf_outcomes`, one RNG — every node copied and replayed). With
//! [`Walk::PerGate`] the mirror dispatches gate by gate: the walk that
//! neither shares nor fuses, which every executor's `Counts` must equal bit
//! for bit.

// Each test binary uses a different part of this module.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use tqsim::{draw_leaf_outcomes, run_subcircuit, Counts, OpCounts, Partition, TreeExecutor};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_statevec::{CompiledCircuit, PooledBackend, QuantumState};

/// How [`walk_on`] walks a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Walk {
    /// [`TreeExecutor::run_on`]: error-free siblings share one execution.
    Shared,
    /// The unshared mirror, replaying the compiled plans.
    Fused,
    /// The unshared mirror, dispatching gate by gate: the reference.
    PerGate,
}

/// The unshared walk: every node below the root copies its parent and
/// replays its subcircuit on live draws.
struct Mirror<'a, B: PooledBackend> {
    backend: &'a B,
    subcircuits: &'a [Circuit],
    plans: &'a [CompiledCircuit],
    arities: &'a [u64],
    noise: &'a NoiseModel,
    leaf_samples: u32,
    per_gate: bool,
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
                self.leaf_samples,
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
                !self.per_gate,
            );
            self.walk(level + 1);
        }
    }
}

/// What one walk of a tree gave: histogram, op counts and the backend's
/// per-level states (for the distributed backends' own counters).
pub struct Walked<B: PooledBackend> {
    pub counts: Counts,
    pub ops: OpCounts,
    pub states: Vec<B::State>,
}

/// Walk `partition` of `circuit` on `backend` from `seed`, as `walk` says.
pub fn walk_on<B: PooledBackend>(
    backend: &B,
    circuit: &Circuit,
    noise: &NoiseModel,
    partition: &Partition,
    seed: u64,
    leaf_samples: u32,
    walk: Walk,
) -> Walked<B> {
    let exec = TreeExecutor::new(circuit, noise, partition.clone()).expect("plan binds");
    if walk == Walk::Shared {
        let (run, states) = exec.run_on(backend, seed, leaf_samples);
        return Walked {
            counts: run.counts,
            ops: run.ops,
            states,
        };
    }
    let n = circuit.n_qubits();
    let subcircuits = partition.subcircuits(circuit);
    let mut mirror = Mirror {
        backend,
        subcircuits: &subcircuits,
        plans: exec.compiled_plans(),
        arities: partition.tree.arities(),
        noise,
        leaf_samples,
        per_gate: walk == Walk::PerGate,
        states: (0..=subcircuits.len())
            .map(|_| backend.allocate(n))
            .collect(),
        rng: StdRng::seed_from_u64(seed),
        counts: Counts::new(n),
        ops: OpCounts::new(),
    };
    mirror.walk(0);
    Walked {
        counts: mirror.counts,
        ops: mirror.ops,
        states: mirror.states,
    }
}
