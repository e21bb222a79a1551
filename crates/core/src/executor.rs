//! The planned job ([`JobPlan`]) and its DFS tree walk with
//! intermediate-state reuse (paper §3.1/Fig. 7).

use crate::partition::{Partition, PlanError, Strategy};
use crate::tree::TreeStructure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tqsim_circuit::{Circuit, GateKind};
use tqsim_noise::NoiseModel;
use tqsim_statevec::{CompiledCircuit, OpCounts, PooledBackend, QuantumState, SingleNode};

/// Measurement histogram of a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    n_qubits: u16,
    map: HashMap<u64, u64>,
}

impl Counts {
    /// An empty histogram for `n_qubits`-bit outcomes.
    pub fn new(n_qubits: u16) -> Self {
        Counts {
            n_qubits,
            map: HashMap::new(),
        }
    }

    /// Register width of the outcomes.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Record one observation of `outcome`.
    pub fn increment(&mut self, outcome: u64) {
        *self.map.entry(outcome).or_insert(0) += 1;
    }

    /// Observations of a specific outcome.
    pub fn get(&self, outcome: u64) -> u64 {
        self.map.get(&outcome).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// Number of distinct outcomes observed.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Iterate `(outcome, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Fold another histogram into this one.
    ///
    /// The parallel engines accumulate per-worker histograms and merge them
    /// at the end; because addition commutes, the merged result is
    /// independent of worker scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ (merging 3-bit into 5-bit outcomes is
    /// almost certainly a bug).
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "cannot merge histograms of different widths"
        );
        for (outcome, count) in other.iter() {
            *self.map.entry(outcome).or_insert(0) += count;
        }
    }

    /// The empirical distribution as a dense `2^n` vector.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or wider than 26 qubits (dense
    /// expansion would exceed memory).
    pub fn to_distribution(&self) -> Vec<f64> {
        assert!(
            self.n_qubits <= 26,
            "dense distribution limited to 26 qubits"
        );
        let total = self.total();
        assert!(total > 0, "empty histogram");
        let mut p = vec![0.0; 1 << self.n_qubits];
        for (&outcome, &count) in &self.map {
            p[outcome as usize] = count as f64 / total as f64;
        }
        p
    }
}

impl FromIterator<u64> for Counts {
    /// Collect outcomes into a histogram; the width is set to fit the
    /// largest outcome seen (use [`Counts::new`] + [`Counts::increment`] to
    /// fix the width explicitly).
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut c = Counts::new(0);
        for o in iter {
            c.increment(o);
            let width = 64 - o.leading_zeros() as u16;
            c.n_qubits = c.n_qubits.max(width.max(1));
        }
        c
    }
}

/// Everything a run produces: the histogram plus cost accounting.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Measurement histogram (one entry per leaf of the tree).
    pub counts: Counts,
    /// Primitive-operation tallies (feed to a
    /// [`tqsim_statevec::CostProfile`] for modeled time).
    pub ops: OpCounts,
    /// The tree that was executed.
    pub tree: TreeStructure,
    /// Maximum number of concurrently live state buffers. The serial
    /// [`JobPlan::run_on`] walk always uses exactly `k + 1`; the
    /// `tqsim-engine` parallel executor reports its *measured* pool
    /// high-water mark, which in practice stays within
    /// `2 · workers · (k + 1)` under stealing (each worker can have one
    /// chain pinned by thieves plus one active chain).
    pub peak_states: usize,
    /// Peak amplitude memory in bytes (same provenance as `peak_states`).
    pub peak_memory_bytes: usize,
    /// Measured wall-clock time.
    pub wall_time: Duration,
}

impl RunResult {
    /// Whether the run drew every outcome its tree owes:
    /// `tree.outcomes() × leaf_samples` (saturating). A node-task panic
    /// abandons its subtree, so a short histogram is how a contained panic
    /// shows in a result.
    pub fn is_complete(&self, leaf_samples: u32) -> bool {
        let owed = self.tree.outcomes().saturating_mul(u64::from(leaf_samples));
        self.counts.total() >= owed
    }
}

/// A planned and compiled job: the partition and one **compiled fused
/// plan** per subcircuit, compiled once and replayed at every tree node
/// (`∏_{j≤i} A_j` replays of plan `i`); a compiled plan is the one
/// description of its segment that executors read. The one plan object:
/// [`JobPlan::run_on`] walks it serially, the `tqsim-engine` node tasks
/// share it (via `Arc`) across a job's tree, and the engine's plan cache
/// holds it across jobs, batches and service requests, so a repeated
/// planning input skips DCP and compilation.
///
/// It borrows nothing: the noise model is its own copy and the circuit is
/// kept only as its compiled segments.
pub struct JobPlan {
    partition: Partition,
    compiled: Vec<CompiledCircuit>,
    n_qubits: u16,
    noise: NoiseModel,
}

/// The serial executor's old name, kept only because `perf/` names it.
pub type TreeExecutor<'a> = JobPlan;

impl std::fmt::Debug for JobPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JobPlan[{} qubits, {} subcircuits, tree {}]",
            self.n_qubits,
            self.compiled.len(),
            self.partition.tree
        )
    }
}

impl JobPlan {
    /// Bind a partition to a circuit and noise model, then compile every
    /// subcircuit.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadBoundaries`] if the partition does not cover
    /// exactly the circuit's gates.
    pub fn new(
        circuit: &Circuit,
        noise: &NoiseModel,
        partition: Partition,
    ) -> Result<Self, PlanError> {
        if partition.covered_gates() != circuit.len() {
            return Err(PlanError::BadBoundaries(format!(
                "partition covers {} gates, circuit has {}",
                partition.covered_gates(),
                circuit.len()
            )));
        }
        let compiled = partition
            .subcircuits(circuit)
            .iter()
            .map(|sc| noise.compile(sc))
            .collect();
        Ok(JobPlan {
            partition,
            compiled,
            n_qubits: circuit.n_qubits(),
            noise: noise.clone(),
        })
    }

    /// Plan `circuit` for `shots` under `noise` with `strategy`, then
    /// [`JobPlan::new`]: the expensive part of a job, done once per
    /// distinct planning input.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unplannable inputs.
    pub fn plan(
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u64,
        strategy: &Strategy,
    ) -> Result<Self, PlanError> {
        JobPlan::new(circuit, noise, strategy.plan(circuit, noise, shots)?)
    }

    /// The planned partition (its `tree` is the tree shape).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The per-subcircuit compiled fused plans, one per tree level.
    pub fn compiled_plans(&self) -> &[CompiledCircuit] {
        &self.compiled
    }

    /// Register width of the planned circuit.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// The noise model the plan was compiled against.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Execute the full tree with a deterministic seed, one outcome per
    /// leaf, on one node.
    pub fn run(&self, seed: u64) -> RunResult {
        self.run_on(&SingleNode, seed, 1).0
    }

    /// Walk the tree depth-first on any pooled backend's states — the
    /// **single** serial tree walk. [`JobPlan::run`] runs it on one
    /// node, `tqsim-cluster`'s `run_distributed` on a `ClusterBackend`.
    /// Returns the run and the `k + 1` states it walked (one per tree
    /// level plus the root — exactly the "intermediate states in
    /// otherwise-unused memory" trade of §3.4), whose per-state counters a
    /// distributed backend keeps.
    ///
    /// Each node copies its parent's state through
    /// [`PooledBackend::copy_into`] (node-local slice copies on distributed
    /// backends — the contents never round-trip through a dense global
    /// vector), replays its compiled subcircuit ([`CompiledCircuit::replay`]
    /// with the engine forks' hook, [`NoiseModel::apply_after_gate_deferred`])
    /// and either samples ([`draw_leaf_outcomes`]) or recurses. One RNG
    /// seeded from `seed` is threaded through the whole walk, so the `Counts`
    /// are bit-identical on every backend.
    ///
    /// Each leaf draws `leaf_samples` outcomes (1 is the paper's
    /// semantics). More oversample each leaf state: `∏A_j · leaf_samples`
    /// outcomes for the same gate work, a cheap-throughput /
    /// correlated-samples trade the `ablation_dcp` harness quantifies.
    ///
    /// **Error-free sibling sharing.** A node first probes its noise draws
    /// on a clone of the RNG: it is error-free when
    /// [`NoiseModel::first_fired_marker`] finds no fired marker. An
    /// error-free node is a deterministic function of its parent's
    /// amplitudes, so when its level's slot still holds the error-free
    /// child of the parent state as it stands, the node adopts the probed
    /// RNG and recurses with no copy and no replay
    /// ([`OpCounts::nodes_shared`]); every other node runs in full on live
    /// draws. One flag per level says whether the slot holds that child: a
    /// write sets it to whether the node was error-free and clears the
    /// next level's flag (its parent slot changed), so a slot overwritten
    /// by an erroneous sibling, or computed from an earlier parent state,
    /// is never reused; no state beyond the `k + 1` is kept. Root nodes
    /// share too (their parent is the `|0…0⟩` root state, never
    /// rewritten), so a flat plan from DCP replays its error-free shots
    /// once; only a
    /// [per-shot](Partition::per_shot) plan ([`Strategy::Baseline`]) runs
    /// every node, and state-dependent channels never probe error-free.
    /// RNG stream, amplitudes and `Counts` are those of the unshared walk
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_samples == 0`, or if `backend` cannot hold states
    /// of the circuit's width.
    pub fn run_on<B: PooledBackend>(
        &self,
        backend: &B,
        seed: u64,
        leaf_samples: u32,
    ) -> (RunResult, Vec<B::State>) {
        assert!(leaf_samples >= 1, "need at least one sample per leaf");
        let t0 = Instant::now();
        let n = self.n_qubits;
        let k = self.compiled.len();
        let mut walk = TreeWalk {
            backend,
            plan: self,
            leaf_samples,
            states: (0..=k).map(|_| backend.allocate(n)).collect(),
            clean_child: vec![false; k + 1],
            counts: Counts::new(n),
            ops: OpCounts::new(),
            rng: StdRng::seed_from_u64(seed),
        };
        walk.ops.state_resets += 1;
        walk.recurse_nodes(0);

        let peak_states = walk.states.len();
        let peak_memory_bytes = peak_states * backend.state_bytes(&walk.states[0]);
        let run = RunResult {
            counts: walk.counts,
            ops: walk.ops,
            tree: self.partition.tree.clone(),
            peak_states,
            peak_memory_bytes,
            wall_time: t0.elapsed(),
        };
        (run, walk.states)
    }
}

/// The state of one [`JobPlan::run_on`] walk.
struct TreeWalk<'a, B: PooledBackend> {
    backend: &'a B,
    plan: &'a JobPlan,
    leaf_samples: u32,
    states: Vec<B::State>,
    /// `clean_child[l]`: `states[l]` holds the error-free child of
    /// `states[l - 1]` as it stands now.
    clean_child: Vec<bool>,
    counts: Counts,
    ops: OpCounts,
    rng: StdRng,
}

impl<B: PooledBackend> TreeWalk<'_, B> {
    /// Run the `arities[level]` children of the node whose state is
    /// `states[level]`.
    fn recurse_nodes(&mut self, level: usize) {
        let plan = self.plan;
        let k = plan.compiled.len();
        if level == k {
            let n = QuantumState::n_qubits(&self.states[k]);
            let (counts, ops) = (&mut self.counts, &mut self.ops);
            draw_leaf_outcomes(
                &self.states[k],
                &plan.noise,
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
        for _rep in 0..plan.partition.tree.arities()[level] {
            let mut probe = self.rng.clone();
            let error_free = !plan.partition.per_shot()
                && plan
                    .noise
                    .first_fired_marker(&plan.compiled[level], &mut probe)
                    .is_none();
            if error_free && self.clean_child[level + 1] {
                // The slot already holds this node's state.
                self.rng = probe;
                self.ops.nodes_shared += 1;
                self.recurse_nodes(level + 1);
                continue;
            }
            let (parents, children) = self.states.split_at_mut(level + 1);
            let child = &mut children[0];
            self.backend.copy_into(child, &parents[level]);
            self.ops.state_copies += 1;
            plan.compiled[level].replay(child, &mut self.ops, |gate, ctx| {
                plan.noise
                    .apply_after_gate_deferred(gate, ctx, &mut self.rng)
            });
            self.clean_child[level + 1] = error_free;
            if let Some(grandchild) = self.clean_child.get_mut(level + 2) {
                *grandchild = false;
            }
            self.recurse_nodes(level + 1);
        }
    }
}

/// Execute one subcircuit on any [`QuantumState`] backend, kept only
/// because `perf/src/layers.rs` names it; the Monte-Carlo baselines call it
/// too. The tree executors replay the compiled plan themselves.
///
/// `fusion = true` replays the compiled `plan` with the noise-adaptive
/// flush, exactly as the executors do. `false` dispatches each source gate
/// and applies its noise per gate ([`NoiseModel::apply_after_gate`]) — not
/// a mode any executor offers, but the bit-exact reference the tests'
/// unshared mirror walks. Both arms consume the RNG stream identically.
pub fn run_subcircuit<S, R>(
    state: &mut S,
    subcircuit: &Circuit,
    plan: &CompiledCircuit,
    noise: &NoiseModel,
    rng: &mut R,
    ops: &mut OpCounts,
    fusion: bool,
) where
    S: QuantumState + ?Sized,
    R: rand::Rng + ?Sized,
{
    if fusion {
        plan.replay(state, ops, |gate, ctx| {
            noise.apply_after_gate_deferred(gate, ctx, rng)
        });
    } else {
        for gate in subcircuit {
            state.apply_gate(gate);
            ops.add_gates(gate.arity(), 1);
            if !matches!(gate.kind(), GateKind::Id) {
                ops.amp_passes += 1;
            }
            ops.noise_ops += noise.apply_after_gate(state, gate, rng);
        }
    }
}

/// Draw `leaf_samples` readout-corrected outcomes from a leaf state on
/// one RNG, feeding each to `sink`: [`sample_leaf_members`] for one member.
/// Kept because `perf/src/layers.rs` names it; the serial walk and the
/// test mirrors call it too.
pub fn draw_leaf_outcomes<S, R>(
    state: &S,
    noise: &NoiseModel,
    n_qubits: u16,
    leaf_samples: u32,
    rng: &mut R,
    sink: impl FnMut(u64),
) where
    S: QuantumState + ?Sized,
    R: rand::Rng + ?Sized,
{
    sample_leaf_members(state, noise, n_qubits, leaf_samples, &mut [rng])
        .into_iter()
        .for_each(sink);
}

/// The `leaf_samples` readout-corrected outcomes per member RNG from one
/// leaf state, member by member: every member's uniforms, then one
/// [`QuantumState::sample_many`] walk for all of them, then every member's
/// readout noise on its own RNG, in draw order, applied in place over the
/// walk's result.
///
/// This is the **single** leaf-sampling implementation: the serial
/// [`JobPlan`] walk and the distributed runner draw one member per leaf
/// ([`draw_leaf_outcomes`]), the `tqsim-engine` node executor a node and
/// its error-free sharers. Each RNG sees uniforms, then readout, so a
/// member's outcomes are the ones it would draw alone, and every
/// executor's `Counts` rely on this draw order — do not fork it.
pub fn sample_leaf_members<S, R>(
    state: &S,
    noise: &NoiseModel,
    n_qubits: u16,
    leaf_samples: u32,
    rngs: &mut [R],
) -> Vec<u64>
where
    S: QuantumState + ?Sized,
    R: rand::Rng,
{
    let per_member = leaf_samples as usize;
    let mut us = Vec::with_capacity(per_member * rngs.len());
    for rng in rngs.iter_mut() {
        us.extend((0..per_member).map(|_| rand::RngExt::random::<f64>(rng)));
    }
    let mut outcomes = state.sample_many(&us);
    // `max(1)`: no outcomes to hand out when `leaf_samples` is 0.
    for (rng, batch) in rngs.iter_mut().zip(outcomes.chunks_mut(per_member.max(1))) {
        for outcome in batch {
            *outcome = noise.apply_readout(*outcome, n_qubits, rng);
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcp::DcpConfig;
    use crate::partition::Strategy;
    use tqsim_circuit::generators;

    fn run(
        circuit: &Circuit,
        noise: &NoiseModel,
        strat: &Strategy,
        shots: u64,
        seed: u64,
    ) -> RunResult {
        let p = strat.plan(circuit, noise, shots).unwrap();
        TreeExecutor::new(circuit, noise, p).unwrap().run(seed)
    }

    #[test]
    fn outcome_count_equals_tree_product() {
        let c = generators::qft(6);
        let noise = NoiseModel::sycamore();
        let r = run(
            &c,
            &noise,
            &Strategy::Custom {
                arities: vec![5, 3, 2],
            },
            30,
            1,
        );
        assert_eq!(r.counts.total(), 30);
        assert_eq!(r.tree.to_string(), "(5,3,2)");
        assert_eq!(r.peak_states, 4);
    }

    #[test]
    fn op_accounting_matches_tree_math() {
        let c = generators::qft(6); // uniform-split friendly
        let lens = [c.len() as u64 / 2, c.len() as u64 - c.len() as u64 / 2];
        let strat = Strategy::Custom {
            arities: vec![4, 2],
        };
        // Ideal noise: every realization is error-free, so one node per
        // level executes and every sibling, root nodes included, is served
        // from the same state.
        let r = run(&c, &NoiseModel::ideal(), &strat, 8, 3);
        assert_eq!(r.ops.state_copies, 1 + 1);
        assert_eq!(r.ops.nodes_shared, 3 + 7);
        assert_eq!(r.ops.samples, 8);
        assert_eq!(r.ops.total_gates(), lens[0] + lens[1]);
        assert_eq!(r.ops.noise_ops, 0, "ideal model injects nothing");
        // Any noise: every node is either materialised or shared, and gates
        // are charged per materialised node (`roots` of the 4 root nodes).
        for noise in [NoiseModel::sycamore(), NoiseModel::amplitude_damping(0.01)] {
            let r = run(&c, &noise, &strat, 8, 3);
            assert_eq!(
                r.ops.state_copies + r.ops.nodes_shared,
                r.tree.subcircuit_executions()
            );
            assert!((1..=4).any(|roots| r.ops.total_gates()
                == roots * lens[0] + (r.ops.state_copies - roots) * lens[1]));
            assert_eq!(r.ops.samples, 8);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = generators::qv(6, 2);
        let noise = NoiseModel::sycamore();
        let a = run(
            &c,
            &noise,
            &Strategy::Dynamic(DcpConfig::default()),
            100,
            42,
        );
        let b = run(
            &c,
            &noise,
            &Strategy::Dynamic(DcpConfig::default()),
            100,
            42,
        );
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.ops, b.ops);
        let c2 = run(
            &c,
            &noise,
            &Strategy::Dynamic(DcpConfig::default()),
            100,
            43,
        );
        assert_ne!(a.counts, c2.counts, "different seed should differ");
    }

    #[test]
    fn noiseless_baseline_reproduces_ideal_distribution() {
        // With an ideal model every leaf samples the exact final state.
        let c = generators::bv(8);
        let noise = NoiseModel::ideal();
        let r = run(&c, &noise, &Strategy::Baseline, 400, 9);
        // BV secret (data bits 1..6 set) must appear in every outcome's
        // data-bit projection.
        let secret: u64 = 0b111_1110;
        for (outcome, _) in r.counts.iter() {
            assert_eq!(outcome & 0x7f, secret, "outcome {outcome:#b}");
        }
    }

    #[test]
    fn tree_and_baseline_agree_statistically() {
        // Chebyshev-style check on the all-important first moment: the
        // probability of the dominant BV outcome under light noise must
        // agree between baseline and TQSim within sampling error.
        let c = generators::bv(8);
        let noise = NoiseModel::sycamore();
        let shots = 2000u64;
        let base = run(&c, &noise, &Strategy::Baseline, shots, 7);
        let tqs = run(
            &c,
            &noise,
            &Strategy::Custom {
                arities: vec![100, 20],
            },
            shots,
            8,
        );
        let secret: u64 = 0b111_1110;
        let pb = (0..2u64)
            .map(|anc| base.counts.get(secret | (anc << 7)))
            .sum::<u64>() as f64
            / base.counts.total() as f64;
        let pt = (0..2u64)
            .map(|anc| tqs.counts.get(secret | (anc << 7)))
            .sum::<u64>() as f64
            / tqs.counts.total() as f64;
        assert!((pb - pt).abs() < 0.05, "baseline {pb:.3} vs tqsim {pt:.3}");
        assert!(
            pb > 0.8,
            "light noise should mostly preserve the secret, got {pb}"
        );
    }

    #[test]
    fn mismatched_partition_rejected() {
        let c = generators::bv(6);
        let noise = NoiseModel::ideal();
        let p = Partition::baseline(c.len() + 5, 10).unwrap();
        assert!(TreeExecutor::new(&c, &noise, p).is_err());
    }

    #[test]
    fn counts_distribution_normalises() {
        let mut counts = Counts::new(2);
        counts.increment(0);
        counts.increment(0);
        counts.increment(3);
        let d = counts.to_distribution();
        assert!((d[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((d[3] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leaf_oversampling_multiplies_outcomes() {
        let c = generators::qft(6);
        let noise = NoiseModel::sycamore();
        let p = Strategy::Custom {
            arities: vec![5, 2],
        }
        .plan(&c, &noise, 10)
        .unwrap();
        let exec = TreeExecutor::new(&c, &noise, p).unwrap();
        let r = exec.run_on(&SingleNode, 1, 4).0;
        assert_eq!(r.counts.total(), 40);
        assert_eq!(r.ops.samples, 40);
        // The job description runs the same walk with its leaf samples.
        let described = crate::Tqsim::new(&c)
            .noise(noise.clone())
            .shots(10)
            .strategy(Strategy::Custom {
                arities: vec![5, 2],
            })
            .seed(1)
            .leaf_samples(3)
            .run()
            .unwrap();
        let direct = exec.run_on(&SingleNode, 1, 3).0;
        assert_eq!(described.counts, direct.counts);
        assert_eq!(described.ops, direct.ops);
        assert_eq!(described.counts.total(), 30);
        // Gate work is per materialised node, whatever the leaves draw.
        let lens = [c.len() as u64 / 2, c.len() as u64 - c.len() as u64 / 2];
        for r in [r, exec.run(1)] {
            assert_eq!(r.ops.state_copies + r.ops.nodes_shared, 5 + 10);
            assert_eq!(
                r.ops.total_gates(),
                5 * lens[0] + (r.ops.state_copies - 5) * lens[1]
            );
        }
    }

    #[test]
    fn counts_from_iterator() {
        let counts: Counts = [1u64, 1, 5, 7].into_iter().collect();
        assert_eq!(counts.get(1), 2);
        assert_eq!(counts.total(), 4);
        assert!(counts.n_qubits() >= 3);
    }
}
