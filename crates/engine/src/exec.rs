//! Parallel execution of simulation trees on a [`WorkerPool`].
//!
//! The serial [`tqsim::JobPlan::run_on`] walks the tree depth-first with
//! one RNG threaded through the whole walk, which is inherently sequential.
//! Here every tree node is an independent **dataflow task**: it copies its
//! parent's state (held alive in an `Arc` until the last child has copied
//! it), applies its subcircuit with fresh stochastic noise, then either
//! samples (leaf level) or spawns its children. Two things make the result
//! bit-identical at every parallelism level:
//!
//! 1. **Path-derived seeding.** A node's RNG is
//!    `StdRng::seed_from_u64(job_seed ^ node_path_hash)`, where the path
//!    hash mixes the child index at every level (paper-style per-subtree
//!    streams, one step finer). No RNG state ever crosses a task boundary.
//! 2. **Commutative reduction.** Tasks fold their outcomes into per-worker
//!    accumulators which are merged once the tree drains; histogram and
//!    op-count addition commute, so scheduling cannot change the result.
//!
//! Since the service front-end landed, the executor is **multi-tenant**:
//! several jobs can be in flight on one pool at once. Every task of a job
//! owns one `Arc` of the job's shared record, so the job is complete when
//! its last task drops it: the record's `Drop` merges the accumulators and
//! fires the completion callback on that thread, and nobody has to wait
//! for the whole pool to go idle — concurrent jobs' tasks interleave
//! freely in the work-stealing deques. Determinism is unaffected: a node's
//! RNG stream depends only on its own job's seed and its tree path, never
//! on what else shares the pool.
//!
//! State buffers come from the executing worker's [`StatePool`], so after
//! warm-up a tree of thousands of nodes performs **zero state-buffer heap
//! allocations** (each node overwrites a recycled buffer via `copy_from`;
//! the pool's allocation counter verifies this). Small per-task
//! bookkeeping — the boxed task itself and interior nodes' `Arc` — still
//! allocates, but those are O(bytes) against the O(2^n) amplitude buffers
//! the pool eliminates.
//!
//! **Error-free sibling sharing.** Before a node spawns, it probes every
//! child's path-derived stream for its first fired noise marker
//! ([`JobPlan::first_fired_marker`], a walk over the markers of the level's
//! compiled plan, numbered as the replay numbers them): error-free children
//! of one parent state are the same state bit for bit, so they ride **one**
//! trajectory that materialises once and then samples or spawns for each
//! of them with that child's own RNG. One root task probes the root nodes,
//! the children of the implicit `|0…0⟩` parent, on a worker, so
//! [`crate::Engine::start`] does O(1) work on the caller's thread. Op
//! accounting follows the serial executor: one `state_reset` per run, one
//! `state_copy` per node materialised, one `nodes_shared` per node served
//! by a sibling's state — under ideal noise the two executors agree count
//! for count.
//!
//! **Forked prefixes.** An erroneous child's replay is the clean replay up
//! to its first fired marker. So a parent state's children are one list,
//! sorted by that marker (the error-free ones last), and one task runs a
//! *clean trajectory* for them: it copies the parent once and replays the
//! segment with a hook that draws nothing (the [`ReplayCursor`] charges
//! each marker's site count to `noise_ops` on every path). At each
//! erroneous child's marker it copies the state, clones the cursor, leaves
//! the rest of the trajectory to a continuation task that a thief can pick
//! up, and resumes the child on its probe-positioned RNG. The last child to
//! fork takes the trajectory's buffer when no error-free child follows, so
//! `state_copies` and `nodes_shared` are the unforked rule's, and a parent
//! state holds at most one trajectory buffer. A child whose first fired
//! marker is marker 0 — every child of a [per-shot](tqsim::Partition::per_shot)
//! plan, and a damping model's child when the segment opens on a damped
//! gate — has no prefix to share and gets a trajectory of its own. On the
//! seven `paper_suite` DCP plans (1 000 shots, seed 1) forks cut the
//! engine's amplitude passes from 64 469 to 49 132 (−23.8 %) and
//! `noise_ops` from 319 988 to 241 594.
//!
//! [`StatePool`]: tqsim_statevec::StatePool

use crate::pool::{WorkerCtx, WorkerPool};
use crate::{ChunkSink, JobPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tqsim::{Counts, RunResult};
use tqsim_statevec::{OpCounts, PoolCounters, PooledBackend, PooledState, ReplayCursor};

/// Completion callback: invoked exactly once, on the thread that drops the
/// job's last task, with the fully merged result.
pub(crate) type DoneFn = Box<dyn FnOnce(RunResult) + Send>;

/// Everything a node task needs, shared immutably across one job's tree.
/// Every task owns one `Arc` of it, so the job is complete when the last
/// task drops its `Arc` (a panicking task drops it while unwinding, and
/// abandons only its own un-spawned work).
struct TreeShared {
    /// The job's plan: fused plans compiled **once** per distinct planning
    /// input and replayed by every node (shared across jobs, batches and
    /// service requests by the engine's plan cache).
    plan: Arc<JobPlan>,
    seed: u64,
    leaf_samples: u32,
    accums: Vec<Mutex<Accum>>,
    /// Taken when the job completes.
    done: Mutex<Option<DoneFn>>,
    /// Optional streaming sink: each leaf's outcomes are delivered as soon
    /// as the leaf batch is drawn, long before the job completes.
    sink: Option<ChunkSink>,
    counters: Arc<PoolCounters>,
    t0: Instant,
}

struct Accum {
    counts: Counts,
    ops: OpCounts,
}

/// Lock a worker's accumulator, recovering from poison: a task that
/// unwound while holding it at worst lost its own partial tally, which the
/// panicked job discards anyway, and the job's other tasks still merge.
fn lock_recover<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for TreeShared {
    /// The job's last task has dropped it: merge the per-worker
    /// accumulators into the final [`RunResult`] and hand it to the job's
    /// completion callback. Poison is recovered for [`lock_recover`]'s
    /// reason, and because a panic here, on an unwinding task's drop,
    /// would abort the process.
    fn drop(&mut self) {
        let done = self.done.get_mut().unwrap_or_else(PoisonError::into_inner);
        let Some(done) = done.take() else { return };
        let mut counts = Counts::new(self.plan.n_qubits());
        let mut ops = OpCounts::new();
        // Mirrors the serial executor: the initial |0…0⟩ materialisation is
        // charged once per run.
        ops.state_resets += 1;
        for slot in &mut self.accums {
            let accum = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            counts.merge(&accum.counts);
            ops.merge(&accum.ops);
        }
        let stats = self.counters.stats();
        done(RunResult {
            counts,
            ops,
            tree: self.plan.partition().tree.clone(),
            peak_states: stats.high_water,
            peak_memory_bytes: stats.high_water_bytes,
            wall_time: self.t0.elapsed(),
        });
    }
}

/// A node's view of its parent state: `None` for the implicit `|0…0⟩`
/// root, or a pooled buffer kept alive until the last child has copied it.
type Parent<B> = Option<Arc<PooledState<B>>>;

/// SplitMix64 finaliser: decorrelates structured path inputs.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a child's tree path given its parent's path hash and its index
/// among the siblings.
#[inline]
fn child_hash(parent_hash: u64, index: u64) -> u64 {
    mix(parent_hash ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(1))
}

/// Start one planned job on the pool **without blocking**: one root task is
/// injected, which probes the root nodes on a worker, and `done` fires on
/// the thread that drops the job's last task. Every engine job reaches the
/// pool through here — any number of jobs may be live on one pool,
/// interleaving in the work-stealing deques.
///
/// `peak_states`/`peak_memory_bytes` in the delivered result are the
/// pool's high-water mark since the pool started: the *combined* footprint
/// of everything that has shared the pool, this job included.
pub(crate) fn launch_tree<B: PooledBackend>(
    pool: &WorkerPool<B>,
    plan: &Arc<JobPlan>,
    seed: u64,
    leaf_samples: u32,
    sink: Option<ChunkSink>,
    done: DoneFn,
) {
    assert!(leaf_samples >= 1, "need at least one sample per leaf");
    // Fail fast on the caller's thread: an unsupported width (e.g. too few
    // node-local qubits for a cluster backend) is a static configuration
    // error, not something to panic over mid-tree on a worker.
    assert!(
        pool.backend().supports(plan.n_qubits()),
        "backend cannot materialise {}-qubit states (check PooledBackend::supports \
         before submitting)",
        plan.n_qubits()
    );
    let shared = Arc::new(TreeShared {
        plan: Arc::clone(plan),
        seed,
        leaf_samples,
        accums: (0..pool.workers())
            .map(|_| {
                Mutex::new(Accum {
                    counts: Counts::new(plan.n_qubits()),
                    ops: OpCounts::new(),
                })
            })
            .collect(),
        done: Mutex::new(Some(done)),
        sink,
        counters: Arc::clone(pool.pool_counters()),
        t0: Instant::now(),
    });
    // The root nodes: the children of the implicit `|0…0⟩` parent, hash `seed`.
    pool.inject(move |ctx| {
        run_task(&shared, ctx, |_| {
            spawn_children(&shared, None, 0, std::iter::once(seed), ctx);
        });
    });
}

/// The marker of an error-free child: it rides its parent state's clean
/// trajectory to the segment's end.
const CLEAN: usize = usize::MAX;

/// A child of one parent state: its path hash and its RNG, positioned
/// before the draws of `marker`, its first fired noise marker, or past the
/// segment's draws when it is [`CLEAN`].
struct Child {
    marker: usize,
    hash: u64,
    rng: StdRng,
}

/// Probe the `level` children of one parent state's members (their path
/// hashes) on their path-derived streams and spawn their tasks: one clean
/// trajectory that the error-free children ride and the erroneous ones
/// fork from, and a trajectory of one for each child that fires at marker
/// 0 and so has no clean prefix to share.
fn spawn_children<B: PooledBackend>(
    shared: &Arc<TreeShared>,
    parent: Parent<B>,
    level: usize,
    members: impl ExactSizeIterator<Item = u64>,
    ctx: &WorkerCtx<'_, B>,
) {
    let plan = &*shared.plan;
    let arity = plan.partition().tree.arities()[level];
    let mut to_probe = members.len().saturating_mul(arity as usize);
    let mut children = Vec::new();
    for member in members {
        for index in 0..arity {
            let hash = child_hash(member, index);
            let mut rng = StdRng::seed_from_u64(shared.seed ^ hash);
            let marker = plan.first_fired_marker(level, &mut rng).unwrap_or(CLEAN);
            let child = Child { marker, hash, rng };
            if marker == 0 {
                spawn_trajectory(shared, parent.clone(), level, vec![child], ctx);
            } else {
                // A job's largest buffer at a flat plan's root: reserved
                // once, for the children still to probe, not grown by
                // doubling (which holds both buffers); a refusal just
                // grows it.
                if children.capacity() == 0 {
                    let _ = children.try_reserve_exact(to_probe);
                }
                children.push(child);
            }
            to_probe -= 1;
        }
    }
    if !children.is_empty() {
        // Latest marker first: the trajectory pops the next fork off the
        // end, and the error-free children stay at the front.
        children.sort_unstable_by_key(|child| Reverse(child.marker));
        spawn_trajectory(shared, parent, level, children, ctx);
    }
}

/// Spawn the trajectory of `parent`'s `children` at `level` (latest marker
/// first), materialising its state in the task.
fn spawn_trajectory<B: PooledBackend>(
    shared: &Arc<TreeShared>,
    parent: Parent<B>,
    level: usize,
    children: Vec<Child>,
    ctx: &WorkerCtx<'_, B>,
) {
    spawn_task(shared, ctx, move |shared, ops, ctx| {
        let mut state = ctx.acquire(shared.plan.n_qubits());
        match &parent {
            None => state.reset_zero(),
            Some(parent) => ctx.backend().copy_into(&mut state, parent),
        }
        // Both arms are one full pass over the amplitudes; charged as the
        // state copy every node performs in the serial executor's accounting.
        ops.state_copies += 1;
        drop(parent); // release the parent buffer as early as possible
        let trajectory = Trajectory {
            level,
            state,
            cursor: ReplayCursor::new(),
            children,
        };
        trajectory.advance(shared, ops, ctx);
    });
}

/// One parent state's clean replay: its state and position, and the
/// children still to fork from it or to ride it to its end.
struct Trajectory<B: PooledBackend> {
    level: usize,
    state: PooledState<B>,
    cursor: ReplayCursor,
    children: Vec<Child>,
}

impl<B: PooledBackend> Trajectory<B> {
    /// Replay cleanly to the next fork and run that child on a copy of the
    /// state, leaving the rest of the trajectory to a continuation task that
    /// a thief can pick up; the last child takes the state itself. Once
    /// only error-free children are left, they ride the trajectory to its
    /// end together. So a parent state holds at most one trajectory buffer,
    /// and every copy is in use by a running task.
    fn advance(mut self, shared: &Arc<TreeShared>, ops: &mut OpCounts, ctx: &WorkerCtx<'_, B>) {
        let plan = &*shared.plan;
        let level = self.level;
        let compiled = &plan.compiled_plans()[level];
        // Every marker on the clean path draws identity: nothing to apply.
        let Some(mut child) = self.children.pop_if(|child| child.marker != CLEAN) else {
            // Free the forked children's slots before the members complete.
            self.children.shrink_to_fit();
            self.cursor
                .finish(compiled, &mut *self.state, ops, |_, _| {});
            return complete(shared, level, self.state, self.children, ops, ctx);
        };
        self.cursor
            .run_to(compiled, child.marker, &mut *self.state, ops, |_, _| {});
        let (mut state, cursor) = if self.children.is_empty() {
            (self.state, self.cursor)
        } else {
            let mut copy = ctx.acquire(plan.n_qubits());
            ctx.backend().copy_into(&mut copy, &self.state);
            ops.state_copies += 1;
            let cursor = self.cursor.clone();
            spawn_task(shared, ctx, move |shared, ops, ctx| {
                self.advance(shared, ops, ctx)
            });
            (copy, cursor)
        };
        cursor.finish(compiled, &mut *state, ops, |gate, flush| {
            plan.noise()
                .apply_after_gate_deferred(gate, flush, &mut child.rng)
        });
        complete(shared, level, state, vec![child], ops, ctx);
    }
}

/// Run one task of the job, then fold its op tallies into this worker's
/// accumulator.
fn run_task<B: PooledBackend>(
    shared: &Arc<TreeShared>,
    ctx: &WorkerCtx<'_, B>,
    body: impl FnOnce(&mut OpCounts),
) {
    // Failpoint covering the whole task: a single relaxed load when
    // disarmed. There is no error channel out of a task, so an injected
    // error becomes a panic — contained by the worker's `catch_unwind`
    // exactly like an organic one.
    if let Err(fault) = tqsim_faults::trigger("engine.node_task") {
        panic!("{fault}");
    }
    let mut ops = OpCounts::new();
    body(&mut ops);
    lock_recover(&shared.accums[ctx.index()]).ops.merge(&ops);
}

/// Spawn a task of the job onto this worker's deque. It owns an `Arc` of
/// the job from here on, so the job cannot complete while it is pending.
fn spawn_task<B: PooledBackend>(
    shared: &Arc<TreeShared>,
    ctx: &WorkerCtx<'_, B>,
    task: impl FnOnce(&Arc<TreeShared>, &mut OpCounts, &WorkerCtx<'_, B>) + Send + 'static,
) {
    let shared = Arc::clone(shared);
    ctx.spawn(move |ctx| run_task(&shared, ctx, |ops| task(&shared, ops, ctx)));
}

/// With the state at `level` of `members` (one node, or error-free
/// siblings, all with their RNGs past the subcircuit's draws) materialised,
/// sample (leaf) or spawn their children.
fn complete<B: PooledBackend>(
    shared: &Arc<TreeShared>,
    level: usize,
    state: PooledState<B>,
    members: Vec<Child>,
    ops: &mut OpCounts,
    ctx: &WorkerCtx<'_, B>,
) {
    let plan = &*shared.plan;
    ops.nodes_shared += members.len() as u64 - 1;
    if level + 1 < plan.compiled_plans().len() {
        let members = members.into_iter().map(|member| member.hash);
        spawn_children(shared, Some(Arc::new(state)), level + 1, members, ctx);
        return;
    }
    // Every member samples the same leaf state: one CDF walk for all of
    // them, each member's draws on its own RNG (collected in place).
    let mut rngs: Vec<StdRng> = members.into_iter().map(|member| member.rng).collect();
    let outcomes = tqsim::sample_leaf_members(
        &*state,
        plan.noise(),
        plan.n_qubits(),
        shared.leaf_samples,
        &mut rngs,
    );
    drop(state); // back to the worker's pool
    ops.samples += outcomes.len() as u64;
    // This worker's accumulator is effectively uncontended (only this
    // worker touches its slot until the final merge). The sink is never
    // called under the lock: one chunk per leaf, as each leaf's batch is
    // drawn.
    {
        let mut accum = lock_recover(&shared.accums[ctx.index()]);
        for &outcome in &outcomes {
            accum.counts.increment(outcome);
        }
    }
    if let Some(sink) = &shared.sink {
        for leaf in outcomes.chunks(shared.leaf_samples as usize) {
            sink(leaf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use tqsim::Strategy;
    use tqsim_circuit::generators;
    use tqsim_noise::NoiseModel;

    /// Run one job to completion, re-raising a node-task panic — what
    /// `Engine::run_planned` does.
    fn run_job(pool: &WorkerPool, plan: &Arc<JobPlan>, seed: u64, leaf_samples: u32) -> RunResult {
        let (tx, rx) = mpsc::channel();
        launch_tree(
            pool,
            plan,
            seed,
            leaf_samples,
            None,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        let result = rx.recv().expect("job completion callback");
        if let Some(payload) = pool.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    fn plan_for(arities: Vec<u64>, noise: &NoiseModel) -> Arc<JobPlan> {
        let circuit = generators::qft(6);
        Arc::new(JobPlan::plan(&circuit, noise, 30, &Strategy::Custom { arities }).expect("plan"))
    }

    fn run_with_workers(workers: usize, seed: u64, arities: Vec<u64>) -> RunResult {
        let noise = NoiseModel::sycamore();
        let plan = plan_for(arities, &noise);
        let pool = WorkerPool::new(workers);
        run_job(&pool, &plan, seed, 1)
    }

    #[test]
    fn outcome_count_equals_tree_product() {
        let r = run_with_workers(3, 1, vec![5, 3, 2]);
        assert_eq!(r.counts.total(), 30);
        assert_eq!(r.tree.to_string(), "(5,3,2)");
    }

    #[test]
    fn ops_match_serial_executor() {
        let circuit = generators::qft(6);
        let noise = NoiseModel::ideal();
        let strategy = Strategy::Custom {
            arities: vec![4, 2],
        };
        let partition = strategy.plan(&circuit, &noise, 8).unwrap();
        let serial = tqsim::TreeExecutor::new(&circuit, &noise, partition)
            .unwrap()
            .run(3);
        let plan = Arc::new(JobPlan::plan(&circuit, &noise, 8, &strategy).unwrap());
        let pool = WorkerPool::new(2);
        let par = run_job(&pool, &plan, 3, 1);
        // Identical op accounting (noiseless ⇒ even the RNG plays no role),
        // including the fused-path amp_passes/fused_gates counters: both
        // executors materialise one node per level and serve every sibling,
        // root nodes included, from the same state.
        assert_eq!(par.ops, serial.ops);
        assert_eq!((par.ops.state_copies, par.ops.nodes_shared), (2, 10));
        // Ideal noise: identical leaf states ⇒ engine and serial agree on
        // which outcomes are possible, though RNG streams differ.
        assert_eq!(par.counts.total(), serial.counts.total());
    }

    /// The reference walk: every node materialised from its parent on its
    /// own path-derived stream, from the public primitives, serially — and
    /// dispatched gate by gate, so it neither shares nor fuses.
    struct Mirror<'a> {
        plan: &'a JobPlan,
        subcircuits: Vec<tqsim_circuit::Circuit>,
        seed: u64,
        leaf_samples: u32,
        counts: Counts,
        ops: OpCounts,
    }

    impl Mirror<'_> {
        fn node(&mut self, parent: Option<&tqsim_statevec::StateVector>, level: usize, hash: u64) {
            use tqsim_statevec::SingleNode;
            let k = self.subcircuits.len();
            let mut state = SingleNode.allocate(self.plan.n_qubits());
            if let Some(parent) = parent {
                SingleNode.copy_into(&mut state, parent);
            }
            self.ops.state_copies += 1;
            let mut rng = StdRng::seed_from_u64(self.seed ^ hash);
            tqsim::run_subcircuit(
                &mut state,
                &self.subcircuits[level],
                &self.plan.compiled_plans()[level],
                self.plan.noise(),
                &mut rng,
                &mut self.ops,
                false,
            );
            if level + 1 == k {
                let (counts, ops) = (&mut self.counts, &mut self.ops);
                tqsim::draw_leaf_outcomes(
                    &state,
                    self.plan.noise(),
                    self.plan.n_qubits(),
                    self.leaf_samples,
                    &mut rng,
                    |outcome| {
                        counts.increment(outcome);
                        ops.samples += 1;
                    },
                );
            } else {
                for index in 0..self.plan.partition().tree.arities()[level + 1] {
                    self.node(Some(&state), level + 1, child_hash(hash, index));
                }
            }
        }
    }

    fn unshared_mirror<'a>(
        plan: &'a JobPlan,
        circuit: &tqsim_circuit::Circuit,
        seed: u64,
        leaf_samples: u32,
    ) -> Mirror<'a> {
        let mut mirror = Mirror {
            plan,
            subcircuits: plan.partition().subcircuits(circuit),
            seed,
            leaf_samples,
            counts: Counts::new(plan.n_qubits()),
            ops: OpCounts::new(),
        };
        for index in 0..plan.partition().tree.arities()[0] {
            mirror.node(None, 0, child_hash(seed, index));
        }
        mirror
    }

    /// One CDF walk for a node and its sharers draws, member by member,
    /// exactly the outcomes each member's own `draw_leaf_outcomes` would,
    /// and leaves every RNG at the same point.
    #[test]
    fn shared_leaf_draws_equal_per_member_draws() {
        use rand::RngExt;
        use tqsim_noise::ReadoutError;
        let mut circuit = generators::qft(6);
        circuit.h(2).cx(2, 4).h(0).cx(0, 5);
        let mut state = tqsim_statevec::StateVector::zero(6);
        state.apply_circuit(&circuit);
        let noise = NoiseModel::sycamore().with_readout(ReadoutError::symmetric(0.2));
        let rngs = || (0..4u64).map(StdRng::seed_from_u64);
        for leaf_samples in [1, 3] {
            for members in 1..=4 {
                let mut want = Vec::new();
                let mut want_rngs: Vec<StdRng> = rngs().take(members).collect();
                for rng in &mut want_rngs {
                    tqsim::draw_leaf_outcomes(&state, &noise, 6, leaf_samples, rng, |o| {
                        want.push(o)
                    });
                }
                let mut got = Vec::new();
                let mut got_rngs: Vec<StdRng> = rngs().take(members).collect();
                let mut members_rngs: Vec<&mut StdRng> = got_rngs.iter_mut().collect();
                got.extend(tqsim::sample_leaf_members(
                    &state,
                    &noise,
                    6,
                    leaf_samples,
                    &mut members_rngs,
                ));
                let what = format!("leaf_samples {leaf_samples}, {members} members");
                assert_eq!(got, want, "{what}");
                let after: Vec<u64> = got_rngs.iter_mut().map(|rng| rng.random()).collect();
                let want_after: Vec<u64> = want_rngs.iter_mut().map(|rng| rng.random()).collect();
                assert_eq!(after, want_after, "{what}: RNG streams moved");
            }
        }
    }

    #[test]
    fn shared_tree_counts_equal_the_unshared_mirror_on_the_full_grid() {
        use tqsim_noise::ReadoutError;
        // QFT plus Toffoli blocks: 1q, 2q and 3q noise sites.
        let mut circuit = generators::qft(7);
        circuit
            .ccx(0, 1, 2)
            .h(3)
            .ccx(4, 5, 6)
            .cx(6, 0)
            .t(2)
            .ccx(2, 3, 4);
        let pools: Vec<WorkerPool> = (1..=3).map(WorkerPool::new).collect();
        for noise in [
            NoiseModel::ideal(),
            NoiseModel::sycamore(),
            NoiseModel::depolarizing(0.05, 0.2),
            NoiseModel::amplitude_damping(0.01),
            NoiseModel::phase_damping(0.01),
            NoiseModel::sycamore().with_readout(ReadoutError::symmetric(0.02)),
            // Markers on 2q gates only: fork ordinals are not gate indices.
            NoiseModel::ideal()
                .with_channel_2q(tqsim_noise::Channel::Depolarizing { p: 0.2 })
                .named("depolarizing-2q"),
            // Damping on 2q gates only: forks resume into a marker that
            // samples the state, after clean 1q markers.
            NoiseModel::ideal()
                .with_channel_1q(tqsim_noise::Channel::Depolarizing { p: 0.05 })
                .with_channel_2q(tqsim_noise::Channel::AmplitudeDamping { gamma: 0.05 })
                .named("depolarizing-1q-damping-2q"),
        ] {
            for arities in [
                vec![40],
                vec![1, 2],
                vec![4, 4, 4],
                vec![63, 2, 2],
                vec![2, 2, 2, 2, 2],
            ] {
                let strategy = Strategy::Custom {
                    arities: arities.clone(),
                };
                let plan = Arc::new(JobPlan::plan(&circuit, &noise, 1, &strategy).unwrap());
                let nodes = plan.partition().tree.subcircuit_executions();
                for leaf_samples in [1u32, 3] {
                    let cell = format!("{} {arities:?} leaf_samples={leaf_samples}", noise.name());
                    let mirror = unshared_mirror(&plan, &circuit, 17, leaf_samples);
                    assert_eq!(mirror.ops.state_copies, nodes, "{cell}");
                    let runs: Vec<RunResult> = pools
                        .iter()
                        .map(|pool| run_job(pool, &plan, 17, leaf_samples))
                        .collect();
                    for (r, pool) in runs.iter().zip(&pools) {
                        let cell = format!("{cell} workers={}", pool.workers());
                        assert_eq!(r.counts, mirror.counts, "{cell}");
                        assert_eq!(r.ops, runs[0].ops, "{cell}");
                        assert_eq!(r.ops.state_copies + r.ops.nodes_shared, nodes, "{cell}");
                    }
                    let ops = runs[0].ops;
                    let state_dependent = noise
                        .channels_1q()
                        .iter()
                        .any(|ch| !ch.samples_state_free());
                    // Fusion saves passes on every cell, sharing or not —
                    // except under damping, which samples the state at
                    // every noise site and so flushes gate by gate.
                    assert!(ops.amp_passes <= mirror.ops.amp_passes, "{cell}");
                    assert!(
                        state_dependent || ops.amp_passes < mirror.ops.amp_passes,
                        "{cell}"
                    );
                    if state_dependent {
                        // Damping families never share: the tree is the
                        // mirror, gate for gate.
                        assert_eq!(ops.nodes_shared, 0, "{cell}");
                        assert_eq!(ops.total_gates(), mirror.ops.total_gates(), "{cell}");
                        assert_eq!(ops.noise_ops, mirror.ops.noise_ops, "{cell}");
                    } else if noise.is_ideal() {
                        // One task per level, the root's children included.
                        assert_eq!(ops.state_copies, arities.len() as u64, "{cell}");
                    } else if arities.len() >= 3 && noise.name() == "sycamore-dc" {
                        assert!(ops.nodes_shared > 0, "{cell}");
                        assert!(ops.total_gates() < mirror.ops.total_gates(), "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn error_free_siblings_travel_as_one_task() {
        // Ideal noise: the 5 root nodes are one task, their 15 children are
        // one task, and so are the 30 leaves — 3 tasks for 50 nodes, each
        // streamed leaf still its own chunk.
        let plan = plan_for(vec![5, 3, 2], &NoiseModel::ideal());
        let pool = WorkerPool::new(2);
        let chunks = Arc::new(Mutex::new(Vec::<usize>::new()));
        let sink_target = Arc::clone(&chunks);
        let sink: ChunkSink = Arc::new(move |chunk: &[u64]| {
            sink_target.lock().unwrap().push(chunk.len());
        });
        let (tx, rx) = mpsc::channel();
        launch_tree(
            &pool,
            &plan,
            9,
            2,
            Some(sink),
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        let result = rx.recv().unwrap();
        // Each node task acquires exactly one pooled state.
        let stats = pool.pool_stats();
        assert_eq!(stats.allocations + stats.reuses, 3);
        assert_eq!(result.ops.state_copies, 3);
        assert_eq!(result.ops.nodes_shared, 47);
        assert_eq!(result.counts.total(), 60);
        assert_eq!(*chunks.lock().unwrap(), vec![2; 30]);
    }

    #[test]
    fn a_flat_plan_shares_its_root_and_baseline_does_not() {
        let circuit = generators::qft(6);
        let shots = 40u64;
        let seed = 5u64;
        let flat = Strategy::Custom {
            arities: vec![shots],
        };
        for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
            let plan = Arc::new(JobPlan::plan(&circuit, &noise, shots, &flat).unwrap());
            let erroneous = (0..shots)
                .filter(|&index| {
                    let mut rng = StdRng::seed_from_u64(seed ^ child_hash(seed, index));
                    noise
                        .first_fired_marker(&plan.compiled_plans()[0], &mut rng)
                        .is_some()
                })
                .count() as u64;
            assert!(
                erroneous < shots,
                "{}: some root child is error-free",
                noise.name()
            );
            // One task for every error-free root child, one per erroneous
            // child; each acquires one pooled state.
            let pool = WorkerPool::new(2);
            let shared = run_job(&pool, &plan, seed, 1);
            let stats = pool.pool_stats();
            assert_eq!(
                stats.allocations + stats.reuses,
                1 + erroneous,
                "{}",
                noise.name()
            );
            assert_eq!(shared.ops.state_copies, 1 + erroneous);
            assert_eq!(
                shared.counts,
                unshared_mirror(&plan, &circuit, seed, 1).counts
            );
            // `Strategy::Baseline` plans the same tree and runs every shot.
            let baseline = Strategy::Baseline;
            let baseline = Arc::new(JobPlan::plan(&circuit, &noise, shots, &baseline).unwrap());
            let pool = WorkerPool::new(2);
            let per_shot = run_job(&pool, &baseline, seed, 1);
            let stats = pool.pool_stats();
            assert_eq!(stats.allocations + stats.reuses, shots);
            assert_eq!(per_shot.ops.nodes_shared, 0);
            assert_eq!(per_shot.counts, shared.counts);
        }
    }

    #[test]
    fn erroneous_children_fork_from_one_clean_replay() {
        use tqsim_statevec::StateVector;
        let circuit = generators::qft(7);
        let noise = NoiseModel::sycamore();
        let (shots, seed) = (200u64, 11u64);
        let flat = Strategy::Custom {
            arities: vec![shots],
        };
        let plan = Arc::new(JobPlan::plan(&circuit, &noise, shots, &flat).unwrap());
        let compiled = &plan.compiled_plans()[0];
        // The parent rule: one replay for the error-free children, and a
        // whole replay of the segment for each erroneous one.
        let replay_passes = |rng: &mut StdRng| {
            let mut ops = OpCounts::new();
            let mut state = StateVector::zero(plan.n_qubits());
            tqsim::run_subcircuit(&mut state, &circuit, compiled, &noise, rng, &mut ops, true);
            ops.amp_passes
        };
        let mut parent_rule = 0;
        let (mut erroneous, mut forked, mut clean) = (0u64, 0u64, false);
        for index in 0..shots {
            let hash = child_hash(seed, index);
            let mut probe = StdRng::seed_from_u64(seed ^ hash);
            match noise.first_fired_marker(compiled, &mut probe) {
                None if clean => continue,
                None => clean = true,
                Some(marker) => {
                    erroneous += 1;
                    forked += u64::from(marker > 0);
                }
            }
            parent_rule += replay_passes(&mut StdRng::seed_from_u64(seed ^ hash));
        }
        assert!(clean && forked > 1, "{forked} of {erroneous} children fork");
        for workers in [1, 2] {
            let pool = WorkerPool::new(workers);
            let r = run_job(&pool, &plan, seed, 1);
            assert_eq!(r.ops.state_copies, 1 + erroneous, "{workers} workers");
            assert_eq!(
                r.ops.nodes_shared,
                shots - 1 - erroneous,
                "{workers} workers"
            );
            assert!(
                r.ops.amp_passes < parent_rule,
                "{workers} workers: {} passes, {parent_rule} by the parent rule",
                r.ops.amp_passes
            );
            assert_eq!(r.counts, unshared_mirror(&plan, &circuit, seed, 1).counts);
        }
    }

    #[test]
    fn schedule_independent_counts() {
        let a = run_with_workers(1, 42, vec![5, 3, 2]);
        let b = run_with_workers(4, 42, vec![5, 3, 2]);
        assert_eq!(a.counts, b.counts, "parallelism must not change results");
        assert_eq!(a.ops, b.ops);
        let c = run_with_workers(4, 43, vec![5, 3, 2]);
        assert_ne!(a.counts, c.counts, "different seed must differ");
    }

    #[test]
    fn measured_peak_is_reported() {
        let r = run_with_workers(2, 7, vec![5, 3, 2]);
        assert!(r.peak_states >= 1, "at least one live buffer at some point");
        assert_eq!(r.peak_memory_bytes % (16 << 6), 0, "whole 6-qubit buffers");
        // Loose schedule-independent bound: each of the 2 workers can have
        // up to two k-deep chains live when steals pin parents (k = 3).
        assert!(
            r.peak_states <= 2 * 2 * 4,
            "bounded by workers × 2 × (k + 1)"
        );
    }

    #[test]
    fn overlapped_jobs_on_one_pool_match_isolated_runs() {
        // Multi-tenancy in microcosm: launch three jobs at once on one
        // pool; each must produce exactly the Counts it produces alone.
        let noise = NoiseModel::sycamore();
        let plan = plan_for(vec![5, 3, 2], &noise);
        let isolated: Vec<RunResult> = (0..3u64)
            .map(|seed| {
                let pool = WorkerPool::new(2);
                run_job(&pool, &plan, seed, 1)
            })
            .collect();

        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for seed in 0..3u64 {
            let tx = tx.clone();
            launch_tree(
                &pool,
                &plan,
                seed,
                1,
                None,
                Box::new(move |r| {
                    let _ = tx.send((seed, r));
                }),
            );
        }
        drop(tx);
        let mut overlapped: Vec<Option<RunResult>> = vec![None, None, None];
        for (seed, r) in rx.iter() {
            overlapped[seed as usize] = Some(r);
        }
        for (seed, (iso, ovl)) in isolated.iter().zip(&overlapped).enumerate() {
            let ovl = ovl.as_ref().expect("all jobs complete");
            assert_eq!(iso.counts, ovl.counts, "seed {seed}");
            assert_eq!(iso.ops, ovl.ops, "seed {seed}");
        }
    }

    #[test]
    fn streaming_sink_receives_every_outcome() {
        let noise = NoiseModel::sycamore();
        let plan = plan_for(vec![5, 3, 2], &noise);
        let pool = WorkerPool::new(2);
        let streamed = Arc::new(Mutex::new(Vec::<u64>::new()));
        let sink_target = Arc::clone(&streamed);
        let sink: ChunkSink = Arc::new(move |chunk: &[u64]| {
            sink_target.lock().unwrap().extend_from_slice(chunk);
        });
        let (tx, rx) = mpsc::channel();
        launch_tree(
            &pool,
            &plan,
            9,
            2,
            Some(sink),
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        let result = rx.recv().unwrap();
        // Streamed outcomes are the final histogram, delivered early in
        // leaf-batch chunks (arrival order is scheduling-dependent; the
        // multiset is not).
        let streamed: Counts = {
            let mut c = Counts::new(6);
            for &o in streamed.lock().unwrap().iter() {
                c.increment(o);
            }
            c
        };
        assert_eq!(result.counts.total(), 60, "30 leaves × 2 samples");
        assert_eq!(streamed, result.counts);
    }
}
