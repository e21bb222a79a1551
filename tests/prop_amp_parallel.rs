//! Amplitude-level parallelism is invisible in results: `Counts` and
//! `amp_passes` must be bit-identical whether the amplitude worker pool
//! is capped at 1, 2 or 4 threads — at engine parallelism 1 and 4, on
//! the single-node and the 4-node cluster backend, under ideal and
//! sycamore noise — because the shim pool splits every amplitude pass
//! at fixed chunk boundaries derived from the work size alone, never
//! from the thread count. The tests force the parallel kernel path by
//! dropping `par_min_len` to 1 so even 6-qubit slices are chunked.
//!
//! And on the cluster, whose node slices run in turn on the caller's
//! thread: amplitudes and `ClusterCounters` are bit-equal whether the
//! kernels sweep each slice serially or pool inside it
//! (`slice_len >= par_min_len`).

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tqsim::Strategy as PlanStrategy;
use tqsim_circuit::math::{c64, Mat2, C64};
use tqsim_circuit::{generators, Circuit, Gate, GateKind};
use tqsim_cluster::{ClusterBackend, ClusterCounters, DistributedStateVector, InterconnectModel};
use tqsim_engine::{Engine, EngineConfig, JobPlan, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_statevec::kernels::{set_par_min_len, DEFAULT_PAR_MIN_LEN};
use tqsim_statevec::{DiagRun, OpCounts, PooledBackend, QuantumState};

/// Serialises the tests in this binary: `par_min_len` is a process-wide
/// knob, so only one test may hold it at 1 at a time.
static PAR_KNOB: Mutex<()> = Mutex::new(());

/// RAII: force the parallel kernel path for the duration of a test and
/// restore the default afterwards (also on panic, via `Drop`).
struct ForceParallel<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl ForceParallel<'_> {
    fn new() -> Self {
        Self::at(1)
    }

    /// Hold the knob at `par_min_len` instead of 1.
    fn at(par_min_len: usize) -> Self {
        let guard = PAR_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_par_min_len(par_min_len);
        ForceParallel { _guard: guard }
    }
}

impl Drop for ForceParallel<'_> {
    fn drop(&mut self) {
        set_par_min_len(DEFAULT_PAR_MIN_LEN);
    }
}

/// Random gates over `n` qubits, mixing 1q, rotation and 2q kinds so
/// compiled plans hold fused `Mat4` windows alongside diagonal runs.
fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let angle = -6.3f64..6.3;
    prop_oneof![
        (q.clone(), 0usize..6).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::H,
                GateKind::S,
                GateKind::T,
                GateKind::Sx,
                GateKind::Sw,
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), angle.clone(), 0usize..4).prop_map(move |(q, t, k)| {
            let kind = [
                GateKind::Rx(t),
                GateKind::Rz(t),
                GateKind::Phase(t),
                GateKind::Ry(t),
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), q, angle, 0usize..5).prop_filter_map("distinct qubits", move |(a, b, t, k)| {
            if a == b {
                return None;
            }
            let kind = [
                GateKind::Cx,
                GateKind::Cz,
                GateKind::CPhase(t),
                GateKind::Swap,
                GateKind::Rzz(t),
            ][k];
            Some(Gate::new(kind, &[a, b]))
        }),
    ]
}

fn arb_circuit(n: u16, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 2..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(*g.kind(), g.qubits());
        }
        c
    })
}

fn noise_for(idx: usize) -> NoiseModel {
    if idx == 0 {
        NoiseModel::ideal()
    } else {
        NoiseModel::sycamore()
    }
}

/// Run `job` with the amplitude pool capped at `amp_threads` for any
/// work submitted from this thread and its engine workers.
fn run_capped<B: tqsim_statevec::PooledBackend>(
    engine: &Engine<B>,
    job: &PlannedJob,
    amp_threads: usize,
) -> tqsim::RunResult {
    with_cap(Some(amp_threads), || engine.run_planned(job))
}

/// `f` under an amplitude-pool cap, or under the pool default for `None`.
fn with_cap<R>(cap: Option<usize>, f: impl FnOnce() -> R) -> R {
    match cap {
        None => f(),
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("shim pools are infallible to build")
            .install(f),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn counts_and_passes_invariant_under_amp_thread_count(
        circuit in arb_circuit(6, 16),
        noise_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _force = ForceParallel::new();
        let noise = noise_for(noise_idx);
        let plan = Arc::new(
            JobPlan::plan(&circuit, &noise, 6, &PlanStrategy::Custom { arities: vec![3, 2] })
                .unwrap(),
        );
        // The reference: one amplitude thread under a serial single-node
        // engine — the fully sequential execution.
        let reference = run_capped(
            &Engine::new(EngineConfig::default().parallelism(1)),
            &PlannedJob::new(Arc::clone(&plan)).seed(seed),
            1,
        );
        let model = InterconnectModel::commodity_cluster();
        for amp_threads in [2usize, 4] {
            for workers in [1usize, 4] {
                let single = Engine::new(EngineConfig::default().parallelism(workers));
                let r = run_capped(
                    &single,
                    &PlannedJob::new(Arc::clone(&plan)).seed(seed),
                    amp_threads,
                );
                prop_assert_eq!(
                    &r.counts, &reference.counts,
                    "single node, {} amp threads, {} workers", amp_threads, workers
                );
                prop_assert_eq!(
                    r.ops.amp_passes, reference.ops.amp_passes,
                    "single node, {} amp threads, {} workers", amp_threads, workers
                );

                let cluster = Engine::with_backend(
                    EngineConfig::default().parallelism(workers),
                    ClusterBackend::new(4, model),
                );
                let r = run_capped(
                    &cluster,
                    &PlannedJob::new(Arc::clone(&plan)).seed(seed),
                    amp_threads,
                );
                prop_assert_eq!(
                    &r.counts, &reference.counts,
                    "4-node cluster, {} amp threads, {} workers", amp_threads, workers
                );
                prop_assert_eq!(
                    r.ops.amp_passes, reference.ops.amp_passes,
                    "4-node cluster, {} amp threads, {} workers", amp_threads, workers
                );
            }
        }
    }
}

/// A deterministic (non-property) anchor: the 6-qubit QFT under sycamore
/// noise lands the same histogram at every amp-thread cap.
#[test]
fn qft_anchor_thread_sweep() {
    let _force = ForceParallel::new();
    let circuit = generators::qft(6);
    let noise = NoiseModel::sycamore();
    let strategy = PlanStrategy::Custom {
        arities: vec![3, 2],
    };
    let plan = Arc::new(JobPlan::plan(&circuit, &noise, 8, &strategy).unwrap());
    let engine = Engine::new(EngineConfig::default().parallelism(2));
    let reference = run_capped(&engine, &PlannedJob::new(Arc::clone(&plan)).seed(11), 1);
    for amp_threads in [2usize, 4] {
        let r = run_capped(
            &engine,
            &PlannedJob::new(Arc::clone(&plan)).seed(11),
            amp_threads,
        );
        assert_eq!(r.counts, reference.counts, "{amp_threads} amp threads");
        assert_eq!(r.ops, reference.ops, "{amp_threads} amp threads");
    }
}

/// 12 qubits over 4 nodes: slices of 2^10.
const CLUSTER_QUBITS: u16 = 12;
const CLUSTER_NODES: usize = 4;
/// Never pools: serial kernels on every slice.
const SERIAL_KERNELS: usize = usize::MAX;
/// `2^10 >= 2^10`: each kernel pools inside its slice.
const POOL_KERNELS: usize = 1 << 10;

/// A noisy fused replay, a parent→child copy and the two damping branches
/// on a node-selecting qubit (a one-term diagonal run, then the jump's
/// `Mat2` and renormalisation) on the 4-node cluster, under whatever
/// `par_min_len` and pool cap the caller holds.
fn cluster_walk(circuit: &Circuit) -> (Vec<C64>, ClusterCounters) {
    use rand::SeedableRng;
    let noise = NoiseModel::sycamore();
    let compiled = noise.compile(circuit);
    let backend = ClusterBackend::new(CLUSTER_NODES, InterconnectModel::commodity_cluster());
    let mut parent = backend.allocate(CLUSTER_QUBITS);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut ops = OpCounts::new();
    compiled.replay(&mut parent, &mut ops, |gate, ctx| {
        noise.apply_after_gate_deferred(gate, ctx, &mut rng)
    });
    let mut child: DistributedStateVector = backend.allocate(CLUSTER_QUBITS);
    backend.copy_into(&mut child, &parent);
    let top = CLUSTER_QUBITS - 1;
    let mut no_jump = DiagRun::new();
    no_jump.push1(top, [c64(1.0, 0.0), c64(0.8, 0.0)]);
    child.apply_diag_run(&no_jump);
    let zero = c64(0.0, 0.0);
    child.apply_mat2(top, &Mat2([[zero, c64(0.6, 0.0)], [zero, zero]]));
    child.renormalize();
    compiled.replay(&mut child, &mut ops, |gate, ctx| {
        noise.apply_after_gate_deferred(gate, ctx, &mut rng)
    });
    let mut counters = parent.counters;
    counters.merge(&child.counters);
    (child.gather().amplitudes().to_vec(), counters)
}

/// Kernels pooling inside every node slice against the serial run, at pool
/// caps 1, 2 and default.
#[test]
fn cluster_is_bit_identical_when_kernels_pool_inside_slices() {
    for circuit in [
        generators::qft(CLUSTER_QUBITS),
        generators::qsc(CLUSTER_QUBITS, 24, 7),
    ] {
        let reference = {
            let _knob = ForceParallel::at(SERIAL_KERNELS);
            cluster_walk(&circuit)
        };
        assert!(reference.1.exchanges > 0 && reference.1.state_copies == 1);
        let _knob = ForceParallel::at(POOL_KERNELS);
        for cap in [Some(1), Some(2), None] {
            let tasks = rayon::pool_stats().tasks;
            let (amps, counters) = with_cap(cap, || cluster_walk(&circuit));
            assert!(amps == reference.0, "cap {cap:?}: amplitudes moved");
            assert_eq!(counters, reference.1, "cap {cap:?}");
            assert!(
                rayon::pool_stats().tasks > tasks,
                "cap {cap:?}: the sweeps never reached the pool"
            );
        }
    }
}
