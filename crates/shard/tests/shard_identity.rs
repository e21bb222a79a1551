//! One distributed state, two slice transports. The conformance body below
//! drives every `SliceOp`, both `PairOp`s and every `Query` through a
//! `DistributedStateVector<T>` and checks each result bit for bit against
//! a flat `StateVector` driven through the same operations: amplitudes
//! directly, reductions against the rank-ordered fold the distributed
//! state documents. It runs on the in-process `LocalSlices` at 2, 4 and 8
//! nodes and on the TCP `ShardSlices` at 2 and 4 worker processes, whose
//! deterministic counters must equal the in-process ones. One level up,
//! the engine must return identical `Counts` on either backend.

use std::sync::Arc;
use tqsim::Strategy;
use tqsim_circuit::math::{c64, C64};
use tqsim_circuit::{generators, Gate, GateKind};
use tqsim_cluster::{
    ClusterBackend, ClusterCounters, DistributedStateVector, InterconnectModel, SliceTransport,
};
use tqsim_engine::{Engine, EngineConfig, JobPlan, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_shard::ShardBackend;
use tqsim_statevec::{DiagRun, PooledBackend, QuantumState, StateVector};

const N: u16 = 8;

fn model() -> InterconnectModel {
    InterconnectModel::commodity_cluster()
}

fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// The documented fold: per-slice `Σ|a|²` over the slices `keep` selects,
/// added in rank order.
fn rank_fold(amps: &[C64], n_nodes: usize, keep: impl Fn(usize) -> bool) -> f64 {
    amps.chunks(amps.len() / n_nodes)
        .enumerate()
        .filter(|&(rank, _)| keep(rank))
        .map(|(_, slice)| slice.iter().map(|a| a.norm_sqr()).sum::<f64>())
        .sum()
}

/// The conformance body: returns the state's counters for comparison
/// across transports.
fn conform<T, B>(backend: &B) -> ClusterCounters
where
    T: SliceTransport,
    B: PooledBackend<State = DistributedStateVector<T>>,
{
    let mut dsv = backend.allocate(N);
    let mut sv = StateVector::zero(N);
    let (n_nodes, local_n) = (dsv.n_nodes(), dsv.local_qubits());
    let same = |dsv: &DistributedStateVector<T>, sv: &StateVector, what: &str| {
        assert_eq!(
            bits(dsv.gather().amplitudes()),
            bits(sv.amplitudes()),
            "{what} on {n_nodes} nodes"
        );
    };

    // Gates, as `classify` makes them: a diagonal sweeps a one-term
    // `DiagRun` wherever its qubits are; a matrix (`SliceOp::Mat2`/`Mat4`)
    // or a Toffoli (`SliceOp::Ccx`) sweeps locally, every operand on a
    // global qubit remapped by `PairOp::HalfSwap` rounds there and back.
    let mut gates: Vec<Gate> = generators::qsc(N, 40, 3).iter().copied().collect();
    gates.push(Gate::new(GateKind::Ccx, &[7, 6, 0]));
    gates.push(Gate::new(GateKind::Swap, &[N - 1, 1]));
    for gate in &gates {
        dsv.apply_gate(gate);
        sv.apply_gate(gate);
    }
    same(&dsv, &sv, "gate stream");
    let exchanges = dsv.counters.exchanges;
    for gate in [
        Gate::new(GateKind::Rz(0.7), &[N - 1]),
        Gate::new(GateKind::Cz, &[N - 1, 0]),
    ] {
        dsv.apply_gate(&gate);
        sv.apply_gate(&gate);
    }
    assert_eq!(
        dsv.counters.exchanges, exchanges,
        "a diagonal gate on a node-selecting qubit exchanged"
    );
    same(&dsv, &sv, "diagonal gates on a node-selecting qubit");

    // Dense fused matrices, local and global, and a diagonal run over
    // local and node-selecting qubits.
    let ry = GateKind::Ry(0.3).matrix1().unwrap();
    let fsim = GateKind::FSim(0.4, -0.7).matrix2().unwrap();
    for q in [0, N - 1] {
        dsv.apply_mat2(q, &ry);
        sv.apply_mat2(q, &ry);
    }
    for (hi, lo) in [(2, 0), (N - 1, 1), (N - 1, N - 2)] {
        dsv.apply_mat4(hi, lo, &fsim);
        sv.apply_mat4(hi, lo, &fsim);
    }
    // FSim rows have at most two nonzeros; a dense matrix's four-term rows
    // show the order they are summed in, which a remap onto scratch
    // qubits must not change (either operand order, local and global).
    let (u, w) = (
        GateKind::U3(0.3, 0.7, 1.1).matrix1().unwrap(),
        GateKind::U3(1.9, -0.2, 0.5).matrix1().unwrap(),
    );
    let dense = u.kron(&w).mul(&fsim).mul(&w.kron(&u));
    for (hi, lo) in [(N - 1, N - 2), (N - 2, N - 1), (1, N - 1), (0, 2)] {
        dsv.apply_mat4(hi, lo, &dense);
        sv.apply_mat4(hi, lo, &dense);
        same(&dsv, &sv, &format!("dense mat4({hi},{lo})"));
    }
    let mut run = DiagRun::new();
    run.push1(1, GateKind::T.diag1().unwrap());
    run.push1(N - 1, GateKind::S.diag1().unwrap());
    run.push2(N - 2, 0, GateKind::Cz.diag2().unwrap());
    dsv.apply_diag_run(&run);
    sv.apply_diag_run(&run);
    same(&dsv, &sv, "fused ops");

    // Kraus-branch surface: (anti)diagonals on a local qubit (sweeps) and
    // on a node-selecting one (`ScaleBit` and the `PairOp::Antidiag` round).
    let (d0, d1) = (c64(0.9, 0.0), c64(0.0, 0.4));
    for q in [1, N - 1] {
        dsv.apply_diag1(q, d0, d1);
        sv.apply_diag1(q, d0, d1);
    }
    for q in [2, N - 1] {
        dsv.apply_antidiag1(q, d1, d0);
        sv.apply_antidiag1(q, d1, d0);
    }
    same(&dsv, &sv, "diagonals");

    // Queries on the now sub-normalised state: norm and global marginals
    // fold per-slice sums in rank order; a local marginal carries one
    // accumulator through the ranks; sampling walks one CDF in global
    // index order, so it is the flat state's own, draw for draw —
    // including the over-range fallback to the last basis state.
    let amps = sv.amplitudes();
    assert_eq!(
        dsv.norm_sqr().to_bits(),
        rank_fold(amps, n_nodes, |_| true).to_bits()
    );
    for q in 0..N {
        let expect = if q >= local_n {
            let mask = 1usize << (q - local_n);
            rank_fold(amps, n_nodes, |rank| rank & mask != 0)
        } else {
            let set = amps.iter().enumerate().filter(|(i, _)| i & (1 << q) != 0);
            set.fold(0.0, |acc, (_, a)| acc + a.norm_sqr())
        };
        assert_eq!(dsv.marginal_one(q).to_bits(), expect.to_bits(), "q{q}");
    }
    let mut us: Vec<f64> = (0..40).map(|i| (i as f64 + 0.37) / 40.0).collect();
    us.extend([0.0, 0.999_999_9, 0.5, 0.5]);
    assert_eq!(dsv.sample_many(&us), sv.sample_many(&us));
    for &u in &us {
        assert_eq!(dsv.sample_with(u), sv.sample_with(u), "u={u}");
    }
    assert!(dsv.sample_many(&[]).is_empty());

    // Renormalisation scales by the folded norm (`Query::Psum`, then
    // `SliceOp::Scale`).
    let s = 1.0 / rank_fold(sv.amplitudes(), n_nodes, |_| true).sqrt();
    dsv.renormalize();
    for a in sv.amplitudes_mut() {
        *a *= s;
    }
    same(&dsv, &sv, "renormalised");

    // State copies and resets (`SliceOp::Reset`).
    let mut child = backend.allocate(N);
    child.copy_from(&dsv);
    same(&child, &sv, "copy");
    assert_eq!(child.counters.state_copies, 1);
    child.reset_zero();
    same(&child, &StateVector::zero(N), "reset");

    assert!(dsv.counters.exchanges > 0, "global operands must exchange");
    let mut counters = dsv.counters;
    counters.merge(&child.counters);
    counters
}

#[test]
fn local_slices_conform_at_2_4_8_nodes() {
    for nodes in [2usize, 4, 8] {
        conform(&ClusterBackend::new(nodes, model()));
    }
}

#[test]
fn shard_slices_conform_at_2_4_workers_with_in_process_counters() {
    for workers in [2usize, 4] {
        let backend = ShardBackend::spawn(workers).expect("spawn workers");
        let shard = conform(&backend);
        // Deterministic counters agree exactly (`PartialEq` excludes the
        // wall-clock field)…
        assert_eq!(shard, conform(&ClusterBackend::new(workers, model())));
        // …while the measured exchange time is real elapsed wall clock on
        // a real wire, so it must accumulate.
        assert!(shard.measured_exchange_seconds > 0.0);
    }
}

#[test]
fn engine_counts_bit_identical_across_backends_ideal_and_noisy() {
    // The tentpole invariant, one level up: a planned job run through the
    // engine produces identical Counts on the single-node backend, the
    // in-process cluster backend, and real worker processes — at 2 and 4
    // shards, with and without noise.
    for noise in [NoiseModel::ideal(), NoiseModel::sycamore()] {
        let circuit = generators::qft(8);
        let plan = Arc::new(
            JobPlan::plan(
                &circuit,
                &noise,
                24,
                &Strategy::Custom {
                    arities: vec![4, 3, 2],
                },
            )
            .unwrap(),
        );
        let reference = Engine::new(EngineConfig::default().parallelism(1))
            .run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
        for workers in [2usize, 4] {
            let backend = ShardBackend::spawn(workers).expect("spawn workers");
            let engine = Engine::with_backend(EngineConfig::default().parallelism(2), backend);
            let r = engine.run_planned(&PlannedJob::new(Arc::clone(&plan)).seed(7));
            assert_eq!(r.counts, reference.counts, "{workers} shard processes");
            assert_eq!(r.ops, reference.ops, "{workers} shard processes");
            let stats = engine.pool_stats();
            assert_eq!(stats.outstanding, 0, "every sharded buffer returned");
        }
    }
}
