//! The distributed state vector: qHiPSTER-style node slices over a
//! [`SliceTransport`].
//!
//! The full `2^n` amplitude array is split across `2^g` nodes; node `i`
//! holds the contiguous slice of global indices `i·2^{n−g} .. (i+1)·2^{n−g}`,
//! i.e. the **top `g` qubits select the node**. Gates on local (low) qubits
//! need no communication; gates touching a global qubit are handled the way
//! real distributed simulators do it — a *distributed swap* brings the
//! global qubit down to a scratch local qubit (one pairwise half-slice
//! exchange each way), the gate runs locally, and the swap is undone. Every
//! exchange is counted and priced by the [`InterconnectModel`].
//!
//! This is the one distributed state: it makes every decision and does all
//! the accounting, and its [`SliceTransport`] only moves and touches slices
//! — [`LocalSlices`] (the default) in this process, `tqsim-shard`'s over
//! worker processes. `LocalSlices` creates no thread: slices (and partner
//! pairs of slices) run in turn on the caller's thread, and the kernels
//! pool *inside* a slice once it reaches `kernels::par_min_len`.

use crate::model::{ClusterCounters, InterconnectModel};
use crate::transport::{Ask, PairOp, Query, Reply, SliceOp, SliceTransport};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_obs::{Counter, Registry};
use tqsim_statevec::{DiagRun, PooledBackend, QuantumState, StateVector};

/// Error constructing a [`DistributedStateVector`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Node count must be a power of two ≥ 1.
    BadNodeCount(usize),
    /// Each node must keep at least 2^3 amplitudes so three-qubit gates can
    /// be remapped locally.
    TooFewLocalQubits {
        /// Requested register width.
        n_qubits: u16,
        /// Requested node count.
        n_nodes: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BadNodeCount(n) => {
                write!(f, "node count {n} is not a power of two >= 1")
            }
            ClusterError::TooFewLocalQubits { n_qubits, n_nodes } => write!(
                f,
                "{n_qubits} qubits over {n_nodes} nodes leaves fewer than 3 local qubits"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Live observability counters for distributed execution, shared by every
/// state an observed [`ClusterBackend`] allocates. Unlike the per-state
/// [`ClusterCounters`] (which travel with each [`DistributedStateVector`]
/// and merge into run results), these are global monotonic totals held in a
/// [`tqsim_obs::Registry`] — a monitoring view across all runs.
#[derive(Debug)]
pub struct ClusterObs {
    /// Pairwise half-slice exchange rounds (distributed swaps and
    /// cross-node antidiagonal combines).
    pub exchanges: Arc<Counter>,
    /// Modeled bytes moved over the interconnect.
    pub bytes_exchanged: Arc<Counter>,
    /// Gates applied without communication (all qubits node-local).
    pub local_gates: Arc<Counter>,
    /// Gates that needed a global→local remap (distributed swaps each way).
    pub remapped_gates: Arc<Counter>,
    /// Parent→child intermediate-state copies (node-local memcpys).
    pub state_copies: Arc<Counter>,
    /// **Measured** nanoseconds spent in exchange rounds (wall-clock).
    pub exchange_measured_ns: Arc<Counter>,
    /// **Modeled** nanoseconds the interconnect model prices the same
    /// exchange rounds at — exposed next to the measured total so
    /// model-vs-measured drift is one division away in the exposition.
    pub exchange_simulated_ns: Arc<Counter>,
}

impl ClusterObs {
    /// Register the cluster counter set in `registry`. Metric names are
    /// fixed (`tqsim_cluster_*_total`), so registering twice against the
    /// same registry yields handles to the same underlying counters.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(ClusterObs {
            exchanges: registry.counter("tqsim_cluster_exchanges_total", &[]),
            bytes_exchanged: registry.counter("tqsim_cluster_bytes_exchanged_total", &[]),
            local_gates: registry.counter("tqsim_cluster_local_gates_total", &[]),
            remapped_gates: registry.counter("tqsim_cluster_remapped_gates_total", &[]),
            state_copies: registry.counter("tqsim_cluster_state_copies_total", &[]),
            exchange_measured_ns: registry.counter("tqsim_cluster_exchange_measured_ns_total", &[]),
            exchange_simulated_ns: registry
                .counter("tqsim_cluster_exchange_simulated_ns_total", &[]),
        })
    }

    /// Record one exchange round: count, bytes, and measured vs modeled
    /// time (both in nanoseconds, saturating at u64).
    pub fn note_exchange(&self, bytes: u64, measured_s: f64, simulated_s: f64) {
        self.exchanges.inc();
        self.bytes_exchanged.add(bytes);
        self.exchange_measured_ns.add((measured_s * 1e9) as u64);
        self.exchange_simulated_ns.add((simulated_s * 1e9) as u64);
    }
}

/// Every node slice in this process: the in-process [`SliceTransport`].
#[derive(Clone, Debug)]
pub struct LocalSlices {
    local_n: u16,
    slices: Vec<Vec<C64>>,
}

impl LocalSlices {
    /// The partner pairs of one exchange round, lower rank first.
    fn pairs(&mut self, gb: u16) -> impl Iterator<Item = (&mut Vec<C64>, &mut Vec<C64>)> {
        let step = 1usize << gb;
        self.slices.chunks_mut(step * 2).flat_map(move |chunk| {
            let (lo, hi) = chunk.split_at_mut(step);
            lo.iter_mut().zip(hi)
        })
    }
}

impl SliceTransport for LocalSlices {
    fn n_nodes(&self) -> usize {
        self.slices.len()
    }

    fn sweep(&mut self, op: &SliceOp<'_>) {
        for (rank, slice) in self.slices.iter_mut().enumerate() {
            op.apply(slice, rank << self.local_n);
        }
    }

    fn exchange(&mut self, gb: u16, op: PairOp) {
        for (lo, hi) in self.pairs(gb) {
            op.apply_pair(lo, hi);
        }
    }

    fn copy_from(&mut self, src: &Self) {
        for (dst, s) in self.slices.iter_mut().zip(&src.slices) {
            dst.copy_from_slice(s);
        }
    }

    fn gather(&self) -> Vec<C64> {
        self.slices.concat()
    }

    fn query<R>(&self, fold: impl FnOnce(&mut Ask<'_>) -> R) -> R {
        fold(&mut |rank, q| q.answer(&self.slices[rank], rank << self.local_n))
    }

    fn query_then_sweep(&mut self, fold: impl FnOnce(&mut Ask<'_>) -> SliceOp<'static>) {
        let op = self.query(fold);
        self.sweep(&op);
    }
}

/// A pure state distributed over `2^g` nodes, its slices held by the
/// transport `T`.
pub struct DistributedStateVector<T: SliceTransport = LocalSlices> {
    n_qubits: u16,
    local_n: u16,
    slices: T,
    model: InterconnectModel,
    /// Operation counters, including modeled cluster time.
    pub counters: ClusterCounters,
    obs: Option<Arc<ClusterObs>>,
}

impl DistributedStateVector {
    /// `|0…0⟩` over `n_nodes` in-process nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] unless `n_nodes` is a power of two and at
    /// least 3 qubits remain node-local.
    pub fn zero(
        n_qubits: u16,
        n_nodes: usize,
        model: InterconnectModel,
    ) -> Result<Self, ClusterError> {
        Self::with_transport(n_qubits, n_nodes, model, |local_n| {
            let mut slices = vec![vec![c64(0.0, 0.0); 1usize << local_n]; n_nodes];
            slices[0][0] = c64(1.0, 0.0);
            LocalSlices { local_n, slices }
        })
    }
}

impl<T: SliceTransport> DistributedStateVector<T> {
    /// `|0…0⟩` over `n_nodes` nodes, held by the transport `alloc` returns
    /// for the node-local qubit count (`alloc` runs only once the layout is
    /// valid).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] unless `n_nodes` is a power of two and at
    /// least 3 qubits remain node-local.
    pub fn with_transport(
        n_qubits: u16,
        n_nodes: usize,
        model: InterconnectModel,
        alloc: impl FnOnce(u16) -> T,
    ) -> Result<Self, ClusterError> {
        check_layout(n_qubits, n_nodes)?;
        let local_n = n_qubits - n_nodes.trailing_zeros() as u16;
        Ok(DistributedStateVector {
            n_qubits,
            local_n,
            slices: alloc(local_n),
            model,
            counters: ClusterCounters::default(),
            obs: None,
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.slices.n_nodes()
    }

    /// Mirror this state's communication and gate activity into `obs` (in
    /// addition to the per-state [`ClusterCounters`], which always run).
    pub fn observe(&mut self, obs: Arc<ClusterObs>) {
        self.obs = Some(obs);
    }

    /// Amplitudes held per node.
    pub fn slice_len(&self) -> usize {
        1usize << self.local_n
    }

    /// Total amplitude bytes across the node group (`2^n · 16`).
    pub fn bytes(&self) -> usize {
        self.slice_len() * self.n_nodes() * std::mem::size_of::<C64>()
    }

    /// Qubits that are node-local (the low `n − g`).
    pub fn local_qubits(&self) -> u16 {
        self.local_n
    }

    /// Gather the full state onto "one node" (for verification / sampling
    /// at small scale).
    pub fn gather(&self) -> StateVector {
        StateVector::from_amplitudes(self.slices.gather())
    }

    /// Squared 2-norm: per-node sums folded in rank order.
    pub fn norm_sqr(&self) -> f64 {
        let n_nodes = self.n_nodes();
        self.slices.query(|ask| norm_fold(n_nodes, ask))
    }

    /// Reset to `|0…0⟩` (counted as one compute pass; counters otherwise
    /// retained).
    pub fn reset_zero(&mut self) {
        self.sweep(&SliceOp::Reset);
    }

    /// Overwrite with `src`'s amplitudes (node-local memcpy on every node;
    /// this is TQSim's intermediate-state copy).
    ///
    /// # Panics
    ///
    /// Panics if layouts differ, or on an injected `cluster.state_copy`
    /// fault.
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.n_qubits, src.n_qubits, "width mismatch");
        assert_eq!(self.n_nodes(), src.n_nodes(), "node-count mismatch");
        // Failpoint modelling a node failing mid-copy. No error channel
        // through the state API, so an injected error panics; the engine's
        // per-task `catch_unwind` contains it to the running job.
        if let Err(fault) = tqsim_faults::trigger("cluster.state_copy") {
            panic!("{fault}");
        }
        self.slices.copy_from(&src.slices);
        self.counters.state_copies += 1;
        if let Some(obs) = &self.obs {
            obs.state_copies.inc();
        }
        self.charge_compute_pass();
    }

    /// Sample one outcome given a uniform draw, walking the cumulative
    /// distribution amplitude by amplitude in global index order — one
    /// accumulator carried from rank to rank, the **same accumulation
    /// order** as [`StateVector::sample_with`] and every `sample_many`, so
    /// a draw lands on the identical basis state on every backend
    /// (floating-point addition is non-associative; a per-node pre-summed
    /// walk would diverge on edge draws).
    pub fn sample_with(&self, u: f64) -> u64 {
        let n_nodes = self.n_nodes();
        self.slices.query(|ask| {
            let mut acc = 0.0f64;
            for rank in 0..n_nodes {
                match ask(rank, Query::Pick(u, acc)) {
                    Reply::Hit(outcome) => return outcome,
                    reply => acc = sum_of(reply),
                }
            }
            // Over-range draw on a slightly sub-normalised state: last
            // basis state, exactly like the single-node walk.
            (1u64 << self.n_qubits) - 1
        })
    }

    /// Sample one outcome per uniform draw in `us`, walking the cumulative
    /// distribution **once** across all node slices (vs one expected
    /// half-walk per draw for repeated [`DistributedStateVector::sample_with`]).
    ///
    /// Mirrors [`StateVector::sample_many`] draw for draw — the draws are
    /// sorted internally, `out[i]` is the outcome for `us[i]` in original
    /// order, and the CDF is accumulated in global index order with the
    /// same addition sequence (the walk's index and accumulator carried
    /// from rank to rank), so oversampled leaves stay bit-identical across
    /// backends.
    pub fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..us.len()).collect();
        order.sort_by(|&i, &j| us[i].total_cmp(&us[j]));
        let mut out = vec![0u64; us.len()];
        if us.is_empty() {
            return out;
        }
        let sorted: Vec<f64> = order.iter().map(|&slot| us[slot]).collect();
        let total = 1u64 << self.n_qubits;
        let n_nodes = self.n_nodes();
        self.slices.query(|ask| {
            let (mut done, mut idx, mut acc) = (0usize, 0u64, 0.0f64);
            for rank in 0..n_nodes {
                let walk = Query::Walk {
                    us: &sorted[done..],
                    idx,
                    acc,
                    total,
                    init: rank == 0,
                };
                let Reply::Walk(resolved, reached, cdf) = ask(rank, walk) else {
                    panic!("slice transport answered a walk with another reply");
                };
                for outcome in resolved {
                    out[order[done]] = outcome;
                    done += 1;
                }
                if done == order.len() {
                    break;
                }
                (idx, acc) = (reached, cdf);
            }
            debug_assert_eq!(done, order.len(), "walk chain under-consumed draws");
        });
        out
    }

    /// Count one communication-free gate (per-state and, when observed,
    /// the registry total).
    #[inline]
    fn note_local_gate(&mut self) {
        self.counters.local_gates += 1;
        if let Some(obs) = &self.obs {
            obs.local_gates.inc();
        }
    }

    /// Count one gate that needed a global→local remap.
    #[inline]
    fn note_remapped_gate(&mut self) {
        self.counters.global_gates += 1;
        if let Some(obs) = &self.obs {
            obs.remapped_gates.inc();
        }
    }

    fn charge_compute_pass(&mut self) {
        let slice_len = self.slice_len() as u64;
        self.counters.amp_ops += slice_len * self.n_nodes() as u64;
        self.counters.simulated_seconds += self.model.compute_time(slice_len);
    }

    /// Run `op` on every node slice and charge the compute pass.
    fn sweep(&mut self, op: &SliceOp<'_>) {
        self.slices.sweep(op);
        self.charge_compute_pass();
    }

    /// One exchange round: `op` on every partner pair of node slices whose
    /// node indices differ in global bit `gb`. Counted, timed and priced.
    fn exchange_round(&mut self, gb: u16, op: PairOp) {
        debug_assert!(1usize << gb < self.n_nodes());
        // Failpoint modelling an interconnect fault (dropped exchange,
        // slow link via the delay action). No error channel through the
        // state API, so an injected error panics; the engine's per-task
        // `catch_unwind` contains it to the running job.
        if let Err(fault) = tqsim_faults::trigger("cluster.exchange") {
            panic!("{fault}");
        }
        let start = Instant::now();
        self.slices.exchange(gb, op);
        let measured = start.elapsed().as_secs_f64();
        let bytes_per_node = (op.frame_len(self.slice_len()) * 16) as u64;
        let simulated = self.model.exchange_time(bytes_per_node);
        let total_bytes = bytes_per_node * self.n_nodes() as u64;
        self.counters.exchanges += 1;
        self.counters.bytes_exchanged += total_bytes;
        self.counters.simulated_seconds += simulated;
        self.counters.measured_exchange_seconds += measured;
        if let Some(obs) = &self.obs {
            obs.note_exchange(total_bytes, measured, simulated);
        }
    }

    /// Dense dispatch of an operand on qubits `qs`: distributed-swap every
    /// global qubit of `qs` down to a scratch local qubit, sweep the op
    /// `make` builds for the local positions, and swap back. All-local
    /// operands need no swap and count as a local gate. Nothing here
    /// touches the heap: an op has at most [`MAX_OP_QUBITS`] qubits.
    fn apply_dense<'a>(&mut self, qs: &[u16], make: impl FnOnce(&[u16]) -> SliceOp<'a>) {
        assert!(qs.iter().all(|&q| q < self.n_qubits), "qubit out of range");
        let local_n = self.local_n;
        let k = qs.len();
        let mut phys = [0u16; MAX_OP_QUBITS];
        phys[..k].copy_from_slice(qs);
        // `(global bit, local qubit)` of every swap made, in order.
        let mut swaps = [(0u16, 0u16); MAX_OP_QUBITS];
        let mut n_swaps = 0;
        if qs.iter().any(|&q| q >= local_n) {
            // Scratch = the `k` highest local qubits not used by the
            // operation itself, handed out lowest first.
            let mut scratch = [0u16; MAX_OP_QUBITS];
            let mut n_scratch = 0;
            for q in (0..local_n).rev().filter(|q| !qs.contains(q)).take(k) {
                scratch[n_scratch] = q;
                n_scratch += 1;
            }
            for q in &mut phys[..k] {
                if *q >= local_n {
                    n_scratch = n_scratch
                        .checked_sub(1)
                        .expect("constructor guarantees >= 3 local qubits");
                    let (gb, lq) = (*q - local_n, scratch[n_scratch]);
                    self.exchange_round(gb, PairOp::HalfSwap(lq));
                    swaps[n_swaps] = (gb, lq);
                    n_swaps += 1;
                    *q = lq;
                }
            }
        }
        self.sweep(&make(&phys[..k]));
        for &(gb, lq) in swaps[..n_swaps].iter().rev() {
            self.exchange_round(gb, PairOp::HalfSwap(lq));
        }
        if n_swaps == 0 {
            self.note_local_gate();
        } else {
            self.note_remapped_gate();
        }
    }
}

/// Squared norm: per-rank sums folded in rank order.
fn norm_fold(n_nodes: usize, ask: &mut Ask<'_>) -> f64 {
    (0..n_nodes)
        .map(|rank| sum_of(ask(rank, Query::Psum)))
        .sum()
}

/// The accumulator of a sum reply.
fn sum_of(reply: Reply) -> f64 {
    match reply {
        Reply::Acc(x) => x,
        other => panic!("slice transport answered a sum with {other:?}"),
    }
}

/// The single source of truth for the slicing invariant: `n_nodes` must
/// be a power of two ≥ 1 and at least 3 qubits must stay node-local.
/// [`DistributedStateVector::with_transport`] (hence every transport),
/// [`ClusterBackend::validate`] and the runner's pre-checks all delegate
/// here, so the rule cannot drift.
pub fn check_layout(n_qubits: u16, n_nodes: usize) -> Result<(), ClusterError> {
    if n_nodes == 0 || !n_nodes.is_power_of_two() {
        return Err(ClusterError::BadNodeCount(n_nodes));
    }
    if n_qubits < n_nodes.trailing_zeros() as u16 + 3 {
        return Err(ClusterError::TooFewLocalQubits { n_qubits, n_nodes });
    }
    Ok(())
}

/// The distributed execution backend: a node-group descriptor (node count
/// and interconnect model) implementing [`PooledBackend`] with
/// [`DistributedStateVector`] states, so `tqsim_statevec::StatePool`, the
/// `tqsim-engine` pooled tree executor and `tqsim`'s serial tree walk all
/// run on the cluster unchanged. Parent→child state copies stay node-local
/// slice memcpys ([`DistributedStateVector::copy_from`]) — intermediate
/// states never round-trip through a dense global vector.
///
/// Construction does not validate a register width (the backend is
/// width-agnostic until a state is allocated); call
/// [`ClusterBackend::validate`] — or check [`ClusterBackend::supports`] —
/// before pooling states of a given width.
#[derive(Clone, Debug)]
pub struct ClusterBackend {
    n_nodes: usize,
    model: InterconnectModel,
    obs: Option<Arc<ClusterObs>>,
}

/// Backends compare by topology (node count, interconnect model); whether
/// one is observed does not change what it computes.
impl PartialEq for ClusterBackend {
    fn eq(&self, other: &Self) -> bool {
        self.n_nodes == other.n_nodes && self.model == other.model
    }
}

impl ClusterBackend {
    /// A backend slicing every state across `n_nodes` simulated nodes,
    /// pricing communication with `model`.
    ///
    /// # Panics
    ///
    /// Panics unless `n_nodes` is a power of two ≥ 1 (width-dependent
    /// validation is deferred to [`ClusterBackend::validate`]).
    pub fn new(n_nodes: usize, model: InterconnectModel) -> Self {
        assert!(
            n_nodes >= 1 && n_nodes.is_power_of_two(),
            "node count {n_nodes} is not a power of two >= 1"
        );
        ClusterBackend {
            n_nodes,
            model,
            obs: None,
        }
    }

    /// Mirror every allocated state's communication and gate activity into
    /// `obs` (see [`ClusterObs::register`]).
    #[must_use]
    pub fn observed(mut self, obs: Arc<ClusterObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Number of nodes states are sliced across.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The interconnect model communication is priced with.
    pub fn model(&self) -> InterconnectModel {
        self.model
    }

    /// Check that `n_qubits`-wide states can be sliced across this node
    /// group (≥ 3 qubits must stay node-local).
    ///
    /// # Errors
    ///
    /// The same conditions as [`DistributedStateVector::zero`].
    pub fn validate(&self, n_qubits: u16) -> Result<(), ClusterError> {
        check_layout(n_qubits, self.n_nodes)
    }

    /// Whether `n_qubits`-wide states fit this node group (the infallible
    /// form of [`ClusterBackend::validate`], for placement policies).
    pub fn supports(&self, n_qubits: u16) -> bool {
        self.validate(n_qubits).is_ok()
    }
}

impl PooledBackend for ClusterBackend {
    type State = DistributedStateVector;

    fn supports(&self, n_qubits: u16) -> bool {
        ClusterBackend::supports(self, n_qubits)
    }

    fn allocate(&self, n_qubits: u16) -> DistributedStateVector {
        let mut state = DistributedStateVector::zero(n_qubits, self.n_nodes, self.model)
            .unwrap_or_else(|err| {
                panic!("executors must gate on PooledBackend::supports before allocating: {err}")
            });
        if let Some(obs) = &self.obs {
            state.observe(Arc::clone(obs));
        }
        state
    }

    fn reset_zero(&self, state: &mut DistributedStateVector) {
        state.reset_zero();
    }

    fn copy_into(&self, dst: &mut DistributedStateVector, src: &DistributedStateVector) {
        dst.copy_from(src);
    }

    fn state_bytes(&self, state: &DistributedStateVector) -> usize {
        state.bytes()
    }
}

/// The most qubits one operation touches (a Toffoli).
const MAX_OP_QUBITS: usize = 3;

impl<T: SliceTransport> QuantumState for DistributedStateVector<T> {
    fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    fn apply_mat2(&mut self, q: u16, m: &Mat2) {
        self.apply_dense(&[q], |ps| SliceOp::Mat2(ps[0], m));
    }

    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
        self.apply_dense(&[q_hi, q_lo], |ps| SliceOp::Mat4(ps[0], ps[1], m));
    }

    fn apply_diag_run(&mut self, run: &DiagRun) {
        // Diagonals never move amplitudes: each node sweeps its slice with
        // the slice's global base index — no communication even when the
        // run touches node-selecting (global) qubits.
        self.sweep(&SliceOp::DiagRun(run));
        self.note_local_gate();
    }

    fn apply_ccx(&mut self, c1: u16, c2: u16, t: u16) {
        self.apply_dense(&[c1, c2, t], |ps| SliceOp::Ccx(ps[0], ps[1], ps[2]));
    }

    fn marginal_one(&self, q: u16) -> f64 {
        assert!(q < self.n_qubits, "qubit out of range");
        let (local_n, n_nodes) = (self.local_n, self.n_nodes());
        self.slices.query(|ask| {
            if q >= local_n {
                // Node-selecting bit: the sums of the masked slices, folded
                // in rank order.
                let mask = 1usize << (q - local_n);
                (0..n_nodes)
                    .filter(|rank| rank & mask != 0)
                    .map(|rank| sum_of(ask(rank, Query::Psum)))
                    .sum()
            } else {
                // Local bit: one flat accumulator carried through the ranks.
                (0..n_nodes).fold(0.0, |acc, rank| sum_of(ask(rank, Query::Msum(q, acc))))
            }
        })
    }

    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        if q >= self.local_n {
            // Node-selecting bit: scale whole slices, no communication.
            let mask = 1usize << (q - self.local_n);
            self.sweep(&SliceOp::ScaleBit(mask, d0, d1));
        } else {
            self.sweep(&SliceOp::Diag1(q, d0, d1));
        }
    }

    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        if q >= self.local_n {
            // Pairwise cross-node combine: an exchange round in which every
            // node ships its whole slice (no compute pass charged).
            self.exchange_round(q - self.local_n, PairOp::Antidiag(a01, a10));
        } else {
            self.sweep(&SliceOp::Antidiag1(q, a01, a10));
        }
    }

    fn renormalize(&mut self) {
        let n_nodes = self.n_nodes();
        self.slices.query_then_sweep(|ask| {
            let n = norm_fold(n_nodes, ask);
            assert!(n > 1e-300, "cannot normalise a zero state");
            SliceOp::Scale(1.0 / n.sqrt())
        });
        self.charge_compute_pass();
        self.counters.simulated_seconds += self.model.allreduce_time(n_nodes);
    }

    fn norm_sqr(&self) -> f64 {
        DistributedStateVector::norm_sqr(self)
    }

    fn sample_with(&self, u: f64) -> u64 {
        DistributedStateVector::sample_with(self, u)
    }

    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        DistributedStateVector::sample_many(self, us)
    }
}

impl<T: SliceTransport> fmt::Debug for DistributedStateVector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DistributedStateVector[{} qubits over {} nodes]",
            self.n_qubits,
            self.n_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;
    use tqsim_circuit::{Circuit, Gate, GateKind};

    /// The `perf` `dist_cluster` shape — 14 qubits over 4 nodes, slices of
    /// 2^12 — runs every slice and every partner pair on the caller's
    /// thread: `LocalSlices` walks plain iterators and spawns nothing. (A
    /// thread per node per sweep cost this shape 8x its arithmetic.)
    #[test]
    fn sweeps_and_exchanges_run_on_the_callers_thread() {
        let m = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(14, 4, m).unwrap();
        assert_eq!(dsv.slice_len(), 1 << 12);
        let caller = std::thread::current().id();
        let addrs: Vec<*const Vec<C64>> = dsv.slices.slices.iter().map(|s| s as *const _).collect();
        let rank = |s: &Vec<C64>| addrs.iter().position(|&a| std::ptr::eq(a, s)).unwrap();
        // Both global bits: two partner pairs per round, lower rank first.
        for (gb, expect) in [(0, [(0, 1), (2, 3)]), (1, [(0, 2), (1, 3)])] {
            let pairs: Vec<(usize, usize)> = dsv
                .slices
                .pairs(gb)
                .map(|(lo, hi)| {
                    assert_eq!(std::thread::current().id(), caller);
                    (rank(lo), rank(hi))
                })
                .collect();
            assert_eq!(pairs, expect);
        }
        // The public sweeps sit on those rounds: a local quad sweep, a
        // global pair sweep (a dswap each way) and a cross-node combine.
        let h = GateKind::H.matrix1().unwrap();
        let cx = GateKind::Cx.matrix2().unwrap();
        QuantumState::apply_mat4(&mut dsv, 3, 1, &cx);
        QuantumState::apply_mat2(&mut dsv, 13, &h);
        dsv.apply_antidiag1(12, c64(0.0, 1.0), c64(0.0, -1.0));
        assert_eq!(dsv.counters.exchanges, 3);
        assert!((dsv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    fn assert_states_match(dsv: &DistributedStateVector, sv: &StateVector) {
        let gathered = dsv.gather();
        for (i, (a, b)) in gathered
            .amplitudes()
            .iter()
            .zip(sv.amplitudes())
            .enumerate()
        {
            assert!((a - b).norm() < 1e-10, "amplitude {i}: {a} vs {b}");
        }
    }

    #[test]
    fn construction_validation() {
        let m = InterconnectModel::commodity_cluster();
        assert!(DistributedStateVector::zero(8, 3, m).is_err());
        assert!(
            DistributedStateVector::zero(4, 4, m).is_err(),
            "only 2 local qubits"
        );
        assert!(DistributedStateVector::zero(8, 4, m).is_ok());
    }

    #[test]
    fn local_gates_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let mut c = Circuit::new(8);
        c.h(0).cx(0, 1).t(2).cx(1, 2).ry(0.7, 3).ccx(0, 1, 2);
        let mut sv = StateVector::zero(8);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(8, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        assert_states_match(&dsv, &sv);
        assert_eq!(dsv.counters.global_gates, 0);
        assert_eq!(
            dsv.counters.exchanges, 0,
            "all-local circuit must not communicate"
        );
    }

    #[test]
    fn global_gates_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        // Gates deliberately touching the top (global) qubits.
        let mut c = Circuit::new(8);
        c.h(7)
            .cx(7, 0)
            .h(6)
            .cx(6, 7)
            .ccx(7, 6, 5)
            .swap(5, 7)
            .rz(0.3, 6);
        let mut sv = StateVector::zero(8);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(8, 8, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        assert_states_match(&dsv, &sv);
        assert!(dsv.counters.global_gates > 0);
        assert!(dsv.counters.exchanges > 0);
        assert!(dsv.counters.bytes_exchanged > 0);
    }

    /// An observed backend mirrors every per-state counter movement into
    /// the shared registry totals, and observation never changes the math.
    #[test]
    fn observed_backend_mirrors_state_counters() {
        let m = InterconnectModel::commodity_cluster();
        let registry = Registry::new();
        let obs = ClusterObs::register(&registry);
        let backend = ClusterBackend::new(4, m).observed(Arc::clone(&obs));
        let circuit = generators::qft(8);

        let mut observed = backend.allocate(8);
        let mut plain = DistributedStateVector::zero(8, 4, m).unwrap();
        for g in &circuit {
            observed.apply_gate(g);
            plain.apply_gate(g);
        }
        let mut scratch = backend.allocate(8);
        scratch.copy_from(&observed);
        assert_states_match(&scratch, &plain.gather());

        assert_eq!(obs.local_gates.get(), observed.counters.local_gates);
        assert_eq!(obs.remapped_gates.get(), observed.counters.global_gates);
        assert_eq!(obs.exchanges.get(), observed.counters.exchanges);
        assert_eq!(obs.bytes_exchanged.get(), observed.counters.bytes_exchanged);
        assert_eq!(obs.state_copies.get(), 1, "one copy_from above");
        assert!(obs.exchanges.get() > 0, "QFT(8) on 4 nodes communicates");
        // Observation is a mirror, not a behaviour change.
        assert_eq!(observed.counters, plain.counters);
    }

    #[test]
    fn full_benchmarks_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        for circuit in [
            generators::qft(7),
            generators::bv(7),
            generators::qsc(7, 40, 3),
        ] {
            let mut sv = StateVector::zero(7);
            sv.apply_circuit(&circuit);
            for nodes in [1usize, 2, 4, 8] {
                if let Ok(mut dsv) = DistributedStateVector::zero(7, nodes, m) {
                    for g in &circuit {
                        dsv.apply_gate(g);
                    }
                    assert_states_match(&dsv, &sv);
                }
            }
        }
    }

    #[test]
    fn marginal_and_diag_on_global_qubit() {
        let m = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        // Put qubit 5 (global) into |+>.
        dsv.apply_gate(&Gate::new(GateKind::H, &[5]));
        assert!((QuantumState::marginal_one(&dsv, 5) - 0.5).abs() < 1e-12);
        // Project onto |1> via anti/diag Kraus mechanics.
        dsv.apply_diag1(5, c64(0.0, 0.0), c64(1.0, 0.0));
        dsv.renormalize();
        assert!((QuantumState::marginal_one(&dsv, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn antidiag_on_global_qubit_matches_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let mut c = Circuit::new(6);
        c.h(5).ry(0.9, 4).cx(5, 0);
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(6, 8, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        sv.apply_antidiag1(5, c64(0.5, 0.0), c64(0.25, 0.0));
        dsv.apply_antidiag1(5, c64(0.5, 0.0), c64(0.25, 0.0));
        assert_states_match(&dsv, &sv);
    }

    #[test]
    fn sampling_matches_gathered_state() {
        let m = InterconnectModel::commodity_cluster();
        let c = generators::qft(6);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        let gathered = dsv.gather();
        for u in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(dsv.sample_with(u), gathered.sample_with(u), "u={u}");
        }
    }

    #[test]
    fn sample_many_matches_sample_with_and_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let c = generators::qft(6);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        let us = [0.93, 0.02, 0.5, 0.500001, 0.02, 0.999_999_9, 0.0];
        let batch = dsv.sample_many(&us);
        for (u, got) in us.iter().zip(&batch) {
            assert_eq!(*got, dsv.sample_with(*u), "u={u}");
        }
        // Draw-for-draw identical to the single-node batched walk.
        assert_eq!(batch, dsv.gather().sample_many(&us));
        assert!(dsv.sample_many(&[]).is_empty());
    }

    #[test]
    fn fused_ops_match_remapped_gate_dispatch() {
        use tqsim_circuit::math::Mat2;
        let m = InterconnectModel::commodity_cluster();
        let mut prep = Circuit::new(6);
        prep.h(0).cx(0, 3).ry(0.7, 5).cz(1, 4);
        let mat2 = GateKind::H.matrix1().unwrap();
        let mat4 = GateKind::Cx.matrix2().unwrap();
        let folded2 = mat2.mul(&Mat2::identity());
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&prep);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &prep {
            dsv.apply_gate(g);
        }
        // Local and global Mat2 / Mat4, including a cross-boundary pair.
        for q in [1u16, 5] {
            QuantumState::apply_mat2(&mut sv, q, &folded2);
            QuantumState::apply_mat2(&mut dsv, q, &folded2);
        }
        for (hi, lo) in [(0u16, 1u16), (4, 0), (5, 4)] {
            QuantumState::apply_mat4(&mut sv, hi, lo, &mat4);
            QuantumState::apply_mat4(&mut dsv, hi, lo, &mat4);
        }
        assert_states_match(&dsv, &sv);
        assert!(dsv.counters.exchanges > 0, "global mat ops must remap");
    }

    #[test]
    fn diag_runs_never_communicate() {
        let m = InterconnectModel::commodity_cluster();
        let mut prep = Circuit::new(6);
        prep.h(0).h(5).cx(0, 4);
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&prep);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &prep {
            dsv.apply_gate(g);
        }
        let before = dsv.counters.exchanges;
        // A run over local and global qubits, incl. a cross-boundary pair.
        let mut run = tqsim_statevec::DiagRun::new();
        run.push1(1, GateKind::T.diag1().unwrap());
        run.push1(5, GateKind::S.diag1().unwrap());
        run.push2(4, 0, GateKind::Cz.diag2().unwrap());
        QuantumState::apply_diag_run(&mut sv, &run);
        QuantumState::apply_diag_run(&mut dsv, &run);
        assert_states_match(&dsv, &sv);
        assert_eq!(
            dsv.counters.exchanges, before,
            "diagonal sweeps must stay node-local"
        );
    }

    #[test]
    fn copy_from_counts_copies() {
        let m = InterconnectModel::commodity_cluster();
        let mut a = DistributedStateVector::zero(6, 2, m).unwrap();
        a.apply_gate(&Gate::new(GateKind::H, &[0]));
        let mut b = DistributedStateVector::zero(6, 2, m).unwrap();
        b.copy_from(&a);
        assert_eq!(b.counters.state_copies, 1);
        assert_states_match(&b, &a.gather());
    }

    #[test]
    fn noise_channels_work_on_distributed_state() {
        use rand::SeedableRng;
        let m = InterconnectModel::commodity_cluster();
        let noise = tqsim_noise::fig16_models().pop().unwrap(); // ALL
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        let c = generators::qft(6);
        for g in &c {
            dsv.apply_gate(g);
            noise.apply_after_gate(&mut dsv, g, &mut rng);
        }
        assert!((dsv.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
