//! The multi-process distributed state: coordinator-side twin of
//! [`tqsim_cluster::DistributedStateVector`].
//!
//! A [`ShardedStateVector`] owns no amplitudes — worker processes hold the
//! node slices — but it owns **everything that must be deterministic**:
//! the global↔local remap decisions, every counter, the interconnect
//! pricing, and the chained floating-point reductions for norms, marginals
//! and sampling. Each operation mirrors the in-process implementation
//! decision for decision and addition for addition, so the two backends
//! produce bit-identical amplitudes, `Counts`, and (deterministic) counter
//! values; only `measured_exchange_seconds` differs, because here it times
//! real TCP round-trips.

use crate::cluster::{ClusterLink, ShardCluster};
use std::sync::Arc;
use std::time::Instant;
use tqsim_circuit::math::{Mat2, Mat4, C64};
use tqsim_circuit::Gate;
use tqsim_cluster::{ClusterCounters, ClusterObs, InterconnectModel};
use tqsim_json::{num, num_u64, obj, str_val, Value};
use tqsim_statevec::{DiagRun, QuantumState, StateVector};

fn verb(name: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("v", str_val(name))];
    all.extend(fields);
    obj(all)
}

/// A pure state sliced across shard worker **processes**, driven over TCP.
pub struct ShardedStateVector {
    cluster: Arc<ShardCluster>,
    sid: u64,
    n_qubits: u16,
    g: u16,
    local_n: u16,
    model: InterconnectModel,
    /// Operation counters, including modeled cluster time — deterministic
    /// fields are bit-identical to the in-process backend's for the same
    /// op stream.
    pub counters: ClusterCounters,
    obs: Option<Arc<ClusterObs>>,
}

impl ShardedStateVector {
    /// Allocate `|0…0⟩` across `cluster`'s workers.
    ///
    /// # Errors
    ///
    /// [`tqsim_cluster::ClusterError`] unless the worker count is a power
    /// of two with at least 3 qubits node-local.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn zero(
        cluster: Arc<ShardCluster>,
        n_qubits: u16,
        model: InterconnectModel,
    ) -> Result<Self, tqsim_cluster::ClusterError> {
        let n_nodes = cluster.n_workers();
        tqsim_cluster::check_layout(n_qubits, n_nodes)?;
        let g = n_nodes.trailing_zeros() as u16;
        let local_n = n_qubits - g;
        let sid = cluster.next_sid();
        {
            let mut link = cluster.link();
            link.broadcast_ack(&verb(
                "alloc",
                vec![("sid", num_u64(sid)), ("len", num_u64(1u64 << local_n))],
            ));
        }
        Ok(ShardedStateVector {
            cluster,
            sid,
            n_qubits,
            g,
            local_n,
            model,
            counters: ClusterCounters::default(),
            obs: None,
        })
    }

    /// Number of worker processes (= simulated nodes).
    pub fn n_nodes(&self) -> usize {
        self.cluster.n_workers()
    }

    /// Mirror this state's communication and gate activity into `obs`.
    pub fn observe(&mut self, obs: Arc<ClusterObs>) {
        self.obs = Some(obs);
    }

    /// Amplitudes held per worker.
    pub fn slice_len(&self) -> usize {
        1usize << self.local_n
    }

    /// Total amplitude bytes across the worker group (`2^n · 16`).
    pub fn bytes(&self) -> usize {
        self.slice_len() * self.n_nodes() * std::mem::size_of::<C64>()
    }

    /// Qubits that are node-local (the low `n − g`).
    pub fn local_qubits(&self) -> u16 {
        self.local_n
    }

    /// Gather the full state from all workers (verification / small-scale
    /// sampling).
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn gather(&self) -> StateVector {
        let mut link = self.cluster.link();
        let mut amps = Vec::with_capacity(1usize << self.n_qubits);
        for rank in 0..self.n_nodes() {
            amps.extend_from_slice(&link.fetch(rank, self.sid));
        }
        StateVector::from_amplitudes(amps)
    }

    /// Squared 2-norm: per-worker partial sums folded in node order — the
    /// same two-level addition tree as the in-process backend.
    pub fn norm_sqr(&self) -> f64 {
        let mut link = self.cluster.link();
        self.norm_sqr_locked(&mut link)
    }

    fn norm_sqr_locked(&self, link: &mut ClusterLink) -> f64 {
        (0..self.n_nodes())
            .map(|rank| {
                link.request(rank, &verb("psum", vec![("sid", num_u64(self.sid))]))
                    .get("x")
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("shard transport: malformed psum reply"))
            })
            .sum()
    }

    /// Reset to `|0…0⟩` (counters retained, like the in-process backend).
    pub fn reset_zero(&mut self) {
        let mut link = self.cluster.link();
        link.broadcast(&verb("reset", vec![("sid", num_u64(self.sid))]));
        drop(link);
        self.charge_compute_pass();
    }

    /// Overwrite with `src`'s amplitudes (worker-local memcpys; TQSim's
    /// intermediate-state copy, same failpoint site as in-process).
    ///
    /// # Panics
    ///
    /// Panics if layouts differ, on transport faults, or on an injected
    /// `cluster.state_copy` fault.
    pub fn copy_from(&mut self, src: &ShardedStateVector) {
        assert_eq!(self.n_qubits, src.n_qubits, "width mismatch");
        assert!(
            Arc::ptr_eq(&self.cluster, &src.cluster),
            "states live on different shard clusters"
        );
        if let Err(fault) = tqsim_faults::trigger("cluster.state_copy") {
            panic!("{fault}");
        }
        let mut link = self.cluster.link();
        link.broadcast(&verb(
            "copy",
            vec![("dst", num_u64(self.sid)), ("src", num_u64(src.sid))],
        ));
        drop(link);
        self.counters.state_copies += 1;
        if let Some(obs) = &self.obs {
            obs.state_copies.inc();
        }
        self.charge_compute_pass();
    }

    /// Sample one outcome given a uniform draw: the CDF walk is chained
    /// worker to worker with a single running accumulator, replicating the
    /// in-process backend's global-index-order addition sequence exactly.
    pub fn sample_with(&self, u: f64) -> u64 {
        let mut link = self.cluster.link();
        let mut acc = 0.0f64;
        for rank in 0..self.n_nodes() {
            let reply = link.request(
                rank,
                &verb(
                    "pick",
                    vec![("sid", num_u64(self.sid)), ("u", num(u)), ("acc", num(acc))],
                ),
            );
            if let Some(hit) = reply.get("hit").and_then(Value::as_u64) {
                return hit;
            }
            acc = reply
                .get("x")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("shard transport: malformed pick reply"));
        }
        (1u64 << self.n_qubits) - 1
    }

    /// Sample one outcome per draw: the sorted-CDF batched walk, chained
    /// across workers with (index, accumulator) state — draw-for-draw
    /// identical to both in-process backends.
    pub fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..us.len()).collect();
        order.sort_by(|&i, &j| us[i].total_cmp(&us[j]));
        let mut out = vec![0u64; us.len()];
        if us.is_empty() {
            return out;
        }
        let total = 1u64 << self.n_qubits;
        let mut link = self.cluster.link();
        let mut done = 0usize;
        let mut idx = 0u64;
        let mut acc = 0.0f64;
        for rank in 0..self.n_nodes() {
            let pending = Value::Arr(order[done..].iter().map(|&slot| num(us[slot])).collect());
            let reply = link.request(
                rank,
                &verb(
                    "walk",
                    vec![
                        ("sid", num_u64(self.sid)),
                        ("us", pending),
                        ("idx", num_u64(idx)),
                        ("acc", num(acc)),
                        ("total", num_u64(total)),
                        ("init", Value::Bool(rank == 0)),
                    ],
                ),
            );
            let outcomes = reply
                .get("out")
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("shard transport: malformed walk reply"));
            for outcome in outcomes {
                let oc = outcome
                    .as_u64()
                    .unwrap_or_else(|| panic!("shard transport: malformed walk outcome"));
                out[order[done]] = oc;
                done += 1;
            }
            if done == order.len() {
                break;
            }
            idx = reply
                .get("idx")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("shard transport: malformed walk idx"));
            acc = reply
                .get("acc")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("shard transport: malformed walk acc"));
        }
        debug_assert_eq!(done, order.len(), "walk chain under-consumed draws");
        out
    }

    #[inline]
    fn note_local_gate(&mut self) {
        self.counters.local_gates += 1;
        if let Some(obs) = &self.obs {
            obs.local_gates.inc();
        }
    }

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

    /// Broadcast one node-local sweep verb and charge a compute pass —
    /// the transport twin of the in-process `each_node`.
    fn each_node(&mut self, value: &Value) {
        let mut link = self.cluster.link();
        link.broadcast(value);
        drop(link);
        self.charge_compute_pass();
    }

    /// One distributed swap across all workers: broadcast + acks under a
    /// single lock (so every worker pairs up on the same exchange), with
    /// the round-trip wall-clock recorded as measured exchange time.
    fn dswap(&mut self, gb: u16, lq: u16) {
        debug_assert!(gb < self.g && lq < self.local_n);
        // Same fault site as the in-process exchange, so chaos suites
        // exercise both backends with one failpoint name.
        if let Err(fault) = tqsim_faults::trigger("cluster.exchange") {
            panic!("{fault}");
        }
        let start = Instant::now();
        {
            let mut link = self.cluster.link();
            link.broadcast_ack(&verb(
                "dswap",
                vec![
                    ("sid", num_u64(self.sid)),
                    ("gb", num_u64(u64::from(gb))),
                    ("lq", num_u64(u64::from(lq))),
                ],
            ));
        }
        let measured = start.elapsed().as_secs_f64();
        let half_bytes = (self.slice_len() / 2 * 16) as u64;
        let simulated = self.model.exchange_time(half_bytes);
        let total_bytes = half_bytes * self.n_nodes() as u64;
        self.counters.exchanges += 1;
        self.counters.bytes_exchanged += total_bytes;
        self.counters.simulated_seconds += simulated;
        self.counters.measured_exchange_seconds += measured;
        if let Some(obs) = &self.obs {
            obs.note_exchange(total_bytes, measured, simulated);
        }
    }

    /// Distributed-swap every global operand down to a scratch local qubit
    /// (same scratch-selection rule as in-process).
    fn remap_to_local(&mut self, qubits: &[u16]) -> (Vec<u16>, Vec<(u16, u16)>) {
        let local_n = self.local_n;
        let mut qubits = qubits.to_vec();
        let mut scratch: Vec<u16> = (0..local_n)
            .rev()
            .filter(|q| !qubits.contains(q))
            .take(qubits.len())
            .collect();
        let mut swaps: Vec<(u16, u16)> = Vec::new();
        for q in qubits.iter_mut() {
            if *q >= local_n {
                let dst = scratch
                    .pop()
                    .expect("layout check guarantees >= 3 local qubits");
                let gb = *q - local_n;
                self.dswap(gb, dst);
                swaps.push((gb, dst));
                *q = dst;
            }
        }
        (qubits, swaps)
    }

    /// Dense dispatch of an operand on qubits `qs` — the transport twin of
    /// the in-process `apply_dense`: swap every global operand down,
    /// broadcast the node-local sweep verb `make` builds for the physical
    /// positions, and swap back. All-local operands need no swap and count
    /// as a local gate.
    fn apply_dense(&mut self, qs: &[u16], make: impl Fn(&[u16]) -> Value) {
        assert!(qs.iter().all(|&q| q < self.n_qubits), "qubit out of range");
        if qs.iter().all(|&q| q < self.local_n) {
            self.each_node(&make(qs));
            self.note_local_gate();
        } else {
            let (phys, swaps) = self.remap_to_local(qs);
            self.each_node(&make(&phys));
            for &(gb, dst) in swaps.iter().rev() {
                self.dswap(gb, dst);
            }
            self.note_remapped_gate();
        }
    }
}

impl Drop for ShardedStateVector {
    fn drop(&mut self) {
        // Best-effort: freeing a slice on a dead/killed cluster is fine to
        // skip — the workers are gone with their memory.
        let free = verb("free", vec![("sid", num_u64(self.sid))]);
        let mut link = self.cluster.link_quiet();
        for rank in 0..self.cluster.n_workers() {
            let _ = link.try_send(rank, &free);
        }
    }
}

impl QuantumState for ShardedStateVector {
    fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    fn apply_gate(&mut self, gate: &Gate) {
        let (sid, kind) = (self.sid, *gate.kind());
        self.apply_dense(gate.qubits(), |ps| {
            verb(
                "gate",
                vec![
                    ("sid", num_u64(sid)),
                    ("g", crate::proto::gate_to_value(&Gate::new(kind, ps))),
                ],
            )
        });
    }

    fn apply_mat2(&mut self, q: u16, m: &Mat2) {
        let sid = self.sid;
        self.apply_dense(&[q], |ps| {
            verb(
                "mat2",
                vec![
                    ("sid", num_u64(sid)),
                    ("q", num_u64(u64::from(ps[0]))),
                    ("m", crate::proto::mat2_to_value(m)),
                ],
            )
        });
    }

    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
        let sid = self.sid;
        self.apply_dense(&[q_hi, q_lo], |ps| {
            verb(
                "mat4",
                vec![
                    ("sid", num_u64(sid)),
                    ("hi", num_u64(u64::from(ps[0]))),
                    ("lo", num_u64(u64::from(ps[1]))),
                    ("m", crate::proto::mat4_to_value(m)),
                ],
            )
        });
    }

    fn apply_diag_run(&mut self, run: &DiagRun) {
        let mut v = crate::proto::diag_run_to_value(run);
        if let Value::Obj(fields) = &mut v {
            fields.insert(0, ("v".to_string(), str_val("diagrun")));
            fields.insert(1, ("sid".to_string(), num_u64(self.sid)));
        }
        self.each_node(&v);
        self.note_local_gate();
    }

    fn marginal_one(&self, q: u16) -> f64 {
        assert!(q < self.n_qubits, "qubit out of range");
        let mut link = self.cluster.link();
        if q >= self.local_n {
            // Node-selecting bit: per-slice sums of the masked nodes,
            // folded in node order — as in-process.
            let mask = 1usize << (q - self.local_n);
            (0..self.n_nodes())
                .filter(|rank| rank & mask != 0)
                .map(|rank| {
                    link.request(rank, &verb("psum", vec![("sid", num_u64(self.sid))]))
                        .get("x")
                        .and_then(Value::as_f64)
                        .unwrap_or_else(|| panic!("shard transport: malformed psum reply"))
                })
                .sum()
        } else {
            // Local bit: one flat accumulator chained through the workers
            // in node order — the in-process one-pass sum, distributed.
            let mut acc = 0.0f64;
            for rank in 0..self.n_nodes() {
                acc = link
                    .request(
                        rank,
                        &verb(
                            "msum",
                            vec![
                                ("sid", num_u64(self.sid)),
                                ("q", num_u64(u64::from(q))),
                                ("acc", num(acc)),
                            ],
                        ),
                    )
                    .get("x")
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("shard transport: malformed msum reply"));
            }
            acc
        }
    }

    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        if q >= self.local_n {
            let mask = 1u64 << (q - self.local_n);
            let v = verb(
                "scale_bit",
                vec![
                    ("sid", num_u64(self.sid)),
                    ("mask", num_u64(mask)),
                    ("d", crate::proto::c64s_to_value([&d0, &d1])),
                ],
            );
            self.each_node(&v);
        } else {
            let v = verb(
                "diag1",
                vec![
                    ("sid", num_u64(self.sid)),
                    ("q", num_u64(u64::from(q))),
                    ("d", crate::proto::c64s_to_value([&d0, &d1])),
                ],
            );
            self.each_node(&v);
        }
    }

    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        if q >= self.local_n {
            // Cross-node combine: an exchange round, same fault site and
            // accounting as in-process (no compute pass charged).
            if let Err(fault) = tqsim_faults::trigger("cluster.exchange") {
                panic!("{fault}");
            }
            let start = Instant::now();
            {
                let step = 1u64 << (q - self.local_n);
                let mut link = self.cluster.link();
                link.broadcast_ack(&verb(
                    "antidiag_g",
                    vec![
                        ("sid", num_u64(self.sid)),
                        ("step", num_u64(step)),
                        ("a", crate::proto::c64s_to_value([&a01, &a10])),
                    ],
                ));
            }
            let measured = start.elapsed().as_secs_f64();
            let bytes = (self.slice_len() * 16) as u64;
            let simulated = self.model.exchange_time(bytes);
            let total_bytes = bytes * self.n_nodes() as u64;
            self.counters.exchanges += 1;
            self.counters.bytes_exchanged += total_bytes;
            self.counters.simulated_seconds += simulated;
            self.counters.measured_exchange_seconds += measured;
            if let Some(obs) = &self.obs {
                obs.note_exchange(total_bytes, measured, simulated);
            }
        } else {
            let v = verb(
                "antidiag",
                vec![
                    ("sid", num_u64(self.sid)),
                    ("q", num_u64(u64::from(q))),
                    ("a", crate::proto::c64s_to_value([&a01, &a10])),
                ],
            );
            self.each_node(&v);
        }
    }

    fn renormalize(&mut self) {
        let mut link = self.cluster.link();
        let n = self.norm_sqr_locked(&mut link);
        assert!(n > 1e-300, "cannot normalise a zero state");
        let s = 1.0 / n.sqrt();
        link.broadcast(&verb(
            "scale",
            vec![("sid", num_u64(self.sid)), ("s", num(s))],
        ));
        drop(link);
        self.charge_compute_pass();
        self.counters.simulated_seconds += self.model.allreduce_time(self.n_nodes());
    }

    fn norm_sqr(&self) -> f64 {
        ShardedStateVector::norm_sqr(self)
    }

    fn sample_with(&self, u: f64) -> u64 {
        ShardedStateVector::sample_with(self, u)
    }

    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        ShardedStateVector::sample_many(self, us)
    }
}

impl std::fmt::Debug for ShardedStateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedStateVector[{} qubits over {} worker processes]",
            self.n_qubits,
            self.n_nodes()
        )
    }
}
