//! The TCP slice transport: [`ShardSlices`] keeps one node slice per shard
//! worker process and encodes each transport call as one control verb
//! under one transport lock. [`ShardedStateVector`] is the one distributed
//! state over it, so it is bit-identical to the in-process backend by
//! construction; only `measured_exchange_seconds` differs, because here it
//! times real TCP round-trips.

use crate::cluster::{ClusterLink, ShardCluster};
use crate::proto;
use std::sync::Arc;
use tqsim_circuit::math::C64;
use tqsim_cluster::{Ask, DistributedStateVector, PairOp, Query, Reply, SliceOp, SliceTransport};
use tqsim_json::{num, num_u64, obj, str_val, Value};

/// A pure state sliced across shard worker **processes**, driven over TCP.
pub type ShardedStateVector = DistributedStateVector<ShardSlices>;

fn verb(name: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("v", str_val(name))];
    all.extend(fields);
    obj(all)
}

/// One slice id's node slices on a [`ShardCluster`]'s workers: the
/// multi-process [`SliceTransport`]. Dropping it frees the slices.
pub struct ShardSlices {
    cluster: Arc<ShardCluster>,
    sid: u64,
    slice_len: usize,
}

impl ShardSlices {
    /// Allocate `|0…0⟩` slices of `2^local_n` amplitudes on every worker.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn alloc(cluster: Arc<ShardCluster>, local_n: u16) -> Self {
        let sid = cluster.next_sid();
        let slice_len = 1usize << local_n;
        let alloc = verb(
            "alloc",
            vec![("sid", num_u64(sid)), ("len", num_u64(slice_len as u64))],
        );
        cluster.link().broadcast_ack(&alloc);
        ShardSlices {
            cluster,
            sid,
            slice_len,
        }
    }

    /// `name` addressed to this slice id, then `fields`.
    fn verb(&self, name: &str, fields: Vec<(&str, Value)>) -> Value {
        let mut all = vec![("sid", num_u64(self.sid))];
        all.extend(fields);
        verb(name, all)
    }

    fn op_verb(&self, op: &SliceOp<'_>) -> Value {
        let q = |q: u16| num_u64(u64::from(q));
        let pair = |a: C64, b: C64| proto::c64s_to_value([&a, &b]);
        let (name, fields) = match *op {
            SliceOp::Reset => ("reset", vec![]),
            SliceOp::Ccx(c1, c2, t) => ("ccx", vec![("c1", q(c1)), ("c2", q(c2)), ("t", q(t))]),
            SliceOp::Mat2(t, m) => ("mat2", vec![("q", q(t)), ("m", proto::mat2_to_value(m))]),
            SliceOp::Mat4(hi, lo, m) => (
                "mat4",
                vec![("hi", q(hi)), ("lo", q(lo)), ("m", proto::mat4_to_value(m))],
            ),
            SliceOp::DiagRun(run) => ("diagrun", proto::diag_run_fields(run)),
            SliceOp::Diag1(t, d0, d1) => ("diag1", vec![("q", q(t)), ("d", pair(d0, d1))]),
            SliceOp::ScaleBit(mask, d0, d1) => (
                "scale_bit",
                vec![("mask", num_u64(mask as u64)), ("d", pair(d0, d1))],
            ),
            SliceOp::Antidiag1(t, a01, a10) => {
                ("antidiag", vec![("q", q(t)), ("a", pair(a01, a10))])
            }
            SliceOp::Scale(s) => ("scale", vec![("s", num(s))]),
        };
        self.verb(name, fields)
    }

    /// Ask worker `rank` one query on `link` and decode its reply.
    fn ask(&self, link: &mut ClusterLink, rank: usize, query: Query<'_>) -> Reply {
        let (name, fields) = match query {
            Query::Psum => ("psum", vec![]),
            Query::Msum(q, acc) => (
                "msum",
                vec![("q", num_u64(u64::from(q))), ("acc", num(acc))],
            ),
            Query::Pick(u, acc) => ("pick", vec![("u", num(u)), ("acc", num(acc))]),
            Query::Walk {
                us,
                idx,
                acc,
                total,
                init,
            } => (
                "walk",
                vec![
                    ("us", Value::Arr(us.iter().copied().map(num).collect())),
                    ("idx", num_u64(idx)),
                    ("acc", num(acc)),
                    ("total", num_u64(total)),
                    ("init", Value::Bool(init)),
                ],
            ),
        };
        let reply = link.request(rank, &self.verb(name, fields));
        let f64_at = |key: &str| reply.get(key)?.as_f64();
        let u64_at = |key: &str| reply.get(key)?.as_u64();
        let decoded = match query {
            Query::Walk { .. } => reply.get("out").and_then(Value::as_arr).and_then(|out| {
                let out = out.iter().map(Value::as_u64).collect::<Option<_>>()?;
                Some(Reply::Walk(out, u64_at("idx")?, f64_at("acc")?))
            }),
            _ => u64_at("hit")
                .map(Reply::Hit)
                .or_else(|| f64_at("x").map(Reply::Acc)),
        };
        decoded.unwrap_or_else(|| panic!("shard transport: malformed {name} reply"))
    }
}

impl SliceTransport for ShardSlices {
    fn n_nodes(&self) -> usize {
        self.cluster.n_workers()
    }

    fn sweep(&mut self, op: &SliceOp<'_>) {
        let op = self.op_verb(op);
        self.cluster.link().broadcast(&op);
    }

    /// Broadcast and collect every worker's ack under one lock, so every
    /// worker pairs up on the same exchange.
    fn exchange(&mut self, gb: u16, op: PairOp) {
        let round = match op {
            PairOp::HalfSwap(lq) => {
                let (gb, lq) = (num_u64(gb.into()), num_u64(lq.into()));
                self.verb("dswap", vec![("gb", gb), ("lq", lq)])
            }
            PairOp::Antidiag(a01, a10) => {
                let (step, a) = (num_u64(1 << gb), proto::c64s_to_value([&a01, &a10]));
                self.verb("antidiag_g", vec![("step", step), ("a", a)])
            }
        };
        self.cluster.link().broadcast_ack(&round);
    }

    fn copy_from(&mut self, src: &Self) {
        assert!(
            Arc::ptr_eq(&self.cluster, &src.cluster),
            "states live on different shard clusters"
        );
        let copy = verb(
            "copy",
            vec![("dst", num_u64(self.sid)), ("src", num_u64(src.sid))],
        );
        self.cluster.link().broadcast(&copy);
    }

    fn gather(&self) -> Vec<C64> {
        let mut link = self.cluster.link();
        let mut amps = Vec::with_capacity(self.slice_len * self.n_nodes());
        for rank in 0..self.n_nodes() {
            link.fetch(rank, self.sid, self.slice_len, &mut amps);
        }
        amps
    }

    fn query<R>(&self, fold: impl FnOnce(&mut Ask<'_>) -> R) -> R {
        let mut link = self.cluster.link();
        fold(&mut |rank, query| self.ask(&mut link, rank, query))
    }

    fn query_then_sweep(&mut self, fold: impl FnOnce(&mut Ask<'_>) -> SliceOp<'static>) {
        let mut link = self.cluster.link();
        let op = fold(&mut |rank, query| self.ask(&mut link, rank, query));
        link.broadcast(&self.op_verb(&op));
    }
}

impl Drop for ShardSlices {
    fn drop(&mut self) {
        // Best-effort: freeing a slice on a dead/killed cluster is fine to
        // skip — the workers are gone with their memory.
        let free = self.verb("free", vec![]);
        let mut link = self.cluster.link_quiet();
        for rank in 0..self.cluster.n_workers() {
            let _ = link.try_send(rank, &free);
        }
    }
}
