//! The TCP slice transport: [`ShardSlices`] keeps one node slice per shard
//! worker process and turns each transport call into control messages
//! under one transport lock. Sweeps and exchange rounds are silent: they
//! are queued, and an exchange round is flushed as soon as it is issued,
//! so the coordinator never waits on a worker except for a query's reply.
//! [`ShardedStateVector`] is the one distributed state over it, so it is
//! bit-identical to the in-process backend by construction; only
//! `measured_exchange_seconds` differs, because here it times issuing a
//! round on real sockets.

use crate::cluster::{ClusterLink, ShardCluster};
use crate::proto;
use std::io;
use std::sync::Arc;
use tqsim_circuit::math::C64;
use tqsim_cluster::{
    Ask, ClusterBackend, DistributedStateVector, Query, Reply, SliceOp, SliceTransport,
};
use tqsim_json::{num, num_u64, obj, str_val, Value};

/// A pure state sliced across shard worker **processes**, driven over TCP.
pub type ShardedStateVector = DistributedStateVector<ShardSlices>;

/// The distributed backend over shard worker processes:
/// [`ShardBackend::spawn`] starts the workers, and every clone shares them.
pub type ShardBackend = ClusterBackend<ShardSlices>;

fn verb(name: &str, fields: Vec<(&str, Value)>) -> Vec<u8> {
    let mut all = vec![("v", str_val(name))];
    all.extend(fields);
    proto::line(&obj(all))
}

/// One slice id's node slices on a [`ShardCluster`]'s workers: the
/// multi-process [`SliceTransport`]. Dropping it frees the slices.
pub struct ShardSlices {
    cluster: Arc<ShardCluster>,
    sid: u64,
    slice_len: usize,
}

impl ShardSlices {
    /// `name` addressed to this slice id, then `fields`.
    fn verb(&self, name: &str, fields: Vec<(&str, Value)>) -> Vec<u8> {
        let mut all = vec![("sid", num_u64(self.sid))];
        all.extend(fields);
        verb(name, all)
    }

    /// Ask worker `rank` one query on `link` and decode its reply.
    fn ask(&self, link: &mut ClusterLink, rank: usize, query: Query<'_>) -> Reply {
        let (name, fields) = match query {
            Query::Psum(acc) => ("psum", vec![("acc", num(acc))]),
            Query::Msum(q, acc) => (
                "msum",
                vec![("q", num_u64(u64::from(q))), ("acc", num(acc))],
            ),
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
            _ => f64_at("x").map(Reply::Acc),
        };
        decoded.unwrap_or_else(|| panic!("shard transport: malformed {name} reply"))
    }
}

/// The group is the live worker processes, shared by every state on them.
impl SliceTransport for ShardSlices {
    type Group = Arc<ShardCluster>;

    /// Spawn `n_workers` worker processes on loopback.
    fn spawn(n_workers: usize) -> io::Result<Arc<ShardCluster>> {
        ShardCluster::spawn(n_workers).map(Arc::new)
    }

    fn group_nodes(cluster: &Arc<ShardCluster>) -> usize {
        cluster.n_workers()
    }

    /// # Panics
    ///
    /// On transport faults.
    fn alloc(cluster: &Arc<ShardCluster>, local_n: u16) -> Self {
        let sid = cluster.next_sid();
        let slice_len = 1usize << local_n;
        let alloc = verb(
            "alloc",
            vec![("sid", num_u64(sid)), ("len", num_u64(slice_len as u64))],
        );
        cluster.link().broadcast_ack(&alloc);
        ShardSlices {
            cluster: Arc::clone(cluster),
            sid,
            slice_len,
        }
    }

    fn n_nodes(&self) -> usize {
        self.cluster.n_workers()
    }

    fn sweep(&mut self, op: &SliceOp<'_>) {
        let op = proto::encode_sweep(self.sid, op);
        self.cluster.link().broadcast(&op);
    }

    /// Queue the round for every worker under one lock, so every worker
    /// pairs up on the same exchange in its FIFO verb order, and flush it:
    /// no reply is awaited. A worker that fails mid-round ends its process,
    /// and the coordinator panics at its next write or read on that socket.
    fn exchange(&mut self, gb: u16, lq: u16) {
        let round = proto::encode_exchange(self.sid, gb, lq);
        let mut link = self.cluster.link();
        link.broadcast(&round);
        link.flush();
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
        link.broadcast(&proto::encode_sweep(self.sid, &op));
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
