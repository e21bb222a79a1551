//! Shard process lifecycle and coordinator-side transport.
//!
//! [`ShardCluster::spawn`] launches one worker process per simulated node
//! on loopback TCP, performs the hello/topology handshake, and hands out a
//! shared handle the slice transport ([`crate::ShardSlices`]) drives verbs
//! through. All control traffic runs under one mutex so that
//! multi-node verbs are enqueued in the **same order on every worker's
//! FIFO control socket** — the invariant that keeps pairwise mesh
//! exchanges from cross-pairing when several engine threads drive states
//! concurrently, and that lets exchange rounds go unacknowledged.
//! Messages are queued per socket and flushed once per round trip and
//! after each exchange round (see [`ClusterLink`]).
//!
//! Transport failures surface as panics — a worker process dying mid-job
//! at the coordinator's next write or read on its socket, an injected
//! `shard.transport` failpoint before any bytes move — exactly like the
//! in-process backend's `cluster.exchange` faults: the engine's per-task
//! panic isolation contains them to the running job, and the service's
//! retry/degradation ladder takes it from there.

use crate::proto;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use tqsim_circuit::math::C64;
use tqsim_json::{num_u64, obj, str_val, Value};

/// Locate (or build) the worker binary. Resolution order:
///
/// 1. `TQSIM_SHARD_WORKER_BIN` (explicit override, e.g. in CI);
/// 2. a `tqsim-shard-worker` binary next to any ancestor of the current
///    executable (covers `cargo test`/`cargo bench` runs, whose test
///    binaries live in `<target>/<profile>/deps/`);
/// 3. `cargo build -p tqsim-shard --bin tqsim-shard-worker`, matching the
///    current profile — dependent crates' test profiles don't build our
///    binary target, so build it once on demand — then step 2 again: cargo
///    writes into the same target directory (`CARGO_TARGET_DIR` included)
///    the current executable came from.
fn worker_binary() -> &'static PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Ok(path) = std::env::var("TQSIM_SHARD_WORKER_BIN") {
            return PathBuf::from(path);
        }
        let bin_name = format!("tqsim-shard-worker{}", std::env::consts::EXE_SUFFIX);
        let exe = std::env::current_exe().expect("current executable path");
        if let Some(found) = beside_an_ancestor(&exe, &bin_name) {
            return found;
        }
        let release = exe.components().any(|c| c.as_os_str() == "release");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "tqsim-shard", "--bin", "tqsim-shard-worker"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if release {
            cmd.arg("--release");
        }
        let status = cmd
            .status()
            .expect("failed to run cargo to build the shard worker");
        assert!(status.success(), "building the shard worker binary failed");
        beside_an_ancestor(&exe, &bin_name).unwrap_or_else(|| {
            panic!(
                "built shard worker not found beside any ancestor of {}",
                exe.display()
            )
        })
    })
}

/// The first file named `name` in a directory that is an ancestor of
/// `exe`, nearest first.
fn beside_an_ancestor(exe: &Path, name: &str) -> Option<PathBuf> {
    exe.ancestors()
        .skip(1)
        .map(|dir| dir.join(name))
        .find(|candidate| candidate.is_file())
}

/// Panic on transport errors — the coordinator-side choke point every
/// control send/receive passes through. A worker process dying mid-job
/// surfaces here (broken pipe / EOF), unwinds the job's task, and is
/// contained by the engine's per-task panic isolation.
fn transport<T>(what: &str, result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| panic!("shard transport: {what}: {e}"))
}

struct WorkerLink {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// The mutable half of the cluster, held under the transport mutex.
///
/// Messages are encoded by [`crate::proto`] and queued in each control
/// socket's write buffer. Every control socket is flushed before the
/// coordinator waits for any reply and right after it issues an exchange
/// round ([`ClusterLink::flush`]), so every worker holds a round before
/// any worker can block on its partner, and no worker waits on bytes left
/// in the coordinator.
pub struct ClusterLink {
    links: Vec<WorkerLink>,
    children: Vec<Child>,
}

impl ClusterLink {
    /// Queue message `msg` for worker `rank` (no reply expected). It
    /// leaves at the next [`ClusterLink::flush`], or sooner if the
    /// socket's write buffer fills.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn send(&mut self, rank: usize, msg: &[u8]) {
        transport("send", self.links[rank].writer.write_all(msg));
    }

    /// Queue `msg` for every worker, in rank order (no replies).
    pub fn broadcast(&mut self, msg: &[u8]) {
        for rank in 0..self.links.len() {
            self.send(rank, msg);
        }
    }

    /// Put every queued message on its socket, in rank order.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn flush(&mut self) {
        for link in &mut self.links {
            transport("flush", link.writer.flush());
        }
    }

    /// Flush, then read one reply line from worker `rank`.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn recv(&mut self, rank: usize) -> Value {
        self.flush();
        transport("recv", proto::read_line(&mut self.links[rank].reader))
    }

    /// Send to every worker, then collect one ack line from each.
    pub fn broadcast_ack(&mut self, msg: &[u8]) {
        self.broadcast(msg);
        for rank in 0..self.links.len() {
            self.recv(rank);
        }
    }

    /// Best-effort send, flushed at once, that reports IO errors instead of
    /// panicking and skips the failpoint — for teardown traffic (slice
    /// frees) that must not blow up a `Drop` on an already-dead cluster.
    pub fn try_send(&mut self, rank: usize, msg: &[u8]) -> io::Result<()> {
        let writer = &mut self.links[rank].writer;
        writer.write_all(msg)?;
        writer.flush()
    }

    /// Send a query to `rank` and read its reply.
    pub fn request(&mut self, rank: usize, msg: &[u8]) -> Value {
        self.send(rank, msg);
        self.recv(rank)
    }

    /// Fetch worker `rank`'s `slice_len` amplitudes for slice `sid` (bulk
    /// binary), appending them to `out`.
    ///
    /// # Panics
    ///
    /// On transport faults, or a reply of another length.
    pub fn fetch(&mut self, rank: usize, sid: u64, slice_len: usize, out: &mut Vec<C64>) {
        let fetch = obj(vec![("v", str_val("fetch")), ("sid", num_u64(sid))]);
        let header = self.request(rank, &proto::line(&fetch));
        let len = header
            .get("len")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("shard transport: malformed fetch header"));
        assert_eq!(len, slice_len as u64, "fetch length mismatch");
        let reader = &mut self.links[rank].reader;
        transport("fetch", proto::read_amps(reader, slice_len, out));
    }
}

/// A running multi-process shard topology: worker child processes plus
/// their control sockets. Shared (`Arc`) between every state the
/// [`crate::ShardBackend`] allocates; dropped, it shuts the workers down.
pub struct ShardCluster {
    inner: Mutex<ClusterLink>,
    n_workers: usize,
    next_sid: AtomicU64,
}

impl ShardCluster {
    /// Spawn `n_workers` worker processes on loopback and complete the
    /// hello/topology handshake.
    ///
    /// # Errors
    ///
    /// Any spawn or handshake IO failure (workers spawned so far are
    /// killed on the way out).
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` is not a power of two ≥ 1, or if the worker
    /// binary cannot be located or built.
    pub fn spawn(n_workers: usize) -> io::Result<ShardCluster> {
        assert!(
            n_workers >= 1 && n_workers.is_power_of_two(),
            "worker count {n_workers} is not a power of two >= 1"
        );
        let bin = worker_binary();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut children: Vec<Child> = Vec::with_capacity(n_workers);
        let spawn_all = (|| {
            for rank in 0..n_workers {
                let child = Command::new(bin)
                    .args(["--coordinator", &addr])
                    .args(["--rank", &rank.to_string()])
                    .args(["--workers", &n_workers.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()?;
                children.push(child);
            }
            // Collect hellos (arrival order is scheduling-dependent; place
            // each link by its self-reported rank) and announce the mesh
            // topology.
            let mut links: Vec<Option<(WorkerLink, String)>> =
                (0..n_workers).map(|_| None).collect();
            for _ in 0..n_workers {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let hello = proto::read_line_within(&mut reader, proto::HELLO_MAX_BYTES)?;
                let rank = hello
                    .get("rank")
                    .and_then(Value::as_u64)
                    .filter(|&r| (r as usize) < n_workers)
                    .ok_or_else(|| bad_hello("rank"))? as usize;
                let mesh = hello
                    .get("mesh")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_hello("mesh"))?
                    .to_string();
                if links[rank].is_some() {
                    return Err(bad_hello("duplicate rank"));
                }
                links[rank] = Some((
                    WorkerLink {
                        reader,
                        writer: BufWriter::new(stream),
                    },
                    mesh,
                ));
            }
            let mut links: Vec<(WorkerLink, String)> = links
                .into_iter()
                .map(|l| l.expect("all ranks seen"))
                .collect();
            let peers = Value::Arr(
                links
                    .iter()
                    .map(|(_, mesh)| str_val(mesh.as_str()))
                    .collect(),
            );
            let topo = proto::line(&obj(vec![("v", str_val("topo")), ("peers", peers)]));
            for (link, _) in links.iter_mut() {
                link.writer.write_all(&topo)?;
                link.writer.flush()?;
            }
            for (link, _) in links.iter_mut() {
                proto::read_line(&mut link.reader)?;
            }
            Ok(links.into_iter().map(|(link, _)| link).collect::<Vec<_>>())
        })();
        match spawn_all {
            Ok(links) => Ok(ShardCluster {
                inner: Mutex::new(ClusterLink { links, children }),
                n_workers,
                next_sid: AtomicU64::new(1),
            }),
            Err(e) => {
                for child in &mut children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Err(e)
            }
        }
    }

    /// Number of worker processes (= simulated nodes).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Allocate a fresh slice id (coordinator-wide unique).
    pub fn next_sid(&self) -> u64 {
        self.next_sid.fetch_add(1, Ordering::Relaxed)
    }

    /// Lock the transport for one multi-node operation. Every verb (or
    /// atomic verb sequence, e.g. a query and its reply) must run under a
    /// single lock acquisition so all workers enqueue multi-node operations
    /// in the same order.
    ///
    /// This is also the `shard.transport` failpoint: it fires **before**
    /// the lock is taken and before any bytes move, so an injected fault
    /// always leaves the wire between whole verbs — the faulted job dies,
    /// but the cluster stays protocol-consistent and the next attempt can
    /// run on it.
    ///
    /// # Panics
    ///
    /// Panics on an injected `shard.transport` fault.
    pub fn link(&self) -> MutexGuard<'_, ClusterLink> {
        if let Err(fault) = tqsim_faults::trigger("shard.transport") {
            panic!("{fault}");
        }
        self.link_quiet()
    }

    /// Failpoint-free transport acquisition, for teardown paths (state
    /// drops freeing slices) and chaos tooling that must not themselves
    /// trip injected faults.
    pub fn link_quiet(&self) -> MutexGuard<'_, ClusterLink> {
        // A panic mid-operation (killed worker) poisons the mutex; later
        // jobs still reach the transport and fail fast on the broken
        // sockets rather than panicking on the poison itself.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Round-trip a ping through every worker (spawn health check).
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn ping(&self) {
        let mut link = self.link();
        link.broadcast_ack(&proto::line(&obj(vec![("v", str_val("ping"))])));
    }

    /// Kill worker `rank`'s process outright — the chaos hook for
    /// fault-containment tests (a real node failure mid-job). Subsequent
    /// traffic to that worker panics, which the engine contains to the
    /// running job.
    pub fn kill_worker(&self, rank: usize) {
        let mut link = self.link_quiet();
        let _ = link.children[rank].kill();
        let _ = link.children[rank].wait();
    }
}

fn bad_hello(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed shard hello ({what})"),
    )
}

impl Drop for ShardCluster {
    fn drop(&mut self) {
        let link = self.inner.get_mut().unwrap_or_else(|p| p.into_inner());
        // Polite shutdown first; workers also exit on control-socket EOF,
        // and kill/wait below reaps anything unresponsive.
        let bye = proto::line(&obj(vec![("v", str_val("bye"))]));
        for rank in 0..link.links.len() {
            let _ = link.try_send(rank, &bye);
        }
        for child in link.children.iter_mut() {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for ShardCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardCluster[{} workers]", self.n_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_lookup_finds_the_binary_beside_a_profile_directory() {
        // The layout cargo leaves in any target directory: test binaries in
        // `<profile>/deps/`, the worker binary in `<profile>/`.
        let root = std::env::temp_dir().join(format!("tqsim-worker-lookup-{}", std::process::id()));
        let deps = root.join("release").join("deps");
        std::fs::create_dir_all(&deps).unwrap();
        let exe = deps.join("integration_chaos-0123abcd");
        std::fs::write(&exe, b"").unwrap();
        assert_eq!(beside_an_ancestor(&exe, "tqsim-shard-worker"), None);

        let worker = root.join("release").join("tqsim-shard-worker");
        std::fs::write(&worker, b"").unwrap();
        assert_eq!(beside_an_ancestor(&exe, "tqsim-shard-worker"), Some(worker));
        // A directory of that name is not a binary.
        assert_eq!(beside_an_ancestor(&exe, "deps"), None);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
