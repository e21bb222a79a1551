//! The shard worker runtime: one OS process per simulated cluster node.
//!
//! A worker is deliberately *thin*. It owns the node's amplitude slices
//! (keyed by slice id) and runs `tqsim-cluster`'s slice arithmetic on
//! command: a sweep verb decodes to a [`SliceOp`] and runs
//! [`SliceOp::apply`], an exchange verb to a [`PairOp`], a query verb to a
//! [`Query`] answered by [`Query::answer`]. Every layout decision, counter,
//! RNG draw and noise branch lives in the coordinator's
//! [`tqsim_cluster::DistributedStateVector`], which drives the in-process
//! slices through the same functions — so the two transports agree bit for
//! bit by construction.
//!
//! A decoded verb is checked against the slice it addresses before it runs
//! (qubits in range and distinct, a power-of-two slice length of at least
//! 8, a partner rank that exists): a malformed verb is a wire error that
//! ends the worker, never a panic inside a kernel.
//!
//! Control arrives as line-delimited JSON on the coordinator socket (FIFO
//! per worker; the coordinator broadcasts under one lock so every worker
//! sees multi-node verbs in the same order). Amplitudes move over a
//! lazily-established worker↔worker TCP mesh as length-prefixed binary
//! frames; for each pair the lower rank connects and sends first, the
//! higher rank accepts and receives first, so the pairwise exchanges can
//! never deadlock.

use crate::proto;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use tqsim_circuit::math::{c64, C64};
use tqsim_cluster::{PairOp, Query, Reply, SliceOp};
use tqsim_json::{num, num_u64, obj, Value};

/// A cached mesh connection to one peer worker.
struct MeshConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

struct Worker {
    rank: usize,
    listener: TcpListener,
    peers: Vec<String>,
    mesh: HashMap<usize, MeshConn>,
    slices: HashMap<u64, Vec<C64>>,
    /// Outgoing and incoming exchange frames, reused round after round so
    /// the data plane allocates nothing per exchange.
    frames: [Vec<C64>; 2],
}

fn wire_err(context: &str, message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {message}"))
}

/// Field `key` of `v`, decoded by `get`.
fn need<T>(v: &Value, key: &str, get: impl FnOnce(&Value) -> Option<T>) -> io::Result<T> {
    v.get(key)
        .and_then(get)
        .ok_or_else(|| wire_err("shard verb", format!("missing or malformed {key:?}")))
}

fn need_u64(v: &Value, key: &str) -> io::Result<u64> {
    need(v, key, Value::as_u64)
}

fn need_f64(v: &Value, key: &str) -> io::Result<f64> {
    need(v, key, Value::as_f64)
}

/// Run one worker process to completion: connect to `coordinator`, open
/// the mesh listener, handshake, and serve verbs until `bye` (or until the
/// coordinator vanishes, which is a normal shutdown for killed clusters).
///
/// # Errors
///
/// Transport or protocol errors other than the coordinator closing the
/// control socket.
pub fn run(coordinator: &str, rank: usize, n_workers: usize) -> io::Result<()> {
    let control = TcpStream::connect(coordinator)?;
    control.set_nodelay(true)?;
    let mut control_r = BufReader::new(control.try_clone()?);
    let mut control_w = BufWriter::new(control);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mesh_addr = listener.local_addr()?.to_string();
    proto::send_line(
        &mut control_w,
        &obj(vec![
            ("v", tqsim_json::str_val("hello")),
            ("rank", num_u64(rank as u64)),
            ("mesh", tqsim_json::str_val(&mesh_addr)),
        ]),
    )?;
    let topo = proto::recv_line(&mut control_r)?;
    if topo.get("v").and_then(Value::as_str) != Some("topo") {
        return Err(wire_err("handshake", "expected topo".into()));
    }
    let peers: Vec<String> = topo
        .get("peers")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if peers.len() != n_workers {
        return Err(wire_err("handshake", "peer list length mismatch".into()));
    }
    proto::send_line(&mut control_w, &proto::ack())?;

    let mut worker = Worker {
        rank,
        listener,
        peers,
        mesh: HashMap::new(),
        slices: HashMap::new(),
        frames: Default::default(),
    };
    loop {
        let msg = match proto::recv_line(&mut control_r) {
            Ok(msg) => msg,
            // The coordinator dropping the control socket (process exit,
            // cluster teardown without `bye`) is a normal shutdown.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let verb = msg
            .get("v")
            .and_then(Value::as_str)
            .ok_or_else(|| wire_err("shard verb", "missing \"v\"".into()))?;
        if verb == "bye" {
            proto::send_line(&mut control_w, &proto::ack())?;
            return Ok(());
        }
        if let Some(reply) = worker.dispatch(verb, &msg, &mut control_w)? {
            proto::send_line(&mut control_w, &reply)?;
        }
    }
}

/// Whether `op` fits a slice of `2^local_n` amplitudes of an `n_qubits`
/// register — what [`SliceOp::apply`] assumes of it.
fn op_fits(op: &SliceOp<'_>, local_n: u16, n_qubits: u16) -> bool {
    match *op {
        SliceOp::Ccx(c1, c2, t) => {
            [c1, c2, t].iter().all(|&q| q < local_n) && c1 != c2 && c1 != t && c2 != t
        }
        SliceOp::Mat2(q, _) | SliceOp::Diag1(q, ..) | SliceOp::Antidiag1(q, ..) => q < local_n,
        SliceOp::Mat4(hi, lo, _) => hi < local_n && lo < local_n && hi != lo,
        SliceOp::DiagRun(run) => {
            run.terms1().iter().all(|&(q, _)| q < n_qubits)
                && run
                    .terms2()
                    .iter()
                    .all(|&(a, b, _)| a < n_qubits && b < n_qubits && a != b)
        }
        SliceOp::Reset | SliceOp::ScaleBit(..) | SliceOp::Scale(_) => true,
    }
}

/// A query's reply line.
fn reply_value(reply: Reply) -> Value {
    match reply {
        Reply::Acc(x) => obj(vec![("x", num(x))]),
        Reply::Hit(outcome) => obj(vec![("hit", num_u64(outcome))]),
        Reply::Walk(out, idx, acc) => obj(vec![
            ("out", Value::Arr(out.into_iter().map(num_u64).collect())),
            ("idx", num_u64(idx)),
            ("acc", num(acc)),
        ]),
    }
}

impl Worker {
    fn slice_mut(&mut self, msg: &Value) -> io::Result<(u64, &mut Vec<C64>)> {
        let sid = need_u64(msg, "sid")?;
        let slice = self
            .slices
            .get_mut(&sid)
            .ok_or_else(|| wire_err("shard verb", format!("unknown slice {sid}")))?;
        Ok((sid, slice))
    }

    /// Handle one verb; `Some(reply)` is sent back on the control socket.
    fn dispatch(
        &mut self,
        verb: &str,
        msg: &Value,
        control_w: &mut impl Write,
    ) -> io::Result<Option<Value>> {
        let qubit = |key| need(msg, key, |v| v.as_u64().and_then(|q| u16::try_from(q).ok()));
        let pair = |key| -> io::Result<[C64; 2]> {
            need(msg, key, |v| {
                proto::c64s_from_value(v, 2).ok()?.try_into().ok()
            })
        };
        match verb {
            "ping" => Ok(Some(proto::ack())),
            "alloc" => {
                let sid = need_u64(msg, "sid")?;
                let len = need_u64(msg, "len")?;
                if len < 8 || !len.is_power_of_two() {
                    let why = format!("slice length {len} is not a power of two >= 8");
                    return Err(wire_err("alloc", why));
                }
                let mut slice = Vec::new();
                slice
                    .try_reserve_exact(len as usize)
                    .map_err(|e| wire_err("alloc", format!("slice length {len}: {e}")))?;
                slice.resize(len as usize, c64(0.0, 0.0));
                SliceOp::Reset.apply(&mut slice, self.rank << len.trailing_zeros());
                self.slices.insert(sid, slice);
                Ok(Some(proto::ack()))
            }
            "free" => {
                self.slices.remove(&need_u64(msg, "sid")?);
                Ok(None)
            }
            "copy" => {
                let (dst, src) = (need_u64(msg, "dst")?, need_u64(msg, "src")?);
                let mut to = self
                    .slices
                    .remove(&dst)
                    .ok_or_else(|| wire_err("copy", format!("unknown destination {dst}")))?;
                let copied = match self.slices.get(&src) {
                    Some(from) if from.len() == to.len() => {
                        to.copy_from_slice(from);
                        Ok(None)
                    }
                    _ => Err(wire_err(
                        "copy",
                        format!("no source {src} of {dst}'s length"),
                    )),
                };
                self.slices.insert(dst, to);
                copied
            }
            "reset" => self.sweep(msg, SliceOp::Reset),
            "ccx" => {
                let ccx = SliceOp::Ccx(qubit("c1")?, qubit("c2")?, qubit("t")?);
                self.sweep(msg, ccx)
            }
            "mat2" => {
                let m = need(msg, "m", |v| proto::mat2_from_value(v).ok())?;
                self.sweep(msg, SliceOp::Mat2(qubit("q")?, &m))
            }
            "mat4" => {
                let m = need(msg, "m", |v| proto::mat4_from_value(v).ok())?;
                self.sweep(msg, SliceOp::Mat4(qubit("hi")?, qubit("lo")?, &m))
            }
            "diagrun" => {
                let run = proto::diag_run_from_value(msg).map_err(|e| wire_err("diagrun", e))?;
                self.sweep(msg, SliceOp::DiagRun(&run))
            }
            "diag1" => {
                let [d0, d1] = pair("d")?;
                self.sweep(msg, SliceOp::Diag1(qubit("q")?, d0, d1))
            }
            "scale_bit" => {
                let [d0, d1] = pair("d")?;
                let mask = need_u64(msg, "mask")? as usize;
                self.sweep(msg, SliceOp::ScaleBit(mask, d0, d1))
            }
            "antidiag" => {
                let [a01, a10] = pair("a")?;
                self.sweep(msg, SliceOp::Antidiag1(qubit("q")?, a01, a10))
            }
            "scale" => self.sweep(msg, SliceOp::Scale(need_f64(msg, "s")?)),
            "dswap" => {
                let gb = u32::try_from(need_u64(msg, "gb")?).unwrap_or(u32::MAX);
                let step = 1u64.checked_shl(gb).unwrap_or(0);
                self.exchange(msg, step, PairOp::HalfSwap(qubit("lq")?))
            }
            "antidiag_g" => {
                let [a01, a10] = pair("a")?;
                self.exchange(msg, need_u64(msg, "step")?, PairOp::Antidiag(a01, a10))
            }
            "psum" => self.answer(msg, Query::Psum),
            "msum" => self.answer(msg, Query::Msum(qubit("q")?, need_f64(msg, "acc")?)),
            "pick" => self.answer(msg, Query::Pick(need_f64(msg, "u")?, need_f64(msg, "acc")?)),
            "walk" => {
                let us: Vec<f64> = need(msg, "us", |v| {
                    v.as_arr()?.iter().map(Value::as_f64).collect()
                })?;
                let walk = Query::Walk {
                    us: &us,
                    idx: need_u64(msg, "idx")?,
                    acc: need_f64(msg, "acc")?,
                    total: need_u64(msg, "total")?,
                    init: msg.get("init").and_then(Value::as_bool).unwrap_or(false),
                };
                self.answer(msg, walk)
            }
            "fetch" => {
                let (_, slice) = self.slice_mut(msg)?;
                proto::send_line(control_w, &obj(vec![("len", num_u64(slice.len() as u64))]))?;
                proto::write_amps(control_w, slice)?;
                Ok(None)
            }
            other => Err(wire_err("shard verb", format!("unknown verb {other:?}"))),
        }
    }

    /// Run `op` on the addressed slice once it is checked to fit.
    fn sweep(&mut self, msg: &Value, op: SliceOp<'_>) -> io::Result<Option<Value>> {
        let (rank, n_workers) = (self.rank, self.peers.len());
        let (_, slice) = self.slice_mut(msg)?;
        let local_n = slice.len().trailing_zeros() as u16;
        let n_qubits = local_n + n_workers.trailing_zeros() as u16;
        if !op_fits(&op, local_n, n_qubits) {
            let why = format!("{op:?} does not fit {local_n} local qubits");
            return Err(wire_err("shard verb", why));
        }
        op.apply(slice, rank << local_n);
        Ok(None)
    }

    /// Answer `query` on the addressed slice once it is checked to fit.
    fn answer(&mut self, msg: &Value, query: Query<'_>) -> io::Result<Option<Value>> {
        let rank = self.rank;
        let (_, slice) = self.slice_mut(msg)?;
        let local_n = slice.len().trailing_zeros();
        let base = rank << local_n;
        let fits = match query {
            Query::Msum(q, _) => u32::from(q) < local_n,
            // A carried walk stands on the index just below this slice.
            Query::Walk { idx, init, .. } => {
                init || idx.checked_add(1).is_some_and(|next| next >= base as u64)
            }
            Query::Psum | Query::Pick(..) => true,
        };
        if !fits {
            let why = format!("{query:?} does not fit rank {rank}'s slice");
            return Err(wire_err("shard query", why));
        }
        Ok(Some(reply_value(query.answer(slice, base))))
    }

    /// Get (establishing if necessary) the mesh connection to `peer`. The
    /// lower rank dials; the higher rank accepts, identifying inbound
    /// connections by their hello line. Pairings are disjoint per exchange
    /// round, so accept-until-found cannot starve.
    fn mesh_with(&mut self, peer: usize) -> io::Result<&mut MeshConn> {
        if !self.mesh.contains_key(&peer) {
            if self.rank < peer {
                let stream = TcpStream::connect(&self.peers[peer])?;
                stream.set_nodelay(true)?;
                let mut writer = BufWriter::new(stream.try_clone()?);
                proto::send_line(&mut writer, &obj(vec![("rank", num_u64(self.rank as u64))]))?;
                self.mesh.insert(
                    peer,
                    MeshConn {
                        reader: BufReader::new(stream),
                        writer,
                    },
                );
            } else {
                loop {
                    let (stream, _) = self.listener.accept()?;
                    stream.set_nodelay(true)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let hello = proto::recv_line(&mut reader)?;
                    let from = need_u64(&hello, "rank")? as usize;
                    self.mesh.insert(
                        from,
                        MeshConn {
                            reader,
                            writer: BufWriter::new(stream),
                        },
                    );
                    if from == peer {
                        break;
                    }
                }
            }
        }
        Ok(self.mesh.get_mut(&peer).expect("just inserted"))
    }

    /// This worker's side of one exchange round: trade [`PairOp::outgoing`]
    /// frames with the partner `step` ranks away and [`PairOp::land`] what
    /// arrives. The lower rank sends first, the higher receives first.
    fn exchange(&mut self, msg: &Value, step: u64, op: PairOp) -> io::Result<Option<Value>> {
        let rank = self.rank;
        let partner = usize::try_from(step)
            .ok()
            .filter(|step| step.is_power_of_two())
            .map(|step| rank ^ step)
            .filter(|&partner| partner < self.peers.len())
            .ok_or_else(|| wire_err("exchange", format!("no partner {step} ranks from {rank}")))?;
        let (sid, slice) = self.slice_mut(msg)?;
        if let PairOp::HalfSwap(lq) = op {
            if u32::from(lq) >= slice.len().trailing_zeros() {
                return Err(wire_err("dswap", format!("local qubit {lq} out of range")));
            }
        }
        let mut slice = std::mem::take(slice);
        let [mut outgoing, mut incoming] = std::mem::take(&mut self.frames);
        let is_lo = rank < partner;
        outgoing.clear();
        incoming.clear();
        op.outgoing(&slice, is_lo, &mut outgoing);
        let outcome = (|| {
            let conn = self.mesh_with(partner)?;
            let n = outgoing.len();
            if is_lo {
                proto::write_amps(&mut conn.writer, &outgoing)?;
                proto::read_amps(&mut conn.reader, n, &mut incoming)?;
            } else {
                proto::read_amps(&mut conn.reader, n, &mut incoming)?;
                proto::write_amps(&mut conn.writer, &outgoing)?;
            }
            op.land(&mut slice, is_lo, &incoming);
            Ok(())
        })();
        self.slices.insert(sid, slice);
        self.frames = [outgoing, incoming];
        outcome.map(|()| Some(proto::ack()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank `rank` of a `n_workers` group, with no mesh peers dialled.
    fn worker(rank: usize, n_workers: usize) -> Worker {
        Worker {
            rank,
            listener: TcpListener::bind("127.0.0.1:0").unwrap(),
            peers: vec![String::new(); n_workers],
            mesh: HashMap::new(),
            slices: HashMap::new(),
            frames: Default::default(),
        }
    }

    fn send(w: &mut Worker, line: &str) -> io::Result<Option<Value>> {
        let msg = tqsim_json::parse(line).unwrap();
        let verb = msg.get("v").and_then(Value::as_str).unwrap().to_string();
        w.dispatch(&verb, &msg, &mut io::sink())
    }

    fn refused(result: io::Result<Option<Value>>) -> bool {
        result.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn bad_alloc_lengths_are_wire_errors() {
        let mut w = worker(0, 2);
        for len in ["0", "4", "12", "4611686018427387904"] {
            let line = format!(r#"{{"v":"alloc","sid":1,"len":{len}}}"#);
            assert!(refused(send(&mut w, &line)), "len {len}");
        }
        assert!(w.slices.is_empty());
        assert!(send(&mut w, r#"{"v":"alloc","sid":1,"len":8}"#).is_ok());
        assert_eq!(w.slices[&1][0], c64(1.0, 0.0), "rank 0 holds |0…0⟩");
    }

    #[test]
    fn out_of_range_ops_are_wire_errors_not_kernel_panics() {
        let mut w = worker(1, 2);
        send(&mut w, r#"{"v":"alloc","sid":1,"len":8}"#).unwrap();
        let cx = proto::mat4_to_value(&tqsim_circuit::GateKind::Cx.matrix2().unwrap()).to_json();
        let mat4 =
            |hi: u16, lo: u16| format!(r#"{{"v":"mat4","sid":1,"hi":{hi},"lo":{lo},"m":{cx}}}"#);
        assert!(refused(send(&mut w, &mat4(3, 0))), "qubit 3 of 3 local");
        assert!(refused(send(&mut w, &mat4(1, 1))), "repeated operand");
        assert!(send(&mut w, &mat4(2, 0)).is_ok());
        assert!(send(&mut w, r#"{"v":"ccx","sid":1,"c1":2,"c2":0,"t":1}"#).is_ok());
        for line in [
            // The retired verb is refused.
            r#"{"v":"gate","sid":1,"g":["h",1]}"#,
            // A Toffoli with a repeated control, a target past the slice's
            // 3 local qubits, no target, and a qubit no u16 holds.
            r#"{"v":"ccx","sid":1,"c1":1,"c2":1,"t":0}"#,
            r#"{"v":"ccx","sid":1,"c1":0,"c2":1,"t":3}"#,
            r#"{"v":"ccx","sid":1,"c1":0,"c2":1}"#,
            r#"{"v":"ccx","sid":1,"c1":70000,"c2":1,"t":0}"#,
            r#"{"v":"diag1","sid":1,"q":3,"d":[1,0,1,0]}"#,
            r#"{"v":"msum","sid":1,"q":40,"acc":0}"#,
            // Rank 1's slice starts at index 8: a walk cannot resume at 2.
            r#"{"v":"walk","sid":1,"us":[0.5],"idx":2,"acc":0,"total":16,"init":false}"#,
            // Two workers: no partner across global bit 1, or 2^70 away.
            r#"{"v":"dswap","sid":1,"gb":1,"lq":0}"#,
            r#"{"v":"dswap","sid":1,"gb":70,"lq":0}"#,
            r#"{"v":"antidiag_g","sid":1,"step":3,"a":[1,0,1,0]}"#,
        ] {
            assert!(refused(send(&mut w, line)), "{line}");
        }
    }
}
