//! The shard worker runtime: one OS process per simulated cluster node.
//!
//! A worker is deliberately *thin*. It owns the node's amplitude slices
//! (keyed by slice id) and runs `tqsim-cluster`'s slice arithmetic on
//! command: a sweep verb decodes to a [`SliceOp`] and runs
//! [`SliceOp::apply`], the exchange verb to a [`half_swap`], a query verb to a
//! [`Query`] answered by [`Query::answer`]. Every layout decision, counter,
//! RNG draw and noise branch lives in the coordinator's
//! [`tqsim_cluster::DistributedStateVector`], which drives the in-process
//! slices through the same functions — so the two transports agree bit for
//! bit by construction.
//!
//! A decoded verb is checked against the slice it addresses before it runs
//! (qubits in range and distinct, a power-of-two slice length of at least
//! 8, a partner rank that exists, a CDF walk that starts on rank 0 or
//! resumes just below the slice): a malformed verb is a wire error that
//! ends the worker, never a panic inside a kernel.
//!
//! Control arrives on the coordinator socket as one FIFO stream of
//! messages: a JSON line per verb, followed by an amplitude frame when
//! the verb has complex operands (the frame's length follows from the verb
//! and its line). The coordinator issues verbs under one lock, so every
//! worker sees multi-node verbs in the same order. Sweeps and exchange
//! rounds get no reply; the three queries (`psum`, `msum` and the batched
//! CDF `walk`), `alloc`, `fetch`, `ping` and `bye` do,
//! and each reply is flushed at once. Amplitudes move over a
//! lazily-established worker↔worker TCP mesh as length-prefixed binary
//! frames; for each pair the lower rank connects and sends first, the
//! higher rank accepts and receives first, so the pairwise exchanges can
//! never deadlock. Partners pair up on an exchange round by their FIFO
//! order alone, with no acknowledgement to the coordinator: a worker may
//! run several rounds ahead of its coordinator, and a worker that fails
//! mid-round ends its process, which the coordinator sees at its next
//! write or read on that socket.

use crate::proto::{self, need, need_f64, need_qubit, need_u64, wire_err};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use tqsim_circuit::math::{c64, C64};
use tqsim_cluster::{half_swap, Query, Reply, SliceOp};
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
    /// The operand frame of the verb being decoded, reused verb after verb.
    operands: Vec<C64>,
}

/// Write `value` as one line and flush it at once: the peer waits for it.
fn send_line<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    w.write_all(&proto::line(value))?;
    w.flush()
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
    send_line(
        &mut control_w,
        &obj(vec![
            ("v", tqsim_json::str_val("hello")),
            ("rank", num_u64(rank as u64)),
            ("mesh", tqsim_json::str_val(&mesh_addr)),
        ]),
    )?;
    let topo = proto::read_line(&mut control_r)?;
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
    send_line(&mut control_w, &proto::ack())?;

    let mut worker = Worker {
        rank,
        listener,
        peers,
        mesh: HashMap::new(),
        slices: HashMap::new(),
        frames: Default::default(),
        operands: Vec::new(),
    };
    loop {
        let msg = match proto::read_line(&mut control_r) {
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
            return send_line(&mut control_w, &proto::ack());
        }
        if let Some(answer) = worker.dispatch(verb, &msg, &mut control_r, &mut control_w)? {
            send_line(&mut control_w, &answer)?;
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
        SliceOp::Mat2(q, _) => q < local_n,
        SliceOp::Mat4(hi, lo, _) => hi < local_n && lo < local_n && hi != lo,
        SliceOp::DiagRun(run) => {
            run.terms1().iter().all(|&(q, _)| q < n_qubits)
                && run
                    .terms2()
                    .iter()
                    .all(|&(a, b, _)| a < n_qubits && b < n_qubits && a != b)
        }
        SliceOp::Reset | SliceOp::Scale(_) => true,
    }
}

/// A query's reply line.
fn reply_value(reply: Reply) -> Value {
    match reply {
        Reply::Acc(x) => obj(vec![("x", num(x))]),
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

    /// Handle one verb, reading its operand frame (if it carries one) from
    /// `control_r`; `Some(reply)` is sent back on the control socket.
    fn dispatch(
        &mut self,
        verb: &str,
        msg: &Value,
        control_r: &mut impl Read,
        control_w: &mut impl Write,
    ) -> io::Result<Option<Value>> {
        if let Some(op) = proto::read_sweep(verb, msg, control_r, &mut self.operands)? {
            return self.sweep(msg, op.op());
        }
        if let Some((step, lq)) = proto::read_exchange(verb, msg)? {
            return self.exchange(msg, step, lq);
        }
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
            "psum" => self.answer(msg, Query::Psum(need_f64(msg, "acc")?)),
            "msum" => self.answer(
                msg,
                Query::Msum(need_qubit(msg, "q")?, need_f64(msg, "acc")?),
            ),
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
                control_w.write_all(&proto::line(&obj(vec![(
                    "len",
                    num_u64(slice.len() as u64),
                )])))?;
                proto::write_amps(control_w, slice)?;
                control_w.flush()?;
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
            // A walk starts on rank 0; a carried walk stands on the index
            // just below this slice.
            Query::Walk { init: true, .. } => rank == 0,
            Query::Walk { idx, .. } => idx.checked_add(1).is_some_and(|next| next >= base as u64),
            Query::Psum(_) => true,
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
                send_line(&mut writer, &obj(vec![("rank", num_u64(self.rank as u64))]))?;
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
                    let from = mesh_hello(&mut reader)?;
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

    /// This worker's side of one half-swap round on local qubit `lq`: trade
    /// [`half_swap::outgoing`] frames with the partner `step` ranks away and
    /// [`half_swap::land`] what arrives. The lower rank sends first, the
    /// higher receives first.
    fn exchange(&mut self, msg: &Value, step: u64, lq: u16) -> io::Result<Option<Value>> {
        let rank = self.rank;
        let partner = usize::try_from(step)
            .ok()
            .filter(|step| step.is_power_of_two())
            .map(|step| rank ^ step)
            .filter(|&partner| partner < self.peers.len())
            .ok_or_else(|| wire_err("exchange", format!("no partner {step} ranks from {rank}")))?;
        let (sid, slice) = self.slice_mut(msg)?;
        if u32::from(lq) >= slice.len().trailing_zeros() {
            return Err(wire_err("dswap", format!("local qubit {lq} out of range")));
        }
        let mut slice = std::mem::take(slice);
        let [mut outgoing, mut incoming] = std::mem::take(&mut self.frames);
        let is_lo = rank < partner;
        outgoing.clear();
        incoming.clear();
        half_swap::outgoing(lq, &slice, is_lo, &mut outgoing);
        let outcome = (|| {
            let conn = self.mesh_with(partner)?;
            let n = outgoing.len();
            let mut send = |amps: &[C64]| {
                proto::write_amps(&mut conn.writer, amps)?;
                conn.writer.flush()
            };
            if is_lo {
                send(&outgoing)?;
                proto::read_amps(&mut conn.reader, n, &mut incoming)?;
            } else {
                proto::read_amps(&mut conn.reader, n, &mut incoming)?;
                send(&outgoing)?;
            }
            half_swap::land(lq, &mut slice, is_lo, &incoming);
            Ok(())
        })();
        self.slices.insert(sid, slice);
        self.frames = [outgoing, incoming];
        outcome.map(|()| None)
    }
}

/// The rank an inbound mesh connection announces in its hello line, read
/// through a [`proto::HELLO_MAX_BYTES`] cap: the listener accepts any
/// connection on the host, so a line without end is refused, not buffered.
fn mesh_hello<R: BufRead>(r: &mut R) -> io::Result<usize> {
    let hello = proto::read_line_within(r, proto::HELLO_MAX_BYTES)?;
    Ok(need_u64(&hello, "rank")? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::GateKind;

    /// Rank `rank` of a `n_workers` group, with no mesh peers dialled.
    fn worker(rank: usize, n_workers: usize) -> Worker {
        Worker {
            rank,
            listener: TcpListener::bind("127.0.0.1:0").unwrap(),
            peers: vec![String::new(); n_workers],
            mesh: HashMap::new(),
            slices: HashMap::new(),
            frames: Default::default(),
            operands: Vec::new(),
        }
    }

    /// Hand `w` one message — a line and what follows it — as its control
    /// socket would.
    fn feed(w: &mut Worker, msg: &[u8]) -> io::Result<Option<Value>> {
        let mut r = msg;
        let line = proto::read_line(&mut r)?;
        let verb = line.get("v").and_then(Value::as_str).unwrap().to_string();
        w.dispatch(&verb, &line, &mut r, &mut io::sink())
    }

    /// `line`, then an amplitude frame of `amps`.
    fn framed(line: &str, amps: &[C64]) -> Vec<u8> {
        let mut msg = format!("{line}\n").into_bytes();
        proto::write_amps(&mut msg, amps).unwrap();
        msg
    }

    fn send(w: &mut Worker, line: &str) -> io::Result<Option<Value>> {
        feed(w, format!("{line}\n").as_bytes())
    }

    fn refused(result: io::Result<Option<Value>>) -> bool {
        result.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    fn ones(n: usize) -> Vec<C64> {
        vec![c64(1.0, 0.0); n]
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
        let cx = GateKind::Cx.matrix2().unwrap();
        let mat4 = |hi: u16, lo: u16| proto::encode_sweep(1, &SliceOp::Mat4(hi, lo, &cx));
        assert!(refused(feed(&mut w, &mat4(3, 0))), "qubit 3 of 3 local");
        assert!(refused(feed(&mut w, &mat4(1, 1))), "repeated operand");
        assert!(feed(&mut w, &mat4(2, 0)).is_ok());
        assert!(send(&mut w, r#"{"v":"ccx","sid":1,"c1":2,"c2":0,"t":1}"#).is_ok());
        for (line, frame) in [
            // Retired verbs are refused, well-formed or not: a Kraus branch
            // is a `diagrun` or a `mat2`, and the half swap is the only
            // exchange.
            (r#"{"v":"gate","sid":1,"g":["h",1]}"#, None),
            (r#"{"v":"pick","sid":1,"u":0.5,"acc":0}"#, None),
            (r#"{"v":"diag1","sid":1,"q":3}"#, Some(2)),
            (r#"{"v":"diag1","sid":1,"q":0}"#, Some(2)),
            (r#"{"v":"scale_bit","sid":1,"mask":1}"#, Some(2)),
            (r#"{"v":"antidiag","sid":1,"q":0}"#, Some(2)),
            (r#"{"v":"antidiag_g","sid":1,"step":3}"#, Some(2)),
            (r#"{"v":"antidiag_g","sid":1,"step":1}"#, Some(2)),
            // A Toffoli with a repeated control, a target past the slice's
            // 3 local qubits, no target, and a qubit no u16 holds.
            (r#"{"v":"ccx","sid":1,"c1":1,"c2":1,"t":0}"#, None),
            (r#"{"v":"ccx","sid":1,"c1":0,"c2":1,"t":3}"#, None),
            (r#"{"v":"ccx","sid":1,"c1":0,"c2":1}"#, None),
            (r#"{"v":"ccx","sid":1,"c1":70000,"c2":1,"t":0}"#, None),
            (r#"{"v":"msum","sid":1,"q":40,"acc":0}"#, None),
            // A sum continues a carried accumulator; none is no query.
            (r#"{"v":"psum","sid":1}"#, None),
            // Rank 1's slice starts at index 8: a walk cannot resume at 2,
            // nor start there.
            (
                r#"{"v":"walk","sid":1,"us":[0.5],"idx":2,"acc":0,"total":16,"init":false}"#,
                None,
            ),
            (
                r#"{"v":"walk","sid":1,"us":[0.5],"idx":0,"acc":0,"total":16,"init":true}"#,
                None,
            ),
            // Two workers: no partner across global bit 1, or 2^70 away.
            (r#"{"v":"dswap","sid":1,"gb":1,"lq":0}"#, None),
            (r#"{"v":"dswap","sid":1,"gb":70,"lq":0}"#, None),
        ] {
            let msg = match frame {
                Some(n) => framed(line, &ones(n)),
                None => format!("{line}\n").into_bytes(),
            };
            assert!(refused(feed(&mut w, &msg)), "{line}");
        }
    }

    /// An operand frame must hold exactly what the verb and its line call
    /// for: anything else ends the worker with a wire error before a
    /// kernel runs or a buffer is sized.
    #[test]
    fn operand_frames_of_another_length_are_wire_errors() {
        let mut w = worker(0, 2);
        send(&mut w, r#"{"v":"alloc","sid":1,"len":8}"#).unwrap();
        let mat4 = r#"{"v":"mat4","sid":1,"hi":1,"lo":0}"#;
        for n in [15, 17] {
            assert!(
                refused(feed(&mut w, &framed(mat4, &ones(n)))),
                "{n} amplitudes"
            );
        }
        // A hostile length prefix sizes nothing.
        let mut huge = format!("{mat4}\n").into_bytes();
        huge.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(refused(feed(&mut w, &huge)));
        // A line whose frame never comes.
        let eof = feed(&mut w, format!("{mat4}\n").as_bytes());
        assert!(eof.is_err_and(|e| e.kind() == io::ErrorKind::UnexpectedEof));
        // A run on one qubit and one pair takes 2 + 4 entries, no other count.
        let run = r#"{"v":"diagrun","sid":1,"t1":[0],"t2":[[2,1]]}"#;
        for n in [0, 2, 4, 5, 7, 8] {
            assert!(refused(feed(&mut w, &framed(run, &ones(n)))), "{n} entries");
        }
        assert_eq!(w.slices[&1][0], c64(1.0, 0.0), "nothing ran");
        assert!(feed(&mut w, &framed(run, &ones(6))).is_ok());
        assert!(feed(&mut w, &framed(mat4, &ones(16))).is_ok());
    }

    /// The mesh listener takes any connection on the host: a hello with no
    /// end is refused at the cap, not buffered.
    #[test]
    fn an_endless_mesh_hello_is_refused() {
        let endless = vec![b'a'; 1 << 20];
        let mut r = &endless[..];
        let err = mesh_hello(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let read = endless.len() - r.len();
        assert_eq!(read as u64, proto::HELLO_MAX_BYTES, "nothing past the cap");
        let hello = proto::line(&obj(vec![("rank", num_u64(1))]));
        assert_eq!(mesh_hello(&mut &hello[..]).unwrap(), 1);
    }
}
