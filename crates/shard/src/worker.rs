//! The shard worker runtime: one OS process per simulated cluster node.
//!
//! A worker is deliberately *thin*. It owns the node's amplitude slices
//! (keyed by slice id) and applies statevector kernels on command; every
//! layout decision, counter, RNG draw and noise branch lives on the
//! coordinator, which is what keeps the multi-process backend bit-identical
//! to the in-process [`tqsim_cluster::DistributedStateVector`] — the worker
//! executes exactly the per-slice arithmetic the in-process node threads
//! would, in the same order.
//!
//! Control arrives as line-delimited JSON on the coordinator socket (FIFO
//! per worker; the coordinator broadcasts under one lock so every worker
//! sees multi-node verbs in the same order). Amplitude halves move over a
//! lazily-established worker↔worker TCP mesh as length-prefixed binary
//! frames; for each pair the lower rank connects and sends first, the
//! higher rank accepts and receives first, so the pairwise exchanges can
//! never deadlock.

use crate::proto;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use tqsim_circuit::math::{c64, C64};
use tqsim_json::{num, num_u64, obj, Value};
use tqsim_statevec::kernels;

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
}

fn wire_err(context: &str, message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {message}"))
}

fn need_u64(v: &Value, key: &str) -> io::Result<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| wire_err("shard verb", format!("missing numeric {key:?}")))
}

fn need_f64(v: &Value, key: &str) -> io::Result<f64> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| wire_err("shard verb", format!("missing numeric {key:?}")))
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

impl Worker {
    /// Node-local qubit count of a slice (its length is always `2^local_n`).
    fn local_n(slice: &[C64]) -> u16 {
        slice.len().trailing_zeros() as u16
    }

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
        control_w: &mut BufWriter<TcpStream>,
    ) -> io::Result<Option<Value>> {
        match verb {
            "ping" => Ok(Some(proto::ack())),
            "alloc" => {
                let sid = need_u64(msg, "sid")?;
                let len = need_u64(msg, "len")? as usize;
                let mut slice = vec![c64(0.0, 0.0); len];
                if self.rank == 0 {
                    slice[0] = c64(1.0, 0.0);
                }
                self.slices.insert(sid, slice);
                Ok(Some(proto::ack()))
            }
            "reset" => {
                let rank = self.rank;
                let (_, slice) = self.slice_mut(msg)?;
                slice.fill(c64(0.0, 0.0));
                if rank == 0 {
                    slice[0] = c64(1.0, 0.0);
                }
                Ok(None)
            }
            "free" => {
                let sid = need_u64(msg, "sid")?;
                self.slices.remove(&sid);
                Ok(None)
            }
            "copy" => {
                let dst = need_u64(msg, "dst")?;
                let src = need_u64(msg, "src")?;
                let from = self
                    .slices
                    .get(&src)
                    .ok_or_else(|| wire_err("copy", format!("unknown source {src}")))?
                    .clone();
                let to = self
                    .slices
                    .get_mut(&dst)
                    .ok_or_else(|| wire_err("copy", format!("unknown destination {dst}")))?;
                to.copy_from_slice(&from);
                Ok(None)
            }
            "gate" => {
                let gate = proto::gate_from_value(
                    msg.get("g")
                        .ok_or_else(|| wire_err("gate", "no g".into()))?,
                )
                .map_err(|e| wire_err("gate", e))?;
                let (_, slice) = self.slice_mut(msg)?;
                kernels::apply_gate_amps(slice, &gate);
                Ok(None)
            }
            "mat2" => {
                let q = need_u64(msg, "q")? as usize;
                let m = proto::mat2_from_value(
                    msg.get("m")
                        .ok_or_else(|| wire_err("mat2", "no m".into()))?,
                )
                .map_err(|e| wire_err("mat2", e))?;
                let (_, slice) = self.slice_mut(msg)?;
                kernels::apply_mat2(slice, q, &m);
                Ok(None)
            }
            "mat4" => {
                let hi = need_u64(msg, "hi")? as usize;
                let lo = need_u64(msg, "lo")? as usize;
                let m = proto::mat4_from_value(
                    msg.get("m")
                        .ok_or_else(|| wire_err("mat4", "no m".into()))?,
                )
                .map_err(|e| wire_err("mat4", e))?;
                let (_, slice) = self.slice_mut(msg)?;
                kernels::apply_mat4(slice, hi, lo, &m);
                Ok(None)
            }
            "diagrun" => {
                let run = proto::diag_run_from_value(msg).map_err(|e| wire_err("diagrun", e))?;
                let rank = self.rank;
                let (_, slice) = self.slice_mut(msg)?;
                let base = rank << Self::local_n(slice);
                run.apply_offset(slice, base);
                Ok(None)
            }
            "diag1" => {
                let q = need_u64(msg, "q")? as usize;
                let d = proto::c64s_from_value(
                    msg.get("d")
                        .ok_or_else(|| wire_err("diag1", "no d".into()))?,
                    2,
                )
                .map_err(|e| wire_err("diag1", e))?;
                let (_, slice) = self.slice_mut(msg)?;
                kernels::apply_diag1(slice, q, d[0], d[1]);
                Ok(None)
            }
            "scale_bit" => {
                // Global diag1: multiply the whole slice by d0 or d1
                // depending on this node's bit in the mask.
                let mask = need_u64(msg, "mask")? as usize;
                let d = proto::c64s_from_value(
                    msg.get("d")
                        .ok_or_else(|| wire_err("scale_bit", "no d".into()))?,
                    2,
                )
                .map_err(|e| wire_err("scale_bit", e))?;
                let rank = self.rank;
                let (_, slice) = self.slice_mut(msg)?;
                let dd = if rank & mask != 0 { d[1] } else { d[0] };
                for a in slice.iter_mut() {
                    *a *= dd;
                }
                Ok(None)
            }
            "antidiag" => {
                let q = need_u64(msg, "q")? as usize;
                let a = proto::c64s_from_value(
                    msg.get("a")
                        .ok_or_else(|| wire_err("antidiag", "no a".into()))?,
                    2,
                )
                .map_err(|e| wire_err("antidiag", e))?;
                let (_, slice) = self.slice_mut(msg)?;
                kernels::apply_antidiag1(slice, q, a[0], a[1]);
                Ok(None)
            }
            "antidiag_g" => {
                let step = need_u64(msg, "step")? as usize;
                let a = proto::c64s_from_value(
                    msg.get("a")
                        .ok_or_else(|| wire_err("antidiag_g", "no a".into()))?,
                    2,
                )
                .map_err(|e| wire_err("antidiag_g", e))?;
                self.antidiag_global(msg, step, a[0], a[1])?;
                Ok(Some(proto::ack()))
            }
            "dswap" => {
                let gb = need_u64(msg, "gb")? as u16;
                let lq = need_u64(msg, "lq")? as u16;
                self.dswap(msg, gb, lq)?;
                Ok(Some(proto::ack()))
            }
            "scale" => {
                let s = need_f64(msg, "s")?;
                let (_, slice) = self.slice_mut(msg)?;
                for amp in slice.iter_mut() {
                    *amp *= s;
                }
                Ok(None)
            }
            "psum" => {
                let (_, slice) = self.slice_mut(msg)?;
                let sum: f64 = slice.iter().map(|a| a.norm_sqr()).sum();
                Ok(Some(obj(vec![("x", num(sum))])))
            }
            "msum" => {
                // Local-marginal chain link: continue the coordinator's
                // single flat accumulator over this slice's filtered
                // amplitudes — the exact addition sequence of the
                // in-process backend's one-pass sum.
                let q = need_u64(msg, "q")? as usize;
                let mut acc = need_f64(msg, "acc")?;
                let (_, slice) = self.slice_mut(msg)?;
                let mask = 1usize << q;
                for (i, amp) in slice.iter().enumerate() {
                    if i & mask != 0 {
                        acc += amp.norm_sqr();
                    }
                }
                Ok(Some(obj(vec![("x", num(acc))])))
            }
            "pick" => {
                // Single-draw CDF chain link (see the coordinator's
                // `sample_with`): either a hit inside this slice or the
                // accumulator to hand to the next node.
                let u = need_f64(msg, "u")?;
                let mut acc = need_f64(msg, "acc")?;
                let rank = self.rank;
                let (_, slice) = self.slice_mut(msg)?;
                let base = (rank as u64) << Self::local_n(slice);
                for (i, amp) in slice.iter().enumerate() {
                    acc += amp.norm_sqr();
                    if u < acc {
                        return Ok(Some(obj(vec![("hit", num_u64(base | i as u64))])));
                    }
                }
                Ok(Some(obj(vec![("x", num(acc))])))
            }
            "walk" => self.walk_reply(msg),
            "fetch" => {
                let (_, slice) = self.slice_mut(msg)?;
                let len = slice.len();
                let amps = slice.clone();
                proto::send_line(control_w, &obj(vec![("len", num_u64(len as u64))]))?;
                proto::write_amps(control_w, &amps)?;
                Ok(None)
            }
            other => Err(wire_err("shard verb", format!("unknown verb {other:?}"))),
        }
    }

    /// Batched sorted-CDF chain link (see the coordinator's `sample_many`):
    /// resolve as many sorted draws as land in this slice, then hand
    /// (idx, acc) to the next node.
    fn walk_reply(&mut self, msg: &Value) -> io::Result<Option<Value>> {
        let us: Vec<f64> = msg
            .get("us")
            .and_then(Value::as_arr)
            .ok_or_else(|| wire_err("walk", "no us".into()))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| wire_err("walk", "bad u".into())))
            .collect::<io::Result<_>>()?;
        let mut idx = need_u64(msg, "idx")? as usize;
        let mut acc = need_f64(msg, "acc")?;
        let total = need_u64(msg, "total")? as usize;
        let init = msg.get("init").and_then(Value::as_bool).unwrap_or(false);
        let rank = self.rank;
        let (_, slice) = self.slice_mut(msg)?;
        let base = rank << Self::local_n(slice);
        if init {
            idx = 0;
            acc = slice[0].norm_sqr();
        }
        let mut out = Vec::new();
        for &u in &us {
            while u >= acc && idx + 1 < total && idx + 1 < base + slice.len() {
                idx += 1;
                acc += slice[idx - base].norm_sqr();
            }
            if u < acc || idx + 1 >= total {
                out.push(num_u64(idx as u64));
            } else {
                break;
            }
        }
        Ok(Some(obj(vec![
            ("out", Value::Arr(out)),
            ("idx", num_u64(idx as u64)),
            ("acc", num(acc)),
        ])))
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

    /// One distributed swap: exchange this node's half-slice with its
    /// partner's, mirroring the in-process `exchange_halves` exactly — the
    /// lower node's `lq`-bit=1 half swaps with the higher node's bit=0
    /// half, walked in the same index order on both ends.
    fn dswap(&mut self, msg: &Value, gb: u16, lq: u16) -> io::Result<()> {
        let partner = self.rank ^ (1usize << gb);
        let sl = 1usize << lq;
        let (sid, slice) = self.slice_mut(msg)?;
        let mut slice = std::mem::take(slice);
        // Lower node trades the bit-set half; higher node the bit-clear.
        let send_set = self.rank < partner;
        let offset = if send_set { sl } else { 0 };
        let mut half = Vec::with_capacity(slice.len() / 2);
        let mut base = 0;
        while base < slice.len() {
            half.extend_from_slice(&slice[base + offset..base + offset + sl]);
            base += sl * 2;
        }
        let outcome = (|| {
            let conn = self.mesh_with(partner)?;
            let incoming = if send_set {
                proto::write_amps(&mut conn.writer, &half)?;
                proto::read_amps(&mut conn.reader)?
            } else {
                let incoming = proto::read_amps(&mut conn.reader)?;
                proto::write_amps(&mut conn.writer, &half)?;
                incoming
            };
            if incoming.len() != half.len() {
                return Err(wire_err("dswap", "half-slice length mismatch".into()));
            }
            let mut base = 0;
            let mut taken = 0;
            while base < slice.len() {
                slice[base + offset..base + offset + sl]
                    .copy_from_slice(&incoming[taken..taken + sl]);
                base += sl * 2;
                taken += sl;
            }
            Ok(())
        })();
        self.slices.insert(sid, slice);
        outcome
    }

    /// One global antidiagonal combine: swap full slices with the partner
    /// and apply `lo' = a01·hi`, `hi' = a10·lo`.
    fn antidiag_global(&mut self, msg: &Value, step: usize, a01: C64, a10: C64) -> io::Result<()> {
        let partner = self.rank ^ step;
        let is_lo = self.rank < partner;
        let (sid, slice) = self.slice_mut(msg)?;
        let mut slice = std::mem::take(slice);
        let outcome = (|| {
            let conn = self.mesh_with(partner)?;
            let incoming = if is_lo {
                proto::write_amps(&mut conn.writer, &slice)?;
                proto::read_amps(&mut conn.reader)?
            } else {
                let incoming = proto::read_amps(&mut conn.reader)?;
                proto::write_amps(&mut conn.writer, &slice)?;
                incoming
            };
            if incoming.len() != slice.len() {
                return Err(wire_err("antidiag_g", "slice length mismatch".into()));
            }
            let d = if is_lo { a01 } else { a10 };
            for (mine, theirs) in slice.iter_mut().zip(incoming.iter()) {
                *mine = d * *theirs;
            }
            Ok(())
        })();
        self.slices.insert(sid, slice);
        outcome
    }
}
