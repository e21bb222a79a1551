//! Wire protocol shared by the shard coordinator and its worker processes.
//!
//! The coordinator drives each worker as one stream of messages on a TCP
//! control socket. A message is one line-delimited JSON object with a
//! `"v"` verb field, built on the shared [`tqsim_json`] codec (the idiom
//! of `tqsim-service`'s wire module), and — for a verb with complex
//! operands — one amplitude frame right after the line:
//!
//! * **Lines** of sweep and exchange verbs hold integers only: the verb,
//!   the slice id, qubits, the exchange's global bit, a diagonal run's
//!   qubit lists (and `scale`'s one real factor, which the JSON writer
//!   prints as the shortest decimal that parses back to the same bits).
//!   The one exchange verb, `dswap`, is the half swap and carries no
//!   frame; a Kraus branch travels as the `diagrun` or `mat2` it is.
//! * **Amplitude frames** are length-prefixed little-endian binary: an
//!   8-byte LE byte count, then `f64` re/im pairs. They carry a verb's
//!   complex operands (a dense matrix row-major, a diagonal run's entries),
//!   the halves workers trade peer-to-peer on the mesh, and bulk slice
//!   fetches. The reader always knows how long a frame must be — from the
//!   verb and its line, or from the slice — and refuses any other length
//!   before it allocates. Bit patterns cross unchanged, which keeps the
//!   multi-process backend bit-identical to the in-process one.
//!
//! Sweeps and exchange rounds get no reply, so the coordinator queues them
//! and puts bytes on a socket only before it waits for a reply and right
//! after it issues an exchange round. Allocation, `ping` and `bye` reply
//! `{"ok":true}`; queries and `fetch` reply a result. No writer here
//! flushes: the caller decides when bytes leave.

use std::io::{self, BufRead, Read, Write};
use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_cluster::SliceOp;
use tqsim_json::{num, num_u64, obj, str_val, Value};
use tqsim_statevec::DiagRun;

// ------------------------------------------------------------ line plane

/// One control line: `value` as JSON text and its newline.
pub fn line(value: &Value) -> Vec<u8> {
    let mut text = value.to_json();
    text.push('\n');
    text.into_bytes()
}

/// Read one control line. EOF before a full line is an
/// [`io::ErrorKind::UnexpectedEof`] — a peer vanished mid-protocol.
///
/// # Errors
///
/// Transport errors, EOF, or a malformed JSON line
/// ([`io::ErrorKind::InvalidData`]).
pub fn read_line<R: BufRead>(r: &mut R) -> io::Result<Value> {
    read_line_within(r, u64::MAX)
}

/// [`read_line`] for a line of at most `max_bytes` bytes, newline
/// included: for hellos from connections anyone on the host can open.
///
/// # Errors
///
/// As [`read_line`], and a longer line ([`io::ErrorKind::InvalidData`]),
/// refused once `max_bytes` bytes are read.
pub fn read_line_within<R: BufRead>(r: &mut R, max_bytes: u64) -> io::Result<Value> {
    let mut line = String::new();
    let n = r.take(max_bytes).read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard peer closed the connection",
        ));
    }
    if n as u64 == max_bytes && !line.ends_with('\n') {
        return Err(wire_err(
            "shard control line",
            format!("longer than {max_bytes} bytes"),
        ));
    }
    tqsim_json::parse(line.trim_end())
        .map_err(|e| wire_err("malformed shard control line", e.to_string()))
}

/// The longest hello line a listener reads, newline included: hellos
/// arrive on listening sockets any process on the host can connect to.
pub const HELLO_MAX_BYTES: u64 = 256;

/// The canonical `{"ok":true}` acknowledgement.
pub fn ack() -> Value {
    obj(vec![("ok", Value::Bool(true))])
}

/// An [`io::ErrorKind::InvalidData`] error: the peer broke the protocol.
pub(crate) fn wire_err(context: &str, message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {message}"))
}

/// Field `key` of `line`, decoded by `get`.
///
/// # Errors
///
/// A missing or malformed field ([`io::ErrorKind::InvalidData`]).
pub(crate) fn need<T>(
    line: &Value,
    key: &str,
    get: impl FnOnce(&Value) -> Option<T>,
) -> io::Result<T> {
    line.get(key)
        .and_then(get)
        .ok_or_else(|| wire_err("shard verb", format!("missing or malformed {key:?}")))
}

/// Integer field `key` of `line` (see [`need`]).
///
/// # Errors
///
/// As [`need`].
pub(crate) fn need_u64(line: &Value, key: &str) -> io::Result<u64> {
    need(line, key, Value::as_u64)
}

/// Real field `key` of `line` (see [`need`]).
///
/// # Errors
///
/// As [`need`].
pub(crate) fn need_f64(line: &Value, key: &str) -> io::Result<f64> {
    need(line, key, Value::as_f64)
}

fn as_qubit(v: &Value) -> Option<u16> {
    u16::try_from(v.as_u64()?).ok()
}

pub(crate) fn need_qubit(line: &Value, key: &str) -> io::Result<u16> {
    need(line, key, as_qubit)
}

// ---------------------------------------------------------- binary plane

/// Amplitudes per stack chunk: frames are encoded and decoded through a
/// 64 KiB buffer on the stack, so the data plane allocates no byte
/// buffers, and a chunk outsizes the socket's `BufWriter`/`BufReader` (8
/// KiB), so it moves in one system call rather than buffer-sized pieces.
const CHUNK_AMPS: usize = 4096;

/// Frames of at most this many amplitudes (every operand frame) go
/// through a 256-byte buffer instead, which costs nothing to zero.
const OPERAND_AMPS: usize = 16;

/// Write `amps` as one length-prefixed binary frame (8-byte LE byte
/// count, then `f64` LE re/im pairs).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_amps<W: Write>(w: &mut W, amps: &[C64]) -> io::Result<()> {
    w.write_all(&((amps.len() * 16) as u64).to_le_bytes())?;
    if amps.len() <= OPERAND_AMPS {
        write_cells::<W, OPERAND_AMPS>(w, amps)
    } else {
        write_cells::<W, CHUNK_AMPS>(w, amps)
    }
}

fn write_cells<W: Write, const N: usize>(w: &mut W, amps: &[C64]) -> io::Result<()> {
    let mut buf = [[0u8; 16]; N];
    for chunk in amps.chunks(N) {
        for (a, cell) in chunk.iter().zip(&mut buf) {
            cell[..8].copy_from_slice(&a.re.to_le_bytes());
            cell[8..].copy_from_slice(&a.im.to_le_bytes());
        }
        w.write_all(buf[..chunk.len()].as_flattened())?;
    }
    Ok(())
}

/// Read one binary amplitude frame written by [`write_amps`], which must
/// hold exactly `expected` amplitudes, appending them to `out`. The length
/// prefix is checked before anything is allocated, so a hostile prefix
/// cannot size a buffer.
///
/// # Errors
///
/// Transport errors, or a frame of any other length
/// ([`io::ErrorKind::InvalidData`]).
pub fn read_amps<R: Read>(r: &mut R, expected: usize, out: &mut Vec<C64>) -> io::Result<()> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let bytes = u64::from_le_bytes(len);
    if Some(bytes) != (expected as u64).checked_mul(16) {
        return Err(wire_err(
            "amplitude frame",
            format!("{bytes} bytes, expected {expected} amplitudes"),
        ));
    }
    out.reserve(expected);
    if expected <= OPERAND_AMPS {
        read_cells::<R, OPERAND_AMPS>(r, expected, out)
    } else {
        read_cells::<R, CHUNK_AMPS>(r, expected, out)
    }
}

fn read_cells<R: Read, const N: usize>(r: &mut R, n: usize, out: &mut Vec<C64>) -> io::Result<()> {
    let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte half"));
    let mut buf = [[0u8; 16]; N];
    for len in (0..n).step_by(N).map(|i| N.min(n - i)) {
        r.read_exact(buf[..len].as_flattened_mut())?;
        out.extend(
            buf[..len]
                .iter()
                .map(|cell| c64(f64_at(&cell[..8]), f64_at(&cell[8..]))),
        );
    }
    Ok(())
}

// ------------------------------------------------------ sweeps and rounds

/// A verb's line for slice `sid`, then `frame` when the verb carries one.
fn message(name: &str, sid: u64, fields: Vec<(&str, Value)>, frame: Option<&[C64]>) -> Vec<u8> {
    let mut all = vec![("v", str_val(name)), ("sid", num_u64(sid))];
    all.extend(fields);
    let mut msg = line(&obj(all));
    if let Some(amps) = frame {
        write_amps(&mut msg, amps).expect("writing into a Vec cannot fail");
    }
    msg
}

/// Encode `op` on slice `sid` as its sweep verb: the line, then the
/// operand frame if `op` has complex operands.
pub fn encode_sweep(sid: u64, op: &SliceOp<'_>) -> Vec<u8> {
    let q = |q: u16| num_u64(u64::from(q));
    let (name, fields, frame): (_, _, Option<Vec<C64>>) = match *op {
        SliceOp::Reset => ("reset", vec![], None),
        SliceOp::Ccx(c1, c2, t) => ("ccx", vec![("c1", q(c1)), ("c2", q(c2)), ("t", q(t))], None),
        SliceOp::Mat2(t, m) => ("mat2", vec![("q", q(t))], Some(m.0.concat())),
        SliceOp::Mat4(hi, lo, m) => (
            "mat4",
            vec![("hi", q(hi)), ("lo", q(lo))],
            Some(m.0.concat()),
        ),
        SliceOp::DiagRun(run) => {
            let t1 = run.terms1().iter().map(|&(a, _)| q(a));
            let t2 = run
                .terms2()
                .iter()
                .map(|&(a, b, _)| Value::Arr(vec![q(a), q(b)]));
            let d1 = run.terms1().iter().flat_map(|(_, d)| d);
            let d2 = run.terms2().iter().flat_map(|(.., d)| d);
            (
                "diagrun",
                vec![
                    ("t1", Value::Arr(t1.collect())),
                    ("t2", Value::Arr(t2.collect())),
                ],
                Some(d1.chain(d2).copied().collect()),
            )
        }
        SliceOp::Scale(s) => ("scale", vec![("s", num(s))], None),
    };
    message(name, sid, fields, frame.as_deref())
}

/// Encode one exchange round on slice `sid`: the half swap of global bit
/// `gb` with local qubit `lq`.
pub fn encode_exchange(sid: u64, gb: u16, lq: u16) -> Vec<u8> {
    let fields = vec![("gb", num_u64(gb.into())), ("lq", num_u64(lq.into()))];
    message("dswap", sid, fields, None)
}

/// A decoded sweep verb, owning what its [`SliceOp`] borrows.
#[derive(Debug)]
pub enum OwnedSliceOp {
    /// [`SliceOp::Mat2`].
    Mat2(u16, Mat2),
    /// [`SliceOp::Mat4`].
    Mat4(u16, u16, Mat4),
    /// [`SliceOp::DiagRun`].
    DiagRun(DiagRun),
    /// Every op that borrows nothing.
    Plain(SliceOp<'static>),
}

impl OwnedSliceOp {
    /// The op, borrowing its operands from `self`.
    pub fn op(&self) -> SliceOp<'_> {
        match self {
            OwnedSliceOp::Mat2(q, m) => SliceOp::Mat2(*q, m),
            OwnedSliceOp::Mat4(hi, lo, m) => SliceOp::Mat4(*hi, *lo, m),
            OwnedSliceOp::DiagRun(run) => SliceOp::DiagRun(run),
            OwnedSliceOp::Plain(op) => *op,
        }
    }
}

/// Read exactly `n` operands into `frame` (cleared first).
fn operands<'a, R: Read>(r: &mut R, n: usize, frame: &'a mut Vec<C64>) -> io::Result<&'a [C64]> {
    frame.clear();
    read_amps(r, n, frame)?;
    Ok(frame)
}

/// Decode sweep verb `verb` whose line is `line`, reading its operand
/// frame from `r` through the reusable `frame`; `None` if `verb` is not a
/// sweep verb. The frame must hold exactly the operands the verb and its
/// line call for.
///
/// # Errors
///
/// A malformed line, a frame of another length
/// ([`io::ErrorKind::InvalidData`]) or a transport error, EOF included.
pub fn read_sweep<R: Read>(
    verb: &str,
    line: &Value,
    r: &mut R,
    frame: &mut Vec<C64>,
) -> io::Result<Option<OwnedSliceOp>> {
    let op = match verb {
        "reset" => OwnedSliceOp::Plain(SliceOp::Reset),
        "ccx" => {
            let (c1, c2, t) = (
                need_qubit(line, "c1")?,
                need_qubit(line, "c2")?,
                need_qubit(line, "t")?,
            );
            OwnedSliceOp::Plain(SliceOp::Ccx(c1, c2, t))
        }
        "scale" => OwnedSliceOp::Plain(SliceOp::Scale(need_f64(line, "s")?)),
        "mat2" => {
            let t = need_qubit(line, "q")?;
            let m = operands(r, 4, frame)?;
            OwnedSliceOp::Mat2(t, Mat2([[m[0], m[1]], [m[2], m[3]]]))
        }
        "mat4" => {
            let (hi, lo) = (need_qubit(line, "hi")?, need_qubit(line, "lo")?);
            let m = operands(r, 16, frame)?;
            let rows = std::array::from_fn(|row| std::array::from_fn(|col| m[row * 4 + col]));
            OwnedSliceOp::Mat4(hi, lo, Mat4(rows))
        }
        "diagrun" => {
            let t1: Vec<u16> = need(line, "t1", |v| v.as_arr()?.iter().map(as_qubit).collect())?;
            let t2: Vec<(u16, u16)> = need(line, "t2", |v| {
                v.as_arr()?
                    .iter()
                    .map(|pair| match pair.as_arr()? {
                        [a, b] => Some((as_qubit(a)?, as_qubit(b)?)),
                        _ => None,
                    })
                    .collect()
            })?;
            let d = operands(r, 2 * t1.len() + 4 * t2.len(), frame)?;
            let (d1, d2) = d.split_at(2 * t1.len());
            let mut run = DiagRun::new();
            for (&q, d) in t1.iter().zip(d1.chunks_exact(2)) {
                run.push1(q, [d[0], d[1]]);
            }
            for (&(a, b), d) in t2.iter().zip(d2.chunks_exact(4)) {
                run.push2(a, b, [d[0], d[1], d[2], d[3]]);
            }
            OwnedSliceOp::DiagRun(run)
        }
        _ => return Ok(None),
    };
    Ok(Some(op))
}

/// Decode the exchange verb `dswap` whose line is `line`: the partner
/// step (`2^gb`, or `0` for a step no `u64` holds) and the half swap's
/// local qubit. `None` for any other verb. The verb carries no frame.
///
/// # Errors
///
/// A malformed line ([`io::ErrorKind::InvalidData`]).
pub fn read_exchange(verb: &str, line: &Value) -> io::Result<Option<(u64, u16)>> {
    if verb != "dswap" {
        return Ok(None);
    }
    let gb = u32::try_from(need_u64(line, "gb")?).unwrap_or(u32::MAX);
    let step = 1u64.checked_shl(gb).unwrap_or(0);
    Ok(Some((step, need_qubit(line, "lq")?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::GateKind;

    /// −0.0, a subnormal, a quiet NaN with a payload and a signalling one.
    fn awkward() -> [C64; 4] {
        [
            c64(-0.0, 5e-324),
            c64(f64::from_bits(0x7ff8_0000_dead_beef), 1.0 / 3.0),
            c64(f64::from_bits(0x7ff0_0000_0000_0001), -0.0),
            c64(f64::MIN_POSITIVE / 3.0, f64::NEG_INFINITY),
        ]
    }

    fn bits(xs: impl IntoIterator<Item = C64>) -> Vec<u64> {
        xs.into_iter()
            .flat_map(|x| [x.re.to_bits(), x.im.to_bits()])
            .collect()
    }

    /// An op's variant, integers and operand bit patterns.
    fn fingerprint(op: &SliceOp<'_>) -> (&'static str, Vec<u64>, Vec<u64>) {
        let (variant, ints, amps): (_, Vec<u64>, Vec<C64>) = match *op {
            SliceOp::Reset => ("reset", vec![], vec![]),
            SliceOp::Ccx(c1, c2, t) => ("ccx", vec![c1.into(), c2.into(), t.into()], vec![]),
            SliceOp::Mat2(t, m) => ("mat2", vec![t.into()], m.0.concat()),
            SliceOp::Mat4(hi, lo, m) => ("mat4", vec![hi.into(), lo.into()], m.0.concat()),
            SliceOp::DiagRun(run) => {
                let t1 = run.terms1().iter().map(|&(q, _)| q.into());
                let t2 = run
                    .terms2()
                    .iter()
                    .flat_map(|&(a, b, _)| [a.into(), b.into()]);
                let d1 = run.terms1().iter().flat_map(|(_, d)| *d);
                let d2 = run.terms2().iter().flat_map(|(.., d)| *d);
                let counts = [run.terms1().len() as u64, run.terms2().len() as u64];
                (
                    "diagrun",
                    counts.into_iter().chain(t1).chain(t2).collect(),
                    d1.chain(d2).collect(),
                )
            }
            SliceOp::Scale(s) => ("scale", vec![s.to_bits()], vec![]),
        };
        (variant, ints, bits(amps))
    }

    /// Split `msg` into its line and what follows, as a worker reads it.
    fn decode_sweep(msg: &[u8]) -> OwnedSliceOp {
        let mut r = msg;
        let line = read_line(&mut r).unwrap();
        let verb = line.get("v").and_then(Value::as_str).unwrap().to_string();
        let op = read_sweep(&verb, &line, &mut r, &mut Vec::new())
            .unwrap()
            .unwrap();
        assert!(r.is_empty(), "{verb}: the frame is read to its end");
        op
    }

    #[test]
    fn every_slice_op_round_trips_bit_for_bit() {
        let [a, b, c, d] = awkward();
        let m2 = Mat2([[a, b], [c, d]]);
        let fsim = GateKind::FSim(0.777, -1.3).matrix2().unwrap().0;
        let m4 = Mat4([[a, b, c, d], fsim[0], [d, c, b, a], fsim[3]]);
        let mut run = DiagRun::new();
        run.push1(3, [a, b]);
        run.push1(0, [c, d]);
        run.push2(5, 1, [d, c, b, a]);
        run.push2(2, 4, GateKind::Cz.diag2().unwrap());
        let ops = [
            SliceOp::Reset,
            SliceOp::Ccx(2, 0, 1),
            SliceOp::Mat2(7, &m2),
            SliceOp::Mat4(1, 6, &m4),
            SliceOp::DiagRun(&run),
            SliceOp::DiagRun(&DiagRun::new()),
            SliceOp::Scale(f64::MIN_POSITIVE / 7.0),
            SliceOp::Scale(-0.0),
        ];
        for op in &ops {
            let back = decode_sweep(&encode_sweep(9, op));
            assert_eq!(fingerprint(&back.op()), fingerprint(op), "{op:?}");
        }
    }

    #[test]
    fn every_pair_op_round_trips_bit_for_bit() {
        for (gb, lq) in [(1, 11), (2, 0)] {
            let msg = encode_exchange(4, gb, lq);
            let mut r = &msg[..];
            let line = read_line(&mut r).unwrap();
            let verb = line.get("v").and_then(Value::as_str).unwrap().to_string();
            let (step, back) = read_exchange(&verb, &line).unwrap().unwrap();
            assert!(r.is_empty(), "a round carries no frame");
            assert_eq!((step, back), (1 << gb, lq));
        }
    }

    /// Sweep and exchange lines carry integers; the operands ride the frame.
    #[test]
    fn operands_ride_the_frame_not_the_line() {
        let m4 = GateKind::FSim(0.777, -1.3).matrix2().unwrap();
        let msg = encode_sweep(3, &SliceOp::Mat4(2, 0, &m4));
        let end = msg.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(
            &msg[..end],
            b"{\"v\":\"mat4\",\"sid\":3,\"hi\":2,\"lo\":0}\n"
        );
        assert_eq!(
            msg.len() - end,
            8 + 16 * 16,
            "length prefix and 16 amplitudes"
        );
    }

    #[test]
    fn binary_frames_round_trip() {
        let amps = vec![c64(1.0, -2.0), c64(0.3333333333333333, f64::MIN_POSITIVE)];
        let mut buf = Vec::new();
        write_amps(&mut buf, &amps).unwrap();
        assert_eq!(buf.len(), 8 + 32);
        let mut back = Vec::new();
        read_amps(&mut &buf[..], 2, &mut back).unwrap();
        assert_eq!(back, amps);
        // A frame of another length is refused, not truncated or padded.
        assert!(read_amps(&mut &buf[..], 3, &mut back).is_err());
        // Frames longer than one stack chunk round-trip too.
        let long: Vec<C64> = (0..5000).map(|i| c64(i as f64, -(i as f64))).collect();
        buf.clear();
        write_amps(&mut buf, &long).unwrap();
        back.clear();
        read_amps(&mut &buf[..], long.len(), &mut back).unwrap();
        assert_eq!(back, long);
    }

    /// A hostile length prefix is refused before anything is allocated:
    /// 2^62 bytes would abort the process if it sized the buffer.
    #[test]
    fn huge_length_prefix_is_refused_before_allocating() {
        let mut frame = (1u64 << 62).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 32]);
        let err = read_amps(&mut &frame[..], 2, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn control_lines_round_trip() {
        let v = obj(vec![("v", str_val("dswap")), ("gb", num_u64(1))]);
        let buf = line(&v);
        let back = read_line(&mut &buf[..]).unwrap();
        assert_eq!(back.get("v").and_then(Value::as_str), Some("dswap"));
        assert_eq!(back.get("gb").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn capped_lines_refuse_what_runs_past_the_cap() {
        let hello = line(&obj(vec![("rank", num_u64(3))]));
        let back = read_line_within(&mut &hello[..], hello.len() as u64).unwrap();
        assert_eq!(back.get("rank").and_then(Value::as_u64), Some(3));
        let err = read_line_within(&mut &hello[..], hello.len() as u64 - 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
