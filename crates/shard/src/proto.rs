//! Wire protocol shared by the shard coordinator and its worker processes.
//!
//! Two planes, two encodings:
//!
//! * **Control plane** — one line-delimited JSON object per verb, built on
//!   the shared [`tqsim_json`] codec (the exact idiom of `tqsim-service`'s
//!   wire module). Every message is an object with a `"v"` verb field;
//!   *silent* verbs (local kernel applications) get no reply so the
//!   coordinator can pipeline them, *acked* verbs (anything involving the
//!   worker mesh, allocation, shutdown) reply `{"ok":true}`, and *queries*
//!   reply a result object.
//! * **Data plane** — length-prefixed little-endian binary frames of
//!   complex amplitudes: an 8-byte LE byte count followed by `f64` re/im
//!   pairs. Used on the worker↔worker mesh for distributed-swap halves and
//!   on the control socket for bulk slice fetches.
//!
//! Floating-point values on the JSON plane round-trip exactly: the writer
//! emits the shortest decimal that parses back to the same bits, which is
//! what lets the multi-process backend stay bit-identical to the
//! in-process one.

use std::io::{self, BufRead, Read, Write};
use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_json::{num, num_u64, obj, Value};
use tqsim_statevec::DiagRun;

// ------------------------------------------------------------ line plane

/// Write one control message: `value` as a single JSON line, flushed.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_line<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    let mut text = value.to_json();
    text.push('\n');
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one control message (a JSON line). EOF before a full line is an
/// [`io::ErrorKind::UnexpectedEof`] — a peer vanished mid-protocol.
///
/// # Errors
///
/// Transport errors, EOF, or a malformed JSON line
/// ([`io::ErrorKind::InvalidData`]).
pub fn recv_line<R: BufRead>(r: &mut R) -> io::Result<Value> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard peer closed the connection",
        ));
    }
    tqsim_json::parse(line.trim_end()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed shard control line: {e}"),
        )
    })
}

/// The canonical `{"ok":true}` acknowledgement.
pub fn ack() -> Value {
    obj(vec![("ok", Value::Bool(true))])
}

// ---------------------------------------------------------- binary plane

/// Amplitudes per stack chunk: frames are encoded and decoded through a
/// 64 KiB buffer on the stack, so the data plane allocates no byte
/// buffers, and a chunk outsizes the socket's `BufWriter`/`BufReader` (8
/// KiB), so it moves in one system call rather than buffer-sized pieces.
const CHUNK_AMPS: usize = 4096;

/// Write `amps` as one length-prefixed binary frame (8-byte LE byte
/// count, then `f64` LE re/im pairs).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_amps<W: Write>(w: &mut W, amps: &[C64]) -> io::Result<()> {
    w.write_all(&((amps.len() * 16) as u64).to_le_bytes())?;
    let mut buf = [0u8; CHUNK_AMPS * 16];
    for chunk in amps.chunks(CHUNK_AMPS) {
        for (a, cell) in chunk.iter().zip(buf.chunks_exact_mut(16)) {
            cell[..8].copy_from_slice(&a.re.to_le_bytes());
            cell[8..].copy_from_slice(&a.im.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 16])?;
    }
    w.flush()
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
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("amplitude frame of {bytes} bytes, expected {expected} amplitudes"),
        ));
    }
    out.reserve(expected);
    let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte half"));
    let mut buf = [0u8; CHUNK_AMPS * 16];
    for n in (0..expected)
        .step_by(CHUNK_AMPS)
        .map(|i| CHUNK_AMPS.min(expected - i))
    {
        r.read_exact(&mut buf[..n * 16])?;
        let cells = buf[..n * 16].chunks_exact(16);
        out.extend(cells.map(|cell| c64(f64_at(&cell[..8]), f64_at(&cell[8..]))));
    }
    Ok(())
}

// ---------------------------------------------------------- matrix codec

/// Encode complex values as a flat `[re, im, re, im, …]` array.
pub fn c64s_to_value<'a>(xs: impl IntoIterator<Item = &'a C64>) -> Value {
    Value::Arr(
        xs.into_iter()
            .flat_map(|x| [num(x.re), num(x.im)])
            .collect(),
    )
}

/// Decode a flat `[re, im, …]` array of expected complex length `n`.
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn c64s_from_value(value: &Value, n: usize) -> Result<Vec<C64>, String> {
    let cells = value.as_arr().ok_or("complex list is not an array")?;
    if cells.len() != 2 * n {
        return Err(format!(
            "expected {n} complex values, got {} cells",
            cells.len()
        ));
    }
    cells
        .chunks_exact(2)
        .map(|p| match (p[0].as_f64(), p[1].as_f64()) {
            (Some(re), Some(im)) => Ok(c64(re, im)),
            _ => Err("non-numeric complex component".to_string()),
        })
        .collect()
}

/// Encode a dense 2×2 matrix (row-major flat complex list).
pub fn mat2_to_value(m: &Mat2) -> Value {
    c64s_to_value(m.0.iter().flatten())
}

/// Decode a dense 2×2 matrix.
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn mat2_from_value(value: &Value) -> Result<Mat2, String> {
    let v = c64s_from_value(value, 4)?;
    Ok(Mat2([[v[0], v[1]], [v[2], v[3]]]))
}

/// Encode a dense 4×4 matrix (row-major flat complex list).
pub fn mat4_to_value(m: &Mat4) -> Value {
    c64s_to_value(m.0.iter().flatten())
}

/// Decode a dense 4×4 matrix.
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn mat4_from_value(value: &Value) -> Result<Mat4, String> {
    let v = c64s_from_value(value, 16)?;
    Ok(Mat4(std::array::from_fn(|r| {
        std::array::from_fn(|c| v[r * 4 + c])
    })))
}

/// The fields of a coalesced diagonal run:
/// `"t1":[[q, re0, im0, re1, im1], …]` and `"t2":[[qh, ql, re0 … im3], …]`.
pub fn diag_run_fields(run: &DiagRun) -> Vec<(&'static str, Value)> {
    let term = |qs: &[u16], d: &[C64]| {
        let qs = qs.iter().map(|&q| num_u64(u64::from(q)));
        Value::Arr(
            qs.chain(d.iter().flat_map(|x| [num(x.re), num(x.im)]))
                .collect(),
        )
    };
    let t1 = run.terms1().iter().map(|(q, d)| term(&[*q], d));
    let t2 = run.terms2().iter().map(|(qh, ql, d)| term(&[*qh, *ql], d));
    vec![
        ("t1", Value::Arr(t1.collect())),
        ("t2", Value::Arr(t2.collect())),
    ]
}

/// Decode a diagonal run (see [`diag_run_fields`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn diag_run_from_value(value: &Value) -> Result<DiagRun, String> {
    let mut run = DiagRun::new();
    // A term on `n_q` qubits: the qubits, then `2^n_q` complex entries.
    for (key, n_q) in [("t1", 1), ("t2", 2)] {
        let terms = value.get(key).and_then(Value::as_arr);
        for term in terms.ok_or_else(|| format!("diag run needs {key:?}"))? {
            let decode = || {
                let cells = term.as_arr().filter(|c| c.len() == 5 * n_q)?;
                let qs: Option<Vec<u16>> = cells[..n_q]
                    .iter()
                    .map(|q| u16::try_from(q.as_u64()?).ok())
                    .collect();
                let d = c64s_from_value(&Value::Arr(cells[n_q..].to_vec()), 2 * n_q).ok()?;
                Some((qs?, d))
            };
            let (q, d) = decode().ok_or_else(|| format!("bad {key} term"))?;
            match *q.as_slice() {
                [q] => run.push1(q, [d[0], d[1]]),
                [qh, ql] => run.push2(qh, ql, [d[0], d[1], d[2], d[3]]),
                _ => unreachable!("one or two qubits per term"),
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::GateKind;
    use tqsim_json::str_val;

    #[test]
    fn dense_unitaries_round_trip_bit_exactly() {
        let m2 = GateKind::Sw.matrix1().unwrap();
        let v = mat2_to_value(&m2);
        let text = v.to_json();
        let back = mat2_from_value(&tqsim_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.0, m2.0, "shortest-round-trip floats must be exact");
        let m4 = GateKind::FSim(0.777, -1.3).matrix2().unwrap();
        let back4 = mat4_from_value(&tqsim_json::parse(&mat4_to_value(&m4).to_json()).unwrap());
        assert_eq!(back4.unwrap().0, m4.0);
    }

    #[test]
    fn diag_runs_round_trip() {
        let mut run = DiagRun::new();
        run.push1(3, GateKind::T.diag1().unwrap());
        run.push2(5, 1, GateKind::Cz.diag2().unwrap());
        let back =
            diag_run_from_value(&tqsim_json::parse(&obj(diag_run_fields(&run)).to_json()).unwrap())
                .unwrap();
        assert_eq!(back.terms1(), run.terms1());
        assert_eq!(back.terms2(), run.terms2());
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
        let long: Vec<C64> = (0..1000).map(|i| c64(i as f64, -(i as f64))).collect();
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
        let mut buf = Vec::new();
        send_line(&mut buf, &v).unwrap();
        let back = recv_line(&mut &buf[..]).unwrap();
        assert_eq!(back.get("v").and_then(Value::as_str), Some("dswap"));
        assert_eq!(back.get("gb").and_then(Value::as_u64), Some(1));
    }
}
