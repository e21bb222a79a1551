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
use tqsim_circuit::{Gate, GateKind};
use tqsim_json::{num, num_u64, obj, str_val, Value};
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

/// Write `amps` as one length-prefixed binary frame (8-byte LE byte
/// count, then `f64` LE re/im pairs).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_amps<W: Write>(w: &mut W, amps: &[C64]) -> io::Result<()> {
    let bytes = (amps.len() * 16) as u64;
    w.write_all(&bytes.to_le_bytes())?;
    let mut buf = Vec::with_capacity(amps.len() * 16);
    for a in amps {
        buf.extend_from_slice(&a.re.to_le_bytes());
        buf.extend_from_slice(&a.im.to_le_bytes());
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Read one binary amplitude frame written by [`write_amps`].
///
/// # Errors
///
/// Transport errors, or a frame whose byte count is not a multiple of 16.
pub fn read_amps<R: Read>(r: &mut R) -> io::Result<Vec<C64>> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let bytes = u64::from_le_bytes(len) as usize;
    if !bytes.is_multiple_of(16) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "amplitude frame length is not a multiple of 16",
        ));
    }
    let mut buf = vec![0u8; bytes];
    r.read_exact(&mut buf)?;
    let mut amps = Vec::with_capacity(bytes / 16);
    for chunk in buf.chunks_exact(16) {
        let re = f64::from_le_bytes(chunk[..8].try_into().expect("8-byte chunk"));
        let im = f64::from_le_bytes(chunk[8..].try_into().expect("8-byte chunk"));
        amps.push(c64(re, im));
    }
    Ok(amps)
}

// ------------------------------------------------------------ gate codec

/// Per-mnemonic decode table: `(params, arity)` — the same shapes as the
/// service wire protocol, so one mnemonic set covers both protocols.
fn gate_shape(name: &str) -> Option<(usize, usize)> {
    Some(match name {
        "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "sx" | "sy" | "sw" => (0, 1),
        "rx" | "ry" | "rz" | "p" => (1, 1),
        "u3" => (3, 1),
        "u1q" => (8, 1),
        "cx" | "cz" | "swap" => (0, 2),
        "cp" | "rzz" => (1, 2),
        "fsim" => (2, 2),
        "u2q" => (32, 2),
        "ccx" => (0, 3),
        _ => return None,
    })
}

fn gate_kind(name: &str, params: &[f64]) -> Option<GateKind> {
    Some(match name {
        "id" => GateKind::Id,
        "x" => GateKind::X,
        "y" => GateKind::Y,
        "z" => GateKind::Z,
        "h" => GateKind::H,
        "s" => GateKind::S,
        "sdg" => GateKind::Sdg,
        "t" => GateKind::T,
        "tdg" => GateKind::Tdg,
        "sx" => GateKind::Sx,
        "sy" => GateKind::Sy,
        "sw" => GateKind::Sw,
        "rx" => GateKind::Rx(params[0]),
        "ry" => GateKind::Ry(params[0]),
        "rz" => GateKind::Rz(params[0]),
        "p" => GateKind::Phase(params[0]),
        "u3" => GateKind::U3(params[0], params[1], params[2]),
        "u1q" => {
            let e = |i: usize| c64(params[2 * i], params[2 * i + 1]);
            GateKind::Unitary1(Mat2([[e(0), e(1)], [e(2), e(3)]]))
        }
        "cx" => GateKind::Cx,
        "cz" => GateKind::Cz,
        "swap" => GateKind::Swap,
        "cp" => GateKind::CPhase(params[0]),
        "rzz" => GateKind::Rzz(params[0]),
        "fsim" => GateKind::FSim(params[0], params[1]),
        "u2q" => {
            let e = |i: usize| c64(params[2 * i], params[2 * i + 1]);
            let mut m = [[c64(0.0, 0.0); 4]; 4];
            for (r, row) in m.iter_mut().enumerate() {
                for (c_idx, cell) in row.iter_mut().enumerate() {
                    *cell = e(r * 4 + c_idx);
                }
            }
            GateKind::Unitary2(Mat4(m))
        }
        "ccx" => GateKind::Ccx,
        _ => return None,
    })
}

/// Encode a gate as `[name, params…, qubits…]`.
pub fn gate_to_value(gate: &Gate) -> Value {
    let mut cells = vec![str_val(gate.kind().name())];
    cells.extend(gate.kind().params().into_iter().map(num));
    cells.extend(gate.qubits().iter().map(|&q| num_u64(u64::from(q))));
    Value::Arr(cells)
}

/// Decode a gate (see [`gate_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn gate_from_value(value: &Value) -> Result<Gate, String> {
    let parts = value.as_arr().ok_or("gate is not an array")?;
    let name = parts
        .first()
        .and_then(Value::as_str)
        .ok_or("gate lacks a name")?;
    let (n_params, arity) = gate_shape(name).ok_or_else(|| format!("unknown mnemonic {name:?}"))?;
    if parts.len() != 1 + n_params + arity {
        return Err(format!(
            "gate {name}: expected {n_params} params + {arity} qubits, got {} cells",
            parts.len() - 1
        ));
    }
    let params: Vec<f64> = parts[1..1 + n_params]
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("gate {name}: bad param")))
        .collect::<Result<_, _>>()?;
    let qubits: Vec<u16> = parts[1 + n_params..]
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|q| u16::try_from(q).ok())
                .ok_or_else(|| format!("gate {name}: bad qubit"))
        })
        .collect::<Result<_, _>>()?;
    let kind = gate_kind(name, &params).expect("shape-checked mnemonic");
    Ok(Gate::new(kind, &qubits))
}

// ---------------------------------------------------------- matrix codec

/// Encode complex values as a flat `[re, im, re, im, …]` array.
pub fn c64s_to_value<'a>(xs: impl IntoIterator<Item = &'a C64>) -> Value {
    let mut cells = Vec::new();
    for x in xs {
        cells.push(num(x.re));
        cells.push(num(x.im));
    }
    Value::Arr(cells)
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
    let mut m = [[c64(0.0, 0.0); 4]; 4];
    for (r, row) in m.iter_mut().enumerate() {
        row.copy_from_slice(&v[r * 4..r * 4 + 4]);
    }
    Ok(Mat4(m))
}

/// Encode a coalesced diagonal run as
/// `{"t1":[[q, re0, im0, re1, im1], …], "t2":[[qh, ql, re0 … im3], …]}`.
pub fn diag_run_to_value(run: &DiagRun) -> Value {
    let t1 = run
        .terms1()
        .iter()
        .map(|(q, d)| {
            let mut cells = vec![num_u64(u64::from(*q))];
            for x in d {
                cells.push(num(x.re));
                cells.push(num(x.im));
            }
            Value::Arr(cells)
        })
        .collect();
    let t2 = run
        .terms2()
        .iter()
        .map(|(qh, ql, d)| {
            let mut cells = vec![num_u64(u64::from(*qh)), num_u64(u64::from(*ql))];
            for x in d {
                cells.push(num(x.re));
                cells.push(num(x.im));
            }
            Value::Arr(cells)
        })
        .collect();
    obj(vec![("t1", Value::Arr(t1)), ("t2", Value::Arr(t2))])
}

/// Decode a diagonal run (see [`diag_run_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn diag_run_from_value(value: &Value) -> Result<DiagRun, String> {
    let q_of = |v: &Value| {
        v.as_u64()
            .and_then(|q| u16::try_from(q).ok())
            .ok_or("bad diag-run qubit".to_string())
    };
    let mut run = DiagRun::new();
    for term in value
        .get("t1")
        .and_then(Value::as_arr)
        .ok_or("diag run needs \"t1\"")?
    {
        let cells = term.as_arr().ok_or("bad t1 term")?;
        if cells.len() != 5 {
            return Err("bad t1 term length".to_string());
        }
        let d = c64s_from_value(&Value::Arr(cells[1..].to_vec()), 2)?;
        run.push1(q_of(&cells[0])?, [d[0], d[1]]);
    }
    for term in value
        .get("t2")
        .and_then(Value::as_arr)
        .ok_or("diag run needs \"t2\"")?
    {
        let cells = term.as_arr().ok_or("bad t2 term")?;
        if cells.len() != 10 {
            return Err("bad t2 term length".to_string());
        }
        let d = c64s_from_value(&Value::Arr(cells[2..].to_vec()), 4)?;
        run.push2(q_of(&cells[0])?, q_of(&cells[1])?, [d[0], d[1], d[2], d[3]]);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_round_trip_covers_the_mnemonic_table() {
        let gates = [
            Gate::new(GateKind::H, &[3]),
            Gate::new(GateKind::Rz(0.1234567891234), &[0]),
            Gate::new(GateKind::U3(0.1, -2.5, 3.75), &[2]),
            Gate::new(GateKind::Cx, &[5, 1]),
            Gate::new(GateKind::FSim(0.5, -0.25), &[4, 0]),
            Gate::new(GateKind::Ccx, &[2, 1, 0]),
        ];
        for g in &gates {
            let v = gate_to_value(g);
            let back = gate_from_value(&v).unwrap();
            assert_eq!(back.kind(), g.kind());
            assert_eq!(back.qubits(), g.qubits());
        }
    }

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
            diag_run_from_value(&tqsim_json::parse(&diag_run_to_value(&run).to_json()).unwrap())
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
        let back = read_amps(&mut &buf[..]).unwrap();
        assert_eq!(back, amps);
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
