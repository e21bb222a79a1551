//! The line-delimited JSON wire protocol and the `std::net` TCP front-end.
//!
//! One request per line, one (or for `stream`, many) response line(s) per
//! request, every line a single JSON object. Hand-rolled on [`tqsim_json`]
//! — the offline workspace has no serde — and std-only: a plain
//! `TcpListener` with one thread per connection, no async runtime.
//!
//! ## Verbs
//!
//! | request | response |
//! |---|---|
//! | `{"op":"submit","client":"alice","shots":64,"seed":7,"noise":"sycamore","strategy":"dcp","circuit":{"n":2,"gates":[["h",0],["cx",0,1]]}}` (optional `"retry_max_attempts"`, `"retry_backoff_ms"`, `"deadline_ms"`) | `{"ok":true,"job":1}` or `{"ok":false,"error":"queue full (256 jobs queued)","code":"queue_full","retry_after_ms":100}` (backpressure is an explicit refusal — back off `retry_after_ms` and retry) |
//! | `{"op":"poll","job":1}` | `{"ok":true,"status":"running","streamed":128}`; failed jobs add `"error"` + `"code"` |
//! | `{"op":"stream","job":1}` | `{"chunk":[3,3,1,…]}` lines as leaf batches land, then `{"done":true,"status":"done","total":64}` (failed jobs add `"error"` + `"code"`) |
//! | `{"op":"result","job":1}` | `{"ok":true,"status":"done","total":64,"counts":[[0,31],[3,33]],…}` or `{"ok":false,"error":…,"code":"job_aborted"}` |
//! | `{"op":"cancel","job":1}` | `{"ok":true,"cancelled":true}` |
//! | `{"op":"forget","job":1}` | `{"ok":true,"forgotten":true}` (drops a finished job's record; live jobs are refused with `"forgotten":false`) |
//! | `{"op":"stats"}` | `{"ok":true,"submitted":…,"uptime_secs":…,"snapshot_seq":…,"cache":{"hits":…},…}` |
//! | `{"op":"metrics"}` | `{"ok":true,"uptime_secs":…,"counters":[{"name":…,"labels":{…},"value":…}],"gauges":[…],"histograms":[{"name":"tqsim_job_stage_ns","labels":{"stage":"execute"},"count":…,"p50_ns":…,"p90_ns":…,"p99_ns":…,…}]}` (add `"events":true` for the lifecycle timeline; `"format":"text"` returns `{"ok":true,"text":"<Prometheus exposition>"}`) |
//!
//! Error responses carry a stable machine-readable `"code"` alongside the
//! human-readable `"error"` — clients branch on the code, never on message
//! text. Malformed requests (an overlong line, unparsable JSON, bad submit
//! fields, an unknown `op` or metrics `format`, a missing `job` id) use
//! `bad_request`; a job id the service does not know uses `unknown_job`.
//! Admission refusals use `queue_full` / `client_queue_full` /
//! `shutting_down` (the first two add a `"retry_after_ms"` backoff hint);
//! terminal job failures use `job_failed` / `job_aborted` /
//! `job_cancelled` / `deadline_exceeded` / `backend_unavailable`.
//!
//! Blocking verbs (`result`, `stream`) poll their connection's liveness
//! every few hundred milliseconds while waiting: an abandoned connection
//! on a never-terminal job (e.g. queued while scheduling is paused) is
//! detected via a non-blocking peek and its thread + socket reclaimed
//! instead of parking until service shutdown. Read-side EOF gets a grace
//! window first (one-shot clients that `shutdown(WR)` and wait for the
//! response look identical to a vanished peer), so half-closing clients
//! keep working while truly dead connections are bounded by the grace.
//!
//! Gates are `[name, params…, qubits…]` arrays — the name determines the
//! parameter count and arity, so decoding is unambiguous. Angles travel as
//! shortest-round-trip `f64` text, so a circuit fingerprints identically
//! on both ends of the wire and cache hits work across processes. Noise is
//! `"ideal"`/`"sycamore"` or `{"kind":"depolarizing","p1":…,"p2":…}` (also
//! `amplitude-damping`/`phase-damping`, optional symmetric `"readout"`);
//! strategies are `"dcp"`/`"baseline"` or
//! `{"kind":"uniform"|"exponential","k":…}` /
//! `{"kind":"custom","arities":[…]}`.
//!
//! Integers on the wire (seeds, shots, outcomes) must stay ≤ 2⁵³ — the
//! JSON layer refuses to emit anything larger rather than round silently.

use crate::job::{ChunkPoll, JobStatus, Ticket};
use crate::queue::SubmitError;
use crate::service::{JobRequest, RetryPolicy, Service, ServiceStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tqsim::{RunResult, Strategy};
use tqsim_circuit::{Circuit, GateKind};
use tqsim_json::{self as json, num, num_u64, obj, str_val, Value};
use tqsim_noise::{Channel, NoiseModel, ReadoutError};

// ---------------------------------------------------------------- codecs

/// Encode a circuit as `{"n": width, "gates": [[name, params…, qubits…]]}`.
pub fn circuit_to_json(circuit: &Circuit) -> Value {
    let gates = circuit
        .iter()
        .map(|gate| {
            let mut cells = vec![str_val(gate.kind().name())];
            cells.extend(gate.kind().params().into_iter().map(num));
            cells.extend(gate.qubits().iter().map(|&q| num_u64(u64::from(q))));
            Value::Arr(cells)
        })
        .collect();
    obj(vec![
        ("n", num_u64(u64::from(circuit.n_qubits()))),
        ("gates", Value::Arr(gates)),
    ])
}

/// Decode a circuit (see [`circuit_to_json`]).
///
/// # Errors
///
/// A human-readable message for malformed input (unknown mnemonic, wrong
/// cell count, out-of-range qubits, …).
pub fn circuit_from_json(value: &Value) -> Result<Circuit, String> {
    let n = value
        .get("n")
        .and_then(Value::as_u64)
        .ok_or("circuit needs a numeric \"n\"")?;
    let n = u16::try_from(n).map_err(|_| "circuit width exceeds u16")?;
    let gates = value
        .get("gates")
        .and_then(Value::as_arr)
        .ok_or("circuit needs a \"gates\" array")?;
    let mut circuit = Circuit::new(n);
    for (idx, cell) in gates.iter().enumerate() {
        let parts = cell
            .as_arr()
            .ok_or_else(|| format!("gate {idx} is not an array"))?;
        let name = parts
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| format!("gate {idx} lacks a name"))?;
        let (n_params, arity) = GateKind::shape(name)
            .ok_or_else(|| format!("gate {idx}: unknown mnemonic {name:?}"))?;
        if parts.len() != 1 + n_params + arity {
            return Err(format!(
                "gate {idx} ({name}): expected {n_params} params + {arity} qubits, got {} cells",
                parts.len() - 1
            ));
        }
        let params: Vec<f64> = parts[1..1 + n_params]
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("gate {idx}: bad param")))
            .collect::<Result<_, _>>()?;
        let qubits: Vec<u16> = parts[1 + n_params..]
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|q| u16::try_from(q).ok())
                    .ok_or_else(|| format!("gate {idx}: bad qubit"))
            })
            .collect::<Result<_, _>>()?;
        let kind = GateKind::from_parts(name, &params).expect("shape-checked mnemonic");
        circuit
            .try_push(kind, &qubits)
            .map_err(|e| format!("gate {idx} ({name}): {e}"))?;
    }
    Ok(circuit)
}

/// Decode a noise model: `"ideal"`, `"sycamore"`, or an object with a
/// `"kind"` and its parameters (optionally a symmetric `"readout"` rate).
pub fn noise_from_json(value: &Value) -> Result<NoiseModel, String> {
    let with_readout = |model: NoiseModel, value: &Value| -> Result<NoiseModel, String> {
        match value.get("readout") {
            None => Ok(model),
            Some(p) => {
                let p = p.as_f64().ok_or("readout must be a number")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("readout rate {p} outside [0,1]"));
                }
                Ok(model.with_readout(ReadoutError::symmetric(p)))
            }
        }
    };
    match value {
        Value::Str(name) => match name.as_str() {
            "ideal" => Ok(NoiseModel::ideal()),
            "sycamore" => Ok(NoiseModel::sycamore()),
            other => Err(format!("unknown noise model {other:?}")),
        },
        Value::Obj(_) => {
            let kind = value
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("noise object needs a \"kind\"")?;
            // The model constructors panic on an out-of-range channel, so
            // each parameter is validated through its channel first.
            let f = |key: &str, channel: fn(f64) -> Channel| -> Result<f64, String> {
                let x = value
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("noise kind {kind:?} needs numeric {key:?}"))?;
                channel(x).validate()?;
                Ok(x)
            };
            let depolarizing = |p| Channel::Depolarizing { p };
            let model = match kind {
                "ideal" => NoiseModel::ideal(),
                "sycamore" => NoiseModel::sycamore(),
                "depolarizing" => {
                    NoiseModel::depolarizing(f("p1", depolarizing)?, f("p2", depolarizing)?)
                }
                "amplitude-damping" => NoiseModel::amplitude_damping(f("gamma", |gamma| {
                    Channel::AmplitudeDamping { gamma }
                })?),
                "phase-damping" => NoiseModel::phase_damping(f("lambda", |lambda| {
                    Channel::PhaseDamping { lambda }
                })?),
                other => return Err(format!("unknown noise kind {other:?}")),
            };
            with_readout(model, value)
        }
        _ => Err("noise must be a string or object".into()),
    }
}

/// Decode a strategy: `"dcp"`, `"baseline"`, or an object with `"kind"`
/// `uniform`/`exponential` (+`"k"`) or `custom` (+`"arities"`).
pub fn strategy_from_json(value: &Value) -> Result<Strategy, String> {
    match value {
        Value::Str(name) => match name.as_str() {
            "dcp" => Ok(Strategy::default_dcp()),
            "baseline" => Ok(Strategy::Baseline),
            other => Err(format!("unknown strategy {other:?}")),
        },
        Value::Obj(_) => {
            let kind = value
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("strategy object needs a \"kind\"")?;
            match kind {
                "dcp" => Ok(Strategy::default_dcp()),
                "baseline" => Ok(Strategy::Baseline),
                "uniform" | "exponential" => {
                    let k = value
                        .get("k")
                        .and_then(Value::as_u64)
                        .ok_or("strategy needs numeric \"k\"")?
                        as usize;
                    Ok(if kind == "uniform" {
                        Strategy::Uniform { k }
                    } else {
                        Strategy::Exponential { k }
                    })
                }
                "custom" => {
                    let arities = value
                        .get("arities")
                        .and_then(Value::as_arr)
                        .ok_or("custom strategy needs an \"arities\" array")?
                        .iter()
                        .map(|v| v.as_u64().ok_or("arities must be positive integers"))
                        .collect::<Result<Vec<u64>, _>>()?;
                    Ok(Strategy::Custom { arities })
                }
                other => Err(format!("unknown strategy kind {other:?}")),
            }
        }
        _ => Err("strategy must be a string or object".into()),
    }
}

/// Decode a full submission request (everything but `"op"`).
pub fn request_from_json(value: &Value) -> Result<(String, JobRequest), String> {
    let client = value
        .get("client")
        .and_then(Value::as_str)
        .unwrap_or("anonymous")
        .to_string();
    let circuit = circuit_from_json(value.get("circuit").ok_or("submit needs a \"circuit\"")?)?;
    let mut request = JobRequest::new(Arc::new(circuit));
    if let Some(noise) = value.get("noise") {
        request = request.noise(noise_from_json(noise)?);
    }
    if let Some(strategy) = value.get("strategy") {
        request = request.strategy(strategy_from_json(strategy)?);
    }
    if let Some(shots) = value.get("shots") {
        let shots = shots
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or("shots must be a positive integer")?;
        request = request.shots(shots);
    }
    if let Some(seed) = value.get("seed") {
        request = request.seed(seed.as_u64().ok_or("seed must be an integer ≤ 2^53")?);
    }
    if let Some(ls) = value.get("leaf_samples") {
        let ls = ls
            .as_u64()
            .ok_or("leaf_samples must be a positive integer")?;
        if ls == 0 || ls > MAX_LEAF_SAMPLES {
            return Err("leaf_samples out of range".into());
        }
        request = request.leaf_samples(ls as u32); // ≤ MAX_LEAF_SAMPLES
    }
    if let Some(attempts) = value.get("retry_max_attempts") {
        let attempts = attempts
            .as_u64()
            .filter(|&n| n >= 1 && n <= u64::from(u32::MAX))
            .ok_or("retry_max_attempts must be a positive integer")?;
        let mut retry = RetryPolicy::attempts(attempts as u32);
        if let Some(backoff) = value.get("retry_backoff_ms") {
            let ms = backoff
                .as_u64()
                .ok_or("retry_backoff_ms must be a non-negative integer")?;
            retry = retry.initial_backoff(Duration::from_millis(ms));
        }
        request = request.retry(retry);
    } else if value.get("retry_backoff_ms").is_some() {
        return Err("retry_backoff_ms needs retry_max_attempts".into());
    }
    if let Some(deadline) = value.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or("deadline_ms must be a positive integer")?;
        request = request.deadline(Duration::from_millis(ms));
    }
    Ok((client, request))
}

fn result_to_json(status: &JobStatus, result: &RunResult) -> Value {
    let mut counts: Vec<(u64, u64)> = result.counts.iter().collect();
    counts.sort_unstable();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("status", str_val(status.name())),
        ("total", num_u64(result.counts.total())),
        ("distinct", num_u64(result.counts.distinct() as u64)),
        (
            "counts",
            Value::Arr(
                counts
                    .into_iter()
                    .map(|(o, c)| Value::Arr(vec![num_u64(o), num_u64(c)]))
                    .collect(),
            ),
        ),
        ("tree", str_val(result.tree.to_string())),
        ("gates", num_u64(result.ops.total_gates())),
        ("amp_passes", num_u64(result.ops.amp_passes)),
        ("noise_ops", num_u64(result.ops.noise_ops)),
        ("samples", num_u64(result.ops.samples)),
        ("wall_ms", num(result.wall_time.as_secs_f64() * 1e3)),
    ])
}

/// Render a [`ServiceStats`] snapshot (the `stats` verb's payload).
pub fn stats_to_json(stats: &ServiceStats) -> Value {
    obj(vec![
        ("ok", Value::Bool(true)),
        ("submitted", num_u64(stats.submitted)),
        ("rejected", num_u64(stats.rejected)),
        ("completed", num_u64(stats.completed)),
        ("failed", num_u64(stats.failed)),
        ("cancelled", num_u64(stats.cancelled)),
        ("aborted", num_u64(stats.aborted)),
        ("retried", num_u64(stats.retried)),
        ("timed_out", num_u64(stats.timed_out)),
        ("degraded", num_u64(stats.degraded)),
        ("queued_now", num_u64(stats.queued_now as u64)),
        ("running_now", num_u64(stats.running_now as u64)),
        (
            "running_high_water",
            num_u64(stats.running_high_water as u64),
        ),
        ("chunks_streamed", num_u64(stats.chunks_streamed)),
        ("outcomes_streamed", num_u64(stats.outcomes_streamed)),
        ("uptime_secs", num_u64(stats.uptime_secs)),
        ("snapshot_seq", num_u64(stats.snapshot_seq)),
        ("workers", num_u64(stats.workers as u64)),
        (
            "max_concurrent_jobs",
            num_u64(stats.max_concurrent_jobs as u64),
        ),
        ("single_node_jobs", num_u64(stats.single_node_jobs)),
        ("cluster_jobs", num_u64(stats.cluster_jobs)),
        ("retained_jobs", num_u64(stats.retained_jobs as u64)),
        ("forgotten", num_u64(stats.forgotten)),
        (
            "cache",
            obj(vec![
                ("hits", num_u64(stats.cache.hits)),
                ("misses", num_u64(stats.cache.misses)),
                ("evictions", num_u64(stats.cache.evictions)),
                ("compiled", num_u64(stats.cache.compiled)),
                ("entries", num_u64(stats.cache.entries as u64)),
            ]),
        ),
    ])
}

/// Render a registry snapshot (the `metrics` verb's JSON payload). Every
/// number goes through [`num`] as `f64` — counter values can exceed the
/// 2⁵³ exact-integer range (e.g. byte totals), and a lossy-but-close
/// monitoring value beats a refused snapshot.
pub fn metrics_to_json(snap: &tqsim_obs::Snapshot) -> Value {
    let labels_obj = |labels: &[(String, String)]| {
        Value::Obj(
            labels
                .iter()
                .map(|(k, v)| (k.clone(), str_val(v.clone())))
                .collect(),
        )
    };
    let scalar = |name: &str, labels: &[(String, String)], value: f64| {
        obj(vec![
            ("name", str_val(name)),
            ("labels", labels_obj(labels)),
            ("value", num(value)),
        ])
    };
    let counters: Vec<Value> = snap
        .counters
        .iter()
        .map(|m| scalar(&m.name, &m.labels, m.value as f64))
        .collect();
    let gauges: Vec<Value> = snap
        .gauges
        .iter()
        .map(|m| scalar(&m.name, &m.labels, m.value as f64))
        .collect();
    let histograms: Vec<Value> = snap
        .histograms
        .iter()
        .map(|m| {
            let s = &m.snapshot;
            obj(vec![
                ("name", str_val(m.name.clone())),
                ("labels", labels_obj(&m.labels)),
                ("count", num(s.count as f64)),
                ("sum_ns", num(s.sum as f64)),
                ("max_ns", num(s.max as f64)),
                ("mean_ns", num(s.mean())),
                ("p50_ns", num(s.p50() as f64)),
                ("p90_ns", num(s.p90() as f64)),
                ("p99_ns", num(s.p99() as f64)),
            ])
        })
        .collect();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("uptime_secs", num(snap.uptime_secs)),
        ("counters", Value::Arr(counters)),
        ("gauges", Value::Arr(gauges)),
        ("histograms", Value::Arr(histograms)),
    ])
}

/// Render the lifecycle-event ring for `{"op":"metrics","events":true}`.
fn events_to_json(events: &[tqsim_obs::Event]) -> Value {
    Value::Arr(
        events
            .iter()
            .map(|e| {
                obj(vec![
                    ("ts_ns", num(e.ts_ns as f64)),
                    ("job", num(e.job as f64)),
                    ("stage", str_val(e.stage)),
                ])
            })
            .collect(),
    )
}

/// An error reply: the human-readable `"error"` and the stable
/// machine-readable `"code"` (clients branch on the code, never on message
/// text).
fn coded_error_json(message: impl std::fmt::Display, code: &'static str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", str_val(message.to_string())),
        ("code", str_val(code)),
    ])
}

/// The error code of a malformed request.
const BAD_REQUEST: &str = "bad_request";

/// How long a refused submitter should back off before retrying. One
/// scheduler pop frees one admission slot, so a couple of poll intervals
/// is the natural cadence; the exact value is a hint, not a contract.
const RETRY_AFTER_MS: u64 = 100;

/// The submit verb's refusal payload: coded error, plus a
/// `"retry_after_ms"` hint when the refusal is transient backpressure
/// (full queues drain; `shutting_down` does not).
fn submit_refused_json(err: &SubmitError) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("error", str_val(err.to_string())),
        ("code", str_val(err.code())),
    ];
    if err.is_backpressure() {
        fields.push(("retry_after_ms", num_u64(RETRY_AFTER_MS)));
    }
    obj(fields)
}

// ---------------------------------------------------------------- server

/// A running TCP front-end. Dropping the handle (or calling
/// [`ServerHandle::stop`]) stops accepting new connections; established
/// connections run until their client disconnects.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use with `TcpStream::connect`; bind to port 0
    /// and read this for an ephemeral loopback endpoint).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable on every
        // platform, so aim the wake-up at loopback on the bound port.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, std::time::Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port) and
/// serve the protocol on it: one thread per connection, requests handled
/// in arrival order per connection, connections independent.
///
/// # Errors
///
/// I/O errors from binding.
pub fn serve(service: Arc<Service>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("tqsim-service-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                let _ = std::thread::Builder::new()
                    .name("tqsim-service-conn".into())
                    .spawn(move || handle_connection(&service, stream));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Longest accepted request line (1 MiB — a dense 25-qubit circuit encodes
/// well under this). Bounds per-connection memory against a peer that
/// streams bytes without ever sending a newline.
const MAX_LINE_BYTES: u64 = 1 << 20;

/// Largest accepted `leaf_samples`. Every leaf allocates `leaf_samples ×
/// members` words for its uniforms, sorted draws and outcomes, so an
/// unbounded value lets one request ask for tens of gigabytes — an
/// allocation failure aborts the whole process. 2^16 is ample: the largest
/// value any bench or test uses is 8.
const MAX_LEAF_SAMPLES: u64 = 1 << 16;

/// How often a blocking verb re-checks its connection while waiting on a
/// non-terminal job.
const LIVENESS_POLL: Duration = Duration::from_millis(250);

/// How long a blocking verb keeps waiting after observing read-side EOF.
/// TCP cannot distinguish a one-shot client that `shutdown(WR)`s and waits
/// for its response from a client that vanished — both read as a FIN — so
/// EOF starts a grace window instead of disconnecting immediately:
/// half-closing clients with jobs shorter than this still get their
/// response, while a truly abandoned connection is reclaimed within the
/// window instead of parking its thread + socket until service shutdown.
const EOF_GRACE: Duration = Duration::from_secs(60);

/// One probe of the connection while a blocking verb waits.
enum Liveness {
    /// Connected (quiet, or with pipelined bytes pending — a FIN behind
    /// unread data is invisible without consuming it, so such a peer is
    /// only reclaimed once the current verb completes and the reader
    /// drains to EOF).
    Alive,
    /// Read side returned EOF: either a half-closing one-shot client still
    /// awaiting its response, or a gone peer — indistinguishable; see
    /// [`EOF_GRACE`].
    ReadClosed,
    /// The socket errored (reset, probe failure): definitely gone.
    Dead,
}

/// Non-blocking 1-byte peek; blocking mode is restored before returning —
/// the connection's reader shares this socket.
fn probe_peer(stream: &TcpStream) -> Liveness {
    if stream.set_nonblocking(true).is_err() {
        return Liveness::Dead;
    }
    let mut probe = [0u8; 1];
    let liveness = match stream.peek(&mut probe) {
        Ok(0) => Liveness::ReadClosed,
        Ok(_) => Liveness::Alive,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Liveness::Alive,
        Err(_) => Liveness::Dead,
    };
    if stream.set_nonblocking(false).is_err() {
        return Liveness::Dead;
    }
    liveness
}

/// Per-verb liveness tracker: call [`LivenessWatch::give_up`] on every
/// quiet poll interval; `true` means reclaim the connection.
struct LivenessWatch<'a> {
    stream: &'a TcpStream,
    grace: Duration,
    read_closed_since: Option<std::time::Instant>,
}

impl<'a> LivenessWatch<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        LivenessWatch::with_grace(stream, EOF_GRACE)
    }

    /// Testing seam: the production handlers always use [`EOF_GRACE`].
    fn with_grace(stream: &'a TcpStream, grace: Duration) -> Self {
        LivenessWatch {
            stream,
            grace,
            read_closed_since: None,
        }
    }

    fn give_up(&mut self) -> bool {
        match probe_peer(self.stream) {
            Liveness::Alive => {
                self.read_closed_since = None;
                false
            }
            Liveness::Dead => true,
            Liveness::ReadClosed => {
                let since = *self
                    .read_closed_since
                    .get_or_insert_with(std::time::Instant::now);
                since.elapsed() >= self.grace
            }
        }
    }
}

fn disconnected() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::BrokenPipe,
        "client disconnected while waiting",
    )
}

fn handle_connection(service: &Service, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(liveness) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        // Cap the read: a line that hits the limit without a newline is a
        // protocol violation, answered once and then disconnected.
        let mut limited = std::io::Read::take(&mut reader, MAX_LINE_BYTES);
        match limited.read_line(&mut line) {
            Ok(0) => return, // connection closed
            Ok(_) => {}
            Err(_) => return,
        }
        let overlong = !line.ends_with('\n') && line.len() as u64 >= MAX_LINE_BYTES;
        if overlong {
            let _ = write_line(
                &mut writer,
                &coded_error_json("request line too long", BAD_REQUEST),
            );
            let _ = writer.flush();
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        let finished = handle_line(service, &line, &mut writer, &liveness).is_err();
        if writer.flush().is_err() || finished {
            return;
        }
    }
}

fn write_line(writer: &mut dyn Write, value: &Value) -> std::io::Result<()> {
    writer.write_all(value.to_json().as_bytes())?;
    writer.write_all(b"\n")
}

/// Handle one request line; `Err` means the connection is unusable.
fn handle_line(
    service: &Service,
    line: &str,
    writer: &mut dyn Write,
    liveness: &TcpStream,
) -> std::io::Result<()> {
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return write_line(writer, &coded_error_json(e, BAD_REQUEST)),
    };
    let op = request.get("op").and_then(Value::as_str).unwrap_or("");
    match op {
        "submit" => match request_from_json(&request) {
            Err(msg) => write_line(writer, &coded_error_json(msg, BAD_REQUEST)),
            Ok((client, job_request)) => match service.submit(&client, job_request) {
                Ok(ticket) => write_line(
                    writer,
                    &obj(vec![
                        ("ok", Value::Bool(true)),
                        ("job", num_u64(ticket.id())),
                    ]),
                ),
                Err(err) => write_line(writer, &submit_refused_json(&err)),
            },
        },
        "poll" => with_ticket(service, &request, writer, |ticket, writer| {
            let status = ticket.status();
            let mut fields = vec![
                ("ok", Value::Bool(true)),
                ("status", str_val(status.name())),
                ("streamed", num_u64(ticket.streamed())),
            ];
            if let JobStatus::Failed(err) = &status {
                fields.push(("error", str_val(err.to_string())));
                fields.push(("code", str_val(err.code())));
            }
            write_line(writer, &obj(fields))
        }),
        "stream" => with_ticket(service, &request, writer, |ticket, writer| {
            let mut watch = LivenessWatch::new(liveness);
            let mut total = 0u64;
            loop {
                match ticket.next_chunk_timeout(LIVENESS_POLL) {
                    ChunkPoll::Chunk(chunk) => {
                        total += chunk.len() as u64;
                        write_line(
                            writer,
                            &obj(vec![(
                                "chunk",
                                Value::Arr(chunk.into_iter().map(num_u64).collect()),
                            )]),
                        )?;
                        // Flush per chunk: streaming means the client sees
                        // leaf batches while the job still runs, not a
                        // buffered burst.
                        writer.flush()?;
                    }
                    ChunkPoll::Terminal => break,
                    // Quiet interval on a live job: reclaim the thread +
                    // socket if the client has gone away.
                    ChunkPoll::TimedOut => {
                        if watch.give_up() {
                            return Err(disconnected());
                        }
                    }
                }
            }
            let status = ticket.status();
            let mut fields = vec![
                ("done", Value::Bool(true)),
                ("status", str_val(status.name())),
                ("total", num_u64(total)),
            ];
            if let JobStatus::Failed(err) = &status {
                fields.push(("error", str_val(err.to_string())));
                fields.push(("code", str_val(err.code())));
            }
            write_line(writer, &obj(fields))
        }),
        "result" => with_ticket(service, &request, writer, |ticket, writer| {
            let mut watch = LivenessWatch::new(liveness);
            let outcome = loop {
                match ticket.wait_timeout(LIVENESS_POLL) {
                    Some(outcome) => break outcome,
                    None => {
                        if watch.give_up() {
                            return Err(disconnected());
                        }
                    }
                }
            };
            match outcome {
                Ok(result) => write_line(writer, &result_to_json(&ticket.status(), &result)),
                Err(err) => {
                    let code = err.code();
                    write_line(writer, &coded_error_json(err, code))
                }
            }
        }),
        "cancel" => with_ticket(service, &request, writer, |ticket, writer| {
            let took_effect = ticket.cancel();
            write_line(
                writer,
                &obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cancelled", Value::Bool(took_effect)),
                ]),
            )
        }),
        // An unknown (or already-swept) id errors like every other job
        // verb; `forgotten: false` therefore always means "still live —
        // cancel first", never "already gone".
        "forget" => with_ticket(service, &request, writer, |ticket, writer| {
            let forgotten = service.forget(ticket.id());
            write_line(
                writer,
                &obj(vec![
                    ("ok", Value::Bool(true)),
                    ("forgotten", Value::Bool(forgotten)),
                ]),
            )
        }),
        "stats" => write_line(writer, &stats_to_json(&service.stats())),
        "metrics" => {
            let format = request
                .get("format")
                .and_then(Value::as_str)
                .unwrap_or("json");
            let reply = match format {
                "text" => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("text", str_val(service.metrics_text())),
                ]),
                "json" => {
                    let mut reply = metrics_to_json(&service.metrics());
                    let want_events = request
                        .get("events")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    if want_events {
                        if let Value::Obj(fields) = &mut reply {
                            let events = events_to_json(&service.metrics_events());
                            fields.push(("events".to_string(), events));
                        }
                    }
                    reply
                }
                other => coded_error_json(format!("unknown metrics format {other:?}"), BAD_REQUEST),
            };
            write_line(writer, &reply)
        }
        other => write_line(
            writer,
            &coded_error_json(format!("unknown op {other:?}"), BAD_REQUEST),
        ),
    }
}

fn with_ticket(
    service: &Service,
    request: &Value,
    writer: &mut dyn Write,
    f: impl FnOnce(Ticket, &mut dyn Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let Some(id) = request.get("job").and_then(Value::as_u64) else {
        return write_line(
            writer,
            &coded_error_json("request needs a numeric \"job\"", BAD_REQUEST),
        );
    };
    match service.lookup(id) {
        Some(ticket) => f(ticket, writer),
        None => write_line(
            writer,
            &coded_error_json(format!("unknown job {id}"), "unknown_job"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;

    #[test]
    fn circuit_codec_round_trips_and_fingerprints_match() {
        let mut circuit = Circuit::new(4);
        circuit
            .h(0)
            .cx(0, 1)
            .rz(0.1 + 0.2, 2) // a value with no short decimal form
            .cp(std::f64::consts::PI / 3.0, 1, 3)
            .u3(0.3, -1.7, 2.9, 0)
            .fsim(0.5, 0.25, 2, 3)
            .ccx(0, 1, 2);
        let text = circuit_to_json(&circuit).to_json();
        let back = circuit_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(circuit, back);
        assert_eq!(
            circuit.fingerprint(),
            back.fingerprint(),
            "wire transport must preserve the cache key"
        );
    }

    #[test]
    fn generator_circuits_survive_the_wire() {
        for circuit in [
            generators::qft(6),
            generators::bv(7),
            generators::adder_full(1),
        ] {
            let text = circuit_to_json(&circuit).to_json();
            let back = circuit_from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(circuit.fingerprint(), back.fingerprint());
        }
    }

    #[test]
    fn matrix_gates_round_trip() {
        let u = GateKind::H.matrix1().unwrap();
        let mut circuit = Circuit::new(2);
        circuit.unitary1(u, 1);
        let text = circuit_to_json(&circuit).to_json();
        let back = circuit_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(circuit, back);
    }

    #[test]
    fn malformed_circuits_are_rejected() {
        for bad in [
            r#"{"gates": []}"#,
            r#"{"n": 2, "gates": [["nope", 0]]}"#,
            r#"{"n": 2, "gates": [["h"]]}"#,
            r#"{"n": 2, "gates": [["h", 5]]}"#,
            r#"{"n": 2, "gates": [["cx", 0, 0]]}"#,
            r#"{"n": 2, "gates": [["rz", 0]]}"#,
        ] {
            let value = json::parse(bad).unwrap();
            assert!(circuit_from_json(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn noise_and_strategy_codecs() {
        assert_eq!(
            noise_from_json(&json::parse("\"sycamore\"").unwrap()).unwrap(),
            NoiseModel::sycamore()
        );
        assert!(noise_from_json(&json::parse("\"nope\"").unwrap()).is_err());
        // Out-of-range channel parameters are refused, not passed to the
        // model constructors, which panic on them.
        for bad in [
            r#"{"kind":"depolarizing","p1":5,"p2":0.01}"#,
            r#"{"kind":"depolarizing","p1":0.001,"p2":-0.5}"#,
            r#"{"kind":"amplitude-damping","gamma":1.5}"#,
            r#"{"kind":"phase-damping","lambda":-1}"#,
        ] {
            let err = noise_from_json(&json::parse(bad).unwrap()).expect_err(bad);
            assert!(err.contains("outside [0, 1]"), "{bad}: {err}");
        }
        let dep = noise_from_json(
            &json::parse(r#"{"kind":"depolarizing","p1":0.001,"p2":0.015,"readout":0.02}"#)
                .unwrap(),
        )
        .unwrap();
        assert!(dep.readout().is_some());
        assert_eq!(dep.depolarizing_rates(), None, "readout disables DC tuple");

        assert_eq!(
            strategy_from_json(&json::parse("\"baseline\"").unwrap()).unwrap(),
            Strategy::Baseline
        );
        assert_eq!(
            strategy_from_json(&json::parse(r#"{"kind":"custom","arities":[5,3,2]}"#).unwrap())
                .unwrap(),
            Strategy::Custom {
                arities: vec![5, 3, 2]
            }
        );
        assert!(strategy_from_json(&json::parse(r#"{"kind":"??"}"#).unwrap()).is_err());
    }

    #[test]
    fn liveness_watch_reclaims_closed_peers_after_grace() {
        use std::io::Write as _;
        use std::net::{Shutdown, TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        // Connected and quiet: never give up.
        let mut watch = LivenessWatch::with_grace(&server_side, Duration::ZERO);
        assert!(!watch.give_up(), "quiet but connected peer is alive");
        // Pipelined unread bytes also read as alive.
        client.write_all(b"pending").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!watch.give_up(), "pending bytes read as alive");

        // Fresh pair: peer closes with nothing buffered → EOF starts the
        // grace clock; zero grace reclaims on the next poll, and a real
        // grace holds the connection first.
        let client2 = TcpStream::connect(addr).unwrap();
        let (server2, _) = listener.accept().unwrap();
        client2.shutdown(Shutdown::Both).unwrap();
        drop(client2);
        std::thread::sleep(Duration::from_millis(50));
        let mut patient = LivenessWatch::with_grace(&server2, Duration::from_secs(3600));
        assert!(
            !patient.give_up(),
            "EOF within grace must keep the half-close case working"
        );
        let mut impatient = LivenessWatch::with_grace(&server2, Duration::ZERO);
        assert!(
            impatient.give_up(),
            "expired grace after EOF reclaims the connection"
        );
    }

    #[test]
    fn submit_decode_applies_defaults() {
        let value = json::parse(
            r#"{"op":"submit","circuit":{"n":2,"gates":[["h",0],["cx",0,1]]},"shots":64}"#,
        )
        .unwrap();
        let (client, request) = request_from_json(&value).unwrap();
        assert_eq!(client, "anonymous");
        assert_eq!(request.shots, 64);
        assert_eq!(request.seed, 0);
        assert_eq!(request.noise, NoiseModel::sycamore());
    }

    #[test]
    fn submit_decode_refuses_out_of_range_fields() {
        let circuit = r#""circuit":{"n":1,"gates":[["h",0]]}"#;
        for (field, bad) in [
            ("shots", r#""shots":0"#),
            ("shots", r#""shots":-1"#),
            ("leaf_samples", r#""leaf_samples":0"#),
            ("leaf_samples", r#""leaf_samples":65537"#),
            ("retry_max_attempts", r#""retry_max_attempts":0"#),
            ("deadline_ms", r#""deadline_ms":0"#),
        ] {
            let value = json::parse(&format!(r#"{{"op":"submit",{circuit},{bad}}}"#)).unwrap();
            let err = request_from_json(&value).expect_err(bad);
            assert!(err.contains(field), "{bad}: {err}");
        }
    }

    #[test]
    fn stats_reply_keys_are_pinned() {
        // Clients (and `perf`'s service view) read these keys by name.
        let keys = |value: &Value| -> Vec<String> {
            match value {
                Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        };
        let reply = stats_to_json(&ServiceStats::default());
        assert_eq!(
            keys(&reply),
            [
                "ok",
                "submitted",
                "rejected",
                "completed",
                "failed",
                "cancelled",
                "aborted",
                "retried",
                "timed_out",
                "degraded",
                "queued_now",
                "running_now",
                "running_high_water",
                "chunks_streamed",
                "outcomes_streamed",
                "uptime_secs",
                "snapshot_seq",
                "workers",
                "max_concurrent_jobs",
                "single_node_jobs",
                "cluster_jobs",
                "retained_jobs",
                "forgotten",
                "cache",
            ]
        );
        assert_eq!(
            keys(reply.get("cache").unwrap()),
            ["hits", "misses", "evictions", "compiled", "entries"]
        );
    }
}
