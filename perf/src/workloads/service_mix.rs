//! `service_mix` — many small jobs through the loopback TCP service.
//! Closed loop, 2 client connections, each doing `submit` → `result` back
//! to back. Amplitude work is tiny (≤ 16 KiB states), so queueing,
//! compiling, streaming, JSON, engine scheduling and per-node fixed costs
//! dominate.

use crate::gen::{self, Request, HOT_CIRCUITS};
use crate::report::{Metrics, Ops};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{set_up, Args};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use tqsim::{Counts, DcpConfig, Strategy};
use tqsim_circuit::Circuit;
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_json::Value;
use tqsim_noise::NoiseModel;
use tqsim_service::{wire, JobRequest, ServerHandle, Service, ServiceConfig};

const CLIENTS: usize = 2;
/// Requests of one rep (a rep is the unit whose wall clock is timed):
/// 32 from the hot pairs and 8 fresh circuits.
const REQUESTS_PER_REP: usize = 40;
/// Timed reps per run: throughput is the median over them, latencies are
/// percentiles over the 200 jobs of all of them.
const REPS: u64 = 5;
/// Reps a traced run adds with the observability layer off.
const OBS_OFF_REPS: u64 = 3;

/// One connection speaking the line-delimited protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// One request line out, one reply line back.
    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply
    }
}

/// The running program: service, TCP front-end, connected clients.
struct Setup {
    hot: Vec<Circuit>,
    hot_json: Vec<String>,
    service: Arc<Service>,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    build_s: f64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.service.shutdown();
    }
}

/// A request with its shot count settled and its wire line.
struct Planned {
    req: Request,
    circuit: Circuit,
    line: String,
}

fn submit_line(req: &Request, circuit_json: &str, client: usize) -> String {
    format!(
        "{{\"op\":\"submit\",\"client\":\"c{client}\",\"shots\":{},\"seed\":{},\
         \"noise\":\"sycamore\",\"strategy\":\"dcp\",\"circuit\":{circuit_json}}}",
        req.shots, req.seed
    )
}

/// The request list of one rep, in order; request `i` belongs to client
/// `i % CLIENTS`. Same seed ⇒ byte-identical lines.
fn plan_requests(seed: u64, rep: u64, hot: &[Circuit], hot_json: &[String]) -> Vec<Planned> {
    gen::requests(seed, rep, REQUESTS_PER_REP)
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            let circuit = gen::request_circuit(&req, hot);
            let line = match req.hot {
                Some(h) => submit_line(&req, &hot_json[h], i % CLIENTS),
                None => submit_line(
                    &req,
                    &wire::circuit_to_json(&circuit).to_json(),
                    i % CLIENTS,
                ),
            };
            Planned { req, circuit, line }
        })
        .collect()
}

fn setup(observability: bool, seed: u64) -> Setup {
    let t = Instant::now();
    let hot = gen::circuits(&HOT_CIRCUITS);
    let build_s = t.elapsed().as_secs_f64();
    let hot_json: Vec<String> = hot
        .iter()
        .map(|c| wire::circuit_to_json(c).to_json())
        .collect();
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2)
            .observability(observability),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(addr)).collect();
    // Warm-up: every hot pair once, so the timed reps find them cached.
    for (h, json) in hot_json.iter().enumerate() {
        let req = Request {
            hot: Some(h),
            circuit_seed: 0,
            shots: gen::hot_shots(h),
            seed: gen::sim_seed(seed, 0x3A00 + h as u64),
        };
        let done = run_job(
            &mut clients[h % CLIENTS],
            &submit_line(&req, json, h % CLIENTS),
        );
        assert!(done.is_some(), "warm-up job {h} failed");
    }
    Setup {
        hot,
        hot_json,
        service,
        server: Some(server),
        clients,
        build_s,
    }
}

/// `submit` then `result` on one connection; the job id and the result
/// line if the job was admitted and finished.
fn run_job(client: &mut Client, submit: &str) -> Option<(u64, String)> {
    let reply = tqsim_json::parse(client.request(submit).trim()).ok()?;
    let job = reply.get("job").and_then(Value::as_u64)?;
    Some((
        job,
        client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}")),
    ))
}

/// What a client saw of one job.
struct JobRecord {
    index: usize,
    /// Submit-write → result-read, ns from the rep's start.
    start_ns: u64,
    end_ns: u64,
    /// The parsed result, if the job finished with one.
    result: Option<Value>,
    result_line: String,
}

impl JobRecord {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn outcomes(&self) -> u64 {
        self.result
            .as_ref()
            .and_then(|r| r.get("total"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }
}

/// One timed rep: each client works through its share of `planned`, the
/// next request only after the previous result arrived.
struct RepResult {
    origin: Instant,
    wall_s: f64,
    jobs: Vec<JobRecord>,
}

fn run_rep(clients: &mut [Client], planned: &[Planned]) -> RepResult {
    let origin = Instant::now();
    let mut jobs: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for (index, p) in planned.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let start_ns = origin.elapsed().as_nanos() as u64;
                        let done = run_job(client, &p.line);
                        let end_ns = origin.elapsed().as_nanos() as u64;
                        // Give the record back, as a client that does not
                        // want the service to grow would; outside the
                        // job's latency, inside the rep's wall clock.
                        if let Some((job, _)) = &done {
                            client.request(&format!("{{\"op\":\"forget\",\"job\":{job}}}"));
                        }
                        let result_line = done.map(|(_, line)| line).unwrap_or_default();
                        records.push(JobRecord {
                            index,
                            start_ns,
                            end_ns,
                            result: tqsim_json::parse(result_line.trim()).ok(),
                            result_line,
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    jobs.sort_by_key(|j| j.index);
    RepResult {
        origin,
        wall_s,
        jobs,
    }
}

/// A finished job returned `ok`, `status: done` and at least its shots.
fn job_ok(job: &JobRecord, planned: &Planned) -> bool {
    job.result.as_ref().is_some_and(|r| {
        r.get("ok").and_then(Value::as_bool) == Some(true)
            && r.get("status").and_then(Value::as_str) == Some("done")
    }) && job.outcomes() >= planned.req.shots
}

/// Timings of the reps run so far; failed jobs miss every latency figure.
#[derive(Default)]
struct Samples {
    /// Per rep: wall seconds per finished job, and µs per outcome.
    s_per_job: Vec<f64>,
    us_per_shot: Vec<f64>,
    job_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
}

impl Samples {
    /// Jobs per second of the median rep.
    fn jobs_per_s(&self) -> f64 {
        1.0 / median(&self.s_per_job)
    }

    fn take(&mut self, rep: &RepResult, planned: &[Planned], ops: &mut Ops) {
        let mut done = 0u64;
        let mut outcomes = 0u64;
        for (job, p) in rep.jobs.iter().zip(planned) {
            if !ops.op(job_ok(job, p), || {
                format!("job {}: {}", job.index, job.result_line.trim())
            }) {
                continue;
            }
            done += 1;
            outcomes += job.outcomes();
            self.job_ms.push(job.ms());
            if p.req.hot.is_some() {
                self.hit_ms.push(job.ms());
            } else {
                self.miss_ms.push(job.ms());
            }
        }
        if done > 0 {
            self.s_per_job.push(rep.wall_s / done as f64);
            self.us_per_shot.push(rep.wall_s * 1e6 / outcomes as f64);
        }
    }
}

/// `counts` of a result payload as a histogram.
fn result_counts(result: &Value, n_qubits: u16) -> Counts {
    let mut counts = Counts::new(n_qubits);
    for pair in result.get("counts").and_then(Value::as_arr).unwrap_or(&[]) {
        if let Some([outcome, count]) = pair.as_arr().map(|p| [p[0].as_u64(), p[1].as_u64()]) {
            for _ in 0..count.unwrap_or(0) {
                counts.increment(outcome.unwrap_or(0));
            }
        }
    }
    counts
}

/// Per-stage sums and the cache counters, read over the wire.
struct ServiceView {
    /// `(sum_ns, p50_ns)` per stage, in [`STAGES`] order.
    stages: Vec<(f64, f64)>,
    hits: f64,
    misses: f64,
    compiled: f64,
}

const STAGES: [&str; 5] = ["queue_wait", "compile", "execute", "stream", "e2e"];

fn service_view(client: &mut Client) -> ServiceView {
    let metrics = tqsim_json::parse(client.request(r#"{"op":"metrics"}"#).trim())
        .expect("metrics reply is JSON");
    let stats =
        tqsim_json::parse(client.request(r#"{"op":"stats"}"#).trim()).expect("stats reply is JSON");
    let histograms = metrics
        .get("histograms")
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let stages = STAGES
        .iter()
        .map(|stage| {
            let h = histograms.iter().find(|h| {
                h.get("name").and_then(Value::as_str) == Some("tqsim_job_stage_ns")
                    && h.get("labels")
                        .and_then(|l| l.get("stage"))
                        .and_then(Value::as_str)
                        == Some(stage)
            });
            let field = |key: &str| {
                h.and_then(|h| h.get(key))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            (field("sum_ns"), field("p50_ns"))
        })
        .collect();
    let cache = |key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    ServiceView {
        stages,
        hits: cache("hits"),
        misses: cache("misses"),
        compiled: cache("compiled"),
    }
}

/// The same list through in-process `Service::submit`, 2 threads, closed
/// loop: the wire and JSON taken out.
fn direct_jobs_per_s(service: &Service, planned: &[Planned], ops: &mut Ops) -> f64 {
    let t = Instant::now();
    let done: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    planned
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|p| {
                            let request = JobRequest::new(Arc::new(p.circuit.clone()))
                                .noise(NoiseModel::sycamore())
                                .shots(p.req.shots)
                                .strategy(Strategy::Dynamic(DcpConfig::default()))
                                .seed(p.req.seed);
                            service
                                .submit(&format!("d{c}"), request)
                                .ok()
                                .and_then(|ticket| ticket.wait().ok())
                                .is_some_and(|r| r.counts.total() >= p.req.shots)
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("direct client thread"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    for ok in &done {
        ops.op(*ok, || "direct Service::submit job failed".into());
    }
    done.iter().filter(|ok| **ok).count() as f64 / wall
}

/// µs per KB of `tqsim_json` parse and print over recorded wire lines.
fn json_cost(lines: &[&str]) -> (f64, f64) {
    let kb = lines.iter().map(|l| l.len()).sum::<usize>() as f64 / 1024.0;
    let t = Instant::now();
    let values: Vec<Value> = lines
        .iter()
        .map(|l| tqsim_json::parse(black_box(l.trim())).expect("recorded line parses"))
        .collect();
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    for v in &values {
        black_box(black_box(v).to_json());
    }
    let print_us = t.elapsed().as_secs_f64() * 1e6;
    (parse_us / kb, print_us / kb)
}

pub fn run(args: &Args, ops: &mut Ops, m: &mut Metrics, tracer: &mut Tracer) {
    let (mut ctx, setup_s) = set_up(|| setup(true, args.seed));
    m.set("setup_s", setup_s);
    m.set("circuit.build_s", ctx.build_s);

    // Timed reps.
    let mut samples = Samples::default();
    let mut sampled: Option<(Planned, Value)> = None;
    for rep in 0..REPS {
        let planned = plan_requests(args.seed, rep, &ctx.hot, &ctx.hot_json);
        let mut result = run_rep(&mut ctx.clients, &planned);
        samples.take(&result, &planned, ops);
        if sampled.is_none() {
            let first = planned.into_iter().next().expect("a rep has requests");
            sampled = result.jobs.swap_remove(0).result.map(|r| (first, r));
        }
    }
    m.set("us_per_shot", median(&samples.us_per_shot));
    m.set("service.jobs_per_s", samples.jobs_per_s());
    m.set("service.job_ms_p50", median(&samples.job_ms));
    // A percentile without ten samples beyond it (jobs failed) is left out.
    if let Some(p90) = percentile(&samples.job_ms, 90) {
        m.set("service.job_ms_p90", p90);
    }
    m.set("service.hit_job_ms_p50", median(&samples.hit_ms));
    m.set("service.miss_job_ms_p50", median(&samples.miss_ms));

    // The service's answer for a sampled job is the engine's.
    if let Some((p, result)) = &sampled {
        let engine = Engine::new(EngineConfig::new().parallelism(2));
        let batch = engine
            .submit(vec![JobSpec::new(&p.circuit)
                .noise(NoiseModel::sycamore())
                .shots(p.req.shots)
                .strategy(Strategy::Dynamic(DcpConfig::default()))
                .seed(p.req.seed)])
            .run()
            .expect("sampled job plans");
        ops.op(
            result_counts(result, p.circuit.n_qubits()) == batch.jobs[0].counts,
            || "service result differs from Engine::submit for the sampled job".into(),
        );
    }

    if !args.trace {
        return;
    }
    // The traced rep: one span per job under a span for the rep, and
    // the service's own stage sums read before and after it.
    let before = service_view(&mut ctx.clients[0]);
    let planned = plan_requests(args.seed, 1 << 20, &ctx.hot, &ctx.hot_json);
    let root = tracer.begin("service.rep", None, 0);
    let traced = run_rep(&mut ctx.clients, &planned);
    tracer.end(root);
    for job in &traced.jobs {
        tracer.record(
            "service.job",
            Some(root),
            job.index as u32,
            traced.origin,
            job.start_ns,
            job.end_ns,
        );
    }
    let after = service_view(&mut ctx.clients[0]);
    let mut traced_samples = Samples::default();
    traced_samples.take(&traced, &planned, ops);
    m.set(
        "trace.overhead_frac",
        samples.jobs_per_s() / traced_samples.jobs_per_s() - 1.0,
    );

    let stage_s: Vec<f64> = before
        .stages
        .iter()
        .zip(&after.stages)
        .map(|(b, a)| (a.0 - b.0) / 1e9)
        .collect();
    m.set("service.stage_queue_wait_s", stage_s[0]);
    m.set("service.stage_compile_s", stage_s[1]);
    m.set("service.stage_execute_s", stage_s[2]);
    m.set("service.stage_stream_s", stage_s[3]);
    m.set("service.stage_e2e_s", stage_s[4]);
    // queue_wait + compile + execute telescope to e2e; stream lies
    // inside execute.
    let parts: f64 = stage_s[..3].iter().sum();
    ops.op(
        (parts - stage_s[4]).abs() <= 1e-6 * stage_s[4] && stage_s[3] <= stage_s[2],
        || {
            format!(
                "stage sums {parts} s do not telescope to e2e {} s",
                stage_s[4]
            )
        },
    );
    let e2e_ms_p50 = after.stages[4].1 / 1e6;
    m.set("service.stage_e2e_ms_p50", e2e_ms_p50);
    m.set(
        "service.wire_overhead_ms_p50",
        median(&traced_samples.job_ms) - e2e_ms_p50,
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.set("service.cache_hit_rate", hits / (hits + misses));
    m.set("service.cache_compiles", after.compiled - before.compiled);

    let direct = plan_requests(args.seed, 2 << 20, &ctx.hot, &ctx.hot_json);
    m.set(
        "service.direct_jobs_per_s",
        direct_jobs_per_s(&ctx.service, &direct, ops),
    );

    let lines: Vec<&str> = planned
        .iter()
        .map(|p| p.line.as_str())
        .chain(traced.jobs.iter().map(|j| j.result_line.as_str()))
        .collect();
    let (parse, print) = json_cost(&lines);
    m.set("json.parse_us_per_kb", parse);
    m.set("json.print_us_per_kb", print);

    // The same mix with the observability layer off, against the timed
    // reps, which ran with it on.
    let mut quiet = setup(false, args.seed);
    let mut off_samples = Samples::default();
    for rep in 0..OBS_OFF_REPS {
        let planned = plan_requests(args.seed, (3 << 20) + rep, &quiet.hot, &quiet.hot_json);
        let off = run_rep(&mut quiet.clients, &planned);
        off_samples.take(&off, &planned, ops);
    }
    m.set(
        "obs.overhead_frac",
        off_samples.jobs_per_s() / samples.jobs_per_s() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        let hot = gen::circuits(&HOT_CIRCUITS);
        let hot_json: Vec<String> = hot
            .iter()
            .map(|c| wire::circuit_to_json(c).to_json())
            .collect();
        let lines = |seed, rep| -> Vec<String> {
            plan_requests(seed, rep, &hot, &hot_json)
                .into_iter()
                .map(|p| p.line)
                .collect()
        };
        let a = lines(5, 0);
        assert_eq!(a.len(), REQUESTS_PER_REP);
        assert_eq!(a, lines(5, 0));
        assert_ne!(a, lines(6, 0));
        assert_ne!(a, lines(5, 1));
        // Every line is a submit the service's own decoder accepts.
        for line in &a {
            let v = tqsim_json::parse(line).expect("submit line parses");
            assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
            assert!(v.get("circuit").and_then(|c| c.get("gates")).is_some());
        }
    }

    /// At the default sizing the run has the hundred jobs a p90 needs, and
    /// four in five of them find their plan cached.
    #[test]
    fn default_sizing_supports_a_p90_and_the_hit_rate() {
        let jobs = REQUESTS_PER_REP * REPS as usize;
        let latencies: Vec<f64> = (1..=jobs).map(|ms| ms as f64).collect();
        assert!(percentile(&latencies, 90).is_some_and(|p90| p90 > 0.0));
        let hot = gen::requests(1, 0, REQUESTS_PER_REP)
            .iter()
            .filter(|r| r.hot.is_some())
            .count();
        assert_eq!(hot * 5, REQUESTS_PER_REP * 4);
    }

    #[test]
    fn result_counts_reads_the_wire_histogram() {
        let v = tqsim_json::parse(r#"{"counts":[[0,2],[5,1]]}"#).expect("parses");
        let counts = result_counts(&v, 3);
        assert_eq!((counts.get(0), counts.get(5), counts.total()), (2, 1, 3));
        // A deliberately wrong expected histogram is told apart.
        let mut wrong = Counts::new(3);
        wrong.increment(0);
        assert_ne!(counts, wrong);
    }
}
