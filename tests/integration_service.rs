//! Service-layer integration tests: concurrency determinism (N concurrent
//! clients receive `Counts` bit-identical to a serial `Engine::submit`),
//! cross-request plan-cache accounting, and a loopback smoke test of the
//! TCP wire protocol.

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tqsim::{Counts, RunResult, Strategy as PlanStrategy};
use tqsim_circuit::{generators, Circuit, Gate, GateKind};
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_json as json;
use tqsim_noise::NoiseModel;
use tqsim_service::{wire, BackendPolicy, JobRequest, Service, ServiceConfig, Ticket};

/// Random gates over the wire-transportable catalogue.
fn arb_gate(n: u16) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let angle = -6.3f64..6.3;
    prop_oneof![
        (q.clone(), 0usize..8).prop_map(move |(q, k)| {
            let kind = [
                GateKind::X,
                GateKind::Y,
                GateKind::Z,
                GateKind::H,
                GateKind::S,
                GateKind::T,
                GateKind::Sx,
                GateKind::Id,
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), angle.clone(), 0usize..4).prop_map(move |(q, t, k)| {
            let kind = [
                GateKind::Rx(t),
                GateKind::Rz(t),
                GateKind::Phase(t),
                GateKind::Ry(t),
            ][k];
            Gate::new(kind, &[q])
        }),
        (q.clone(), q, angle, 0usize..5).prop_filter_map("distinct qubits", move |(a, b, t, k)| {
            if a == b {
                return None;
            }
            let kind = [
                GateKind::Cx,
                GateKind::Cz,
                GateKind::CPhase(t),
                GateKind::Swap,
                GateKind::Rzz(t),
            ][k];
            Some(Gate::new(kind, &[a, b]))
        }),
    ]
}

fn arb_circuit(n: u16, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 4..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(*g.kind(), g.qubits());
        }
        c
    })
}

fn noise_for(idx: usize) -> NoiseModel {
    if idx == 0 {
        NoiseModel::ideal()
    } else {
        NoiseModel::sycamore()
    }
}

/// Serial reference: one batch on a one-worker engine.
fn serial_reference(circuit: &Circuit, noise: &NoiseModel, seeds: &[u64]) -> Vec<RunResult> {
    let engine = Engine::new(EngineConfig::default().parallelism(1));
    engine
        .submit(
            seeds
                .iter()
                .map(|&seed| {
                    JobSpec::new(circuit)
                        .noise(noise.clone())
                        .shots(12)
                        .strategy(PlanStrategy::Custom {
                            arities: vec![4, 3],
                        })
                        .seed(seed)
                })
                .collect(),
        )
        .run()
        .unwrap()
        .jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: N concurrent clients submitting seeded
    /// jobs (ideal + sycamore noise) receive `Counts` bit-identical to a
    /// serial `Engine::submit`, at service concurrency 1, 2 and 4.
    #[test]
    fn concurrent_clients_match_serial_engine_submit(
        circuit in arb_circuit(5, 20),
        noise_idx in 0usize..2,
        base_seed in 0u64..1000,
    ) {
        let noise = noise_for(noise_idx);
        let seeds: Vec<u64> = (0..3).map(|i| base_seed + i).collect();
        let reference = serial_reference(&circuit, &noise, &seeds);
        let shared = Arc::new(circuit);
        for concurrency in [1usize, 2, 4] {
            let service = Service::start(
                ServiceConfig::default()
                    .parallelism(2)
                    .max_concurrent_jobs(concurrency),
            );
            // All clients submit before anyone waits, so jobs genuinely
            // overlap at concurrency > 1.
            let tickets: Vec<Ticket> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    service
                        .submit(
                            &format!("client-{i}"),
                            JobRequest::new(Arc::clone(&shared))
                                .noise(noise.clone())
                                .shots(12)
                                .strategy(PlanStrategy::Custom {
                                    arities: vec![4, 3],
                                })
                                .seed(seed),
                        )
                        .unwrap()
                })
                .collect();
            for (i, ticket) in tickets.iter().enumerate() {
                let result = ticket.wait().unwrap();
                prop_assert_eq!(
                    &result.counts,
                    &reference[i].counts,
                    "concurrency {}, client {}",
                    concurrency,
                    i
                );
                prop_assert_eq!(&result.ops, &reference[i].ops);
            }
            // Identical planning inputs: one compile, the rest cache hits.
            let stats = service.stats();
            prop_assert_eq!(stats.cache.compiled, 1);
            prop_assert_eq!(stats.cache.hits, seeds.len() as u64 - 1);
            service.shutdown();
        }
    }
}

#[test]
fn cache_accounting_one_compile_per_distinct_circuit() {
    // The acceptance criterion in miniature: a repeated-circuit workload
    // shows cross-request hits with compile count == distinct circuits.
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let qft = Arc::new(generators::qft(6));
    let rebuilt = Arc::new(generators::qft(6)); // structurally equal, new allocation
    let bv = Arc::new(generators::bv(6));
    let submissions = [
        (Arc::clone(&qft), 1u64),
        (Arc::clone(&rebuilt), 2),
        (Arc::clone(&bv), 3),
        (Arc::clone(&qft), 4),
        (rebuilt, 5),
        (bv, 6),
    ];
    let tickets: Vec<Ticket> = submissions
        .iter()
        .map(|(circuit, seed)| {
            service
                .submit(
                    "repeat",
                    JobRequest::new(Arc::clone(circuit)).shots(32).seed(*seed),
                )
                .unwrap()
        })
        .collect();
    for ticket in &tickets {
        ticket.wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.cache.compiled, 2, "qft and bv compile once each");
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.cache.hits, 4, "all repeats hit, across allocations");
    assert_eq!(stats.completed, 6);
    service.shutdown();
}

// ---------------------------------------------------------------- wire

struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        let writer = stream.try_clone().expect("clone stream");
        WireClient {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> json::Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        json::parse(line.trim()).expect("response is JSON")
    }

    fn request(&mut self, line: &str) -> json::Value {
        self.send(line);
        self.recv()
    }
}

#[test]
fn tcp_loopback_smoke() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // Submit a QFT over the wire with a pinned custom tree.
    let circuit = generators::qft(5);
    let submit = json::Value::Obj(vec![
        ("op".into(), json::str_val("submit")),
        ("client".into(), json::str_val("wire-smoke")),
        ("circuit".into(), wire::circuit_to_json(&circuit)),
        ("shots".into(), json::num_u64(24)),
        ("seed".into(), json::num_u64(7)),
        ("noise".into(), json::str_val("sycamore")),
        (
            "strategy".into(),
            json::parse(r#"{"kind":"custom","arities":[6,4]}"#).unwrap(),
        ),
    ])
    .to_json();

    let mut client = WireClient::connect(addr);
    let reply = client.request(&submit);
    assert_eq!(reply.get("ok").and_then(json::Value::as_bool), Some(true));
    let job = reply.get("job").and_then(json::Value::as_u64).unwrap();

    // Stream the outcomes (a second connection, as a real consumer would).
    let mut streamer = WireClient::connect(addr);
    streamer.send(&format!("{{\"op\":\"stream\",\"job\":{job}}}"));
    let mut streamed: Vec<u64> = Vec::new();
    loop {
        let line = streamer.recv();
        if line.get("done").is_some() {
            assert_eq!(
                line.get("status").and_then(json::Value::as_str),
                Some("done")
            );
            assert_eq!(
                line.get("total").and_then(json::Value::as_u64),
                Some(streamed.len() as u64)
            );
            break;
        }
        let chunk = line.get("chunk").and_then(json::Value::as_arr).unwrap();
        streamed.extend(chunk.iter().map(|v| v.as_u64().unwrap()));
    }
    assert_eq!(streamed.len(), 24, "6×4 tree leaves");

    // Poll reports completion.
    let poll = client.request(&format!("{{\"op\":\"poll\",\"job\":{job}}}"));
    assert_eq!(
        poll.get("status").and_then(json::Value::as_str),
        Some("done")
    );

    // The final result matches an identical in-process run bit for bit
    // (wire transport preserves the circuit exactly).
    let result = client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
    let reference = serial_reference_for_smoke(&circuit);
    assert_eq!(
        result.get("total").and_then(json::Value::as_u64),
        Some(reference.counts.total())
    );
    assert_eq!(wire_counts(&result, 5), reference.counts);
    // Streamed outcomes equal the final histogram as a multiset.
    let mut streamed_counts = Counts::new(5);
    for o in streamed {
        streamed_counts.increment(o);
    }
    assert_eq!(streamed_counts, reference.counts);

    // Stats verb shows the lifecycle.
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("completed").and_then(json::Value::as_u64),
        Some(1)
    );
    assert!(stats.get("cache").is_some());

    // Error paths stay on-protocol, each with its code.
    for (line, code) in [
        (r#"{"op":"poll","job":999999}"#, "unknown_job"),
        ("not json at all", "bad_request"),
        (r#"{"op":"poll"}"#, "bad_request"),
        (r#"{"op":"launch"}"#, "bad_request"),
        (
            r#"{"op":"submit","shots":0,"circuit":{"n":1,"gates":[["h",0]]}}"#,
            "bad_request",
        ),
        // Each leaf would allocate ~34 GB for this; the codec refuses it,
        // so the connection answers and serves the next line.
        (
            r#"{"op":"submit","circuit":{"n":1,"gates":[["h",0]]},"leaf_samples":4294967295}"#,
            "bad_request",
        ),
        // The noise model constructors panic on this; the codec refuses it
        // first, so the connection answers and serves the next line.
        (
            r#"{"op":"submit","circuit":{"n":1,"gates":[["h",0]]},"noise":{"kind":"depolarizing","p1":5,"p2":0.01}}"#,
            "bad_request",
        ),
    ] {
        let reply = client.request(line);
        assert_eq!(reply.get("ok").and_then(json::Value::as_bool), Some(false));
        assert_eq!(
            reply.get("code").and_then(json::Value::as_str),
            Some(code),
            "{line}"
        );
    }
    let cancel = client.request(&format!("{{\"op\":\"cancel\",\"job\":{job}}}"));
    assert_eq!(
        cancel.get("cancelled").and_then(json::Value::as_bool),
        Some(false),
        "already done ⇒ cancel is a no-op"
    );

    server.stop();
    service.shutdown();
}

/// A UCP/XCP depth past the circuit's gate count fails its job in
/// planning before anything is sized by it (at `k = 2^50` an arity vector
/// would take 8 PiB, and a failed allocation aborts the process), and the
/// service keeps answering.
#[test]
fn wire_job_deeper_than_its_circuit_fails_and_the_service_answers() {
    let service = Service::start(ServiceConfig::default().parallelism(1));
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.addr());
    for kind in ["uniform", "exponential"] {
        let reply = client.request(&format!(
            r#"{{"op":"submit","circuit":{{"n":1,"gates":[["h",0]]}},"strategy":{{"kind":"{kind}","k":{}}}}}"#,
            1u64 << 50
        ));
        assert_eq!(reply.get("ok").and_then(json::Value::as_bool), Some(true));
        let job = reply.get("job").and_then(json::Value::as_u64).unwrap();
        let result = client.request(&format!(r#"{{"op":"result","job":{job}}}"#));
        assert_eq!(
            result.get("code").and_then(json::Value::as_str),
            Some("job_failed"),
            "{kind}"
        );
    }
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("failed").and_then(json::Value::as_u64), Some(2));
    server.stop();
    service.shutdown();
}

/// The histogram of a `result` reply.
fn wire_counts(result: &json::Value, n_qubits: u16) -> Counts {
    let mut counts = Counts::new(n_qubits);
    for pair in result.get("counts").and_then(json::Value::as_arr).unwrap() {
        let pair = pair.as_arr().unwrap();
        let outcome = pair[0].as_u64().unwrap();
        for _ in 0..pair[1].as_u64().unwrap() {
            counts.increment(outcome);
        }
    }
    counts
}

/// `fusion_qubits` and `fusion_boundary` used to select plan shapes that no
/// longer exist, and `fusion` a per-gate replay mode that no longer exists.
/// Every value of each gave bit-identical `Counts`, so a client that still
/// sends them is served like one that does not: they are unknown keys now,
/// accepted and ignored — whatever they hold — and compile no second plan.
#[test]
fn wire_ignores_the_retired_fusion_keys() {
    let service = Service::start(ServiceConfig::default().parallelism(2));
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.addr());
    let circuit = generators::qft(5);
    let mut run = |extra: &str| {
        let line = format!(
            r#"{{"op":"submit","client":"legacy","circuit":{},"shots":24,"seed":7,"noise":"sycamore","strategy":{{"kind":"custom","arities":[6,4]}}{extra}}}"#,
            wire::circuit_to_json(&circuit).to_json()
        );
        let reply = client.request(&line);
        assert_eq!(
            reply.get("ok").and_then(json::Value::as_bool),
            Some(true),
            "{extra}: {reply:?}"
        );
        let job = reply.get("job").and_then(json::Value::as_u64).unwrap();
        let result = client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
        wire_counts(&result, 5)
    };
    let plain = run("");
    assert_eq!(plain.total(), 24);
    let compiled = service.stats().cache.compiled;
    for extra in [
        r#","fusion_qubits":5"#,
        r#","fusion_boundary":true"#,
        r#","fusion_qubits":3,"fusion_boundary":false"#,
        r#","fusion_qubits":"wide","fusion_boundary":9"#,
        r#","fusion":false"#,
        r#","fusion":"x""#,
    ] {
        assert_eq!(run(extra), plain, "{extra}");
    }
    // Every row is the plain request's plan: no key reaches the cache.
    assert_eq!(service.stats().cache.compiled, compiled);
    server.stop();
    service.shutdown();
}

fn serial_reference_for_smoke(circuit: &Circuit) -> RunResult {
    let engine = Engine::new(EngineConfig::default().parallelism(1));
    engine
        .submit(vec![JobSpec::new(circuit)
            .shots(24)
            .strategy(PlanStrategy::Custom {
                arities: vec![6, 4],
            })
            .seed(7)])
        .run()
        .unwrap()
        .jobs
        .remove(0)
}

#[test]
fn wire_backpressure_reports_queue_full() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(1)
            .max_concurrent_jobs(1)
            .queue_capacity(1),
    );
    service.pause_scheduling();
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.addr());
    let submit = |client: &mut WireClient, seed: u64| {
        let circuit = generators::bv(5);
        let line = json::Value::Obj(vec![
            ("op".into(), json::str_val("submit")),
            ("circuit".into(), wire::circuit_to_json(&circuit)),
            ("shots".into(), json::num_u64(8)),
            ("seed".into(), json::num_u64(seed)),
        ])
        .to_json();
        client.request(&line)
    };
    let first = submit(&mut client, 1);
    assert_eq!(first.get("ok").and_then(json::Value::as_bool), Some(true));
    let refused = submit(&mut client, 2);
    assert_eq!(
        refused.get("ok").and_then(json::Value::as_bool),
        Some(false)
    );
    let msg = refused.get("error").and_then(json::Value::as_str).unwrap();
    assert!(msg.contains("queue full"), "{msg}");
    service.resume_scheduling();
    let job = first.get("job").and_then(json::Value::as_u64).unwrap();
    let result = client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
    assert_eq!(result.get("ok").and_then(json::Value::as_bool), Some(true));
    server.stop();
    service.shutdown();
}

// ------------------------------------------------------- backend placement

#[test]
fn service_routes_over_threshold_jobs_to_the_cluster_backend() {
    // The engine×cluster acceptance at the service layer: a job at or
    // above the policy's width threshold executes on the cluster-backed
    // engine (visible in the per-backend counters), with Counts
    // bit-identical to the same request on a single-node-only service.
    let wide_circuit = Arc::new(generators::qft(9));
    let narrow_circuit = Arc::new(generators::bv(6));
    let wide_request = |circuit: &Arc<Circuit>| {
        JobRequest::new(Arc::clone(circuit))
            .shots(24)
            .strategy(PlanStrategy::Custom {
                arities: vec![4, 3, 2],
            })
            .seed(17)
    };

    let single = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let reference = single
        .submit("ref", wide_request(&wide_circuit))
        .unwrap()
        .wait()
        .unwrap();
    let single_stats = single.stats();
    assert_eq!(single_stats.cluster_jobs, 0);
    assert_eq!(single_stats.single_node_jobs, 1);
    single.shutdown();

    let routed = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2)
            .backend_policy(BackendPolicy::cluster_above(8, 4)),
    );
    let narrow = routed
        .submit(
            "a",
            JobRequest::new(Arc::clone(&narrow_circuit))
                .shots(8)
                .seed(1),
        )
        .unwrap();
    let wide = routed.submit("a", wide_request(&wide_circuit)).unwrap();
    narrow.wait().unwrap();
    let wide_result = wide.wait().unwrap();
    assert_eq!(
        wide_result.counts, reference.counts,
        "cluster placement must not change the histogram"
    );
    assert_eq!(wide_result.ops, reference.ops, "identical op accounting");
    let stats = routed.stats();
    assert_eq!(stats.cluster_jobs, 1, "wide job routed to the cluster");
    assert_eq!(stats.single_node_jobs, 1, "narrow job stayed single-node");
    routed.shutdown();
}

// ------------------------------------------------ wire hygiene + retention

#[test]
fn wire_forget_drops_finished_records_and_liveness_reclaims_abandoned_waits() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(1)
            .max_concurrent_jobs(1),
    );
    service.pause_scheduling();
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    let circuit = generators::bv(5);
    let submit_line = json::Value::Obj(vec![
        ("op".into(), json::str_val("submit")),
        ("circuit".into(), wire::circuit_to_json(&circuit)),
        ("shots".into(), json::num_u64(8)),
        ("seed".into(), json::num_u64(5)),
    ])
    .to_json();
    let mut client = WireClient::connect(addr);
    let submitted = client.request(&submit_line);
    let job = submitted.get("job").and_then(json::Value::as_u64).unwrap();

    // Abandon a connection mid-`result` on a job that cannot finish
    // (scheduling is paused): the handler's liveness poll must reclaim
    // the thread instead of parking it until shutdown.
    let mut abandoned = WireClient::connect(addr);
    abandoned.send(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
    drop(abandoned);
    // Give the poll interval a chance to fire and observe the hangup.
    std::thread::sleep(std::time::Duration::from_millis(600));

    // Live jobs are never forgotten.
    let refused = client.request(&format!("{{\"op\":\"forget\",\"job\":{job}}}"));
    assert_eq!(
        refused.get("forgotten").and_then(json::Value::as_bool),
        Some(false)
    );

    service.resume_scheduling();
    let result = client.request(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
    assert_eq!(result.get("ok").and_then(json::Value::as_bool), Some(true));

    // Finished ⇒ forget drops the record; later lookups see unknown job.
    let stats = client.request("{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("retained_jobs").and_then(json::Value::as_u64),
        Some(1)
    );
    let forgotten = client.request(&format!("{{\"op\":\"forget\",\"job\":{job}}}"));
    assert_eq!(
        forgotten.get("forgotten").and_then(json::Value::as_bool),
        Some(true)
    );
    let unknown = client.request(&format!("{{\"op\":\"poll\",\"job\":{job}}}"));
    assert_eq!(
        unknown.get("ok").and_then(json::Value::as_bool),
        Some(false)
    );
    assert_eq!(
        unknown.get("code").and_then(json::Value::as_str),
        Some("unknown_job")
    );
    // A forgotten (or never-existing) id errors like every other job verb
    // — forgotten:false is reserved for "still live, cancel first".
    let gone = client.request(&format!("{{\"op\":\"forget\",\"job\":{job}}}"));
    assert_eq!(gone.get("ok").and_then(json::Value::as_bool), Some(false));
    assert_eq!(
        gone.get("code").and_then(json::Value::as_str),
        Some("unknown_job")
    );
    let stats = client.request("{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("retained_jobs").and_then(json::Value::as_u64),
        Some(0)
    );
    assert_eq!(
        stats.get("forgotten").and_then(json::Value::as_u64),
        Some(1)
    );

    server.stop();
    service.shutdown();
}

#[test]
fn wire_metrics_histograms_match_completed_jobs() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // Three streaming submissions over the wire, fully drained.
    let circuit = generators::qft(5);
    let jobs = 3u64;
    let mut client = WireClient::connect(addr);
    for seed in 0..jobs {
        let submit = json::Value::Obj(vec![
            ("op".into(), json::str_val("submit")),
            ("client".into(), json::str_val("metrics-test")),
            ("circuit".into(), wire::circuit_to_json(&circuit)),
            ("shots".into(), json::num_u64(24)),
            ("seed".into(), json::num_u64(seed)),
            (
                "strategy".into(),
                json::parse(r#"{"kind":"custom","arities":[6,4]}"#).unwrap(),
            ),
        ])
        .to_json();
        let reply = client.request(&submit);
        let job = reply.get("job").and_then(json::Value::as_u64).unwrap();
        let mut streamer = WireClient::connect(addr);
        streamer.send(&format!("{{\"op\":\"stream\",\"job\":{job}}}"));
        loop {
            if streamer.recv().get("done").is_some() {
                break;
            }
        }
    }

    // Completion notifies the streamer slightly before the executor's
    // hook drops the in-flight gauge — wait for the drain.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.stats().running_now > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // The structured metrics verb: each stage histogram counted every
    // completed job exactly once.
    let metrics = client.request(r#"{"op":"metrics","events":true}"#);
    assert_eq!(metrics.get("ok").and_then(json::Value::as_bool), Some(true));
    let histograms = metrics
        .get("histograms")
        .and_then(json::Value::as_arr)
        .unwrap();
    let stage_count = |stage: &str| {
        histograms
            .iter()
            .find(|h| {
                h.get("name").and_then(json::Value::as_str) == Some("tqsim_job_stage_ns")
                    && h.get("labels")
                        .and_then(|l| l.get("stage"))
                        .and_then(json::Value::as_str)
                        == Some(stage)
            })
            .unwrap_or_else(|| panic!("stage {stage} missing"))
            .get("count")
            .and_then(json::Value::as_f64)
            .unwrap() as u64
    };
    for stage in ["queue_wait", "compile", "execute", "stream", "e2e"] {
        assert_eq!(stage_count(stage), jobs, "stage {stage}");
    }
    let find_scalar = |section: &str, name: &str| {
        metrics
            .get(section)
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))
            .and_then(|m| m.get("value"))
            .and_then(json::Value::as_f64)
    };
    assert_eq!(
        find_scalar("counters", "tqsim_jobs_completed_total"),
        Some(jobs as f64)
    );
    assert_eq!(
        find_scalar("counters", "tqsim_outcomes_streamed_total"),
        Some((jobs * 24) as f64),
        "every shot of every job was streamed"
    );
    assert!(find_scalar("counters", "tqsim_chunks_streamed_total").unwrap_or(0.0) > 0.0);
    assert!(find_scalar("counters", "tqsim_ops_total").unwrap_or(0.0) > 0.0);
    assert_eq!(find_scalar("gauges", "tqsim_queue_depth"), Some(0.0));
    assert!(metrics
        .get("uptime_secs")
        .and_then(json::Value::as_f64)
        .is_some());
    let events = metrics.get("events").and_then(json::Value::as_arr).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("stage").and_then(json::Value::as_str) == Some("done")));

    // The Prometheus exposition carries the same totals.
    let text_reply = client.request(r#"{"op":"metrics","format":"text"}"#);
    let text = text_reply
        .get("text")
        .and_then(json::Value::as_str)
        .unwrap();
    assert!(text.contains("# TYPE tqsim_job_stage_ns histogram"));
    assert!(text.contains(&format!("tqsim_jobs_completed_total {jobs}")));

    // Unknown formats are refused on-protocol.
    let bad = client.request(r#"{"op":"metrics","format":"xml"}"#);
    assert_eq!(bad.get("ok").and_then(json::Value::as_bool), Some(false));

    server.stop();
    service.shutdown();
}
