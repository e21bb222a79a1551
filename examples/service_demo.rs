//! Service front-end demo: spin up `tqsim-service` in-process, expose it
//! on a loopback TCP port, and drive three concurrent clients over the
//! line-delimited JSON protocol — watching outcome chunks stream in while
//! the jobs are still executing, then dumping the service stats (including
//! the plan-cache hits: all three clients submit the same circuit, which
//! compiles exactly once in the engine's plan cache).
//!
//! Run with: `cargo run --release --example service_demo`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tqsim_json as json;
use tqsim_repro::circuit::generators;
use tqsim_repro::service::{wire, Service, ServiceConfig};

/// One request/response round-trip on the line-delimited protocol.
fn request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> json::Value {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    json::parse(reply.trim()).expect("JSON reply")
}

fn main() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(3),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    println!("tqsim-service listening on {addr}\n");

    // Three clients, one shared circuit: the first submission compiles the
    // plan, the other two hit the engine's plan cache.
    let circuit = generators::qft(8);
    let circuit_json = wire::circuit_to_json(&circuit).to_json();

    let handles: Vec<_> = (0..3)
        .map(|client_idx| {
            let circuit_json = circuit_json.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);

                let submit = format!(
                    "{{\"op\":\"submit\",\"client\":\"client-{client_idx}\",\
                     \"shots\":256,\"seed\":{client_idx},\"noise\":\"sycamore\",\
                     \"strategy\":{{\"kind\":\"custom\",\"arities\":[32,4,2]}},\
                     \"circuit\":{circuit_json}}}"
                );
                let reply = request(&mut writer, &mut reader, &submit);
                assert_eq!(reply.get("ok").and_then(json::Value::as_bool), Some(true));
                let job = reply.get("job").and_then(json::Value::as_u64).unwrap();
                println!("client-{client_idx}: submitted → job {job}");

                // Stream: chunks arrive while the tree is still executing.
                writer
                    .write_all(format!("{{\"op\":\"stream\",\"job\":{job}}}\n").as_bytes())
                    .unwrap();
                writer.flush().unwrap();
                let (mut chunks, mut outcomes) = (0u64, 0u64);
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let value = json::parse(line.trim()).expect("JSON stream line");
                    if let Some(chunk) = value.get("chunk").and_then(json::Value::as_arr) {
                        chunks += 1;
                        outcomes += chunk.len() as u64;
                        if chunks % 64 == 0 {
                            println!(
                                "client-{client_idx}: job {job} … {outcomes} outcomes \
                                 in {chunks} chunks"
                            );
                        }
                    } else {
                        println!(
                            "client-{client_idx}: job {job} {} — {outcomes} outcomes \
                             in {chunks} chunks",
                            value.get("status").and_then(json::Value::as_str).unwrap()
                        );
                        break;
                    }
                }

                let result = request(
                    &mut writer,
                    &mut reader,
                    &format!("{{\"op\":\"result\",\"job\":{job}}}"),
                );
                println!(
                    "client-{client_idx}: job {job} total={} distinct={} tree={} wall={}ms",
                    result.get("total").and_then(json::Value::as_u64).unwrap(),
                    result
                        .get("distinct")
                        .and_then(json::Value::as_u64)
                        .unwrap(),
                    result.get("tree").and_then(json::Value::as_str).unwrap(),
                    result.get("wall_ms").and_then(json::Value::as_f64).unwrap() as u64,
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let stats = service.stats();
    println!("\nfinal ServiceStats: {stats:#?}");
    assert_eq!(stats.cache.compiled, 1, "one compile for three clients");
    assert_eq!(stats.cache.hits, 2);
    server.stop();
    service.shutdown();
    println!("\nservice drained and stopped.");
}
