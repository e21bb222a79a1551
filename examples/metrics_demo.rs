//! Observability demo: spin up `tqsim-service` on a loopback TCP port,
//! drive a few streaming clients through the wire protocol, then fetch
//! `{"op":"metrics"}` and pretty-print the per-stage latency table
//! (p50/p90/p99 per pipeline stage), the scheduler gauges, and the head
//! of the Prometheus text exposition.
//!
//! Run with: `cargo run --release --example metrics_demo`

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
    json::parse(reply.trim()).expect("reply is JSON")
}

fn field_f64(v: &json::Value, key: &str) -> f64 {
    v.get(key).and_then(json::Value::as_f64).unwrap_or(0.0)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn main() {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(2),
    );
    let server = wire::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    println!("tqsim-service listening on {addr}\n");

    // A few streaming clients: two share a circuit (plan-cache hit), one
    // submits a distinct one.
    let shared = wire::circuit_to_json(&generators::qft(8)).to_json();
    let distinct = wire::circuit_to_json(&generators::bv(8)).to_json();
    let handles: Vec<_> = (0..3)
        .map(|client_idx| {
            let circuit_json = if client_idx < 2 {
                shared.clone()
            } else {
                distinct.clone()
            };
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let submit = format!(
                    "{{\"op\":\"submit\",\"client\":\"client-{client_idx}\",\
                     \"circuit\":{circuit_json},\"shots\":64,\
                     \"strategy\":{{\"kind\":\"custom\",\"arities\":[8,4,2]}},\
                     \"seed\":{client_idx}}}"
                );
                let reply = request(&mut writer, &mut reader, &submit);
                let job = reply.get("job").and_then(json::Value::as_u64).unwrap();
                // Drain the outcome stream, then the job is terminal.
                writer
                    .write_all(format!("{{\"op\":\"stream\",\"job\":{job}}}\n").as_bytes())
                    .unwrap();
                let mut outcomes = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let msg = json::parse(line.trim()).unwrap();
                    if msg.get("done").is_some() {
                        break;
                    }
                    outcomes += msg
                        .get("chunk")
                        .and_then(json::Value::as_arr)
                        .map_or(0, <[json::Value]>::len);
                }
                println!("client-{client_idx}: job {job} streamed {outcomes} outcomes");
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Fetch the structured snapshot over the same protocol the clients use.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let metrics = request(&mut writer, &mut reader, r#"{"op":"metrics"}"#);

    println!(
        "\nper-stage job latency (uptime {:.1}s):",
        field_f64(&metrics, "uptime_secs")
    );
    println!(
        "  {:<12} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    let histograms = metrics
        .get("histograms")
        .and_then(json::Value::as_arr)
        .expect("histograms section");
    for stage in ["queue_wait", "compile", "execute", "stream", "e2e"] {
        let h = histograms
            .iter()
            .find(|h| {
                h.get("name").and_then(json::Value::as_str) == Some("tqsim_job_stage_ns")
                    && h.get("labels")
                        .and_then(|l| l.get("stage"))
                        .and_then(json::Value::as_str)
                        == Some(stage)
            })
            .expect("stage histogram");
        println!(
            "  {:<12} {:>6} {:>12} {:>12} {:>12} {:>12}",
            stage,
            field_f64(h, "count") as u64,
            fmt_ns(field_f64(h, "p50_ns")),
            fmt_ns(field_f64(h, "p90_ns")),
            fmt_ns(field_f64(h, "p99_ns")),
            fmt_ns(field_f64(h, "max_ns")),
        );
    }

    println!("\nselected counters and gauges:");
    for section in ["counters", "gauges"] {
        for m in metrics.get(section).and_then(json::Value::as_arr).unwrap() {
            let name = m.get("name").and_then(json::Value::as_str).unwrap_or("?");
            if matches!(
                name,
                "tqsim_jobs_completed_total"
                    | "tqsim_plan_cache_hits_total"
                    | "tqsim_plan_cache_compiled_total"
                    | "tqsim_outcomes_streamed_total"
                    | "tqsim_queue_depth"
                    | "tqsim_running_high_water"
            ) {
                println!("  {name} = {}", field_f64(m, "value"));
            }
        }
    }

    // The same registry renders as a Prometheus text exposition.
    let text = request(
        &mut writer,
        &mut reader,
        r#"{"op":"metrics","format":"text"}"#,
    );
    let exposition = text.get("text").and_then(json::Value::as_str).unwrap();
    println!("\ntext exposition (first 10 lines):");
    for line in exposition.lines().take(10) {
        println!("  {line}");
    }

    server.stop();
    service.shutdown();
}
