//! Observability-overhead bench: the same multi-client service workload
//! with the metrics layer enabled vs disabled.
//!
//! The obs crate's claim is that instrumentation is cheap enough to leave
//! on: every hot-path touch is a relaxed atomic (histogram `record`,
//! gauge set, counter add), so throughput with observability on should stay
//! within 5% of the uninstrumented run. Each configuration takes the best
//! of 3 trials to shave scheduler noise. The ratio is printed and recorded,
//! never asserted: it is wall-clock, and trips on a loaded host.
//!
//! Also checks the stage-accounting invariant on the instrumented run:
//! the `queue_wait`, `compile` and `execute` histograms telescope over
//! the same per-job instants, so their sums add up to the `e2e` sum
//! exactly.
//!
//! Writes `BENCH_obs.json` (override with `TQSIM_BENCH_JSON`) before
//! asserting, so a failed acceptance still leaves the artifact behind.

use std::sync::Arc;
use std::time::Instant;
use tqsim::Strategy;
use tqsim_bench::{banner, Scale, Table};
use tqsim_circuit::{generators, Circuit};
use tqsim_service::{obs, JobRequest, Service, ServiceConfig, Ticket};

struct Trial {
    wall_secs: f64,
    jobs_per_sec: f64,
    snapshot: Option<obs::Snapshot>,
}

/// One full workload pass: submit everything, then drain.
fn drive(observability: bool, circuits: &[Arc<Circuit>], jobs_per_circuit: usize) -> Trial {
    let service = Service::start(
        ServiceConfig::default()
            .parallelism(2)
            .max_concurrent_jobs(4)
            .queue_capacity(circuits.len() * jobs_per_circuit + 1)
            .observability(observability),
    );
    let t0 = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::new();
    for rep in 0..jobs_per_circuit {
        for (ci, circuit) in circuits.iter().enumerate() {
            let ticket = service
                .submit(
                    &format!("client-{}", (rep + ci) % 3),
                    JobRequest::new(Arc::clone(circuit))
                        .shots(32)
                        .strategy(Strategy::Custom {
                            arities: vec![8, 4],
                        })
                        .seed((rep * circuits.len() + ci) as u64),
                )
                .expect("workload sized within queue capacity");
            tickets.push(ticket);
        }
    }
    for ticket in &tickets {
        ticket.wait().expect("job completes");
    }
    let wall = t0.elapsed().as_secs_f64();
    let snapshot = service.metrics();
    service.shutdown();
    Trial {
        wall_secs: wall,
        jobs_per_sec: tickets.len() as f64 / wall.max(1e-9),
        snapshot,
    }
}

fn best_of(trials: usize, observability: bool, circuits: &[Arc<Circuit>], jobs: usize) -> Trial {
    (0..trials)
        .map(|_| drive(observability, circuits, jobs))
        .max_by(|a, b| a.jobs_per_sec.total_cmp(&b.jobs_per_sec))
        .expect("at least one trial")
}

fn stage_sum(snap: &obs::Snapshot, stage: &str) -> u64 {
    snap.histogram("tqsim_job_stage_ns", &[("stage", stage)])
        .unwrap_or_else(|| panic!("stage {stage} registered"))
        .sum
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "obs",
        "service throughput with the metrics layer on vs off",
        &scale,
    );

    let n: u16 = if scale.full { 12 } else { 10 };
    let jobs_per_circuit = if scale.full { 20 } else { 10 };
    let trials = 3;
    let circuits: Vec<Arc<Circuit>> =
        vec![Arc::new(generators::qft(n)), Arc::new(generators::bv(n))];
    let total_jobs = circuits.len() * jobs_per_circuit;

    let plain = best_of(trials, false, &circuits, jobs_per_circuit);
    let instrumented = best_of(trials, true, &circuits, jobs_per_circuit);
    let relative = instrumented.jobs_per_sec / plain.jobs_per_sec.max(1e-9);

    let snap = instrumented
        .snapshot
        .as_ref()
        .expect("instrumented run has a registry");
    let queue_wait = stage_sum(snap, "queue_wait");
    let compile = stage_sum(snap, "compile");
    let execute = stage_sum(snap, "execute");
    let e2e = stage_sum(snap, "e2e");
    let e2e_count = snap
        .histogram("tqsim_job_stage_ns", &[("stage", "e2e")])
        .expect("e2e registered")
        .count;

    let mut table = Table::new(&["observability", "jobs", "wall", "jobs/sec"]);
    for (label, t) in [("off", &plain), ("on", &instrumented)] {
        table.row(&[
            label.to_string(),
            total_jobs.to_string(),
            tqsim_bench::fmt_secs(t.wall_secs),
            format!("{:.1}", t.jobs_per_sec),
        ]);
    }
    table.print();
    println!("relative throughput (on/off, best of {trials}): {relative:.3}");
    println!(
        "stage sums: queue_wait+compile+execute = {} ns, e2e = {e2e} ns",
        queue_wait + compile + execute
    );

    // Hand-rolled JSON (no serde in the offline workspace).
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"qubits\": {n},\n  \"jobs\": {total_jobs},\n  \
         \"trials\": {trials},\n  \"jobs_per_sec_off\": {:.2},\n  \
         \"jobs_per_sec_on\": {:.2},\n  \"relative_throughput\": {relative:.4},\n  \
         \"stage_sum_ns\": {},\n  \"e2e_sum_ns\": {e2e},\n  \
         \"e2e_count\": {e2e_count}\n}}\n",
        plain.jobs_per_sec,
        instrumented.jobs_per_sec,
        queue_wait + compile + execute,
    );
    let path = std::env::var("TQSIM_BENCH_JSON").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("\nwrote {path}");

    // Acceptance: the stage accounting telescopes exactly.
    assert_eq!(
        queue_wait + compile + execute,
        e2e,
        "acceptance: stage sums must telescope to end-to-end"
    );
    assert_eq!(
        e2e_count as usize, total_jobs,
        "acceptance: every completed job recorded exactly once"
    );
    println!("acceptance: stage sums telescope to e2e ✓");
}
