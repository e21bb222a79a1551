//! Batched multi-job submission on the `tqsim-engine` work-stealing pool,
//! with the engine plan cache's hit and miss counts.
//!
//! A realistic service workload plans *many* related simulations at once —
//! here a seed sweep (same circuit, same plan, different RNG streams) plus
//! a shot-budget sweep and a second circuit family. Every job plans
//! through the engine's plan cache, so each distinct `(circuit, noise,
//! shots, strategy)` combination is planned once and its materialised
//! subcircuits are shared across jobs (and across later batches); every
//! simulation tree fans out over one persistent worker pool.
//!
//! Run with: `cargo run --release --example parallel_engine`

use std::time::Instant;
use tqsim_circuit::generators;
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let engine = Engine::new(EngineConfig::default().parallelism(workers));
    println!("engine: {workers} workers (work-stealing, pooled state buffers)\n");

    let qft = generators::qft(10);
    let bv = generators::bv(10);
    let noise = NoiseModel::sycamore();

    // 8 seed-sweep jobs sharing one plan, 2 jobs with their own plans.
    let mut jobs: Vec<JobSpec<'_>> = (0..8)
        .map(|seed| {
            JobSpec::new(&qft)
                .noise(noise.clone())
                .shots(512)
                .seed(seed)
        })
        .collect();
    jobs.push(JobSpec::new(&qft).noise(noise.clone()).shots(2048).seed(99));
    jobs.push(JobSpec::new(&bv).noise(noise.clone()).shots(512).seed(7));

    let n_jobs = jobs.len();
    let t0 = Instant::now();
    // Every job starts at once; their tasks interleave on the pool.
    let result = engine.submit(jobs).run().expect("all jobs plannable");
    let elapsed = t0.elapsed();

    println!(
        "{:>4}  {:>14}  {:>8}  {:>9}",
        "job", "tree", "outcomes", "gates"
    );
    for (i, job) in result.jobs.iter().enumerate() {
        println!(
            "{:>4}  {:>14}  {:>8}  {:>9}",
            i,
            job.tree.to_string(),
            job.counts.total(),
            job.ops.total_gates(),
        );
    }

    let pool = engine.pool_stats();
    println!(
        "\nbatch: {n_jobs} jobs in {:.1} ms",
        elapsed.as_secs_f64() * 1e3
    );
    let plans = engine.plan_cache().stats();
    println!(
        "plan cache: {} misses, {} hits (planning amortised {:.0}% of jobs)",
        plans.misses,
        plans.hits,
        100.0 * plans.hits as f64 / n_jobs as f64
    );
    println!(
        "state pool: {} allocations, {} reuses ({:.1} reuses per allocation)",
        pool.allocations,
        pool.reuses,
        pool.reuses as f64 / pool.allocations.max(1) as f64,
    );
    // Overlapped jobs share the pool; on this fresh engine its mark is the
    // batch's footprint.
    println!(
        "batch peak: {} live buffers ({:.1} KiB), the pool high-water mark",
        pool.high_water,
        pool.high_water_bytes as f64 / 1024.0,
    );
}
