//! `paper_engine` — `paper_suite`'s seven jobs as one `Engine::submit`
//! batch at parallelism 2: node scheduling, work stealing and the state
//! pool beside the same kernels.

use super::tree::{well_formed, PAPER_SUITE};
use crate::report::{Metrics, Ops};
use crate::stats::median;
use crate::{gen, set_up, Args};
use std::sync::Arc;
use std::time::Instant;
use tqsim::{Counts, Strategy, Tqsim};
use tqsim_circuit::Circuit;
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;
use tqsim_obs::Registry;

const PARALLELISM: usize = 2;
/// Timed batches per run; the timing is their median.
const REPS: usize = 7;
/// Batches of each comparison a traced run adds: the same batch observed,
/// at parallelism 1, and job by job through `Tqsim::run`.
const TRACED_REPS: usize = 3;

struct Setup {
    circuits: Vec<Circuit>,
    engine: Engine,
    build_s: f64,
}

fn jobs<'c>(circuits: &'c [Circuit], noise: &NoiseModel, seed: u64) -> Vec<JobSpec<'c>> {
    let path = &PAPER_SUITE.headline;
    circuits
        .iter()
        .map(|c| {
            JobSpec::new(c)
                .noise(noise.clone())
                .shots(path.shots)
                .strategy((path.strategy)())
                .seed(seed)
        })
        .collect()
}

/// The untimed warm-up batch: a few flat shots of every circuit.
fn warm_up(engine: &Engine, circuits: &[Circuit], noise: &NoiseModel, seed: u64) {
    let warm = circuits
        .iter()
        .map(|c| {
            JobSpec::new(c)
                .noise(noise.clone())
                .shots(PAPER_SUITE.warm_shots)
                .strategy(Strategy::Baseline)
                .seed(seed)
        })
        .collect();
    engine.submit(warm).run().expect("flat plans");
}

fn setup(noise: &NoiseModel, seed: u64) -> Setup {
    let t = Instant::now();
    let circuits = gen::circuits(PAPER_SUITE.circuits);
    let build_s = t.elapsed().as_secs_f64();
    let engine = Engine::new(EngineConfig::new().parallelism(PARALLELISM));
    warm_up(&engine, &circuits, noise, seed);
    Setup {
        circuits,
        engine,
        build_s,
    }
}

/// One batch on `engine`: its wall, its outcomes and its histograms, or
/// `None` (and a failed op) if a result was malformed.
fn batch(
    engine: &Engine,
    circuits: &[Circuit],
    noise: &NoiseModel,
    seed: u64,
    ops: &mut Ops,
) -> Option<(f64, u64, Vec<Counts>)> {
    let t = Instant::now();
    let batch = engine
        .submit(jobs(circuits, noise, seed))
        .run()
        .expect("batch plans");
    let wall = t.elapsed().as_secs_f64();
    let shots = PAPER_SUITE.headline.shots;
    ops.op(batch.jobs.iter().all(|r| well_formed(r, shots)), || {
        "engine batch: malformed result".into()
    })
    .then(|| {
        let outcomes = batch.jobs.iter().map(|r| r.counts.total()).sum();
        let counts = batch.jobs.into_iter().map(|r| r.counts).collect();
        (wall, outcomes, counts)
    })
}

/// `(metric, registry counter, divisor)`.
const ENGINE_COUNTERS: [(&str, &str, f64); 4] = [
    ("engine.tasks", "tqsim_engine_tasks_total", 1.0),
    ("engine.steals", "tqsim_engine_steals_total", 1.0),
    ("engine.parks", "tqsim_engine_parks_total", 1.0),
    ("engine.busy_s", "tqsim_engine_busy_ns_total", 1e9),
];

/// The engine's worker counters summed over workers, in
/// [`ENGINE_COUNTERS`] order, from a registry snapshot.
fn engine_counters(registry: &Registry) -> [f64; 4] {
    let snap = registry.snapshot();
    ENGINE_COUNTERS.map(|(_, name, scale)| {
        snap.counters
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum::<u64>() as f64
            / scale
    })
}

pub fn run(args: &Args, ops: &mut Ops, m: &mut Metrics) {
    let noise = NoiseModel::sycamore();
    let seed = gen::sim_seed(args.seed, 1);
    let (ctx, setup_s) = set_up(|| setup(&noise, gen::sim_seed(args.seed, 0)));
    m.set("setup_s", setup_s);
    m.set("circuit.build_s", ctx.build_s);

    // Timed reps: the same batch on the same seed, so every rep must
    // return the same histograms.
    let mut walls = Vec::new();
    let mut first: Option<(u64, Vec<Counts>)> = None;
    for rep in 0..REPS {
        let Some((wall, outcomes, counts)) = batch(&ctx.engine, &ctx.circuits, &noise, seed, ops)
        else {
            continue;
        };
        let (_, expected) = first.get_or_insert((outcomes, counts.clone()));
        if ops.op(counts == *expected, || {
            format!("engine batch rep {rep}: Counts differ from the first rep's")
        }) {
            walls.push(wall);
        }
    }
    let (outcomes, counts) = first.expect("a well-formed batch");
    let us = median(&walls) * 1e6 / outcomes as f64;
    m.set("us_per_shot", us);
    m.set("engine.us_per_shot", us);
    let stats = ctx.engine.pool_stats();
    m.set("engine.pool_allocations", stats.allocations as f64);
    m.set("engine.pool_high_water", stats.high_water as f64);

    // The same batch at parallelism 1 must give the same Counts.
    let p1 = Engine::new(EngineConfig::new().parallelism(1));
    let mut p1_walls = Vec::new();
    for _ in 0..if args.trace { TRACED_REPS } else { 1 } {
        if let Some((wall, _, p1_counts)) = batch(&p1, &ctx.circuits, &noise, seed, ops) {
            ops.op(p1_counts == counts, || {
                "Engine Counts differ between parallelism 1 and 2".into()
            });
            p1_walls.push(wall);
        }
    }
    if !args.trace {
        return;
    }

    // Job by job through `Tqsim::run`: what the engine is compared with.
    let mut serial_walls = vec![Vec::new(); ctx.circuits.len()];
    for _ in 0..TRACED_REPS {
        for (circuit, walls) in ctx.circuits.iter().zip(&mut serial_walls) {
            let path = &PAPER_SUITE.headline;
            let sim = Tqsim::new(circuit)
                .noise(noise.clone())
                .shots(path.shots)
                .strategy((path.strategy)())
                .seed(seed);
            let t = Instant::now();
            let r = sim.run().expect("the workload's plan is valid");
            let wall = t.elapsed().as_secs_f64();
            if ops.op(well_formed(&r, path.shots), || {
                "serial reference: malformed result".into()
            }) {
                walls.push(wall);
            }
        }
    }
    let serial_wall: f64 = serial_walls.iter().map(|w| median(w)).sum();
    m.set(
        "engine.parallel_efficiency",
        serial_wall / (PARALLELISM as f64 * median(&walls)),
    );
    m.set(
        "engine.overhead_frac_p1",
        median(&p1_walls) / serial_wall - 1.0,
    );

    // The same batch on an engine that mirrors its workers into a
    // registry: the counters per batch, and what observing costs.
    let registry = Registry::new();
    let observed = Engine::new(
        EngineConfig::new()
            .parallelism(PARALLELISM)
            .observe(Arc::clone(&registry), "perf"),
    );
    warm_up(&observed, &ctx.circuits, &noise, seed);
    let before = engine_counters(&registry);
    let mut observed_walls = Vec::new();
    for _ in 0..TRACED_REPS {
        if let Some((wall, _, _)) = batch(&observed, &ctx.circuits, &noise, seed, ops) {
            observed_walls.push(wall);
        }
    }
    let after = engine_counters(&registry);
    let per_batch = |i: usize| (after[i] - before[i]) / TRACED_REPS as f64;
    for (i, (metric, _, _)) in ENGINE_COUNTERS.iter().enumerate() {
        m.set(metric, per_batch(i));
    }
    // Idle time is worker seconds not spent busy: the engine's own idle
    // counter books a park when it ends, so it would charge a batch with
    // the time the workers slept before it.
    let mean_wall = observed_walls.iter().sum::<f64>() / TRACED_REPS as f64;
    m.set(
        "engine.idle_s",
        PARALLELISM as f64 * mean_wall - per_batch(3),
    );
    m.set(
        "trace.overhead_frac",
        median(&observed_walls) / median(&walls) - 1.0,
    );
}
