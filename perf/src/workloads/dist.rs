//! `dist_cluster` and `dist_shard` — the distributed backends on dense
//! circuits whose gates straddle the node boundary: the in-process 4-node
//! cluster, and 2 shard worker processes behind the engine. Exchange
//! count, bytes and (on the shards) wire time dominate; single-node
//! kernels do little. One workload per backend, so that each has a time
//! per shot of its own to be held to.

use crate::layers::children_peak_rss_mb;
use crate::report::{Metrics, Ops};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{gen, set_up, Args};
use std::time::Instant;
use tqsim::{Counts, Partition, Strategy, Tqsim};
use tqsim_circuit::Circuit;
use tqsim_cluster::{run_distributed, ClusterCounters, ClusterObs, InterconnectModel};
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;
use tqsim_obs::Registry;
use tqsim_shard::ShardBackend;

const CIRCUITS: [&str; 2] = ["qft_n14", "qv_n14"];
const SHOTS: u64 = 128;
const CLUSTER_NODES: usize = 4;
const SHARD_WORKERS: usize = 2;
/// Timed reps per run; a timing is the median over them.
const CLUSTER_REPS: usize = 5;
const SHARD_REPS: usize = 11;
/// Runs of the single-node comparison a traced run takes its median over
/// (an untraced run makes one, for the check).
const TRACED_REPS: usize = 3;

fn strategy() -> Strategy {
    Strategy::Custom {
        arities: vec![8, 4, 4],
    }
}

fn model() -> InterconnectModel {
    InterconnectModel::commodity_cluster()
}

fn job<'c>(
    circuit: &'c Circuit,
    noise: &NoiseModel,
    strategy: Strategy,
    shots: u64,
    seed: u64,
) -> JobSpec<'c> {
    JobSpec::new(circuit)
        .noise(noise.clone())
        .shots(shots)
        .strategy(strategy)
        .seed(seed)
}

/// Wall-clock samples and the first rep's histogram, per circuit.
struct Samples {
    wall: Vec<Vec<f64>>,
    counts: Vec<Counts>,
}

impl Samples {
    fn new() -> Self {
        Samples {
            wall: vec![Vec::new(); CIRCUITS.len()],
            counts: Vec::new(),
        }
    }

    /// Take one run of circuit `i`: a failed op unless it is well formed
    /// and, after the first rep, returns the first rep's `Counts`.
    fn take(&mut self, i: usize, wall: f64, counts: Counts, well_formed: bool, ops: &mut Ops) {
        let repeats = self.counts.get(i).is_none_or(|first| *first == counts);
        if ops.op(well_formed && repeats, || {
            format!("{}: malformed or unrepeatable result", CIRCUITS[i])
        }) {
            self.wall[i].push(wall);
        }
        if self.counts.len() == i {
            self.counts.push(counts);
        }
    }

    /// Summed over circuits, the median wall of one run.
    fn wall_s(&self) -> f64 {
        self.wall.iter().map(|w| median(w)).sum()
    }

    /// Geomean over circuits of the median wall per outcome, in µs.
    fn us_per_shot(&self) -> f64 {
        let per_circuit: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.counts)
            .map(|(w, c)| median(w) * 1e6 / c.total() as f64)
            .collect();
        geomean(&per_circuit)
    }
}

/// The in-process cluster before its first timed rep.
struct ClusterSetup {
    circuits: Vec<Circuit>,
    partitions: Vec<Partition>,
    build_s: f64,
}

fn cluster_setup(noise: &NoiseModel, seed: u64) -> ClusterSetup {
    let t = Instant::now();
    let circuits = gen::circuits(&CIRCUITS);
    let build_s = t.elapsed().as_secs_f64();
    let partitions = circuits
        .iter()
        .map(|c| strategy().plan(c, noise, SHOTS).expect("custom tree plans"))
        .collect();
    for circuit in &circuits {
        let flat = Strategy::Baseline
            .plan(circuit, noise, 2)
            .expect("flat plan");
        run_distributed(circuit, noise, &flat, CLUSTER_NODES, model(), seed)
            .expect("4 nodes hold 14 qubits");
    }
    ClusterSetup {
        circuits,
        partitions,
        build_s,
    }
}

/// One rep on the cluster: its exchange counters, summed over circuits.
fn cluster_rep(
    ctx: &ClusterSetup,
    noise: &NoiseModel,
    seed: u64,
    ops: &mut Ops,
    samples: &mut Samples,
    tracer: &mut Tracer,
) -> ClusterCounters {
    let mut counters = ClusterCounters::default();
    for (i, circuit) in ctx.circuits.iter().enumerate() {
        let span = tracer.begin("cluster.run", None, i as u32);
        let r = run_distributed(
            circuit,
            noise,
            &ctx.partitions[i],
            CLUSTER_NODES,
            model(),
            seed,
        )
        .expect("4 nodes hold 14 qubits");
        let wall = tracer.end(span) as f64 / 1e9;
        let well_formed = r.counts.total() == ctx.partitions[i].tree.outcomes();
        counters.merge(&r.counters);
        samples.take(i, wall, r.counts, well_formed, ops);
    }
    counters
}

pub fn run_cluster(args: &Args, ops: &mut Ops, m: &mut Metrics, tracer: &mut Tracer) {
    let noise = NoiseModel::sycamore();
    let seed = gen::sim_seed(args.seed, 1);
    let (ctx, setup_s) = set_up(|| cluster_setup(&noise, gen::sim_seed(args.seed, 0)));
    m.set("setup_s", setup_s);
    m.set("circuit.build_s", ctx.build_s);

    // Timed reps; their spans are the timer and are thrown away.
    let mut samples = Samples::new();
    let mut scratch = Tracer::new();
    let mut counters = ClusterCounters::default();
    for _ in 0..CLUSTER_REPS {
        counters = cluster_rep(&ctx, &noise, seed, ops, &mut samples, &mut scratch);
    }
    let us = samples.us_per_shot();
    m.set("us_per_shot", us);
    m.set("cluster.us_per_shot", us);

    // Same plan, same seed: the cluster walks the serial executor's RNG
    // stream, so `Tqsim::run` must return the same Counts.
    let mut serial_walls = vec![Vec::new(); ctx.circuits.len()];
    for _ in 0..if args.trace { TRACED_REPS } else { 1 } {
        for (i, circuit) in ctx.circuits.iter().enumerate() {
            let sim = Tqsim::new(circuit)
                .noise(noise.clone())
                .shots(SHOTS)
                .strategy(strategy())
                .seed(seed);
            let t = Instant::now();
            let r = sim.run().expect("custom tree plans");
            let wall = t.elapsed().as_secs_f64();
            if ops.op(r.counts == samples.counts[i], || {
                format!("{}: cluster Counts differ from Tqsim::run", CIRCUITS[i])
            }) {
                serial_walls[i].push(wall);
            }
        }
    }
    if !args.trace {
        return;
    }

    let mut traced = Samples::new();
    let traced_counters = cluster_rep(&ctx, &noise, seed, ops, &mut traced, tracer);
    ops.op(traced_counters == counters, || {
        "the traced rep exchanged something else than the untraced ones".into()
    });
    m.set(
        "trace.overhead_frac",
        traced.wall_s() / samples.wall_s() - 1.0,
    );
    m.set("cluster.exchanges", counters.exchanges as f64);
    m.set("cluster.bytes_exchanged", counters.bytes_exchanged as f64);
    m.set("cluster.local_gates", counters.local_gates as f64);
    m.set("cluster.global_gates", counters.global_gates as f64);
    m.set("cluster.state_copies", counters.state_copies as f64);
    m.set("cluster.modeled_s", counters.simulated_seconds);
    let serial_wall: f64 = serial_walls.iter().map(|w| median(w)).sum();
    m.set("cluster.vs_single_node", samples.wall_s() / serial_wall);
}

/// The shard workers and the engine in front of them. Dropping it reaps
/// the worker processes.
struct ShardSetup {
    circuits: Vec<Circuit>,
    backend: ShardBackend,
    engine: Engine<ShardBackend>,
    build_s: f64,
    spawn_s: f64,
}

fn shard_setup(noise: &NoiseModel, seed: u64) -> ShardSetup {
    let t = Instant::now();
    let circuits = gen::circuits(&CIRCUITS);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let backend = ShardBackend::spawn(SHARD_WORKERS).expect("shard workers spawn");
    let spawn_s = t.elapsed().as_secs_f64();
    let engine = Engine::with_backend(EngineConfig::new().parallelism(1), backend.clone());
    for circuit in &circuits {
        engine
            .submit(vec![job(circuit, noise, Strategy::Baseline, 2, seed)])
            .run()
            .expect("flat plan");
    }
    ShardSetup {
        circuits,
        backend,
        engine,
        build_s,
        spawn_s,
    }
}

/// One rep on the shards: each circuit as one job on `engine`.
fn shard_rep(
    engine: &Engine<ShardBackend>,
    circuits: &[Circuit],
    noise: &NoiseModel,
    seed: u64,
    ops: &mut Ops,
    samples: &mut Samples,
    tracer: &mut Tracer,
) {
    for (i, circuit) in circuits.iter().enumerate() {
        let span = tracer.begin("shard.run", None, i as u32);
        let batch = engine
            .submit(vec![job(circuit, noise, strategy(), SHOTS, seed)])
            .run()
            .expect("custom tree plans");
        let wall = tracer.end(span) as f64 / 1e9;
        let r = batch.jobs.into_iter().next().expect("one job in, one out");
        let well_formed = r.counts.total() == r.tree.outcomes() && r.counts.total() >= SHOTS;
        samples.take(i, wall, r.counts, well_formed, ops);
    }
}

pub fn run_shard(args: &Args, ops: &mut Ops, m: &mut Metrics, tracer: &mut Tracer) {
    let noise = NoiseModel::sycamore();
    let seed = gen::sim_seed(args.seed, 1);
    let (ctx, setup_s) = set_up(|| shard_setup(&noise, gen::sim_seed(args.seed, 0)));
    m.set("setup_s", setup_s);
    m.set("circuit.build_s", ctx.build_s);
    m.set("shard.spawn_s", ctx.spawn_s);

    // Timed reps; their spans are the timer and are thrown away.
    let mut samples = Samples::new();
    let mut scratch = Tracer::new();
    for _ in 0..SHARD_REPS {
        shard_rep(
            &ctx.engine,
            &ctx.circuits,
            &noise,
            seed,
            ops,
            &mut samples,
            &mut scratch,
        );
    }
    let us = samples.us_per_shot();
    m.set("us_per_shot", us);
    m.set("shard.us_per_shot", us);

    // Same plan, same seed, same engine RNG streams: a single-node engine
    // must return the same Counts.
    let single = Engine::new(EngineConfig::new().parallelism(1));
    for (i, circuit) in ctx.circuits.iter().enumerate() {
        let pooled = single
            .submit(vec![job(circuit, &noise, strategy(), SHOTS, seed)])
            .run()
            .expect("custom tree plans");
        ops.op(pooled.jobs[0].counts == samples.counts[i], || {
            format!(
                "{}: shard Counts differ from the single-node Engine",
                CIRCUITS[i]
            )
        });
    }
    if !args.trace {
        return;
    }

    // The traced rep: spans kept, shard states mirrored into a registry.
    let registry = Registry::new();
    let observed = Engine::with_backend(
        EngineConfig::new().parallelism(1),
        ctx.backend
            .clone()
            .observed(ClusterObs::register(&registry)),
    );
    let mut traced = Samples::new();
    shard_rep(
        &observed,
        &ctx.circuits,
        &noise,
        seed,
        ops,
        &mut traced,
        tracer,
    );
    ops.op(traced.counts == samples.counts, || {
        "the observed rep computed something else than the unobserved ones".into()
    });
    m.set(
        "trace.overhead_frac",
        traced.wall_s() / samples.wall_s() - 1.0,
    );
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name, &[]).unwrap_or(0) as f64;
    let wire_s = counter("tqsim_cluster_exchange_measured_ns_total") / 1e9;
    m.set("shard.exchanges", counter("tqsim_cluster_exchanges_total"));
    m.set(
        "shard.bytes_exchanged",
        counter("tqsim_cluster_bytes_exchanged_total"),
    );
    m.set("shard.exchange_wire_s", wire_s);
    m.set("shard.wire_frac", wire_s / traced.wall_s());
    m.set(
        "shard.worker_rss_mb",
        children_peak_rss_mb("tqsim-shard-wor"),
    );
}
