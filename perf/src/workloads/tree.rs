//! The four single-node workloads — `paper_suite`, `paper_mc`,
//! `wide_state`, `seam_fanout` — share one driver: they differ in circuits,
//! tree shape and shots, which is what moves time between the layers.

use crate::layers::{self, traced_walk};
use crate::report::{Metrics, Ops};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{gen, set_up, Args};
use std::time::Instant;
use tqsim::{metrics as fidelity, Counts, DcpConfig, RunResult, Strategy, Tqsim, TreeExecutor};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;

/// One timed path: every circuit of the workload through `Tqsim::run`
/// under one strategy, `reps` times. A timing is the median over the reps.
pub struct Path {
    pub strategy: fn() -> Strategy,
    pub shots: u64,
    pub reps: usize,
    /// Each rep runs on a seed of its own and the first [`MERGED_REPS`]
    /// histograms merge into one; otherwise every rep runs on the same
    /// seed and must return the same `Counts` bit for bit.
    pub fresh_seeds: bool,
}

/// Reps of a fresh-seed path whose histograms merge: 3 × 336 Monte-Carlo
/// shots against the tree's 1000 outcomes. The fidelity of a sampled
/// histogram against the ideal grows with the sample count (at 1680 against
/// 1000 it read 0.54 against 0.39 on `qaoa_n11`), so the two sides of the
/// fidelity check must be of one size.
const MERGED_REPS: usize = 3;

impl Path {
    fn seed(&self, seed: u64, rep: usize) -> u64 {
        gen::sim_seed(seed, if self.fresh_seeds { 2 + rep as u64 } else { 1 })
    }
}

/// What distinguishes one single-node workload from another.
pub struct TreeSpec {
    pub circuits: &'static [&'static str],
    /// The path whose time per outcome is the workload's `us_per_shot`.
    pub headline: Path,
    /// `paper_mc` only: the reuse tree its Monte-Carlo headline is
    /// compared with, timed in the same process, rep by rep in turn.
    pub tree: Option<Path>,
    /// Shots of the untimed warm-up run of each circuit.
    pub warm_shots: u64,
}

pub fn dcp() -> Strategy {
    Strategy::Dynamic(DcpConfig {
        margin: 0.1,
        ..Default::default()
    })
}

/// One Table-2 circuit per class at n = 10–12. Mul is omitted: its only
/// ≤ 13-qubit instance costs more than the other seven together.
const PAPER_CIRCUITS: &[&str] = &[
    "adder_n10_0",
    "bv_n12",
    "qaoa_n11",
    "qft_n12",
    "qpe_n11",
    "qsc_n12",
    "qv_n12",
];

const PAPER_TREE: Path = Path {
    strategy: dcp,
    shots: 1000,
    reps: 5,
    fresh_seeds: false,
};

/// Cache-resident and gate-bound, under DCP. `bv_n12` plans flat `(1000)`:
/// it pins "DCP falls back, never loses".
pub const PAPER_SUITE: TreeSpec = TreeSpec {
    circuits: PAPER_CIRCUITS,
    headline: PAPER_TREE,
    tree: None,
    warm_shots: 50,
};

/// The same circuits shot by shot: the plain single-threaded reference,
/// on which tree reuse is bypassed. Time per shot of a flat plan does not
/// depend on the shot count, so a rep runs a third of the tree's shots.
pub const PAPER_MC: TreeSpec = TreeSpec {
    circuits: PAPER_CIRCUITS,
    headline: Path {
        strategy: || Strategy::Baseline,
        shots: 336,
        reps: 5,
        fresh_seeds: true,
    },
    tree: Some(Path {
        reps: 3,
        ..PAPER_TREE
    }),
    warm_shots: 50,
};

/// Memory-bound: 16 MiB states, 4× one core's L2. The smallest tree that
/// still reuses a state (one first half, two second halves), so that five
/// reps of a 974-gate circuit at this width fit in a run.
pub const WIDE_STATE: TreeSpec = TreeSpec {
    circuits: &["qft_n20", "qv_n20"],
    headline: Path {
        strategy: || Strategy::Custom {
            arities: vec![1, 2],
        },
        shots: 2,
        reps: 5,
        fresh_seeds: false,
    },
    tree: None,
    warm_shots: 1,
};

/// Shallow wide circuits under a deep tree: copies and CDF walks beside
/// gate sweeps.
pub const SEAM_FANOUT: TreeSpec = TreeSpec {
    circuits: &["bv_n16", "qaoa_n15"],
    headline: Path {
        strategy: || Strategy::Custom {
            arities: vec![4, 4, 4, 2, 2],
        },
        shots: 256,
        reps: 5,
        fresh_seeds: false,
    },
    tree: None,
    warm_shots: 8,
};

/// Everything built before the first timed rep.
struct Setup {
    names: &'static [&'static str],
    circuits: Vec<Circuit>,
    build_s: f64,
}

fn setup(spec: &TreeSpec, noise: &NoiseModel, seed: u64) -> Setup {
    let t = Instant::now();
    let circuits = gen::circuits(spec.circuits);
    let build_s = t.elapsed().as_secs_f64();
    for circuit in &circuits {
        Tqsim::new(circuit)
            .noise(noise.clone())
            .shots(spec.warm_shots)
            .strategy(Strategy::Baseline)
            .seed(seed)
            .run()
            .expect("flat plan");
    }
    Setup {
        names: spec.circuits,
        circuits,
        build_s,
    }
}

/// `counts.total() == tree.outcomes() ≥ shots`.
pub fn well_formed(r: &RunResult, shots: u64) -> bool {
    r.counts.total() == r.tree.outcomes() && r.counts.total() >= shots
}

/// What the reps of one path gave, per circuit.
struct Samples {
    wall: Vec<Vec<f64>>,
    /// The first rep's results.
    first: Vec<RunResult>,
    /// The histogram of the first reps merged (fresh seeds), or of any rep.
    counts: Vec<Counts>,
}

impl Samples {
    fn new(circuits: usize) -> Self {
        Samples {
            wall: vec![Vec::new(); circuits],
            first: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Geomean over circuits of the median wall per outcome, in µs.
    fn us_per_shot(&self) -> f64 {
        let per_circuit: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.first)
            .map(|(wall, r)| median(wall) * 1e6 / r.counts.total() as f64)
            .collect();
        geomean(&per_circuit)
    }
}

/// Rep `rep` of `path`: one timed `Tqsim::run` per circuit.
fn timed_rep(
    path: &Path,
    ctx: &Setup,
    noise: &NoiseModel,
    args: &Args,
    rep: usize,
    ops: &mut Ops,
    samples: &mut Samples,
) {
    for (i, circuit) in ctx.circuits.iter().enumerate() {
        let sim = Tqsim::new(circuit)
            .noise(noise.clone())
            .shots(path.shots)
            .strategy((path.strategy)())
            .seed(path.seed(args.seed, rep));
        let t = Instant::now();
        let r = sim.run().expect("the workload's plan is valid");
        let wall = t.elapsed().as_secs_f64();
        let mut ok = well_formed(&r, path.shots);
        if rep == 0 {
            samples.counts.push(r.counts.clone());
        } else if path.fresh_seeds {
            if rep < MERGED_REPS {
                samples.counts[i].merge(&r.counts);
            }
        } else {
            ok &= r.counts == samples.counts[i];
        }
        if ops.op(ok, || {
            format!("{} rep {rep}: malformed or unrepeatable", ctx.names[i])
        }) {
            samples.wall[i].push(wall);
        }
        if rep == 0 {
            samples.first.push(r);
        }
    }
}

/// The traced rep of the headline path: `Tqsim::run` split into its three
/// calls, one span each, then the traced walk of the same plan and seed,
/// then the layer probes.
#[allow(clippy::too_many_arguments)]
fn traced_rep(
    spec: &TreeSpec,
    circuits: &[Circuit],
    noise: &NoiseModel,
    seed: u64,
    untraced: &[RunResult],
    ops: &mut Ops,
    m: &mut Metrics,
    tracer: &mut Tracer,
) {
    let path = &spec.headline;
    let ideal = NoiseModel::ideal();
    let mut amps = [0.0f64; 3]; // amplitude visits: replay passes, copies, samples
    let (mut plan_compile_s, mut execute_s, mut walk_s, mut ideal_s) = (0.0, 0.0, 0.0, 0.0);
    let mut last = (0.0, 0.0); // execute wall, one-thread wall of the last circuit
    for (i, circuit) in circuits.iter().enumerate() {
        let run = i as u32;
        let size = (1u64 << circuit.n_qubits()) as f64;
        let rayon0 = rayon::pool_stats();

        let span = tracer.begin("core.plan", None, run);
        let partition = (path.strategy)()
            .plan(circuit, noise, path.shots)
            .expect("the workload's plan is valid");
        let plan_s = tracer.end(span) as f64 / 1e9;
        let span = tracer.begin("core.compile", None, run);
        let exec = TreeExecutor::new(circuit, noise, partition.clone()).expect("plan binds");
        let compile_s = tracer.end(span) as f64 / 1e9;
        let span = tracer.begin("core.execute", None, run);
        let r = exec.run(seed);
        let this_execute_s = tracer.end(span) as f64 / 1e9;

        let rayon1 = rayon::pool_stats();
        m.add("rayon.tasks", (rayon1.tasks - rayon0.tasks) as f64);
        m.add(
            "rayon.busy_s",
            (rayon1.busy_ns - rayon0.busy_ns) as f64 / 1e9,
        );
        ops.op(r.counts == untraced[i].counts, || {
            format!(
                "{}: plan + TreeExecutor::run Counts differ from Tqsim::run",
                spec.circuits[i]
            )
        });

        let walk = traced_walk(&exec, circuit, noise, seed, tracer, run);
        ops.op(walk.counts == r.counts, || {
            format!(
                "{}: traced-walk Counts differ from TreeExecutor::run",
                spec.circuits[i]
            )
        });
        walk_s += walk.wall_s;
        amps[0] += walk.ops.amp_passes as f64 * size;
        amps[1] += walk.ops.state_copies as f64 * size;
        amps[2] += walk.ops.samples as f64 * size;

        let exec_ideal = TreeExecutor::new(circuit, &ideal, partition).expect("plan binds");
        let t = Instant::now();
        let r_ideal = exec_ideal.run(seed);
        ideal_s += t.elapsed().as_secs_f64();
        ops.op(well_formed(&r_ideal, path.shots), || {
            format!("{}: malformed noiseless result", spec.circuits[i])
        });

        plan_compile_s += plan_s + compile_s;
        execute_s += this_execute_s;
        m.add("core.plan_s", plan_s);
        m.add("core.compile_s", compile_s);
        m.add("core.tree_nodes", r.tree.total_nodes() as f64);
        m.add("core.tree_leaves", r.tree.outcomes() as f64);
        m.add("statevec.amp_passes", r.ops.amp_passes as f64);
        m.add("statevec.state_copies", r.ops.state_copies as f64);
        m.add("statevec.samples", r.ops.samples as f64);
        m.add("statevec.fused_gates", r.ops.fused_gates as f64);
        m.add("noise.ops", r.ops.noise_ops as f64);

        if i + 1 == circuits.len() {
            let one = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("thread budget builds");
            let t = Instant::now();
            let r1 = one.install(|| exec.run(seed));
            last = (this_execute_s, t.elapsed().as_secs_f64());
            ops.op(r1.counts == r.counts, || {
                format!("{}: Counts depend on amplitude threads", spec.circuits[i])
            });
        }
    }

    let (replay_s, copy_s, sample_s) = (
        tracer.total_s("statevec.replay"),
        tracer.total_s("statevec.copy"),
        tracer.total_s("statevec.sample"),
    );
    m.set("core.execute_s", execute_s);
    m.set("statevec.replay_s", replay_s);
    m.set("statevec.copy_s", copy_s);
    m.set("statevec.sample_s", sample_s);
    m.set(
        "core.walk_other_s",
        tracer.self_s("core.walk") + tracer.self_s("core.node"),
    );
    m.set(
        "core.walk_unattributed_frac",
        (walk_s - execute_s).abs() / execute_s,
    );
    m.set("noise.overhead_s", execute_s - ideal_s);
    m.set("noise.overhead_frac", (execute_s - ideal_s) / execute_s);
    m.set("statevec.replay_ns_per_amp_pass", replay_s * 1e9 / amps[0]);
    m.set("statevec.copy_ns_per_amp", copy_s * 1e9 / amps[1]);
    m.set("statevec.sample_ns_per_amp", sample_s * 1e9 / amps[2]);
    let moved_gb = (2.0 * amps[0] + 2.0 * amps[1] + amps[2]) * 16.0 / 1e9;
    m.set("statevec.bytes_moved_computed_gb", moved_gb);
    m.set("statevec.effective_gbps", moved_gb / walk_s);
    m.set("rayon.amp_parallel_speedup", last.1 / last.0);
    m.set(
        "trace.overhead_frac",
        (plan_compile_s + walk_s) / (plan_compile_s + execute_s) - 1.0,
    );

    let widest = circuits.iter().map(Circuit::n_qubits).max().unwrap_or(2);
    let (g1, g2, gd) = layers::gate_ladder(widest);
    m.set("statevec.gate_ns_per_amp_1q", g1);
    m.set("statevec.gate_ns_per_amp_2q", g2);
    m.set("statevec.gate_ns_per_amp_diag", gd);
    m.set("statevec.copy_gbps", layers::copy_gbps(widest));
}

pub fn run(spec: &TreeSpec, args: &Args, ops: &mut Ops, m: &mut Metrics, tracer: &mut Tracer) {
    let noise = NoiseModel::sycamore();
    let (ctx, setup_s) = set_up(|| setup(spec, &noise, gen::sim_seed(args.seed, 0)));
    m.set("setup_s", setup_s);
    m.set("circuit.build_s", ctx.build_s);

    // Timed reps, the two paths of `paper_mc` in turn.
    let mut headline = Samples::new(ctx.circuits.len());
    let mut tree = Samples::new(ctx.circuits.len());
    let tree_reps = spec.tree.as_ref().map_or(0, |t| t.reps);
    for rep in 0..spec.headline.reps.max(tree_reps) {
        for (path, samples) in [
            (Some(&spec.headline), &mut headline),
            (spec.tree.as_ref(), &mut tree),
        ] {
            if let Some(path) = path.filter(|p| rep < p.reps) {
                timed_rep(path, &ctx, &noise, args, rep, ops, samples);
            }
        }
    }

    let us = headline.us_per_shot();
    m.set("us_per_shot", us);
    if spec.tree.is_none() {
        m.set("core.tree_us_per_shot", us);
    } else {
        let tree_us = tree.us_per_shot();
        m.set("core.mc_us_per_shot", us);
        m.set("core.tree_us_per_shot", tree_us);
        m.set("core.speedup_vs_mc", us / tree_us);
        // Amplitude passes per outcome, Monte-Carlo ÷ tree: exact counts.
        let passes_per_shot = |runs: &[RunResult]| {
            runs.iter().map(|r| r.ops.amp_passes).sum::<u64>() as f64
                / runs.iter().map(|r| r.counts.total()).sum::<u64>() as f64
        };
        m.set(
            "core.reuse_ratio",
            passes_per_shot(&headline.first) / passes_per_shot(&tree.first),
        );
        // Tree and Monte-Carlo must be equally close to the ideal output.
        for (i, circuit) in ctx.circuits.iter().enumerate() {
            let ideal = fidelity::ideal_distribution(circuit);
            let f = |c: &Counts| fidelity::state_fidelity(&ideal, &c.to_distribution());
            let (f_tree, f_mc) = (f(&tree.counts[i]), f(&headline.counts[i]));
            ops.op((f_tree - f_mc).abs() <= FIDELITY_TOLERANCE, || {
                format!(
                    "{}: state fidelity tree {f_tree:.4} vs Monte-Carlo {f_mc:.4}",
                    spec.circuits[i]
                )
            });
        }
    }

    if args.trace {
        let seed = spec.headline.seed(args.seed, 0);
        traced_rep(
            spec,
            &ctx.circuits,
            &noise,
            seed,
            &headline.first,
            ops,
            m,
            tracer,
        );
    }
}

/// |state-fidelity(tree) − state-fidelity(Monte-Carlo)| allowed per circuit,
/// both against the ideal distribution, from 1000 tree outcomes and 1008
/// Monte-Carlo shots. Over 12 seeds × 7 circuits the difference stayed
/// below 0.076 (σ ≈ 0.03 on `qpe_n11`), so 0.15 is a 5σ gate against gross
/// errors. Eq. 9's normalized fidelity divides by
/// `1 − F_s(ideal, uniform)` ≈ 0.2 on the random circuits and moved by up
/// to 0.13 between two correct runs.
const FIDELITY_TOLERANCE: f64 = 0.15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_per_path_or_one_per_rep() {
        let (tree, mc) = (&PAPER_SUITE.headline, &PAPER_MC.headline);
        assert_eq!(tree.seed(7, 0), tree.seed(7, 4));
        assert_ne!(mc.seed(7, 0), mc.seed(7, 1));
        assert_ne!(tree.seed(7, 0), tree.seed(8, 0));
        // The tree `paper_mc` compares with is `paper_suite`'s.
        let compared = PAPER_MC.tree.as_ref().expect("paper_mc has a tree");
        assert_eq!(compared.seed(7, 0), tree.seed(7, 0));
        assert_eq!(compared.shots, tree.shots);
    }
}
