//! Layer measurements taken from outside the program: the traced tree
//! walk, the gate ladder, the copy-bandwidth reference and `/proc` reads.

use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tqsim::{draw_leaf_outcomes, run_subcircuit, Counts, OpCounts, TreeExecutor};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_statevec::{CompiledCircuit, PooledBackend, SingleNode, StateVector};

/// What the traced walk produced; `counts` must equal the untraced
/// `TreeExecutor::run` for the same seed bit for bit.
pub struct Walk {
    pub counts: Counts,
    pub ops: OpCounts,
    pub wall_s: f64,
}

struct WalkCtx<'a> {
    subcircuits: &'a [Circuit],
    plans: &'a [CompiledCircuit],
    arities: &'a [u64],
    noise: &'a NoiseModel,
    states: Vec<StateVector>,
    rng: StdRng,
    counts: Counts,
    ops: OpCounts,
    tracer: &'a mut Tracer,
    run: u32,
}

/// A depth-first mirror of the reuse tree built only from `copy_into` →
/// `run_subcircuit` → `draw_leaf_outcomes`, one span each under the span
/// of its tree node, seeded like `TreeExecutor::run`.
pub fn traced_walk(
    exec: &TreeExecutor<'_>,
    circuit: &Circuit,
    noise: &NoiseModel,
    seed: u64,
    tracer: &mut Tracer,
    run: u32,
) -> Walk {
    let n = circuit.n_qubits();
    let subcircuits = exec.partition().subcircuits(circuit);
    let t0 = Instant::now();
    let root = tracer.begin("core.walk", None, run);
    let mut ctx = WalkCtx {
        subcircuits: &subcircuits,
        plans: exec.compiled_plans(),
        arities: exec.partition().tree.arities(),
        noise,
        states: (0..=subcircuits.len())
            .map(|_| SingleNode.allocate(n))
            .collect(),
        rng: StdRng::seed_from_u64(seed),
        counts: Counts::new(n),
        ops: OpCounts::new(),
        tracer,
        run,
    };
    walk_level(&mut ctx, 0, root);
    let WalkCtx {
        counts,
        ops,
        tracer,
        ..
    } = ctx;
    tracer.end(root);
    Walk {
        counts,
        ops,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn walk_level(ctx: &mut WalkCtx<'_>, level: usize, parent: SpanId) {
    let k = ctx.subcircuits.len();
    if level == k {
        let span = ctx.tracer.begin("statevec.sample", Some(parent), ctx.run);
        let (counts, ops) = (&mut ctx.counts, &mut ctx.ops);
        let n = ctx.states[k].n_qubits();
        draw_leaf_outcomes(&ctx.states[k], ctx.noise, n, 1, &mut ctx.rng, |outcome| {
            counts.increment(outcome);
            ops.samples += 1;
        });
        ctx.tracer.end(span);
        return;
    }
    for _ in 0..ctx.arities[level] {
        let node = ctx.tracer.begin("core.node", Some(parent), ctx.run);
        let (parents, children) = ctx.states.split_at_mut(level + 1);
        let child = &mut children[0];

        let span = ctx.tracer.begin("statevec.copy", Some(node), ctx.run);
        SingleNode.copy_into(child, &parents[level]);
        ctx.tracer.end(span);
        ctx.ops.state_copies += 1;

        let span = ctx.tracer.begin("statevec.replay", Some(node), ctx.run);
        run_subcircuit(
            child,
            &ctx.subcircuits[level],
            &ctx.plans[level],
            ctx.noise,
            &mut ctx.rng,
            &mut ctx.ops,
            true,
        );
        ctx.tracer.end(span);

        walk_level(ctx, level + 1, node);
        ctx.tracer.end(node);
    }
}

/// ns per amplitude of `apply_gate` on h / cx / rz at width `n`:
/// `(one-qubit, two-qubit, diagonal)`.
pub fn gate_ladder(n: u16) -> (f64, f64, f64) {
    // About 2^24 amplitude visits per rung, at least 8 gates.
    let gates = ((1usize << 24) >> n).max(8);
    let rung = |push: &dyn Fn(&mut Circuit, u16)| {
        let mut prep = Circuit::new(n);
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            prep.h(q);
        }
        for i in 0..gates {
            push(&mut circuit, (i % usize::from(n - 1)) as u16);
        }
        let mut state = SingleNode.allocate(n);
        for gate in &prep {
            state.apply_gate(gate);
        }
        let t = Instant::now();
        for gate in &circuit {
            state.apply_gate(black_box(gate));
        }
        black_box(&state);
        t.elapsed().as_nanos() as f64 / (gates as f64 * (1u64 << n) as f64)
    };
    (
        rung(&|c, q| {
            c.h(q);
        }),
        rung(&|c, q| {
            c.cx(q, q + 1);
        }),
        rung(&|c, q| {
            c.rz(0.3, q);
        }),
    )
}

/// Measured GB/s of `copy_into` at width `n` (16 B read + 16 B written per
/// amplitude) — the bandwidth reference for `statevec.effective_gbps`.
pub fn copy_gbps(n: u16) -> f64 {
    let src = SingleNode.allocate(n);
    let mut dst = SingleNode.allocate(n);
    let copies = ((1usize << 26) >> n).max(4);
    SingleNode.copy_into(&mut dst, &src);
    let t = Instant::now();
    for _ in 0..copies {
        SingleNode.copy_into(black_box(&mut dst), black_box(&src));
    }
    let bytes = copies as f64 * 32.0 * (1u64 << n) as f64;
    bytes / t.elapsed().as_secs_f64() / 1e9
}

/// The value of `field` (as in `"VmHWM:"`) in a `/proc/<pid>/status` text.
fn status_field<'a>(status: &'a str, field: &str) -> Option<&'a str> {
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB.
fn status_peak_rss_mb(status: &str) -> Option<f64> {
    Some(status_field(status, "VmHWM:")?.parse::<f64>().ok()? / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_peak_rss_mb(&s))
        .expect("/proc/self/status has VmHWM")
}

/// Summed peak resident set, in MB, of this process's live children whose
/// command name starts with `comm` (the shard workers).
pub fn children_peak_rss_mb(comm: &str) -> f64 {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter(|s| {
            status_field(s, "PPid:") == Some(me.as_str())
                && status_field(s, "Name:").is_some_and(|n| n.starts_with(comm))
        })
        .filter_map(|s| status_peak_rss_mb(&s))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim::Strategy;
    use tqsim_circuit::generators;

    #[test]
    fn traced_walk_mirrors_the_executor_and_repeats_exactly() {
        let circuit = generators::qft(7);
        let noise = NoiseModel::sycamore();
        let partition = Strategy::Custom {
            arities: vec![3, 2, 2],
        }
        .plan(&circuit, &noise, 12)
        .expect("custom tree plans");
        let exec = TreeExecutor::new(&circuit, &noise, partition).expect("plan binds");
        let reference = exec.run(9);

        let mut tracer = Tracer::new();
        let a = traced_walk(&exec, &circuit, &noise, 9, &mut tracer, 0);
        let b = traced_walk(&exec, &circuit, &noise, 9, &mut Tracer::new(), 0);
        assert_eq!(a.counts, reference.counts);
        assert_eq!((&a.counts, &a.ops), (&b.counts, &b.ops));
        assert_ne!(
            traced_walk(&exec, &circuit, &noise, 10, &mut Tracer::new(), 0).counts,
            reference.counts
        );

        // 3 + 6 + 12 nodes, each one copy and one replay; 12 leaves sampled.
        let count = |name: &str| {
            tracer.to_json().as_arr().map_or(0, |spans| {
                spans
                    .iter()
                    .filter(|s| s.get("name").and_then(tqsim_json::Value::as_str) == Some(name))
                    .count()
            })
        };
        assert_eq!(count("core.walk"), 1);
        assert_eq!(count("core.node"), 21);
        assert_eq!(count("statevec.copy"), 21);
        assert_eq!(count("statevec.replay"), 21);
        assert_eq!(count("statevec.sample"), 12);
        // The four parts account for the whole walk.
        let parts = tracer.total_s("statevec.copy")
            + tracer.total_s("statevec.replay")
            + tracer.total_s("statevec.sample")
            + tracer.self_s("core.walk")
            + tracer.self_s("core.node");
        assert!((parts - tracer.total_s("core.walk")).abs() < 1e-9);
    }

    #[test]
    fn own_process_has_a_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(children_peak_rss_mb("no-such-command"), 0.0);
    }
}
