//! Figure 8 (extended): parallel-shot execution.
//!
//! The paper's Fig. 8 parallelizes only the *baseline* (independent noisy
//! shots in flight at once): speedup saturates while memory keeps climbing.
//! Both row kinds run on the `tqsim-engine` work-stealing pool: the
//! baseline rows are the flat tree `(N)` (one trajectory per shot on a
//! pooled state), and the **TQSim tree mode** rows parallelize the
//! simulation tree itself while still sharing subcircuit states across
//! shots — the combination naive shot parallelism cannot reach. Memory
//! columns are *measured* pool high-water marks, not analytical
//! `p · 2^n` formulas.
//!
//! Note: wall-clock speedup columns only show scaling on multi-core hosts;
//! on a single-CPU container every parallelism degree costs about the same.

use tqsim::Strategy;
use tqsim_bench::{banner, fmt_bytes, fmt_secs, timed, Scale, Table};
use tqsim_circuit::generators;
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::NoiseModel;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 8",
        "parallel shots: baseline vs engine tree mode",
        &scale,
    );

    let widths: Vec<u16> = if scale.full {
        vec![16, 18, 20]
    } else {
        vec![10, 12]
    };
    let shots: u64 = if scale.full { 1_024 } else { 256 };
    let parallel_degrees = [1usize, 2, 4, 8, 16];
    let noise = NoiseModel::sycamore();

    let mut table = Table::new(&[
        "mode",
        "qubits",
        "parallel",
        "time",
        "speedup vs 1",
        "peak memory",
    ]);
    for n in widths {
        let circuit = generators::qft(n);
        for (mode, strategy) in [
            ("baseline", Strategy::Baseline),
            ("tqsim", scale.dcp_strategy()),
        ] {
            let mut t1 = None;
            for par in parallel_degrees {
                let job = JobSpec::new(&circuit)
                    .noise(noise.clone())
                    .shots(shots)
                    .strategy(strategy.clone())
                    .seed(3);
                // Engine construction sits inside the timed window, so every
                // row charges pool spin-up and teardown alike.
                let (result, t) = timed(|| {
                    let engine = Engine::new(EngineConfig::default().parallelism(par));
                    engine.submit(vec![job]).run().expect("plannable")
                });
                let r = &result.jobs[0];
                let base = *t1.get_or_insert(t.as_secs_f64());
                table.row(&[
                    format!("{mode} {}", r.tree),
                    n.to_string(),
                    par.to_string(),
                    fmt_secs(t.as_secs_f64()),
                    format!("{:.2}×", base / t.as_secs_f64().max(1e-12)),
                    fmt_bytes(r.peak_memory_bytes as f64),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\npaper reference: 20–21-qubit circuits gain up to 3× from parallel shots;\nbeyond 24 qubits extra parallel shots stop helping although each state uses\nonly 0.625 % of GPU memory (Fig. 8). Tree mode does the same gate work ∕\nreuse-factor times less, so its absolute times sit below the baseline rows\nat every parallelism degree."
    );
}
