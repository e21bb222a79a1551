//! Microbenchmarks of the state-vector substrate: gate kernels, state
//! copies (the quantity behind Fig. 10), sampling, noise ops, and the
//! fused-op kernel ladder (`mat2`, `mat4`, `diag1`, `diag2`, the 6-term
//! `DiagRun` sweep — everything the fusion window can emit) swept across
//! state sizes 2^10..2^20. The ladder is timed with their low operand at qubit 0, 1, 3 and n−2: below
//! qubit 2 a contiguous run is shorter than a vector register and the
//! kernels exchange lane bits in-register instead, which this ladder keeps
//! visible. The header and the JSON name the instruction-set tier the
//! kernels dispatched to on this CPU.
//!
//! Plain-main harness in the house style (no external bench framework):
//! each primitive is timed over enough repetitions to dominate timer noise
//! and reported as ns/op (and ns/amplitude for the kernel ladder). The
//! ladder sweep is written to
//! `BENCH_kernels.json` (override with `TQSIM_BENCH_JSON=<path>`);
//! wall-clock numbers are recorded for inspection, never asserted.

use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tqsim_bench::Table;
use tqsim_circuit::math::{c64, C64};
use tqsim_circuit::{Gate, GateKind};
use tqsim_noise::NoiseModel;
use tqsim_statevec::{kernels, DiagRun, StateVector};

fn scrambled_state(n: u16) -> StateVector {
    let mut sv = StateVector::zero(n);
    let mut c = tqsim_circuit::Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    sv.apply_circuit(&c);
    sv
}

/// One row of the fused-matrix kernel sweep.
struct MatRow {
    kernel: &'static str,
    /// The operand qubits, most significant first.
    operands: Vec<usize>,
    qubits: u16,
    amps: usize,
    ns_op: f64,
    ns_amp: f64,
}

/// A 6-term diagonal run over the six qubits from `low` up (three
/// single-qubit phases, three controlled phases): the multi-term
/// `FusedDiag` sweep as the planner emits it on the random-circuit suites.
fn six_term_run(low: usize) -> DiagRun {
    let q = |k: usize| (low + k) as u16;
    let phase = |k: usize| C64::from_polar(1.0, 0.37 * k as f64 + 0.2);
    let mut run = DiagRun::new();
    for k in 0..3 {
        run.push1(q(2 * k), [phase(k), phase(k + 7)]);
        run.push2(
            q(2 * k + 1),
            q(2 * k),
            [phase(1), phase(k + 2), phase(k + 3), phase(k + 4)],
        );
    }
    run
}

/// Time the kernel ladder on an `n`-qubit scrambled state: the highest
/// qubit plus a low operand swept over {0, 1, 3, n−2}.
fn sweep_matrix_kernels(n: u16, reps: u32, rows: &mut Vec<MatRow>) {
    let mut sv = scrambled_state(n);
    let amps = sv.amplitudes_mut();
    let len = amps.len();
    let hi = usize::from(n) - 1;
    // Unitary operands for the rows that are read as ns/amplitude: a
    // contracting matrix would walk the state into denormals over the reps.
    let m2 = GateKind::U3(0.3, 0.7, 1.1).matrix1().expect("1q matrix");
    let m4 = m2
        .kron(&m2)
        .mul(&GateKind::FSim(0.5, 0.2).matrix2().expect("2q matrix"));
    let d = [
        c64(0.6, -0.8),
        c64(-0.28, 0.96),
        c64(0.0, 1.0),
        c64(1.0, 0.0),
    ];
    let mut push = |kernel: &'static str, operands: &[usize], ns_op: f64| {
        rows.push(MatRow {
            kernel,
            operands: operands.to_vec(),
            qubits: n,
            amps: len,
            ns_op,
            ns_amp: ns_op / len as f64,
        });
    };
    for lo in [0, 1, 3, hi - 1] {
        push(
            "mat2",
            &[lo],
            ns_per_op(reps, || kernels::apply_mat2(black_box(amps), lo, &m2)),
        );
        push(
            "diag1",
            &[lo],
            ns_per_op(reps, || {
                kernels::apply_diag1(black_box(amps), lo, d[0], d[1])
            }),
        );
        push(
            "mat4",
            &[hi, lo],
            ns_per_op(reps, || kernels::apply_mat4(black_box(amps), hi, lo, &m4)),
        );
        push(
            "diag2",
            &[hi, lo],
            ns_per_op(reps, || kernels::apply_diag2(black_box(amps), hi, lo, d)),
        );
    }
    for low in [0, 3, usize::from(n) - 6] {
        let run = six_term_run(low);
        push(
            "diagrun6",
            &[low + 5, low],
            ns_per_op(reps, || run.apply(black_box(amps))),
        );
    }
}

/// Nanoseconds per call of `f`, with a warm-up pass.
fn ns_per_op(reps: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(reps)
}

fn main() {
    let full = std::env::var("TQSIM_FULL").is_ok_and(|v| v == "1");
    println!("================================================================");
    println!("kernels — substrate microbenchmarks (ns per operation)");
    println!(
        "mode: {}",
        if full {
            "FULL / paper scale"
        } else {
            "scaled-down"
        }
    );
    println!("kernel tier: {}", kernels::kernel_tier());
    println!("================================================================");
    // TQSIM_FULL is read directly rather than via Scale::from_env: the
    // latter also profiles the host copy cost, which is its own benchmark
    // (fig10) and would double the runtime here.

    let widths: &[u16] = if full { &[14, 18, 22] } else { &[14, 18] };
    let reps = if full { 200 } else { 40 };

    let mut table = Table::new(&["primitive", "qubits", "ns/op"]);

    for &n in widths {
        let mut sv = scrambled_state(n);
        let mid = n / 2;
        for (label, gate) in [
            ("h", Gate::new(GateKind::H, &[mid])),
            ("x", Gate::new(GateKind::X, &[mid])),
            ("rz", Gate::new(GateKind::Rz(0.3), &[mid])),
            ("cx", Gate::new(GateKind::Cx, &[0, mid])),
            ("cz", Gate::new(GateKind::Cz, &[0, mid])),
            ("u3", Gate::new(GateKind::U3(0.3, 0.7, 1.1), &[mid])),
            ("fsim", Gate::new(GateKind::FSim(0.5, 0.2), &[1, mid])),
            ("ccx", Gate::new(GateKind::Ccx, &[0, 1, mid])),
        ] {
            let ns = ns_per_op(reps, || sv.apply_gate(black_box(&gate)));
            table.row(&[format!("gate/{label}"), n.to_string(), format!("{ns:.0}")]);
        }

        let src = scrambled_state(n);
        let mut dst = StateVector::zero(n);
        let ns = ns_per_op(reps, || dst.copy_from(black_box(&src)));
        table.row(&["state_copy".into(), n.to_string(), format!("{ns:.0}")]);

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ns = ns_per_op(reps, || {
            black_box(src.sample(&mut rng));
        });
        table.row(&["sample_one".into(), n.to_string(), format!("{ns:.0}")]);
    }

    let n = 14u16;
    let gate = Gate::new(GateKind::Cx, &[0, n / 2]);
    for model in [
        NoiseModel::sycamore(),
        NoiseModel::amplitude_damping(0.01),
        NoiseModel::thermal_relaxation_sycamore(),
    ] {
        let mut sv = scrambled_state(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let ns = ns_per_op(reps, || {
            model.apply_after_gate(&mut sv, black_box(&gate), &mut rng);
        });
        table.row(&[
            format!("noise/{}", model.name()),
            n.to_string(),
            format!("{ns:.0}"),
        ]);
    }

    table.print();

    // ---- fused-op kernel ladder (2^10..2^20 amps) ----
    let mut mat_rows: Vec<MatRow> = Vec::new();
    for n in (10..=20u16).step_by(2) {
        // One kernel call sweeps the whole state: scale repetitions down
        // with size so every cell costs roughly the same wall time.
        let reps = ((1u32 << 22) >> n).clamp(4, 4096) * if full { 4 } else { 1 };
        sweep_matrix_kernels(n, reps, &mut mat_rows);
    }
    let mut mat_table = Table::new(&["kernel", "operands", "qubits", "amps", "ns/op", "ns/amp"]);
    for r in &mat_rows {
        mat_table.row(&[
            r.kernel.to_string(),
            format!("{:?}", r.operands),
            r.qubits.to_string(),
            r.amps.to_string(),
            format!("{:.0}", r.ns_op),
            format!("{:.3}", r.ns_amp),
        ]);
    }
    println!(
        "\nkernel ladder, tier {} (one call sweeps the full state)",
        kernels::kernel_tier()
    );
    mat_table.print();

    // Hand-rolled JSON (no serde in the offline workspace). Wall-clock
    // only — recorded for trend inspection, never asserted.
    let mut json = String::from("{\n  \"bench\": \"kernels\",\n  \"mode\": \"wall-clock\",\n");
    json.push_str(&format!(
        "  \"full\": {full},\n  \"tier\": \"{}\",\n  \"matrix_sweep\": [\n",
        kernels::kernel_tier()
    ));
    for (i, r) in mat_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"operands\": {:?}, \"qubits\": {}, \"amps\": {}, \
             \"ns_per_op\": {:.1}, \"ns_per_amp\": {:.4}}}{}\n",
            r.kernel,
            r.operands,
            r.qubits,
            r.amps,
            r.ns_op,
            r.ns_amp,
            if i + 1 < mat_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path =
        std::env::var("TQSIM_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("\nwrote {path}");
}
