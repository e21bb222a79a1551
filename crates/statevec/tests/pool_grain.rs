//! Pool-grain regression: one gate-kernel call costs a small, fixed number
//! of amplitude-pool tasks **whatever the qubit placement**, never collapses
//! to a single task on the highest qubits, and computes the same amplitudes
//! as the serial path.
//!
//! Before the span-based split, a `mat4` on qubits (1, 0) at n = 16 ran
//! 16 512 pool tasks (one per quad of a nested `par_chunks_mut`) and the
//! same gate on (15, 14) exactly 2. The sweep runs at n = 17, the
//! narrowest width the default threshold pools. Exact counts come from
//! `rayon::pool_stats().tasks`, a process-wide counter, so this file holds
//! one test and is its own process.

use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_circuit::GateKind;
use tqsim_statevec::kernels::{self, DEFAULT_PAR_MIN_LEN};

const N: usize = 17;

/// `len / (par_min_len / 4)`: every task is exactly one grain at this size.
const TASKS_PER_CALL: u64 = ((1usize << N) / (DEFAULT_PAR_MIN_LEN / 4)) as u64;

// Small and fixed, and never a single task — (16, 15) included.
const _: () = assert!(TASKS_PER_CALL >= 2 && TASKS_PER_CALL <= 16);

fn scrambled() -> Vec<C64> {
    (0..1usize << N)
        .map(|i| {
            let x = i as f64;
            c64((0.37 * x + 0.1).sin(), (0.91 * x - 0.4).cos())
        })
        .collect()
}

/// Run `kernel` on the pool (2 amplitude threads) and serially; assert the
/// amplitudes agree and return the pool tasks the pooled call cost.
fn tasks_of(pool: &rayon::ThreadPool, label: &str, kernel: impl Fn(&mut [C64])) -> u64 {
    let mut pooled = scrambled();
    let mut serial = pooled.clone();
    kernels::set_par_min_len(DEFAULT_PAR_MIN_LEN);
    let before = rayon::pool_stats().tasks;
    pool.install(|| kernel(&mut pooled));
    let tasks = rayon::pool_stats().tasks - before;
    kernels::set_par_min_len(usize::MAX);
    kernel(&mut serial);
    assert_eq!(
        rayon::pool_stats().tasks - before,
        tasks,
        "{label}: the serial path must not touch the pool"
    );
    assert_eq!(pooled, serial, "{label}: pooled != serial amplitudes");
    tasks
}

#[test]
fn one_kernel_call_costs_a_bounded_number_of_pool_tasks() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("amplitude pool");
    let m2: Mat2 = GateKind::U3(0.3, 0.7, 1.1).matrix1().expect("1q matrix");
    let m4: Mat4 = GateKind::FSim(0.5, 0.2).matrix2().expect("2q matrix");
    let (d0, d1) = (c64(0.6, -0.8), c64(-0.28, 0.96));

    for q in 0..N {
        let t = tasks_of(&pool, &format!("mat2({q})"), |v| {
            kernels::apply_mat2(v, q, &m2)
        });
        assert_eq!(t, TASKS_PER_CALL, "mat2({q})");
        let t = tasks_of(&pool, &format!("diag1({q})"), |v| {
            kernels::apply_diag1(v, q, d0, d1)
        });
        assert_eq!(t, TASKS_PER_CALL, "diag1({q})");
        let t = tasks_of(&pool, &format!("cx({},{q})", (q + 1) % N), |v| {
            kernels::apply_cx(v, (q + 1) % N, q)
        });
        assert_eq!(t, TASKS_PER_CALL, "cx onto {q}");
    }
    for q_hi in 0..N {
        for q_lo in (0..N).filter(|&q| q != q_hi) {
            let t = tasks_of(&pool, &format!("mat4({q_hi},{q_lo})"), |v| {
                kernels::apply_mat4(v, q_hi, q_lo, &m4)
            });
            assert_eq!(t, TASKS_PER_CALL, "mat4({q_hi},{q_lo})");
        }
    }
    kernels::set_par_min_len(DEFAULT_PAR_MIN_LEN);

    // One width below the default threshold a call stays on its thread.
    let mut narrow = scrambled();
    narrow.truncate(1 << (N - 1));
    let before = rayon::pool_stats().tasks;
    pool.install(|| kernels::apply_mat4(&mut narrow, 3, 1, &m4));
    assert_eq!(rayon::pool_stats().tasks, before, "2^16 amplitudes pooled");
}
