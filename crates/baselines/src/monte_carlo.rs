//! The flat Monte-Carlo baseline: one full noisy circuit execution per shot.
//!
//! This is an *independent* implementation of the tree-walk semantics that
//! `tqsim`'s degenerate tree `(N)` also provides — the two are
//! cross-validated in the integration tests, which is exactly why the
//! duplication exists. It still benefits from the compile-once/replay-many
//! layer: the circuit is compiled into one fused plan up front and replayed
//! per shot (`N` replays of a single compilation), with the noise-adaptive
//! flush keeping the RNG streams — and therefore `Counts` — identical to
//! unfused per-gate dispatch.
//!
//! Shots in flight at once (the paper's Fig. 8) are the flat tree `(N)` on
//! `tqsim-engine`'s pool; this crate deliberately does not link the
//! executor it cross-checks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tqsim::Counts;
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_statevec::{OpCounts, StateVector};

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Measurement histogram (`shots` entries).
    pub counts: Counts,
    /// Operation tallies.
    pub ops: OpCounts,
    /// Measured wall-clock time.
    pub wall_time: Duration,
    /// Peak amplitude memory in bytes: the one state every shot reuses.
    pub peak_memory_bytes: usize,
}

/// Run `shots` independent noisy trajectories sequentially.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit is empty.
pub fn run_baseline(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
) -> BaselineResult {
    assert!(shots > 0, "need at least one shot");
    assert!(!circuit.is_empty(), "empty circuit");
    let t0 = Instant::now();
    let n = circuit.n_qubits();
    let mut counts = Counts::new(n);
    let mut ops = OpCounts::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sv = StateVector::zero(n);
    // Compile once, replay `shots` times through the shared generic driver.
    let plan = noise.compile(circuit);
    for _shot in 0..shots {
        sv.reset_zero();
        ops.state_resets += 1;
        tqsim::run_subcircuit(&mut sv, circuit, &plan, noise, &mut rng, &mut ops, true);
        let outcome = noise.apply_readout(sv.sample(&mut rng), n, &mut rng);
        counts.increment(outcome);
        ops.samples += 1;
    }
    BaselineResult {
        counts,
        ops,
        wall_time: t0.elapsed(),
        peak_memory_bytes: 16usize << n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;

    #[test]
    fn baseline_counts_and_ops() {
        let c = generators::bv(6);
        let noise = NoiseModel::sycamore();
        let r = run_baseline(&c, &noise, 50, 3);
        assert_eq!(r.counts.total(), 50);
        assert_eq!(r.ops.state_resets, 50);
        assert_eq!(r.ops.samples, 50);
        assert_eq!(r.ops.total_gates(), 50 * c.len() as u64);
    }

    #[test]
    fn baseline_is_deterministic() {
        let c = generators::qft(6);
        let noise = NoiseModel::sycamore();
        let a = run_baseline(&c, &noise, 40, 9);
        let b = run_baseline(&c, &noise, 40, 9);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn ideal_noise_reproduces_exact_distribution() {
        let c = generators::bv(6);
        let r = run_baseline(&c, &NoiseModel::ideal(), 200, 7);
        let secret = 0b1_1110u64;
        for (outcome, _) in r.counts.iter() {
            assert_eq!(outcome & 0x1f, secret);
        }
    }
}
