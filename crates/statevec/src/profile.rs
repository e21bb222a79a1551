//! Host copy-cost profiling (the measurement behind Fig. 10 and the input
//! to DCP's minimum-subcircuit-length rule, paper §3.6).

use crate::state::StateVector;
use std::time::Instant;
use tqsim_circuit::{Gate, GateKind};

/// Result of profiling state-copy vs gate-execution cost on this host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostCopyCost {
    /// Width profiled.
    pub n_qubits: u16,
    /// Median nanoseconds for one full state copy.
    pub copy_ns: f64,
    /// Median nanoseconds for one Hadamard on the middle qubit.
    pub gate_ns: f64,
}

impl HostCopyCost {
    /// Copy cost normalised to one gate (Fig. 10's y-axis).
    pub fn ratio(&self) -> f64 {
        self.copy_ns / self.gate_ns
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}

/// Measure the state-copy and gate costs at a given width.
///
/// The paper observes the ratio is roughly width-independent (§3.6), so a
/// single mid-size measurement suffices as DCP input.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn measure_copy_cost(n_qubits: u16, trials: usize) -> HostCopyCost {
    assert!(trials > 0, "need at least one trial");
    let mut sv = StateVector::zero(n_qubits);
    // Put the state into a generic superposition so the gate pass touches
    // non-trivial data.
    sv.apply_gate(&Gate::new(GateKind::H, &[0]));
    let gate = Gate::new(GateKind::H, &[n_qubits / 2]);
    let mut dst = sv.clone();

    // Warm-up pass so page faults and rayon pool spin-up don't pollute
    // the first trial.
    sv.apply_gate(&gate);
    dst.copy_from(&sv);

    let mut gate_times = Vec::with_capacity(trials);
    let mut copy_times = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t0 = Instant::now();
        sv.apply_gate(&gate);
        gate_times.push(t0.elapsed().as_nanos() as f64);

        let t1 = Instant::now();
        dst.copy_from(&sv);
        copy_times.push(t1.elapsed().as_nanos() as f64);
    }
    HostCopyCost {
        n_qubits,
        copy_ns: median(copy_times),
        gate_ns: median(gate_times),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_produces_positive_ratio() {
        let m = measure_copy_cost(12, 5);
        assert!(m.copy_ns > 0.0);
        assert!(m.gate_ns > 0.0);
        assert!(m.ratio() > 0.0);
    }

    #[test]
    fn median_of_odd_list() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
