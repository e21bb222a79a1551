//! Operation counters shared by every execution engine.
//!
//! TQSim's speedups are fundamentally *computation-count* reductions
//! (paper §5.2); tracking counts lets any engine report both measured and
//! cost-model time (see [`crate::backend`]).

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Counts of the primitive operations an execution performed. Each count is
/// in units of "full passes over a 2^n state" of the given flavour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Single-qubit gate applications.
    pub gates_1q: u64,
    /// Two-qubit gate applications.
    pub gates_2q: u64,
    /// Three-qubit gate applications.
    pub gates_3q: u64,
    /// Stochastic noise-operator applications (marginal + Kraus + renorm).
    pub noise_ops: u64,
    /// Full state copies (the reuse overhead TQSim's DCP budgets for).
    pub state_copies: u64,
    /// State resets to |0…0⟩ (the baseline pays one per shot).
    pub state_resets: u64,
    /// Outcome samples drawn (≈ half a pass each).
    pub samples: u64,
    /// **Measured** full passes over the amplitude array performed by the
    /// gate-application engine. Unfused execution performs one pass per
    /// (non-identity) gate; fused replay (see [`crate::plan`]) collapses
    /// runs of gates into single sweeps, so `amp_passes < total_gates()`
    /// quantifies the fusion win. Noise-channel sweeps (marginals, Kraus
    /// branches, renormalisation) are accounted under `noise_ops`, not here.
    pub amp_passes: u64,
    /// Gates (or fired noise branches) that were merged into an already
    /// pending fused operation instead of costing their own pass.
    pub fused_gates: u64,
    /// Tree nodes served without copy or replay: error-free realizations
    /// that reused the state a sibling had already computed from the same
    /// parent state (the `|0…0⟩` root state included). Every other count
    /// stays *work done*, so `state_copies + nodes_shared` counts every
    /// node of the tree once.
    pub nodes_shared: u64,
}

impl OpCounts {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` gate applications of the given arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not 1, 2 or 3.
    pub fn add_gates(&mut self, arity: usize, n: u64) {
        match arity {
            1 => self.gates_1q += n,
            2 => self.gates_2q += n,
            3 => self.gates_3q += n,
            a => panic!("unsupported gate arity {a}"),
        }
    }

    /// Total gate applications of any arity.
    pub fn total_gates(&self) -> u64 {
        self.gates_1q + self.gates_2q + self.gates_3q
    }

    /// Fold another tally into this one (named form of `+=`, used by the
    /// parallel engines when reducing per-worker accumulators).
    pub fn merge(&mut self, other: &OpCounts) {
        *self += *other;
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            gates_1q: self.gates_1q + rhs.gates_1q,
            gates_2q: self.gates_2q + rhs.gates_2q,
            gates_3q: self.gates_3q + rhs.gates_3q,
            noise_ops: self.noise_ops + rhs.noise_ops,
            state_copies: self.state_copies + rhs.state_copies,
            state_resets: self.state_resets + rhs.state_resets,
            samples: self.samples + rhs.samples,
            amp_passes: self.amp_passes + rhs.amp_passes,
            fused_gates: self.fused_gates + rhs.fused_gates,
            nodes_shared: self.nodes_shared + rhs.nodes_shared,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum() {
        let a = OpCounts {
            gates_1q: 3,
            gates_2q: 1,
            ..Default::default()
        };
        let b = OpCounts {
            gates_1q: 2,
            state_copies: 4,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.gates_1q, 5);
        assert_eq!(c.state_copies, 4);
        let s: OpCounts = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn add_gates_by_arity() {
        let mut ops = OpCounts::new();
        ops.add_gates(1, 5);
        ops.add_gates(2, 3);
        ops.add_gates(3, 1);
        assert_eq!(ops.total_gates(), 9);
    }

    #[test]
    #[should_panic(expected = "unsupported gate arity")]
    fn add_gates_rejects_bad_arity() {
        OpCounts::new().add_gates(4, 1);
    }
}
