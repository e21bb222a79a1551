//! The [`Tqsim`] job description: circuit, noise, shots, strategy, seed
//! and leaf samples.

use crate::dcp::DcpConfig;
use crate::executor::{JobPlan, RunResult};
use crate::partition::{Partition, PlanError, Strategy};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_statevec::{PooledBackend, SingleNode};

/// One simulation job: the one job description. [`Tqsim::run`] plans it
/// into a [`JobPlan`] and walks that serially; the `tqsim-engine` crate
/// takes the same value (its `JobSpec` is this type) and runs a batch of
/// them on its worker pool, planning each through its plan cache.
///
/// ```
/// use tqsim::{Strategy, Tqsim};
/// use tqsim_circuit::generators;
/// use tqsim_noise::NoiseModel;
///
/// let circuit = generators::qft(8);
/// let result = Tqsim::new(&circuit)
///     .noise(NoiseModel::sycamore())
///     .shots(500)
///     .strategy(Strategy::default_dcp())
///     .seed(7)
///     .run()?;
/// assert_eq!(result.counts.total(), result.tree.outcomes());
/// # Ok::<(), tqsim::PlanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Tqsim<'a> {
    /// The circuit to simulate.
    pub circuit: &'a Circuit,
    /// The noise model.
    pub noise: NoiseModel,
    /// The shot count `N` (the minimum number of outcomes produced).
    pub shots: u64,
    /// The partition strategy.
    pub strategy: Strategy,
    /// The RNG seed.
    pub seed: u64,
    /// Outcomes drawn per leaf (at least 1).
    pub leaf_samples: u32,
}

impl Strategy {
    /// DCP with default tunables — the recommended strategy.
    pub fn default_dcp() -> Strategy {
        Strategy::Dynamic(DcpConfig::default())
    }
}

impl<'a> Tqsim<'a> {
    /// Start a job description for `circuit` with defaults: Sycamore
    /// depolarizing noise, 1000 shots, DCP, seed 0, one sample per leaf.
    pub fn new(circuit: &'a Circuit) -> Self {
        Tqsim {
            circuit,
            noise: NoiseModel::sycamore(),
            shots: 1000,
            strategy: Strategy::default_dcp(),
            seed: 0,
            leaf_samples: 1,
        }
    }

    /// Set the noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Set the shot count `N` (the minimum number of outcomes produced).
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Set the partition strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the RNG seed (runs are fully deterministic given a seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Outcomes drawn per leaf (cheap oversampling; see
    /// [`JobPlan::run_on`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn leaf_samples(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one sample per leaf");
        self.leaf_samples = n;
        self
    }

    /// Plan the partition without executing (for inspection/reporting).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unplannable inputs.
    pub fn plan(&self) -> Result<Partition, PlanError> {
        self.strategy.plan(self.circuit, &self.noise, self.shots)
    }

    /// Plan and execute serially on one node.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unplannable inputs, and
    /// [`PlanError::BadConfig`] for a circuit wider than one node's state
    /// holds ([`PooledBackend::supports`]), before anything is planned or
    /// allocated.
    pub fn run(&self) -> Result<RunResult, PlanError> {
        let n = self.circuit.n_qubits();
        if !SingleNode.supports(n) {
            return Err(PlanError::BadConfig(format!(
                "a single node cannot hold {n}-qubit states"
            )));
        }
        let plan = JobPlan::new(self.circuit, &self.noise, self.plan()?)?;
        Ok(plan.run_on(&SingleNode, self.seed, self.leaf_samples).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;

    #[test]
    fn builder_runs_end_to_end() {
        let c = generators::qft(6);
        let r = Tqsim::new(&c).shots(100).seed(3).run().unwrap();
        assert!(r.counts.total() >= 100);
        assert!(r.ops.total_gates() > 0);
    }

    #[test]
    fn baseline_vs_dcp_computation_reduction() {
        // The headline claim in microcosm: DCP must execute fewer gates
        // than the baseline for the same outcome count.
        // Shot count must comfortably exceed Eq. 5's A0 (~300 at default
        // margin) for DCP to beat the baseline; below that DCP correctly
        // falls back to the flat plan.
        let c = generators::qft(8);
        let base = Tqsim::new(&c)
            .shots(2000)
            .strategy(Strategy::Baseline)
            .seed(1)
            .run()
            .unwrap();
        let dcp = Tqsim::new(&c).shots(2000).seed(1).run().unwrap();
        assert!(
            dcp.ops.total_gates() < base.ops.total_gates(),
            "dcp {} >= baseline {}",
            dcp.ops.total_gates(),
            base.ops.total_gates()
        );
        assert!(dcp.counts.total() >= 2000);
        // Low-shot regime: DCP = baseline, not worse.
        let few = Tqsim::new(&c).shots(64).seed(1).plan().unwrap();
        assert_eq!(few.k(), 1, "expected baseline fallback, got {}", few.tree);
    }

    #[test]
    fn a_circuit_wider_than_one_node_is_refused_not_run() {
        let mut wide = Circuit::new(31);
        wide.h(0);
        let refused = Tqsim::new(&wide).shots(1).run();
        assert!(
            matches!(refused, Err(PlanError::BadConfig(_))),
            "{refused:?}"
        );
    }

    #[test]
    fn plan_only_does_not_execute() {
        let c = generators::qft(8);
        let p = Tqsim::new(&c).shots(1000).plan().unwrap();
        assert!(p.k() >= 2);
    }
}
