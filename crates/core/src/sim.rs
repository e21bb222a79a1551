//! The [`Tqsim`] façade: a builder tying circuit, noise, shots, strategy and
//! seed together.

use crate::dcp::DcpConfig;
use crate::executor::{RunResult, TreeExecutor};
use crate::partition::{Partition, PlanError, Strategy};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;

/// Builder for a TQSim run, executed serially by the reference
/// [`TreeExecutor`]. Parallel execution goes through the `tqsim-engine`
/// crate instead: submit the same circuit, noise, shots, strategy and seed
/// as a `JobSpec` to an `Engine`, whose `EngineConfig` sets the worker
/// count.
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
    circuit: &'a Circuit,
    noise: NoiseModel,
    shots: u64,
    strategy: Strategy,
    seed: u64,
}

impl Strategy {
    /// DCP with default tunables — the recommended strategy.
    pub fn default_dcp() -> Strategy {
        Strategy::Dynamic(DcpConfig::default())
    }
}

impl<'a> Tqsim<'a> {
    /// Start a run description for `circuit` with defaults: Sycamore
    /// depolarizing noise, 1000 shots, DCP, seed 0.
    pub fn new(circuit: &'a Circuit) -> Self {
        Tqsim {
            circuit,
            noise: NoiseModel::sycamore(),
            shots: 1000,
            strategy: Strategy::default_dcp(),
            seed: 0,
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

    /// Plan the partition without executing (for inspection/reporting).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unplannable inputs.
    pub fn plan(&self) -> Result<Partition, PlanError> {
        self.strategy.plan(self.circuit, &self.noise, self.shots)
    }

    /// Plan and execute.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for unplannable inputs.
    pub fn run(&self) -> Result<RunResult, PlanError> {
        let partition = self.plan()?;
        Ok(TreeExecutor::new(self.circuit, &self.noise, partition)?.run(self.seed))
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
    fn plan_only_does_not_execute() {
        let c = generators::qft(8);
        let p = Tqsim::new(&c).shots(1000).plan().unwrap();
        assert!(p.k() >= 2);
    }
}
