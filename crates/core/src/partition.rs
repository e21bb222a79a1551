//! Circuit partitions and the planning strategies (UCP, XCP, DCP, custom).

use crate::dcp::{plan_dcp, DcpConfig};
use crate::tree::{TreeError, TreeStructure};
use std::fmt;
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;

/// A concrete execution plan: where the circuit splits and the tree shape.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// `k + 1` gate-index boundaries: `0 = b_0 < b_1 < … < b_k = len`.
    boundaries: Vec<usize>,
    /// Tree shape with one arity per subcircuit.
    pub tree: TreeStructure,
    /// See [`Partition::per_shot`].
    per_shot: bool,
}

/// Error from partition planning or construction.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The circuit has no gates.
    EmptyCircuit,
    /// Zero shots requested.
    ZeroShots,
    /// Boundaries are not strictly increasing from 0, or disagree with the
    /// tree depth.
    BadBoundaries(String),
    /// Invalid configuration parameters.
    BadConfig(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyCircuit => f.write_str("circuit has no gates"),
            PlanError::ZeroShots => f.write_str("at least one shot is required"),
            PlanError::BadBoundaries(s) => write!(f, "bad partition boundaries: {s}"),
            PlanError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<TreeError> for PlanError {
    fn from(err: TreeError) -> Self {
        PlanError::BadConfig(err.to_string())
    }
}

impl Partition {
    /// Build from explicit boundaries and a tree shape.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadBoundaries`] unless the boundaries start at
    /// 0, increase strictly, and count `tree.depth() + 1` entries.
    pub fn new(boundaries: Vec<usize>, tree: TreeStructure) -> Result<Self, PlanError> {
        if boundaries.len() != tree.depth() + 1 {
            return Err(PlanError::BadBoundaries(format!(
                "{} boundaries for tree depth {}",
                boundaries.len(),
                tree.depth()
            )));
        }
        if boundaries[0] != 0 {
            return Err(PlanError::BadBoundaries("must start at gate 0".into()));
        }
        if !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(PlanError::BadBoundaries(format!(
                "not strictly increasing: {boundaries:?}"
            )));
        }
        Ok(Partition {
            boundaries,
            tree,
            per_shot: false,
        })
    }

    /// The flat plan: one subcircuit spanning the whole circuit, executed
    /// `shots` times. DCP falls back to it, and it shares its error-free
    /// shots unless [`Strategy::Baseline`] planned it.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for an empty circuit or zero shots.
    pub fn baseline(circuit_len: usize, shots: u64) -> Result<Self, PlanError> {
        if circuit_len == 0 {
            return Err(PlanError::EmptyCircuit);
        }
        if shots == 0 {
            return Err(PlanError::ZeroShots);
        }
        Partition::new(vec![0, circuit_len], TreeStructure::baseline(shots))
    }

    /// Whether every root node runs in full, error-free or not: the
    /// per-shot reference, which only [`Strategy::Baseline`] plans.
    pub fn per_shot(&self) -> bool {
        self.per_shot
    }

    /// Number of subcircuits.
    pub fn k(&self) -> usize {
        self.tree.depth()
    }

    /// The boundary list (`k + 1` gate indices).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Gate count of each subcircuit.
    pub fn lengths(&self) -> Vec<usize> {
        self.boundaries.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total gates covered (must equal the circuit length it was planned
    /// for).
    pub fn covered_gates(&self) -> usize {
        *self.boundaries.last().expect("non-empty boundaries")
    }

    /// Materialise the subcircuits of `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly `circuit.len()` gates.
    pub fn subcircuits(&self, circuit: &Circuit) -> Vec<Circuit> {
        assert_eq!(
            self.covered_gates(),
            circuit.len(),
            "partition covers {} gates but circuit has {}",
            self.covered_gates(),
            circuit.len()
        );
        self.boundaries
            .windows(2)
            .map(|w| circuit.slice(w[0]..w[1]))
            .collect()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over gates {:?}", self.tree, self.lengths())
    }
}

/// A partition-planning strategy.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// No reuse: the flat Monte-Carlo baseline `(N)`, the one strategy
    /// whose root never shares ([`Partition::per_shot`]).
    Baseline,
    /// Uniform Circuit Partition: `k` equal subcircuits, equal arities
    /// (§3.2.1, e.g. `(10,10,10)` for 1000 shots).
    Uniform {
        /// Number of subcircuits.
        k: usize,
    },
    /// Exponential Circuit Partition: arities halve level-to-level
    /// (§3.2.1, e.g. `(20,10,5)` for 1000 shots).
    Exponential {
        /// Number of subcircuits.
        k: usize,
    },
    /// Dynamic Circuit Partition (the paper's contribution, §3.2.2-§3.2.4).
    Dynamic(DcpConfig),
    /// Explicit arities with an equal-gate-count split (used by the Fig. 17
    /// trade-off study, e.g. `250-2-2`).
    Custom {
        /// Arity per subcircuit.
        arities: Vec<u64>,
    },
}

impl Strategy {
    /// Plan a partition of `circuit` for `shots` shots under `noise`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on empty circuits, zero shots, a UCP/XCP `k`
    /// of zero or larger than the gate count, or invalid custom arities.
    pub fn plan(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u64,
    ) -> Result<Partition, PlanError> {
        if circuit.is_empty() {
            return Err(PlanError::EmptyCircuit);
        }
        if shots == 0 {
            return Err(PlanError::ZeroShots);
        }
        match self {
            Strategy::Baseline => Ok(Partition {
                per_shot: true,
                ..Partition::baseline(circuit.len(), shots)?
            }),
            // The depth is refused before anything is sized by it: a wire
            // client's `k` may be as large as 2^53.
            Strategy::Uniform { k } | Strategy::Exponential { k }
                if *k == 0 || *k > circuit.len() =>
            {
                Err(PlanError::BadConfig(format!(
                    "k = {k} subcircuits for {} gates",
                    circuit.len()
                )))
            }
            Strategy::Uniform { k } => equal_split(circuit.len(), uniform_arities(*k, shots)),
            Strategy::Exponential { k } => {
                equal_split(circuit.len(), exponential_arities(*k, shots))
            }
            Strategy::Dynamic(cfg) => plan_dcp(circuit, noise, shots, cfg),
            Strategy::Custom { arities } => equal_split(circuit.len(), arities.clone()),
        }
    }
}

/// UCP arities: `k ≥ 1` equal values whose product covers `shots`
/// (floor of the k-th root, bumped round-robin until `∏ ≥ shots`).
fn uniform_arities(k: usize, shots: u64) -> Vec<u64> {
    let base = (shots as f64).powf(1.0 / k as f64).floor() as u64;
    let mut arities = vec![base.max(1); k];
    bump_until_covers(&mut arities, shots);
    arities
}

/// XCP arities (`k ≥ 1`): geometric halving `A, A/2, A/4, …` with
/// `∏ ≥ shots`.
fn exponential_arities(k: usize, shots: u64) -> Vec<u64> {
    // Solve A^k / 2^{k(k-1)/2} = shots.
    let exponent = (k * (k - 1) / 2) as f64;
    let a0 = ((shots as f64) * 2f64.powf(exponent))
        .powf(1.0 / k as f64)
        .floor() as u64;
    let mut a0 = a0.max(1);
    loop {
        let arities: Vec<u64> = (0..k)
            .map(|i| a0.checked_shr(i as u32).unwrap_or(0).max(1))
            .collect();
        if product(&arities) >= shots {
            return arities;
        }
        a0 += 1;
    }
}

/// `∏ arities`, saturating: a product past `u64::MAX` covers any shot
/// count, and [`TreeStructure::new`] then refuses the tree.
fn product(arities: &[u64]) -> u64 {
    arities.iter().fold(1, |p, &a| p.saturating_mul(a))
}

fn bump_until_covers(arities: &mut [u64], shots: u64) {
    let mut idx = 0;
    while product(arities) < shots {
        arities[idx] += 1;
        idx = (idx + 1) % arities.len();
    }
}

fn equal_split(len: usize, arities: Vec<u64>) -> Result<Partition, PlanError> {
    let tree = TreeStructure::new(arities)?;
    let k = tree.depth();
    if k > len {
        return Err(PlanError::BadBoundaries(format!(
            "{k} subcircuits for {len} gates"
        )));
    }
    let boundaries: Vec<usize> = (0..=k).map(|i| len * i / k).collect();
    Partition::new(boundaries, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;
    use tqsim_noise::NoiseModel;

    #[test]
    fn ucp_paper_example() {
        // 1000 shots, 3 subcircuits → (10,10,10).
        let arities = uniform_arities(3, 1000);
        assert_eq!(arities, vec![10, 10, 10]);
    }

    #[test]
    fn xcp_paper_example() {
        // 1000 shots, 3 subcircuits → (20,10,5).
        let arities = exponential_arities(3, 1000);
        assert_eq!(arities, vec![20, 10, 5]);
    }

    #[test]
    fn ucp_covers_non_perfect_powers() {
        let arities = uniform_arities(3, 1001);
        assert!(arities.iter().product::<u64>() >= 1001);
    }

    #[test]
    fn partition_validation() {
        let t = TreeStructure::new(vec![4, 2]).unwrap();
        assert!(Partition::new(vec![0, 3, 10], t.clone()).is_ok());
        assert!(
            Partition::new(vec![0, 10], t.clone()).is_err(),
            "depth mismatch"
        );
        assert!(
            Partition::new(vec![1, 3, 10], t.clone()).is_err(),
            "must start at 0"
        );
        assert!(
            Partition::new(vec![0, 5, 5], t).is_err(),
            "not strictly increasing"
        );
    }

    #[test]
    fn subcircuits_cover_whole_circuit() {
        let c = generators::qft(8);
        let noise = NoiseModel::sycamore();
        for strat in [
            Strategy::Baseline,
            Strategy::Uniform { k: 4 },
            Strategy::Exponential { k: 3 },
            Strategy::Dynamic(DcpConfig::default()),
            Strategy::Custom {
                arities: vec![50, 2, 2],
            },
        ] {
            let p = strat.plan(&c, &noise, 200).unwrap();
            let subs = p.subcircuits(&c);
            let total: usize = subs.iter().map(Circuit::len).sum();
            assert_eq!(total, c.len(), "{strat:?}");
            assert!(p.tree.outcomes() >= 200, "{strat:?}");
        }
    }

    #[test]
    fn custom_matches_fig17_structures() {
        let c = generators::qpe(8, 1.0 / 3.0); // the paper's QPE_9
        let noise = NoiseModel::sycamore();
        for spec in [
            "250-2-2", "20-10-5", "10-10-10", "5-10-20", "2-2-250", "250-1-1",
        ] {
            let tree: TreeStructure = spec.parse().unwrap();
            let strat = Strategy::Custom {
                arities: tree.arities().to_vec(),
            };
            let p = strat.plan(&c, &noise, 1000).unwrap();
            assert_eq!(p.k(), 3);
            assert_eq!(p.tree, tree);
        }
    }

    #[test]
    fn errors_are_reported() {
        let noise = NoiseModel::sycamore();
        let c = generators::bv(6);
        assert_eq!(
            Strategy::Baseline.plan(&Circuit::new(3), &noise, 10),
            Err(PlanError::EmptyCircuit)
        );
        assert_eq!(
            Strategy::Baseline.plan(&c, &noise, 0),
            Err(PlanError::ZeroShots)
        );
        assert!(Strategy::Uniform { k: 0 }.plan(&c, &noise, 10).is_err());
        assert!(Strategy::Custom { arities: vec![] }
            .plan(&c, &noise, 10)
            .is_err());
        // More subcircuits than gates, refused before the arities are
        // sized by `k`: at `k = 2^50` UCP's would take 8 PiB.
        for k in [c.len() + 1, 1 << 50] {
            for strat in [Strategy::Uniform { k }, Strategy::Exponential { k }] {
                assert!(
                    matches!(strat.plan(&c, &noise, 1000), Err(PlanError::BadConfig(_))),
                    "{strat:?}"
                );
            }
        }
        assert!(Strategy::Uniform { k: 100 }
            .plan(&c, &noise, 1 << 20)
            .is_err());
    }

    #[test]
    fn arity_searches_refuse_trees_whose_node_count_overflows() {
        let noise = NoiseModel::sycamore();
        let c = generators::qft(14);
        let overflow = PlanError::from(TreeError::TooManyNodes);
        // XCP's root arity estimate saturates at u64::MAX for k = 64.
        assert_eq!(
            Strategy::Exponential { k: 64 }.plan(&c, &noise, 1000),
            Err(overflow.clone())
        );
        // UCP's k-th root rounds up past the shot count: (2^32, 2^32).
        assert_eq!(
            Strategy::Uniform { k: 2 }.plan(&c, &noise, u64::MAX),
            Err(overflow.clone())
        );
        assert_eq!(
            Strategy::Custom {
                arities: vec![1 << 32, 1 << 32]
            }
            .plan(&c, &noise, 1),
            Err(overflow)
        );
    }
}
