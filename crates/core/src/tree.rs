//! The simulation-tree structure notation `(A0, A1, …, A_{k−1})` of §3.1.

use std::fmt;
use std::str::FromStr;

/// A TQSim simulation-tree shape: `arities[i]` is the arity of every node at
/// depth `i` (= the number of times the state produced by subcircuit `i−1`
/// is reused as input to subcircuit `i`).
///
/// Key quantities (paper §3.1):
/// - instances of subcircuit `i` = `∏_{j ≤ i} A_j` ([`TreeStructure::instances`]);
/// - total outcomes = `∏_j A_j` ([`TreeStructure::outcomes`]);
/// - the baseline simulator is the degenerate tree `(N)` — equivalently
///   `(N, 1, …, 1)` — produced by [`TreeStructure::baseline`].
///
/// ```
/// use tqsim::tree::TreeStructure;
/// let t: TreeStructure = "(16,2,2)".parse().unwrap();
/// assert_eq!(t.outcomes(), 64);
/// assert_eq!(t.subcircuit_executions(), 16 + 32 + 64);
/// assert_eq!(t.to_string(), "(16,2,2)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeStructure {
    arities: Vec<u64>,
}

/// Error constructing or parsing a [`TreeStructure`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The arity list was empty.
    Empty,
    /// An arity of zero appeared.
    ZeroArity,
    /// Text form could not be parsed.
    Parse(String),
    /// The node count `1 + Σ_i ∏_{j≤i} A_j` does not fit in a `u64`.
    TooManyNodes,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => f.write_str("tree needs at least one level"),
            TreeError::ZeroArity => f.write_str("arities must be >= 1"),
            TreeError::Parse(s) => write!(f, "cannot parse tree structure from {s:?}"),
            TreeError::TooManyNodes => f.write_str("tree node count overflows u64"),
        }
    }
}

impl std::error::Error for TreeError {}

impl TreeStructure {
    /// Build from an arity list.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] when the list is empty, contains a zero, or
    /// its node count overflows (then every count below would wrap).
    pub fn new(arities: Vec<u64>) -> Result<Self, TreeError> {
        if arities.is_empty() {
            return Err(TreeError::Empty);
        }
        if arities.contains(&0) {
            return Err(TreeError::ZeroArity);
        }
        // Counted from the root, as `total_nodes` counts.
        let (mut level, mut nodes) = (1u64, 1u64);
        for &a in &arities {
            level = level.checked_mul(a).ok_or(TreeError::TooManyNodes)?;
            nodes = nodes.checked_add(level).ok_or(TreeError::TooManyNodes)?;
        }
        Ok(TreeStructure { arities })
    }

    /// The baseline tree `(shots)`: every shot re-executes the whole circuit.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn baseline(shots: u64) -> Self {
        assert!(shots > 0, "need at least one shot");
        TreeStructure {
            arities: vec![shots],
        }
    }

    /// Per-level arities.
    pub fn arities(&self) -> &[u64] {
        &self.arities
    }

    /// Number of subcircuits `k`.
    pub fn depth(&self) -> usize {
        self.arities.len()
    }

    /// Instances of subcircuit `i`: `∏_{j ≤ i} A_j`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth`.
    pub fn instances(&self, i: usize) -> u64 {
        assert!(i < self.arities.len(), "level {i} out of range");
        self.arities[..=i].iter().product()
    }

    /// Total outcomes produced: `∏_j A_j`.
    pub fn outcomes(&self) -> u64 {
        self.arities.iter().product()
    }

    /// Total subcircuit executions: `Σ_i instances(i)` — the computation the
    /// paper counts as "nodes" (minus the initial-state root). Computed with
    /// a single prefix-product pass, O(k) rather than the O(k²) of summing
    /// [`TreeStructure::instances`] per level.
    pub fn subcircuit_executions(&self) -> u64 {
        self.arities
            .iter()
            .scan(1u64, |prod, &a| {
                *prod *= a;
                Some(*prod)
            })
            .sum()
    }

    /// Total node count including the initial-state root (Fig. 6/7 caption
    /// convention).
    pub fn total_nodes(&self) -> u64 {
        1 + self.subcircuit_executions()
    }
}

impl fmt::Display for TreeStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, a) in self.arities.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

impl FromStr for TreeStructure {
    type Err = TreeError;

    fn from_str(s: &str) -> Result<Self, TreeError> {
        let trimmed = s.trim().trim_start_matches('(').trim_end_matches(')');
        let arities: Result<Vec<u64>, _> = trimmed
            .split([',', '-'])
            .map(|part| part.trim().parse::<u64>())
            .collect();
        match arities {
            Ok(v) => TreeStructure::new(v).map_err(|_| TreeError::Parse(s.to_string())),
            Err(_) => Err(TreeError::Parse(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig6_baseline_counts() {
        // Baseline (64,1,1): 193 total nodes, 64 outcomes.
        let t = TreeStructure::new(vec![64, 1, 1]).unwrap();
        assert_eq!(t.total_nodes(), 193);
        assert_eq!(t.outcomes(), 64);
        assert_eq!(t.subcircuit_executions(), 64 * 3);
    }

    #[test]
    fn paper_fig7_dcp_counts() {
        // DCP (16,2,2): 113 total nodes, 64 outcomes.
        let t = TreeStructure::new(vec![16, 2, 2]).unwrap();
        assert_eq!(t.total_nodes(), 113);
        assert_eq!(t.outcomes(), 64);
        assert_eq!(t.instances(0), 16);
        assert_eq!(t.instances(1), 32);
        assert_eq!(t.instances(2), 64);
    }

    #[test]
    fn parse_both_notations() {
        // The paper writes both "(16,2,2)" and "250-2-2".
        let a: TreeStructure = "(250,2,2)".parse().unwrap();
        let b: TreeStructure = "250-2-2".parse().unwrap();
        assert_eq!(a, b);
        assert!("()".parse::<TreeStructure>().is_err());
        assert!("(1,x)".parse::<TreeStructure>().is_err());
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(TreeStructure::new(vec![]), Err(TreeError::Empty));
        assert_eq!(TreeStructure::new(vec![4, 0]), Err(TreeError::ZeroArity));
    }

    #[test]
    fn rejects_node_counts_that_overflow() {
        // ∏ = 2^64 wraps to 0 unchecked.
        assert_eq!(
            TreeStructure::new(vec![1 << 32, 1 << 32]),
            Err(TreeError::TooManyNodes)
        );
        // Every level fits, the sum of levels does not.
        assert_eq!(
            TreeStructure::new(vec![1 << 63, 1, 1]),
            Err(TreeError::TooManyNodes)
        );
        // Nor does the root on top of a full level.
        assert_eq!(
            TreeStructure::new(vec![u64::MAX]),
            Err(TreeError::TooManyNodes)
        );
        let widest = TreeStructure::new(vec![1 << 62, 2]).unwrap();
        assert_eq!(widest.outcomes(), 1 << 63);
        assert_eq!(widest.subcircuit_executions(), (1 << 62) + (1 << 63));
    }

    #[test]
    fn prefix_product_matches_per_level_instances() {
        let t = TreeStructure::new(vec![7, 1, 3, 2, 1, 5, 2, 2]).unwrap();
        let by_level: u64 = (0..t.depth()).map(|i| t.instances(i)).sum();
        assert_eq!(t.subcircuit_executions(), by_level);
    }

    #[test]
    fn display_roundtrip() {
        let t = TreeStructure::new(vec![500, 2, 2, 2, 2, 2, 2]).unwrap();
        let s = t.to_string();
        assert_eq!(s.parse::<TreeStructure>().unwrap(), t);
    }
}
