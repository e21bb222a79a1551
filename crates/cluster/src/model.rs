//! Interconnect and node-throughput model converting counted operations
//! into estimated cluster time (the substitution for real multi-node
//! hardware, see DESIGN.md §2).

/// Performance constants of a simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterconnectModel {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Per-link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-node amplitude-operation throughput (amplitude updates/second).
    pub node_amp_ops_per_s: f64,
}

impl InterconnectModel {
    /// A commodity InfiniBand-class CPU cluster: 2 µs latency, 12.5 GB/s
    /// links, ~2×10⁹ amplitude updates/s per node (multi-core Xeon running
    /// complex AXPY-bound kernels).
    pub fn commodity_cluster() -> Self {
        InterconnectModel {
            latency_s: 2e-6,
            bandwidth_bps: 12.5e9,
            node_amp_ops_per_s: 2.0e9,
        }
    }

    /// Time for every node to process `amps_per_node` amplitude updates in
    /// parallel.
    pub fn compute_time(&self, amps_per_node: u64) -> f64 {
        amps_per_node as f64 / self.node_amp_ops_per_s
    }

    /// Time for a pairwise exchange in which every node sends and receives
    /// `bytes_per_node` (all pairs transfer concurrently).
    pub fn exchange_time(&self, bytes_per_node: u64) -> f64 {
        self.latency_s + bytes_per_node as f64 / self.bandwidth_bps
    }

    /// Time for a scalar all-reduce across `n_nodes` (log-depth tree of
    /// latency-bound messages).
    pub fn allreduce_time(&self, n_nodes: usize) -> f64 {
        self.latency_s * (n_nodes as f64).log2().max(1.0)
    }
}

/// Aggregate counters of a distributed execution, including the modeled
/// time accumulated operation by operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    /// Ops applied with no exchange round (diagonal runs included).
    pub local_gates: u64,
    /// Ops that triggered at least one exchange round (their operands were
    /// not all on local positions).
    pub global_gates: u64,
    /// Pairwise distributed swaps performed.
    pub exchanges: u64,
    /// Total bytes moved between nodes (sum over nodes of sent bytes).
    pub bytes_exchanged: u64,
    /// Total amplitude updates across the cluster.
    pub amp_ops: u64,
    /// Noise-operator applications.
    pub noise_ops: u64,
    /// Full state copies (TQSim reuse) — node-local.
    pub state_copies: u64,
    /// Modeled wall-clock seconds under the configured interconnect.
    pub simulated_seconds: f64,
    /// **Measured** wall-clock seconds spent in exchange rounds — the
    /// in-memory half-slice swaps on the in-process backend; on the
    /// multi-process shard backend, the time to issue each round (encode,
    /// queue and flush it to every worker), since rounds are not
    /// acknowledged and their wire time overlaps the verbs that follow.
    /// Kept alongside `simulated_seconds` so model-vs-measured drift is
    /// visible; excluded from equality (wall-clock is never deterministic).
    pub measured_exchange_seconds: f64,
}

/// Counter sets compare by their deterministic fields only:
/// `measured_exchange_seconds` is real wall-clock and varies run to run,
/// while everything else is a bit-reproducible function of the executed
/// plan (the cross-backend identity tests rely on exact equality).
impl PartialEq for ClusterCounters {
    fn eq(&self, other: &Self) -> bool {
        self.local_gates == other.local_gates
            && self.global_gates == other.global_gates
            && self.exchanges == other.exchanges
            && self.bytes_exchanged == other.bytes_exchanged
            && self.amp_ops == other.amp_ops
            && self.noise_ops == other.noise_ops
            && self.state_copies == other.state_copies
            && self.simulated_seconds == other.simulated_seconds
    }
}

impl ClusterCounters {
    /// Merge another counter set (e.g. from a second run phase).
    pub fn merge(&mut self, other: &ClusterCounters) {
        self.local_gates += other.local_gates;
        self.global_gates += other.global_gates;
        self.exchanges += other.exchanges;
        self.bytes_exchanged += other.bytes_exchanged;
        self.amp_ops += other.amp_ops;
        self.noise_ops += other.noise_ops;
        self.state_copies += other.state_copies;
        self.simulated_seconds += other.simulated_seconds;
        self.measured_exchange_seconds += other.measured_exchange_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_positive_and_monotone() {
        let m = InterconnectModel::commodity_cluster();
        assert!(m.compute_time(1000) > 0.0);
        assert!(m.exchange_time(1 << 20) > m.exchange_time(1 << 10));
        assert!(m.allreduce_time(32) > m.allreduce_time(2));
    }

    #[test]
    fn latency_floor_on_exchanges() {
        let m = InterconnectModel::commodity_cluster();
        assert!(m.exchange_time(0) >= m.latency_s);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ClusterCounters {
            local_gates: 2,
            simulated_seconds: 1.0,
            ..Default::default()
        };
        let b = ClusterCounters {
            local_gates: 3,
            simulated_seconds: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.local_gates, 5);
        assert!((a.simulated_seconds - 1.5).abs() < 1e-12);
    }
}
