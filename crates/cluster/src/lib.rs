//! # tqsim-cluster
//!
//! qHiPSTER-style distributed state-vector substrate — the multi-node
//! evaluation platform of the TQSim reproduction (paper §5.3, Fig. 13).
//!
//! The full amplitude array is sliced across nodes; gates on global qubits
//! perform the pairwise half-slice exchanges a real cluster would, with
//! every byte counted and priced by an [`InterconnectModel`], and a
//! swapped-in qubit stays local until the lazy [`Layout`] must move it.
//! The one [`DistributedStateVector`] takes where its slices live as a
//! [`SliceTransport`] parameter: [`LocalSlices`] in this process, or
//! `tqsim-shard`'s worker processes. So does the one [`ClusterBackend`]
//! that pools those states for the engines, holding the transport's node
//! group; `tqsim-shard`'s `ShardBackend` is `ClusterBackend<ShardSlices>`.
//! [`run_distributed`] is the serial `tqsim::JobPlan` walk on a
//! `ClusterBackend`. Results are validated bit-exactly against the
//! single-node engine, and an analytic estimator extrapolates the Fig. 13
//! strong/weak-scaling curves to widths this environment cannot execute.
//!
//! ```
//! use tqsim_cluster::{DistributedStateVector, InterconnectModel};
//! use tqsim_statevec::QuantumState;
//! use tqsim_circuit::generators;
//!
//! let circuit = generators::qft(6);
//! let model = InterconnectModel::commodity_cluster();
//! let mut dsv = DistributedStateVector::zero(6, 4, model)?;
//! for gate in &circuit {
//!     dsv.apply_gate(gate);
//! }
//! assert!((dsv.norm_sqr() - 1.0).abs() < 1e-9);
//! assert!(dsv.counters.exchanges > 0); // QFT touches global qubits
//! # Ok::<(), tqsim_cluster::ClusterError>(())
//! ```

#![warn(missing_docs)]

pub mod dsv;
pub mod layout;
pub mod model;
pub mod runner;
pub mod transport;

pub use dsv::{
    check_layout, ClusterBackend, ClusterError, ClusterObs, DistributedStateVector, LocalSlices,
};
pub use layout::Layout;
pub use model::{ClusterCounters, InterconnectModel};
pub use runner::{estimate_shot_seconds, estimate_tree_seconds, run_distributed, DistRunResult};
pub use transport::{half_swap, Ask, Query, Reply, SliceOp, SliceTransport};
