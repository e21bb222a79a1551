//! The multi-process execution backend: a [`PooledBackend`] over a live
//! [`ShardCluster`], the process-per-node twin of
//! `tqsim_cluster::ClusterBackend`.
//!
//! Like the in-process cluster backend it is a cheap clonable descriptor
//! (the worker processes live behind an `Arc`), so `tqsim_statevec`'s
//! state pool, the `tqsim-engine` pooled tree executor and `tqsim`'s
//! serial tree walk drive real worker processes through exactly the same
//! seam, and the states it allocates are the same distributed state over
//! the [`ShardSlices`] transport. Parent→child copies stay worker-local
//! memcpys (one `copy` verb per worker); intermediate states never cross
//! the wire.

use crate::cluster::ShardCluster;
use crate::state::{ShardSlices, ShardedStateVector};
use std::io;
use std::sync::Arc;
use tqsim_cluster::{
    check_layout, ClusterError, ClusterObs, DistributedStateVector, InterconnectModel,
};
use tqsim_statevec::PooledBackend;

/// A pooled-execution backend whose states are sliced across shard worker
/// **processes**.
#[derive(Clone, Debug)]
pub struct ShardBackend {
    cluster: Arc<ShardCluster>,
    model: InterconnectModel,
    obs: Option<Arc<ClusterObs>>,
}

/// Backends compare by topology (worker count, interconnect model);
/// whether one is observed does not change what it computes. Two backends
/// over *different* live clusters with the same topology compare equal —
/// they compute the same thing.
impl PartialEq for ShardBackend {
    fn eq(&self, other: &Self) -> bool {
        self.cluster.n_workers() == other.cluster.n_workers() && self.model == other.model
    }
}

impl ShardBackend {
    /// Spawn `n_workers` worker processes on loopback and wrap them as a
    /// backend pricing communication with the commodity-cluster model.
    ///
    /// # Errors
    ///
    /// Spawn/handshake IO failures.
    ///
    /// # Panics
    ///
    /// Panics unless `n_workers` is a power of two ≥ 1, or if the worker
    /// binary cannot be located or built.
    pub fn spawn(n_workers: usize) -> io::Result<Self> {
        Self::spawn_with_model(n_workers, InterconnectModel::commodity_cluster())
    }

    /// [`ShardBackend::spawn`] with an explicit interconnect model for the
    /// simulated-time accounting.
    ///
    /// # Errors
    ///
    /// Spawn/handshake IO failures.
    pub fn spawn_with_model(n_workers: usize, model: InterconnectModel) -> io::Result<Self> {
        let cluster = Arc::new(ShardCluster::spawn(n_workers)?);
        Ok(ShardBackend {
            cluster,
            model,
            obs: None,
        })
    }

    /// Mirror every allocated state's communication and gate activity into
    /// `obs` (see `ClusterObs::register`).
    #[must_use]
    pub fn observed(mut self, obs: Arc<ClusterObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Number of worker processes states are sliced across.
    pub fn n_workers(&self) -> usize {
        self.cluster.n_workers()
    }

    /// The interconnect model communication is priced with.
    pub fn model(&self) -> InterconnectModel {
        self.model
    }

    /// The live worker topology (shared with every clone of this backend).
    /// Exposed for health checks ([`ShardCluster::ping`]) and chaos tests
    /// ([`ShardCluster::kill_worker`]).
    pub fn cluster(&self) -> &Arc<ShardCluster> {
        &self.cluster
    }

    /// Check that `n_qubits`-wide states can be sliced across this worker
    /// group (≥ 3 qubits must stay worker-local).
    ///
    /// # Errors
    ///
    /// The same conditions as the in-process backend — the rule is shared
    /// via [`check_layout`].
    pub fn validate(&self, n_qubits: u16) -> Result<(), ClusterError> {
        check_layout(n_qubits, self.cluster.n_workers())
    }

    /// Whether `n_qubits`-wide states fit this worker group.
    pub fn supports(&self, n_qubits: u16) -> bool {
        self.validate(n_qubits).is_ok()
    }
}

impl PooledBackend for ShardBackend {
    type State = ShardedStateVector;

    fn supports(&self, n_qubits: u16) -> bool {
        ShardBackend::supports(self, n_qubits)
    }

    fn allocate(&self, n_qubits: u16) -> ShardedStateVector {
        let n_workers = self.cluster.n_workers();
        let mut state =
            DistributedStateVector::with_transport(n_qubits, n_workers, self.model, |local_n| {
                ShardSlices::alloc(Arc::clone(&self.cluster), local_n)
            })
            .unwrap_or_else(|err| {
                panic!("executors must gate on PooledBackend::supports before allocating: {err}")
            });
        if let Some(obs) = &self.obs {
            state.observe(Arc::clone(obs));
        }
        state
    }

    fn reset_zero(&self, state: &mut ShardedStateVector) {
        state.reset_zero();
    }

    fn copy_into(&self, dst: &mut ShardedStateVector, src: &ShardedStateVector) {
        dst.copy_from(src);
    }

    fn state_bytes(&self, state: &ShardedStateVector) -> usize {
        state.bytes()
    }
}
