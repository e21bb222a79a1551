//! # tqsim-shard
//!
//! Real multi-**process** cluster execution: the state vector sliced
//! across shard worker processes on loopback TCP, bit-identical to the
//! in-process distributed backend.
//!
//! `tqsim-cluster` has one distributed state over a pluggable slice
//! transport; its in-process transport keeps every node slice in one
//! address space. This crate is the other transport: it gives every node
//! an actual OS process and replaces the shared-memory half-slice swaps
//! with a real wire protocol. The state above both transports is the same
//! code, so every observable — amplitudes, `Counts`, deterministic cluster
//! counters, exchange schedules — is **bit-identical** to the in-process
//! backend. The pieces:
//!
//! * [`proto`] — the wire protocol: a stream of line-delimited JSON
//!   control verbs (the `tqsim-service` codec idiom, via `tqsim-json`)
//!   holding integers, each followed by a length-prefixed binary
//!   amplitude frame when the verb has complex operands; the same frames
//!   carry exchange halves and slice fetches;
//! * [`worker`] — the worker process runtime: owns one node slice per
//!   state, checks each decoded verb against it, runs `tqsim-cluster`'s
//!   slice arithmetic on it, and trades exchange frames peer-to-peer over
//!   a lazily-dialed worker mesh, pairing up by FIFO verb order alone;
//! * [`cluster`] — process lifecycle: spawn/handshake/shutdown, the
//!   single-mutex coordinator transport that queues messages and flushes
//!   once per round trip, and the `kill_worker` chaos hook;
//! * [`state`] — [`ShardSlices`], the TCP `SliceTransport` (silent
//!   sweeps and exchange rounds, a round trip only for queries, `alloc`
//!   and `gather`), whose node group is a live [`ShardCluster`];
//!   [`ShardedStateVector`], the one `tqsim_cluster::DistributedStateVector`
//!   over it; and [`ShardBackend`], the one `tqsim_cluster::ClusterBackend`
//!   over it, which plugs the workers in behind the engine's executor
//!   seam. Layout remaps, counters, the chained fp reductions, placement
//!   checks and pooling are the in-process backend's own code, not a copy.
//!
//! Transport failures — a worker process dying mid-job, or an injected
//! `shard.transport` failpoint — panic on the coordinator thread driving
//! the job; the engine's per-task panic isolation contains the blast
//! radius to that job and the service's retry/degradation ladder recovers.

#![warn(missing_docs)]

pub mod cluster;
pub mod proto;
pub mod state;
pub mod worker;

pub use cluster::{ClusterLink, ShardCluster};
pub use state::{ShardBackend, ShardSlices, ShardedStateVector};
