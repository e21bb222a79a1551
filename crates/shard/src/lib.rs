//! # tqsim-shard
//!
//! Real multi-**process** cluster execution: the state vector sliced
//! across shard worker processes on loopback TCP, bit-identical to the
//! in-process distributed backend.
//!
//! The in-process `tqsim-cluster` backend simulates a qHiPSTER node group
//! as slices of one address space, swept in turn on the caller's thread
//! (the kernels pool inside long slices); this crate gives every node an
//! actual OS process and replaces the shared-memory half-slice swaps with
//! a real wire protocol, while keeping every observable — amplitudes,
//! `Counts`, deterministic cluster counters, exchange schedules —
//! **bit-identical** to that backend. The pieces:
//!
//! * [`proto`] — the wire protocol: line-delimited JSON control verbs
//!   (the `tqsim-service` codec idiom, via `tqsim-json`) plus
//!   length-prefixed binary amplitude frames;
//! * [`worker`] — the worker process runtime: owns one node slice, applies
//!   node-local kernels, and exchanges dswap halves peer-to-peer over a
//!   lazily-dialed worker mesh;
//! * [`cluster`] — process lifecycle: spawn/handshake/shutdown, the
//!   single-mutex coordinator transport, and the `kill_worker` chaos hook;
//! * [`state`] — [`ShardedStateVector`], the coordinator-side
//!   `QuantumState` that drives verbs and owns every deterministic
//!   decision (layout remaps, counters, chained fp reductions);
//! * [`backend`] — [`ShardBackend`], the `PooledBackend` descriptor that
//!   plugs the whole thing in behind the engine's executor seam.
//!
//! Transport failures — a worker process dying mid-job, or an injected
//! `shard.transport` failpoint — panic on the coordinator thread driving
//! the job; the engine's per-task panic isolation contains the blast
//! radius to that job and the service's retry/degradation ladder recovers.

#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod proto;
pub mod state;
pub mod worker;

pub use backend::ShardBackend;
pub use cluster::{ClusterLink, ShardCluster};
pub use state::ShardedStateVector;
