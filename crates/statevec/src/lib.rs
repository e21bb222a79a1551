//! # tqsim-statevec
//!
//! Multi-threaded state-vector simulation engine — the Qulacs-equivalent
//! substrate of the TQSim reproduction.
//!
//! - [`StateVector`]: 2^n-amplitude pure states with specialised parallel
//!   gate kernels (X/Y/Z/H/phase/controlled/diagonal fast paths plus generic
//!   dense 1q/2q application);
//! - [`plan::CompiledCircuit`]: compile-once/replay-many subcircuit plans
//!   with gate fusion and noise-adaptive flush — the tree executors compile
//!   each subcircuit once and replay it at every node;
//! - [`ops::OpCounts`]: operation tallies shared by every engine;
//! - [`backend::CostProfile`]: per-platform cost models (the Fig. 10 / Table 1
//!   systems) turning tallies into modeled time;
//! - [`profile`]: host copy-vs-gate cost measurement feeding DCP.
//!
//! ```
//! use tqsim_circuit::Circuit;
//! use tqsim_statevec::StateVector;
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! let mut sv = StateVector::zero(3);
//! sv.apply_circuit(&ghz);
//! assert!((sv.probability(0b111) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
// The crate's only `unsafe` is the ISA-tier dispatch and the vector
// load/store/arithmetic intrinsics behind it (`kernels::simd`), whose
// amplitude accesses go unchecked behind one bounds check per task; every
// block states why it is sound.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod expectation;
pub mod kernels;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod profile;
pub mod state;
pub mod traits;

pub use backend::CostProfile;
pub use expectation::{expect_cut_value, expect_z_string, ZString};
pub use ops::OpCounts;
pub use plan::{
    classify, CompiledCircuit, DiagRun, FlushCtx, FusedOp, Fuser, PlanOp, ReplayCursor,
};
pub use pool::{PoolCounters, PoolStats, PooledState, StatePool};
pub use state::{sample_sorted, walk_cdf, StateVector, MAX_QUBITS};
pub use traits::{PooledBackend, QuantumState, SingleNode};
