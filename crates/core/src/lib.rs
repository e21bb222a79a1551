//! # tqsim
//!
//! **T**ree-based **Q**uantum circuit **Sim**ulation: a Rust reproduction of
//! *"Accelerating Simulation of Quantum Circuits under Noise via
//! Computational Reuse"* (ISCA 2025).
//!
//! Noisy Monte-Carlo simulation re-executes a near-identical circuit for
//! thousands of shots. TQSim partitions the circuit into subcircuits and
//! shares each subcircuit's intermediate state across many shots, arranged
//! as a simulation tree `(A0, A1, …)`:
//!
//! - [`tree::TreeStructure`] — the tree notation and its node/outcome math;
//! - [`partition::Strategy`] — Baseline, UCP, XCP, **DCP** (the paper's
//!   contribution) and custom tree shapes;
//! - [`dcp`] — the Dynamic Circuit Partition planner (Eqs. 4–6);
//! - [`executor::JobPlan`] — the one planned-and-compiled job: a partition
//!   with one compiled plan per subcircuit, walked depth-first with state
//!   reuse and full cost accounting (and shared by the `tqsim-engine`
//!   crate's parallel walk);
//! - [`metrics`] — state fidelity (Eq. 8) and normalized fidelity (Eq. 9);
//! - [`speedup`] — the §3.6 analytical speedup models;
//! - [`sim::Tqsim`] — the one job description (circuit, noise, shots,
//!   strategy, seed, leaf samples), run serially here or batched by the
//!   `tqsim-engine` crate.
//!
//! ```
//! use tqsim::{metrics, Strategy, Tqsim};
//! use tqsim_circuit::generators;
//! use tqsim_noise::NoiseModel;
//!
//! let circuit = generators::bv(8);
//! let noise = NoiseModel::sycamore();
//!
//! let baseline = Tqsim::new(&circuit)
//!     .noise(noise.clone())
//!     .shots(400)
//!     .strategy(Strategy::Baseline)
//!     .run()?;
//! let tqsim = Tqsim::new(&circuit).noise(noise).shots(400).run()?;
//!
//! let ideal = metrics::ideal_distribution(&circuit);
//! let f_base = metrics::normalized_fidelity(&ideal, &baseline.counts.to_distribution());
//! let f_tree = metrics::normalized_fidelity(&ideal, &tqsim.counts.to_distribution());
//! assert!((f_base - f_tree).abs() < 0.2); // tight in the paper: ≤ 0.016 at 32k shots
//! # Ok::<(), tqsim::PlanError>(())
//! ```

#![warn(missing_docs)]

pub mod dcp;
pub mod executor;
pub mod metrics;
pub mod partition;
pub mod sim;
pub mod speedup;
pub mod tree;

pub use dcp::DcpConfig;
pub use executor::{
    draw_leaf_members, draw_leaf_outcomes, run_subcircuit, sample_leaf_members, Counts, JobPlan,
    RunResult, TreeExecutor,
};
pub use partition::{Partition, PlanError, Strategy};
pub use sim::Tqsim;
pub use tqsim_statevec::OpCounts;
pub use tree::TreeStructure;
