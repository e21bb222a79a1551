//! # tqsim-baselines
//!
//! The comparison systems of the TQSim evaluation:
//!
//! - [`monte_carlo`]: the flat per-shot noisy simulator (the paper's
//!   "baseline", §4.4) — an implementation independent of the tree
//!   executor, used to cross-validate it;
//! - [`redundancy`]: the inter-shot redundancy-elimination method of
//!   Li et al. (DAC 2020), reproduced for the Fig. 19 comparison.
//!
//! ```
//! use tqsim_baselines::monte_carlo::run_baseline;
//! use tqsim_circuit::generators;
//! use tqsim_noise::NoiseModel;
//!
//! let r = run_baseline(&generators::bv(6), &NoiseModel::sycamore(), 100, 7);
//! assert_eq!(r.counts.total(), 100);
//! ```

#![warn(missing_docs)]

pub mod monte_carlo;
pub mod redundancy;

pub use monte_carlo::{run_baseline, BaselineResult};
pub use redundancy::{analyze_redundancy, tqsim_normalized_computation, RedundancyReport};
