//! # tqsim-noise
//!
//! Error channels and noise models for Monte-Carlo (quantum-trajectory)
//! state-vector simulation — the noise substrate of the TQSim reproduction.
//!
//! Supported channels (paper §4.3): depolarizing (DC), thermal relaxation
//! (TR), amplitude damping (AD), phase damping (PD) and classical readout
//! error (R). Channels provide both stochastic trajectory branches (for the
//! pure-state engines) and exact Kraus operators (for the density-matrix
//! ground truth).
//!
//! One function binds channels to gates, [`NoiseModel::sites`]: it lists a
//! gate's channel applications ([`Site`]s) in draw order. One function
//! consumes state-free noise draws, [`draw`]: it picks a site's [`Branch`]
//! before the state is touched, and damping sites draw nothing there, since
//! only their state-reading step can pick a branch. The
//! per-gate path ([`NoiseModel::apply_after_gate`]), the fused-replay hook
//! ([`NoiseModel::apply_after_gate_deferred`]) and the first-fired-marker
//! probe ([`NoiseModel::first_fired_marker`]) are loops over the two, so they
//! consume the same draws in the same order. `tqsim-densmat` keeps its own
//! copy of the binding convention on purpose: it is the independent oracle.
//!
//! ```
//! use rand::SeedableRng;
//! use tqsim_circuit::Circuit;
//! use tqsim_noise::NoiseModel;
//! use tqsim_statevec::StateVector;
//!
//! let mut circuit = Circuit::new(2);
//! circuit.h(0).cx(0, 1);
//! let noise = NoiseModel::sycamore();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut sv = StateVector::zero(2);
//! for gate in &circuit {
//!     sv.apply_gate(gate);
//!     noise.apply_after_gate(&mut sv, gate, &mut rng);
//! }
//! assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod model;

pub use channel::{draw, Branch, Channel, Pauli, Site};
pub use model::{fig16_models, NoiseModel, ReadoutError};
