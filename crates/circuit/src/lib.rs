//! # tqsim-circuit
//!
//! Quantum circuit intermediate representation and benchmark generators for
//! the TQSim reproduction ("Accelerating Simulation of Quantum Circuits
//! under Noise via Computational Reuse", ISCA 2025).
//!
//! The crate provides:
//!
//! - [`math`]: complex scalars and small dense matrices for gate definitions;
//! - [`gate`]: the [`GateKind`] catalogue and placed [`Gate`]s;
//! - [`circuit`]: the ordered-gate-list [`Circuit`] with a fluent builder;
//! - [`graph`]: undirected graphs for QAOA max-cut workloads;
//! - [`generators`]: the 48-circuit Table-2 benchmark suite (ADDER, BV, MUL,
//!   QAOA, QFT, QPE, QSC, QV).
//!
//! ```
//! use tqsim_circuit::{generators, Circuit};
//!
//! // A GHZ-style circuit by hand…
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! assert_eq!(c.depth(), 3);
//!
//! // …or a paper benchmark.
//! let qft = generators::qft(10);
//! assert_eq!(qft.len(), 237); // Table 2's qft_n10 entry
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod fingerprint;
pub mod gate;
pub mod generators;
pub mod graph;
pub mod math;

pub use circuit::{Circuit, CircuitError};
pub use gate::{Gate, GateError, GateKind};
pub use graph::Graph;
pub use math::{c64, Mat2, Mat4, C64};
