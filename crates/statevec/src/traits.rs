//! The [`QuantumState`] abstraction implemented by every state engine
//! (single-node [`crate::StateVector`], the distributed engine in
//! `tqsim-cluster`), so the noise machinery **and the compiled-plan replay
//! path** work on all of them.
//!
//! The trait covers three surfaces:
//!
//! 1. **Gate application** — the op surface
//!    ([`QuantumState::apply_mat2`]/[`QuantumState::apply_mat4`]/
//!    [`QuantumState::apply_diag_run`]/[`QuantumState::apply_ccx`]) that
//!    [`crate::plan::CompiledCircuit::replay`] drives. A backend sees no
//!    [`Gate`]: the provided [`QuantumState::apply_gate`] classifies a gate
//!    into one of those ops ([`crate::classify`]) and applies it exactly as
//!    replay would;
//! 2. **Trajectory noise** — marginals, (anti-)diagonal Kraus branches and
//!    renormalisation;
//! 3. **Measurement** — CDF sampling, batched
//!    ([`QuantumState::sample_many`]) and single-draw.
//!
//! Implementations must keep the *arithmetic* of each operation identical
//! to [`crate::StateVector`]'s kernels (same per-amplitude multiplication
//! order): the executors rely on replaying one plan on different backends
//! producing bit-identical `Counts` for the same RNG stream.
//!
//! The companion [`PooledBackend`] trait covers the *lifecycle* side the
//! tree executors need on top of [`QuantumState`]: allocating a state,
//! resetting it, overwriting it with a parent's contents without
//! reallocation, and accounting its size. [`crate::StatePool`] and the
//! `tqsim-engine` worker pool are generic over it, which is what lets the
//! same pooled tree executor run on the single-node and the distributed
//! backend.

use crate::plan::DiagRun;
use tqsim_circuit::math::{Mat2, Mat4, C64};
use tqsim_circuit::Gate;

/// Operations a pure-state engine must expose for gate application,
/// compiled-plan replay, Monte-Carlo trajectory noise and sampling.
pub trait QuantumState {
    /// Register width.
    fn n_qubits(&self) -> u16;

    /// Apply a unitary gate as the op [`crate::classify`] makes of it — its
    /// own `Mat2`/`Mat4` (the kernels pick the X/Y/H/CX/SWAP body by
    /// matrix), a one-term diagonal run, or a Toffoli — through the same
    /// function plan replay applies ops with. The identity costs nothing.
    ///
    /// # Panics
    ///
    /// Panics when the gate touches a qubit outside the register.
    fn apply_gate(&mut self, gate: &Gate) {
        let n = self.n_qubits();
        assert!(
            gate.qubits().iter().all(|&q| q < n),
            "gate {gate} out of range for {n} qubits"
        );
        if let Some(op) = crate::plan::classify(gate) {
            crate::plan::apply_fused_op_raw(self, &op);
        }
    }

    /// Apply a dense (possibly product-of-many) single-qubit unitary on `q`
    /// — the fused `Mat2` surface of plan replay.
    fn apply_mat2(&mut self, q: u16, m: &Mat2);

    /// Apply a dense two-qubit unitary; `q_hi` indexes the more significant
    /// matrix bit — the fused `Mat4` surface of plan replay.
    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4);

    /// Apply a coalesced diagonal run in one sweep. Diagonals never move
    /// amplitudes, so distributed implementations can run this node-local
    /// even when the run touches globally-sliced qubits.
    fn apply_diag_run(&mut self, run: &DiagRun);

    /// Apply a Toffoli: flip `t` where controls `c1` and `c2` both read 1.
    fn apply_ccx(&mut self, c1: u16, c2: u16, t: u16);

    /// Marginal probability that qubit `q` reads 1.
    fn marginal_one(&self, q: u16) -> f64;

    /// Apply a (possibly non-unitary) diagonal single-qubit operator
    /// `diag(d0, d1)` on `q`.
    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64);

    /// Apply a (possibly non-unitary) anti-diagonal single-qubit operator
    /// `[[0, a01], [a10, 0]]` on `q`.
    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64);

    /// Squared 2-norm `⟨ψ|ψ⟩`.
    fn norm_sqr(&self) -> f64;

    /// Rescale to unit norm (after a non-unitary Kraus branch).
    fn renormalize(&mut self);

    /// Sample one measurement outcome given a uniform draw `u ∈ [0, 1)` by
    /// walking the cumulative distribution in global index order.
    fn sample_with(&self, u: f64) -> u64;

    /// Sample one outcome per uniform draw in `us`; `out[i]` must be
    /// exactly what `sample_with(us[i])` returns. The default walks the
    /// CDF once per draw; backends override with a batched sorted-CDF walk
    /// (see [`crate::StateVector::sample_many`]).
    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        us.iter().map(|&u| self.sample_with(u)).collect()
    }
}

/// A factory + lifecycle surface for poolable execution states: how to
/// **allocate** a `|0…0⟩` state of a given width, **reset** one in place,
/// **clone** a parent's contents into a recycled buffer without
/// reallocation, and how many amplitude **bytes** a state holds (for pool
/// high-water accounting).
///
/// Backends are cheap, clonable descriptors (the single-node backend is a
/// unit struct; the cluster backend carries its node count and interconnect
/// model), shared by every worker pool and pooled buffer of one engine.
/// [`crate::StatePool`], the `tqsim-engine` executor and the serial tree
/// walk in `tqsim` are all generic over this trait, so a tree whose states
/// exceed one node's memory runs on a distributed backend through the exact
/// same pooled executor as a single-node run.
///
/// The `State` associated type must implement [`QuantumState`] with
/// arithmetic bit-identical to [`crate::StateVector`] (see the module
/// docs): the engine relies on replaying one plan on different backends
/// producing identical `Counts` for the same RNG stream.
pub trait PooledBackend: Clone + Send + Sync + 'static {
    /// The state representation this backend materialises. `Sync` because
    /// a tree parent's state is shared immutably across its children's
    /// copy-in tasks.
    type State: QuantumState + Send + Sync + 'static;

    /// Whether this backend can materialise `n_qubits`-wide states
    /// (default: any width). Executors check this **before** scheduling
    /// work, so an unsupported width fails fast on the caller's thread
    /// instead of panicking inside [`PooledBackend::allocate`] on a
    /// worker.
    fn supports(&self, n_qubits: u16) -> bool {
        let _ = n_qubits;
        true
    }

    /// Allocate a fresh `|0…0⟩` state of width `n_qubits` (the pool's
    /// cold path; steady-state execution recycles instead). May panic for
    /// widths [`PooledBackend::supports`] rejects.
    fn allocate(&self, n_qubits: u16) -> Self::State;

    /// Reset an existing state to `|0…0⟩` in place, without reallocation.
    fn reset_zero(&self, state: &mut Self::State);

    /// Overwrite `dst` with `src`'s contents without reallocation — the
    /// parent→child intermediate-state copy at the heart of TQSim's
    /// computational reuse. Distributed implementations copy node-local
    /// slices directly; the contents never round-trip through a dense
    /// global vector.
    fn copy_into(&self, dst: &mut Self::State, src: &Self::State);

    /// Amplitude bytes held by `state` (summed across nodes for
    /// distributed backends), for pool memory accounting.
    fn state_bytes(&self, state: &Self::State) -> usize;
}

/// The single-node backend: pooled states are plain [`crate::StateVector`]
/// buffers. This is the default backend of `StatePool` and the
/// `tqsim-engine` worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleNode;

impl PooledBackend for SingleNode {
    type State = crate::StateVector;

    fn allocate(&self, n_qubits: u16) -> crate::StateVector {
        crate::StateVector::zero(n_qubits)
    }

    fn reset_zero(&self, state: &mut crate::StateVector) {
        state.reset_zero();
    }

    fn copy_into(&self, dst: &mut crate::StateVector, src: &crate::StateVector) {
        dst.copy_from(src);
    }

    fn state_bytes(&self, state: &crate::StateVector) -> usize {
        state.bytes()
    }
}

impl QuantumState for crate::StateVector {
    fn n_qubits(&self) -> u16 {
        crate::StateVector::n_qubits(self)
    }

    fn apply_mat2(&mut self, q: u16, m: &Mat2) {
        crate::kernels::apply_mat2(self.amplitudes_mut(), q as usize, m);
    }

    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
        crate::kernels::apply_mat4(self.amplitudes_mut(), q_hi as usize, q_lo as usize, m);
    }

    fn apply_diag_run(&mut self, run: &DiagRun) {
        run.apply(self.amplitudes_mut());
    }

    fn apply_ccx(&mut self, c1: u16, c2: u16, t: u16) {
        crate::kernels::apply_ccx(self.amplitudes_mut(), c1.into(), c2.into(), t.into());
    }

    fn marginal_one(&self, q: u16) -> f64 {
        crate::StateVector::marginal_one(self, q)
    }

    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        crate::StateVector::apply_diag1(self, q, d0, d1);
    }

    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        crate::StateVector::apply_antidiag1(self, q, a01, a10);
    }

    fn norm_sqr(&self) -> f64 {
        crate::StateVector::norm_sqr(self)
    }

    fn renormalize(&mut self) {
        crate::StateVector::renormalize(self);
    }

    fn sample_with(&self, u: f64) -> u64 {
        crate::StateVector::sample_with(self, u)
    }

    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        crate::StateVector::sample_many(self, us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use tqsim_circuit::{Gate, GateKind};

    fn exercise<S: QuantumState>(s: &mut S) -> f64 {
        s.apply_gate(&Gate::new(GateKind::H, &[0]));
        s.marginal_one(0)
    }

    #[test]
    fn statevector_implements_quantum_state() {
        let mut sv = StateVector::zero(2);
        let m = exercise(&mut sv);
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trait_fused_surface_matches_inherent_kernels() {
        let mut c = tqsim_circuit::Circuit::new(3);
        c.h(0).cx(0, 1).t(2);
        let mut a = StateVector::zero(3);
        a.apply_circuit(&c);
        let mut b = a.clone();
        let m2 = GateKind::H.matrix1().unwrap();
        let m4 = GateKind::Cx.matrix2().unwrap();
        QuantumState::apply_mat2(&mut a, 2, &m2);
        crate::kernels::apply_mat2(b.amplitudes_mut(), 2, &m2);
        QuantumState::apply_mat4(&mut a, 0, 2, &m4);
        crate::kernels::apply_mat4(b.amplitudes_mut(), 0, 2, &m4);
        assert_eq!(a.amplitudes(), b.amplitudes());
    }

    #[test]
    fn default_sample_many_matches_sample_with() {
        // A throwaway impl relying on the provided default.
        struct Wrap(StateVector);
        impl QuantumState for Wrap {
            fn n_qubits(&self) -> u16 {
                self.0.n_qubits()
            }
            fn apply_mat2(&mut self, q: u16, m: &Mat2) {
                QuantumState::apply_mat2(&mut self.0, q, m);
            }
            fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
                QuantumState::apply_mat4(&mut self.0, q_hi, q_lo, m);
            }
            fn apply_diag_run(&mut self, run: &DiagRun) {
                QuantumState::apply_diag_run(&mut self.0, run);
            }
            fn apply_ccx(&mut self, c1: u16, c2: u16, t: u16) {
                QuantumState::apply_ccx(&mut self.0, c1, c2, t);
            }
            fn marginal_one(&self, q: u16) -> f64 {
                self.0.marginal_one(q)
            }
            fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
                self.0.apply_diag1(q, d0, d1);
            }
            fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
                self.0.apply_antidiag1(q, a01, a10);
            }
            fn norm_sqr(&self) -> f64 {
                self.0.norm_sqr()
            }
            fn renormalize(&mut self) {
                self.0.renormalize();
            }
            fn sample_with(&self, u: f64) -> u64 {
                self.0.sample_with(u)
            }
        }
        let mut w = Wrap(StateVector::zero(3));
        w.apply_gate(&Gate::new(GateKind::H, &[0]));
        w.apply_gate(&Gate::new(GateKind::H, &[2]));
        let us = [0.9, 0.1, 0.4, 0.7];
        assert_eq!(w.sample_many(&us), w.0.sample_many(&us));
    }
}
