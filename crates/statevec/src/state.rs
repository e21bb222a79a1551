//! The [`StateVector`] type: a 2^n-amplitude pure quantum state.

use crate::kernels;
use crate::traits::QuantumState;
use std::fmt;
use tqsim_circuit::math::{c64, C64};
use tqsim_circuit::{Circuit, Gate};

/// Widest register we allow (16 GiB of amplitudes); guards against typo'd
/// widths allocating the machine away.
pub const MAX_QUBITS: u16 = 30;

/// A pure quantum state on `n` qubits stored as `2^n` complex amplitudes.
///
/// Bit convention: qubit `q` corresponds to bit `q` of the amplitude index
/// (little-endian), so basis state `|q_{n-1} … q_1 q_0⟩` lives at index
/// `Σ q_i 2^i`.
///
/// ```
/// use tqsim_statevec::StateVector;
/// use tqsim_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut sv = StateVector::zero(2);
/// sv.apply_circuit(&bell);
/// let p = sv.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq)]
pub struct StateVector {
    n_qubits: u16,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or exceeds [`MAX_QUBITS`].
    pub fn zero(n_qubits: u16) -> Self {
        assert!(n_qubits >= 1, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds MAX_QUBITS={MAX_QUBITS}"
        );
        let mut amps = vec![c64(0.0, 0.0); 1usize << n_qubits];
        amps[0] = c64(1.0, 0.0);
        StateVector { n_qubits, amps }
    }

    /// A computational basis state `|idx⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 2^n`.
    pub fn basis(n_qubits: u16, idx: u64) -> Self {
        let mut sv = StateVector::zero(n_qubits);
        assert!((idx as usize) < sv.amps.len(), "basis index out of range");
        sv.amps[0] = c64(0.0, 0.0);
        sv.amps[idx as usize] = c64(1.0, 0.0);
        sv
    }

    /// Build from raw amplitudes (length must be a power of two ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics on invalid length; the caller is responsible for
    /// normalisation (checkable via [`StateVector::norm_sqr`]).
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "length must be a power of two >= 2"
        );
        let n_qubits = len.trailing_zeros() as u16;
        StateVector { n_qubits, amps }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Never true — a state always has `2^n ≥ 2` amplitudes. Provided for
    /// API completeness alongside [`StateVector::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw amplitude slice.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable raw amplitude slice (used by the noise samplers and the
    /// distributed engine's scatter/gather).
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Heap footprint of the amplitude array in bytes.
    pub fn bytes(&self) -> usize {
        self.amps.len() * std::mem::size_of::<C64>()
    }

    /// Reset to `|0…0⟩` without reallocating.
    pub fn reset_zero(&mut self) {
        self.amps.fill(c64(0.0, 0.0));
        self.amps[0] = c64(1.0, 0.0);
    }

    /// Overwrite this state with a copy of `src` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn copy_from(&mut self, src: &StateVector) {
        assert_eq!(self.n_qubits, src.n_qubits, "width mismatch");
        self.amps.copy_from_slice(&src.amps);
    }

    /// Squared 2-norm `⟨ψ|ψ⟩` (1 for a normalised state).
    pub fn norm_sqr(&self) -> f64 {
        kernels::norm_sqr_amps(&self.amps)
    }

    /// Scale all amplitudes so the state is normalised.
    ///
    /// # Panics
    ///
    /// Panics if the norm is (numerically) zero.
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr();
        assert!(n > 1e-300, "cannot normalise a zero state");
        kernels::scale_amps(&mut self.amps, 1.0 / n.sqrt());
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        kernels::inner_amps(&self.amps, &other.amps)
    }

    /// Probability of measuring basis state `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn probability(&self, idx: u64) -> f64 {
        self.amps[idx as usize].norm_sqr()
    }

    /// The full outcome distribution `|ψ_x|²` (length `2^n`).
    pub fn probabilities(&self) -> Vec<f64> {
        kernels::probabilities_amps(&self.amps)
    }

    /// Marginal probability that qubit `q` reads 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn marginal_one(&self, q: u16) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        kernels::marginal_one_amps(&self.amps, q as usize)
    }

    /// Sample one measurement outcome given a uniform draw `u ∈ [0, 1)` by
    /// walking the cumulative distribution (expected half-pass over the
    /// amplitudes; no allocation).
    ///
    /// A `u` at or beyond the accumulated total (possible when the state is
    /// slightly sub-normalised) returns the last basis state.
    pub fn sample_with(&self, u: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&u));
        let mut acc = 0.0f64;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if u < acc {
                return i as u64;
            }
        }
        (self.amps.len() - 1) as u64
    }

    /// Sample one outcome using the supplied RNG.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rand::RngExt::random(rng);
        self.sample_with(u)
    }

    /// Sample one outcome per uniform draw in `us`, walking the cumulative
    /// distribution **once** regardless of the draw count (vs one expected
    /// half-pass per draw for repeated [`StateVector::sample_with`]).
    ///
    /// The draws are sorted internally; `out[i]` is the outcome for `us[i]`
    /// (original order), and each individual outcome is exactly what
    /// `sample_with(us[i])` returns. Executors use this whenever
    /// `leaf_samples > 1` makes per-leaf sampling the dominant cost.
    pub fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..us.len()).collect();
        order.sort_by(|&i, &j| us[i].total_cmp(&us[j]));
        let mut out = vec![0u64; us.len()];
        let mut idx = 0usize;
        let mut acc = self.amps[0].norm_sqr();
        for &slot in &order {
            // Mirror `sample_with`: smallest index with u < cdf(index),
            // falling back to the last basis state for over-range draws.
            while us[slot] >= acc && idx + 1 < self.amps.len() {
                idx += 1;
                acc += self.amps[idx].norm_sqr();
            }
            out[slot] = idx as u64;
        }
        out
    }

    // ---- gate application --------------------------------------------------

    /// Apply a single gate: [`QuantumState::apply_gate`], the op plan
    /// replay would apply for it.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        QuantumState::apply_gate(self, gate);
    }

    /// Apply every gate of `circuit` in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "{}-qubit circuit on {}-qubit state",
            circuit.n_qubits(),
            self.n_qubits
        );
        for gate in circuit {
            self.apply_gate(gate);
        }
    }

    /// Apply a diagonal single-qubit operator (not necessarily unitary —
    /// used by Kraus trajectory branches; renormalise afterwards).
    pub fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        assert!(q < self.n_qubits);
        kernels::apply_diag1(&mut self.amps, q as usize, d0, d1);
    }

    /// Apply an anti-diagonal single-qubit operator `[[0, a01], [a10, 0]]`
    /// (not necessarily unitary — used by Kraus trajectory branches).
    pub fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        assert!(q < self.n_qubits);
        kernels::apply_antidiag1(&mut self.amps, q as usize, a01, a10);
    }
}

impl fmt::Debug for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StateVector[{} qubits; |ψ|²={:.6}]",
            self.n_qubits,
            self.norm_sqr()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::{generators, GateKind};

    #[test]
    fn zero_state() {
        let sv = StateVector::zero(3);
        assert_eq!(sv.len(), 8);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(sv.probability(0), 1.0);
    }

    #[test]
    fn basis_state() {
        let sv = StateVector::basis(3, 0b101);
        assert_eq!(sv.probability(0b101), 1.0);
        assert_eq!(sv.probability(0), 0.0);
    }

    #[test]
    fn ghz_distribution() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        let p = sv.probabilities();
        assert!((p[0b000] - 0.5).abs() < 1e-12);
        assert!((p[0b111] - 0.5).abs() < 1e-12);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_of_plus_state() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::new(GateKind::H, &[1]));
        assert!((sv.marginal_one(1) - 0.5).abs() < 1e-12);
        assert!((sv.marginal_one(0)).abs() < 1e-12);
    }

    #[test]
    fn every_gate_kind_preserves_norm() {
        use GateKind::*;
        let kinds2 = [Cx, Cz, CPhase(0.7), Swap, Rzz(0.9), FSim(0.5, 0.3)];
        let kinds1 = [
            X,
            Y,
            Z,
            H,
            S,
            Sdg,
            T,
            Tdg,
            Sx,
            Sy,
            Sw,
            Rx(0.4),
            Ry(1.1),
            Rz(2.2),
            Phase(0.6),
            U3(0.3, 0.8, 1.4),
        ];
        let mut sv = StateVector::zero(4);
        // Scramble a bit first so gates act on a generic state.
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 2).t(1).cx(1, 3).ry(0.7, 2);
        sv.apply_circuit(&c);
        for k in kinds1 {
            sv.apply_gate(&Gate::new(k, &[2]));
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-10, "{k:?}");
        }
        for k in kinds2 {
            sv.apply_gate(&Gate::new(k, &[3, 1]));
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-10, "{k:?}");
        }
        sv.apply_gate(&Gate::new(Ccx, &[0, 1, 2]));
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bv_recovers_secret() {
        // Noiseless BV must output the secret with certainty.
        let n = 8u16;
        let c = generators::bv(n);
        let mut sv = StateVector::zero(n);
        sv.apply_circuit(&c);
        // Secret = all ones on data bits except bit 0; ancilla (bit n-1) is
        // in |−⟩, i.e. uniformly 0/1.
        let secret: u64 = ((1 << (n - 1)) - 2) & !(1 << (n - 1));
        let p_secret = sv.probability(secret) + sv.probability(secret | (1 << (n - 1)));
        assert!((p_secret - 1.0).abs() < 1e-10, "p={p_secret}");
    }

    #[test]
    fn sampling_follows_distribution() {
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::new(GateKind::H, &[0]));
        assert_eq!(sv.sample_with(0.2), 0);
        assert_eq!(sv.sample_with(0.7), 1);
        assert_eq!(sv.sample_with(0.999999), 1);
    }

    #[test]
    fn sample_many_matches_sample_with() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 2).t(1).ry(0.9, 3);
        let mut sv = StateVector::zero(4);
        sv.apply_circuit(&c);
        let us = [0.93, 0.02, 0.5, 0.500001, 0.02, 0.999_999_9, 0.0];
        let batch = sv.sample_many(&us);
        for (u, got) in us.iter().zip(&batch) {
            assert_eq!(*got, sv.sample_with(*u), "u={u}");
        }
    }

    #[test]
    fn sample_many_handles_over_range_draws() {
        // A slightly sub-normalised state: draws beyond the total fall back
        // to the last basis state, exactly like `sample_with`.
        let mut sv = StateVector::basis(2, 1);
        sv.amplitudes_mut()[1] = c64(0.99, 0.0);
        assert_eq!(sv.sample_many(&[0.999]), vec![3]);
        assert!(sv.sample_many(&[]).is_empty());
    }

    #[test]
    fn copy_from_and_reset() {
        let mut a = StateVector::zero(2);
        a.apply_gate(&Gate::new(GateKind::H, &[0]));
        let mut b = StateVector::zero(2);
        b.copy_from(&a);
        assert_eq!(a.amplitudes(), b.amplitudes());
        b.reset_zero();
        assert_eq!(b.probability(0), 1.0);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let a = StateVector::basis(2, 0);
        let b = StateVector::basis(2, 3);
        assert!((a.inner(&b)).norm() < 1e-15);
        assert!((a.inner(&a) - c64(1.0, 0.0)).norm() < 1e-15);
    }

    #[test]
    fn qft_on_zero_gives_uniform_phases() {
        // QFT|0..0> = uniform superposition (all probabilities equal).
        let n = 5u16;
        let c = generators::qft_with_prep(n, &[]);
        let mut sv = StateVector::zero(n);
        sv.apply_circuit(&c);
        for p in sv.probabilities() {
            assert!((p - 1.0 / 32.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gate_out_of_range_panics() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::new(GateKind::H, &[5]));
    }

    #[test]
    fn unitary2_matches_composition() {
        // A generic Unitary2 built as CX's matrix must act exactly like CX,
        // in both qubit orders.
        let m = GateKind::Cx.matrix2().unwrap();
        for (a, b) in [(0u16, 1u16), (1, 0)] {
            let mut c1 = Circuit::new(2);
            c1.h(0).h(1).cx(a, b);
            let mut c2 = Circuit::new(2);
            c2.h(0).h(1).unitary2(m, a, b);
            let mut s1 = StateVector::zero(2);
            let mut s2 = StateVector::zero(2);
            s1.apply_circuit(&c1);
            s2.apply_circuit(&c2);
            for i in 0..4 {
                assert!((s1.amplitudes()[i] - s2.amplitudes()[i]).norm() < 1e-12);
            }
        }
    }
}
