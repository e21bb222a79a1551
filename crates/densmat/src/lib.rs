//! # tqsim-densmat
//!
//! Exact density-matrix simulator — the accuracy ground truth of the TQSim
//! reproduction (paper §2.3, Fig. 15) and the memory model behind Fig. 4.
//!
//! Representation: the density matrix ρ of an `n`-qubit system is stored in
//! vectorised (column-stacked) form as a `2n`-qubit state vector, so that
//! `U ρ U†` becomes "apply `U` on the row qubits and `conj(U)` on the column
//! qubits", reusing the multi-threaded kernels of
//! [`tqsim_statevec`]. Channels apply exactly as `ρ → Σ_i K_i ρ K_i†`.
//!
//! ```
//! use tqsim_circuit::Circuit;
//! use tqsim_densmat::DensityMatrix;
//! use tqsim_noise::NoiseModel;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let rho = DensityMatrix::run_noisy(&bell, &NoiseModel::sycamore());
//! let p = rho.probabilities();
//! assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! assert!(p[0b00] > 0.45 && p[0b11] > 0.45);
//! ```

#![warn(missing_docs)]

pub mod memory;

use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_noise::{Channel, NoiseModel};
use tqsim_statevec::StateVector;

/// Widest register the density-matrix engine accepts (2·14 = 28 vectorised
/// qubits ≈ 4 GiB); the exponential wall the paper's Fig. 4 illustrates.
pub const MAX_DM_QUBITS: u16 = 14;

/// An exact mixed state on `n` qubits.
#[derive(Clone, PartialEq, Debug)]
pub struct DensityMatrix {
    n_qubits: u16,
    /// Vectorised ρ on `2n` qubits: entry `(row << n) | col` holds `ρ[row][col]`.
    vec: StateVector,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or exceeds [`MAX_DM_QUBITS`].
    pub fn zero(n_qubits: u16) -> Self {
        assert!(n_qubits >= 1, "need at least one qubit");
        assert!(
            n_qubits <= MAX_DM_QUBITS,
            "{n_qubits} qubits exceeds the density-matrix limit of {MAX_DM_QUBITS}"
        );
        DensityMatrix {
            n_qubits,
            vec: StateVector::zero(2 * n_qubits),
        }
    }

    /// The pure state `|ψ⟩⟨ψ|` of a state vector.
    ///
    /// # Panics
    ///
    /// Panics if `sv` is wider than [`MAX_DM_QUBITS`].
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n = sv.n_qubits();
        let mut dm = DensityMatrix::zero(n);
        let dim = 1usize << n;
        let amps = sv.amplitudes().to_vec();
        let out = dm.vec.amplitudes_mut();
        for (r, ar) in amps.iter().enumerate() {
            for (c, ac) in amps.iter().enumerate() {
                out[(r << n) | c] = ar * ac.conj();
            }
        }
        debug_assert_eq!(out.len(), dim * dim);
        dm
    }

    /// Register width.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Matrix dimension `2^n`.
    pub fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// Entry `ρ[row][col]`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn entry(&self, row: usize, col: usize) -> C64 {
        assert!(row < self.dim() && col < self.dim(), "index out of range");
        self.vec.amplitudes()[(row << self.n_qubits) | col]
    }

    /// `Tr ρ` (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim()).map(|i| self.entry(i, i).re).sum()
    }

    /// The measurement distribution `diag(ρ)`.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim())
            .map(|i| self.entry(i, i).re.max(0.0))
            .collect()
    }

    /// Apply a unitary gate: `ρ → U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let n = self.n_qubits;
        let qs = gate.qubits();
        for &q in qs {
            assert!(q < n, "gate {gate} out of range");
        }
        match gate.arity() {
            1 => {
                let m = gate.kind().matrix1().expect("1q matrix");
                self.apply_mat2_sides(qs[0], &m);
            }
            2 => {
                let m = gate.kind().matrix2().expect("2q matrix");
                self.apply_mat4_sides(qs[0], qs[1], &m);
            }
            _ => {
                // CCX is a real permutation: conj(U) = U on both sides.
                debug_assert!(matches!(gate.kind(), GateKind::Ccx));
                self.vec.apply_gate(&Gate::new(GateKind::Ccx, qs));
                self.vec.apply_gate(&Gate::new(
                    GateKind::Ccx,
                    &[qs[0] + n, qs[1] + n, qs[2] + n],
                ));
            }
        }
    }

    fn apply_mat2_sides(&mut self, q: u16, m: &Mat2) {
        let n = self.n_qubits;
        // Row (ket) side uses U; column (bra) side uses conj(U).
        self.vec
            .apply_gate(&Gate::new(GateKind::Unitary1(*m), &[q + n]));
        self.vec
            .apply_gate(&Gate::new(GateKind::Unitary1(m.conj()), &[q]));
    }

    fn apply_mat4_sides(&mut self, qa: u16, qb: u16, m: &Mat4) {
        let n = self.n_qubits;
        self.vec
            .apply_gate(&Gate::new(GateKind::Unitary2(*m), &[qa + n, qb + n]));
        self.vec
            .apply_gate(&Gate::new(GateKind::Unitary2(m.conj()), &[qa, qb]));
    }

    /// Apply a single-qubit Kraus channel exactly: `ρ → Σ_i K_i ρ K_i†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the Kraus list is empty.
    pub fn apply_kraus_1q(&mut self, q: u16, kraus: &[Mat2]) {
        assert!(q < self.n_qubits, "qubit out of range");
        assert!(!kraus.is_empty(), "empty Kraus list");
        let mut acc = vec![c64(0.0, 0.0); self.vec.len()];
        for k in kraus {
            let mut branch = self.clone();
            branch.apply_mat2_sides(q, k);
            for (a, b) in acc.iter_mut().zip(branch.vec.amplitudes()) {
                *a += b;
            }
        }
        self.vec.amplitudes_mut().copy_from_slice(&acc);
    }

    /// Apply a joint two-qubit depolarizing channel exactly.
    fn apply_depolarizing_2q(&mut self, qa: u16, qb: u16, p: f64) {
        let paulis = [
            Mat2::identity(),
            Mat2::pauli_x(),
            Mat2::pauli_y(),
            Mat2::pauli_z(),
        ];
        let mut acc = vec![c64(0.0, 0.0); self.vec.len()];
        for (i, pa) in paulis.iter().enumerate() {
            for (j, pb) in paulis.iter().enumerate() {
                let w = if i == 0 && j == 0 { 1.0 - p } else { p / 15.0 };
                if w == 0.0 {
                    continue;
                }
                let mut branch = self.clone();
                branch.apply_mat2_sides(qa, &pa.scale(c64(w.sqrt(), 0.0)));
                branch.apply_mat2_sides(qb, pb);
                for (a, b) in acc.iter_mut().zip(branch.vec.amplitudes()) {
                    *a += b;
                }
            }
        }
        self.vec.amplitudes_mut().copy_from_slice(&acc);
    }

    /// Apply a noise model's channels exactly after `gate`, with the
    /// trajectory convention of [`NoiseModel::sites`]. This copy of the
    /// convention is deliberate: the density matrix is the independent
    /// oracle the trajectory engines are checked against, so it does not
    /// share their channel-binding code.
    pub fn apply_noise_after_gate(&mut self, noise: &NoiseModel, gate: &Gate) {
        let qs = gate.qubits();
        if gate.arity() == 1 {
            for ch in noise.channels_1q() {
                self.apply_kraus_1q(qs[0], &ch.kraus_1q());
            }
        } else {
            for ch in noise.channels_2q() {
                match *ch {
                    Channel::Depolarizing { p } => {
                        self.apply_depolarizing_2q(qs[0], qs[1], p);
                        if let Some(&q3) = qs.get(2) {
                            self.apply_depolarizing_2q(qs[0], q3, p);
                        }
                    }
                    _ => {
                        let kraus = ch.kraus_1q();
                        for &q in qs {
                            self.apply_kraus_1q(q, &kraus);
                        }
                    }
                }
            }
        }
    }

    /// Run a full noisy circuit exactly and return the final mixed state.
    ///
    /// # Panics
    ///
    /// Panics if the circuit exceeds [`MAX_DM_QUBITS`].
    pub fn run_noisy(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let mut dm = DensityMatrix::zero(circuit.n_qubits());
        for gate in circuit {
            dm.apply_gate(gate);
            dm.apply_noise_after_gate(noise, gate);
        }
        dm
    }

    /// The measurement distribution with the model's readout error folded in
    /// analytically (per-qubit confusion sweep, `O(n·2^n)`).
    pub fn probabilities_with_readout(&self, noise: &NoiseModel) -> Vec<f64> {
        let mut p = self.probabilities();
        if let Some(ro) = noise.readout() {
            let n = self.n_qubits;
            for q in 0..n {
                let mask = 1usize << q;
                for i in 0..p.len() {
                    if i & mask == 0 {
                        let j = i | mask;
                        let (p0, p1) = (p[i], p[j]);
                        p[i] = p0 * (1.0 - ro.p0to1) + p1 * ro.p1to0;
                        p[j] = p1 * (1.0 - ro.p1to0) + p0 * ro.p0to1;
                    }
                }
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tqsim_noise::ReadoutError;

    #[test]
    fn pure_state_roundtrip() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.7, 2);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        // Evolving the DM gate-by-gate must match |ψ⟩⟨ψ| of the final state.
        let mut dm = DensityMatrix::zero(3);
        for g in &c {
            dm.apply_gate(g);
        }
        let expect = DensityMatrix::from_statevector(&sv);
        for (a, b) in dm.vec.amplitudes().iter().zip(expect.vec.amplitudes()) {
            assert!((a - b).norm() < 1e-10);
        }
    }

    #[test]
    fn trace_preserved_by_gates_and_channels() {
        let mut dm = DensityMatrix::zero(2);
        dm.apply_gate(&Gate::new(GateKind::H, &[0]));
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        dm.apply_kraus_1q(0, &Channel::AmplitudeDamping { gamma: 0.3 }.kraus_1q());
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        dm.apply_depolarizing_2q(0, 1, 0.2);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_single_qubit_analytic() {
        // X/Y/Z depolarizing on |0⟩ with rate p gives P(1) = 2p/3.
        let p = 0.3;
        let mut dm = DensityMatrix::zero(1);
        dm.apply_kraus_1q(0, &Channel::Depolarizing { p }.kraus_1q());
        let probs = dm.probabilities();
        assert!(
            (probs[1] - 2.0 * p / 3.0).abs() < 1e-12,
            "P(1) = {}",
            probs[1]
        );
    }

    #[test]
    fn depolarizing_fully_mixes() {
        // p = 1 joint depolarizing leaves a nearly maximally mixed pair.
        let mut dm = DensityMatrix::zero(2);
        dm.apply_depolarizing_2q(0, 1, 1.0);
        let probs = dm.probabilities();
        // I⊗I excluded, so not exactly uniform, but within 1/15 weighting.
        for p in probs {
            assert!(p > 0.1 && p < 0.5, "p = {p}");
        }
        assert!((dm.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_analytic() {
        // AD(γ) on |1⟩: P(0) = γ.
        let gamma = 0.25;
        let mut dm = DensityMatrix::zero(1);
        dm.apply_gate(&Gate::new(GateKind::X, &[0]));
        dm.apply_kraus_1q(0, &Channel::AmplitudeDamping { gamma }.kraus_1q());
        let probs = dm.probabilities();
        assert!((probs[0] - gamma).abs() < 1e-12);
    }

    #[test]
    fn trajectory_ensemble_converges_to_density_matrix() {
        // The §2.4.1 equivalence: averaging trajectories approaches the DM.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(0.9, 0).cx(0, 1);
        let noise = NoiseModel::depolarizing(0.05, 0.1);
        let dm = DensityMatrix::run_noisy(&c, &noise);
        let exact = dm.probabilities();

        let mut rng = StdRng::seed_from_u64(1234);
        let shots = 6000usize;
        let mut counts = [0u32; 4];
        for _ in 0..shots {
            let mut sv = StateVector::zero(2);
            for g in &c {
                sv.apply_gate(g);
                noise.apply_after_gate(&mut sv, g, &mut rng);
            }
            counts[sv.sample(&mut rng) as usize] += 1;
        }
        for i in 0..4 {
            let emp = f64::from(counts[i]) / shots as f64;
            assert!(
                (emp - exact[i]).abs() < 0.03,
                "outcome {i}: empirical {emp:.3} vs exact {:.3}",
                exact[i]
            );
        }
    }

    #[test]
    fn readout_confusion_analytic() {
        let mut dm = DensityMatrix::zero(2);
        dm.apply_gate(&Gate::new(GateKind::X, &[0]));
        let noise = NoiseModel::ideal().with_readout(ReadoutError {
            p0to1: 0.1,
            p1to0: 0.2,
        });
        let p = dm.probabilities_with_readout(&noise);
        // True state |01⟩: q0 reads 1 w.p. 0.8, q1 reads 0 w.p. 0.9.
        assert!((p[0b01] - 0.8 * 0.9).abs() < 1e-12);
        assert!((p[0b00] - 0.2 * 0.9).abs() < 1e-12);
        assert!((p[0b11] - 0.8 * 0.1).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn width_guard() {
        assert!(std::panic::catch_unwind(|| DensityMatrix::zero(MAX_DM_QUBITS + 1)).is_err());
    }
}
