//! Quantum error channels: Kraus forms and Monte-Carlo trajectory sampling.
//!
//! Every channel supports two consumption modes:
//!
//! 1. **Trajectory sampling** on a [`QuantumState`] (the pure-state stochastic
//!    method of paper §2.4): one Kraus branch is selected with its Born
//!    probability and the state renormalised.
//! 2. **Exact Kraus enumeration** for the density-matrix ground truth
//!    ([`Channel::kraus_1q`]).
//!
//! All our single-qubit channels have *diagonal* `K†K` products, so branch
//! probabilities reduce to the qubit's one-bit marginal — one pass to read
//! the marginal, one to apply the branch, one to renormalise.

use rand::{Rng, RngExt};
use tqsim_circuit::math::{c64, Mat2};
use tqsim_circuit::GateKind;
use tqsim_statevec::QuantumState;

/// A single error channel. Probabilities/ratios are validated at
/// construction via [`Channel::validate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Channel {
    /// Depolarizing: with probability `p`, apply a uniformly random
    /// non-identity Pauli (on each qubit the gate touched jointly for
    /// two-qubit application).
    Depolarizing {
        /// Error probability per application.
        p: f64,
    },
    /// Thermal relaxation parameterised by `T1`, `T2` and the gate duration
    /// (all in the same unit, e.g. seconds). Decomposed internally as
    /// amplitude damping `γ = 1 − e^{−t/T1}` followed by phase damping
    /// chosen so off-diagonals decay as `e^{−t/T2}`.
    ThermalRelaxation {
        /// Energy-relaxation time constant.
        t1: f64,
        /// Dephasing time constant (must satisfy `T2 ≤ 2·T1`).
        t2: f64,
        /// Duration of the gate the channel models.
        gate_time: f64,
    },
    /// Amplitude damping with decay probability `gamma`.
    AmplitudeDamping {
        /// Damping ratio γ.
        gamma: f64,
    },
    /// Phase damping with dephasing probability `lambda`.
    PhaseDamping {
        /// Damping ratio λ.
        lambda: f64,
    },
}

/// Outcome of sampling a channel's trajectory branch *without* consulting
/// the state — the first half of the `sample_branch`/`apply_branch` split
/// that the fused executor's noise-adaptive flush relies on.
///
/// `Paulis` carries its (16-byte) payload inline by design: branch samples
/// are drawn once per gate on the execution hot path, where a heap
/// indirection would cost more than the copy.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BranchSample {
    /// The identity branch fired: nothing to apply, fusion may continue
    /// across this noise point.
    Identity,
    /// Pauli operators to apply to the touched qubits, in slot order
    /// (single-qubit sampling fills only the first slot).
    Paulis([Option<GateKind>; 2]),
    /// This channel's branch probabilities depend on the state (damping
    /// families): the caller must materialise the state and use
    /// [`Channel::apply_1q`].
    NeedsState,
}

/// Pauli kind for a uniform draw in `0..3` (0 = X, 1 = Y, 2 = Z).
#[inline]
fn pauli_kind(which: u32) -> GateKind {
    match which {
        0 => GateKind::X,
        1 => GateKind::Y,
        _ => GateKind::Z,
    }
}

impl Channel {
    /// Check parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for out-of-range parameters
    /// (probabilities outside `[0, 1]`, `T2 > 2·T1`, non-positive times).
    pub fn validate(&self) -> Result<(), String> {
        let prob = |x: f64, name: &str| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(format!("{name} = {x} outside [0, 1]"))
            }
        };
        match *self {
            Channel::Depolarizing { p } => prob(p, "depolarizing p"),
            Channel::AmplitudeDamping { gamma } => prob(gamma, "gamma"),
            Channel::PhaseDamping { lambda } => prob(lambda, "lambda"),
            Channel::ThermalRelaxation { t1, t2, gate_time } => {
                if t1 <= 0.0 || t2 <= 0.0 || gate_time < 0.0 {
                    return Err(format!(
                        "non-positive times: t1={t1}, t2={t2}, gate={gate_time}"
                    ));
                }
                if t2 > 2.0 * t1 {
                    return Err(format!("T2={t2} exceeds 2·T1={}", 2.0 * t1));
                }
                Ok(())
            }
        }
    }

    /// Probability that this channel produces a *non-identity* event on one
    /// application — the per-gate error rate `e_i` consumed by DCP's Eq. 4.
    ///
    /// For damping channels this is the worst-case (qubit in |1⟩) jump
    /// probability, a deliberately conservative bound.
    pub fn error_probability(&self) -> f64 {
        match *self {
            Channel::Depolarizing { p } => p,
            Channel::AmplitudeDamping { gamma } => gamma,
            Channel::PhaseDamping { lambda } => lambda,
            Channel::ThermalRelaxation { t1, t2, gate_time } => {
                let (gamma, lambda) = thermal_params(t1, t2, gate_time);
                1.0 - (1.0 - gamma) * (1.0 - lambda)
            }
        }
    }

    /// Exact single-qubit Kraus operators (for the density-matrix engine).
    /// `Σ K†K = I` holds for every channel (tested).
    pub fn kraus_1q(&self) -> Vec<Mat2> {
        match *self {
            Channel::Depolarizing { p } => {
                let id = Mat2::identity().scale(c64((1.0 - p).sqrt(), 0.0));
                let w = c64((p / 3.0).sqrt(), 0.0);
                vec![
                    id,
                    Mat2::pauli_x().scale(w),
                    Mat2::pauli_y().scale(w),
                    Mat2::pauli_z().scale(w),
                ]
            }
            Channel::AmplitudeDamping { gamma } => amplitude_damping_kraus(gamma),
            Channel::PhaseDamping { lambda } => phase_damping_kraus(lambda),
            Channel::ThermalRelaxation { t1, t2, gate_time } => {
                let (gamma, lambda) = thermal_params(t1, t2, gate_time);
                // Composition AD ∘ PD: Kraus set {A_i · P_j}.
                let mut out = Vec::with_capacity(4);
                for a in amplitude_damping_kraus(gamma) {
                    for p in phase_damping_kraus(lambda) {
                        out.push(a.mul(&p));
                    }
                }
                out
            }
        }
    }

    /// Whether trajectory-branch *sampling* consumes RNG draws independent
    /// of the state. True for depolarizing channels; damping families read
    /// the qubit's marginal, so their sampling needs a materialised state.
    pub fn samples_state_free(&self) -> bool {
        matches!(self, Channel::Depolarizing { .. })
    }

    /// Sample the single-qubit trajectory branch without a state,
    /// consuming RNG draws in exactly the order [`Channel::apply_1q`]
    /// would (the apply path is implemented on top of this).
    pub fn sample_branch_1q<R: Rng + ?Sized>(&self, rng: &mut R) -> BranchSample {
        match *self {
            Channel::Depolarizing { p } => {
                if rng.random::<f64>() < p {
                    BranchSample::Paulis([Some(pauli_kind(rng.random_range(0..3))), None])
                } else {
                    BranchSample::Identity
                }
            }
            _ => BranchSample::NeedsState,
        }
    }

    /// Sample the joint two-qubit branch without a state (depolarizing:
    /// uniform over the 15 non-identity Pauli pairs), with the draw order
    /// of [`Channel::apply_2q`].
    pub fn sample_branch_2q<R: Rng + ?Sized>(&self, rng: &mut R) -> BranchSample {
        match *self {
            Channel::Depolarizing { p } => {
                if rng.random::<f64>() < p {
                    // Uniform over the 15 non-identity pairs (I,P), (P,I), (P,P').
                    let combo = rng.random_range(1..16u8);
                    let (pa, pb) = (combo >> 2, combo & 0b11);
                    BranchSample::Paulis([
                        (pa > 0).then(|| pauli_kind(u32::from(pa) - 1)),
                        (pb > 0).then(|| pauli_kind(u32::from(pb) - 1)),
                    ])
                } else {
                    BranchSample::Identity
                }
            }
            _ => BranchSample::NeedsState,
        }
    }

    /// Sample one trajectory branch and apply it to qubit `q` of `sv`,
    /// renormalising. Returns `true` if a non-trivial (jump or non-identity
    /// Pauli) branch fired — callers use this for error-event accounting.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range for `sv`.
    pub fn apply_1q<S, R>(&self, sv: &mut S, q: u16, rng: &mut R) -> bool
    where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        match *self {
            Channel::Depolarizing { .. } => match self.sample_branch_1q(rng) {
                BranchSample::Identity => false,
                BranchSample::Paulis(paulis) => {
                    apply_branch_paulis(sv, [q, q], paulis);
                    true
                }
                BranchSample::NeedsState => unreachable!("depolarizing is state-free"),
            },
            Channel::AmplitudeDamping { gamma } => apply_amplitude_damping(sv, q, gamma, rng),
            Channel::PhaseDamping { lambda } => apply_phase_damping(sv, q, lambda, rng),
            Channel::ThermalRelaxation { t1, t2, gate_time } => {
                let (gamma, lambda) = thermal_params(t1, t2, gate_time);
                let a = apply_amplitude_damping(sv, q, gamma, rng);
                let b = apply_phase_damping(sv, q, lambda, rng);
                a || b
            }
        }
    }

    /// Sample one *joint* two-qubit branch (depolarizing picks one of the 15
    /// non-identity Pauli pairs; damping-style channels act independently
    /// per qubit). Returns `true` on a non-trivial branch.
    pub fn apply_2q<S, R>(&self, sv: &mut S, qa: u16, qb: u16, rng: &mut R) -> bool
    where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        match *self {
            Channel::Depolarizing { .. } => match self.sample_branch_2q(rng) {
                BranchSample::Identity => false,
                BranchSample::Paulis(paulis) => {
                    apply_branch_paulis(sv, [qa, qb], paulis);
                    true
                }
                BranchSample::NeedsState => unreachable!("depolarizing is state-free"),
            },
            _ => {
                let a = self.apply_1q(sv, qa, rng);
                let b = self.apply_1q(sv, qb, rng);
                a || b
            }
        }
    }
}

/// Apply a sampled Pauli pair to its qubits, in slot order — the second
/// half of the `sample_branch`/`apply_branch` split.
pub fn apply_branch_paulis<S: QuantumState + ?Sized>(
    sv: &mut S,
    qubits: [u16; 2],
    paulis: [Option<GateKind>; 2],
) {
    for (q, kind) in qubits.into_iter().zip(paulis) {
        if let Some(kind) = kind {
            sv.apply_gate(&tqsim_circuit::Gate::new(kind, &[q]));
        }
    }
}

/// Thermal-relaxation decomposition: AD with `γ = 1 − e^{−t/T1}`, then PD
/// with `λ` chosen so coherences decay as `e^{−t/T2}` overall.
fn thermal_params(t1: f64, t2: f64, gate_time: f64) -> (f64, f64) {
    let gamma = 1.0 - (-gate_time / t1).exp();
    // Off-diagonal decay of AD alone is e^{−t/(2T1)}; the PD factor must
    // contribute the remainder: √(1−λ) = e^{−t/T2 + t/(2T1)}.
    let lambda = 1.0 - (2.0 * (-gate_time / t2 + gate_time / (2.0 * t1))).exp();
    (gamma, lambda.max(0.0))
}

fn amplitude_damping_kraus(gamma: f64) -> Vec<Mat2> {
    vec![
        Mat2([
            [c64(1.0, 0.0), c64(0.0, 0.0)],
            [c64(0.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0)],
        ]),
        Mat2([
            [c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
            [c64(0.0, 0.0), c64(0.0, 0.0)],
        ]),
    ]
}

fn phase_damping_kraus(lambda: f64) -> Vec<Mat2> {
    vec![
        Mat2([
            [c64(1.0, 0.0), c64(0.0, 0.0)],
            [c64(0.0, 0.0), c64((1.0 - lambda).sqrt(), 0.0)],
        ]),
        Mat2([
            [c64(0.0, 0.0), c64(0.0, 0.0)],
            [c64(0.0, 0.0), c64(lambda.sqrt(), 0.0)],
        ]),
    ]
}

/// Amplitude-damping trajectory step. Jump probability `γ·P(q=1)`.
fn apply_amplitude_damping<S, R>(sv: &mut S, q: u16, gamma: f64, rng: &mut R) -> bool
where
    S: QuantumState + ?Sized,
    R: Rng + ?Sized,
{
    if gamma <= 0.0 {
        return false;
    }
    let p1 = sv.marginal_one(q);
    let p_jump = gamma * p1;
    if rng.random::<f64>() < p_jump {
        // K1 = [[0, √γ], [0, 0]]: |1⟩ decays to |0⟩.
        sv.apply_antidiag1(q, c64(gamma.sqrt(), 0.0), c64(0.0, 0.0));
        sv.renormalize();
        true
    } else {
        sv.apply_diag1(q, c64(1.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0));
        sv.renormalize();
        false
    }
}

/// Phase-damping trajectory step. Jump probability `λ·P(q=1)`.
fn apply_phase_damping<S, R>(sv: &mut S, q: u16, lambda: f64, rng: &mut R) -> bool
where
    S: QuantumState + ?Sized,
    R: Rng + ?Sized,
{
    if lambda <= 0.0 {
        return false;
    }
    let p1 = sv.marginal_one(q);
    let p_jump = lambda * p1;
    if rng.random::<f64>() < p_jump {
        // K1 = diag(0, √λ): projection onto |1⟩ (a dephasing record).
        sv.apply_diag1(q, c64(0.0, 0.0), c64(lambda.sqrt(), 0.0));
        sv.renormalize();
        true
    } else {
        sv.apply_diag1(q, c64(1.0, 0.0), c64((1.0 - lambda).sqrt(), 0.0));
        sv.renormalize();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tqsim_circuit::math::ZERO;
    use tqsim_statevec::StateVector;

    fn kraus_completeness(ch: &Channel) {
        let mut sum = Mat2([[ZERO; 2]; 2]);
        for k in ch.kraus_1q() {
            let kk = k.adjoint().mul(&k);
            for r in 0..2 {
                for c in 0..2 {
                    sum.0[r][c] += kk.0[r][c];
                }
            }
        }
        assert!(
            sum.approx_eq(&Mat2::identity(), 1e-12),
            "{ch:?}: ΣK†K = {sum:?}"
        );
    }

    #[test]
    fn all_channels_trace_preserving() {
        for ch in [
            Channel::Depolarizing { p: 0.02 },
            Channel::AmplitudeDamping { gamma: 0.01 },
            Channel::PhaseDamping { lambda: 0.01 },
            Channel::ThermalRelaxation {
                t1: 15e-6,
                t2: 16e-6,
                gate_time: 25e-9,
            },
        ] {
            ch.validate().unwrap();
            kraus_completeness(&ch);
        }
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(Channel::Depolarizing { p: 1.5 }.validate().is_err());
        assert!(Channel::AmplitudeDamping { gamma: -0.1 }
            .validate()
            .is_err());
        assert!(
            Channel::ThermalRelaxation {
                t1: 1e-6,
                t2: 3e-6,
                gate_time: 1e-9
            }
            .validate()
            .is_err(),
            "T2 > 2T1 must be rejected"
        );
    }

    #[test]
    fn trajectories_preserve_norm() {
        let mut rng = StdRng::seed_from_u64(7);
        for ch in [
            Channel::Depolarizing { p: 0.5 },
            Channel::AmplitudeDamping { gamma: 0.3 },
            Channel::PhaseDamping { lambda: 0.3 },
            Channel::ThermalRelaxation {
                t1: 10.0,
                t2: 12.0,
                gate_time: 3.0,
            },
        ] {
            let mut sv = StateVector::zero(3);
            let mut prep = tqsim_circuit::Circuit::new(3);
            prep.h(0).cx(0, 1).ry(0.7, 2);
            sv.apply_circuit(&prep);
            for _ in 0..50 {
                ch.apply_1q(&mut sv, 1, &mut rng);
                assert!((sv.norm_sqr() - 1.0).abs() < 1e-9, "{ch:?}");
            }
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // Repeated AD on |1> must eventually land in |0> and stay there.
        let mut rng = StdRng::seed_from_u64(1);
        let mut sv = StateVector::basis(1, 1);
        for _ in 0..2000 {
            Channel::AmplitudeDamping { gamma: 0.05 }.apply_1q(&mut sv, 0, &mut rng);
        }
        assert!((sv.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_damping_never_changes_populations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = StateVector::zero(2);
        let mut prep = tqsim_circuit::Circuit::new(2);
        prep.ry(1.1, 0).cx(0, 1);
        sv.apply_circuit(&prep);
        let before: Vec<f64> = sv.probabilities();
        for _ in 0..100 {
            Channel::PhaseDamping { lambda: 0.2 }.apply_1q(&mut sv, 0, &mut rng);
        }
        // PD branches are diagonal: the |ψ_x|² can redistribute only within
        // fixed bit-values of q... in fact every branch is diagonal, so each
        // *trajectory* multiplies amplitudes by reals; on this entangled
        // state populations collapse toward one branch but the marginal of
        // qubit 0 conditioned on a no-jump run drifts. We check the weaker
        // physical invariant: outcomes stay within the original support.
        for (i, p) in sv.probabilities().iter().enumerate() {
            if before[i] < 1e-12 {
                assert!(*p < 1e-9, "support grew at {i}");
            }
        }
    }

    #[test]
    fn depolarizing_two_qubit_fires_at_rate_p() {
        let mut rng = StdRng::seed_from_u64(11);
        let ch = Channel::Depolarizing { p: 0.3 };
        let mut fired = 0u32;
        let trials = 4000;
        for _ in 0..trials {
            let mut sv = StateVector::zero(2);
            if ch.apply_2q(&mut sv, 0, 1, &mut rng) {
                fired += 1;
            }
        }
        let rate = f64::from(fired) / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn sample_branch_consumes_the_same_draws_as_apply() {
        // Two RNG clones: one drives sample_branch + apply_branch_paulis,
        // the other the classic apply path. States and RNG positions must
        // stay identical draw for draw.
        let ch = Channel::Depolarizing { p: 0.4 };
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        let mut sv_a = StateVector::zero(2);
        let mut sv_b = StateVector::zero(2);
        let mut prep = tqsim_circuit::Circuit::new(2);
        prep.h(0).cx(0, 1);
        sv_a.apply_circuit(&prep);
        sv_b.apply_circuit(&prep);
        for _ in 0..200 {
            match ch.sample_branch_2q(&mut rng_a) {
                BranchSample::Identity => {}
                BranchSample::Paulis(paulis) => apply_branch_paulis(&mut sv_a, [0, 1], paulis),
                BranchSample::NeedsState => unreachable!(),
            }
            ch.apply_2q(&mut sv_b, 0, 1, &mut rng_b);
            assert_eq!(sv_a.amplitudes(), sv_b.amplitudes());
        }
        // Same RNG position afterwards: the next draws agree.
        assert_eq!(
            rand::RngExt::random::<f64>(&mut rng_a),
            rand::RngExt::random::<f64>(&mut rng_b)
        );
    }

    #[test]
    fn state_free_classification() {
        assert!(Channel::Depolarizing { p: 0.1 }.samples_state_free());
        for ch in [
            Channel::AmplitudeDamping { gamma: 0.1 },
            Channel::PhaseDamping { lambda: 0.1 },
            Channel::ThermalRelaxation {
                t1: 1.0,
                t2: 1.0,
                gate_time: 0.1,
            },
        ] {
            assert!(!ch.samples_state_free());
            let mut rng = StdRng::seed_from_u64(0);
            assert_eq!(ch.sample_branch_1q(&mut rng), BranchSample::NeedsState);
        }
    }

    #[test]
    fn thermal_params_limits() {
        // Long gate → γ ≈ 1; instantaneous gate → no error.
        let (g, l) = thermal_params(1.0, 1.0, 1000.0);
        assert!(g > 0.999);
        assert!(l > 0.0);
        let (g0, l0) = thermal_params(1.0, 1.0, 0.0);
        assert!(g0.abs() < 1e-12 && l0.abs() < 1e-12);
    }

    #[test]
    fn error_probability_monotone_in_time() {
        let short = Channel::ThermalRelaxation {
            t1: 15e-6,
            t2: 16e-6,
            gate_time: 25e-9,
        };
        let long = Channel::ThermalRelaxation {
            t1: 15e-6,
            t2: 16e-6,
            gate_time: 32e-9,
        };
        assert!(long.error_probability() > short.error_probability());
    }
}
