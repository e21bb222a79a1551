//! Quantum error channels: Kraus forms and Monte-Carlo trajectory sampling.
//!
//! Every channel supports two consumption modes:
//!
//! 1. **Trajectory sampling** on a [`QuantumState`] (the pure-state stochastic
//!    method of paper §2.4): one Kraus branch is selected with its Born
//!    probability and the state renormalised. A [`Site`] (one channel
//!    application after a gate) is sampled in two halves: [`draw`] picks a
//!    state-free branch before the state is touched (depolarizing), and only
//!    damping families read the state to pick theirs, in [`Site::apply`].
//! 2. **Exact Kraus enumeration** for the density-matrix ground truth
//!    ([`Channel::kraus_1q`]).
//!
//! All our single-qubit channels have *diagonal* `K†K` products, so damping
//! branch probabilities reduce to the qubit's one-bit marginal — one pass to
//! read the marginal, one to apply the branch, one to renormalise.

use rand::{Rng, RngExt};
use tqsim_circuit::math::{c64, Mat2, ZERO};
use tqsim_circuit::{Gate, GateKind};
use tqsim_statevec::{DiagRun, QuantumState};

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

/// A Pauli fired by a depolarizing branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// The gate kind that applies this Pauli.
    pub fn kind(self) -> GateKind {
        match self {
            Pauli::X => GateKind::X,
            Pauli::Y => GateKind::Y,
            Pauli::Z => GateKind::Z,
        }
    }
}

/// Slot codes of a depolarizing draw: 0 = I, 1 = X, 2 = Y, 3 = Z.
const PAULI_CODES: [Option<Pauli>; 4] = [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)];

/// One channel application after a gate, as [`crate::NoiseModel::sites`]
/// lists them: `channel` on `qubit`, or, for depolarizing after a wider
/// gate, drawn jointly on `(qubit, partner)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Site {
    /// The channel applied.
    pub channel: Channel,
    /// The qubit it acts on (the first of a joint pair).
    pub qubit: u16,
    /// The second qubit of a joint two-qubit depolarizing draw.
    pub partner: Option<u16>,
}

/// The trajectory branch a [`Site`] draws, before the state is touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// The identity branch fired: nothing to apply, fusion may continue
    /// across this noise point.
    Identity,
    /// Paulis for `[qubit, partner]`, in slot order (a one-qubit site
    /// fills only the first slot).
    Paulis([Option<Pauli>; 2]),
    /// The branch probabilities depend on the state (damping families): no
    /// draw was consumed, and [`Site::apply`] reads the state to pick one.
    NeedsState,
}

/// Draw `site`'s branch. This is the only code that consumes state-free
/// noise draws: depolarizing takes one uniform against `p`, then on a
/// fire one `0..3` (one qubit) or `1..16` (joint pair: the 15 non-identity
/// pairs, two bits per slot) draw. Damping sites draw nothing here.
pub fn draw<R: Rng + ?Sized>(site: &Site, rng: &mut R) -> Branch {
    let Channel::Depolarizing { p } = site.channel else {
        return Branch::NeedsState;
    };
    if rng.random::<f64>() >= p {
        return Branch::Identity;
    }
    Branch::Paulis(match site.partner {
        None => [PAULI_CODES[rng.random_range(0..3u32) as usize + 1], None],
        Some(_) => {
            let combo = usize::from(rng.random_range(1..16u8));
            [PAULI_CODES[combo >> 2], PAULI_CODES[combo & 0b11]]
        }
    })
}

impl Site {
    /// The Pauli gates a fired branch applies, in slot order.
    pub(crate) fn pauli_gates(&self, paulis: [Option<Pauli>; 2]) -> impl Iterator<Item = Gate> {
        let qubits = [self.qubit, self.partner.unwrap_or(self.qubit)];
        qubits
            .into_iter()
            .zip(paulis)
            .filter_map(|(q, pauli)| Some(Gate::new(pauli?.kind(), &[q])))
    }

    /// Draw this site's branch and apply it to `sv`, renormalising: the
    /// fired Paulis, or the channel's state-reading damping step. Returns
    /// `true` if a non-trivial (jump or non-identity Pauli) branch fired.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range for `sv`.
    pub fn apply<S, R>(&self, sv: &mut S, rng: &mut R) -> bool
    where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        match draw(self, rng) {
            Branch::Identity => false,
            Branch::Paulis(paulis) => {
                for gate in self.pauli_gates(paulis) {
                    sv.apply_gate(&gate);
                }
                true
            }
            Branch::NeedsState => self.channel.damp(sv, self.qubit, rng),
        }
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

    /// The state-reading trajectory step: amplitude damping by `γ`, then
    /// phase damping by `λ` (thermal relaxation has both; a zero ratio
    /// reads and draws nothing, so depolarizing is a no-op here).
    pub(crate) fn damp<S, R>(&self, sv: &mut S, q: u16, rng: &mut R) -> bool
    where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        let (gamma, lambda) = match *self {
            Channel::Depolarizing { .. } => (0.0, 0.0),
            Channel::AmplitudeDamping { gamma } => (gamma, 0.0),
            Channel::PhaseDamping { lambda } => (0.0, lambda),
            Channel::ThermalRelaxation { t1, t2, gate_time } => thermal_params(t1, t2, gate_time),
        };
        let a = damp_step(sv, q, gamma, rng, |sv| {
            // K1 = [[0, √γ], [0, 0]]: |1⟩ decays to |0⟩.
            sv.apply_mat2(q, &Mat2([[ZERO, c64(gamma.sqrt(), 0.0)], [ZERO, ZERO]]));
        });
        // K1 = diag(0, √λ): projection onto |1⟩ (a dephasing record).
        let b = damp_step(sv, q, lambda, rng, |sv| {
            apply_diag(sv, q, 0.0, lambda.sqrt())
        });
        a || b
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

/// One damping trajectory step with ratio `r` (`γ` or `λ`): with
/// probability `r·P(q=1)` apply the `jump` branch, else the no-jump branch
/// `diag(1, √(1−r))`, then renormalise. A zero ratio reads and draws
/// nothing. Both branches reach the backend through the fused-op calls
/// replay uses: a diagonal as a one-term [`DiagRun`], a matrix through
/// [`QuantumState::apply_mat2`].
fn damp_step<S, R>(sv: &mut S, q: u16, r: f64, rng: &mut R, jump: impl FnOnce(&mut S)) -> bool
where
    S: QuantumState + ?Sized,
    R: Rng + ?Sized,
{
    if r <= 0.0 {
        return false;
    }
    let p_jump = r * sv.marginal_one(q);
    let jumped = rng.random::<f64>() < p_jump;
    if jumped {
        jump(sv);
    } else {
        apply_diag(sv, q, 1.0, (1.0 - r).sqrt());
    }
    sv.renormalize();
    jumped
}

/// `diag(d0, d1)` on `q` as a one-term diagonal run.
fn apply_diag<S: QuantumState + ?Sized>(sv: &mut S, q: u16, d0: f64, d1: f64) {
    let mut run = DiagRun::new();
    run.push1(q, [c64(d0, 0.0), c64(d1, 0.0)]);
    sv.apply_diag_run(&run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tqsim_statevec::StateVector;

    fn on(channel: Channel, qubit: u16) -> Site {
        Site {
            channel,
            qubit,
            partner: None,
        }
    }

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
                on(ch, 1).apply(&mut sv, &mut rng);
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
            on(Channel::AmplitudeDamping { gamma: 0.05 }, 0).apply(&mut sv, &mut rng);
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
            on(Channel::PhaseDamping { lambda: 0.2 }, 0).apply(&mut sv, &mut rng);
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
            let site = Site {
                channel: ch,
                qubit: 0,
                partner: Some(1),
            };
            if site.apply(&mut sv, &mut rng) {
                fired += 1;
            }
        }
        let rate = f64::from(fired) / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.03, "rate = {rate}");
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
            let mut untouched = rng.clone();
            assert_eq!(draw(&on(ch, 0), &mut rng), Branch::NeedsState);
            assert_eq!(
                rand::RngExt::random::<u64>(&mut rng),
                rand::RngExt::random::<u64>(&mut untouched),
                "no draw consumed"
            );
        }
        // A branch is returned once per draw on the replay hot path.
        assert!(std::mem::size_of::<Branch>() <= 4);
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
