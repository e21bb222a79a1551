//! Property-based tests of the error channels: trace preservation, norm
//! preservation along trajectories, and ensemble statistics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tqsim_circuit::math::{Mat2, ZERO};
use tqsim_circuit::Circuit;
use tqsim_noise::{Channel, NoiseModel, ReadoutError, Site};
use tqsim_statevec::StateVector;

fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        (0.0f64..1.0).prop_map(|p| Channel::Depolarizing { p }),
        (0.0f64..1.0).prop_map(|gamma| Channel::AmplitudeDamping { gamma }),
        (0.0f64..1.0).prop_map(|lambda| Channel::PhaseDamping { lambda }),
        (1e-7f64..1e-4, 0.1f64..2.0, 0.0f64..1e-6).prop_map(|(t1, ratio, gate_time)| {
            // T2 = ratio · T1 with ratio ≤ 2 keeps the channel physical.
            Channel::ThermalRelaxation {
                t1,
                t2: ratio * t1,
                gate_time,
            }
        }),
    ]
}

fn on(channel: Channel, qubit: u16) -> Site {
    Site {
        channel,
        qubit,
        partner: None,
    }
}

fn scrambled(n: u16, picks: &[u8]) -> StateVector {
    let mut c = Circuit::new(n);
    for (i, &p) in picks.iter().enumerate() {
        let q = (i as u16) % n;
        match p % 4 {
            0 => c.h(q),
            1 => c.t(q),
            2 => c.ry(0.3 + f64::from(p), q),
            _ => c.cx(q, (q + 1) % n),
        };
    }
    let mut sv = StateVector::zero(n);
    sv.apply_circuit(&c);
    sv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kraus_sets_are_trace_preserving(ch in arb_channel()) {
        ch.validate().unwrap();
        let mut sum = Mat2([[ZERO; 2]; 2]);
        for k in ch.kraus_1q() {
            let kk = k.adjoint().mul(&k);
            for r in 0..2 {
                for c in 0..2 {
                    sum.0[r][c] += kk.0[r][c];
                }
            }
        }
        prop_assert!(sum.approx_eq(&Mat2::identity(), 1e-10), "{ch:?}: {sum:?}");
    }

    #[test]
    fn trajectories_keep_unit_norm(
        ch in arb_channel(),
        picks in prop::collection::vec(any::<u8>(), 1..12),
        seed in 0u64..500,
        q in 0u16..4,
    ) {
        let mut sv = scrambled(4, &picks);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            on(ch, q).apply(&mut sv, &mut rng);
            prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-8, "{ch:?}");
        }
    }

    #[test]
    fn error_probability_bounds(ch in arb_channel()) {
        let e = ch.error_probability();
        prop_assert!((0.0..=1.0).contains(&e), "{ch:?}: e = {e}");
    }

    #[test]
    fn readout_is_identity_at_zero_probability(outcome in any::<u32>()) {
        let ro = ReadoutError::symmetric(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        prop_assert_eq!(ro.apply(u64::from(outcome), 32, &mut rng), u64::from(outcome));
    }

    #[test]
    fn combined_model_rate_dominates_components(
        p1 in 0.0f64..0.3,
        gamma in 0.0f64..0.3,
    ) {
        let nm = NoiseModel::depolarizing(p1, 0.1)
            .with_channel_1q(Channel::AmplitudeDamping { gamma });
        let e = nm.error_rate_1q();
        prop_assert!(e >= p1.max(gamma) - 1e-12);
        prop_assert!(e <= p1 + gamma + 1e-12);
    }
}

#[test]
fn depolarizing_ensemble_statistics_match_kraus() {
    // Single-qubit check: the trajectory ensemble of DC(p) on |0⟩ must give
    // P(1) ≈ 2p/3 (X and Y flip, Z does not).
    let p = 0.6;
    let ch = Channel::Depolarizing { p };
    let mut rng = StdRng::seed_from_u64(42);
    let trials = 20_000;
    let mut ones = 0u32;
    for _ in 0..trials {
        let mut sv = StateVector::zero(1);
        on(ch, 0).apply(&mut sv, &mut rng);
        if sv.probability(1) > 0.5 {
            ones += 1;
        }
    }
    let rate = f64::from(ones) / f64::from(trials);
    assert!((rate - 2.0 * p / 3.0).abs() < 0.02, "P(1) = {rate}");
}

#[test]
fn amplitude_damping_ensemble_matches_gamma() {
    // AD(γ) on |1⟩: the ensemble decay rate must equal γ.
    let gamma = 0.35;
    let ch = Channel::AmplitudeDamping { gamma };
    let mut rng = StdRng::seed_from_u64(7);
    let trials = 20_000;
    let mut decayed = 0u32;
    for _ in 0..trials {
        let mut sv = StateVector::basis(1, 1);
        on(ch, 0).apply(&mut sv, &mut rng);
        if sv.probability(0) > 0.5 {
            decayed += 1;
        }
    }
    let rate = f64::from(decayed) / f64::from(trials);
    assert!(
        (rate - gamma).abs() < 0.02,
        "decay rate {rate} vs γ {gamma}"
    );
}
