//! Observable expectation values on state vectors.
//!
//! Variational workloads (the paper's §5.7 QAOA study) evaluate cost
//! functions like `Σ_(a,b)∈E ⟨Z_a Z_b⟩`; computing them directly from the
//! state avoids shot noise entirely and is the standard trick application-
//! specific simulators use (§6.3).

use crate::state::StateVector;

/// A Pauli-Z string: the observable `⊗_{q ∈ mask} Z_q` (diagonal, so its
/// expectation is a single weighted pass over the probabilities).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZString {
    mask: u64,
}

impl ZString {
    /// `Z` on a single qubit.
    pub fn z(q: u16) -> Self {
        ZString { mask: 1 << q }
    }

    /// `Z⊗Z` on a pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn zz(a: u16, b: u16) -> Self {
        assert_ne!(a, b, "ZZ needs distinct qubits");
        ZString {
            mask: (1 << a) | (1 << b),
        }
    }

    /// The underlying qubit mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

/// `⟨ψ| ⊗Z |ψ⟩` for a Z-string: one pass, no sampling.
///
/// # Panics
///
/// Panics if the mask references qubits outside the register.
pub fn expect_z_string(sv: &StateVector, zs: ZString) -> f64 {
    assert!(
        zs.mask() >> sv.n_qubits() == 0,
        "Z-string {:#b} wider than {} qubits",
        zs.mask(),
        sv.n_qubits()
    );
    let mask = zs.mask();
    sv.amplitudes()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let sign = if (i as u64 & mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            sign * a.norm_sqr()
        })
        .sum()
}

/// The QAOA max-cut cost `Σ_(a,b)∈edges (1 − ⟨Z_a Z_b⟩)/2` — the expected
/// number of cut edges, evaluated exactly.
pub fn expect_cut_value(sv: &StateVector, edges: &[(u16, u16)]) -> f64 {
    edges
        .iter()
        .map(|&(a, b)| (1.0 - expect_z_string(sv, ZString::zz(a, b))) / 2.0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::Circuit;

    #[test]
    fn z_on_basis_states() {
        assert_eq!(
            expect_z_string(&StateVector::basis(2, 0b00), ZString::z(0)),
            1.0
        );
        assert_eq!(
            expect_z_string(&StateVector::basis(2, 0b01), ZString::z(0)),
            -1.0
        );
        assert_eq!(
            expect_z_string(&StateVector::basis(2, 0b11), ZString::zz(0, 1)),
            1.0
        );
        assert_eq!(
            expect_z_string(&StateVector::basis(2, 0b01), ZString::zz(0, 1)),
            -1.0
        );
    }

    #[test]
    fn z_on_plus_state_is_zero() {
        let mut sv = StateVector::zero(1);
        let mut c = Circuit::new(1);
        c.h(0);
        sv.apply_circuit(&c);
        assert!(expect_z_string(&sv, ZString::z(0)).abs() < 1e-12);
    }

    #[test]
    fn zz_on_bell_state_is_one() {
        let mut sv = StateVector::zero(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        sv.apply_circuit(&c);
        // |00⟩+|11⟩: perfectly correlated.
        assert!((expect_z_string(&sv, ZString::zz(0, 1)) - 1.0).abs() < 1e-12);
        // Each single Z is zero.
        assert!(expect_z_string(&sv, ZString::z(0)).abs() < 1e-12);
    }

    #[test]
    fn cut_value_matches_sampled_estimate() {
        use rand::SeedableRng;
        let edges = [(0u16, 1u16), (1, 2), (0, 2)];
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1).ry(0.7, 2);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        let exact = expect_cut_value(&sv, &edges);
        // Monte-Carlo estimate of the same quantity.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let shots = 40_000;
        let mut acc = 0.0;
        for _ in 0..shots {
            let bits = sv.sample(&mut rng);
            acc += edges
                .iter()
                .filter(|&&(a, b)| (bits >> a) & 1 != (bits >> b) & 1)
                .count() as f64;
        }
        let sampled = acc / f64::from(shots);
        assert!(
            (exact - sampled).abs() < 0.03,
            "exact {exact} vs sampled {sampled}"
        );
    }

    #[test]
    fn mask_bounds_checked() {
        let sv = StateVector::zero(2);
        assert!(std::panic::catch_unwind(|| expect_z_string(&sv, ZString::z(5))).is_err());
    }
}
