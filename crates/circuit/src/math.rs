//! Small dense complex matrices used for gate definitions.
//!
//! These are deliberately tiny fixed-size types ([`Mat2`], [`Mat4`]) rather
//! than a general matrix library: every quantum gate in this workspace is a
//! 2×2 or 4×4 unitary (named three-qubit gates are handled structurally by
//! the kernels), those are the two shapes the amplitude kernels specialise
//! on, and fixed arrays keep them `Copy` and cache-friendly.

use num_complex::Complex;

/// Double-precision complex scalar — the amplitude type of the whole workspace.
pub type C64 = Complex<f64>;

/// Shorthand constructor for a [`C64`].
///
/// ```
/// use tqsim_circuit::math::c64;
/// assert_eq!(c64(1.0, -2.0).im, -2.0);
/// ```
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    Complex::new(re, im)
}

/// The additive identity.
pub const ZERO: C64 = c64(0.0, 0.0);
/// The multiplicative identity.
pub const ONE: C64 = c64(1.0, 0.0);
/// The imaginary unit.
pub const I: C64 = c64(0.0, 1.0);
/// `1/sqrt(2)`, the Hadamard normalisation constant.
pub const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A 2×2 complex matrix (single-qubit operator), row-major.
///
/// ```
/// use tqsim_circuit::math::Mat2;
/// let x = Mat2::pauli_x();
/// assert!(x.mul(&x).approx_eq(&Mat2::identity(), 1e-12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat2(pub [[C64; 2]; 2]);

impl Mat2 {
    /// The 2×2 identity matrix.
    pub const fn identity() -> Self {
        Mat2([[ONE, ZERO], [ZERO, ONE]])
    }

    /// Pauli X.
    pub const fn pauli_x() -> Self {
        Mat2([[ZERO, ONE], [ONE, ZERO]])
    }

    /// Pauli Y.
    pub const fn pauli_y() -> Self {
        Mat2([[ZERO, c64(0.0, -1.0)], [I, ZERO]])
    }

    /// Pauli Z.
    pub const fn pauli_z() -> Self {
        Mat2([[ONE, ZERO], [ZERO, c64(-1.0, 0.0)]])
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Mat2) -> Mat2 {
        let mut out = [[ZERO; 2]; 2];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = self.0[r][0] * rhs.0[0][c] + self.0[r][1] * rhs.0[1][c];
            }
        }
        Mat2(out)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat2 {
        Mat2([
            [self.0[0][0].conj(), self.0[1][0].conj()],
            [self.0[0][1].conj(), self.0[1][1].conj()],
        ])
    }

    /// Elementwise complex conjugate (no transpose).
    pub fn conj(&self) -> Mat2 {
        Mat2([
            [self.0[0][0].conj(), self.0[0][1].conj()],
            [self.0[1][0].conj(), self.0[1][1].conj()],
        ])
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: [C64; 2]) -> [C64; 2] {
        [
            self.0[0][0] * v[0] + self.0[0][1] * v[1],
            self.0[1][0] * v[0] + self.0[1][1] * v[1],
        ]
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: C64) -> Mat2 {
        let mut out = self.0;
        for row in &mut out {
            for cell in row {
                *cell *= s;
            }
        }
        Mat2(out)
    }

    /// Kronecker product `self ⊗ rhs` (self acts on the *more significant* qubit).
    pub fn kron(&self, rhs: &Mat2) -> Mat4 {
        let mut out = [[ZERO; 4]; 4];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        out[i * 2 + k][j * 2 + l] = self.0[i][j] * rhs.0[k][l];
                    }
                }
            }
        }
        Mat4(out)
    }

    /// Whether `self * self.adjoint() ≈ I` within `tol` (max-entry norm).
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.mul(&self.adjoint()).approx_eq(&Mat2::identity(), tol)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, rhs: &Mat2, tol: f64) -> bool {
        self.0
            .iter()
            .flatten()
            .zip(rhs.0.iter().flatten())
            .all(|(a, b)| (a - b).norm() <= tol)
    }
}

impl Default for Mat2 {
    fn default() -> Self {
        Mat2::identity()
    }
}

/// A 4×4 complex matrix (two-qubit operator), row-major.
///
/// Row/column index convention: `idx = (hi << 1) | lo` where `hi` is the
/// first qubit of the gate and `lo` the second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4(pub [[C64; 4]; 4]);

impl Mat4 {
    /// The 4×4 identity matrix.
    pub const fn identity() -> Self {
        let mut m = [[ZERO; 4]; 4];
        m[0][0] = ONE;
        m[1][1] = ONE;
        m[2][2] = ONE;
        m[3][3] = ONE;
        Mat4(m)
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [[ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                let mut acc = ZERO;
                for k in 0..4 {
                    acc += self.0[r][k] * rhs.0[k][c];
                }
                *cell = acc;
            }
        }
        Mat4(out)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat4 {
        let mut out = [[ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = self.0[c][r].conj();
            }
        }
        Mat4(out)
    }

    /// Elementwise complex conjugate (no transpose).
    pub fn conj(&self) -> Mat4 {
        let mut out = self.0;
        for row in &mut out {
            for cell in row {
                *cell = cell.conj();
            }
        }
        Mat4(out)
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: [C64; 4]) -> [C64; 4] {
        let mut out = [ZERO; 4];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = ZERO;
            for (k, x) in v.iter().enumerate() {
                acc += self.0[r][k] * x;
            }
            *o = acc;
        }
        out
    }

    /// The same operator with the two qubit slots exchanged
    /// (conjugation by SWAP).
    pub fn swapped_qubits(&self) -> Mat4 {
        let perm = [0usize, 2, 1, 3];
        let mut out = [[ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = self.0[perm[r]][perm[c]];
            }
        }
        Mat4(out)
    }

    /// Whether `self * self.adjoint() ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.mul(&self.adjoint()).approx_eq(&Mat4::identity(), tol)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, rhs: &Mat4, tol: f64) -> bool {
        self.0
            .iter()
            .flatten()
            .zip(rhs.0.iter().flatten())
            .all(|(a, b)| (a - b).norm() <= tol)
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (Mat2::pauli_x(), Mat2::pauli_y(), Mat2::pauli_z());
        // XY = iZ
        assert!(x.mul(&y).approx_eq(&z.scale(I), 1e-12));
        // YZ = iX
        assert!(y.mul(&z).approx_eq(&x.scale(I), 1e-12));
        // ZX = iY
        assert!(z.mul(&x).approx_eq(&y.scale(I), 1e-12));
        for p in [x, y, z] {
            assert!(p.is_unitary(1e-12));
            assert!(p.mul(&p).approx_eq(&Mat2::identity(), 1e-12));
        }
    }

    #[test]
    fn adjoint_involution() {
        let m = Mat2([
            [c64(1.0, 2.0), c64(0.5, -0.25)],
            [c64(-3.0, 0.0), c64(0.0, 1.0)],
        ]);
        assert!(m.adjoint().adjoint().approx_eq(&m, 1e-15));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let id = Mat2::identity().kron(&Mat2::identity());
        assert!(id.approx_eq(&Mat4::identity(), 1e-15));
    }

    #[test]
    fn kron_places_first_factor_on_high_qubit() {
        // X ⊗ I flips the high qubit: maps |0l> -> |1l>.
        let m = Mat2::pauli_x().kron(&Mat2::identity());
        let v = m.mul_vec([ONE, ZERO, ZERO, ZERO]); // |00>
        assert_eq!(v[2], ONE); // -> |10>
    }

    #[test]
    fn mat4_swapped_qubits_roundtrip() {
        let m = Mat2::pauli_x().kron(&Mat2::pauli_z());
        let back = m.swapped_qubits().swapped_qubits();
        assert!(back.approx_eq(&m, 1e-15));
        // X⊗Z swapped = Z⊗X
        let zx = Mat2::pauli_z().kron(&Mat2::pauli_x());
        assert!(m.swapped_qubits().approx_eq(&zx, 1e-15));
    }

    #[test]
    fn mat4_mul_vec_matches_mul() {
        let a = Mat2::pauli_x().kron(&Mat2::pauli_y());
        let b = Mat2::pauli_z().kron(&Mat2::identity());
        let v = [c64(0.5, 0.0), c64(0.0, 0.5), c64(-0.5, 0.0), c64(0.0, -0.5)];
        let lhs = a.mul(&b).mul_vec(v);
        let rhs = a.mul_vec(b.mul_vec(v));
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            assert!((l - r).norm() < 1e-12);
        }
    }
}
