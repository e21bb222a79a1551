//! Gate definitions: the [`GateKind`] catalogue and the placed [`Gate`].

use crate::math::{c64, Mat2, Mat4, C64, FRAC_1_SQRT_2, I, ONE, ZERO};
use std::fmt;

/// The catalogue of supported gate operations.
///
/// Parameterised rotations carry their angles inline; `Unitary1`/`Unitary2`
/// allow arbitrary (caller-verified) unitaries. Matrix conventions follow
/// the usual little-endian statevector layout used by
/// [`tqsim-statevec`](https://docs.rs/tqsim-statevec): for two-qubit kinds
/// the *first* listed qubit is the more significant matrix index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateKind {
    /// Identity (useful as an explicit no-op / scheduling marker).
    Id,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// S-dagger.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T-dagger.
    Tdg,
    /// Square root of X.
    Sx,
    /// Square root of Y.
    Sy,
    /// Square root of W where W = (X+Y)/√2 (Google Sycamore gate set).
    Sw,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Phase gate diag(1, e^{iθ}).
    Phase(f64),
    /// Generic single-qubit rotation U3(θ, φ, λ).
    U3(f64, f64, f64),
    /// Arbitrary single-qubit unitary.
    Unitary1(Mat2),
    /// Controlled X (first qubit = control).
    Cx,
    /// Controlled Z.
    Cz,
    /// Controlled phase diag(1,1,1,e^{iθ}).
    CPhase(f64),
    /// SWAP.
    Swap,
    /// ZZ interaction exp(-iθ/2 Z⊗Z).
    Rzz(f64),
    /// fSim(θ, φ) — the Sycamore native two-qubit gate.
    FSim(f64, f64),
    /// Arbitrary two-qubit unitary.
    Unitary2(Mat4),
    /// Toffoli (controlled-controlled-X; first two qubits = controls).
    Ccx,
}

impl GateKind {
    /// Number of qubits the gate acts on (1, 2 or 3).
    pub fn arity(&self) -> usize {
        use GateKind::*;
        match self {
            Id | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sy | Sw | Rx(_) | Ry(_) | Rz(_)
            | Phase(_) | U3(..) | Unitary1(_) => 1,
            Cx | Cz | CPhase(_) | Swap | Rzz(_) | FSim(..) | Unitary2(_) => 2,
            Ccx => 3,
        }
    }

    /// Short mnemonic used by [`fmt::Display`] and circuit dumps.
    pub fn name(&self) -> &'static str {
        use GateKind::*;
        match self {
            Id => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sy => "sy",
            Sw => "sw",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            Phase(_) => "p",
            U3(..) => "u3",
            Unitary1(_) => "u1q",
            Cx => "cx",
            Cz => "cz",
            CPhase(_) => "cp",
            Swap => "swap",
            Rzz(_) => "rzz",
            FSim(..) => "fsim",
            Unitary2(_) => "u2q",
            Ccx => "ccx",
        }
    }

    /// The diagonal entries `[d0, d1]` of a *diagonal single-qubit* kind,
    /// `None` for everything else.
    ///
    /// This is the classification the fusion planner
    /// (`tqsim_statevec::plan`) and the diagonal gate kernels share; the
    /// entries are produced by exactly the expressions the specialised
    /// kernels historically used, so a diagonal gate applied through a
    /// single-term fused sweep is bit-identical to the unfused dispatch.
    pub fn diag1(&self) -> Option<[C64; 2]> {
        use GateKind::*;
        let d = match *self {
            Id => [ONE, ONE],
            Z => [ONE, c64(-1.0, 0.0)],
            S => [ONE, I],
            Sdg => [ONE, c64(0.0, -1.0)],
            T => [ONE, C64::from_polar(1.0, std::f64::consts::FRAC_PI_4)],
            Tdg => [ONE, C64::from_polar(1.0, -std::f64::consts::FRAC_PI_4)],
            Rz(t) => [
                C64::from_polar(1.0, -t / 2.0),
                C64::from_polar(1.0, t / 2.0),
            ],
            Phase(t) => [ONE, C64::from_polar(1.0, t)],
            _ => return None,
        };
        Some(d)
    }

    /// The diagonal entries `[d00, d01, d10, d11]` of a *diagonal two-qubit*
    /// kind (first qubit = more significant index bit), `None` otherwise.
    pub fn diag2(&self) -> Option<[C64; 4]> {
        use GateKind::*;
        let d = match *self {
            Cz => [ONE, ONE, ONE, c64(-1.0, 0.0)],
            CPhase(t) => [ONE, ONE, ONE, C64::from_polar(1.0, t)],
            Rzz(t) => {
                let e = C64::from_polar(1.0, -t / 2.0);
                let ec = C64::from_polar(1.0, t / 2.0);
                [e, ec, ec, e]
            }
            _ => return None,
        };
        Some(d)
    }

    /// The 2×2 matrix of a single-qubit kind, `None` for multi-qubit kinds.
    pub fn matrix1(&self) -> Option<Mat2> {
        use GateKind::*;
        let h = FRAC_1_SQRT_2;
        let m = match *self {
            Id => Mat2::identity(),
            X => Mat2::pauli_x(),
            Y => Mat2::pauli_y(),
            Z => Mat2::pauli_z(),
            H => Mat2([[c64(h, 0.0), c64(h, 0.0)], [c64(h, 0.0), c64(-h, 0.0)]]),
            S => Mat2([[ONE, ZERO], [ZERO, I]]),
            Sdg => Mat2([[ONE, ZERO], [ZERO, c64(0.0, -1.0)]]),
            T => Mat2([[ONE, ZERO], [ZERO, c64(h, h)]]),
            Tdg => Mat2([[ONE, ZERO], [ZERO, c64(h, -h)]]),
            Sx => Mat2([
                [c64(0.5, 0.5), c64(0.5, -0.5)],
                [c64(0.5, -0.5), c64(0.5, 0.5)],
            ]),
            Sy => Mat2([
                [c64(0.5, 0.5), c64(-0.5, -0.5)],
                [c64(0.5, 0.5), c64(0.5, 0.5)],
            ]),
            // √W with W=(X+Y)/√2 (Google quantum-supremacy gate set):
            // principal square root 1/√2 [[e^{iπ/4}, -i], [1, e^{iπ/4}]].
            Sw => {
                let a = C64::from_polar(1.0, std::f64::consts::FRAC_PI_4);
                Mat2([[a * h, c64(0.0, -h)], [c64(h, 0.0), a * h]])
            }
            Rx(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                Mat2([[c64(c, 0.0), c64(0.0, -s)], [c64(0.0, -s), c64(c, 0.0)]])
            }
            Ry(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                Mat2([[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]])
            }
            Rz(t) => {
                let e0 = C64::from_polar(1.0, -t / 2.0);
                let e1 = C64::from_polar(1.0, t / 2.0);
                Mat2([[e0, ZERO], [ZERO, e1]])
            }
            Phase(t) => Mat2([[ONE, ZERO], [ZERO, C64::from_polar(1.0, t)]]),
            U3(theta, phi, lambda) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Mat2([
                    [c64(c, 0.0), -C64::from_polar(s, lambda)],
                    [C64::from_polar(s, phi), C64::from_polar(c, phi + lambda)],
                ])
            }
            Unitary1(m) => m,
            _ => return None,
        };
        Some(m)
    }

    /// The 4×4 matrix of a two-qubit kind, `None` otherwise.
    ///
    /// The first qubit of the gate indexes the more significant bit of the
    /// matrix row/column.
    pub fn matrix2(&self) -> Option<Mat4> {
        use GateKind::*;
        let m = match *self {
            Cx => {
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = ONE;
                m[1][1] = ONE;
                m[2][3] = ONE;
                m[3][2] = ONE;
                Mat4(m)
            }
            Cz => {
                let mut m = Mat4::identity();
                m.0[3][3] = c64(-1.0, 0.0);
                m
            }
            CPhase(t) => {
                let mut m = Mat4::identity();
                m.0[3][3] = C64::from_polar(1.0, t);
                m
            }
            Swap => {
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = ONE;
                m[1][2] = ONE;
                m[2][1] = ONE;
                m[3][3] = ONE;
                Mat4(m)
            }
            Rzz(t) => {
                let e = C64::from_polar(1.0, -t / 2.0);
                let ec = C64::from_polar(1.0, t / 2.0);
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = e;
                m[1][1] = ec;
                m[2][2] = ec;
                m[3][3] = e;
                Mat4(m)
            }
            FSim(theta, phi) => {
                let (c, s) = (theta.cos(), theta.sin());
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = ONE;
                m[1][1] = c64(c, 0.0);
                m[1][2] = c64(0.0, -s);
                m[2][1] = c64(0.0, -s);
                m[2][2] = c64(c, 0.0);
                m[3][3] = C64::from_polar(1.0, -phi);
                Mat4(m)
            }
            Unitary2(m) => m,
            _ => return None,
        };
        Some(m)
    }
}

impl GateKind {
    /// The gate's continuous parameters in declaration order (empty for
    /// fixed gates; matrix kinds flatten row-major, real then imaginary
    /// per entry). Consumed by [`Gate::fingerprint_into`] and wire codecs.
    pub fn params(&self) -> Vec<f64> {
        use GateKind::*;
        match *self {
            Rx(t) | Ry(t) | Rz(t) | Phase(t) | CPhase(t) | Rzz(t) => vec![t],
            U3(a, b, c) => vec![a, b, c],
            FSim(a, b) => vec![a, b],
            Unitary1(m) => m.0.iter().flatten().flat_map(|c| [c.re, c.im]).collect(),
            Unitary2(m) => m.0.iter().flatten().flat_map(|c| [c.re, c.im]).collect(),
            _ => Vec::new(),
        }
    }

    /// `(parameter count, arity)` of the kind the mnemonic `name` names —
    /// what a wire decoder needs to split `[name, params…, qubits…]`.
    pub fn shape(name: &str) -> Option<(usize, usize)> {
        Some(match name {
            "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "sx" | "sy" | "sw" => (0, 1),
            "rx" | "ry" | "rz" | "p" => (1, 1),
            "u3" => (3, 1),
            "u1q" => (8, 1),
            "cx" | "cz" | "swap" => (0, 2),
            "cp" | "rzz" => (1, 2),
            "fsim" => (2, 2),
            "u2q" => (32, 2),
            "ccx" => (0, 3),
            _ => return None,
        })
    }

    /// The kind a mnemonic and its parameters name: the inverse of
    /// [`GateKind::name`] and [`GateKind::params`]. `None` for an unknown
    /// mnemonic or a parameter count other than [`GateKind::shape`]'s.
    pub fn from_parts(name: &str, params: &[f64]) -> Option<GateKind> {
        use GateKind::*;
        if Self::shape(name)?.0 != params.len() {
            return None;
        }
        let e = |i: usize| c64(params[2 * i], params[2 * i + 1]);
        Some(match name {
            "id" => Id,
            "x" => X,
            "y" => Y,
            "z" => Z,
            "h" => H,
            "s" => S,
            "sdg" => Sdg,
            "t" => T,
            "tdg" => Tdg,
            "sx" => Sx,
            "sy" => Sy,
            "sw" => Sw,
            "rx" => Rx(params[0]),
            "ry" => Ry(params[0]),
            "rz" => Rz(params[0]),
            "p" => Phase(params[0]),
            "u3" => U3(params[0], params[1], params[2]),
            "u1q" => Unitary1(Mat2([[e(0), e(1)], [e(2), e(3)]])),
            "cx" => Cx,
            "cz" => Cz,
            "swap" => Swap,
            "cp" => CPhase(params[0]),
            "rzz" => Rzz(params[0]),
            "fsim" => FSim(params[0], params[1]),
            "u2q" => Unitary2(Mat4(std::array::from_fn(|r| {
                std::array::from_fn(|c| e(r * 4 + c))
            }))),
            "ccx" => Ccx,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use GateKind::*;
        match self {
            Rx(t) | Ry(t) | Rz(t) | Phase(t) | Rzz(t) => write!(f, "{}({:.4})", self.name(), t),
            U3(a, b, c) => write!(f, "u3({a:.4},{b:.4},{c:.4})"),
            CPhase(t) => write!(f, "cp({t:.4})"),
            FSim(a, b) => write!(f, "fsim({a:.4},{b:.4})"),
            _ => f.write_str(self.name()),
        }
    }
}

/// Maximum gate arity supported by the IR.
pub const MAX_ARITY: usize = 3;

/// A gate placed on specific qubits of a circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    kind: GateKind,
    qubits: [u16; MAX_ARITY],
}

impl Gate {
    /// Place `kind` on `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` does not match the gate arity or if the
    /// qubits are not pairwise distinct. Use [`Gate::try_new`] for a
    /// fallible variant.
    pub fn new(kind: GateKind, qubits: &[u16]) -> Self {
        Self::try_new(kind, qubits).expect("invalid gate placement")
    }

    /// Fallible version of [`Gate::new`].
    ///
    /// # Errors
    ///
    /// Returns [`GateError`] when the qubit count mismatches the arity or
    /// when qubits repeat.
    pub fn try_new(kind: GateKind, qubits: &[u16]) -> Result<Self, GateError> {
        if qubits.len() != kind.arity() {
            return Err(GateError::ArityMismatch {
                kind: kind.name(),
                expected: kind.arity(),
                got: qubits.len(),
            });
        }
        for (i, a) in qubits.iter().enumerate() {
            if qubits[i + 1..].contains(a) {
                return Err(GateError::DuplicateQubit { qubit: *a });
            }
        }
        let mut qs = [0u16; MAX_ARITY];
        qs[..qubits.len()].copy_from_slice(qubits);
        Ok(Gate { kind, qubits: qs })
    }

    /// The operation.
    pub fn kind(&self) -> &GateKind {
        &self.kind
    }

    /// The qubits the gate acts on, in gate-slot order.
    pub fn qubits(&self) -> &[u16] {
        &self.qubits[..self.kind.arity()]
    }

    /// Number of qubits acted on.
    pub fn arity(&self) -> usize {
        self.kind.arity()
    }

    /// Absorb this gate's canonical encoding into `hasher`: the kind
    /// mnemonic (unique per [`GateKind`]), every continuous parameter as
    /// IEEE-754 bits, then the qubit placements in slot order. Two gates
    /// feed identical bytes iff they compare equal.
    pub fn fingerprint_into(&self, hasher: &mut crate::fingerprint::Fnv64) {
        // The mnemonic is length-prefixed so distinct kind sequences can
        // never collide by concatenation ("s","x" vs "sx").
        let name = self.kind.name();
        hasher.write_u64(name.len() as u64);
        hasher.write_bytes(name.as_bytes());
        let params = self.kind.params();
        hasher.write_u64(params.len() as u64);
        for p in params {
            hasher.write_f64(p);
        }
        for &q in self.qubits() {
            hasher.write_u16(q);
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.kind)?;
        let mut first = true;
        for q in self.qubits() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "q{q}")?;
            first = false;
        }
        Ok(())
    }
}

/// Error produced when constructing an invalid [`Gate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The number of supplied qubits does not match the gate arity.
    ArityMismatch {
        /// Gate mnemonic.
        kind: &'static str,
        /// Arity of the kind.
        expected: usize,
        /// Supplied qubit count.
        got: usize,
    },
    /// A qubit index appears more than once.
    DuplicateQubit {
        /// The repeated index.
        qubit: u16,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::ArityMismatch {
                kind,
                expected,
                got,
            } => {
                write!(f, "gate {kind} expects {expected} qubits, got {got}")
            }
            GateError::DuplicateQubit { qubit } => {
                write!(f, "duplicate qubit q{qubit} in gate placement")
            }
        }
    }
}

impl std::error::Error for GateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixed_single_qubit_matrices_are_unitary() {
        use GateKind::*;
        for k in [Id, X, Y, Z, H, S, Sdg, T, Tdg, Sx, Sy, Sw] {
            let m = k.matrix1().unwrap();
            assert!(m.is_unitary(1e-12), "{k:?} not unitary: {m:?}");
        }
    }

    #[test]
    fn parameterised_matrices_are_unitary() {
        use GateKind::*;
        for t in [0.0, 0.3, 1.2, std::f64::consts::PI, 5.5] {
            for k in [Rx(t), Ry(t), Rz(t), Phase(t), U3(t, 0.7, 1.9)] {
                assert!(k.matrix1().unwrap().is_unitary(1e-12), "{k:?}");
            }
            for k in [CPhase(t), Rzz(t), FSim(t, 0.4)] {
                assert!(k.matrix2().unwrap().is_unitary(1e-12), "{k:?}");
            }
        }
    }

    /// Every kind survives `name` + `params` → `from_parts`, with the
    /// shape its mnemonic declares.
    #[test]
    fn mnemonics_round_trip_through_from_parts() {
        use GateKind::*;
        let u1 = Unitary1(Sw.matrix1().unwrap());
        let u2 = Unitary2(FSim(0.7, -1.3).matrix2().unwrap());
        for k in [
            Id,
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
            Rx(0.1),
            Ry(0.2),
            Rz(0.3),
            Phase(0.4),
            U3(0.5, 0.6, 0.7),
            u1,
            Cx,
            Cz,
            CPhase(0.8),
            Swap,
            Rzz(0.9),
            FSim(1.0, 1.1),
            u2,
            Ccx,
        ] {
            let params = k.params();
            assert_eq!(GateKind::shape(k.name()), Some((params.len(), k.arity())));
            assert_eq!(GateKind::from_parts(k.name(), &params), Some(k));
        }
        assert_eq!(GateKind::from_parts("rx", &[]), None);
        assert_eq!(GateKind::from_parts("nope", &[]), None);
    }

    #[test]
    fn sx_squares_to_x() {
        let sx = GateKind::Sx.matrix1().unwrap();
        // SX² = X (global-phase-free convention).
        assert!(sx.mul(&sx).approx_eq(&Mat2::pauli_x(), 1e-12));
    }

    #[test]
    fn sy_squares_to_y() {
        let sy = GateKind::Sy.matrix1().unwrap();
        assert!(sy.mul(&sy).approx_eq(&Mat2::pauli_y(), 1e-12));
    }

    #[test]
    fn sw_squares_to_w() {
        let sw = GateKind::Sw.matrix1().unwrap();
        let h = FRAC_1_SQRT_2;
        // W = (X+Y)/√2
        let w = Mat2([[ZERO, c64(h, -h)], [c64(h, h), ZERO]]);
        assert!(sw.mul(&sw).approx_eq(&w, 1e-12), "{:?}", sw.mul(&sw));
    }

    #[test]
    fn cx_matrix_flips_target_when_control_set() {
        let m = GateKind::Cx.matrix2().unwrap();
        // |10> (control=1, target=0) -> |11>
        let v = m.mul_vec([ZERO, ZERO, ONE, ZERO]);
        assert_eq!(v[3], ONE);
    }

    #[test]
    fn gate_validation() {
        assert!(Gate::try_new(GateKind::Cx, &[1, 1]).is_err());
        assert!(Gate::try_new(GateKind::H, &[0, 1]).is_err());
        assert!(Gate::try_new(GateKind::Ccx, &[0, 1, 2]).is_ok());
        let g = Gate::new(GateKind::Cx, &[3, 7]);
        assert_eq!(g.qubits(), &[3, 7]);
    }

    #[test]
    fn u3_reduces_to_known_gates() {
        use std::f64::consts::PI;
        let h_via_u3 = GateKind::U3(PI / 2.0, 0.0, PI).matrix1().unwrap();
        let h = GateKind::H.matrix1().unwrap();
        assert!(h_via_u3.approx_eq(&h, 1e-12));
        let x_via_u3 = GateKind::U3(PI, 0.0, PI).matrix1().unwrap();
        assert!(x_via_u3.approx_eq(&Mat2::pauli_x(), 1e-12));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Gate::new(GateKind::Cx, &[0, 1]).to_string(), "cx q0,q1");
        assert_eq!(
            Gate::new(GateKind::Rz(0.5), &[2]).to_string(),
            "rz(0.5000) q2"
        );
    }

    #[test]
    fn diag1_matches_matrix_diagonal() {
        use GateKind::*;
        for k in [Id, Z, S, Sdg, T, Tdg, Rz(0.7), Phase(1.3)] {
            let d = k.diag1().expect("diagonal kind");
            let m = k.matrix1().unwrap();
            assert!((d[0] - m.0[0][0]).norm() < 1e-15, "{k:?}");
            assert!((d[1] - m.0[1][1]).norm() < 1e-15, "{k:?}");
            assert!(m.0[0][1].norm() < 1e-15 && m.0[1][0].norm() < 1e-15);
        }
        assert!(H.diag1().is_none());
        assert!(Cx.diag1().is_none());
    }

    #[test]
    fn diag2_matches_matrix_diagonal() {
        use GateKind::*;
        for k in [Cz, CPhase(0.4), Rzz(0.9)] {
            let d = k.diag2().expect("diagonal kind");
            let m = k.matrix2().unwrap();
            for (i, di) in d.iter().enumerate() {
                assert!((di - m.0[i][i]).norm() < 1e-15, "{k:?}");
            }
        }
        assert!(Swap.diag2().is_none());
        assert!(Z.diag2().is_none(), "1q kinds are not diag2");
    }
}
