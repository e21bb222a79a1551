//! The [`Circuit`] IR: an ordered gate list on a fixed-width qubit register.

use crate::gate::{Gate, GateError, GateKind};
use crate::math::{Mat2, Mat4};
use std::fmt;
use std::ops::Range;

/// An ordered list of gates on `n_qubits` qubits.
///
/// This is the exchange format between the circuit generators, the
/// state-vector/density-matrix engines, and the TQSim partitioner. Gates are
/// stored flat in program order; subcircuits are cheap index-range slices.
///
/// ```
/// use tqsim_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    n_qubits: u16,
    gates: Vec<Gate>,
}

/// Error produced when appending an invalid gate to a [`Circuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// The underlying gate placement was invalid.
    Gate(GateError),
    /// A gate references a qubit outside the register.
    QubitOutOfRange {
        /// Offending index.
        qubit: u16,
        /// Register width.
        width: u16,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Gate(e) => e.fmt(f),
            CircuitError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit q{qubit} out of range for {width}-qubit circuit")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

impl From<GateError> for CircuitError {
    fn from(e: GateError) -> Self {
        CircuitError::Gate(e)
    }
}

impl Circuit {
    /// An empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: u16) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Register width (number of qubits).
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterator over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Append a validated gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the gate is malformed or references a
    /// qubit `>= n_qubits`.
    pub fn try_push(&mut self, kind: GateKind, qubits: &[u16]) -> Result<(), CircuitError> {
        let gate = Gate::try_new(kind, qubits)?;
        if let Some(&q) = qubits.iter().find(|&&q| q >= self.n_qubits) {
            return Err(CircuitError::QubitOutOfRange {
                qubit: q,
                width: self.n_qubits,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Append a gate, panicking on invalid input.
    ///
    /// # Panics
    ///
    /// Panics under the conditions [`Circuit::try_push`] reports as errors.
    pub fn push(&mut self, kind: GateKind, qubits: &[u16]) -> &mut Self {
        self.try_push(kind, qubits).expect("invalid gate");
        self
    }

    /// Append every gate of `other` (which must have the same width or
    /// narrower).
    ///
    /// # Panics
    ///
    /// Panics if `other` is wider than `self`.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot append {}-qubit circuit onto {} qubits",
            other.n_qubits,
            self.n_qubits
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    /// A new circuit containing the gates in `range` (a *subcircuit*).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates[range].to_vec(),
        }
    }

    /// Number of gates acting on ≥ 2 qubits.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() >= 2).count()
    }

    /// Stable 64-bit content hash of the circuit: register width plus every
    /// gate's kind, parameters (exact IEEE-754 bits) and qubit placements,
    /// in program order.
    ///
    /// Structurally equal circuits — however they were built — fingerprint
    /// identically on every platform and across program runs (the hash is
    /// FNV-1a over a canonical encoding, never `DefaultHasher`), which is
    /// what lets a service-lifetime plan cache recognise a circuit it has
    /// compiled for an earlier request. Any content difference (gate order,
    /// an angle, a qubit index, the width) changes the fingerprint.
    ///
    /// ```
    /// use tqsim_circuit::generators;
    /// assert_eq!(
    ///     generators::qft(6).fingerprint(),
    ///     generators::qft(6).fingerprint()
    /// );
    /// assert_ne!(
    ///     generators::qft(6).fingerprint(),
    ///     generators::qft(7).fingerprint()
    /// );
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = crate::fingerprint::Fnv64::new();
        hasher.write_u16(self.n_qubits);
        hasher.write_u64(self.gates.len() as u64);
        for gate in &self.gates {
            gate.fingerprint_into(&mut hasher);
        }
        hasher.finish()
    }

    /// Circuit depth under greedy ASAP layering (gates on disjoint qubits
    /// share a layer).
    pub fn depth(&self) -> usize {
        let mut ready = vec![0usize; self.n_qubits as usize];
        let mut depth = 0;
        for g in &self.gates {
            let layer = g
                .qubits()
                .iter()
                .map(|&q| ready[q as usize])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in g.qubits() {
                ready[q as usize] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    // ---- fluent builder methods ------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::H, &[q])
    }
    /// Pauli X on `q`.
    pub fn x(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::X, &[q])
    }
    /// Pauli Y on `q`.
    pub fn y(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::Y, &[q])
    }
    /// Pauli Z on `q`.
    pub fn z(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::Z, &[q])
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::S, &[q])
    }
    /// S† on `q`.
    pub fn sdg(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::Sdg, &[q])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::T, &[q])
    }
    /// T† on `q`.
    pub fn tdg(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::Tdg, &[q])
    }
    /// √X on `q`.
    pub fn sx(&mut self, q: u16) -> &mut Self {
        self.push(GateKind::Sx, &[q])
    }
    /// X-rotation by `theta` on `q`.
    pub fn rx(&mut self, theta: f64, q: u16) -> &mut Self {
        self.push(GateKind::Rx(theta), &[q])
    }
    /// Y-rotation by `theta` on `q`.
    pub fn ry(&mut self, theta: f64, q: u16) -> &mut Self {
        self.push(GateKind::Ry(theta), &[q])
    }
    /// Z-rotation by `theta` on `q`.
    pub fn rz(&mut self, theta: f64, q: u16) -> &mut Self {
        self.push(GateKind::Rz(theta), &[q])
    }
    /// Phase gate diag(1, e^{iθ}) on `q`.
    pub fn p(&mut self, theta: f64, q: u16) -> &mut Self {
        self.push(GateKind::Phase(theta), &[q])
    }
    /// Generic U3 rotation on `q`.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: u16) -> &mut Self {
        self.push(GateKind::U3(theta, phi, lambda), &[q])
    }
    /// Arbitrary single-qubit unitary on `q` (caller guarantees unitarity).
    pub fn unitary1(&mut self, m: Mat2, q: u16) -> &mut Self {
        self.push(GateKind::Unitary1(m), &[q])
    }
    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: u16, t: u16) -> &mut Self {
        self.push(GateKind::Cx, &[c, t])
    }
    /// Controlled-Z between `a` and `b`.
    pub fn cz(&mut self, a: u16, b: u16) -> &mut Self {
        self.push(GateKind::Cz, &[a, b])
    }
    /// Controlled phase of angle `theta` between `c` and `t`.
    pub fn cp(&mut self, theta: f64, c: u16, t: u16) -> &mut Self {
        self.push(GateKind::CPhase(theta), &[c, t])
    }
    /// SWAP of `a` and `b`.
    pub fn swap(&mut self, a: u16, b: u16) -> &mut Self {
        self.push(GateKind::Swap, &[a, b])
    }
    /// ZZ interaction exp(-iθ/2 Z⊗Z) between `a` and `b`.
    pub fn rzz(&mut self, theta: f64, a: u16, b: u16) -> &mut Self {
        self.push(GateKind::Rzz(theta), &[a, b])
    }
    /// fSim(θ, φ) between `a` and `b`.
    pub fn fsim(&mut self, theta: f64, phi: f64, a: u16, b: u16) -> &mut Self {
        self.push(GateKind::FSim(theta, phi), &[a, b])
    }
    /// Arbitrary two-qubit unitary on `(a, b)` (caller guarantees unitarity).
    pub fn unitary2(&mut self, m: Mat4, a: u16, b: u16) -> &mut Self {
        self.push(GateKind::Unitary2(m), &[a, b])
    }
    /// Toffoli with controls `c1`, `c2` and target `t`.
    pub fn ccx(&mut self, c1: u16, c2: u16, t: u16) -> &mut Self {
        self.push(GateKind::Ccx, &[c1, c2, t])
    }

    // ---- common decompositions -------------------------------------------

    /// Controlled phase decomposed into the standard 5-gate
    /// `{P, CX}` sequence (used by the QFT/QPE generators so gate counts
    /// match hardware-level benchmark suites).
    pub fn cp_decomposed(&mut self, theta: f64, c: u16, t: u16) -> &mut Self {
        self.p(theta / 2.0, c)
            .cx(c, t)
            .p(-theta / 2.0, t)
            .cx(c, t)
            .p(theta / 2.0, t)
    }

    /// Toffoli decomposed into the textbook 15-gate `{H, T, T†, CX}` network.
    pub fn ccx_decomposed(&mut self, c1: u16, c2: u16, t: u16) -> &mut Self {
        self.h(t)
            .cx(c2, t)
            .tdg(t)
            .cx(c1, t)
            .t(t)
            .cx(c2, t)
            .tdg(t)
            .cx(c1, t)
            .t(c2)
            .t(t)
            .h(t)
            .cx(c1, c2)
            .t(c1)
            .tdg(c2)
            .cx(c1, c2)
    }

    /// Margolus (relative-phase) Toffoli: 7 gates, correct on computational
    /// basis states up to a relative phase — safe inside classical-arithmetic
    /// blocks that start from basis states.
    pub fn ccx_margolus(&mut self, c1: u16, c2: u16, t: u16) -> &mut Self {
        use std::f64::consts::FRAC_PI_4;
        self.ry(FRAC_PI_4, t)
            .cx(c2, t)
            .ry(FRAC_PI_4, t)
            .cx(c1, t)
            .ry(-FRAC_PI_4, t)
            .cx(c2, t)
            .ry(-FRAC_PI_4, t)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates]",
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_stats() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.5, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.two_qubit_count(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Circuit::new(2);
        assert!(matches!(
            c.try_push(GateKind::H, &[2]),
            Err(CircuitError::QubitOutOfRange { qubit: 2, width: 2 })
        ));
        assert!(matches!(
            c.try_push(GateKind::Cx, &[0, 0]),
            Err(CircuitError::Gate(_))
        ));
    }

    #[test]
    fn depth_layering() {
        let mut c = Circuit::new(4);
        // Layer 1: h0, h1; layer 2: cx(0,1); layers run independently on 2,3.
        c.h(0).h(1).cx(0, 1).h(2).h(3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn slicing_preserves_width() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).h(2);
        let s = c.slice(1..3);
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.gates()[0], c.gates()[1]);
    }

    #[test]
    fn append_checks_width() {
        let mut a = Circuit::new(3);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn append_rejects_wider() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.append(&b);
    }

    #[test]
    fn decomposition_gate_counts() {
        let mut c = Circuit::new(3);
        c.cp_decomposed(0.7, 0, 1);
        assert_eq!(c.len(), 5);
        let mut c = Circuit::new(3);
        c.ccx_decomposed(0, 1, 2);
        assert_eq!(c.len(), 15);
        let mut c = Circuit::new(3);
        c.ccx_margolus(0, 1, 2);
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn fingerprint_collides_for_structural_equality() {
        // Same content built through different code paths must collide.
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).rz(0.25, 2).cp(1.5, 1, 2);
        let mut b = Circuit::new(3);
        b.push(GateKind::H, &[0])
            .push(GateKind::Cx, &[0, 1])
            .push(GateKind::Rz(0.25), &[2])
            .push(GateKind::CPhase(1.5), &[1, 2]);
        assert_eq!(a, b, "precondition: structurally equal");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // And the hash is a pure content function: recomputing agrees.
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn fingerprint_separates_content_differences() {
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).rz(0.25, 2);
        let fp = base.fingerprint();

        // Different angle.
        let mut angle = Circuit::new(3);
        angle.h(0).cx(0, 1).rz(0.26, 2);
        assert_ne!(fp, angle.fingerprint());

        // Different qubit placement.
        let mut placement = Circuit::new(3);
        placement.h(0).cx(1, 0).rz(0.25, 2);
        assert_ne!(fp, placement.fingerprint());

        // Different gate order.
        let mut order = Circuit::new(3);
        order.cx(0, 1).h(0).rz(0.25, 2);
        assert_ne!(fp, order.fingerprint());

        // Different register width, same gates.
        let mut wider = Circuit::new(4);
        wider.h(0).cx(0, 1).rz(0.25, 2);
        assert_ne!(fp, wider.fingerprint());

        // Mnemonic concatenation cannot collide: s(0); x(0) vs sx-then-id
        // style adjacency is broken by length prefixes.
        let mut s_then_x = Circuit::new(1);
        s_then_x.s(0).x(0);
        let mut sx_then_id = Circuit::new(1);
        sx_then_id.sx(0).push(GateKind::Id, &[0]);
        assert_ne!(s_then_x.fingerprint(), sx_then_id.fingerprint());
    }

    #[test]
    fn fingerprint_covers_matrix_gates() {
        use crate::math::{c64, Mat2};
        let u = Mat2([
            [c64(0.0, 1.0), c64(0.0, 0.0)],
            [c64(0.0, 0.0), c64(1.0, 0.0)],
        ]);
        let v = Mat2([
            [c64(0.0, 1.0), c64(0.0, 0.0)],
            [c64(0.0, 0.0), c64(-1.0, 0.0)],
        ]);
        let mut a = Circuit::new(1);
        a.unitary1(u, 0);
        let mut a2 = Circuit::new(1);
        a2.unitary1(u, 0);
        let mut b = Circuit::new(1);
        b.unitary1(v, 0);
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0,q1"));
    }
}
