//! Compile-once / replay-many subcircuit plans with gate fusion.
//!
//! The reuse tree executes subcircuit `i` exactly `∏_{j≤i} A_j` times with
//! an **identical gate sequence** — only the stochastic noise draws differ.
//! This module extends the paper's computational-reuse thesis from *states*
//! to *plans*: a subcircuit is compiled once into a [`CompiledCircuit`] and
//! replayed at every tree node.
//!
//! Compilation classifies each gate ([`GateKind::diag1`]/[`GateKind::diag2`]
//! /dense) and greedily fuses:
//!
//! - adjacent single-qubit gates on the same qubit → one `Mat2` product;
//! - two disjoint single-qubit gates → one `Mat4` (a single quad sweep
//!   instead of two pair sweeps);
//! - single-qubit gates absorbed into a neighbouring two-qubit `Mat4` on a
//!   shared qubit;
//! - runs of diagonal gates (Z/S/T/Rz/Phase/CZ/CPhase/Rzz) → one
//!   [`DiagRun`] applied in a **single indexed sweep** however long the run;
//! - a diagonal into a dense op on its qubits, from either side: after the
//!   op it scales the pending matrix's rows; before it, the pending run's
//!   terms on the incoming op's qubits scale its columns and the rest of
//!   the run (disjoint from the op, so commuting with it) stays pending. A
//!   pending two-qubit term with one qubit in the op and one outside still
//!   forces a flush.
//!
//! Noise sites become [`PlanOp::Noise`] markers that preserve the exact
//! per-gate RNG draw order of unfused execution. At replay time the same
//! [`Fuser`] runs *dynamically* with **noise-adaptive flush**: at each noise
//! marker the Kraus branch is sampled *first* (see
//! `tqsim_noise::NoiseModel::apply_after_gate_deferred`), and when the
//! sampled branch is the identity — the overwhelming case at ~0.1 % error
//! rates — fusion simply continues across the noise point. Only a fired
//! branch whose sampling needs the state forces the pending buffer to
//! materialise ([`FlushCtx::flush`]); fired Paulis are themselves fed back
//! into the fuser ([`FlushCtx::push_branch_gate`]).
//!
//! Invariants:
//!
//! - the RNG stream is **bit-identical** to unfused execution (branches are
//!   sampled in the same order with the same draws), so trajectory
//!   structure and `Counts` match the unfused executor;
//! - amplitudes match unfused execution to floating-point reordering
//!   (~1e-13): a fused product `(B·A)|ψ⟩` rounds differently from
//!   `B(A|ψ⟩)`. An unfused gate reaches the kernel as its own matrix (or
//!   one-term diagonal run, or Toffoli) — exactly what
//!   [`QuantumState::apply_gate`] applies — and the kernel picks the body
//!   by matrix, so when no fusion opportunity fires amplitudes are
//!   bit-identical too.

use crate::kernels;
use crate::ops::OpCounts;
use crate::traits::QuantumState;
use tqsim_circuit::math::{Mat2, Mat4, C64};
use tqsim_circuit::{Circuit, Gate, GateKind};

/// A run of diagonal operators collapsed into one indexed sweep.
///
/// Diagonal operators all commute, so a run is fully described by one
/// per-qubit entry pair and one entry quadruple per touched qubit pair —
/// applying the run is a single pass over the amplitudes regardless of how
/// many source gates it absorbs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiagRun {
    /// Per-qubit diagonal `[d0, d1]`, merged across all 1q terms.
    terms1: Vec<(u16, [C64; 2])>,
    /// Per-pair diagonal `[d00, d01, d10, d11]` with the first listed qubit
    /// as the more significant index bit.
    terms2: Vec<(u16, u16, [C64; 4])>,
}

impl DiagRun {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the run holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms1.is_empty() && self.terms2.is_empty()
    }

    /// The merged single-qubit terms `(q, [d0, d1])`, in absorption order —
    /// exposed so wire transports (`tqsim-shard`) can serialize a run and
    /// rebuild it bit-identically with [`DiagRun::push1`].
    pub fn terms1(&self) -> &[(u16, [C64; 2])] {
        &self.terms1
    }

    /// The merged two-qubit terms `(q_hi, q_lo, [d00, d01, d10, d11])`, in
    /// absorption order (see [`DiagRun::terms1`]).
    pub fn terms2(&self) -> &[(u16, u16, [C64; 4])] {
        &self.terms2
    }

    /// Number of merged terms (≤ number of absorbed gates).
    pub fn terms(&self) -> usize {
        self.terms1.len() + self.terms2.len()
    }

    /// Absorb a single-qubit diagonal on `q` (applied after the run, which
    /// for diagonals is an elementwise product).
    pub fn push1(&mut self, q: u16, d: [C64; 2]) {
        match self.terms1.iter_mut().find(|(tq, _)| *tq == q) {
            Some((_, existing)) => {
                existing[0] *= d[0];
                existing[1] *= d[1];
            }
            None => self.terms1.push((q, d)),
        }
    }

    /// Absorb a two-qubit diagonal on `(q_hi, q_lo)`.
    pub fn push2(&mut self, q_hi: u16, q_lo: u16, d: [C64; 4]) {
        for (a, b, existing) in self.terms2.iter_mut() {
            if (*a, *b) == (q_hi, q_lo) {
                for (e, x) in existing.iter_mut().zip(d) {
                    *e *= x;
                }
                return;
            }
            if (*a, *b) == (q_lo, q_hi) {
                // Same pair, opposite slot order: permute the middle entries.
                let swapped = [d[0], d[2], d[1], d[3]];
                for (e, x) in existing.iter_mut().zip(swapped) {
                    *e *= x;
                }
                return;
            }
        }
        self.terms2.push((q_hi, q_lo, d));
    }

    /// Merge another run into this one (program order: `other` after
    /// `self`; immaterial for diagonals, which commute).
    pub fn merge(&mut self, other: &DiagRun) {
        for &(q, d) in &other.terms1 {
            self.push1(q, d);
        }
        for &(a, b, d) in &other.terms2 {
            self.push2(a, b, d);
        }
    }

    /// The distinct qubits the run touches.
    fn support(&self) -> Vec<u16> {
        let mut qs: Vec<u16> = Vec::new();
        let mut add = |q: u16| {
            if !qs.contains(&q) {
                qs.push(q);
            }
        };
        for &(q, _) in &self.terms1 {
            add(q);
        }
        for &(a, b, _) in &self.terms2 {
            add(a);
            add(b);
        }
        qs
    }

    /// Whether every term's qubits lie within `qs`.
    fn support_within(&self, qs: &[u16]) -> bool {
        self.terms1.iter().all(|(q, _)| qs.contains(q))
            && self
                .terms2
                .iter()
                .all(|(a, b, _)| qs.contains(a) && qs.contains(b))
    }

    /// Remove and return the terms that touch `qs`, provided every one of
    /// them lies within `qs`; `None`, leaving the run as it is, when a
    /// two-qubit term has one qubit in `qs` and one outside.
    fn take_within(&mut self, qs: &[u16]) -> Option<DiagRun> {
        let inside = |q: &u16| qs.contains(q);
        if self.terms2.iter().any(|(a, b, _)| inside(a) != inside(b)) {
            return None;
        }
        // In place: a push that takes nothing allocates nothing.
        let mut taken = DiagRun::new();
        self.terms1.retain(|&term| {
            let keep = !inside(&term.0);
            if !keep {
                taken.terms1.push(term);
            }
            keep
        });
        self.terms2.retain(|&term| {
            let keep = !inside(&term.0);
            if !keep {
                taken.terms2.push(term);
            }
            keep
        });
        Some(taken)
    }

    /// The run as a diagonal `[d0, d1]` on qubit `q` (support must be `{q}`).
    fn as_diag1(&self, q: u16) -> [C64; 2] {
        debug_assert!(self.terms2.is_empty() && self.support_within(&[q]));
        let mut d = [C64::new(1.0, 0.0); 2];
        for &(_, t) in &self.terms1 {
            d[0] *= t[0];
            d[1] *= t[1];
        }
        d
    }

    /// The run as a diagonal quadruple in the `(q_hi, q_lo)` frame
    /// (support must lie within the pair).
    fn as_diag2(&self, q_hi: u16, q_lo: u16) -> [C64; 4] {
        debug_assert!(self.support_within(&[q_hi, q_lo]));
        let mut e = [C64::new(1.0, 0.0); 4];
        for &(q, d) in &self.terms1 {
            for (idx, entry) in e.iter_mut().enumerate() {
                let bit = if q == q_hi { idx >> 1 } else { idx & 1 };
                *entry *= d[bit];
            }
        }
        for &(a, b, d) in &self.terms2 {
            let aligned = if (a, b) == (q_hi, q_lo) {
                d
            } else {
                [d[0], d[2], d[1], d[3]]
            };
            for (entry, x) in e.iter_mut().zip(aligned) {
                *entry *= x;
            }
        }
        e
    }

    /// Apply the run to an amplitude slice in one sweep.
    pub fn apply(&self, amps: &mut [C64]) {
        self.apply_offset(amps, 0);
    }

    /// The run's factor for the amplitude at *global* index `g`: the
    /// product of its terms in absorption order, starting from one.
    #[inline]
    fn factor(&self, g: usize) -> C64 {
        let mut f = C64::new(1.0, 0.0);
        for &(q, d) in &self.terms1 {
            f *= d[(g >> q) & 1];
        }
        for &(a, b, d) in &self.terms2 {
            f *= d[(((g >> a) & 1) << 1) | ((g >> b) & 1)];
        }
        f
    }

    /// Apply the run to an amplitude slice whose first element has *global*
    /// index `base` (a distributed node slice; `base` must be a multiple of
    /// the slice length). Qubits whose stride fits inside the slice index
    /// the sweep, while higher ("global") qubits read constant bits from
    /// `base`, so the sweep stays node-local: **diagonal runs never
    /// communicate**, however the qubits are sliced. Each amplitude is
    /// multiplied by the same factor, computed in the same order, as under
    /// [`DiagRun::apply`] on the full array.
    pub fn apply_offset(&self, amps: &mut [C64], base: usize) {
        let len = amps.len();
        debug_assert!(base.is_multiple_of(len), "offset must be slice-aligned");
        let local = |q: u16| 1usize << q < len;
        let bit = |q: u16| (base >> q) & 1;
        match (self.terms1.as_slice(), self.terms2.as_slice()) {
            ([], []) => {}
            // Single-term runs multiply by the term's own entries (never by
            // `1·d`), so an unfused diagonal gate stays bit-identical to
            // direct dispatch. A global qubit picks its entries from `base`.
            (&[(q, d)], []) => {
                if local(q) {
                    kernels::apply_diag1(amps, q as usize, d[0], d[1]);
                } else {
                    kernels::apply_diag_table(amps, &[], &[d[bit(q)]]);
                }
            }
            ([], &[(a, b, d)]) => match (local(a), local(b)) {
                (true, true) => kernels::apply_diag2(amps, a as usize, b as usize, d),
                (true, false) => kernels::apply_diag1(amps, a as usize, d[bit(b)], d[2 | bit(b)]),
                (false, true) => {
                    let row = bit(a) << 1;
                    kernels::apply_diag1(amps, b as usize, d[row], d[row | 1]);
                }
                (false, false) => {
                    kernels::apply_diag_table(amps, &[], &[d[(bit(a) << 1) | bit(b)]]);
                }
            },
            // Several terms: one factor per assignment of the slice-local
            // support qubits, built once per call, then one blockwise
            // `amp *= table[…]` pass. When the support is as wide as the
            // slice there is no sharing to exploit and each amplitude
            // computes its own factor.
            _ => {
                let mut support: Vec<usize> = self
                    .support()
                    .into_iter()
                    .filter(|&q| local(q))
                    .map(usize::from)
                    .collect();
                support.sort_unstable();
                if 1usize << support.len() >= len {
                    kernels::for_each_span(amps, |offset, span| {
                        for (i, amp) in span.iter_mut().enumerate() {
                            *amp *= self.factor(base | (offset + i));
                        }
                    });
                    return;
                }
                let table: Vec<C64> = (0..1usize << support.len())
                    .map(|entry| {
                        let g = support
                            .iter()
                            .enumerate()
                            .fold(base, |g, (k, &q)| g | (((entry >> k) & 1) << q));
                        self.factor(g)
                    })
                    .collect();
                kernels::apply_diag_table(amps, &support, &table);
            }
        }
    }
}

/// A fused executable operation — the currency of plans and of the
/// [`Fuser`]'s input/output streams, and the only form in which a gate
/// reaches a [`QuantumState`] backend: a matrix, a diagonal run or a
/// Toffoli, never a [`Gate`]. A lone gate's matrix is the gate's own, and
/// the kernels pick a cheaper body for an exact X, Y, H, CX or SWAP.
///
/// The `Mat4` variant dominates the size (256 bytes inline); keeping it
/// unboxed is deliberate — ops are constructed on the replay hot path,
/// where a per-emit heap allocation would cost more than the copy.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedOp {
    /// Dense single-qubit unitary.
    Unitary1 {
        /// Target qubit.
        q: u16,
        /// The (possibly product-of-many) matrix.
        m: Mat2,
    },
    /// Dense two-qubit unitary; `q_hi` indexes the more significant matrix
    /// bit.
    Unitary2 {
        /// More significant qubit.
        q_hi: u16,
        /// Less significant qubit.
        q_lo: u16,
        /// The (possibly product-of-many) matrix.
        m: Mat4,
    },
    /// A coalesced diagonal run (one sweep).
    FusedDiag(DiagRun),
    /// A Toffoli: flip `t` where `c1` and `c2` both read 1. It has no 1q/2q
    /// matrix form, so it is applied by its own kernel and never fused.
    Ccx {
        /// First control.
        c1: u16,
        /// Second control.
        c2: u16,
        /// Target.
        t: u16,
    },
}

/// Classify a gate into its fusible form. `None` for the identity, which
/// needs no pass at all (its noise site, if any, is still emitted by the
/// compiler).
pub fn classify(gate: &Gate) -> Option<FusedOp> {
    let qs = gate.qubits();
    if matches!(gate.kind(), GateKind::Id) {
        return None;
    }
    if let Some(d) = gate.kind().diag1() {
        let mut run = DiagRun::new();
        run.push1(qs[0], d);
        return Some(FusedOp::FusedDiag(run));
    }
    if let Some(d) = gate.kind().diag2() {
        let mut run = DiagRun::new();
        run.push2(qs[0], qs[1], d);
        return Some(FusedOp::FusedDiag(run));
    }
    match gate.arity() {
        1 => Some(FusedOp::Unitary1 {
            q: qs[0],
            m: gate.kind().matrix1().expect("1q kind has a matrix"),
        }),
        2 => Some(FusedOp::Unitary2 {
            q_hi: qs[0],
            q_lo: qs[1],
            m: gate.kind().matrix2().expect("2q kind has a matrix"),
        }),
        // The Toffoli is the only three-qubit kind.
        _ => Some(FusedOp::Ccx {
            c1: qs[0],
            c2: qs[1],
            t: qs[2],
        }),
    }
}

/// The pending dense operation of a [`Fuser`]. `noise_only` tracks
/// whether the slot holds nothing but fired noise-branch Paulis; such
/// sweeps are noise work (the unfused path accounts them under
/// `noise_ops`, never `amp_passes`), so the emit sink is told to skip the
/// pass charge — keeping fused and unfused `amp_passes` comparable.
#[derive(Clone, Debug)]
enum Dense {
    One {
        q: u16,
        m: Mat2,
        noise_only: bool,
    },
    Two {
        q_hi: u16,
        q_lo: u16,
        m: Mat4,
        noise_only: bool,
    },
}

impl Dense {
    fn noise_only(&self) -> bool {
        match self {
            Dense::One { noise_only, .. } | Dense::Two { noise_only, .. } => *noise_only,
        }
    }
}

/// Greedy gate-fusion buffer, used both statically (by
/// [`CompiledCircuit::compile`], emitting plan ops) and dynamically (by
/// [`CompiledCircuit::replay`], emitting sweeps on a live state).
///
/// Pending state is at most one dense 1q/2q operation plus one diagonal
/// run, with the invariant that the dense op precedes the run in program
/// order (safe because a dense push first absorbs the run's terms on its
/// qubits, or flushes when a term straddles them).
///
/// The emit sink receives `(op, noise_only)`; `noise_only` is true when
/// the emitted operation consists purely of fired noise-branch Paulis,
/// whose sweeps the unfused path accounts as noise work, not as
/// amplitude passes.
#[derive(Clone, Debug, Default)]
pub struct Fuser {
    dense: Option<Dense>,
    diag: DiagRun,
    /// Whether every term in `diag` came from a noise branch (meaningful
    /// only while `diag` is non-empty).
    diag_noise_only: bool,
}

impl Fuser {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.dense.is_none() && self.diag.is_empty()
    }

    /// Feed one circuit operation; emits any operations that must
    /// materialise to preserve ordering. Returns how many operations this
    /// push relieved of a sweep of their own: 1 when the op merged into
    /// pending state, plus 1 when it absorbed the whole pending diagonal
    /// run (whose first op had been counted as a sweep). So over a stream,
    /// operations pushed = operations emitted + the sum of the returns.
    pub fn push(&mut self, op: &FusedOp, emit: &mut impl FnMut(&FusedOp, bool)) -> u64 {
        self.push_from(op, false, emit)
    }

    /// Feed a fired noise-branch operation (not charged to `amp_passes`
    /// unless a circuit gate later joins the same pending slot).
    pub fn push_noise(&mut self, op: &FusedOp, emit: &mut impl FnMut(&FusedOp, bool)) -> u64 {
        self.push_from(op, true, emit)
    }

    fn push_from(
        &mut self,
        op: &FusedOp,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> u64 {
        match op {
            FusedOp::FusedDiag(run) => {
                // A diagonal inside the pending dense op's support folds
                // straight into its matrix (valid because the pending diag
                // run — if any — commutes with the incoming diagonal).
                match &mut self.dense {
                    Some(Dense::One { q, m, noise_only }) if run.support_within(&[*q]) => {
                        let d = run.as_diag1(*q);
                        *m = Mat2([
                            [d[0] * m.0[0][0], d[0] * m.0[0][1]],
                            [d[1] * m.0[1][0], d[1] * m.0[1][1]],
                        ]);
                        *noise_only &= from_noise;
                        return 1;
                    }
                    Some(Dense::Two {
                        q_hi,
                        q_lo,
                        m,
                        noise_only,
                    }) if run.support_within(&[*q_hi, *q_lo]) => {
                        let e = run.as_diag2(*q_hi, *q_lo);
                        for (r, row) in m.0.iter_mut().enumerate() {
                            for cell in row.iter_mut() {
                                *cell *= e[r];
                            }
                        }
                        *noise_only &= from_noise;
                        return 1;
                    }
                    _ => {}
                }
                // Otherwise it rides the accumulator, which sits after the
                // dense op and commutes with every other diagonal — a
                // diagonal never forces a flush.
                let joined = !self.diag.is_empty();
                self.diag_noise_only = if joined {
                    self.diag_noise_only && from_noise
                } else {
                    from_noise
                };
                self.diag.merge(run);
                u64::from(joined)
            }
            FusedOp::Unitary1 { q, m } => self.push_dense1(*q, m, from_noise, emit),
            FusedOp::Unitary2 { q_hi, q_lo, m } => {
                self.push_dense2(*q_hi, *q_lo, m, from_noise, emit)
            }
            FusedOp::Ccx { .. } => {
                self.flush(emit);
                emit(op, from_noise);
                0
            }
        }
    }

    /// The pending diagonal terms on the incoming dense op's qubits `qs`,
    /// removed from the run so the op can absorb them — they apply before
    /// it, and the terms left behind are disjoint from `qs`, so they
    /// commute with it and stay pending. A term with one qubit in `qs` and
    /// one outside cannot be absorbed: everything pending is flushed
    /// instead. `None` when nothing is left to absorb.
    fn take_pending_diag(
        &mut self,
        qs: &[u16],
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> Option<DiagRun> {
        match self.diag.take_within(qs) {
            None => {
                self.flush(emit);
                None
            }
            Some(run) => (!run.is_empty()).then_some(run),
        }
    }

    fn push_dense1(
        &mut self,
        q: u16,
        m: &Mat2,
        mut from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> u64 {
        let mut m = *m;
        let mut absorbed = 0;
        if let Some(run) = self.take_pending_diag(&[q], emit) {
            // `m · diag(d)`: the diagonal scales the matrix's columns.
            let d = run.as_diag1(q);
            for row in &mut m.0 {
                for (cell, x) in row.iter_mut().zip(d) {
                    *cell *= x;
                }
            }
            from_noise &= self.diag_noise_only;
            absorbed = u64::from(self.diag.is_empty());
        }
        let m = &m;
        let merged = match self.dense.take() {
            None => {
                self.dense = Some(Dense::One {
                    q,
                    m: *m,
                    noise_only: from_noise,
                });
                false
            }
            Some(Dense::One {
                q: pq,
                m: pm,
                noise_only,
                ..
            }) if pq == q => {
                self.dense = Some(Dense::One {
                    q,
                    m: m.mul(&pm),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::One {
                q: pq,
                m: pm,
                noise_only,
                ..
            }) => {
                // Disjoint 1q pair: one quad sweep beats two pair sweeps.
                self.dense = Some(Dense::Two {
                    q_hi: pq,
                    q_lo: q,
                    m: pm.kron(m),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::Two {
                q_hi,
                q_lo,
                m: pm,
                noise_only,
                ..
            }) if q == q_hi || q == q_lo => {
                let id = Mat2::identity();
                let expanded = if q == q_hi { m.kron(&id) } else { id.kron(m) };
                self.dense = Some(Dense::Two {
                    q_hi,
                    q_lo,
                    m: expanded.mul(&pm),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(disjoint) => {
                // A 2q op this gate shares no qubit with: it materialises
                // and the gate takes the slot.
                Self::emit_dense(&disjoint, emit);
                self.dense = Some(Dense::One {
                    q,
                    m: *m,
                    noise_only: from_noise,
                });
                false
            }
        };
        absorbed + u64::from(merged)
    }

    fn push_dense2(
        &mut self,
        qa: u16,
        qb: u16,
        m: &Mat4,
        mut from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> u64 {
        let mut m = *m;
        let mut absorbed = 0;
        if let Some(run) = self.take_pending_diag(&[qa, qb], emit) {
            let e = run.as_diag2(qa, qb);
            for row in &mut m.0 {
                for (cell, x) in row.iter_mut().zip(e) {
                    *cell *= x;
                }
            }
            from_noise &= self.diag_noise_only;
            absorbed = u64::from(self.diag.is_empty());
        }
        let m = &m;
        let merged = match self.dense.take() {
            None => {
                self.dense = Some(Dense::Two {
                    q_hi: qa,
                    q_lo: qb,
                    m: *m,
                    noise_only: from_noise,
                });
                false
            }
            Some(Dense::One {
                q: pq,
                m: pm,
                noise_only,
                ..
            }) if pq == qa || pq == qb => {
                let id = Mat2::identity();
                let expanded = if pq == qa { pm.kron(&id) } else { id.kron(&pm) };
                self.dense = Some(Dense::Two {
                    q_hi: qa,
                    q_lo: qb,
                    m: m.mul(&expanded),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::Two {
                q_hi,
                q_lo,
                m: pm,
                noise_only,
                ..
            }) if (q_hi, q_lo) == (qa, qb) || (q_hi, q_lo) == (qb, qa) => {
                let aligned = if (q_hi, q_lo) == (qa, qb) {
                    *m
                } else {
                    m.swapped_qubits()
                };
                self.dense = Some(Dense::Two {
                    q_hi,
                    q_lo,
                    m: aligned.mul(&pm),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(other) => {
                // No 4×4 holds both (a disjoint op, or two 2q ops sharing
                // one qubit): the pending op materialises and this gate
                // takes the slot.
                Self::emit_dense(&other, emit);
                self.dense = Some(Dense::Two {
                    q_hi: qa,
                    q_lo: qb,
                    m: *m,
                    noise_only: from_noise,
                });
                false
            }
        };
        absorbed + u64::from(merged)
    }

    /// Number of amplitude passes the pending state would cost if flushed
    /// now (0–2: at most one dense op plus one diagonal run). Consumed by
    /// plan-aware DCP's prefix cost estimator.
    pub fn pending_passes(&self) -> u64 {
        u64::from(self.dense.is_some()) + u64::from(!self.diag.is_empty())
    }

    /// Emit everything pending (dense op first, then the diagonal run).
    pub fn flush(&mut self, emit: &mut impl FnMut(&FusedOp, bool)) {
        if let Some(dense) = self.dense.take() {
            Self::emit_dense(&dense, emit);
        }
        if !self.diag.is_empty() {
            let run = std::mem::take(&mut self.diag);
            emit(&FusedOp::FusedDiag(run), self.diag_noise_only);
        }
    }

    fn emit_dense(dense: &Dense, emit: &mut impl FnMut(&FusedOp, bool)) {
        let noise_only = dense.noise_only();
        match dense {
            Dense::One { q, m, .. } => emit(&FusedOp::Unitary1 { q: *q, m: *m }, noise_only),
            Dense::Two { q_hi, q_lo, m, .. } => emit(
                &FusedOp::Unitary2 {
                    q_hi: *q_hi,
                    q_lo: *q_lo,
                    m: *m,
                },
                noise_only,
            ),
        }
    }
}

/// Apply one fused operation without touching any counter — the replay
/// sinks charge `amp_passes` themselves so that noise-only sweeps (fired
/// Kraus branches, accounted under `noise_ops` like the unfused path)
/// don't inflate the gate-pass metric. [`QuantumState::apply_gate`] applies
/// a lone gate through here too.
pub(crate) fn apply_fused_op_raw<S: QuantumState + ?Sized>(sv: &mut S, op: &FusedOp) {
    match *op {
        FusedOp::Unitary1 { q, ref m } => sv.apply_mat2(q, m),
        FusedOp::Unitary2 { q_hi, q_lo, ref m } => sv.apply_mat4(q_hi, q_lo, m),
        FusedOp::FusedDiag(ref run) => sv.apply_diag_run(run),
        FusedOp::Ccx { c1, c2, t } => sv.apply_ccx(c1, c2, t),
    }
}

/// One instruction of a compiled plan.
#[allow(clippy::large_enum_variant)] // see [`FusedOp`]
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// Apply (or buffer, at replay time) a fused operation.
    Gate(FusedOp),
    /// Stochastic-noise site of the given source gate: the replay hook
    /// samples the Kraus branch here, in exactly the order unfused
    /// execution would.
    Noise(Gate),
}

/// A subcircuit compiled for replay: statically fused ops interleaved with
/// noise markers, plus the source-gate tallies replay charges wholesale.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    plan: Vec<PlanOp>,
    /// Source gates by arity (1q, 2q, 3q) — includes identities, mirroring
    /// the unfused executors' accounting.
    src_gates: [u64; 3],
    /// Gates absorbed by *static* fusion (merged at compile time).
    static_fused: u64,
    n_qubits: u16,
}

/// Mutable view handed to the noise hook at a [`PlanOp::Noise`] marker; the
/// entry point of the **noise-adaptive flush**. Generic over the replay
/// backend: the same hook drives single-node and distributed states.
pub struct FlushCtx<'a, S: QuantumState + ?Sized> {
    sv: &'a mut S,
    fuser: &'a mut Fuser,
    ops: &'a mut OpCounts,
}

impl<S: QuantumState + ?Sized> FlushCtx<'_, S> {
    /// Materialise all pending fused operations and return the now-current
    /// state. Idempotent; required before any state-dependent branch
    /// sampling (damping-style channels) or direct Kraus application.
    pub fn flush(&mut self) -> &mut S {
        let sv = &mut *self.sv;
        let ops = &mut *self.ops;
        self.fuser.flush(&mut apply_sink(sv, ops));
        self.sv
    }

    /// Feed a fired noise-branch gate (a Pauli) into the fusion buffer
    /// instead of applying it immediately — fusion continues across fired
    /// state-independent branches too. The branch's own sweep (if it never
    /// merges with a circuit gate) is noise work and is not charged to
    /// [`OpCounts::amp_passes`], matching the unfused path's accounting.
    pub fn push_branch_gate(&mut self, gate: &Gate) {
        if let Some(op) = classify(gate) {
            let sv = &mut *self.sv;
            let ops = &mut *self.ops;
            let merged = self.fuser.push_noise(&op, &mut apply_sink(sv, ops));
            self.ops.fused_gates += merged;
        }
    }
}

/// The standard replay emit sink: apply the op and charge one amplitude
/// pass unless the sweep is purely fired-noise work.
fn apply_sink<'s, S: QuantumState + ?Sized>(
    sv: &'s mut S,
    ops: &'s mut OpCounts,
) -> impl FnMut(&FusedOp, bool) + 's {
    move |op, noise_only| {
        if !noise_only {
            ops.amp_passes += 1;
        }
        apply_fused_op_raw(sv, op);
    }
}

impl CompiledCircuit {
    /// Compile `circuit`, placing a noise marker after every gate for which
    /// `noise_site` returns true (`tqsim_noise::NoiseModel::compile` wires
    /// this to the model's channel bindings). Static fusion never crosses a
    /// noise marker; the replay-time fuser re-fuses across markers whose
    /// sampled branch is the identity.
    pub fn compile(circuit: &Circuit, mut noise_site: impl FnMut(&Gate) -> bool) -> Self {
        let mut plan: Vec<PlanOp> = Vec::new();
        let mut fuser = Fuser::new();
        let mut src_gates = [0u64; 3];
        let mut static_fused = 0u64;
        for gate in circuit {
            src_gates[gate.arity() - 1] += 1;
            if let Some(op) = classify(gate) {
                static_fused += fuser.push(&op, &mut |o: &FusedOp, _| {
                    plan.push(PlanOp::Gate(o.clone()))
                });
            }
            if noise_site(gate) {
                fuser.flush(&mut |o: &FusedOp, _| plan.push(PlanOp::Gate(o.clone())));
                plan.push(PlanOp::Noise(*gate));
            }
        }
        fuser.flush(&mut |o: &FusedOp, _| plan.push(PlanOp::Gate(o.clone())));
        CompiledCircuit {
            plan,
            src_gates,
            static_fused,
            n_qubits: circuit.n_qubits(),
        }
    }

    /// Register width the plan was compiled for.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Gates absorbed by static (compile-time) fusion.
    pub fn static_fused(&self) -> u64 {
        self.static_fused
    }

    /// Number of noise markers in the plan.
    pub fn noise_points(&self) -> usize {
        self.plan
            .iter()
            .filter(|op| matches!(op, PlanOp::Noise(_)))
            .count()
    }

    /// Replay the plan onto any [`QuantumState`] backend `sv`, invoking
    /// `on_noise` at every noise marker with the source gate and a
    /// [`FlushCtx`]; the hook returns the number of noise-operator
    /// applications it performed (accounted under [`OpCounts::noise_ops`]).
    /// Gate tallies are charged from the compiled source counts,
    /// identically to unfused execution; `amp_passes` and `fused_gates`
    /// record what the fused sweep actually did. Pending ops are fully
    /// materialised before returning.
    ///
    /// The replay path is **backend-generic**: the single-node
    /// [`crate::StateVector`] and `tqsim-cluster`'s distributed state drive
    /// this same code, and because the dynamic [`Fuser`] is state-agnostic
    /// the emitted sweep sequence — and therefore `amp_passes` — is
    /// identical on every backend.
    ///
    /// # Panics
    ///
    /// Panics if `sv` is narrower than the compiled circuit.
    pub fn replay<S, F>(&self, sv: &mut S, ops: &mut OpCounts, mut on_noise: F)
    where
        S: QuantumState + ?Sized,
        F: FnMut(&Gate, &mut FlushCtx<'_, S>) -> u64,
    {
        assert!(
            self.n_qubits <= sv.n_qubits(),
            "{}-qubit plan on {}-qubit state",
            self.n_qubits,
            sv.n_qubits()
        );
        let mut fuser = Fuser::new();
        for op in &self.plan {
            match op {
                PlanOp::Gate(fop) => {
                    let merged = {
                        let sv = &mut *sv;
                        let ops = &mut *ops;
                        fuser.push(fop, &mut apply_sink(sv, ops))
                    };
                    ops.fused_gates += merged;
                }
                PlanOp::Noise(gate) => {
                    let mut ctx = FlushCtx {
                        sv,
                        fuser: &mut fuser,
                        ops,
                    };
                    let noise_ops = on_noise(gate, &mut ctx);
                    ops.noise_ops += noise_ops;
                }
            }
        }
        {
            let sv = &mut *sv;
            let ops = &mut *ops;
            fuser.flush(&mut apply_sink(sv, ops));
        }
        ops.gates_1q += self.src_gates[0];
        ops.gates_2q += self.src_gates[1];
        ops.gates_3q += self.src_gates[2];
        ops.fused_gates += self.static_fused;
    }

    /// Replay with no noise hook (ideal-model plans, or tests).
    pub fn replay_ideal<S: QuantumState + ?Sized>(&self, sv: &mut S, ops: &mut OpCounts) {
        self.replay(sv, ops, |_, _| 0);
    }

    /// Estimated amplitude passes of one replay assuming every noise marker
    /// samples the identity branch — the overwhelming case at realistic
    /// error rates, and exact for ideal-model plans. Computed by streaming
    /// the plan through a fresh dynamic [`Fuser`] (markers skipped) and
    /// counting emitted sweeps, so it reflects the noise-adaptive flush's
    /// re-fusion across markers. O(plan length), no state touched.
    ///
    /// This is the cost DCP's plan-aware mode charges a candidate
    /// subcircuit instead of its source gate count.
    pub fn amp_pass_estimate(&self) -> u64 {
        let mut fuser = Fuser::new();
        let mut passes = 0u64;
        let mut count = |_: &FusedOp, noise_only: bool| {
            if !noise_only {
                passes += 1;
            }
        };
        for op in &self.plan {
            if let PlanOp::Gate(fop) = op {
                fuser.push(fop, &mut count);
            }
        }
        fuser.flush(&mut count);
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use tqsim_circuit::c64;

    fn apply_both(c: &Circuit) -> (StateVector, StateVector, OpCounts) {
        let mut reference = StateVector::zero(c.n_qubits());
        reference.apply_circuit(c);
        let compiled = CompiledCircuit::compile(c, |_| false);
        let mut fused = StateVector::zero(c.n_qubits());
        let mut ops = OpCounts::new();
        compiled.replay_ideal(&mut fused, &mut ops);
        (reference, fused, ops)
    }

    /// `c` per gate and as a fused replay, both from the state `prep`
    /// leaves (prepared per gate, outside the counters).
    fn apply_both_from(prep: &Circuit, c: &Circuit) -> (StateVector, StateVector, OpCounts) {
        let mut reference = StateVector::zero(c.n_qubits());
        reference.apply_circuit(prep);
        let mut fused = reference.clone();
        reference.apply_circuit(c);
        let mut ops = OpCounts::new();
        CompiledCircuit::compile(c, |_| false).replay_ideal(&mut fused, &mut ops);
        (reference, fused, ops)
    }

    fn assert_close(a: &StateVector, b: &StateVector, tol: f64) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!((x - y).norm() < tol, "amp {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn diag_run_collapses_to_one_pass() {
        let mut c = Circuit::new(4);
        c.t(0).s(1).rz(0.3, 2).cz(0, 1).cp(0.7, 2, 3).rzz(0.2, 0, 2);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1, "whole diagonal run in one sweep");
        assert_eq!(ops.fused_gates, 5);
        assert_eq!(ops.total_gates(), 6);
    }

    #[test]
    fn same_qubit_1q_run_becomes_one_mat2() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).sx(0).ry(0.4, 0);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
        assert_eq!(ops.fused_gates, 3);
    }

    #[test]
    fn disjoint_1q_pair_promotes_to_mat4() {
        let mut c = Circuit::new(3);
        c.h(0).h(2);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1, "two pair sweeps became one quad sweep");
    }

    #[test]
    fn one_qubit_gates_absorb_into_two_qubit_neighbours() {
        let mut c = Circuit::new(3);
        // h(1) then cx(1,2) then sx(2): all three share qubits pairwise
        // with the CX, so the whole block is one Mat4.
        c.h(1).cx(1, 2).sx(2);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
        assert_eq!(ops.fused_gates, 2);
    }

    #[test]
    fn two_qubit_pair_fuses_in_either_slot_order() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).fsim(0.3, 0.5, 1, 0).cx(0, 1);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
    }

    #[test]
    fn overlapping_two_qubit_ops_do_not_fuse() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 2, "shared-one-qubit pair cannot fold");
        assert_eq!(ops.fused_gates, 0);
    }

    #[test]
    fn diagonal_ordering_against_dense_is_respected() {
        // t(0) rides the diag accumulator *after* the pending h(0)? No —
        // diag touching the dense op's qubit is fine (run sits after the
        // dense op), but a later dense gate on a diag-touched qubit must
        // flush first. This circuit exercises both directions.
        let mut c = Circuit::new(2);
        c.h(0).t(0).h(0).cz(0, 1).h(1);
        let (reference, fused, _) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
    }

    #[test]
    fn toffoli_is_exact() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).ccx(0, 1, 2).x(2);
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.gates_3q, 1);
    }

    #[test]
    fn pristine_single_gates_are_bit_identical() {
        // A circuit with no fusion opportunity (the Toffoli flushes, and
        // neighbours never share a full qubit set): every gate flushes
        // alone as its own matrix, the same op per-gate application
        // builds, so fused and unfused execution are bit-identical.
        let mut c = Circuit::new(3);
        c.h(0).cx(1, 2).ccx(0, 1, 2).x(1);
        let (reference, fused, ops) = apply_both(&c);
        assert_eq!(reference.amplitudes(), fused.amplitudes(), "bit-identical");
        assert_eq!(ops.amp_passes, 4);
        assert_eq!(ops.fused_gates, 0);
    }

    #[test]
    fn identity_gates_cost_nothing_but_are_counted() {
        let mut c = Circuit::new(1);
        c.push(GateKind::Id, &[0]).push(GateKind::Id, &[0]);
        let (_, _, ops) = apply_both(&c);
        assert_eq!(ops.amp_passes, 0);
        assert_eq!(ops.gates_1q, 2);
    }

    #[test]
    fn noise_markers_split_static_fusion() {
        let mut c = Circuit::new(1);
        c.t(0).t(0);
        let every_gate = CompiledCircuit::compile(&c, |_| true);
        assert_eq!(every_gate.noise_points(), 2);
        assert_eq!(every_gate.static_fused(), 0, "markers block static fusion");
        let none = CompiledCircuit::compile(&c, |_| false);
        assert_eq!(none.noise_points(), 0);
        assert_eq!(none.static_fused(), 1);
    }

    #[test]
    fn replay_refuses_across_identity_noise_points() {
        let mut c = Circuit::new(1);
        c.t(0).t(0).t(0).t(0);
        let compiled = CompiledCircuit::compile(&c, |_| true);
        let mut sv = StateVector::zero(1);
        let mut ops = OpCounts::new();
        // Hook never fires a branch: dynamic fusion crosses all markers.
        compiled.replay(&mut sv, &mut ops, |_, _| 1);
        assert_eq!(ops.amp_passes, 1, "noise-adaptive flush kept fusing");
        assert_eq!(ops.noise_ops, 4);
        assert_eq!(ops.fused_gates, 3);
        assert!((sv.amplitudes()[0] - c64(1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn forced_flush_materialises_pending_ops() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        let compiled = CompiledCircuit::compile(&c, |_| true);
        let mut sv = StateVector::zero(1);
        let mut ops = OpCounts::new();
        let mut flushes = 0;
        compiled.replay(&mut sv, &mut ops, |_, ctx| {
            let state = ctx.flush();
            assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
            flushes += 1;
            1
        });
        assert_eq!(flushes, 2);
        assert_eq!(ops.amp_passes, 2, "every gate flushed separately");
        assert!((sv.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_gates_feed_back_into_the_fuser() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        let compiled = CompiledCircuit::compile(&c, |_| true);
        let mut sv = StateVector::zero(1);
        let mut ops = OpCounts::new();
        let mut first = true;
        compiled.replay(&mut sv, &mut ops, |gate, ctx| {
            if first {
                first = false;
                ctx.push_branch_gate(&Gate::new(GateKind::Z, gate.qubits()));
            }
            1
        });
        // H, Z, H all fused into one sweep: HZH = X, so |0> -> |1>.
        assert_eq!(ops.amp_passes, 1);
        assert!((sv.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qft_style_block_halves_passes() {
        // An 8-qubit QFT-shaped block: h + controlled-phase ladders.
        let n = 8u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(std::f64::consts::PI / f64::from(1 << (j - i)), j, i);
            }
        }
        let (reference, fused, ops) = apply_both(&c);
        assert_close(&reference, &fused, 1e-11);
        assert!(
            ops.amp_passes * 2 <= ops.total_gates(),
            "expected ≥2× pass reduction: {} passes for {} gates",
            ops.amp_passes,
            ops.total_gates()
        );
    }

    #[test]
    fn amp_pass_estimate_refuses_across_markers() {
        let mut c = Circuit::new(1);
        c.t(0).t(0).t(0).t(0);
        let marked = CompiledCircuit::compile(&c, |_| true);
        // Markers block static fusion (4 plan gates) but the estimate
        // re-fuses across them, matching an all-identity replay.
        assert_eq!(marked.amp_pass_estimate(), 1);
        let mut sv = StateVector::zero(1);
        let mut ops = OpCounts::new();
        marked.replay(&mut sv, &mut ops, |_, _| 0);
        assert_eq!(ops.amp_passes, marked.amp_pass_estimate());
    }

    #[test]
    fn amp_pass_estimate_matches_ideal_replay() {
        use tqsim_circuit::generators;
        let n = 6u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(0.3, j, i);
            }
        }
        // The generators' QFT and QPE decompose every controlled phase, so
        // their replays are made of folds.
        for c in [
            c,
            generators::qft(8),
            generators::qpe(6, 0.3),
            generators::qv(6, 2),
            generators::qsc(6, 60, 3),
        ] {
            let compiled = CompiledCircuit::compile(&c, |_| false);
            let mut sv = StateVector::zero(c.n_qubits());
            let mut ops = OpCounts::new();
            compiled.replay_ideal(&mut sv, &mut ops);
            assert_eq!(compiled.amp_pass_estimate(), ops.amp_passes);
        }
    }

    #[test]
    fn decomposed_controlled_phases_cost_one_mat4_pass_each() {
        // `p(c); cx(c,t); p(t); cx(c,t); p(t)`: the leading phase folds
        // into the first CX's columns, the rest into the pending Mat4.
        // Neighbouring phases share one qubit or none.
        let pairs = [(0, 1), (1, 2), (0, 2), (3, 1), (2, 3), (1, 0)];
        let mut prep = Circuit::new(4);
        for q in 0..4 {
            prep.ry(0.3 + 0.4 * f64::from(q), q);
        }
        let mut c = Circuit::new(4);
        for (k, &(ctl, tgt)) in pairs.iter().enumerate() {
            c.cp_decomposed(0.9 - 0.35 * k as f64, ctl, tgt);
        }
        let (reference, fused, ops) = apply_both_from(&prep, &c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, pairs.len() as u64, "one pass per phase");
        assert_eq!(ops.fused_gates, 4 * pairs.len() as u64, "the rest merged");
    }

    #[test]
    fn a_straddling_pending_phase_still_flushes() {
        // The pending CPhase(0, 1) term has one qubit inside h(0)'s support
        // and one outside, so it cannot be absorbed; the disjoint t(2)
        // term rides along in the same (flushed) run.
        let mut prep = Circuit::new(3);
        prep.h(0).h(1).h(2);
        let mut c = Circuit::new(3);
        c.t(2).cp(0.7, 0, 1).h(0);
        let (reference, fused, ops) = apply_both_from(&prep, &c);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 2, "diagonal run, then h(0)");
        assert_eq!(ops.fused_gates, 1, "only t(2) + cp(0, 1) merged");
    }

    #[test]
    fn a_folded_noise_branch_costs_its_circuit_gate_one_pass() {
        let mut ry = Circuit::new(1);
        ry.ry(0.4, 0);
        let ket = |c: &Circuit| {
            let mut sv = StateVector::zero(1);
            sv.apply_circuit(c);
            sv
        };
        // A fired Z (noise work, pending as a diagonal) folds into the
        // next circuit gate, h(0): one sweep, charged to the circuit.
        let mut c = Circuit::new(1);
        c.push(GateKind::Id, &[0]).h(0);
        let compiled = CompiledCircuit::compile(&c, |g| matches!(g.kind(), GateKind::Id));
        let mut sv = ket(&ry);
        let mut ops = OpCounts::new();
        compiled.replay(&mut sv, &mut ops, |gate, ctx| {
            ctx.push_branch_gate(&Gate::new(GateKind::Z, gate.qubits()));
            1
        });
        assert_eq!((ops.amp_passes, ops.noise_ops), (1, 1));
        let mut want = ry.clone();
        want.z(0).h(0);
        assert_close(&ket(&want), &sv, 1e-12);
        // A fired X (noise work) absorbing a pending circuit t(0) is
        // charged too: the sweep carries circuit work.
        let mut c = Circuit::new(1);
        c.t(0);
        let compiled = CompiledCircuit::compile(&c, |_| true);
        let mut sv = ket(&ry);
        let mut ops = OpCounts::new();
        compiled.replay(&mut sv, &mut ops, |gate, ctx| {
            ctx.push_branch_gate(&Gate::new(GateKind::X, gate.qubits()));
            1
        });
        assert_eq!((ops.amp_passes, ops.noise_ops), (1, 1));
        let mut want = ry.clone();
        want.t(0).x(0);
        assert_close(&ket(&want), &sv, 1e-12);
    }

    #[test]
    fn apply_offset_matches_full_array_sweep() {
        // A run touching low (slice-local) and high (slice-selecting)
        // qubits applied per half-slice with offsets must equal the
        // full-array application bit for bit.
        let mut run = DiagRun::new();
        run.push1(0, [c64(1.0, 0.0), c64(0.0, 1.0)]);
        run.push1(2, [c64(0.5, 0.0), c64(1.0, 0.0)]);
        run.push2(2, 1, [c64(1.0, 0.0); 4]);
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).t(0).cx(0, 2);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        let mut full = sv.amplitudes().to_vec();
        let mut sliced = full.clone();
        run.apply(&mut full);
        let half = sliced.len() / 2;
        let (lo, hi) = sliced.split_at_mut(half);
        run.apply_offset(lo, 0);
        run.apply_offset(hi, half);
        assert_eq!(full, sliced, "offset slices must match the full sweep");
        // Single-term runs exercise the constant-scale arm.
        let mut hi_only = DiagRun::new();
        hi_only.push1(2, [c64(0.25, 0.0), c64(0.0, -1.0)]);
        let mut full2 = sv.amplitudes().to_vec();
        let mut sliced2 = full2.clone();
        hi_only.apply(&mut full2);
        let (lo2, hi2) = sliced2.split_at_mut(half);
        hi_only.apply_offset(lo2, 0);
        hi_only.apply_offset(hi2, half);
        for (a, b) in full2.iter().zip(&sliced2) {
            assert!((a - b).norm() < 1e-15);
        }
    }

    #[test]
    fn wide_plan_rejected_on_narrow_state() {
        let mut c = Circuit::new(3);
        c.h(2);
        let compiled = CompiledCircuit::compile(&c, |_| false);
        let mut sv = StateVector::zero(2);
        let mut ops = OpCounts::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compiled.replay_ideal(&mut sv, &mut ops)
        }));
        assert!(result.is_err());
    }
}
