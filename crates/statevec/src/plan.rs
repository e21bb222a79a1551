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
//!   [`DiagRun`] applied in a **single indexed sweep** however long the run.
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
//!   `B(A|ψ⟩)`. When no fusion opportunity fires, dispatch falls back to
//!   the pristine per-gate kernels and amplitudes are bit-identical too.

use crate::kernels;
use crate::ops::OpCounts;
use crate::traits::QuantumState;
use tqsim_circuit::math::{Mat16, Mat2, Mat32, Mat4, Mat8, C64};
use tqsim_circuit::{Circuit, Gate, GateKind};

/// Fusion-window configuration for the [`Fuser`] and [`CompiledCircuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusionConfig {
    /// Widest dense fusion cluster, in qubits: 2 keeps today's `Mat4`
    /// windows (the default), 3 enables greedy `Mat8` clusters (qsim-style
    /// wider fusion), 4/5 enable the cache-blocked `Mat16`/`Mat32`
    /// kernels. Values above 5 behave as 5; values below 2 as 2.
    pub max_fuse_qubits: u8,
    /// Cross-boundary fusion: fuse a subcircuit's head window into the
    /// parent→child state copy ([`CompiledCircuit::head_ops`]) and its
    /// trailing window into the leaf sampling sweep
    /// ([`CompiledCircuit::replay_boundary`] +
    /// [`crate::traits::QuantumState::sample_fused`]), so neither boundary
    /// costs a dedicated amplitude pass.
    pub boundary: bool,
}

impl Default for FusionConfig {
    /// The default window is 2 qubits unless the `TQSIM_FUSE_QUBITS`
    /// environment variable overrides it (clamped to 2..=5; read once per
    /// process, like `TQSIM_PAR_MIN_LEN`). Boundary fusion stays opt-in.
    fn default() -> Self {
        static ENV_WIDTH: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
        let max_fuse_qubits = *ENV_WIDTH.get_or_init(|| {
            std::env::var("TQSIM_FUSE_QUBITS")
                .ok()
                .and_then(|v| v.trim().parse::<u8>().ok())
                .map_or(2, |w| w.clamp(2, 5))
        });
        FusionConfig {
            max_fuse_qubits,
            boundary: false,
        }
    }
}

impl FusionConfig {
    /// Whether 3-qubit `Mat8` clusters are enabled.
    #[inline]
    fn fuse3(&self) -> bool {
        self.max_fuse_qubits >= 3
    }

    /// The effective cluster-width ceiling (2..=5).
    #[inline]
    fn width(&self) -> usize {
        usize::from(self.max_fuse_qubits.clamp(2, 5))
    }
}

/// Canonical 3-qubit cluster frame: qubits in descending order, so
/// `frame[0]` is the most significant `Mat8` bit (bit 2).
#[inline]
fn frame3(qs: [u16; 3]) -> [u16; 3] {
    let mut f = qs;
    f.sort_unstable_by(|a, b| b.cmp(a));
    f
}

/// The `Mat8` bit position of qubit `q` within a descending frame.
#[inline]
fn frame_pos(frame: &[u16; 3], q: u16) -> usize {
    match frame.iter().position(|&x| x == q) {
        Some(0) => 2,
        Some(1) => 1,
        Some(2) => 0,
        _ => unreachable!("qubit {q} not in cluster frame {frame:?}"),
    }
}

/// Canonical wide cluster frame: qubits in descending order, so `frame[0]`
/// is the most significant matrix bit (generalises [`frame3`]).
#[inline]
fn frame_sorted<const W: usize>(qs: [u16; W]) -> [u16; W] {
    let mut f = qs;
    f.sort_unstable_by(|a, b| b.cmp(a));
    f
}

/// The matrix bit position of qubit `q` within a descending frame of any
/// width (generalises [`frame_pos`]: slot `j` maps to bit `W-1-j`).
#[inline]
fn frame_pos_n(frame: &[u16], q: u16) -> usize {
    match frame.iter().position(|&x| x == q) {
        Some(j) => frame.len() - 1 - j,
        None => unreachable!("qubit {q} not in cluster frame {frame:?}"),
    }
}

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

    /// Whether any term touches qubit `q`.
    pub fn touches(&self, q: u16) -> bool {
        self.terms1.iter().any(|&(tq, _)| tq == q)
            || self.terms2.iter().any(|&(a, b, _)| a == q || b == q)
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

    /// The run as a diagonal octuple in the descending `(q2, q1, q0)`
    /// cluster frame (support must lie within the triple).
    fn as_diag3(&self, q2: u16, q1: u16, q0: u16) -> [C64; 8] {
        debug_assert!(self.support_within(&[q2, q1, q0]));
        let frame = [q2, q1, q0];
        let mut e = [C64::new(1.0, 0.0); 8];
        for &(q, d) in &self.terms1 {
            let pos = frame_pos(&frame, q);
            for (idx, entry) in e.iter_mut().enumerate() {
                *entry *= d[(idx >> pos) & 1];
            }
        }
        for &(a, b, d) in &self.terms2 {
            let pa = frame_pos(&frame, a);
            let pb = frame_pos(&frame, b);
            for (idx, entry) in e.iter_mut().enumerate() {
                let sel = (((idx >> pa) & 1) << 1) | ((idx >> pb) & 1);
                *entry *= d[sel];
            }
        }
        e
    }

    /// The run as a diagonal of `2^W` entries in a descending cluster
    /// frame of width `W` (support must lie within the frame).
    /// Generalises [`DiagRun::as_diag3`] to the 4/5-qubit windows.
    fn as_diag_n<const W: usize, const D: usize>(&self, frame: &[u16; W]) -> [C64; D] {
        debug_assert_eq!(D, 1 << W);
        debug_assert!(self.support_within(frame));
        let mut e = [C64::new(1.0, 0.0); D];
        for &(q, d) in &self.terms1 {
            let pos = frame_pos_n(frame, q);
            for (idx, entry) in e.iter_mut().enumerate() {
                *entry *= d[(idx >> pos) & 1];
            }
        }
        for &(a, b, d) in &self.terms2 {
            let pa = frame_pos_n(frame, a);
            let pb = frame_pos_n(frame, b);
            for (idx, entry) in e.iter_mut().enumerate() {
                let sel = (((idx >> pa) & 1) << 1) | ((idx >> pb) & 1);
                *entry *= d[sel];
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
/// [`Fuser`]'s input/output streams.
///
/// The `Mat4` variant dominates the size (256 bytes inline); keeping it
/// unboxed is deliberate — ops are constructed on the replay hot path,
/// where a per-emit heap allocation would cost more than the copy.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum FusedOp {
    /// Dense single-qubit unitary. `src` is the original gate when the
    /// matrix was never folded (pristine dispatch uses its specialised
    /// kernel).
    Unitary1 {
        /// Target qubit.
        q: u16,
        /// The (possibly product-of-many) matrix.
        m: Mat2,
        /// Original gate if the matrix is an unfused single gate.
        src: Option<Gate>,
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
        /// Original gate if the matrix is an unfused single gate.
        src: Option<Gate>,
    },
    /// Dense three-qubit cluster (`Mat8`), built only when
    /// [`FusionConfig::max_fuse_qubits`] ≥ 3. Qubits are stored in the
    /// canonical descending frame (`q2 > q1 > q0`); always a product of
    /// several source gates, so there is no pristine `src` form.
    Unitary3 {
        /// Most significant cluster qubit.
        q2: u16,
        /// Middle cluster qubit.
        q1: u16,
        /// Least significant cluster qubit.
        q0: u16,
        /// The accumulated 8×8 matrix, boxed so the rare wide cluster
        /// does not inflate every op in the plan vector.
        m: Box<Mat8>,
    },
    /// Dense four-qubit cluster (`Mat16`), built only when
    /// [`FusionConfig::max_fuse_qubits`] ≥ 4. Qubits are stored in the
    /// canonical descending frame (`qs[0]` is the most significant matrix
    /// bit); the 4 KiB matrix is boxed so plan-vector elements stay small
    /// for narrow-window users.
    Unitary4 {
        /// Cluster qubits in descending order.
        qs: [u16; 4],
        /// The accumulated 16×16 matrix.
        m: Box<Mat16>,
    },
    /// Dense five-qubit cluster (`Mat32`), built only when
    /// [`FusionConfig::max_fuse_qubits`] ≥ 5 (see [`FusedOp::Unitary4`]).
    Unitary5 {
        /// Cluster qubits in descending order.
        qs: [u16; 5],
        /// The accumulated 32×32 matrix.
        m: Box<Mat32>,
    },
    /// A coalesced diagonal run (one sweep).
    FusedDiag(DiagRun),
    /// A gate with no 1q/2q matrix form (Toffoli); applied via its
    /// specialised kernel, never fused.
    Passthrough(Gate),
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
            src: Some(*gate),
        }),
        2 => Some(FusedOp::Unitary2 {
            q_hi: qs[0],
            q_lo: qs[1],
            m: gate.kind().matrix2().expect("2q kind has a matrix"),
            src: Some(*gate),
        }),
        _ => Some(FusedOp::Passthrough(*gate)),
    }
}

/// The pending dense operation of a [`Fuser`]. `noise_only` tracks
/// whether the slot holds nothing but fired noise-branch Paulis; such
/// sweeps are noise work (the unfused path accounts them under
/// `noise_ops`, never `amp_passes`), so the emit sink is told to skip the
/// pass charge — keeping fused and unfused `amp_passes` comparable.
// One instance lives in the fuser's accumulator slot (never a vector of
// them), so the `Three` variant's inline `Mat8` costs nothing per-plan.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Dense {
    One {
        q: u16,
        m: Mat2,
        src: Option<Gate>,
        noise_only: bool,
    },
    Two {
        q_hi: u16,
        q_lo: u16,
        m: Mat4,
        src: Option<Gate>,
        noise_only: bool,
    },
    /// 3-qubit `Mat8` cluster in the canonical descending frame
    /// (`q2 > q1 > q0`); only built when the fuser's config allows it.
    Three {
        q2: u16,
        q1: u16,
        q0: u16,
        m: Mat8,
        noise_only: bool,
    },
    /// 4-qubit `Mat16` cluster in a descending frame, boxed (the slot
    /// lives on the stack but clusters this wide are rare and 4 KiB).
    Four {
        qs: [u16; 4],
        m: Box<Mat16>,
        noise_only: bool,
    },
    /// 5-qubit `Mat32` cluster in a descending frame, boxed (16 KiB).
    Five {
        qs: [u16; 5],
        m: Box<Mat32>,
        noise_only: bool,
    },
}

impl Dense {
    fn noise_only(&self) -> bool {
        match self {
            Dense::One { noise_only, .. }
            | Dense::Two { noise_only, .. }
            | Dense::Three { noise_only, .. }
            | Dense::Four { noise_only, .. }
            | Dense::Five { noise_only, .. } => *noise_only,
        }
    }

    /// The qubits the pending op acts on.
    fn qubits(&self) -> Vec<u16> {
        match self {
            Dense::One { q, .. } => vec![*q],
            Dense::Two { q_hi, q_lo, .. } => vec![*q_hi, *q_lo],
            Dense::Three { q2, q1, q0, .. } => vec![*q2, *q1, *q0],
            Dense::Four { qs, .. } => qs.to_vec(),
            Dense::Five { qs, .. } => qs.to_vec(),
        }
    }

    /// Lift the pending matrix into an 8×8 on the given descending frame
    /// (every acted-on qubit must be in the frame).
    fn embed8(&self, frame: &[u16; 3]) -> Mat8 {
        match self {
            Dense::One { q, m, .. } => Mat8::from_mat2(m, frame_pos(frame, *q)),
            Dense::Two { q_hi, q_lo, m, .. } => {
                Mat8::from_mat4(m, frame_pos(frame, *q_hi), frame_pos(frame, *q_lo))
            }
            Dense::Three { q2, q1, q0, m, .. } => {
                debug_assert_eq!(&[*q2, *q1, *q0], frame);
                *m
            }
            _ => unreachable!("wide cluster cannot embed into a 3-qubit frame"),
        }
    }

    /// Lift the pending matrix into a 16×16 on the given descending frame.
    fn embed16(&self, frame: &[u16; 4]) -> Mat16 {
        match self {
            Dense::One { q, m, .. } => Mat16::from_mat2(m, frame_pos_n(frame, *q)),
            Dense::Two { q_hi, q_lo, m, .. } => {
                Mat16::from_mat4(m, frame_pos_n(frame, *q_hi), frame_pos_n(frame, *q_lo))
            }
            Dense::Three { q2, q1, q0, m, .. } => Mat16::from_mat8(
                m,
                frame_pos_n(frame, *q2),
                frame_pos_n(frame, *q1),
                frame_pos_n(frame, *q0),
            ),
            Dense::Four { qs, m, .. } => {
                debug_assert_eq!(qs, frame);
                (**m).clone()
            }
            Dense::Five { .. } => {
                unreachable!("5-qubit cluster cannot embed into a 4-qubit frame")
            }
        }
    }

    /// Lift the pending matrix into a 32×32 on the given descending frame.
    fn embed32(&self, frame: &[u16; 5]) -> Mat32 {
        match self {
            Dense::One { q, m, .. } => Mat32::from_mat2(m, frame_pos_n(frame, *q)),
            Dense::Two { q_hi, q_lo, m, .. } => {
                Mat32::from_mat4(m, frame_pos_n(frame, *q_hi), frame_pos_n(frame, *q_lo))
            }
            Dense::Three { q2, q1, q0, m, .. } => Mat32::from_mat8(
                m,
                frame_pos_n(frame, *q2),
                frame_pos_n(frame, *q1),
                frame_pos_n(frame, *q0),
            ),
            Dense::Four { qs, m, .. } => Mat32::from_mat16(
                m,
                [
                    frame_pos_n(frame, qs[3]),
                    frame_pos_n(frame, qs[2]),
                    frame_pos_n(frame, qs[1]),
                    frame_pos_n(frame, qs[0]),
                ],
            ),
            Dense::Five { qs, m, .. } => {
                debug_assert_eq!(qs, frame);
                (**m).clone()
            }
        }
    }
}

/// Greedy gate-fusion buffer, used both statically (by
/// [`CompiledCircuit::compile`], emitting plan ops) and dynamically (by
/// [`CompiledCircuit::replay`], emitting sweeps on a live state).
///
/// Pending state is at most one dense 1q/2q operation plus one diagonal
/// run, with the invariant that the dense op precedes the run in program
/// order (safe because pushes that would violate ordering force a flush).
///
/// The emit sink receives `(op, noise_only)`; `noise_only` is true when
/// the emitted operation consists purely of fired noise-branch Paulis
/// (see [`Dense`]).
#[derive(Clone, Debug, Default)]
pub struct Fuser {
    cfg: FusionConfig,
    dense: Option<Dense>,
    diag: DiagRun,
    /// Whether every term in `diag` came from a noise branch (meaningful
    /// only while `diag` is non-empty).
    diag_noise_only: bool,
}

impl Fuser {
    /// An empty buffer with the default (2-qubit) fusion window.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with an explicit fusion window.
    pub fn with_config(cfg: FusionConfig) -> Self {
        // Built field by field: a replay makes one per tree node and per
        // Monte-Carlo shot, and must not consult the default config.
        Fuser {
            cfg,
            dense: None,
            diag: DiagRun::new(),
            diag_noise_only: false,
        }
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.dense.is_none() && self.diag.is_empty()
    }

    /// Feed one circuit operation; emits any operations that must
    /// materialise to preserve ordering. Returns `true` when the op merged
    /// into pending state (i.e. it will not cost a sweep of its own).
    pub fn push(&mut self, op: &FusedOp, emit: &mut impl FnMut(&FusedOp, bool)) -> bool {
        self.push_from(op, false, emit)
    }

    /// Feed a fired noise-branch operation (not charged to `amp_passes`
    /// unless a circuit gate later joins the same pending slot).
    pub fn push_noise(&mut self, op: &FusedOp, emit: &mut impl FnMut(&FusedOp, bool)) -> bool {
        self.push_from(op, true, emit)
    }

    fn push_from(
        &mut self,
        op: &FusedOp,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        match op {
            FusedOp::FusedDiag(run) => {
                // A diagonal inside the pending dense op's support folds
                // straight into its matrix (valid because the pending diag
                // run — if any — commutes with the incoming diagonal).
                match &mut self.dense {
                    Some(Dense::One {
                        q,
                        m,
                        src,
                        noise_only,
                    }) if run.support_within(&[*q]) => {
                        let d = run.as_diag1(*q);
                        *m = Mat2([
                            [d[0] * m.0[0][0], d[0] * m.0[0][1]],
                            [d[1] * m.0[1][0], d[1] * m.0[1][1]],
                        ]);
                        *src = None;
                        *noise_only &= from_noise;
                        return true;
                    }
                    Some(Dense::Two {
                        q_hi,
                        q_lo,
                        m,
                        src,
                        noise_only,
                    }) if run.support_within(&[*q_hi, *q_lo]) => {
                        let e = run.as_diag2(*q_hi, *q_lo);
                        for (r, row) in m.0.iter_mut().enumerate() {
                            for cell in row.iter_mut() {
                                *cell *= e[r];
                            }
                        }
                        *src = None;
                        *noise_only &= from_noise;
                        return true;
                    }
                    Some(Dense::Three {
                        q2,
                        q1,
                        q0,
                        m,
                        noise_only,
                    }) if run.support_within(&[*q2, *q1, *q0]) => {
                        *m = m.scale_rows(&run.as_diag3(*q2, *q1, *q0));
                        *noise_only &= from_noise;
                        return true;
                    }
                    Some(Dense::Four { qs, m, noise_only }) if run.support_within(qs) => {
                        **m = m.scale_rows(&run.as_diag_n::<4, 16>(qs));
                        *noise_only &= from_noise;
                        return true;
                    }
                    Some(Dense::Five { qs, m, noise_only }) if run.support_within(qs) => {
                        **m = m.scale_rows(&run.as_diag_n::<5, 32>(qs));
                        *noise_only &= from_noise;
                        return true;
                    }
                    _ => {}
                }
                // Under a 3-qubit window a diagonal can also *widen* the
                // pending dense op: promote it to cover the union of both
                // supports and fold the run into the enlarged matrix
                // (sound because the run commutes with the accumulator).
                if self.cfg.fuse3() {
                    if let Some(dense) = self.dense.take() {
                        let mut union = dense.qubits();
                        for q in run.support() {
                            if !union.contains(&q) {
                                union.push(q);
                            }
                        }
                        match union.len() {
                            2 => {
                                // In-support pairs returned above, so the
                                // pending op here is a One reaching out.
                                if let Dense::One {
                                    q, m, noise_only, ..
                                } = dense
                                {
                                    let (q_hi, q_lo) =
                                        (union[0].max(union[1]), union[0].min(union[1]));
                                    let id = Mat2::identity();
                                    let mut mat = if q == q_hi { m.kron(&id) } else { id.kron(&m) };
                                    let e = run.as_diag2(q_hi, q_lo);
                                    for (r, row) in mat.0.iter_mut().enumerate() {
                                        for cell in row.iter_mut() {
                                            *cell *= e[r];
                                        }
                                    }
                                    self.dense = Some(Dense::Two {
                                        q_hi,
                                        q_lo,
                                        m: mat,
                                        src: None,
                                        noise_only: noise_only && from_noise,
                                    });
                                    return true;
                                }
                                self.dense = Some(dense);
                            }
                            3 => {
                                let frame = frame3([union[0], union[1], union[2]]);
                                let noise_only = dense.noise_only() && from_noise;
                                let m = dense
                                    .embed8(&frame)
                                    .scale_rows(&run.as_diag3(frame[0], frame[1], frame[2]));
                                self.dense = Some(Dense::Three {
                                    q2: frame[0],
                                    q1: frame[1],
                                    q0: frame[2],
                                    m,
                                    noise_only,
                                });
                                return true;
                            }
                            4 if self.cfg.width() >= 4 => {
                                let frame = frame_sorted([union[0], union[1], union[2], union[3]]);
                                let noise_only = dense.noise_only() && from_noise;
                                let m = dense
                                    .embed16(&frame)
                                    .scale_rows(&run.as_diag_n::<4, 16>(&frame));
                                self.dense = Some(Dense::Four {
                                    qs: frame,
                                    m: Box::new(m),
                                    noise_only,
                                });
                                return true;
                            }
                            5 if self.cfg.width() >= 5 => {
                                let frame = frame_sorted([
                                    union[0], union[1], union[2], union[3], union[4],
                                ]);
                                let noise_only = dense.noise_only() && from_noise;
                                let m = dense
                                    .embed32(&frame)
                                    .scale_rows(&run.as_diag_n::<5, 32>(&frame));
                                self.dense = Some(Dense::Five {
                                    qs: frame,
                                    m: Box::new(m),
                                    noise_only,
                                });
                                return true;
                            }
                            _ => {
                                // Union too wide for the window: put the
                                // dense op back and ride the accumulator.
                                self.dense = Some(dense);
                            }
                        }
                    }
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
                joined
            }
            FusedOp::Unitary1 { q, m, src } => self.push_dense1(*q, m, *src, from_noise, emit),
            FusedOp::Unitary2 { q_hi, q_lo, m, src } => {
                self.push_dense2(*q_hi, *q_lo, m, *src, from_noise, emit)
            }
            FusedOp::Unitary3 { q2, q1, q0, m } => {
                self.push_dense3(*q2, *q1, *q0, m, from_noise, emit)
            }
            FusedOp::Unitary4 { qs, m } => self.push_dense_wide(
                Dense::Four {
                    qs: *qs,
                    m: m.clone(),
                    noise_only: from_noise,
                },
                from_noise,
                emit,
            ),
            FusedOp::Unitary5 { qs, m } => self.push_dense_wide(
                Dense::Five {
                    qs: *qs,
                    m: m.clone(),
                    noise_only: from_noise,
                },
                from_noise,
                emit,
            ),
            FusedOp::Passthrough(_) => {
                self.flush(emit);
                emit(op, from_noise);
                false
            }
        }
    }

    fn push_dense1(
        &mut self,
        q: u16,
        m: &Mat2,
        src: Option<Gate>,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        if self.diag.touches(q) {
            // The pending diagonal must apply before this gate.
            self.flush(emit);
        }
        match self.dense.take() {
            None => {
                self.dense = Some(Dense::One {
                    q,
                    m: *m,
                    src,
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
                    src: None,
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
                    src: None,
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
                    src: None,
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
            }) if self.cfg.fuse3() => {
                // Disjoint 1q next to a 2q op: grow the window to a
                // 3-qubit cluster (shared-qubit pairs matched above).
                let frame = frame3([q_hi, q_lo, q]);
                let m8 = Mat8::from_mat2(m, frame_pos(&frame, q)).mul(&Mat8::from_mat4(
                    &pm,
                    frame_pos(&frame, q_hi),
                    frame_pos(&frame, q_lo),
                ));
                self.dense = Some(Dense::Three {
                    q2: frame[0],
                    q1: frame[1],
                    q0: frame[2],
                    m: m8,
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::Three {
                q2,
                q1,
                q0,
                m: pm,
                noise_only,
            }) if q == q2 || q == q1 || q == q0 => {
                let frame = [q2, q1, q0];
                self.dense = Some(Dense::Three {
                    q2,
                    q1,
                    q0,
                    m: Mat8::from_mat2(m, frame_pos(&frame, q)).mul(&pm),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(other) => self.widen_or_replace(
                other,
                Dense::One {
                    q,
                    m: *m,
                    src,
                    noise_only: from_noise,
                },
                from_noise,
                emit,
            ),
        }
    }

    fn push_dense2(
        &mut self,
        qa: u16,
        qb: u16,
        m: &Mat4,
        src: Option<Gate>,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        if self.diag.touches(qa) || self.diag.touches(qb) {
            self.flush(emit);
        }
        match self.dense.take() {
            None => {
                self.dense = Some(Dense::Two {
                    q_hi: qa,
                    q_lo: qb,
                    m: *m,
                    src,
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
                    src: None,
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::One {
                q: pq,
                m: pm,
                noise_only,
                ..
            }) if self.cfg.fuse3() => {
                // 2q op next to a disjoint pending 1q: 3-qubit cluster.
                let frame = frame3([qa, qb, pq]);
                let m8 = Mat8::from_mat4(m, frame_pos(&frame, qa), frame_pos(&frame, qb))
                    .mul(&Mat8::from_mat2(&pm, frame_pos(&frame, pq)));
                self.dense = Some(Dense::Three {
                    q2: frame[0],
                    q1: frame[1],
                    q0: frame[2],
                    m: m8,
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
                    src: None,
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
            }) if self.cfg.fuse3() && (q_hi == qa || q_hi == qb || q_lo == qa || q_lo == qb) => {
                // Two 2q ops sharing exactly one qubit (same-pair matched
                // above): their union is a 3-qubit cluster.
                let new_q = if qa == q_hi || qa == q_lo { qb } else { qa };
                let frame = frame3([q_hi, q_lo, new_q]);
                let m8 = Mat8::from_mat4(m, frame_pos(&frame, qa), frame_pos(&frame, qb)).mul(
                    &Mat8::from_mat4(&pm, frame_pos(&frame, q_hi), frame_pos(&frame, q_lo)),
                );
                self.dense = Some(Dense::Three {
                    q2: frame[0],
                    q1: frame[1],
                    q0: frame[2],
                    m: m8,
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(Dense::Three {
                q2,
                q1,
                q0,
                m: pm,
                noise_only,
            }) if [qa, qb].iter().all(|&x| x == q2 || x == q1 || x == q0) => {
                let frame = [q2, q1, q0];
                self.dense = Some(Dense::Three {
                    q2,
                    q1,
                    q0,
                    m: Mat8::from_mat4(m, frame_pos(&frame, qa), frame_pos(&frame, qb)).mul(&pm),
                    noise_only: noise_only && from_noise,
                });
                true
            }
            Some(other) => self.widen_or_replace(
                other,
                Dense::Two {
                    q_hi: qa,
                    q_lo: qb,
                    m: *m,
                    src,
                    noise_only: from_noise,
                },
                from_noise,
                emit,
            ),
        }
    }

    /// Feed an already-built 3-qubit cluster (a statically fused plan op
    /// replayed through the dynamic fuser). No `fuse3` gate: `Unitary3`
    /// only exists in plans compiled with a 3-qubit window.
    fn push_dense3(
        &mut self,
        q2: u16,
        q1: u16,
        q0: u16,
        m: &Mat8,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        if self.diag.touches(q2) || self.diag.touches(q1) || self.diag.touches(q0) {
            self.flush(emit);
        }
        let frame = [q2, q1, q0];
        match self.dense.take() {
            None => {
                self.dense = Some(Dense::Three {
                    q2,
                    q1,
                    q0,
                    m: *m,
                    noise_only: from_noise,
                });
                false
            }
            Some(prev) if prev.qubits().iter().all(|q| frame.contains(q)) => {
                let noise_only = prev.noise_only() && from_noise;
                self.dense = Some(Dense::Three {
                    q2,
                    q1,
                    q0,
                    m: m.mul(&prev.embed8(&frame)),
                    noise_only,
                });
                true
            }
            Some(other) => self.widen_or_replace(
                other,
                Dense::Three {
                    q2,
                    q1,
                    q0,
                    m: *m,
                    noise_only: from_noise,
                },
                from_noise,
                emit,
            ),
        }
    }

    /// Feed an already-built 4/5-qubit cluster (statically fused plan ops
    /// replayed through the dynamic fuser; such ops only exist in plans
    /// compiled with a matching window).
    fn push_dense_wide(
        &mut self,
        new: Dense,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        if new.qubits().iter().any(|&q| self.diag.touches(q)) {
            self.flush(emit);
        }
        match self.dense.take() {
            None => {
                self.dense = Some(new);
                false
            }
            Some(prev) => self.widen_or_replace(prev, new, from_noise, emit),
        }
    }

    /// Merge an incoming dense op into the pending one by growing the
    /// cluster to the union of their supports, when the union fits a
    /// 4/5-qubit window. Otherwise the pending op is emitted and the
    /// incoming one takes the slot (the narrow windows' historical
    /// behaviour). Returns `true` when the ops merged.
    fn widen_or_replace(
        &mut self,
        prev: Dense,
        new: Dense,
        from_noise: bool,
        emit: &mut impl FnMut(&FusedOp, bool),
    ) -> bool {
        let mut union = prev.qubits();
        for q in new.qubits() {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        match union.len() {
            4 if self.cfg.width() >= 4 => {
                let frame = frame_sorted([union[0], union[1], union[2], union[3]]);
                let noise_only = prev.noise_only() && from_noise;
                let m = new.embed16(&frame).mul(&prev.embed16(&frame));
                self.dense = Some(Dense::Four {
                    qs: frame,
                    m: Box::new(m),
                    noise_only,
                });
                true
            }
            5 if self.cfg.width() >= 5 => {
                let frame = frame_sorted([union[0], union[1], union[2], union[3], union[4]]);
                let noise_only = prev.noise_only() && from_noise;
                let m = new.embed32(&frame).mul(&prev.embed32(&frame));
                self.dense = Some(Dense::Five {
                    qs: frame,
                    m: Box::new(m),
                    noise_only,
                });
                true
            }
            _ => {
                Self::emit_dense(&prev, emit);
                self.dense = Some(new);
                false
            }
        }
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
            Dense::One { q, m, src, .. } => emit(
                &FusedOp::Unitary1 {
                    q: *q,
                    m: *m,
                    src: *src,
                },
                noise_only,
            ),
            Dense::Two {
                q_hi, q_lo, m, src, ..
            } => emit(
                &FusedOp::Unitary2 {
                    q_hi: *q_hi,
                    q_lo: *q_lo,
                    m: *m,
                    src: *src,
                },
                noise_only,
            ),
            Dense::Three { q2, q1, q0, m, .. } => emit(
                &FusedOp::Unitary3 {
                    q2: *q2,
                    q1: *q1,
                    q0: *q0,
                    m: Box::new(*m),
                },
                noise_only,
            ),
            Dense::Four { qs, m, .. } => emit(
                &FusedOp::Unitary4 {
                    qs: *qs,
                    m: m.clone(),
                },
                noise_only,
            ),
            Dense::Five { qs, m, .. } => emit(
                &FusedOp::Unitary5 {
                    qs: *qs,
                    m: m.clone(),
                },
                noise_only,
            ),
        }
    }
}

/// Apply one fused operation to any [`QuantumState`] backend, charging one
/// amplitude pass. Pristine ops (never folded) dispatch through the
/// backend's full gate path for bit-identity with unfused execution.
pub fn apply_fused_op<S: QuantumState + ?Sized>(sv: &mut S, op: &FusedOp, ops: &mut OpCounts) {
    ops.amp_passes += 1;
    apply_fused_op_raw(sv, op);
}

/// Apply one fused operation without touching any counter — the replay
/// sinks charge `amp_passes` themselves so that noise-only sweeps (fired
/// Kraus branches, accounted under `noise_ops` like the unfused path)
/// don't inflate the gate-pass metric.
fn apply_fused_op_raw<S: QuantumState + ?Sized>(sv: &mut S, op: &FusedOp) {
    match op {
        FusedOp::Unitary1 { q, m, src } => match src {
            Some(gate) => sv.apply_gate(gate),
            None => sv.apply_mat2(*q, m),
        },
        FusedOp::Unitary2 { q_hi, q_lo, m, src } => match src {
            Some(gate) => sv.apply_gate(gate),
            None => sv.apply_mat4(*q_hi, *q_lo, m),
        },
        FusedOp::Unitary3 { q2, q1, q0, m } => sv.apply_mat8(*q2, *q1, *q0, m),
        FusedOp::Unitary4 { qs, m } => sv.apply_mat16(*qs, m),
        FusedOp::Unitary5 { qs, m } => sv.apply_mat32(*qs, m),
        FusedOp::FusedDiag(run) => sv.apply_diag_run(run),
        FusedOp::Passthrough(gate) => sv.apply_gate(gate),
    }
}

/// The `plan.boundary` failpoint, armed at the cross-boundary fusion seams
/// (copy-and-apply, fused sampling). Error-action faults are converted to
/// panics — the seams have no `Result` channel; the executors' panic
/// isolation contains them to the owning job.
pub(crate) fn boundary_failpoint() {
    if tqsim_faults::any_armed() {
        if let Err(e) = tqsim_faults::trigger("plan.boundary") {
            std::panic::panic_any(e);
        }
    }
}

/// Apply a boundary window (a head or tail of fused ops, in order) to any
/// backend through the standard fused-op dispatch. The caller accounts the
/// pass (`OpCounts::copy_apply` / `OpCounts::sample_fused`); the window
/// itself is the pass that boundary fusion *removed*.
pub fn apply_window<S: QuantumState + ?Sized>(sv: &mut S, window: &[FusedOp]) {
    boundary_failpoint();
    for op in window {
        apply_fused_op_raw(sv, op);
    }
}

/// Apply a boundary window directly to an amplitude slice whose first
/// element has global index `base` (`base` slice-aligned, as in
/// [`DiagRun::apply_offset`]). Dense ops must fit inside the slice;
/// diagonal runs may touch global qubits. Chunk-wise application through
/// this helper is bit-identical to [`apply_window`] on the full array —
/// the single-node fused copy/sample sweeps rely on that.
pub fn apply_window_amps(amps: &mut [C64], base: usize, window: &[FusedOp]) {
    for op in window {
        match op {
            FusedOp::Unitary1 { q, m, src } => match src {
                Some(gate) => kernels::apply_gate_amps(amps, gate),
                None => kernels::apply_mat2(amps, *q as usize, m),
            },
            FusedOp::Unitary2 { q_hi, q_lo, m, src } => match src {
                Some(gate) => kernels::apply_gate_amps(amps, gate),
                None => kernels::apply_mat4(amps, *q_hi as usize, *q_lo as usize, m),
            },
            FusedOp::Unitary3 { q2, q1, q0, m } => {
                kernels::apply_mat8(amps, *q2 as usize, *q1 as usize, *q0 as usize, m)
            }
            FusedOp::Unitary4 { qs, m } => kernels::apply_mat16(amps, qs.map(|q| q as usize), m),
            FusedOp::Unitary5 { qs, m } => kernels::apply_mat32(amps, qs.map(|q| q as usize), m),
            FusedOp::FusedDiag(run) => run.apply_offset(amps, base),
            FusedOp::Passthrough(gate) => kernels::apply_gate_amps(amps, gate),
        }
    }
}

/// The chunk length a fused copy/sample sweep advances at once: big enough
/// to cover every dense op in the window (chunked application stays exact),
/// and otherwise sized so one chunk of amplitudes stays L1-resident. Always
/// a power of two ≤ `len`, so chunk starts remain slice-aligned for
/// [`DiagRun::apply_offset`].
pub(crate) fn window_chunk(len: usize, window: &[FusedOp]) -> usize {
    /// 2^11 amplitudes = 32 KiB of `C64` — within one L1 data cache.
    const L1_AMPS: usize = 1 << 11;
    let span = window_span(window).map_or(1, |s| 1usize << (s + 1));
    span.max(L1_AMPS).min(len).max(1)
}

/// The widest qubit a window's dense ops touch, or `None` for an empty /
/// purely-global-diagonal window. Determines the chunk a fused sweep must
/// advance at once to keep chunked application exact.
pub fn window_span(window: &[FusedOp]) -> Option<u16> {
    let mut span: Option<u16> = None;
    let mut bump = |q: u16| span = Some(span.map_or(q, |s| s.max(q)));
    for op in window {
        match op {
            FusedOp::Unitary1 { q, .. } => bump(*q),
            // Operand fields order MATRIX bit significance, not qubit
            // index (a `Cx(2, 9)` frame has q_hi = 2): every operand can
            // be the widest, so all of them bound the chunk.
            FusedOp::Unitary2 { q_hi, q_lo, .. } => {
                bump(*q_hi);
                bump(*q_lo);
            }
            FusedOp::Unitary3 { q2, q1, q0, .. } => {
                bump(*q2);
                bump(*q1);
                bump(*q0);
            }
            FusedOp::Unitary4 { qs, .. } => qs.iter().for_each(|&q| bump(q)),
            FusedOp::Unitary5 { qs, .. } => qs.iter().for_each(|&q| bump(q)),
            // Diagonal runs are offset-aware: they never bound the chunk.
            FusedOp::FusedDiag(_) => {}
            FusedOp::Passthrough(gate) => {
                for &q in gate.qubits() {
                    bump(q);
                }
            }
        }
    }
    span
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
    /// Fusion window used at compile time *and* by the dynamic replay
    /// fuser, so static and dynamic fusion always agree.
    fusion: FusionConfig,
    /// Cross-boundary head window (empty unless `fusion.boundary`): the
    /// fused ops the dynamic fuser would hold pending before its first
    /// emission and before the first noise marker. Boundary-fused
    /// executors apply these during the parent→child copy
    /// ([`crate::traits::PooledBackend::copy_into_apply`]) and replay
    /// skips the first `head_len` plan ops.
    head: Vec<FusedOp>,
    /// Leading plan ops covered by `head`.
    head_len: usize,
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
        // The caller is about to read or branch on the state directly
        // (marginals, Kraus application), which assumes the canonical
        // amplitude layout — undo any deferred distributed swaps first.
        sv.sync_layout();
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
            if self.fuser.push_noise(&op, &mut apply_sink(sv, ops)) {
                self.ops.fused_gates += 1;
            }
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
    pub fn compile(circuit: &Circuit, noise_site: impl FnMut(&Gate) -> bool) -> Self {
        Self::compile_with(circuit, noise_site, FusionConfig::default())
    }

    /// [`CompiledCircuit::compile`] with an explicit fusion window; the
    /// config is stored so replay's dynamic fuser uses the same window.
    pub fn compile_with(
        circuit: &Circuit,
        mut noise_site: impl FnMut(&Gate) -> bool,
        fusion: FusionConfig,
    ) -> Self {
        let mut plan: Vec<PlanOp> = Vec::new();
        let mut fuser = Fuser::with_config(fusion);
        let mut src_gates = [0u64; 3];
        let mut static_fused = 0u64;
        for gate in circuit {
            src_gates[gate.arity() - 1] += 1;
            if let Some(op) = classify(gate) {
                if fuser.push(&op, &mut |o: &FusedOp, _| {
                    plan.push(PlanOp::Gate(o.clone()))
                }) {
                    static_fused += 1;
                }
            }
            if noise_site(gate) {
                fuser.flush(&mut |o: &FusedOp, _| plan.push(PlanOp::Gate(o.clone())));
                plan.push(PlanOp::Noise(*gate));
            }
        }
        fuser.flush(&mut |o: &FusedOp, _| plan.push(PlanOp::Gate(o.clone())));
        let (head, head_len) = if fusion.boundary {
            Self::compute_head(&plan, fusion)
        } else {
            (Vec::new(), 0)
        };
        CompiledCircuit {
            plan,
            src_gates,
            static_fused,
            n_qubits: circuit.n_qubits(),
            fusion,
            head,
            head_len,
        }
    }

    /// The maximal no-emission prefix of the plan, flushed into a window of
    /// complete fused ops. Replaying `plan[head_len..]` with a fresh fuser
    /// on a state the head was already applied to reproduces the baseline
    /// replay's emission sequence: within the pre-marker prefix the dynamic
    /// fuser mirrors the static one, so nothing in the head would have
    /// merged with a later op.
    fn compute_head(plan: &[PlanOp], fusion: FusionConfig) -> (Vec<FusedOp>, usize) {
        let mut fuser = Fuser::with_config(fusion);
        let mut head_len = 0usize;
        for op in plan {
            let PlanOp::Gate(fop) = op else { break };
            let mut probe = fuser.clone();
            let mut emitted = false;
            probe.push(fop, &mut |_, _| emitted = true);
            if emitted {
                break;
            }
            fuser = probe;
            head_len += 1;
        }
        let mut head = Vec::new();
        fuser.flush(&mut |o: &FusedOp, _| head.push(o.clone()));
        (head, head_len)
    }

    /// The fusion window this plan was compiled with.
    pub fn fusion_config(&self) -> FusionConfig {
        self.fusion
    }

    /// The instruction stream.
    pub fn plan_ops(&self) -> &[PlanOp] {
        &self.plan
    }

    /// Register width the plan was compiled for.
    pub fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    /// Total source gates of the compiled subcircuit.
    pub fn source_gates(&self) -> u64 {
        self.src_gates.iter().sum()
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

    /// The cross-boundary head window: fused ops a boundary-fused executor
    /// applies during the parent→child copy (or right after the root
    /// reset), in place of the first amplitude passes of the replay.
    /// Empty unless the plan was compiled with
    /// [`FusionConfig::boundary`].
    pub fn head_ops(&self) -> &[FusedOp] {
        &self.head
    }

    /// Amplitude passes the head window would otherwise have cost (one per
    /// flushed pending op: 0–2, at most one dense cluster plus one
    /// diagonal run).
    pub fn head_passes(&self) -> u64 {
        self.head.len() as u64
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
        let mut fuser = Fuser::with_config(self.fusion);
        for op in &self.plan {
            match op {
                PlanOp::Gate(fop) => {
                    let merged = {
                        let sv = &mut *sv;
                        let ops = &mut *ops;
                        fuser.push(fop, &mut apply_sink(sv, ops))
                    };
                    if merged {
                        ops.fused_gates += 1;
                    }
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
        // Leaf sampling and parent→child copies follow a replay directly;
        // both assume the canonical layout.
        sv.sync_layout();
        ops.gates_1q += self.src_gates[0];
        ops.gates_2q += self.src_gates[1];
        ops.gates_3q += self.src_gates[2];
        ops.fused_gates += self.static_fused;
    }

    /// Replay with no noise hook (ideal-model plans, or tests).
    pub fn replay_ideal<S: QuantumState + ?Sized>(&self, sv: &mut S, ops: &mut OpCounts) {
        self.replay(sv, ops, |_, _| 0);
    }

    /// Cross-boundary replay: assumes [`CompiledCircuit::head_ops`] was
    /// already applied to `sv` (fused into the parent→child copy), skips
    /// the corresponding leading plan ops, and — when `want_tail` is true
    /// (leaf nodes) — returns the trailing pending window *unapplied*
    /// instead of flushing it, for the caller to fuse into the sampling
    /// sweep via [`crate::traits::QuantumState::sample_fused`]. Non-leaf
    /// callers pass `want_tail = false` and get a fully materialised state
    /// (their children's copies need it), with an empty return.
    ///
    /// Both boundary windows are gated on `FusionConfig::boundary`: a plan
    /// compiled with `boundary: false` ignores `want_tail` and replays
    /// exactly like [`CompiledCircuit::replay`], so executors can call this
    /// unconditionally and still get the eager baseline for eager plans.
    ///
    /// Gate tallies are charged exactly as [`CompiledCircuit::replay`];
    /// the head and tail passes are the ones boundary fusion removes from
    /// `amp_passes`. Amplitudes match the non-boundary replay to
    /// floating-point reordering (head/tail ops are applied in the same
    /// operator order, chunk-exact), and `Counts` stay bit-identical —
    /// the same equivalence standard fusion itself is held to.
    pub fn replay_boundary<S, F>(
        &self,
        sv: &mut S,
        ops: &mut OpCounts,
        mut on_noise: F,
        want_tail: bool,
    ) -> Vec<FusedOp>
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
        let want_tail = want_tail && self.fusion.boundary;
        let mut fuser = Fuser::with_config(self.fusion);
        for op in &self.plan[self.head_len..] {
            match op {
                PlanOp::Gate(fop) => {
                    let merged = {
                        let sv = &mut *sv;
                        let ops = &mut *ops;
                        fuser.push(fop, &mut apply_sink(sv, ops))
                    };
                    if merged {
                        ops.fused_gates += 1;
                    }
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
        let mut tail = Vec::new();
        if want_tail {
            fuser.flush(&mut |o: &FusedOp, _| tail.push(o.clone()));
        } else {
            let sv = &mut *sv;
            let ops = &mut *ops;
            fuser.flush(&mut apply_sink(sv, ops));
        }
        sv.sync_layout();
        ops.gates_1q += self.src_gates[0];
        ops.gates_2q += self.src_gates[1];
        ops.gates_3q += self.src_gates[2];
        ops.fused_gates += self.static_fused;
        tail
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
    ///
    /// Width-aware (the streaming fuser honours the plan's
    /// [`FusionConfig`], so `Unitary3`+ clusters count one pass however
    /// many gates they absorbed) and boundary-aware: with
    /// [`FusionConfig::boundary`] set, the head window rides the
    /// parent→child copy and the trailing window rides the sampling sweep,
    /// so neither is charged — matching what
    /// [`CompiledCircuit::replay_boundary`] measures at a leaf.
    pub fn amp_pass_estimate(&self) -> u64 {
        let start = if self.fusion.boundary {
            self.head_len
        } else {
            0
        };
        let mut fuser = Fuser::with_config(self.fusion);
        let mut passes = 0u64;
        for op in &self.plan[start..] {
            if let PlanOp::Gate(fop) = op {
                fuser.push(fop, &mut |_, noise_only| {
                    if !noise_only {
                        passes += 1;
                    }
                });
            }
        }
        if !self.fusion.boundary {
            fuser.flush(&mut |_, noise_only| {
                if !noise_only {
                    passes += 1;
                }
            });
        }
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use tqsim_circuit::c64;

    #[test]
    fn default_config_reads_the_environment_once() {
        // Replay builds a `Fuser` per tree node and per Monte-Carlo shot; the
        // default window must be a process constant, not an env lookup.
        let before = FusionConfig::default();
        let other = if before.max_fuse_qubits == 5 {
            "2"
        } else {
            "5"
        };
        let saved = std::env::var_os("TQSIM_FUSE_QUBITS");
        std::env::set_var("TQSIM_FUSE_QUBITS", other);
        let after = FusionConfig::default();
        match saved {
            Some(v) => std::env::set_var("TQSIM_FUSE_QUBITS", v),
            None => std::env::remove_var("TQSIM_FUSE_QUBITS"),
        }
        assert_eq!(after, before);
    }

    fn apply_both(c: &Circuit) -> (StateVector, StateVector, OpCounts) {
        let mut reference = StateVector::zero(c.n_qubits());
        reference.apply_circuit(c);
        let compiled = CompiledCircuit::compile(c, |_| false);
        let mut fused = StateVector::zero(c.n_qubits());
        let mut ops = OpCounts::new();
        compiled.replay_ideal(&mut fused, &mut ops);
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
    fn passthrough_toffoli_is_exact() {
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
        // alone and must dispatch through its original specialised kernel,
        // making fused and unfused execution bit-identical.
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
        let n = 6u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(0.3, j, i);
            }
        }
        let compiled = CompiledCircuit::compile(&c, |_| false);
        let mut sv = StateVector::zero(n);
        let mut ops = OpCounts::new();
        compiled.replay_ideal(&mut sv, &mut ops);
        assert_eq!(compiled.amp_pass_estimate(), ops.amp_passes);
    }

    fn apply_both_with(c: &Circuit, cfg: FusionConfig) -> (StateVector, StateVector, OpCounts) {
        let mut reference = StateVector::zero(c.n_qubits());
        reference.apply_circuit(c);
        let compiled = CompiledCircuit::compile_with(c, |_| false, cfg);
        let mut fused = StateVector::zero(c.n_qubits());
        let mut ops = OpCounts::new();
        compiled.replay_ideal(&mut fused, &mut ops);
        (reference, fused, ops)
    }

    const FUSE3: FusionConfig = FusionConfig {
        max_fuse_qubits: 3,
        boundary: false,
    };

    const FUSE4: FusionConfig = FusionConfig {
        max_fuse_qubits: 4,
        boundary: false,
    };

    const FUSE5: FusionConfig = FusionConfig {
        max_fuse_qubits: 5,
        boundary: false,
    };

    #[test]
    fn fuse3_folds_overlapping_cx_chain_into_one_pass() {
        // The pair that *cannot* fold under the default 2-qubit window
        // (see overlapping_two_qubit_ops_do_not_fuse) becomes one Mat8.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let (reference, fused, ops) = apply_both_with(&c, FUSE3);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1, "shared-one-qubit pair folds into Mat8");
        assert_eq!(ops.fused_gates, 1);
    }

    #[test]
    fn fuse3_absorbs_disjoint_1q_and_2q_neighbours() {
        let mut c = Circuit::new(4);
        // One(2) + disjoint cx(0,1) → Three(2,1,0); then both later gates
        // fold into the cluster in place.
        c.h(2).cx(0, 1).ry(0.3, 2).fsim(0.2, 0.4, 1, 0);
        let (reference, fused, ops) = apply_both_with(&c, FUSE3);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
        assert_eq!(ops.fused_gates, 3);
    }

    #[test]
    fn fuse3_diagonal_widens_the_dense_window() {
        // cp ladders drive the promotion: h(0); cp(1,0) promotes One→Two
        // with the diagonal folded in; h(1) folds; cp(2,1) promotes
        // Two→Three. One sweep for the whole block.
        let mut c = Circuit::new(3);
        c.h(0).cp(0.7, 1, 0).h(1).cp(0.5, 2, 1);
        let (reference, fused, ops) = apply_both_with(&c, FUSE3);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
        assert_eq!(ops.fused_gates, 3);
    }

    #[test]
    fn fuse3_qft_block_beats_default_window() {
        let n = 8u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(std::f64::consts::PI / f64::from(1 << (j - i)), j, i);
            }
        }
        let default_passes = CompiledCircuit::compile(&c, |_| false).amp_pass_estimate();
        let (reference, fused, ops) = apply_both_with(&c, FUSE3);
        assert_close(&reference, &fused, 1e-10);
        assert!(
            ops.amp_passes < default_passes,
            "Mat8 clusters should cut passes: {} vs default {default_passes}",
            ops.amp_passes,
        );
    }

    #[test]
    fn default_window_config_is_two_qubits() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let compiled = CompiledCircuit::compile(&c, |_| false);
        assert_eq!(compiled.fusion_config(), FusionConfig::default());
        assert_eq!(compiled.amp_pass_estimate(), 2, "default stays Mat4-wide");
    }

    #[test]
    fn fuse3_replay_crosses_identity_noise_points() {
        // Static fusion is blocked by markers, but the dynamic fuser
        // re-fuses Unitary3 plan ops across identity branches.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).cx(0, 2);
        let compiled = CompiledCircuit::compile_with(&c, |_| true, FUSE3);
        let mut sv = StateVector::zero(3);
        let mut ops = OpCounts::new();
        compiled.replay(&mut sv, &mut ops, |_, _| 1);
        assert_eq!(ops.amp_passes, 1, "one Mat8 sweep across all markers");
        let mut reference = StateVector::zero(3);
        reference.apply_circuit(&c);
        assert_close(&reference, &sv, 1e-12);
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
    fn fuse4_folds_disjoint_pair_of_two_qubit_ops() {
        // Two disjoint CXes cannot fold at window ≤ 3; window 4 makes one
        // Mat16 cluster and a single sweep.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).h(1).h(3);
        let (reference, fused, ops) = apply_both_with(&c, FUSE4);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1, "whole block is one Mat16 sweep");
        assert_eq!(ops.fused_gates, 3);
    }

    #[test]
    fn fuse5_collapses_five_qubit_block() {
        // Dense 1q/2q neighbours spanning five qubits collapse into one
        // Mat32 cluster.
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(2, 3).h(4).fsim(0.3, 0.2, 1, 2).ry(0.7, 4);
        let (reference, fused, ops) = apply_both_with(&c, FUSE5);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1, "five-qubit block is one Mat32 sweep");
        assert_eq!(ops.fused_gates, 4);
    }

    #[test]
    fn fuse4_diagonal_widens_across_four_qubits() {
        let mut c = Circuit::new(4);
        c.h(0).cp(0.4, 1, 0).cp(0.3, 2, 1).cp(0.2, 3, 2);
        let (reference, fused, ops) = apply_both_with(&c, FUSE4);
        assert_close(&reference, &fused, 1e-12);
        assert_eq!(ops.amp_passes, 1);
    }

    #[test]
    fn wider_windows_monotonically_cut_qft_passes() {
        let n = 8u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(std::f64::consts::PI / f64::from(1 << (j - i)), j, i);
            }
        }
        let passes = |cfg: FusionConfig| {
            CompiledCircuit::compile_with(&c, |_| false, cfg).amp_pass_estimate()
        };
        let (p3, p4, p5) = (passes(FUSE3), passes(FUSE4), passes(FUSE5));
        assert!(p4 < p3, "window 4 beats window 3: {p4} vs {p3}");
        assert!(p5 <= p4, "window 5 no worse than 4: {p5} vs {p4}");
        let (reference, fused, ops) = apply_both_with(&c, FUSE5);
        assert_close(&reference, &fused, 1e-10);
        assert_eq!(ops.amp_passes, p5);
    }

    #[test]
    fn head_window_and_boundary_replay_match_plain_replay() {
        let n = 6u16;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                c.cp(0.3, j, i);
            }
        }
        for width in [2u8, 3, 4, 5] {
            let cfg = FusionConfig {
                max_fuse_qubits: width,
                boundary: true,
            };
            let compiled = CompiledCircuit::compile_with(&c, |_| false, cfg);
            assert!(!compiled.head_ops().is_empty(), "head at width {width}");
            // Plain replay of the same plan.
            let mut plain = StateVector::zero(n);
            let mut plain_ops = OpCounts::new();
            compiled.replay_ideal(&mut plain, &mut plain_ops);
            // Boundary replay: head applied up front, tail returned.
            let mut sv = StateVector::zero(n);
            apply_window(&mut sv, compiled.head_ops());
            let mut ops = OpCounts::new();
            let tail = compiled.replay_boundary(&mut sv, &mut ops, |_, _| 0, true);
            assert_eq!(
                ops.amp_passes,
                compiled.amp_pass_estimate(),
                "estimate matches boundary replay at width {width}"
            );
            assert!(
                ops.amp_passes + compiled.head_passes() + tail.len() as u64 >= plain_ops.amp_passes,
                "boundary only removes the head/tail passes"
            );
            assert!(
                ops.amp_passes < plain_ops.amp_passes,
                "boundary replay saves passes at width {width}"
            );
            apply_window(&mut sv, &tail);
            assert_close(&plain, &sv, 1e-12);
            assert_eq!(ops.total_gates(), plain_ops.total_gates());
        }
    }

    #[test]
    fn boundary_head_never_crosses_noise_markers() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let cfg = FusionConfig {
            max_fuse_qubits: 2,
            boundary: true,
        };
        let compiled = CompiledCircuit::compile_with(&c, |_| true, cfg);
        // Noise after every gate: the head stops at the first marker.
        assert!(compiled.head_passes() <= 1);
        let mut sv = StateVector::zero(2);
        apply_window(&mut sv, compiled.head_ops());
        let mut ops = OpCounts::new();
        let tail = compiled.replay_boundary(&mut sv, &mut ops, |_, _| 1, true);
        apply_window(&mut sv, &tail);
        assert_eq!(ops.noise_ops, 3, "marker order preserved");
        let mut reference = StateVector::zero(2);
        reference.apply_circuit(&c);
        assert_close(&reference, &sv, 1e-12);
    }

    #[test]
    fn apply_window_amps_chunked_matches_full_array() {
        // Chunk-wise window application (the fused copy/sample sweeps)
        // must equal the full-array path bit for bit.
        let mut c = Circuit::new(5);
        c.h(0).h(1).h(2).h(3).h(4).cx(0, 3).t(4);
        let mut sv = StateVector::zero(5);
        sv.apply_circuit(&c);
        let window = vec![
            FusedOp::Unitary2 {
                q_hi: 1,
                q_lo: 0,
                m: GateKind::Cx.matrix2().unwrap(),
                src: None,
            },
            FusedOp::FusedDiag({
                let mut run = DiagRun::new();
                run.push1(4, [c64(1.0, 0.0), c64(0.0, 1.0)]);
                run.push2(1, 0, GateKind::Cz.diag2().unwrap());
                run
            }),
        ];
        let mut full = sv.amplitudes().to_vec();
        apply_window_amps(&mut full, 0, &window);
        let mut chunked = sv.amplitudes().to_vec();
        let span = window_span(&window).unwrap();
        let chunk = 1usize << (span + 1);
        for (k, c) in chunked.chunks_mut(chunk).enumerate() {
            apply_window_amps(c, k * chunk, &window);
        }
        assert_eq!(full, chunked, "chunked window application is exact");
    }

    #[test]
    fn window_span_covers_every_operand_qubit() {
        // Operand fields order matrix-bit significance, not qubit index:
        // a Cx(2, 9) classifies to q_hi = 2, q_lo = 9. The span (and so
        // the fused-sweep chunk) must still reach qubit 9 — an
        // under-sized chunk makes the kernel silently skip the op.
        let g = Gate::new(GateKind::Cx, &[2, 9]);
        let window = vec![classify(&g).unwrap()];
        assert!(matches!(
            window[0],
            FusedOp::Unitary2 {
                q_hi: 2,
                q_lo: 9,
                ..
            }
        ));
        assert_eq!(window_span(&window), Some(9));
        assert!(window_chunk(1 << 12, &window) >= 1 << 10);

        let wide = vec![FusedOp::Unitary4 {
            qs: [1, 11, 3, 0],
            m: Box::new(Mat16::identity()),
        }];
        assert_eq!(window_span(&wide), Some(11));
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
