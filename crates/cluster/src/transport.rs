//! The slice transport: where a distributed state's node slices live.
//!
//! [`crate::DistributedStateVector`] decides everything — which op runs,
//! where each qubit sits, which partner rounds happen, the order every
//! reduction folds in, and all accounting — and drives a
//! [`SliceTransport`] that only moves and touches slices:
//! [`crate::LocalSlices`] keeps every slice in this process, and
//! `tqsim-shard`'s `ShardSlices` one slice per worker process.
//!
//! The per-slice arithmetic is written here once — [`SliceOp::apply`], the
//! [`half_swap`] halves and [`Query::answer`]. The in-process transport
//! calls them directly and the shard worker after decoding a verb, so both
//! transports compute the same amplitudes by construction. A sampled Kraus
//! branch is one of these ops too (a one-term diagonal run or a `Mat2`), so
//! the only exchange is the half swap.

use std::{fmt, io};
use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_statevec::{kernels, walk_cdf, DiagRun};

/// A node-local operation on one slice: the fused ops of plan replay,
/// `|0…0⟩` and renormalisation's scale. Qubits are physical bit positions
/// (the distributed state resolves its layout before issuing an op):
/// slice-local, except in [`SliceOp::DiagRun`], which resolves global
/// positions against the slice's base index (a one-term run on a
/// node-selecting position scales the whole slice by its entry).
#[derive(Clone, Copy, Debug)]
pub enum SliceOp<'a> {
    /// `|0…0⟩`: zero the slice; the slice at base 0 also gets amplitude 1.
    Reset,
    /// `Ccx(c1, c2, t)`: a Toffoli, flipping `t` where `c1` and `c2` read 1.
    Ccx(u16, u16, u16),
    /// `Mat2(q, m)`: a dense single-qubit matrix (a gate, or the
    /// amplitude-damping jump).
    Mat2(u16, &'a Mat2),
    /// `Mat4(hi, lo, m)`: a dense two-qubit unitary, `hi` the more
    /// significant matrix bit.
    Mat4(u16, u16, &'a Mat4),
    /// A coalesced diagonal run over global qubits.
    DiagRun(&'a DiagRun),
    /// Multiply every amplitude by a real factor.
    Scale(f64),
}

impl SliceOp<'_> {
    /// Apply to `slice`, whose first amplitude has global index `base`.
    pub fn apply(&self, slice: &mut [C64], base: usize) {
        match *self {
            SliceOp::Reset => {
                slice.fill(c64(0.0, 0.0));
                if base == 0 {
                    slice[0] = c64(1.0, 0.0);
                }
            }
            SliceOp::Ccx(c1, c2, t) => {
                kernels::apply_ccx(slice, c1.into(), c2.into(), t.into());
            }
            SliceOp::Mat2(q, m) => kernels::apply_mat2(slice, q as usize, m),
            SliceOp::Mat4(hi, lo, m) => kernels::apply_mat4(slice, hi as usize, lo as usize, m),
            SliceOp::DiagRun(run) => run.apply_offset(slice, base),
            SliceOp::Scale(s) => kernels::scale_amps(slice, s),
        }
    }
}

/// The one exchange round's arithmetic, on a partner pair: two slices whose
/// ranks differ in one global bit, the lower rank called `lo`. The round is
/// the distributed swap with local qubit `lq` — `lo`'s `lq`-bit=1 half
/// trades places with `hi`'s `lq`-bit=0 half — so each side sends half its
/// slice.
pub mod half_swap {
    use tqsim_circuit::math::C64;

    /// Apply to a pair held in one address space, in place.
    pub fn apply_pair(lq: u16, lo: &mut [C64], hi: &mut [C64]) {
        let sl = 1usize << lq;
        for (ra, rb) in lo.chunks_exact_mut(sl * 2).zip(hi.chunks_exact_mut(sl * 2)) {
            ra[sl..].swap_with_slice(&mut rb[..sl]);
        }
    }

    /// Where each partner holds only its own slice: append the half this
    /// side (`is_lo` for the lower rank) sends to `out`.
    pub fn outgoing(lq: u16, slice: &[C64], is_lo: bool, out: &mut Vec<C64>) {
        let (sl, off) = half(lq, is_lo);
        for run in slice.chunks_exact(sl * 2) {
            out.extend_from_slice(&run[off..off + sl]);
        }
    }

    /// Land the partner's [`outgoing`] half in this side's slice: together,
    /// exactly [`apply_pair`].
    pub fn land(lq: u16, slice: &mut [C64], is_lo: bool, incoming: &[C64]) {
        let (sl, off) = half(lq, is_lo);
        let runs = slice.chunks_exact_mut(sl * 2);
        for (run, theirs) in runs.zip(incoming.chunks_exact(sl)) {
            run[off..off + sl].copy_from_slice(theirs);
        }
    }

    /// Run length and in-run offset of the half a side trades: the lower
    /// rank its `lq`-bit=1 half, the higher rank its `lq`-bit=0 half.
    fn half(lq: u16, is_lo: bool) -> (usize, usize) {
        let sl = 1usize << lq;
        (sl, if is_lo { sl } else { 0 })
    }
}

/// A read-only question to one slice: one link of a rank-ordered fold.
/// Accumulators are carried from rank to rank through the same folds the
/// flat `StateVector` runs from 0.0 ([`kernels::norm_sqr_from`],
/// [`kernels::marginal_one_from`], [`walk_cdf`]), so a chained fold adds
/// the same numbers in the same order as one walk over the gathered state,
/// bit for bit at every width.
#[derive(Clone, Copy, Debug)]
pub enum Query<'a> {
    /// `Psum(acc)`: continue `acc` over every `|a|²` of the slice.
    Psum(f64),
    /// `Msum(q, acc)`: continue `acc` over the amplitudes whose local qubit
    /// `q` reads 1.
    Msum(u16, f64),
    /// Continue the batched CDF walk of the pending draws
    /// ([`tqsim_statevec::walk_cdf`]).
    Walk {
        /// Pending draws, ascending.
        us: &'a [f64],
        /// Global index the walk stands on (ignored when `init`).
        idx: u64,
        /// CDF through `idx` (ignored when `init`).
        acc: f64,
        /// Amplitudes in the whole state.
        total: u64,
        /// Start the walk at index 0 (rank 0).
        init: bool,
    },
}

/// A slice's answer to a [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The continued sum: a psum or a msum.
    Acc(f64),
    /// `Walk(out, idx, acc)`: the outcomes of the pending draws resolved in
    /// this slice, in draw order, and the index and CDF the walk reached.
    Walk(Vec<u64>, u64, f64),
}

impl Query<'_> {
    /// Answer for `slice`, whose first amplitude has global index `base`.
    pub fn answer(&self, slice: &[C64], base: usize) -> Reply {
        match *self {
            Query::Psum(acc) => Reply::Acc(kernels::norm_sqr_from(acc, slice)),
            Query::Msum(q, acc) => Reply::Acc(kernels::marginal_one_from(acc, slice, q.into())),
            Query::Walk {
                us,
                idx,
                acc,
                total,
                init,
            } => {
                let mut at = if init {
                    (0, slice[0].norm_sqr())
                } else {
                    (idx, acc)
                };
                let mut out = Vec::new();
                walk_cdf(slice, base as u64, total, &mut at, us, &mut out);
                Reply::Walk(out, at.0, at.1)
            }
        }
    }
}

/// The per-rank query function a fold is handed: `ask(rank, query)`.
pub type Ask<'a> = dyn FnMut(usize, Query<'_>) -> Reply + 'a;

/// Where a distributed state's slices live. An implementation decides
/// nothing and counts nothing: it runs what
/// [`crate::DistributedStateVector`] asks, in rank order.
///
/// Its node **group** is what a [`crate::ClusterBackend`] holds to allocate
/// states: the node count in process, the live worker processes for
/// `tqsim-shard`.
pub trait SliceTransport {
    /// A node group, cheap to clone and shared by every state on it.
    type Group: Clone + fmt::Debug + Send + Sync + 'static;

    /// Bring up a group of `n_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Process spawn or handshake failures (in process: none).
    fn spawn(n_nodes: usize) -> io::Result<Self::Group>;

    /// Nodes in `group`.
    fn group_nodes(group: &Self::Group) -> usize;

    /// `|0…0⟩` slices of `2^local_n` amplitudes on every node of `group`.
    fn alloc(group: &Self::Group, local_n: u16) -> Self;

    /// Number of slices (= nodes), a power of two.
    fn n_nodes(&self) -> usize;

    /// Run `op` on every slice, in rank order.
    fn sweep(&mut self, op: &SliceOp<'_>);

    /// One exchange round: the [`half_swap`] with local qubit `lq` on every
    /// partner pair whose ranks differ in global bit `gb`.
    fn exchange(&mut self, gb: u16, lq: u16);

    /// Overwrite every slice with `src`'s (a node-local copy).
    ///
    /// # Panics
    ///
    /// Panics if `src` lives on another node group.
    fn copy_from(&mut self, src: &Self);

    /// Every amplitude, in global index order.
    fn gather(&self) -> Vec<C64>;

    /// Run `fold` with a per-rank query function, holding the transport
    /// once for the whole fold.
    fn query<R>(&self, fold: impl FnOnce(&mut Ask<'_>) -> R) -> R;

    /// [`SliceTransport::query`], then sweep the op `fold` returns, under
    /// the same hold (renormalisation: the norm decides the scale).
    fn query_then_sweep(&mut self, fold: impl FnOnce(&mut Ask<'_>) -> SliceOp<'static>);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two slices of 8 with distinct amplitudes.
    fn pair() -> (Vec<C64>, Vec<C64>) {
        let amp = |i: usize| c64(i as f64 + 0.5, -(i as f64) / 3.0);
        ((0..8).map(amp).collect(), (8..16).map(amp).collect())
    }

    /// Each side sending its `outgoing` half and landing its partner's is
    /// exactly the in-place half swap — the worker and the in-process
    /// transport exchange the same amplitudes.
    #[test]
    fn one_sided_halves_compose_to_the_in_place_pair_op() {
        for lq in [0, 2] {
            let (mut lo, mut hi) = pair();
            let (mut lo_out, mut hi_out) = (Vec::new(), Vec::new());
            half_swap::outgoing(lq, &lo, true, &mut lo_out);
            half_swap::outgoing(lq, &hi, false, &mut hi_out);
            assert_eq!(lo_out.len(), 4);
            half_swap::land(lq, &mut lo, true, &hi_out);
            half_swap::land(lq, &mut hi, false, &lo_out);
            let (mut lo_ref, mut hi_ref) = pair();
            half_swap::apply_pair(lq, &mut lo_ref, &mut hi_ref);
            assert_eq!((lo, hi), (lo_ref, hi_ref), "lq {lq}");
        }
    }
}
