//! The slice transport: where a distributed state's node slices live.
//!
//! [`crate::DistributedStateVector`] decides everything — which op runs,
//! which qubits are remapped, which partner rounds happen, the order every
//! reduction folds in, and all accounting — and drives a
//! [`SliceTransport`] that only moves and touches slices:
//! [`crate::LocalSlices`] keeps every slice in this process, and
//! `tqsim-shard`'s `ShardSlices` one slice per worker process.
//!
//! The per-slice arithmetic is written here once — [`SliceOp::apply`], the
//! [`PairOp`] halves and [`Query::answer`]. The in-process transport calls
//! them directly and the shard worker after decoding a verb, so both
//! transports compute the same amplitudes by construction.

use tqsim_circuit::math::{c64, Mat2, Mat4, C64};
use tqsim_statevec::{kernels, DiagRun};

/// A node-local operation on one slice. Qubits are slice-local except in
/// [`SliceOp::DiagRun`], which resolves global qubits against the slice's
/// base index.
#[derive(Clone, Copy, Debug)]
pub enum SliceOp<'a> {
    /// `|0…0⟩`: zero the slice; the slice at base 0 also gets amplitude 1.
    Reset,
    /// `Ccx(c1, c2, t)`: a Toffoli, flipping `t` where `c1` and `c2` read 1.
    Ccx(u16, u16, u16),
    /// `Mat2(q, m)`: a dense single-qubit unitary.
    Mat2(u16, &'a Mat2),
    /// `Mat4(hi, lo, m)`: a dense two-qubit unitary, `hi` the more
    /// significant matrix bit.
    Mat4(u16, u16, &'a Mat4),
    /// A coalesced diagonal run over global qubits.
    DiagRun(&'a DiagRun),
    /// `Diag1(q, d0, d1)`: `diag(d0, d1)`.
    Diag1(u16, C64, C64),
    /// `ScaleBit(mask, d0, d1)`: `diag(d0, d1)` on a node-selecting qubit —
    /// the whole slice scales by `d1` when its rank has a bit of `mask`
    /// set, else by `d0`.
    ScaleBit(usize, C64, C64),
    /// `Antidiag1(q, a01, a10)`: `[[0, a01], [a10, 0]]`.
    Antidiag1(u16, C64, C64),
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
            SliceOp::Diag1(q, d0, d1) => kernels::apply_diag1(slice, q as usize, d0, d1),
            SliceOp::ScaleBit(mask, d0, d1) => {
                let rank = base >> slice.len().trailing_zeros();
                let d = if rank & mask != 0 { d1 } else { d0 };
                slice.iter_mut().for_each(|a| *a *= d);
            }
            SliceOp::Antidiag1(q, a01, a10) => {
                kernels::apply_antidiag1(slice, q as usize, a01, a10)
            }
            SliceOp::Scale(s) => slice.iter_mut().for_each(|a| *a *= s),
        }
    }
}

/// One exchange round's operation on a partner pair: two slices whose
/// ranks differ in one global bit, the lower rank called `lo`.
#[derive(Clone, Copy, Debug)]
pub enum PairOp {
    /// `HalfSwap(lq)`: the distributed swap with local qubit `lq` — `lo`'s
    /// `lq`-bit=1 half trades places with `hi`'s `lq`-bit=0 half.
    HalfSwap(u16),
    /// `Antidiag(a01, a10)`: `[[0, a01], [a10, 0]]` on the node-selecting
    /// qubit, `lo' = a01·hi` and `hi' = a10·lo` — whole slices cross.
    Antidiag(C64, C64),
}

impl PairOp {
    /// Amplitudes each node sends its partner, for slices of `slice_len`.
    pub fn frame_len(&self, slice_len: usize) -> usize {
        match self {
            PairOp::HalfSwap(_) => slice_len / 2,
            PairOp::Antidiag(..) => slice_len,
        }
    }

    /// Apply to a pair held in one address space, in place.
    pub fn apply_pair(&self, lo: &mut [C64], hi: &mut [C64]) {
        match *self {
            PairOp::HalfSwap(lq) => {
                let sl = 1usize << lq;
                for (ra, rb) in lo.chunks_exact_mut(sl * 2).zip(hi.chunks_exact_mut(sl * 2)) {
                    ra[sl..].swap_with_slice(&mut rb[..sl]);
                }
            }
            PairOp::Antidiag(a01, a10) => {
                for (x, y) in lo.iter_mut().zip(hi) {
                    (*x, *y) = (a01 * *y, a10 * *x);
                }
            }
        }
    }

    /// Where each partner holds only its own slice: append the amplitudes
    /// this side (`is_lo` for the lower rank) sends to `out`.
    pub fn outgoing(&self, slice: &[C64], is_lo: bool, out: &mut Vec<C64>) {
        match *self {
            PairOp::HalfSwap(lq) => {
                let (sl, off) = half_run(lq, is_lo);
                for run in slice.chunks_exact(sl * 2) {
                    out.extend_from_slice(&run[off..off + sl]);
                }
            }
            PairOp::Antidiag(..) => out.extend_from_slice(slice),
        }
    }

    /// Land the partner's [`PairOp::outgoing`] amplitudes in this side's
    /// slice: together, exactly [`PairOp::apply_pair`].
    pub fn land(&self, slice: &mut [C64], is_lo: bool, incoming: &[C64]) {
        match *self {
            PairOp::HalfSwap(lq) => {
                let (sl, off) = half_run(lq, is_lo);
                let runs = slice.chunks_exact_mut(sl * 2);
                for (run, theirs) in runs.zip(incoming.chunks_exact(sl)) {
                    run[off..off + sl].copy_from_slice(theirs);
                }
            }
            PairOp::Antidiag(a01, a10) => {
                let d = if is_lo { a01 } else { a10 };
                for (mine, theirs) in slice.iter_mut().zip(incoming) {
                    *mine = d * *theirs;
                }
            }
        }
    }
}

/// Run length and in-run offset of the half a half-swap side trades: the
/// lower rank its `lq`-bit=1 half, the higher rank its `lq`-bit=0 half.
fn half_run(lq: u16, is_lo: bool) -> (usize, usize) {
    let sl = 1usize << lq;
    (sl, if is_lo { sl } else { 0 })
}

/// A read-only question to one slice: one link of a rank-ordered fold.
/// Accumulators are carried from rank to rank, so a chained fold adds the
/// same numbers in the same order as one walk over the gathered state.
#[derive(Clone, Copy, Debug)]
pub enum Query<'a> {
    /// `Σ|a|²` over the slice.
    Psum,
    /// `Msum(q, acc)`: continue `acc` over the amplitudes whose local qubit
    /// `q` reads 1.
    Msum(u16, f64),
    /// `Pick(u, acc)`: continue the CDF walk of draw `u` from `acc`.
    Pick(f64, f64),
    /// Continue the batched CDF walk of the pending draws.
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
    /// The continued sum or CDF: a psum, a msum, or a pick that ran past
    /// this slice.
    Acc(f64),
    /// The global basis state a pick landed on.
    Hit(u64),
    /// `Walk(out, idx, acc)`: the outcomes of the pending draws resolved in
    /// this slice, in draw order, and the index and CDF the walk reached.
    Walk(Vec<u64>, u64, f64),
}

impl Query<'_> {
    /// Answer for `slice`, whose first amplitude has global index `base`.
    pub fn answer(&self, slice: &[C64], base: usize) -> Reply {
        let probs = slice.iter().map(|a| a.norm_sqr());
        match *self {
            Query::Psum => Reply::Acc(probs.sum()),
            Query::Msum(q, acc) => Reply::Acc(
                probs
                    .enumerate()
                    .filter(|(i, _)| i & (1 << q) != 0)
                    .fold(acc, |acc, (_, p)| acc + p),
            ),
            Query::Pick(u, mut acc) => {
                for (i, p) in probs.enumerate() {
                    acc += p;
                    if u < acc {
                        return Reply::Hit((base + i) as u64);
                    }
                }
                Reply::Acc(acc)
            }
            Query::Walk {
                us,
                mut idx,
                mut acc,
                total,
                init,
            } => {
                let (base, end) = (base as u64, (base + slice.len()) as u64);
                if init {
                    (idx, acc) = (0, slice[0].norm_sqr());
                }
                let mut out = Vec::new();
                for &u in us {
                    // Smallest index with u < cdf(index); an over-range
                    // draw falls back to the last basis state.
                    while u >= acc && idx + 1 < total && idx + 1 < end {
                        idx += 1;
                        acc += slice[(idx - base) as usize].norm_sqr();
                    }
                    if u >= acc && idx + 1 < total {
                        break;
                    }
                    out.push(idx);
                }
                Reply::Walk(out, idx, acc)
            }
        }
    }
}

/// The per-rank query function a fold is handed: `ask(rank, query)`.
pub type Ask<'a> = dyn FnMut(usize, Query<'_>) -> Reply + 'a;

/// Where a distributed state's slices live. An implementation decides
/// nothing and counts nothing: it runs what
/// [`crate::DistributedStateVector`] asks, in rank order.
pub trait SliceTransport {
    /// Number of slices (= nodes), a power of two.
    fn n_nodes(&self) -> usize;

    /// Run `op` on every slice, in rank order.
    fn sweep(&mut self, op: &SliceOp<'_>);

    /// One exchange round: `op` on every partner pair whose ranks differ in
    /// global bit `gb`.
    fn exchange(&mut self, gb: u16, op: PairOp);

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

    /// Each side sending its `outgoing` frame and landing its partner's is
    /// exactly the in-place pair operation — the worker and the in-process
    /// transport exchange the same amplitudes.
    #[test]
    fn one_sided_halves_compose_to_the_in_place_pair_op() {
        let a = c64(0.6, 0.0);
        for op in [
            PairOp::HalfSwap(0),
            PairOp::HalfSwap(2),
            PairOp::Antidiag(a, -a),
        ] {
            let (mut lo, mut hi) = pair();
            let (mut lo_out, mut hi_out) = (Vec::new(), Vec::new());
            op.outgoing(&lo, true, &mut lo_out);
            op.outgoing(&hi, false, &mut hi_out);
            assert_eq!(lo_out.len(), op.frame_len(8));
            op.land(&mut lo, true, &hi_out);
            op.land(&mut hi, false, &lo_out);
            let (mut lo_ref, mut hi_ref) = pair();
            op.apply_pair(&mut lo_ref, &mut hi_ref);
            assert_eq!((lo, hi), (lo_ref, hi_ref), "{op:?}");
        }
    }
}
