//! Low-level amplitude-array kernels.
//!
//! # Shapes, tiles and tiers
//!
//! The hot kernels come in two *gate shapes*: a **pair** shape (one gate
//! qubit: [`apply_mat2`], [`apply_antidiag1`], [`apply_diag1`]) and a
//! **quad** shape (two gate qubits: [`apply_mat4`], [`apply_diag2`]). Both
//! are one body,
//! `Tiles`, written against the lane-vector trait `simd::Vf` and
//! instantiated three times — `portable` (scalar `f64`), `avx2` (4 lanes)
//! and `avx512f` (8 lanes); targets other than x86-64 build the portable
//! instantiation only. The tier is observed from the CPU
//! (`is_x86_feature_detected!`) and entered at one place, `simd::run_tier`,
//! the crate's single `unsafe` call into `#[target_feature]` code (the
//! vector load/store/arithmetic intrinsics behind `Vf` are the only other
//! `unsafe`, sealed inside `simd`). No environment variable, Cargo feature
//! or build flag selects a tier.
//!
//! The body works on a **tile**: the `2^k` register pairs `(re, im)` — one
//! per combination of the `k` gate bits — that hold `2^k · LANES`
//! amplitudes related by the gate. Registers are loaded as contiguous runs
//! and de-interleaved into split real/imaginary form on the way in; when a
//! gate qubit is so low that a contiguous run is shorter than a register
//! (`q ≤ 1` at 8 lanes) the tile borrows the next free index bit instead
//! and exchanges it with the offending lane bit in-register
//! (`Vf::swap_bit`), so every qubit placement runs the same full-width
//! arithmetic. A tile is loaded whole before any of it is stored, and each
//! gate-bit combination reads and writes through its own borrow of its
//! span (shared `Cell` borrows where combinations share a span), so the
//! body poses no aliasing question for the optimiser to give up on.
//!
//! **Fused multiply-add, no reassociation.** A dense row (`mat2`, `mat4`)
//! is the `C64` product of its first term, then one fused multiply-add
//! (`Vf::mul_add`/`neg_mul_add`, one rounding) per real product of every
//! remaining term, left to right, and a `mat4` row is summed in *logical*
//! column order whatever the physical order of its operands. So every tier
//! is bit-identical to every other, and a gate gives the same bits on every
//! operand placement — across thread counts, backends (a distributed state
//! remaps an operand onto another qubit) and retries. Results are not
//! bit-identical to unfused scalar `C64` loops.
//!
//! **Selection by matrix.** A gate reaches the kernels as its matrix, and
//! [`apply_mat2`] / [`apply_mat4`] pick the body by *exact* equality: an X
//! swaps the pair, a Y is an anti-diagonal, an H a scaled sum and
//! difference, a CX (control on the more significant matrix bit) swaps
//! under its control, a SWAP trades the `01` and `10` amplitudes; any other
//! matrix — a fused product, or one a rounding away from those — takes the
//! dense row body. The choice depends on the matrix alone, so every
//! backend and tier makes the same one.
//!
//! The multi-term diagonal sweep (`apply_diag_table`) is the one body
//! that is plain autovectorised Rust; it is compiled per tier through the
//! same dispatch. The CX body and [`apply_ccx`] keep a per-element closure
//! driver (`for_each_pair_indexed`) that shares the pool split below.
//!
//! # The pool
//!
//! Below [`par_min_len`] amplitudes a kernel is one serial task. Above it,
//! `Split` cuts the slice into at most `MAX_POOL_TASKS` = 128 tasks of at
//! least `par_min_len() / 4` amplitudes each — a grain floor and nothing
//! finer, because gate kernels have no reduction and any split is
//! bit-identical. A task owns contiguous *spans*; a gate qubit too high to
//! fit inside a span selects among the task's 2 or 4 spans instead, so the
//! highest qubits split as evenly as the lowest. The serial path is the
//! same body over a single whole-slice task. The threshold defaults to
//! [`DEFAULT_PAR_MIN_LEN`] and is tunable with [`set_par_min_len`]. The
//! reductions (`norm_sqr`, sampling, …) keep the
//! pool's fixed-boundary chunking, which is what makes *them* thread-count
//! invariant.

mod simd;

use rayon::prelude::*;
use simd::{Kernel, Tier, Vf};
use std::cell::Cell;
use std::f64::consts::FRAC_1_SQRT_2;
use std::sync::atomic::{AtomicUsize, Ordering};
use tqsim_circuit::math::{c64, Mat2, Mat4, C64};

/// Default serial/parallel switch point, in amplitudes: the first power of
/// two at which the pool beats one thread on the `kernels` bench ladder
/// (2 vCPU, AVX-512F; ns per amplitude over the operand placements of the
/// `diag1`/`diag2`/`mat2`/`mat4` rows, pooled vs serial):
///
/// | n  | pooled    | serial    |
/// |----|-----------|-----------|
/// | 14 | 0.97–1.79 | 0.30–0.94 |
/// | 16 | 0.56–0.95 | 0.34–1.02 |
/// | 18 | 0.45–0.70 | 0.49–0.88 |
/// | 20 | 0.34–0.60 | 0.53–1.05 |
pub const DEFAULT_PAR_MIN_LEN: usize = 1 << 17;

/// Upper bound on pool tasks per gate-kernel call (the amplitude pool's own
/// per-drive cap, so one task is one pool task).
const MAX_POOL_TASKS: usize = 128;

/// Runtime threshold.
static PAR_MIN_LEN_V: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_MIN_LEN);

/// Below this many amplitudes, kernels run serially: [`DEFAULT_PAR_MIN_LEN`]
/// unless overridden with [`set_par_min_len`].
#[inline]
pub fn par_min_len() -> usize {
    PAR_MIN_LEN_V.load(Ordering::Relaxed)
}

/// Set the serial/parallel switch point at runtime (clamped to ≥ 1).
/// Affects subsequent kernel calls process-wide.
pub fn set_par_min_len(n: usize) {
    PAR_MIN_LEN_V.store(n.max(1), Ordering::Relaxed);
}

/// Name of the instruction-set tier the gate kernels dispatch to on this
/// CPU: `"portable"`, `"avx2"` or `"avx512f"`.
pub fn kernel_tier() -> &'static str {
    Tier::best().name()
}

/// `par.worker` failpoint, checked once per parallel chunk so fault
/// injection can exercise a panic *on an amplitude-pool worker thread*.
/// Error-action faults are converted to panics here (kernels have no
/// `Result` channel); the pool contains them to the calling job.
#[inline]
fn par_worker_failpoint() {
    if tqsim_faults::any_armed() {
        if let Err(e) = tqsim_faults::trigger("par.worker") {
            std::panic::panic_any(e);
        }
    }
}

// ---- tasks: how a sweep is shared out --------------------------------------

/// One task's share of a kernel sweep: 1, 2 or 4 equal power-of-two
/// `spans` of the slice. A gate qubit `q` with `1 << q >= span length` is
/// *outer*: it selects among the spans (the lowest outer qubit is bit 0 of
/// the span index) instead of indexing inside one.
#[derive(Default)]
pub(crate) struct Task<'a> {
    /// Index within the kernel's slice of `spans[0][0]`.
    base: usize,
    spans: [&'a mut [C64]; 4],
}

impl<'a> Task<'a> {
    /// The serial task: the whole slice, every qubit inside it.
    fn whole(amps: &'a mut [C64]) -> Self {
        Task {
            base: 0,
            spans: [amps, &mut [], &mut [], &mut []],
        }
    }
}

/// How one kernel call is shared out, decided once (from one read of
/// [`par_min_len`]) so the tile plan and the tasks agree on the span.
#[derive(Clone, Copy)]
struct Split {
    /// Whether the sweep goes to the amplitude pool.
    pooled: bool,
    /// `log2` of the span length.
    span_bits: usize,
}

impl Split {
    /// The split of a sweep over `len` amplitudes on the ascending gate
    /// `qubits`: one whole-slice task below [`par_min_len`]; above it,
    /// tasks of at least the grain floor `par_min_len() / 4` and at least
    /// `len / MAX_POOL_TASKS` amplitudes, each divided evenly over the
    /// spans its outer qubits select (outer qubits shrink the span, not the
    /// task).
    fn of(len: usize, qubits: &[usize]) -> Split {
        debug_assert!(len.is_power_of_two(), "amplitude slices are 2^n long");
        debug_assert!(
            qubits.iter().all(|&q| 2 << q <= len),
            "qubits {qubits:?} out of range"
        );
        let min_len = par_min_len();
        if len < min_len {
            return Split {
                pooled: false,
                span_bits: len.trailing_zeros() as usize,
            };
        }
        let task_amps = (min_len / 4)
            .max(len / MAX_POOL_TASKS)
            .max(1 << qubits.len())
            .next_power_of_two()
            .min(len);
        // Shrinking the span can only push more qubits outside it, so this
        // settles in at most `qubits.len()` rounds.
        let mut span = task_amps;
        loop {
            let outer = qubits.iter().filter(|&&q| 1 << q >= span).count();
            if span == task_amps >> outer {
                return Split {
                    pooled: true,
                    span_bits: span.trailing_zeros() as usize,
                };
            }
            span = task_amps >> outer;
        }
    }
}

/// Cut `amps` into the pool tasks of a sweep with spans of `2^span_bits`.
fn split_tasks<'a>(amps: &'a mut [C64], qubits: &[usize], span_bits: usize) -> Vec<Task<'a>> {
    let amps_len = amps.len();
    let outer: Vec<usize> = qubits.iter().copied().filter(|&q| q >= span_bits).collect();
    let task_amps = (1usize << span_bits) << outer.len();
    let mut spans: Vec<Option<&mut [C64]>> =
        amps.chunks_exact_mut(1 << span_bits).map(Some).collect();
    let outer_mask: usize = outer.iter().map(|&q| 1 << (q - span_bits)).sum();
    let mut tasks = Vec::with_capacity(amps_len / task_amps);
    for first in 0..spans.len() {
        if first & outer_mask != 0 {
            continue;
        }
        let mut task = Task {
            base: first << span_bits,
            ..Task::default()
        };
        for (c, slot) in task.spans.iter_mut().enumerate().take(1 << outer.len()) {
            let at = outer.iter().enumerate().fold(first, |at, (b, &q)| {
                at | (((c >> b) & 1) << (q - span_bits))
            });
            *slot = spans[at].take().expect("each span joins exactly one task");
        }
        tasks.push(task);
    }
    tasks
}

/// Run `f` over the tasks of a sweep on the ascending gate `qubits`.
#[inline]
fn for_each_task<F>(amps: &mut [C64], qubits: &[usize], split: Split, f: F)
where
    F: Fn(Task<'_>) + Sync,
{
    if !split.pooled {
        f(Task::whole(amps));
    } else {
        split_tasks(amps, qubits, split.span_bits)
            .par_iter_mut()
            .for_each(|task| {
                par_worker_failpoint();
                f(std::mem::take(task));
            });
    }
}

/// Run a tiered kernel over contiguous spans of `amps` on `tier`.
#[inline]
fn sweep_on<K: Kernel>(tier: Tier, amps: &mut [C64], k: &K) {
    let split = Split::of(amps.len(), &[]);
    for_each_task(amps, &[], split, |task| simd::run_tier(tier, k, task));
}

/// Visit every amplitude pair on bit `q` together with the *global index* of
/// the `lo` element — used by controlled gates to test control bits (which
/// are identical for both pair members since controls ≠ target).
#[inline]
fn for_each_pair_indexed<F>(amps: &mut [C64], q: usize, f: F)
where
    F: Fn(usize, &mut C64, &mut C64) + Sync + Send,
{
    let step = 1usize << q;
    let split = Split::of(amps.len(), &[q]);
    for_each_task(amps, &[q], split, |task| {
        let base = task.base;
        let [first, second, ..] = task.spans;
        let run = |base: usize, lo: &mut [C64], hi: &mut [C64]| {
            for (i, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                f(base + i, a, b);
            }
        };
        if second.is_empty() {
            for (ci, chunk) in first.chunks_exact_mut(step << 1).enumerate() {
                let (lo, hi) = chunk.split_at_mut(step);
                run(base + ci * (step << 1), lo, hi);
            }
        } else {
            run(base, first, second);
        }
    });
}

// ---- the gate-shape body ---------------------------------------------------

/// A register pair: the real and imaginary parts of `V::LANES` amplitudes.
#[derive(Clone, Copy)]
struct Cv<V> {
    re: V,
    im: V,
}

impl<V: Vf> Cv<V> {
    /// `m * self`, in `C64::mul`'s operation order with `m` on the left.
    #[inline(always)]
    fn mul_left(self, m: C64) -> Self {
        let (mr, mi) = (V::splat(m.re), V::splat(m.im));
        Cv {
            re: mr.mul(self.re).sub(mi.mul(self.im)),
            im: mr.mul(self.im).add(mi.mul(self.re)),
        }
    }

    /// `self + m * x`: each of the four real products is fused into the
    /// running sum with one rounding, in `C64::mul`'s operation order
    /// (`re += mr·xr`, `re −= mi·xi`, `im += mr·xi`, `im += mi·xr`).
    #[inline(always)]
    fn mul_add_left(self, m: C64, x: Self) -> Self {
        let (mr, mi) = (V::splat(m.re), V::splat(m.im));
        Cv {
            re: mi.neg_mul_add(x.im, mr.mul_add(x.re, self.re)),
            im: mi.mul_add(x.re, mr.mul_add(x.im, self.im)),
        }
    }

    /// `self * m`, in `C64::mul`'s operation order with `m` on the right.
    #[inline(always)]
    fn mul_right(self, m: C64) -> Self {
        let (mr, mi) = (V::splat(m.re), V::splat(m.im));
        Cv {
            re: self.re.mul(mr).sub(self.im.mul(mi)),
            im: self.re.mul(mi).add(self.im.mul(mr)),
        }
    }

    /// `self * s` for a real `s`.
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        let s = V::splat(s);
        Cv {
            re: self.re.mul(s),
            im: self.im.mul(s),
        }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Cv {
            re: self.re.add(o.re),
            im: self.im.add(o.im),
        }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Cv {
            re: self.re.sub(o.re),
            im: self.im.sub(o.im),
        }
    }

    #[inline(always)]
    fn swap_bit<const J: usize>(x: Self, y: Self) -> (Self, Self) {
        let (lo_re, hi_re) = V::swap_bit::<J>(x.re, y.re);
        let (lo_im, hi_im) = V::swap_bit::<J>(x.im, y.im);
        (
            Cv {
                re: lo_re,
                im: lo_im,
            },
            Cv {
                re: hi_re,
                im: hi_im,
            },
        )
    }
}

/// What a gate does to one tile: `N = 2^k` register pairs in, `N` out,
/// indexed by the gate-bit combination (bit 0 = the lower gate qubit).
///
/// Implementations must not do lane arithmetic inside a closure: a closure
/// is a function of its own, compiled without the tier's target features,
/// and every `Vf` operation in it would become a call.
trait TileOp<const N: usize>: Sync {
    fn apply<V: Vf>(&self, v: [Cv<V>; N]) -> [Cv<V>; N];
}

/// Where a tile's registers live, worked out once per kernel call.
///
/// Index bits (of an amplitude's offset in its span) fall into: the `RAW`
/// bits inside one contiguous load; *select* bits, one per register-pair
/// half and one per gate qubit, which tell the tile's loads apart; and the
/// rest, which enumerate tiles. A gate qubit inside the `RAW` bits cannot
/// select a load, so it borrows the lowest free bit as its select bit and
/// is exchanged with it in-register (`lane[g] != 0`).
#[derive(Clone, Copy)]
struct TilePlan {
    /// Per gate-bit combination: which span, and the offsets of its two
    /// contiguous loads from the tile base.
    span: [usize; 4],
    off: [[usize; 2]; 4],
    /// Inner select bits, ascending, as masks of all higher bits: adding
    /// `x & mask` to `x` opens a zero at that bit.
    open: [usize; 3],
    opens: usize,
    /// Per gate qubit: the lane bit to exchange with its select bit, or 0.
    lane: [usize; 2],
    /// Tiles in the task.
    tiles: usize,
}

impl TilePlan {
    /// The plan for tiles of `tier`'s width of a gate on ascending `qubits`
    /// over spans of `2^span_bits` amplitudes, or `None` when a span is too
    /// short to hold a tile (tiny states; the caller drops to the scalar
    /// tier, whose tile is one amplitude per register).
    fn new(tier: Tier, qubits: &[usize], span_bits: usize) -> Option<TilePlan> {
        let (raw, lanes) = tier.shape();
        let raw_bits = raw.trailing_zeros() as usize;
        let mut candidate = raw_bits;
        let mut borrow = || {
            while qubits.contains(&candidate) {
                candidate += 1;
            }
            candidate += 1;
            (candidate <= span_bits).then_some(candidate - 1)
        };
        let mut inner = [0usize; 3];
        let mut inners = 0;
        let half = if lanes > raw {
            inner[inners] = borrow()?;
            inners += 1;
            1usize << inner[0]
        } else {
            0
        };
        // Per gate qubit: (weight inside the span, weight in the span index).
        let mut weight = [(0usize, 0usize); 2];
        let mut lane = [0usize; 2];
        let mut outers = 0;
        for (g, &q) in qubits.iter().enumerate() {
            if q >= span_bits {
                weight[g] = (0, 1 << outers);
                outers += 1;
                continue;
            }
            let select = if q < raw_bits {
                lane[g] = q + 1;
                borrow()?
            } else {
                q
            };
            weight[g] = (1 << select, 0);
            inner[inners] = select;
            inners += 1;
        }
        inner[..inners].sort_unstable();
        let mut plan = TilePlan {
            span: [0; 4],
            off: [[0; 2]; 4],
            open: inner.map(|b| !((1usize << b) - 1)),
            opens: inners,
            lane,
            tiles: (1usize << span_bits) >> (raw_bits + inners),
        };
        for c in 0..1usize << qubits.len() {
            for (g, w) in weight.iter().enumerate().take(qubits.len()) {
                if (c >> g) & 1 == 1 {
                    plan.off[c][0] += w.0;
                    plan.span[c] += w.1;
                }
            }
            plan.off[c][1] = plan.off[c][0] + half;
        }
        Some(plan)
    }
}

/// Exchange each low gate qubit's lane bit with its borrowed select bit
/// across the tile's register pairs. Its own inverse.
#[inline(always)]
fn exchange<V: Vf, const N: usize, const J0: usize, const J1: usize>(v: &mut [Cv<V>; N]) {
    if J0 != 0 {
        for c in (0..N).filter(|c| c & 1 == 0) {
            (v[c], v[c + 1]) = Cv::swap_bit::<J0>(v[c], v[c + 1]);
        }
    }
    if J1 != 0 {
        for c in (0..N).filter(|c| c & 2 == 0 && c + 2 < N) {
            (v[c], v[c + 2]) = Cv::swap_bit::<J1>(v[c], v[c + 2]);
        }
    }
}

/// **The** gate-shape body, as a tiered kernel: every tile of a task loaded
/// whole, exchanged into gate-bit-free lanes (`J0`/`J1`: the lane bit of a
/// low gate qubit, or 0), transformed by `op`, exchanged back and stored.
///
/// `ONE` says the task has a single span — every serial sweep, and pooled
/// ones whose gate qubits all fit inside a span — so that copy of the body
/// is compiled against one base pointer. Each `(J0, J1, ONE)` is a type of
/// its own and so a tier function of its own, holding exactly one loop.
struct Tiles<'p, Op, const N: usize, const J0: usize, const J1: usize, const ONE: bool> {
    plan: &'p TilePlan,
    op: &'p Op,
}

impl<Op: TileOp<N>, const N: usize, const J0: usize, const J1: usize, const ONE: bool> Kernel
    for Tiles<'_, Op, N, J0, J1, ONE>
{
    #[inline(always)]
    fn run<V: Vf>(&self, task: Task<'_>) {
        // A local copy: the loop's stores cannot alias it, so the offsets
        // stay in registers instead of being re-read after every tile.
        let plan = *self.plan;
        let raw_bits = V::RAW.trailing_zeros() as usize;
        // As cells, the gate-bit combinations that share a span can each
        // hold their own (shared) borrow of it, fixed before the loop.
        let spans = task
            .spans
            .map(|span| Cell::from_mut(span).as_slice_of_cells());
        let at: [&[Cell<C64>]; N] = if ONE {
            [spans[0]; N]
        } else {
            std::array::from_fn(|c| spans[plan.span[c]])
        };
        for t in 0..plan.tiles {
            let mut base = t << raw_bits;
            for mask in &plan.open[..plan.opens] {
                base += base & mask;
            }
            let mut v = [Cv {
                re: V::splat(0.0),
                im: V::splat(0.0),
            }; N];
            for (c, x) in v.iter_mut().enumerate() {
                let [i, j] = plan.off[c];
                let (re, im) = V::load2(at[c], base + i, base + j);
                *x = Cv { re, im };
            }
            exchange::<V, N, J0, J1>(&mut v);
            let mut out = self.op.apply(v);
            exchange::<V, N, J0, J1>(&mut out);
            for (c, x) in out.iter().enumerate() {
                let [i, j] = plan.off[c];
                V::store2(x.re, x.im, at[c], base + i, base + j);
            }
        }
    }
}

/// Sweep a gate of shape `N = 2^k` on `k` ascending `qubits` on `tier`
/// (or on the scalar tier, whose tile is one amplitude per register, when a
/// span is too short for one of `tier`'s): plan the tiles once, then run
/// the [`Tiles`] instantiation the plan calls for over every task.
fn sweep_gate_on<Op: TileOp<N>, const N: usize>(
    tier: Tier,
    amps: &mut [C64],
    qubits: &[usize],
    op: &Op,
) {
    debug_assert!(qubits.windows(2).all(|w| w[0] < w[1]), "gate qubits ascend");
    let split = Split::of(amps.len(), qubits);
    let (tier, plan) = match TilePlan::new(tier, qubits, split.span_bits) {
        Some(plan) => (tier, plan),
        None => (
            Tier::PORTABLE,
            TilePlan::new(Tier::PORTABLE, qubits, split.span_bits)
                .expect("a scalar tile always fits"),
        ),
    };
    macro_rules! run {
        ($j0:literal, $j1:literal, $one:literal) => {{
            let k = Tiles::<Op, N, $j0, $j1, $one> { plan: &plan, op };
            for_each_task(amps, qubits, split, |task| simd::run_tier(tier, &k, task))
        }};
    }
    // The all-ones combination sits in span 0 only if every qubit is inner.
    let one_span = plan.span[N - 1] == 0;
    match (plan.lane, one_span) {
        ([0, 0], true) => run!(0, 0, true),
        ([0, 0], false) => run!(0, 0, false),
        ([1, 0], true) => run!(1, 0, true),
        ([1, 0], false) => run!(1, 0, false),
        ([2, 0], true) => run!(2, 0, true),
        ([2, 0], false) => run!(2, 0, false),
        ([1, 2], true) => run!(1, 2, true),
        ([1, 2], false) => run!(1, 2, false),
        (lane, _) => unreachable!("lane bits {lane:?} for ascending qubits"),
    }
}

/// Sweep a pair-shape gate on qubit `q`.
#[inline]
fn sweep_pair<Op: TileOp<2>>(amps: &mut [C64], q: usize, op: Op) {
    sweep_gate_on(Tier::best(), amps, &[q], &op);
}

/// Sweep a quad-shape gate on qubits `q0 < q1`.
#[inline]
fn sweep_quad<Op: TileOp<4>>(amps: &mut [C64], q0: usize, q1: usize, op: Op) {
    sweep_gate_on(Tier::best(), amps, &[q0, q1], &op);
}

// ---- the diagonal table sweep ----------------------------------------------

/// Amplitudes per tile of the table sweep.
const TABLE_TILE: usize = 8;

/// The bits of `g` at the ascending positions `at`, packed together.
#[inline(always)]
fn gather_bits(g: usize, at: &[usize]) -> usize {
    at.iter()
        .enumerate()
        .fold(0, |acc, (i, &q)| acc | (((g >> q) & 1) << i))
}

/// `amp[i] *= table[bits of i at support]`, as a tiered kernel.
struct TableSweep<'a> {
    support: &'a [usize],
    table: &'a [C64],
}

impl Kernel for TableSweep<'_> {
    // `V` is unused: the body is plain Rust, compiled (and autovectorised)
    // with the features of the tier function it is inlined into.
    #[inline(always)]
    fn run<V: Vf>(&self, task: Task<'_>) {
        let [span, ..] = task.spans;
        if span.len() < TABLE_TILE {
            for (i, a) in span.iter_mut().enumerate() {
                *a *= self.table[gather_bits(task.base + i, self.support)];
            }
            return;
        }
        // Support bits inside a tile pick a lane pattern (fixed per call);
        // the ones above it pick the table row (fixed per tile).
        let lows = self
            .support
            .iter()
            .take_while(|&&q| 1 << q < TABLE_TILE)
            .count();
        let (low, high) = self.support.split_at(lows);
        let mut lane_offset = [0usize; TABLE_TILE];
        for (l, o) in lane_offset.iter_mut().enumerate() {
            *o = gather_bits(l, low);
        }
        for (t, tile) in span.chunks_exact_mut(TABLE_TILE).enumerate() {
            let row = gather_bits(task.base + t * TABLE_TILE, high) << lows;
            let (mut fr, mut fi) = ([0.0f64; TABLE_TILE], [0.0f64; TABLE_TILE]);
            for l in 0..TABLE_TILE {
                let f = self.table[row + lane_offset[l]];
                (fr[l], fi[l]) = (f.re, f.im);
            }
            for l in 0..TABLE_TILE {
                let a = tile[l];
                tile[l] = C64::new(a.re * fr[l] - a.im * fi[l], a.re * fi[l] + a.im * fr[l]);
            }
        }
    }
}

/// Diagonal operator given as a factor table over the ascending `support`
/// qubits: `amp[i] *= table[b]`, where bit `k` of `b` is bit `support[k]`
/// of `i`. One blockwise pass whatever the number of source terms; an empty
/// support scales the whole slice by `table[0]`.
///
/// # Panics
///
/// Panics if `table` is shorter than `2^support.len()`.
pub(crate) fn apply_diag_table(amps: &mut [C64], support: &[usize], table: &[C64]) {
    assert!(table.len() >> support.len() >= 1, "table too short");
    debug_assert!(support.windows(2).all(|w| w[0] < w[1]), "support ascends");
    sweep_on(Tier::best(), amps, &TableSweep { support, table });
}

/// Run `f(offset, span)` over contiguous spans covering `amps` — serial
/// below [`par_min_len`], pool tasks with the usual grain floor above it.
/// For per-amplitude work that has no tiered kernel.
pub(crate) fn for_each_span<F>(amps: &mut [C64], f: F)
where
    F: Fn(usize, &mut [C64]) + Sync,
{
    let split = Split::of(amps.len(), &[]);
    for_each_task(amps, &[], split, |task| {
        let [span, ..] = task.spans;
        f(task.base, span)
    });
}

// ---- reduction kernels ----------------------------------------------------

/// Squared 2-norm `Σ |a_i|²` with the standard [`par_min_len`] switch.
pub fn norm_sqr_amps(amps: &[C64]) -> f64 {
    if amps.len() < par_min_len() {
        amps.iter().map(|a| a.norm_sqr()).sum()
    } else {
        amps.par_iter().map(|a| a.norm_sqr()).sum()
    }
}

/// Scale every amplitude by the real factor `s`.
pub fn scale_amps(amps: &mut [C64], s: f64) {
    if amps.len() < par_min_len() {
        amps.iter_mut().for_each(|a| *a *= s);
    } else {
        amps.par_iter_mut().for_each(|a| *a *= s);
    }
}

/// Inner product `Σ conj(a_i)·b_i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn inner_amps(a: &[C64], b: &[C64]) -> C64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.len() < par_min_len() {
        a.iter().zip(b.iter()).map(|(x, y)| x.conj() * y).sum()
    } else {
        a.par_iter()
            .zip(b.par_iter())
            .map(|(x, y)| x.conj() * y)
            .sum()
    }
}

/// The outcome distribution `|a_i|²` as a dense vector.
pub fn probabilities_amps(amps: &[C64]) -> Vec<f64> {
    if amps.len() < par_min_len() {
        amps.iter().map(|a| a.norm_sqr()).collect()
    } else {
        amps.par_iter().map(|a| a.norm_sqr()).collect()
    }
}

/// Marginal probability that bit `q` of the index reads 1.
pub fn marginal_one_amps(amps: &[C64], q: usize) -> f64 {
    let mask = 1usize << q;
    if amps.len() < par_min_len() {
        amps.iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    } else {
        amps.par_iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }
}

// ---- gate kernels ---------------------------------------------------------

/// A dense row: the product of its first term, then one fused
/// multiply-add per remaining term, left to right (see [`Cv::mul_add_left`]).
#[inline(always)]
fn dense_row<V: Vf, const N: usize>(row: &[C64; N], x: [Cv<V>; N]) -> Cv<V> {
    let mut acc = x[0].mul_left(row[0]);
    for k in 1..N {
        acc = acc.mul_add_left(row[k], x[k]);
    }
    acc
}

struct Mat2Op<'m>(&'m Mat2);

impl TileOp<2> for Mat2Op<'_> {
    #[inline(always)]
    fn apply<V: Vf>(&self, v: [Cv<V>; 2]) -> [Cv<V>; 2] {
        let [r0, r1] = &self.0 .0;
        [dense_row(r0, v), dense_row(r1, v)]
    }
}

/// The matrices that take a cheaper body than the dense one.
const PAULI_X: Mat2 = Mat2::pauli_x();
const PAULI_Y: Mat2 = Mat2::pauli_y();
const HADAMARD: Mat2 = {
    let h = c64(FRAC_1_SQRT_2, 0.0);
    Mat2([[h, h], [h, c64(-FRAC_1_SQRT_2, 0.0)]])
};
const CX: Mat4 = permutation([0, 1, 3, 2]);
const SWAP: Mat4 = permutation([0, 2, 1, 3]);

/// The 4×4 permutation matrix with a one at `(r, to[r])` in every row.
const fn permutation(to: [usize; 4]) -> Mat4 {
    let mut m = [[c64(0.0, 0.0); 4]; 4];
    let mut r = 0;
    while r < 4 {
        m[r][to[r]] = c64(1.0, 0.0);
        r += 1;
    }
    Mat4(m)
}

/// Single-qubit unitary `m` on qubit `q`. An exact X, Y or H takes its own
/// body, any other matrix the dense one (see the module docs).
pub fn apply_mat2(amps: &mut [C64], q: usize, m: &Mat2) {
    mat2_on(Tier::best(), amps, q, m);
}

/// [`apply_mat2`] on `tier`.
fn mat2_on(tier: Tier, amps: &mut [C64], q: usize, m: &Mat2) {
    if *m == PAULI_X {
        sweep_gate_on(tier, amps, &[q], &XOp);
    } else if *m == PAULI_Y {
        let [[_, a01], [a10, _]] = PAULI_Y.0;
        sweep_gate_on(tier, amps, &[q], &AntiDiagOp(a01, a10));
    } else if *m == HADAMARD {
        sweep_gate_on(tier, amps, &[q], &HOp);
    } else {
        sweep_gate_on(tier, amps, &[q], &Mat2Op(m));
    }
}

struct XOp;

impl TileOp<2> for XOp {
    #[inline(always)]
    fn apply<V: Vf>(&self, [x, y]: [Cv<V>; 2]) -> [Cv<V>; 2] {
        [y, x]
    }
}

/// `[[0, a01], [a10, 0]]`.
struct AntiDiagOp(C64, C64);

impl TileOp<2> for AntiDiagOp {
    #[inline(always)]
    fn apply<V: Vf>(&self, [x, y]: [Cv<V>; 2]) -> [Cv<V>; 2] {
        [y.mul_left(self.0), x.mul_left(self.1)]
    }
}

struct HOp;

impl TileOp<2> for HOp {
    #[inline(always)]
    fn apply<V: Vf>(&self, [x, y]: [Cv<V>; 2]) -> [Cv<V>; 2] {
        [x.add(y).scale(FRAC_1_SQRT_2), x.sub(y).scale(FRAC_1_SQRT_2)]
    }
}

/// `diag(d[0], …, d[N-1])` over the gate-bit combinations.
struct DiagOp<const N: usize>([C64; N]);

impl<const N: usize> TileOp<N> for DiagOp<N> {
    #[inline(always)]
    fn apply<V: Vf>(&self, mut v: [Cv<V>; N]) -> [Cv<V>; N] {
        for (x, &d) in v.iter_mut().zip(&self.0) {
            *x = x.mul_right(d);
        }
        v
    }
}

/// Diagonal single-qubit operator `diag(d0, d1)` on qubit `q`
/// (covers Z, S, T, RZ, phase and the diagonal Kraus branches).
pub fn apply_diag1(amps: &mut [C64], q: usize, d0: C64, d1: C64) {
    sweep_pair(amps, q, DiagOp([d0, d1]));
}

/// Anti-diagonal single-qubit operator `[[0, a01], [a10, 0]]` on qubit `q`
/// (covers the jump branches of amplitude-damping-style Kraus channels).
pub fn apply_antidiag1(amps: &mut [C64], q: usize, a01: C64, a10: C64) {
    sweep_pair(amps, q, AntiDiagOp(a01, a10));
}

/// CNOT with control `c`, target `t`.
fn apply_cx(amps: &mut [C64], c: usize, t: usize) {
    let cmask = 1usize << c;
    for_each_pair_indexed(amps, t, move |idx, a, b| {
        if idx & cmask != 0 {
            std::mem::swap(a, b);
        }
    });
}

/// Diagonal two-qubit operator `diag(d00, d01, d10, d11)` on `(q_hi, q_lo)`
/// where the first index bit is `q_hi` (covers CZ, CPhase, RZZ).
pub fn apply_diag2(amps: &mut [C64], q_hi: usize, q_lo: usize, d: [C64; 4]) {
    // Tiles index by (upper qubit, lower qubit); transpose the middle
    // entries when the operator's first bit is the numerically lower one.
    if q_hi > q_lo {
        sweep_quad(amps, q_lo, q_hi, DiagOp(d));
    } else {
        sweep_quad(amps, q_hi, q_lo, DiagOp([d[0], d[2], d[1], d[3]]));
    }
}

/// Exchanges the `01` and `10` amplitudes of a tile.
struct SwapOp;

impl TileOp<4> for SwapOp {
    #[inline(always)]
    fn apply<V: Vf>(&self, [a00, a01, a10, a11]: [Cv<V>; 4]) -> [Cv<V>; 4] {
        [a00, a10, a01, a11]
    }
}

/// A dense two-qubit matrix on a tile. Tile slots are indexed by
/// (upper qubit, lower qubit); `SWAPPED` says the matrix's more significant
/// bit is the *lower* tile qubit, so slot `s` holds logical index
/// `LOGICAL[s]`. Each row is summed in logical column order whatever the
/// physical order, so a gate gives the same bits on every placement of its
/// operands (a remapped operand on a distributed state included).
struct Mat4Op<'m, const SWAPPED: bool>(&'m Mat4);

impl<const SWAPPED: bool> Mat4Op<'_, SWAPPED> {
    /// Tile slot ↔ logical index (an involution).
    const LOGICAL: [usize; 4] = if SWAPPED { [0, 2, 1, 3] } else { [0, 1, 2, 3] };
}

impl<const SWAPPED: bool> TileOp<4> for Mat4Op<'_, SWAPPED> {
    #[inline(always)]
    fn apply<V: Vf>(&self, v: [Cv<V>; 4]) -> [Cv<V>; 4] {
        let p = Self::LOGICAL;
        let logical = [v[p[0]], v[p[1]], v[p[2]], v[p[3]]];
        let mut out = v;
        for (o, &l) in out.iter_mut().zip(&p) {
            *o = dense_row(&self.0 .0[l], logical);
        }
        out
    }
}

/// Two-qubit unitary `m`. `q_hi` indexes the more significant matrix bit
/// (the gate's first qubit), `q_lo` the less significant. An exact CX
/// (controlled by `q_hi`) or SWAP takes its own body, any other matrix the
/// dense one (see the module docs).
pub fn apply_mat4(amps: &mut [C64], q_hi: usize, q_lo: usize, m: &Mat4) {
    mat4_on(Tier::best(), amps, q_hi, q_lo, m);
}

/// [`apply_mat4`] on `tier` (the CX body has no tiers).
fn mat4_on(tier: Tier, amps: &mut [C64], q_hi: usize, q_lo: usize, m: &Mat4) {
    let (q0, q1) = (q_hi.min(q_lo), q_hi.max(q_lo));
    if *m == CX {
        apply_cx(amps, q_hi, q_lo);
    } else if *m == SWAP {
        sweep_gate_on(tier, amps, &[q0, q1], &SwapOp);
    } else if q_hi > q_lo {
        sweep_gate_on(tier, amps, &[q0, q1], &Mat4Op::<false>(m));
    } else {
        sweep_gate_on(tier, amps, &[q0, q1], &Mat4Op::<true>(m));
    }
}

/// Toffoli with controls `c1`, `c2` and target `t`.
pub fn apply_ccx(amps: &mut [C64], c1: usize, c2: usize, t: usize) {
    let mask = (1usize << c1) | (1usize << c2);
    for_each_pair_indexed(amps, t, move |idx, a, b| {
        if idx & mask == mask {
            std::mem::swap(a, b);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::c64;

    /// `par_min_len` is process-wide: tests that move it (or that compare
    /// against runs at a fixed value) take turns, and leave it as found.
    static PAR_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct ParKnob {
        saved: usize,
        _turn: std::sync::MutexGuard<'static, ()>,
    }

    impl ParKnob {
        fn hold() -> Self {
            let turn = PAR_KNOB.lock().unwrap_or_else(|e| e.into_inner());
            ParKnob {
                saved: par_min_len(),
                _turn: turn,
            }
        }
    }

    impl Drop for ParKnob {
        fn drop(&mut self) {
            set_par_min_len(self.saved);
        }
    }

    fn basis(n: usize, idx: usize) -> Vec<C64> {
        let mut v = vec![c64(0.0, 0.0); 1 << n];
        v[idx] = c64(1.0, 0.0);
        v
    }

    #[test]
    fn x_flips_bit() {
        let mut v = basis(3, 0b000);
        apply_mat2(&mut v, 1, &PAULI_X);
        assert_eq!(v[0b010], c64(1.0, 0.0));
    }

    #[test]
    fn cx_only_when_control_set() {
        let mut v = basis(2, 0b01); // q0 = 1 (control)
        apply_cx(&mut v, 0, 1);
        assert_eq!(v[0b11], c64(1.0, 0.0));
        let mut v = basis(2, 0b00);
        apply_cx(&mut v, 0, 1);
        assert_eq!(v[0b00], c64(1.0, 0.0));
    }

    #[test]
    fn ccx_needs_both_controls() {
        let mut v = basis(3, 0b011);
        apply_ccx(&mut v, 0, 1, 2);
        assert_eq!(v[0b111], c64(1.0, 0.0));
        let mut v = basis(3, 0b001);
        apply_ccx(&mut v, 0, 1, 2);
        assert_eq!(v[0b001], c64(1.0, 0.0));
    }

    #[test]
    fn swap_exchanges() {
        let mut v = basis(2, 0b01);
        apply_mat4(&mut v, 0, 1, &SWAP);
        assert_eq!(v[0b10], c64(1.0, 0.0));
    }

    #[test]
    fn h_twice_is_identity() {
        let mut v = basis(4, 0b1010);
        apply_mat2(&mut v, 3, &HADAMARD);
        apply_mat2(&mut v, 3, &HADAMARD);
        assert!((v[0b1010] - c64(1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn diag2_applies_by_bit_pattern() {
        let mut v = vec![c64(1.0, 0.0); 4];
        apply_diag2(
            &mut v,
            1,
            0,
            [c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0), c64(4.0, 0.0)],
        );
        assert_eq!(
            v,
            vec![c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0), c64(4.0, 0.0)]
        );
    }

    #[test]
    fn antidiag_jump() {
        // K = [[0, 1], [0, 0]] maps |1> to |0>.
        let mut v = basis(1, 1);
        apply_antidiag1(&mut v, 0, c64(1.0, 0.0), c64(0.0, 0.0));
        assert_eq!(v[0], c64(1.0, 0.0));
        assert_eq!(v[1], c64(0.0, 0.0));
    }

    // ---- tier parity grid -------------------------------------------------

    /// A dense state with no two amplitudes alike.
    fn scrambled(n: usize) -> Vec<C64> {
        (0..1usize << n)
            .map(|i| {
                let x = i as f64;
                c64(
                    (0.37 * x + 0.1).sin(),
                    (0.91 * x - 0.4).cos() / (1.0 + 0.01 * x),
                )
            })
            .collect()
    }

    fn dense2() -> Mat2 {
        tqsim_circuit::GateKind::U3(0.3, 0.7, 1.1)
            .matrix1()
            .unwrap()
    }

    fn dense4() -> Mat4 {
        let other = tqsim_circuit::GateKind::U3(1.9, -0.2, 0.5)
            .matrix1()
            .unwrap();
        let fsim = tqsim_circuit::GateKind::FSim(0.5, 0.2).matrix2().unwrap();
        dense2().kron(&other).mul(&fsim).mul(&other.kron(&dense2()))
    }

    /// The dense-row sequence in scalar `f64`: the `C64` product of the
    /// first term, then one `f64::mul_add` per real product of each
    /// remaining term, in `C64::mul`'s order.
    fn naive_row(row: &[C64], x: &[C64]) -> C64 {
        let mut acc = row[0] * x[0];
        for (m, x) in row.iter().zip(x).skip(1) {
            acc.re = m.re.mul_add(x.re, acc.re);
            acc.re = (-m.im).mul_add(x.im, acc.re);
            acc.im = m.re.mul_add(x.im, acc.im);
            acc.im = m.im.mul_add(x.re, acc.im);
        }
        acc
    }

    /// Naive index-arithmetic reference for a pair-shape gate: `f(x, y)`
    /// on every `(i, i | 1 << q)` with bit `q` of `i` clear.
    fn naive_pair(v: &mut [C64], q: usize, f: impl Fn(C64, C64) -> (C64, C64)) {
        for i in 0..v.len() {
            if i >> q & 1 == 0 {
                let j = i | 1 << q;
                (v[i], v[j]) = f(v[i], v[j]);
            }
        }
    }

    /// Naive reference for a quad-shape gate on `q0 < q1`: `f` on
    /// `[a00, a01, a10, a11]`, first index bit `q1`.
    fn naive_quad(v: &mut [C64], q0: usize, q1: usize, f: impl Fn([C64; 4]) -> [C64; 4]) {
        for i in 0..v.len() {
            if i >> q0 & 1 == 0 && i >> q1 & 1 == 0 {
                let at = [i, i | 1 << q0, i | 1 << q1, i | 1 << q0 | 1 << q1];
                let out = f(at.map(|k| v[k]));
                for (k, o) in at.into_iter().zip(out) {
                    v[k] = o;
                }
            }
        }
    }

    /// Naive reference for a dense `mat4`, indexed by logical bits
    /// (`q_hi` the more significant), each row summed in column order.
    fn naive_mat4(v: &mut [C64], q_hi: usize, q_lo: usize, m: &Mat4) {
        for i in 0..v.len() {
            if i >> q_hi & 1 == 0 && i >> q_lo & 1 == 0 {
                let at = [i, i | 1 << q_lo, i | 1 << q_hi, i | 1 << q_hi | 1 << q_lo];
                let x = at.map(|k| v[k]);
                for (k, row) in at.into_iter().zip(&m.0) {
                    v[k] = naive_row(row, &x);
                }
            }
        }
    }

    /// One kernel of the grid: how to run it on a tier, through the
    /// dispatched entry point, and naively.
    struct Case<'a> {
        name: String,
        on_tier: &'a dyn Fn(Tier, &mut [C64]),
        dispatched: &'a dyn Fn(&mut [C64]),
        naive: &'a dyn Fn(&mut [C64]),
    }

    /// `assert_eq!` on amplitudes between every detected tier, the
    /// dispatched entry point and the naive reference.
    fn check(n: usize, case: &Case<'_>) {
        let init = scrambled(n);
        let mut want = init.clone();
        (case.naive)(&mut want);
        let mut got = init.clone();
        (case.dispatched)(&mut got);
        assert_eq!(got, want, "{} n={n}: dispatched != naive", case.name);
        for (tier_name, tier) in Tier::all() {
            let Some(tier) = tier else { continue };
            let mut got = init.clone();
            (case.on_tier)(tier, &mut got);
            assert_eq!(got, want, "{} n={n}: tier {tier_name} != naive", case.name);
        }
    }

    /// Every rewritten kernel at every qubit placement of an `n`-qubit
    /// state (each `q0`, both operand orders, adjacent and far pairs).
    fn grid(n: usize) {
        let (m2, m4) = (dense2(), dense4());
        let (d0, d1) = (c64(0.6, -0.8), c64(-0.28, 0.96));
        let d4 = [c64(1.0, 0.0), c64(0.0, 1.0), d0, d1];
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let (i, mi) = (c64(0.0, 1.0), c64(0.0, -1.0));
        for q in 0..n {
            let pair = |name: &str,
                        on_tier: &dyn Fn(Tier, &mut [C64]),
                        dispatched: &dyn Fn(&mut [C64]),
                        f: &dyn Fn(C64, C64) -> (C64, C64)| {
                check(
                    n,
                    &Case {
                        name: format!("{name}({q})"),
                        on_tier,
                        dispatched,
                        naive: &|v| naive_pair(v, q, f),
                    },
                );
            };
            let [r0, r1] = &m2.0;
            pair(
                "mat2",
                &|t, v| sweep_gate_on(t, v, &[q], &Mat2Op(&m2)),
                &|v| apply_mat2(v, q, &m2),
                &|x, y| (naive_row(r0, &[x, y]), naive_row(r1, &[x, y])),
            );
            pair(
                "h",
                &|t, v| sweep_gate_on(t, v, &[q], &HOp),
                &|v| apply_mat2(v, q, &HADAMARD),
                &|x, y| ((x + y) * s, (x - y) * s),
            );
            pair(
                "x",
                &|t, v| sweep_gate_on(t, v, &[q], &XOp),
                &|v| apply_mat2(v, q, &PAULI_X),
                &|x, y| (y, x),
            );
            pair(
                "y",
                &|t, v| sweep_gate_on(t, v, &[q], &AntiDiagOp(mi, i)),
                &|v| apply_mat2(v, q, &PAULI_Y),
                &|x, y| (mi * y, i * x),
            );
            pair(
                "antidiag1",
                &|t, v| sweep_gate_on(t, v, &[q], &AntiDiagOp(d0, d1)),
                &|v| apply_antidiag1(v, q, d0, d1),
                &|x, y| (d0 * y, d1 * x),
            );
            pair(
                "diag1",
                &|t, v| sweep_gate_on(t, v, &[q], &DiagOp([d0, d1])),
                &|v| apply_diag1(v, q, d0, d1),
                &|x, y| (x * d0, y * d1),
            );
            // The surviving closure driver obeys the same split.
            for c in (0..n).filter(|&c| c != q) {
                check(
                    n,
                    &Case {
                        name: format!("cx({c},{q})"),
                        on_tier: &|_, v| apply_cx(v, c, q),
                        dispatched: &|v| apply_mat4(v, c, q, &CX),
                        naive: &|v| {
                            for k in 0..v.len() {
                                if k >> q & 1 == 0 && k >> c & 1 == 1 {
                                    v.swap(k, k | 1 << q);
                                }
                            }
                        },
                    },
                );
            }
        }
        for q_hi in 0..n {
            for q_lo in (0..n).filter(|&q| q != q_hi) {
                let (q0, q1) = (q_hi.min(q_lo), q_hi.max(q_lo));
                check(
                    n,
                    &Case {
                        name: format!("mat4({q_hi},{q_lo})"),
                        on_tier: &|t, v| mat4_on(t, v, q_hi, q_lo, &m4),
                        dispatched: &|v| apply_mat4(v, q_hi, q_lo, &m4),
                        naive: &|v| naive_mat4(v, q_hi, q_lo, &m4),
                    },
                );
                let d_ordered = if q_hi > q_lo {
                    d4
                } else {
                    [d4[0], d4[2], d4[1], d4[3]]
                };
                check(
                    n,
                    &Case {
                        name: format!("diag2({q_hi},{q_lo})"),
                        on_tier: &|t, v| sweep_gate_on(t, v, &[q0, q1], &DiagOp(d_ordered)),
                        dispatched: &|v| apply_diag2(v, q_hi, q_lo, d4),
                        naive: &|v| {
                            for (k, a) in v.iter_mut().enumerate() {
                                *a *= d4[(k >> q_hi & 1) << 1 | (k >> q_lo & 1)];
                            }
                        },
                    },
                );
                check(
                    n,
                    &Case {
                        name: format!("swap({q_hi},{q_lo})"),
                        on_tier: &|t, v| sweep_gate_on(t, v, &[q0, q1], &SwapOp),
                        dispatched: &|v| apply_mat4(v, q_hi, q_lo, &SWAP),
                        naive: &|v| naive_quad(v, q0, q1, |[a, b, c, d]| [a, c, b, d]),
                    },
                );
            }
        }
        // The table sweep over 0-, 1-, 3- and 6-qubit supports, low and high.
        let table: Vec<C64> = (0..64)
            .map(|k| C64::from_polar(1.0 + 0.01 * k as f64, 0.3 * k as f64))
            .collect();
        let supports: [&[usize]; 7] = [
            &[],
            &[0],
            &[2],
            &[0, 1, 2],
            &[1, 3, 5],
            &[3, 4, 5],
            &[0, 1, 2, 3, 4, 5],
        ];
        for support in supports {
            if support.last().is_some_and(|&top| top >= n) {
                continue;
            }
            // On wide states, move the top support qubit to the top qubit.
            let mut support = support.to_vec();
            if let (Some(top), true) = (support.last_mut(), n > 6) {
                *top = n - 1;
            }
            let support = &support[..];
            check(
                n,
                &Case {
                    name: format!("diag_table{support:?}"),
                    on_tier: &|t, v| {
                        sweep_on(
                            t,
                            v,
                            &TableSweep {
                                support,
                                table: &table,
                            },
                        )
                    },
                    dispatched: &|v| apply_diag_table(v, support, &table),
                    naive: &|v| {
                        for (k, a) in v.iter_mut().enumerate() {
                            *a *= table[gather_bits(k, support)];
                        }
                    },
                },
            );
        }
    }

    #[test]
    fn tier_parity_grid_serial() {
        for (name, tier) in Tier::all() {
            match tier {
                Some(_) => println!("tier {name}: detected, exercised"),
                None => println!("tier {name}: not detected on this CPU, skipped"),
            }
        }
        println!("dispatched tier: {}", kernel_tier());
        let _knob = ParKnob::hold();
        for n in [1, 2, 3, 4, 5, 6, 10] {
            grid(n);
        }
    }

    /// The same grid with every sweep forced onto the amplitude pool, up to
    /// n = 14 (128 tasks, spans shorter than some gates' reach), and n = 14
    /// once more at the production threshold (4 tasks of 4096).
    #[test]
    fn tier_parity_grid_pooled() {
        let _knob = ParKnob::hold();
        set_par_min_len(1);
        for n in [1, 2, 3, 4, 5, 6, 10, 14] {
            grid(n);
        }
        set_par_min_len(DEFAULT_PAR_MIN_LEN);
        grid(14);
    }

    /// The dense `Mat4Op` body on `tier`, whatever the matrix.
    fn dense_mat4_on(tier: Tier, v: &mut [C64], q_hi: usize, q_lo: usize, m: &Mat4) {
        if q_hi > q_lo {
            sweep_gate_on(tier, v, &[q_lo, q_hi], &Mat4Op::<false>(m));
        } else {
            sweep_gate_on(tier, v, &[q_hi, q_lo], &Mat4Op::<true>(m));
        }
    }

    fn assert_close(got: &[C64], want: &[C64], tol: f64, what: &str) {
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).norm() < tol, "{what}: amplitude {k}: {a} vs {b}");
        }
    }

    /// A kernel applied in place.
    type Body<'a> = &'a dyn Fn(&mut [C64]);

    /// `apply_mat2` / `apply_mat4` pick the X, Y, H, CX and SWAP bodies by
    /// exact matrix equality, on every tier and qubit placement: each pick
    /// is bit for bit its body — a CX keeps its control on the more
    /// significant matrix bit whichever qubit is lower — and within 1e-15
    /// of the dense body, and a matrix one ulp off H takes the dense body.
    #[test]
    fn selection_by_matrix_is_exact_and_keeps_orientation() {
        assert_eq!(PAULI_X, tqsim_circuit::GateKind::X.matrix1().unwrap());
        assert_eq!(PAULI_Y, tqsim_circuit::GateKind::Y.matrix1().unwrap());
        assert_eq!(HADAMARD, tqsim_circuit::GateKind::H.matrix1().unwrap());
        assert_eq!(CX, tqsim_circuit::GateKind::Cx.matrix2().unwrap());
        assert_eq!(SWAP, tqsim_circuit::GateKind::Swap.matrix2().unwrap());
        let mut near_h = HADAMARD;
        near_h.0[0][0].re = f64::from_bits(FRAC_1_SQRT_2.to_bits() + 1);
        let (i, mi) = (c64(0.0, 1.0), c64(0.0, -1.0));
        for n in [6, 10] {
            let init = scrambled(n);
            let run = |f: &dyn Fn(&mut [C64])| {
                let mut v = init.clone();
                f(&mut v);
                v
            };
            for (tier_name, tier) in Tier::all() {
                let Some(tier) = tier else { continue };
                for q in 0..n {
                    let bodies: [(&str, Mat2, Body<'_>); 3] = [
                        ("x", PAULI_X, &|v| sweep_gate_on(tier, v, &[q], &XOp)),
                        ("y", PAULI_Y, &|v| {
                            sweep_gate_on(tier, v, &[q], &AntiDiagOp(mi, i))
                        }),
                        ("h", HADAMARD, &|v| sweep_gate_on(tier, v, &[q], &HOp)),
                    ];
                    for (name, m, body) in bodies {
                        let what = format!("{name}({q}) n={n} on {tier_name}");
                        let got = run(&|v| mat2_on(tier, v, q, &m));
                        assert_eq!(got, run(body), "{what}: not its own body");
                        let dense = run(&|v| sweep_gate_on(tier, v, &[q], &Mat2Op(&m)));
                        assert_close(&got, &dense, 1e-15, &what);
                    }
                    let got = run(&|v| mat2_on(tier, v, q, &near_h));
                    let dense = run(&|v| sweep_gate_on(tier, v, &[q], &Mat2Op(&near_h)));
                    assert_eq!(got, dense, "near-H({q}) n={n} on {tier_name}");
                    let h_body = run(&|v| sweep_gate_on(tier, v, &[q], &HOp));
                    assert_ne!(got, h_body, "near-H({q}) took the H body");
                }
                for q_hi in 0..n {
                    for q_lo in (0..n).filter(|&q| q != q_hi) {
                        let (q0, q1) = (q_hi.min(q_lo), q_hi.max(q_lo));
                        let bodies: [(&str, Mat4, Body<'_>); 2] = [
                            ("cx", CX, &|v| apply_cx(v, q_hi, q_lo)),
                            ("swap", SWAP, &|v| {
                                sweep_gate_on(tier, v, &[q0, q1], &SwapOp)
                            }),
                        ];
                        for (name, m, body) in bodies {
                            let what = format!("{name}({q_hi},{q_lo}) n={n} on {tier_name}");
                            let got = run(&|v| mat4_on(tier, v, q_hi, q_lo, &m));
                            assert_eq!(got, run(body), "{what}: not its own body");
                            let dense = run(&|v| dense_mat4_on(tier, v, q_hi, q_lo, &m));
                            assert_close(&got, &dense, 1e-15, &what);
                        }
                    }
                }
            }
        }
    }

    /// A dense `mat4` gives the same bits whichever physical qubit carries
    /// which operand: relabelling qubits `p` and `r` by a swap, applying the
    /// gate with its operand roles exchanged and swapping back is
    /// `apply_mat4(p, r)` itself, on every tier. (A distributed state
    /// remaps a global operand onto a scratch qubit exactly this way.)
    #[test]
    fn mat4_is_bit_identical_under_operand_relabelling() {
        let m4 = dense4();
        for n in [6, 10] {
            let init = scrambled(n);
            for p in 0..n {
                for r in (0..n).filter(|&r| r != p) {
                    let mut want = init.clone();
                    apply_mat4(&mut want, p, r, &m4);
                    for (tier_name, tier) in Tier::all() {
                        let Some(tier) = tier else { continue };
                        let swap =
                            |v: &mut [C64]| sweep_gate_on(tier, v, &[p.min(r), p.max(r)], &SwapOp);
                        let mut got = init.clone();
                        swap(&mut got);
                        mat4_on(tier, &mut got, r, p, &m4);
                        swap(&mut got);
                        assert_eq!(got, want, "n={n} mat4({p},{r}) on {tier_name}");
                    }
                }
            }
        }
    }

    /// `DiagRun::apply_offset` on each quarter of the array equals
    /// `DiagRun::apply` on the whole, for 1-, 2- and 6-term runs whose
    /// support reaches into the slice-selecting qubits.
    #[test]
    fn diag_run_per_slice_equals_whole_array() {
        use crate::plan::DiagRun;
        let n = 8u16;
        let phase = |k: usize| C64::from_polar(1.0, 0.41 * k as f64 + 0.2);
        let mut one = DiagRun::new();
        one.push1(7, [phase(1), phase(2)]);
        let mut one_low = DiagRun::new();
        one_low.push1(1, [phase(3), phase(4)]);
        let mut one_pair = DiagRun::new();
        one_pair.push2(6, 2, [phase(5), phase(6), phase(7), phase(8)]);
        let mut two = DiagRun::new();
        two.push1(0, [phase(1), phase(2)]);
        two.push2(7, 3, [phase(3), phase(4), phase(5), phase(6)]);
        let mut six = DiagRun::new();
        six.push1(0, [phase(1), phase(2)]);
        six.push1(6, [phase(3), phase(4)]);
        six.push2(1, 4, [phase(5), phase(6), phase(7), phase(8)]);
        six.push2(7, 2, [phase(9), phase(10), phase(11), phase(12)]);
        six.push2(5, 3, [phase(13), phase(14), phase(15), phase(16)]);
        six.push2(6, 7, [phase(17), phase(18), phase(19), phase(20)]);
        let mut full = six.clone();
        full.push2(5, 0, [phase(21), phase(22), phase(23), phase(24)]);
        for (name, run) in [
            ("1-term", one),
            ("1-term low", one_low),
            ("1-term pair", one_pair),
            ("2-term", two),
            ("6-term", six),
            ("full-support", full),
        ] {
            let mut whole = scrambled(n as usize);
            let mut sliced = whole.clone();
            // The per-amplitude factor, in term order, is the definition.
            let mut want = whole.clone();
            for (g, a) in want.iter_mut().enumerate() {
                let mut f = c64(1.0, 0.0);
                for &(q, d) in run.terms1() {
                    f *= d[g >> q & 1];
                }
                for &(a_q, b_q, d) in run.terms2() {
                    f *= d[(g >> a_q & 1) << 1 | (g >> b_q & 1)];
                }
                *a *= if run.terms() == 1 {
                    f_single(&run, g)
                } else {
                    f
                };
            }
            run.apply(&mut whole);
            let quarter = sliced.len() / 4;
            for (k, slice) in sliced.chunks_exact_mut(quarter).enumerate() {
                run.apply_offset(slice, k * quarter);
            }
            assert_eq!(whole, want, "{name}: apply != per-amplitude factor");
            assert_eq!(sliced, whole, "{name}: per-slice != whole array");
        }
    }

    /// A single-term run multiplies by the term's own entry, not `1·entry`.
    fn f_single(run: &crate::plan::DiagRun, g: usize) -> C64 {
        match (run.terms1(), run.terms2()) {
            (&[(q, d)], []) => d[g >> q & 1],
            ([], &[(a, b, d)]) => d[(g >> a & 1) << 1 | (g >> b & 1)],
            _ => unreachable!("not a single-term run"),
        }
    }
}
