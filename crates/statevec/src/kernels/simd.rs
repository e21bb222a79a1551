//! ISA tiers for the amplitude kernels: the vector-of-`f64` abstraction the
//! gate-shape bodies are written against, its three instantiations, and the
//! one place a tier is selected.
//!
//! A tier is **observed from the platform, never set**: [`Tier::best`] asks
//! `is_x86_feature_detected!` and nothing else — there is no environment
//! variable, Cargo feature or build flag. Other architectures build the
//! portable instantiation only.
//!
//! The vector types are private to this module, so the only way to
//! instantiate a body with one is [`run_tier`], which holds the crate's
//! single `unsafe` call into a `#[target_feature]` function; the intrinsic
//! calls inside the [`Vf`] impls are sound because of that seal (see the
//! `SAFETY` notes).
//!
//! Amplitude loads and stores are unchecked, and only two safe types here
//! reach them: [`TileCursor`] (the gate-shape tiles) and [`FactorTable`]
//! (the diagonal table sweep). Each checks its bounds once, in its
//! constructor, for the whole task; every access after that is in range by
//! construction, whatever the caller passes.

use super::{Task, C64};
use std::cell::Cell;
use std::marker::PhantomData;

/// A vector of `f64` lanes holding one component (all real parts, or all
/// imaginary parts) of [`Vf::LANES`] amplitudes.
///
/// Lane-wise `add`/`sub`/`mul` and the fused `mul_add`/`neg_mul_add`, each
/// rounded once (the fused forms round the exact `a·b ± c`, as
/// `f64::mul_add` does). Every tier performs the same scalar operation
/// sequence lane by lane, so results are bit-identical across tiers; they
/// are not bit-identical to unfused scalar `C64` arithmetic.
pub(super) trait Vf: Copy {
    /// Amplitudes per `(re, im)` register pair.
    const LANES: usize;
    /// Amplitudes per contiguous load. Vector tiers assemble a register
    /// pair from two such loads (`LANES == 2 * RAW`), de-interleaving
    /// `re`/`im` on the way in; the scalar tier reads one amplitude.
    const RAW: usize;

    /// All lanes equal to `x`.
    fn splat(x: f64) -> Self;
    /// Lane-wise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `self * b + c`, rounded once.
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Lane-wise `c - self * b`, rounded once.
    fn neg_mul_add(self, b: Self, c: Self) -> Self;

    /// Load `RAW` amplitudes at `p.add(i)` and (vector tiers) `RAW` more at
    /// `p.add(j)` as split `(re, im)` registers. Lane bit 0 selects the
    /// `i`/`j` half; lane bit `b + 1` is bit `b` of the offset within it.
    ///
    /// # Safety
    ///
    /// `RAW` amplitudes from `p.add(i)` and from `p.add(j)` must lie inside
    /// one live allocation that may be read. [`TileCursor`] is the only
    /// caller.
    unsafe fn load2(p: *const C64, i: usize, j: usize) -> (Self, Self);
    /// Inverse of [`Vf::load2`].
    ///
    /// # Safety
    ///
    /// As [`Vf::load2`], and the amplitudes may be written: `p` comes from
    /// a slice of `Cell`s, which permits writes through a shared borrow.
    unsafe fn store2(re: Self, im: Self, p: *mut C64, i: usize, j: usize);

    /// Exchange lane bit `J` with the bit that tells `x` from `y`: returns
    /// `(lo, hi)` where `lo` holds every element of the pair whose lane bit
    /// `J` was 0 and `hi` those where it was 1. An involution.
    fn swap_bit<const J: usize>(x: Self, y: Self) -> (Self, Self);

    /// Load `RAW` amplitudes at `p.add(i)` and `RAW` more at `p.add(j)` as
    /// two packed registers (see [`Vf::load_run`]), split by bit `Q` of
    /// the offset within a run: the first holds the amplitudes whose bit
    /// `Q` is 0, the second those whose bit `Q` is 1, each in index order
    /// (the `i` run's before the `j` run's). Vector tiers only,
    /// `2^Q < RAW`.
    ///
    /// # Safety
    ///
    /// As [`Vf::load2`].
    unsafe fn load_split<const Q: usize>(p: *const C64, i: usize, j: usize) -> (Self, Self);
    /// Inverse of [`Vf::load_split`]: each amplitude is stored straight to
    /// its place, so the way back costs no shuffle.
    ///
    /// # Safety
    ///
    /// As [`Vf::store2`].
    unsafe fn store_split<const Q: usize>(e0: Self, e1: Self, p: *mut C64, i: usize, j: usize);

    /// Load the `RAW` amplitudes at `p.add(i)` as they lie in memory, real
    /// and imaginary parts in adjacent lanes (vector tiers only).
    ///
    /// # Safety
    ///
    /// `RAW` amplitudes from `p.add(i)` must lie inside one live
    /// allocation that may be read. [`TileCursor`] is the only caller.
    unsafe fn load_run(p: *const C64, i: usize) -> Self;
    /// Inverse of [`Vf::load_run`].
    ///
    /// # Safety
    ///
    /// As [`Vf::load_run`], and the amplitudes may be written.
    unsafe fn store_run(v: Self, p: *mut C64, i: usize);
    /// Each even lane exchanged with the odd lane after it (vector tiers
    /// only).
    fn swap_pairs(self) -> Self;
    /// `even` in the even lanes, `odd` in the odd ones (vector tiers only).
    fn splat_pairs(even: f64, odd: f64) -> Self;
}

impl Vf for f64 {
    const LANES: usize = 1;
    const RAW: usize = 1;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        f64::mul_add(self, b, c)
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        f64::mul_add(-self, b, c)
    }
    #[inline(always)]
    unsafe fn load2(p: *const C64, i: usize, _j: usize) -> (Self, Self) {
        // SAFETY: the caller guarantees `p.add(i)` is a readable amplitude.
        let a = unsafe { p.add(i).read() };
        (a.re, a.im)
    }
    #[inline(always)]
    unsafe fn store2(re: Self, im: Self, p: *mut C64, i: usize, _j: usize) {
        // SAFETY: the caller guarantees `p.add(i)` is a writable amplitude.
        unsafe { p.add(i).write(C64::new(re, im)) }
    }
    #[inline(always)]
    fn swap_bit<const J: usize>(_x: Self, _y: Self) -> (Self, Self) {
        unreachable!("a scalar has no lane bits")
    }
    unsafe fn load_split<const Q: usize>(_p: *const C64, _i: usize, _j: usize) -> (Self, Self) {
        unreachable!("a scalar has no lane bits")
    }
    unsafe fn store_split<const Q: usize>(
        _e0: Self,
        _e1: Self,
        _p: *mut C64,
        _i: usize,
        _j: usize,
    ) {
        unreachable!("a scalar has no lane bits")
    }
    unsafe fn load_run(_p: *const C64, _i: usize) -> Self {
        unreachable!("a scalar holds no whole amplitude")
    }
    unsafe fn store_run(_v: Self, _p: *mut C64, _i: usize) {
        unreachable!("a scalar holds no whole amplitude")
    }
    fn swap_pairs(self) -> Self {
        unreachable!("a scalar has no lane pairs")
    }
    fn splat_pairs(_even: f64, _odd: f64) -> Self {
        unreachable!("a scalar has no lane pairs")
    }
}

/// The next tile base after `base` in the ascending walk over the subsets
/// of the `free` index bits; after the last (`free` itself) it wraps to 0.
/// One subtract and one AND: the borrow of `base − free` ripples through
/// the bits outside `free`, so the result is `base + 1` counted on the
/// `free` bits alone.
#[inline(always)]
pub(super) const fn next_subset(base: usize, free: usize) -> usize {
    base.wrapping_sub(free) & free
}

/// One task's tiles, bounds-checked once.
///
/// Gate-bit combination `c` of a tile reads and writes `RAW` amplitudes at
/// `base + off[c][0]` and at `base + off[c][1]` of its span `at[c]`. The
/// tile bases are the subsets of the `free` index bits, walked in ascending
/// order from 0 ([`next_subset`]). A base is a subset of `free`, so no
/// access reaches past `free + max(off) + RAW`: [`TileCursor::new`] asserts
/// that every span is at least that long, and the loads and stores after it
/// are unchecked. The cursor moves only through [`TileCursor::advance`], so
/// that holds whatever `off` and `free` the caller passes.
pub(super) struct TileCursor<'a, V, const N: usize> {
    /// Per gate-bit combination: the first amplitude of its span.
    at: [*mut C64; N],
    off: [[usize; 2]; N],
    free: usize,
    /// The current tile's base: always a subset of `free`.
    base: usize,
    _spans: PhantomData<(&'a [Cell<C64>], V)>,
}

impl<'a, V: Vf, const N: usize> TileCursor<'a, V, N> {
    /// A cursor at the first tile (base 0) of spans `at`.
    ///
    /// # Panics
    ///
    /// Panics if a span is shorter than `free + max(off) + V::RAW`.
    #[inline(always)]
    pub(super) fn new(at: [&'a [Cell<C64>]; N], off: [[usize; 2]; N], free: usize) -> Self {
        let max_off = off.iter().flatten().fold(0, |m, &o| m.max(o));
        let reach = free
            .checked_add(max_off)
            .and_then(|r| r.checked_add(V::RAW));
        assert!(
            reach.is_some_and(|reach| at.iter().all(|s| s.len() >= reach)),
            "a tile reaches beyond its span"
        );
        TileCursor {
            at: at.map(|s| s.as_ptr().cast::<C64>().cast_mut()),
            off,
            free,
            base: 0,
            _spans: PhantomData,
        }
    }

    /// Combination `c` of the current tile, as split `(re, im)` registers.
    #[inline(always)]
    pub(super) fn load(&self, c: usize) -> (V, V) {
        let [i, j] = self.off[c];
        // SAFETY: `base` is a subset of `free`, so `base ≤ free`, and
        // `i, j ≤ max(off)`: both runs of `RAW` end at or before
        // `free + max(off) + RAW`, which `new` checked (without overflow)
        // against the length of the span `at[c]` points into. That span is
        // borrowed for `'a`, which outlives `self`.
        unsafe { V::load2(self.at[c], self.base + i, self.base + j) }
    }

    /// Store combination `c` of the current tile (inverse of `load`).
    #[inline(always)]
    pub(super) fn store(&self, c: usize, re: V, im: V) {
        let [i, j] = self.off[c];
        // SAFETY: in bounds as in `load`. The span is a slice of `Cell`s,
        // which may be written through the shared borrow `at[c]` came from.
        unsafe { V::store2(re, im, self.at[c], self.base + i, self.base + j) }
    }

    /// Combination `c` of the current tile as one packed register: its
    /// first run, as it lies in memory ([`Vf::load_run`]).
    #[inline(always)]
    pub(super) fn load_run(&self, c: usize) -> V {
        // SAFETY: `load_run` reads the first of `load2`'s two runs, in
        // bounds as in `load`.
        unsafe { V::load_run(self.at[c], self.base + self.off[c][0]) }
    }

    /// Store combination `c` of the current tile (inverse of `load_run`).
    #[inline(always)]
    pub(super) fn store_run(&self, c: usize, v: V) {
        // SAFETY: `store_run` writes the first of `store2`'s two runs, in
        // bounds and writable as in `store`.
        unsafe { V::store_run(v, self.at[c], self.base + self.off[c][0]) }
    }

    /// Combination `c` of the current tile as two packed registers, split
    /// by bit `Q` of the run offset ([`Vf::load_split`]).
    #[inline(always)]
    pub(super) fn load_split<const Q: usize>(&self, c: usize) -> (V, V) {
        let [i, j] = self.off[c];
        // SAFETY: `load_split` reads what `load2` reads, in bounds as in
        // `load`.
        unsafe { V::load_split::<Q>(self.at[c], self.base + i, self.base + j) }
    }

    /// Store combination `c` of the current tile (inverse of
    /// `load_split`).
    #[inline(always)]
    pub(super) fn store_split<const Q: usize>(&self, c: usize, e0: V, e1: V) {
        let [i, j] = self.off[c];
        // SAFETY: `store_split` writes what `store2` writes, in bounds and
        // writable as in `store`.
        unsafe { V::store_split::<Q>(e0, e1, self.at[c], self.base + i, self.base + j) }
    }

    /// Move to the next tile.
    #[inline(always)]
    pub(super) fn advance(&mut self) {
        self.base = next_subset(self.base, self.free);
    }
}

/// A diagonal factor table of `2^bits` entries, length-checked once:
/// [`FactorTable::get`] masks its index to the low `bits` bits and reads
/// unchecked.
pub(super) struct FactorTable<'a> {
    table: &'a [C64],
    /// `2^bits − 1`.
    mask: usize,
}

impl<'a> FactorTable<'a> {
    /// # Panics
    ///
    /// Panics if `table` is shorter than `2^bits`.
    #[inline(always)]
    pub(super) fn new(table: &'a [C64], bits: usize) -> Self {
        let size = u32::try_from(bits)
            .ok()
            .and_then(|b| 1usize.checked_shl(b))
            .filter(|&size| size <= table.len())
            .expect("table too short");
        FactorTable {
            table,
            mask: size - 1,
        }
    }

    /// Entry `i mod 2^bits`.
    #[inline(always)]
    pub(super) fn get(&self, i: usize) -> C64 {
        // SAFETY: `i & mask < 2^bits ≤ table.len()`, checked in `new`.
        unsafe { *self.table.get_unchecked(i & self.mask) }
    }
}

/// A body that can be compiled for any tier: one pool task's share of a
/// kernel sweep, written once against [`Vf`].
pub(super) trait Kernel: Sync {
    /// Run the kernel over `task` with vector type `V`. Implementations
    /// are `#[inline(always)]` so the body is compiled with the features of
    /// the tier function it is instantiated in.
    fn run<V: Vf>(&self, task: Task<'_>);
}

/// An instruction-set tier this CPU was observed to support.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tier(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The scalar tier, available everywhere.
    pub(crate) const PORTABLE: Tier = Tier(Isa::Portable);

    /// `(Vf::RAW, Vf::LANES)` of the tier's vector type.
    pub(super) fn shape(self) -> (usize, usize) {
        match self.0 {
            Isa::Portable => (f64::RAW, f64::LANES),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => (x86::F64x4::RAW, x86::F64x4::LANES),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => (x86::F64x8::RAW, x86::F64x8::LANES),
        }
    }

    /// Every tier, widest last, with `None` for those this CPU lacks.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<(&'static str, Option<Tier>)> {
        #[allow(unused_mut)]
        let mut tiers = vec![("portable", Some(Tier(Isa::Portable)))];
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            let avx512 = is_x86_feature_detected!("avx512f");
            tiers.push(("avx2", avx2.then_some(Tier(Isa::Avx2))));
            tiers.push(("avx512f", avx512.then_some(Tier(Isa::Avx512))));
        }
        tiers
    }

    /// The widest tier this CPU supports.
    #[inline]
    pub(crate) fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Tier(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Tier(Isa::Avx2);
            }
        }
        Tier(Isa::Portable)
    }

    /// The tier's name as printed by benches and tests.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }
}

/// Run `k` over `task` on `tier` — **the** dispatch site: every gate kernel,
/// serial or pooled, on every backend, enters its vector body here.
#[inline]
pub(super) fn run_tier<K: Kernel>(tier: Tier, k: &K, task: Task<'_>) {
    match tier.0 {
        Isa::Portable => k.run::<f64>(task),
        // SAFETY: a `Tier` naming an x86 ISA is only ever constructed by
        // `Tier::all`/`Tier::best` after `is_x86_feature_detected!` reported
        // its features on this CPU (AVX2 *and* FMA for this one), which is
        // the whole contract of calling a `#[target_feature]` function.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::run_avx2(k, task) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::run_avx512(k, task) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Kernel, Task, Vf, C64};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn run_avx2<K: Kernel>(k: &K, task: Task<'_>) {
        k.run::<F64x4>(task)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn run_avx512<K: Kernel>(k: &K, task: Task<'_>) {
        k.run::<F64x8>(task)
    }

    /// Four `f64` lanes (AVX2 + FMA). Private: nameable only by `run_avx2`.
    #[derive(Clone, Copy)]
    pub(super) struct F64x4(__m256d);

    /// Eight `f64` lanes (AVX-512F). Private: nameable only by
    /// `run_avx512`.
    #[derive(Clone, Copy)]
    pub(super) struct F64x8(__m512d);

    // Why the intrinsic calls below are sound: `F64x4`/`F64x8` cannot be
    // named outside this module, so their `Vf` impls are reachable only
    // through `run_avx2`/`run_avx512`, which `run_tier` calls only with a
    // detected `Tier`. Every method is `#[inline(always)]`, so it is also
    // *compiled* inside those functions, with their target features.

    impl Vf for F64x4 {
        const LANES: usize = 4;
        const RAW: usize = 2;

        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: AVX was detected (module note above).
            Self(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX was detected.
            Self(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX was detected.
            Self(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX was detected.
            Self(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul_add(self, b: Self, c: Self) -> Self {
            // SAFETY: FMA was detected.
            Self(unsafe { _mm256_fmadd_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn neg_mul_add(self, b: Self, c: Self) -> Self {
            // SAFETY: FMA was detected.
            Self(unsafe { _mm256_fnmadd_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        unsafe fn load2(p: *const C64, i: usize, j: usize) -> (Self, Self) {
            // SAFETY: AVX was detected; the caller guarantees two readable
            // amplitudes at each of `p.add(i)` and `p.add(j)` — `C64` is
            // `repr(C)`, so four `f64`s each — and the unaligned form is
            // used.
            unsafe {
                let x = _mm256_loadu_pd(p.add(i).cast());
                let y = _mm256_loadu_pd(p.add(j).cast());
                (
                    Self(_mm256_unpacklo_pd(x, y)),
                    Self(_mm256_unpackhi_pd(x, y)),
                )
            }
        }
        #[inline(always)]
        unsafe fn store2(re: Self, im: Self, p: *mut C64, i: usize, j: usize) {
            // SAFETY: AVX was detected; the caller guarantees two writable
            // amplitudes (four `f64`s) at each of `p.add(i)` and
            // `p.add(j)`; unaligned form.
            unsafe {
                _mm256_storeu_pd(p.add(i).cast(), _mm256_unpacklo_pd(re.0, im.0));
                _mm256_storeu_pd(p.add(j).cast(), _mm256_unpackhi_pd(re.0, im.0));
            }
        }
        #[inline(always)]
        fn swap_bit<const J: usize>(x: Self, y: Self) -> (Self, Self) {
            assert!(
                J == 1,
                "F64x4 has lane bits 0 and 1; bit 0 is the load2 half"
            );
            // SAFETY: AVX was detected.
            unsafe {
                (
                    Self(_mm256_permute2f128_pd::<0x20>(x.0, y.0)),
                    Self(_mm256_permute2f128_pd::<0x31>(x.0, y.0)),
                )
            }
        }
        #[inline(always)]
        unsafe fn load_split<const Q: usize>(p: *const C64, i: usize, j: usize) -> (Self, Self) {
            assert!(Q == 0, "F64x4 runs hold two amplitudes");
            // SAFETY: AVX was detected; the loads are those of `load2`
            // (the caller's guarantee). A 128-bit lane is one amplitude.
            unsafe {
                let x = _mm256_loadu_pd(p.add(i).cast());
                let y = _mm256_loadu_pd(p.add(j).cast());
                (
                    Self(_mm256_permute2f128_pd::<0x20>(x, y)),
                    Self(_mm256_permute2f128_pd::<0x31>(x, y)),
                )
            }
        }
        #[inline(always)]
        unsafe fn store_split<const Q: usize>(e0: Self, e1: Self, p: *mut C64, i: usize, j: usize) {
            assert!(Q == 0, "F64x4 runs hold two amplitudes");
            // SAFETY: AVX was detected; the four 128-bit stores are the
            // amplitudes `store2` writes (the caller's guarantee).
            unsafe {
                _mm_storeu_pd(p.add(i).cast(), _mm256_castpd256_pd128(e0.0));
                _mm_storeu_pd(p.add(j).cast(), _mm256_extractf128_pd::<1>(e0.0));
                _mm_storeu_pd(p.add(i + 1).cast(), _mm256_castpd256_pd128(e1.0));
                _mm_storeu_pd(p.add(j + 1).cast(), _mm256_extractf128_pd::<1>(e1.0));
            }
        }
        #[inline(always)]
        unsafe fn load_run(p: *const C64, i: usize) -> Self {
            // SAFETY: AVX was detected; the caller guarantees two readable
            // amplitudes (four `f64`s) at `p.add(i)`; unaligned form.
            Self(unsafe { _mm256_loadu_pd(p.add(i).cast()) })
        }
        #[inline(always)]
        unsafe fn store_run(v: Self, p: *mut C64, i: usize) {
            // SAFETY: AVX was detected; the caller guarantees two writable
            // amplitudes at `p.add(i)`; unaligned form.
            unsafe { _mm256_storeu_pd(p.add(i).cast(), v.0) }
        }
        #[inline(always)]
        fn swap_pairs(self) -> Self {
            // SAFETY: AVX was detected.
            Self(unsafe { _mm256_permute_pd::<0b0101>(self.0) })
        }
        #[inline(always)]
        fn splat_pairs(even: f64, odd: f64) -> Self {
            // SAFETY: AVX was detected.
            Self(unsafe { _mm256_blend_pd::<0b1010>(_mm256_set1_pd(even), _mm256_set1_pd(odd)) })
        }
    }

    impl Vf for F64x8 {
        const LANES: usize = 8;
        const RAW: usize = 4;

        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: AVX-512F was detected (module note above).
            Self(unsafe { _mm512_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul_add(self, b: Self, c: Self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_fmadd_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn neg_mul_add(self, b: Self, c: Self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_fnmadd_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        unsafe fn load2(p: *const C64, i: usize, j: usize) -> (Self, Self) {
            // SAFETY: AVX-512F was detected; the caller guarantees four
            // readable amplitudes at each of `p.add(i)` and `p.add(j)` —
            // `C64` is `repr(C)`, so eight `f64`s each — and the unaligned
            // form is used.
            unsafe {
                let x = _mm512_loadu_pd(p.add(i).cast());
                let y = _mm512_loadu_pd(p.add(j).cast());
                (
                    Self(_mm512_unpacklo_pd(x, y)),
                    Self(_mm512_unpackhi_pd(x, y)),
                )
            }
        }
        #[inline(always)]
        unsafe fn store2(re: Self, im: Self, p: *mut C64, i: usize, j: usize) {
            // SAFETY: AVX-512F was detected; the caller guarantees four
            // writable amplitudes (eight `f64`s) at each of `p.add(i)` and
            // `p.add(j)`; unaligned form.
            unsafe {
                _mm512_storeu_pd(p.add(i).cast(), _mm512_unpacklo_pd(re.0, im.0));
                _mm512_storeu_pd(p.add(j).cast(), _mm512_unpackhi_pd(re.0, im.0));
            }
        }
        #[inline(always)]
        fn swap_bit<const J: usize>(x: Self, y: Self) -> (Self, Self) {
            // SAFETY: AVX-512F was detected.
            unsafe {
                match J {
                    // Lanes 2,3,6,7 of `lo` come from lanes 0,1,4,5 of `y`
                    // (and the mirror image for `hi`).
                    1 => (
                        Self(_mm512_mask_permutex_pd::<0x44>(x.0, 0xCC, y.0)),
                        Self(_mm512_mask_permutex_pd::<0xEE>(y.0, 0x33, x.0)),
                    ),
                    2 => (
                        Self(_mm512_shuffle_f64x2::<0x44>(x.0, y.0)),
                        Self(_mm512_shuffle_f64x2::<0xEE>(x.0, y.0)),
                    ),
                    _ => unreachable!("F64x8 has lane bits 0..=2; bit 0 is the load2 half"),
                }
            }
        }
        #[inline(always)]
        unsafe fn load_split<const Q: usize>(p: *const C64, i: usize, j: usize) -> (Self, Self) {
            // SAFETY: AVX-512F was detected; the loads are those of
            // `load2` (the caller's guarantee). A 128-bit lane is one
            // amplitude: bit 0 of the run offset picks lanes 0, 2 / 1, 3,
            // bit 1 picks lanes 0, 1 / 2, 3.
            unsafe {
                let x = _mm512_loadu_pd(p.add(i).cast());
                let y = _mm512_loadu_pd(p.add(j).cast());
                match Q {
                    0 => (
                        Self(_mm512_shuffle_f64x2::<0x88>(x, y)),
                        Self(_mm512_shuffle_f64x2::<0xDD>(x, y)),
                    ),
                    1 => (
                        Self(_mm512_shuffle_f64x2::<0x44>(x, y)),
                        Self(_mm512_shuffle_f64x2::<0xEE>(x, y)),
                    ),
                    _ => unreachable!("F64x8 runs hold four amplitudes"),
                }
            }
        }
        #[inline(always)]
        unsafe fn store_split<const Q: usize>(e0: Self, e1: Self, p: *mut C64, i: usize, j: usize) {
            // SAFETY: AVX-512F was detected; every store writes amplitudes
            // `store2` writes (the caller's guarantee): lane `l` of `e_b`
            // is offset `(l & 1) << (1 - Q) | b << Q` of run `i` (`l < 2`)
            // or run `j` (`l ≥ 2`).
            unsafe {
                match Q {
                    0 => {
                        for (b, e) in [e0, e1].into_iter().enumerate() {
                            // `extractf32x4` moves the same 128 bits as
                            // `extractf64x2`, which needs AVX-512DQ.
                            let e = _mm512_castpd_ps(e.0);
                            _mm_storeu_ps(p.add(i + b).cast(), _mm512_castps512_ps128(e));
                            _mm_storeu_ps(p.add(i + b + 2).cast(), _mm512_extractf32x4_ps::<1>(e));
                            _mm_storeu_ps(p.add(j + b).cast(), _mm512_extractf32x4_ps::<2>(e));
                            _mm_storeu_ps(p.add(j + b + 2).cast(), _mm512_extractf32x4_ps::<3>(e));
                        }
                    }
                    1 => {
                        for (b, e) in [e0, e1].into_iter().enumerate() {
                            _mm256_storeu_pd(p.add(i + 2 * b).cast(), _mm512_castpd512_pd256(e.0));
                            _mm256_storeu_pd(
                                p.add(j + 2 * b).cast(),
                                _mm512_extractf64x4_pd::<1>(e.0),
                            );
                        }
                    }
                    _ => unreachable!("F64x8 runs hold four amplitudes"),
                }
            }
        }
        #[inline(always)]
        unsafe fn load_run(p: *const C64, i: usize) -> Self {
            // SAFETY: AVX-512F was detected; the caller guarantees four
            // readable amplitudes (eight `f64`s) at `p.add(i)`; unaligned
            // form.
            Self(unsafe { _mm512_loadu_pd(p.add(i).cast()) })
        }
        #[inline(always)]
        unsafe fn store_run(v: Self, p: *mut C64, i: usize) {
            // SAFETY: AVX-512F was detected; the caller guarantees four
            // writable amplitudes at `p.add(i)`; unaligned form.
            unsafe { _mm512_storeu_pd(p.add(i).cast(), v.0) }
        }
        #[inline(always)]
        fn swap_pairs(self) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_permute_pd::<0x55>(self.0) })
        }
        #[inline(always)]
        fn splat_pairs(even: f64, odd: f64) -> Self {
            // SAFETY: AVX-512F was detected.
            Self(unsafe { _mm512_mask_blend_pd(0xAA, _mm512_set1_pd(even), _mm512_set1_pd(odd)) })
        }
    }
}
