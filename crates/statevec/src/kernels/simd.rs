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

use super::{Task, C64};
use std::cell::Cell;

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

    /// Load `RAW` amplitudes at `s[i..]` and (vector tiers) `RAW` more at
    /// `s[j..]` as split `(re, im)` registers. Lane bit 0 selects the
    /// `i`/`j` half; lane bit `b + 1` is bit `b` of the offset within it.
    fn load2(s: &[Cell<C64>], i: usize, j: usize) -> (Self, Self);
    /// Inverse of [`Vf::load2`].
    fn store2(re: Self, im: Self, s: &[Cell<C64>], i: usize, j: usize);

    /// Exchange lane bit `J` with the bit that tells `x` from `y`: returns
    /// `(lo, hi)` where `lo` holds every element of the pair whose lane bit
    /// `J` was 0 and `hi` those where it was 1. An involution.
    fn swap_bit<const J: usize>(x: Self, y: Self) -> (Self, Self);
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
    fn load2(s: &[Cell<C64>], i: usize, _j: usize) -> (Self, Self) {
        let a = s[i].get();
        (a.re, a.im)
    }
    #[inline(always)]
    fn store2(re: Self, im: Self, s: &[Cell<C64>], i: usize, _j: usize) {
        s[i].set(C64::new(re, im));
    }
    #[inline(always)]
    fn swap_bit<const J: usize>(_x: Self, _y: Self) -> (Self, Self) {
        unreachable!("a scalar has no lane bits")
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
    use super::{Cell, Kernel, Task, Vf, C64};
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
        fn load2(s: &[Cell<C64>], i: usize, j: usize) -> (Self, Self) {
            let (a, b) = (&s[i..i + 2], &s[j..j + 2]);
            // SAFETY: AVX was detected; each pointer is to two in-bounds
            // `Cell<C64>`s — `Cell` is `repr(transparent)` and `C64` is
            // `repr(C)`, so four `f64`s — and the unaligned form is used.
            unsafe {
                let x = _mm256_loadu_pd(a.as_ptr().cast());
                let y = _mm256_loadu_pd(b.as_ptr().cast());
                (
                    Self(_mm256_unpacklo_pd(x, y)),
                    Self(_mm256_unpackhi_pd(x, y)),
                )
            }
        }
        #[inline(always)]
        fn store2(re: Self, im: Self, s: &[Cell<C64>], i: usize, j: usize) {
            let (a, b) = (&s[i..i + 2], &s[j..j + 2]);
            // SAFETY: AVX was detected; each store is to two in-bounds
            // `Cell<C64>`s (four `f64`s, as in `load2`), which may be
            // written through a shared reference; unaligned form.
            unsafe {
                _mm256_storeu_pd(a.as_ptr() as *mut f64, _mm256_unpacklo_pd(re.0, im.0));
                _mm256_storeu_pd(b.as_ptr() as *mut f64, _mm256_unpackhi_pd(re.0, im.0));
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
        fn load2(s: &[Cell<C64>], i: usize, j: usize) -> (Self, Self) {
            let (a, b) = (&s[i..i + 4], &s[j..j + 4]);
            // SAFETY: AVX-512F was detected; each pointer is to four
            // in-bounds `Cell<C64>`s — `Cell` is `repr(transparent)` and
            // `C64` is `repr(C)`, so eight `f64`s — and the unaligned form
            // is used.
            unsafe {
                let x = _mm512_loadu_pd(a.as_ptr().cast());
                let y = _mm512_loadu_pd(b.as_ptr().cast());
                (
                    Self(_mm512_unpacklo_pd(x, y)),
                    Self(_mm512_unpackhi_pd(x, y)),
                )
            }
        }
        #[inline(always)]
        fn store2(re: Self, im: Self, s: &[Cell<C64>], i: usize, j: usize) {
            let (a, b) = (&s[i..i + 4], &s[j..j + 4]);
            // SAFETY: AVX-512F was detected; each store is to four
            // in-bounds `Cell<C64>`s (eight `f64`s, as in `load2`), which
            // may be written through a shared reference; unaligned form.
            unsafe {
                _mm512_storeu_pd(a.as_ptr() as *mut f64, _mm512_unpacklo_pd(re.0, im.0));
                _mm512_storeu_pd(b.as_ptr() as *mut f64, _mm512_unpackhi_pd(re.0, im.0));
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
    }
}
