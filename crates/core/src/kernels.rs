//! Runtime-dispatched vector kernels for the ingest tier's counter
//! arithmetic: the u64-array add/subtract loops that dominate
//! `AggregateCounts::merge`/`subtract` (the O(1)-eviction inner loops of
//! the window ring) and the max-reduce validity prescans that let
//! `accumulate_columns` drop its per-element bounds branches.
//!
//! Each kernel has an explicit `std::arch` AVX2 implementation and a
//! scalar reference with *identical semantics* — adds wrap, subtracts
//! report whether any lane underflowed (so callers can re-raise the
//! exact scalar panic), reduces return 0 for empty slices. Dispatch is
//! decided once from `is_x86_feature_detected!("avx2")` and the
//! `TRAJSHARE_FORCE_SCALAR_KERNELS` environment variable, and can be
//! overridden in tests with `set_force_scalar` so they check both paths
//! in one process. Non-x86 targets always take the
//! scalar path (the arrays are short enough that LLVM's autovectorizer
//! does well on aarch64 NEON without explicit lanes).

use std::sync::atomic::{AtomicU8, Ordering};

const KERNEL_UNDECIDED: u8 = 0;
const KERNEL_SCALAR: u8 = 1;
const KERNEL_SIMD: u8 = 2;

static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNDECIDED);

fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cold]
fn decide_kernel() -> u8 {
    let forced = std::env::var_os("TRAJSHARE_FORCE_SCALAR_KERNELS")
        .is_some_and(|v| !v.is_empty() && v != *"0");
    let k = if !forced && simd_available() {
        KERNEL_SIMD
    } else {
        KERNEL_SCALAR
    };
    KERNEL.store(k, Ordering::Relaxed);
    k
}

#[inline]
fn use_simd() -> bool {
    let k = match KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNDECIDED => decide_kernel(),
        k => k,
    };
    k == KERNEL_SIMD
}

/// Overrides vector-kernel dispatch for this process: `true` pins the
/// scalar reference kernels, `false` restores feature-detected dispatch
/// (which also honors `TRAJSHARE_FORCE_SCALAR_KERNELS`).
#[cfg(test)]
pub(crate) fn set_force_scalar(force: bool) {
    if force {
        KERNEL.store(KERNEL_SCALAR, Ordering::Relaxed);
    } else {
        KERNEL.store(KERNEL_UNDECIDED, Ordering::Relaxed);
        use_simd();
    }
}

/// Name of the kernel set the current dispatch decision selects, for
/// logs and bench output.
pub fn kernel_name() -> &'static str {
    if use_simd() {
        "avx2"
    } else {
        "scalar"
    }
}

/// `dst[i] = dst[i].wrapping_add(src[i])` elementwise.
///
/// Panics if the slices differ in length. Wrapping semantics: these are
/// population counters whose true values fit u64 by construction, so
/// overflow is unreachable in correct use and both kernels wrap
/// identically rather than paying a per-lane check.
pub fn add_assign_u64(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: `use_simd()` only returns true after `avx2` detection.
        unsafe { avx2::add_assign_u64(dst, src) };
        return;
    }
    add_assign_u64_scalar(dst, src);
}

fn add_assign_u64_scalar(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a = a.wrapping_add(*b);
    }
}

/// `dst[i] = dst[i].wrapping_sub(src[i])` elementwise; returns `false`
/// if any element underflowed (in which case `dst` holds wrapped values
/// and the caller should raise its domain error — the counters are
/// unusable either way).
///
/// Panics if the slices differ in length.
pub fn sub_assign_u64_checked(dst: &mut [u64], src: &[u64]) -> bool {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: `use_simd()` only returns true after `avx2` detection.
        return unsafe { avx2::sub_assign_u64_checked(dst, src) };
    }
    sub_assign_u64_checked_scalar(dst, src)
}

fn sub_assign_u64_checked_scalar(dst: &mut [u64], src: &[u64]) -> bool {
    let mut ok = true;
    for (a, b) in dst.iter_mut().zip(src) {
        ok &= *a >= *b;
        *a = a.wrapping_sub(*b);
    }
    ok
}

/// Maximum of a `u32` slice; 0 for an empty slice. The
/// `accumulate_columns` validity prescan: `max(region) < num_regions`
/// proves a whole column in-range in one vector sweep.
pub fn max_u32(vals: &[u32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: `use_simd()` only returns true after `avx2` detection.
        return unsafe { avx2::max_u32(vals) };
    }
    max_u32_scalar(vals)
}

fn max_u32_scalar(vals: &[u32]) -> u32 {
    vals.iter().copied().max().unwrap_or(0)
}

/// Maximum of a `u16` slice; 0 for an empty slice.
pub fn max_u16(vals: &[u16]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: `use_simd()` only returns true after `avx2` detection.
        return unsafe { avx2::max_u16(vals) };
    }
    max_u16_scalar(vals)
}

fn max_u16_scalar(vals: &[u16]) -> u16 {
    vals.iter().copied().max().unwrap_or(0)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_u64(dst: &mut [u64], src: &[u64]) {
        let n = dst.len() & !3;
        let mut i = 0;
        while i < n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_add_epi64(d, s),
            );
            i += 4;
        }
        while i < dst.len() {
            dst[i] = dst[i].wrapping_add(src[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_assign_u64_checked(dst: &mut [u64], src: &[u64]) -> bool {
        // AVX2 has no unsigned 64-bit compare; flip the sign bit so the
        // signed `cmpgt` orders lanes like an unsigned compare, and OR
        // every underflow mask into one accumulator tested once.
        let sign = _mm256_set1_epi64x(i64::MIN);
        let mut bad = _mm256_setzero_si256();
        let n = dst.len() & !3;
        let mut i = 0;
        while i < n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let under = _mm256_cmpgt_epi64(_mm256_xor_si256(s, sign), _mm256_xor_si256(d, sign));
            bad = _mm256_or_si256(bad, under);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_sub_epi64(d, s),
            );
            i += 4;
        }
        let mut ok = _mm256_testz_si256(bad, bad) != 0;
        while i < dst.len() {
            ok &= dst[i] >= src[i];
            dst[i] = dst[i].wrapping_sub(src[i]);
            i += 1;
        }
        ok
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_u32(vals: &[u32]) -> u32 {
        let n = vals.len() & !7;
        let mut m = _mm256_setzero_si256();
        let mut i = 0;
        while i < n {
            m = _mm256_max_epu32(
                m,
                _mm256_loadu_si256(vals.as_ptr().add(i) as *const __m256i),
            );
            i += 8;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, m);
        let mut best = lanes.iter().copied().max().unwrap_or(0);
        while i < vals.len() {
            best = best.max(vals[i]);
            i += 1;
        }
        best
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_u16(vals: &[u16]) -> u16 {
        let n = vals.len() & !15;
        let mut m = _mm256_setzero_si256();
        let mut i = 0;
        while i < n {
            m = _mm256_max_epu16(
                m,
                _mm256_loadu_si256(vals.as_ptr().add(i) as *const __m256i),
            );
            i += 16;
        }
        let mut lanes = [0u16; 16];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, m);
        let mut best = lanes.iter().copied().max().unwrap_or(0);
        while i < vals.len() {
            best = best.max(vals[i]);
            i += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs each op through the explicit SIMD kernel when this host has
    /// one; `None` where only the scalar kernels exist.
    #[cfg(target_arch = "x86_64")]
    fn simd_ops() -> bool {
        simd_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    fn simd_ops() -> bool {
        false
    }

    #[test]
    fn empty_slices_are_noops() {
        let mut d: Vec<u64> = vec![];
        add_assign_u64(&mut d, &[]);
        assert!(sub_assign_u64_checked(&mut d, &[]));
        assert_eq!(max_u32(&[]), 0);
        assert_eq!(max_u16(&[]), 0);
    }

    #[test]
    fn forcing_scalar_dispatch_changes_nothing() {
        let a: Vec<u64> = (0..37).map(|i| i * 1000 + 3).collect();
        let b: Vec<u64> = (0..37).map(|i| i * 7 + 1).collect();
        let mut dispatched = a.clone();
        add_assign_u64(&mut dispatched, &b);
        set_force_scalar(true);
        let scalar_name = kernel_name();
        let mut scalar = a.clone();
        add_assign_u64(&mut scalar, &b);
        set_force_scalar(false);
        assert_eq!(scalar_name, "scalar");
        assert_eq!(dispatched, scalar);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// SIMD add is bit-identical to the scalar reference, including
        /// non-lane-multiple tails and wrap-around.
        #[test]
        fn add_bit_identical(
            a in proptest::collection::vec(0u64..u64::MAX, 0..67),
            b in proptest::collection::vec(0u64..u64::MAX, 0..67),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut scalar = a.to_vec();
            add_assign_u64_scalar(&mut scalar, b);
            if simd_ops() {
                let mut simd = a.to_vec();
                // SAFETY: guarded by `simd_ops()`.
                unsafe { avx2::add_assign_u64(&mut simd, b) };
                prop_assert_eq!(&simd, &scalar);
            }
            let mut dispatched = a.to_vec();
            add_assign_u64(&mut dispatched, b);
            prop_assert_eq!(&dispatched, &scalar);
        }

        /// SIMD checked subtract matches the scalar reference in both
        /// the result values and the underflow verdict.
        #[test]
        fn sub_bit_identical(
            a in proptest::collection::vec(0u64..u64::MAX, 0..67),
            b in proptest::collection::vec(0u64..u64::MAX, 0..67),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut scalar = a.to_vec();
            let scalar_ok = sub_assign_u64_checked_scalar(&mut scalar, b);
            if simd_ops() {
                let mut simd = a.to_vec();
                // SAFETY: guarded by `simd_ops()`.
                let simd_ok = unsafe { avx2::sub_assign_u64_checked(&mut simd, b) };
                prop_assert_eq!(simd_ok, scalar_ok);
                prop_assert_eq!(&simd, &scalar);
            }
            let mut dispatched = a.to_vec();
            prop_assert_eq!(sub_assign_u64_checked(&mut dispatched, b), scalar_ok);
            prop_assert_eq!(&dispatched, &scalar);
        }

        /// Subtracting exactly what was added round-trips and never
        /// reports underflow.
        #[test]
        fn sub_undoes_add(
            a in proptest::collection::vec(0u64..(u64::MAX / 2), 0..67),
            b in proptest::collection::vec(0u64..(u64::MAX / 2), 0..67),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut v = a.to_vec();
            add_assign_u64(&mut v, b);
            prop_assert!(sub_assign_u64_checked(&mut v, b));
            prop_assert_eq!(&v[..], a);
        }

        /// SIMD max-reduces match the scalar references on arbitrary
        /// inputs including empty slices and odd tails.
        #[test]
        fn max_reduces_bit_identical(
            v32 in proptest::collection::vec(0u32..u32::MAX, 0..83),
            v16 in proptest::collection::vec(0u16..u16::MAX, 0..83),
        ) {
            prop_assert_eq!(max_u32(&v32), max_u32_scalar(&v32));
            prop_assert_eq!(max_u16(&v16), max_u16_scalar(&v16));
            if simd_ops() {
                // SAFETY: guarded by `simd_ops()`.
                prop_assert_eq!(unsafe { avx2::max_u32(&v32) }, max_u32_scalar(&v32));
                // SAFETY: guarded by `simd_ops()`.
                prop_assert_eq!(unsafe { avx2::max_u16(&v16) }, max_u16_scalar(&v16));
            }
        }
    }
}
