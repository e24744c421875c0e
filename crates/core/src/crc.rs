//! The one CRC-32 implementation every self-validating blob in the
//! workspace shares (the [`crate::blob`] envelope, WAL records, `TSR4`
//! batch frames, and the grant-session control frames).
//! Keeping a single definition here — the crate everything else depends
//! on — means a polynomial or reflection tweak can never silently
//! diverge between codecs.
//!
//! Two kernels compute the same function, picked once at runtime:
//!
//! * **Portable slice-by-8** — eight derived tables fold eight input
//!   bytes per iteration instead of one; always available, and the
//!   reference the hardware path is tested bit-identical against.
//! * **Hardware folding** — on `x86_64` with `pclmulqdq`, carry-less
//!   multiply folds 64 bytes per iteration (the SSE4.2 `crc32`
//!   *instruction* computes the Castagnoli polynomial, not the IEEE one
//!   this repo's blobs use, so the CLMUL folding route is the correct
//!   hardware path here); on `aarch64` with the `crc` extension, the
//!   `__crc32d`/`__crc32b` intrinsics evaluate the IEEE polynomial
//!   directly.
//!
//! Dispatch is decided on first use from CPU feature detection and the
//! `TRAJSHARE_FORCE_SCALAR_CRC` environment variable (any non-empty
//! value other than `0` pins the portable kernel — the CI leg that
//! re-runs the suites on feature-rich runners sets it), and can be
//! overridden in tests with `set_force_scalar` so they check both
//! kernels in one process. Both kernels produce identical
//! bits for every input, so flipping dispatch mid-run only changes
//! speed, never results.
//!
//! On the batched ingest path the CRC is computed over every payload
//! byte up to three times (client frame encode, server decode
//! validation, WAL record header), so this fold is the single largest
//! fixed per-byte cost of the tier. [`crc32_extend`] additionally lets a
//! caller who already verified a prefix continue the checksum over a few
//! more bytes instead of rescanning the whole buffer.

use std::sync::atomic::{AtomicU8, Ordering};

/// IEEE CRC-32 slice-by-8 lookup tables, built at compile time. Table 0
/// is the classic byte-at-a-time table; table `k` advances a byte `k`
/// positions further through the shift register, so one iteration can
/// consume eight bytes with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

const KERNEL_UNDECIDED: u8 = 0;
const KERNEL_SCALAR: u8 = 1;
const KERNEL_HW: u8 = 2;

/// Which kernel [`update`] uses; decided on first call, re-decided by
/// the test-only `set_force_scalar`. Both kernels are bit-identical, so a racing
/// re-decision is harmless — only speed changes.
static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNDECIDED);

/// Hardware folding is only profitable (and, on x86, only defined) for
/// runs of at least this many bytes; shorter inputs take the portable
/// kernel regardless of dispatch.
const HW_MIN_LEN: usize = 64;

fn hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("crc")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

#[cold]
fn decide_kernel() -> u8 {
    let forced =
        std::env::var_os("TRAJSHARE_FORCE_SCALAR_CRC").is_some_and(|v| !v.is_empty() && v != *"0");
    let k = if !forced && hw_available() {
        KERNEL_HW
    } else {
        KERNEL_SCALAR
    };
    KERNEL.store(k, Ordering::Relaxed);
    k
}

#[inline]
fn kernel() -> u8 {
    match KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNDECIDED => decide_kernel(),
        k => k,
    }
}

/// Overrides CRC kernel dispatch for this process: `true` pins the
/// portable slice-by-8 kernel, `false` restores feature-detected
/// dispatch (which also honors `TRAJSHARE_FORCE_SCALAR_CRC`). Tests use
/// this to check the scalar and hardware kernels in the same run.
#[cfg(test)]
pub(crate) fn set_force_scalar(force: bool) {
    if force {
        KERNEL.store(KERNEL_SCALAR, Ordering::Relaxed);
    } else {
        KERNEL.store(KERNEL_UNDECIDED, Ordering::Relaxed);
        kernel();
    }
}

/// Name of the kernel the current dispatch decision selects, for logs
/// and bench output.
pub fn kernel_name() -> &'static str {
    match kernel() {
        KERNEL_HW => {
            #[cfg(target_arch = "x86_64")]
            {
                "pclmulqdq-fold"
            }
            #[cfg(target_arch = "aarch64")]
            {
                "aarch64-crc32"
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                unreachable!("hardware CRC kernel selected on an unsupported arch")
            }
        }
        _ => "slice-by-8",
    }
}

/// Folds `data` into a raw (pre-inversion) CRC register state with the
/// portable slice-by-8 kernel. This is the reference semantics; the
/// hardware kernels are tested bit-identical against it.
fn update_scalar(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// PCLMULQDQ folding kernel for the reflected IEEE polynomial
/// (the fold-by-4 / fold-by-1 / Barrett-reduction scheme of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
/// Intel whitepaper 2009). Operates on the same raw pre-inversion
/// register state as [`update_scalar`].
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    // Folding constants for the reflected polynomial 0xEDB8_8320:
    // K1/K2 fold 512 bits by 64 bytes, K3/K4 fold to one 128-bit lane,
    // K5 reduces 128 -> 96 bits, and P_X/U_PRIME are the Barrett
    // constants (the polynomial and its inverse).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// One folding step: multiplies the low and high halves of `state`
    /// by the two keys and XORs both products into `chunk`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold(state: __m128i, chunk: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(state, keys, 0x00);
        let hi = _mm_clmulepi64_si128(state, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(chunk, lo), hi)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(data: &mut &[u8]) -> __m128i {
        let v = _mm_loadu_si128(data.as_ptr() as *const __m128i);
        *data = &data[16..];
        v
    }

    /// Raw-register-state update; requires `data.len() >= 64`. The
    /// sub-16-byte tail is finished by the scalar kernel.
    ///
    /// # Safety
    /// Caller must have verified `pclmulqdq` and `sse4.1` support.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub unsafe fn update(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= super::HW_MIN_LEN);
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The incoming register state folds into the first lane.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }

        // Fold the 128-bit remainder to 96, then 64 bits.
        let lo32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, lo32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction down to the 32-bit register state.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, lo32), pu, 0x00), x);
        let folded = _mm_extract_epi32(t2, 1) as u32;

        super::update_scalar(folded, data)
    }
}

/// ARMv8 CRC-extension kernel: `__crc32d`/`__crc32b` evaluate the
/// reflected IEEE polynomial directly on the raw register state, so the
/// loop shape mirrors the scalar kernel with the table lookups replaced
/// by one instruction per 8 bytes.
#[cfg(target_arch = "aarch64")]
mod hwcrc {
    use std::arch::aarch64::{__crc32b, __crc32d};

    /// # Safety
    /// Caller must have verified `crc` extension support.
    #[target_feature(enable = "crc")]
    pub unsafe fn update(mut crc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            crc = __crc32d(crc, u64::from_le_bytes(c.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            crc = __crc32b(crc, b);
        }
        crc
    }
}

/// Folds `data` into a raw (pre-inversion) CRC register state with the
/// dispatched kernel.
#[inline]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if data.len() >= HW_MIN_LEN && kernel() == KERNEL_HW {
        // SAFETY: `kernel()` only selects the hardware path after
        // `hw_available()` confirmed the required CPU features.
        #[cfg(target_arch = "x86_64")]
        return unsafe { pclmul::update(crc, data) };
        #[cfg(target_arch = "aarch64")]
        return unsafe { hwcrc::update(crc, data) };
    }
    update_scalar(crc, data)
}

/// IEEE CRC-32 (the zlib/PNG polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Continues a finished [`crc32`] over more bytes:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`. Lets the batch decoder
/// hand the WAL a whole-payload CRC after verifying the payload's own
/// trailing checksum, without a third full pass over the bytes.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    !update(!crc, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference byte-at-a-time fold the slice-by-8 kernel replaced.
    fn crc32_reference(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    /// Raw-state update via the hardware kernel when this host has one;
    /// `None` on hosts where only the portable kernel exists, so the
    /// bit-identity tests degrade to vacuous there instead of failing.
    fn update_hw(crc: u32, data: &[u8]) -> Option<u32> {
        if !hw_available() || data.len() < HW_MIN_LEN {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: guarded by `hw_available()` above.
            Some(unsafe { pclmul::update(crc, data) })
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: guarded by `hw_available()` above.
            Some(unsafe { hwcrc::update(crc, data) })
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            None
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_reference_at_every_length() {
        // Exercise every alignment of the 8-byte inner loop plus the
        // scalar remainder, on non-trivial data.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8)
            .collect();
        for n in 0..data.len() {
            assert_eq!(crc32(&data[..n]), crc32_reference(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn hardware_kernel_matches_scalar_at_every_length() {
        // Every fold-loop alignment: below the 64-byte entry threshold,
        // exactly at it, every 16-byte lane boundary, and every scalar
        // tail length up to past two 64-byte blocks.
        let data: Vec<u8> = (0..321u32)
            .map(|i| (i.wrapping_mul(0x6D2B_79F5) >> 7) as u8)
            .collect();
        let mut exercised = false;
        for n in 0..=data.len() {
            if let Some(hw) = update_hw(!0, &data[..n]) {
                assert_eq!(hw, update_scalar(!0, &data[..n]), "len {n}");
                exercised = true;
            }
        }
        if hw_available() {
            assert!(exercised, "hardware kernel never ran despite support");
        }
    }

    #[test]
    fn extend_continues_a_finished_crc() {
        let data: Vec<u8> = (0..100u8).collect();
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&data), "split {split}");
        }
        assert_eq!(crc32_extend(crc32(b"abc"), b""), crc32(b"abc"));
    }

    #[test]
    fn forcing_scalar_dispatch_changes_nothing() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let dispatched = crc32(&data);
        set_force_scalar(true);
        let scalar_name = kernel_name();
        let scalar = crc32(&data);
        set_force_scalar(false);
        assert_eq!(scalar_name, "slice-by-8");
        assert_eq!(dispatched, scalar);
        assert_eq!(crc32(&data), scalar);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hardware kernel is bit-identical to the scalar reference
        /// on arbitrary inputs and arbitrary incoming register states,
        /// including non-lane-multiple tails.
        #[test]
        fn hw_bit_identical_to_scalar(
            data in proptest::collection::vec(0u8..=255, 0..512),
            seed in 0u32..u32::MAX,
        ) {
            if let Some(hw) = update_hw(seed, &data) {
                prop_assert_eq!(hw, update_scalar(seed, &data));
            }
        }

        /// `crc32_extend` composes at arbitrary split points under
        /// dispatch: extending a finished prefix CRC equals hashing the
        /// concatenation (empty sides included).
        #[test]
        fn extend_composes_at_arbitrary_splits(
            data in proptest::collection::vec(0u8..=255, 0..384),
            cut in 0usize..385,
        ) {
            let split = cut.min(data.len());
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32_extend(crc32(a), b), crc32(&data));
        }
    }
}
