//! IEEE CRC-32: the one checksum of wire frames, log frames and
//! checkpoint images.
//!
//! Two kernels compute the same sums over the same running state (the
//! pre-inverted CRC register):
//!
//! - `table`, slicing-by-16, runs everywhere: sixteen bytes a step,
//!   ≈1.2–1.4 µs per 4 KiB in release. Spelled out rather than looped, it
//!   stays ≈3–5 µs per 4 KiB in an unoptimized build too.
//! - `fold`, x86_64 only, folds 64 bytes a step with carry-less multiplies
//!   (`pclmulqdq`) in four 128-bit lanes, reduces the lanes to 128 bits,
//!   then to 64, and finishes with a Barrett reduction (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009): ≈0.2 µs per 4 KiB. A tail of under 64 bytes continues
//!   through the table from the folded state.
//!
//! [`crc32`] is the one place that chooses: an optimized x86_64 build on a
//! CPU that reports `pclmulqdq` and `sse4.1` folds inputs of 64 bytes or
//! more; everything else takes the table. Debug builds always take the
//! table, because at opt-level 0 every intrinsic is an out-of-line call
//! and the folding kernel is slower than the table it replaces. The
//! feature check is `std`'s cached detection, and the call it guards is
//! this crate's only `unsafe`.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets sixteen
/// input bytes be folded with sixteen independent lookups.
const fn tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 16 * 256 {
        // One more zero byte is eight more bit steps of the entry before.
        let (k, b) = (i / 256, i % 256);
        let mut c = if k == 0 { b as u32 } else { tables[k - 1][b] };
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        tables[k][b] = c;
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = tables();

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
};

/// IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if !cfg!(debug_assertions) && data.len() >= 64 && has_clmul() {
        // SAFETY: `has_clmul` has just seen this CPU report `pclmulqdq` and
        // `sse4.1`, the features `fold` is compiled for.
        return !unsafe { fold(!0, data) };
    }
    !table(!0, data)
}

/// True when this CPU can run `fold` (`std` caches the detection).
#[cfg(target_arch = "x86_64")]
fn has_clmul() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// Advances the running CRC `c` over `data`, slicing-by-16: the twelve
/// lookups that do not depend on `c` come first, so only four sit on the
/// chain from one step to the next.
fn table(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, rest) = data.as_chunks::<16>();
    for b in blocks {
        let x = c.to_le_bytes();
        c = t[0][b[15] as usize]
            ^ t[1][b[14] as usize]
            ^ t[2][b[13] as usize]
            ^ t[3][b[12] as usize]
            ^ t[4][b[11] as usize]
            ^ t[5][b[10] as usize]
            ^ t[6][b[9] as usize]
            ^ t[7][b[8] as usize]
            ^ t[8][b[7] as usize]
            ^ t[9][b[6] as usize]
            ^ t[10][b[5] as usize]
            ^ t[11][b[4] as usize]
            ^ t[12][(b[3] ^ x[3]) as usize]
            ^ t[13][(b[2] ^ x[2]) as usize]
            ^ t[14][(b[1] ^ x[1]) as usize]
            ^ t[15][(b[0] ^ x[0]) as usize];
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advances the running CRC `crc` over `data`: every whole 64-byte block
/// by carry-less folding, the rest (under 64 bytes) through [`table`].
///
/// The constants are Gopal et al.'s for the bit-reflected IEEE polynomial:
/// `x^(4·128 ± 32) mod P` carry a lane 64 bytes forward, `x^(128 ± 32) mod
/// P` one lane into the next, `x^64 mod P` takes 128 bits to 64, and `P`
/// with `μ = ⌊x^64 / P⌋` are Barrett's pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(crc: u32, data: &[u8]) -> u32 {
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const P: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;

    let (lanes, bytes) = data.as_chunks::<16>();
    let (blocks, lanes) = lanes.as_chunks::<4>();
    let Some(([a, b, c, d], blocks)) = blocks.split_first() else {
        return table(crc, data);
    };
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut x = [
        _mm_xor_si128(load(a), _mm_cvtsi32_si128(crc as i32)),
        load(b),
        load(c),
        load(d),
    ];
    for [a, b, c, d] in blocks {
        x = [
            fold_into(x[0], k1k2, load(a)),
            fold_into(x[1], k1k2, load(b)),
            fold_into(x[2], k1k2, load(c)),
            fold_into(x[3], k1k2, load(d)),
        ];
    }

    // Four lanes into one.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut r = fold_into(x[0], k3k4, x[1]);
    r = fold_into(r, k3k4, x[2]);
    r = fold_into(r, k3k4, x[3]);

    // 128 bits to 64.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    r = _mm_xor_si128(
        _mm_srli_si128::<8>(r),
        _mm_clmulepi64_si128::<0x10>(r, k3k4),
    );
    let high = _mm_srli_si128::<4>(r);
    r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5));
    r = _mm_xor_si128(r, high);

    // Barrett reduction to 32 bits.
    let p_mu = _mm_set_epi64x(MU, P);
    let mut q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), p_mu);
    q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
    let folded = _mm_extract_epi32::<1>(_mm_xor_si128(r, q)) as u32;

    table(table(folded, lanes.as_flattened()), bytes)
}

/// Sixteen input bytes as one 128-bit lane, first byte lowest.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn load(b: &[u8; 16]) -> __m128i {
    let x = u128::from_le_bytes(*b);
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

/// Carries lane `x` forward by the distance the constant pair `k` encodes
/// and adds the lane `next` found there.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(x, k);
    let hi = _mm_clmulepi64_si128::<0x11>(x, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// CRC-32/IEEE one bit at a time, straight from the polynomial, of
    /// every prefix of `data`: `oracle(d)[n]` is the CRC of `d[..n]`.
    /// Shares no table and no loop structure with either kernel.
    fn oracle(data: &[u8]) -> Vec<u32> {
        let mut c = !0u32;
        let mut out = vec![!c];
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
            out.push(!c);
        }
        out
    }

    /// Every kernel this CPU can run, called directly rather than through
    /// [`crc32`] — so a debug build, which dispatches to the table, still
    /// checks the folding kernel.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut ks: Vec<(&'static str, Kernel)> = vec![("table", table)];
        #[cfg(target_arch = "x86_64")]
        if has_clmul() {
            // SAFETY: the CPU reports the features `fold` is compiled for.
            ks.push(("fold", |c, d| unsafe { fold(c, d) }));
            return ks;
        }
        println!("folding kernel skipped: this CPU lacks pclmulqdq + sse4.1");
        ks
    }

    fn buffer(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(151) ^ (i >> 7)) as u8)
            .collect()
    }

    fn check(ks: &[(&str, Kernel)], data: &[u8], want: u32, start: usize) {
        let len = data.len();
        for (name, k) in ks {
            assert_eq!(!k(!0, data), want, "{name} kernel, start {start} len {len}");
        }
    }

    #[test]
    fn crc_known_vector() {
        // CRC-32/IEEE of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(oracle(b"123456789")[9], 0xCBF4_3926);
        check(&kernels(), b"123456789", 0xCBF4_3926, 0);
    }

    /// Every length 0..=1024 at each of 16 start offsets: every mix of
    /// whole 64-byte blocks, leftover 16-byte lanes and single bytes.
    #[test]
    fn kernels_match_oracle_at_every_length_and_alignment() {
        let ks = kernels();
        let buf = buffer(1024 + 16);
        for start in 0..16 {
            let data = &buf[start..start + 1024];
            let want = oracle(data);
            for len in 0..=1024 {
                check(&ks, &data[..len], want[len], start);
            }
        }
    }

    /// 2 000 seeded lengths up to 64 KiB at seeded start offsets 0..16.
    /// Lengths are log-uniform, so frames, node images and long runs all
    /// appear.
    #[test]
    fn kernels_match_oracle_at_random_lengths_and_alignments() {
        let ks = kernels();
        let buf = buffer((64 << 10) + 16);
        let want: Vec<Vec<u32>> = (0..16).map(|s| oracle(&buf[s..s + (64 << 10)])).collect();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as usize
        };
        for _ in 0..2_000 {
            let len = next() % ((1 << (next() % 17)) + 1);
            let start = next() % 16;
            check(&ks, &buf[start..start + len], want[start][len], start);
        }
    }

    /// Every tail of 0..=63 bytes after one, two and 64 folded blocks: the
    /// folded state is what the table continues from.
    #[test]
    fn kernels_hand_the_folded_state_to_the_table() {
        let ks = kernels();
        let buf = buffer(3 + 4096 + 63);
        let want = oracle(&buf[3..]);
        for prefix in [64, 128, 4096] {
            for tail in 0..64 {
                check(&ks, &buf[3..3 + prefix + tail], want[prefix + tail], 3);
            }
        }
    }

    /// What an optimized build ships: `crc32` is the folding kernel.
    #[cfg(all(target_arch = "x86_64", not(debug_assertions)))]
    #[test]
    fn crc32_is_the_folding_kernel_without_debug_assertions() {
        if !has_clmul() {
            println!("folding kernel skipped: this CPU lacks pclmulqdq + sse4.1");
            return;
        }
        let buf = buffer(1 << 20);
        for len in [64, 93, 127, 4096, 4096 + 63, 1 << 20] {
            // SAFETY: the CPU reports the features `fold` is compiled for.
            assert_eq!(
                crc32(&buf[..len]),
                !unsafe { fold(!0, &buf[..len]) },
                "{len}"
            );
        }
    }
}
