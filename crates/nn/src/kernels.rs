//! Cache-blocked dense kernels with a hard bit-exactness contract.
//!
//! Every routine here is a drop-in replacement for the naive scalar
//! loop it accelerates — not approximately, but **bit-for-bit** on
//! `f64`. The contract that makes this possible:
//!
//! - **Blocking is over output rows and columns only.** The reduction
//!   (`k`) dimension is never split: every output element accumulates
//!   its partial products in exactly the sequential order of the naive
//!   triple loop, so no floating-point reassociation ever happens.
//! - **Zero-skips are replicated.** The naive `matmul` / `t_matmul`
//!   loops skip a rank-1 update when the first factor is exactly
//!   `0.0`. That skip is *not* a bitwise no-op in IEEE 754 edge cases
//!   (`-0.0 + 0.0 == +0.0`, `0.0 * inf == NaN`), so the blocked
//!   kernels test the same factor against zero at the same point of
//!   the same loop.
//!
//! What the blocked kernels change is purely *where data lives while
//! the same arithmetic happens*: the right-hand operand is packed into
//! a contiguous panel that stays cache-resident across all output
//! rows, output is updated through narrow row chunks that fit L1, and
//! independent output elements are interleaved to break accumulator
//! dependency chains (each chain still sums in naive order).
//!
//! The panel/tile sizes below are deliberately conservative so the
//! working set fits a ~1 MiB L2 on any contemporary core; see
//! DESIGN.md "Dense kernels" for the capacity arithmetic.
//!
//! Inputs are raw row-major slices plus dimensions; the [`crate::Matrix`]
//! methods (`matmul`, `t_matmul`, `matmul_t`, `gram_t`) are the
//! checked, shape-aware entry points. All `*_into` routines require a
//! **zeroed** `out` buffer and accumulate into it, exactly like the
//! naive loops they mirror.
//!
//! With the default-on `simd` feature on x86-64, the full-size register
//! micro-kernels additionally run through explicit AVX vectors whose
//! lanes span *independent output columns* (rows for the matvec), so
//! each output element's reduction chain is still the scalar sequence
//! of mul-then-add — no FMA, no horizontal reduction, `k` never split —
//! and the SIMD path is bit-identical to the scalar path, which stays
//! compiled in as the dispatch fallback and parity reference (see
//! [`simd_active`] / [`set_simd_enabled`]). The vector kernels engage
//! only for all-finite operands: with a NaN among the inputs, two
//! NaNs with different bits can meet in one add, where x86 keeps
//! whichever operand the code generator placed first — not a property
//! any kernel arrangement can pin down — so those calls stay on the
//! scalar reference kernels and parity is preserved by identity (see
//! [`simd`] for the full argument).

/// Packed right-hand panel width (columns) for [`gemm_into`]: the
/// `k × NC` panel is `8·k·NC` bytes, ≤ 1 MiB for `k ≤ 1024`.
pub const GEMM_NC: usize = 128;
/// Output rows advanced per micro-kernel pass in [`gemm_into`]: four
/// independent accumulator rows share one packed micro-panel stream.
pub const GEMM_MR: usize = 4;
/// Micro-tile columns in [`gemm_into`]: each `MR × JR` tile holds its
/// 16 partial sums in registers for the whole `k` reduction (8 SSE2
/// vectors), so the inner loop touches no output memory at all.
pub const GEMM_JR: usize = 4;
/// Output-tile rows for [`gemm_t_into`] / [`syrk_t_into`]; the
/// `MC × NC` f64 tile is 16 KiB — half of a 32 KiB L1d.
pub const GT_MC: usize = 16;
/// Output-tile columns for [`gemm_t_into`] / [`syrk_t_into`].
pub const GT_NC: usize = 128;
/// Right-hand row-block for [`gemm_nt_into`]: `JB` rows of B stay
/// cache-resident while every row of A streams past them once.
pub const NT_JB: usize = 32;
/// Below this flop estimate the naive loop wins (no packing cost, no
/// panel allocation). Dispatch is a pure performance decision — both
/// paths produce identical bits.
pub const BLOCK_MIN_WORK: usize = 1 << 16;

// ---------------------------------------------------------------------------
// SIMD dispatch. The AVX micro-kernels in `simd` run their vector lanes
// across *independent output columns*: each output element's reduction
// chain stays a scalar-ordered sequence of mul-then-add (no FMA, `k`
// never split), so the vector path is bit-identical to the scalar path
// by construction, not by tolerance. Dispatch is runtime (CPU detection
// plus a process-wide toggle) and per-call, with the scalar kernels kept
// as the bit-parity reference.
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide SIMD opt-out, flipped by [`set_simd_enabled`].
static SIMD_DISABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the explicit-SIMD micro-kernels at runtime.
///
/// Both paths produce identical bits, so this is a pure performance
/// switch — it exists so benches and parity tests can compare the
/// vector and scalar paths within one process. Concurrent kernel calls
/// observe the flag once at entry; flipping it mid-flight is harmless
/// precisely because the two paths agree bit-for-bit.
pub fn set_simd_enabled(on: bool) {
    SIMD_DISABLED.store(!on, Ordering::Relaxed);
}

/// Whether the vectorised micro-kernels are live: the `simd` feature is
/// compiled in, the target is x86-64 with AVX detected at runtime, and
/// [`set_simd_enabled`] has not switched them off.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn simd_active() -> bool {
    !SIMD_DISABLED.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx")
}

/// Whether the vectorised micro-kernels are live (`false` in builds
/// without the `simd` feature or on non-x86-64 targets).
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub fn simd_active() -> bool {
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    //! AVX (f64×4) variants of the register micro-kernels.
    //!
    //! Lane layout: one vector register holds four *independent output
    //! columns* of a micro-tile row. The reduction coefficient is a
    //! scalar broadcast, each step is `acc = add(acc, mul(c, panel))` —
    //! multiply then add, never fused — and `k` advances one step per
    //! iteration for every lane simultaneously. Each lane therefore
    //! executes exactly the scalar chain `acc += c * pv` in exactly the
    //! scalar order; lanes never exchange or combine values, so no
    //! horizontal reduction (the classic source of SIMD reassociation)
    //! exists anywhere on the path.
    //!
    //! **Finite inputs only.** Dispatch routes the GEMM-family kernels
    //! here only after both operands scanned all-finite (the matvec
    //! instead detects the hazard *after the fact*: a NaN output lane
    //! sends the block back to the scalar body, whose result wins).
    //! With finite operands every
    //! multiply is fully IEEE-determined (products overflow to `±inf`
    //! but are never NaN), so at most one NaN — the hardware-canonical
    //! indefinite from `inf + -inf`, identical bits on the scalar and
    //! vector units — can ever reach an add, and single-NaN propagation
    //! does not depend on operand order. Bits are therefore determined
    //! by the arithmetic alone, not by how the compiler happens to
    //! order commutative operands. With a NaN among the *inputs* that
    //! guarantee is unattainable (two NaNs with different bits can meet
    //! in one add, and x86 keeps whichever the code generator put
    //! first), so such calls stay on the scalar reference kernels —
    //! which also makes the zero-skip `CHECK` variants unnecessary
    //! here: non-finite panels never reach this module.
    use super::{GEMM_JR, GEMM_MR};
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_unpackhi_pd,
        _mm256_unpacklo_pd,
    };

    /// AVX [`super::micro_gemm_4x4`] for all-finite operands; same
    /// contract, same bits (no zero-skip: for finite panels the skip is
    /// a bitwise no-op, see [`super::micro_gemm_4x4`]).
    #[inline]
    pub(super) fn micro_gemm_4x4(
        arows: &[&[f64]; GEMM_MR],
        mp: &[f64],
        acc: &mut [[f64; GEMM_JR]; GEMM_MR],
    ) {
        // SAFETY: dispatch reaches this module only after
        // `simd_active()` has confirmed AVX support on this CPU.
        unsafe { micro_gemm_4x4_avx(arows, mp, acc) }
    }

    #[target_feature(enable = "avx")]
    unsafe fn micro_gemm_4x4_avx(
        arows: &[&[f64]; GEMM_MR],
        mp: &[f64],
        acc: &mut [[f64; GEMM_JR]; GEMM_MR],
    ) {
        let steps = mp.len() / GEMM_JR;
        let (a0, a1, a2, a3) = (arows[0], arows[1], arows[2], arows[3]);
        let mut v0 = _mm256_loadu_pd(acc[0].as_ptr());
        let mut v1 = _mm256_loadu_pd(acc[1].as_ptr());
        let mut v2 = _mm256_loadu_pd(acc[2].as_ptr());
        let mut v3 = _mm256_loadu_pd(acc[3].as_ptr());
        for kk in 0..steps {
            let p = _mm256_loadu_pd(mp.as_ptr().add(kk * GEMM_JR));
            v0 = _mm256_add_pd(v0, _mm256_mul_pd(_mm256_set1_pd(a0[kk]), p));
            v1 = _mm256_add_pd(v1, _mm256_mul_pd(_mm256_set1_pd(a1[kk]), p));
            v2 = _mm256_add_pd(v2, _mm256_mul_pd(_mm256_set1_pd(a2[kk]), p));
            v3 = _mm256_add_pd(v3, _mm256_mul_pd(_mm256_set1_pd(a3[kk]), p));
        }
        _mm256_storeu_pd(acc[0].as_mut_ptr(), v0);
        _mm256_storeu_pd(acc[1].as_mut_ptr(), v1);
        _mm256_storeu_pd(acc[2].as_mut_ptr(), v2);
        _mm256_storeu_pd(acc[3].as_mut_ptr(), v3);
    }

    /// AVX [`super::micro_tt_4x4`] for all-finite operands; same
    /// contract, same bits (no zero-skip, as above).
    #[inline]
    pub(super) fn micro_tt_4x4(pa: &[f64], pb: &[f64], acc: &mut [[f64; 4]; 4]) {
        // SAFETY: dispatch reaches this module only after
        // `simd_active()` has confirmed AVX support on this CPU.
        unsafe { micro_tt_4x4_avx(pa, pb, acc) }
    }

    #[target_feature(enable = "avx")]
    unsafe fn micro_tt_4x4_avx(pa: &[f64], pb: &[f64], acc: &mut [[f64; 4]; 4]) {
        let steps = pa.len() / 4;
        let mut v0 = _mm256_loadu_pd(acc[0].as_ptr());
        let mut v1 = _mm256_loadu_pd(acc[1].as_ptr());
        let mut v2 = _mm256_loadu_pd(acc[2].as_ptr());
        let mut v3 = _mm256_loadu_pd(acc[3].as_ptr());
        for r in 0..steps {
            let bv = _mm256_loadu_pd(pb.as_ptr().add(r * 4));
            v0 = _mm256_add_pd(v0, _mm256_mul_pd(_mm256_set1_pd(pa[r * 4]), bv));
            v1 = _mm256_add_pd(v1, _mm256_mul_pd(_mm256_set1_pd(pa[r * 4 + 1]), bv));
            v2 = _mm256_add_pd(v2, _mm256_mul_pd(_mm256_set1_pd(pa[r * 4 + 2]), bv));
            v3 = _mm256_add_pd(v3, _mm256_mul_pd(_mm256_set1_pd(pa[r * 4 + 3]), bv));
        }
        _mm256_storeu_pd(acc[0].as_mut_ptr(), v0);
        _mm256_storeu_pd(acc[1].as_mut_ptr(), v1);
        _mm256_storeu_pd(acc[2].as_mut_ptr(), v2);
        _mm256_storeu_pd(acc[3].as_mut_ptr(), v3);
    }

    /// Four-row AVX matvec block: 4×4 tiles of `a` are transposed in
    /// registers so each lane carries one output *row*; `x[kk]` is
    /// broadcast and the four adds per tile happen in ascending `k`
    /// (four separate mul-then-add steps), replaying the four scalar
    /// accumulator chains of the scalar kernel exactly. The `k` tail
    /// (`cols % 4`) finishes scalar, still in ascending `k` per lane.
    #[inline]
    pub(super) fn matvec4(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
        // SAFETY: dispatch reaches this module only after
        // `simd_active()` has confirmed AVX support on this CPU.
        unsafe { matvec4_avx(r0, r1, r2, r3, x) }
    }

    #[target_feature(enable = "avx")]
    unsafe fn matvec4_avx(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
        let cols = x.len();
        let full = cols & !3;
        let mut acc = _mm256_setzero_pd();
        let mut kk = 0;
        while kk < full {
            let a0 = _mm256_loadu_pd(r0.as_ptr().add(kk));
            let a1 = _mm256_loadu_pd(r1.as_ptr().add(kk));
            let a2 = _mm256_loadu_pd(r2.as_ptr().add(kk));
            let a3 = _mm256_loadu_pd(r3.as_ptr().add(kk));
            // 4×4 in-register transpose: `c_t` holds column `kk + t` of
            // the four rows, i.e. one reduction step for all four lanes.
            let t0 = _mm256_unpacklo_pd(a0, a1);
            let t1 = _mm256_unpackhi_pd(a0, a1);
            let t2 = _mm256_unpacklo_pd(a2, a3);
            let t3 = _mm256_unpackhi_pd(a2, a3);
            let c0 = _mm256_permute2f128_pd::<0x20>(t0, t2);
            let c1 = _mm256_permute2f128_pd::<0x20>(t1, t3);
            let c2 = _mm256_permute2f128_pd::<0x31>(t0, t2);
            let c3 = _mm256_permute2f128_pd::<0x31>(t1, t3);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(c0, _mm256_broadcast_sd(&x[kk])));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(c1, _mm256_broadcast_sd(&x[kk + 1])));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(c2, _mm256_broadcast_sd(&x[kk + 2])));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(c3, _mm256_broadcast_sd(&x[kk + 3])));
            kk += 4;
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), acc);
        for t in full..cols {
            let xv = x[t];
            s[0] += r0[t] * xv;
            s[1] += r1[t] * xv;
            s[2] += r2[t] * xv;
            s[3] += r3[t] * xv;
        }
        s
    }
}

/// Runs the branch-free (all-finite) 4×4 GEMM micro-kernel through the
/// AVX path when `use_simd` is set, the scalar path otherwise.
/// Identical bits either way (see [`simd`] for the lane argument).
/// Callers only set `use_simd` after scanning *both* operands finite;
/// non-finite panels stay on the scalar `CHECK = true` kernels.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn dispatch_micro_gemm(
    use_simd: bool,
    arows: &[&[f64]; GEMM_MR],
    mp: &[f64],
    acc: &mut [[f64; GEMM_JR]; GEMM_MR],
) {
    if use_simd {
        simd::micro_gemm_4x4(arows, mp, acc);
    } else {
        micro_gemm_4x4::<false>(arows, mp, acc);
    }
}

/// Scalar-only build of [`dispatch_micro_gemm`].
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline]
fn dispatch_micro_gemm(
    _use_simd: bool,
    arows: &[&[f64]; GEMM_MR],
    mp: &[f64],
    acc: &mut [[f64; GEMM_JR]; GEMM_MR],
) {
    micro_gemm_4x4::<false>(arows, mp, acc);
}

/// Runs the branch-free (all-finite) 4×4 transposed micro-kernel
/// through the AVX path when `use_simd` is set, the scalar path
/// otherwise. Identical bits either way; same finite-only caller
/// contract as [`dispatch_micro_gemm`].
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn dispatch_micro_tt(use_simd: bool, pa: &[f64], pb: &[f64], acc: &mut [[f64; 4]; 4]) {
    if use_simd {
        simd::micro_tt_4x4(pa, pb, acc);
    } else {
        micro_tt_4x4::<false>(pa, pb, acc);
    }
}

/// Scalar-only build of [`dispatch_micro_tt`].
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline]
fn dispatch_micro_tt(_use_simd: bool, pa: &[f64], pb: &[f64], acc: &mut [[f64; 4]; 4]) {
    micro_tt_4x4::<false>(pa, pb, acc);
}

// ---------------------------------------------------------------------------
// Naive references. These are the semantics; the blocked kernels must
// match them bit-for-bit (asserted by unit, property, and bench-side
// parity tests). Public so tests and benches can time and compare
// against them.
// ---------------------------------------------------------------------------

/// Naive `out += A·B` (`A` is `m×k`, `B` is `k×n`), i-k-j loop with the
/// historical `a == 0.0` row-update skip.
pub fn naive_gemm_into(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Naive `out += Aᵀ·B` (`A` is `r×m`, `B` is `r×n`), r-i-j loop with
/// the `a[r][i] == 0.0` skip. `r` ascends for every output element.
pub fn naive_gemm_t_into(a: &[f64], rdim: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), rdim * m);
    debug_assert_eq!(b.len(), rdim * n);
    debug_assert_eq!(out.len(), m * n);
    for r in 0..rdim {
        for i in 0..m {
            let av = a[r * m + i];
            if av == 0.0 {
                continue;
            }
            let brow = &b[r * n..(r + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Naive `out += A·Bᵀ` (`A` is `m×k`, `B` is `nb×k`): one sequential-k
/// dot product per output element, no zero skip.
pub fn naive_gemm_nt_into(a: &[f64], m: usize, k: usize, b: &[f64], nb: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), nb * k);
    debug_assert_eq!(out.len(), m * nb);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..nb {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * nb + j] += acc;
        }
    }
}

/// Naive matvec `out[i] = Σ_k a[i][k]·x[k]`, sequential k per row.
pub fn naive_matvec_into(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols);
    debug_assert_eq!(x.len(), cols);
    for (i, o) in out.iter_mut().enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        let mut acc = 0.0;
        for (&av, &xv) in row.iter().zip(x) {
            acc += av * xv;
        }
        *o = acc;
    }
}



// ---------------------------------------------------------------------------
// GEMM: out += A·B, cache-blocked.
// ---------------------------------------------------------------------------

/// The `MR × JR` register micro-kernel: every partial sum lives in a
/// register for the whole `k` reduction, each summing in ascending `k`.
///
/// `CHECK` selects whether the naive `a == 0.0` skip is tested per
/// element. When the packed panel is known to be **all finite**, the
/// skip is a bitwise no-op — adding `c·pv` with `c == ±0.0` and finite
/// `pv` contributes `±0.0`, which cannot change any accumulator
/// because a running sum that starts at `+0.0` can never reach `-0.0`
/// (in round-to-nearest, `x + y == -0.0` only when both `x` and `y`
/// are `-0.0`). The caller therefore scans the panel once at pack time
/// and dispatches `CHECK = false`, making the hot loop branch-free;
/// panels containing `±inf`/`NaN` (where `0 · inf = NaN` would differ)
/// take the `CHECK = true` path, which replays the naive skip exactly.
#[inline]
fn micro_gemm_4x4<const CHECK: bool>(
    arows: &[&[f64]; GEMM_MR],
    mp: &[f64],
    acc: &mut [[f64; GEMM_JR]; GEMM_MR],
) {
    for (kk, p) in mp.chunks_exact(GEMM_JR).enumerate() {
        for r in 0..GEMM_MR {
            let c = arows[r][kk];
            if CHECK && c == 0.0 {
                continue;
            }
            for (av, &pv) in acc[r].iter_mut().zip(p) {
                *av += c * pv;
            }
        }
    }
}

/// Ragged-edge companion of [`micro_gemm_4x4`]: up to `MR` rows and a
/// runtime column width `< JR`. Same ordering and skip contract.
#[inline]
fn micro_gemm_ragged<const CHECK: bool>(
    arows: &[&[f64]],
    mp: &[f64],
    width: usize,
    acc: &mut [[f64; GEMM_JR]],
) {
    for (kk, p) in mp.chunks_exact(width).enumerate() {
        for (r, arow) in arows.iter().enumerate() {
            let c = arow[kk];
            if CHECK && c == 0.0 {
                continue;
            }
            for (av, &pv) in acc[r][..width].iter_mut().zip(p) {
                *av += c * pv;
            }
        }
    }
}

/// Cache-blocked `out += A·B`, bit-identical to [`naive_gemm_into`].
///
/// `B` columns are processed in panels of [`GEMM_NC`], packed in
/// micro-panel order: each [`GEMM_JR`]-column tile is laid out
/// `k`-major so the reduction streams unit-stride. An `MR × JR`
/// register tile then carries all 16 partial sums through the entire
/// `k` loop — the inner loop reads one packed micro-panel row and four
/// `A` coefficients per step and touches no output memory, and for
/// all-finite panels it is fully branch-free (see [`micro_gemm_4x4`]
/// for why the zero-skip may be elided there). Each accumulator still
/// sums in ascending `k`, so the result is the naive loop's exact bits
/// (the contract requires `out` zeroed, so register sums starting at
/// `+0.0` replay the naive accumulation verbatim).
pub fn gemm_into(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m.saturating_mul(k).saturating_mul(n) < BLOCK_MIN_WORK {
        naive_gemm_into(a, m, k, b, n, out);
        return;
    }
    // SIMD requires *both* operands all-finite (the panel scan below
    // covers `B`): finite operands pin every NaN that can arise to the
    // hardware-canonical indefinite, making the vector path's bits
    // compiler-independent. Any non-finite value keeps the whole call
    // on the scalar reference kernels. The scan is one O(m·k) pass
    // against O(m·k·n) multiply work.
    let use_simd = simd_active() && a.iter().all(|v| v.is_finite());
    let mut panel = vec![0.0; k * GEMM_NC.min(n)];
    let mut jc = 0;
    while jc < n {
        let ncw = GEMM_NC.min(n - jc);
        let full_jt = ncw / GEMM_JR;
        let tail = ncw % GEMM_JR;
        // Micro-panel pack: full JR-wide tiles k-major, then the
        // ragged column tail (also k-major) at the end.
        for jt in 0..full_jt {
            let src = jc + jt * GEMM_JR;
            let dst = jt * k * GEMM_JR;
            for kk in 0..k {
                panel[dst + kk * GEMM_JR..dst + (kk + 1) * GEMM_JR]
                    .copy_from_slice(&b[kk * n + src..kk * n + src + GEMM_JR]);
            }
        }
        let toff = full_jt * k * GEMM_JR;
        if tail > 0 {
            let src = jc + full_jt * GEMM_JR;
            for kk in 0..k {
                panel[toff + kk * tail..toff + (kk + 1) * tail]
                    .copy_from_slice(&b[kk * n + src..kk * n + src + tail]);
            }
        }
        let panel = &panel[..k * ncw];
        // One scan at pack time decides whether the zero-skip branch
        // can be elided from every micro-kernel over this panel.
        let finite = panel.iter().all(|v| v.is_finite());
        let mut i0 = 0;
        while i0 + GEMM_MR <= m {
            let arows = [
                &a[i0 * k..(i0 + 1) * k],
                &a[(i0 + 1) * k..(i0 + 2) * k],
                &a[(i0 + 2) * k..(i0 + 3) * k],
                &a[(i0 + 3) * k..(i0 + 4) * k],
            ];
            for jt in 0..full_jt {
                let mp = &panel[jt * k * GEMM_JR..(jt + 1) * k * GEMM_JR];
                let mut acc = [[0.0f64; GEMM_JR]; GEMM_MR];
                if finite {
                    dispatch_micro_gemm(use_simd, &arows, mp, &mut acc);
                } else {
                    micro_gemm_4x4::<true>(&arows, mp, &mut acc);
                }
                let j0 = jc + jt * GEMM_JR;
                for (r, row) in acc.iter().enumerate() {
                    out[(i0 + r) * n + j0..(i0 + r) * n + j0 + GEMM_JR].copy_from_slice(row);
                }
            }
            if tail > 0 {
                // Ragged column tail: same register accumulation with a
                // short row (at most JR-1 live accumulators).
                let mp = &panel[toff..toff + k * tail];
                let mut acc = [[0.0f64; GEMM_JR]; GEMM_MR];
                if finite {
                    micro_gemm_ragged::<false>(&arows, mp, tail, &mut acc);
                } else {
                    micro_gemm_ragged::<true>(&arows, mp, tail, &mut acc);
                }
                let j0 = jc + full_jt * GEMM_JR;
                for (r, row) in acc.iter().enumerate() {
                    out[(i0 + r) * n + j0..(i0 + r) * n + j0 + tail].copy_from_slice(&row[..tail]);
                }
            }
            i0 += GEMM_MR;
        }
        // Remainder rows (< GEMM_MR): single-row register tiles over the
        // same packed micro-panels.
        for i in i0..m {
            let arows = [&a[i * k..(i + 1) * k]];
            for jt in 0..full_jt {
                let mp = &panel[jt * k * GEMM_JR..(jt + 1) * k * GEMM_JR];
                let mut acc = [[0.0f64; GEMM_JR]; 1];
                if finite {
                    micro_gemm_ragged::<false>(&arows, mp, GEMM_JR, &mut acc);
                } else {
                    micro_gemm_ragged::<true>(&arows, mp, GEMM_JR, &mut acc);
                }
                let j0 = jc + jt * GEMM_JR;
                out[i * n + j0..i * n + j0 + GEMM_JR].copy_from_slice(&acc[0]);
            }
            if tail > 0 {
                let mp = &panel[toff..toff + k * tail];
                let mut acc = [[0.0f64; GEMM_JR]; 1];
                if finite {
                    micro_gemm_ragged::<false>(&arows, mp, tail, &mut acc);
                } else {
                    micro_gemm_ragged::<true>(&arows, mp, tail, &mut acc);
                }
                let j0 = jc + full_jt * GEMM_JR;
                out[i * n + j0..i * n + j0 + tail].copy_from_slice(&acc[0][..tail]);
            }
        }
        jc += ncw;
    }
}

// ---------------------------------------------------------------------------
// GEMM-T: out += Aᵀ·B, cache-blocked (the Gram-matrix workhorse).
// ---------------------------------------------------------------------------

/// Cache-blocked `out += Aᵀ·B`, bit-identical to [`naive_gemm_t_into`].
///
/// The output is tiled [`GT_MC`]`×`[`GT_NC`] (16 KiB, L1-resident).
/// Per tile, the relevant columns of `A` and `B` are packed into
/// contiguous `r`-major panels so the reduction streams unit-stride,
/// then `r` ascends over the whole reduction at once — never split —
/// with the naive `a[r][i] == 0.0` skip intact.
pub fn gemm_t_into(a: &[f64], rdim: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), rdim * m);
    debug_assert_eq!(b.len(), rdim * n);
    debug_assert_eq!(out.len(), m * n);
    if rdim.saturating_mul(m).saturating_mul(n) < BLOCK_MIN_WORK {
        naive_gemm_t_into(a, rdim, m, b, n, out);
        return;
    }
    gemm_t_tiles(a, rdim, m, b, n, out, false);
}

/// The 4×4 register micro-kernel for the transposed product: both
/// operands arrive as `r`-major micro-panels of four columns, so each
/// `r` step is two unit-stride quad loads plus 16 register FMAs. `r`
/// ascends over the whole reduction per accumulator — never split —
/// and `CHECK` carries the naive `a[r][i] == 0.0` skip (elided when
/// the `B` panel is all finite; see [`micro_gemm_4x4`] for the IEEE
/// argument).
#[inline]
fn micro_tt_4x4<const CHECK: bool>(pa: &[f64], pb: &[f64], acc: &mut [[f64; 4]; 4]) {
    for (av, bv) in pa.chunks_exact(4).zip(pb.chunks_exact(4)) {
        for ii in 0..4 {
            let c = av[ii];
            if CHECK && c == 0.0 {
                continue;
            }
            for (s, &pv) in acc[ii].iter_mut().zip(bv) {
                *s += c * pv;
            }
        }
    }
}

/// Ragged-edge companion of [`micro_tt_4x4`]: runtime row width `wi`
/// and column width `wj`, both at most 4.
#[inline]
fn micro_tt_ragged<const CHECK: bool>(
    pa: &[f64],
    wi: usize,
    pb: &[f64],
    wj: usize,
    acc: &mut [[f64; 4]; 4],
) {
    for (av, bv) in pa.chunks_exact(wi).zip(pb.chunks_exact(wj)) {
        for (ii, &c) in av.iter().enumerate() {
            if CHECK && c == 0.0 {
                continue;
            }
            for (s, &pv) in acc[ii][..wj].iter_mut().zip(bv) {
                *s += c * pv;
            }
        }
    }
}

/// Shared tile driver for [`gemm_t_into`] and [`syrk_t_into`].
/// `upper_only` skips output tiles that lie entirely below the
/// diagonal (SYRK computes them by mirroring instead).
///
/// Both operands are packed into `r`-major micro-panels of four
/// columns (`A` per [`GT_MC`]-row tile, `B` per [`GT_NC`]-column
/// panel) and every 4×4 output tile is register-accumulated over the
/// full reduction by [`micro_tt_4x4`].
fn gemm_t_tiles(
    a: &[f64],
    rdim: usize,
    m: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    upper_only: bool,
) {
    // Same finite-only SIMD gate as `gemm_into`: the per-panel
    // scan below covers the packed `B` side, this O(r·m) pass covers
    // `A` (for SYRK the two are the same slice).
    let use_simd = simd_active() && a.iter().all(|v| v.is_finite());
    let mut pa = vec![0.0; rdim * GT_MC.min(m)];
    let mut pb = vec![0.0; rdim * GT_NC.min(n)];
    let mut jc = 0;
    while jc < n {
        let ncw = GT_NC.min(n - jc);
        let full_jt = ncw / 4;
        let jtail = ncw % 4;
        for jt in 0..full_jt {
            let src = jc + jt * 4;
            let dst = jt * rdim * 4;
            for r in 0..rdim {
                pb[dst + r * 4..dst + (r + 1) * 4]
                    .copy_from_slice(&b[r * n + src..r * n + src + 4]);
            }
        }
        let jtoff = full_jt * rdim * 4;
        if jtail > 0 {
            let src = jc + full_jt * 4;
            for r in 0..rdim {
                pb[jtoff + r * jtail..jtoff + (r + 1) * jtail]
                    .copy_from_slice(&b[r * n + src..r * n + src + jtail]);
            }
        }
        let pbp = &pb[..rdim * ncw];
        // One scan per packed panel decides whether the zero-skip can
        // be elided from the micro-kernels (all-finite B).
        let finite = pbp.iter().all(|v| v.is_finite());
        let mut ic = 0;
        while ic < m {
            let mcw = GT_MC.min(m - ic);
            // A tile entirely below the diagonal: SYRK fills it by
            // mirroring the transposed tile, skip the compute.
            if upper_only && jc + ncw <= ic {
                ic += mcw;
                continue;
            }
            let full_it = mcw / 4;
            let mtail = mcw % 4;
            for it in 0..full_it {
                let src = ic + it * 4;
                let dst = it * rdim * 4;
                for r in 0..rdim {
                    pa[dst + r * 4..dst + (r + 1) * 4]
                        .copy_from_slice(&a[r * m + src..r * m + src + 4]);
                }
            }
            let itoff = full_it * rdim * 4;
            if mtail > 0 {
                let src = ic + full_it * 4;
                for r in 0..rdim {
                    pa[itoff + r * mtail..itoff + (r + 1) * mtail]
                        .copy_from_slice(&a[r * m + src..r * m + src + mtail]);
                }
            }
            for it in 0..full_it {
                let pat = &pa[it * rdim * 4..(it + 1) * rdim * 4];
                let i0 = ic + it * 4;
                for jt in 0..full_jt {
                    let pbt = &pbp[jt * rdim * 4..(jt + 1) * rdim * 4];
                    let mut acc = [[0.0f64; 4]; 4];
                    if finite {
                        dispatch_micro_tt(use_simd, pat, pbt, &mut acc);
                    } else {
                        micro_tt_4x4::<true>(pat, pbt, &mut acc);
                    }
                    let j0 = jc + jt * 4;
                    for (ii, row) in acc.iter().enumerate() {
                        out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + 4].copy_from_slice(row);
                    }
                }
                if jtail > 0 {
                    let pbt = &pbp[jtoff..jtoff + rdim * jtail];
                    let mut acc = [[0.0f64; 4]; 4];
                    if finite {
                        micro_tt_ragged::<false>(pat, 4, pbt, jtail, &mut acc);
                    } else {
                        micro_tt_ragged::<true>(pat, 4, pbt, jtail, &mut acc);
                    }
                    let j0 = jc + full_jt * 4;
                    for (ii, row) in acc.iter().enumerate() {
                        out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + jtail]
                            .copy_from_slice(&row[..jtail]);
                    }
                }
            }
            if mtail > 0 {
                let pat = &pa[itoff..itoff + rdim * mtail];
                let i0 = ic + full_it * 4;
                for jt in 0..full_jt {
                    let pbt = &pbp[jt * rdim * 4..(jt + 1) * rdim * 4];
                    let mut acc = [[0.0f64; 4]; 4];
                    if finite {
                        micro_tt_ragged::<false>(pat, mtail, pbt, 4, &mut acc);
                    } else {
                        micro_tt_ragged::<true>(pat, mtail, pbt, 4, &mut acc);
                    }
                    let j0 = jc + jt * 4;
                    for (ii, row) in acc[..mtail].iter().enumerate() {
                        out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + 4].copy_from_slice(row);
                    }
                }
                if jtail > 0 {
                    let pbt = &pbp[jtoff..jtoff + rdim * jtail];
                    let mut acc = [[0.0f64; 4]; 4];
                    if finite {
                        micro_tt_ragged::<false>(pat, mtail, pbt, jtail, &mut acc);
                    } else {
                        micro_tt_ragged::<true>(pat, mtail, pbt, jtail, &mut acc);
                    }
                    let j0 = jc + full_jt * 4;
                    for (ii, row) in acc[..mtail].iter().enumerate() {
                        out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + jtail]
                            .copy_from_slice(&row[..jtail]);
                    }
                }
            }
            ic += mcw;
        }
        jc += ncw;
    }
}

// ---------------------------------------------------------------------------
// SYRK: out = AᵀA by upper triangle + mirror.
// ---------------------------------------------------------------------------

/// Symmetric rank-k product `out += Aᵀ·A` (`A` is `r×m`, `out` is
/// `m×m`): computes only output tiles on or above the diagonal — the
/// naive convention, bit-for-bit — and fills the strict lower triangle
/// by mirroring, halving the flop count of a full [`gemm_t_into`].
///
/// For finite inputs the mirror is exact: `G[j][i]` and `G[i][j]` sum
/// the same products `a[r][i]·a[r][j]` in the same `r` order. The only
/// deviation from naive `Aᵀ·A` is in the *strict lower triangle* under
/// signed-zero/∞ pathologies, where the naive zero-skip (keyed on
/// column `j` instead of column `i`) is itself asymmetric; the upper
/// triangle always matches naive bit-for-bit, and the result is
/// symmetric by construction (which naive `Aᵀ·A` is not guaranteed to
/// be in those same pathologies).
pub fn syrk_t_into(a: &[f64], rdim: usize, m: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), rdim * m);
    debug_assert_eq!(out.len(), m * m);
    if rdim.saturating_mul(m).saturating_mul(m) < BLOCK_MIN_WORK {
        naive_gemm_t_into(a, rdim, m, a, m, out);
        return;
    }
    gemm_t_tiles(a, rdim, m, a, m, out, true);
    for i in 1..m {
        for j in 0..i {
            out[i * m + j] = out[j * m + i];
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM-NT: out += A·Bᵀ (dot-product form).
// ---------------------------------------------------------------------------

/// Cache-blocked `out += A·Bᵀ`, bit-identical to [`naive_gemm_nt_into`].
///
/// `B` rows are processed in blocks of [`NT_JB`] that stay
/// cache-resident while every row of `A` streams past once. Output
/// elements are produced in 2×2 groups — four independent sequential-k
/// accumulator chains — so the dot products overlap instead of
/// serialising on FP-add latency. Each chain still sums in ascending
/// `k`, so every element matches the naive dot bit-for-bit.
pub fn gemm_nt_into(a: &[f64], m: usize, k: usize, b: &[f64], nb: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), nb * k);
    debug_assert_eq!(out.len(), m * nb);
    if m.saturating_mul(k).saturating_mul(nb) < BLOCK_MIN_WORK {
        naive_gemm_nt_into(a, m, k, b, nb, out);
        return;
    }
    if gemm_nt_simd(a, m, k, b, nb, out) {
        return;
    }
    let mut jb = 0;
    while jb < nb {
        let jbw = NT_JB.min(nb - jb);
        let mut i = 0;
        while i + 2 <= m {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let mut j = jb;
            while j + 2 <= jb + jbw {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let (mut s00, mut s01, mut s10, mut s11) = (0.0, 0.0, 0.0, 0.0);
                for kk in 0..k {
                    let (av0, av1) = (a0[kk], a1[kk]);
                    let (bv0, bv1) = (b0[kk], b1[kk]);
                    s00 += av0 * bv0;
                    s01 += av0 * bv1;
                    s10 += av1 * bv0;
                    s11 += av1 * bv1;
                }
                out[i * nb + j] += s00;
                out[i * nb + j + 1] += s01;
                out[(i + 1) * nb + j] += s10;
                out[(i + 1) * nb + j + 1] += s11;
                j += 2;
            }
            if j < jb + jbw {
                out[i * nb + j] += dot(a0, &b[j * k..(j + 1) * k]);
                out[(i + 1) * nb + j] += dot(a1, &b[j * k..(j + 1) * k]);
            }
            i += 2;
        }
        if i < m {
            let arow = &a[i * k..(i + 1) * k];
            for j in jb..jb + jbw {
                out[i * nb + j] += dot(arow, &b[j * k..(j + 1) * k]);
            }
        }
        jb += jbw;
    }
}

/// The AVX `A·Bᵀ` path: four B rows are packed transposed (`k`-major,
/// four columns wide), turning the dot-product form into the same
/// micro-panel shape as [`gemm_into`] so the AVX micro-kernel's lanes
/// run across four independent output columns. `naive_gemm_nt_into`
/// has no zero-skip, so the unconditional branch-free accumulation
/// replays the naive sequential-`k` dot; the writeback stays scalar
/// `out += acc` to replicate the naive element update on `-0.0` edges
/// (a plain copy would diverge there). Ragged row/column tails take
/// the scalar dot, which is the naive reduction itself.
///
/// Returns `false` (having written nothing) when SIMD is inactive or
/// either operand holds a non-finite value (see [`simd`] for why the
/// vector path only guarantees bit-parity on finite inputs), so the
/// caller falls through to the scalar blocked path.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn gemm_nt_simd(a: &[f64], m: usize, k: usize, b: &[f64], nb: usize, out: &mut [f64]) -> bool {
    if !simd_active() {
        return false;
    }
    if !a.iter().chain(b.iter()).all(|v| v.is_finite()) {
        return false;
    }
    let mut panel = vec![0.0; k * GEMM_JR];
    let mut j = 0;
    while j + GEMM_JR <= nb {
        for kk in 0..k {
            for l in 0..GEMM_JR {
                panel[kk * GEMM_JR + l] = b[(j + l) * k + kk];
            }
        }
        let mut i0 = 0;
        while i0 + GEMM_MR <= m {
            let arows = [
                &a[i0 * k..(i0 + 1) * k],
                &a[(i0 + 1) * k..(i0 + 2) * k],
                &a[(i0 + 2) * k..(i0 + 3) * k],
                &a[(i0 + 3) * k..(i0 + 4) * k],
            ];
            let mut acc = [[0.0f64; GEMM_JR]; GEMM_MR];
            simd::micro_gemm_4x4(&arows, &panel, &mut acc);
            for (r, row) in acc.iter().enumerate() {
                let orow = &mut out[(i0 + r) * nb + j..(i0 + r) * nb + j + GEMM_JR];
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o += v;
                }
            }
            i0 += GEMM_MR;
        }
        for i in i0..m {
            let arow = &a[i * k..(i + 1) * k];
            for l in 0..GEMM_JR {
                out[i * nb + j + l] += dot(arow, &b[(j + l) * k..(j + l + 1) * k]);
            }
        }
        j += GEMM_JR;
    }
    for jj in j..nb {
        let brow = &b[jj * k..(jj + 1) * k];
        for (i, orow) in out.chunks_exact_mut(nb).enumerate() {
            orow[jj] += dot(&a[i * k..(i + 1) * k], brow);
        }
    }
    true
}

/// Scalar-only build of [`gemm_nt_simd`]: never takes the SIMD path.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn gemm_nt_simd(
    _a: &[f64],
    _m: usize,
    _k: usize,
    _b: &[f64],
    _nb: usize,
    _out: &mut [f64],
) -> bool {
    false
}

/// Sequential-k dot product — the naive per-element reduction.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&av, &bv) in a.iter().zip(b) {
        acc += av * bv;
    }
    acc
}

// ---------------------------------------------------------------------------
// Matvec: out[i] = row_i · x, multi-row blocked.
// ---------------------------------------------------------------------------

/// Row-blocked matvec, bit-identical to [`naive_matvec_into`]: four
/// rows share one streaming pass over `x` (four independent
/// accumulator chains), amortising the vector's cache traffic that
/// dominates the dense annealing matvec. Allocation-free, so it is
/// safe inside the zero-allocation annealing hot path.
pub fn matvec_rows_into(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols);
    debug_assert_eq!(x.len(), cols);
    if matvec_rows_simd(a, cols, x, out) {
        return;
    }
    let nrows = out.len();
    let mut i = 0;
    while i + 4 <= nrows {
        let s = matvec4_scalar(
            &a[i * cols..(i + 1) * cols],
            &a[(i + 1) * cols..(i + 2) * cols],
            &a[(i + 2) * cols..(i + 3) * cols],
            &a[(i + 3) * cols..(i + 4) * cols],
            x,
        );
        out[i..i + 4].copy_from_slice(&s);
        i += 4;
    }
    for o in out[i..].iter_mut() {
        *o = dot(&a[i * cols..(i + 1) * cols], x);
        i += 1;
    }
}

/// The scalar four-row matvec block: four independent accumulator
/// chains over one streaming pass of `x`, each in ascending `k` — the
/// naive per-row reduction, four rows at a time.
///
/// `inline(never)` is load-bearing: this exact compiled body serves
/// both [`matvec_rows_into`] and the non-finite fallback inside
/// [`matvec_rows_simd`], so a block that is ineligible for the vector
/// path produces the same bits whichever entry reached it (inlining
/// could otherwise specialise the two call sites differently, and NaN
/// operand-order choices are codegen-dependent).
#[inline(never)]
fn matvec4_scalar(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (kk, &xv) in x.iter().enumerate() {
        s0 += r0[kk] * xv;
        s1 += r1[kk] * xv;
        s2 += r2[kk] * xv;
        s3 += r3[kk] * xv;
    }
    [s0, s1, s2, s3]
}

/// The AVX matvec path: lanes run across four independent output
/// *rows* via an in-register 4×4 transpose (see [`simd::matvec4`]).
/// Row tails (`rows % 4`) take the scalar dot — the naive reduction.
///
/// The matvec reads each matrix element exactly once, so a pre-scan of
/// the operands would double its memory traffic. Instead the NaN gate
/// runs *after the fact*: NaN is absorbing under add and multiply, so
/// a non-NaN output lane proves no NaN ever entered that reduction
/// chain — every operation on it was fully IEEE-determined and the
/// vector bits equal the scalar bits. A NaN lane is the one case where
/// vector/scalar agreement is codegen-dependent (see [`simd`]), so the
/// whole block replays through [`matvec4_scalar`] — the same compiled
/// body the scalar path runs — whose result is authoritative.
///
/// Returns `false` (having written nothing) when SIMD is inactive.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn matvec_rows_simd(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) -> bool {
    if !simd_active() {
        return false;
    }
    let nrows = out.len();
    let mut i = 0;
    while i + 4 <= nrows {
        let r0 = &a[i * cols..(i + 1) * cols];
        let r1 = &a[(i + 1) * cols..(i + 2) * cols];
        let r2 = &a[(i + 2) * cols..(i + 3) * cols];
        let r3 = &a[(i + 3) * cols..(i + 4) * cols];
        let mut s = simd::matvec4(r0, r1, r2, r3, x);
        if s.iter().any(|v| v.is_nan()) {
            s = matvec4_scalar(r0, r1, r2, r3, x);
        }
        out[i..i + 4].copy_from_slice(&s);
        i += 4;
    }
    for o in out[i..].iter_mut() {
        *o = dot(&a[i * cols..(i + 1) * cols], x);
        i += 1;
    }
    true
}

/// Scalar-only build of [`matvec_rows_simd`]: never takes the SIMD
/// path.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn matvec_rows_simd(_a: &[f64], _cols: usize, _x: &[f64], _out: &mut [f64]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fill(rng: &mut StdRng, len: usize, zero_frac: f64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                if rng.random::<f64>() < zero_frac {
                    0.0
                } else {
                    rng.random::<f64>() * 2.0 - 1.0
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Shapes spanning the ragged cases the property suite also
    /// covers: unit, prime, tall/skinny, wide/flat, and sizes large
    /// enough to cross the blocked-dispatch threshold and panel edges.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (17, 13, 11),
        (97, 4, 3),
        (2, 151, 2),
        (129, 33, 130),
        (40, 257, 41),
        (64, 64, 64),
    ];

    #[test]
    fn gemm_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in SHAPES {
            for zf in [0.0, 0.4] {
                let a = fill(&mut rng, m * k, zf);
                let b = fill(&mut rng, k * n, zf);
                let mut naive = vec![0.0; m * n];
                let mut blocked = vec![0.0; m * n];
                naive_gemm_into(&a, m, k, &b, n, &mut naive);
                gemm_into(&a, m, k, &b, n, &mut blocked);
                assert_eq!(bits(&naive), bits(&blocked), "gemm {m}x{k}x{n} zf={zf}");
            }
        }
    }

    #[test]
    fn gemm_t_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(r, m, n) in SHAPES {
            for zf in [0.0, 0.4] {
                let a = fill(&mut rng, r * m, zf);
                let b = fill(&mut rng, r * n, zf);
                let mut naive = vec![0.0; m * n];
                let mut blocked = vec![0.0; m * n];
                naive_gemm_t_into(&a, r, m, &b, n, &mut naive);
                gemm_t_into(&a, r, m, &b, n, &mut blocked);
                assert_eq!(bits(&naive), bits(&blocked), "gemm_t {r}x{m}x{n} zf={zf}");
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, nb) in SHAPES {
            let a = fill(&mut rng, m * k, 0.1);
            let b = fill(&mut rng, nb * k, 0.1);
            let mut naive = vec![0.0; m * nb];
            let mut blocked = vec![0.0; m * nb];
            naive_gemm_nt_into(&a, m, k, &b, nb, &mut naive);
            gemm_nt_into(&a, m, k, &b, nb, &mut blocked);
            assert_eq!(bits(&naive), bits(&blocked), "gemm_nt {m}x{k}x{nb}");
        }
    }

    #[test]
    fn syrk_upper_matches_naive_and_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(19);
        for &(r, m, _) in SHAPES {
            for zf in [0.0, 0.4] {
                let a = fill(&mut rng, r * m, zf);
                let mut naive = vec![0.0; m * m];
                let mut syrk = vec![0.0; m * m];
                naive_gemm_t_into(&a, r, m, &a, m, &mut naive);
                syrk_t_into(&a, r, m, &mut syrk);
                for i in 0..m {
                    for j in i..m {
                        assert_eq!(
                            naive[i * m + j].to_bits(),
                            syrk[i * m + j].to_bits(),
                            "syrk upper ({i},{j}) r={r} m={m}"
                        );
                    }
                    for j in 0..i {
                        assert_eq!(
                            syrk[i * m + j].to_bits(),
                            syrk[j * m + i].to_bits(),
                            "syrk mirror ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        for rows in [1usize, 2, 3, 4, 5, 7, 31, 64, 129] {
            for cols in [1usize, 3, 17, 64, 251] {
                let a = fill(&mut rng, rows * cols, 0.2);
                let x = fill(&mut rng, cols, 0.0);
                let mut naive = vec![0.0; rows];
                let mut blocked = vec![0.0; rows];
                naive_matvec_into(&a, cols, &x, &mut naive);
                matvec_rows_into(&a, cols, &x, &mut blocked);
                assert_eq!(bits(&naive), bits(&blocked), "matvec {rows}x{cols}");
            }
        }
    }

    #[test]
    fn zero_skip_signed_zero_edge_is_replicated() {
        // -0.0 rows exercise the IEEE edge where skipping vs adding
        // 0.0·b is visible in the sign bit of a -0.0 accumulator.
        let m = 8;
        let k = 70;
        let n = 130;
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        for (idx, v) in a.iter_mut().enumerate() {
            *v = match idx % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => -1.0,
            };
        }
        for (idx, v) in b.iter_mut().enumerate() {
            *v = if idx % 2 == 0 { 0.0 } else { 1.0 };
        }
        let mut naive = vec![0.0; m * n];
        let mut blocked = vec![0.0; m * n];
        naive_gemm_into(&a, m, k, &b, n, &mut naive);
        gemm_into(&a, m, k, &b, n, &mut blocked);
        assert_eq!(bits(&naive), bits(&blocked));
    }

    #[test]
    fn simd_toggle_never_changes_bits() {
        // Every kernel, above and below the blocked threshold, with the
        // SIMD path forced off and (where the build and CPU allow) on.
        // The toggle is process-global but both paths agree bitwise, so
        // flipping it cannot perturb concurrent tests.
        let mut rng = StdRng::seed_from_u64(29);
        for &(m, k, n) in SHAPES {
            let a = fill(&mut rng, m * k, 0.3);
            let b = fill(&mut rng, k * n, 0.3);
            let bt = fill(&mut rng, m * n, 0.3);
            let x = fill(&mut rng, k, 0.0);
            let run = || {
                let mut gemm = vec![0.0; m * n];
                gemm_into(&a, m, k, &b, n, &mut gemm);
                // A reinterpreted as rdim=m rows of k columns.
                let mut gemm_t = vec![0.0; k * n];
                gemm_t_into(&a, m, k, &bt, n, &mut gemm_t);
                let mut nt = vec![0.0; m * m];
                gemm_nt_into(&a, m, k, &a, m, &mut nt);
                let mut syrk = vec![0.0; k * k];
                syrk_t_into(&a, m, k, &mut syrk);
                let mut mv = vec![0.0; m];
                matvec_rows_into(&a, k, &x, &mut mv);
                (bits(&gemm), bits(&gemm_t), bits(&nt), bits(&syrk), bits(&mv))
            };
            set_simd_enabled(false);
            let scalar = run();
            set_simd_enabled(true);
            let vector = run();
            assert_eq!(scalar, vector, "simd toggle changed bits at {m}x{k}x{n}");
        }
        set_simd_enabled(true);
    }
}
