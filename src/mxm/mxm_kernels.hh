/**
 * @file
 * AVX2 kernel for the MXM plane's int8 activation broadcast
 * (MxmPlane::stepAbc) — the hottest loop in whole-chip simulation of
 * dense networks (320x320 MACs per active plane per cycle).
 *
 * The kernel is bit-identical to the scalar loop: int32 accumulation
 * wraps mod 2^32, so the reduction order is immaterial and the
 * vectorized horizontal sum produces exactly the scalar result.
 * Callers gate on tsp::simdKernelsEnabled() (common/cpu.hh); the
 * definitions live in mxm_kernels_avx2.cc, the only TU in the target
 * compiled with -mavx2.
 */

#ifndef TSP_MXM_MXM_KERNELS_HH
#define TSP_MXM_MXM_KERNELS_HH

#include <cstdint>

namespace tsp::simd {

/**
 * One ABC cycle's dot products over a live block of the weight tile:
 * for each row r < rows,
 *   acc[r] (+)= sum_{c<cols} w[r*stride + c] * (int8)act[c]
 * (accumulate selects += vs =). Rows at or past @p rows are not
 * touched. When every weight outside the rows x cols block is zero,
 * this equals MxmPlane::stepAbc's full-tile scalar loop on rows < rows
 * and the loop's sums are 0 on the rest (see MxmPlane::liveRows_).
 *
 * @return false when this (rows, cols) has no vector path
 * (cols % 32 != 0, or either exceeds 320) — the caller must run the
 * scalar loop instead.
 */
bool mxmAbcInt8Avx2(const std::int8_t *w, int stride,
                    const std::uint8_t *act, std::int32_t *acc,
                    int rows, int cols, bool accumulate);

/**
 * AVX-512 VNNI variant of mxmAbcInt8Avx2: vpdpbusd needs one unsigned
 * operand, so activations are biased by +128 (a XOR 0x80) and the
 * per-row correction 128 * sum(w[r][*]) — precomputed over the same
 * block by mxmRowSumsInt8Vnni at weight install — is subtracted, which
 * is exact in wrapping int32 arithmetic. Callers additionally gate on
 * tsp::cpuHasAvx512Vnni(); definitions live in mxm_kernels_vnni.cc,
 * the only TU compiled with -mavx512vnni.
 *
 * @return false when (rows, cols) has no vector path (rows % 4 != 0,
 * cols % 64 != 0, or either exceeds 320).
 */
bool mxmAbcInt8Vnni(const std::int8_t *w, int stride,
                    const std::uint8_t *act,
                    const std::int32_t *row_sums, std::int32_t *acc,
                    int rows, int cols, bool accumulate);

/**
 * Fills @p out[r] = sum_{c<cols} w[r*stride + c] for r < rows (the
 * bias correction mxmAbcInt8Vnni needs). Same gating and
 * cols % 64 == 0 contract as the kernel.
 *
 * @return false when (rows, cols) has no vector path.
 */
bool mxmRowSumsInt8Vnni(const std::int8_t *w, int stride, int rows,
                        int cols, std::int32_t *out);

/**
 * One fp16-mode ABC cycle's row dot products: for each row r < n,
 *   acc[r] (+)= sum_{c<n} wCols[c*stride + r] * act[c]
 * over the column-major fp32 weight image MxmPlane::buildF16WeightCols
 * prepares (exact fp16->fp32 conversion), with @p act the converted
 * activations.
 *
 * Bit-identical to MxmPlane::stepAbc's scalar fp16 loop: each row's
 * sum starts at 0.0f and adds products column-ascending, one
 * multiply rounding and one add rounding per term (vmulps + vaddps,
 * never FMA — a fused product would skip the multiply's rounding and
 * diverge). Vectorizing *across rows* (the column-major image makes
 * rows adjacent) leaves every row's rounding sequence exactly the
 * scalar one, so infinities, denormals and signed zeros propagate
 * identically. The one exception is the *payload* of a NaN result:
 * when a term mixes NaNs, which payload survives depends on mul/add
 * operand order, which the compiler is free to commute — it is not
 * pinned even between two compilations of the scalar loop. A NaN
 * result stays a NaN result on every path; only its payload bits are
 * unspecified (as in the fp16 numerics contract generally).
 *
 * @return false when (n) has no vector path (AVX2 tier: n % 8 != 0).
 * Definitions live in mxm_kernels_avx2.cc / mxm_kernels_f16.cc, the
 * only TUs compiled with the matching ISA flags; callers gate on
 * simdKernelsEnabled() (+ cpuHasAvx512f() for the 512-bit tier).
 */
bool mxmAbcF16Avx2(const float *wCols, int stride, const float *act,
                   float *acc, int n, bool accumulate);

/** AVX-512F tier of mxmAbcF16Avx2 (16 rows per vector; n % 16). */
bool mxmAbcF16Avx512(const float *wCols, int stride, const float *act,
                     float *acc, int n, bool accumulate);

} // namespace tsp::simd

#endif // TSP_MXM_MXM_KERNELS_HH
