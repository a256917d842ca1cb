/**
 * @file
 * Differential tests: every SIMD lane kernel against the scalar
 * alu_ops / MXM reference it claims to reproduce bit-for-bit.
 *
 * Operands are pseudo-random byte planes with adversarial values
 * written over the first lanes — NaNs, signed zeros, infinities,
 * saturation boundaries, rounding ties — so the compare/blend
 * sequences and clamp fixups are exercised where they can diverge.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.hh"
#include "common/fp16.hh"
#include "mxm/mxm_kernels.hh"
#include "vxm/alu_ops.hh"
#include "vxm/vxm_kernels.hh"

namespace tsp {
namespace {

constexpr int kLanes = 320;

std::uint8_t
nextByte(std::uint64_t &s)
{
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(s >> 56);
}

void
fillPlanes(Vec320 *p, int g, std::uint64_t seed)
{
    for (int k = 0; k < g; ++k)
        for (int l = 0; l < kLanes; ++l)
            p[k].bytes[static_cast<std::size_t>(l)] = nextByte(seed);
}

void
setLane32(Vec320 *p, int lane, std::uint32_t u)
{
    for (int k = 0; k < 4; ++k)
        p[k].bytes[static_cast<std::size_t>(lane)] =
            static_cast<std::uint8_t>(u >> (8 * k));
}

void
setLaneF32(Vec320 *p, int lane, float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    setLane32(p, lane, u);
}

/** Floats that stress NaN/zero/rounding/saturation handling. */
const float kSpecialF32[] = {
    0.0f,
    -0.0f,
    __builtin_nanf(""),
    -__builtin_nanf(""),
    __builtin_inff(),
    -__builtin_inff(),
    1e-42f, // Denormal.
    0.5f,
    -0.5f,
    1.5f,
    2.5f, // Ties-to-even vs away-from-zero.
    -1.5f,
    -2.5f,
    126.5f,
    127.0f,
    127.5f,
    128.0f,
    -127.5f,
    -128.0f,
    -128.5f,
    -129.0f,
    2147483520.0f, // Largest float < 2^31.
    2147483648.0f, // == 2^31; saturates int32.
    -2147483648.0f,
    3e9f,
    -3e9f,
    1.0f,
    -1.0f,
};

/** Int32 values that stress the saturating add/sub overflow blends. */
const std::int32_t kSpecialI32[] = {
    0,          1,           -1,          0x7fffffff, -0x7fffffff - 1,
    0x7ffffffe, -0x7fffffff, 0x40000000,  -0x40000000, 123456789,
    -123456789, 0x7fffff00,  -0x7fffff00,
};

void
plantSpecials(Vec320 *a, Vec320 *b, DType t)
{
    if (t == DType::Fp32) {
        const int n = static_cast<int>(std::size(kSpecialF32));
        // Every special meets every special (n^2 <= 320 lanes is not
        // guaranteed, so pair i with i and with a rotation).
        for (int i = 0; i < n; ++i) {
            setLaneF32(a, i, kSpecialF32[i]);
            setLaneF32(b, i, kSpecialF32[(i * 7 + 3) % n]);
            setLaneF32(a, n + i, kSpecialF32[(i * 5 + 1) % n]);
            setLaneF32(b, n + i, kSpecialF32[i]);
        }
    } else if (t == DType::Int32) {
        const int n = static_cast<int>(std::size(kSpecialI32));
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                const int lane = i * n + j;
                if (lane >= kLanes)
                    return;
                setLane32(a, lane,
                          static_cast<std::uint32_t>(kSpecialI32[i]));
                setLane32(b, lane,
                          static_cast<std::uint32_t>(kSpecialI32[j]));
            }
    }
    // Int8: 256 random bytes already cover the full value space.
}

void
scalarBinary(DType t, Opcode op, const Vec320 *a, const Vec320 *b,
             Vec320 *out)
{
    const int g = dtypeBytes(t);
    std::uint8_t ab[4], bb[4], ob[4];
    for (int l = 0; l < kLanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k) {
            ab[k] = a[k].bytes[sl];
            bb[k] = b[k].bytes[sl];
        }
        const LaneValue r =
            aluBinary(op, t, laneLoad(ab, t), laneLoad(bb, t));
        laneStore(ob, t, r);
        for (int k = 0; k < g; ++k)
            out[k].bytes[sl] = ob[k];
    }
}

void
scalarUnary(DType t, Opcode op, const Vec320 *a, Vec320 *out)
{
    const int g = dtypeBytes(t);
    std::uint8_t ab[4], ob[4];
    for (int l = 0; l < kLanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k)
            ab[k] = a[k].bytes[sl];
        const LaneValue r = aluUnary(op, t, laneLoad(ab, t), 0);
        laneStore(ob, t, r);
        for (int k = 0; k < g; ++k)
            out[k].bytes[sl] = ob[k];
    }
}

void
scalarConvert(DType from, DType to, const Vec320 *in, Vec320 *out)
{
    const int gi = dtypeBytes(from);
    const int go = dtypeBytes(to);
    std::uint8_t ib[4], ob[4];
    for (int l = 0; l < kLanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < gi; ++k)
            ib[k] = in[k].bytes[sl];
        const LaneValue r = aluConvert(from, to, laneLoad(ib, from));
        laneStore(ob, to, r);
        for (int k = 0; k < go; ++k)
            out[k].bytes[sl] = ob[k];
    }
}

void
expectPlanesEq(const Vec320 *want, const Vec320 *got, int g,
               const char *what)
{
    for (int k = 0; k < g; ++k)
        for (int l = 0; l < kLanes; ++l) {
            const auto sl = static_cast<std::size_t>(l);
            ASSERT_EQ(want[k].bytes[sl], got[k].bytes[sl])
                << what << " plane " << k << " lane " << l;
        }
}

void
checkBinary(DType t, Opcode op, std::uint64_t seed)
{
    Vec320 a[4], b[4], simd_out[4], ref_out[4];
    fillPlanes(a, dtypeBytes(t), seed);
    fillPlanes(b, dtypeBytes(t), seed ^ 0x9e3779b97f4a7c15ull);
    plantSpecials(a, b, t);
    ASSERT_TRUE(simd::vxmBinaryAvx2(t, op, a, b, simd_out, kLanes))
        << dtypeName(t) << " " << opcodeName(op);
    scalarBinary(t, op, a, b, ref_out);
    expectPlanesEq(ref_out, simd_out, dtypeBytes(t), opcodeName(op));
}

void
checkUnary(DType t, Opcode op, std::uint64_t seed)
{
    Vec320 a[4], dummy[4], simd_out[4], ref_out[4];
    fillPlanes(a, dtypeBytes(t), seed);
    fillPlanes(dummy, dtypeBytes(t), seed + 1);
    plantSpecials(a, dummy, t);
    ASSERT_TRUE(simd::vxmUnaryAvx2(t, op, a, simd_out, kLanes))
        << dtypeName(t) << " " << opcodeName(op);
    scalarUnary(t, op, a, ref_out);
    expectPlanesEq(ref_out, simd_out, dtypeBytes(t), opcodeName(op));
}

TEST(VxmSimd, Int8BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add,    Opcode::Sub,
                          Opcode::Mul,    Opcode::AddSat,
                          Opcode::SubSat, Opcode::MulSat,
                          Opcode::Max,    Opcode::Min,
                          Opcode::Mask};
    std::uint64_t seed = 11;
    for (Opcode op : ops)
        checkBinary(DType::Int8, op, seed++);
}

TEST(VxmSimd, Int32BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add, Opcode::Sub,    Opcode::Mul,
                          Opcode::Max, Opcode::Min,    Opcode::Mask,
                          Opcode::AddSat, Opcode::SubSat};
    std::uint64_t seed = 23;
    for (Opcode op : ops)
        checkBinary(DType::Int32, op, seed++);
}

TEST(VxmSimd, Fp32BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add,    Opcode::Sub,
                          Opcode::Mul,    Opcode::AddSat,
                          Opcode::SubSat, Opcode::MulSat,
                          Opcode::Max,    Opcode::Min,
                          Opcode::Mask};
    std::uint64_t seed = 37;
    for (Opcode op : ops)
        checkBinary(DType::Fp32, op, seed++);
}

TEST(VxmSimd, UnaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Neg, Opcode::Abs, Opcode::Relu};
    std::uint64_t seed = 51;
    for (DType t : {DType::Int8, DType::Int32, DType::Fp32})
        for (Opcode op : ops)
            checkUnary(t, op, seed++);
}

TEST(VxmSimd, ConvertMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    struct Pair
    {
        DType from, to;
    };
    const Pair pairs[] = {{DType::Int8, DType::Fp32},
                          {DType::Int32, DType::Fp32},
                          {DType::Fp32, DType::Int8},
                          {DType::Fp32, DType::Int32}};
    std::uint64_t seed = 71;
    for (const Pair &pr : pairs) {
        Vec320 in[4], dummy[4], simd_out[4], ref_out[4];
        fillPlanes(in, dtypeBytes(pr.from), seed);
        fillPlanes(dummy, dtypeBytes(pr.from), seed + 1);
        plantSpecials(in, dummy, pr.from);
        seed += 2;
        ASSERT_TRUE(simd::vxmConvertAvx2(pr.from, pr.to, in, simd_out,
                                         kLanes))
            << dtypeName(pr.from) << "->" << dtypeName(pr.to);
        scalarConvert(pr.from, pr.to, in, ref_out);
        expectPlanesEq(ref_out, simd_out, dtypeBytes(pr.to),
                       dtypeName(pr.to));
    }
}

TEST(VxmSimd, DeclinesUncoveredShapes)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    Vec320 a[4], b[4], out[4];
    fillPlanes(a, 4, 7);
    fillPlanes(b, 4, 9);
    // Odd lane counts, scalar-only dtypes and opcodes all decline so
    // the caller falls back to the scalar templates.
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int8, Opcode::Add, a, b,
                                     out, 33));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Fp16, Opcode::Add, a, b,
                                     out, kLanes));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int32, Opcode::MulSat, a,
                                     b, out, kLanes));
    EXPECT_FALSE(
        simd::vxmUnaryAvx2(DType::Fp32, Opcode::Tanh, a, out, kLanes));
    EXPECT_FALSE(simd::vxmConvertAvx2(DType::Fp32, DType::Fp16, a, out,
                                      kLanes));
}

/** Scalar reference for one MXM int8 ABC broadcast cycle. */
void
mxmScalarRef(const std::int8_t *w, int stride,
             const std::uint8_t *act, std::int32_t *acc, int n,
             bool accumulate)
{
    for (int r = 0; r < n; ++r) {
        std::int32_t sum = 0;
        for (int c = 0; c < n; ++c) {
            sum += static_cast<std::int32_t>(
                       w[static_cast<std::size_t>(r) * stride + c]) *
                   static_cast<std::int8_t>(act[c]);
        }
        if (accumulate)
            acc[r] += sum;
        else
            acc[r] = sum;
    }
}

TEST(MxmSimd, KernelsMatchScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const int n = 320;
    std::vector<std::int8_t> w(static_cast<std::size_t>(n) * n);
    std::vector<std::uint8_t> act(static_cast<std::size_t>(n));
    std::uint64_t seed = 97;
    for (auto &v : w)
        v = static_cast<std::int8_t>(nextByte(seed));
    for (auto &v : act)
        v = nextByte(seed);
    // Extremes: rows of -128/+127 against -128/+127 activations.
    for (int c = 0; c < n; ++c) {
        w[static_cast<std::size_t>(c)] = -128;
        w[static_cast<std::size_t>(n) + c] = 127;
        act[static_cast<std::size_t>(c)] =
            (c % 2) ? 0x80 : 0x7f;
    }

    std::vector<std::int32_t> ref(static_cast<std::size_t>(n), 5);
    mxmScalarRef(w.data(), n, act.data(), ref.data(), n, true);

    std::vector<std::int32_t> got(static_cast<std::size_t>(n), 5);
    ASSERT_TRUE(simd::mxmAbcInt8Avx2(w.data(), n, act.data(),
                                     got.data(), n, n, true));
    EXPECT_EQ(ref, got) << "avx2";

    if (cpuHasAvx512Vnni()) {
        std::vector<std::int32_t> rs(static_cast<std::size_t>(n));
        ASSERT_TRUE(
            simd::mxmRowSumsInt8Vnni(w.data(), n, n, n, rs.data()));
        for (int r = 0; r < n; ++r) {
            std::int32_t s = 0;
            for (int c = 0; c < n; ++c)
                s += w[static_cast<std::size_t>(r) * n + c];
            ASSERT_EQ(s, rs[static_cast<std::size_t>(r)])
                << "row sum " << r;
        }
        std::vector<std::int32_t> vn(static_cast<std::size_t>(n), 5);
        ASSERT_TRUE(simd::mxmAbcInt8Vnni(w.data(), n, act.data(),
                                         rs.data(), vn.data(), n, n,
                                         true));
        EXPECT_EQ(ref, vn) << "vnni";
    }
}

/** Rounds @p live up to @p chunk, capped at @p n (MxmPlane's rule). */
int
liveSpan(int live, int chunk, int n)
{
    return std::min((live + chunk - 1) / chunk * chunk, n);
}

/**
 * One live-block kernel call as MxmPlane::stepAbc makes it, checked
 * against the full-tile scalar loop: the kernel covers rows < rows
 * and the plane zeroes the remaining rows when the tick overwrites.
 * @p kernel returns false when it declines the shape.
 *
 * @return whether the kernel took the shape.
 */
template <typename Kernel>
bool
checkLiveBlock(const std::vector<std::int8_t> &w,
               const std::vector<std::uint8_t> &act, int n, int rows,
               bool accumulate, Kernel kernel, const std::string &what)
{
    std::vector<std::int32_t> ref(kLanes);
    std::uint64_t seed = 5;
    for (auto &v : ref)
        v = static_cast<std::int32_t>(nextByte(seed)) - 100;
    std::vector<std::int32_t> got = ref;
    mxmScalarRef(w.data(), kLanes, act.data(), ref.data(), n,
                 accumulate);
    if (!kernel(got.data()))
        return false;
    if (!accumulate)
        std::fill(got.begin() + rows, got.begin() + n, 0);
    EXPECT_EQ(ref, got) << what;
    return true;
}

TEST(MxmSimd, LiveBlockKernelsMatchFullScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    struct Case
    {
        int liveRows, liveCols, n;
    };
    // All-zero and full tiles, 16-row serving tiles, live columns off
    // the 32/64-lane grids, live rows off the 4-row grid, and n < 320
    // (fewer active superlanes) with weights past the active lanes.
    const Case cases[] = {
        {0, 0, 320},    {320, 320, 320}, {16, 8, 320},
        {16, 16, 320},  {16, 13, 320},   {23, 40, 320},
        {33, 65, 320},  {100, 319, 320}, {320, 1, 320},
        {7, 320, 320},  {250, 250, 320}, {320, 320, 160},
        {40, 100, 160}, {90, 150, 160},  {320, 320, 80},
        {16, 70, 80},   {5, 5, 16},
    };
    std::uint64_t seed = 131;
    for (const Case &k : cases) {
        std::vector<std::int8_t> w(static_cast<std::size_t>(kLanes) *
                                   kLanes, 0);
        for (int r = 0; r < k.liveRows; ++r) {
            for (int c = 0; c < k.liveCols; ++c) {
                w[static_cast<std::size_t>(r) * kLanes +
                  static_cast<std::size_t>(c)] =
                    static_cast<std::int8_t>(nextByte(seed));
            }
        }
        std::vector<std::uint8_t> act(kLanes);
        for (auto &v : act)
            v = nextByte(seed);
        const std::string tag = std::to_string(k.liveRows) + "x" +
                                std::to_string(k.liveCols) + " n=" +
                                std::to_string(k.n);
        for (const bool accumulate : {false, true}) {
            const int rows2 = liveSpan(k.liveRows, 1, k.n);
            const int cols2 = liveSpan(k.liveCols, 32, k.n);
            const bool avx2 = checkLiveBlock(
                w, act, k.n, rows2, accumulate,
                [&](std::int32_t *acc) {
                    return simd::mxmAbcInt8Avx2(w.data(), kLanes,
                                                act.data(), acc, rows2,
                                                cols2, accumulate);
                },
                "avx2 " + tag);
            EXPECT_EQ(avx2, cols2 % 32 == 0) << tag;
            if (!cpuHasAvx512Vnni())
                continue;
            const int rows4 = liveSpan(k.liveRows, 4, k.n);
            const int cols4 = liveSpan(k.liveCols, 64, k.n);
            std::vector<std::int32_t> rs(kLanes);
            const bool sums = simd::mxmRowSumsInt8Vnni(
                w.data(), kLanes, rows4, cols4, rs.data());
            EXPECT_EQ(sums, cols4 % 64 == 0) << tag;
            if (!sums)
                continue;
            const bool vnni = checkLiveBlock(
                w, act, k.n, rows4, accumulate,
                [&](std::int32_t *acc) {
                    return simd::mxmAbcInt8Vnni(w.data(), kLanes,
                                                act.data(), rs.data(),
                                                acc, rows4, cols4,
                                                accumulate);
                },
                "vnni " + tag);
            EXPECT_TRUE(vnni) << tag;
        }
    }
}

TEST(MxmSimd, LiveBlockKernelsDeclineUncoveredShapes)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    std::vector<std::int8_t> w(static_cast<std::size_t>(kLanes) *
                               kLanes);
    std::vector<std::uint8_t> a(kLanes);
    std::vector<std::int32_t> acc(kLanes), rs(kLanes);
    EXPECT_FALSE(simd::mxmAbcInt8Avx2(w.data(), kLanes, a.data(),
                                      acc.data(), 16, 48, false));
    EXPECT_FALSE(simd::mxmAbcInt8Avx2(w.data(), kLanes, a.data(),
                                      acc.data(), 321, 32, false));
    if (!cpuHasAvx512Vnni())
        return;
    EXPECT_FALSE(simd::mxmAbcInt8Vnni(w.data(), kLanes, a.data(),
                                      rs.data(), acc.data(), 18, 64,
                                      false));
    EXPECT_FALSE(simd::mxmAbcInt8Vnni(w.data(), kLanes, a.data(),
                                      rs.data(), acc.data(), 16, 96,
                                      false));
    EXPECT_FALSE(simd::mxmRowSumsInt8Vnni(w.data(), kLanes, 16, 32,
                                          rs.data()));
}

/**
 * Fp16 bit patterns that stress the fp16->fp32 conversion and the
 * mul/add rounding sequence: NaNs (payloads must propagate), signed
 * zeros and infinities, denormals, the largest finite value.
 */
const std::uint16_t kSpecialF16[] = {
    0x0000, // +0
    0x8000, // -0
    0x7e00, // qNaN
    0xfe00, // -qNaN
    0x7e55, // qNaN with payload
    0x7c00, // +inf
    0xfc00, // -inf
    0x0001, // smallest denormal
    0x03ff, // largest denormal
    0x0400, // smallest normal
    0x7bff, // largest finite (65504)
    0xfbff, // most negative finite
    0x3c00, // 1.0
    0xbc00, // -1.0
    0x3800, // 0.5
    0x4200, // 3.0
    0x3555, // ~0.3333 (inexact in binary)
};

/**
 * Scalar reference for one fp16-mode ABC cycle, written exactly as
 * MxmPlane::stepAbc's scalar fp16 loop: per-row fp32 sum starting at
 * 0.0f, one multiply rounding and one add rounding per column,
 * columns ascending.
 */
void
mxmScalarRefF16(const float *wCols, int stride, const float *act,
                float *acc, int n, bool accumulate)
{
    for (int r = 0; r < n; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < n; ++c)
            sum += wCols[static_cast<std::size_t>(c) * stride + r] *
                   act[c];
        if (accumulate)
            acc[r] += sum;
        else
            acc[r] = sum;
    }
}

/**
 * Bit-pattern comparison (NaN-safe, unlike any float equality), with
 * one relaxation: two NaNs compare equal regardless of payload. When
 * a term mixes NaNs with different payloads, *which* payload the
 * mul/add returns depends on operand order — and the compiler treats
 * float mul/add as commutative (the AVX intrinsics are plain vector
 * `*`/`+` in GCC's headers), so payload choice is not pinned even
 * between two compilations of the scalar loop itself. NaN-ness,
 * infinities, denormals, signed zeros and all rounding are exact.
 */
void
expectF32BitsEq(const std::vector<float> &want,
                const std::vector<float> &got, const char *what)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        std::uint32_t wb, gb;
        std::memcpy(&wb, &want[i], 4);
        std::memcpy(&gb, &got[i], 4);
        if ((wb & 0x7fffffffu) > 0x7f800000u &&
            (gb & 0x7fffffffu) > 0x7f800000u)
            continue; // Both NaN: payload choice is unspecified.
        ASSERT_EQ(wb, gb) << what << " row " << i;
    }
}

TEST(MxmSimd, F16KernelsMatchScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const int n = 320;
    const int ns = static_cast<int>(std::size(kSpecialF16));

    // Weight bits: pseudo-random fp16 with every special planted in
    // the first rows (so every special multiplies every special via
    // the activation plants below).
    std::vector<std::uint16_t> wbits(static_cast<std::size_t>(n) * n);
    std::uint64_t seed = 131;
    for (auto &b : wbits) {
        b = static_cast<std::uint16_t>(nextByte(seed) |
                                       (nextByte(seed) << 8));
    }
    for (int i = 0; i < ns; ++i)
        for (int c = 0; c < n; ++c)
            wbits[static_cast<std::size_t>(i) * n + c] =
                kSpecialF16[(c + i) % ns];

    // Column-major fp32 image, exactly as buildF16WeightCols makes it.
    std::vector<float> wcols(static_cast<std::size_t>(n) * n);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            wcols[static_cast<std::size_t>(c) * n + r] =
                Fp16::fromBits(wbits[static_cast<std::size_t>(r) * n +
                                     c])
                    .toFloat();

    // Activations: converted fp16 values with specials up front.
    std::vector<float> act(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
        const auto b = static_cast<std::uint16_t>(
            nextByte(seed) | (nextByte(seed) << 8));
        act[static_cast<std::size_t>(c)] =
            Fp16::fromBits(c < 2 * ns ? kSpecialF16[c % ns] : b)
                .toFloat();
    }

    for (bool accumulate : {false, true}) {
        // Seed the accumulators with a value that makes += visible
        // (and, in lane 3, a NaN whose payload must survive +=).
        std::vector<float> ref(static_cast<std::size_t>(n), 5.25f);
        std::vector<float> got(static_cast<std::size_t>(n), 5.25f);
        ref[3] = got[3] = __builtin_nanf("0x1234");
        mxmScalarRefF16(wcols.data(), n, act.data(), ref.data(), n,
                        accumulate);

        ASSERT_TRUE(simd::mxmAbcF16Avx2(wcols.data(), n, act.data(),
                                        got.data(), n, accumulate));
        expectF32BitsEq(ref, got,
                        accumulate ? "avx2 acc" : "avx2 ovw");

        if (cpuHasAvx512f()) {
            std::vector<float> g5(static_cast<std::size_t>(n), 5.25f);
            g5[3] = __builtin_nanf("0x1234");
            ASSERT_TRUE(simd::mxmAbcF16Avx512(wcols.data(), n,
                                              act.data(), g5.data(),
                                              n, accumulate));
            expectF32BitsEq(ref, g5,
                            accumulate ? "avx512 acc" : "avx512 ovw");
        }
    }
}

TEST(MxmSimd, F16KernelsDeclineUncoveredShapes)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    std::vector<float> w(32 * 32, 1.0f), a(32, 1.0f), acc(32, 0.0f);
    EXPECT_FALSE(
        simd::mxmAbcF16Avx2(w.data(), 12, a.data(), acc.data(), 12,
                            false));
    if (cpuHasAvx512f()) {
        EXPECT_FALSE(simd::mxmAbcF16Avx512(w.data(), 8, a.data(),
                                           acc.data(), 8, false));
    }
}

} // namespace
} // namespace tsp
