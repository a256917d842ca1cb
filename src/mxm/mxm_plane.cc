#include "mxm/mxm_plane.hh"

#include <algorithm>

#include "common/cpu.hh"
#include "common/fp16.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "mxm/mxm_kernels.hh"

namespace tsp {

namespace {

/** @return a kMxmDim-byte row's last nonzero column + 1, 0 if none. */
std::uint16_t
rowExtent(const std::int8_t *row)
{
    for (int c = kMxmDim; c > 0; c -= 8) {
        std::uint64_t word;
        __builtin_memcpy(&word, row + c - 8, sizeof(word));
        if (word != 0) {
            while (row[c - 1] == 0)
                --c;
            return static_cast<std::uint16_t>(c);
        }
    }
    return 0;
}

/** Rounds a live extent up to a kernel's chunk, capped at @p n. */
int
liveSpan(int live, int chunk, int n)
{
    return std::min((live + chunk - 1) / chunk * chunk, n);
}

} // namespace

MxmPlane::MxmPlane(int plane, const ChipConfig &cfg,
                   StreamFabric &fabric)
    : cfg_(cfg), io_(cfg, fabric, strformat("MXM%d", plane)),
      plane_(plane),
      wbuf_(static_cast<std::size_t>(kMxmDim) * kMxmDim, 0),
      winst_(static_cast<std::size_t>(kMxmDim) * kMxmDim, 0),
      wbufF_(static_cast<std::size_t>(kMxmDim) * kMxmDim, 0),
      winstF_(static_cast<std::size_t>(kMxmDim) * kMxmDim, 0),
      winstRowSum_(static_cast<std::size_t>(kMxmDim), 0),
      winstFCols_(static_cast<std::size_t>(kMxmDim) * kMxmDim, 0.0f)
{
    TSP_ASSERT(plane >= 0 && plane < kMxmPlanes);
}

std::int8_t
MxmPlane::installedWeight(int row, int col) const
{
    TSP_ASSERT(row >= 0 && row < kMxmDim && col >= 0 && col < kMxmDim);
    return winst_[static_cast<std::size_t>(row) * kMxmDim +
                  static_cast<std::size_t>(col)];
}

std::uint16_t
MxmPlane::installedWeightF16(int row, int col) const
{
    TSP_ASSERT(row >= 0 && row < kMxmDim && col >= 0 && col < kMxmDim);
    return winstF_[static_cast<std::size_t>(row) * kMxmDim +
                   static_cast<std::size_t>(col)];
}

void
MxmPlane::issue(const Instruction &inst, Cycle now)
{
    switch (inst.op) {
      case Opcode::Lw:
        executeLw(inst, now);
        return;
      case Opcode::Iw:
        executeIw(inst, now);
        return;
      case Opcode::Abc:
        executeAbc(inst, now);
        return;
      case Opcode::Acc:
        executeAcc(inst, now);
        return;
      default:
        panic("MXM%d: bad opcode %s", plane_, opcodeName(inst.op));
    }
}

void
MxmPlane::executeLw(const Instruction &inst, Cycle now)
{
    (void)now;
    const int gs = inst.groupSize;
    TSP_ASSERT(gs >= 1 && gs <= kStreamsPerDir);

    if (fillRow_ == 0)
        weightType_ = inst.dtype;
    else if (inst.dtype != weightType_)
        panic("MXM%d: mixed weight dtypes in one LW burst", plane_);

    if (weightType_ == DType::Int8) {
        if (fillRow_ + gs > kMxmDim) {
            panic("MXM%d: LW overflows weight buffer (row %d + %d)",
                  plane_, fillRow_, gs);
        }
        const Vec320 *vp[kStreamsPerDir];
        Vec320 tmp[kStreamsPerDir];
        if (!io_.replayConsumeRun(inst.srcA, pos(), vp,
                                  static_cast<std::size_t>(gs))) {
            for (int k = 0; k < gs; ++k) {
                StreamRef s = inst.srcA;
                s.id = static_cast<StreamId>(inst.srcA.id + k);
                tmp[k] = io_.consume(s, pos());
                vp[k] = &tmp[k];
            }
        }
        for (int k = 0; k < gs; ++k) {
            const Vec320 &v = *vp[k];
            const int row = fillRow_ + k;
            // Bit-preserving u8 -> int8 row copy (the cast the scalar
            // loop did is a no-op on the representation).
            std::int8_t *dst =
                &wbuf_[static_cast<std::size_t>(row) * kMxmDim];
            __builtin_memcpy(dst, v.bytes.data(), kMxmDim);
            wbufExtent_[static_cast<std::size_t>(row)] = rowExtent(dst);
            weightBytes_ += kMxmDim;
        }
        fillRow_ += gs;
        dirtyRowsI8_ = std::max(dirtyRowsI8_, fillRow_);
    } else if (weightType_ == DType::Fp16) {
        TSP_ASSERT(gs % 2 == 0);
        const int rows = gs / 2;
        if (fillRow_ + rows > kMxmDim) {
            panic("MXM%d: LW overflows weight buffer (row %d + %d)",
                  plane_, fillRow_, rows);
        }
        const Vec320 *vp[kStreamsPerDir];
        Vec320 tmp[kStreamsPerDir];
        if (!io_.replayConsumeRun(inst.srcA, pos(), vp,
                                  static_cast<std::size_t>(gs))) {
            for (int k = 0; k < gs; ++k) {
                StreamRef s = inst.srcA;
                s.id = static_cast<StreamId>(inst.srcA.id + k);
                tmp[k] = io_.consume(s, pos());
                vp[k] = &tmp[k];
            }
        }
        for (int i = 0; i < rows; ++i) {
            const Vec320 &vlo = *vp[2 * i];
            const Vec320 &vhi = *vp[2 * i + 1];
            const int row = fillRow_ + i;
            for (int c = 0; c < kMxmDim; ++c) {
                const auto bits = static_cast<std::uint16_t>(
                    vlo.bytes[static_cast<std::size_t>(c)] |
                    (static_cast<std::uint16_t>(
                         vhi.bytes[static_cast<std::size_t>(c)])
                     << 8));
                wbufF_[static_cast<std::size_t>(row) * kMxmDim +
                       static_cast<std::size_t>(c)] = bits;
            }
            weightBytes_ += 2 * kMxmDim;
        }
        fillRow_ += rows;
        dirtyRowsF16_ = std::max(dirtyRowsF16_, fillRow_);
    } else {
        panic("MXM%d: weights must be int8 or fp16, got %s", plane_,
              dtypeName(weightType_));
    }
}

void
MxmPlane::executeIw(const Instruction &inst, Cycle now)
{
    (void)inst;
    (void)now;
    // Rows not written since the last IW already match their
    // installed copies; commit only the LW-filled ones.
    const auto dim = static_cast<std::size_t>(kMxmDim);
    if (dirtyRowsI8_ > 0) {
        std::copy_n(wbuf_.begin(),
                    static_cast<std::size_t>(dirtyRowsI8_) * dim,
                    winst_.begin());
        setLiveBlock(wbufExtent_);
        rowSumsValid_ = false;
    }
    if (dirtyRowsF16_ > 0) {
        std::copy_n(wbufF_.begin(),
                    static_cast<std::size_t>(dirtyRowsF16_) * dim,
                    winstF_.begin());
        fWeightsValid_ = false;
    }
    dirtyRowsI8_ = 0;
    dirtyRowsF16_ = 0;
    installedType_ = weightType_;
    fillRow_ = 0;
}

void
MxmPlane::setLiveBlock(const std::array<std::uint16_t, kMxmDim> &extent)
{
    liveRows_ = 0;
    liveCols_ = 0;
    for (int r = 0; r < kMxmDim; ++r) {
        const int e = extent[static_cast<std::size_t>(r)];
        if (e != 0) {
            liveRows_ = r + 1;
            liveCols_ = std::max(liveCols_, e);
        }
    }
}

void
MxmPlane::buildF16WeightCols()
{
    for (int r = 0; r < kMxmDim; ++r) {
        const std::uint16_t *wrow =
            &winstF_[static_cast<std::size_t>(r) * kMxmDim];
        for (int c = 0; c < kMxmDim; ++c) {
            winstFCols_[static_cast<std::size_t>(c) * kMxmDim +
                        static_cast<std::size_t>(r)] =
                Fp16::fromBits(wrow[c]).toFloat();
        }
    }
    fWeightsValid_ = true;
}

void
MxmPlane::executeAbc(const Instruction &inst, Cycle now)
{
    (void)now;
    if (abc_.active) {
        panic("MXM%d: ABC issued while a window is active (scheduler "
              "bug)",
              plane_);
    }
    TSP_ASSERT(inst.imm1 > 0);
    if (inst.imm1 > kMxmAccDepth) {
        panic("MXM%d: ABC window of %u exceeds accumulator depth %u",
              plane_, inst.imm1, kMxmAccDepth);
    }
    abc_.active = true;
    if (!(inst.flags & Instruction::kFlagAccumulate))
        ++generation_;
    abc_.src = inst.srcA;
    abc_.remaining = inst.imm1;
    abc_.index = 0;
    abc_.accumulate = inst.flags & Instruction::kFlagAccumulate;
    abc_.atype = inst.dtype;
    if (abc_.atype == DType::Fp16 && installedType_ != DType::Fp16) {
        panic("MXM%d: fp16 activations over %s weights", plane_,
              dtypeName(installedType_));
    }
}

void
MxmPlane::executeAcc(const Instruction &inst, Cycle now)
{
    (void)now;
    if (acc_.active) {
        panic("MXM%d: ACC issued while a drain is active (scheduler "
              "bug)",
              plane_);
    }
    TSP_ASSERT(inst.imm1 > 0 && inst.imm1 <= kMxmAccDepth);
    acc_.active = true;
    accGen_ = generation_;
    acc_.dst = inst.dst;
    acc_.remaining = inst.imm1;
    acc_.index = 0;
}

void
MxmPlane::stepAbc(Cycle now)
{
    if (!abc_.active)
        return;
    ++activeCycles_;

    const int n = cfg_.vectorLength();
    const std::uint32_t idx = abc_.index;

    // Stamp the accumulator with the current window generation; the
    // drain checks it reads its own generation (see stepAcc).
    indexGen_[idx] = generation_;

    if (abc_.atype == DType::Int8) {
        Vec320 scratch;
        const Vec320 &a = *io_.consumeRef(abc_.src, pos(), scratch);
        auto &acc = accI_[idx];
        // Dot products against installed rows: y[r] = sum_c W[r][c]*a[c].
        // Kernel ladder: AVX-512 VNNI (needs the per-install row
        // sums), then AVX2, then scalar. Every tier computes the
        // identical wrapping int32 sums; a kernel declines shapes it
        // can't chunk and the next tier takes over. The SIMD tiers
        // cover only the installed tile's live block, rounded up to
        // their chunks: the weights outside it are zero, so rows past
        // it sum to 0 and columns past it add nothing. The scalar
        // loop stays the full-tile reference.
        bool done = false;
        if (simdKernelsEnabled()) {
            int rows = 0;
            if (cpuHasAvx512Vnni()) {
                rows = liveSpan(liveRows_, 4, n);
                const int cols = liveSpan(liveCols_, 64, n);
                if (!rowSumsValid_) {
                    rowSumsValid_ = simd::mxmRowSumsInt8Vnni(
                        winst_.data(), kMxmDim, rows, cols,
                        winstRowSum_.data());
                }
                done = rowSumsValid_ &&
                       simd::mxmAbcInt8Vnni(
                           winst_.data(), kMxmDim, a.bytes.data(),
                           winstRowSum_.data(), acc.data(), rows, cols,
                           abc_.accumulate);
            }
            if (!done) {
                rows = liveSpan(liveRows_, 1, n);
                done = simd::mxmAbcInt8Avx2(
                    winst_.data(), kMxmDim, a.bytes.data(), acc.data(),
                    rows, liveSpan(liveCols_, 32, n), abc_.accumulate);
            }
            if (done && !abc_.accumulate)
                std::fill(acc.begin() + rows, acc.begin() + n, 0);
        }
        if (!done) {
            for (int r = 0; r < n; ++r) {
                const std::int8_t *wrow =
                    &winst_[static_cast<std::size_t>(r) * kMxmDim];
                std::int32_t sum = 0;
                for (int c = 0; c < n; ++c) {
                    sum += static_cast<std::int32_t>(wrow[c]) *
                           static_cast<std::int8_t>(
                               a.bytes[static_cast<std::size_t>(c)]);
                }
                if (abc_.accumulate)
                    acc[static_cast<std::size_t>(r)] += sum;
                else
                    acc[static_cast<std::size_t>(r)] = sum;
            }
        }
    } else if (abc_.atype == DType::Fp16) {
        const Vec320 *vp[2];
        Vec320 tmpLo;
        Vec320 tmpHi;
        if (!io_.replayConsumeRun(abc_.src, pos(), vp, 2)) {
            StreamRef lo = abc_.src;
            StreamRef hi = abc_.src;
            hi.id = static_cast<StreamId>(lo.id + 1);
            tmpLo = io_.consume(lo, pos());
            tmpHi = io_.consume(hi, pos());
            vp[0] = &tmpLo;
            vp[1] = &tmpHi;
        }
        const Vec320 &vlo = *vp[0];
        const Vec320 &vhi = *vp[1];
        float act[kMxmDim];
        for (int c = 0; c < n; ++c) {
            const auto bits = static_cast<std::uint16_t>(
                vlo.bytes[static_cast<std::size_t>(c)] |
                (static_cast<std::uint16_t>(
                     vhi.bytes[static_cast<std::size_t>(c)])
                 << 8));
            act[c] = Fp16::fromBits(bits).toFloat();
        }
        auto &acc = accF_[idx];
        // Row dot products in fp32: y[r] = sum_c w[r][c]*act[c],
        // summed column-ascending from 0.0f with a separate rounding
        // for the multiply and the add (no FMA). The SIMD tiers
        // vectorize *across rows*, so each row's rounding sequence is
        // exactly this scalar loop's — bit-identical including NaN
        // and inf propagation.
        bool done = false;
        if (simdKernelsEnabled()) {
            if (!fWeightsValid_)
                buildF16WeightCols();
            if (cpuHasAvx512f()) {
                done = simd::mxmAbcF16Avx512(
                    winstFCols_.data(), kMxmDim, act, accF_[idx].data(),
                    n, abc_.accumulate);
            }
            if (!done) {
                done = simd::mxmAbcF16Avx2(winstFCols_.data(), kMxmDim,
                                           act, accF_[idx].data(), n,
                                           abc_.accumulate);
            }
        }
        if (!done) {
            for (int r = 0; r < n; ++r) {
                const std::uint16_t *wrow =
                    &winstF_[static_cast<std::size_t>(r) * kMxmDim];
                float sum = 0.0f;
                for (int c = 0; c < n; ++c)
                    sum += Fp16::fromBits(wrow[c]).toFloat() * act[c];
                if (abc_.accumulate)
                    acc[static_cast<std::size_t>(r)] += sum;
                else
                    acc[static_cast<std::size_t>(r)] = sum;
            }
        }
    } else {
        panic("MXM%d: unsupported activation dtype %s", plane_,
              dtypeName(abc_.atype));
    }
    (void)now;

    maccOps_ +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    ++abc_.index;
    if (--abc_.remaining == 0)
        abc_.active = false;
}

void
MxmPlane::stepAcc(Cycle now)
{
    if (!acc_.active)
        return;

    if (indexGen_[acc_.index] != accGen_) {
        panic("MXM%d: ACC drains accumulator %u of generation %llu "
              "but expected %llu (overwritten before drain — "
              "scheduler bug)",
              plane_, acc_.index,
              static_cast<unsigned long long>(indexGen_[acc_.index]),
              static_cast<unsigned long long>(accGen_));
    }

    const Cycle when = now + opTiming(Opcode::Acc).dFunc;
    const int n = cfg_.vectorLength();

    TSP_ASSERT(acc_.dst.id % 4 == 0 &&
               acc_.dst.id + 4 <= kStreamsPerDir);

    // Replay: build the four byte-planes directly in their tape
    // arena slots (claimed in the recorded produce order k = 0..3);
    // nothing is copied. Slots are liveness-reused, so clear them
    // first — a live run's out[] starts from zeroed vectors.
    Vec320 local[4];
    Vec320 *out[4];
    bool replay = false;
    for (int k = 0; k < 4; ++k) {
        if (Vec320 *dst = io_.replayProduceDest()) {
            *dst = Vec320{};
            out[k] = dst;
            replay = true;
        } else {
            out[k] = &local[k];
        }
    }

    if (installedType_ == DType::Fp16) {
        const auto &acc = accF_[acc_.index];
        for (int r = 0; r < n; ++r) {
            std::uint32_t u;
            const float f = acc[static_cast<std::size_t>(r)];
            __builtin_memcpy(&u, &f, sizeof(u));
            for (int k = 0; k < 4; ++k) {
                out[k]->bytes[static_cast<std::size_t>(r)] =
                    static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
            }
        }
    } else {
        const auto &acc = accI_[acc_.index];
        for (int r = 0; r < n; ++r) {
            const auto u = static_cast<std::uint32_t>(
                acc[static_cast<std::size_t>(r)]);
            for (int k = 0; k < 4; ++k) {
                out[k]->bytes[static_cast<std::size_t>(r)] =
                    static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
            }
        }
    }

    if (!replay) {
        for (int k = 0; k < 4; ++k) {
            StreamRef s = acc_.dst;
            s.id = static_cast<StreamId>(acc_.dst.id + k);
            io_.produce(s, pos(), local[k], when);
        }
    }

    ++acc_.index;
    if (--acc_.remaining == 0)
        acc_.active = false;
}

void
MxmPlane::tick(Cycle now)
{
    stepAbc(now);
    stepAcc(now);
}

void
MxmPlane::saveState(SnapshotWriter &w) const
{
    io_.saveState(w);
    w.bytes(wbuf_.data(), wbuf_.size());
    w.bytes(winst_.data(), winst_.size());
    for (const auto v : wbufF_)
        w.u16(v);
    for (const auto v : winstF_)
        w.u16(v);
    w.i32(fillRow_);
    w.u8(static_cast<std::uint8_t>(weightType_));
    w.u8(static_cast<std::uint8_t>(installedType_));

    w.b(abc_.active);
    w.u8(abc_.src.id);
    w.u8(abc_.src.dir == Direction::West ? 1 : 0);
    w.u32(abc_.remaining);
    w.u32(abc_.index);
    w.b(abc_.accumulate);
    w.u8(static_cast<std::uint8_t>(abc_.atype));

    w.b(acc_.active);
    w.u8(acc_.dst.id);
    w.u8(acc_.dst.dir == Direction::West ? 1 : 0);
    w.u32(acc_.remaining);
    w.u32(acc_.index);

    for (const auto &row : accI_) {
        for (const auto v : row)
            w.i32(v);
    }
    for (const auto &row : accF_) {
        for (const auto v : row)
            w.f32(v);
    }
    w.u64(generation_);
    w.u64(accGen_);
    for (const auto g : indexGen_)
        w.u64(g);

    w.u64(maccOps_);
    w.u64(activeCycles_);
    w.u64(weightBytes_);
}

void
MxmPlane::loadState(SnapshotReader &r)
{
    io_.loadState(r);
    r.bytes(wbuf_.data(), wbuf_.size());
    r.bytes(winst_.data(), winst_.size());
    for (auto &v : wbufF_)
        v = r.u16();
    for (auto &v : winstF_)
        v = r.u16();
    fillRow_ = r.i32();
    weightType_ = static_cast<DType>(r.u8());
    installedType_ = static_cast<DType>(r.u8());
    // The VNNI bias cache and the fp16 column image are derived
    // state; recompute on demand. So are the row extents and the live
    // block, which come from the installed tile: a snapshot taken
    // between an LW burst and its IW holds staged rows that differ
    // from the installed ones, so the next IW must copy every row.
    rowSumsValid_ = false;
    fWeightsValid_ = false;
    std::array<std::uint16_t, kMxmDim> instExtent{};
    for (std::size_t row = 0; row < instExtent.size(); ++row) {
        wbufExtent_[row] = rowExtent(&wbuf_[row * kMxmDim]);
        instExtent[row] = rowExtent(&winst_[row * kMxmDim]);
    }
    setLiveBlock(instExtent);
    dirtyRowsI8_ = kMxmDim;
    dirtyRowsF16_ = kMxmDim;

    abc_.active = r.b();
    abc_.src.id = r.u8();
    abc_.src.dir = r.u8() ? Direction::West : Direction::East;
    abc_.remaining = r.u32();
    abc_.index = r.u32();
    abc_.accumulate = r.b();
    abc_.atype = static_cast<DType>(r.u8());

    acc_.active = r.b();
    acc_.dst.id = r.u8();
    acc_.dst.dir = r.u8() ? Direction::West : Direction::East;
    acc_.remaining = r.u32();
    acc_.index = r.u32();

    for (auto &row : accI_) {
        for (auto &v : row)
            v = r.i32();
    }
    for (auto &row : accF_) {
        for (auto &v : row)
            v = r.f32();
    }
    generation_ = r.u64();
    accGen_ = r.u64();
    for (auto &g : indexGen_)
        g = r.u64();

    maccOps_ = r.u64();
    activeCycles_ = r.u64();
    weightBytes_ = r.u64();
}

} // namespace tsp
