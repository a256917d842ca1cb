/**
 * @file
 * One 320x320 MACC plane of the matrix execution module (paper III.D,
 * Fig. 7). The chip has four: two per hemisphere.
 *
 * A plane holds a staging weight buffer filled by LW from streams (16
 * streams x 16 B per supercell row per cycle), an installed weight
 * array committed by IW, a bank of vector accumulators written as
 * activations stream through under ABC control, and an ACC sequencer
 * that drains accumulators onto int32/fp32 result stream groups.
 *
 * int8 activations produce int32 accumulations; fp16 mode runs two
 * byte-planes in tandem (modeled as a plane-local mode) accumulating
 * in fp32 with a single rounding step at the end.
 */

#ifndef TSP_MXM_MXM_PLANE_HH
#define TSP_MXM_MXM_PLANE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "stream/stream_io.hh"

namespace tsp {

/**
 * Accumulator bank depth per plane, in 320-element vectors.
 *
 * The paper does not publish this constant; 64 bounds the reorder
 * window the compiler may accumulate into before draining (DESIGN.md
 * lists this as a modeled parameter). Convolution lowering tiles its
 * output windows to this depth.
 */
inline constexpr std::uint32_t kMxmAccDepth = 64;

/** One of the four 320x320 multiply-accumulate planes. */
class MxmPlane
{
  public:
    /**
     * @param plane plane number 0..3 (0,1 west; 2,3 east).
     */
    MxmPlane(int plane, const ChipConfig &cfg, StreamFabric &fabric);

    /** Dispatches Lw / Iw / Abc / Acc to this plane at cycle @p now. */
    void issue(const Instruction &inst, Cycle now);

    /**
     * Advances the plane's ABC/ACC sequencers one cycle. Must be
     * called every cycle after dispatch so a window's first activation
     * is consumed in its issue cycle.
     */
    void tick(Cycle now);

    /** @return plane number 0..3. */
    int plane() const { return plane_; }

    /** @return X position (west or east MXM). */
    SlicePos
    pos() const
    {
        return Layout::mxmPos(plane_ < 2 ? Hemisphere::West
                                         : Hemisphere::East);
    }

    /** @return cumulative MACC operations (power/roofline input). */
    std::uint64_t maccOps() const { return maccOps_; }

    /** @return cycles with an active ABC window (occupancy). */
    std::uint64_t activeCycles() const { return activeCycles_; }

    /** @return weight bytes loaded into the LW buffer. */
    std::uint64_t weightBytesLoaded() const { return weightBytes_; }

    /** @return weight rows LW has staged since the last IW. */
    int stagedRows() const { return fillRow_; }

    /** @return true if an ABC window is streaming right now. */
    bool abcActive() const { return abc_.active; }

    /** @return true if an ACC drain is running right now. */
    bool accActive() const { return acc_.active; }

    /** @return true if either sequencer needs a tick() this cycle. */
    bool busy() const { return abc_.active || acc_.active; }

    /**
     * @return the next cycle >= @p now at which this plane does work:
     * @p now while an ABC window or ACC drain is streaming (both
     * sequencers consume/produce every cycle until exhausted), else
     * kNoEventCycle — an idle plane only re-activates at an Lw / Iw /
     * Abc / Acc dispatch, which is the dispatching queue's event.
     */
    Cycle
    nextActiveCycle(Cycle now) const
    {
        return busy() ? now : kNoEventCycle;
    }

    /** @return the stream access point (CSR counters). */
    const StreamIo &io() const { return io_; }

    /** Test hook: directly reads an installed weight (row, col). */
    std::int8_t installedWeight(int row, int col) const;

    /** Test hook: reads the fp16 installed weight bits. */
    std::uint16_t installedWeightF16(int row, int col) const;

    /**
     * Serializes weight buffers (staging + installed), sequencer
     * state, the accumulator banks with their generation stamps, and
     * counters. The lazy VNNI row-sum cache is excluded — it is
     * recomputed deterministically from the installed weights.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores plane state (invalidates the row-sum cache). The
     * snapshot may fall between an LW burst and its IW, when the
     * staged and installed buffers differ, so every staged row is
     * marked dirty and the live block is rederived from the installed
     * tile itself.
     */
    void loadState(SnapshotReader &r);

  private:
    void executeLw(const Instruction &inst, Cycle now);
    void executeIw(const Instruction &inst, Cycle now);
    void executeAbc(const Instruction &inst, Cycle now);
    void executeAcc(const Instruction &inst, Cycle now);

    void stepAbc(Cycle now);
    void stepAcc(Cycle now);

    /** Rebuilds winstFCols_ from winstF_ (lazy, post-IW). */
    void buildF16WeightCols();

    /** Sets liveRows_ / liveCols_ from per-row int8 extents. */
    void setLiveBlock(const std::array<std::uint16_t, kMxmDim> &extent);

    const ChipConfig &cfg_;
    StreamIo io_;
    int plane_;

    /** Weight staging (LW) and installed (IW) arrays, row-major. */
    std::vector<std::int8_t> wbuf_;
    std::vector<std::int8_t> winst_;
    /** fp16 bit patterns when in fp16 mode. */
    std::vector<std::uint16_t> wbufF_;
    std::vector<std::uint16_t> winstF_;
    /**
     * Per-row sums of the installed int8 weights, the bias correction
     * for the VNNI kernel (mxm_kernels.hh). Recomputed lazily after
     * each IW, and only on hosts taking the VNNI path.
     */
    std::vector<std::int32_t> winstRowSum_;
    bool rowSumsValid_ = false;
    /**
     * Column-major fp32 image of the installed fp16 weights
     * (winstFCols_[c * kMxmDim + r] = toFloat(winstF_[r][c])), the
     * operand layout the fp16 SIMD kernels need to vectorize across
     * rows while keeping each row's scalar rounding order. Like the
     * row-sum cache: rebuilt lazily after each IW, derived state
     * excluded from snapshots, and fp16->fp32 conversion is exact so
     * the image carries the installed bits losslessly.
     */
    std::vector<float> winstFCols_;
    bool fWeightsValid_ = false;
    /**
     * Extent of each staged int8 row: its last nonzero column + 1, 0
     * for an all-zero row. Recorded by LW.
     */
    std::array<std::uint16_t, kMxmDim> wbufExtent_{};
    /**
     * Live block of the installed int8 tile: every weight at a row >=
     * liveRows_ or a column >= liveCols_ is zero, so the int8 SIMD
     * kernels compute only this block (rows past it sum to 0 exactly).
     * Derived at IW from wbufExtent_; excluded from snapshots.
     */
    int liveRows_ = 0;
    int liveCols_ = 0;
    /**
     * Staged rows written since the last IW, per buffer. LW fills
     * rows upward from 0, so rows [0, dirty) are the only ones whose
     * staged and installed copies can differ and all IW must copy.
     */
    int dirtyRowsI8_ = 0;
    int dirtyRowsF16_ = 0;
    int fillRow_ = 0;
    DType weightType_ = DType::Int8;
    DType installedType_ = DType::Int8;

    /** Activation window sequencer. */
    struct AbcState
    {
        bool active = false;
        StreamRef src{};
        std::uint32_t remaining = 0;
        std::uint32_t index = 0;
        bool accumulate = false;
        DType atype = DType::Int8;
    };
    AbcState abc_{};

    /** Result drain sequencer. */
    struct AccState
    {
        bool active = false;
        StreamRef dst{};
        std::uint32_t remaining = 0;
        std::uint32_t index = 0;
    };
    AccState acc_{};

    /** Accumulator bank: int32 and fp32 views (mode-selected). */
    std::array<std::array<std::int32_t, kMxmDim>, kMxmAccDepth> accI_{};
    std::array<std::array<float, kMxmDim>, kMxmAccDepth> accF_{};

    /**
     * Drain-consistency tracking: every overwriting ABC starts a new
     * generation; ACC must emit accumulators of the generation that
     * was current when it issued, or the schedule interleaved two
     * chunks incorrectly.
     */
    std::uint64_t generation_ = 0;
    std::uint64_t accGen_ = 0;
    std::array<std::uint64_t, kMxmAccDepth> indexGen_{};

    std::uint64_t maccOps_ = 0;
    std::uint64_t activeCycles_ = 0;
    std::uint64_t weightBytes_ = 0;
};

} // namespace tsp

#endif // TSP_MXM_MXM_PLANE_HH
