/**
 * @file
 * Per-layer measurements shared by every workload: modeled-unit
 * activity from Chip::stats() and power(), host-time kernel
 * microbenchmarks, and the layer probe that fills the layer metrics
 * a workload does not reach on its own.
 */

#include <algorithm>

#include "arch/layout.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "mem/ecc.hh"
#include "mxm/mxm_plane.hh"
#include "sim/chip.hh"
#include "stream/fabric.hh"

namespace perfbench {

namespace {

/** Keeps a computed value alive past the optimizer. */
volatile std::uint64_t gSink = 0;

const char *const kUnitStats[] = {
    "cycles",        "dispatched",    "macc_ops",   "vxm_lane_ops",
    "stream_hops",   "stream_writes", "ifetches",   "notifies",
    "nop_cycles",    "parked_cycles", "mem_reads",  "mem_writes",
    "ecc_corrected", "ecc_uncorrectable"};

/** Metric name -> Chip::stats() counter, reported per inference. */
const std::pair<const char *, const char *> kPerInference[] = {
    {"mxm.macc_ops", "macc_ops"},
    {"vxm.lane_ops", "vxm_lane_ops"},
    {"mem.reads", "mem_reads"},
    {"mem.writes", "mem_writes"},
    {"stream.hops", "stream_hops"},
    {"stream.writes", "stream_writes"},
    {"icu.dispatched", "dispatched"},
    {"icu.nop_cycles", "nop_cycles"},
    {"icu.parked_cycles", "parked_cycles"},
    {"icu.ifetches", "ifetches"},
    {"icu.notifies", "notifies"},
};

/**
 * @return median host ns per call of @p body over @p reps batches of
 * @p calls calls each.
 */
template <typename Body>
double
nsPerCall(int reps, int calls, Body &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            body();
        ns.push_back(secondsSince(t0) * 1e9 / calls);
    }
    return median(ns);
}

/** An MXM plane streaming one long ABC window (BM_MxmMatvecTick). */
struct AbcBench
{
    tsp::ChipConfig cfg;
    tsp::StreamFabric fabric;
    std::unique_ptr<tsp::MxmPlane> plane;
    tsp::Instruction abc;
    std::uint32_t left = 0;

    explicit AbcBench(tsp::DType dtype)
    {
        cfg.strictStreams = false;
        cfg.eccEnabled = false;
        plane = std::make_unique<tsp::MxmPlane>(0, cfg, fabric);
        if (dtype == tsp::DType::Fp16) {
            // Install an (all-zero) fp16 weight image: 40 bursts of 8
            // rows over stream pairs, then IW.
            for (int burst = 0; burst < 2 * tsp::kMxmDim / 16; ++burst) {
                tsp::Instruction lw;
                lw.op = tsp::Opcode::Lw;
                lw.srcA = {0, tsp::Direction::West};
                lw.groupSize = 16;
                lw.dtype = tsp::DType::Fp16;
                plane->issue(lw, fabric.now());
                plane->tick(fabric.now());
                fabric.advance();
            }
            tsp::Instruction iw;
            iw.op = tsp::Opcode::Iw;
            plane->issue(iw, fabric.now());
            plane->tick(fabric.now());
            fabric.advance();
        }
        abc.op = tsp::Opcode::Abc;
        abc.imm1 = tsp::kMxmAccDepth;
        abc.srcA = {16, tsp::Direction::West};
        abc.dtype = dtype;
    }

    void
    tick()
    {
        if (left == 0) {
            plane->issue(abc, fabric.now());
            left = tsp::kMxmAccDepth;
        }
        plane->tick(fabric.now());
        fabric.advance();
        --left;
    }
};

} // namespace

UnitCounters &
UnitCounters::operator+=(const UnitCounters &o)
{
    for (const auto &[k, v] : o.stats)
        stats[k] += v;
    energyJ += o.energyJ;
    mxmActiveCycles += o.mxmActiveCycles;
    return *this;
}

UnitCounters
unitCounters(const tsp::Chip &chip)
{
    UnitCounters u;
    const tsp::StatGroup s = chip.stats();
    for (const char *k : kUnitStats)
        u.stats[k] = s.get(k);
    u.energyJ = chip.power().totalEnergyJ();
    for (int p = 0; p < tsp::kMxmPlanes; ++p)
        u.mxmActiveCycles += chip.mxm(p).activeCycles();
    return u;
}

void
reportUnits(Report &rep, const UnitCounters &a, const UnitCounters &b,
            std::uint64_t inferences, int chips)
{
    const double n = static_cast<double>(std::max<std::uint64_t>(1, inferences));
    const auto delta = [&](const char *k) {
        return static_cast<double>(b.stats.at(k) - a.stats.at(k));
    };
    const auto set = [&](const std::string &name, double v,
                         const char *unit, double relTol = 0.0) {
        rep.layer(name, v, unit);
        rep.exact("units." + name, v, relTol);
    };
    for (const auto &[metric, stat] : kPerInference)
        set(metric, delta(stat) / n, "count");
    const double chipCycles = delta("cycles"); // Summed over chips.
    set("mxm.plane_occupancy",
        chipCycles > 0.0
            ? static_cast<double>(b.mxmActiveCycles - a.mxmActiveCycles) /
                  (chipCycles * tsp::kMxmPlanes)
            : 0.0,
        "share");
    const double seconds =
        chipCycles / chips / tsp::ChipConfig{}.clockHz;
    set("power.avg_w",
        seconds > 0.0 ? (b.energyJ - a.energyJ) / seconds : 0.0, "W",
        kEnergyRelTol);
    set("ecc.corrected", delta("ecc_corrected"), "count");
    set("ecc.uncorrectable", delta("ecc_uncorrectable"), "count");
}

void
measureKernels(Report &rep)
{
    constexpr int kReps = 7;
    {
        AbcBench b(tsp::DType::Int8);
        rep.layer("mxm.abc_tick_ns",
                  nsPerCall(kReps, 4000, [&] { b.tick(); }), "ns");
        // One 320x320 int8 weight tile, one activation vector in,
        // 320 int32 accumulators read and written.
        rep.layer("mxm.abc_tick_bytes",
                  tsp::kMxmDim * tsp::kMxmDim + tsp::kMxmDim +
                      2.0 * tsp::kMxmDim * 4,
                  "bytes");
    }
    {
        AbcBench b(tsp::DType::Fp16);
        rep.layer("mxm.abc_tick_f16_ns",
                  nsPerCall(kReps, 2000, [&] { b.tick(); }), "ns");
        // fp32 column image of the fp16 weights, two activation
        // vectors in, 320 fp32 accumulators read and written.
        rep.layer("mxm.abc_tick_f16_bytes",
                  tsp::kMxmDim * tsp::kMxmDim * 4.0 + 2.0 * tsp::kMxmDim +
                      2.0 * tsp::kMxmDim * 4,
                  "bytes");
    }
    tsp::Rng rng(1);
    tsp::Vec320 v;
    for (auto &x : v.bytes)
        x = static_cast<std::uint8_t>(rng.nextBelow(256));
    const double vecBytes =
        tsp::kLanes + sizeof(std::uint16_t) * tsp::kSuperlanes;
    rep.layer("ecc.encode_vec_ns", nsPerCall(kReps, 200000, [&] {
                  tsp::eccComputeVec(v);
                  gSink = gSink + v.ecc[0];
              }),
              "ns");
    rep.layer("ecc.encode_vec_bytes", vecBytes, "bytes");
    tsp::eccComputeVec(v);
    rep.layer("ecc.check_vec_ns", nsPerCall(kReps, 200000, [&] {
                  tsp::Vec320 copy = v;
                  gSink = gSink + static_cast<std::uint64_t>(
                                      tsp::eccCheckVec(copy));
              }),
              "ns");
    rep.layer("ecc.check_vec_bytes", vecBytes, "bytes");
    {
        // 32 live stream entries hopping one slice (BM_FabricAdvance),
        // re-staged before every batch so none drifts off the chip.
        tsp::StreamFabric fabric;
        std::uint64_t live = 0;
        std::vector<double> ns;
        for (int r = 0; r < 2000; ++r) {
            fabric.clear();
            for (int i = 0; i < 32; ++i)
                fabric.write({static_cast<tsp::StreamId>(i),
                              tsp::Direction::East},
                             40 + i % 8, v);
            fabric.advance(); // Lands the writes.
            live = fabric.validEntries();
            constexpr int kCalls = 16;
            const auto t0 = Clock::now();
            for (int i = 0; i < kCalls; ++i)
                fabric.advance();
            ns.push_back(secondsSince(t0) * 1e9 / kCalls);
            gSink = gSink + fabric.validEntries();
        }
        rep.layer("stream.advance_ns", median(ns), "ns");
        rep.layer("stream.advance_bytes",
                  static_cast<double>(live) * vecBytes, "bytes");
    }
}

void
runLayerProbe(const std::string &workload, Report &rep, Tracer &tr)
{
    Options po;
    po.seed = 1;
    po.seconds = 0.0;
    po.trace = true;
    po.probe = true;
    if (workload != "serve-mix") {
        Report side;
        runServeMix(po, side, tr);
        rep.absorb(side, {}, "probe.serve-mix.");
    }
    if (workload != "fleet-soak") {
        Report side;
        runFleetSoak(po, side, tr);
        rep.absorb(side, {}, "probe.fleet-soak.");
    }
}

} // namespace perfbench
