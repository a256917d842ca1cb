/**
 * @file
 * Host runtime: DMA-time model, latency accounting, tensor readback
 * geometry, back-to-back sessions on fresh chips, and the one-chip
 * session as a pod of one.
 */

#include <gtest/gtest.h>

#include "c2c/pod.hh"
#include "common/rng.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

namespace tsp {
namespace {

TEST(Session, DmaAndLatencyAccounting)
{
    Graph g = model::buildTinyNet(11, 8, 8, 4);
    Rng rng(2);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    Lowering lw(true);
    const auto tensors = g.lower(lw, input);
    const std::size_t image_bytes = lw.image().totalBytes();
    EXPECT_GT(image_bytes, 0u);

    InferenceSession sess(lw);
    EXPECT_DOUBLE_EQ(sess.dmaSeconds(),
                     static_cast<double>(image_bytes) /
                         kPcieGen4Bps);
    const Cycle cycles = sess.run();
    EXPECT_DOUBLE_EQ(sess.latencySeconds(),
                     static_cast<double>(cycles) * 1e-9);
    EXPECT_EQ(sess.cycles(), cycles);

    // Readback geometry matches the graph's output shape.
    const auto out = sess.readTensor(tensors.at(g.outputNode()));
    EXPECT_EQ(out.h, 1);
    EXPECT_EQ(out.w, 1);
    EXPECT_EQ(out.c, 10);
}

TEST(Session, IndependentSessionsAgree)
{
    Graph g = model::buildTinyNet(5, 8, 8, 4);
    Rng rng(9);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    std::vector<std::int8_t> first;
    for (int run = 0; run < 2; ++run) {
        Lowering lw(true);
        const auto tensors = g.lower(lw, input);
        InferenceSession sess(lw);
        sess.run();
        const auto out =
            sess.readTensor(tensors.at(g.outputNode()));
        if (run == 0)
            first = out.data;
        else
            EXPECT_EQ(out.data, first);
    }
}

TEST(Session, CustomClockScalesLatencyOnly)
{
    Graph g = model::buildTinyNet(5, 6, 6, 4);
    Rng rng(4);
    std::vector<std::int8_t> input(6 * 6 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    Lowering lw(true);
    const auto t = g.lower(lw, input);
    (void)t;
    ChipConfig cfg;
    cfg.clockHz = 900e6; // The nominal silicon clock.
    InferenceSession sess(lw, cfg);
    const Cycle cycles = sess.run();
    EXPECT_DOUBLE_EQ(sess.latencySeconds(),
                     static_cast<double>(cycles) / 900e6);
}

/** @return @p t read back from a bare chip (readTensor's layout). */
std::vector<std::int8_t>
readBare(const Chip &chip, const LoweredTensor &t)
{
    const ActTensor &at = t.t;
    std::vector<std::int8_t> out;
    for (int y = 0; y < at.height; ++y) {
        for (int x = 0; x < at.width; ++x) {
            for (int c = 0; c < at.channels; ++c) {
                const GlobalAddr a =
                    at.addrOf(at.ownerOf(y), y, x, c / kMxmDim);
                const Vec320 v =
                    chip.mem(a.hem, a.slice).backdoorRead(a.addr);
                out.push_back(static_cast<std::int8_t>(
                    v.bytes[static_cast<std::size_t>(c % kMxmDim)]));
            }
        }
    }
    return out;
}

TEST(Session, PodOfOneMatchesBareChip)
{
    // A one-chip session runs through Pod::runAllBounded on a pod of
    // one. With faults live, on both cores, it must be exactly the
    // chip its ChipConfig describes.
    Graph g = model::buildTinyNet(21, 8, 8, 4);
    Rng rng(23);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    Lowering lw(true);
    const auto tensors = g.lower(lw, input);
    const LoweredTensor &out = tensors.at(g.outputNode());
    const auto prog = std::make_shared<const AsmProgram>(
        lw.program().toAsm(/*with_preamble=*/true));

    int machine_checks = 0;
    for (const bool ff : {true, false}) {
        for (const double dbl : {0.0, 0.3}) {
            ChipConfig cfg;
            cfg.fastForwardEnabled = ff;
            cfg.fault.seed = 0xabcdull;
            cfg.fault.memReadRate = 0.02;
            cfg.fault.memWriteRate = 0.01;
            cfg.fault.streamRate = 0.01;
            cfg.fault.doubleBitFraction = dbl;
            SCOPED_TRACE(testing::Message()
                         << "ff " << ff << " double " << dbl);

            Chip bare(cfg);
            bare.loadProgram(*prog);
            lw.image().applyTo(bare);
            const bool bare_done = bare.runBounded(500'000'000);

            InferenceSession sess(lw, prog, cfg);
            const RunResult r = sess.runBounded();
            EXPECT_EQ(r.completed, bare_done);
            EXPECT_EQ(r.cycles, bare.now());
            EXPECT_EQ(sess.chip().now(), bare.now());
            EXPECT_EQ(sess.chip().stats().all(), bare.stats().all());
            EXPECT_EQ(sess.chip().power().totalEnergyJ(),
                      bare.power().totalEnergyJ());
            ASSERT_EQ(sess.machineChecked(), bare.machineCheck());
            if (bare.machineCheck()) {
                ++machine_checks;
                EXPECT_EQ(r.status, RunStatus::MachineCheck);
                EXPECT_EQ(sess.machineCheckChip(), 0);
                EXPECT_EQ(sess.lastMachineCheck().cycle,
                          bare.machineCheckInfo().cycle);
                EXPECT_EQ(sess.lastMachineCheck().detail,
                          bare.machineCheckInfo().detail);
            }
            EXPECT_EQ(sess.readTensor(out).data, readBare(bare, out));
        }
    }
    // The double-bit configs condemn the run on both cores.
    EXPECT_EQ(machine_checks, 2);
}

TEST(Session, PodOfOneKeepsCallerFaultSeed)
{
    ChipConfig cfg;
    cfg.fault.seed = 0x5151ull;
    cfg.fault.streamRate = 1e-3;
    const Pod one(1, 17, cfg);
    ASSERT_EQ(one.size(), 1);
    EXPECT_EQ(one.chip(0).config().fault.seed, cfg.fault.seed);
    // Ring members still draw distinct derived seeds.
    const Pod ring(2, 17, cfg);
    EXPECT_NE(ring.chip(0).config().fault.seed, cfg.fault.seed);
    EXPECT_NE(ring.chip(0).config().fault.seed,
              ring.chip(1).config().fault.seed);
}

} // namespace
} // namespace tsp
