/**
 * @file
 * Host runtime: DMA-time model, latency accounting, tensor readback
 * geometry, back-to-back sessions on fresh chips, the one-chip
 * session as a pod of one, and the rearm path (program hashes bound
 * once, live stream rings cleared, map-free ECC counter).
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "c2c/pod.hh"
#include "common/rng.hh"
#include "graph/batch_program.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/backend.hh"
#include "sim/snapshot.hh"

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

// ---------------------------------------------------------------
// Rearm path.

/** @return @p n seeded int8 values in [-100, 100]. */
std::vector<std::int8_t>
seededInput(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return v;
}

/** A lowered tiny net and its assembled program. */
struct LoweredNet
{
    LoweredNet(std::uint64_t weight_seed, int hw)
        : g(model::buildTinyNet(weight_seed, hw, hw, 4)),
          tensors(g.lower(lw, seededInput(weight_seed + 100,
                                          static_cast<std::size_t>(
                                              hw * hw * 4)))),
          prog(std::make_shared<const AsmProgram>(
              lw.program().toAsm(/*with_preamble=*/true)))
    {
    }

    const LoweredTensor &out() const
    {
        return tensors.at(g.outputNode());
    }

    Graph g;
    Lowering lw{true};
    std::map<int, LoweredTensor> tensors;
    std::shared_ptr<const AsmProgram> prog;
};

/** @return each counter of @p after minus the same one of @p before. */
std::map<std::string, std::uint64_t>
statDelta(const StatGroup &after, const StatGroup &before)
{
    std::map<std::string, std::uint64_t> d;
    for (const auto &[name, v] : after.all())
        d[name] = v - before.get(name);
    return d;
}

TEST(SessionRearm, LoweredBindLoadsProgramHash)
{
    LoweredNet a(5, 8), b(6, 6);
    ASSERT_NE(hashProgram(*a.prog), hashProgram(*b.prog));

    InferenceSession sess(a.lw, a.prog);
    EXPECT_EQ(sess.chip().programHash(), hashProgram(*a.prog));
    sess.bind(b.lw, b.prog);
    sess.reset();
    EXPECT_EQ(sess.chip().programHash(), hashProgram(*b.prog));
    sess.bind(a.lw, a.prog, hashProgram(*a.prog));
    sess.reset();
    EXPECT_EQ(sess.chip().programHash(), hashProgram(*a.prog));

    // A rebuilt engine loads under the bound hash too.
    const RunResult r = sess.runBounded(100);
    ASSERT_EQ(r.status, RunStatus::CycleLimit);
    sess.reset();
    EXPECT_EQ(sess.rebuilds(), 1);
    EXPECT_EQ(sess.chip().programHash(), hashProgram(*a.prog));
}

TEST(SessionRearm, BatchProgramBindLoadsProgHash)
{
    BatchProgramCache cache(model::buildTinyNet(3, 8, 8, 4),
                            seededInput(7, 8 * 8 * 4), 2);
    const auto bp1 = cache.acquire(1);
    const auto bp2 = cache.acquire(2);
    ASSERT_EQ(bp1->progHash, hashProgram(*bp1->prog));
    ASSERT_EQ(bp2->progHash, hashProgram(*bp2->prog));
    ASSERT_NE(bp1->progHash, bp2->progHash);

    serve::SessionBackend be(bp1, 2, ChipConfig{});
    EXPECT_EQ(be.session().chip().programHash(), hashProgram(*bp1->prog));
    be.bindProgram(bp2);
    be.resetBatch(2);
    EXPECT_EQ(be.session().chip().programHash(), hashProgram(*bp2->prog));
    be.bindProgram(bp1);
    be.resetBatch(1);
    EXPECT_EQ(be.session().chip().programHash(), hashProgram(*bp1->prog));
}

/** @return the batch-@p batch ring all-reduce programs for @p pod. */
InferenceSession::Programs
allReduce(const Pod &pod, int batch)
{
    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(pod, sched, batch);
    InferenceSession::Programs progs;
    for (auto &p : sched)
        progs.push_back(std::make_shared<const AsmProgram>(p.toAsm()));
    return progs;
}

/** Expects every member of @p pod to carry its program's hash. */
void
expectMemberHashes(const Pod &pod, const InferenceSession::Programs &p)
{
    ASSERT_EQ(static_cast<std::size_t>(pod.size()), p.size());
    for (int c = 0; c < pod.size(); ++c) {
        EXPECT_EQ(pod.chip(c).programHash(),
                  hashProgram(*p[static_cast<std::size_t>(c)]))
            << "member " << c;
    }
}

TEST(SessionRearm, PodBindLoadsEveryMemberHash)
{
    constexpr int kChips = 2;
    constexpr Cycle kWire = 17;
    InferenceSession sess(kChips, kWire);
    const auto b1 = allReduce(sess.pod(), 1);
    const auto b2 = allReduce(sess.pod(), 2);
    ASSERT_NE(hashProgram(*b1[0]), hashProgram(*b1[1]));
    ASSERT_NE(hashProgram(*b1[0]), hashProgram(*b2[0]));
    sess.bind(b1);
    sess.reset();
    expectMemberHashes(sess.pod(), b1);
    sess.bind(b2, InferenceSession::hashesOf(b2));
    sess.reset();
    expectMemberHashes(sess.pod(), b2);

    serve::PodBackend be(kChips, kWire, ChipConfig{}, 2);
    expectMemberHashes(be.session().pod(), b1);
    be.resetBatch(2);
    expectMemberHashes(be.session().pod(), b2);
    be.resetBatch(1);
    expectMemberHashes(be.session().pod(), b1);
}

TEST(SessionRearm, CycleLimitThenResetMatchesFreshSession)
{
    LoweredNet net(9, 8);
    InferenceSession fresh(net.lw, net.prog);
    const Cycle full = fresh.run();

    // Cut mid-program, with vectors still flowing on the streams.
    InferenceSession sess(net.lw, net.prog);
    ASSERT_EQ(sess.runBounded(full / 2).status, RunStatus::CycleLimit);
    ASSERT_GT(sess.chip().fabric().validEntries(), 0u);

    sess.reset();
    EXPECT_EQ(sess.chip().fabric().validEntries(), 0u);
    EXPECT_EQ(sess.run(), full);
    EXPECT_EQ(sess.chip().stats().all(), fresh.chip().stats().all());
    EXPECT_EQ(sess.chip().power().totalEnergyJ(),
              fresh.chip().power().totalEnergyJ());
    EXPECT_EQ(sess.readTensor(net.out()).data,
              fresh.readTensor(net.out()).data);
}

TEST(SessionRearm, RearmAfterCompletedRunClearsInFlightVectors)
{
    // A completed program leaves values flowing toward the chip edge.
    // reset() must drop every one of them, or they keep hopping
    // (stream_hops, energy) into the next run.
    LoweredNet net(12, 8);
    InferenceSession sess(net.lw, net.prog);
    const Cycle first = sess.run();
    const StatGroup fresh = sess.chip().stats();
    const double fresh_j = sess.chip().power().totalEnergyJ();
    const auto out = sess.readTensor(net.out()).data;
    ASSERT_GT(sess.chip().fabric().validEntries(), 0u);

    sess.reset();
    EXPECT_EQ(sess.rebuilds(), 0); // Same chip, rearmed in place.
    EXPECT_EQ(sess.chip().fabric().validEntries(), 0u);
    EXPECT_EQ(sess.run(), first);
    EXPECT_EQ(statDelta(sess.chip().stats(), fresh), fresh.all());
    EXPECT_NEAR(sess.chip().power().totalEnergyJ() - fresh_j, fresh_j,
                1e-9 * fresh_j);
    EXPECT_EQ(sess.readTensor(net.out()).data, out);
}

TEST(SessionRearm, EccCorrectedMatchesStatsUnderFaults)
{
    LoweredNet net(14, 8);
    ChipConfig cfg;
    cfg.fault.seed = 0x77ull;
    cfg.fault.memReadRate = 0.02;
    cfg.fault.memWriteRate = 0.02;
    cfg.fault.streamRate = 0.005;
    cfg.fault.doubleBitFraction = 0.0;
    InferenceSession sess(net.lw, net.prog, cfg);
    // Latent single-bit flips in the DMA image, corrected on read.
    const auto &image = net.lw.image().entries();
    for (std::size_t i = 0; i < image.size(); i += 16) {
        const GlobalAddr &a = image[i].addr;
        sess.chip().mem(a.hem, a.slice).injectBitFlip(a.addr, 3, 1);
    }
    const RunResult r = sess.runBounded();
    ASSERT_TRUE(r.completed) << runStatusName(r.status) << " "
                             << sess.lastMachineCheck().detail;

    const Chip &chip = sess.chip();
    const StatGroup st = chip.stats();
    EXPECT_EQ(chip.eccCorrected(), st.get("ecc_corrected"));
    EXPECT_EQ(chip.eccCorrected(),
              st.get("ecc_corrected_mem_sram") +
                  st.get("ecc_corrected_mem_port") +
                  st.get("ecc_corrected_vxm") +
                  st.get("ecc_corrected_sxm") +
                  st.get("ecc_corrected_mxm"));
    EXPECT_GT(st.get("ecc_corrected_mem_sram"), 0u);
    EXPECT_GT(st.get("ecc_corrected_mem_port"), 0u);
    EXPECT_GT(st.get("ecc_corrected_vxm"), 0u);
    EXPECT_GT(st.get("ecc_corrected_mxm"), 0u);
}

} // namespace
} // namespace tsp
