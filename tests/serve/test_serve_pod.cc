/**
 * @file
 * Multi-chip pod serving: each worker owns an N-chip ring pod running
 * the statically scheduled all-reduce, the admission controller books
 * the collective's exact (calibrated) cycle count, every served
 * result is bit-exact against a host reduction — including under
 * fault injection on SRAM, stream hops and C2C link flight — and a
 * machine check on any member condemns the whole pod through the
 * existing retry/deadline policy.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::PodBackend;
using serve::Result;
using serve::ServerConfig;

std::vector<std::int8_t>
randomPodInput(int chips, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(PodBackend::inputBytes(chips));
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-90, 90));
    return data;
}

/** Host saturating reduction with the schedule's chain order. */
std::vector<std::int8_t>
reduceReference(int chips, const std::vector<std::int8_t> &input)
{
    std::vector<std::int8_t> want(
        input.begin(), input.begin() + kLanes);
    for (int c = 1; c < chips; ++c) {
        for (int l = 0; l < kLanes; ++l) {
            const int s =
                int(want[static_cast<std::size_t>(l)]) +
                int(input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(l)]);
            want[static_cast<std::size_t>(l)] =
                static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }
    return want;
}

InferenceServer
makePodServer(int chips, Cycle wire, const ServerConfig &cfg)
{
    const Cycle service =
        PodBackend::serviceCycles(chips, wire, cfg.chip);
    const ChipConfig chip_cfg = cfg.chip;
    return InferenceServer(
        [chips, wire,
         chip_cfg](int) -> std::unique_ptr<serve::Backend> {
            return std::make_unique<PodBackend>(chips, wire,
                                                chip_cfg);
        },
        std::vector<Cycle>{service}, cfg);
}

TEST(ServePod, ServesExactReductionsWithExactBookings)
{
    constexpr int kChips = 3;
    ServerConfig cfg;
    cfg.workers = 2;
    InferenceServer server = makePodServer(kChips, 17, cfg);
    ASSERT_GT(server.serviceCycles(), 0u);

    constexpr int kRequests = 12;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            randomPodInput(kChips, static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        // The calibrated booking is exact: measured == predicted,
        // with no mismatch ever recorded.
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        const auto want = reduceReference(
            kChips, inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want) << "request " << i;
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"),
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.predictionMismatches(), 0u);
}

TEST(ServePod, CorrectableLinkFaultsServeBitExact)
{
    // Heavy single-bit injection, including on C2C link flight: every
    // request still serves the bit-exact reduction on the first
    // attempt, with the corrections reported.
    constexpr int kChips = 4;
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.chip.fault.seed = 0xfeedull;
    cfg.chip.fault.c2cRate = 0.9;
    cfg.chip.fault.doubleBitFraction = 0.0;
    InferenceServer server = makePodServer(kChips, 9, cfg);

    constexpr int kRequests = 8;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(randomPodInput(
            kChips, static_cast<std::uint64_t>(50 + i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    std::uint64_t corrected = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.retries, 0u);
        EXPECT_EQ(r.machineChecks, 0u);
        corrected += r.correctedErrors;
        const auto want = reduceReference(
            kChips, inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want) << "request " << i;
    }
    // At this rate every all-reduce takes link strikes.
    EXPECT_GT(corrected, 0u);
}

TEST(ServePod, UncorrectableLinkFaultsNeverServeCorrupted)
{
    // Random double-bit strikes in link flight: every result must be
    // either a bit-exact Served (a retry on a rebuilt pod whose
    // derived fault seed rolled no strike) or an explicit
    // FailedMachineCheck — one condemned member fails the whole pod.
    constexpr int kChips = 2;
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.maxRetries = 2;
    cfg.chip.fault.seed = 0x51ull;
    cfg.chip.fault.c2cRate = 0.25;
    cfg.chip.fault.doubleBitFraction = 1.0;
    InferenceServer server = makePodServer(kChips, 17, cfg);

    constexpr int kRequests = 16;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(randomPodInput(
            kChips, static_cast<std::uint64_t>(900 + i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    int served = 0, failed_mc = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        if (r.outcome == Outcome::Served) {
            ++served;
            const auto want = reduceReference(
                kChips, inputs[static_cast<std::size_t>(i)]);
            ASSERT_EQ(r.output.data, want) << "request " << i;
        } else {
            ASSERT_EQ(r.outcome, Outcome::FailedMachineCheck)
                << "request " << i;
            EXPECT_TRUE(r.output.data.empty());
            ++failed_mc;
        }
    }
    EXPECT_EQ(served + failed_mc, kRequests);

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"),
              static_cast<std::uint64_t>(served));
    EXPECT_EQ(snap.counters().get("failed_machine_check"),
              static_cast<std::uint64_t>(failed_mc));
    // At this rate over 16 two-chip all-reduces some strike lands; if
    // this ever flakes the rate is too low, not the invariant wrong.
    EXPECT_GT(snap.counters().get("machine_checks") +
                  snap.counters().get("retries"),
              0u);
}

TEST(ServePod, PodBackendRebuildsAfterMachineCheck)
{
    // Backend-level check of the condemn-and-rebuild path: a pod that
    // machine-checks reports it, and resetBatch() produces a fresh pod
    // (rebuild counter advances, clocks restart).
    ChipConfig cfg;
    cfg.fault.seed = 0x2bull;
    cfg.fault.c2cRate = 0.9;
    cfg.fault.doubleBitFraction = 1.0;
    PodBackend be(3, 17, cfg);
    be.writeSample(0, randomPodInput(3, 1));
    const RunResult r = be.runBounded(1'000'000);
    ASSERT_FALSE(r.completed);
    ASSERT_EQ(r.status, RunStatus::MachineCheck);
    EXPECT_GE(be.machineCheckCount(), 1u);
    EXPECT_GE(be.session().machineCheckChip(), 0);

    be.resetBatch(1);
    EXPECT_EQ(be.rebuilds(), 1);
    EXPECT_FALSE(be.session().pod().machineCheck());
}

} // namespace
} // namespace tsp
