/**
 * @file
 * Serving-layer fault recovery: a machine-checked request is retried
 * on a rebuilt chip (bounded by maxRetries and the deadline), retry
 * exhaustion surfaces as FailedMachineCheck — never as a silently
 * corrupted "served" result — and ServerMetrics reports corrections,
 * machine checks and retries.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/server.hh"
#include "tiny_model.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;
using test::TinyModel;

TEST(ServeFaults, ScheduledDoubleBitFaultExhaustsRetries)
{
    // The fault is wired to cycle 0 of the chip clock, so it replays
    // on every rebuilt chip: bounded retries must all machine-check
    // and the request must surface FailedMachineCheck — with no
    // output ever populated from a condemned chip.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.maxRetries = 1;
    cfg.chip.fault.events = m.poisonInputEvents();
    InferenceServer server({}, m.reg, cfg);

    std::vector<std::future<Result>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(server.submit(
            m.randomInput(static_cast<std::uint64_t>(i)),
            static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (auto &f : futures) {
        const Result r = f.get();
        ASSERT_EQ(r.outcome, Outcome::FailedMachineCheck);
        EXPECT_EQ(r.retries, 1u);
        EXPECT_GE(r.machineChecks, 2u); // Initial attempt + retry.
        EXPECT_TRUE(r.output.data.empty());
    }

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("failed_machine_check"), 4u);
    EXPECT_EQ(snap.counters().get("retries"), 4u);
    EXPECT_GE(snap.counters().get("machine_checks"), 8u);
    EXPECT_EQ(snap.counters().get("served"), 0u);

    const std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"failed_machine_check\""),
              std::string::npos);
    EXPECT_NE(json.find("\"machine_checks\""), std::string::npos);
    EXPECT_NE(json.find("\"retries\""), std::string::npos);
}

TEST(ServeFaults, TightDeadlineForbidsRetry)
{
    // The deadline admits exactly one service time, so after the
    // machine check no retry fits: the request fails immediately
    // with zero retries even though the retry budget allows more.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 3;
    cfg.chip.fault.events = m.poisonInputEvents();
    InferenceServer server({}, m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0,
                           1.5 * server.serviceSec());
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.machineChecks, 1u);
}

TEST(ServeFaults, RandomDoubleBitStrikesNeverServeCorrupted)
{
    // Under random uncorrectable strikes every result must be either
    // a bit-exact Served (possibly after retries on a rebuilt chip
    // whose derived fault seed rolled no strike) or an explicit
    // FailedMachineCheck. A "served" result whose bytes differ from
    // the golden reference is the one forbidden outcome.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.maxRetries = 2;
    cfg.chip.fault.seed = 0x5151ull;
    cfg.chip.fault.streamRate = 5e-4;
    cfg.chip.fault.doubleBitFraction = 1.0;
    InferenceServer server({}, m.reg, cfg);

    constexpr int kRequests = 24;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            m.randomInput(static_cast<std::uint64_t>(100 + i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    int served = 0, failed_mc = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        if (r.outcome == Outcome::Served) {
            ++served;
            const ref::QTensor want =
                m.reference(inputs[static_cast<std::size_t>(i)]);
            ASSERT_EQ(r.output.data, want.data) << "request " << i;
        } else {
            ASSERT_EQ(r.outcome, Outcome::FailedMachineCheck)
                << "request " << i;
            ++failed_mc;
        }
    }
    EXPECT_EQ(served + failed_mc, kRequests);

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"),
              static_cast<std::uint64_t>(served));
    EXPECT_EQ(snap.counters().get("failed_machine_check"),
              static_cast<std::uint64_t>(failed_mc));
    // At this rate over 24 requests some strike lands; if this ever
    // flakes the rate is too low, not the invariant wrong.
    EXPECT_GT(snap.counters().get("machine_checks") +
                  snap.counters().get("retries"),
              0u);
}

TEST(ServeFaults, SingleBitStrikesAreCorrectedAndReported)
{
    // Correctable-only injection: everything serves bit-exactly on
    // the first attempt, and the corrections show up in the metrics.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 2;
    // Read and write strikes only: each is corrected at the next
    // check, and unlike read+stream combinations two strikes can
    // never stack into one chunk between checks — so this stays
    // correctable for any request-to-worker distribution.
    cfg.chip.fault.seed = 0x77ull;
    cfg.chip.fault.memReadRate = 0.02;
    cfg.chip.fault.memWriteRate = 0.02;
    cfg.chip.fault.doubleBitFraction = 0.0;
    InferenceServer server({}, m.reg, cfg);

    constexpr int kRequests = 8;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            m.randomInput(static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.retries, 0u);
        EXPECT_EQ(r.machineChecks, 0u);
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want.data) << "request " << i;
    }

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"),
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.counters().get("machine_checks"), 0u);
    EXPECT_EQ(snap.counters().get("retries"), 0u);
    EXPECT_GT(snap.counters().get("ecc_corrected"), 0u);
    EXPECT_NE(server.metricsJson().find("\"ecc_corrected\""),
              std::string::npos);
}

} // namespace
} // namespace tsp
