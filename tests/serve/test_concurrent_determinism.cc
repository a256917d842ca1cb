/**
 * @file
 * Cross-session determinism under concurrency: the property the
 * serving layer's admission control rests on. Multiple
 * InferenceSessions sharing one compiled Lowering — on different
 * threads, reused across resets, or behind the server's worker pool —
 * must produce byte-identical outputs and the exact cycle count the
 * compiler predicted (paper Eq. 4, IV.F, V.c).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/server.hh"
#include "tiny_model.hh"

namespace tsp {
namespace {

constexpr int kH = 8, kW = 8, kC = 4;

std::vector<std::int8_t>
randomInput(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(
        static_cast<std::size_t>(kH) * kW * kC);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return data;
}

TEST(ConcurrentDeterminism, ParallelSessionsBitIdentical)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    const auto input = randomInput(7);
    Lowering lw(true);
    const auto lowered = g.lower(lw, input);
    const LoweredTensor &out_slot = lowered.at(g.outputNode());

    constexpr int kSessions = 4;
    std::vector<Cycle> cycles(kSessions, 0);
    std::vector<std::vector<std::int8_t>> outputs(kSessions);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&, i] {
            InferenceSession sess(lw);
            const RunResult r = sess.runBounded();
            ASSERT_TRUE(r.completed);
            cycles[static_cast<std::size_t>(i)] = r.cycles;
            outputs[static_cast<std::size_t>(i)] =
                sess.readTensor(out_slot).data;
        });
    }
    for (auto &t : threads)
        t.join();

    // Every session lands on the compiler-predicted cycle, exactly.
    for (int i = 0; i < kSessions; ++i) {
        EXPECT_EQ(cycles[static_cast<std::size_t>(i)],
                  lw.finishCycle())
            << "session " << i;
        EXPECT_EQ(outputs[static_cast<std::size_t>(i)], outputs[0])
            << "session " << i;
    }
}

TEST(ConcurrentDeterminism, ResetRerunMatchesFreshCompile)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    const auto input_a = randomInput(7);
    const auto input_b = randomInput(8);

    // Compile once with input A; reuse the session for input B via
    // the input-substitution path the server depends on.
    Lowering lw(true);
    const auto lowered = g.lower(lw, input_a);
    InferenceSession sess(lw);
    ASSERT_TRUE(sess.runBounded().completed);

    sess.reset();
    sess.writeTensor(lowered.at(0), input_b);
    const RunResult r = sess.runBounded();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.cycles, lw.finishCycle()); // Input-independent.

    // A fresh compile with input B must agree byte-for-byte.
    Lowering lw2(true);
    const auto lowered2 = g.lower(lw2, input_b);
    InferenceSession fresh(lw2);
    ASSERT_TRUE(fresh.runBounded().completed);
    EXPECT_EQ(sess.readTensor(lowered.at(g.outputNode())).data,
              fresh.readTensor(lowered2.at(g.outputNode())).data);
}

TEST(ConcurrentDeterminism, ServerPoolIdenticalInputsIdenticalBytes)
{
    test::TinyModel m;
    const auto input = randomInput(7);

    serve::ServerConfig cfg;
    cfg.workers = 4;
    serve::InferenceServer server({}, m.reg, cfg);

    // The same input through different chips in the pool: byte-equal
    // outputs and cycle-equal service, regardless of which worker ran
    // which request.
    constexpr int kN = 8;
    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < kN; ++i) {
        futures.push_back(
            server.submit(input, static_cast<double>(i) * 1e-7));
    }
    server.drain();

    serve::Result first = futures[0].get();
    ASSERT_EQ(first.outcome, serve::Outcome::Served);
    EXPECT_EQ(first.measuredCycles, m.program().cycles);
    for (int i = 1; i < kN; ++i) {
        const serve::Result r =
            futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, serve::Outcome::Served) << "req " << i;
        EXPECT_EQ(r.measuredCycles, first.measuredCycles);
        EXPECT_EQ(r.output.data, first.output.data) << "req " << i;
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(ConcurrentDeterminism, ServerPoolVaryingInputsMatchReference)
{
    test::TinyModel m;
    serve::ServerConfig cfg;
    cfg.workers = 3;
    serve::InferenceServer server({}, m.reg, cfg);

    constexpr int kN = 6;
    std::vector<std::vector<std::int8_t>> inputs;
    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < kN; ++i) {
        inputs.push_back(
            randomInput(200 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < kN; ++i) {
        const serve::Result r =
            futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, serve::Outcome::Served) << "req " << i;
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data.size(), want.data.size());
        EXPECT_EQ(r.output.data, want.data) << "req " << i;
    }
}

} // namespace
} // namespace tsp

