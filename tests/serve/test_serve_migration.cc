/**
 * @file
 * Mid-batch snapshot migration in the serving layer: a condemned
 * chip's in-flight batch is restored from its last pre-fault snapshot
 * onto a rebuilt engine and resumed — completing within the original
 * deadline without burning a full retry — plus the recovery-path
 * booking fixes: retry admission must charge the engine-rebuild cost,
 * and a machine check with no usable snapshot falls back to the full
 * retry policy.
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

/** Random uncorrectable strikes; this seed condemns the first
 *  attempt well after the default snapshot cadence. */
void
armRandomStrikes(ServerConfig &cfg)
{
    cfg.chip.fault.seed = 0x5151ull;
    cfg.chip.fault.streamRate = 5e-4;
    cfg.chip.fault.doubleBitFraction = 1.0;
}

TEST(ServeMigration, CondemnedBatchCompletesWithinDeadline)
{
    // maxRetries = 0: the full-retry path is forbidden outright, so
    // the only way this request can be served is the snapshot
    // migration — and it must still meet the deadline it was
    // admitted under.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.migrateOnMachineCheck = true;
    armRandomStrikes(cfg);
    InferenceServer server({}, m.reg, cfg);

    const double service = server.serviceSec();
    const double deadline = 25.0 * service;
    const std::vector<std::int8_t> input = m.randomInput(1);
    auto f = server.submit(input, 0.0, deadline);
    server.drain();

    const Result r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Served);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.migrations, 1u);
    EXPECT_GE(r.machineChecks, 1u);
    EXPECT_LE(r.completionSec, deadline);
    // The burned pre-fault segments and the rebuilds are not free;
    // the reported completion must be honest about them.
    EXPECT_GT(r.completionSec, r.startSec + service);
    EXPECT_EQ(r.output.data, m.reference(input).data);

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"), 1u);
    EXPECT_GE(snap.counters().get("migrations"), 1u);
    EXPECT_EQ(snap.counters().get("retries"), 0u);
    EXPECT_NE(server.metricsJson().find("\"migrations\""),
              std::string::npos);
}

TEST(ServeMigration, WithoutMigrationSameFaultsFail)
{
    // Control for the test above: identical fault environment and
    // retry budget, migration off — the batch is unrecoverable.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.migrateOnMachineCheck = false;
    armRandomStrikes(cfg);
    InferenceServer server({}, m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0,
                           25.0 * server.serviceSec());
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_TRUE(r.output.data.empty());
}

TEST(ServeMigration, MigrationBurnsFewerChipCyclesThanFullRetry)
{
    // The point of migrating: resume from the last snapshot instead
    // of re-running from cycle zero. Same faults, same seed — the
    // migrating server must finish the request with strictly fewer
    // total chip cycles than the retrying server.
    TinyModel m;
    const std::vector<std::int8_t> input = m.randomInput(1);

    ServerConfig mig;
    mig.workers = 1;
    mig.maxRetries = 0;
    mig.migrateOnMachineCheck = true;
    armRandomStrikes(mig);
    InferenceServer migrate({}, m.reg, mig);
    auto fm = migrate.submit(input, 0.0);
    migrate.drain();
    ASSERT_EQ(fm.get().outcome, Outcome::Served);

    ServerConfig ret = mig;
    ret.maxRetries = 30; // This seed lineage needs ~25 full retries.
    ret.migrateOnMachineCheck = false;
    InferenceServer retry({}, m.reg, ret);
    auto fr = retry.submit(input, 0.0);
    retry.drain();
    ASSERT_EQ(fr.get().outcome, Outcome::Served);

    EXPECT_LT(migrate.totalChipCycles(), retry.totalChipCycles());
}

TEST(ServeMigration, RetryBookingChargesEngineRebuild)
{
    // Regression: the retry decision used to budget service time
    // alone, admitting a retry whose completion — once the engine
    // image is re-staged over the host link — provably misses the
    // deadline. The deadline here sits between the optimistic
    // estimate (start + 2*service) and the honest one
    // (start + 2*service + rebuild): the old code would have burned
    // a doomed retry; the fixed code must fail fast with zero.
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 3;
    cfg.chip.fault.events = m.poisonInputEvents();
    const double rebuild =
        InferenceSession(*m.program().lw, cfg.chip).dmaSeconds();
    ASSERT_GT(rebuild, 0.0);
    InferenceServer server({}, m.reg, cfg);

    const double service = server.serviceSec();
    const double deadline = 2.0 * service + 0.5 * rebuild;
    auto f = server.submit(m.randomInput(1), 0.0, deadline);
    server.drain();

    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.machineChecks, 1u);
}

TEST(ServeMigration, NoSnapshotFallsBackToFullRetry)
{
    // The scheduled double-bit pair fires at cycle 0 — before the
    // first snapshot can possibly be taken — so migration has
    // nothing to restore and the worker must fall through to the
    // bounded full-retry policy (which replays the fault and
    // exhausts).
    TinyModel m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 1;
    cfg.migrateOnMachineCheck = true;
    cfg.snapshotEveryCycles = 100'000'000;
    cfg.chip.fault.events = m.poisonInputEvents();
    InferenceServer server({}, m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0);
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.retries, 1u);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_GE(r.machineChecks, 2u);
}

TEST(ServeMigration, SnapshotCadenceAloneDoesNotPerturbServing)
{
    // Arming periodic snapshots without any faults must not change a
    // single byte or booking relative to a plain server.
    TinyModel m;
    ServerConfig plain_cfg;
    plain_cfg.workers = 1;
    ServerConfig snap_cfg = plain_cfg;
    snap_cfg.snapshotEveryCycles = 97;

    InferenceServer plain({}, m.reg, plain_cfg);
    InferenceServer snapped({}, m.reg, snap_cfg);
    const std::vector<std::int8_t> input = m.randomInput(2);

    auto fa = plain.submit(input, 0.0);
    auto fb = snapped.submit(input, 0.0);
    plain.drain();
    snapped.drain();
    const Result a = fa.get();
    const Result b = fb.get();
    ASSERT_EQ(a.outcome, Outcome::Served);
    ASSERT_EQ(b.outcome, Outcome::Served);
    EXPECT_EQ(a.output.data, b.output.data);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.completionSec, b.completionSec);
    EXPECT_EQ(b.migrations, 0u);
}

} // namespace
} // namespace tsp
