/**
 * @file
 * E23: multi-model, multi-tenant serving with priority preemption.
 *
 * One server, two compiled model families behind a ModelRegistry,
 * mixed-priority traffic, uncorrectable faults live. Two claims:
 *
 *   - preemption admits provably-infeasible high-priority deadlines:
 *     a crafted arrival that a no-preemption control must reject is
 *     served exactly on its booking when the open low-priority batch
 *     is preempted (victims re-queued, never dropped);
 *   - the whole multi-tenant report is deterministic: the same seed
 *     replays the mixed soak — admissions, swaps, preemptions,
 *     machine checks — to a byte-identical metrics JSON.
 *
 * Every served output is checked bit-exact against its own family's
 * reference; one corrupted serve fails the bench. Exits nonzero on
 * any shape-check failure. Emits BENCH_multimodel.json.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "model/resnet.hh"
#include "serve/model_registry.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;
using serve::SloClass;

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

ModelSpec
makeSpec(const std::string &name, std::uint64_t seed)
{
    ModelSpec sp;
    sp.name = name;
    sp.graph = model::buildTinyNet(seed, kH, kW, kC);
    sp.warmInput = randomInput(seed ^ 0x5eedu);
    sp.maxBatch = 2;
    return sp;
}

/** Preemption demo: high-priority arrival behind an open
 * low-priority batch on one worker. @return (hipri outcome, victim
 * outcome, preemptions). */
struct DemoResult
{
    Outcome hipri = Outcome::Failed;
    Outcome victim = Outcome::Failed;
    std::uint64_t preemptions = 0;
};

DemoResult
runDemo(bool preemption)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3));
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = 2;
    cfg.batchWindowSec = 1.0; // The low-priority batch stays open.
    cfg.preemption = preemption;
    cfg.sloClasses.push_back(SloClass{1.0, 0});
    cfg.sloClasses.push_back(SloClass{1.0, 1});
    InferenceServer server({}, reg, cfg);
    const double svc = server.admission().serviceSec(1);

    // Low-priority leader opens a batch; the high-priority deadline
    // is infeasible behind it (2 svc) but feasible in its place
    // (1 svc).
    auto lo = server.submitModel(0, 0, randomInput(1), 0.0);
    auto hi = server.submitModel(0, 1, randomInput(2), 0.0,
                                 /*deadline=*/1.2 * svc);
    server.flushOpenBatch();
    server.drain();
    DemoResult d;
    d.hipri = hi.get().outcome;
    d.victim = lo.get().outcome;
    d.preemptions =
        server.metricsSnapshot().counters().get("preemptions");
    return d;
}

/** One mixed-priority two-family soak with faults live. */
struct SoakResult
{
    std::string json;
    std::uint64_t served = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t machineChecks = 0;
    std::uint64_t mismatches = 0;
};

SoakResult
runSoak(int n)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3));
    specs.push_back(makeSpec("b", 11));
    Graph ga = specs[0].graph;
    Graph gb = specs[1].graph;
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.batchMax = 2;
    cfg.batchWindowSec = 2e-7;
    cfg.preemption = true;
    cfg.maxRetries = 3;
    cfg.sloClasses.push_back(SloClass{1.0, 0});
    cfg.sloClasses.push_back(SloClass{0.8, 1});
    cfg.chip.fault.memReadRate = 1e-6;
    cfg.chip.fault.memWriteRate = 1e-6;
    cfg.chip.fault.streamRate = 1e-6;
    cfg.chip.fault.doubleBitFraction = 0.2;
    cfg.chip.fault.seed = 7;
    InferenceServer server({}, reg, cfg);

    Rng rng(1234);
    const double svc = server.admission().serviceSec(1);
    double now = 0.0;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    std::vector<int> models;
    for (int i = 0; i < n; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * svc * 0.35;
        const int m = static_cast<int>(rng.intIn(0, 1));
        const int tenant = rng.nextDouble() < 0.25 ? 1 : 0;
        inputs.push_back(
            randomInput(static_cast<std::uint64_t>(i)));
        models.push_back(m);
        futures.push_back(server.submitModel(
            m, tenant, inputs.back(), now, now + 2.5 * svc,
            InferenceServer::OnFull::Block));
    }
    server.drain();

    SoakResult s;
    for (int i = 0; i < n; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        if (r.outcome != Outcome::Served)
            continue;
        ++s.served;
        Graph &g =
            models[static_cast<std::size_t>(i)] == 0 ? ga : gb;
        ref::QTensor qin(kH, kW, kC);
        qin.data = inputs[static_cast<std::size_t>(i)];
        if (r.output.data !=
            g.runReference(qin).at(g.outputNode()).data)
            ++s.corrupted;
    }
    const auto snap = server.metricsSnapshot();
    s.preemptions = snap.counters().get("preemptions");
    s.machineChecks = snap.counters().get("machine_checks");
    s.mismatches = snap.predictionMismatches();
    s.json = server.metricsJson();
    return s;
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    using namespace tsp;
    const int n = argc > 1 ? std::atoi(argv[1]) : 240;

    bench::banner(
        "E23: multi-model multi-tenant serving with preemption",
        "one server, two model families, priority tenants; exact "
        "swap booking and deterministic preemption");

    const auto wall0 = std::chrono::steady_clock::now();
    const DemoResult with = runDemo(/*preemption=*/true);
    const DemoResult without = runDemo(/*preemption=*/false);

    std::printf("preemption demo (1 worker, open low-priority "
                "batch, tight high-priority deadline):\n");
    std::printf("  preemption on:   hipri %-18s victim %-18s "
                "preemptions %llu\n",
                serve::outcomeName(with.hipri),
                serve::outcomeName(with.victim),
                static_cast<unsigned long long>(with.preemptions));
    std::printf("  preemption off:  hipri %-18s victim %-18s "
                "preemptions %llu\n\n",
                serve::outcomeName(without.hipri),
                serve::outcomeName(without.victim),
                static_cast<unsigned long long>(without.preemptions));

    const SoakResult a = runSoak(n);
    const SoakResult b = runSoak(n);
    const bool identical = a.json == b.json;
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    std::printf("mixed soak (%d requests, 2 families, 25%% "
                "high-priority, faults live), twice with one "
                "seed:\n",
                n);
    std::printf("  served %llu, corrupted %llu, preemptions %llu, "
                "machine checks %llu, prediction mismatches %llu\n",
                static_cast<unsigned long long>(a.served),
                static_cast<unsigned long long>(a.corrupted),
                static_cast<unsigned long long>(a.preemptions),
                static_cast<unsigned long long>(a.machineChecks),
                static_cast<unsigned long long>(a.mismatches));
    std::printf("  metrics JSON byte-identical across runs: %s\n",
                identical ? "yes" : "NO");

    JsonWriter j;
    j.beginObject();
    j.kv("bench", "multimodel");
    j.kv("requests", static_cast<std::int64_t>(n));
    j.key("preemption_demo")
        .beginObject()
        .kv("with_preemption_hipri",
            serve::outcomeName(with.hipri))
        .kv("without_preemption_hipri",
            serve::outcomeName(without.hipri))
        .kv("victim", serve::outcomeName(with.victim))
        .kv("preemptions", with.preemptions)
        .endObject();
    j.key("soak")
        .beginObject()
        .kv("served", a.served)
        .kv("corrupted", a.corrupted)
        .kv("preemptions", a.preemptions)
        .kv("machine_checks", a.machineChecks)
        .kv("prediction_mismatches", a.mismatches)
        .kv("byte_identical", identical)
        .endObject();
    j.kv("wall_seconds", wall);
    j.endObject();
    const bool wrote =
        writeJsonFile("BENCH_multimodel.json", j.str());
    std::printf("\n%s BENCH_multimodel.json (wall %.1f s)\n",
                wrote ? "wrote" : "FAILED to write", wall);

    // Shape checks: preemption admits what the control rejects, the
    // victim is still decided (served here — its deadline was open),
    // no corrupted serve, no prediction drift, and the soak replays
    // byte-identically.
    const bool ok =
        wrote && with.hipri == Outcome::Served &&
        with.preemptions == 1 && with.victim == Outcome::Served &&
        without.hipri == Outcome::RejectedDeadline &&
        without.preemptions == 0 && a.served > 0 &&
        a.corrupted == 0 && a.mismatches == 0 && identical;
    std::printf("shape check: preemption admits the control's "
                "rejection, zero corrupted serves, byte-identical "
                "replay: %s\n",
                ok ? "yes" : "NO");
    bench::footer();
    return ok ? 0 : 1;
}
