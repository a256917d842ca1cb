/**
 * @file
 * E22: mid-batch snapshot migration vs full retry.
 *
 * Same request, same model, same random uncorrectable fault
 * environment (per-access double-bit strikes), two recovery
 * policies:
 *
 *   - migrate: restore the last pre-fault snapshot onto a rebuilt
 *     chip and resume the condemned batch mid-run, falling back to
 *     a full retry only when no usable snapshot exists;
 *   - retry: re-run the whole batch from cycle zero on a rebuilt
 *     chip until an attempt survives.
 *
 * Both must serve bit-exact results; migration must burn strictly
 * fewer total chip cycles (lifetime accounting, condemned engines
 * included) because each recovery re-executes only the span since
 * the last snapshot instead of the whole run. Exits nonzero if
 * either policy corrupts a serve or migration loses the cycle
 * comparison. Emits BENCH_migration.json.
 */

#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;

struct PolicyResult
{
    std::uint64_t served = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t retries = 0;
    std::uint64_t migrations = 0;
    std::uint64_t machineChecks = 0;
    Cycle totalCycles = 0;
};

PolicyResult
runPolicy(serve::ModelRegistry &registry, bool migrate, int n)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.chip.fault.seed = 0x5151ull;
    cfg.chip.fault.streamRate = 2e-4;
    cfg.chip.fault.doubleBitFraction = 1.0;
    // Same retry budget both ways; the migrating server only falls
    // back to a full retry when no snapshot precedes the fault or
    // the per-batch migration bound is exhausted.
    cfg.maxRetries = 64;
    cfg.migrateOnMachineCheck = migrate;
    InferenceServer server({}, registry, cfg);

    const Graph &g = registry.cache(0).graph();
    const std::size_t in_bytes = registry.expectedInputBytes(0);
    Rng rng(42);
    std::vector<std::vector<std::int8_t>> inputs;
    std::vector<std::future<Result>> futures;
    for (int i = 0; i < n; ++i) {
        std::vector<std::int8_t> data(in_bytes);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        inputs.push_back(data);
        futures.push_back(server.submit(
            std::move(data), static_cast<double>(i) * 1e-7,
            /*deadline=*/0.0, InferenceServer::OnFull::Block));
    }
    server.drain();

    PolicyResult p;
    for (int i = 0; i < n; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        if (r.outcome != Outcome::Served)
            continue;
        ++p.served;
        ref::QTensor qin(8, 8, 4);
        qin.data = inputs[static_cast<std::size_t>(i)];
        const ref::QTensor want =
            g.runReference(qin).at(g.outputNode());
        if (r.output.data != want.data)
            ++p.corrupted;
    }
    const auto snap = server.metricsSnapshot();
    p.retries = snap.counters().get("retries");
    p.migrations = snap.counters().get("migrations");
    p.machineChecks = snap.counters().get("machine_checks");
    p.totalCycles = server.totalChipCycles();
    return p;
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    using namespace tsp;
    const int n = argc > 1 ? std::atoi(argv[1]) : 12;

    bench::banner(
        "E22: mid-batch migration vs full retry (recovery cost)",
        "restore the last pre-fault snapshot and resume, instead of "
        "re-running the condemned batch from cycle zero");

    serve::ModelRegistry registry({bench::tinyNetSpec()});
    const Cycle service_cycles = registry.cycles(0, 1);

    const auto wall0 = std::chrono::steady_clock::now();
    const PolicyResult mig = runPolicy(registry, /*migrate=*/true, n);
    const PolicyResult ret = runPolicy(registry, /*migrate=*/false, n);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    std::printf("model: tiny conv net, %llu cycles per inference; "
                "%d requests per policy, double-bit stream strikes "
                "at 2e-4/access\n\n",
                static_cast<unsigned long long>(service_cycles), n);
    std::printf("  policy   served  mchecks recoveries  "
                "total_chip_cycles\n");
    std::printf("  migrate  %6llu  %7llu %10llu  %17llu\n",
                static_cast<unsigned long long>(mig.served),
                static_cast<unsigned long long>(mig.machineChecks),
                static_cast<unsigned long long>(mig.migrations),
                static_cast<unsigned long long>(mig.totalCycles));
    std::printf("  retry    %6llu  %7llu %10llu  %17llu\n",
                static_cast<unsigned long long>(ret.served),
                static_cast<unsigned long long>(ret.machineChecks),
                static_cast<unsigned long long>(ret.retries),
                static_cast<unsigned long long>(ret.totalCycles));

    JsonWriter j;
    j.beginObject();
    j.kv("bench", "migration");
    j.kv("requests", static_cast<std::int64_t>(n));
    j.kv("service_cycles", static_cast<std::uint64_t>(service_cycles));
    j.key("migrate")
        .beginObject()
        .kv("served", mig.served)
        .kv("machine_checks", mig.machineChecks)
        .kv("migrations", mig.migrations)
        .kv("total_chip_cycles",
            static_cast<std::uint64_t>(mig.totalCycles))
        .endObject();
    j.key("retry")
        .beginObject()
        .kv("served", ret.served)
        .kv("machine_checks", ret.machineChecks)
        .kv("retries", ret.retries)
        .kv("total_chip_cycles",
            static_cast<std::uint64_t>(ret.totalCycles))
        .endObject();
    j.kv("wall_seconds", wall);
    j.endObject();
    const bool wrote = writeJsonFile("BENCH_migration.json", j.str());
    std::printf("\n%s BENCH_migration.json (wall %.1f s)\n",
                wrote ? "wrote" : "FAILED to write", wall);

    // Shape checks: both policies serve everything bit-exactly,
    // recoveries actually happened (else the comparison is vacuous),
    // and migration wins the chip-cycle comparison.
    const bool ok =
        wrote && mig.served == static_cast<std::uint64_t>(n) &&
        ret.served == static_cast<std::uint64_t>(n) &&
        mig.corrupted == 0 && ret.corrupted == 0 &&
        mig.migrations > 0 && ret.retries > 0 &&
        mig.totalCycles < ret.totalCycles;
    std::printf("shape check: bit-exact serves both policies, "
                "migration beats full retry in chip cycles: %s\n",
                ok ? "yes" : "NO");
    bench::footer();
    return ok ? 0 : 1;
}
