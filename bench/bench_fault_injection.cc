/**
 * @file
 * E20: fault injection and graceful degradation under soft errors.
 *
 * The paper's reliability story (II.D) is SECDED on every 16-byte
 * MEM word plus producer/consumer stream checks: single-bit upsets
 * are corrected in place, double-bit upsets are *detected* and
 * condemn the chip (machine check) instead of silently corrupting a
 * result. This bench sweeps the per-access upset rate through a
 * serving pool and measures what that contract buys end to end:
 *
 *   - every Served result is byte-compared against the golden
 *     reference model — the count of corrupted served results must
 *     be zero at every error rate (the one forbidden outcome);
 *   - availability (served fraction) degrades gracefully as
 *     uncorrectable strikes condemn chips and exhaust retries;
 *   - corrected-error and machine-check counts scale with the rate.
 *
 * Emits BENCH_fault_injection.json.
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

struct PointResult
{
    double rate = 0.0;
    std::uint64_t served = 0;
    std::uint64_t failedMc = 0;
    std::uint64_t other = 0;
    std::uint64_t corruptedServed = 0; ///< Must stay 0 at every rate.
    std::uint64_t corrected = 0;
    std::uint64_t machineChecks = 0;
    std::uint64_t retries = 0;
    double availability = 0.0;
    double goodputRps = 0.0;
};

/**
 * Runs @p n requests through a 2-worker pool with the given
 * per-access upset @p rate on MEM reads, MEM writes and stream hops;
 * @p double_frac of strikes flip a second bit in the same word
 * (uncorrectable by SECDED).
 */
PointResult
runPoint(serve::ModelRegistry &registry, double rate,
         double double_frac, int n)
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 256;
    cfg.maxRetries = 2;
    cfg.chip.fault.seed = 0xbe7c000dull;
    cfg.chip.fault.memReadRate = rate;
    cfg.chip.fault.memWriteRate = rate;
    cfg.chip.fault.streamRate = rate;
    cfg.chip.fault.doubleBitFraction = double_frac;
    InferenceServer server({}, registry, cfg);

    const Graph &g = registry.cache(0).graph();
    const std::size_t in_bytes = registry.expectedInputBytes(0);
    const double service = server.serviceSec();
    const double mean_gap = service / 2.0; // rho = 1 on 2 workers.

    Rng rng(42);
    std::vector<std::vector<std::int8_t>> inputs;
    std::vector<std::future<Result>> futures;
    inputs.reserve(static_cast<std::size_t>(n));
    futures.reserve(static_cast<std::size_t>(n));
    double now = 0.0;
    for (int i = 0; i < n; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * mean_gap;
        std::vector<std::int8_t> data(in_bytes);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        inputs.push_back(data);
        futures.push_back(
            server.submit(std::move(data), now, /*deadline=*/0.0,
                          InferenceServer::OnFull::Block));
    }
    server.drain();

    PointResult p;
    p.rate = rate;
    double last_completion = 0.0;
    for (int i = 0; i < n; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        switch (r.outcome) {
          case Outcome::Served: {
            ++p.served;
            if (r.completionSec > last_completion)
                last_completion = r.completionSec;
            ref::QTensor qin(8, 8, 4);
            qin.data = inputs[static_cast<std::size_t>(i)];
            const ref::QTensor want =
                g.runReference(qin).at(g.outputNode());
            if (r.output.data != want.data)
                ++p.corruptedServed;
            break;
          }
          case Outcome::FailedMachineCheck: ++p.failedMc; break;
          default: ++p.other; break;
        }
    }
    const auto snap = server.metricsSnapshot();
    p.corrected = snap.counters().get("ecc_corrected");
    p.machineChecks = snap.counters().get("machine_checks");
    p.retries = snap.counters().get("retries");
    p.availability =
        static_cast<double>(p.served) / static_cast<double>(n);
    p.goodputRps = last_completion > 0.0
                       ? static_cast<double>(p.served) /
                             last_completion
                       : 0.0;
    return p;
}

void
printPoint(const PointResult &p)
{
    std::printf("  %8.0e %6llu %7llu %6llu %9llu %9llu %7llu "
                "%7.3f %9.0f  %s\n",
                p.rate, static_cast<unsigned long long>(p.served),
                static_cast<unsigned long long>(p.failedMc),
                static_cast<unsigned long long>(p.other),
                static_cast<unsigned long long>(p.corrected),
                static_cast<unsigned long long>(p.machineChecks),
                static_cast<unsigned long long>(p.retries),
                p.availability, p.goodputRps,
                p.corruptedServed == 0 ? "clean" : "CORRUPTED");
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    using namespace tsp;
    const int n = argc > 1 ? std::atoi(argv[1]) : 120;
    constexpr double kDoubleFrac = 0.05;

    bench::banner(
        "E20: fault injection and graceful degradation (II.D)",
        "SECDED corrects single-bit upsets in place; double-bit "
        "upsets machine-check and retry — never a corrupted serve");

    serve::ModelRegistry registry({bench::tinyNetSpec()});
    const Cycle service_cycles = registry.cycles(0, 1);

    std::printf("model: tiny conv net, %llu cycles per inference; "
                "pool: 2 chips, retry budget 2, %d requests/point, "
                "double-bit fraction %.2f\n\n",
                static_cast<unsigned long long>(service_cycles), n,
                kDoubleFrac);

    const auto wall0 = std::chrono::steady_clock::now();
    std::printf("error-rate sweep (upsets per access):\n");
    std::printf("      rate served fail_mc  other corrected "
                "mach_chk retries avail  goodput_rps\n");
    std::vector<PointResult> points;
    for (const double rate :
         {0.0, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3}) {
        points.push_back(runPoint(registry, rate, kDoubleFrac, n));
        printPoint(points.back());
    }
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    JsonWriter j;
    j.beginObject();
    j.kv("bench", "fault_injection");
    j.kv("service_cycles", static_cast<std::uint64_t>(service_cycles));
    j.kv("requests_per_point", static_cast<std::int64_t>(n));
    j.kv("double_bit_fraction", kDoubleFrac);
    j.key("points").beginArray();
    for (const auto &p : points) {
        j.beginObject()
            .kv("rate", p.rate)
            .kv("served", p.served)
            .kv("failed_machine_check", p.failedMc)
            .kv("other", p.other)
            .kv("corrupted_served", p.corruptedServed)
            .kv("ecc_corrected", p.corrected)
            .kv("machine_checks", p.machineChecks)
            .kv("retries", p.retries)
            .kv("availability", p.availability)
            .kv("goodput_rps", p.goodputRps)
            .endObject();
    }
    j.endArray();
    j.kv("wall_seconds", wall);
    j.endObject();
    const bool wrote =
        writeJsonFile("BENCH_fault_injection.json", j.str());
    std::printf("\n%s BENCH_fault_injection.json (wall %.1f s)\n",
                wrote ? "wrote" : "FAILED to write", wall);

    // Shape checks: the clean point is perfect; corrections appear
    // once the rate is nonzero; and — the contract this subsystem
    // exists for — no rate ever produces a corrupted served result.
    bool ok = wrote;
    std::uint64_t corrupted = 0, corrected_at_nonzero = 0;
    for (const auto &p : points) {
        corrupted += p.corruptedServed;
        if (p.rate > 0.0)
            corrected_at_nonzero += p.corrected;
        if (p.rate == 0.0) {
            ok = ok && p.served == static_cast<std::uint64_t>(n) &&
                 p.corrected == 0 && p.machineChecks == 0;
        }
    }
    ok = ok && corrupted == 0 && corrected_at_nonzero > 0;

    std::printf("shape check: clean baseline, corrections at "
                "nonzero rates, zero corrupted serves: %s\n",
                ok ? "yes" : "NO");
    bench::footer();
    return ok ? 0 : 1;
}
