/**
 * @file
 * Deterministic-deadline serving in ~60 lines: compile a model once,
 * stand up a pool of simulated chips behind an admission controller,
 * and submit requests with deadlines.
 *
 * The point this example makes: because a TSP program's cycle count
 * is fixed at compile time (paper Eq. 4, IV.F), the server knows each
 * request's exact completion time at *submit* — it can promise a
 * deadline or reject up front, and the measured latency then matches
 * the promise to the cycle.
 *
 *   $ ./serving
 */

#include <cstdio>

#include "common/rng.hh"
#include "model/resnet.hh"
#include "serve/server.hh"

int
main()
{
    using namespace tsp;

    // A one-family registry compiles the model once; the whole pool
    // shares its program and image.
    const int h = 8, w = 8, c = 4;
    Rng rng(7);
    std::vector<std::int8_t> input(
        static_cast<std::size_t>(h) * w * c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    serve::ModelSpec spec;
    spec.name = "tiny";
    spec.graph = model::buildTinyNet(/*seed=*/3, h, w, c);
    spec.warmInput = input;
    serve::ModelRegistry registry({spec});

    serve::ServerConfig cfg;
    cfg.workers = 2;
    serve::InferenceServer server({}, registry, cfg);

    const double service = server.serviceSec();
    std::printf("compiled: %llu cycles -> every inference takes "
                "exactly %.3f us\n\n",
                static_cast<unsigned long long>(
                    server.serviceCycles()),
                service * 1e6);

    // Three same-instant arrivals against two chips, each with a
    // deadline of 1.5 service times. The first two start at once and
    // meet it; the third would have to queue a full service first —
    // the controller proves the miss and rejects without running it.
    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < 3; ++i) {
        futures.push_back(server.submit(
            input, /*arrival=*/0.0, /*deadline=*/1.5 * service));
    }
    server.drain();

    for (auto &f : futures) {
        const serve::Result r = f.get();
        std::printf("req %llu: %-17s predicted %llu cycles, "
                    "measured %llu, latency %.3f us\n",
                    static_cast<unsigned long long>(r.id),
                    serve::outcomeName(r.outcome),
                    static_cast<unsigned long long>(
                        r.predictedCycles),
                    static_cast<unsigned long long>(
                        r.measuredCycles),
                    r.latencySec() * 1e6);
    }
    std::printf("\nchip cycles spent: %llu (= 2 served x %llu; the "
                "rejected request cost none)\n",
                static_cast<unsigned long long>(
                    server.totalChipCycles()),
                static_cast<unsigned long long>(
                    server.serviceCycles()));
    return 0;
}
