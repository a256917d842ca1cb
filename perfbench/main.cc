/**
 * @file
 * The repository benchmark's measuring program. One run executes one
 * seeded workload for a given number of seconds and prints, as its
 * last line, one JSON document: correctness counters, the end-to-end
 * metrics (or, with --trace 1, the per-layer metrics), the exact
 * chip / virtual values a rerun of the seed must repeat, and the host
 * fingerprint. perfbench/run.py builds and drives it.
 *
 *   tsp_perfbench --workload resnet50-offline|serve-mix|fleet-soak
 *                 --seed N --seconds S --trace 0|1 [--trace-out PATH]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: tsp_perfbench --workload "
                 "resnet50-offline|serve-mix|fleet-soak --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            haveSeed = end != v && *end == '\0';
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(o.seconds >= 0.0))
                return usage();
        } else if (flag == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
        } else if (flag == "--trace-out") {
            o.tracePath = v;
        } else {
            return usage();
        }
    }
    if (!haveSeed || argc % 2 == 0)
        return usage();

    const auto run = o.workload == "resnet50-offline" ? runResnetOffline
                     : o.workload == "serve-mix"      ? runServeMix
                     : o.workload == "fleet-soak"     ? runFleetSoak
                                                      : nullptr;
    if (run == nullptr)
        return usage();

    Report rep;
    Tracer tr;
    try {
        run(o, rep, tr);
        if (o.trace) {
            measureKernels(rep);
            runLayerProbe(o.workload, rep, tr);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tsp_perfbench: %s\n", e.what());
        return 1;
    }
    rep.e2e("peak_rss_mib", peakRssMib(), "MiB");
    if (o.trace && !o.tracePath.empty() && !tr.writeChrome(o.tracePath))
        std::fprintf(stderr, "tsp_perfbench: cannot write %s\n",
                     o.tracePath.c_str());
    std::printf("host %s\n", hostFingerprintJson().c_str());
    std::printf("%s\n", rep.json(o.trace).c_str());
    return 0;
}
