/**
 * @file
 * Shared helpers for the benchmark binaries: table printing, the
 * standard header each experiment emits (paper artifact id + claim),
 * and a JSON result emitter so benches leave machine-readable
 * BENCH_*.json artifacts for the perf trajectory.
 */

#ifndef TSP_BENCH_BENCH_UTIL_HH
#define TSP_BENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "model/resnet.hh"
#include "serve/model_registry.hh"

namespace tsp::bench {

/**
 * The tiny conv net the serving benches run, as a one-family registry
 * spec: weight seed 3, 8x8x4 input, warm input drawn from Rng(7).
 */
inline serve::ModelSpec
tinyNetSpec()
{
    serve::ModelSpec spec;
    spec.name = "tiny";
    spec.graph = model::buildTinyNet(3, 8, 8, 4);
    Rng rng(7);
    spec.warmInput.resize(8 * 8 * 4);
    for (auto &v : spec.warmInput)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return spec;
}

/**
 * Order-independent mean of @p n samples: summed with FixedPointSum
 * (int64, 2^20 fixed point) so the reported aggregate depends only on
 * the sample multiset, keeping bench tables byte-identical under any
 * reordering of the series they summarize.
 *
 * @return 0.0 for an empty span.
 */
template <typename T>
inline double
fixedPointMean(const T *samples, std::size_t n)
{
    FixedPointSum sum;
    for (std::size_t i = 0; i < n; ++i)
        sum.add(static_cast<double>(samples[i]));
    return n ? sum.value() / static_cast<double>(n) : 0.0;
}

/** Prints the experiment banner. */
inline void
banner(const char *id, const char *claim)
{
    std::printf("=============================================="
                "==================\n");
    std::printf("%s\n", id);
    std::printf("paper: %s\n", claim);
    std::printf("----------------------------------------------"
                "------------------\n");
}

/** Prints a footer separating experiments in concatenated logs. */
inline void
footer()
{
    std::printf("\n");
}

/**
 * Writes a flat {name: number} JSON object to @p path and announces
 * the artifact on stdout. Doubles represent every value (cycle
 * counts fit: < 2^53). For nested results build a JsonWriter and use
 * writeJsonFile directly.
 *
 * @return true on success.
 */
inline bool
writeJson(const std::string &path,
          std::initializer_list<std::pair<const char *, double>> kv)
{
    JsonWriter j;
    j.beginObject();
    for (const auto &[name, v] : kv)
        j.kv(name, v);
    j.endObject();
    const bool ok = writeJsonFile(path, j.str());
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                path.c_str());
    return ok;
}

} // namespace tsp::bench

#endif // TSP_BENCH_BENCH_UTIL_HH
