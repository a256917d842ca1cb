/**
 * @file
 * Shared plumbing of the repository benchmark (perfbench): run
 * options, the per-run report, the in-memory span tracer and a few
 * order statistics.
 *
 * Every metric names one of three clocks:
 *  - chip:    modeled TSP cycles and energy (exact, bit-for-bit);
 *  - virtual: serving time on the admission timeline (exact for a
 *             given seed);
 *  - host:    the simulator's own wall time (noisy).
 * Chip and virtual values, and every per-layer count, are also
 * recorded as *exact* values: they must repeat on every inference and
 * repeated sub-stream of a run and on every run of a seed, and a
 * difference is reported as a determinism failure, never averaged
 * away.
 */

#ifndef TSP_PERFBENCH_BENCH_HH
#define TSP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/types.hh"

namespace tsp {
class Chip;
class Graph;
namespace serve {
class Backend;
}
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Smallest sizes: the layer probe's exercise of a workload. */
    bool probe = false;
    /** Chrome trace-event JSON written at exit (traced runs). */
    std::string tracePath;
};

/** @return the median of @p v (0 when empty). */
double median(std::vector<double> v);

/** @return the nearest-rank @p q-quantile (q in [0, 1]) of @p v. */
double quantile(std::vector<double> v, double q);

/**
 * The quantiles the end-to-end host metrics report. Contention from
 * the rest of a shared host only ever slows a sample down, and on the
 * reference host (a 4-vCPU VM) it comes and goes for seconds at a
 * time, so medians carry it. Per-inference times have hundreds of
 * millisecond-scale samples a run, and their 5th percentile tracks
 * the uncontended speed. Per-pass rates have only a dozen or so
 * multi-second samples, whose best is an outlier; their upper
 * quartile varied least from seed to seed.
 */
inline constexpr double kHostTimeQuantile = 0.05;
inline constexpr double kHostRateQuantile = 0.75;

/**
 * @return the highest of p99.9 / p99 / p90 / p50 that leaves at
 * least ten samples beyond it in a sample of @p n (0.5 below 20).
 */
double tailQuantile(std::size_t n);

/** @return peak resident set size of this process, MiB. */
double peakRssMib();

/** @return a deterministic 64-bit stream seed for item @p i. */
std::uint64_t itemSeed(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t i);

/** Relative tolerance of per-inference energy comparisons. */
inline constexpr double kEnergyRelTol = 1e-9;

/** Metrics, checks and exact values of one run. */
class Report
{
  public:
    /** Sets an end-to-end metric. */
    void e2e(const std::string &name, double value,
             const std::string &unit);

    /** Sets a per-layer metric (traced runs print these). */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /**
     * Records an exact (chip / virtual / count) value. Recording the
     * same name twice with different values is a determinism
     * failure. A nonzero @p relTol is for values derived by
     * subtracting cumulative floating-point sums (per-inference
     * energy), whose last bits depend on what ran before.
     */
    void exact(const std::string &name, double value, double relTol = 0.0);

    /**
     * Folds @p side (a sub-measurement) into this report: copies the
     * end-to-end metrics named in @p e2e, fills per-layer metrics not
     * set yet, adds its checks, and records its exact values under
     * @p prefix.
     */
    void absorb(const Report &side, const std::vector<std::string> &e2e,
                const std::string &prefix);

    /** Counts one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /**
     * @return the run's full JSON document: correctness counters,
     * the selected metric set (per-layer when @p traced), exact
     * values, failure reasons and the host fingerprint.
     */
    std::string json(bool traced) const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layers_;
    std::map<std::string, double> exact_;
    std::map<std::string, double> approx_; ///< Value per tolerant name.
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * In-memory span tracer. Spans are recorded only around calls the
 * benchmark itself makes into a layer's public functions; they nest
 * through a parent stack and carry a request id. Everything is kept
 * in memory and written once, at exit, as Chrome trace-event JSON.
 * Single-threaded: only the benchmark's driving thread records.
 */
class Tracer
{
  public:
    /** RAII span; a no-op while tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t req);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_ = nullptr;
        int index_ = -1;
    };

    /** Opens a span named @p name for request @p req. */
    Scope span(const char *name, std::uint64_t req = 0)
    {
        return Scope(*this, name, req);
    }

    /** Turns recording on or off (spans in flight still close). */
    void setEnabled(bool on) { on_ = on; }

    /** @return durations (seconds) of every closed span @p name
     * recorded at or after index @p from. */
    std::vector<double> durations(const std::string &name,
                                  std::size_t from = 0) const;

    /**
     * @return the share of the summed duration of spans named in
     * @p parents (recorded at or after index @p from) that their
     * direct child spans cover.
     */
    double coverage(const std::vector<std::string> &parents,
                    std::size_t from = 0) const;

    /** @return spans recorded so far. */
    std::size_t size() const { return spans_.size(); }

    /** Writes every span as Chrome trace-event JSON; @return ok. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        int parent = -1;
        std::uint64_t req = 0;
    };

    std::int64_t nowNs() const;

    bool on_ = false;
    int current_ = -1;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** Host timing of one serving pass (serve-mix, fleet-soak). */
struct PassTiming
{
    bool traced = false;
    double setupS = 0.0;
    double hostS = 0.0; ///< The timed loop: submits through drain.
    double requests = 0.0;
};

/**
 * Sets setup_s (median) and host_rps (kHostRateQuantile of per-pass
 * rates) from the untraced passes. In a traced run it also sets the
 * tracing overhead of both, comparing traced passes with the untraced
 * ones after the first (which also pays the process's own warm-up),
 * and the span coverage of "setup" and of @p passSpan, counting spans
 * recorded since @p mark.
 */
void reportPasses(const std::vector<PassTiming> &passes, bool traced,
                  Report &rep, const Tracer &tr, std::size_t mark,
                  const char *passSpan);

/** @return the host fingerprint (ISA tier, cores, compiler, build)
 * as a JSON object. */
std::string hostFingerprintJson();

/**
 * Per-layer kernel microbenchmarks: host ns per call on the fixed
 * tiles of bench/bench_sim_speed.cc's BM_* cases, with the computed
 * bytes each call moves.
 */
void measureKernels(Report &rep);

/**
 * Fills the per-layer metrics of the layers @p workload does not call
 * (serve on resnet50-offline; fleet and c2c on resnet50-offline and
 * serve-mix; serve on fleet-soak) from a small fixed-seed run of the
 * workload that does, so a traced run reports the full layer set on
 * every workload.
 */
void runLayerProbe(const std::string &workload, Report &rep, Tracer &tr);

/** Cumulative modeled-unit counters of one chip (or a pod's sum). */
struct UnitCounters
{
    std::map<std::string, std::uint64_t> stats;
    double energyJ = 0.0;
    std::uint64_t mxmActiveCycles = 0;

    UnitCounters &operator+=(const UnitCounters &o);
};

/** @return @p chip's cumulative unit counters. */
UnitCounters unitCounters(const tsp::Chip &chip);

/**
 * Sets the modeled-unit per-layer metrics (mxm / vxm / mem / stream /
 * icu / power / ecc, chip clock) from the activity between @p a and
 * @p b, which span exactly @p inferences inferences on @p chips
 * chips, and records them as exact values.
 */
void reportUnits(Report &rep, const UnitCounters &a,
                 const UnitCounters &b, std::uint64_t inferences,
                 int chips);

/**
 * What a TierLoop times: one engine per execution tier over the same
 * program, the inputs it feeds them and the golden output of each.
 */
struct TierSpec
{
    /** Prefix of check messages and exact-value names. */
    std::string name;
    /** Engine on the default fast-forward tier, replay off. */
    tsp::serve::Backend *ff = nullptr;
    /** Engine with the record/replay tier on; its first run records. */
    tsp::serve::Backend *replay = nullptr;
    /** Modeled cycles every inference must take. */
    tsp::Cycle cycles = 0;
    /** Chips per engine (unit metrics are per chip). */
    int chips = 1;
    /** @return the engine's cumulative unit counters. */
    std::function<UnitCounters(bool replay)> units;
    /** @return the dense input of item @p item (item 0 is the
     * recording run's). */
    std::function<std::vector<std::int8_t>(std::uint64_t item)> input;
    /** @return the golden output of @p input (run untimed, at the
     * end, on up to refThreads threads). */
    std::function<std::vector<std::int8_t>(const std::vector<std::int8_t> &)>
        reference;
    /** Distinct fast-forward items; later samples cycle through them. */
    std::uint64_t items = 64;
    int refThreads = 1;
    /** @return a fresh engine with fast-forward off (traced runs time
     * one per-cycle inference on it). */
    std::function<std::unique_ptr<tsp::serve::Backend>()> perCycle;
};

/**
 * Times single inferences on either execution tier: reset, write,
 * run and read, as one closed-loop client sees them. Fast-forward
 * samples take new items; replay samples replay items fast-forward
 * has run, and must match its output. In traced runs every other
 * sample of a tier is traced. finish() checks every output against
 * its reference and sets ff_inference_s, replay_inference_s,
 * chip_cycles and chip_energy_mj, plus (traced) the runtime / sim
 * layer metrics and the tiers' tracing overhead and span coverage.
 */
class TierLoop
{
  public:
    /** Per-layer span metrics count spans recorded since @p mark. */
    TierLoop(TierSpec spec, const Options &o, Report &rep, Tracer &tr,
             std::size_t mark);
    ~TierLoop();
    TierLoop(const TierLoop &) = delete;
    TierLoop &operator=(const TierLoop &) = delete;

    /** Makes the replay engine's recording run (item 0; a span when
     * the tracer is on); its output is checked at finish(). */
    void record();

    /** Times one inference on the fast-forward or replay tier. */
    void infer(bool replay);

    /** @return host seconds infer() spent on one tier so far. */
    double tierSeconds(bool replay) const;

    /** @return host seconds per inference on one tier, of the
     * traced or the untraced samples. */
    std::vector<double> seconds(bool replay, bool traced = false) const;

    /** Counts @p output of item @p item for checking at finish(). */
    void expect(std::uint64_t item, std::vector<std::int8_t> output,
                const std::string &what);

    /** Checks every output and sets the metrics. */
    void finish();

    /** @return the share of samples that returned the reference
     * output in the expected cycles (after finish). */
    double goodShare() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Weight seed of the ResNet-50 model (E1's). */
inline constexpr std::uint64_t kResnetWeightSeed = 42;

/** One compiled model for the offline closed loop (OfflineLoop). */
struct OfflineSpec
{
    std::string name;
    std::function<tsp::Graph()> build;
    /** Dense model input of the image with stream seed @p seed. */
    std::function<std::vector<std::int8_t>(std::uint64_t seed)> input;
    int inH = 0, inW = 0, inC = 0;
    int setupReps = 3;  ///< Set-ups per run; setup_s is their median.
    int refThreads = 4; ///< Reference-check threads (untimed).
};

/**
 * The offline closed loop over one compiled model: set-up (graph,
 * compile, session, recording run) spec.setupReps times, then a
 * TierLoop over the last session.
 */
class OfflineLoop
{
  public:
    OfflineLoop(OfflineSpec spec, const Options &o, Report &rep,
                Tracer &tr);
    ~OfflineLoop();
    OfflineLoop(const OfflineLoop &) = delete;
    OfflineLoop &operator=(const OfflineLoop &) = delete;

    /** Builds the model spec.setupReps times; keeps the last. */
    void setUp();

    /** @return the tier loop over the kept session (after setUp). */
    TierLoop &tiers();

    /** @return modeled cycles per inference (after setUp). */
    tsp::Cycle cycles() const;

    /** Checks every output and sets setup_s, the tier metrics and
     * the model's compile-time per-layer metrics. */
    void finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// Workloads: each fills every end-to-end metric (and, when traced,
// its own per-layer metrics) and counts its checks in @p rep.
void runResnetOffline(const Options &o, Report &rep, Tracer &tr);
void runServeMix(const Options &o, Report &rep, Tracer &tr);
void runFleetSoak(const Options &o, Report &rep, Tracer &tr);

} // namespace perfbench

#endif // TSP_PERFBENCH_BENCH_HH
