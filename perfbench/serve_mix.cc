/**
 * @file
 * serve-mix: an open loop on the virtual timeline. One
 * InferenceServer over a ModelRegistry of three tiny-net families in
 * a skewed mix (hot / warm / cold), two worker engines built through
 * the factory constructor, batching with a join window, two tenant
 * classes with preemption, the trace cache on, and a registry byte
 * budget that holds the hot and warm families' programs but not the
 * cold one, so LRU eviction, recompiles and trace invalidation happen
 * in steady state. Submits block on a full queue, so every outcome is
 * a pure function of the seeded arrival stream.
 *
 * A pass offers one seeded stream at a fixed ladder of fractions of
 * the mix's exact capacity (from ModelRegistry::cycles before any
 * request is sent); steps are separated by a virtual gap that drains
 * every backlog. A run serves kStreams distinct sub-streams of its
 * seed, one per pass, and pools their virtual outcomes, which keeps
 * the virtual metrics steady from seed to seed. Further passes cycle
 * through the sub-streams again while time remains; each rebuilds the
 * server from scratch and must reproduce its sub-stream's outcome
 * exactly. Between passes, short slices time the hot family on a
 * direct session (the per-model tier metrics).
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "bench.hh"
#include "common/rng.hh"
#include "model/resnet.hh"
#include "serve/model_registry.hh"
#include "serve/server.hh"

namespace perfbench {

namespace {

using tsp::Cycle;
using tsp::serve::InferenceServer;
using tsp::serve::ModelRegistry;
using tsp::serve::ModelSpec;
using tsp::serve::Outcome;
using tsp::serve::Result;

struct Family
{
    const char *name;
    int h, w, c;
    double share;
    std::uint64_t weightSeed;
};

/** Hot / warm / cold: distinct shapes, skewed traffic; the rare
 * family is the largest. */
const Family kFamilies[] = {
    {"hot", 8, 8, 8, 0.6, 101},
    {"warm", 6, 6, 4, 0.3, 102},
    {"cold", 12, 12, 8, 0.1, 103},
};
constexpr int kModels = 3;
constexpr int kWorkers = 2;
constexpr int kBatchMax = 4;
/** Join window, in hot-family batch-1 service times. */
constexpr double kJoinWindowServices = 2.0;
/** Deadline slack, in the request family's batch-1 service times. */
constexpr double kSlackServices = 20.0;
/** High-priority tenant: share of traffic and deadline multiplier. */
constexpr double kHipriShare = 0.2;
constexpr double kHipriSlack = 0.5;
/** Offered rate ladder, as fractions of the mix's batched capacity
 * (which ignores weight swaps: a family switch re-stages about four
 * service times of image, so the knee sits near a quarter of it); the
 * nominal step is long enough to resolve its p99. */
const double kLadder[] = {0.05, 0.1, 0.2, 0.35, 0.5};
const int kStepRequests[] = {150, 1200, 150, 150, 150};
constexpr std::size_t kSteps = std::size(kLadder);
constexpr int kNominal = 1;
/** The slo_attainment limit of max_rps_at_slo. Over 41 seeds the 0.35
 * step read 0.89-0.98 and the 0.5 step 0.76-0.92, so the crossing is
 * interpolated between steps rather than snapped to one. */
constexpr double kSloLimit = 0.9;
/** Distinct sub-streams pooled per run. */
constexpr int kStreams = 5;
/**
 * Queue depth: deep enough that the submitter never blocks. With
 * OnFull::Block the virtual outcome does not depend on it, and
 * host_rps then measures the workers' throughput rather than the
 * host's thread-wakeup latency on every hand-off.
 */
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;
/** Hot-family inferences per tier in each slice between passes. */
constexpr int kSliceSamples = 12;

/** One generated request. */
struct Req
{
    int step = 0;
    int model = 0;
    int tenant = 0;
    double arrival = 0.0;
    double deadline = 0.0;
    std::vector<std::int8_t> input;
};

ModelSpec
makeSpec(const Family &f)
{
    ModelSpec s;
    s.name = f.name;
    s.graph = tsp::model::buildTinyNet(f.weightSeed, f.h, f.w, f.c);
    tsp::Rng rng(f.weightSeed ^ 0x5eedu);
    s.warmInput.resize(static_cast<std::size_t>(f.h * f.w * f.c));
    for (auto &v : s.warmInput)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    s.maxBatch = kBatchMax;
    return s;
}

std::vector<std::int8_t>
randomInput(const Family &f, tsp::Rng &rng)
{
    std::vector<std::int8_t> in(static_cast<std::size_t>(f.h * f.w * f.c));
    for (auto &v : in)
        v = static_cast<std::int8_t>(rng.intIn(-128, 127));
    return in;
}

/** One seeded sub-stream: the ladder's arrivals, families, tenants,
 * deadlines and payloads. */
std::vector<Req>
makeStream(std::uint64_t seed, const double service[kModels],
           double capacityRps, double gapSec, int divisor)
{
    tsp::Rng rng(seed);
    std::vector<Req> out;
    double t = 0.0;
    for (std::size_t s = 0; s < kSteps; ++s) {
        const double rate = kLadder[s] * capacityRps;
        for (int i = 0; i < kStepRequests[s] / divisor; ++i) {
            Req r;
            r.step = static_cast<int>(s);
            t += -std::log(1.0 - rng.nextDouble()) / rate;
            r.arrival = t;
            const double u = rng.nextDouble();
            r.model = u < kFamilies[0].share ? 0
                      : u < kFamilies[0].share + kFamilies[1].share ? 1
                                                                    : 2;
            r.tenant = rng.nextDouble() < kHipriShare ? 1 : 0;
            r.deadline = t + kSlackServices * service[r.model];
            r.input = randomInput(kFamilies[r.model], rng);
            out.push_back(std::move(r));
        }
        t += gapSec;
    }
    return out;
}

/** The virtual outcome of one sub-stream. */
struct Outcomes
{
    std::uint64_t sent[kSteps] = {};
    std::uint64_t met[kSteps] = {};
    std::vector<double> lat, queue, hipri; ///< Nominal step, served.
    double makespanSec = 0.0;              ///< Nominal step.
    std::map<std::string, double> counts;
    double capacityRps = 0.0;
};

const char *const kCounters[] = {
    "served",         "rejected_deadline",  "rejected_queue_full",
    "failed",         "deadline_missed",    "preemptions",
    "preempted_requeued", "preempted_shed", "batches",
    "batch_samples"};

} // namespace

void
runServeMix(const Options &o, Report &rep, Tracer &tr)
{
    const std::size_t mark = tr.size();
    const double clockHz = tsp::ChipConfig{}.clockHz;
    const int divisor = o.probe ? 10 : 1;
    const std::size_t streams = o.probe ? 2 : kStreams;

    // The hot family on a direct session, timed in slices between
    // passes (its set-up is not serve-mix's).
    const Family &hotF = kFamilies[0];
    OfflineSpec hotSpec;
    hotSpec.name = "serve-mix.hot";
    hotSpec.build = [&hotF] {
        return tsp::model::buildTinyNet(hotF.weightSeed, hotF.h, hotF.w,
                                        hotF.c);
    };
    hotSpec.input = [&hotF](std::uint64_t seed) {
        tsp::Rng rng(seed);
        return randomInput(hotF, rng);
    };
    hotSpec.inH = hotF.h;
    hotSpec.inW = hotF.w;
    hotSpec.inC = hotF.c;
    hotSpec.setupReps = 1;
    hotSpec.refThreads = 1;
    Report side;
    OfflineLoop hot(hotSpec, o, side, tr);
    hot.setUp();

    std::vector<PassTiming> passes;
    std::vector<Outcomes> outcomes; // Per sub-stream.
    std::vector<std::vector<std::vector<std::int8_t>>> refs;
    const auto t0 = Clock::now();
    double lastPass = 0.0;
    while (passes.size() < streams ||
           secondsSince(t0) + lastPass <= o.seconds) {
        const auto passStart = Clock::now();
        const std::size_t stream = passes.size() % streams;
        for (int i = 0; i < (o.probe ? 2 : kSliceSamples); ++i) {
            hot.tiers().infer(false);
            hot.tiers().infer(true);
        }

        PassTiming p;
        p.traced = o.trace && passes.size() % 2 == 1;
        tr.setEnabled(p.traced);

        // --- Set-up: graphs, compiles, registry, server.
        const auto ts = Clock::now();
        auto setupSpan =
            std::make_unique<Tracer::Scope>(tr, "setup", passes.size());
        std::vector<ModelSpec> specs;
        {
            auto g = tr.span("model.build_graph");
            for (const Family &f : kFamilies)
                specs.push_back(makeSpec(f));
        }
        auto compileSpan = std::make_unique<Tracer::Scope>(
            tr, "serve.registry_compile", 0);
        // Program bytes per family, from a calibration registry: the
        // budget holds hot + warm but only half the cold batch-1.
        std::size_t famBytes[kModels] = {};
        std::size_t coldB1 = 0;
        {
            ModelRegistry calib(specs);
            for (int m = 0; m < kModels; ++m) {
                const std::size_t before = calib.residentBytes();
                for (int b = 1; b <= kBatchMax; ++b) {
                    calib.cycles(m, b);
                    if (m == 2 && b == 1)
                        coldB1 = calib.residentBytes() - before;
                }
                famBytes[m] = calib.residentBytes() - before;
            }
        }
        ModelRegistry registry(specs,
                               famBytes[0] + famBytes[1] + coldB1 / 2);
        double service[kModels];
        double batchedSec = 0.0; // Mix-weighted seconds per request.
        Cycle maxCycles = 0;
        for (int m = 0; m < kModels; ++m) {
            for (int b = 1; b <= kBatchMax; ++b)
                maxCycles = std::max(maxCycles, registry.cycles(m, b));
            service[m] =
                static_cast<double>(registry.cycles(m, 1)) / clockHz;
            batchedSec +=
                kFamilies[m].share *
                static_cast<double>(registry.cycles(m, kBatchMax)) /
                kBatchMax / clockHz;
        }
        const double capacityRps = kWorkers / batchedSec;
        const double gapSec =
            200.0 * static_cast<double>(maxCycles) / clockHz;
        compileSpan.reset();

        tsp::serve::ServerConfig cfg;
        cfg.workers = kWorkers;
        cfg.queueCapacity = kQueueCapacity;
        cfg.batchMax = kBatchMax;
        cfg.batchWindowSec = kJoinWindowServices * service[0];
        cfg.preemption = true;
        cfg.sloClasses = {{1.0, 0}, {kHipriSlack, 1}};
        std::mutex resMu;
        std::vector<Result> results;
        cfg.onResult = [&](const Result &r) {
            std::lock_guard<std::mutex> g(resMu);
            results.push_back(r);
        };
        std::vector<tsp::serve::SessionBackend *> backends;
        const auto factory = [&](int) {
            auto b = std::make_unique<tsp::serve::SessionBackend>(
                registry.acquire(0, 1), kBatchMax, cfg.chip);
            backends.push_back(b.get());
            return b;
        };
        std::unique_ptr<InferenceServer> server;
        {
            auto n = tr.span("serve.server_new");
            server = std::make_unique<InferenceServer>(
                tsp::serve::BackendFactory(factory), registry, cfg);
        }
        setupSpan.reset();
        p.setupS = secondsSince(ts);

        // --- Generated inputs (the client side; untimed).
        const std::vector<Req> reqs =
            makeStream(itemSeed(o.seed, 0x5e77, stream), service,
                       capacityRps, gapSec, divisor);

        // --- Timed: open-loop submits, then drain.
        const auto th = Clock::now();
        {
            auto passSpan = tr.span("serve.pass", passes.size());
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const Req &r = reqs[i];
                auto s = tr.span("serve.submit", i);
                server->submitModelDetached(
                    r.model, r.tenant, r.input, r.arrival, r.deadline,
                    InferenceServer::OnFull::Block);
            }
            auto d = tr.span("serve.drain");
            server->drain();
        }
        p.hostS = secondsSince(th);
        p.requests = static_cast<double>(reqs.size());
        tr.setEnabled(false);

        // --- Checks and the virtual outcome (untimed).
        const tsp::serve::ServerMetrics m = server->metricsSnapshot();
        std::uint64_t replays = 0, records = 0;
        for (const auto *b : backends) {
            replays += b->replayCount();
            records += b->recordCount();
        }
        Outcomes out;
        out.capacityRps = capacityRps;
        out.counts["registry_evictions"] =
            static_cast<double>(registry.evictions());
        out.counts["registry_compiles"] =
            static_cast<double>(registry.compileCount());
        out.counts["registry_resident_bytes"] =
            static_cast<double>(registry.residentBytes());
        out.counts["prediction_mismatches"] =
            static_cast<double>(m.predictionMismatches());
        for (const char *k : kCounters)
            out.counts[k] = static_cast<double>(m.counters().get(k));
        server.reset();

        if (stream >= refs.size()) {
            std::vector<std::vector<std::int8_t>> r;
            for (const Req &q : reqs) {
                const tsp::Graph &g =
                    specs[static_cast<std::size_t>(q.model)].graph;
                const Family &f = kFamilies[q.model];
                tsp::ref::QTensor in(f.h, f.w, f.c);
                in.data = q.input;
                r.push_back(g.runReference(in).at(g.outputNode()).data);
            }
            refs.push_back(std::move(r));
        }
        // Request ids are assigned in submit order from 1.
        std::sort(results.begin(), results.end(),
                  [](const Result &a, const Result &b) {
                      return a.id < b.id;
                  });
        rep.check(results.size() == reqs.size(),
                  "serve-mix: " + std::to_string(results.size()) +
                      " results for " + std::to_string(reqs.size()) +
                      " requests");
        rep.check(m.predictionMismatches() == 0,
                  "serve-mix: prediction mismatches");
        double firstArrival = -1.0, lastCompletion = 0.0;
        std::uint64_t digest = 0xcbf29ce484222325ull;
        const auto mix = [&digest](std::uint64_t x) {
            digest = (digest ^ x) * 0x100000001b3ull;
        };
        for (std::size_t i = 0; i < results.size() && i < reqs.size();
             ++i) {
            const Result &r = results[i];
            const Req &q = reqs[i];
            const auto step = static_cast<std::size_t>(q.step);
            ++out.sent[step];
            mix(static_cast<std::uint64_t>(r.outcome));
            mix(static_cast<std::uint64_t>(
                std::llround(r.completionSec * 1e12)));
            if (r.outcome != Outcome::Served)
                continue;
            rep.check(r.output.data == refs[stream][i],
                      "serve-mix: request " + std::to_string(i) +
                          " output != reference");
            ++out.met[step];
            if (q.step != kNominal)
                continue;
            out.lat.push_back(r.latencySec() * 1e6);
            out.queue.push_back(r.queueSec() * 1e6);
            if (q.tenant == 1)
                out.hipri.push_back(r.latencySec() * 1e6);
            if (firstArrival < 0.0)
                firstArrival = q.arrival;
            lastCompletion = std::max(lastCompletion, r.completionSec);
        }
        out.makespanSec = lastCompletion - std::max(0.0, firstArrival);
        // A repeated sub-stream must reproduce its outcome exactly.
        const std::string tag =
            "virtual.stream" + std::to_string(stream) + ".";
        rep.exact(tag + "result_digest",
                  static_cast<double>(digest >> 11));
        for (const auto &[k, v] : out.counts)
            rep.exact(tag + k, v);
        if (stream >= outcomes.size())
            outcomes.push_back(std::move(out));
        rep.layer("sim.replay_share",
                  replays + records
                      ? static_cast<double>(replays) /
                            static_cast<double>(replays + records)
                      : 0.0,
                  "share");
        passes.push_back(p);
        lastPass = secondsSince(passStart);
    }

    // --- Virtual metrics, pooled over the sub-streams.
    Outcomes all;
    double makespan = 0.0;
    for (const Outcomes &s : outcomes) {
        for (std::size_t k = 0; k < kSteps; ++k) {
            all.sent[k] += s.sent[k];
            all.met[k] += s.met[k];
        }
        all.lat.insert(all.lat.end(), s.lat.begin(), s.lat.end());
        all.queue.insert(all.queue.end(), s.queue.begin(), s.queue.end());
        all.hipri.insert(all.hipri.end(), s.hipri.begin(), s.hipri.end());
        for (const auto &[k, v] : s.counts)
            all.counts[k] += v;
        makespan += s.makespanSec / static_cast<double>(outcomes.size());
    }
    const double capacityRps = outcomes.front().capacityRps;
    double att[kSteps];
    std::size_t top = kSteps; // Highest step meeting the limit.
    for (std::size_t s = 0; s < kSteps; ++s) {
        att[s] = all.sent[s] ? static_cast<double>(all.met[s]) /
                                   static_cast<double>(all.sent[s])
                             : 0.0;
        if (att[s] >= kSloLimit)
            top = s;
        rep.exact("virtual.slo_attainment.step" + std::to_string(s),
                  att[s]);
    }
    // The limit's crossing, linear between the highest step that meets
    // it and the next.
    double maxShare = 0.0;
    if (top + 1 < kSteps) {
        maxShare = kLadder[top] + (att[top] - kSloLimit) /
                                      (att[top] - att[top + 1]) *
                                      (kLadder[top + 1] - kLadder[top]);
    } else if (top + 1 == kSteps) {
        maxShare = kLadder[top];
    }
    const double maxRps = maxShare * capacityRps;
    const double tail = tailQuantile(all.lat.size());
    const auto virt = [&](const std::string &name, double v,
                          const char *unit, bool e2e) {
        if (e2e)
            rep.e2e(name, v, unit);
        else
            rep.layer(name, v, unit);
        rep.exact("virtual." + name, v);
    };
    const double nomSent = static_cast<double>(all.sent[kNominal]);
    virt("latency_p50_us", quantile(all.lat, 0.5), "us", true);
    virt("latency_p99_us", quantile(all.lat, tail), "us", true);
    virt("slo_attainment",
         nomSent > 0 ? static_cast<double>(all.met[kNominal]) / nomSent
                     : 0.0,
         "share", true);
    virt("max_rps_at_slo", maxRps, "1/s", true);
    virt("pod_seconds", kWorkers * makespan, "s", true);
    virt("serve.latency_samples", static_cast<double>(all.lat.size()),
         "count", false);
    virt("serve.latency_tail_quantile", tail, "quantile", false);
    for (const char *k : kCounters) {
        if (std::string(k).rfind("batch", 0) != 0)
            virt(std::string("serve.") + k, all.counts[k], "count", false);
    }
    virt("serve.registry_compiles", all.counts["registry_compiles"],
         "count", false);
    virt("serve.registry_evictions", all.counts["registry_evictions"],
         "count", false);
    virt("serve.registry_resident_bytes",
         all.counts["registry_resident_bytes"] /
             static_cast<double>(outcomes.size()),
         "bytes", false);
    virt("serve.prediction_mismatches", all.counts["prediction_mismatches"],
         "count", false);
    virt("serve.queue_wait_p50_us", quantile(all.queue, 0.5), "us", false);
    virt("serve.queue_wait_p99_us", quantile(all.queue, tail), "us", false);
    virt("serve.batch_size_mean",
         all.counts["batches"] > 0
             ? all.counts["batch_samples"] / all.counts["batches"]
             : 0.0,
         "count", false);
    virt("serve.hipri_latency_p99_us",
         quantile(all.hipri, tailQuantile(all.hipri.size())), "us", false);
    virt("serve.capacity_rps", capacityRps, "1/s", false);

    // --- Host metrics.
    reportPasses(passes, o.trace, rep, tr, mark, "serve.pass");

    hot.finish();
    rep.absorb(side,
               {"ff_inference_s", "replay_inference_s", "chip_cycles",
                "chip_energy_mj"},
               "");
    if (!o.trace)
        return;

    std::vector<double> submitUs = tr.durations("serve.submit", mark);
    for (double &d : submitUs)
        d *= 1e6;
    rep.layer("serve.submit_host_us", median(submitUs), "us");
    rep.layer("serve.submit_host_us_tail",
              quantile(submitUs, tailQuantile(submitUs.size())), "us");
    rep.layer("serve.drain_s", median(tr.durations("serve.drain", mark)),
              "s");
}

} // namespace perfbench
