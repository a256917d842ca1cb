/**
 * @file
 * fleet-soak: an open loop with bursty (two-state MMPP) seeded
 * arrivals, driven from outside through Fleet::submit / advanceTo /
 * drainAll. Pods are 2-chip ring all-reduce engines (PodBackend), one
 * worker each, 1-3 pods under the autoscaler. Requests carry
 * deadlines; fault injection is live with double-bit upsets, so
 * machine checks and retries occur. Faults keep every serve off the
 * replay tier, so host time goes to the fast-forward event core, C2C,
 * ECC / fault injection and fleet routing and scaling — a replay gain
 * should predict no change here.
 *
 * Every served output is checked against the saturating all-reduce
 * of its payload inside the engine wrapper below. A run soaks
 * kStreams distinct sub-streams of its seed, one per pass, each on a
 * fresh fleet, and pools their virtual outcomes; further passes cycle
 * through the sub-streams again while time remains and must
 * reproduce their sub-stream's report exactly. Between passes, short
 * slices time one collective on a fault-free engine on both tiers
 * (the per-model tier metrics).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "arch/layout.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "common/seed.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "fleet/timeseries.hh"
#include "serve/backend.hh"
#include "sim/chip.hh"
#include "sim/exec_trace.hh"

namespace perfbench {

namespace {

using tsp::Cycle;
using tsp::serve::PodBackend;

constexpr int kChipsPerPod = 2;
constexpr Cycle kWireCycles = 17;
constexpr int kMaxPods = 3;
/** Mean requests per pass (the probe runs a twentieth). */
constexpr double kPassRequests = 20000;
/** Distinct sub-streams pooled per run. */
constexpr int kStreams = 8;
/** Per-pod queue depth: the submitting thread never blocks on a full queue
 * (see serve-mix; the virtual outcome does not depend on it). */
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;
/** Mean offered rate, as a share of one pod's capacity: most
 * requests meet an idle engine, bursts (x3) need the autoscaler. */
constexpr double kRateShare = 0.6;
/** Window width, provisioning delay, deadline slack, mean burst and
 * the autoscaler's backlog thresholds, in batch-1 service times. */
constexpr double kWindowServices = 200;
constexpr double kProvisionServices = 400;
constexpr double kSlackServices = 30;
constexpr double kUpBacklogServices = 20;
constexpr double kDownBacklogServices = 2;
constexpr double kBurstServices = 600;
/** Collectives per tier in each timing slice between passes. */
constexpr int kSliceSamples = 100;
/** Distinct collective payloads; later samples cycle through them. */
constexpr std::uint64_t kPayloads = 4096;

/** @return the saturating chain reduction the collective computes. */
std::vector<std::int8_t>
reduceReference(const std::vector<std::int8_t> &in)
{
    std::vector<std::int8_t> want(in.begin(), in.begin() + tsp::kLanes);
    for (int c = 1; c < kChipsPerPod; ++c) {
        for (int l = 0; l < tsp::kLanes; ++l) {
            const auto i = static_cast<std::size_t>(l);
            const int s =
                want[i] +
                in[static_cast<std::size_t>(c) * tsp::kLanes + i];
            want[i] = static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }
    return want;
}

/** Output counters shared by every engine of a fleet. */
struct OutputChecks
{
    std::atomic<std::uint64_t> checked{0};
    std::atomic<std::uint64_t> wrong{0};
};

/**
 * A PodBackend that checks each output it hands back against the
 * reduction of the payload written into that sample slot. The fleet
 * replaces its servers' result hooks, so the engine is the one place
 * the benchmark sees every served output.
 */
class CheckedPodBackend final : public tsp::serve::Backend
{
  public:
    CheckedPodBackend(tsp::ChipConfig cfg, OutputChecks &checks)
        : inner_(kChipsPerPod, kWireCycles, cfg), checks_(checks),
          inputs_(static_cast<std::size_t>(inner_.maxBatch()))
    {
    }

    int maxBatch() const override { return inner_.maxBatch(); }
    std::size_t
    expectedInputBytes() const override
    {
        return inner_.expectedInputBytes();
    }
    void resetBatch(int batch) override { inner_.resetBatch(batch); }
    void
    writeSample(int sample,
                const std::vector<std::int8_t> &input) override
    {
        inputs_[static_cast<std::size_t>(sample)] = input;
        inner_.writeSample(sample, input);
    }
    tsp::RunResult
    runBounded(Cycle max_cycles) override
    {
        return inner_.runBounded(max_cycles);
    }
    tsp::ref::QTensor
    readSample(int sample) const override
    {
        tsp::ref::QTensor out = inner_.readSample(sample);
        ++checks_.checked;
        if (out.data !=
            reduceReference(inputs_[static_cast<std::size_t>(sample)]))
            ++checks_.wrong;
        return out;
    }
    std::uint64_t
    correctedErrors() const override
    {
        return inner_.correctedErrors();
    }
    std::uint64_t
    machineCheckCount() const override
    {
        return inner_.machineCheckCount();
    }
    Cycle totalCycles() const override { return inner_.totalCycles(); }
    int rebuilds() const override { return inner_.rebuilds(); }
    void
    attachTraceCache(std::shared_ptr<tsp::TraceCache> t) override
    {
        inner_.attachTraceCache(std::move(t));
    }
    std::uint64_t
    replayCount() const override
    {
        return inner_.replayCount();
    }
    std::uint64_t
    recordCount() const override
    {
        return inner_.recordCount();
    }
    void
    enableSnapshots(Cycle every) override
    {
        inner_.enableSnapshots(every);
    }
    bool canMigrate() const override { return inner_.canMigrate(); }
    tsp::RunResult
    migrateAndResume(Cycle max_cycles) override
    {
        return inner_.migrateAndResume(max_cycles);
    }
    int migrations() const override { return inner_.migrations(); }

  private:
    PodBackend inner_;
    OutputChecks &checks_;
    std::vector<std::vector<std::int8_t>> inputs_;
};

tsp::FaultConfig
faults()
{
    tsp::FaultConfig f;
    f.memReadRate = 2e-4;
    f.memWriteRate = 2e-4;
    f.streamRate = 2e-4;
    f.c2cRate = 2e-4;
    f.doubleBitFraction = 0.2;
    return f;
}

/** @return the number following @p key after @p after in @p json
 * (SoakTimeSeries exposes its overall latency quantiles only in its
 * JSON document). */
double
jsonNumberAfter(const std::string &json, const char *after,
                const char *key)
{
    std::size_t at = json.find(after);
    if (at == std::string::npos)
        return 0.0;
    at = json.find(key, at);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + at + std::strlen(key), nullptr);
}

/** The virtual outcome of one sub-stream. */
struct Outcomes
{
    double p50Us = 0.0, p99Us = 0.0;
    double submitted = 0.0, served = 0.0;
    double podSeconds = 0.0;
    std::map<std::string, double> counts;
};

/** @return the summed unit counters of @p pod's chips. */
UnitCounters
podUnits(PodBackend &pod)
{
    UnitCounters u;
    for (int c = 0; c < kChipsPerPod; ++c)
        u += unitCounters(pod.session().pod().chip(c));
    return u;
}

} // namespace

void
runFleetSoak(const Options &o, Report &rep, Tracer &tr)
{
    const std::size_t mark = tr.size();
    const double clockHz = tsp::ChipConfig{}.clockHz;
    const double passRequests =
        o.probe ? kPassRequests / 20 : kPassRequests;
    const std::size_t streams = o.probe ? 2 : kStreams;
    // One all-reduce on fault-free pod engines, timed on both tiers in
    // slices between passes (the per-model end-to-end metrics).
    PodBackend ffPod(kChipsPerPod, kWireCycles, tsp::ChipConfig{});
    PodBackend replayPod(kChipsPerPod, kWireCycles, tsp::ChipConfig{});
    const auto cache = std::make_shared<tsp::TraceCache>();
    replayPod.attachTraceCache(cache);
    TierSpec ts;
    ts.name = "fleet-soak";
    ts.ff = &ffPod;
    ts.replay = &replayPod;
    ts.cycles = PodBackend::serviceCycles(kChipsPerPod, kWireCycles,
                                          tsp::ChipConfig{});
    ts.chips = kChipsPerPod;
    ts.units = [&](bool replay) {
        return podUnits(replay ? replayPod : ffPod);
    };
    ts.input = [&o](std::uint64_t item) {
        tsp::Rng rng(itemSeed(o.seed, 0x70d5, item));
        std::vector<std::int8_t> in(PodBackend::inputBytes(kChipsPerPod));
        for (auto &v : in)
            v = static_cast<std::int8_t>(rng.intIn(-128, 127));
        return in;
    };
    ts.reference = reduceReference;
    ts.items = kPayloads;
    ts.perCycle = [] {
        tsp::ChipConfig cfg;
        cfg.fastForwardEnabled = false;
        return std::make_unique<PodBackend>(kChipsPerPod, kWireCycles, cfg);
    };
    Report side;
    TierLoop tiers(std::move(ts), o, side, tr, mark);
    tr.setEnabled(o.trace);
    tiers.record();
    tr.setEnabled(false);
    std::vector<PassTiming> passes;
    std::vector<Outcomes> outcomes; // Per sub-stream.
    Cycle service = 0;
    double offeredRps = 0.0;
    const auto t0 = Clock::now();
    double lastPass = 0.0;
    while (passes.size() < streams ||
           secondsSince(t0) + lastPass <= o.seconds) {
        const auto passStart = Clock::now();
        const std::size_t stream = passes.size() % streams;
        for (int i = 0; i < (o.probe ? 10 : kSliceSamples); ++i) {
            tiers.infer(false);
            tiers.infer(true);
        }
        PassTiming p;
        p.traced = o.trace && passes.size() % 2 == 1;
        tr.setEnabled(p.traced);

        // --- Set-up: exact admission table, time series, fleet.
        const auto ts0 = Clock::now();
        auto setupSpan =
            std::make_unique<Tracer::Scope>(tr, "setup", passes.size());
        std::vector<Cycle> table;
        {
            auto c = tr.span("c2c.calibrate");
            table = PodBackend::serviceCyclesTable(
                kChipsPerPod, kWireCycles, tsp::ChipConfig{}, 1);
        }
        service = table[0];
        const double svc = static_cast<double>(service) / clockHz;
        const double rate = kRateShare / svc;
        offeredRps = rate;
        const double duration = passRequests / rate;
        const double windowSec = kWindowServices * svc;
        const double slack = kSlackServices * svc;
        tsp::fleet::SoakTimeSeries series(windowSec, 2.0 * slack, 4096);
        OutputChecks checks;
        std::vector<const CheckedPodBackend *> engines;
        tsp::fleet::FleetConfig fc;
        fc.initialPods = 1;
        fc.cyclesByBatch = table;
        fc.windowSec = windowSec;
        fc.server.workers = 1;
        fc.server.queueCapacity = kQueueCapacity;
        fc.server.maxRetries = 2;
        fc.autoscaler.minPods = 1;
        fc.autoscaler.maxPods = kMaxPods;
        fc.autoscaler.scaleUpBacklogSec = kUpBacklogServices * svc;
        fc.autoscaler.scaleDownBacklogSec = kDownBacklogServices * svc;
        fc.autoscaler.upWindows = 1;
        fc.autoscaler.downWindows = 10;
        fc.autoscaler.provisionSec = kProvisionServices * svc;
        const std::uint64_t faultSeed = itemSeed(o.seed, 0xfa17, stream);
        fc.makeBackend = [faultSeed, &checks, &engines](int pod,
                                                        int worker) {
            tsp::ChipConfig cc;
            cc.fault = faults();
            cc.fault.seed = tsp::deriveSeed(
                tsp::deriveSeed(faultSeed, tsp::SeedDomain::FleetPod,
                                static_cast<std::uint64_t>(pod)),
                tsp::SeedDomain::FleetWorker,
                static_cast<std::uint64_t>(worker));
            auto b = std::make_unique<CheckedPodBackend>(cc, checks);
            engines.push_back(b.get());
            return b;
        };
        tsp::fleet::LoadGenConfig lg;
        lg.model = tsp::fleet::ArrivalModel::Bursty;
        lg.rateRps = rate;
        lg.seed = itemSeed(o.seed, 0x10ad, stream);
        lg.inputBytes = PodBackend::inputBytes(kChipsPerPod);
        lg.burstFactor = 3.0;
        lg.burstFraction = 0.15;
        lg.meanBurstSec = kBurstServices * svc;
        tsp::fleet::LoadGenerator gen(lg);
        std::unique_ptr<tsp::fleet::Fleet> fleet;
        {
            auto f = tr.span("fleet.new");
            fleet = std::make_unique<tsp::fleet::Fleet>(fc, series);
        }
        setupSpan.reset();
        p.setupS = secondsSince(ts0);

        // --- Timed: generator, window advances, submits, drain.
        double podSeconds = 0.0;
        double nextWindow = windowSec;
        std::vector<std::int8_t> payload;
        const auto advanceWindows = [&](double upTo) {
            while (nextWindow <= upTo) {
                {
                    auto a = tr.span("fleet.advance");
                    fleet->advanceTo(nextWindow);
                }
                podSeconds += fleet->activePods() * windowSec;
                nextWindow += windowSec;
            }
        };
        std::uint64_t requests = 0;
        const auto th = Clock::now();
        {
            auto passSpan = tr.span("fleet.pass", passes.size());
            for (;;) {
                double t = 0.0;
                {
                    auto g = tr.span("fleet.loadgen", requests);
                    t = gen.nextArrivalSec();
                    if (t <= duration)
                        gen.fillPayload(payload);
                }
                if (t > duration)
                    break;
                advanceWindows(t);
                {
                    auto a = tr.span("fleet.advance", requests);
                    fleet->advanceTo(t);
                }
                {
                    auto s = tr.span("fleet.submit", requests);
                    fleet->submit(payload, t, t + slack);
                }
                ++requests;
            }
            advanceWindows(duration);
            auto d = tr.span("fleet.drain");
            fleet->drainAll();
        }
        p.hostS = secondsSince(th);
        p.requests = static_cast<double>(requests);
        tr.setEnabled(false);

        // --- Checks and the virtual outcome (untimed).
        tsp::JsonWriter j;
        series.appendJson(j);
        const std::string soak = j.str();
        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (const char ch : soak)
            digest = (digest ^ static_cast<unsigned char>(ch)) *
                     0x100000001b3ull;
        Outcomes out;
        std::uint64_t mismatches = 0;
        for (int i = 0; i < fleet->podsLaunched(); ++i) {
            const tsp::serve::ServerMetrics m =
                fleet->podServer(i).metricsSnapshot();
            for (const char *k :
                 {"machine_checks", "retries", "migrations",
                  "failed_machine_check", "ecc_corrected", "served"})
                out.counts[k] += static_cast<double>(m.counters().get(k));
            mismatches += m.predictionMismatches();
        }
        std::uint64_t replays = 0, records = 0;
        for (const CheckedPodBackend *e : engines) {
            replays += e->replayCount();
            records += e->recordCount();
        }
        out.counts["replays"] = static_cast<double>(replays);
        out.counts["records"] = static_cast<double>(records);
        out.counts["shed"] = static_cast<double>(fleet->shedCount());
        out.counts["pods_launched"] = fleet->podsLaunched();
        out.counts["pods_retired"] = fleet->podsRetired();
        out.counts["requests"] = static_cast<double>(requests);
        out.submitted = static_cast<double>(series.totalSubmitted());
        out.served = static_cast<double>(series.totalServed());
        out.podSeconds = podSeconds;
        out.p50Us = jsonNumberAfter(soak, "\"latency_us\"", "\"p50\":");
        out.p99Us = jsonNumberAfter(soak, "\"latency_us\"", "\"p99\":");
        rep.check(out.submitted == static_cast<double>(requests),
                  "fleet-soak: resolved " + std::to_string(out.submitted) +
                      " of " + std::to_string(requests) + " requests");
        rep.check(mismatches == 0, "fleet-soak: prediction mismatches");
        rep.check(checks.wrong == 0,
                  "fleet-soak: " + std::to_string(checks.wrong.load()) +
                      " outputs != reduction");
        rep.check(static_cast<double>(checks.checked.load()) >=
                      out.counts["served"],
                  "fleet-soak: served outputs went unchecked");
        fleet.reset();
        // A repeated sub-stream must reproduce its report exactly.
        const std::string tag =
            "virtual.stream" + std::to_string(stream) + ".";
        rep.exact(tag + "soak_digest", static_cast<double>(digest >> 11));
        rep.exact(tag + "pod_seconds", podSeconds);
        for (const auto &[k, v] : out.counts)
            rep.exact(tag + k, v);
        if (stream >= outcomes.size())
            outcomes.push_back(std::move(out));
        passes.push_back(p);
        lastPass = secondsSince(passStart);
    }

    // --- Virtual metrics, pooled over the sub-streams.
    Outcomes all;
    const double n = static_cast<double>(outcomes.size());
    for (const Outcomes &s : outcomes) {
        all.p50Us += s.p50Us / n;
        all.p99Us += s.p99Us / n;
        all.submitted += s.submitted;
        all.served += s.served;
        all.podSeconds += s.podSeconds / n;
        for (const auto &[k, v] : s.counts)
            all.counts[k] += v;
    }
    const auto virt = [&](const std::string &name, double v,
                          const char *unit, bool e2e) {
        if (e2e)
            rep.e2e(name, v, unit);
        else
            rep.layer(name, v, unit);
        rep.exact("virtual." + name, v);
    };
    virt("latency_p50_us", all.p50Us, "us", true);
    virt("latency_p99_us", all.p99Us, "us", true);
    virt("slo_attainment",
         all.submitted > 0 ? all.served / all.submitted : 0.0, "share",
         true);
    // The SLO-meeting share of the offered mean rate (the realized
    // arrival count of a bursty stream adds nothing but noise).
    virt("max_rps_at_slo",
         all.submitted > 0 ? offeredRps * all.served / all.submitted : 0.0,
         "1/s", true);
    virt("pod_seconds", all.podSeconds, "s", true);
    virt("fleet.latency_samples", all.served, "count", false);
    for (const char *k :
         {"shed", "pods_launched", "pods_retired", "machine_checks",
          "retries", "migrations", "failed_machine_check", "requests"})
        virt(std::string("fleet.") + k, all.counts[k], "count", false);
    virt("c2c.service_cycles", static_cast<double>(service), "cycles",
         false);
    // Fleet-wide ECC activity; the per-collective unit metrics come
    // from the fault-free engine and do not override these.
    virt("ecc.corrected", all.counts["ecc_corrected"], "count", false);
    virt("ecc.uncorrectable", all.counts["machine_checks"], "count", false);
    rep.layer("sim.replay_share",
              all.counts["replays"] + all.counts["records"] > 0
                  ? all.counts["replays"] /
                        (all.counts["replays"] + all.counts["records"])
                  : 0.0,
              "share");

    // --- Host metrics.
    reportPasses(passes, o.trace, rep, tr, mark, "fleet.pass");

    tiers.finish();
    const double traceBytes = static_cast<double>(cache->memoryBytes());
    side.layer("sim.trace_bytes", traceBytes, "bytes");
    side.exact("trace_bytes", traceBytes);
    rep.absorb(side,
               {"ff_inference_s", "replay_inference_s", "chip_cycles",
                "chip_energy_mj"},
               "collective.");
    if (!o.trace)
        return;

    const auto us = [&](const char *name) {
        std::vector<double> v = tr.durations(name, mark);
        for (double &x : v)
            x *= 1e6;
        return median(v);
    };
    rep.layer("fleet.submit_host_us", us("fleet.submit"), "us");
    rep.layer("fleet.advance_host_us", us("fleet.advance"), "us");
    rep.layer("fleet.loadgen_host_us", us("fleet.loadgen"), "us");
    rep.layer("fleet.drain_s", median(tr.durations("fleet.drain", mark)),
              "s");
}

} // namespace perfbench
