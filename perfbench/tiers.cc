/**
 * @file
 * TierLoop: single inferences timed on the fast-forward and replay
 * tiers, shared by every workload's per-model measurement (ResNet-50
 * and serve-mix's hot family on a session, fleet-soak's all-reduce on
 * a pod engine).
 */

#include <algorithm>
#include <thread>

#include "bench.hh"
#include "serve/backend.hh"

namespace perfbench {

namespace {

using tsp::Cycle;

/** Tracing overhead: (traced - untraced) / untraced median. */
double
overhead(const std::vector<double> &on, const std::vector<double> &off)
{
    const double base = median(off);
    return base > 0.0 && !on.empty() ? (median(on) - base) / base : 0.0;
}

} // namespace

struct TierLoop::Impl
{
    struct Sample
    {
        std::uint64_t item = 0;
        bool replay = false;
        bool traced = false;
        double seconds = 0.0;
        std::vector<std::int8_t> output;
    };
    struct Expected
    {
        std::uint64_t item = 0;
        std::vector<std::int8_t> output;
        std::string what;
    };

    TierSpec spec;
    const Options &o;
    Report &rep;
    Tracer &tr;
    std::size_t mark = 0;
    std::vector<Sample> samples;
    std::vector<Expected> expected;
    double tierS[2] = {0.0, 0.0};
    int tierRuns[2] = {0, 0};
    std::uint64_t ffRuns = 0;
    std::uint64_t replays = 0;
    std::uint64_t ffItems = 0; ///< Distinct items fast-forward has run.
    double energyJ = 0.0;      ///< Per inference; repeats exactly.
    std::vector<bool> good;    ///< Per sample: cycles and output right.

    Impl(TierSpec s, const Options &opt, Report &r, Tracer &t,
         std::size_t from)
        : spec(std::move(s)), o(opt), rep(r), tr(t), mark(from)
    {
    }

    /** Generous budget: a run that exceeds it fails its check. */
    Cycle limit() const { return 10 * spec.cycles + 10'000; }
};

TierLoop::TierLoop(TierSpec spec, const Options &o, Report &rep,
                   Tracer &tr, std::size_t mark)
    : impl_(std::make_unique<Impl>(std::move(spec), o, rep, tr, mark))
{
}

TierLoop::~TierLoop() = default;

void
TierLoop::record()
{
    Impl &m = *impl_;
    tsp::serve::Backend &e = *m.spec.replay;
    e.resetBatch(1);
    e.writeSample(0, m.spec.input(0));
    tsp::RunResult r;
    {
        auto s = m.tr.span("sim.record_run");
        r = e.runBounded(m.limit());
    }
    m.rep.check(r.completed && r.cycles == m.spec.cycles &&
                    e.recordCount() == 1,
                m.spec.name + ": recording run recorded no trace");
    expect(0, e.readSample(0).data, "recording run");
}

void
TierLoop::infer(bool replay)
{
    Impl &m = *impl_;
    if (m.ffItems == 0)
        replay = false; // Replay only items fast-forward has run.
    Impl::Sample s;
    s.replay = replay;
    if (replay) {
        s.item = 1 + m.replays++ % m.ffItems;
    } else {
        s.item = 1 + m.ffRuns++ % m.spec.items;
        m.ffItems = std::max(m.ffItems, s.item);
    }
    // Alternate traced and untraced samples within each tier.
    s.traced = m.o.trace && m.tierRuns[replay]++ % 2 == 1;
    const std::vector<std::int8_t> in = m.spec.input(s.item);
    tsp::serve::Backend &e = replay ? *m.spec.replay : *m.spec.ff;
    const std::uint64_t replays0 = e.replayCount();
    m.tr.setEnabled(s.traced);
    const UnitCounters before = m.spec.units(replay);
    tsp::RunResult r;
    const auto t0 = Clock::now();
    {
        auto top = m.tr.span(replay ? "inference.replay" : "inference.ff",
                             m.samples.size());
        {
            auto x = m.tr.span("runtime.reset");
            e.resetBatch(1);
        }
        {
            auto x = m.tr.span("runtime.write_tensor");
            e.writeSample(0, in);
        }
        {
            auto x = m.tr.span(replay ? "sim.replay_run" : "sim.ff_run");
            r = e.runBounded(m.limit());
        }
        {
            auto x = m.tr.span("runtime.read_tensor");
            s.output = e.readSample(0).data;
        }
    }
    s.seconds = secondsSince(t0);
    m.tr.setEnabled(false);
    m.tierS[replay] += s.seconds;
    const UnitCounters after = m.spec.units(replay);
    // Per-inference activity must repeat on every item and tier.
    reportUnits(m.rep, before, after, 1, m.spec.chips);
    m.energyJ = after.energyJ - before.energyJ;
    const std::string tier = replay ? "replay" : "fast-forward";
    const bool cyclesOk = r.completed && r.cycles == m.spec.cycles;
    m.good.push_back(cyclesOk);
    m.rep.check(cyclesOk,
                m.spec.name + ": " + tier + " inference cycles diverged");
    m.rep.check(e.replayCount() - replays0 == (replay ? 1u : 0u),
                m.spec.name + ": " + tier + " tier did not engage as asked");
    m.samples.push_back(std::move(s));
}

double
TierLoop::tierSeconds(bool replay) const
{
    return impl_->tierS[replay];
}

std::vector<double>
TierLoop::seconds(bool replay, bool traced) const
{
    std::vector<double> out;
    for (const Impl::Sample &s : impl_->samples) {
        if (s.replay == replay && s.traced == traced)
            out.push_back(s.seconds);
    }
    return out;
}

void
TierLoop::expect(std::uint64_t item, std::vector<std::int8_t> output,
                 const std::string &what)
{
    impl_->expected.push_back({item, std::move(output), what});
}

double
TierLoop::goodShare() const
{
    const auto &g = impl_->good;
    return g.empty() ? 0.0
                     : static_cast<double>(std::count(g.begin(), g.end(),
                                                      true)) /
                           static_cast<double>(g.size());
}

void
TierLoop::finish()
{
    Impl &m = *impl_;
    const std::string &name = m.spec.name;

    // --- Checks (untimed): references on up to spec.refThreads
    // threads, then tier identity.
    std::uint64_t items = m.ffItems;
    for (const Impl::Expected &x : m.expected)
        items = std::max(items, x.item);
    std::vector<std::vector<std::int8_t>> refs(items + 1);
    {
        std::vector<std::thread> pool;
        const std::size_t workers = std::max<std::size_t>(
            1, std::min<std::size_t>(
                   static_cast<std::size_t>(m.spec.refThreads),
                   refs.size()));
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                for (std::size_t i = w; i < refs.size(); i += workers)
                    refs[i] = m.spec.reference(m.spec.input(i));
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    for (const Impl::Expected &x : m.expected)
        m.rep.check(x.output == refs[x.item],
                    name + ": " + x.what + " output != reference");
    std::vector<const Impl::Sample *> ffByItem(refs.size(), nullptr);
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
        const Impl::Sample &s = m.samples[i];
        m.good[i] = m.good[i] && s.output == refs[s.item];
        m.rep.check(s.output == refs[s.item],
                    name + ": item " + std::to_string(s.item) +
                        (s.replay ? " (replay)" : " (fast-forward)") +
                        " output != reference");
        if (!s.replay)
            ffByItem[s.item] = &s;
        else if (ffByItem[s.item] != nullptr)
            m.rep.check(s.output == ffByItem[s.item]->output,
                        name + ": replay != fast-forward on item " +
                            std::to_string(s.item));
    }

    // --- End-to-end metrics (untraced samples only).
    m.rep.e2e("ff_inference_s",
              quantile(seconds(false), kHostTimeQuantile), "s");
    m.rep.e2e("replay_inference_s",
              quantile(seconds(true), kHostTimeQuantile), "s");
    m.rep.e2e("chip_cycles", static_cast<double>(m.spec.cycles), "cycles");
    m.rep.e2e("chip_energy_mj", m.energyJ * 1e3, "mJ");
    m.rep.exact(name + ".chip_cycles", static_cast<double>(m.spec.cycles));
    m.rep.exact(name + ".chip_energy_j", m.energyJ, kEnergyRelTol);
    if (!m.o.trace)
        return;

    // Traced runs only: one per-cycle inference of item 0.
    {
        const std::unique_ptr<tsp::serve::Backend> e = m.spec.perCycle();
        e->resetBatch(1);
        e->writeSample(0, m.spec.input(0));
        tsp::RunResult r;
        m.tr.setEnabled(true);
        {
            auto s = m.tr.span("sim.per_cycle_run");
            r = e->runBounded(m.limit());
        }
        m.tr.setEnabled(false);
        m.rep.check(r.completed && r.cycles == m.spec.cycles,
                    name + ": per-cycle inference cycles diverged");
        m.rep.check(e->readSample(0).data == refs[0],
                    name + ": per-cycle output != reference");
    }
    const auto spanMedian = [&](const char *span) {
        return median(m.tr.durations(span, m.mark));
    };
    const double cycles = static_cast<double>(m.spec.cycles);
    const double ffRun = spanMedian("sim.ff_run");
    const double rpRun = spanMedian("sim.replay_run");
    const double pcRun = spanMedian("sim.per_cycle_run");
    m.rep.layer("runtime.reset_s", spanMedian("runtime.reset"), "s");
    m.rep.layer("runtime.write_tensor_s",
                spanMedian("runtime.write_tensor"), "s");
    m.rep.layer("runtime.read_tensor_s", spanMedian("runtime.read_tensor"),
                "s");
    m.rep.layer("sim.ff_run_s", ffRun, "s");
    m.rep.layer("sim.ff_host_ns_per_cycle", ffRun / cycles * 1e9, "ns");
    m.rep.layer("sim.per_cycle_run_s", pcRun, "s");
    m.rep.layer("sim.ff_over_per_cycle", ffRun > 0.0 ? pcRun / ffRun : 0.0,
                "ratio");
    m.rep.layer("sim.record_run_s", spanMedian("sim.record_run"), "s");
    m.rep.layer("sim.replay_run_s", rpRun, "s");
    m.rep.layer("sim.replay_host_ns_per_cycle", rpRun / cycles * 1e9,
                "ns");
    m.rep.layer("trace.overhead.ff_inference_s",
                overhead(seconds(false, true), seconds(false)), "share");
    m.rep.layer("trace.overhead.replay_inference_s",
                overhead(seconds(true, true), seconds(true)), "share");
    m.rep.layer("trace.coverage.ff_inference_s",
                m.tr.coverage({"inference.ff"}, m.mark), "share");
    m.rep.layer("trace.coverage.replay_inference_s",
                m.tr.coverage({"inference.replay"}, m.mark), "share");
}

} // namespace perfbench
