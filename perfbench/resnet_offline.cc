/**
 * @file
 * resnet50-offline: a closed loop with one client thread over
 * ResNet-50 batch 1 (the paper's E1). Each set-up builds the graph,
 * compiles it, builds the session and makes the recording run; the
 * last set-up is kept. Distinct seeded images then run on the default
 * fast-forward tier with replay off, interleaved with replays of the
 * images already run (replay on). Interleaving spreads both tiers
 * over the whole run, so a slow patch of the shared host weighs on
 * both alike. Every logit vector is compared with Graph::runReference
 * outside the timed region, and each replayed image must equal its
 * fast-forward output.
 *
 * OfflineLoop is also serve-mix's per-model tier measurement (the hot
 * family on a direct session).
 */

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/backend.hh"
#include "sim/chip.hh"
#include "sim/exec_trace.hh"

namespace perfbench {

namespace {

using tsp::Cycle;

/**
 * One execution tier of a shared InferenceSession, seen as a serving
 * engine: reset() arms the tier, then the session's own writeTensor,
 * run and readTensor. The fast-forward and replay engines of one
 * model share one session (and so one chip and one recorded trace).
 */
class SessionEngine final : public tsp::serve::Backend
{
  public:
    SessionEngine(std::shared_ptr<tsp::InferenceSession> sess,
                  tsp::LoweredTensor in, tsp::LoweredTensor out,
                  bool replay)
        : sess_(std::move(sess)), in_(std::move(in)), out_(std::move(out)),
          replay_(replay)
    {
    }

    void
    resetBatch(int) override
    {
        sess_->enableReplay(replay_);
        sess_->reset();
    }
    void
    writeSample(int, const std::vector<std::int8_t> &input) override
    {
        sess_->writeTensor(in_, input);
    }
    tsp::RunResult
    runBounded(Cycle max_cycles) override
    {
        return sess_->runBounded(max_cycles);
    }
    tsp::ref::QTensor
    readSample(int) const override
    {
        return sess_->readTensor(out_);
    }
    std::uint64_t
    correctedErrors() const override
    {
        return sess_->chip().stats().get("ecc_corrected");
    }
    std::uint64_t
    machineCheckCount() const override
    {
        return sess_->chip().machineCheckCount();
    }
    Cycle totalCycles() const override { return sess_->totalCycles(); }
    int rebuilds() const override { return sess_->rebuilds(); }
    std::uint64_t
    replayCount() const override
    {
        return sess_->replayCount();
    }
    std::uint64_t
    recordCount() const override
    {
        return sess_->recordCount();
    }

  private:
    std::shared_ptr<tsp::InferenceSession> sess_;
    tsp::LoweredTensor in_, out_;
    bool replay_;
};

/** Everything one set-up builds; members die in reverse order, so
 * the tier loop and engines go before the session, and the session
 * before the lowering it reads. */
struct Compiled
{
    tsp::Graph graph;
    std::unique_ptr<tsp::Lowering> lw;
    std::map<int, tsp::LoweredTensor> tensors;
    std::shared_ptr<const tsp::AsmProgram> prog;
    std::shared_ptr<tsp::InferenceSession> sess;
    Cycle recordCycles = 0;
    std::vector<std::int8_t> recordOutput;
    std::unique_ptr<SessionEngine> ff, replay;
    std::unique_ptr<TierLoop> tiers;
};

const char *const kLayerKinds[] = {"conv2d", "maxpool", "residual",
                                   "gap"};

/** Distinct images at most; later fast-forward samples cycle them. */
constexpr int kMaxImages = 64;

} // namespace

struct OfflineLoop::Impl
{
    OfflineSpec spec;
    const Options &o;
    Report &rep;
    Tracer &tr;
    std::size_t mark = 0;
    std::vector<double> setupS;
    std::vector<bool> setupTraced;
    std::unique_ptr<Compiled> c;

    Impl(OfflineSpec s, const Options &opt, Report &r, Tracer &t)
        : spec(std::move(s)), o(opt), rep(r), tr(t), mark(t.size())
    {
    }

    std::vector<std::int8_t>
    input(std::uint64_t image) const
    {
        return spec.input(itemSeed(o.seed, 0x1a6e, image));
    }

    /** Builds the engines and tier loop over @p k's session. */
    void
    attachTiers(Compiled &k)
    {
        const tsp::LoweredTensor &in = k.tensors.at(0);
        const tsp::LoweredTensor &out = k.tensors.at(k.graph.outputNode());
        k.ff = std::make_unique<SessionEngine>(k.sess, in, out, false);
        k.replay = std::make_unique<SessionEngine>(k.sess, in, out, true);
        TierSpec ts;
        ts.name = spec.name;
        ts.ff = k.ff.get();
        ts.replay = k.replay.get();
        ts.cycles = k.recordCycles;
        ts.units = [&k](bool) { return unitCounters(k.sess->chip()); };
        ts.input = [this](std::uint64_t i) { return input(i); };
        ts.reference = [this, &k](const std::vector<std::int8_t> &x) {
            tsp::ref::QTensor q(spec.inH, spec.inW, spec.inC);
            q.data = x;
            return k.graph.runReference(q).at(k.graph.outputNode()).data;
        };
        ts.items = kMaxImages;
        ts.refThreads = spec.refThreads;
        ts.perCycle = [&k, in, out] {
            tsp::ChipConfig cfg;
            cfg.fastForwardEnabled = false;
            return std::make_unique<SessionEngine>(
                std::make_shared<tsp::InferenceSession>(*k.lw, k.prog, cfg),
                in, out, false);
        };
        k.tiers = std::make_unique<TierLoop>(std::move(ts), o, rep, tr, mark);
        k.tiers->expect(0, k.recordOutput, "recording run");
    }
};

OfflineLoop::OfflineLoop(OfflineSpec spec, const Options &o, Report &rep,
                         Tracer &tr)
    : impl_(std::make_unique<Impl>(std::move(spec), o, rep, tr))
{
}

OfflineLoop::~OfflineLoop() = default;

void
OfflineLoop::setUp()
{
    Impl &m = *impl_;
    for (int k = 0; k < m.spec.setupReps; ++k) {
        m.c.reset(); // Never hold two compiled models at once.
        const bool traced =
            m.o.trace && (m.spec.setupReps == 1 || k % 2 == 1);
        m.tr.setEnabled(traced);
        const std::vector<std::int8_t> in0 = m.input(0);
        const auto t0 = Clock::now();
        auto next = std::make_unique<Compiled>();
        {
            auto s = m.tr.span("setup", static_cast<std::uint64_t>(k));
            {
                auto g = m.tr.span("model.build_graph");
                next->graph = m.spec.build();
            }
            next->lw = std::make_unique<tsp::Lowering>(/*pipelined=*/true);
            {
                auto l = m.tr.span("compiler.lower");
                next->tensors = next->graph.lower(*next->lw, in0);
            }
            {
                auto a = m.tr.span("compiler.to_asm");
                next->prog = std::make_shared<const tsp::AsmProgram>(
                    next->lw->program().toAsm(/*with_preamble=*/true));
            }
            {
                auto n = m.tr.span("runtime.session_new");
                next->sess = std::make_shared<tsp::InferenceSession>(
                    *next->lw, next->prog);
            }
            next->sess->enableReplay(true);
            {
                auto r = m.tr.span("sim.record_run");
                next->recordCycles = next->sess->run();
            }
        }
        m.setupS.push_back(secondsSince(t0));
        m.setupTraced.push_back(traced);
        m.tr.setEnabled(false);
        m.rep.check(next->sess->recordCount() == 1,
                    m.spec.name + ": set-up run recorded no trace");
        next->recordOutput =
            next->sess
                ->readTensor(next->tensors.at(next->graph.outputNode()))
                .data;
        m.c = std::move(next);
    }
    m.attachTiers(*m.c);
}

TierLoop &
OfflineLoop::tiers()
{
    return *impl_->c->tiers;
}

tsp::Cycle
OfflineLoop::cycles() const
{
    return impl_->c->recordCycles;
}

void
OfflineLoop::finish()
{
    Impl &m = *impl_;
    const Compiled &c = *m.c;
    c.tiers->finish();

    std::vector<double> setupOff, setupOn;
    for (std::size_t k = 0; k < m.setupS.size(); ++k)
        (m.setupTraced[k] ? setupOn : setupOff).push_back(m.setupS[k]);
    m.rep.e2e("setup_s", median(setupOff), "s");

    // --- Per-layer metrics; the compile-time ones are exact.
    tsp::Lowering &lw = *c.lw;
    std::map<std::string, double> kindCycles;
    for (const char *k : kLayerKinds)
        kindCycles[k] = 0.0;
    for (const auto &span : lw.layers())
        kindCycles[span.name] +=
            static_cast<double>(span.end - span.begin);
    const auto &trace = c.sess->trace();
    const auto exactLayer = [&](const std::string &name, double v,
                                const char *unit) {
        m.rep.layer(name, v, unit);
        m.rep.exact(m.spec.name + "." + name, v);
    };
    exactLayer("compiler.instructions",
               static_cast<double>(lw.program().size()), "count");
    exactLayer("compiler.finish_cycle",
               static_cast<double>(lw.finishCycle()), "cycles");
    for (const auto &[kind, cyc] : kindCycles)
        exactLayer("compiler.layer_cycles." + kind, cyc, "cycles");
    exactLayer("sim.trace_bytes",
               trace ? static_cast<double>(trace->memoryBytes()) : 0.0,
               "bytes");
    exactLayer("sim.trace_arena_bytes",
               trace ? static_cast<double>(trace->arenaBytes()) : 0.0,
               "bytes");
    m.rep.layer("sim.replay_share",
                static_cast<double>(c.sess->replayCount()) /
                    static_cast<double>(c.sess->replayCount() +
                                        c.sess->recordCount()),
                "share");
    if (!m.o.trace)
        return;

    const auto spanMedian = [&](const char *name) {
        return median(m.tr.durations(name, m.mark));
    };
    m.rep.layer("compiler.lower_s", spanMedian("compiler.lower"), "s");
    m.rep.layer("compiler.to_asm_s", spanMedian("compiler.to_asm"), "s");
    m.rep.layer("runtime.session_new_s",
                spanMedian("runtime.session_new"), "s");
    const double setupBase = median(setupOff);
    m.rep.layer("trace.overhead.setup_s",
                setupBase > 0.0 && !setupOn.empty()
                    ? (median(setupOn) - setupBase) / setupBase
                    : 0.0,
                "share");
    m.rep.layer("trace.coverage.setup_s", m.tr.coverage({"setup"}, m.mark),
                "share");
}

void
runResnetOffline(const Options &o, Report &rep, Tracer &tr)
{
    OfflineSpec spec;
    spec.name = "resnet50";
    spec.build = [] {
        return tsp::model::buildResNet(50, kResnetWeightSeed);
    };
    spec.input = [](std::uint64_t seed) {
        return tsp::model::im2colStem(tsp::model::makeImage(seed));
    };
    spec.inH = tsp::model::kStemH;
    spec.inW = tsp::model::kStemW;
    spec.inC = tsp::model::kStemC;
    OfflineLoop loop(spec, o, rep, tr);
    loop.setUp();
    TierLoop &tiers = loop.tiers();
    // Interleave the tiers, fast-forward taking kFfShare of the time,
    // until the run's seconds are spent and each tier has its minimum.
    constexpr double kFfShare = 0.75;
    constexpr int kMinSamples = 3;
    int n[2] = {0, 0};
    const auto t0 = Clock::now();
    while (n[0] < kMinSamples || n[1] < kMinSamples ||
           secondsSince(t0) < o.seconds) {
        const bool replay =
            n[0] > 0 &&
            (secondsSince(t0) >= o.seconds
                 ? n[1] < kMinSamples
                 : tiers.tierSeconds(true) * kFfShare <
                       tiers.tierSeconds(false) * (1.0 - kFfShare));
        tiers.infer(replay);
        ++n[replay];
    }
    loop.finish();

    // The serving metrics of a closed loop with no queue. host_rps is
    // measured (inferences per host second over both tiers); the
    // virtual ones follow from chip_cycles (see README.md).
    const auto rate = [&tiers](bool traced) {
        double hostS = 0.0, inferences = 0.0;
        for (const bool replay : {false, true}) {
            for (const double s : tiers.seconds(replay, traced)) {
                hostS += s;
                inferences += 1.0;
            }
        }
        return hostS > 0.0 ? inferences / hostS : 0.0;
    };
    const double hostRps = rate(false);
    const double clockHz = tsp::ChipConfig{}.clockHz;
    const double cycles = static_cast<double>(loop.cycles());
    const double latencyUs = cycles / clockHz * 1e6;
    rep.e2e("host_rps", hostRps, "1/s");
    rep.e2e("latency_p50_us", latencyUs, "us");
    rep.e2e("latency_p99_us", latencyUs, "us");
    rep.e2e("slo_attainment", tiers.goodShare(), "share");
    rep.e2e("max_rps_at_slo", clockHz / cycles, "1/s");
    rep.e2e("pod_seconds", cycles / clockHz, "s");
    if (o.trace) {
        const double traced = rate(true);
        rep.layer("trace.overhead.host_rps",
                  traced > 0.0 ? hostRps / traced - 1.0 : 0.0, "share");
        rep.layer("trace.coverage.host_rps",
                  tr.coverage({"inference.ff", "inference.replay"}),
                  "share");
    }
}

} // namespace perfbench
