#include "serve/backend.hh"

#include "c2c/collective.hh"
#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace tsp::serve {

RunResult
Backend::serveBatch(
    const std::vector<const std::vector<std::int8_t> *> &inputs,
    Cycle max_cycles)
{
    const int b = static_cast<int>(inputs.size());
    TSP_ASSERT(b >= 1 && b <= maxBatch());
    resetBatch(b);
    for (int s = 0; s < b; ++s)
        writeSample(s, *inputs[static_cast<std::size_t>(s)]);
    return runBounded(max_cycles);
}

std::uint64_t
SessionBackendBase::correctedErrors() const
{
    std::uint64_t n = 0;
    const Pod &pod = sess_.pod();
    for (int c = 0; c < pod.size(); ++c)
        n += pod.chip(c).eccCorrected();
    return n;
}

std::uint64_t
SessionBackendBase::machineCheckCount() const
{
    std::uint64_t n = 0;
    const Pod &pod = sess_.pod();
    for (int c = 0; c < pod.size(); ++c)
        n += pod.chip(c).machineCheckCount();
    return n;
}

SessionBackend::SessionBackend(std::shared_ptr<BatchProgram> initial,
                               int max_batch, ChipConfig cfg)
    : SessionBackendBase(InferenceSession(1, 0, cfg)),
      maxBatch_(max_batch)
{
    TSP_ASSERT(max_batch >= 1);
    bindProgram(std::move(initial));
    sess_.reset();
}

int
SessionBackend::maxBatch() const
{
    return maxBatch_;
}

void
SessionBackend::bindProgram(std::shared_ptr<BatchProgram> bp)
{
    TSP_ASSERT(bp != nullptr);
    if (boundBp_ == bp)
        return;
    // A different program object: another model family, another
    // batch size, or a recompile after registry eviction. The
    // session re-stages the new image (the weight swap the booking
    // already paid for).
    boundBp_ = std::move(bp);
    sess_.bind(*boundBp_->lw, boundBp_->prog, boundBp_->progHash);
}

std::size_t
SessionBackend::expectedInputBytes() const
{
    const ActTensor &t = boundBp_->inputs[0].t;
    return static_cast<std::size_t>(t.height) *
           static_cast<std::size_t>(t.width) *
           static_cast<std::size_t>(t.channels);
}

void
SessionBackend::resetBatch(int batch)
{
    TSP_ASSERT(batch >= 1 && batch <= maxBatch());
    // The caller bindProgram()s the batch-@p batch program first, so
    // the armed batch size must already match here.
    TSP_ASSERT(boundBp_->batch == batch);
    sess_.reset();
}

void
SessionBackend::writeSample(int sample,
                            const std::vector<std::int8_t> &input)
{
    sess_.writeTensor(
        boundBp_->inputs[static_cast<std::size_t>(sample)], input);
}

ref::QTensor
SessionBackend::readSample(int sample) const
{
    return sess_.readTensor(
        boundBp_->outputs[static_cast<std::size_t>(sample)]);
}

namespace {

InferenceSession::Programs
allReducePrograms(const Pod &pod, int batch)
{
    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(pod, sched, batch);
    InferenceSession::Programs progs;
    progs.reserve(sched.size());
    for (auto &p : sched)
        progs.push_back(std::make_shared<const AsmProgram>(p.toAsm()));
    return progs;
}

} // namespace

PodBackend::PodBackend(int chips, Cycle wire_latency, ChipConfig cfg,
                       int max_batch)
    : SessionBackendBase(InferenceSession(chips, wire_latency, cfg))
{
    TSP_ASSERT(max_batch >= 1 &&
               max_batch <= AllReducePlan::kMaxBatch);
    progs_.reserve(static_cast<std::size_t>(max_batch));
    hashes_.reserve(static_cast<std::size_t>(max_batch));
    for (int b = 1; b <= max_batch; ++b) {
        progs_.push_back(allReducePrograms(sess_.pod(), b));
        hashes_.push_back(InferenceSession::hashesOf(progs_.back()));
    }
    sess_.bind(progs_[0], hashes_[0]);
    sess_.reset();
}

Cycle
PodBackend::serviceCycles(int chips, Cycle wire_latency,
                          ChipConfig cfg)
{
    return serviceCyclesTable(chips, wire_latency, cfg, 1)[0];
}

std::vector<Cycle>
PodBackend::serviceCyclesTable(int chips, Cycle wire_latency,
                               ChipConfig cfg, int max_batch)
{
    // A static schedule's cycle count is input- and fault-independent
    // (injection flips data bits, never timing), so one fault-free
    // calibration run per batch size is the exact booking for every
    // future request.
    cfg.fault = FaultConfig{};
    std::vector<Cycle> table;
    table.reserve(static_cast<std::size_t>(max_batch));
    for (int b = 1; b <= max_batch; ++b) {
        InferenceSession calib(chips, wire_latency, cfg);
        calib.bind(allReducePrograms(calib.pod(), b));
        calib.reset();
        const RunResult r = calib.runBounded();
        TSP_ASSERT(r.completed);
        table.push_back(r.cycles);
    }
    return table;
}

std::size_t
PodBackend::inputBytes(int chips)
{
    return static_cast<std::size_t>(chips) *
           static_cast<std::size_t>(kLanes);
}

int
PodBackend::maxBatch() const
{
    return static_cast<int>(progs_.size());
}

std::size_t
PodBackend::expectedInputBytes() const
{
    return inputBytes(sess_.pod().size());
}

void
PodBackend::resetBatch(int batch)
{
    TSP_ASSERT(batch >= 1 && batch <= maxBatch());
    if (batch != bound_) {
        const auto i = static_cast<std::size_t>(batch - 1);
        sess_.bind(progs_[i], hashes_[i]);
        bound_ = batch;
    }
    sess_.reset();
}

void
PodBackend::writeSample(int sample,
                        const std::vector<std::int8_t> &input)
{
    Pod &pod = sess_.pod();
    TSP_ASSERT(input.size() == inputBytes(pod.size()));
    Vec320 v;
    for (int c = 0; c < pod.size(); ++c) {
        for (int i = 0; i < kLanes; ++i) {
            v.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(
                    input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(i)]);
        }
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr +
                               static_cast<MemAddr>(sample),
                           v);
    }
}

ref::QTensor
PodBackend::readSample(int sample) const
{
    // Every member holds the reduced vector after the broadcast;
    // chip 0 is the designated reader.
    const Vec320 v =
        sess_.pod()
            .chip(0)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorRead(AllReducePlan::kResultAddr +
                          static_cast<MemAddr>(sample));
    ref::QTensor out(1, 1, kLanes);
    for (int i = 0; i < kLanes; ++i)
        out.at(0, 0, i) = static_cast<std::int8_t>(
            v.bytes[static_cast<std::size_t>(i)]);
    return out;
}

} // namespace tsp::serve
