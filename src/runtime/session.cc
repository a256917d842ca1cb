#include "runtime/session.hh"

#include "common/logging.hh"
#include "common/seed.hh"

namespace tsp {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Completed:
        return "completed";
      case RunStatus::CycleLimit:
        return "cycle_limit";
      case RunStatus::MachineCheck:
        return "machine_check";
    }
    return "?";
}

InferenceSession::InferenceSession(Lowering &lw, ChipConfig cfg)
    : InferenceSession(
          lw,
          std::make_shared<const AsmProgram>(
              lw.program().toAsm(/*with_preamble=*/true)),
          cfg)
{
}

InferenceSession::InferenceSession(
    Lowering &lw, std::shared_ptr<const AsmProgram> prog,
    ChipConfig cfg)
    : InferenceSession(1, 0, cfg)
{
    bind(lw, std::move(prog));
    reset();
}

InferenceSession::InferenceSession(int chips, Cycle wire_latency,
                                   ChipConfig cfg)
    : cfg_(cfg), pod_(std::make_unique<Pod>(chips, wire_latency, cfg))
{
}

void
InferenceSession::bind(Lowering &lw,
                       std::shared_ptr<const AsmProgram> prog)
{
    const std::uint64_t hash = hashProgram(*prog);
    bind(lw, std::move(prog), hash);
}

void
InferenceSession::bind(Lowering &lw,
                       std::shared_ptr<const AsmProgram> prog,
                       std::uint64_t hash)
{
    bind(Programs{std::move(prog)}, {hash});
    lw_ = &lw;
    dmaSeconds_ =
        static_cast<double>(lw.image().totalBytes()) / kPcieGen4Bps;
}

void
InferenceSession::bind(Programs programs)
{
    std::vector<std::uint64_t> hashes = hashesOf(programs);
    bind(std::move(programs), std::move(hashes));
}

std::vector<std::uint64_t>
InferenceSession::hashesOf(const Programs &programs)
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(programs.size());
    for (const auto &p : programs)
        hashes.push_back(hashProgram(*p));
    return hashes;
}

void
InferenceSession::bind(Programs programs,
                       std::vector<std::uint64_t> hashes)
{
    TSP_ASSERT(static_cast<int>(programs.size()) == pod_->size());
    TSP_ASSERT(hashes.size() == programs.size());
    progs_ = std::move(programs);
    hashes_ = std::move(hashes);
    lw_ = nullptr;
    dmaSeconds_ = 0.0;
    // The members still hold the previous programs and image until
    // the next reset(): any recorded trace is for the wrong program
    // (or the wrong weights after a reinstall), and no run before
    // that reset may record or replay.
    trace_.reset();
    fresh_ = false;
}

Cycle
InferenceSession::run(Cycle max_cycles)
{
    const RunResult r = runBounded(max_cycles);
    if (r.status == RunStatus::MachineCheck) {
        fatal("InferenceSession::run: machine check at cycle %llu, "
              "chip %d, %s: %s",
              static_cast<unsigned long long>(lastMc_.cycle), mcChip_,
              lastMc_.unit.c_str(), lastMc_.detail.c_str());
    }
    if (!r.completed) {
        fatal("InferenceSession::run: cycle limit %llu reached — "
              "program never completes",
              static_cast<unsigned long long>(max_cycles));
    }
    return r.cycles;
}

bool
InferenceSession::replayEligible() const
{
    // Fault injection mutates consumed values in ways the tape does
    // not capture; the dispatch trace and the per-cycle power trace
    // are artifacts only per-cycle execution populates.
    return !cfg_.fault.enabled() && !cfg_.traceEnabled &&
           !cfg_.powerTraceEnabled;
}

std::vector<Chip *>
InferenceSession::members()
{
    std::vector<Chip *> chips;
    chips.reserve(static_cast<std::size_t>(pod_->size()));
    for (int c = 0; c < pod_->size(); ++c)
        chips.push_back(&pod_->chip(c));
    return chips;
}

void
InferenceSession::attachTraceCache(std::shared_ptr<TraceCache> cache)
{
    traces_ = std::move(cache);
    replayEnabled_ = traces_ != nullptr;
}

TraceKey
InferenceSession::traceKey() const
{
    std::uint64_t h = pod_->chip(0).programHash();
    for (int c = 1; c < pod_->size(); ++c) {
        h ^= pod_->chip(c).programHash() + 0x9e3779b97f4a7c15ull +
             (h << 6) + (h >> 2);
    }
    return TraceKey(progs_[0].get(), h);
}

RunResult
InferenceSession::runBounded(Cycle max_cycles)
{
    // Seed from the pool cache: another session may have recorded
    // these programs already.
    if (traces_ && !trace_)
        trace_ = traces_->find(traceKey());
    // Record/replay only engages from the freshly loaded program
    // state a recording started from; any run consumes freshness.
    const bool eligible = replayEnabled_ && fresh_ && replayEligible();
    fresh_ = false;
    if (eligible && trace_ && trace_->span <= max_cycles) {
        replayTrace(*trace_, members());
        ++replays_;
        timedOut_ = false;
        machineChecked_ = false;
        cycles_ = trace_->span;
        return {true, RunStatus::Completed, trace_->span};
    }
    if (eligible && !trace_) {
        TraceRecording rec(members());
        const RunResult r = runRaw(max_cycles);
        trace_ = rec.finish(r.completed);
        if (trace_) {
            ++records_;
            if (traces_)
                traces_->insert(traceKey(), trace_);
        }
        return r;
    }
    return runRaw(max_cycles);
}

void
InferenceSession::captureSnapshot()
{
    // A C2C flight strike or a MEM read-path strike corrupts a vector
    // in flight, and the machine check is raised only where it is
    // consumed (a Receive forwards link vectors raw onto a stream). A
    // cut holding such a vector would resume straight into the same
    // machine check, so it is no migration point. Only injected
    // faults corrupt data.
    if (cfg_.fault.enabled()) {
        for (int c = 0; c < pod_->size(); ++c) {
            const Chip &member = pod_->chip(c);
            if (member.c2c().uncorrectableInFlight() ||
                member.fabric().uncorrectableInFlight())
                return;
        }
    }
    auto snap = std::make_unique<PodSnapshot>();
    if (pod_->snapshot(*snap)) {
        lastSnap_ = std::move(snap);
        ++snapshots_;
    }
}

RunResult
InferenceSession::runRaw(Cycle max_cycles)
{
    // Member clocks are cumulative across reset() cycles, so the
    // budget applies relative to the current pod clock.
    const Cycle base = pod_->now();
    const Cycle limit = base + max_cycles;
    RunResult r;
    // With snapshots armed the run advances in chunks, capturing at
    // each boundary. Resuming a limit-stopped runAllBounded() is
    // bit-identical (member evolution is independent of scheduler
    // interleaving, and a chip stops exactly at any absolute cycle,
    // even inside a fast-forwarded idle span), so chunking never
    // perturbs the simulation. A machine-checked chunk takes no
    // snapshot: the last capture always precedes the first
    // uncorrectable error.
    for (;;) {
        const Cycle next =
            snapshotEvery_ > 0
                ? std::min(limit, pod_->now() + snapshotEvery_)
                : limit;
        r.completed = pod_->runAllBounded(next);
        machineChecked_ = pod_->machineCheck();
        if (r.completed || machineChecked_ || next >= limit)
            break;
        captureSnapshot();
    }
    timedOut_ = !r.completed && !machineChecked_;
    if (r.completed) {
        r.status = RunStatus::Completed;
    } else if (machineChecked_) {
        r.status = RunStatus::MachineCheck;
        mcChip_ = pod_->machineCheckChip();
        lastMc_ = pod_->chip(mcChip_).machineCheckInfo();
    } else {
        r.status = RunStatus::CycleLimit;
    }
    r.cycles = pod_->now() - base;
    cycles_ = r.cycles;
    return r;
}

std::unique_ptr<Pod>
InferenceSession::rebuiltPod(int members, Cycle wire) const
{
    // Soft errors are environmental, not part of the schedule, so a
    // rebuilt engine draws a derived fault seed — a retry of the same
    // request must not deterministically replay the upset that killed
    // it. (Explicit FaultEvents *do* replay: they model a fault wired
    // to a cycle, and bounded retries against them end in
    // FailedMachineCheck by design.)
    ChipConfig cfg = cfg_;
    cfg.fault.seed =
        deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                   static_cast<std::uint64_t>(rebuilds_));
    return std::make_unique<Pod>(members, wire, cfg);
}

void
InferenceSession::loadPrograms(Pod &pod) const
{
    for (int c = 0; c < pod.size(); ++c) {
        const auto i = static_cast<std::size_t>(c);
        pod.chip(c).loadProgram(*progs_.at(i), hashes_.at(i));
    }
}

void
InferenceSession::reset()
{
    if (timedOut_ || machineChecked_) {
        // A half-executed program leaves queues, barriers, MXM
        // sequencers and (in a ring) member clocks in an arbitrary
        // state, and one condemned chip poisons every downstream
        // partial: only a whole fresh engine is trustworthy.
        ++rebuilds_;
        retiredCycles_ = totalCycles(); // Retires every member clock.
        // Free the condemned engine before building its replacement:
        // the fresh one then reuses that memory instead of faulting in
        // megabytes of new pages on every rebuild.
        const int members = pod_->size();
        const Cycle wire = pod_->wireLatency();
        pod_.reset();
        pod_ = rebuiltPod(members, wire);
        timedOut_ = false;
        machineChecked_ = false;
    }
    loadPrograms(*pod_);
    if (lw_ != nullptr)
        lw_->image().applyTo(pod_->chip(0));
    lastSnap_.reset(); // A snapshot never outlives its batch.
    fresh_ = true;
}

RunResult
InferenceSession::migrateAndResume(Cycle max_cycles)
{
    TSP_ASSERT(lastSnap_ != nullptr);
    // Same rebuild discipline as reset() after a machine check.
    ++rebuilds_;
    ++migrations_;
    std::unique_ptr<Pod> fresh =
        rebuiltPod(pod_->size(), pod_->wireLatency());
    loadPrograms(*fresh);
    if (!fresh->restore(*lastSnap_)) {
        // Same programs, config and fault environment, so this cannot
        // happen; if it somehow does, stay condemned and let the
        // caller fall back to a full retry.
        return {false, RunStatus::MachineCheck, 0};
    }
    // The condemned members ran from 0 to the fault; the restored ones
    // resume at their snapshot clocks. Only the span the new members
    // will not re-cover is retired, or lifetime cycles would
    // double-count the (snapshot, fault] segment they replay.
    for (int c = 0; c < pod_->size(); ++c) {
        const Cycle old_now = pod_->chip(c).now();
        const Cycle new_now = fresh->chip(c).now();
        retiredCycles_ += old_now - std::min(old_now, new_now);
    }
    pod_ = std::move(fresh);
    machineChecked_ = false;
    timedOut_ = false;
    fresh_ = false; // Mid-program: no record/replay footing.
    return runRaw(max_cycles);
}

Cycle
InferenceSession::totalCycles() const
{
    Cycle total = retiredCycles_;
    for (int c = 0; c < pod_->size(); ++c)
        total += pod_->chip(c).now();
    return total;
}

double
InferenceSession::latencySeconds() const
{
    return static_cast<double>(cycles_) *
           chip().config().cyclePeriodSec();
}

void
InferenceSession::writeTensor(const LoweredTensor &t,
                              const std::vector<std::int8_t> &data)
{
    const ActTensor &at = t.t;
    TSP_ASSERT(static_cast<std::size_t>(at.height) * at.width *
                   at.channels ==
               data.size());
    // Same traversal as Lowering::inputTensor's DMA manifest: every
    // stored row of both engine parts, including the halo rows each
    // side duplicates past the split boundary.
    Vec320 v;
    for (int e = 0; e < 2; ++e) {
        const int y_lo = e == 0 ? 0 : at.storedLoY();
        const int y_hi = e == 0 ? at.storedHiY() : at.height;
        for (int y = y_lo; y < y_hi; ++y) {
            for (int x = 0; x < at.width; ++x) {
                for (int kg = 0; kg < at.kgCount; ++kg) {
                    v.bytes.fill(0);
                    const int c_lo = kg * kMxmDim;
                    const int c_hi =
                        std::min(at.channels, c_lo + kMxmDim);
                    for (int c = c_lo; c < c_hi; ++c) {
                        v.bytes[static_cast<std::size_t>(c - c_lo)] =
                            static_cast<std::uint8_t>(
                                data[(static_cast<std::size_t>(y) *
                                          at.width +
                                      x) *
                                         at.channels +
                                     c]);
                    }
                    const GlobalAddr a = at.addrOf(e, y, x, kg);
                    chip().mem(a.hem, a.slice)
                        .backdoorWrite(a.addr, v);
                }
            }
        }
    }
}

ref::QTensor
InferenceSession::readTensor(const LoweredTensor &t) const
{
    const ActTensor &at = t.t;
    ref::QTensor out(at.height, at.width, at.channels);
    for (int y = 0; y < at.height; ++y) {
        const int e = at.ownerOf(y);
        for (int x = 0; x < at.width; ++x) {
            for (int kg = 0; kg < at.kgCount; ++kg) {
                const GlobalAddr a = at.addrOf(e, y, x, kg);
                const Vec320 v =
                    chip().mem(a.hem, a.slice).backdoorRead(a.addr);
                const int c_lo = kg * kMxmDim;
                const int c_hi =
                    std::min(at.channels, c_lo + kMxmDim);
                for (int c = c_lo; c < c_hi; ++c) {
                    out.at(y, x, c) = static_cast<std::int8_t>(
                        v.bytes[static_cast<std::size_t>(c - c_lo)]);
                }
            }
        }
    }
    return out;
}

} // namespace tsp
