/**
 * @file
 * Host runtime: owns a pod of N >= 1 chips, loads one statically
 * scheduled program per member, runs it to completion, and reads
 * results back — the host interface duties of the paper's C2C/PCIe
 * module (II item 6).
 *
 * A single TSP is the one-member case of a pod: every chip shares one
 * clock domain and Send/Receive are statically scheduled, so a lone
 * chip and a ring go through the same bounded run (Pod::runAllBounded),
 * record/replay, reset/rebuild, snapshot and migration path. What only
 * a lowered single-chip model has — the DMA image re-applied on every
 * reset, its modeled PCIe time, and writeTensor()/readTensor() on
 * member 0 — is data the session holds, not a second run path.
 *
 * Sessions are *reusable*: reset() reloads the programs (and the DMA
 * image) so the same engine serves run after run. Because the schedule
 * is static, every run of the same compiled program consumes exactly
 * the same number of cycles regardless of input values — the property
 * the serving layer's admission control (src/serve) is built on.
 *
 * Reliability semantics: a machine check on *any* member condemns the
 * whole engine (a collective's result is a function of every member's
 * state), and reset() after a timeout or machine check rebuilds every
 * member with a derived fault seed.
 */

#ifndef TSP_RUNTIME_SESSION_HH
#define TSP_RUNTIME_SESSION_HH

#include <memory>
#include <vector>

#include "c2c/pod.hh"
#include "compiler/lowering.hh"
#include "ref/qnn.hh"
#include "sim/exec_trace.hh"
#include "sim/snapshot.hh"

namespace tsp {

/** Usable PCIe Gen4 x16 bandwidth for the DMA-time model (bytes/s). */
inline constexpr double kPcieGen4Bps = 32.0e9;

/** How one bounded run ended. */
enum class RunStatus : std::uint8_t
{
    Completed,    ///< Program retired within the cycle budget.
    CycleLimit,   ///< Budget exhausted mid-program.
    MachineCheck, ///< Uncorrectable error condemned the chip.
};

/** @return stable lower-case name for @p s. */
const char *runStatusName(RunStatus s);

/** Outcome of one bounded run. */
struct RunResult
{
    /** True when the program retired within the cycle budget. */
    bool completed = false;

    /** Why the run ended. */
    RunStatus status = RunStatus::Completed;

    /** Cycles consumed by this run (meaningless when !completed). */
    Cycle cycles = 0;
};

/** One set of per-member programs bound to a pod of N >= 1 chips. */
class InferenceSession
{
  public:
    /** One program per pod member, in ring order. */
    using Programs = std::vector<std::shared_ptr<const AsmProgram>>;

    /**
     * A one-chip session over a compiled model: builds the chip,
     * applies @p lw's DMA image and loads its program. The Lowering
     * must be fully built (all layers added) and must outlive the
     * session (reset() re-reads its image).
     */
    explicit InferenceSession(Lowering &lw, ChipConfig cfg = {});

    /**
     * Same, but with a pre-assembled (shared) program — avoids
     * re-running toAsm() when many sessions serve one compiled
     * lowering, e.g. a worker pool over a BatchProgramCache.
     */
    InferenceSession(Lowering &lw,
                     std::shared_ptr<const AsmProgram> prog,
                     ChipConfig cfg = {});

    /**
     * An N-chip ring session (see Pod's ctor for per-member fault
     * seeds). No program is loaded: bind() one per member, then
     * reset().
     */
    InferenceSession(int chips, Cycle wire_latency, ChipConfig cfg = {});

    /**
     * Rebinds a one-chip session to another compiled lowering
     * (typically a different batch size or model family) without
     * rebuilding the chip. Takes effect at the next reset(), which
     * loads @p prog and applies @p lw's DMA image.
     */
    void bind(Lowering &lw, std::shared_ptr<const AsmProgram> prog);

    /**
     * Binds one program per member (no DMA image). Takes effect at
     * the next reset(). Memory contents survive only when no rebuild
     * intervenes; restage inputs after every reset().
     */
    void bind(Programs programs);

    /**
     * Runs to completion; @return cycles consumed by this run.
     * Calls fatal() if @p max_cycles elapse first — use runBounded()
     * to observe exhaustion as a status instead.
     */
    Cycle run(Cycle max_cycles = 500'000'000);

    /**
     * Runs for at most @p max_cycles (relative to the current pod
     * clock) via Pod::runAllBounded() and reports exhaustion
     * explicitly instead of exiting. After a failed run the engine is
     * mid-program; the next reset() rebuilds it from scratch.
     */
    RunResult runBounded(Cycle max_cycles = 500'000'000);

    /** @return true when the last run hit its cycle budget. */
    bool timedOut() const { return timedOut_; }

    /** @return true when the last run ended in a machine check. */
    bool machineChecked() const { return machineChecked_; }

    /**
     * @return first-error context of the most recent machine check
     * (valid once machineChecked(); survives reset() so callers can
     * report it after the retry).
     */
    const MachineCheckInfo &lastMachineCheck() const { return lastMc_; }

    /**
     * @return ring index of the member that raised the most recent
     * machine check (-1 before any; survives reset()).
     */
    int machineCheckChip() const { return mcChip_; }

    /** @return engines rebuilt after timeouts/machine checks. */
    int rebuilds() const { return rebuilds_; }

    /**
     * Rearms the session for another run: reloads every member's
     * program and re-applies the DMA image, if any (restoring weights,
     * constants and the compile-time input). After a timed-out or
     * machine-checked run every member is rebuilt first, since a
     * half-executed program leaves queues and sequencers in an
     * unknown state.
     */
    void reset();

    /**
     * Overwrites an activation tensor (typically the model input)
     * with dense [h x w x c] int8 data — every stored row of both
     * hemisphere parts, halos included, mirroring the compile-time
     * DMA layout. Models the per-request host input transfer.
     */
    void writeTensor(const LoweredTensor &t,
                     const std::vector<std::int8_t> &data);

    /** Reads a lowered tensor back into a dense reference tensor. */
    ref::QTensor readTensor(const LoweredTensor &t) const;

    /** @return member 0 (the whole engine for a one-chip session). */
    Chip &chip() { return pod_->chip(0); }
    const Chip &chip() const { return pod_->chip(0); }

    /** @return the pod (replaced wholesale on every rebuild). */
    Pod &pod() { return *pod_; }
    const Pod &pod() const { return *pod_; }

    // --- Periodic snapshots + mid-batch migration ---

    /**
     * Arms periodic snapshotting: bounded runs advance in chunks of
     * @p every cycles and capture a PodSnapshot at each chunk
     * boundary (never after a machine check, so the last snapshot
     * always precedes the first uncorrectable error). 0 disables.
     * Capture is skipped silently whenever a member refuses (e.g. a
     * trace recording is in progress) and, under fault injection,
     * while an uncorrectable vector is in flight unchecked (in a C2C
     * link buffer or on a stream). Chunking itself is invisible:
     * a limit-stopped runAllBounded() resumes bit-identically, and a
     * boundary is a consistent cut even when member clocks differ by
     * the lookahead, because every C2C vector is delivered into the
     * receiver's link queue at send time.
     */
    void enableSnapshots(Cycle every) { snapshotEvery_ = every; }

    /** @return the armed snapshot cadence (0 when disabled). */
    Cycle snapshotEvery() const { return snapshotEvery_; }

    /** @return the last captured snapshot, or nullptr. Cleared by
     *  reset() — a snapshot never outlives its batch. */
    const PodSnapshot *lastSnapshot() const { return lastSnap_.get(); }

    /** @return snapshots captured since construction. */
    std::uint64_t snapshotCount() const { return snapshots_; }

    /** @return machine-check recoveries served via migration. */
    int migrations() const { return migrations_; }

    /**
     * Machine-check recovery without a full retry: rebuilds every
     * member (fresh derived fault seeds), reloads the programs,
     * restores the last pre-fault snapshot and resumes the run for
     * at most @p max_cycles more. The restored members keep their
     * fresh RNG streams, so the upset that condemned the source is
     * not replayed (scheduled FaultEvents do replay — they are wired
     * to cycles). Requires lastSnapshot() != nullptr; if the restore
     * is refused the session stays condemned and the result reads
     * MachineCheck.
     */
    RunResult migrateAndResume(Cycle max_cycles = 500'000'000);

    /**
     * Enables the trace record/replay tier: the first complete run
     * after a reset() records every member's resolved micro-op
     * sequence, and subsequent fresh runs of the same bound programs
     * replay it (see sim/exec_trace.hh). Runs with fault injection or
     * a dispatch / power trace enabled always take the normal path.
     */
    void enableReplay(bool on = true) { replayEnabled_ = on; }

    /**
     * Attaches a pool-shared trace cache and enables replay (detaches
     * and disables on nullptr): each run first looks the bound
     * programs up there (another session may have recorded them) and
     * publishes a fresh recording back. The key is the first member's
     * program object plus a content fingerprint of every loaded
     * program — pointer identity alone would be an ABA hazard, since
     * a retired program's address can be reused by a different one.
     */
    void attachTraceCache(std::shared_ptr<TraceCache> cache);

    /** @return the trace recorded for the bound programs, if any. */
    const std::shared_ptr<const ExecutionTrace> &
    trace() const
    {
        return trace_;
    }

    /** @return runs served by replaying a recorded trace. */
    std::uint64_t replayCount() const { return replays_; }

    /** @return runs that successfully recorded a trace. */
    std::uint64_t recordCount() const { return records_; }

    /** @return member 0's bound compiled program. */
    const AsmProgram *program() const { return progs_.at(0).get(); }

    /** @return cycles consumed by the last run. */
    Cycle cycles() const { return cycles_; }

    /**
     * @return member-summed chip cycles consumed over the session's
     * lifetime, *including* cycles burned on engines later condemned
     * and rebuilt — the honest compute cost of retries and
     * migrations, which the current members' clocks alone
     * under-report.
     */
    Cycle totalCycles() const;

    /** @return compute latency of the last run in seconds. */
    double latencySeconds() const;

    /** @return modeled one-time PCIe DMA time for the image (0 when
     *  the session has no image). */
    double dmaSeconds() const { return dmaSeconds_; }

  private:
    /** Loads every member's bound program onto @p pod. */
    void loadPrograms(Pod &pod) const;

    /** @return a fresh pod whose fault seed derives from the rebuild
     *  count (counted by the caller). */
    std::unique_ptr<Pod> rebuiltPod() const;

    /** The plain Pod::runAllBounded() path, chunked when armed. */
    RunResult runRaw(Cycle max_cycles);

    /** @return true when this config may ever record or replay. */
    bool replayEligible() const;

    /** Captures a snapshot if every member permits one right now. */
    void captureSnapshot();

    /** @return every member chip, in ring order. */
    std::vector<Chip *> members();

    /** @return the pool trace-cache key of the loaded programs. */
    TraceKey traceKey() const;

    ChipConfig cfg_;
    std::unique_ptr<Pod> pod_;
    /** Cached assemblies (with barrier preamble for a lowered model);
     *  shareable. */
    Programs progs_;
    /** The lowered model whose DMA image reset() re-applies to member
     *  0, or null. */
    Lowering *lw_ = nullptr;
    double dmaSeconds_ = 0.0;
    Cycle cycles_ = 0;
    bool timedOut_ = false;
    bool machineChecked_ = false;
    MachineCheckInfo lastMc_{};
    int mcChip_ = -1;
    int rebuilds_ = 0;
    /** Member cycles consumed by engines already discarded (see
     *  totalCycles). */
    Cycle retiredCycles_ = 0;

    Cycle snapshotEvery_ = 0;
    std::unique_ptr<PodSnapshot> lastSnap_;
    std::uint64_t snapshots_ = 0;
    int migrations_ = 0;

    bool replayEnabled_ = false;
    /**
     * True between a reset() (or the loading constructor) and the
     * next run: the members are at the freshly loaded program state a
     * recording started from, so a replay lands on identical footing.
     */
    bool fresh_ = false;
    std::shared_ptr<const ExecutionTrace> trace_;
    std::shared_ptr<TraceCache> traces_;
    std::uint64_t replays_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace tsp

#endif // TSP_RUNTIME_SESSION_HH
