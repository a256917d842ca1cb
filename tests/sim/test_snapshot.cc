/**
 * @file
 * Differential tests for chip snapshot/restore: serialize the full
 * architectural state mid-run, restore it onto a freshly built chip,
 * run to completion, and require the result to be indistinguishable
 * from an uninterrupted run — same clock, same stats() counters
 * (including ECC corrections), same memory bytes, same energy — with
 * fault injection live, across the per-cycle and fast-forward tiers
 * in every source/destination combination. Also covers the format
 * itself (round trip, corruption rejection), the quiesce/refusal
 * rules, the fault-seed restore policy (same seed resumes the RNG
 * streams; a migration seed keeps fresh ones), pod snapshots with
 * in-flight C2C traffic, and the session-level periodic-snapshot +
 * migrate-and-resume path on one chip and on a ring.
 */

#include <gtest/gtest.h>

#include <string>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "graph/graph.hh"
#include "isa/assembler.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "sim/chip.hh"
#include "sim/snapshot.hh"

namespace tsp {
namespace {

Vec320
fill(std::uint8_t v)
{
    Vec320 x;
    x.bytes.fill(v);
    return x;
}

ChipConfig
configFor(bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    return cfg;
}

/**
 * A fault environment that is live but survivable: random strikes on
 * MEM ports (all correctable) plus one scheduled single-bit flip on
 * the first input word, latent in memory until its read corrects it.
 */
ChipConfig
faultConfigFor(bool fast_forward)
{
    ChipConfig cfg = configFor(fast_forward);
    cfg.fault.seed = 0xabcdull;
    cfg.fault.memReadRate = 0.25;
    cfg.fault.memWriteRate = 0.25;
    cfg.fault.doubleBitFraction = 0.0;
    cfg.fault.events = {{1, 0, 0x5, 0, 1}};
    return cfg;
}

/**
 * The Table I read->add->write program with ~1000-cycle leading NOP
 * spans (every queue shifted by the same constant, so the stream
 * timing still lines up): long provably idle regions for snapshot
 * cuts inside fast-forwarded spans, and enough runway that cycle
 * 1015 is past the reads but before retirement.
 */
const char *const kProgram = "@MEM_W0:\n"
                             "    nop 1010\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 1009\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 1017\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 1013\n"
                             "    add.sat s16.e, s17.e, s29.w\n";

AsmProgram
program()
{
    const AsmResult r = assemble(kProgram);
    EXPECT_TRUE(r.ok) << r.error;
    return r.program;
}

void
seedInputs(Chip &chip)
{
    chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(30));
    chip.mem(Hemisphere::West, 1).backdoorWrite(0x6, fill(40));
}

/**
 * Asserts two completed chips are indistinguishable. With
 * @p exact_payload (same-tier, per-cycle runs), the comparison is a
 * byte-for-byte diff of both chips' serialized state — the full MEM
 * image (data + check bits), fabric, unit latches, counters, RNG
 * streams and the energy accumulator. Across tiers the energy
 * accumulator only differs in floating-point association (one span
 * sample vs N per-cycle samples), so it is compared with a relative
 * tolerance and everything else through stats()/probes.
 */
void
expectChipsIdentical(const Chip &a, const Chip &b, bool exact_payload)
{
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.stats().all(), b.stats().all());
    EXPECT_EQ(a.power().cycles(), b.power().cycles());
    EXPECT_NEAR(a.power().totalEnergyJ(), b.power().totalEnergyJ(),
                1e-9 * a.power().totalEnergyJ());
    const Vec320 ra =
        a.mem(Hemisphere::West, 2).backdoorRead(0x7);
    const Vec320 rb =
        b.mem(Hemisphere::West, 2).backdoorRead(0x7);
    EXPECT_EQ(ra.bytes, rb.bytes);
    if (!exact_payload)
        return;
    ChipSnapshot sa, sb;
    std::string err;
    ASSERT_TRUE(a.snapshot(sa, &err)) << err;
    ASSERT_TRUE(b.snapshot(sb, &err)) << err;
    EXPECT_EQ(sa.payload, sb.payload);
    EXPECT_EQ(sa.serialize(), sb.serialize());
}

/** (source tier, destination tier, cut cycle). */
using MatrixParam = std::tuple<bool, bool, Cycle>;

class SnapshotMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(SnapshotMatrix, MidRunRestoreMatchesUninterruptedRun)
{
    const auto [src_ff, dst_ff, cut] = GetParam();
    const AsmProgram prog = program();

    // Reference: uninterrupted run on the destination tier.
    Chip ref(faultConfigFor(dst_ff));
    seedInputs(ref);
    ref.loadProgram(prog);
    ref.run();

    // Source: run to the cut (inside an idle span for the early cut,
    // past the fault-corrected reads for the late one), snapshot.
    Chip src(faultConfigFor(src_ff));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(cut));
    ASSERT_EQ(src.now(), cut);
    ChipSnapshot snap;
    std::string err;
    ASSERT_TRUE(src.snapshot(snap, &err)) << err;
    EXPECT_EQ(snap.cycle, cut);

    // Wire round trip: the restored snapshot is the deserialized one.
    const std::vector<std::uint8_t> bytes = snap.serialize();
    ChipSnapshot wire;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          wire, &err))
        << err;
    EXPECT_EQ(wire.payload, snap.payload);
    EXPECT_EQ(wire.cycle, snap.cycle);

    // Destination: fresh chip, same program, no seeded inputs —
    // restore() must reproduce every byte of memory on its own.
    Chip dst(faultConfigFor(dst_ff));
    dst.loadProgram(prog);
    ASSERT_TRUE(dst.restore(wire, &err)) << err;
    EXPECT_EQ(dst.now(), cut);
    dst.run();

    // Byte-exact serialized-state diff is only meaningful when both
    // executions sampled power with identical FP association: both
    // final runs fully per-cycle.
    const bool exact = !src_ff && !dst_ff;
    expectChipsIdentical(ref, dst, exact);

    // The scheduled single-bit flip (and the random strikes) must
    // have been corrected identically on both paths.
    EXPECT_EQ(ref.stats().get("ecc_corrected"),
              dst.stats().get("ecc_corrected"));
    EXPECT_GE(ref.stats().get("ecc_corrected"), 1u);
    EXPECT_FALSE(dst.machineCheck());
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, SnapshotMatrix,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       // 500: inside the fast-forwardable idle span,
                       // before the latent flip is read. 1015: past
                       // the reads, corrections already recorded.
                       ::testing::Values<Cycle>(500, 1015)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "ff" : "cyc") +
               "_to_" + (std::get<1>(info.param) ? "ff" : "cyc") +
               "_cut" + std::to_string(std::get<2>(info.param));
    });

TEST(Snapshot, SerializeRejectsCorruption)
{
    Chip chip(configFor(false));
    seedInputs(chip);
    chip.loadProgram(program());
    EXPECT_FALSE(chip.runBounded(400));

    ChipSnapshot snap;
    ASSERT_TRUE(chip.snapshot(snap));
    std::vector<std::uint8_t> bytes = snap.serialize();

    ChipSnapshot out;
    std::string err;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          out, &err));

    // A flipped payload byte fails the content hash.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_FALSE(ChipSnapshot::deserialize(
        flipped.data(), flipped.size(), out, &err));
    EXPECT_NE(err.find("hash"), std::string::npos);

    // Truncation and trailing garbage are both rejected.
    EXPECT_FALSE(ChipSnapshot::deserialize(
        bytes.data(), bytes.size() - 5, out, &err));
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(ChipSnapshot::deserialize(
        extended.data(), extended.size(), out, &err));

    // Bad magic.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(ChipSnapshot::deserialize(bad.data(), bad.size(),
                                           out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos);
}

TEST(Snapshot, RestoreRefusesMismatches)
{
    const AsmProgram prog = program();
    Chip src(faultConfigFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(400));
    ChipSnapshot snap;
    ASSERT_TRUE(src.snapshot(snap));
    std::string err;

    {
        // No program loaded: content hash cannot match.
        Chip dst(faultConfigFor(false));
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("program"), std::string::npos);
    }
    {
        // Different chip configuration (ECC off).
        ChipConfig cfg = faultConfigFor(false);
        cfg.eccEnabled = false;
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("configuration"), std::string::npos);
    }
    {
        // Different fault environment: a changed rate refuses...
        ChipConfig cfg = faultConfigFor(false);
        cfg.fault.memReadRate = 0.5;
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("fault environment"), std::string::npos);
    }
    {
        // ...as does an extra scheduled event...
        ChipConfig cfg = faultConfigFor(false);
        cfg.fault.events.push_back({2000, 3, 0x9, 1, 2});
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
    }
    {
        // ...and a chip with injection off entirely.
        Chip dst(configFor(false));
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
    }
    {
        // The dispatch trace is a quiesce violation on both sides.
        ChipConfig cfg = faultConfigFor(false);
        cfg.traceEnabled = true;
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("trace"), std::string::npos);
        ChipSnapshot unused;
        EXPECT_FALSE(dst.snapshot(unused, &err));
    }
}

TEST(Snapshot, DifferentFaultSeedRestoresWithFreshStreams)
{
    // Migration semantics: a rebuilt chip draws a different fault
    // seed, and restore() must accept it (same environment) while
    // keeping the fresh RNG streams — but still resume the scheduled
    // event cursor. All strikes here are correctable, so the data
    // path must be byte-identical to the same-seed continuation even
    // though the random upset history differs.
    const AsmProgram prog = program();
    Chip src(faultConfigFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(500));
    ChipSnapshot snap;
    ASSERT_TRUE(src.snapshot(snap));

    Chip same(faultConfigFor(false));
    same.loadProgram(prog);
    ChipConfig other_cfg = faultConfigFor(false);
    other_cfg.fault.seed = 0x1234ull;
    Chip other(other_cfg);
    other.loadProgram(prog);

    std::string err;
    ASSERT_TRUE(same.restore(snap, &err)) << err;
    ASSERT_TRUE(other.restore(snap, &err)) << err;
    same.run();
    other.run();

    EXPECT_EQ(same.now(), other.now());
    EXPECT_FALSE(other.machineCheck());
    // The scheduled flip landed before the cut; both continuations
    // correct it on the read.
    EXPECT_GE(other.stats().get("ecc_corrected"), 1u);
    const Vec320 a = same.mem(Hemisphere::West, 2).backdoorRead(0x7);
    const Vec320 b = other.mem(Hemisphere::West, 2).backdoorRead(0x7);
    EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Snapshot, RefusesWhileTraceRecorderArmed)
{
    Chip chip(configFor(false));
    seedInputs(chip);
    chip.loadProgram(program());
    TraceRecording rec({&chip});
    ChipSnapshot snap;
    std::string err;
    EXPECT_FALSE(chip.snapshot(snap, &err));
    EXPECT_NE(err.find("recorder"), std::string::npos);
}

TEST(PodSnapshot, RestoreWithInFlightC2cTraffic)
{
    // Snapshot a pod mid-collective, at a cut where at least one
    // ring link has vectors in flight, restore onto a fresh pod and
    // require the finished all-reduce to match the uninterrupted
    // pod byte-for-byte.
    constexpr int kChips = 3;
    constexpr Cycle kWire = 17;
    Pod ref(kChips, kWire);
    Pod pod2(kChips, kWire);

    Rng rng(99);
    for (int c = 0; c < kChips; ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l)
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(rng.intIn(-90, 90));
        ref.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }

    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(ref, sched);
    std::vector<AsmProgram> progs;
    for (auto &p : sched)
        progs.push_back(p.toAsm());
    for (int c = 0; c < kChips; ++c) {
        ref.chip(c).loadProgram(progs[static_cast<std::size_t>(c)]);
        pod2.chip(c).loadProgram(progs[static_cast<std::size_t>(c)]);
    }

    // Step until some link has undelivered flight.
    bool in_flight = false;
    for (Cycle t = 0; t < 100'000 && !in_flight; ++t) {
        ref.stepAll();
        for (int c = 0; c < kChips && !in_flight; ++c)
            for (int l = 0; l < 2; ++l)
                in_flight |= ref.chip(c).c2c().pendingRx(l) > 0;
    }
    ASSERT_TRUE(in_flight);
    ASSERT_FALSE(ref.allDone());

    PodSnapshot snap;
    std::string err;
    ASSERT_TRUE(ref.snapshot(snap, &err)) << err;
    ASSERT_TRUE(pod2.restore(snap, &err)) << err;

    ref.runAll();
    pod2.runAll();

    for (int c = 0; c < kChips; ++c) {
        const Chip &a = ref.chip(c);
        const Chip &b = pod2.chip(c);
        EXPECT_EQ(a.now(), b.now()) << "chip " << c;
        EXPECT_EQ(a.stats().all(), b.stats().all()) << "chip " << c;
        const Vec320 ra =
            a.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        const Vec320 rb =
            b.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        EXPECT_EQ(ra.bytes, rb.bytes) << "chip " << c;
        ChipSnapshot sa, sb;
        ASSERT_TRUE(a.snapshot(sa, &err)) << err;
        ASSERT_TRUE(b.snapshot(sb, &err)) << err;
        EXPECT_EQ(sa.payload, sb.payload) << "chip " << c;
    }

    // Size mismatch refuses.
    Pod small(2, kWire);
    EXPECT_FALSE(small.restore(snap, &err));
}

/** Compiled tiny network for the session-level tests. */
struct Compiled
{
    Graph g;
    Lowering lw{true};
    std::map<int, LoweredTensor> tensors;

    Compiled() : g(model::buildTinyNet(3, 8, 8, 4))
    {
        tensors = g.lower(lw, input());
    }

    static std::vector<std::int8_t>
    input()
    {
        Rng rng(7);
        std::vector<std::int8_t> data(8 * 8 * 4);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        return data;
    }

    const LoweredTensor &in() const { return tensors.at(0); }
    const LoweredTensor &
    out() const
    {
        return tensors.at(g.outputNode());
    }
};

TEST(SessionSnapshot, PeriodicSnapshotsAreInvisible)
{
    // Chunking a bounded run into snapshot intervals must not perturb
    // the simulation in any observable way.
    Compiled m;
    ChipConfig cfg;
    InferenceSession plain(m.lw, cfg);
    InferenceSession snapped(m.lw, cfg);
    snapped.enableSnapshots(911); // Deliberately unaligned cadence.

    const RunResult a = plain.runBounded();
    const RunResult b = snapped.runBounded();
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(snapped.snapshotCount(), 0u);
    ASSERT_NE(snapped.lastSnapshot(), nullptr);
    EXPECT_EQ(plain.chip().stats().all(),
              snapped.chip().stats().all());
    EXPECT_EQ(plain.readTensor(m.out()).data,
              snapped.readTensor(m.out()).data);

    // reset() drops the stale snapshot: it must never leak into the
    // next batch's migration decisions.
    snapped.reset();
    EXPECT_EQ(snapped.lastSnapshot(), nullptr);
}

TEST(SessionSnapshot, MigrateAndResumeRecoversMachineCheck)
{
    // Golden output from a fault-free run.
    Compiled m;
    InferenceSession golden(m.lw, ChipConfig{});
    ASSERT_TRUE(golden.runBounded().completed);
    const ref::QTensor want = golden.readTensor(m.out());

    // Random uncorrectable strikes, seed chosen so the first run is
    // condemned; migration restores the last pre-fault snapshot onto
    // a rebuilt chip (fresh seed) and resumes.
    ChipConfig cfg;
    cfg.fault.seed = 0x5151ull;
    cfg.fault.streamRate = 5e-4;
    cfg.fault.doubleBitFraction = 1.0;
    InferenceSession sess(m.lw, cfg);
    sess.enableSnapshots(250);

    RunResult r = sess.runBounded();
    ASSERT_EQ(r.status, RunStatus::MachineCheck)
        << "seed expected to condemn the first run";
    ASSERT_NE(sess.lastSnapshot(), nullptr)
        << "a snapshot must precede the first uncorrectable error";

    int hops = 0;
    while (r.status == RunStatus::MachineCheck &&
           sess.lastSnapshot() != nullptr && hops < 16) {
        r = sess.migrateAndResume();
        ++hops;
    }
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sess.migrations(), 1);
    EXPECT_EQ(sess.rebuilds(), sess.migrations());
    // The resumed computation must finish with the correct bytes.
    EXPECT_EQ(sess.readTensor(m.out()).data, want.data);
}

TEST(SessionSnapshot, RestoreBetweenLwAndIwMatchesUninterruptedRun)
{
    // Cuts where an MXM plane holds LW-staged weight rows its IW has
    // not installed yet: the restored chip must commit every staged
    // row at that IW, not only the rows written after the restore.
    Compiled m;
    InferenceSession ref(m.lw, ChipConfig{});
    ASSERT_TRUE(ref.runBounded().completed);
    const ref::QTensor want = ref.readTensor(m.out());

    std::vector<Cycle> staged;
    {
        InferenceSession probe(m.lw, configFor(false));
        Chip &chip = probe.chip();
        while (!chip.done()) {
            chip.step();
            for (int p = 0; p < kMxmPlanes; ++p) {
                if (chip.mxm(p).stagedRows() > 0) {
                    staged.push_back(chip.now());
                    break;
                }
            }
        }
    }
    ASSERT_FALSE(staged.empty());

    for (const Cycle cut : {staged.front(), staged[staged.size() / 2],
                            staged.back()}) {
        for (const bool ff : {false, true}) {
            InferenceSession src(m.lw, configFor(ff));
            EXPECT_FALSE(src.chip().runBounded(cut));
            ASSERT_EQ(src.chip().now(), cut);
            ChipSnapshot snap;
            std::string err;
            ASSERT_TRUE(src.chip().snapshot(snap, &err)) << err;

            InferenceSession dst(m.lw, configFor(ff));
            ASSERT_TRUE(dst.chip().restore(snap, &err)) << err;
            dst.chip().run();
            EXPECT_EQ(dst.chip().now(), ref.chip().now()) << cut;
            EXPECT_EQ(dst.chip().stats().all(), ref.chip().stats().all())
                << cut;
            EXPECT_EQ(dst.readTensor(m.out()).data, want.data) << cut;
        }
    }
}

TEST(SessionSnapshot, RestoreRefusesAnotherBoundProgram)
{
    // reset() loads each program under the hash bound with it, and
    // that hash is what restore() checks: after a rebind, a snapshot
    // of the previous program must be refused, and accepted again
    // once that program is bound back.
    Compiled m;
    const auto prog = std::make_shared<const AsmProgram>(
        m.lw.program().toAsm(/*with_preamble=*/true));
    Graph g2 = model::buildTinyNet(4, 6, 6, 4);
    Lowering lw2(true);
    Rng rng(8);
    std::vector<std::int8_t> in2(6 * 6 * 4);
    for (auto &v : in2)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    g2.lower(lw2, in2);
    const auto prog2 = std::make_shared<const AsmProgram>(
        lw2.program().toAsm(/*with_preamble=*/true));

    InferenceSession ref(m.lw, prog);
    ASSERT_TRUE(ref.runBounded().completed);
    InferenceSession src(m.lw, prog);
    EXPECT_FALSE(src.chip().runBounded(400));
    ChipSnapshot snap;
    std::string err;
    ASSERT_TRUE(src.chip().snapshot(snap, &err)) << err;

    InferenceSession dst(m.lw, prog);
    dst.bind(lw2, prog2, hashProgram(*prog2));
    dst.reset();
    EXPECT_FALSE(dst.chip().restore(snap, &err));
    EXPECT_NE(err.find("program mismatch"), std::string::npos) << err;

    dst.bind(m.lw, prog, hashProgram(*prog));
    dst.reset();
    ASSERT_TRUE(dst.chip().restore(snap, &err)) << err;
    dst.chip().run();
    EXPECT_EQ(dst.chip().now(), ref.chip().now());
    EXPECT_EQ(dst.readTensor(m.out()).data, ref.readTensor(m.out()).data);
}

/** Binds and loads a ring all-reduce on @p sess, then stages seeded
 *  local vectors on every member. */
void
armAllReduce(InferenceSession &sess)
{
    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(sess.pod(), sched);
    InferenceSession::Programs progs;
    for (auto &p : sched)
        progs.push_back(std::make_shared<const AsmProgram>(p.toAsm()));
    sess.bind(std::move(progs));
    sess.reset();
    Rng rng(77);
    for (int c = 0; c < sess.pod().size(); ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l) {
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(rng.intIn(-90, 90));
        }
        sess.pod()
            .chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }
}

TEST(SessionSnapshot, PodMigrateAndResumeRecoversMachineCheck)
{
    // The ring case of the test above, through the same session path:
    // a condemned collective migrates onto a rebuilt pod and resumes
    // from its last pre-fault PodSnapshot.
    constexpr int kChips = 2;
    constexpr Cycle kWire = 17;
    InferenceSession golden(kChips, kWire);
    armAllReduce(golden);
    ASSERT_TRUE(golden.runBounded().completed);

    // Uncorrectable link and stream strikes. The seed condemns the
    // first run through a link strike, which lands in the receiver's
    // buffer several snapshot intervals before it is consumed: a cut
    // holding it must not serve as the migration point.
    ChipConfig cfg;
    cfg.fault.seed = 23;
    cfg.fault.c2cRate = 0.05;
    cfg.fault.streamRate = 0.002;
    cfg.fault.doubleBitFraction = 1.0;
    InferenceSession sess(kChips, kWire, cfg);
    armAllReduce(sess);
    sess.enableSnapshots(50);

    RunResult r = sess.runBounded();
    ASSERT_EQ(r.status, RunStatus::MachineCheck)
        << "seed expected to condemn the first run";
    std::uint64_t link_strikes = 0;
    for (int c = 0; c < kChips; ++c)
        link_strikes +=
            sess.pod().chip(c).stats().get("faults_injected_c2c");
    EXPECT_GT(link_strikes, 0u);
    ASSERT_NE(sess.lastSnapshot(), nullptr)
        << "a snapshot must precede the first uncorrectable error";

    int hops = 0;
    while (r.status == RunStatus::MachineCheck &&
           sess.lastSnapshot() != nullptr && hops < 16) {
        r = sess.migrateAndResume();
        ++hops;
    }
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sess.migrations(), 1);
    EXPECT_EQ(sess.rebuilds(), sess.migrations());
    // Every member holds the fault-free reduction.
    const auto want = golden.pod()
                          .chip(0)
                          .mem(Hemisphere::East, AllReducePlan::kSlice)
                          .backdoorRead(AllReducePlan::kResultAddr)
                          .bytes;
    for (int c = 0; c < kChips; ++c) {
        EXPECT_EQ(sess.pod()
                      .chip(c)
                      .mem(Hemisphere::East, AllReducePlan::kSlice)
                      .backdoorRead(AllReducePlan::kResultAddr)
                      .bytes,
                  want)
            << "chip " << c;
    }
}

} // namespace
} // namespace tsp
