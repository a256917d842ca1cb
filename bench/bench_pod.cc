/**
 * @file
 * E15c: pod-scale fast-forward — the conservative-lookahead scheduler
 * (Pod::runAllBounded) against lock-step stepping on the ring
 * all-reduce, plus a multi-chip serving sweep.
 *
 * Three claims checked, artifacts in BENCH_pod.json:
 *  1. Collective completion cycles scale linearly with ring size and
 *     are identical under both schedulers (divergence exits nonzero —
 *     this is the bit-identity contract, not a perf number).
 *  2. Fast-forward beats lock-step wall-clock on the (mostly idle)
 *     collective schedule — expect well over 2x.
 *  3. A pool of pod workers serves the collective with exact
 *     admission bookings: zero prediction mismatches.
 */

#include <chrono>
#include <vector>

#include "bench_util.hh"
#include "c2c/collective.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "serve/server.hh"

namespace {

using namespace tsp;

void
seedLocals(Pod &pod, std::uint64_t seed)
{
    Rng rng(seed);
    for (int c = 0; c < pod.size(); ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l) {
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(
                    static_cast<std::int8_t>(rng.intIn(-20, 20)));
        }
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }
}

void
loadPrograms(Pod &pod, std::vector<ScheduledProgram> &programs)
{
    for (int c = 0; c < pod.size(); ++c) {
        pod.chip(c).loadProgram(
            programs[static_cast<std::size_t>(c)].toAsm());
    }
}

/** Wall-clock seconds for @p reps back-to-back collectives. */
double
timeReps(int chips, Cycle wire, int reps, bool fast_forward,
         Cycle &cycles_out)
{
    Pod pod(chips, wire);
    seedLocals(pod, 7);
    std::vector<ScheduledProgram> programs;
    buildRingAllReduce(pod, programs);

    const auto t0 = std::chrono::steady_clock::now();
    Cycle prev = 0;
    for (int r = 0; r < reps; ++r) {
        loadPrograms(pod, programs);
        if (fast_forward) {
            if (!pod.runAllBounded())
                fatal("bench_pod: bounded run failed");
        } else {
            while (!pod.allDone())
                pod.stepAll();
        }
        prev = pod.now();
    }
    const auto t1 = std::chrono::steady_clock::now();
    cycles_out = prev;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    bench::banner("E15c: pod fast-forward and multi-chip serving",
                  "static schedules make conservative lookahead "
                  "exact: pods fast-forward with bit-identical "
                  "results, and pod serving books exact deadlines");

    // 1. Scaling, both schedulers — cycles must match exactly.
    std::printf("%-8s %12s %12s %8s\n", "chips", "lock cycles",
                "fast cycles", "equal?");
    bool diverged = false;
    Cycle cycles_n2 = 0, cycles_n8 = 0;
    for (const int n : {2, 4, 8}) {
        Pod lock(n, /*wire_latency=*/25);
        Pod fast(n, /*wire_latency=*/25);
        seedLocals(lock, static_cast<std::uint64_t>(n));
        seedLocals(fast, static_cast<std::uint64_t>(n));
        std::vector<ScheduledProgram> programs;
        buildRingAllReduce(lock, programs);
        loadPrograms(lock, programs);
        loadPrograms(fast, programs);
        while (!lock.allDone())
            lock.stepAll();
        if (!fast.runAllBounded())
            fatal("bench_pod: bounded run failed");
        const bool equal = lock.now() == fast.now();
        diverged = diverged || !equal;
        for (int c = 0; c < n; ++c) {
            const Vec320 a =
                lock.chip(c)
                    .mem(Hemisphere::East, AllReducePlan::kSlice)
                    .backdoorRead(AllReducePlan::kResultAddr);
            const Vec320 b =
                fast.chip(c)
                    .mem(Hemisphere::East, AllReducePlan::kSlice)
                    .backdoorRead(AllReducePlan::kResultAddr);
            if (a.bytes != b.bytes)
                diverged = true;
        }
        if (n == 2)
            cycles_n2 = fast.now();
        if (n == 8)
            cycles_n8 = fast.now();
        std::printf("%-8d %12llu %12llu %8s\n", n,
                    static_cast<unsigned long long>(lock.now()),
                    static_cast<unsigned long long>(fast.now()),
                    equal ? "yes" : "NO");
    }

    // 2. Wall-clock: lock-step vs conservative lookahead.
    const int kChips = 8;
    const Cycle kWire = 64;
    const int kReps = 20;
    Cycle c_lock = 0, c_fast = 0;
    const double t_lock =
        timeReps(kChips, kWire, kReps, /*fast_forward=*/false,
                 c_lock);
    const double t_fast =
        timeReps(kChips, kWire, kReps, /*fast_forward=*/true,
                 c_fast);
    diverged = diverged || c_lock != c_fast;
    const double speedup = t_fast > 0.0 ? t_lock / t_fast : 0.0;
    std::printf("\nwall-clock, %d-chip ring, wire %llu, %d "
                "collectives:\n",
                kChips, static_cast<unsigned long long>(kWire),
                kReps);
    std::printf("  lock-step    %8.3f ms  (%llu cycles)\n",
                t_lock * 1e3,
                static_cast<unsigned long long>(c_lock));
    std::printf("  fast-forward %8.3f ms  (%llu cycles)\n",
                t_fast * 1e3,
                static_cast<unsigned long long>(c_fast));
    std::printf("  speedup      %8.1fx\n", speedup);

    // 3. Pod-serving sweep: exact bookings at every pod size.
    std::printf("\n%-8s %10s %10s %10s %12s\n", "pod", "service",
                "served", "rejected", "mismatches");
    std::uint64_t total_mismatches = 0, served_n4 = 0;
    for (const int n : {2, 4}) {
        serve::ServerConfig cfg;
        cfg.workers = 2;
        const Cycle service = serve::PodBackend::serviceCycles(
            n, /*wire_latency=*/25, cfg.chip);
        const ChipConfig chip_cfg = cfg.chip;
        const Cycle wire = 25;
        serve::InferenceServer server(
            [n, wire,
             chip_cfg](int) -> std::unique_ptr<serve::Backend> {
                return std::make_unique<serve::PodBackend>(
                    n, wire, chip_cfg);
            },
            std::vector<Cycle>{service}, cfg);
        Rng rng(42);
        const double svc = server.serviceSec();
        double now = 0.0;
        std::vector<std::future<serve::Result>> futures;
        for (int i = 0; i < 60; ++i) {
            now += svc * 0.4; // Offered load 1.25x pool capacity.
            std::vector<std::int8_t> data(
                serve::PodBackend::inputBytes(n));
            for (auto &v : data)
                v = static_cast<std::int8_t>(rng.intIn(-90, 90));
            futures.push_back(server.submit(
                std::move(data), now, now + 6.0 * svc,
                serve::InferenceServer::OnFull::Block));
        }
        server.drain();
        const auto snap = server.metricsSnapshot();
        const std::uint64_t served = snap.counters().get("served");
        if (n == 4)
            served_n4 = served;
        total_mismatches += snap.predictionMismatches();
        std::printf("%-8d %10llu %10llu %10llu %12llu\n", n,
                    static_cast<unsigned long long>(service),
                    static_cast<unsigned long long>(served),
                    static_cast<unsigned long long>(
                        snap.counters().get("rejected_deadline")),
                    static_cast<unsigned long long>(
                        snap.predictionMismatches()));
    }

    std::printf("\nshape check: schedulers bit-identical and "
                "bookings exact: %s\n",
                (!diverged && total_mismatches == 0) ? "yes" : "NO");

    bench::writeJson(
        "BENCH_pod.json",
        {{"allreduce_cycles_2chip",
          static_cast<double>(cycles_n2)},
         {"allreduce_cycles_8chip",
          static_cast<double>(cycles_n8)},
         {"fast_forward_speedup", speedup},
         {"serving_served_4chip",
          static_cast<double>(served_n4)},
         {"serving_prediction_mismatches",
          static_cast<double>(total_mismatches)},
         {"diverged", diverged ? 1.0 : 0.0}});
    bench::footer();
    return (diverged || total_mismatches != 0) ? 1 : 0;
}
