#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/cpu.hh"
#include "common/json.hh"
#include "common/seed.hh"

#ifndef TSP_PERFBENCH_BUILD_TYPE
#define TSP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0
                                     : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
tailQuantile(std::size_t n)
{
    for (const double q : {0.999, 0.99, 0.9}) {
        if (static_cast<double>(n) * (1.0 - q) >= 10.0)
            return q;
    }
    return 0.5;
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB.
    }
    return 0.0;
}

std::uint64_t
itemSeed(std::uint64_t seed, std::uint64_t salt, std::uint64_t i)
{
    return tsp::seedMix(tsp::seedMix(seed ^ (salt * 0x9e3779b97f4a7c15ull)) +
                        i);
}

void
Report::e2e(const std::string &name, double value,
            const std::string &unit)
{
    e2e_[name] = {value, unit};
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    layers_[name] = {value, unit};
}

void
Report::exact(const std::string &name, double value, double relTol)
{
    auto &values = relTol > 0.0 ? approx_ : exact_;
    const auto it = values.find(name);
    if (it == values.end()) {
        values[name] = value;
        return;
    }
    // Bitwise unless a tolerance was given: exact values must repeat
    // exactly.
    const bool same =
        relTol > 0.0
            ? std::fabs(it->second - value) <=
                  relTol * std::max(std::fabs(it->second), std::fabs(value))
            : std::memcmp(&it->second, &value, sizeof value) == 0;
    char buf[160];
    std::snprintf(buf, sizeof buf, " was %.17g, now %.17g", it->second,
                  value);
    check(same, "determinism: " + name + buf);
}

void
Report::absorb(const Report &side, const std::vector<std::string> &e2e,
               const std::string &prefix)
{
    for (const std::string &name : e2e) {
        const auto it = side.e2e_.find(name);
        if (it != side.e2e_.end())
            e2e_[name] = it->second;
    }
    for (const auto &[name, m] : side.layers_)
        layers_.emplace(name, m);
    attempted_ += side.attempted_;
    failed_ += side.failed_;
    for (const std::string &f : side.failures_) {
        if (failures_.size() < 20)
            failures_.push_back(f);
    }
    for (const auto &[name, v] : side.exact_)
        exact(prefix + name, v);
    for (const auto &[name, v] : side.approx_)
        exact(prefix + name, v, kEnergyRelTol);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(what);
}

std::string
Report::json(bool traced) const
{
    tsp::JsonWriter j;
    j.beginObject();
    j.kv("correct", failed_ == 0);
    j.kv("attempted", attempted_);
    j.kv("failed", failed_);
    j.key("metrics").beginObject();
    for (const auto &[name, m] : traced ? layers_ : e2e_) {
        j.key(name).beginObject();
        j.kv("value", m.value);
        j.kv("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.key("exact").beginObject();
    for (const auto &[name, v] : exact_)
        j.kv(name, v);
    j.endObject();
    j.key("approx").beginObject();
    for (const auto &[name, v] : approx_)
        j.kv(name, v);
    j.endObject();
    j.key("failures").beginArray();
    for (const std::string &f : failures_)
        j.value(f);
    j.endArray();
    j.endObject();
    return j.str();
}

Tracer::Scope::Scope(Tracer &t, const char *name, std::uint64_t req)
{
    if (!t.on_)
        return;
    t_ = &t;
    index_ = static_cast<int>(t.spans_.size());
    Span s;
    s.name = name;
    s.parent = t.current_;
    s.req = req;
    t.spans_.push_back(s);
    t.current_ = index_;
    // Stamp last so the bookkeeping above stays outside the span.
    t.spans_.back().startNs = t.nowNs();
}

Tracer::Scope::~Scope()
{
    if (t_ == nullptr)
        return;
    Span &s = t_->spans_[static_cast<std::size_t>(index_)];
    s.endNs = t_->nowNs();
    t_->current_ = s.parent;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::vector<double>
Tracer::durations(const std::string &name, std::size_t from) const
{
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs >= 0 && name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) *
                          1e-9);
    }
    return out;
}

double
Tracer::coverage(const std::vector<std::string> &parents,
                 std::size_t from) const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0 && s.endNs >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::int64_t total = 0;
    std::int64_t covered = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0 || std::find(parents.begin(), parents.end(),
                                     s.name) == parents.end())
            continue;
        total += s.endNs - s.startNs;
        covered += childNs[i];
    }
    return total > 0 ? static_cast<double>(covered) /
                           static_cast<double>(total)
                     : 0.0;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    // Complete ("X") events in microseconds, the format
    // sim/trace_export writes for the chip's dispatch rows; the span
    // tree is flattened by nesting on one thread row, with the
    // parent index and request id kept in args.
    tsp::JsonWriter j;
    j.beginObject();
    j.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        j.beginObject();
        j.kv("name", s.name);
        j.kv("cat", "perfbench");
        j.kv("ph", "X");
        j.kv("pid", 1);
        j.kv("tid", 1);
        j.kv("ts", static_cast<double>(s.startNs) * 1e-3);
        j.kv("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        j.key("args").beginObject();
        j.kv("span", static_cast<std::int64_t>(i));
        j.kv("parent", static_cast<std::int64_t>(s.parent));
        j.kv("request", s.req);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.kv("displayTimeUnit", "ns");
    j.endObject();
    std::ofstream out(path);
    out << j.str() << "\n";
    return static_cast<bool>(out);
}

void
reportPasses(const std::vector<PassTiming> &passes, bool traced,
             Report &rep, const Tracer &tr, std::size_t mark,
             const char *passSpan)
{
    std::vector<double> setup, rps, setupOn, rpsOn, setupOff, rpsOff;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassTiming &p = passes[i];
        const double r = p.requests / p.hostS;
        (p.traced ? setupOn : setup).push_back(p.setupS);
        (p.traced ? rpsOn : rps).push_back(r);
        if (!p.traced && i > 0) {
            setupOff.push_back(p.setupS);
            rpsOff.push_back(r);
        }
    }
    rep.e2e("setup_s", median(setup), "s");
    rep.e2e("host_rps", quantile(rps, kHostRateQuantile), "1/s");
    if (!traced)
        return;
    const double rpsTraced = median(rpsOn);
    rep.layer("trace.overhead.host_rps",
              rpsTraced > 0.0 ? median(rpsOff) / rpsTraced - 1.0 : 0.0,
              "share");
    const double setupBase = median(setupOff);
    rep.layer("trace.overhead.setup_s",
              setupBase > 0.0 ? (median(setupOn) - setupBase) / setupBase
                              : 0.0,
              "share");
    rep.layer("trace.coverage.host_rps", tr.coverage({passSpan}, mark),
              "share");
    rep.layer("trace.coverage.setup_s", tr.coverage({"setup"}, mark),
              "share");
}

std::string
hostFingerprintJson()
{
    const char *forced = std::getenv("TSP_FORCE_SCALAR");
    const std::string tier = !tsp::simdKernelsEnabled() ? "scalar"
                             : tsp::cpuHasAvx512Vnni()  ? "avx2+vnni"
                                                        : "avx2";
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(std::min(colon + 2, line.size()));
            break;
        }
    }
    tsp::JsonWriter j;
    j.beginObject();
    j.kv("simd_tier", tier);
    j.kv("tsp_force_scalar",
         std::string(forced != nullptr ? forced : ""));
    j.kv("cores",
         static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    j.kv("cpu", cpu);
#if defined(__clang__)
    j.kv("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    j.kv("compiler", std::string("gcc ") + __VERSION__);
#else
    j.kv("compiler", "unknown");
#endif
    j.kv("build_type", TSP_PERFBENCH_BUILD_TYPE);
    j.endObject();
    return j.str();
}

} // namespace perfbench
