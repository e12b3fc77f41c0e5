#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

// ---- ScrambledZipf -------------------------------------------------

namespace {

double
zeta(u64 n, double theta)
{
    double sum = 0;
    for (u64 i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

u64
fnv1a64(u64 v)
{
    u64 h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
        h ^= v & 0xFF;
        h *= 0x100000001B3ull;
        v >>= 8;
    }
    return h;
}

}  // namespace

ScrambledZipf::ScrambledZipf(u64 items, double theta)
    : items_(items), theta_(theta), zetaN_(zeta(items, theta)),
      alpha_(1.0 / (1.0 - theta))
{
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items), 1.0 - theta)) /
           (1.0 - zeta(2, theta) / zetaN_);
}

u64
ScrambledZipf::next(BenchRng &rng) const
{
    const double u = rng.unit();
    const double uz = u * zetaN_;
    u64 rank;
    if (uz < 1.0)
        rank = 0;
    else if (uz < 1.0 + std::pow(0.5, theta_))
        rank = 1;
    else
        rank = std::min<u64>(
            items_ - 1,
            static_cast<u64>(static_cast<double>(items_) *
                             std::pow(eta_ * u - eta_ + 1.0, alpha_)));
    return fnv1a64(rank) % items_;
}

// ---- LatencyHist ---------------------------------------------------

u32
LatencyHist::bucketOf(u64 v)
{
    if (v < kSub)
        return static_cast<u32>(v);
    const u32 msb = 63 - static_cast<u32>(__builtin_clzll(v));
    const u32 shift = msb - 8;  // keep 9 significant bits: 1 + 8 sub
    const u32 b = (shift + 1) * kSub + static_cast<u32>((v >> shift) - kSub);
    return std::min(b, kBuckets - 1);
}

u64
LatencyHist::bucketLow(u32 b)
{
    if (b < kSub)
        return b;
    const u32 shift = b / kSub - 1;
    return (static_cast<u64>(b % kSub) + kSub) << shift;
}

void
LatencyHist::record(u64 nanos)
{
    ++counts_[bucketOf(nanos)];
    ++count_;
}

void
LatencyHist::merge(const LatencyHist &other)
{
    for (u32 b = 0; b < kBuckets; ++b)
        counts_[b] += other.counts_[b];
    count_ += other.count_;
}

double
LatencyHist::quantileUs(double q) const
{
    if (count_ == 0)
        return 0;
    const double rank = q * static_cast<double>(count_ - 1);
    u64 seen = 0;
    for (u32 b = 0; b < kBuckets; ++b) {
        if (counts_[b] == 0)
            continue;
        if (static_cast<double>(seen + counts_[b]) > rank) {
            const double lo = static_cast<double>(bucketLow(b));
            const double hi = static_cast<double>(bucketLow(b + 1));
            const double frac = (rank - static_cast<double>(seen) + 0.5) /
                                static_cast<double>(counts_[b]);
            return (lo + (hi - lo) * frac) / 1000.0;
        }
        seen += counts_[b];
    }
    return static_cast<double>(bucketLow(kBuckets - 1)) / 1000.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

// ---- Failures ------------------------------------------------------

bool
Failures::check(const char *op, const Status &s)
{
    if (!s.isOk()) {
        fail(op, s);
        return false;
    }
    ++attempted_;
    ++perOp_[op][0];
    return true;
}

void
Failures::addOk(const char *op, u64 n)
{
    attempted_ += n;
    perOp_[op][0] += n;
}

void
Failures::fail(const char *op, const Status &s)
{
    ++attempted_;
    ++failed_;
    auto &c = perOp_[op];
    ++c[0];
    ++c[1];
    const int code = static_cast<int>(s.code());
    ++perCode_[code];
    firstByCode_.emplace(code, std::string(op) + ": " + s.toString());
}

void
Failures::merge(const Failures &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &[op, c] : other.perOp_) {
        perOp_[op][0] += c[0];
        perOp_[op][1] += c[1];
    }
    for (const auto &[code, n] : other.perCode_)
        perCode_[code] += n;
    for (const auto &[code, msg] : other.firstByCode_)
        firstByCode_.emplace(code, msg);
}

void
Failures::print() const
{
    for (const auto &[op, c] : perOp_)
        std::printf("ops      %-22s attempted=%llu failed=%llu\n", op.c_str(),
                    static_cast<unsigned long long>(c[0]),
                    static_cast<unsigned long long>(c[1]));
    for (const auto &[code, n] : perCode_)
        std::printf("failure  %-22s count=%llu first=\"%s\"\n",
                    mgsp::statusCodeName(static_cast<StatusCode>(code)),
                    static_cast<unsigned long long>(n),
                    firstByCode_.at(code).c_str());
}

// ---- DevCounts -----------------------------------------------------

DevCounts
DevCounts::of(mgsp::PmemDevice &device)
{
    mgsp::PmemStats &s = device.stats();
    DevCounts c;
    c.bytesWritten = s.bytesWritten.load();
    c.bytesFlushed = s.bytesFlushed.load();
    c.flushedLines = s.flushedLines.load();
    c.fences = s.fences.load();
    return c;
}

DevCounts
DevCounts::operator-(const DevCounts &o) const
{
    return {bytesWritten - o.bytesWritten, bytesFlushed - o.bytesFlushed,
            flushedLines - o.flushedLines, fences - o.fences};
}

std::string
DevCounts::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "bytes=%llu flushed_bytes=%llu lines=%llu fences=%llu",
                  static_cast<unsigned long long>(bytesWritten),
                  static_cast<unsigned long long>(bytesFlushed),
                  static_cast<unsigned long long>(flushedLines),
                  static_cast<unsigned long long>(fences));
    return buf;
}

// ---- memory --------------------------------------------------------

namespace {
std::atomic<u64> gEmuLive{0};
std::atomic<u64> gEmuPeak{0};
}  // namespace

void
EmulatedBytes::add(u64 bytes)
{
    const u64 live = gEmuLive.fetch_add(bytes) + bytes;
    u64 peak = gEmuPeak.load();
    while (live > peak && !gEmuPeak.compare_exchange_weak(peak, live)) {
    }
}

void
EmulatedBytes::sub(u64 bytes)
{
    gEmuLive.fetch_sub(bytes);
}

u64
EmulatedBytes::peak()
{
    return gEmuPeak.load();
}

u64
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<u64>(ru.ru_maxrss) * 1024;
}

// ---- Report --------------------------------------------------------

void
Report::problem(const std::string &what)
{
    correct = false;
    problems.push_back(what);
}

namespace {

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
printMetric(const char *tag, const Metric &m)
{
    std::printf("%-8s %-34s %16.6f %-6s n=%-9llu %s\n", tag, m.name.c_str(),
                finite(m.value), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
}

}  // namespace

void
Report::emit() const
{
    for (const Metric &m : gate)
        printMetric("metric", m);
    for (const Metric &m : info)
        printMetric("info", m);
    failures.print();
    for (const std::string &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<u64>(1, failures.attempted())),
                static_cast<unsigned long long>(failures.failed()));
    for (std::size_t i = 0; i < gate.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", gate[i].name.c_str(),
                    finite(gate[i].value), gate[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace perfbench
