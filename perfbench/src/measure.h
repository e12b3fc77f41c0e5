/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: input
 * generation from the run seed, latency histograms, failure
 * accounting, device-counter deltas, memory accounting and the
 * result report (human-readable lines plus the final JSON line).
 */
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "pmem/pmem_device.h"

namespace perfbench {

using mgsp::Status;
using mgsp::StatusCode;
using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u64 KiB = 1024;
constexpr u64 MiB = 1024 * KiB;

/** Monotonic nanoseconds (steady_clock). */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** SplitMix64 mixer: the benchmark's only source of input bytes. */
inline u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Seeded generator; the same seed gives the same inputs. */
class BenchRng
{
  public:
    explicit BenchRng(u64 seed) : state_(mix64(seed)) {}
    u64 next() { return mix64(state_++); }
    /** Uniform in [0, bound). */
    u64 below(u64 bound) { return next() % bound; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    u64 state_;
};

/**
 * YCSB's scrambled Zipfian: a Zipfian rank (Gray et al.) hashed over
 * the key space, so hot keys are spread across the file instead of
 * packed at its start.
 */
class ScrambledZipf
{
  public:
    ScrambledZipf(u64 items, double theta);
    u64 next(BenchRng &rng) const;

  private:
    u64 items_;
    double theta_;
    double zetaN_;
    double alpha_;
    double eta_;
};

/**
 * Log-linear latency histogram: 256 sub-buckets per power of two
 * (0.4% wide), so percentiles resolve far finer than any regression
 * bound. Percentiles interpolate linearly inside the bucket.
 */
class LatencyHist
{
  public:
    void record(u64 nanos);
    void merge(const LatencyHist &other);
    u64 count() const { return count_; }
    /** @p q in [0, 1]; microseconds; 0 when empty. */
    double quantileUs(double q) const;

  private:
    static constexpr u32 kSub = 256;
    static constexpr u32 kBuckets = 48 * kSub;
    static u32 bucketOf(u64 v);
    static u64 bucketLow(u32 b);
    std::vector<u64> counts_ = std::vector<u64>(kBuckets, 0);
    u64 count_ = 0;
};

/** Median (q=0.5) or other quantile of a small sample vector. */
double quantile(std::vector<double> v, double q);

/**
 * Failure accounting: every attempted operation is counted, every
 * non-Ok Status (and every short read or failed check) is counted
 * per op type and per StatusCode, and the first failing Status of
 * each code is kept for the report.
 */
class Failures
{
  public:
    /** Counts one attempt of @p op; returns s.isOk(). */
    bool check(const char *op, const Status &s);
    /** Counts one attempt of @p op that failed with @p s. */
    void fail(const char *op, const Status &s);
    /** Counts @p n successful attempts of @p op (hot loops batch). */
    void addOk(const char *op, u64 n);
    void merge(const Failures &other);
    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }
    void print() const;

  private:
    u64 attempted_ = 0;
    u64 failed_ = 0;
    std::map<std::string, std::array<u64, 2>> perOp_;  ///< attempted, failed
    std::map<int, u64> perCode_;
    std::map<int, std::string> firstByCode_;
};

/** Snapshot of a device's persistence counters. */
struct DevCounts
{
    u64 bytesWritten = 0;
    u64 bytesFlushed = 0;
    u64 flushedLines = 0;
    u64 fences = 0;

    static DevCounts of(mgsp::PmemDevice &device);
    DevCounts operator-(const DevCounts &o) const;
    bool operator==(const DevCounts &o) const = default;
    std::string str() const;
};

/**
 * Bytes of emulated NVM (devices, crash images) alive in this
 * process. dram_mib is peak RSS minus the peak of this sum, so it
 * reports the engine's and the benchmark's own memory only.
 */
class EmulatedBytes
{
  public:
    static void add(u64 bytes);
    static void sub(u64 bytes);
    static u64 peak();
};

/** Peak resident set size of this process in bytes (getrusage). */
u64 peakRssBytes();

/** One named number with its unit and the sample count behind it. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    u64 samples = 0;
    std::string note;
};

/**
 * What one run reports. `gate` holds the metrics of the final JSON
 * line (the end-to-end set untraced, the per-layer set traced);
 * `info` holds the rest of the human-readable report.
 */
struct Report
{
    bool correct = true;
    Failures failures;
    std::vector<Metric> gate;
    std::vector<Metric> info;
    std::vector<std::string> problems;

    void addGate(Metric m) { gate.push_back(std::move(m)); }
    void addInfo(Metric m) { info.push_back(std::move(m)); }
    /** Marks the run incorrect and records why. */
    void problem(const std::string &what);
    /** Prints the human-readable report and the final JSON line. */
    void emit() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H
