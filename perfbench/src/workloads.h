/**
 * @file
 * The four closed-loop workloads and the helpers they share. Each
 * workload sets up several times (setup_s is the median), measures
 * for the run's seconds and fills the Report: the end-to-end metrics
 * untraced, or, traced, an untraced half and a traced half whose
 * difference is the tracing overhead plus the per-layer metrics.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <map>
#include <memory>
#include <string>

#include "measure.h"
#include "mgsp/config.h"
#include "pmem/pmem_device.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string traceOut;  ///< Chrome trace path (traced runs)
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

void runKvZipf(const RunConfig &rc, Report &report);
void runBulkSeq(const RunConfig &rc, Report &report);
void runTpccTxn(const RunConfig &rc, Report &report);
void runCrashRecover(const RunConfig &rc, Report &report);

/**
 * MgspConfig{} defaults with only the arena size set: the engine as a
 * user gets it (read cache on, default pool fraction).
 */
inline mgsp::MgspConfig
defaultConfig(u64 arena_bytes)
{
    mgsp::MgspConfig cfg;
    cfg.arenaSize = arena_bytes;
    return cfg;
}

/** A device whose bytes are counted in EmulatedBytes while alive. */
std::shared_ptr<mgsp::PmemDevice> makeDevice(u64 size,
                                             mgsp::PmemDevice::Mode mode);
std::shared_ptr<mgsp::PmemDevice> makeDevice(const mgsp::CrashImage &image);

/** Values of the end-to-end metrics every workload reports. */
struct EndToEnd
{
    std::vector<double> setupSeconds;
    double opsPerSec = 0;
    u64 opsSamples = 0;
    double p50Us = 0;
    u64 latencySamples = 0;
    double writeAmp = 0;
    u64 writeAmpBytes = 0;
    std::string opNote;   ///< what one op is on this workload
    std::string p50Note;  ///< what the latency covers
    std::string ampNote;  ///< which writes write_amp covers
};

/** Adds the end-to-end set (setup_s, ops_per_s, p50_us, write_amp,
 * dram_mib) to @p report: as the gate untraced, as info traced. */
void addEndToEnd(Report &report, const EndToEnd &e, bool gate);

/** Prints traced-vs-untraced differences of the end-to-end values. */
void addOverhead(Report &report, const EndToEnd &untraced,
                 const EndToEnd &traced);

/**
 * Emits every per-layer metric by name (the traced run's gate set).
 * Metrics missing from @p values are 0: the layer does no such work
 * on this workload.
 */
void addPerLayer(Report &report, const std::map<std::string, double> &values,
                 u64 samples);

class Tracer;

/** Writes the traced run's Chrome trace to rc.traceOut, if set. */
void writeTrace(Report &report, const Tracer &tracer, const RunConfig &rc);

/** Ratio that is 0 when the denominator is. */
inline double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
