/**
 * @file
 * Benchmark entry point: argument parsing, the run guard, provenance,
 * workload dispatch and the reporting helpers every workload shares.
 *
 * Usage: mgsp_perfbench --workload <kv-zipf|bulk-seq|tpcc-txn|
 *        crash-recover> --seed <n> --seconds <s> --trace <0|1>
 *        [--trace-out <file.json>] [--git-sha <sha>]
 */
#include <cpuid.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/clock.h"
#include "traced_fs.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Tracks a device's emulated bytes for the dram_mib accounting. */
struct DeviceDeleter
{
    u64 bytes;
    void
    operator()(mgsp::PmemDevice *d) const
    {
        delete d;
        EmulatedBytes::sub(bytes);
    }
};

}  // namespace

std::shared_ptr<mgsp::PmemDevice>
makeDevice(u64 size, mgsp::PmemDevice::Mode mode)
{
    // Tracked mode keeps a second full copy (the durable media).
    const u64 bytes = mode == mgsp::PmemDevice::Mode::Tracked ? 2 * size
                                                              : size;
    EmulatedBytes::add(bytes);
    return std::shared_ptr<mgsp::PmemDevice>(
        new mgsp::PmemDevice(size, mode), DeviceDeleter{bytes});
}

std::shared_ptr<mgsp::PmemDevice>
makeDevice(const mgsp::CrashImage &image)
{
    const u64 bytes = image.media.size();
    EmulatedBytes::add(bytes);
    return std::shared_ptr<mgsp::PmemDevice>(
        new mgsp::PmemDevice(image, mgsp::PmemDevice::Mode::Flat),
        DeviceDeleter{bytes});
}

void
addEndToEnd(Report &report, const EndToEnd &e, bool gate)
{
    auto add = [&](Metric m) {
        if (gate)
            report.addGate(std::move(m));
        else
            report.addInfo(std::move(m));
    };
    add({"setup_s", quantile(e.setupSeconds, 0.5), "s",
         e.setupSeconds.size(), "median of the run's set-ups"});
    add({"ops_per_s", e.opsPerSec, "ops/s", e.opsSamples, e.opNote});
    add({"p50_us", e.p50Us, "us", e.latencySamples, e.p50Note});
    add({"write_amp", e.writeAmp, "ratio", e.writeAmpBytes, e.ampNote});
    const double dram =
        static_cast<double>(peakRssBytes()) -
        static_cast<double>(EmulatedBytes::peak());
    add({"dram_mib", dram / static_cast<double>(MiB), "MiB", 1,
         "peak RSS minus peak emulated NVM bytes"});
}

void
addOverhead(Report &report, const EndToEnd &untraced, const EndToEnd &traced)
{
    auto pct = [](double base, double with) {
        return base == 0 ? 0.0 : (with - base) / base * 100.0;
    };
    report.addInfo({"tracing_overhead.ops_per_s",
                    pct(untraced.opsPerSec, traced.opsPerSec), "%",
                    traced.opsSamples, "traced half vs untraced half"});
    report.addInfo({"tracing_overhead.p50_us",
                    pct(untraced.p50Us, traced.p50Us), "%",
                    traced.latencySamples, "traced half vs untraced half"});
}

void
addPerLayer(Report &report, const std::map<std::string, double> &values,
            u64 samples)
{
    static const char *const kNames[][2] = {
        {"vfs.sync.us_per_call", "us"},
        {"vfs.pwrite.calls_per_txn", "calls"},
        {"vfs.pwrite.kib_per_txn", "KiB"},
        {"vfs.pread.calls_per_txn", "calls"},
        {"vfs.txn_commit.us_per_txn", "us"},
        {"vfs.txn_commit.busy_ratio", "ratio"},
        {"vfs.us_per_txn", "us"},
        {"minidb.self_us_per_txn", "us"},
        {"mgsp.tree.fine_units_per_write", "units"},
        {"mgsp.tree.coarse_logs_per_write", "logs"},
        {"mgsp.tree.min_tree_hit_ratio", "ratio"},
        {"mgsp.cache.hit_ratio", "ratio"},
        {"mgsp.cache.evictions_per_read", "frames"},
        {"mgsp.cache.invalidations_per_write", "frames"},
        {"mgsp.recovery.mount_ms", "ms"},
        {"mgsp.recovery.writeback_ms", "ms"},
        {"mgsp.recovery.records_scanned", "count"},
        {"pmem.fences_per_write", "fences"},
        {"pmem.flush_lines_per_write", "lines"},
        {"pmem.fences_per_txn", "fences"},
        {"pmem.flush_lines_per_txn", "lines"},
        {"pmem.writeback_mib", "MiB"},
    };
    for (const auto &[name, unit] : kNames) {
        auto it = values.find(name);
        const bool have = it != values.end();
        report.addGate({name, have ? it->second : 0.0, unit,
                        have ? samples : 0,
                        have ? "" : "n/a on this workload"});
    }
    for (const auto &[name, value] : values) {
        bool listed = false;
        for (const auto &n : kNames)
            listed = listed || name == n[0];
        if (!listed)
            report.problem("unlisted per-layer metric " + name);
    }
}

void
writeTrace(Report &report, const Tracer &tracer, const RunConfig &rc)
{
    if (rc.traceOut.empty())
        return;
    if (!tracer.writeChromeTrace(rc.traceOut))
        report.problem("cannot write trace " + rc.traceOut);
    report.addInfo({"trace.dropped_spans",
                    static_cast<double>(tracer.droppedSpans()), "count", 1,
                    "spans beyond the first " +
                        std::to_string(Tracer::kKeptSpans) +
                        " per thread, counted but not in " + rc.traceOut});
}

namespace {

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

/**
 * Refuses runs whose numbers would not be comparable: delay
 * injection off (the emulated NVM would cost nothing) or the
 * engine's stats/trace plane overridden from the environment.
 */
bool
guardOk()
{
    for (const char *var : {"MGSP_NO_DELAY", "MGSP_TRACE", "MGSP_STATS"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; unset "
                         "it (numbers must come from the default engine "
                         "with delay injection on)\n",
                         var);
            return false;
        }
    }
    if (!mgsp::delayInjectionEnabled()) {
        std::fprintf(stderr, "perfbench: delay injection is off\n");
        return false;
    }
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mgsp_perfbench --workload <kv-zipf|bulk-seq|"
                 "tpcc-txn|crash-recover> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--git-sha <sha>]\n");
    return 2;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig rc;
    std::string git_sha = "unknown";
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            rc.workload = val;
        else if (key == "--seed") {
            rc.seed = std::strtoull(val, nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds")
            rc.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            rc.traced = std::strcmp(val, "0") != 0;
        else if (key == "--trace-out")
            rc.traceOut = val;
        else if (key == "--git-sha")
            git_sha = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || !have_seed || !(rc.seconds > 0) ||
        rc.workload.empty())
        return usage();
    if (!guardOk())
        return 2;
    // A fixed mmap threshold (glibc's initial default) turns off its
    // dynamic raise, which otherwise moves large engine allocations
    // onto the heap after the first big free, so peak RSS came to
    // depend on allocation history rather than on live memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    std::printf("provenance workload=%s seed=%llu seconds=%g traced=%d "
                "cores=%u cpu=\"%s\" build=%s git=%s\n",
                rc.workload.c_str(), static_cast<unsigned long long>(rc.seed),
                rc.seconds, rc.traced ? 1 : 0,
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PERFBENCH_BUILD_TYPE, git_sha.c_str());
    std::fflush(stdout);

    Report report;
    if (rc.workload == "kv-zipf")
        runKvZipf(rc, report);
    else if (rc.workload == "bulk-seq")
        runBulkSeq(rc, report);
    else if (rc.workload == "tpcc-txn")
        runTpccTxn(rc, report);
    else if (rc.workload == "crash-recover")
        runCrashRecover(rc, report);
    else
        return usage();

    const double failed_ratio =
        ratio(static_cast<double>(report.failures.failed()),
              static_cast<double>(report.failures.attempted()));
    report.addInfo({"failed_op_ratio", failed_ratio, "ratio",
                    report.failures.attempted(),
                    "failed ops / attempted ops, set-up included"});
    report.emit();
    return report.correct ? 0 : 1;
}
