/**
 * @file
 * The application and recovery workloads: tpcc-txn (runTpcc in
 * JournalMode::Txn, one client) and crash-recover (repeated
 * mount + open + close of one crash image, each on a fresh copy).
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "mgsp/mgsp_fs.h"
#include "traced_fs.h"
#include "workloads.h"
#include "workloads/tpcc.h"

namespace perfbench {

using mgsp::ConstSlice;
using mgsp::File;
using mgsp::FileSystem;
using mgsp::MgspFs;
using mgsp::MutSlice;
using mgsp::OpenOptions;
using mgsp::StatusOr;

// ====================================================================
// tpcc-txn
// ====================================================================

namespace {

constexpr u64 kTpccArena = 768 * MiB;

/** Counters of one runTpcc call on a freshly formatted engine. */
struct TpccCall
{
    bool ok = false;
    double loopSeconds = 0;  ///< runTpcc's measured transaction loop
    double wallSeconds = 0;  ///< format + the whole runTpcc call
    u64 txns = 0;
    DevCounts dev;
    u64 logical = 0;
    SpanTotals spans;
};

TpccCall
tpccCall(Report &report, const std::shared_ptr<mgsp::PmemDevice> &device,
         const mgsp::TpccConfig &tc, Tracer *tracer)
{
    TpccCall call;
    const u64 t0 = nowNs();
    StatusOr<std::unique_ptr<MgspFs>> fs =
        MgspFs::format(device, defaultConfig(kTpccArena));
    if (!report.failures.check("format", fs.status()))
        return call;
    std::unique_ptr<TracedFs> traced;
    FileSystem *api = maybeTraced(fs->get(), tracer, traced);
    const DevCounts d0 = DevCounts::of(*device);
    const u64 l0 = (*fs)->logicalBytesWritten();
    const SpanTotals s0 = tracer ? tracer->totals() : SpanTotals{};
    StatusOr<mgsp::TpccResult> r = [&] {
        Span span(tracer, SpanKind::RunTpcc);
        return mgsp::runTpcc(api, tc);
    }();
    call.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
    call.dev = DevCounts::of(*device) - d0;
    call.logical = (*fs)->logicalBytesWritten() - l0;
    if (tracer != nullptr)
        call.spans = tracer->totals() - s0;
    if (!report.failures.check("runTpcc", r.status())) {
        // runTpcc ends with TPC-C's money-conservation check.
        if (r.status().code() == StatusCode::Internal)
            report.problem("tpcc-txn: " + r.status().toString());
        return call;
    }
    call.ok = true;
    call.loopSeconds = r->seconds;
    call.txns = r->newOrders + r->payments + r->orderStatuses;
    if (call.txns != tc.transactions)
        report.problem("tpcc-txn ran " + std::to_string(call.txns) +
                       " of " + std::to_string(tc.transactions) +
                       " transactions");
    return call;
}

/** Runs calls for @p seconds of wall time. */
std::vector<TpccCall>
tpccWindow(Report &report, const std::shared_ptr<mgsp::PmemDevice> &device,
           const mgsp::TpccConfig &tc, double seconds, Tracer *tracer)
{
    // Call i runs seed tc.seed + i, so one seed's transaction mix does
    // not bias the whole run; call 0 matches the load-only baseline.
    std::vector<TpccCall> calls;
    const u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    mgsp::TpccConfig call_tc = tc;
    while (nowNs() < deadline) {
        Tracer::setOp(calls.size());
        TpccCall c = tpccCall(report, device, call_tc, tracer);
        ++call_tc.seed;
        if (c.ok)
            calls.push_back(c);
    }
    return calls;
}

EndToEnd
tpccEndToEnd(const std::vector<TpccCall> &calls, const TpccCall &load)
{
    EndToEnd e;
    std::vector<double> rates, lat;
    for (const TpccCall &c : calls) {
        rates.push_back(static_cast<double>(c.txns) / c.loopSeconds);
        lat.push_back(c.loopSeconds / static_cast<double>(c.txns) * 1e6);
    }
    e.opsPerSec = quantile(rates, 0.5);
    e.opsSamples = rates.size();
    e.p50Us = quantile(lat, 0.5);
    e.latencySamples = lat.size();
    if (!calls.empty()) {
        const u64 logical = calls[0].logical - load.logical;
        e.writeAmp = ratio(
            static_cast<double>(calls[0].dev.bytesWritten -
                                load.dev.bytesWritten),
            static_cast<double>(logical));
        e.writeAmpBytes = logical;
    }
    e.opNote = "TPC-C transactions, median over runTpcc calls";
    e.p50Note = "loop time / transactions, median over runTpcc calls";
    e.ampNote = "added by the transactions over a load-only call, "
                "close-time write-back included";
    return e;
}

u64
pwriteCalls(const SpanTotals &s)
{
    return s[SpanKind::Pwrite].calls + s[SpanKind::Pwritev].calls +
           s[SpanKind::TxnPwrite].calls;
}

u64
pwriteBytes(const SpanTotals &s)
{
    return s[SpanKind::Pwrite].bytes + s[SpanKind::Pwritev].bytes +
           s[SpanKind::TxnPwrite].bytes;
}

/** Per-layer metrics: per-transaction deltas over the load-only call. */
std::map<std::string, double>
tpccLayers(const std::vector<TpccCall> &calls, const TpccCall &load)
{
    std::map<std::string, double> v;
    if (calls.empty())
        return v;
    const TpccCall &c = calls[0];
    const double txns = static_cast<double>(c.txns);
    const SpanTotals d = c.spans - load.spans;
    const DevCounts dev = c.dev - load.dev;
    const double writes = static_cast<double>(pwriteCalls(d));
    v["vfs.pwrite.calls_per_txn"] = writes / txns;
    v["vfs.pwrite.kib_per_txn"] =
        static_cast<double>(pwriteBytes(d)) / 1024.0 / txns;
    v["vfs.pread.calls_per_txn"] =
        static_cast<double>(d[SpanKind::Pread].calls +
                            d[SpanKind::Preadv].calls) /
        txns;
    v["vfs.txn_commit.busy_ratio"] =
        ratio(static_cast<double>(d[SpanKind::TxnCommit].busy),
              static_cast<double>(d[SpanKind::TxnCommit].calls));
    std::vector<double> commit_us, vfs_us, self_us;
    for (const TpccCall &call : calls) {
        const SpanTotals cd = call.spans - load.spans;
        const double n = static_cast<double>(call.txns);
        commit_us.push_back(static_cast<double>(cd[SpanKind::Txn].nanos) /
                            1000.0 / n);
        vfs_us.push_back(static_cast<double>(cd.vfsTopNanos) / 1000.0 / n);
        self_us.push_back((static_cast<double>(cd[SpanKind::RunTpcc].nanos) -
                           static_cast<double>(cd.vfsTopNanos)) /
                          1000.0 / n);
    }
    v["vfs.txn_commit.us_per_txn"] = quantile(commit_us, 0.5);
    v["vfs.us_per_txn"] = quantile(vfs_us, 0.5);
    v["minidb.self_us_per_txn"] = quantile(self_us, 0.5);
    v["pmem.fences_per_txn"] = static_cast<double>(dev.fences) / txns;
    v["pmem.flush_lines_per_txn"] =
        static_cast<double>(dev.flushedLines) / txns;
    v["pmem.fences_per_write"] =
        ratio(static_cast<double>(dev.fences), writes);
    v["pmem.flush_lines_per_write"] =
        ratio(static_cast<double>(dev.flushedLines), writes);
    return v;
}

}  // namespace

void
runTpccTxn(const RunConfig &rc, Report &report)
{
    auto device = makeDevice(kTpccArena, mgsp::PmemDevice::Mode::Flat);
    mgsp::TpccConfig tc;  // the src/workloads defaults ...
    tc.journal = mgsp::minidb::JournalMode::Txn;  // ... in Txn mode
    tc.seed = 1 + mix64(rc.seed) % 1000000007ull;
    mgsp::TpccConfig load_only = tc;
    load_only.transactions = 0;

    // Set-up = format + DB load: a call with no transactions. Its
    // counters are the baseline the per-transaction figures subtract.
    Tracer load_tracer, tracer;
    load_tracer.setEnabled(true);
    std::vector<TpccCall> loads;
    EndToEnd untraced, traced;
    for (int i = 0; i < kSetups; ++i) {
        const bool via_tracer = rc.traced && i == kSetups - 1;
        TpccCall c = tpccCall(report, device, load_only,
                              via_tracer ? &load_tracer : nullptr);
        if (!c.ok) {
            report.problem("tpcc-txn set-up failed");
            return;
        }
        loads.push_back(c);
        untraced.setupSeconds.push_back(c.wallSeconds);
    }

    const double window = rc.traced ? rc.seconds / 2 : rc.seconds;
    std::vector<TpccCall> plain =
        tpccWindow(report, device, tc, window, nullptr);
    if (plain.empty()) {
        report.problem("tpcc-txn: no call completed");
        return;
    }
    const std::vector<double> setups = untraced.setupSeconds;
    untraced = tpccEndToEnd(plain, loads[0]);
    untraced.setupSeconds = setups;
    report.addInfo({"txn_per_s", untraced.opsPerSec, "txn/s",
                    untraced.opsSamples, "runTpcc's measured loop"});
    addEndToEnd(report, untraced, !rc.traced);
    if (!rc.traced)
        return;

    tracer.setEnabled(true);
    std::vector<TpccCall> with = tpccWindow(report, device, tc, window, &tracer);
    tracer.setEnabled(false);
    if (with.empty()) {
        report.problem("tpcc-txn: no traced call completed");
        return;
    }
    traced = tpccEndToEnd(with, loads.back());
    report.addInfo({"traced.txn_per_s", traced.opsPerSec, "txn/s",
                    traced.opsSamples, "runTpcc's measured loop"});
    addOverhead(report, untraced, traced);
    addPerLayer(report, tpccLayers(with, loads.back()), with.size());
    const bool same = loads.front().dev == loads.back().dev &&
                      plain[0].dev == with[0].dev;
    if (!same)
        report.problem("traced run changed device counters: load " +
                       loads.front().dev.str() + " vs " +
                       loads.back().dev.str() + "; call " +
                       plain[0].dev.str() + " vs " + with[0].dev.str());
    report.addInfo({"transparency.device_counters", same ? 1.0 : 0.0, "bool",
                    2, "load-only and first full call, traced == untraced"});
    writeTrace(report, tracer, rc);
}

// ====================================================================
// crash-recover
// ====================================================================

namespace {

constexpr u64 kCrashArena = 192 * MiB;
constexpr u64 kCrashFile = 64 * MiB;
constexpr u64 kCrashBlock = 4 * KiB;
constexpr u64 kCrashBlocks = kCrashFile / kCrashBlock;
constexpr u64 kCrashWrites = 4000;
constexpr double kEvictionProb = 0.5;
const char *const kCrashPath = "crash.dat";

/** Content of @p block after its @p version-th write (0 = prefill). */
void
crashBlock(u8 *dst, u64 seed, u64 block, u64 version)
{
    const u64 h = mix64(seed ^ mix64(block * 1000003 + version));
    for (u64 w = 0; w < kCrashBlock / 8; ++w) {
        const u64 v = mix64(h + w);
        std::memcpy(dst + w * 8, &v, 8);
    }
}

/** Block written by write @p w (versions are w + 1). */
std::vector<u64>
crashWriteBlocks(u64 seed)
{
    BenchRng rng(seed ^ 0x5752495445ull);
    std::vector<u64> blocks(kCrashWrites);
    for (u64 &b : blocks)
        b = rng.below(kCrashBlocks);
    return blocks;
}

/** Sent by the image-building child ahead of the image bytes. */
struct ImageHeader
{
    u64 ok = 0;
    u64 lastWriteBoundaries = 0;  ///< persist boundaries of the last write
    u64 crashBoundary = 0;        ///< the one the crash image was taken at
    u64 imageBytes = 0;
    u64 logicalBytes = 0;  ///< user bytes of the random writes
    u64 deviceBytes = 0;   ///< device bytes stored during them
    char error[200] = {};
};

bool
writeAll(int fd, const void *buf, u64 len)
{
    const u8 *p = static_cast<const u8 *>(buf);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<u64>(n);
    }
    return true;
}

bool
readAll(int fd, void *buf, u64 len)
{
    u8 *p = static_cast<u8 *>(buf);
    while (len > 0) {
        const ssize_t n = ::read(fd, p, len);
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<u64>(n);
    }
    return true;
}

/**
 * Runs the write of @p data to @p block in a forked copy of this
 * (single-threaded) process and returns how many persist boundaries
 * it crossed; 0 on failure. The copy starts from identical state, so
 * the real write crosses the same boundaries.
 */
u64
rehearseBoundaries(File &file, mgsp::PmemDevice &device, u64 block,
                   ConstSlice data)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return 0;
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const u64 seq0 = device.persistSeq();
        const Status s = file.pwrite(block * kCrashBlock, data);
        const u64 n = s.isOk() ? device.persistSeq() - seq0 : 0;
        _exit(writeAll(fds[1], &n, sizeof(n)) ? 0 : 1);
    }
    ::close(fds[1]);
    u64 n = 0;
    if (pid < 0 || !readAll(fds[0], &n, sizeof(n)))
        n = 0;
    ::close(fds[0]);
    int wstatus = 0;
    if (pid > 0)
        ::waitpid(pid, &wstatus, 0);
    return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 ? n : 0;
}

/**
 * Child body: prefill, seeded 4 KiB random writes on a Tracked
 * device, crash image captured at a seeded persist boundary inside
 * the last write (seeded eviction of unfenced lines). Runs in its own
 * process so the Tracked device's line bookkeeping never counts in
 * the parent's peak RSS.
 */
[[noreturn]] void
buildImageChild(int fd, u64 seed)
{
    ImageHeader h;
    mgsp::CrashImage image;
    auto fail = [&](const Status &s) {
        std::snprintf(h.error, sizeof(h.error), "%s", s.toString().c_str());
        writeAll(fd, &h, sizeof(h));
        _exit(1);
    };
    auto device = std::make_shared<mgsp::PmemDevice>(
        kCrashArena, mgsp::PmemDevice::Mode::Tracked);
    StatusOr<std::unique_ptr<MgspFs>> fs =
        MgspFs::format(device, defaultConfig(kCrashArena));
    if (!fs.isOk())
        fail(fs.status());
    StatusOr<std::unique_ptr<File>> f =
        (*fs)->open(kCrashPath, OpenOptions::Create(kCrashFile));
    if (!f.isOk())
        fail(f.status());
    std::vector<u8> buf(1 * MiB);
    for (u64 off = 0; off < kCrashFile; off += buf.size()) {
        for (u64 b = 0; b < buf.size() / kCrashBlock; ++b)
            crashBlock(buf.data() + b * kCrashBlock, seed,
                       off / kCrashBlock + b, 0);
        Status s = (*f)->pwrite(off, ConstSlice(buf.data(), buf.size()));
        if (!s.isOk())
            fail(s);
    }
    const std::vector<u64> blocks = crashWriteBlocks(seed);
    const DevCounts d0 = DevCounts::of(*device);
    const u64 l0 = (*fs)->logicalBytesWritten();
    for (u64 w = 0; w < kCrashWrites; ++w) {
        crashBlock(buf.data(), seed, blocks[w], w + 1);
        const ConstSlice data(buf.data(), kCrashBlock);
        if (w == kCrashWrites - 1) {
            // Count the last write's persist boundaries on a forked
            // copy of this process, then crash at a seeded one of them.
            h.lastWriteBoundaries = rehearseBoundaries(**f, *device,
                                                       blocks[w], data);
            if (h.lastWriteBoundaries == 0)
                fail(Status::internal("rehearsal of the last write failed"));
            BenchRng pick(seed ^ 0xC4A5ull);
            h.crashBoundary = 1 + pick.below(h.lastWriteBoundaries);
            const u64 target = device->persistSeq() + h.crashBoundary;
            device->setPersistHook([&, target](u64 seq, mgsp::PersistPoint) {
                if (seq == target) {
                    mgsp::Rng evict(seed ^ 0xE71Cull);
                    image = device->captureCrashImage(evict, kEvictionProb);
                }
            });
        }
        Status s = (*f)->pwrite(blocks[w] * kCrashBlock, data);
        if (!s.isOk())
            fail(s);
    }
    h.deviceBytes = (DevCounts::of(*device) - d0).bytesWritten;
    h.logicalBytes = (*fs)->logicalBytesWritten() - l0;
    device->setPersistHook({});
    if (image.media.empty())
        fail(Status::internal("the crash boundary was never reached"));
    h.ok = 1;
    h.imageBytes = image.media.size();
    const bool sent = writeAll(fd, &h, sizeof(h)) &&
                      writeAll(fd, image.media.data(), image.media.size());
    _exit(sent ? 0 : 1);  // skip the engine's close-time write-back
}

/** A crash image counted in EmulatedBytes while alive. */
struct HeldImage
{
    mgsp::CrashImage image;
    ImageHeader header;
    HeldImage() = default;
    HeldImage(const HeldImage &) = delete;
    HeldImage &operator=(const HeldImage &) = delete;
    ~HeldImage() { EmulatedBytes::sub(image.media.size()); }
};

std::unique_ptr<HeldImage>
buildImage(Report &report, u64 seed)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        report.failures.fail("build-image", Status::ioError("pipe failed"));
        return nullptr;
    }
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        buildImageChild(fds[1], seed);
    }
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        report.failures.fail("build-image", Status::ioError("fork failed"));
        return nullptr;
    }
    auto held = std::make_unique<HeldImage>();
    bool ok = readAll(fds[0], &held->header, sizeof(ImageHeader)) &&
              held->header.ok == 1;
    if (ok) {
        EmulatedBytes::add(held->header.imageBytes);
        held->image.media.resize(held->header.imageBytes);
        ok = readAll(fds[0], held->image.media.data(),
                     held->image.media.size());
    }
    ::close(fds[0]);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    ok = ok && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (!ok) {
        report.failures.fail(
            "build-image",
            Status::internal(std::string("image build failed: ") +
                             held->header.error));
        return nullptr;
    }
    report.failures.addOk("build-image", 1);
    return held;
}

/** One recovery's timings and counters. */
struct Recovery
{
    double mountMs = 0;
    double writebackMs = 0;
    double totalMs = 0;
    DevCounts dev;        ///< mount through close
    DevCounts closeDev;   ///< across the close
    mgsp::RecoveryReport report;
    int lastWrite = -1;   ///< 1 applied, 0 not applied
};

/**
 * Checks the recovered file: every acknowledged write reads back and
 * the in-flight write is all or nothing. Returns the in-flight
 * outcome (1 applied, 0 not) or -1 after reporting a problem.
 */
int
verifyRecovered(Report &report, MgspFs &fs, u64 seed,
                const std::vector<u64> &blocks)
{
    std::vector<u64> version(kCrashBlocks, 0);
    for (u64 w = 0; w + 1 < kCrashWrites; ++w)
        version[blocks[w]] = w + 1;
    const u64 last = blocks.back();
    StatusOr<std::unique_ptr<File>> f = fs.open(kCrashPath, {});
    if (!report.failures.check("verify-open", f.status()))
        return -1;
    if ((*f)->size() != kCrashFile) {
        report.problem("crash-recover: file size " +
                       std::to_string((*f)->size()));
        return -1;
    }
    std::vector<u8> got(1 * MiB), want(kCrashBlock), fresh(kCrashBlock);
    crashBlock(fresh.data(), seed, last, kCrashWrites);
    int outcome = -1;
    u64 bad = 0;
    for (u64 off = 0; off < kCrashFile; off += got.size()) {
        StatusOr<u64> n = (*f)->pread(off, MutSlice(got.data(), got.size()));
        if (!n.isOk() || *n != got.size()) {
            report.failures.fail("verify-read",
                                 n.isOk() ? Status::ioError("short read")
                                          : n.status());
            return -1;
        }
        report.failures.addOk("verify-read", 1);
        for (u64 b = 0; b < got.size() / kCrashBlock; ++b) {
            const u64 block = off / kCrashBlock + b;
            const u8 *g = got.data() + b * kCrashBlock;
            crashBlock(want.data(), seed, block, version[block]);
            const bool old_ok = std::memcmp(g, want.data(), kCrashBlock) == 0;
            if (block != last) {
                bad += old_ok ? 0 : 1;
                continue;
            }
            const bool new_ok = std::memcmp(g, fresh.data(), kCrashBlock) == 0;
            outcome = new_ok ? 1 : old_ok ? 0 : -1;
            if (outcome < 0)
                report.problem("crash-recover: in-flight write is torn");
        }
    }
    if (bad != 0) {
        report.problem("crash-recover: " + std::to_string(bad) +
                       " blocks lost an acknowledged write");
        return -1;
    }
    return outcome;
}

Recovery
recoverOnce(Report &report, const HeldImage &held, u64 seed,
            const std::vector<u64> &blocks, Tracer *tracer)
{
    Recovery r;
    auto device = makeDevice(held.image);
    const DevCounts d0 = DevCounts::of(*device);
    const u64 t0 = nowNs();
    StatusOr<std::unique_ptr<MgspFs>> fs = [&] {
        Span span(tracer, SpanKind::Mount);
        return MgspFs::mount(device, defaultConfig(kCrashArena));
    }();
    const u64 t1 = nowNs();
    if (!report.failures.check("mount", fs.status()))
        return r;
    std::unique_ptr<TracedFs> traced;
    FileSystem *api = maybeTraced(fs->get(), tracer, traced);
    DevCounts before_close;
    {
        Span span(tracer, SpanKind::OpenClose);
        StatusOr<std::unique_ptr<File>> f = api->open(kCrashPath, {});
        if (!report.failures.check("open", f.status()))
            return r;
        before_close = DevCounts::of(*device);
    }  // the close writes every live log back home
    const u64 t2 = nowNs();
    const DevCounts d2 = DevCounts::of(*device);
    r.mountMs = static_cast<double>(t1 - t0) * 1e-6;
    r.writebackMs = static_cast<double>(t2 - t1) * 1e-6;
    r.totalMs = static_cast<double>(t2 - t0) * 1e-6;
    r.dev = d2 - d0;
    r.closeDev = d2 - before_close;
    r.report = (*fs)->recoveryReport();
    r.lastWrite = verifyRecovered(report, **fs, seed, blocks);
    return r;
}

struct RecoveryWindow
{
    std::vector<Recovery> runs;
    EndToEnd e;
};

RecoveryWindow
recoverFor(Report &report, const HeldImage &held, u64 seed, double seconds,
           Tracer *tracer)
{
    RecoveryWindow w;
    const std::vector<u64> blocks = crashWriteBlocks(seed);
    const u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    std::vector<double> total;
    for (u64 i = 0; nowNs() < deadline; ++i) {
        Tracer::setOp(i);
        Recovery r = recoverOnce(report, held, seed, blocks, tracer);
        if (r.lastWrite < 0)
            continue;
        if (!w.runs.empty() && r.lastWrite != w.runs[0].lastWrite)
            report.problem("crash-recover: in-flight outcome differs "
                           "between recoveries of one image");
        w.runs.push_back(r);
        total.push_back(r.totalMs);
    }
    w.e.p50Us = quantile(total, 0.5) * 1000.0;
    w.e.latencySamples = total.size();
    w.e.opsPerSec = ratio(1e6, w.e.p50Us);
    w.e.opsSamples = total.size();
    w.e.writeAmp = ratio(static_cast<double>(held.header.deviceBytes),
                         static_cast<double>(held.header.logicalBytes));
    w.e.writeAmpBytes = held.header.logicalBytes;
    w.e.opNote = "recoveries per second (1 / median recovery)";
    w.e.p50Note = "mount through the close's write-back";
    w.e.ampNote = "the image's 4 KiB random writes";
    return w;
}

void
recoveryInfo(Report &report, const RecoveryWindow &w, const char *tag)
{
    std::vector<double> mount, wb;
    for (const Recovery &r : w.runs) {
        mount.push_back(r.mountMs);
        wb.push_back(r.writebackMs);
    }
    const std::string t = tag;
    const u64 n = w.runs.size();
    report.addInfo({t + "recovery_p50_ms", w.e.p50Us / 1000.0, "ms", n,
                    "mount through the close's write-back"});
    report.addInfo({t + "mount_p50_ms", quantile(mount, 0.5), "ms", n, ""});
    report.addInfo({t + "writeback_p50_ms", quantile(wb, 0.5), "ms", n, ""});
}

}  // namespace

void
runCrashRecover(const RunConfig &rc, Report &report)
{
    std::unique_ptr<HeldImage> held;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        held.reset();  // one image alive at a time
        const u64 t0 = nowNs();
        held = buildImage(report, rc.seed);
        if (!held) {
            report.problem("crash-recover: image build failed");
            return;
        }
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    report.addInfo({"image.last_write_boundaries",
                    static_cast<double>(held->header.lastWriteBoundaries),
                    "count", 1, "persist boundaries of the in-flight write"});
    report.addInfo({"image.crash_boundary",
                    static_cast<double>(held->header.crashBoundary), "index",
                    1, "the seeded boundary the image was taken at"});

    const double window = rc.traced ? rc.seconds / 2 : rc.seconds;
    RecoveryWindow plain = recoverFor(report, *held, rc.seed, window, nullptr);
    if (plain.runs.empty()) {
        report.problem("crash-recover: no recovery succeeded");
        return;
    }
    plain.e.setupSeconds = setups;
    const Recovery &first = plain.runs[0];
    recoveryInfo(report, plain, "");
    report.addInfo({"recovery.records_scanned",
                    static_cast<double>(first.report.recordsScanned), "count",
                    1, ""});
    report.addInfo({"recovery.entries_replayed",
                    static_cast<double>(first.report.liveEntriesReplayed),
                    "count", 1, ""});
    report.addInfo({"recovery.in_flight_applied",
                    static_cast<double>(first.lastWrite), "bool", 1,
                    "the in-flight write survived whole (1) or not at all (0)"});
    addEndToEnd(report, plain.e, !rc.traced);
    if (!rc.traced)
        return;

    Tracer tracer;
    tracer.setEnabled(true);
    RecoveryWindow with = recoverFor(report, *held, rc.seed, window, &tracer);
    tracer.setEnabled(false);
    if (with.runs.empty()) {
        report.problem("crash-recover: no traced recovery succeeded");
        return;
    }
    recoveryInfo(report, with, "traced.");
    addOverhead(report, plain.e, with.e);
    std::vector<double> mount, wb;
    for (const Recovery &r : with.runs) {
        mount.push_back(r.mountMs);
        wb.push_back(r.writebackMs);
    }
    std::map<std::string, double> v;
    v["mgsp.recovery.mount_ms"] = quantile(mount, 0.5);
    v["mgsp.recovery.writeback_ms"] = quantile(wb, 0.5);
    v["mgsp.recovery.records_scanned"] =
        static_cast<double>(with.runs[0].report.recordsScanned);
    v["pmem.writeback_mib"] =
        static_cast<double>(with.runs[0].closeDev.bytesWritten) /
        static_cast<double>(MiB);
    addPerLayer(report, v, with.runs.size());
    const bool same = first.dev == with.runs[0].dev;
    if (!same)
        report.problem("traced recovery changed device counters: " +
                       first.dev.str() + " vs " + with.runs[0].dev.str());
    report.addInfo({"transparency.device_counters", same ? 1.0 : 0.0, "bool",
                    1, "first recovery, traced == untraced"});
    writeTrace(report, tracer, rc);
}

}  // namespace perfbench
