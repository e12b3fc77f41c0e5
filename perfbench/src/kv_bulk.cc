/**
 * @file
 * The two file-level workloads: kv-zipf (3 closed-loop clients doing
 * 1 KiB reads and durable overwrites of Zipfian keys) and bulk-seq
 * (one client doing sequential 1 MiB durable writes).
 */
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "mgsp/mgsp_fs.h"
#include "traced_fs.h"
#include "workloads.h"

namespace perfbench {

using mgsp::ConstSlice;
using mgsp::File;
using mgsp::FileSystem;
using mgsp::MgspFs;
using mgsp::MutSlice;
using mgsp::OpenOptions;
using mgsp::StatusOr;

namespace {

constexpr u64 kSliceNs = 500'000'000;  ///< throughput slice length

/** Counter deltas and samples of one measured window. */
struct Window
{
    LatencyHist reads;
    LatencyHist writes;
    std::vector<double> slices;  ///< ops per kSliceNs slice, see addOp
    double seconds = 0;
    DevCounts dev;
    u64 logical = 0;
    mgsp::TreeStats tree;
    mgsp::CacheStats cache;
    SpanTotals spans;
};

/**
 * Credits one op that ran over [t0, t1) to the throughput slices in
 * proportion to its overlap with each, so slice rates are not
 * quantised to whole ops.
 */
void
addOp(std::vector<double> &slices, u64 start, u64 t0, u64 t1)
{
    const double dur = static_cast<double>(std::max<u64>(1, t1 - t0));
    for (u64 s = (t0 - start) / kSliceNs;
         s < slices.size() && start + s * kSliceNs < t1; ++s) {
        const u64 lo = std::max(t0, start + s * kSliceNs);
        const u64 hi = std::min(t1, start + (s + 1) * kSliceNs);
        slices[s] += static_cast<double>(hi - lo) / dur;
    }
}

mgsp::TreeStats
treeDelta(const mgsp::TreeStats &a, const mgsp::TreeStats &b)
{
    mgsp::TreeStats d;
    d.coarseLogWrites = a.coarseLogWrites - b.coarseLogWrites;
    d.leafLogWrites = a.leafLogWrites - b.leafLogWrites;
    d.fineSubWrites = a.fineSubWrites - b.fineSubWrites;
    d.minTreeHits = a.minTreeHits - b.minTreeHits;
    d.minTreeMisses = a.minTreeMisses - b.minTreeMisses;
    d.writtenBackBytes = a.writtenBackBytes - b.writtenBackBytes;
    return d;
}

mgsp::CacheStats
cacheDelta(const mgsp::CacheStats &a, const mgsp::CacheStats &b)
{
    mgsp::CacheStats d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.evictions = a.evictions - b.evictions;
    d.invalidations = a.invalidations - b.invalidations;
    d.frameBytes = a.frameBytes;
    d.residentFrames = a.residentFrames;
    return d;
}

/** Counter snapshot taken at a window boundary. */
struct Marks
{
    DevCounts dev;
    u64 logical = 0;
    mgsp::TreeStats tree;
    mgsp::CacheStats cache;
    SpanTotals spans;
    u64 t = 0;
};

Marks
mark(MgspFs &fs, const char *path, const Tracer *tracer)
{
    Marks m;
    m.dev = DevCounts::of(*fs.device());
    m.logical = fs.logicalBytesWritten();
    StatusOr<mgsp::TreeStats> tree = fs.statsFor(path);
    if (tree.isOk())
        m.tree = *tree;
    m.cache = fs.cacheStats();
    if (tracer != nullptr)
        m.spans = tracer->totals();
    m.t = nowNs();
    return m;
}

void
closeWindow(Window &w, const Marks &a, const Marks &b)
{
    w.seconds = static_cast<double>(b.t - a.t) * 1e-9;
    w.dev = b.dev - a.dev;
    w.logical = b.logical - a.logical;
    w.tree = treeDelta(b.tree, a.tree);
    w.cache = cacheDelta(b.cache, a.cache);
    w.spans = b.spans - a.spans;
}

/** ops_per_s as the median over full throughput slices. */
void
sliceThroughput(const Window &w, EndToEnd &e)
{
    std::vector<double> rates;
    const std::size_t full = static_cast<std::size_t>(
        w.seconds * 1e9 / static_cast<double>(kSliceNs));
    for (std::size_t i = 0; i < full && i < w.slices.size(); ++i)
        rates.push_back(w.slices[i] * 1e9 / static_cast<double>(kSliceNs));
    e.opsPerSec = quantile(rates, 0.5);
    e.opsSamples = rates.size();
}

/** Per-layer values both file workloads produce from a window. */
std::map<std::string, double>
fileLayerMetrics(const Window &w, u64 reads, u64 writes)
{
    const double wr = static_cast<double>(writes);
    const SpanTotals::Row &sync = w.spans[SpanKind::Sync];
    std::map<std::string, double> v;
    v["vfs.sync.us_per_call"] =
        ratio(static_cast<double>(sync.nanos) / 1000.0,
              static_cast<double>(sync.calls));
    v["mgsp.tree.fine_units_per_write"] =
        ratio(static_cast<double>(w.tree.fineSubWrites), wr);
    v["mgsp.tree.coarse_logs_per_write"] =
        ratio(static_cast<double>(w.tree.coarseLogWrites), wr);
    v["mgsp.tree.min_tree_hit_ratio"] =
        ratio(static_cast<double>(w.tree.minTreeHits),
              static_cast<double>(w.tree.minTreeHits + w.tree.minTreeMisses));
    v["mgsp.cache.hit_ratio"] =
        ratio(static_cast<double>(w.cache.hits),
              static_cast<double>(w.cache.hits + w.cache.misses));
    v["mgsp.cache.evictions_per_read"] =
        ratio(static_cast<double>(w.cache.evictions),
              static_cast<double>(reads));
    v["mgsp.cache.invalidations_per_write"] =
        ratio(static_cast<double>(w.cache.invalidations), wr);
    v["pmem.fences_per_write"] = ratio(static_cast<double>(w.dev.fences), wr);
    v["pmem.flush_lines_per_write"] =
        ratio(static_cast<double>(w.dev.flushedLines), wr);
    return v;
}

/** Layer counters that need no spans, printed on every run. */
void
addCounterInfo(Report &report, const std::map<std::string, double> &v,
               u64 writes)
{
    for (const char *name :
         {"mgsp.tree.fine_units_per_write", "mgsp.tree.coarse_logs_per_write",
          "mgsp.tree.min_tree_hit_ratio", "mgsp.cache.hit_ratio",
          "mgsp.cache.evictions_per_read",
          "mgsp.cache.invalidations_per_write", "pmem.fences_per_write",
          "pmem.flush_lines_per_write"})
        report.addInfo({name, v.at(name), "", writes, "window counters"});
}

// ====================================================================
// kv-zipf
// ====================================================================

constexpr u64 kKvRecords = 65536;
constexpr u64 kKvRecord = 1 * KiB;
constexpr u64 kKvFile = kKvRecords * kKvRecord;  // 64 MiB, 8x the cache
constexpr u64 kKvArena = 512 * MiB;
constexpr u32 kKvClients = 3;
constexpr double kKvReadShare = 0.70;
constexpr double kKvTheta = 0.99;
constexpr u64 kRampChunkNs = 500'000'000;
constexpr int kRampMaxChunks = 8;
const char *const kKvPath = "kv.dat";

u8
kvPayloadByte(u64 slot, u64 version)
{
    return static_cast<u8>(slot * 31 + version * 7 + 1);
}

/** Record = slot, version | payload | version, slot. */
void
kvMakeRecord(u8 *rec, u64 slot, u64 version)
{
    std::memcpy(rec, &slot, 8);
    std::memcpy(rec + 8, &version, 8);
    std::memset(rec + 16, kvPayloadByte(slot, version), kKvRecord - 32);
    std::memcpy(rec + kKvRecord - 16, &version, 8);
    std::memcpy(rec + kKvRecord - 8, &slot, 8);
}

/** Parses and checks a record read from @p slot; "" when intact. */
std::string
kvCheckRecord(const u8 *rec, u64 slot, u64 *version)
{
    u64 hs, hv, tv, ts;
    std::memcpy(&hs, rec, 8);
    std::memcpy(&hv, rec + 8, 8);
    std::memcpy(&tv, rec + kKvRecord - 16, 8);
    std::memcpy(&ts, rec + kKvRecord - 8, 8);
    *version = hv;
    if (hs != slot || ts != slot)
        return "slot id mismatch";
    if (hv != tv)
        return "torn record (head/tail tags differ)";
    const u8 b = kvPayloadByte(slot, hv);
    for (u64 i = 16; i < kKvRecord - 16; ++i)
        if (rec[i] != b)
            return "payload does not match its tag";
    return "";
}

struct KvClientStats
{
    LatencyHist reads;
    LatencyHist writes;
    u64 readOk = 0;
    u64 writeOk = 0;
    std::vector<double> slices;
    Failures failures;
    u64 badRecords = 0;
    std::string firstBad;
};

/** Engine, handles and the per-slot version oracle of one set-up. */
struct KvState
{
    std::unique_ptr<MgspFs> fs;
    std::unique_ptr<TracedFs> traced;
    FileSystem *api = nullptr;  ///< what clients call: fs or traced
    std::vector<std::unique_ptr<File>> handles;
    /// Latest acknowledged version per slot; slot s is written only by
    /// client s % kKvClients, so the final file must match exactly.
    std::unique_ptr<std::atomic<u64>[]> versions;
};

/**
 * Runs the closed loop on every client for @p duration_ns. With
 * @p record the latencies and slice counts are kept.
 */
void
kvRunClients(KvState &st, const ScrambledZipf &zipf, u64 seed,
             u64 duration_ns, bool record, std::vector<KvClientStats> &out)
{
    out.assign(kKvClients, KvClientStats{});
    const u64 start = nowNs();
    const u64 deadline = start + duration_ns;
    const std::size_t nslices = duration_ns / kSliceNs + 1;
    std::vector<std::thread> threads;
    for (u32 c = 0; c < kKvClients; ++c) {
        threads.emplace_back([&, c] {
            KvClientStats &cs = out[c];
            cs.slices.assign(nslices, 0);
            File *file = st.handles[c].get();
            BenchRng rng(seed * 7919 + c);
            std::vector<u8> buf(kKvRecord);
            u64 op = static_cast<u64>(c) << 48;
            for (;;) {
                const u64 t0 = nowNs();
                if (t0 >= deadline)
                    break;
                Tracer::setOp(++op);
                const bool is_read = rng.unit() < kKvReadShare;
                const u64 key = zipf.next(rng);
                u64 t1;
                if (is_read) {
                    const u64 lo = st.versions[key].load(
                        std::memory_order_acquire);
                    StatusOr<u64> n = file->pread(
                        key * kKvRecord, MutSlice(buf.data(), kKvRecord));
                    t1 = nowNs();
                    if (!n.isOk()) {
                        cs.failures.fail("pread", n.status());
                        continue;
                    }
                    if (*n != kKvRecord) {
                        cs.failures.fail("pread",
                                         Status::ioError("short read"));
                        continue;
                    }
                    u64 v = 0;
                    std::string why = kvCheckRecord(buf.data(), key, &v);
                    const u64 hi =
                        st.versions[key].load(std::memory_order_acquire) + 1;
                    if (why.empty() && (v < lo || v > hi))
                        why = "stale or future version";
                    if (!why.empty() && cs.badRecords++ == 0)
                        cs.firstBad = "slot " + std::to_string(key) + ": " +
                                      why;
                    ++cs.readOk;
                    if (record)
                        cs.reads.record(t1 - t0);
                } else {
                    // The record owned by this client next to the key.
                    u64 slot = key - key % kKvClients + c;
                    if (slot >= kKvRecords)
                        slot -= kKvClients;
                    const u64 v =
                        st.versions[slot].load(std::memory_order_relaxed) + 1;
                    kvMakeRecord(buf.data(), slot, v);
                    Status s = file->pwrite(slot * kKvRecord,
                                            ConstSlice(buf.data(), kKvRecord));
                    if (!s.isOk()) {
                        cs.failures.fail("pwrite", s);
                        continue;
                    }
                    s = file->sync();
                    t1 = nowNs();
                    if (!s.isOk()) {
                        cs.failures.fail("sync", s);
                        continue;
                    }
                    st.versions[slot].store(v, std::memory_order_release);
                    ++cs.writeOk;
                    if (record)
                        cs.writes.record(t1 - t0);
                }
                if (record)
                    addOp(cs.slices, start, t0, t1);
            }
            cs.failures.addOk("pread", cs.readOk);
            cs.failures.addOk("pwrite", cs.writeOk);
            cs.failures.addOk("sync", cs.writeOk);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/** Folds client stats into the window and the report's failures. */
void
kvFold(Report &report, std::vector<KvClientStats> &cs, Window &w, u64 *reads,
       u64 *writes)
{
    *reads = *writes = 0;
    for (KvClientStats &c : cs) {
        w.reads.merge(c.reads);
        w.writes.merge(c.writes);
        if (w.slices.size() < c.slices.size())
            w.slices.resize(c.slices.size(), 0);
        for (std::size_t i = 0; i < c.slices.size(); ++i)
            w.slices[i] += c.slices[i];
        report.failures.merge(c.failures);
        *reads += c.readOk;
        *writes += c.writeOk;
        if (c.badRecords != 0)
            report.problem("kv-zipf read check: " +
                           std::to_string(c.badRecords) +
                           " bad records, first: " + c.firstBad);
    }
}

/**
 * Format, prefill (version 0 everywhere), one overwrite pass, one
 * verified read pass, then an untimed ramp on the workload's own mix
 * until the read-cache hit ratio is steady.
 */
bool
kvSetup(Report &report, const std::shared_ptr<mgsp::PmemDevice> &device,
        const ScrambledZipf &zipf, u64 seed, Tracer *tracer, KvState &st,
        int *ramp_chunks, double *ramp_hit)
{
    StatusOr<std::unique_ptr<MgspFs>> fs =
        MgspFs::format(device, defaultConfig(kKvArena));
    if (!report.failures.check("format", fs.status()))
        return false;
    st.fs = std::move(*fs);
    st.api = maybeTraced(st.fs.get(), tracer, st.traced);
    st.versions = std::make_unique<std::atomic<u64>[]>(kKvRecords);
    StatusOr<std::unique_ptr<File>> f =
        st.api->open(kKvPath, OpenOptions::Create(kKvFile));
    if (!report.failures.check("open", f.status()))
        return false;
    st.handles.push_back(std::move(*f));
    File *file = st.handles[0].get();

    std::vector<u8> chunk(1 * MiB);
    const u64 per_chunk = chunk.size() / kKvRecord;
    for (u64 off = 0; off < kKvFile; off += chunk.size()) {
        for (u64 i = 0; i < per_chunk; ++i)
            kvMakeRecord(chunk.data() + i * kKvRecord, off / kKvRecord + i, 0);
        if (!report.failures.check(
                "prefill", file->pwrite(off, ConstSlice(chunk.data(),
                                                        chunk.size()))))
            return false;
    }
    if (!report.failures.check("sync", file->sync()))
        return false;

    // Warm write pass: overwrite every record once, so each 4 KiB
    // block has its shadow-tree leaf before any read can cache it.
    // (A frame cached from a block with no leaf yet is not
    // invalidated when a later write creates the leaf, so reads of it
    // stay stale; this pass keeps the measured window clear of that
    // engine defect, which the read checks below would report.)
    std::vector<u8> rec(kKvRecord);
    u64 warm_ok = 0;
    for (u64 slot = 0; slot < kKvRecords; ++slot) {
        kvMakeRecord(rec.data(), slot, 0);
        Status s = file->pwrite(slot * kKvRecord,
                                ConstSlice(rec.data(), kKvRecord));
        if (s.isOk())
            ++warm_ok;
        else
            report.failures.fail("warm-write", s);
    }
    report.failures.addOk("warm-write", warm_ok);

    u64 bad = 0;
    for (u64 slot = 0; slot < kKvRecords; ++slot) {
        StatusOr<u64> n =
            file->pread(slot * kKvRecord, MutSlice(rec.data(), kKvRecord));
        if (!n.isOk() || *n != kKvRecord) {
            report.failures.fail("warm-read",
                                 n.isOk() ? Status::ioError("short read")
                                          : n.status());
            continue;
        }
        report.failures.addOk("warm-read", 1);
        u64 v = 0;
        if (!kvCheckRecord(rec.data(), slot, &v).empty() || v != 0)
            ++bad;
    }
    if (bad != 0)
        report.problem("kv-zipf prefill check: " + std::to_string(bad) +
                       " bad records");

    for (u32 c = 1; c < kKvClients; ++c) {
        StatusOr<std::unique_ptr<File>> h = st.api->open(kKvPath, {});
        if (!report.failures.check("open", h.status()))
            return false;
        st.handles.push_back(std::move(*h));
    }

    double prev = -1;
    std::vector<KvClientStats> cs;
    int chunks = 0;
    for (; chunks < kRampMaxChunks; ++chunks) {
        const mgsp::CacheStats a = st.fs->cacheStats();
        kvRunClients(st, zipf, seed + 1000 + chunks, kRampChunkNs, false, cs);
        const mgsp::CacheStats d = cacheDelta(st.fs->cacheStats(), a);
        Window ramp_window;
        u64 r, w;
        kvFold(report, cs, ramp_window, &r, &w);
        const double hit = ratio(static_cast<double>(d.hits),
                                 static_cast<double>(d.hits + d.misses));
        *ramp_hit = hit;
        if (chunks >= 1 && std::abs(hit - prev) < 0.01)
            break;
        prev = hit;
    }
    *ramp_chunks = chunks + 1;
    return true;
}

/** Reads every record; each must carry its last acknowledged version. */
void
kvFinalCheck(Report &report, KvState &st)
{
    std::vector<u8> rec(kKvRecord);
    u64 bad = 0;
    std::string first;
    for (u64 slot = 0; slot < kKvRecords; ++slot) {
        StatusOr<u64> n = st.handles[0]->pread(
            slot * kKvRecord, MutSlice(rec.data(), kKvRecord));
        if (!n.isOk() || *n != kKvRecord) {
            report.failures.fail("final-read",
                                 n.isOk() ? Status::ioError("short read")
                                          : n.status());
            continue;
        }
        report.failures.addOk("final-read", 1);
        u64 v = 0;
        std::string why = kvCheckRecord(rec.data(), slot, &v);
        if (why.empty() && v != st.versions[slot].load())
            why = "version " + std::to_string(v) + " != last acknowledged " +
                  std::to_string(st.versions[slot].load());
        if (!why.empty() && bad++ == 0)
            first = "slot " + std::to_string(slot) + ": " + why;
    }
    if (bad != 0)
        report.problem("kv-zipf final file check: " + std::to_string(bad) +
                       " bad records, first: " + first);
}

EndToEnd
kvEndToEnd(const Window &w)
{
    EndToEnd e;
    sliceThroughput(w, e);
    e.p50Us = w.writes.quantileUs(0.5);
    e.latencySamples = w.writes.count();
    e.writeAmp = ratio(static_cast<double>(w.dev.bytesWritten),
                       static_cast<double>(w.logical));
    e.writeAmpBytes = w.logical;
    e.opNote = "reads + writes, median of 0.5 s slices";
    e.p50Note = "pwrite+sync of one 1 KiB record";
    e.ampNote = "device bytes / user bytes over the window";
    return e;
}

void
kvWindowInfo(Report &report, const Window &w, const char *tag)
{
    const std::string t = tag;
    report.addInfo({t + "write_p50_us", w.writes.quantileUs(0.5), "us",
                    w.writes.count(), "pwrite+sync"});
    report.addInfo({t + "write_p99_us", w.writes.quantileUs(0.99), "us",
                    w.writes.count(), "pwrite+sync"});
    report.addInfo({t + "read_p50_us", w.reads.quantileUs(0.5), "us",
                    w.reads.count(), "pread"});
    report.addInfo({t + "read_p99_us", w.reads.quantileUs(0.99), "us",
                    w.reads.count(), "pread"});
}

}  // namespace

void
runKvZipf(const RunConfig &rc, Report &report)
{
    const ScrambledZipf zipf(kKvRecords, kKvTheta);
    auto device = makeDevice(kKvArena, mgsp::PmemDevice::Mode::Flat);
    Tracer tracer;
    EndToEnd untraced, traced;
    std::vector<double> setups;
    const u64 full_ns = static_cast<u64>(rc.seconds * 1e9);

    for (int i = 0; i < kSetups; ++i) {
        const bool via_tracer = rc.traced && i == kSetups - 1;
        const bool measure = rc.traced ? i >= kSetups - 2 : i == kSetups - 1;
        KvState st;
        int ramp_chunks = 0;
        double ramp_hit = 0;
        const u64 t0 = nowNs();
        if (!kvSetup(report, device, zipf, rc.seed, via_tracer ? &tracer : nullptr,
                     st, &ramp_chunks, &ramp_hit)) {
            report.problem("kv-zipf set-up failed");
            return;
        }
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        report.addInfo({"setup.ramp_chunks", static_cast<double>(ramp_chunks),
                        "count", 1, "0.5 s ramp chunks until hit ratio steady"});
        report.addInfo({"setup.ramp_hit_ratio", ramp_hit, "ratio", 1,
                        "cache hit ratio of the last ramp chunk"});
        if (!measure)
            continue;

        tracer.setEnabled(via_tracer);
        const Marks a = mark(*st.fs, kKvPath, &tracer);
        std::vector<KvClientStats> cs;
        kvRunClients(st, zipf, rc.seed, rc.traced ? full_ns / 2 : full_ns,
                     true, cs);
        const Marks b = mark(*st.fs, kKvPath, &tracer);
        tracer.setEnabled(false);
        Window w;
        u64 reads = 0, writes = 0;
        kvFold(report, cs, w, &reads, &writes);
        closeWindow(w, a, b);
        kvFinalCheck(report, st);

        const std::map<std::string, double> layers =
            fileLayerMetrics(w, reads, writes);
        if (!via_tracer) {
            untraced = kvEndToEnd(w);
            kvWindowInfo(report, w, "");
            addCounterInfo(report, layers, writes);
        } else {
            traced = kvEndToEnd(w);
            kvWindowInfo(report, w, "traced.");
            addPerLayer(report, layers, writes);
        }
    }
    untraced.setupSeconds = setups;
    addEndToEnd(report, untraced, !rc.traced);
    if (rc.traced) {
        addOverhead(report, untraced, traced);
        report.addInfo({"transparency.device_counters", 0, "", 0,
                        "not checked: 3 concurrent clients"});
        writeTrace(report, tracer, rc);
    }
}

// ====================================================================
// bulk-seq
// ====================================================================

namespace {

constexpr u64 kBulkFile = 128 * MiB;
constexpr u64 kBulkWrite = 1 * MiB;
constexpr u64 kBulkChunks = kBulkFile / kBulkWrite;
constexpr u64 kBulkArena = 1024 * MiB;
constexpr u64 kBulkStampEvery = 4 * KiB;
constexpr u64 kCheckWrites = 32;  ///< window writes compared traced/untraced
const char *const kBulkPath = "bulk.dat";

/** Stamps (chunk, pass, block) at the head of every 4 KiB block. */
void
bulkStamp(u8 *buf, u64 seed, u64 chunk, u64 pass)
{
    for (u64 blk = 0; blk < kBulkWrite / kBulkStampEvery; ++blk) {
        const u64 words[4] = {mix64(seed), chunk, pass, blk};
        std::memcpy(buf + blk * kBulkStampEvery, words, sizeof(words));
    }
}

struct BulkState
{
    std::unique_ptr<MgspFs> fs;
    std::unique_ptr<TracedFs> traced;
    std::unique_ptr<File> file;
    std::vector<u8> base;          ///< seeded bytes under the stamps
    std::vector<u64> lastPass;     ///< per chunk, last acknowledged pass
    u64 next = 0;                  ///< global write index
    DevCounts setupDev;
};

/** One sequential pwrite+sync; false (and counted) on failure. */
bool
bulkWriteOne(Report &report, BulkState &st, u64 seed, u64 *nanos)
{
    const u64 chunk = st.next % kBulkChunks;
    const u64 pass = st.next / kBulkChunks;
    bulkStamp(st.base.data(), seed, chunk, pass);
    const u64 t0 = nowNs();
    Status s = st.file->pwrite(chunk * kBulkWrite,
                               ConstSlice(st.base.data(), kBulkWrite));
    if (s.isOk())
        s = st.file->sync();
    *nanos = nowNs() - t0;
    ++st.next;
    if (!s.isOk()) {
        report.failures.fail("pwrite+sync", s);
        return false;
    }
    st.lastPass[chunk] = pass;
    return true;
}

/** Format, then a prefill pass (appends) and a warm overwrite pass. */
bool
bulkSetup(Report &report, const std::shared_ptr<mgsp::PmemDevice> &device,
          u64 seed, Tracer *tracer, BulkState &st)
{
    const DevCounts d0 = DevCounts::of(*device);
    StatusOr<std::unique_ptr<MgspFs>> fs =
        MgspFs::format(device, defaultConfig(kBulkArena));
    if (!report.failures.check("format", fs.status()))
        return false;
    st.fs = std::move(*fs);
    FileSystem *api = maybeTraced(st.fs.get(), tracer, st.traced);
    StatusOr<std::unique_ptr<File>> f =
        api->open(kBulkPath, OpenOptions::Create(kBulkFile));
    if (!report.failures.check("open", f.status()))
        return false;
    st.file = std::move(*f);
    st.base.resize(kBulkWrite);
    BenchRng rng(seed);
    for (u64 i = 0; i < kBulkWrite; i += 8) {
        const u64 v = rng.next();
        std::memcpy(st.base.data() + i, &v, 8);
    }
    st.lastPass.assign(kBulkChunks, 0);
    u64 ok = 0;
    for (u64 i = 0; i < 2 * kBulkChunks; ++i) {
        u64 ns;
        ok += bulkWriteOne(report, st, seed, &ns) ? 1 : 0;
    }
    report.failures.addOk("pwrite+sync", ok);
    st.setupDev = DevCounts::of(*device) - d0;
    return ok == 2 * kBulkChunks;
}

/** Compares the whole file with the expected bytes. */
void
bulkFinalCheck(Report &report, BulkState &st, u64 seed)
{
    std::vector<u8> got(kBulkWrite), want = st.base;
    u64 bad = 0;
    for (u64 chunk = 0; chunk < kBulkChunks; ++chunk) {
        StatusOr<u64> n = st.file->pread(chunk * kBulkWrite,
                                         MutSlice(got.data(), got.size()));
        if (!n.isOk() || *n != kBulkWrite) {
            report.failures.fail("final-read",
                                 n.isOk() ? Status::ioError("short read")
                                          : n.status());
            continue;
        }
        report.failures.addOk("final-read", 1);
        bulkStamp(want.data(), seed, chunk, st.lastPass[chunk]);
        if (std::memcmp(got.data(), want.data(), kBulkWrite) != 0)
            ++bad;
    }
    if (st.file->size() != kBulkFile)
        report.problem("bulk-seq file size " +
                       std::to_string(st.file->size()));
    if (bad != 0)
        report.problem("bulk-seq final file check: " + std::to_string(bad) +
                       " chunks differ from the expected bytes");
}

/**
 * Every overwrite of a chunk alternates between its shadow log and its
 * home extent (role switching), so a pass writes all chunks the same
 * way and the latency is bimodal: log writes also checksum the MiB.
 * The set-up's overwrite pass 1 goes to the log, so odd passes log.
 */
bool
bulkLogPass(u64 write_index)
{
    return (write_index / kBulkChunks) % 2 == 1;
}

EndToEnd
bulkEndToEnd(const Window &w, const LatencyHist &log_path,
             const std::vector<double> &pair_rates)
{
    EndToEnd e;
    // Time slices would mix the two modes unevenly; a pass pair holds
    // exactly one log and one home write of every chunk.
    e.opsPerSec = quantile(pair_rates, 0.5);
    e.opsSamples = pair_rates.size();
    // The overall median sits between the two modes and jumps between
    // them from run to run; the log path's median is stable.
    e.p50Us = log_path.quantileUs(0.5);
    e.latencySamples = log_path.count();
    e.writeAmp = ratio(static_cast<double>(w.dev.bytesWritten),
                       static_cast<double>(w.logical));
    e.writeAmpBytes = w.logical;
    e.opNote = "1 MiB pwrite+sync (= MiB/s), median over pass pairs";
    e.p50Note = "pwrite+sync of 1 MiB to the shadow log (odd passes)";
    e.ampNote = "device bytes / user bytes over the window";
    return e;
}

}  // namespace

void
runBulkSeq(const RunConfig &rc, Report &report)
{
    auto device = makeDevice(kBulkArena, mgsp::PmemDevice::Mode::Flat);
    Tracer tracer;
    EndToEnd untraced, traced;
    std::vector<double> setups;
    std::vector<DevCounts> setup_dev, first_dev;
    const u64 full_ns = static_cast<u64>(rc.seconds * 1e9);

    for (int i = 0; i < kSetups; ++i) {
        const bool via_tracer = rc.traced && i == kSetups - 1;
        const bool measure = rc.traced ? i >= kSetups - 2 : i == kSetups - 1;
        BulkState st;
        const u64 t0 = nowNs();
        if (!bulkSetup(report, device, rc.seed, via_tracer ? &tracer : nullptr,
                       st)) {
            report.problem("bulk-seq set-up failed");
            return;
        }
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        setup_dev.push_back(st.setupDev);
        if (!measure)
            continue;

        tracer.setEnabled(via_tracer);
        Window w;
        const u64 dur = rc.traced ? full_ns / 2 : full_ns;
        LatencyHist log_path, home_path;
        std::vector<double> pair_rates;  ///< writes/s per pass pair
        const Marks a = mark(*st.fs, kBulkPath, &tracer);
        u64 ok = 0, pair_start = a.t, pair_ok = 0;
        for (;;) {
            const u64 now = nowNs();
            if (now >= a.t + dur)
                break;
            if (st.next % (2 * kBulkChunks) == 0) {
                pair_start = now;
                pair_ok = 0;
            }
            Tracer::setOp(st.next);
            const bool to_log = bulkLogPass(st.next);
            u64 ns = 0;
            if (!bulkWriteOne(report, st, rc.seed, &ns))
                continue;
            ++ok;
            w.writes.record(ns);
            (to_log ? log_path : home_path).record(ns);
            if (++pair_ok == 2 * kBulkChunks)
                pair_rates.push_back(static_cast<double>(pair_ok) * 1e9 /
                                     static_cast<double>(nowNs() - pair_start));
            if (ok == kCheckWrites)
                first_dev.push_back(DevCounts::of(*device) - a.dev);
        }
        const Marks b = mark(*st.fs, kBulkPath, &tracer);
        tracer.setEnabled(false);
        report.failures.addOk("pwrite+sync", ok);
        closeWindow(w, a, b);
        bulkFinalCheck(report, st, rc.seed);

        const std::map<std::string, double> layers =
            fileLayerMetrics(w, 0, ok);
        const EndToEnd e = bulkEndToEnd(w, log_path, pair_rates);
        const std::string tag = via_tracer ? "traced." : "";
        report.addInfo({tag + "mib_per_s", e.opsPerSec, "MiB/s", e.opsSamples,
                        "user bytes written per second"});
        report.addInfo({tag + "write_p50_us", w.writes.quantileUs(0.5), "us",
                        w.writes.count(), "pwrite+sync, both paths"});
        report.addInfo({tag + "write_p99_us", w.writes.quantileUs(0.99), "us",
                        w.writes.count(), "pwrite+sync, both paths"});
        report.addInfo({tag + "write_log_p50_us", log_path.quantileUs(0.5),
                        "us", log_path.count(), "writes to the shadow log"});
        report.addInfo({tag + "write_home_p50_us", home_path.quantileUs(0.5),
                        "us", home_path.count(), "writes to the home extent"});
        if (!via_tracer) {
            untraced = e;
            addCounterInfo(report, layers, ok);
        } else {
            traced = e;
            addPerLayer(report, layers, ok);
        }
    }
    untraced.setupSeconds = setups;
    addEndToEnd(report, untraced, !rc.traced);
    for (std::size_t i = 1; i < setup_dev.size(); ++i)
        if (!(setup_dev[i] == setup_dev[0]))
            report.problem("bulk-seq set-up device counters differ between "
                           "set-ups: " + setup_dev[0].str() + " vs " +
                           setup_dev[i].str());
    if (rc.traced) {
        addOverhead(report, untraced, traced);
        const bool same = first_dev.size() == 2 && first_dev[0] == first_dev[1];
        if (!same)
            report.problem("traced run changed device counters over the first "
                           "window writes");
        report.addInfo({"transparency.device_counters", same ? 1.0 : 0.0,
                        "bool", kCheckWrites,
                        "set-up + first window writes, traced == untraced"});
        writeTrace(report, tracer, rc);
    }
}

}  // namespace perfbench
