/**
 * @file
 * The traced run's instrumentation, written entirely outside the
 * engine: a span recorder plus a vfs decorator that forwards every
 * virtual of File, FileSystem and FileTxn to the wrapped engine and
 * records one span per call.
 *
 * Spans go into per-thread memory (the first kKeptSpans per thread
 * are kept for the Chrome trace; every span feeds the per-kind
 * aggregates) and are written out once, at the end of the run, as
 * Chrome trace-event JSON that Perfetto loads.
 */
#ifndef PERFBENCH_TRACED_FS_H
#define PERFBENCH_TRACED_FS_H

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure.h"
#include "vfs/vfs.h"

namespace perfbench {

/** What a span covers. Kinds up to kLastVfs are vfs calls. */
enum class SpanKind : u32 {
    Pread,
    Pwrite,
    Preadv,
    Pwritev,
    Advise,
    Sync,
    RangeSync,
    Health,
    Size,
    Truncate,
    Close,
    Open,
    Remove,
    Exists,
    LogicalBytes,
    CacheStats,
    DropCaches,
    BeginTxn,
    TxnPwrite,
    TxnCommit,
    TxnAbort,
    Txn,  ///< beginTxn's start to the handle's commit/abort end
    FsHealth,
    OnHealthChange,
    kLastVfs = OnHealthChange,
    Mount,        ///< MgspFs::mount
    OpenClose,    ///< recovery's open + close (close does write-back)
    RunTpcc,      ///< one runTpcc call
    kCount,
};

const char *spanName(SpanKind kind);

inline bool
isVfs(SpanKind kind)
{
    return static_cast<u32>(kind) <= static_cast<u32>(SpanKind::kLastVfs);
}

/** Per-kind totals over every span recorded while enabled. */
struct SpanTotals
{
    struct Row
    {
        u64 calls = 0;
        u64 nanos = 0;      ///< summed span duration
        u64 childNanos = 0; ///< part of it covered by child spans
        u64 bytes = 0;      ///< payload bytes of read/write calls
        u64 busy = 0;       ///< calls returning ResourceBusy
    };
    std::array<Row, static_cast<u32>(SpanKind::kCount)> rows{};
    /// vfs span time not nested inside another vfs span.
    u64 vfsTopNanos = 0;

    const Row &operator[](SpanKind k) const
    {
        return rows[static_cast<u32>(k)];
    }
    SpanTotals operator-(const SpanTotals &o) const;
};

/** The span recorder. One per traced run; thread-safe. */
class Tracer
{
  public:
    static constexpr u64 kKeptSpans = 1 << 14;

    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Recording switch (spans are dropped while off). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Op id stamped on this thread's next spans. */
    static void setOp(u64 op);

    /** Opens a span; returns its token (0 when not recording). */
    u64 begin(SpanKind kind);
    /** Closes the span @p token with payload @p bytes; @p busy marks a
     * call that returned ResourceBusy. */
    void end(u64 token, u64 bytes = 0, bool busy = false);

    /** Sum of every thread's totals (call at a quiesced point). */
    SpanTotals totals() const;

    /** Writes Chrome trace-event JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    /** Spans recorded but not kept for the Chrome trace. */
    u64 droppedSpans() const;

  private:
    struct ThreadBuf;
    ThreadBuf *local();

    bool enabled_ = false;
    const u64 epochNs_;
    u64 id_;
    mutable std::mutex mutex_;  ///< guards bufs_
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer *t, SpanKind kind) : t_(t), token_(t ? t->begin(kind) : 0) {}
    ~Span()
    {
        if (t_)
            t_->end(token_, bytes_, busy_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    void setBytes(u64 b) { bytes_ = b; }
    void setStatus(const Status &s)
    {
        busy_ = s.code() == StatusCode::ResourceBusy;
    }

  private:
    Tracer *t_;
    u64 token_;
    u64 bytes_ = 0;
    bool busy_ = false;
};

/**
 * vfs decorator over a borrowed engine. Forwards every virtual
 * (including beginTxn, whose base version would make minidb fall
 * back to direct writes) and records a span per call.
 */
class TracedFs : public mgsp::FileSystem
{
  public:
    TracedFs(mgsp::FileSystem *inner, Tracer *tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    const char *name() const override;
    mgsp::ConsistencyLevel consistency() const override;
    mgsp::StatusOr<std::unique_ptr<mgsp::File>>
    open(const std::string &path, const mgsp::OpenOptions &options) override;
    Status remove(const std::string &path) override;
    bool exists(const std::string &path) const override;
    u64 logicalBytesWritten() const override;
    mgsp::CacheStats cacheStats() const override;
    Status dropCaches() override;
    mgsp::StatusOr<std::unique_ptr<mgsp::FileTxn>> beginTxn() override;
    mgsp::HealthState health() const override;
    void onHealthChange(std::function<void(mgsp::HealthState)> cb) override;

  private:
    mgsp::FileSystem *inner_;
    Tracer *tracer_;
};

/**
 * @p fs itself without a tracer; otherwise a TracedFs over it, owned
 * by @p holder.
 */
inline mgsp::FileSystem *
maybeTraced(mgsp::FileSystem *fs, Tracer *tracer,
            std::unique_ptr<TracedFs> &holder)
{
    if (tracer == nullptr)
        return fs;
    holder = std::make_unique<TracedFs>(fs, tracer);
    return holder.get();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_FS_H
