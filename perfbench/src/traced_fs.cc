#include "traced_fs.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

using mgsp::ConstSlice;
using mgsp::File;
using mgsp::FileTxn;
using mgsp::MutSlice;
using mgsp::StatusOr;

const char *
spanName(SpanKind kind)
{
    static const char *const kNames[] = {
        "vfs.pread",      "vfs.pwrite",     "vfs.preadv",
        "vfs.pwritev",    "vfs.advise",     "vfs.sync",
        "vfs.range_sync", "vfs.health",     "vfs.size",
        "vfs.truncate",   "vfs.close",      "vfs.open",
        "vfs.remove",     "vfs.exists",     "vfs.logical_bytes",
        "vfs.cache_stats", "vfs.drop_caches", "vfs.begin_txn",
        "vfs.txn_pwrite", "vfs.txn_commit", "vfs.txn_abort",
        "vfs.txn",        "vfs.fs_health",  "vfs.on_health_change",
        "mgsp.mount",     "bench.open_close", "bench.run_tpcc",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<u32>(SpanKind::kCount));
    return kNames[static_cast<u32>(kind)];
}

namespace {

/** A vfs call (the Txn interval is not a call: it spans minidb work). */
bool
isVfsCall(SpanKind kind)
{
    return isVfs(kind) && kind != SpanKind::Txn;
}

std::atomic<u64> gTracerIds{1};
thread_local u64 tOp = 0;

}  // namespace

SpanTotals
SpanTotals::operator-(const SpanTotals &o) const
{
    SpanTotals d;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        d.rows[i].calls = rows[i].calls - o.rows[i].calls;
        d.rows[i].nanos = rows[i].nanos - o.rows[i].nanos;
        d.rows[i].childNanos = rows[i].childNanos - o.rows[i].childNanos;
        d.rows[i].bytes = rows[i].bytes - o.rows[i].bytes;
        d.rows[i].busy = rows[i].busy - o.rows[i].busy;
    }
    d.vfsTopNanos = vfsTopNanos - o.vfsTopNanos;
    return d;
}

struct Tracer::ThreadBuf
{
    struct Rec
    {
        SpanKind kind;
        u64 start;
        u64 end;
        u64 id;
        u64 parent;
        u64 op;
        u64 bytes;
    };
    struct Open
    {
        u64 id;
        SpanKind kind;
        u64 start;
        u64 childNanos;
        u64 parent;
        u64 op;
    };
    u32 tid = 0;
    u64 nextSeq = 1;
    u64 dropped = 0;
    std::vector<Rec> kept;
    std::vector<Open> stack;
    SpanTotals totals;
};

namespace {
struct LocalSlot
{
    u64 tracerId = 0;
    void *buf = nullptr;
};
thread_local LocalSlot tLocal;
}  // namespace

Tracer::Tracer() : epochNs_(nowNs()), id_(gTracerIds.fetch_add(1)) {}

Tracer::~Tracer() = default;

void
Tracer::setOp(u64 op)
{
    tOp = op;
}

Tracer::ThreadBuf *
Tracer::local()
{
    if (tLocal.tracerId == id_)
        return static_cast<ThreadBuf *>(tLocal.buf);
    auto buf = std::make_unique<ThreadBuf>();
    ThreadBuf *raw = buf.get();
    {
        std::lock_guard<std::mutex> guard(mutex_);
        raw->tid = static_cast<u32>(bufs_.size()) + 1;
        bufs_.push_back(std::move(buf));
    }
    raw->kept.reserve(1024);
    tLocal = {id_, raw};
    return raw;
}

u64
Tracer::begin(SpanKind kind)
{
    if (!enabled_)
        return 0;
    ThreadBuf *b = local();
    const u64 id = (static_cast<u64>(b->tid) << 40) | b->nextSeq++;
    const u64 parent = b->stack.empty() ? 0 : b->stack.back().id;
    b->stack.push_back({id, kind, nowNs(), 0, parent, tOp});
    return id;
}

void
Tracer::end(u64 token, u64 bytes, bool busy)
{
    if (token == 0)
        return;
    const u64 t = nowNs();
    ThreadBuf *b = local();
    while (!b->stack.empty() && b->stack.back().id != token)
        b->stack.pop_back();  // a span left open by a misbehaving caller
    if (b->stack.empty())
        return;
    const ThreadBuf::Open open = b->stack.back();
    b->stack.pop_back();
    const u64 dur = t - open.start;
    SpanTotals::Row &row = b->totals.rows[static_cast<u32>(open.kind)];
    ++row.calls;
    row.nanos += dur;
    row.childNanos += open.childNanos;
    row.bytes += bytes;
    if (busy)
        ++row.busy;
    const bool parent_is_call =
        !b->stack.empty() && isVfsCall(b->stack.back().kind);
    if (isVfsCall(open.kind) && !parent_is_call)
        b->totals.vfsTopNanos += dur;
    if (!b->stack.empty())
        b->stack.back().childNanos += dur;
    if (b->kept.size() < kKeptSpans)
        b->kept.push_back({open.kind, open.start, t, open.id, open.parent,
                           open.op, bytes});
    else
        ++b->dropped;
}

SpanTotals
Tracer::totals() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    SpanTotals sum;
    for (const auto &b : bufs_) {
        for (std::size_t i = 0; i < sum.rows.size(); ++i) {
            sum.rows[i].calls += b->totals.rows[i].calls;
            sum.rows[i].nanos += b->totals.rows[i].nanos;
            sum.rows[i].childNanos += b->totals.rows[i].childNanos;
            sum.rows[i].bytes += b->totals.rows[i].bytes;
            sum.rows[i].busy += b->totals.rows[i].busy;
        }
        sum.vfsTopNanos += b->totals.vfsTopNanos;
    }
    return sum;
}

u64
Tracer::droppedSpans() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    u64 n = 0;
    for (const auto &b : bufs_)
        n += b->dropped;
    return n;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> guard(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const auto &b : bufs_) {
        std::fprintf(f,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"bench-%u\"}}",
                     first ? "" : ",\n", b->tid, b->tid);
        first = false;
        for (const ThreadBuf::Rec &r : b->kept)
            std::fprintf(
                f,
                ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                "\"parent\":%llu,\"op\":%llu,\"bytes\":%llu}}",
                spanName(r.kind), b->tid,
                static_cast<double>(r.start - epochNs_) / 1000.0,
                static_cast<double>(r.end - r.start) / 1000.0,
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.parent),
                static_cast<unsigned long long>(r.op),
                static_cast<unsigned long long>(r.bytes));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---- the decorator -------------------------------------------------

namespace {

class TracedFile : public File
{
  public:
    TracedFile(std::unique_ptr<File> inner, Tracer *tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    ~TracedFile() override
    {
        Span s(tracer_, SpanKind::Close);
        inner_.reset();  // the engine's close (MGSP: log write-back)
    }

    File *inner() const { return inner_.get(); }

    StatusOr<u64>
    pread(u64 offset, MutSlice dst) override
    {
        Span s(tracer_, SpanKind::Pread);
        StatusOr<u64> n = inner_->pread(offset, dst);
        if (n.isOk())
            s.setBytes(*n);
        return n;
    }

    Status
    pwrite(u64 offset, ConstSlice src) override
    {
        Span s(tracer_, SpanKind::Pwrite);
        s.setBytes(src.size());
        Status st = inner_->pwrite(offset, src);
        s.setStatus(st);
        return st;
    }

    StatusOr<u64>
    preadv(u64 offset, const std::vector<MutSlice> &spans) override
    {
        Span s(tracer_, SpanKind::Preadv);
        StatusOr<u64> n = inner_->preadv(offset, spans);
        if (n.isOk())
            s.setBytes(*n);
        return n;
    }

    Status
    pwritev(u64 offset, const std::vector<ConstSlice> &spans) override
    {
        Span s(tracer_, SpanKind::Pwritev);
        u64 bytes = 0;
        for (const ConstSlice &c : spans)
            bytes += c.size();
        s.setBytes(bytes);
        Status st = inner_->pwritev(offset, spans);
        s.setStatus(st);
        return st;
    }

    Status
    advise(mgsp::AccessHint hint) override
    {
        Span s(tracer_, SpanKind::Advise);
        return inner_->advise(hint);
    }

    Status
    sync() override
    {
        Span s(tracer_, SpanKind::Sync);
        Status st = inner_->sync();
        s.setStatus(st);
        return st;
    }

    Status
    rangeSync(u64 offset, u64 len) override
    {
        Span s(tracer_, SpanKind::RangeSync);
        Status st = inner_->rangeSync(offset, len);
        s.setStatus(st);
        return st;
    }

    mgsp::FileHealthState
    health() const override
    {
        Span s(tracer_, SpanKind::Health);
        return inner_->health();
    }

    u64
    size() const override
    {
        Span s(tracer_, SpanKind::Size);
        return inner_->size();
    }

    Status
    truncate(u64 new_size) override
    {
        Span s(tracer_, SpanKind::Truncate);
        return inner_->truncate(new_size);
    }

  private:
    std::unique_ptr<File> inner_;
    Tracer *tracer_;
};

class TracedTxn : public FileTxn
{
  public:
    TracedTxn(std::unique_ptr<FileTxn> inner, Tracer *tracer, u64 txn_span)
        : inner_(std::move(inner)), tracer_(tracer), txnSpan_(txn_span)
    {
    }

    ~TracedTxn() override
    {
        inner_.reset();
        finish();
    }

    Status
    pwrite(File *file, u64 offset, ConstSlice src) override
    {
        Span s(tracer_, SpanKind::TxnPwrite);
        s.setBytes(src.size());
        // The engine's txn accepts only handles it issued itself.
        auto *traced = dynamic_cast<TracedFile *>(file);
        Status st = inner_->pwrite(traced ? traced->inner() : file, offset,
                                   src);
        s.setStatus(st);
        return st;
    }

    Status
    commit() override
    {
        Status st;
        {
            Span s(tracer_, SpanKind::TxnCommit);
            st = inner_->commit();
            s.setStatus(st);
        }
        finish(st.code() == StatusCode::ResourceBusy);
        return st;
    }

    Status
    abort() override
    {
        Status st;
        {
            Span s(tracer_, SpanKind::TxnAbort);
            st = inner_->abort();
        }
        finish();
        return st;
    }

  private:
    void
    finish(bool busy = false)
    {
        if (tracer_ != nullptr && txnSpan_ != 0)
            tracer_->end(txnSpan_, 0, busy);
        txnSpan_ = 0;
    }

    std::unique_ptr<FileTxn> inner_;
    Tracer *tracer_;
    u64 txnSpan_;
};

}  // namespace

const char *
TracedFs::name() const
{
    return inner_->name();
}

mgsp::ConsistencyLevel
TracedFs::consistency() const
{
    return inner_->consistency();
}

StatusOr<std::unique_ptr<File>>
TracedFs::open(const std::string &path, const mgsp::OpenOptions &options)
{
    Span s(tracer_, SpanKind::Open);
    StatusOr<std::unique_ptr<File>> f = inner_->open(path, options);
    if (!f.isOk())
        return f.status();
    return std::unique_ptr<File>(
        std::make_unique<TracedFile>(std::move(*f), tracer_));
}

Status
TracedFs::remove(const std::string &path)
{
    Span s(tracer_, SpanKind::Remove);
    return inner_->remove(path);
}

bool
TracedFs::exists(const std::string &path) const
{
    Span s(tracer_, SpanKind::Exists);
    return inner_->exists(path);
}

u64
TracedFs::logicalBytesWritten() const
{
    Span s(tracer_, SpanKind::LogicalBytes);
    return inner_->logicalBytesWritten();
}

mgsp::CacheStats
TracedFs::cacheStats() const
{
    Span s(tracer_, SpanKind::CacheStats);
    return inner_->cacheStats();
}

Status
TracedFs::dropCaches()
{
    Span s(tracer_, SpanKind::DropCaches);
    return inner_->dropCaches();
}

StatusOr<std::unique_ptr<FileTxn>>
TracedFs::beginTxn()
{
    const u64 txn_span = tracer_->begin(SpanKind::Txn);
    StatusOr<std::unique_ptr<FileTxn>> t = [&] {
        Span s(tracer_, SpanKind::BeginTxn);
        return inner_->beginTxn();
    }();
    if (!t.isOk()) {
        tracer_->end(txn_span);
        return t.status();
    }
    return std::unique_ptr<FileTxn>(
        std::make_unique<TracedTxn>(std::move(*t), tracer_, txn_span));
}

mgsp::HealthState
TracedFs::health() const
{
    Span s(tracer_, SpanKind::FsHealth);
    return inner_->health();
}

void
TracedFs::onHealthChange(std::function<void(mgsp::HealthState)> cb)
{
    Span s(tracer_, SpanKind::OnHealthChange);
    inner_->onHealthChange(std::move(cb));
}

}  // namespace perfbench
