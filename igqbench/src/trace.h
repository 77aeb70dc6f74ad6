// Outside-in tracing for the benchmark. Spans are recorded only around calls
// the benchmark itself makes into the library's public functions: the query
// and mutation entry points, and the virtuals of two decorators the engine is
// handed instead of the real objects — TracingMethod (every igq::Method
// virtual) and TracingFileSystem (the WAL's file appends and syncs). Nothing
// inside src/ is instrumented.
//
// Spans live in per-thread in-memory buffers (no lock on the recording path)
// and are merged when the traced run ends. An untraced run never constructs a
// Tracer: the Method decorator is not installed at all, and the FileSystem
// decorator, handed a null tracer, forwards without reading the clock.
#ifndef IGQBENCH_TRACE_H_
#define IGQBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durability/fault_fs.h"
#include "methods/method.h"

namespace igqbench {

/// What a span measured. Root kinds (kQuery, kMutate) open a request; every
/// other kind is a child of whichever root is current on its thread.
enum class SpanKind : uint8_t {
  kQuery,        // one engine query call
  kMutate,       // one ApplyMutation call
  kPrepare,      // Method::Prepare
  kFilter,       // Method::Filter            (arg = candidates returned)
  kVerify,       // Method::Verify            (arg = candidate id, flag = hit)
  kUpdate,       // Method::OnAddGraph/OnRemoveGraph (arg = graph id)
  kBuild,        // Method::Build
  kAppend,       // WritableFile::Append      (arg = bytes)
  kSync,         // WritableFile::Sync
  kCanonical,    // GraphCanonicalCode, called directly by the benchmark
  kPathExtract,  // QueryCache::ExtractFeatures, called directly
};

/// Dotted name of a span kind ("methods.verify", "igq.query", ...).
const char* SpanName(SpanKind kind);

/// One recorded interval. `query` is the request id shared by all spans of
/// one request (-1 outside any request); `parent` is the id of the span that
/// caused this one (0 for roots).
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t query = -1;
  uint64_t arg = 0;
  SpanKind kind = SpanKind::kQuery;
  bool flag = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Collects spans from every thread that records while it is alive.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since the tracer was created (steady clock).
  int64_t Now() const;

  /// Merges every thread's buffer, sorted by start time. Call only once no
  /// thread is recording any more.
  std::vector<Span> Collect() const;

  /// Drops everything recorded so far (used to discard warm-up spans).
  /// Same quiescence requirement as Collect.
  void Clear();

 private:
  friend class ScopedSpan;

  struct Buffer {
    std::vector<Span> spans;
    uint64_t slot = 0;
    uint64_t next_local = 0;
  };

  /// The calling thread's buffer for this tracer, created on first use.
  Buffer& ThreadBuffer();

  /// Request context of a thread that has none of its own: the verify-pool
  /// workers of a single-client workload inherit the root span the client
  /// opened last. Multi-stream workloads verify inline on the stream thread,
  /// which always has its own context.
  std::atomic<int64_t> broadcast_query_{-1};
  std::atomic<uint64_t> broadcast_span_{0};

  const uint64_t generation_;
  const int64_t origin_ns_;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. A null tracer makes it a no-op (no clock reads). A root span
/// (query >= 0) becomes the calling thread's request context until it ends;
/// any other span inherits the current context as its parent and query id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, int64_t query = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { span_.arg = arg; }
  void set_flag(bool flag) { span_.flag = flag; }

 private:
  Tracer* tracer_;
  Span span_;
  bool root_ = false;
  int64_t saved_query_ = -1;
  uint64_t saved_span_ = 0;
};

/// Writes up to `limit` spans (the earliest) to `path` as JSON lines:
/// {"name", "start_ns", "end_ns", "id", "parent", "query", "arg"}. Returns
/// false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t limit = 20000);

/// Method decorator: forwards every virtual to `inner` inside a span. The
/// PreparedQuery objects are the inner method's own, so the inner Filter and
/// Verify see exactly what they would without the decorator.
class TracingMethod final : public igq::Method {
 public:
  TracingMethod(igq::Method* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string Name() const override { return inner_->Name(); }
  igq::QueryDirection Direction() const override {
    return inner_->Direction();
  }
  void Build(const igq::GraphDatabase& db) override;
  std::unique_ptr<igq::PreparedQuery> Prepare(
      const igq::Graph& query) const override;
  std::vector<igq::GraphId> Filter(
      const igq::PreparedQuery& prepared) const override;
  bool Verify(const igq::PreparedQuery& prepared,
              igq::GraphId id) const override;
  size_t IndexMemoryBytes() const override {
    return inner_->IndexMemoryBytes();
  }
  bool SaveIndex(std::ostream& out) const override {
    return inner_->SaveIndex(out);
  }
  bool LoadIndex(const igq::GraphDatabase& db, std::istream& in) override {
    return inner_->LoadIndex(db, in);
  }
  bool OnAddGraph(const igq::GraphDatabase& db, igq::GraphId id) override;
  bool OnRemoveGraph(const igq::GraphDatabase& db, igq::GraphId id) override;

 private:
  igq::Method* inner_;
  Tracer* tracer_;
};

/// FileSystem decorator: the files it opens record a span per Append and
/// per Sync; every other call forwards unchanged.
class TracingFileSystem final : public igq::durability::FileSystem {
 public:
  TracingFileSystem(igq::durability::FileSystem* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::unique_ptr<igq::durability::WritableFile> OpenForAppend(
      const std::string& path) override;
  bool ReadFile(const std::string& path, std::string* contents) override {
    return inner_->ReadFile(path, contents);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  bool Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  std::vector<std::string> ListDir(const std::string& dir) override {
    return inner_->ListDir(dir);
  }

 private:
  igq::durability::FileSystem* inner_;
  Tracer* tracer_;
};

}  // namespace igqbench

#endif  // IGQBENCH_TRACE_H_
